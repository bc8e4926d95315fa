"""Acceptance suite: one test per criterion, one printed verdict line each.

Every tolerance is pinned here, not tuned at runtime.  Raw Gauss-map degrees
are curvature integrals over the fixture's chart, so a truncated fixture is
pinned to the curvature that chart carries: criterion 10 compares the
catenoid with its analytic value tanh(V) and the Enneper chart at radius 1.3
with independent adaptive quadrature (0.676 * 4pi), each to 1%.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import dblquad

from anisolab import (
    gauss_analysis as ga,
    graph_solver as gs,
    integrand as ig,
    spectrum as spx,
    surface as sf,
)
from anisolab.harness import ExperimentConfig, report_json, tangency_check, verify_bounds

C1 = ig.constant(1.0)
C2 = ig.constant(2.0)
E112 = ig.ellipsoid(1, 1, 2)
SH = ig.spherical_harmonic(3, 1, 0.05)
FAMILIES = (C1, E112, SH)
TWO_PI = 2 * np.pi
SHEAR = np.diag([1.0, 1.0, 2.0])


class Stopwatch:
    """Tracks a criterion's wall time against its stated budget."""

    def __init__(self, limit_s: float):
        self.limit = limit_s
        self.t0 = time.perf_counter()

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def assert_within_budget(self) -> None:
        assert self.elapsed < self.limit, (
            f"runtime {self.elapsed:.1f}s exceeded the {self.limit:.0f}s budget"
        )


def verdict(num: int, passed: bool, detail: str, watch: Stopwatch | None = None) -> None:
    timing = f" [{watch.elapsed:.1f}s]" if watch else ""
    print(f"\n[criterion {num:2d}] {'PASS' if passed else 'FAIL'} - {detail}{timing}")


@pytest.fixture(scope="module")
def accepted_fields():
    """Curvature fields of the accepted gamma-minimal fixture suite."""
    out = {
        "catenoid": sf.curvature_field(
            sf.fixture("catenoid", grid=(96, 96), v_extent=2.0), C1
        ),
        "enneper": sf.curvature_field(
            sf.fixture("enneper", grid=(96, 96), radius=1.3), C1
        ),
        "sheared": sf.curvature_field(
            sf.fixture("sheared_catenoid", grid=(96, 96), shear=SHEAR, v_extent=2.0),
            E112,
        ),
    }
    return out


@pytest.fixture(scope="module")
def converged_lifts():
    sols = []
    sols.append(
        gs.solve(
            gs.GraphProblem(
                domain=(1.2, 2.0, -0.4, 0.4), shape=(65, 65),
                boundary=gs.bc_catenoid(), spec=C1,
            )
        )
    )
    sols.append(
        gs.solve(
            gs.GraphProblem(
                domain=(0.0, 1.0, 0.0, 1.0), shape=(65, 65),
                boundary=gs.bc_edge_sine(0.2, (0.0, 1.0, 0.0, 1.0)), spec=E112,
            )
        )
    )
    assert all(s.converged for s in sols)
    return [(s, sf.curvature_field(gs.lift(s), s.problem.spec)) for s in sols]


@pytest.fixture(scope="module")
def bounds_reports():
    reports = {}
    reports["catenoid"] = verify_bounds(
        ExperimentConfig(
            surface="catenoid:3",
            grid=96,
            domains=[[0, TWO_PI, -1, 1], [0, TWO_PI, -2, 2], [0, TWO_PI, -2.8, 2.8]],
        )
    )
    reports["enneper"] = verify_bounds(ExperimentConfig(surface="enneper:1.3", grid=96))
    reports["sheared"] = verify_bounds(
        ExperimentConfig(
            surface="sheared_catenoid:1,0,0,0,1,0,0,0,2;2",
            integrand="ellipsoid:1,1,2",
            grid=96,
        )
    )
    return reports


def test_criterion_11_report_bytes_pinned(bounds_reports):
    # sha256 of report_json for each configuration of the fixture
    digests = {
        "catenoid": "3b1c24e6dc4e17bc2b72f63a5c6fb4653c37ee700d2a271e7c6699f8ca53915d",
        "enneper": "b82e518df9721c37a73a1ca117462edcd55fec0fbb9205178241cf4ac31a2baf",
        "sheared": "0ccfa38026f9cd260b0f50a280f3ccac9b35080ccf31913f48ff579a3f8ce28a",
    }
    for name, report in bounds_reports.items():
        text = report_json(report)
        assert hashlib.sha256(text.encode()).hexdigest() == digests[name], name


def test_criterion_11_verdict_bytes_without_config_echo(bounds_reports):
    # the same reports without the config echo and its hash: a change to the
    # config fields re-pins the digests above, and this shows nothing else moved
    digests = {
        "catenoid": "f53f405fcfa4e348b9e094f2243b457d89ae8cec09ae9f7b4b692d5338b069bd",
        "enneper": "c96cc7d278d714b37813632bb6667111c1426fff085abe4f280fc515e03877fb",
        "sheared": "7535a4b4ada75f6e3bcf617d8e2d657b03eab487c55875f3e191e4c88b0eb3fd",
    }
    for name, report in bounds_reports.items():
        content = {k: v for k, v in report.items() if k not in ("config", "provenance")}
        text = report_json(content)
        assert hashlib.sha256(text.encode()).hexdigest() == digests[name], name


def test_criterion_01_cahn_hoffman_tangency():
    watch = Stopwatch(5.0)
    worst = max(tangency_check(spec, seed=11) for spec in FAMILIES)
    ok = worst <= 1e-5
    verdict(1, ok, f"tangency max |<dxi(X), nu>| = {worst:.3e} <= 1e-5", watch=watch)
    watch.assert_within_budget()
    assert ok


def test_criterion_02_hessian_consistency():
    watch = Stopwatch(5.0)
    rng = np.random.default_rng(13)
    worst_order = math.inf
    for spec in FAMILIES:
        nus = rng.standard_normal((25, 3))
        nus /= np.linalg.norm(nus, axis=1, keepdims=True)
        errs = []
        for h in (1e-4, 5e-5):
            worst = 0.0
            for nu in nus:
                hfd = np.zeros((3, 3))
                for j in range(3):
                    ej = np.zeros(3)
                    ej[j] = h
                    hfd[:, j] = (
                        ig.gamma_gradients(spec, nu + ej)
                        - ig.gamma_gradients(spec, nu - ej)
                    ) / (2 * h)
                a, e1, e2 = ig.hessian_A_gamma(spec, nu)
                afd = np.array(
                    [[e1 @ hfd @ e1, e1 @ hfd @ e2], [e2 @ hfd @ e1, e2 @ hfd @ e2]]
                )
                worst = max(worst, float(np.max(np.abs(a - afd))))
            errs.append(worst)
        worst_order = min(worst_order, math.log2(errs[0] / errs[1]))
    ok = worst_order >= 1.9
    verdict(2, ok, f"Hessian finite-difference observed order = {worst_order:.3f} >= 1.9", watch=watch)
    watch.assert_within_budget()
    assert ok


def test_criterion_03_wulff_areas():
    watch = Stopwatch(10.0)
    a1 = ig.wulff_mesh(C1, 4).area
    a2 = ig.wulff_mesh(C2, 4).area
    ae = ig.wulff_mesh(E112, 5).area
    ecc = math.sqrt(1 - 0.25)
    spheroid = 2 * math.pi * (1 + 2 / ecc * math.asin(ecc))
    r1 = abs(a1 / (4 * math.pi) - 1)
    r2 = abs(a2 / (16 * math.pi) - 1)
    r3 = abs(ae / spheroid - 1)
    ok = r1 < 0.005 and r2 < 0.005 and r3 < 0.01
    verdict(
        3, ok,
        f"areas off by {r1:.2e} (4pi), {r2:.2e} (16pi), {r3:.2e} (spheroid)",
        watch=watch,
    )
    watch.assert_within_budget()
    assert ok


def test_criterion_04_graph_solver_exactness():
    watch = Stopwatch(30.0)
    worst_lin, worst_iters = 0.0, 0
    for spec in FAMILIES:
        prob = gs.GraphProblem(
            domain=(0.0, 1.0, 0.0, 1.0), shape=(33, 33),
            boundary=gs.bc_linear(0.3, -0.7, 0.2), spec=spec,
        )
        sol = gs.solve(prob)
        worst_lin = max(worst_lin, sol.residual_linf)
        worst_iters = max(worst_iters, sol.iterations)
    prob = gs.GraphProblem(
        domain=(1.2, 2.0, -0.4, 0.4), shape=(129, 129),
        boundary=gs.bc_catenoid(), spec=C1,
    )
    sol = gs.solve(prob)
    X, Y = prob.node_coords()
    sup_err = float(np.max(np.abs(sol.u - np.arccosh(np.sqrt(X**2 + Y**2)))))
    # the harmonic seed is exact for linear data, so no Picard step is taken
    ok = worst_lin <= 1e-12 and worst_iters == 0 and sol.converged and sup_err <= 5e-4
    verdict(
        4, ok,
        f"linear data residual {worst_lin:.2e} in {worst_iters} iteration(s); "
        f"catenoid graph sup error {sup_err:.2e} <= 5e-4",
        watch=watch,
    )
    watch.assert_within_budget()
    assert ok


def test_criterion_05_sign_law(accepted_fields, converged_lifts):
    watch = Stopwatch(10.0)
    worst = -math.inf
    for name, fld in accepted_fields.items():
        worst = max(worst, float(np.max(fld.k_sigma)) / fld.curvature_scale() ** 2)
    for _, fld in converged_lifts:
        worst = max(worst, float(np.max(fld.k_sigma)) / fld.curvature_scale() ** 2)
    ok = worst <= 1e-6
    verdict(5, ok, f"max K / scale^2 = {worst:.3e} <= 1e-6 on the accepted suite", watch=watch)
    watch.assert_within_budget()
    assert ok


def test_criterion_06_pairing_sandwich(accepted_fields, converged_lifts):
    watch = Stopwatch(10.0)
    fields = list(accepted_fields.values()) + [f for _, f in converged_lifts]
    worst = -math.inf
    for fld in fields:
        consts = ig.anisotropy_constants(fld.spec, fld.a_tensor)
        s2 = fld.curvature_scale() ** 2
        lo = (-2.0 / consts.Lambda_gamma) * fld.k_gamma
        hi = (-2.0 / consts.lambda_gamma) * fld.k_gamma
        worst = max(
            worst,
            float(np.max(lo - fld.aniso_pairing)) / s2,
            float(np.max(fld.aniso_pairing - hi)) / s2,
        )
    ok = worst <= 1e-8
    verdict(6, ok, f"pairing sandwich worst scaled violation = {worst:.3e} <= 1e-8", watch=watch)
    watch.assert_within_budget()
    assert ok


def test_criterion_07_jacobi_fields():
    watch = Stopwatch(60.0)
    axes = ((1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0))
    makers = {
        "catenoid": lambda n: sf.fixture("catenoid", grid=(n, n), v_extent=2.0),
        "enneper": lambda n: sf.fixture("enneper", grid=(n, n)),
    }
    worst_coarse, worst_decay = -math.inf, math.inf
    for maker in makers.values():
        rels = {}
        for n in (128, 256):
            patch = maker(n)
            disc = spx.assemble(patch, C1)
            for ax in axes:
                rels[(n, ax)] = spx.jacobi_field_residual(disc, ax)["relative_residual"]
        for ax in axes:
            worst_coarse = max(worst_coarse, rels[(128, ax)])
            worst_decay = min(worst_decay, rels[(128, ax)] / rels[(256, ax)])
    ok = worst_coarse <= 1e-3 and worst_decay >= 3.0
    verdict(7, ok,
        f"translation-field residual max {worst_coarse:.3e} <= 1e-3 at 128^2, "
        f"decay x{worst_decay:.2f} >= 3 at 256^2", watch=watch)
    watch.assert_within_budget()
    assert ok


def test_criterion_08_morse_indices():
    watch = Stopwatch(180.0)
    results = {}
    for n in (96, 160):
        rep = spx.morse_index_exhaustion(
            sf.fixture("catenoid", grid=(n, n), v_extent=3.0),
            C1,
            [(0, TWO_PI, -1, 1), (0, TWO_PI, -2, 2), (0, TWO_PI, -2.8, 2.8)],
        )
        results[f"catenoid{n}"] = rep.stabilized_index
    rep = spx.morse_index_exhaustion(
        sf.fixture("enneper", grid=(96, 96), radius=1.3),
        C1,
        [(-0.8, 0.8, -0.8, 0.8), (-1.2, 1.2, -1.2, 1.2), (-1.3, 1.3, -1.3, 1.3)],
    )
    results["enneper"] = rep.stabilized_index
    rep = spx.morse_index_exhaustion(
        sf.fixture("plane", grid=(48, 48)),
        C1,
        [(0.2, 0.8, 0.2, 0.8), (0.1, 0.9, 0.1, 0.9), (0.0, 1.0, 0.0, 1.0)],
    )
    results["plane"] = rep.stabilized_index
    vals, _, _ = spx.dirichlet_eigs(spx.assemble(sf.fixture("plane", grid=(96, 96)), C1), 3)
    eig_err = float(np.max(np.abs(vals / (np.array([2, 5, 5]) * np.pi**2) - 1)))
    ok = (
        results["catenoid96"] == 1
        and results["catenoid160"] == 1
        and results["enneper"] == 1
        and results["plane"] == 0
        and eig_err < 0.01
    )
    verdict(8, ok, f"indices {results}; flat-square eigenvalue error {eig_err:.2e} < 1%", watch=watch)
    watch.assert_within_budget()
    assert ok


def test_criterion_09_comparison_chain(accepted_fields):
    watch = Stopwatch(60.0)
    rng = np.random.default_rng(17)
    worst_q = math.inf
    dominated = True
    round_equal = True
    domains_for = {
        "catenoid": [(0, TWO_PI, -1, 1), (0, TWO_PI, -1.5, 1.5), (0, TWO_PI, -2, 2)],
        "enneper": [(-0.8, 0.8, -0.8, 0.8), (-1.2, 1.2, -1.2, 1.2), (-1.3, 1.3, -1.3, 1.3)],
        "sheared": [(0, TWO_PI, -1, 1), (0, TWO_PI, -1.5, 1.5), (0, TWO_PI, -2, 2)],
    }
    for name, fld in accepted_fields.items():
        patch, spec = fld.patch, fld.spec
        consts = ig.anisotropy_constants(spec, fld.a_tensor)
        disc = spx.assemble(patch, spec, field=fld)
        w = (2.0 / consts.lambda_gamma**2) * (-fld.k_gamma)
        cmp_disc = spx.assemble(
            patch, spec, field=fld, potential_weight=w, isotropic_diffusion=True
        )
        free = np.flatnonzero(~disc.dirichlet_mask)
        for _ in range(100):
            x = np.zeros(disc.node_count)
            x[free] = rng.standard_normal(len(free))
            q = x @ (disc.stiffness - disc.potential) @ x
            qg = x @ (cmp_disc.stiffness - cmp_disc.potential) @ x
            worst_q = min(
                worst_q, (q - consts.lambda_gamma * qg) / (x @ disc.mass @ x)
            )
        morse_index = spx.morse_index_exhaustion(
            patch, spec, domains_for[name], disc=disc).morse_index
        counts = spx.comparison_operator_counts(cmp_disc, domains_for[name], morse_index)
        dominated &= all(c["neg_L"] <= c["neg_Lgamma"] for c in counts)
        if spec.family == "constant":
            round_equal &= all(c["neg_L"] == c["neg_Lgamma"] for c in counts)
    ok = worst_q >= -1e-9 and dominated and round_equal
    verdict(9, ok,
        f"form comparison margin {worst_q:.3e} >= -1e-9; counts dominated: {dominated}; "
        f"round-weight equality: {round_equal}", watch=watch)
    watch.assert_within_budget()
    assert ok


def test_criterion_10_degrees(accepted_fields):
    watch = Stopwatch(60.0)
    wulff = ig.wulff_mesh(C1, 4)
    cat_errs = []
    for v_extent in (2.0, 3.0):
        fld = sf.curvature_field(
            sf.fixture("catenoid", grid=(128, 128), v_extent=v_extent), C1
        )
        d = ga.degrees(fld, wulff)
        cat_errs.append(abs(d["raw_nu"] / np.tanh(v_extent) - 1))
    cat_ok = max(cat_errs) < 0.01

    rh_cat = ga.riemann_hurwitz_check(2, 1, [])
    fe = accepted_fields["enneper"]
    de = ga.degrees(fe, wulff)
    rh_enn = ga.riemann_hurwitz_check(2, de["deg_nu"], [])
    synthetic = [
        ga.CriticalPoint((0, 0), np.array([0, 0, 1.0]), 1, 0.1),
        ga.CriticalPoint((1, 1), np.array([0, 0, 1.0]), 1, 0.1),
    ]
    rh_syn = ga.riemann_hurwitz_check(2, 2, synthetic)
    rh_ok = rh_cat == 0.0 and rh_enn == 0.0 and rh_syn == 0.0

    # independent oracle for what the truncated chart integrates to; the
    # complete Enneper surface has degree 1, this square carries 0.676 of it
    oracle, _ = dblquad(
        lambda v, u: 4.0 / (1 + u**2 + v**2) ** 2, -1.3, 1.3, -1.3, 1.3,
        epsabs=1e-10, epsrel=1e-10,
    )
    enn_expected = oracle / (4 * np.pi)
    enn_err = de["raw_nu"] / enn_expected - 1
    enn_ok = abs(enn_err) < 0.01 and de["deg_nu"] == 1
    ok = cat_ok and rh_ok and enn_ok
    verdict(
        10, ok,
        f"catenoid raw degree errors {[f'{e:.2e}' for e in cat_errs]} < 1%; "
        f"branched-cover defects ({rh_cat:g}, {rh_enn:g}, {rh_syn:g}) all zero; "
        f"Enneper(1.3) raw degree {de['raw_nu']:.4f} vs quadrature "
        f"{enn_expected:.4f}, relative error {enn_err:.2e} (pinned < 1%), "
        f"rounded degree {de['deg_nu']}",
        watch=watch,
    )
    watch.assert_within_budget()
    assert cat_ok, "catenoid raw degrees drifted from the analytic values"
    assert rh_ok, "branched-cover Euler defect nonzero on a genuine cover"
    assert enn_ok, (
        f"Enneper(1.3) raw degree {de['raw_nu']:.4f} vs quadrature "
        f"{enn_expected:.4f}: relative error {enn_err:.2e} (pinned < 1%), "
        f"rounded degree {de['deg_nu']} (expected 1)"
    )


def test_criterion_11_index_bounds_end_to_end(bounds_reports):
    watch = Stopwatch(60.0)
    cat = bounds_reports["catenoid"]
    pg = cat["gauss"]["pseudographs"]["0,0,1"]
    stab = cat["spectral"]["stabilized_index"]
    cat_ok = pg["N"] == 2 and pg["lower_bound"] == 1 and pg["lower_bound"] <= stab == 1
    slacks_ok = True
    instability_ok = True
    for name, rep in bounds_reports.items():
        for val in rep["gauss"]["pseudographs"].values():
            if "slack" in val:
                slacks_ok &= val["slack"] >= 0
        instability_ok &= rep["accepted"] and rep["spectral"]["stabilized_index"] >= 1
        instability_ok &= rep["all_passed"]
    ok = cat_ok and slacks_ok and instability_ok
    verdict(11, ok,
        f"catenoid polar pseudograph N=2, bound 1 <= index {stab}; all slacks >= 0: "
        f"{slacks_ok}; genus-0 instability on all accepted fixtures: {instability_ok}", watch=watch)
    watch.assert_within_budget()
    assert ok


def test_criterion_12_determinism():
    # budget: no more than twice the single-pipeline time (plus serialization)
    config = ExperimentConfig(surface="catenoid:2", grid=64)
    t0 = time.perf_counter()
    a = json.dumps(verify_bounds(config))
    t_single = time.perf_counter() - t0
    b = json.dumps(verify_bounds(config))
    total = time.perf_counter() - t0
    ok = a == b
    print(
        f"\n[criterion 12] {'PASS' if ok else 'FAIL'} - two identical runs produced "
        f"byte-identical reports ({len(a)} bytes) [{total:.1f}s vs single run {t_single:.1f}s]"
    )
    assert total < 2.0 * t_single + 2.0
    assert ok
