"""Benchmark workloads: inputs built from a seed, the operations that run on
them, and the output check of each operation.

An operation is a callable returning a list of failure reasons; an empty
list means every output check held.  Only the public anisolab API is called,
always through the module attribute, so the tracer's wrappers (installed in
the anisolab module namespaces) see the calls.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import anisolab.gauss_analysis as ga
import anisolab.graph_solver as gs
import anisolab.harness as hn
import anisolab.integrand as ig
import anisolab.spectrum as spc
import anisolab.surface as sf
from anisolab.errors import GrazingCircle, NonDiscreteCriticalSet

WORKLOADS = ("bounds", "graph", "branched")
# ExperimentConfig.seed feeds the tangency sample and the random
# quadratic-form fields of verify_bounds; nothing else reads a seed.
SEED_DEPENDENT = {"bounds": True, "graph": False, "branched": False}
DEFAULT_SEED = hn.ExperimentConfig().seed  # the acceptance tests' inputs

TWO_PI = 2 * np.pi
AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
EIG_REL_TOL = 1e-6  # |lambda - lambda_ref| <= tol * max|lambda_ref| per domain
REFERENCE = Path(__file__).with_name("reference.json")

# Grids per size.  "full" is the measured benchmark; "smoke" runs every
# operation and check on small grids in a few seconds.
GRIDS = {
    "full": {"bounds": 96, "graph": (65, 129, 257), "graph_ellipsoid": (65, 129),
             "gauss": 257, "spectrum": 129},
    "smoke": {"bounds": 72, "graph": (17, 33, 65), "graph_ellipsoid": (17, 33),
              "gauss": 161, "spectrum": 33},
}

# Operations that fail their checks on the code this benchmark was written
# against.  They stay in the workloads, are timed, and their failures are
# printed and counted in failed_share; they do not make a run incorrect.
KNOWN_DEFECTS = {
    "graph/const:1@257": "Picard iteration stalls at the roundoff floor above tol "
                         "(ROADMAP item 4)",
    "branched/gauss-k3@257": "flat-cluster diameter rule is in node spacings, so an "
                             "order-2 flat point is rejected on fine grids",
}

# Pseudograph lower bounds on the x, y, z axes of the (1, z^k) chart.
BRANCHED_LOWER_BOUNDS = {2: (2, 2, 1), 3: (3, 3, 1)}


@dataclass
class Operation:
    name: str
    run: Callable[[], list[str]]


def build(workload: str, seed: int, size: str = "full") -> list[Operation]:
    """Inputs and operations of one workload; seed-independent workloads
    ignore ``seed``."""
    grids = GRIDS[size]
    refs = json.loads(REFERENCE.read_text())[size]
    if workload == "bounds":
        return _bounds_ops(seed, grids["bounds"], refs["bounds"])
    if workload == "graph":
        return _graph_ops(grids["graph"], grids["graph_ellipsoid"])
    if workload == "branched":
        return _branched_ops(grids["gauss"], grids["spectrum"], refs["branched"])
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# bounds: the verdict users run (criterion-11 configurations)
# ---------------------------------------------------------------------------

def bounds_configs(seed: int, grid: int) -> dict[str, hn.ExperimentConfig]:
    """The three configurations of tests/test_acceptance.py::bounds_reports."""
    return {
        "catenoid:3": hn.ExperimentConfig(
            surface="catenoid:3", grid=grid, seed=seed,
            domains=[[0, TWO_PI, -1, 1], [0, TWO_PI, -2, 2], [0, TWO_PI, -2.8, 2.8]],
        ),
        "enneper:1.3": hn.ExperimentConfig(surface="enneper:1.3", grid=grid, seed=seed),
        "sheared_catenoid": hn.ExperimentConfig(
            surface="sheared_catenoid:1,0,0,0,1,0,0,0,2;2",
            integrand="ellipsoid:1,1,2", grid=grid, seed=seed,
        ),
    }


def _bounds_ops(seed, grid, refs) -> list[Operation]:
    previous: dict[str, str] = {}

    def make(name, config):
        def run():
            text = hn.report_json(hn.verify_bounds(config))
            report = json.loads(text)
            reasons = []
            if not report["accepted"]:
                reasons.append("fixture rejected by the minimality gate")
            if not report["all_passed"]:
                reasons.append(f"failed checks {report['failed_checks']}")
            if report["spectral"]["stabilized_index"] != 1:
                reasons.append(f"stabilized index {report['spectral']['stabilized_index']} != 1")
            if name in previous and text != previous[name]:
                reasons.append("report bytes differ from the previous pass")
            previous[name] = text
            reasons += eigenvalue_drift(report["spectral"]["eigenvalues"], refs[name])
            return reasons
        return Operation(f"bounds/{name}", run)

    return [make(name, cfg) for name, cfg in bounds_configs(seed, grid).items()]


def eigenvalue_drift(values, reference) -> list[str]:
    if len(values) != len(reference):
        return [f"{len(values)} domains, reference has {len(reference)}"]
    out = []
    for d, (got, ref) in enumerate(zip(values, reference)):
        if len(got) < len(ref):
            out.append(f"domain {d}: {len(got)} eigenvalues, reference has {len(ref)}")
            continue
        scale = max(abs(v) for v in ref)
        err = max(abs(a - b) for a, b in zip(got, ref)) / scale
        if err > EIG_REL_TOL:
            out.append(f"domain {d}: eigenvalues drift {err:.2e} (relative to "
                       f"max |lambda|) from the reference, tol {EIG_REL_TOL:g}")
    return out


# ---------------------------------------------------------------------------
# graph: the Dirichlet solver, its lift and the minimality gate
# ---------------------------------------------------------------------------

def graph_problems(grids, ellipsoid_grids) -> dict[str, gs.GraphProblem]:
    out = {}
    for integrand, sizes in (("const:1", grids), ("ellipsoid:1,1,2", ellipsoid_grids)):
        spec = ig.parse_integrand(integrand)
        for n in sizes:
            out[f"{integrand}@{n}"] = gs.GraphProblem(
                domain=(1.2, 2.0, -0.4, 0.4), shape=(n, n),
                boundary=gs.bc_catenoid(), spec=spec,
            )
    return out


def _graph_ops(grids, ellipsoid_grids) -> list[Operation]:
    def make(name, problem):
        def run():
            sol = gs.solve(problem)
            gate = hn.accept_candidate(gs.lift(sol), problem.spec)
            reasons = []
            if not sol.converged:
                reasons.append(f"not converged after {sol.iterations} iterations")
            if not sol.residual_linf <= problem.tol:
                reasons.append(f"residual {sol.residual_linf:.3g} > tol {problem.tol:g}")
            if not gate["accepted"]:
                reasons.append(f"lift rejected: relative H_gamma {gate['relative']:.3g}")
            return reasons
        return Operation(f"graph/{name}", run)

    return [make(name, p) for name, p in graph_problems(grids, ellipsoid_grids).items()]


# ---------------------------------------------------------------------------
# branched: a user chart with a branched Gauss map
# ---------------------------------------------------------------------------

def enneper_jets(k: int):
    """Weierstrass chart with data (1, z^k): an exact minimal surface whose
    Gauss map branches to order k-1 at the origin."""

    def jets(U, V):
        z = U + 1j * V
        phi = np.stack([0.5 * (1 - z ** (2 * k)), 0.5j * (1 + z ** (2 * k)), z**k], axis=-1)
        dphi = np.stack(
            [-k * z ** (2 * k - 1), 1j * k * z ** (2 * k - 1), k * z ** (k - 1)], axis=-1
        )
        x = np.stack(
            [
                np.real(z / 2 - z ** (2 * k + 1) / (2 * (2 * k + 1))),
                np.real(1j * (z + z ** (2 * k + 1) / (2 * k + 1)) / 2),
                np.real(z ** (k + 1) / (k + 1)),
            ],
            axis=-1,
        )
        return {
            "x": x, "xu": np.real(phi), "xv": -np.imag(phi),
            "xuu": np.real(dphi), "xuv": -np.imag(dphi), "xvv": -np.real(dphi),
        }

    return jets


def enneper_chart(k: int, grid: int):
    # odd grids place a node exactly on the flat point at the origin
    return sf.from_jet(f"enneper_order_{k}", enneper_jets(k), (-1.0, 1.0, -1.0, 1.0), (grid, grid))


def gauss_summary(k: int, grid: int, spec) -> tuple[dict, list[str]]:
    """Flat points, branch orders, pseudographs and degrees of one chart."""
    patch = enneper_chart(k, grid)
    fld = sf.curvature_field(patch, spec)
    errors = []
    try:
        points = ga.critical_set(fld)
        for p in points:
            p.branch_order = ga.branch_order(patch, p)
    except NonDiscreteCriticalSet as exc:
        points = []
        errors.append(f"critical_set: {exc}")
    lower, slack = [], []
    for axis in AXES:
        try:
            pg = ga.pseudograph_extract(patch, spec, axis, fld=fld, critical_points=points)
        except GrazingCircle as exc:
            errors.append(f"pseudograph {axis}: {exc}")
            continue
        lower.append(ga.index_lower_bound(pg))
        slack.append(ga.euler_inequality_check(pg)["slack"])
    degs = ga.degrees(fld, ig.wulff_mesh(spec, 4))
    summary = {
        "points": [(float(p.location[0]), float(p.location[1]), int(p.branch_order))
                   for p in points],
        "lower_bounds": lower,
        "slacks": slack,
        "deg_nu": degs["deg_nu"],
    }
    return summary, errors


def _branched_ops(gauss_grid, spectrum_grid, refs) -> list[Operation]:
    spec = ig.parse_integrand("const:1")
    tol = 0.5 * 2.0 / (gauss_grid - 1)  # half a node spacing

    def gauss(k):
        def run():
            s, reasons = gauss_summary(k, gauss_grid, spec)
            if len(s["points"]) != 1:
                reasons.append(f"{len(s['points'])} flat points, expected 1")
            else:
                u, v, order = s["points"][0]
                if max(abs(u), abs(v)) > tol:
                    reasons.append(f"flat point at ({u:.3g}, {v:.3g}), expected the origin")
                if order != k - 1:
                    reasons.append(f"branch order {order}, expected {k - 1}")
            if tuple(s["lower_bounds"]) != BRANCHED_LOWER_BOUNDS[k]:
                reasons.append(f"pseudograph lower bounds {s['lower_bounds']}, "
                               f"expected {list(BRANCHED_LOWER_BOUNDS[k])}")
            if any(x < 0 for x in s["slacks"]):
                reasons.append(f"negative Euler slack {s['slacks']}")
            return reasons
        return Operation(f"branched/gauss-k{k}@{gauss_grid}", run)

    def spectrum():
        domains = [(-s, s, -s, s) for s in (0.6, 0.9, 1.0)]
        ref = refs["spectrum-k2"]

        def run():
            rep = spc.morse_index_exhaustion(enneper_chart(2, spectrum_grid), spec, domains)
            reasons = []
            if rep.morse_index != ref["morse_index"]:
                reasons.append(f"morse indices {rep.morse_index}, expected {ref['morse_index']}")
            reasons += eigenvalue_drift([v.tolist() for v in rep.eigenvalues], ref["eigenvalues"])
            return reasons
        return Operation(f"branched/spectrum-k2@{spectrum_grid}", run)

    return [gauss(2), gauss(3), spectrum()]
