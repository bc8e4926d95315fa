"""End-to-end verification harness.

Builds a fixture, gates it on vanishing anisotropic mean curvature, runs the
spectral and Gauss-map pipelines, and evaluates the full list of named
checks with explicit tolerances.  The tolerances and the Wulff-mesh level
are module constants, not configuration.  Each check names the hypotheses
it needs (a height-graph chart, a stabilized index, isolated flat points,
a nodal set, a surface the gate accepts, a chart of a complete surface
(``SurfacePatch.complete``), a curved surface of genus at most one, an
anisotropic integrand); a check with an unmet hypothesis is reported with
``passed``, ``lhs`` and ``rhs`` null and the note ``"skipped: <reason>"``,
never as passed or failed.  Every
artifact of a run lives in one :class:`RunContext`, computed on first use
and shared by the checks and by the ``spectrum``/``gauss``/``bounds``
command-line views; a caller that builds or alters the context itself
hands it to :func:`verify_bounds`.
Reports are plain dictionaries with a fixed key order so identical
configurations serialize to identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from . import __version__
from .errors import GrazingCircle, InvalidSpec, NonDiscreteCriticalSet
from .gauss_analysis import (
    CriticalPoint,
    Pseudograph,
    critical_set,
    degrees,
    euler_inequality_check,
    index_lower_bound,
    pseudograph_extract,
    riemann_hurwitz_check,
)
from .graph_solver import GraphProblem, GraphSolution, bc_zero, lift
from .integrand import (
    AnisotropyConstants,
    IntegrandSpec,
    WulffMesh,
    anisotropy_constants,
    format_integrand,
    gamma_gradients,
    is_isotropic,
    parse_integrand,
    sym2x2_eigenvalues,
    tangent_frame,
    wulff_mesh,
)
from .spectrum import (
    DEFAULT_AXES,
    DEFAULT_EIG_COUNT,
    JacobiDiscretization,
    SpectralReport,
    assemble,
    comparison_assembly,
    comparison_operator_counts,
    inertia,
    morse_index_exhaustion,
    zero_threshold,
)
from .surface import FIXTURE_PARAMS, CurvatureField, SurfacePatch, curvature_field, fixture

# Fixed registry of verification points every verdict report must cover.
REQUIRED_CHECKS = (
    "first_variation_minimality",
    "sign_law_gauss_curvature",
    "graph_metric_eigenvalue_bounds",
    "graph_hessian_curvature_estimate",
    "cahn_hoffman_tangency",
    "curvature_pairing_sandwich",
    "quadratic_form_comparison",
    "courant_nodal_domain_bound",
    "translation_jacobi_fields",
    "branched_cover_euler_count",
    "pseudograph_euler_inequality",
    "index_lower_bound_vs_spectrum",
    "low_genus_instability",
    "index_upper_bound_chain",
    "inertia_count_agreement",
    "aniso_degree_sandwich",
)

TANGENCY_STEP = 1e-6  # finite-difference step of the Wulff-map differential
TANGENCY_SAMPLES = 1000  # random normals, one random tangent direction each, it is checked at
MINIMAL_ACCEPT = 1e-3  # largest sup |H_gamma| over the curvature scale of an accepted surface
JACOBI_RESIDUAL_TOL = 5e-3  # largest relative weak residual of a translation field
WULFF_REFINEMENT = 4  # icosphere level of the Wulff mesh that normalizes the degrees


@dataclass
class ExperimentConfig:
    surface: str = "catenoid:2"
    integrand: str = "const:1"
    grid: int = 96
    domains: list | None = None          # exhaustion rectangles (u0,u1,v0,v1)
    axes: list = field(default_factory=lambda: [list(a) for a in DEFAULT_AXES])
    genus: int = 0                       # of the compactified surface, chi = 2 - 2 genus
    seed: int = 1234
    eig_count: int = DEFAULT_EIG_COUNT

    def __post_init__(self):
        if not (isinstance(self.surface, str) and isinstance(self.integrand, str)):
            raise InvalidSpec("surface and integrand must be strings")
        for name, low in (("grid", 3), ("eig_count", 1), ("genus", 0), ("seed", 0)):
            value = getattr(self, name)
            if not (isinstance(value, Integral) and not isinstance(value, bool) and value >= low):
                raise InvalidSpec(f"{name} must be an integer >= {low}, got {value!r}")
            setattr(self, name, int(value))  # a numpy integer would not serialize
        if self.domains is not None and not (
                isinstance(self.domains, (list, tuple)) and len(self.domains) >= 3
                and all(_numbers(d, 4) for d in self.domains)):
            raise InvalidSpec(f"domains must be three or more lists u0,u1,v0,v1, "
                              f"got {self.domains!r}")
        if not (isinstance(self.axes, (list, tuple)) and self.axes
                and all(_numbers(a, 3) and any(a) for a in self.axes)):
            raise InvalidSpec(f"axes must be one or more nonzero 3-vectors, got {self.axes!r}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise InvalidSpec("a config is a JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise InvalidSpec(f"unknown config keys {unknown}")
        return cls(**data)


def _numbers(values, count: int) -> bool:
    """Whether ``values`` is a list or tuple of ``count`` finite numbers."""
    return (isinstance(values, (list, tuple)) and len(values) == count
            and all(isinstance(v, Real) and not isinstance(v, bool)
                    and math.isfinite(v) for v in values))


def parse_surface(text: str, grid, integrand: str | None = None) -> SurfacePatch:
    """Surface grammar: plane[:lu,lv] | sphere | catenoid:V | enneper:R |
    sheared_catenoid:m11,...,m33;V (nine row-major shear entries) | the path
    of a ``solve-graph`` solution JSON, lifted to a patch on its own grid.
    A solution solved for another integrand than ``integrand`` is refused:
    it is not critical for the requested weight."""
    path = Path(text)
    if path.suffix == ".json" and path.exists():
        try:
            payload = json.loads(path.read_text())
            spec = parse_integrand(str(payload["integrand"]))
            if integrand is not None and spec != parse_integrand(integrand):
                raise InvalidSpec(f"{path} was solved for integrand {payload['integrand']!r}, "
                                  f"not {integrand!r}")
            shape = tuple(payload["grid"])  # filled before GraphProblem allocates it
            u = np.array(payload["u"], dtype=float).reshape(shape)
            if not np.all(np.isfinite(u)):  # json reads NaN and Infinity
                raise InvalidSpec(f"{path} holds a height that is not finite")
            prob = GraphProblem(tuple(payload["domain"]), shape, bc_zero(), spec)
            res, its, conv = (payload[k] for k in ("residual_linf", "iterations", "converged"))
            if not (_numbers([res], 1) and res >= 0 and isinstance(its, Integral)
                    and not isinstance(its, bool) and its >= 0 and isinstance(conv, bool)):
                raise InvalidSpec(f"{path} holds malformed solver metadata: residual_linf "
                                  f"{res!r}, iterations {its!r}, converged {conv!r}")
            return lift(GraphSolution(prob, u, res, its, conv))
        except InvalidSpec:
            raise
        except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
            raise InvalidSpec(f"cannot read solution {text!r}: {exc!r}") from exc
    head, _, tail = text.strip().partition(":")
    if head not in FIXTURE_PARAMS:
        raise InvalidSpec(f"cannot parse surface spec {text!r}")
    given = {}
    try:
        if head == "sheared_catenoid":  # the nine shear entries come first, then ";V"
            entries, _, tail = tail.partition(";")
            given["shear"] = np.array([float(t) for t in entries.split(",")]).reshape(3, 3)
        names = [name for name in FIXTURE_PARAMS[head] if name not in given]
        values = [float(t) for t in tail.split(",")] if tail else []
        if len(values) not in (0, len(names)):
            raise ValueError(f"{head} takes {len(names)} parameters")
        return fixture(head, grid=grid, **given, **dict(zip(names, values)))
    except ValueError as exc:
        raise InvalidSpec(f"cannot parse surface spec {text!r}: {exc}") from exc


def default_exhaustion(patch: SurfacePatch) -> list[tuple[float, float, float, float]]:
    """Three nested rectangles scaling toward the full patch domain."""
    u0, u1, v0, v1 = patch.domain
    uc, vc = 0.5 * (u0 + u1), 0.5 * (v0 + v1)
    out = []
    for s in (0.6, 0.9, 1.0):
        if patch.periodic_u:
            out.append((u0, u1, vc - s * (vc - v0), vc + s * (v1 - vc)))
        else:
            out.append(
                (
                    uc - s * (uc - u0),
                    uc + s * (u1 - uc),
                    vc - s * (vc - v0),
                    vc + s * (v1 - vc),
                )
            )
    return out


def accept_candidate(
    patch: SurfacePatch, spec: IntegrandSpec, fld: CurvatureField | None = None
) -> dict:
    """Gate on the measured anisotropic mean curvature, nothing else: sup
    |H_gamma| relative to the curvature scale may not exceed ``MINIMAL_ACCEPT``.

    Sheared candidates in particular are never assumed critical by
    construction; they pass or fail right here.
    """
    if fld is None:
        fld = curvature_field(patch, spec)
    sup_h = float(np.max(np.abs(fld.h_gamma)))
    scale = fld.curvature_scale()
    rel = sup_h / scale if scale > 0 else sup_h
    return {
        "accepted": bool(rel <= MINIMAL_ACCEPT),
        "sup_h_gamma": sup_h,
        "relative": rel,
        "curvature_scale": scale,
    }


def _graph_checks(patch: SurfacePatch, fld: CurvatureField):
    """(passed, lhs, rhs) of the inverse-metric slope bounds and of the
    squared-Hessian pinch of the second fundamental form, when the chart is
    a height graph over (u, v); None when it is not."""
    du, dv = patch.du, patch.dv
    if not (np.allclose(du[..., 0], 1.0) and np.allclose(du[..., 1], 0.0)
            and np.allclose(dv[..., 0], 0.0) and np.allclose(dv[..., 1], 1.0)):
        return None
    ux, uy = du[..., 2], dv[..., 2]
    w2 = 1.0 + ux**2 + uy**2
    lo = 1.0 / w2
    # the inverse of the metric [[1 + ux^2, ux uy], [ux uy, 1 + uy^2]]
    emin, emax = sym2x2_eigenvalues((1 + uy**2) / w2, -ux * uy / w2, (1 + ux**2) / w2)
    metric_ok = bool(np.all(emin >= lo - 1e-10) and np.all(emax <= 1.0 + 1e-10))
    hess2 = patch.duu[..., 2] ** 2 + 2 * patch.duv[..., 2] ** 2 + patch.dvv[..., 2] ** 2
    a2 = fld.abs_a_squared()
    lo_ok = np.all(hess2 / w2**3 <= a2 * (1 + 1e-8) + 1e-300)
    hi_ok = np.all(a2 <= hess2 / w2 * (1 + 1e-8) + 1e-300)
    return ((metric_ok, float(np.min(emin - lo)), 0.0),
            (bool(lo_ok and hi_ok), float(np.max(hess2 / w2**3 / np.maximum(a2, 1e-300))), 1.0))


def tangency_check(spec: IntegrandSpec, seed: int) -> float:
    """Worst normal component of a finite-difference Wulff-map differential."""
    rng = np.random.default_rng(seed)
    nus = rng.standard_normal((TANGENCY_SAMPLES, 3))
    nus /= np.linalg.norm(nus, axis=1, keepdims=True)
    e1, e2 = tangent_frame(nus)
    ang = rng.uniform(0, 2 * np.pi, TANGENCY_SAMPLES)[:, None]
    tang = np.cos(ang) * e1 + np.sin(ang) * e2
    base = gamma_gradients(spec, nus)
    moved = nus + TANGENCY_STEP * tang
    moved /= np.linalg.norm(moved, axis=1, keepdims=True)
    diff = (gamma_gradients(spec, moved) - base) / TANGENCY_STEP
    return float(np.max(np.abs(np.einsum("ni,ni->n", diff, nus))))


def surface_digest(patch: SurfacePatch, spec: IntegrandSpec) -> str:
    """sha256 of what a verdict judges: the chart's position and jet bytes,
    its shape, domain, seam, orientation and completeness, and the canonical
    integrand.  Two surfaces behind one configuration (two solutions written
    to one path, a patch assigned to a context) get different digests."""
    digest = hashlib.sha256()
    for array in (patch.position, patch.du, patch.dv, patch.duu, patch.duv, patch.dvv):
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    digest.update(json.dumps([
        [int(n) for n in patch.shape], [float(x) for x in patch.domain], bool(patch.periodic_u),
        int(patch.orientation), bool(patch.complete), format_integrand(spec),
    ]).encode())
    return digest.hexdigest()


@dataclass
class RunContext:
    """Every artifact of one run, computed on first use and then kept.

    Each artifact is built from ``config`` and the artifacts it depends on,
    so a view that reads some of them computes only those, and nothing is
    assembled or solved twice.  An artifact the configuration cannot name
    (a ``from_jet`` chart, say) is supplied by assigning it before its first
    use.  For an isotropic integrand (:func:`~anisolab.integrand.is_isotropic`)
    ``comparison_counts`` is None and no view assembles ``disc_cmp``.
    """

    config: ExperimentConfig

    @cached_property
    def spec(self) -> IntegrandSpec:
        return parse_integrand(self.config.integrand)

    @cached_property
    def patch(self) -> SurfacePatch:
        c = self.config
        return parse_surface(c.surface, c.grid, c.integrand)

    @cached_property
    def field(self) -> CurvatureField:
        return curvature_field(self.patch, self.spec)

    @cached_property
    def consts(self) -> AnisotropyConstants:
        return anisotropy_constants(self.spec, self.field.a_tensor)

    @cached_property
    def domains(self) -> list[tuple[float, float, float, float]]:
        if self.config.domains:
            return [tuple(d) for d in self.config.domains]
        return default_exhaustion(self.patch)

    @cached_property
    def disc(self) -> JacobiDiscretization:
        return assemble(self.patch, self.spec, field=self.field)

    @cached_property
    def disc_cmp(self) -> JacobiDiscretization:
        return comparison_assembly(self.field, self.consts.lambda_gamma)

    @cached_property
    def spectral(self) -> SpectralReport:
        return morse_index_exhaustion(
            self.patch, self.spec, self.domains, k=self.config.eig_count,
            axes=tuple(tuple(a) for a in self.config.axes), disc=self.disc,
        )

    @cached_property
    def comparison_counts(self) -> list[dict[str, int]] | None:
        """Per-domain negative counts of the Jacobi and the comparison
        operator; None for an isotropic integrand, whose comparison operator
        is the Jacobi operator over lambda_gamma only where the surface is
        minimal, so its counts are neither computed nor copied."""
        if is_isotropic(self.spec):
            return None
        return comparison_operator_counts(
            self.disc_cmp, self.domains, self.spectral.morse_index, k=self.config.eig_count
        )

    @cached_property
    def wulff(self) -> WulffMesh:
        return wulff_mesh(self.spec, WULFF_REFINEMENT)

    @cached_property
    def degs(self) -> dict:
        return degrees(self.field, self.wulff)

    @cached_property
    def critical(self) -> tuple[list[CriticalPoint], str | None]:
        """Flat points with their branch orders, or the reason there are none."""
        try:
            return critical_set(self.field), None
        except NonDiscreteCriticalSet as exc:
            return [], str(exc)

    @cached_property
    def pseudographs(self) -> dict[str, Pseudograph | str]:
        """Nodal pseudograph per configured axis, keyed "x,y,z"; an axis that
        grazes the normal field maps to the reason it was refused."""
        out = {}
        for ax in self.config.axes:
            key = ",".join(f"{a:g}" for a in ax)
            try:
                out[key] = pseudograph_extract(
                    self.patch, self.spec, ax, genus=self.config.genus,
                    fld=self.field, critical_points=self.critical[0],
                )
            except GrazingCircle as exc:
                out[key] = str(exc)
        return out


def verify_bounds(run: ExperimentConfig | RunContext) -> dict:
    """Evaluate every registered check over one run context: a fresh one
    for a configuration, or the caller's own, whose artifacts are used as
    they stand.

    Each check names the hypotheses it needs; one whose hypotheses fail is
    reported as skipped, with the reasons, and is neither passed nor failed.
    The two comparison checks need an anisotropic integrand: for gamma =
    c|nu| the Jacobi operator of a gamma-minimal surface is lambda_gamma
    times the comparison operator, so the comparison is an identity and is
    skipped, and neither the comparison operator nor the random form fields
    are built.
    Three findings stay inside a complete report: flat points that are not
    isolated, an axis that grazes the normal field (flagged degenerate) and
    an untrusted inertia factorization; the checks that need what they
    deny are skipped.  Any other error ends the run, with exit code 2 on
    the command line: a spectral solver failure, a Dirichlet domain with
    no free nodes, or domains that are not nested.
    """
    ctx = run if isinstance(run, RunContext) else RunContext(run)
    config, patch, spec, fld = ctx.config, ctx.patch, ctx.spec, ctx.field
    consts = ctx.consts
    gate = accept_candidate(patch, spec, fld=fld)
    spectral, cmp_counts, degs = ctx.spectral, ctx.comparison_counts, ctx.degs
    branch_points, critical_error = ctx.critical

    pseudographs = {}
    for key, pg in ctx.pseudographs.items():
        if isinstance(pg, str):
            pseudographs[key] = {"degenerate": True, "error": pg}
            continue
        pseudographs[key] = euler_inequality_check(pg)
        if not pg.degenerate:
            # the nodal lower bound presumes a non-planar surface with
            # an actual nodal set; an empty graph says nothing
            pseudographs[key]["lower_bound"] = index_lower_bound(pg)

    scale = gate["curvature_scale"]
    stab = spectral.stabilized_index
    graph = _graph_checks(patch, fld)
    nodal = [pg for pg in pseudographs.values() if not pg["degenerate"]]
    courant = [pg["N"] - 1 for pg in nodal]  # nodal domains beyond the first
    slacks = [pg["slack"] for pg in nodal]
    bounds = [pg["lower_bound"] for pg in nodal]
    # every hypothesis a check may need, mapped to the reason it fails (None: it holds)
    unmet = {
        "graph": "chart is not a height graph" if graph is None else None,
        "stabilized": "index not stabilized" if stab is None else None,
        "isolated": critical_error,
        "nodal": None if nodal else "no axis has a nodal set",
        "accepted": None if gate["accepted"] else "surface is not accepted",
        "complete": None if patch.complete else "surface is not complete",
        "anisotropic": (None if not is_isotropic(spec) else
                        "isotropic integrand: L = lambda_gamma L_gamma on a gamma-minimal "
                        "surface, so the comparison is an identity"),
        "curved": ("surface is planar" if scale == 0.0
                   else "genus above one" if config.genus > 1 else None),
    }
    checks = []

    def check(name, needs, tolerance, note, evaluate):
        """Record one check; ``evaluate()`` gives its (passed, lhs, rhs) and
        runs only when every hypothesis in ``needs`` holds."""
        why = [unmet[h] for h in needs if unmet[h] is not None]
        passed, lhs, rhs = (None, None, None) if why else evaluate()
        checks.append({"name": name, "passed": passed, "lhs": lhs, "rhs": rhs,
                       "tolerance": tolerance,
                       "note": "skipped: " + "; ".join(why) if why else note})

    check("first_variation_minimality", (), MINIMAL_ACCEPT,
          "sup |H_gamma| relative to the curvature scale",
          lambda: (gate["accepted"], gate["relative"], 0.0))

    k_rel = float(np.max(fld.k_sigma)) / scale**2 if scale > 0 else float(np.max(fld.k_sigma))
    check("sign_law_gauss_curvature", ("accepted",), 1e-6,
          "max K relative to squared curvature scale on the accepted surface",
          lambda: (bool(k_rel <= 1e-6), k_rel, 0.0))

    check("graph_metric_eigenvalue_bounds", ("graph",), 1e-10,
          "inverse metric eigenvalues within the slope bounds", lambda: graph[0])
    check("graph_hessian_curvature_estimate", ("graph",), 1e-8,
          "squared-Hessian pinch of the second fundamental form", lambda: graph[1])

    tang = tangency_check(spec, config.seed)
    check("cahn_hoffman_tangency", (), 1e-5,
          "finite-difference Wulff-map differential against the normal",
          lambda: (bool(tang <= 1e-5), tang, 0.0))

    # pairing sandwich at curvature-carrying minimal nodes, nondimensionalized
    if scale > 0:
        s2 = scale**2
        lo_viol = float(np.max((-2.0 / consts.Lambda_gamma) * fld.k_gamma - fld.aniso_pairing) / s2)
        hi_viol = float(np.max(fld.aniso_pairing - (-2.0 / consts.lambda_gamma) * fld.k_gamma) / s2)
        worst = max(lo_viol, hi_viol)
    else:
        worst = 0.0
    check("curvature_pairing_sandwich", ("accepted",), 1e-8,
          "pairing between comparison multiples of the anisotropic curvature",
          lambda: (bool(worst <= 1e-8), worst, 0.0))

    def form_comparison():
        disc, disc_cmp = ctx.disc, ctx.disc_cmp
        rng = np.random.default_rng(config.seed)
        free = np.flatnonzero(~disc.dirichlet_mask)
        worst_q = np.inf
        for _ in range(100):
            x = np.zeros(disc.node_count)
            x[free] = rng.standard_normal(len(free))
            q = x @ (disc.operator @ x)
            qg = x @ (disc_cmp.operator @ x)
            worst_q = min(worst_q, (q - consts.lambda_gamma * qg) / (x @ (disc.mass @ x)))
        dominated = all(c["neg_L"] <= c["neg_Lgamma"] for c in cmp_counts)
        return bool(worst_q >= -1e-9 and dominated), float(worst_q), 0.0

    check("quadratic_form_comparison", ("accepted", "anisotropic"), 1e-9,
          "random-field form comparison and per-domain count domination", form_comparison)

    check("courant_nodal_domain_bound", ("accepted", "complete", "stabilized", "nodal"), 0,
          "nodal-domain count of translation fields versus the index",
          lambda: (max(courant) <= stab, max(courant), stab))

    worst_res = max(spectral.jacobi_residuals.values()) if spectral.jacobi_residuals else 0.0
    check("translation_jacobi_fields", ("accepted",), JACOBI_RESIDUAL_TOL,
          "relative weak residual of the translation fields",
          lambda: (bool(worst_res <= JACOBI_RESIDUAL_TOL), worst_res, 0.0))

    defect = riemann_hurwitz_check(2 - 2 * config.genus, degs["deg_nu"], branch_points)
    check("branched_cover_euler_count", ("accepted", "complete", "isolated"), 0,
          "Euler count of the compactified branched cover",
          lambda: (defect == 0.0, defect, 0.0))

    check("pseudograph_euler_inequality", ("accepted", "nodal"), 0,
          "vertex-edge-component count against the genus bound",
          lambda: (min(slacks) >= 0, min(slacks), 0))

    check("index_lower_bound_vs_spectrum", ("accepted", "complete", "stabilized", "nodal"), 0,
          "pseudograph lower bound against the stabilized index",
          lambda: (max(bounds) <= stab, max(bounds), stab))

    check("low_genus_instability", ("accepted", "complete", "curved", "stabilized"), 0,
          "genus 0 or 1 forces at least one unstable direction",
          lambda: (stab >= 1, stab, 1))

    check("index_upper_bound_chain", ("accepted", "stabilized", "anisotropic"), 0,
          "stabilized index dominated by the comparison-operator count",
          lambda: (stab <= cmp_counts[-1]["neg_Lgamma"], stab, cmp_counts[-1]["neg_Lgamma"]))

    # shifted by the eigensolver's zero threshold, the inertia counts exactly
    # the eigenvalues negative_count counts; an untrusted factorization
    # (None) leaves the check unevaluated unless a trusted count disagrees.
    # A sparse window certified at sigma = 0 answers with its count unless
    # one of its values lies in [-shift, 0); every other domain, those whose
    # eigenvalues came one Fourier mode at a time included, is recounted by
    # the sparse factorization, which there checks one algorithm by another
    by_inertia = [
        inertia(ctx.disc, dom, shift=zero_threshold(vals))
        for dom, vals in zip(spectral.domains, spectral.eigenvalues)
    ]
    if any(a is not None and a != b for a, b in zip(by_inertia, spectral.morse_index)):
        agree = False
    else:
        agree = None if None in by_inertia else True
    check("inertia_count_agreement", (), 0,
          "skipped: a factorization was not trusted" if agree is None else
          "symmetric-factorization inertia against the eigenvalue count per domain",
          lambda: (agree, by_inertia, spectral.morse_index))

    total_k = fld.total_curvature()
    lo_deg = consts.lambda_gamma**2 * total_k / ctx.wulff.area
    hi_deg = consts.Lambda_gamma**2 * total_k / ctx.wulff.area
    check("aniso_degree_sandwich", (), 1e-9,
          "area-normalized anisotropic degree between the weight extremes",
          lambda: (bool(lo_deg - 1e-9 <= degs["raw_nu_gamma"] <= hi_deg + 1e-9),
                   degs["raw_nu_gamma"], [lo_deg, hi_deg]))

    failed = [c["name"] for c in checks if c["passed"] is False]
    report = {
        "config": json.loads(config.to_json()),
        "provenance": {
            "config_sha256": hashlib.sha256(config.to_json().encode()).hexdigest(),
            "surface_name": patch.name,
            "surface_sha256": surface_digest(patch, spec),
            "version": __version__,
        },
        "accepted": gate["accepted"],
        "sup_h_gamma": gate["sup_h_gamma"],
        "curvature_scale": gate["curvature_scale"],
        "constants": {
            "lambda_gamma": consts.lambda_gamma,
            "Lambda_gamma": consts.Lambda_gamma,
            "c_gamma": consts.c_gamma,
            "c_prime_gamma": consts.c_prime_gamma,
            "index_upper_constant_note": (
                "final constant = c_prime_gamma^-1 * C(Wulff) * deg; "
                "C(Wulff) not computed"
            ),
        },
        "spectral": spectral.to_dict(),
        "comparison_counts": cmp_counts,
        "gauss": {
            "degrees": dict(degs),
            "branch_points": [
                {
                    "location": [float(p.location[0]), float(p.location[1])],
                    "branch_order": int(p.branch_order),
                    "detection_radius": float(p.detection_radius),
                }
                for p in branch_points
            ],
            "critical_degenerate": critical_error is not None,
            "pseudographs": pseudographs,
        },
        "checks": checks,
        "failed_checks": failed,
        "all_passed": not failed,
    }
    return report


def report_json(report: dict) -> str:
    return json.dumps(report, indent=1)


def selftest(grid: int = 64) -> dict:
    """No-false-pass guard: flipping the sign of the curvature pairing (the
    Jacobi potential) on a context of its own must break checks."""
    config = ExperimentConfig(
        surface="catenoid:2",
        grid=grid,
        domains=[[0.0, float(2 * np.pi), -1.0, 1.0],
                 [0.0, float(2 * np.pi), -1.6, 1.6],
                 [0.0, float(2 * np.pi), -2.0, 2.0]],
    )
    honest = verify_bounds(config)
    ctx = RunContext(config)
    ctx.field.aniso_pairing = -ctx.field.aniso_pairing  # before any artifact reads it
    corrupted = verify_bounds(ctx)
    newly_failed = [
        c["name"]
        for c in corrupted["checks"]
        if c["passed"] is False
        and next(h for h in honest["checks"] if h["name"] == c["name"]) ["passed"] is True
    ]
    return {
        "honest_all_passed": honest["all_passed"],
        "corruption_flipped_checks": newly_failed,
        "ok": bool(honest["all_passed"] and newly_failed),
    }
