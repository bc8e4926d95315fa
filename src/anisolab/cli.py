"""Command-line interface.

Subcommands mirror the pipeline stages: ``wulff`` meshes an integrand's
Wulff shape, ``solve-graph`` runs the Dirichlet solver, ``curvature``
exports a fixture's curvature fields, ``spectrum`` and ``gauss`` report the
spectral and Gauss-map stages, ``bounds`` produces a full verdict report,
and ``selftest`` runs the no-false-pass guard.  ``curvature``, ``spectrum``,
``gauss`` and ``bounds`` are views of one :class:`~anisolab.harness.RunContext`
built from their arguments: they format its artifacts and compute nothing
themselves, so each view reports exactly what the verdict sees.  All
reports are JSON; meshes are ASCII OBJ.  Exit code 0 means every evaluated
check passed; bad input and failed sub-operations exit 2 with
``error: ...`` on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import AnisolabError, InvalidSpec
from .gauss_analysis import CriticalPoint, euler_inequality_check, index_lower_bound
from .graph_solver import GraphProblem, bc_catenoid, bc_edge_sine, bc_linear, bc_zero, solve
from .harness import (WULFF_REFINEMENT, ExperimentConfig, RunContext, report_json,
                      selftest, verify_bounds)
from .integrand import parse_integrand, wulff_mesh
from .objio import write_obj, write_obj_with_fields
from .spectrum import grid_faces


def _parse_bc(text: str, domain, in_file: bool = False):
    """Boundary-data grammar, or a JSON file {"bc": <grammar>}; such a file
    may not name another file."""
    head, _, tail = text.strip().partition(":")
    try:
        if head == "zero":
            return bc_zero()
        if head == "linear":
            return bc_linear(*_parse_numbers(tail, "a,b,c"))
        if head == "sine":
            return bc_edge_sine(_parse_numbers(tail, "amp")[0] if tail else 0.2, domain)
        if head == "catenoid":
            return bc_catenoid()
    except ValueError as exc:
        raise InvalidSpec(f"cannot parse boundary data {text!r}: {exc}") from exc
    if not in_file and Path(text).exists():
        try:
            bc = json.loads(Path(text).read_text())["bc"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise InvalidSpec(f"cannot read boundary data from {text!r}: {exc!r}") from exc
        return _parse_bc(str(bc), domain, in_file=True)
    raise InvalidSpec(f"unknown boundary data {text!r}")


def _parse_numbers(text: str, names: str) -> list[float]:
    """Comma-separated finite numbers, as many as ``names`` lists (e.g. "u0,u1,v0,v1")."""
    try:
        vals = [float(t) for t in text.split(",")]
    except ValueError as exc:
        raise InvalidSpec(f"cannot parse {text!r} as {names}: {exc}") from exc
    if len(vals) != names.count(",") + 1 or not np.all(np.isfinite(vals)):
        raise InvalidSpec(f"{text!r} needs the finite numbers {names}")
    return vals


def _parse_domains(text: str | None):
    if not text:
        return None
    return [_parse_numbers(part, "u0,u1,v0,v1") for part in text.split(";")]


def _config(args, **fields) -> ExperimentConfig:
    return ExperimentConfig(
        surface=args.surface, integrand=args.integrand, grid=args.grid, **fields
    )


def _write(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        print(text)


def cmd_wulff(args) -> int:
    spec = parse_integrand(args.integrand)
    mesh = wulff_mesh(spec, args.refine)
    write_obj(args.out, mesh.vertices, mesh.faces)
    print(f"wrote {args.out}: {len(mesh.vertices)} vertices, area {mesh.area:.6f}")
    return 0


def cmd_solve_graph(args) -> int:
    spec = parse_integrand(args.integrand)
    domain = tuple(_parse_numbers(args.domain, "x0,x1,y0,y1"))
    boundary = _parse_bc(args.bc, domain)
    try:
        prob = GraphProblem(
            domain=domain,
            shape=(args.grid, args.grid),
            boundary=boundary,
            spec=spec,
            tol=args.tol,
            max_iter=args.max_iter,
        )
    except ValueError as exc:  # the problem's own validation of its inputs
        raise InvalidSpec(str(exc)) from exc
    sol = solve(prob)
    payload = {
        "grid": list(prob.shape),
        "domain": list(domain),
        "integrand": args.integrand,
        "u": [float(x) for x in sol.u.reshape(-1)],
        "residual_linf": sol.residual_linf,
        "iterations": sol.iterations,
        "converged": sol.converged,
        "status": sol.status,
        "residual_history": sol.residual_history,
        "levels": sol.levels,
    }
    _write(args.out, json.dumps(payload))
    levels = ",".join(
        "x".join(map(str, lv["grid"])) + f":{lv['status']}:{lv['iterations']}"
        + (":fell_back" if lv["fell_back"] else "") for lv in sol.levels
    )
    print(
        f"solve-graph: converged={sol.converged} status={sol.status} "
        f"iterations={sol.iterations} residual={sol.residual_linf:.3e} levels={levels}",
        file=sys.stderr,
    )
    return 0 if sol.converged else 1


def cmd_curvature(args) -> int:
    ctx = RunContext(_config(args))
    patch, fld = ctx.patch, ctx.field
    faces = grid_faces(patch.nu_count, patch.nv_count, patch.periodic_u)
    write_obj_with_fields(
        args.out,
        patch.position.reshape(-1, 3),
        faces,
        {
            "h_gamma": fld.h_gamma,
            "k_sigma": fld.k_sigma,
            "k_gamma": fld.k_gamma,
        },
    )
    print(f"wrote {args.out} (+ sidecar), sup|H_gamma| = {np.max(np.abs(fld.h_gamma)):.3e}")
    return 0


def cmd_spectrum(args) -> int:
    ctx = RunContext(_config(args, domains=_parse_domains(args.domains), eig_count=args.k))
    payload = {**ctx.spectral.to_dict(), "comparison_counts": ctx.comparison_counts}
    _write(args.out, json.dumps(payload))
    return 0


def _vertex(p: CriticalPoint) -> dict:
    return {"uv": list(map(float, p.location)), "order": p.branch_order}


def gauss_payload(ctx: RunContext) -> dict:
    """The ``gauss`` report: degrees, flat points with their branch orders,
    and the nodal pseudograph of the context's single axis."""
    payload = {"degrees": dict(ctx.degs)}
    points, critical_error = ctx.critical
    if critical_error is None:
        payload["branch_points"] = [_vertex(p) for p in points]
    else:
        payload["branch_points"] = None
        payload["critical_degenerate"] = critical_error
    (pg,) = ctx.pseudographs.values()
    if isinstance(pg, str):
        payload["pseudograph"] = {"degenerate": pg}
    else:
        payload["pseudograph"] = {
            "vertices": [_vertex(p) for p in pg.vertices],
            "edges": [[[float(x), float(y)] for x, y in e.polyline] for e in pg.edges],
            "N": pg.n_components_complement,
            "euler": euler_inequality_check(pg),
        }
        if not pg.degenerate:  # as in the verdict: an empty graph bounds nothing
            payload["pseudograph"]["lower_bound"] = index_lower_bound(pg)
    return payload


def cmd_gauss(args) -> int:
    axis = _parse_numbers(args.axis, "x,y,z")
    ctx = RunContext(_config(args, axes=[axis], genus=args.genus))
    _write(args.out, json.dumps(gauss_payload(ctx)))
    return 0


def cmd_bounds(args) -> int:
    if args.config:
        try:
            config = ExperimentConfig.from_json(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise InvalidSpec(f"cannot read config {args.config!r}: {exc}") from exc
    else:
        config = _config(
            args, domains=_parse_domains(args.domains), genus=args.genus, seed=args.seed
        )
    report = verify_bounds(config)
    _write(args.out, report_json(report))
    for c in report["checks"]:
        state = {True: "pass", False: "FAIL", None: "skip"}[c["passed"]]
        print(f"[{state}] {c['name']}", file=sys.stderr)
    return 0 if report["all_passed"] else 1


def cmd_selftest(args) -> int:
    result = selftest(grid=args.grid)
    print(json.dumps(result))
    return 0 if result["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anisolab",
        description="anisotropic minimal surface laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wulff", help="mesh the Wulff shape of an integrand")
    p.add_argument("--integrand", required=True)
    p.add_argument("--refine", type=int, default=WULFF_REFINEMENT)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_wulff)

    p = sub.add_parser("solve-graph", help="solve the minimal-graph equation")
    p.add_argument("--integrand", required=True)
    p.add_argument("--domain", required=True, help="x0,x1,y0,y1")
    p.add_argument("--grid", type=int, default=129)
    p.add_argument("--bc", required=True, help="zero|linear:a,b,c|sine:amp|catenoid|file.json")
    p.add_argument("--tol", type=float, default=GraphProblem.tol)
    p.add_argument("--max-iter", type=int, default=GraphProblem.max_iter)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve_graph)

    p = sub.add_parser("curvature", help="export curvature fields of a surface")
    p.add_argument("--surface", required=True)
    p.add_argument("--integrand", required=True)
    p.add_argument("--grid", type=int, default=ExperimentConfig.grid)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("spectrum", help="Jacobi spectra over an exhaustion")
    p.add_argument("--surface", required=True, help="fixture spec or solution.json")
    p.add_argument("--integrand", required=True)
    p.add_argument("--grid", type=int, default=ExperimentConfig.grid)
    p.add_argument("--domains", default=None, help="u0,u1,v0,v1;... (default: nested)")
    p.add_argument("--k", type=int, default=ExperimentConfig.eig_count)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("gauss", help="Gauss-map degrees and nodal pseudograph")
    p.add_argument("--surface", required=True)
    p.add_argument("--integrand", required=True)
    p.add_argument("--grid", type=int, default=ExperimentConfig.grid)
    p.add_argument("--axis", default="0,0,1")
    p.add_argument("--genus", type=int, default=ExperimentConfig.genus)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gauss)

    p = sub.add_parser("bounds", help="full verdict report with all checks")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--surface", default=ExperimentConfig.surface)
    p.add_argument("--integrand", default=ExperimentConfig.integrand)
    p.add_argument("--grid", type=int, default=ExperimentConfig.grid)
    p.add_argument("--domains", default=None)
    p.add_argument("--genus", type=int, default=ExperimentConfig.genus)
    p.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("selftest", help="no-false-pass corruption check")
    p.add_argument("--grid", type=int, default=64)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AnisolabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
