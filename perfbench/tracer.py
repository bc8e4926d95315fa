"""Span tracer for the traced benchmark run.

The program under test is not edited.  ``Tracer.install`` replaces each
public layer function by a wrapper in every anisolab module namespace that
binds it (``anisolab.harness.morse_index_exhaustion`` as well as
``anisolab.spectrum.morse_index_exhaustion``), plus three scipy entry points
the spectrum and graph layers reach: the ``splu`` ARPACK imports (so its
shift-invert factorization and the solves it iterates with are timed apart),
``scipy.linalg.eigh`` (the dense fallback) and ``splu`` as graph_solver calls
it.  ``uninstall`` restores every binding.

Each span records its name, start, end and parent; spans stay in memory
until the run ends and are aggregated into calls, self time (span minus the
time its child spans cover) and per-layer counts.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from anisolab.errors import GrazingCircle, NonDiscreteCriticalSet

# (module, function) pairs wrapped as spans named "<module>.<function>".
LAYER_FUNCTIONS = (
    ("integrand", "gamma_hessians"),
    ("integrand", "anisotropy_constants"),
    ("integrand", "wulff_mesh"),
    ("surface", "fixture"),
    ("surface", "from_jet"),
    ("surface", "curvature_field"),
    ("graph_solver", "solve"),
    ("graph_solver", "residual"),
    ("spectrum", "assemble"),
    ("spectrum", "dirichlet_eigs"),
    ("spectrum", "morse_index_exhaustion"),
    ("spectrum", "comparison_operator_counts"),
    ("spectrum", "jacobi_field_residual"),
    ("gauss_analysis", "critical_set"),
    ("gauss_analysis", "branch_order"),
    ("gauss_analysis", "pseudograph_extract"),
    ("gauss_analysis", "degrees"),
    ("harness", "verify_bounds"),
    ("harness", "report_json"),
    ("harness", "tangency_check"),
)

# Per-layer metrics reported by the traced run, with their units.
PER_LAYER = {}
for _span, _fields in {
    "spectrum.assemble": ("calls", "self_s", "repeat_share"),
    "spectrum.dirichlet_eigs": ("calls", "self_s", "repeat_share", "free_nodes"),
    "spectrum.arpack_factor": ("calls", "self_s"),
    "spectrum.arpack_solve": ("calls", "self_s"),
    "spectrum.dense_eigh": ("calls", "self_s"),
    "spectrum.morse_index_exhaustion": ("self_s",),
    "spectrum.comparison_operator_counts": ("self_s",),
    "spectrum.jacobi_field_residual": ("self_s",),
    "graph_solver.solve": ("calls", "self_s", "iterations"),
    "graph_solver.residual": ("calls", "self_s"),
    "graph_solver.splu": ("calls", "self_s"),
    "graph_solver.lu_solve": ("calls", "self_s"),
    "integrand.gamma_hessians": ("calls", "self_s"),
    "integrand.anisotropy_constants": ("self_s",),
    "integrand.wulff_mesh": ("self_s",),
    "surface.fixture": ("calls", "self_s"),
    "surface.from_jet": ("calls", "self_s"),
    "surface.curvature_field": ("calls", "self_s"),
    "gauss_analysis.critical_set": ("calls", "self_s", "failed"),
    "gauss_analysis.branch_order": ("calls", "self_s"),
    "gauss_analysis.pseudograph_extract": ("calls", "self_s", "grazing"),
    "gauss_analysis.degrees": ("calls", "self_s"),
    "harness.verify_bounds": ("self_s",),
    "harness.report_json": ("self_s",),
    "harness.tangency_check": ("self_s",),
}.items():
    for _field in _fields:
        PER_LAYER[f"{_span}.{_field}"] = {
            "self_s": "s", "repeat_share": "share"
        }.get(_field, "count")
PER_LAYER["graph_solver.trial_accept_ratio"] = "share"
PER_LAYER["failed_share"] = "share"
PER_LAYER["trace_overhead_share"] = "share"

# Metrics that count work; they must repeat exactly from pass to pass.
COUNT_METRICS = tuple(
    name for name in PER_LAYER
    if name.rsplit(".", 1)[-1] in ("calls", "iterations", "repeat_share", "free_nodes",
                                   "failed", "grazing", "trial_accept_ratio")
)

ARPACK_MODULE = "scipy.sparse.linalg._eigen.arpack.arpack"


class _Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, start, parent):
        self.name, self.start, self.end, self.parent = name, start, start, parent
        self.info = {}


class _Namespace:
    """Module stand-in that overrides some attributes and forwards the rest."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.spans: list[_Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        # duplicate-work bookkeeping, reset at each operation
        self._seen: set = set()
        self._origin: dict[int, tuple] = {}
        self._alive: list = []

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name):
        rec = _Span(name, time.perf_counter(), self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec.end = time.perf_counter()

    @contextmanager
    def operation(self, name):
        """Root span of one workload operation; repeats are judged within it."""
        self._seen.clear()
        self._origin.clear()
        self._alive.clear()
        with self.span(f"operation {name}") as rec:
            yield rec

    def wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                try:
                    out = fn(*args, **kwargs)
                except BaseException as exc:
                    rec.info["raised"] = type(exc)
                    raise
                if after is not None:
                    after(rec, args, kwargs, out)
                return out
        traced.__wrapped__ = fn
        return traced

    def _repeat(self, rec, key, keep):
        rec.info["repeat"] = key in self._seen
        self._seen.add(key)
        self._alive.append(keep)  # keeps ids in the key from being reused

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "anisolab" or n.startswith("anisolab.")]
        after = {
            "spectrum.assemble": self._after_assemble,
            "spectrum.dirichlet_eigs": self._after_eigs,
            "graph_solver.solve": _after_solve,
        }
        for mod_name, fn_name in LAYER_FUNCTIONS:
            original = getattr(importlib.import_module(f"anisolab.{mod_name}"), fn_name)
            span = f"{mod_name}.{fn_name}"
            wrapper = self.wrap(span, original, after.get(span))
            if span == "spectrum.assemble":
                self._assemble_sig = inspect.signature(original)
            if span == "spectrum.dirichlet_eigs":
                self._eigs_sig = inspect.signature(original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)

        arpack = importlib.import_module(ARPACK_MODULE)
        self._set(arpack, "splu", self._lu_factory(
            "spectrum.arpack_factor", "spectrum.arpack_solve", arpack.splu))
        self._set(scipy.linalg, "eigh", self.wrap("spectrum.dense_eigh", scipy.linalg.eigh))
        graph_solver = sys.modules["anisolab.graph_solver"]
        self._set(graph_solver, "spla", _Namespace(
            scipy.sparse.linalg,
            splu=self._lu_factory("graph_solver.splu", "graph_solver.lu_solve",
                                  scipy.sparse.linalg.splu),
        ))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _lu_factory(self, factor_name, solve_name, splu):
        factor = self.wrap(factor_name, splu)

        def traced_splu(*args, **kwargs):
            lu = factor(*args, **kwargs)
            return _Namespace(lu, solve=self.wrap(solve_name, lu.solve))
        return traced_splu

    # -- per-call bookkeeping --------------------------------------------------

    def _after_assemble(self, rec, args, kwargs, disc):
        a = self._assemble_sig.bind(*args, **kwargs)
        a.apply_defaults()
        w = a.arguments["potential_weight"]
        digest = None if w is None else hashlib.sha1(
            np.ascontiguousarray(w, dtype=np.float64).tobytes()).hexdigest()
        key = (id(a.arguments["patch"]), id(a.arguments["spec"]),
               id(a.arguments["field"]), digest, bool(a.arguments["isotropic_diffusion"]))
        self._repeat(rec, key, (a.arguments, disc))
        self._origin[id(disc)] = key

    def _after_eigs(self, rec, args, kwargs, out):
        a = self._eigs_sig.bind(*args, **kwargs)
        a.apply_defaults()
        disc = a.arguments["disc"]
        dom = a.arguments["domain"]
        key = (self._origin.get(id(disc), id(disc)), a.arguments["k"],
               None if dom is None else tuple(float(x) for x in dom),
               a.arguments["auto_extend"])
        self._repeat(rec, key, disc)
        rec.info["free_nodes"] = len(out[2])

    # -- aggregation -------------------------------------------------------------

    def aggregate(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Per-layer metrics of the spans ``first:last`` (one traced pass)."""
        spans = self.spans[first:last]
        child_time = defaultdict(float)
        for s in spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        info = defaultdict(lambda: defaultdict(float))
        by_index = {first + i: s for i, s in enumerate(spans)}
        for i, s in by_index.items():
            calls[s.name] += 1
            self_s[s.name] += (s.end - s.start) - child_time[i]
            for k, v in s.info.items():
                if k == "raised":
                    info[s.name][v.__name__] += 1
                else:
                    info[s.name][k] += v
            if s.name == "graph_solver.residual":
                parent = by_index.get(s.parent)
                if parent is not None and parent.name == "graph_solver.solve":
                    info["graph_solver.solve"]["residual_evals"] += 1

        out = {}
        for name in PER_LAYER:
            span, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = calls[span]
            elif field == "self_s":
                out[name] = self_s[span]
            elif field == "repeat_share":
                out[name] = info[span]["repeat"] / calls[span] if calls[span] else 0.0
            elif field in ("free_nodes", "iterations"):
                out[name] = int(info[span][field])
        solve = info["graph_solver.solve"]
        out["graph_solver.trial_accept_ratio"] = (
            solve["accepted"] / solve["residual_evals"] if solve["residual_evals"] else 0.0)
        out["gauss_analysis.critical_set.failed"] = int(
            info["gauss_analysis.critical_set"][NonDiscreteCriticalSet.__name__])
        out["gauss_analysis.pseudograph_extract.grazing"] = int(
            info["gauss_analysis.pseudograph_extract"][GrazingCircle.__name__])
        return out


def _after_solve(rec, args, kwargs, sol):
    rec.info["iterations"] = sol.iterations
    rec.info["accepted"] = len(sol.residual_history) - 1


def median_metrics(passes: list[dict]) -> dict:
    """Median of each time over the traced passes; counts from the first."""
    out = dict(passes[0])
    for name, unit in PER_LAYER.items():
        if unit == "s" and name in out:
            out[name] = statistics.median(p[name] for p in passes)
    return out
