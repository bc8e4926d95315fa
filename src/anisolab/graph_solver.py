"""Dirichlet solver for the anisotropic minimal-graph equation.

The height function satisfies a quasilinear equation R(u) = 0 whose
coefficients are the upper-left Hessian block of the 1-homogeneous integrand
extension, evaluated at the downhill normal direction.  Each step is a
Picard correction

    u <- u - omega * A^{-1} R(u)    (interior nodes; edges hold the data)

where A is the interior 9-point operator with coefficients frozen at some
earlier iterate.  With A frozen at u itself this is the classical
frozen-coefficient step; in correction form its rounding scales with the
correction, not with the size of u, so the iteration reaches residuals well
below eps * max|u| / h^2.

The LU of A (SuperLU with the minimum-degree ordering of A^T + A) is reused
across steps.  A full step with the lagged factor must shrink the residual
by LAG_CONTRACTION; if it does not, A is refactored at the current iterate
and the damping omega is halved until the residual decreases.  If even a
freshly factored step cannot lower it at omega >= MIN_DAMPING, the solver
reports "stalled".  The stencil's sparsity pattern is built once per solve.

Second-order stencils throughout: 3-point for pure second differences,
4-point cross for the mixed one, central first differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import EllipticityLoss
from .integrand import IntegrandSpec, gamma_hessians, sym2, sym2x2_eigenvalues
from .surface import SurfacePatch

MIN_DAMPING = 2.0**-20


@dataclass
class GraphProblem:
    domain: tuple[float, float, float, float]  # (x0, x1, y0, y1)
    shape: tuple[int, int]                     # (nx, ny) nodes per axis
    boundary: Callable                         # (x, y) -> boundary height
    spec: IntegrandSpec
    tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self):
        nx, ny = self.shape
        if nx < 8 or ny < 8:
            raise ValueError("grid must be at least 8x8")

    @property
    def hx(self) -> float:
        return (self.domain[1] - self.domain[0]) / (self.shape[0] - 1)

    @property
    def hy(self) -> float:
        return (self.domain[3] - self.domain[2]) / (self.shape[1] - 1)

    def node_coords(self) -> tuple[np.ndarray, np.ndarray]:
        x = np.linspace(self.domain[0], self.domain[1], self.shape[0])
        y = np.linspace(self.domain[2], self.domain[3], self.shape[1])
        return np.meshgrid(x, y, indexing="ij")

    def boundary_grid(self) -> np.ndarray:
        """Grid with boundary data on edge nodes and zeros inside."""
        X, Y = self.node_coords()
        g = np.zeros(self.shape)
        mask = np.zeros(self.shape, dtype=bool)
        mask[0, :] = mask[-1, :] = True
        mask[:, 0] = mask[:, -1] = True
        g[mask] = np.asarray(self.boundary(X[mask], Y[mask]), dtype=np.float64)
        return g


@dataclass
class GraphSolution:
    problem: GraphProblem
    u: np.ndarray
    residual_linf: float
    iterations: int
    converged: bool
    residual_history: list[float] = field(default_factory=list)
    # "converged", "stalled" (a freshly factored step could not lower the
    # residual at damping >= MIN_DAMPING) or "max_iter"; None when not
    # recorded, as for a solution loaded from JSON
    status: str | None = None


def _interior_jets(u: np.ndarray, hx: float, hy: float) -> dict[str, np.ndarray]:
    """Centered 2-jet of the height field on interior nodes."""
    return {
        "ux": (u[2:, 1:-1] - u[:-2, 1:-1]) / (2 * hx),
        "uy": (u[1:-1, 2:] - u[1:-1, :-2]) / (2 * hy),
        "uxx": (u[2:, 1:-1] - 2 * u[1:-1, 1:-1] + u[:-2, 1:-1]) / hx**2,
        "uyy": (u[1:-1, 2:] - 2 * u[1:-1, 1:-1] + u[1:-1, :-2]) / hy**2,
        "uxy": (u[2:, 2:] - u[2:, :-2] - u[:-2, 2:] + u[:-2, :-2]) / (4 * hx * hy),
    }


def _coefficients(spec: IntegrandSpec, ux: np.ndarray, uy: np.ndarray):
    """Upper-left Hessian block of gamma_bar at (-ux, -uy, 1)."""
    p = np.stack([-ux, -uy, np.ones_like(ux)], axis=-1)
    h = gamma_hessians(spec, p)
    return h[..., 0, 0], h[..., 0, 1], h[..., 1, 1]


def _frozen_coefficients(problem: GraphProblem, u: np.ndarray):
    """Coefficients frozen at the iterate ``u``, refused when they are not
    uniformly elliptic."""
    jets = _interior_jets(u, problem.hx, problem.hy)
    c11, c12, c22 = _coefficients(problem.spec, jets["ux"], jets["uy"])
    mine = sym2x2_eigenvalues(sym2(c11, c12, c22))[..., 0]
    if np.min(mine) < 1e-10:
        raise EllipticityLoss(
            f"frozen coefficient matrix has eigenvalue {np.min(mine):.3e}"
        )
    return c11, c12, c22


def residual(u: np.ndarray, problem: GraphProblem) -> np.ndarray:
    """Pointwise quasilinear residual; zero entries on boundary nodes."""
    jets = _interior_jets(u, problem.hx, problem.hy)
    c11, c12, c22 = _coefficients(problem.spec, jets["ux"], jets["uy"])
    out = np.zeros_like(u)
    out[1:-1, 1:-1] = c11 * jets["uxx"] + 2 * c12 * jets["uxy"] + c22 * jets["uyy"]
    return out


# Offsets of the 9-point stencil, in the order ``_Stencil.factor`` stacks
# their weights.
_OFFSETS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1))

# A step with a lagged factorization is kept only if it shrinks the residual
# by at least this factor; otherwise the operator is refactored.
LAG_CONTRACTION = 0.5


class _Stencil:
    """Sparsity pattern of the interior 9-point operator, built once per problem.

    Stored entries are kept in CSC order; ``_take`` says which offset's
    weight at which row node each entry carries, so a new set of frozen
    coefficients becomes a matrix by one gather.
    """

    def __init__(self, problem: GraphProblem):
        self.problem = problem
        nxi, nyi = problem.shape[0] - 2, problem.shape[1] - 2
        self.n = nxi * nyi
        node = np.arange(self.n).reshape(nxi, nyi)
        ii, jj = np.indices((nxi, nyi))
        rows, cols, take = [], [], []
        for k, (di, dj) in enumerate(_OFFSETS):
            ni, nj = ii + di, jj + dj
            inner = (ni >= 0) & (ni < nxi) & (nj >= 0) & (nj < nyi)
            rows.append(node[inner])
            cols.append(ni[inner] * nyi + nj[inner])
            take.append(k * self.n + node[inner])
        rows, cols, take = (np.concatenate(a) for a in (rows, cols, take))
        order = np.lexsort((rows, cols))
        self._take = take[order]
        self._indices = rows[order]
        self._indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=self.n))))

    def factor(self, c11: np.ndarray, c12: np.ndarray, c22: np.ndarray):
        """LU of the operator with these frozen coefficients on interior nodes."""
        hx, hy = self.problem.hx, self.problem.hy
        a, b, m = c11 / hx**2, c22 / hy**2, c12 / (2 * hx * hy)
        weights = np.stack([-2 * a - 2 * b, a, a, b, b, m, m, -m, -m]).ravel()
        mat = sp.csc_matrix(
            (weights[self._take], self._indices, self._indptr), shape=(self.n, self.n)
        )
        return spla.splu(mat, permc_spec="MMD_AT_PLUS_A")

    def factor_at(self, u: np.ndarray):
        """LU of the operator with coefficients frozen at the iterate ``u``."""
        return self.factor(*_frozen_coefficients(self.problem, u))


def _correct(u: np.ndarray, lu, r: np.ndarray, omega: float) -> np.ndarray:
    """``u - omega * A^{-1} r`` on interior nodes; edge nodes are kept."""
    out = u.copy()
    inner = r[1:-1, 1:-1]
    out[1:-1, 1:-1] -= omega * lu.solve(inner.ravel()).reshape(inner.shape)
    return out


def _attempt(u, r, lu, omega, problem):
    """Trial iterate from ``u`` with residual ``r``, its residual and sup norm."""
    trial = _correct(u, lu, r, omega)
    trial_r = residual(trial, problem)
    return trial, trial_r, float(np.max(np.abs(trial_r)))


def _harmonic(problem: GraphProblem, stencil: _Stencil) -> np.ndarray:
    u = problem.boundary_grid()
    one = np.ones((problem.shape[0] - 2, problem.shape[1] - 2))
    lu = stencil.factor(one, np.zeros_like(one), one)
    # the correction from the boundary data, then one refinement step
    for _ in range(2):
        jets = _interior_jets(u, problem.hx, problem.hy)
        lap = np.zeros_like(u)
        lap[1:-1, 1:-1] = jets["uxx"] + jets["uyy"]
        u = _correct(u, lu, lap, 1.0)
    return u


def harmonic_extension(problem: GraphProblem) -> np.ndarray:
    """Dirichlet extension with identity coefficients (the default seed)."""
    return _harmonic(problem, _Stencil(problem))


def solve(problem: GraphProblem, u0: np.ndarray | None = None) -> GraphSolution:
    """Picard corrections on a lagged factorization, with damping halved on
    residual increase.

    A caller-supplied ``u0`` supplies interior values only; its edge nodes
    are replaced by the boundary data.  A start already within ``tol``, be
    it ``u0`` or the harmonic seed, comes back converged after 0 iterations,
    without a factorization.  Non-convergence is data, not an error: the
    best iterate comes back with its ``status`` so the caller can still
    inspect it.
    """
    stencil = _Stencil(problem)
    if u0 is None:
        u = _harmonic(problem, stencil)
    else:
        u = problem.boundary_grid()
        u[1:-1, 1:-1] = np.asarray(u0, dtype=float)[1:-1, 1:-1]

    r = residual(u, problem)
    res = float(np.max(np.abs(r)))
    history = [res]
    omega = 1.0
    iterations = 0
    status = "max_iter"
    lu = None
    budget = problem.max_iter
    if res <= problem.tol:
        _frozen_coefficients(problem, u)  # no step, but a non-elliptic problem is refused
        budget = 0
    for it in range(1, budget + 1):
        step = None
        if lu is not None:
            step = _attempt(u, r, lu, omega, problem)
            if not (step[2] <= LAG_CONTRACTION * res or step[2] <= problem.tol):
                step = None
        if step is None:
            lu = stencil.factor_at(u)
            while omega >= MIN_DAMPING:
                step = _attempt(u, r, lu, omega, problem)
                if step[2] < res or step[2] <= problem.tol:
                    break
                step = None
                omega *= 0.5
        if step is None:
            status = "stalled"
            break
        u, r, res = step
        history.append(res)
        iterations = it
        if res <= problem.tol:
            break
    if res <= problem.tol:  # also a start within tol
        status = "converged"
    return GraphSolution(
        problem=problem,
        u=u,
        residual_linf=res,
        iterations=iterations,
        converged=status == "converged",
        residual_history=history,
        status=status,
    )


def lift(solution: GraphSolution) -> SurfacePatch:
    """Lift a converged solution to a surface patch.

    The outermost node ring is trimmed so every remaining node carries the
    same centered 2-jet the residual operator saw; the patch then inherits
    the solver's accuracy instead of one-sided boundary stencils.
    """
    prob = solution.problem
    u = solution.u
    jets = _interior_jets(u, prob.hx, prob.hy)
    X, Y = prob.node_coords()
    Xi, Yi = X[1:-1, 1:-1], Y[1:-1, 1:-1]
    zero = np.zeros_like(Xi)
    one = np.ones_like(Xi)

    def vec(a, b, c):
        return np.stack([a, b, c], axis=-1)

    nx, ny = prob.shape
    return SurfacePatch(
        name="graph_solution",
        domain=(
            prob.domain[0] + prob.hx,
            prob.domain[1] - prob.hx,
            prob.domain[2] + prob.hy,
            prob.domain[3] - prob.hy,
        ),
        shape=(nx - 2, ny - 2),
        position=vec(Xi, Yi, u[1:-1, 1:-1]),
        du=vec(one, zero, jets["ux"]),
        dv=vec(zero, one, jets["uy"]),
        duu=vec(zero, zero, jets["uxx"]),
        duv=vec(zero, zero, jets["uxy"]),
        dvv=vec(zero, zero, jets["uyy"]),
        orientation=1,
        periodic_u=False,
    )


# ---------------------------------------------------------------------------
# boundary data builders (also used by the CLI grammar)
# ---------------------------------------------------------------------------

def bc_zero():
    return lambda x, y: np.zeros_like(np.asarray(x, dtype=float))


def bc_linear(a: float, b: float, c: float):
    return lambda x, y: a * np.asarray(x, float) + b * np.asarray(y, float) + c


def bc_catenoid():
    """Heights of the standard catenoid graph piece, valid for x^2+y^2 > 1."""
    return lambda x, y: np.arccosh(np.sqrt(np.asarray(x, float) ** 2 + np.asarray(y, float) ** 2))


def bc_edge_sine(amplitude: float, domain: tuple[float, float, float, float]):
    """amplitude * sin(2 pi x) on the y = y0 edge, zero elsewhere."""
    y0 = domain[2]

    def f(x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        return np.where(np.abs(y - y0) < 1e-14, amplitude * np.sin(2 * np.pi * x), 0.0)

    return f
