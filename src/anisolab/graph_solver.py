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

Levels.  A grid of n = 2m - 1 nodes per axis with m >= MIN_COARSE_NODES
on both axes is solved after its m-node coarse grid, recursively, and
starts from the coarse solution refined by the cubic midpoint rule, with
its own edge data put back (nested iteration, Brandt 1977).  The coarsest
level, and any grid that does not nest, starts from the harmonic seed.

Operator inverse.  On the coarsest level A^{-1} is the LU of A (SuperLU
with the minimum-degree ordering of A^T + A), reused across steps.  On a
nested level it is one V-cycle on A frozen at the level's start, which is
gathered but never factored: JACOBI_SWEEPS damped-Jacobi sweeps before and
after a coarse correction.  The correction injects the residual onto the
nodes the two grids share, applies the inverse the coarser level's own
loop ended with, and interpolates the result, zero on the edges, by the
same cubic midpoint rule that starts the level.  A nested level whose
coarse level took no step has no such inverse and is factored like the
coarsest.  So a solve whose V-cycle steps contract factors only its
coarsest grid.

Lagging and fallback.  A full step with a lagged inverse must shrink the
residual by LAG_CONTRACTION.  On the coarsest level a step that does not is
refactored at the current iterate, and the damping omega is halved until
the residual decreases.  On a nested level the first V-cycle step that does
not contract switches that level to the same direct factorization for the
rest of its steps.  If even a freshly factored step cannot lower the
residual at omega >= MIN_DAMPING, the level reports "stalled".  The
stencil's sparsity pattern is built once per level, at its first step; a
start already within tolerance builds none.

The harmonic seed is the Dirichlet extension of the boundary data with the
identity-coefficient operator: the 5-point Laplacian on a uniform
rectangle, which the type-I sine transform diagonalizes, so the seed is
solved by FFTs and needs no factorization.

Second-order stencils throughout: 3-point for pure second differences,
4-point cross for the mixed one, central first differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from numbers import Integral
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import EllipticityLoss
from .integrand import IntegrandSpec, hessian_entries, sym2x2_eigenvalues
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
        x0, x1, y0, y1 = self.domain
        if not (np.all(np.isfinite(self.domain)) and x0 < x1 and y0 < y1):
            raise ValueError(f"domain needs finite x0 < x1 and y0 < y1, got {self.domain}")
        # the stencils divide by h^2 and the harmonic seed scales by (2/h)^2
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            h2 = np.array([self.hx, self.hy]) ** 2
            if not np.all((h2 > 0) & (h2 < np.inf) & (4 / h2 < np.inf)):
                raise ValueError(f"node spacings {self.hx:g}, {self.hy:g} square out of range")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be a finite number > 0, got {self.tol}")
        if not (isinstance(self.max_iter, Integral) and self.max_iter >= 0):
            raise ValueError(f"max_iter must be an integer >= 0, got {self.max_iter!r}")
        with np.errstate(over="ignore", invalid="ignore"):
            edge = self.boundary_grid()
        if not np.all(np.isfinite(edge)):
            raise ValueError("boundary heights must be finite on every edge node")

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
    # one record per grid level, coarsest first, the last one this grid's:
    # {"grid": [nx, ny], "iterations", "status", "fell_back"}, where
    # fell_back says a V-cycle level switched to the direct factorization
    levels: list[dict] = field(default_factory=list)


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
    """Upper-left Hessian block of gamma_bar at (-ux, -uy, 1); slopes too
    large for floating point give NaN, quietly: the elliptic guard refuses it."""
    p = np.stack([-ux, -uy, np.ones_like(ux)], axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        return hessian_entries(spec, p, ((0, 0), (0, 1), (1, 1)))


def _frozen_coefficients(problem: GraphProblem, u: np.ndarray):
    """Coefficients frozen at the iterate ``u``, refused when they are not
    uniformly elliptic."""
    jets = _interior_jets(u, problem.hx, problem.hy)
    c11, c12, c22 = _coefficients(problem.spec, jets["ux"], jets["uy"])
    mine, _ = sym2x2_eigenvalues(c11, c12, c22)
    if not np.min(mine) >= 1e-10:  # NaN coefficients are refused too
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


# Offsets of the 9-point stencil, in the order ``_Stencil.matrix_at`` stacks
# their weights.
_OFFSETS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1))

# A step with a lagged factorization is kept only if it shrinks the residual
# by at least this factor; otherwise the operator is refactored.
LAG_CONTRACTION = 0.5

# A grid of n = 2m - 1 nodes per axis is solved after its m-node coarse grid
# when m is at least this on both axes; coarser grids are solved directly.
MIN_COARSE_NODES = 65

# Damped-Jacobi sweeps of a V-cycle before and after its coarse correction.
JACOBI_SWEEPS = 3
JACOBI_DAMPING = 0.8


class _Stencil:
    """Sparsity pattern of the interior 9-point operator, built once per problem.

    Stored entries are kept in CSR order, each row node's columns ascending;
    ``_take`` says which offset's weight at which row node each entry
    carries, so a new set of frozen coefficients becomes a matrix by one
    gather.  Row-major storage serves the V-cycle's products; the direct
    path factors its CSC copy.
    """

    def __init__(self, problem: GraphProblem):
        self.problem = problem
        nxi, nyi = problem.shape[0] - 2, problem.shape[1] - 2
        self.n = nxi * nyi
        # row node r holds the columns r + (di * nyi + dj), which ascend when
        # the offsets are taken in ascending order: the (n, 9) mask is CSR order
        ks = sorted(range(len(_OFFSETS)), key=_OFFSETS.__getitem__)
        di, dj = np.array([_OFFSETS[k] for k in ks]).T
        ci, cj = np.arange(nxi)[:, None] + di, np.arange(nyi)[:, None] + dj
        inner = ((ci >= 0) & (ci < nxi))[:, None] & ((cj >= 0) & (cj < nyi))
        inner = inner.reshape(self.n, len(ks))
        rows = np.arange(self.n)[:, None]
        self._indices = (rows + (di * nyi + dj))[inner]
        self._take = (np.array(ks) * self.n + rows)[inner]
        self._indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(inner, axis=1))))

    def matrix_at(self, u: np.ndarray) -> sp.csr_matrix:
        """The operator with coefficients frozen at the iterate ``u``."""
        c11, c12, c22 = _frozen_coefficients(self.problem, u)
        hx, hy = self.problem.hx, self.problem.hy
        a, b, m = c11 / hx**2, c22 / hy**2, c12 / (2 * hx * hy)
        weights = np.stack([-2 * a - 2 * b, a, a, b, b, m, m, -m, -m]).ravel()
        return sp.csr_matrix(
            (weights[self._take], self._indices, self._indptr), shape=(self.n, self.n)
        )


def _refine(u: np.ndarray) -> np.ndarray:
    """Cubic midpoint refinement of an (m, n) node grid to (2m - 1, 2n - 1):
    weights (-1, 9, 9, -1)/16 inside and (5, 15, -5, 1)/16 at the ends."""
    for _ in range(2):
        fine = np.empty((2 * len(u) - 1, u.shape[1]))
        fine[0::2] = u
        fine[3:-3:2] = (9 * (u[1:-2] + u[2:-1]) - (u[:-3] + u[3:])) / 16
        fine[1] = (5 * u[0] + 15 * u[1] - 5 * u[2] + u[3]) / 16
        fine[-2] = (5 * u[-1] + 15 * u[-2] - 5 * u[-3] + u[-4]) / 16
        u = fine.T
    return u


def _v_cycle(mat: sp.csr_matrix, shape: tuple[int, int], coarse: Callable) -> Callable:
    """One V-cycle as an approximate inverse of the frozen operator ``mat``
    on interior nodes of ``shape``: damped-Jacobi sweeps before and after a
    correction by ``coarse``, the coarser level's inverse, on the residual
    injected onto the shared nodes and refined back.

    ``mat`` is row-major, so each product sums a row in ascending column
    order.  The first sweep starts from e = 0, where it is e = weight * r
    with no product.
    """
    weight = JACOBI_DAMPING / mat.diagonal()

    def smooth(e, r, sweeps):
        for _ in range(sweeps):
            e = e + weight * (r - mat @ e)
        return e

    def apply(r):
        e = smooth(weight * r, r, JACOBI_SWEEPS - 1)
        rc = (r - mat @ e).reshape(shape)[1::2, 1::2]
        ec = np.pad(coarse(rc.ravel()).reshape(rc.shape), 1)
        e += _refine(ec)[1:-1, 1:-1].ravel()
        return smooth(e, r, JACOBI_SWEEPS)

    return apply


def _attempt(u, r, inverse, omega, problem):
    """The trial iterate u - omega * A^{-1} r (edge nodes kept) from ``u``
    with residual ``r``, A^{-1} applied by ``inverse``, and the trial's
    residual and its sup norm."""
    trial, inner = u.copy(), r[1:-1, 1:-1]
    trial[1:-1, 1:-1] -= omega * inverse(inner.ravel()).reshape(inner.shape)
    trial_r = residual(trial, problem)
    return trial, trial_r, float(np.max(np.abs(trial_r)))


def _sine_transform(a: np.ndarray) -> np.ndarray:
    """2D type-I sine transform, unnormalised: applied twice it multiplies
    an (m, n) array by (m + 1)(n + 1)/4.

    Each axis takes the rfft of its odd extension.  This stays on numpy.fft
    rather than scipy.fft.dstn: numpy.fft is already loaded with numpy,
    while importing scipy.fft costs every process 60-100 ms and 3 MB.
    """
    for _ in range(2):
        m, n = a.shape
        odd = np.zeros((m, 2 * n + 2))
        odd[:, 1:n + 1], odd[:, n + 2:] = a, -a[:, ::-1]
        a = (-0.5 * np.fft.rfft(odd)[:, 1:n + 1].imag).T
    return a


def harmonic_extension(problem: GraphProblem) -> np.ndarray:
    """Dirichlet extension with identity coefficients (the default seed).

    The 5-point Laplacian on the uniform rectangle is diagonal in the
    type-I sine basis (Hockney 1965), so each correction is two sine
    transforms and a division, with no factorization.
    """
    u = problem.boundary_grid()
    nxi, nyi = problem.shape[0] - 2, problem.shape[1] - 2
    sx = np.sin(np.pi * np.arange(1, nxi + 1) / (2 * (nxi + 1))) ** 2
    sy = np.sin(np.pi * np.arange(1, nyi + 1) / (2 * (nyi + 1))) ** 2
    lam = (-(2 / problem.hx) ** 2 * sx[:, None] - (2 / problem.hy) ** 2 * sy) * (
        (nxi + 1) * (nyi + 1) / 4
    )
    # the correction from the boundary data, then one refinement step
    for _ in range(2):
        jets = _interior_jets(u, problem.hx, problem.hy)
        u[1:-1, 1:-1] -= _sine_transform(_sine_transform(jets["uxx"] + jets["uyy"]) / lam)
    return u


def solve(problem: GraphProblem) -> GraphSolution:
    """Picard corrections on a lagged operator inverse, with damping halved
    on residual increase.

    A grid that nests is solved after its coarse grid, from the refined
    coarse solution and with V-cycle inverses (module docstring); ``levels``
    records each grid's solve.  A start already within ``tol`` comes back
    converged after 0 iterations, without a factorization.  Non-convergence
    is data, not an error: the best iterate comes back with its ``status``
    so the caller can still inspect it.
    """
    return _solve_level(problem)[0]


def _solve_level(problem: GraphProblem):
    """The solution on ``problem``'s grid and the operator inverse its Picard
    loop ended with (None when it took no step)."""
    nx, ny = problem.shape
    coarse_inverse, levels = None, []
    if nx % 2 and ny % 2 and min(nx, ny) >= 2 * MIN_COARSE_NODES - 1:
        coarse, coarse_inverse = _solve_level(
            replace(problem, shape=((nx + 1) // 2, (ny + 1) // 2)))
        u, levels = problem.boundary_grid(), coarse.levels
        u[1:-1, 1:-1] = _refine(coarse.u)[1:-1, 1:-1]
    else:
        u = harmonic_extension(problem)

    r = residual(u, problem)
    res = float(np.max(np.abs(r)))
    history = [res]
    omega = 1.0
    iterations = 0
    status = "max_iter"
    stencil = inverse = None
    fell_back = False
    budget = problem.max_iter
    if res <= problem.tol:
        _frozen_coefficients(problem, u)  # no step, but a non-elliptic problem is refused
        budget = 0
    if budget and coarse_inverse is not None:
        stencil = _Stencil(problem)
        inverse = _v_cycle(stencil.matrix_at(u), (nx - 2, ny - 2), coarse_inverse)
    for it in range(1, budget + 1):
        step = None
        if inverse is not None:
            step = _attempt(u, r, inverse, omega, problem)
            if not (step[2] <= LAG_CONTRACTION * res or step[2] <= problem.tol):
                step = None
        if step is None:
            fell_back = coarse_inverse is not None
            stencil = stencil or _Stencil(problem)
            inverse = spla.splu(stencil.matrix_at(u).tocsc(), permc_spec="MMD_AT_PLUS_A").solve
            while omega >= MIN_DAMPING:
                step = _attempt(u, r, inverse, omega, problem)
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
    levels = levels + [{"grid": [nx, ny], "iterations": iterations, "status": status,
                        "fell_back": fell_back}]
    return GraphSolution(
        problem=problem,
        u=u,
        residual_linf=res,
        iterations=iterations,
        converged=status == "converged",
        residual_history=history,
        status=status,
        levels=levels,
    ), inverse


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
