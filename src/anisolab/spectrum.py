"""Discretization and spectra of the second-variation (Jacobi) operator.

P1 finite elements on the triangulated parameter grid.  The operator is in
divergence form, so weak assembly keeps the matrices exactly symmetric and
the generalized eigenproblem real -- the stability-counting logic depends
on that.  Element coefficients (weight tensor and curvature pairing) are
evaluated once per triangle at the barycenter; the basis products are
integrated exactly.  Every cell is cut the same way, so the P1 gradients
are those of two tiles, and each matrix is summed per stencil offset on
the grid, exactly symmetric.

Dirichlet problems on nested sub-rectangles restrict to nested interior
node sets of one fixed grid, which makes the count of negative eigenvalues
provably monotone along an exhaustion.

Every count is the number of eigenvalues below a shift sigma: the mass
is SPD, so by Sylvester's law it is the number of negative pivots of an
LDL^T factorization of A - sigma M.  Where only a count is needed (the
comparison operator's), the counts below 0 and below a small -delta guard
the eigensolver's zero threshold, and the eigensolve is the fallback.

Each domain's pencil offers ``count(sigma)`` (eigenvalues below sigma, or
None when not trusted), ``lowest(k)`` (the k lowest eigenpairs) and the
gaps ``gap_a`` and ``gap_m`` of operator and mass from what it counts.
:class:`_SparsePencil` (gaps 0) counts by a symmetric factorization and
solves by shift-invert Lanczos (ARPACK) with one such factorization as its
operator (Ericsson and Ruhe, Math. Comp. 35, 1980): of A itself, whose
count c of negative eigenvalues certifies that ARPACK's window nearest 0
holds every negative eigenvalue when exactly c of its values are negative
(a Sylvester count at 0 only; Grimes, Lewis and Simon, SIAM J. Matrix
Anal. Appl. 15, 1994, also count below the window's top), its
nonnegative values being ARPACK's nearest 0; failing that, of A - sigma M
at a sigma whose count of none below proves it below the spectrum.  Only
windows of k >= n - 1 of n eigenvalues, beyond ARPACK, are solved densely.

On a chart periodic in u whose coefficients do not depend on u (the
catenoids), the pencil of a domain spanning the period is block-circulant
in u, every cell being cut the same way.  A discrete Fourier transform in
u splits it into nu/2 + 1 Hermitian tridiagonal pencils in v, one per
mode (:class:`_ModePencil`): Sturm counts of all modes at once (backward
stable; Kahan 1966, Demmel 1997, 5.3.4), and dense solves of only the
modes holding one of the lowest eigenvalues, no factorization.  Callers
take ``_mode_pencil(disc, domain, sparse) or sparse``, the modes where they
provably match the pencil.  :func:`inertia` takes the count of a sparse
window certified at sigma = 0 when no window value lies in [-shift, 0),
so each such domain is factored once; it recounts every other domain on
the sparse pencil, the per-mode ones included, so there the verdict's
recount checks one algorithm by the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import AnisolabError, InvalidSpec, SolverFailure
from .integrand import IntegrandSpec, gamma_hessians, restrict2, unit_vector
from .surface import CurvatureField, SurfacePatch, curvature_field

ZERO_EIG_REL = 1e-8
DEFAULT_EIG_COUNT = 12
DEFAULT_AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))  # translation fields
SHIFT_TRIES = 8  # factorizations spent looking for a shift below the spectrum
MODE_GAP_REL = 1e-13  # largest pencil entry off its circulant rebuild, relative

# int_T lambda_i lambda_j lambda_k / area: 1/10 on the diagonal triple,
# 1/30 with one repeated index, 1/60 all distinct
_P1_CUBIC = np.full((3, 3, 3), 1.0 / 60.0)
for _i in range(3):
    _P1_CUBIC[_i, _i, :] = 1.0 / 30.0
    _P1_CUBIC[_i, :, _i] = 1.0 / 30.0
    _P1_CUBIC[:, _i, _i] = 1.0 / 30.0
    _P1_CUBIC[_i, _i, _i] = 1.0 / 10.0

# every cell's two triangles as node offsets (di, dj) from its corner (i, j),
# one diagonal for all, so every interior node touches six (the pointwise
# consistency of lumped-mass residuals needs that uniform valence); a node's
# P1 neighbours as offsets; the entries (a, b), a <= b, of an element matrix
_TILES = (((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1)))
_STENCIL = ((-1, -1), (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0), (1, 1))
_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


@dataclass
class JacobiDiscretization:
    stiffness: sp.csr_matrix   # int <A_grad u, grad v>
    potential: sp.csr_matrix   # int pairing * u v
    mass: sp.csr_matrix        # int u v
    dirichlet_mask: np.ndarray  # True on patch-boundary nodes
    lumped_mass: np.ndarray
    field: CurvatureField      # the curvature data and, as field.patch, the chart

    @property
    def node_count(self) -> int:
        return self.stiffness.shape[0]

    @cached_property
    def operator(self) -> sp.csr_matrix:
        """The Jacobi operator matrix, stiffness - potential."""
        return (self.stiffness - self.potential).tocsr()

    @cached_property
    def certified(self) -> dict:
        """Domain -> (count c at sigma = 0, window values) of each sparse
        window certified there; numbers only, so no factor outlives its solve."""
        return {}


@dataclass
class SpectralReport:
    domains: list[tuple[float, float, float, float]]
    eigenvalues: list[np.ndarray]
    morse_index: list[int]
    stabilized_index: int | None
    jacobi_residuals: dict[str, float]

    def to_dict(self) -> dict:
        """JSON-ready form, shared by the verdict report and ``anisolab spectrum``."""
        return {
            "domains": [list(d) for d in self.domains],
            "eigenvalues": [[float(v) for v in vals] for vals in self.eigenvalues],
            "morse_index": self.morse_index,
            "stabilized_index": self.stabilized_index,
            "jacobi_residuals": {k: float(v) for k, v in self.jacobi_residuals.items()},
        }


def assemble(
    patch: SurfacePatch,
    spec: IntegrandSpec,
    field: CurvatureField | None = None,
    potential_weight: np.ndarray | None = None,
    isotropic_diffusion: bool = False,
) -> JacobiDiscretization:
    """Assemble stiffness, potential and mass matrices on the patch grid.

    The elements live in the flat parameter plane; the surface enters through
    the first fundamental form, pulled back per element at the barycenter.
    That keeps the scheme pointwise consistent on the structured grid, which
    an embedded polyhedral assembly would not be.

    ``potential_weight`` overrides the curvature pairing (used by the
    comparison operator); ``isotropic_diffusion`` replaces the weight
    tensor by the identity (plain Laplace-Beltrami stiffness).
    """
    if field is None:
        field = curvature_field(patch, spec)
    nu_, nv_ = patch.shape
    faces = grid_faces(nu_, nv_, patch.periodic_u)

    # barycenter jets of the chart and the pulled-back coefficient tensors
    def barycenter(x):
        x = x.reshape(-1, 3)
        return (np.take(x, faces[:, 0], axis=0) + np.take(x, faces[:, 1], axis=0)
                + np.take(x, faces[:, 2], axis=0)) / 3.0

    xu, xv = barycenter(patch.du), barycenter(patch.dv)
    raw = np.cross(xu, xv)
    jac = np.linalg.norm(raw, axis=1)
    nbar = patch.orientation * raw / jac[:, None]
    E = np.einsum("ti,ti->t", xu, xu)
    F = np.einsum("ti,ti->t", xu, xv)
    G = np.einsum("ti,ti->t", xv, xv)
    # C = g^-1 A g^-1 |X_u x X_v|, symmetric, with g^-1 = [[p, q], [q, r]]
    det_g = E * G - F * F
    p, q, r = G / det_g, -F / det_g, E / det_g
    if isotropic_diffusion:  # A = g
        coef = np.stack([p, q, r], axis=-1) * jac[:, None]
    else:
        a, b, d = restrict2(gamma_hessians(spec, nbar), xu, xv)
        coef = np.stack([p * p * a + 2.0 * p * q * b + q * q * d,
                         p * q * a + (p * r + q * q) * b + q * r * d,
                         q * q * a + 2.0 * q * r * b + r * r * d], axis=-1) * jac[:, None]
    if potential_weight is None:
        qnode = field.aniso_pairing.reshape(-1)
    else:
        qnode = np.asarray(potential_weight, dtype=np.float64).reshape(-1)
    jnode = field.jacobian.reshape(-1)

    # every cell is cut the same way, so the P1 gradients and the area are
    # those of the two tiles scaled by the spacings
    pts = np.array(_TILES) * [patch.hu, patch.hv]
    d1, d2 = pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]
    edges = pts[:, [2, 0, 1]] - pts[:, [1, 2, 0]]
    ia, ib = np.array(_PAIRS).T
    with np.errstate(all="ignore"):  # spacings out of floating-point range: refused below
        signed2 = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]  # twice the signed area
        area = 0.5 * abs(signed2[0])  # the same for both tiles
        gx, gy = -edges[..., 1] / signed2[:, None], edges[..., 0] / signed2[:, None]  # (tile, 3)
        # element stiffness area g_a . C g_b: per tile, the entry of each pair
        # (a, b) is that of (c11, c12, c22) of C against three outer products
        outer = area * np.stack([gx[:, ia] * gx[:, ib],
                                 gx[:, ia] * gy[:, ib] + gy[:, ia] * gx[:, ib],
                                 gy[:, ia] * gy[:, ib]], axis=1)  # (tile, 3, pair)
        local_k = np.matmul(coef.reshape(-1, 2, 3).transpose(1, 0, 2), outer).transpose(1, 0, 2)
        # exact integrals of P1-interpolated weights against basis products;
        # the curvature pairing varies too fast near curvature peaks for a
        # frozen one-point rule to keep the pointwise residual at quadratic order
        cubic = area * _P1_CUBIC[ia, ib].T  # corner weight -> pair entry
        stiffness, potential, mass = (_stencil_sum(local, nu_, nv_, patch.periodic_u) for local in (
            local_k, np.take(qnode * jnode, faces) @ cubic, np.take(jnode, faces) @ cubic))
    if not (area > 0.0 and all(np.isfinite(m.data).all() for m in (stiffness, potential, mass))):
        raise AnisolabError(f"P1 assembly at grid spacings hu = {patch.hu:.3g}, "
                            f"hv = {patch.hv:.3g} gives a zero element area or non-finite entries")
    return JacobiDiscretization(
        stiffness=stiffness,
        potential=potential,
        mass=mass,
        dirichlet_mask=patch.boundary_mask().reshape(-1),
        lumped_mass=np.asarray(mass.sum(axis=1)).reshape(-1),
        field=field,
    )


def grid_faces(nu: int, nv: int, periodic_u: bool) -> np.ndarray:
    """Triangulation of an (nu, nv) node grid, row-major node ids i*nv + j:
    every cell's two _TILES, cells in C order, corners in tile order."""
    i = np.arange(nu if periodic_u else nu - 1, dtype=np.int64)[:, None, None, None]
    j = np.arange(nv - 1, dtype=np.int64)[None, :, None, None]
    di, dj = np.array(_TILES, dtype=np.int64).transpose(2, 0, 1)  # (tile, corner)
    return ((i + di) % nu * nv + j + dj).reshape(-1, 3)


def _stencil_sum(local: np.ndarray, nu: int, nv: int, periodic_u: bool) -> sp.csr_matrix:
    """The P1 matrix on an (nu, nv) grid from the element entries ``local``
    at _PAIRS, ordered (face, pair) as :func:`grid_faces` orders the faces.

    The sums are kept per _STENCIL offset on the grid, each pair (a, b),
    a <= b, of an element going to both of its entries, so the matrix is
    exactly symmetric.  Exact zeros are dropped, among them the entries of
    the neighbours a node lacks at an edge.
    """
    cu = nu if periodic_u else nu - 1  # cells along u
    local = local.reshape(cu, nv - 1, 2, len(_PAIRS))
    s = np.zeros((len(_STENCIL), nu + 1, nv))  # row nu is row 0 of a periodic chart
    for t, tile in enumerate(_TILES):
        for e, (a, b) in enumerate(_PAIRS):
            ends = ((tile[a], tile[b]), (tile[b], tile[a])) if a != b else ((tile[a], tile[a]),)
            for (i, j), (k, l) in ends:  # row node, column node
                s[_STENCIL.index((k - i, l - j)), i:i + cu, j:j + nv - 1] += local[..., t, e]
    s[:, 0] += s[:, nu]
    di, dj = np.array(_STENCIL).T
    cols = ((np.arange(nu)[:, None, None] + di) % nu * nv
            + np.clip(np.arange(nv)[:, None] + dj, 0, nv - 1))
    m = sp.csr_matrix((s[:, :nu].transpose(1, 2, 0).reshape(-1), cols.reshape(-1),
                       len(_STENCIL) * np.arange(nu * nv + 1)), shape=(nu * nv, nu * nv))
    m.eliminate_zeros()
    m.sort_indices()  # the rows at a periodic seam wrap around
    return m


def interior_indices(
    disc: JacobiDiscretization,
    domain: tuple[float, float, float, float] | None = None,
) -> np.ndarray:
    """Free node indices for the Dirichlet problem on a parameter sub-rectangle.

    Nodes on or outside the sub-rectangle boundary are constrained, so nested
    rectangles give nested free sets on the shared grid.
    """
    patch = disc.field.patch
    keep = ~disc.dirichlet_mask
    if domain is not None:
        u0, u1, v0, v1 = domain
        U, V = np.meshgrid(patch.u_samples(), patch.v_samples(), indexing="ij")
        tol_u, tol_v = 1e-12 * max(1.0, abs(u1 - u0)), 1e-12 * max(1.0, abs(v1 - v0))
        inside = (V > v0 + tol_v) & (V < v1 - tol_v)
        if not _spans_period(patch, domain):
            inside &= (U > u0 + tol_u) & (U < u1 - tol_u)
        keep = keep & inside.reshape(-1)
    return np.flatnonzero(keep)


def _spans_period(patch: SurfacePatch, domain) -> bool:
    """True when ``domain`` covers the whole u-period of a periodic chart."""
    return patch.periodic_u and (
        domain is None or (domain[0] <= patch.domain[0] and domain[1] >= patch.domain[1]))


def dirichlet_eigs(
    disc: JacobiDiscretization,
    k: int,
    domain: tuple[float, float, float, float] | None = None,
    auto_extend: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lowest k eigenvalues of (stiffness - potential) x = lambda mass x.

    Sign convention: lambda equals the quadratic form per unit L2 norm, so
    negative eigenvalues are exactly the unstable directions.  Returns
    (eigenvalues, eigenvectors restricted to free nodes, free node indices);
    the eigenvectors are real and mass-orthonormal.  Auto-extends k while
    the top of the computed window is still negative so an instability
    count is never truncated.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    sparse = _SparsePencil(disc, domain)
    n = len(sparse.idx)
    if n == 0:
        raise SolverFailure("Dirichlet domain contains no free nodes")
    pencil = _mode_pencil(disc, domain, sparse) or sparse
    k = min(k, n)
    while True:
        try:
            vals, vecs = pencil.lowest(k)
        except SolverFailure:
            raise
        except Exception as exc:  # ARPACK and LAPACK failures surface loudly
            raise SolverFailure(f"eigensolve failed: {exc}") from exc
        if not auto_extend or len(vals) >= n or negative_count(vals) < len(vals):
            break
        k = min(2 * k, n)
    return vals, vecs, sparse.idx


class _SparsePencil:
    """Operator and mass restricted to the free nodes ``idx`` of a domain,
    counted by :func:`_symmetric_factor`.  Solved by ARPACK in shift-invert
    mode; densely only for k >= n - 1 of its n eigenvalues, beyond ARPACK.

    The first ARPACK call factors the pencil at sigma = 0, whose count c is
    the number of negative eigenvalues.  With c < k, ARPACK finds the k
    eigenvalues nearest 0 about that one factor.  A window holding exactly
    c negative values holds all of them; its nonnegative values are the
    ones ARPACK converged to nearest 0, trusted as the descent's window is
    trusted above its shift.  An untrusted factor, c >= k, or a window
    missing a negative eigenvalue (one far below 0) falls back to a shift
    proved below the spectrum by a count of 0, moved down fourfold and
    refactored until it is; that shift then serves every later k."""
    gap_a = gap_m = 0.0  # the pencil is exactly what it counts and solves

    def __init__(self, disc: JacobiDiscretization, domain):
        self.disc, self.domain, self.idx = disc, domain, interior_indices(disc, domain)
        self.op = disc.operator[self.idx][:, self.idx].tocsc()
        self.mass = disc.mass[self.idx][:, self.idx].tocsc()
        self.sigma = self.opinv = self.below_zero = None

    def count(self, sigma: float) -> int | None:
        return _symmetric_factor(self.op, self.mass, sigma)[1]

    def lowest(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        op, mass, n = self.op, self.mass, len(self.idx)
        if k >= n - 1:  # beyond ARPACK's reach
            vals, vecs = sla.eigh(op.toarray(), mass.toarray())
            return vals[:k], vecs[:, :k]
        if self.sigma is None:
            lu, self.below_zero = _symmetric_factor(op, mass, 0.0)
            if lu is not None:
                self._shift(0.0, lu)
        if self.sigma == 0.0 and self.below_zero < k:
            vals, vecs = self._arpack(k)
            if np.sum(vals < 0.0) == self.below_zero:
                self.disc.certified[_domain_key(self.domain)] = (self.below_zero, vals)
                return vals, vecs
        if not self.sigma:  # no factor at 0, or it cannot give the k lowest
            self._descend()
        return self._arpack(k)

    def _descend(self) -> None:
        """Factor at a shift proved below the spectrum by a count of 0."""
        qmax = float(np.max(self.disc.potential.diagonal()[self.idx] / self.mass.diagonal()))
        sigma = -max(qmax, 0.0) - 1.0
        for _ in range(SHIFT_TRIES):
            lu, below = _symmetric_factor(self.op, self.mass, sigma)
            if below == 0:
                self._shift(sigma, lu)
                return
            sigma *= 4.0
        raise SolverFailure(f"no shift below the spectrum found in {SHIFT_TRIES} factorizations")

    def _shift(self, sigma: float, lu) -> None:
        self.sigma = sigma
        self.opinv = spla.LinearOperator(self.op.shape, matvec=lu.solve, dtype=np.float64)

    def _arpack(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The k eigenpairs nearest the shift, in ascending order.

        ARPACK's mass products take the CSR view of the CSC mass arrays: the
        transpose, which is the mass itself, summed row by row in the same order.
        """
        mass = sp.csr_matrix((self.mass.data, self.mass.indices, self.mass.indptr),
                             shape=self.mass.shape)
        vals, vecs = spla.eigsh(self.op, k=k, M=mass, sigma=self.sigma, which="LM",
                                v0=np.random.default_rng(0).standard_normal(len(self.idx)),
                                tol=0, OPinv=self.opinv)
        order = np.argsort(vals)
        return vals[order], vecs[:, order]


def _mode_pencil(disc: JacobiDiscretization, domain, sparse) -> _ModePencil | None:
    """The Fourier modes in u of the sparse pencil of ``domain``, or None
    where they do not split it.

    Free nodes come in u-rows of p.  The pencil splits when the chart is
    periodic in u, ``domain`` spans the period, and operator and mass each
    equal, within MODE_GAP_REL of their largest entry, the block-circulant
    rebuild from their first block row: blocks B_d coupling a u-row to the
    row d = -1, 0, 1 after it (mod nu), tridiagonal in v, B_{-1} = B_1^T.
    A discrete Fourier transform in u then turns the rebuild into the
    Hermitian tridiagonal pencils sum_d B_d e^{i d theta}, theta = 2 pi m / nu,
    of the modes m = 0 .. nu/2 (mode nu - m is the conjugate of mode m).
    """
    nu = disc.field.patch.nu_count
    if not _spans_period(disc.field.patch, domain) or nu < 3 or len(sparse.idx) % nu:
        return None
    op_bands = _circulant_bands(sparse.op, nu)
    mass_bands = _circulant_bands(sparse.mass, nu) if op_bands else None
    return _ModePencil(nu, *op_bands, *mass_bands, solved={}) if mass_bands else None


def _circulant_bands(a: sp.csc_matrix, nu: int):
    """(diagonals, superdiagonals, gap) of the mode matrices of ``a`` on nu
    u-rows, or None when ``a`` is not within MODE_GAP_REL of its rebuild.

    Entry a[(i, j), (i + d, j + e)] is held as s[i, j, d + 1, e + 1], d mod
    nu; ``a`` coupling nodes further apart is not split.  The rebuild repeats
    the blocks B_0 and B_1 of u-row 0 with B_{-1} = B_1^T, and the gap is the
    infinity norm of ``a`` minus it.  Mode m, theta = 2 pi m / nu, has the
    real diagonal and the superdiagonal of sum_d B_d e^{i d theta} as column
    m of arrays (p, modes) and (p - 1, modes); the phases of modes 0 and
    nu/2 are exactly 1 and -1.
    """
    p = a.shape[0] // nu
    c = a.tocoo()
    i, j = np.divmod(c.row, p)
    ic, jc = np.divmod(c.col, p)
    d, e = (ic - i + 1) % nu, jc - j + 1
    if np.any(d > 2) or np.any((e < 0) | (e > 2)):
        return None
    s = np.zeros((nu, p, 3, 3))
    s[i, j, d, e] = c.data
    r = s[0].copy()
    r[:, 0] = 0.0
    r[:, 0, 1] = s[0, :, 2, 1]
    r[1:, 0, 0] = s[0, :-1, 2, 2]
    r[:-1, 0, 2] = s[0, 1:, 2, 0]
    gap = np.abs(s - r)
    if gap.max() > MODE_GAP_REL * np.abs(s).max():
        return None
    m = np.arange(nu // 2 + 1)
    phase = np.exp(2j * np.pi * m / nu)
    phase[2 * m == nu] = -1.0
    diag = r[:, 1, 1, None] + 2.0 * phase.real * r[:, 2, 1, None]
    off = r[:-1, 1, 2, None] + phase * r[:-1, 2, 2, None] + phase.conj() * r[:-1, 0, 2, None]
    return diag, off, float(gap.sum(axis=(2, 3)).max())


@dataclass
class _ModePencil:
    """Per-mode tridiagonal bands of a block-circulant pencil
    (:func:`_mode_pencil`), the infinity norms of operator and mass minus
    their rebuild, and the modes solved so far."""
    nu: int
    diag_a: np.ndarray
    off_a: np.ndarray
    gap_a: float
    diag_m: np.ndarray
    off_m: np.ndarray
    gap_m: float
    solved: dict               # mode -> (eigenvalues, eigenvectors), filled by lowest

    @property
    def weights(self) -> np.ndarray:
        """Eigenvalue multiplicity per mode: 0 < m < nu/2 stands for m and nu - m."""
        m = np.arange(self.diag_a.shape[1])
        return np.where((m == 0) | (2 * m == self.nu), 1, 2)

    def counts(self, sigma: float) -> np.ndarray:
        """Per mode, the number of eigenvalues below ``sigma``, or -1 where
        it is not trusted.

        It is the number of negative pivots of the LDL^H factorization of
        the mode's tridiagonal A - sigma M (a Sturm count, by Sylvester's
        law), all modes at once; a pivot is not trusted by the rule of
        :func:`_symmetric_factor`.
        """
        a = self.diag_a - sigma * self.diag_m
        b = np.abs(self.off_a - sigma * self.off_m)
        edge = np.zeros((1, a.shape[1]))
        tiny = ZERO_EIG_REL * np.maximum(
            np.abs(a), np.maximum(np.vstack([edge, b]), np.vstack([b, edge])))
        b2 = b * b
        negative = np.zeros(a.shape[1], dtype=np.int64)
        trusted = np.ones(a.shape[1], dtype=bool)
        pivot = a[0]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for j in range(len(a)):
                if j:
                    pivot = a[j] - b2[j - 1] / pivot
                negative += pivot < 0
                trusted &= np.abs(pivot) > tiny[j]
        return np.where(trusted, negative, -1)

    def count(self, sigma: float) -> int | None:
        """Number of eigenvalues below ``sigma``, or None when a mode's count
        is not trusted."""
        c = self.counts(sigma)
        return None if np.any(c < 0) else int(self.weights @ c)

    def lowest(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The k lowest eigenpairs.  A mode is solved densely only while it
        holds an eigenvalue below the k-th lowest of the modes solved so far
        (or its count there is not trusted), the mode with the most first."""
        w, p = self.weights, self.diag_a.shape[0]
        unsolved = [m for m in range(len(w)) if m not in self.solved]
        while True:
            if p * sum(w[m] for m in self.solved) < k:
                m = unsolved[0]
            else:
                vals, keys = self._window(k)
                c = self.counts(vals[-1])
                todo = [m for m in unsolved if c[m]]
                if not todo:
                    return vals, self._vectors(*keys)
                m = max(todo, key=c.__getitem__)
            self._solve(m)
            unsolved.remove(m)

    def _solve(self, m: int) -> None:
        # complex for modes 0 and nu/2 as well, whose matrices are real: the
        # vectors come out real, and no second LAPACK solver is paged in
        self.solved[m] = sla.eigh(*(
            np.diag(diag[:, m]) + np.diag(off[:, m], 1) + np.diag(off[:, m].conj(), -1)
            for diag, off in ((self.diag_a, self.off_a), (self.diag_m, self.off_m))))

    def _window(self, k: int):
        """The k lowest solved eigenvalues, counted with multiplicity, and
        their (mode, part, index): part 0 is the real and part 1 the
        imaginary part of the lifted mode vector."""
        w = self.weights
        rows = [(vals, np.full(len(vals), m), np.full(len(vals), part), np.arange(len(vals)))
                for m, (vals, _) in sorted(self.solved.items()) for part in range(w[m])]
        vals, mode, part, index = (np.concatenate(col) for col in zip(*rows))
        order = np.lexsort((index, part, mode, vals))[:k]
        return vals[order], (mode[order], part[order], index[order])

    def _vectors(self, mode, part, index) -> np.ndarray:
        """Real, mass-orthonormal eigenvectors on the free nodes: the mode
        vector y lifted to u-row i as e^{i theta i} y, scaled by sqrt(1/nu)
        for modes 0 and nu/2 (whose y and lift are real) and by sqrt(2/nu)
        otherwise."""
        nu, p, w = self.nu, self.diag_a.shape[0], self.weights
        out = np.empty((nu * p, len(mode)))
        rows = np.arange(nu)
        for m in np.unique(mode):
            sel = np.flatnonzero(mode == m)
            y = self.solved[m][1][:, index[sel]]
            lift = np.exp(2j * np.pi * ((m * rows) % nu) / nu) * np.sqrt(w[m] / nu)
            z = (lift[:, None, None] * y[None]).reshape(nu * p, -1)
            out[:, sel] = np.where(part[sel] == 0, z.real, z.imag)
        return out


def zero_threshold(vals: np.ndarray) -> float:
    """The eigensolver's zero threshold: ZERO_EIG_REL * max|lambda| (times 1
    for no eigenvalues).  An eigenvalue below minus it counts as negative."""
    return ZERO_EIG_REL * (float(np.max(np.abs(vals))) if len(vals) else 1.0)


def negative_count(vals: np.ndarray) -> int:
    return int(np.sum(vals < -zero_threshold(vals)))


def inertia(
    disc: JacobiDiscretization,
    domain: tuple[float, float, float, float] | None = None,
    shift: float = 0.0,
) -> int | None:
    """Number of eigenvalues below -shift of (stiffness - potential) x =
    lambda mass x on the domain's free nodes: the count of the sparse pencil
    at sigma = -shift, or None when it is not trusted.

    A window of the domain certified at sigma = 0 (``disc.certified``)
    holds every negative eigenvalue, so for a shift >= 0 with none of its
    values in [-shift, 0) its count c is the answer, read off the
    shift-invert factor as Grimes, Lewis and Simon do.  Otherwise the
    sparse pencil is factored at -shift, also where :func:`dirichlet_eigs`
    solves per Fourier mode, which records nothing, so it checks that path.
    """
    c, window = disc.certified.get(_domain_key(domain), (None, None))
    if c is not None and shift >= 0.0 and not np.any((window >= -shift) & (window < 0.0)):
        return c
    sparse = _SparsePencil(disc, domain)
    return sparse.count(-shift) if len(sparse.idx) else None


def _domain_key(domain) -> tuple | None:
    return None if domain is None else tuple(domain)


def _symmetric_factor(op: sp.csc_matrix, mass: sp.csc_matrix, sigma: float):
    """SuperLU of op - sigma mass (op itself when sigma is 0) in the
    symmetric minimum-degree order of A^T + A without pivoting, and its
    count of negative pivots: by Sylvester's law, the number of eigenvalues
    of op x = lambda mass x below sigma.

    Static pivoting has no stability guarantee, so (None, None) -- do not
    trust the factor -- comes back when the row permutation leaves the
    symmetric order, a pivot is exactly zero, or a pivot is below
    ZERO_EIG_REL times the largest entry of the row it eliminates.
    """
    a = op - sigma * mass if sigma else op
    try:
        lu = spla.splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError:  # exactly singular pivot
        return None, None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None, None
    pivots = lu.U.diagonal()
    row_max = _row_abs_max(a)[np.argsort(lu.perm_r)]
    if np.any(np.abs(pivots) <= ZERO_EIG_REL * row_max):
        return None, None
    return lu, int(np.sum(pivots < 0))


def _row_abs_max(a: sp.csc_matrix) -> np.ndarray:
    """Largest |entry| of each row of ``a`` (0 for an empty row), from its CSC arrays."""
    out = np.zeros(a.shape[0])
    np.maximum.at(out, a.indices, np.abs(a.data))
    return out


def guarded_negative_count(
    disc: JacobiDiscretization,
    k: int,
    domain: tuple[float, float, float, float] | None = None,
) -> int:
    """``negative_count(dirichlet_eigs(disc, k, domain)[0])``, from counts of
    eigenvalues below a shift whenever they provably give the same number.

    The eigensolver counts eigenvalues below -:func:`zero_threshold`.
    With m the lumped mass, the Jacobian-weighted P1 mass dominates m / 5
    (m / 4 for a constant weight), so rho = 5 max_i sum_j |A_ij| / m_i
    bounds the spectral radius and delta = ZERO_EIG_REL * rho is at least
    the threshold.  The counts are the pencil's, whose eigenvalues are
    within (Weyl) eta = (|dA| + rho |dM|) / (min m / 5) of the restricted
    operator's, dA and dM the pencil's gaps (0 on the sparse pencil; a
    Fourier-mode pencil counts its circulant rebuild).  When the counts
    below eta and below -delta - eta agree, no eigenvalue lies in
    [-delta, 0) and the count is the eigensolver's; otherwise the
    eigensolve decides.
    """
    sparse = _SparsePencil(disc, domain)
    idx = sparse.idx
    if len(idx):
        row_sum = np.asarray(abs(sparse.op).sum(axis=1)).reshape(-1)
        rho = 5.0 * float(np.max(row_sum / disc.lumped_mass[idx]))
        delta = ZERO_EIG_REL * rho
        pencil = _mode_pencil(disc, domain, sparse) or sparse
        eta = (pencil.gap_a + rho * pencil.gap_m) / (np.min(disc.lumped_mass[idx]) / 5.0)
        below = pencil.count(eta)
        if below is not None and below == pencil.count(-delta - eta):
            return below
    return negative_count(dirichlet_eigs(disc, k, domain=domain)[0])


def morse_index_exhaustion(
    patch: SurfacePatch,
    spec: IntegrandSpec,
    domains: list[tuple[float, float, float, float]],
    k: int = DEFAULT_EIG_COUNT,
    axes: tuple = DEFAULT_AXES,
    disc: JacobiDiscretization | None = None,
) -> SpectralReport:
    """Negative-eigenvalue counts over nested Dirichlet domains, on ``disc``
    when given and otherwise on a fresh assembly of the patch.

    The stabilized index is reported only when the last two domains agree;
    nothing is extrapolated beyond the computed exhaustion, and a list in
    which a domain repeats or leaves out part of the one before it is refused.
    """
    if len(domains) < 3:
        raise ValueError("need at least 3 nested domains")
    for a, b in zip(domains, domains[1:]):
        inside = b[0] <= a[0] and a[1] <= b[1] and b[2] <= a[2] and a[3] <= b[3]
        if not inside or list(a) == list(b):
            raise InvalidSpec(f"each domain must contain the one before it and differ "
                              f"from it, got {list(a)} then {list(b)}")
    if disc is None:
        disc = assemble(patch, spec)
    eigenvalues = [dirichlet_eigs(disc, k, domain=tuple(dom))[0] for dom in domains]
    counts = [negative_count(vals) for vals in eigenvalues]
    if any(b < a for a, b in zip(counts, counts[1:])):
        raise SolverFailure(
            f"negative counts {counts} not monotone along nested domains"
        )
    stabilized = counts[-1] if counts[-1] == counts[-2] else None
    residuals = {
        _axis_name(a): jacobi_field_residual(disc, a)["relative_residual"]
        for a in axes
    }
    return SpectralReport(
        domains=[tuple(d) for d in domains],
        eigenvalues=eigenvalues,
        morse_index=counts,
        stabilized_index=stabilized,
        jacobi_residuals=residuals,
    )


def _axis_name(axis) -> str:
    return "axis_" + ",".join(f"{c:g}" for c in axis)


def comparison_assembly(field: CurvatureField, lambda_gamma: float) -> JacobiDiscretization:
    """The scalar comparison operator: identity diffusion and the curvature
    potential (2 / lambda_gamma^2)(-K_gamma), lambda_gamma being the
    smallest weight eigenvalue."""
    weight = (2.0 / lambda_gamma**2) * (-field.k_gamma)
    return assemble(field.patch, field.spec, field=field, potential_weight=weight,
                    isotropic_diffusion=True)


def comparison_operator_counts(
    disc_cmp: JacobiDiscretization,
    domains: list[tuple[float, float, float, float]],
    morse_index: list[int],
    k: int = DEFAULT_EIG_COUNT,
) -> list[dict[str, int]]:
    """Per-domain negative counts of the Jacobi operator, ``morse_index``
    from :func:`morse_index_exhaustion` on the same domains, paired with
    those of the scalar comparison operator ``disc_cmp`` of
    :func:`comparison_assembly`.

    The comparison count dominates: every unstable direction of the full
    operator is one of the comparison operator.  Its counts come from
    inertia, guarded by a shift delta, with the eigensolve on ``k``
    eigenvalues as the fallback (:func:`guarded_negative_count`).
    """
    return [
        {"neg_L": a, "neg_Lgamma": guarded_negative_count(disc_cmp, k, domain=tuple(d))}
        for a, d in zip(morse_index, domains)
    ]


def jacobi_field_residual(disc: JacobiDiscretization, axis) -> dict[str, float]:
    """Weak residual on ``disc`` of the translation Jacobi field
    ``<nu, unit_vector(axis)>``.

    The normal component of a translation solves the second-variation
    equation exactly, so the mass-normalized residual on interior nodes
    measures pure discretization error and must shrink at second order.
    """
    phi = disc.field.normal.reshape(-1, 3) @ unit_vector(axis)
    r = disc.operator @ phi
    idx = np.flatnonzero(~disc.dirichlet_mask)
    rho = r[idx] / disc.lumped_mass[idx]
    m = disc.lumped_mass[idx]
    rho_norm = float(np.sqrt(np.sum(m * rho**2)))
    phi_norm = float(np.sqrt(np.sum(m * phi[idx] ** 2)))
    if phi_norm == 0.0:  # axis tangent to a flat patch: the field vanishes
        relative = 0.0 if rho_norm == 0.0 else float("inf")
    else:
        relative = rho_norm / phi_norm
    return {"relative_residual": relative}
