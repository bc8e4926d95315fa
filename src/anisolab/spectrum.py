"""Discretization and spectra of the second-variation (Jacobi) operator.

P1 finite elements on the triangulated parameter grid.  The operator is in
divergence form, so weak assembly keeps the matrices exactly symmetric and
the generalized eigenproblem real -- the stability-counting logic depends
on that.  Element coefficients (weight tensor and curvature pairing) are
evaluated once per triangle at the barycenter; the basis products are
integrated exactly.

Dirichlet problems on nested sub-rectangles restrict to nested interior
node sets of one fixed grid, which makes the count of negative eigenvalues
provably monotone along an exhaustion.

Where only a count is needed (the comparison operator's), it is the
inertia of a symmetric factorization: the mass is SPD, so by Sylvester's
law negative eigenvalues are negative pivots.  A second factorization at a
small shift delta guards the eigensolver's zero threshold, and the
eigensolve is the fallback.

The eigensolve is shift-invert Lanczos (ARPACK) with that same symmetric
factorization of A - sigma M as its operator, and the factorization's
inertia proves sigma below the spectrum before any iteration (Ericsson and
Ruhe, Math. Comp. 35, 1980).  One factorization serves every widening of
the eigenvalue window.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InvalidSpec, SolverFailure
from .integrand import IntegrandSpec, gamma_hessians, restrict2, sym2, unit_vector
from .objio import grid_faces
from .surface import CurvatureField, SurfacePatch, curvature_field

ZERO_EIG_REL = 1e-8
DEFAULT_EIG_COUNT = 12
DEFAULT_AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))  # translation fields
DENSE_CUTOFF = 400
SHIFT_TRIES = 8  # factorizations spent looking for a shift below the spectrum

# int_T lambda_i lambda_j lambda_k / area: 1/10 on the diagonal triple,
# 1/30 with one repeated index, 1/60 all distinct
_P1_CUBIC = np.full((3, 3, 3), 1.0 / 60.0)
for _i in range(3):
    _P1_CUBIC[_i, _i, :] = 1.0 / 30.0
    _P1_CUBIC[_i, :, _i] = 1.0 / 30.0
    _P1_CUBIC[:, _i, _i] = 1.0 / 30.0
    _P1_CUBIC[_i, _i, _i] = 1.0 / 10.0


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
    # every cell is cut into the triangles (a, b, c) and (a, c, d) in turn,
    # so the local points are those two tiles scaled by the spacings
    tiles = np.array([[[0, 0], [1, 0], [1, 1]], [[0, 0], [1, 1], [0, 1]]])
    pts = np.tile(tiles, (len(faces) // 2, 1, 1)) * np.array([patch.hu, patch.hv])
    p0, p1, p2 = pts[:, 0], pts[:, 1], pts[:, 2]
    d1, d2 = p1 - p0, p2 - p0
    signed2 = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]  # twice the signed area
    area = 0.5 * np.abs(signed2)
    edges = np.stack([p2 - p1, p0 - p2, p1 - p0], axis=1)
    perp = np.stack([-edges[..., 1], edges[..., 0]], axis=-1)
    grads = perp / signed2[:, None, None]  # (t, 3, 2) P1 gradients

    # barycenter jets of the chart and the pulled-back coefficient tensors
    xu = patch.du.reshape(-1, 3)[faces].mean(axis=1)
    xv = patch.dv.reshape(-1, 3)[faces].mean(axis=1)
    raw = np.cross(xu, xv)
    jac = np.linalg.norm(raw, axis=1)
    nbar = patch.orientation * raw / jac[:, None]
    E = np.einsum("ti,ti->t", xu, xu)
    F = np.einsum("ti,ti->t", xu, xv)
    G = np.einsum("ti,ti->t", xv, xv)
    if isotropic_diffusion:
        amat = sym2(E, F, G)
    else:
        amat = restrict2(gamma_hessians(spec, nbar), xu, xv)
    det_g = E * G - F * F
    ginv = sym2(G / det_g, -F / det_g, E / det_g)
    coeff = np.einsum("tab,tbc,tcd->tad", ginv, amat, ginv) * jac[:, None, None]
    local_k = area[:, None, None] * np.einsum("tai,tij,tbj->tab", grads, coeff, grads)

    if potential_weight is None:
        qnode = field.aniso_pairing.reshape(-1)
    else:
        qnode = np.asarray(potential_weight, dtype=np.float64).reshape(-1)
    # exact integrals of P1-interpolated weights against basis products;
    # the curvature pairing varies too fast near curvature peaks for a
    # frozen one-point rule to keep the pointwise residual at quadratic order
    jnode = field.jacobian.reshape(-1)
    local_p = np.einsum("tk,ijk->tij", (qnode * jnode)[faces], _P1_CUBIC) * area[:, None, None]
    local_m = np.einsum("tk,ijk->tij", jnode[faces], _P1_CUBIC) * area[:, None, None]

    n = nu_ * nv_
    rows = np.repeat(faces, 3, axis=1).reshape(-1)
    cols = np.tile(faces, (1, 3)).reshape(-1)

    def build(local):
        m = sp.csr_matrix((local.reshape(-1), (rows, cols)), shape=(n, n))
        return 0.5 * (m + m.T)  # scrub floating-point asymmetry from summation order

    stiffness = build(local_k)
    potential = build(local_p)
    mass = build(local_m)
    return JacobiDiscretization(
        stiffness=stiffness,
        potential=potential,
        mass=mass,
        dirichlet_mask=patch.boundary_mask().reshape(-1),
        lumped_mass=np.asarray(mass.sum(axis=1)).reshape(-1),
        field=field,
    )


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
        if not (patch.periodic_u and u0 <= patch.domain[0] and u1 >= patch.domain[1]):
            inside &= (U > u0 + tol_u) & (U < u1 - tol_u)
        keep = keep & inside.reshape(-1)
    return np.flatnonzero(keep)


def _pencil(disc: JacobiDiscretization, domain):
    """Free node indices of ``domain``, with the operator and mass restricted to them."""
    idx = interior_indices(disc, domain)
    return idx, disc.operator[idx][:, idx].tocsc(), disc.mass[idx][:, idx].tocsc()


def dirichlet_eigs(
    disc: JacobiDiscretization,
    k: int,
    domain: tuple[float, float, float, float] | None = None,
    auto_extend: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lowest k eigenvalues of (stiffness - potential) x = lambda mass x.

    Sign convention: lambda equals the quadratic form per unit L2 norm, so
    negative eigenvalues are exactly the unstable directions.  Returns
    (eigenvalues, eigenvectors restricted to free nodes, free node indices).
    Auto-extends k while the top of the computed window is still negative so
    an instability count is never truncated.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    idx, op, mass = _pencil(disc, domain)
    n = len(idx)
    if n == 0:
        raise SolverFailure("Dirichlet domain contains no free nodes")
    k = min(k, n)
    qmax = float(np.max(disc.potential.diagonal()[idx] / mass.diagonal()))
    sigma = -max(qmax, 0.0) - 1.0
    opinv = None

    while True:
        dense = k >= n - 1 or n <= DENSE_CUTOFF
        if not dense and opinv is None:  # sigma stays put, so one factor serves every k
            sigma, opinv = _shift_below_spectrum(op, mass, sigma)
        try:
            if dense:
                vals, vecs = sla.eigh(op.toarray(), mass.toarray())
                vals, vecs = vals[:k], vecs[:, :k]
            else:
                rng = np.random.default_rng(0)
                vals, vecs = spla.eigsh(
                    op,
                    k=k,
                    M=mass,
                    sigma=sigma,
                    which="LM",
                    v0=rng.standard_normal(n),
                    tol=0,
                    OPinv=opinv,
                )
                order = np.argsort(vals)
                vals, vecs = vals[order], vecs[:, order]
        except Exception as exc:  # ARPACK and LAPACK failures surface loudly
            raise SolverFailure(f"eigensolve failed: {exc}") from exc
        if not auto_extend or len(vals) >= n or negative_count(vals) < len(vals):
            break
        k = min(2 * k, n)
    return vals, vecs, idx


def negative_count(vals: np.ndarray) -> int:
    scale = float(np.max(np.abs(vals))) if len(vals) else 1.0
    return int(np.sum(vals < -ZERO_EIG_REL * scale))


def inertia(
    disc: JacobiDiscretization,
    domain: tuple[float, float, float, float] | None = None,
    shift: float = 0.0,
) -> int | None:
    """Number of eigenvalues below -shift of (stiffness - potential) x =
    lambda mass x on the domain's free nodes, by Sylvester's law of inertia.

    The count is that of the negative pivots of P (A + shift M) P^T = L D L^T
    (:func:`_symmetric_factor`), or None when that factor is not trusted.
    """
    idx, op, mass = _pencil(disc, domain)
    if len(idx) == 0:
        return None
    return _symmetric_factor(op + shift * mass if shift else op)[1]


def _symmetric_factor(a: sp.csc_matrix):
    """SuperLU of the symmetric matrix ``a`` in the symmetric minimum-degree
    order of A^T + A without pivoting, and its count of negative pivots.

    Static pivoting has no stability guarantee, so (None, None) -- do not
    trust the factor -- comes back when the row permutation leaves the
    symmetric order, a pivot is exactly zero, or a pivot is below
    ZERO_EIG_REL times the largest entry of the row it eliminates.
    """
    try:
        lu = spla.splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError:  # exactly singular pivot
        return None, None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None, None
    pivots = lu.U.diagonal()
    row_max = abs(a).max(axis=1).toarray().reshape(-1)[np.argsort(lu.perm_r)]
    if np.any(np.abs(pivots) <= ZERO_EIG_REL * row_max):
        return None, None
    return lu, int(np.sum(pivots < 0))


def _shift_below_spectrum(op: sp.csc_matrix, mass: sp.csc_matrix, sigma: float):
    """A shift proved to lie below every eigenvalue of op x = lambda mass x,
    starting from ``sigma < 0``, and the inverse of op - shift mass.

    By Sylvester's law the shift is below the spectrum when the trusted
    symmetric factorization of op - shift mass has no negative pivot;
    otherwise the shift moves down fourfold and the matrix is refactored,
    at most SHIFT_TRIES times.
    """
    for _ in range(SHIFT_TRIES):
        lu, negatives = _symmetric_factor((op - sigma * mass).tocsc())
        if negatives == 0:
            n = op.shape[0]
            return sigma, spla.LinearOperator((n, n), matvec=lu.solve, dtype=np.float64)
        sigma *= 4.0
    raise SolverFailure(f"no shift below the spectrum found in {SHIFT_TRIES} factorizations")


def guarded_negative_count(
    disc: JacobiDiscretization,
    k: int,
    domain: tuple[float, float, float, float] | None = None,
) -> int:
    """``negative_count(dirichlet_eigs(disc, k, domain)[0])``, from inertia
    whenever that provably gives the same number.

    The eigensolver counts eigenvalues below -ZERO_EIG_REL * max|lambda|.
    With m the lumped mass, the Jacobian-weighted P1 mass dominates m / 5
    (m / 4 for a constant weight), so 5 max_i sum_j |A_ij| / m_i bounds the
    spectral radius and delta = ZERO_EIG_REL times that bound is at least
    the threshold.  When the inertia at shifts 0 and delta agree, no
    eigenvalue lies in [-delta, 0) and both counts are equal; otherwise the
    eigensolve decides.
    """
    idx, op, mass = _pencil(disc, domain)
    below_zero = _symmetric_factor(op)[1] if len(idx) else None
    if below_zero is not None:
        row_sum = np.asarray(abs(op).sum(axis=1)).reshape(-1)
        delta = ZERO_EIG_REL * 5.0 * float(np.max(row_sum / disc.lumped_mass[idx]))
        if below_zero == _symmetric_factor(op + delta * mass)[1]:
            return below_zero
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
