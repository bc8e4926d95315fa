"""Parametric surface patches and their anisotropic curvature fields.

A patch is a chart on a rectangle sampled on a structured grid, carrying
first and second derivative fields (analytic for the built-in fixtures,
finite-difference for tabulated charts such as lifted graph solutions).
Everything downstream -- curvature tensors, energies, Jacobi assembly,
Gauss-map analysis -- works off the node arrays stored here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from numbers import Integral
from typing import Callable

import numpy as np

from .errors import (AnisolabError, BoundaryNotFixed, DegenerateImmersion, SingularShear,
                     UnknownFixture)
from .integrand import (IntegrandSpec, gamma_hessians, gamma_values, restrict2,
                        sym2x2_eigenvalues, trace_a_s2)

IMMERSION_TOL = 1e-10


@dataclass
class SurfacePatch:
    name: str
    domain: tuple[float, float, float, float]  # (u0, u1, v0, v1)
    shape: tuple[int, int]                     # (nu, nv) node counts
    position: np.ndarray                       # (nu, nv, 3)
    du: np.ndarray
    dv: np.ndarray
    duu: np.ndarray
    duv: np.ndarray
    dvv: np.ndarray
    orientation: int = 1
    periodic_u: bool = False
    jet_fn: Callable | None = field(default=None, repr=False, compare=False)
    complete: bool = False  # a chart of a complete surface, not a bounded piece

    @property
    def nu_count(self) -> int:
        return self.shape[0]

    @property
    def nv_count(self) -> int:
        return self.shape[1]

    @property
    def hu(self) -> float:
        u0, u1, _, _ = self.domain
        n = self.nu_count if self.periodic_u else self.nu_count - 1
        return (u1 - u0) / n

    @property
    def hv(self) -> float:
        _, _, v0, v1 = self.domain
        return (v1 - v0) / (self.nv_count - 1)

    def u_samples(self) -> np.ndarray:
        u0, u1, _, _ = self.domain
        if self.periodic_u:
            return u0 + self.hu * np.arange(self.nu_count)
        return np.linspace(u0, u1, self.nu_count)

    def v_samples(self) -> np.ndarray:
        _, _, v0, v1 = self.domain
        return np.linspace(v0, v1, self.nv_count)

    def boundary_mask(self) -> np.ndarray:
        """Nodes on the patch boundary (the u-seam of a periodic chart is not one)."""
        mask = np.zeros(self.shape, dtype=bool)
        mask[:, 0] = True
        mask[:, -1] = True
        if not self.periodic_u:
            mask[0, :] = True
            mask[-1, :] = True
        return mask

    def param_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Composite trapezoid weights per axis (plain sums on the periodic axis)."""
        wu = np.full(self.nu_count, self.hu)
        if not self.periodic_u:
            wu[0] *= 0.5
            wu[-1] *= 0.5
        wv = np.full(self.nv_count, self.hv)
        wv[0] *= 0.5
        wv[-1] *= 0.5
        return wu, wv

    def normals(self) -> tuple[np.ndarray, np.ndarray]:
        """Unit normal field and the immersion Jacobian |X_u x X_v|."""
        with np.errstate(over="ignore", invalid="ignore"):
            raw = np.cross(self.du, self.dv)
            jac = np.linalg.norm(raw, axis=-1)
        if not np.all(np.isfinite(jac)):
            raise DegenerateImmersion("|X_u x X_v| is not finite at some node")
        if np.min(jac) <= IMMERSION_TOL:
            raise DegenerateImmersion(
                f"|X_u x X_v| = {np.min(jac):.3e} at some node; not an immersion"
            )
        return self.orientation * raw / jac[..., None], jac

    def normal_at(self, uv: np.ndarray) -> np.ndarray:
        """Unit normals at arbitrary parameter points (analytic when possible)."""
        uv = np.atleast_2d(np.asarray(uv, dtype=np.float64))
        if self.jet_fn is not None:
            jets = self.jet_fn(uv[:, 0], uv[:, 1])
            raw = np.cross(jets["xu"], jets["xv"])
            return self.orientation * raw / np.linalg.norm(raw, axis=-1, keepdims=True)
        out = bilinear(self, self.normals()[0], uv)
        return out / np.linalg.norm(out, axis=-1, keepdims=True)


def bilinear(patch: SurfacePatch, values: np.ndarray, uv: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of per-node scalars or vectors at parameter points."""
    u0, _, v0, _ = patch.domain
    nu, nv = patch.shape
    fu = (uv[:, 0] - u0) / patch.hu
    if patch.periodic_u:
        fu = np.mod(fu, nu)
        i0 = np.floor(fu).astype(int) % nu
        i1 = (i0 + 1) % nu
    else:
        fu = np.clip(fu, 0, nu - 1 - 1e-12)
        i0 = np.floor(fu).astype(int)
        i1 = np.minimum(i0 + 1, nu - 1)
    fv = np.clip((uv[:, 1] - v0) / patch.hv, 0, nv - 1 - 1e-12)
    j0 = np.floor(fv).astype(int)
    j1 = np.minimum(j0 + 1, nv - 1)
    # weights broadcast over the value axes of vector data
    su = (fu - np.floor(fu)).reshape(-1, *(1,) * (values.ndim - 2))
    sv = (fv - j0).reshape(su.shape)
    return (
        values[i0, j0] * (1 - su) * (1 - sv)
        + values[i1, j0] * su * (1 - sv)
        + values[i0, j1] * (1 - su) * sv
        + values[i1, j1] * su * sv
    )


def grid_d1(arr: np.ndarray, h: float, axis: int, periodic: bool) -> np.ndarray:
    """Second-order first derivative along a grid axis.

    Central differences inside, one-sided 3-point stencils at non-periodic
    edges (``np.gradient``), wrap-around on periodic axes.
    """
    a = np.asarray(arr, dtype=np.float64)
    if periodic:
        return (np.roll(a, -1, axis=axis) - np.roll(a, 1, axis=axis)) / (2 * h)
    return np.gradient(a, h, axis=axis, edge_order=2)


# ---------------------------------------------------------------------------
# curvature fields
# ---------------------------------------------------------------------------

@dataclass
class CurvatureField:
    """Per-node anisotropic curvature data in the right-handed tangent frame
    e1 = X_u / |X_u|, e2 = normal x e1; each symmetric 2x2 field is the
    triple of its (nu, nv) entry planes (m11, m12, m22)."""

    patch: SurfacePatch
    spec: IntegrandSpec
    normal: np.ndarray        # (nu, nv, 3)
    shape_op: tuple[np.ndarray, ...]  # (s11, s12, s22) of the shape operator S
    kappa1: np.ndarray        # principal curvatures, kappa1 <= kappa2
    kappa2: np.ndarray
    a_tensor: tuple[np.ndarray, ...]  # (a11, a12, a22) of the weight's curvature tensor A
    h_gamma: np.ndarray
    k_sigma: np.ndarray
    k_gamma: np.ndarray
    aniso_pairing: np.ndarray
    jacobian: np.ndarray
    area_weight: np.ndarray   # quadrature weight for integrals over the patch

    def curvature_scale(self) -> float:
        return float(np.max(np.maximum(np.abs(self.kappa1), np.abs(self.kappa2))))

    def abs_a_squared(self) -> np.ndarray:
        return self.kappa1**2 + self.kappa2**2

    def total_curvature(self) -> float:
        """Integral of (-K) over the patch."""
        return float(np.sum(-self.k_sigma * self.area_weight))

    def total_aniso_curvature(self) -> float:
        return float(np.sum(-self.k_gamma * self.area_weight))


def curvature_field(patch: SurfacePatch, spec: IntegrandSpec) -> CurvatureField:
    """Curvature data of ``patch`` against the weight ``spec`` at every node.

    All of it is plane-wise arithmetic on (nu, nv) arrays: the shape
    operator's entries in the frame e1, e2, the weight tensor A restricted
    to that frame by ``integrand.restrict2``, and tr(A S^2) by
    ``integrand.trace_a_s2`` from the entry planes of A and S.
    """
    normal, jac = patch.normals()
    wu, wv = patch.param_weights()
    with np.errstate(over="ignore"):  # refused below
        area_weight = wu[:, None] * wv[None, :] * jac
    if not np.all(np.isfinite(area_weight) & (area_weight >= np.finfo(float).tiny)):
        raise AnisolabError(f"quadrature weights at grid spacings hu = {patch.hu:.3g}, "
                            f"hv = {patch.hv:.3g} leave the floating-point range")
    xu, xv = patch.du, patch.dv
    E = np.einsum("...i,...i->...", xu, xu)
    F = np.einsum("...i,...i->...", xu, xv)
    G = np.einsum("...i,...i->...", xv, xv)
    L = np.einsum("...i,...i->...", patch.duu, normal)
    M = np.einsum("...i,...i->...", patch.duv, normal)
    N = np.einsum("...i,...i->...", patch.dvv, normal)

    e1 = xu / np.sqrt(E)[..., None]
    e2 = np.cross(normal, e1)
    # frame legs in the coordinate basis: e1 = c1u*Xu, e2 = c2u*Xu + c2v*Xv
    det_g = E * G - F * F
    c1u = 1.0 / np.sqrt(E)
    e2_dot_xv = np.einsum("...i,...i->...", e2, xv)
    c2v = e2_dot_xv * E / det_g
    c2u = -F * c2v / E
    s11 = c1u * c1u * L
    s12 = c1u * (c2u * L + c2v * M)
    s22 = c2u * c2u * L + 2 * c2u * c2v * M + c2v * c2v * N
    kappa1, kappa2 = sym2x2_eigenvalues(s11, s12, s22)
    a11, a12, a22 = restrict2(gamma_hessians(spec, normal), e1, e2)

    h_gamma = a11 * s11 + 2 * a12 * s12 + a22 * s22  # tr(A S)
    k_sigma = s11 * s22 - s12 * s12
    k_gamma = (a11 * a22 - a12 * a12) * k_sigma
    aniso_pairing = trace_a_s2((a11, a12, a22), (s11, s12, s22))  # tr(A S^2)

    return CurvatureField(
        patch=patch,
        spec=spec,
        normal=normal,
        shape_op=(s11, s12, s22),
        kappa1=kappa1,
        kappa2=kappa2,
        a_tensor=(a11, a12, a22),
        h_gamma=h_gamma,
        k_sigma=k_sigma,
        k_gamma=k_gamma,
        aniso_pairing=aniso_pairing,
        jacobian=jac,
        area_weight=area_weight,
    )


def anisotropic_energy(patch: SurfacePatch, spec: IntegrandSpec) -> float:
    """Quadrature of gamma(nu) against the surface area element."""
    normal, jac = patch.normals()
    wu, wv = patch.param_weights()
    return float(np.sum(gamma_values(spec, normal) * jac * wu[:, None] * wv[None, :]))


def first_variation_check(
    patch: SurfacePatch,
    spec: IntegrandSpec,
    u_field: np.ndarray,
    dt: float,
) -> dict:
    """Compare the centered energy derivative under a normal variation with
    the curvature pairing integral it must equal."""
    if not 1e-6 <= dt <= 1e-2:
        raise ValueError("dt must lie in [1e-6, 1e-2]")
    u_field = np.asarray(u_field, dtype=np.float64)
    if u_field.shape != patch.shape:
        raise ValueError("variation field must be sampled on the patch grid")
    bmask = patch.boundary_mask()
    worst = float(np.max(np.abs(u_field[bmask]))) if bmask.any() else 0.0
    if worst > 1e-12:
        raise BoundaryNotFixed(f"variation reaches {worst:.3e} on the boundary")

    fld = curvature_field(patch, spec)

    def energy_of(points: np.ndarray) -> float:
        """Energy of the moved chart, its tangents by finite differences."""
        return anisotropic_energy(replace(
            patch, du=grid_d1(points, patch.hu, 0, patch.periodic_u),
            dv=grid_d1(points, patch.hv, 1, False)), spec)

    offset = dt * u_field[..., None] * fld.normal
    numeric = (energy_of(patch.position + offset) - energy_of(patch.position - offset)) / (
        2.0 * dt
    )
    pairing = -float(np.sum(fld.h_gamma * u_field * fld.area_weight))
    return {
        "numeric_derivative": numeric,
        "minus_integral_Hu": pairing,
        "discrepancy": abs(numeric - pairing),
    }


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def _as_shape(grid) -> tuple[int, int]:
    nu, nv = (int(grid), int(grid)) if isinstance(grid, Integral) else map(int, grid)
    if min(nu, nv) < 3:  # the one-sided derivative stencils need three nodes
        raise ValueError(f"need at least 3 nodes per direction, got {nu}x{nv}")
    return (nu, nv)


def _build(name, jet_fn, domain, shape, periodic_u, orientation, complete) -> SurfacePatch:
    nu, nv = shape
    if periodic_u:
        u = domain[0] + (domain[1] - domain[0]) / nu * np.arange(nu)
    else:
        u = np.linspace(domain[0], domain[1], nu)
    v = np.linspace(domain[2], domain[3], nv)
    U, V = np.meshgrid(u, v, indexing="ij")
    jets = jet_fn(U, V)
    return SurfacePatch(
        name=name,
        domain=domain,
        shape=shape,
        position=jets["x"],
        du=jets["xu"],
        dv=jets["xv"],
        duu=jets["xuu"],
        duv=jets["xuv"],
        dvv=jets["xvv"],
        orientation=orientation,
        periodic_u=periodic_u,
        jet_fn=jet_fn,
        complete=complete,
    )


def _plane_jets(U, V):
    zero = np.zeros(U.shape + (3,))
    x = np.stack([U, V, np.zeros_like(U)], axis=-1)
    xu = np.zeros_like(x)
    xu[..., 0] = 1.0
    xv = np.zeros_like(x)
    xv[..., 1] = 1.0
    return {"x": x, "xu": xu, "xv": xv, "xuu": zero, "xuv": zero, "xvv": zero.copy()}


def _sphere_jets(U, V):
    su, cu = np.sin(U), np.cos(U)
    sv, cv = np.sin(V), np.cos(V)
    x = np.stack([sv * cu, sv * su, cv], axis=-1)
    xu = np.stack([-sv * su, sv * cu, np.zeros_like(U)], axis=-1)
    xv = np.stack([cv * cu, cv * su, -sv], axis=-1)
    xuu = np.stack([-sv * cu, -sv * su, np.zeros_like(U)], axis=-1)
    xuv = np.stack([-cv * su, cv * cu, np.zeros_like(U)], axis=-1)
    xvv = np.stack([-sv * cu, -sv * su, -cv], axis=-1)
    return {"x": x, "xu": xu, "xv": xv, "xuu": xuu, "xuv": xuv, "xvv": xvv}


def _catenoid_jets(U, V):
    su, cu = np.sin(U), np.cos(U)
    sv, cv = np.sinh(V), np.cosh(V)
    one = np.ones_like(U)
    zero = np.zeros_like(U)
    x = np.stack([cv * cu, cv * su, V], axis=-1)
    xu = np.stack([-cv * su, cv * cu, zero], axis=-1)
    xv = np.stack([sv * cu, sv * su, one], axis=-1)
    xuu = np.stack([-cv * cu, -cv * su, zero], axis=-1)
    xuv = np.stack([-sv * su, sv * cu, zero], axis=-1)
    xvv = np.stack([cv * cu, cv * su, zero], axis=-1)
    return {"x": x, "xu": xu, "xv": xv, "xuu": xuu, "xuv": xuv, "xvv": xvv}


def _enneper_jets(U, V):
    zero = np.zeros_like(U)
    x = np.stack(
        [U - U**3 / 3 + U * V**2, V - V**3 / 3 + U**2 * V, U**2 - V**2], axis=-1
    )
    xu = np.stack([1 - U**2 + V**2, 2 * U * V, 2 * U], axis=-1)
    xv = np.stack([2 * U * V, 1 - V**2 + U**2, -2 * V], axis=-1)
    xuu = np.stack([-2 * U, 2 * V, 2 * np.ones_like(U)], axis=-1)
    xuv = np.stack([2 * V, 2 * U, zero], axis=-1)
    xvv = np.stack([2 * U, -2 * V, -2 * np.ones_like(U)], axis=-1)
    return {"x": x, "xu": xu, "xv": xv, "xuu": xuu, "xuv": xuv, "xvv": xvv}


# every fixture's parameters with their defaults, in the order of the surface grammar
FIXTURE_PARAMS = {"plane": {"lu": 1.0, "lv": 1.0}, "sphere": {}, "catenoid": {"v_extent": 2.0},
                  "enneper": {"radius": 0.75},
                  "sheared_catenoid": {"shear": np.eye(3), "v_extent": 2.0}}


def fixture(name: str, grid=96, **params) -> SurfacePatch:
    """Build a registered fixture patch on the given grid.

    The fixtures and their parameters are those of ``FIXTURE_PARAMS``; each
    charts a complete surface (``complete`` is True).  The sheared catenoid
    is only a candidate critical surface; acceptance is decided downstream
    from its measured anisotropic mean curvature.
    """
    shape = _as_shape(grid)
    if name not in FIXTURE_PARAMS:
        raise UnknownFixture(f"no fixture named {name!r}")
    unknown = sorted(set(params) - set(FIXTURE_PARAMS[name]))
    if unknown:
        raise ValueError(f"unknown fixture parameters: {unknown}")
    p = {**FIXTURE_PARAMS[name], **params}
    if name == "plane":
        lu, lv = float(p["lu"]), float(p["lv"])
        if not (0.0 < lu < np.inf and 0.0 < lv < np.inf):
            raise ValueError("plane lu and lv must be finite and positive")
        return _build("plane", _plane_jets, (0.0, lu, 0.0, lv), shape, False, 1, True)
    if name == "sphere":
        domain = (0.0, 2 * np.pi, 0.02, np.pi - 0.02)  # a cap of 0.02 off each pole
        return _build("sphere", _sphere_jets, domain, shape, True, -1, True)
    if name == "enneper":
        R = float(p["radius"])
        if not 0.0 < R <= 1.5:
            raise ValueError("enneper radius must lie in (0, 1.5]")
        return _build("enneper", _enneper_jets, (-R, R, -R, R), shape, False, 1, True)
    if name == "sheared_catenoid":
        M = np.array(p["shear"], dtype=np.float64)
        if M.shape != (3, 3):
            raise ValueError("shear must be a 3x3 matrix")
        if not np.all(np.isfinite(M)):
            raise ValueError("shear entries must be finite")
        with np.errstate(over="ignore"):  # an overflowing chart is refused by normals()
            det = abs(np.linalg.det(M))
        if det < 1e-8:
            raise SingularShear(f"|det M| = {det:.3e}")
    V = float(p["v_extent"])
    if not 0.0 < V <= 4.0:
        raise ValueError("catenoid v_extent must lie in (0, 4]")
    if name == "catenoid":
        return _build("catenoid", _catenoid_jets, (0.0, 2 * np.pi, -V, V), shape, True, 1, True)

    def jets(U, Vv, _M=M):
        base = _catenoid_jets(U, Vv)
        return {k: np.einsum("ab,...b->...a", _M, arr) for k, arr in base.items()}

    return _build("sheared_catenoid", jets, (0.0, 2 * np.pi, -V, V), shape, True, 1, True)


def from_jet(
    name: str,
    jet_fn: Callable,
    domain: tuple[float, float, float, float],
    grid,
    periodic_u: bool = False,
    orientation: int = 1,
) -> SurfacePatch:
    """Wrap a user-supplied analytic jet function as a patch.  The patch is
    a bounded piece (``complete`` False); a caller whose chart is one of a
    complete surface says so with ``dataclasses.replace(patch, complete=True)``."""
    return _build(name, jet_fn, domain, _as_shape(grid), periodic_u, orientation, False)
