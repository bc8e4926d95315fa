"""Convex anisotropic integrands on the unit sphere.

An integrand assigns a positive weight ``gamma(nu)`` to unit normals.  All
geometry derives from the 1-homogeneous extension ``gamma_bar(x) =
|x| * gamma(x/|x|)``: its gradient is the Cahn-Hoffman map, its Hessian
restricted to a tangent plane is the curvature tensor of the weight, and
the image of the sphere under the gradient is the Wulff shape.

Three validated families are built in:

* ``constant(c)``          -- gamma = c, Wulff shape a round sphere.
* ``ellipsoid(a, b, c)``   -- gamma = sqrt(a^2 nu1^2 + b^2 nu2^2 + c^2 nu3^2),
                              Wulff shape the axis-aligned ellipsoid.
* ``spherical_harmonic(l, m, eps)`` -- gamma = 1 + eps * Y_l^m with the
                              real, unit-L2-normalized harmonic.

Every factory validates positivity and sampled convexity before returning;
all operations afterwards are pure functions of the immutable spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidSpec, NonConvexIntegrand, NonUnitNormal, ZeroVector
from .harmonics import solid_harmonic_jet

UNIT_TOL = 1e-12
CONVEXITY_MARGIN = 1e-6
VALIDATION_SAMPLES = 10_000
MAX_HARMONIC_DEGREE = 4
MAX_REFINEMENT = 7  # icosphere levels: 20 * 4^7 faces build in under a second


@dataclass(frozen=True)
class IntegrandSpec:
    """Validated anisotropic integrand (use the factory functions)."""

    family: str
    params: tuple[float, ...]

    def __post_init__(self):
        if not all(math.isfinite(p * p) for p in self.params):
            raise InvalidSpec(f"parameters {self.params} or their squares are not finite")

    def __str__(self) -> str:
        return format_integrand(self)


@dataclass(frozen=True)
class AnisotropyConstants:
    lambda_gamma: float
    Lambda_gamma: float
    c_gamma: float
    c_prime_gamma: float


# ---------------------------------------------------------------------------
# sampling and frames
# ---------------------------------------------------------------------------

def fibonacci_sphere(n: int) -> np.ndarray:
    """Deterministic quasi-uniform lattice of n points on the unit sphere."""
    if n < 1:
        raise ValueError("need at least one sample point")
    k = np.arange(n, dtype=np.float64)
    z = 1.0 - 2.0 * (k + 0.5) / n
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = math.pi * (3.0 - math.sqrt(5.0))
    phi = golden * k
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=-1)


def tangent_frame(normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic right-handed orthonormal frame (e1, e2) with e1 x e2 = nu.

    The seed axis is the coordinate direction least aligned with nu, which
    keeps the Gram-Schmidt step well conditioned everywhere.
    """
    nu = np.asarray(normals, dtype=np.float64)
    single = nu.ndim == 1
    nu = np.atleast_2d(nu)
    axis_idx = np.argmin(np.abs(nu), axis=-1)
    seed = np.zeros_like(nu)
    seed[np.arange(len(nu)), axis_idx] = 1.0
    e1 = seed - np.sum(seed * nu, axis=-1, keepdims=True) * nu
    e1 /= np.linalg.norm(e1, axis=-1, keepdims=True)
    e2 = np.cross(nu, e1)
    if single:
        return e1[0], e2[0]
    return e1, e2


def unit_vector(v) -> np.ndarray:
    """``v / |v|`` for a nonzero vector, rescaled first by the power of two
    that brings its largest entry into [0.5, 1).  That step is exact, so
    |v|^2 cannot overflow or underflow, and the result is bit for bit the
    plain quotient wherever that was finite."""
    v = np.asarray(v, dtype=np.float64)
    if not np.any(v):
        raise ZeroVector("cannot normalize the zero vector")
    v = np.ldexp(v, -np.frexp(np.max(np.abs(v)))[1])
    return v / np.linalg.norm(v)


def _require_unit(nu: np.ndarray) -> np.ndarray:
    nu = np.asarray(nu, dtype=np.float64)
    if nu.shape != (3,):
        raise ValueError("direction must be a 3-vector")
    if abs(np.linalg.norm(nu) - 1.0) > UNIT_TOL:
        raise NonUnitNormal(f"|nu| = {np.linalg.norm(nu):.17g} is not 1 within {UNIT_TOL}")
    return nu


# ---------------------------------------------------------------------------
# batched derivatives of the 1-homogeneous extension
# ---------------------------------------------------------------------------

def gamma_values(spec: IntegrandSpec, points: np.ndarray) -> np.ndarray:
    """gamma_bar at arbitrary nonzero points, shape (..., 3) -> (...)."""
    x = np.asarray(points, dtype=np.float64)
    r = np.linalg.norm(x, axis=-1)
    if spec.family == "constant":
        return spec.params[0] * r
    if spec.family == "ellipsoid":
        q = np.square(np.asarray(spec.params))
        return np.sqrt(np.einsum("...i,i,...i->...", x, q, x))
    l, m, eps = spec.params
    poly, _, _ = solid_harmonic_jet(int(l), int(m))
    return r + eps * r ** (1.0 - l) * poly.eval(x)


def gamma_gradients(spec: IntegrandSpec, points: np.ndarray) -> np.ndarray:
    """Gradient of gamma_bar; equals the Cahn-Hoffman map on unit vectors."""
    x = np.asarray(points, dtype=np.float64)
    r = np.linalg.norm(x, axis=-1, keepdims=True)
    if spec.family == "constant":
        return spec.params[0] * x / r
    if spec.family == "ellipsoid":
        q = np.square(np.asarray(spec.params))
        qx = x * q
        val = np.sqrt(np.einsum("...i,...i->...", x, qx))[..., None]
        return qx / val
    l, m, eps = spec.params
    poly, grad, _ = solid_harmonic_jet(int(l), int(m))
    pval = poly.eval(x)[..., None]
    g = np.stack([gp.eval(x) for gp in grad], axis=-1)
    return x / r + eps * ((1.0 - l) * r ** (-l - 1.0) * pval * x + r ** (1.0 - l) * g)


def gamma_hessians(spec: IntegrandSpec, points: np.ndarray) -> np.ndarray:
    """Hessian of gamma_bar, shape (..., 3) -> (..., 3, 3).

    Degree-1 homogeneity puts the radial direction in the kernel; the
    tangential block is the curvature tensor of the integrand.

    The result is entry-major, a view of a (3, 3, ...) buffer: the trailing
    axes are not contiguous, each entry plane ``h[..., a, b]`` is.  Each upper
    entry is computed once and mirrored; values equal the broadcast formula bit for bit.
    """
    x = np.asarray(points, dtype=np.float64)
    buf = np.empty((3, 3) + x.shape[:-1])
    # r: the norm gamma_bar divides by, 0-d for one point so its powers are ufuncs
    if spec.family == "ellipsoid":
        q = np.square(np.asarray(spec.params))
        qx, qd = x * q, np.diag(q)
        r = np.asarray(np.sqrt(np.einsum("...i,...i->...", x, qx)))
    else:  # summed in np.linalg.norm's order, without its slow reduce over 3 entries
        r = np.asarray(np.sqrt(x[..., 0] ** 2 + x[..., 1] ** 2 + x[..., 2] ** 2))
    r3 = r**3
    if spec.family == "spherical_harmonic":
        l, m, eps = spec.params
        poly, grad, hess = solid_harmonic_jet(int(l), int(m))
        pval, g = poly.eval(x), [gp.eval(x) for gp in grad]
        c2 = (1.0 - l) * (-l - 1.0) * r ** (-l - 3.0) * pval
        c1, c0 = (1.0 - l) * r ** (-l - 1.0), r ** (1.0 - l)
    for a, b in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
        d = float(a == b)
        if spec.family == "ellipsoid":
            buf[a, b] = qd[a, b] / r - qx[..., a] * qx[..., b] / r3
        else:
            xx = x[..., a] * x[..., b]
            buf[a, b] = d / r - xx / r3
        if spec.family == "constant":
            buf[a, b] *= spec.params[0]
        elif spec.family == "spherical_harmonic":
            extra = c1 * (x[..., a] * g[b] + x[..., b] * g[a] + pval * d)
            buf[a, b] += eps * (c2 * xx + extra + c0 * hess[a][b].eval(x))
        buf[b, a] = buf[a, b]
    return np.moveaxis(buf, (0, 1), (-2, -1))


def tangential_curvature_tensor(
    spec: IntegrandSpec, normals: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """2x2 curvature tensor of gamma in the deterministic tangent frame.

    Returns (A, e1, e2) with A[..., a, b] = <e_a, D^2 gamma_bar(nu) e_b>.
    """
    nu = np.asarray(normals, dtype=np.float64)
    e1, e2 = tangent_frame(nu)
    return restrict2(gamma_hessians(spec, nu), e1, e2), e1, e2


def sym2(a, b, d) -> np.ndarray:
    """The symmetric 2x2 stack [[a, b], [b, d]], shape (..., 2, 2)."""
    return np.stack([np.stack([a, b], axis=-1), np.stack([b, d], axis=-1)], axis=-2)


def restrict2(h: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The 3x3 forms h restricted to the legs (x, y): [[x.h.x, x.h.y], [x.h.y, y.h.y]]."""
    def form(p, q):
        return np.einsum("...i,...ij,...j->...", p, h, q)
    return sym2(form(x, x), form(x, y), form(y, y))


def sym2x2_eigenvalues(mats: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues (..., 2) of symmetric 2x2 matrices, closed form."""
    a, b, d = mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 1]
    mean = 0.5 * (a + d)
    dev = np.sqrt(np.maximum(0.0, (0.5 * (a - d)) ** 2 + b * b))
    return np.stack([mean - dev, mean + dev], axis=-1)


# ---------------------------------------------------------------------------
# spec-facing operations
# ---------------------------------------------------------------------------

def eval_gamma(spec: IntegrandSpec, nu) -> float:
    nu = _require_unit(nu)
    return float(gamma_values(spec, nu))


def gamma_bar_derivatives(spec: IntegrandSpec, x, order: int):
    """gamma_bar (order 0), its gradient (1) or Hessian (2) at a nonzero point."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (3,):
        raise ValueError("point must be a 3-vector")
    if np.linalg.norm(x) <= 1e-10:
        raise ZeroVector("gamma_bar derivatives need |x| > 1e-10")
    if order == 0:
        return float(gamma_values(spec, x))
    if order == 1:
        return gamma_gradients(spec, x)
    if order == 2:
        return gamma_hessians(spec, x)
    raise ValueError("order must be 0, 1 or 2")


def hessian_A_gamma(spec: IntegrandSpec, nu) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tangential curvature tensor at a unit normal, plus its frame (e1, e2)."""
    nu = _require_unit(nu)
    A, e1, e2 = tangential_curvature_tensor(spec, nu[None, :])
    return A[0], e1[0], e2[0]


def cahn_hoffman(spec: IntegrandSpec, nu) -> np.ndarray:
    """Position on the Wulff shape supported by the normal nu."""
    nu = _require_unit(nu)
    return gamma_gradients(spec, nu)


def anisotropy_constants(
    spec: IntegrandSpec,
    sample_count: int = VALIDATION_SAMPLES,
    extra_normals: np.ndarray | None = None,
) -> AnisotropyConstants:
    """Extremal tangential eigenvalues of the curvature tensor and the
    derived comparison constants.

    Sampling is the deterministic Fibonacci lattice; callers holding a
    concrete normal field may pass it as ``extra_normals`` so the discrete
    comparison inequalities see constants extremal over their own nodes.
    """
    if sample_count < 100:
        raise ValueError("sample_count must be at least 100")
    normals = fibonacci_sphere(sample_count)
    if extra_normals is not None:
        extra = np.asarray(extra_normals, dtype=np.float64).reshape(-1, 3)
        norms = np.linalg.norm(extra, axis=-1, keepdims=True)
        if np.any(norms == 0.0):
            raise ZeroVector("extra_normals has a row too close to zero to normalize")
        extra = extra / norms
        normals = np.concatenate([normals, extra], axis=0)
    A, _, _ = tangential_curvature_tensor(spec, normals)
    eigs = sym2x2_eigenvalues(A)
    lam = float(np.min(eigs))
    Lam = float(np.max(eigs))
    if not lam > 1e-10:
        raise NonConvexIntegrand(
            f"minimum tangential eigenvalue {lam:.3e} is not positive"
        )
    ratio = Lam / lam
    c_gamma = ratio**2 * (ratio + 1.0 / ratio)
    return AnisotropyConstants(
        lambda_gamma=lam,
        Lambda_gamma=Lam,
        c_gamma=c_gamma,
        c_prime_gamma=2.0 * c_gamma / lam**2,
    )


# ---------------------------------------------------------------------------
# factories and validation
# ---------------------------------------------------------------------------

def _validate(spec: IntegrandSpec) -> IntegrandSpec:
    sample = fibonacci_sphere(VALIDATION_SAMPLES)
    vals = gamma_values(spec, sample)
    if not np.min(vals) > 0.0:
        raise NonConvexIntegrand(
            f"gamma takes non-positive value {np.min(vals):.3e} on the validation sample"
        )
    A, _, _ = tangential_curvature_tensor(spec, sample)
    min_eig = float(np.min(sym2x2_eigenvalues(A)))
    if not min_eig >= CONVEXITY_MARGIN:
        raise NonConvexIntegrand(
            f"sampled convexity margin violated: min tangential eigenvalue "
            f"{min_eig:.3e} < {CONVEXITY_MARGIN}"
        )
    return spec


def constant(c: float) -> IntegrandSpec:
    spec = IntegrandSpec("constant", (float(c),))
    if not c > 0.0:
        raise NonConvexIntegrand("constant integrand needs c > 0")
    return _validate(spec)


def ellipsoid(a: float, b: float, c: float) -> IntegrandSpec:
    spec = IntegrandSpec("ellipsoid", (float(a), float(b), float(c)))
    if min(a, b, c) <= 0.0:
        raise NonConvexIntegrand("ellipsoid semi-axes must be positive")
    return _validate(spec)


@lru_cache(maxsize=None)
def _harmonic_eps_cap(l: int, m: int) -> float:
    """Largest |eps| keeping 1 + eps*Y positive and convex, with margin.

    Both bounds come from the same deterministic lattice used for
    validation: positivity caps |eps| * max|Y| and convexity caps
    |eps| * (spectral radius of the harmonic's tangential Hessian block).
    """
    sample = fibonacci_sphere(VALIDATION_SAMPLES)
    probe = IntegrandSpec("spherical_harmonic", (float(l), float(m), 1.0))
    poly, _, _ = solid_harmonic_jet(l, m)
    y_max = float(np.max(np.abs(poly.eval(sample))))
    base = gamma_hessians(IntegrandSpec("constant", (1.0,)), sample)
    full = gamma_hessians(probe, sample)
    B = full - base  # tangential Hessian contribution of the harmonic alone
    b_max = float(np.max(np.abs(sym2x2_eigenvalues(restrict2(B, *tangent_frame(sample))))))
    caps = [0.95 / y_max if y_max > 0 else math.inf]
    if b_max > 0:
        caps.append(0.95 / b_max)
    return min(caps)


def spherical_harmonic(l: int, m: int, eps: float) -> IntegrandSpec:
    if not isinstance(l, int) or l < 1:
        raise ValueError("harmonic degree l must be an integer >= 1")
    if l > MAX_HARMONIC_DEGREE:
        raise ValueError(
            f"harmonic degree capped at {MAX_HARMONIC_DEGREE}; convexity caps "
            "are only certified up to there"
        )
    if abs(m) > l:
        raise ValueError("harmonic order must satisfy |m| <= l")
    spec = IntegrandSpec("spherical_harmonic", (float(l), float(m), float(eps)))
    cap = _harmonic_eps_cap(l, m)
    if not abs(eps) <= cap:
        raise NonConvexIntegrand(
            f"|eps| = {abs(eps):.4g} exceeds the convexity cap {cap:.4g} for (l={l}, m={m})"
        )
    return _validate(spec)


def parse_integrand(text: str) -> IntegrandSpec:
    """Parse the CLI grammar: const:<c> | ellipsoid:<a>,<b>,<c> | sh:<l>,<m>,<eps>."""
    head, _, tail = text.strip().partition(":")
    try:
        if head == "const":
            return constant(float(tail))
        if head == "ellipsoid":
            a, b, c = (float(t) for t in tail.split(","))
            return ellipsoid(a, b, c)
        if head == "sh":
            l, m, eps = tail.split(",")
            return spherical_harmonic(int(l), int(m), float(eps))
    except ValueError as exc:
        raise InvalidSpec(f"cannot parse integrand spec {text!r}: {exc}") from exc
    raise InvalidSpec(f"unknown integrand family in {text!r}")


def format_integrand(spec: IntegrandSpec) -> str:
    if spec.family == "constant":
        return f"const:{spec.params[0]:g}"
    if spec.family == "ellipsoid":
        return "ellipsoid:" + ",".join(f"{p:g}" for p in spec.params)
    l, m, eps = spec.params
    return f"sh:{int(l)},{int(m)},{eps:g}"


# ---------------------------------------------------------------------------
# Wulff shape meshing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WulffMesh:
    vertices: np.ndarray        # (n, 3) image points of the gradient map
    source_normals: np.ndarray  # (n, 3) unit normals the vertices came from
    faces: np.ndarray           # (t, 3) outward-oriented triangles
    area: float


@lru_cache(maxsize=None)
def icosphere(refinement: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit icosphere with 20 * 4^refinement faces, deterministic ordering."""
    if not 0 <= refinement <= MAX_REFINEMENT:
        raise InvalidSpec(f"refinement must lie in [0, {MAX_REFINEMENT}], got {refinement}")
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
            (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
            (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
        ],
        dtype=np.float64,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array([
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ], dtype=np.int64)
    for _ in range(refinement):
        # the edges ab, bc, ca of every face; new midpoints are numbered in
        # the order their edges are first met
        edges = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        _, first, inverse = np.unique(np.sort(edges, axis=1), axis=0,
                                      return_index=True, return_inverse=True)
        order = np.argsort(first)
        mid = verts[edges[first[order]]].sum(axis=1)
        # row dot products, rounded as the 1-D np.linalg.norm of each row
        mid /= np.sqrt(mid[:, None, :] @ mid[:, :, None])[:, 0]
        ab, bc, ca = (len(verts) + np.argsort(order)[inverse.reshape(-1)]).reshape(-1, 3).T
        a, b, c = faces.T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
        verts = np.concatenate([verts, mid])
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    return verts, faces


def wulff_mesh(spec: IntegrandSpec, refinement: int) -> WulffMesh:
    """Image mesh of the gradient map over a subdivided icosphere.

    Convexity of the validated spec guarantees injectivity of the map, so
    the image triangulation stays embedded and outward-oriented.
    """
    normals, faces = icosphere(refinement)
    verts = gamma_gradients(spec, normals)
    tri = verts[faces]
    cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    area = float(0.5 * np.sum(np.linalg.norm(cross, axis=1)))
    # outward orientation: face normal must point away from the origin,
    # which is interior to the Wulff body since gamma > 0
    centroid = tri.mean(axis=1)
    if not np.min(np.einsum("ij,ij->i", cross, centroid)) > 0.0:
        raise NonConvexIntegrand("Wulff mesh orientation check failed")
    return WulffMesh(vertices=verts, source_normals=normals, faces=faces, area=area)
