"""Real solid harmonics as explicit trivariate monomial tables.

The degree-l real solid harmonic is the homogeneous polynomial whose
restriction to the unit sphere is the real spherical harmonic with unit
L2 norm.  Keeping it as a monomial table makes gradients and Hessians
exact (term-wise differentiation), which the smooth integrand machinery
relies on.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


class MonomialPoly:
    """Sparse trivariate polynomial, terms keyed by (i, j, k) exponents."""

    __slots__ = ("terms", "_exps", "_coeffs")

    def __init__(self, terms: dict[tuple[int, int, int], float]):
        self.terms = {e: float(c) for e, c in terms.items() if c != 0.0}
        if self.terms:
            items = sorted(self.terms.items())
            self._exps = np.array([e for e, _ in items], dtype=np.int64)
            self._coeffs = np.array([c for _, c in items], dtype=np.float64)
        else:
            self._exps = np.zeros((0, 3), dtype=np.int64)
            self._coeffs = np.zeros(0, dtype=np.float64)

    def diff(self, axis: int) -> "MonomialPoly":
        out: dict[tuple[int, int, int], float] = {}
        for exps, c in self.terms.items():
            p = exps[axis]
            if p == 0:
                continue
            new = list(exps)
            new[axis] = p - 1
            key = tuple(new)
            out[key] = out.get(key, 0.0) + c * p
        return MonomialPoly(out)

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at points of shape (..., 3)."""
        pts = np.asarray(points, dtype=np.float64)
        out = np.zeros(pts.shape[:-1], dtype=np.float64)
        x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
        for (i, j, k), c in zip(self._exps, self._coeffs):
            term = np.full(out.shape, c)
            if i:
                term = term * x**int(i)
            if j:
                term = term * y**int(j)
            if k:
                term = term * z**int(k)
            out += term
        return out


def _mul(a: dict, b: dict) -> dict:
    out: dict[tuple[int, int, int], Fraction] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return out


def _r2_power(k: int) -> dict:
    """(x^2 + y^2 + z^2)^k as exact monomials."""
    out = {(0, 0, 0): Fraction(1)}
    base = {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(1), (0, 0, 2): Fraction(1)}
    for _ in range(k):
        out = _mul(out, base)
    return out


def _sector(m: int) -> dict:
    """Re (x + iy)^m for m >= 0, Im (x + iy)^|m| for m < 0."""
    am = abs(m)
    # in sum_j C(|m|, j) x^(|m|-j) (iy)^j, i^j is real for even j and imaginary
    # for odd j, with sign (-1)^(j // 2) either way
    return {(am - j, j, 0): Fraction((-1) ** (j // 2) * math.comb(am, j))
            for j in range(am + 1) if j % 2 == (m < 0)}


@lru_cache(maxsize=None)
def real_solid_harmonic(l: int, m: int) -> MonomialPoly:
    """Homogeneous degree-l polynomial restricting to the unit-L2 real
    spherical harmonic of order (l, m) on the sphere."""
    if l < 0 or abs(m) > l:
        raise ValueError(f"invalid spherical harmonic order (l={l}, m={m})")
    am = abs(m)
    # Legendre-type factor: sum_k g_k * r^(2k) * z^(l-2k-|m|)
    poly: dict[tuple[int, int, int], Fraction] = {}
    for k in range((l - am) // 2 + 1):
        g = (
            Fraction((-1) ** k, 2**l)
            * math.comb(l, k)
            * math.comb(2 * l - 2 * k, l)
            * Fraction(math.factorial(l - 2 * k), math.factorial(l - 2 * k - am))
        )
        zpow = {(0, 0, l - 2 * k - am): g}
        for e, c in _mul(_r2_power(k), zpow).items():
            poly[e] = poly.get(e, Fraction(0)) + c
    poly = _mul(poly, _sector(m))
    norm = math.sqrt((2 * l + 1) / (4.0 * math.pi))
    if m != 0:
        norm *= math.sqrt(2.0 * math.factorial(l - am) / math.factorial(l + am))
    return MonomialPoly({e: float(c) * norm for e, c in poly.items()})


@lru_cache(maxsize=None)
def solid_harmonic_jet(l: int, m: int):
    """Polynomial, its gradient (3 polys) and Hessian (3x3 polys)."""
    p = real_solid_harmonic(l, m)
    grad = tuple(p.diff(a) for a in range(3))
    hess = tuple(tuple(grad[a].diff(b) for b in range(3)) for a in range(3))
    return p, grad, hess
