import math

import numpy as np
import pytest

from anisolab import integrand as ig
from anisolab.errors import InvalidSpec, NonConvexIntegrand, NonUnitNormal, ZeroVector
from anisolab.harmonics import solid_harmonic_jet

from conftest import stack2

E3 = np.array([0.0, 0.0, 1.0])


def y20(z: float) -> float:
    # unit-L2 real harmonic of degree 2, order 0, by its polynomial formula
    return math.sqrt(5.0 / (16.0 * math.pi)) * (3.0 * z * z - 1.0)


def unit_samples(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def all_families():
    return [
        ig.constant(1.0),
        ig.constant(2.0),
        ig.ellipsoid(1.0, 1.0, 2.0),
        ig.spherical_harmonic(2, 0, 0.1),
        ig.spherical_harmonic(3, 1, 0.05),
        ig.spherical_harmonic(4, -2, 0.03),
    ]


class TestEvalGamma:
    def test_constant(self):
        assert ig.eval_gamma(ig.constant(1.0), E3) == 1.0

    def test_ellipsoid_axis(self):
        assert ig.eval_gamma(ig.ellipsoid(1, 1, 2), E3) == pytest.approx(2.0, abs=1e-14)

    def test_spherical_harmonic_against_polynomial(self):
        spec = ig.spherical_harmonic(2, 0, 0.1)
        assert ig.eval_gamma(spec, E3) == pytest.approx(1.0 + 0.1 * y20(1.0), abs=1e-14)
        nu = np.array([0.6, 0.0, 0.8])
        assert ig.eval_gamma(spec, nu) == pytest.approx(1.0 + 0.1 * y20(0.8), abs=1e-13)

    def test_rejects_non_unit(self):
        with pytest.raises(NonUnitNormal):
            ig.eval_gamma(ig.constant(1.0), (0.0, 0.0, 1.01))


class TestGammaBarDerivatives:
    def test_constant_order0(self):
        assert ig.gamma_bar_derivatives(ig.constant(1.0), (0, 0, 2.0), 0) == 2.0

    def test_constant_hessian_is_tangent_projector(self):
        h = ig.gamma_bar_derivatives(ig.constant(1.0), E3, 2)
        assert np.allclose(h, np.diag([1.0, 1.0, 0.0]), atol=1e-14)

    def test_ellipsoid_345(self):
        val = ig.gamma_bar_derivatives(ig.ellipsoid(1, 1, 2), (3.0, 4.0, 0.0), 0)
        assert val == pytest.approx(5.0, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            ig.gamma_bar_derivatives(ig.constant(1.0), (0.0, 0.0, 1e-12), 1)

    def test_matches_eval_gamma_on_unit_vectors(self, rng):
        for spec in all_families():
            for nu in unit_samples(rng, 10):
                assert ig.gamma_bar_derivatives(spec, nu, 0) == ig.eval_gamma(spec, nu)

    def test_homogeneity_kernel(self, rng):
        # degree-1 homogeneity: the Hessian kills the radial direction
        for spec in all_families():
            nus = unit_samples(rng, 300)
            h = ig.gamma_hessians(spec, nus)
            kerr = np.max(np.abs(np.einsum("nij,nj->ni", h, nus)))
            assert kerr < 1e-8


class TestHessianAGamma:
    def test_constant_identity(self, rng):
        for nu in unit_samples(rng, 5):
            a, _, _ = ig.hessian_A_gamma(ig.constant(1.0), nu)
            assert np.allclose(a, np.eye(2), atol=1e-14)
        for nu in unit_samples(rng, 5):
            a, _, _ = ig.hessian_A_gamma(ig.constant(2.0), nu)
            assert np.allclose(a, 2 * np.eye(2), atol=1e-14)

    def test_against_finite_differences(self, rng):
        # central differences of the analytic gradient, step 1e-5
        h = 1e-5
        for spec in all_families():
            nu = np.array([1.0, 0.0, 0.0]) if spec.family == "ellipsoid" else unit_samples(rng, 1)[0]
            hfd = np.zeros((3, 3))
            for j in range(3):
                ej = np.zeros(3)
                ej[j] = h
                hfd[:, j] = (
                    ig.gamma_gradients(spec, nu + ej) - ig.gamma_gradients(spec, nu - ej)
                ) / (2 * h)
            a, e1, e2 = ig.hessian_A_gamma(spec, nu)
            afd = np.array(
                [[e1 @ hfd @ e1, e1 @ hfd @ e2], [e2 @ hfd @ e1, e2 @ hfd @ e2]]
            )
            assert np.max(np.abs(a - afd)) < 5e-9  # O(h^2) with h = 1e-5

    def test_frame_rotation_invariance(self, rng):
        for spec in all_families():
            nus = unit_samples(rng, 20)
            a, e1, e2 = ig.tangential_curvature_tensor(spec, nus)
            base = np.sort(np.stack(ig.sym2x2_eigenvalues(*a), axis=-1), axis=-1)
            theta = rng.uniform(0, 2 * np.pi, len(nus))
            c, s = np.cos(theta)[:, None], np.sin(theta)[:, None]
            f1 = c * e1 + s * e2
            f2 = -s * e1 + c * e2
            hess = ig.gamma_hessians(spec, nus)
            b11 = np.einsum("ni,nij,nj->n", f1, hess, f1)
            b12 = np.einsum("ni,nij,nj->n", f1, hess, f2)
            b22 = np.einsum("ni,nij,nj->n", f2, hess, f2)
            rotated = np.sort(np.stack(ig.sym2x2_eigenvalues(b11, b12, b22), axis=-1), axis=-1)
            assert np.max(np.abs(base - rotated)) < 1e-10

    def test_frame_is_right_handed(self, rng):
        nus = unit_samples(rng, 50)
        e1, e2 = ig.tangent_frame(nus)
        assert np.allclose(np.cross(e1, e2), nus, atol=1e-12)


def broadcast_hessians(spec, points):
    """The Hessian of gamma_bar by (..., 3, 3) broadcasting: the oracle for
    the entry-major ``gamma_hessians``."""
    x = np.asarray(points, dtype=np.float64)
    r = np.linalg.norm(x, axis=-1)[..., None, None]
    eye = np.broadcast_to(np.eye(3), x.shape[:-1] + (3, 3))
    outer_xx = x[..., :, None] * x[..., None, :]
    if spec.family == "constant":
        return spec.params[0] * (eye / r - outer_xx / r**3)
    if spec.family == "ellipsoid":
        q = np.square(np.asarray(spec.params))
        qx = x * q
        val = np.sqrt(np.einsum("...i,...i->...", x, qx))[..., None, None]
        outer_q = qx[..., :, None] * qx[..., None, :]
        return np.diag(q) / val - outer_q / val**3
    l, m, eps = spec.params
    poly, grad, hess = solid_harmonic_jet(int(l), int(m))
    pval = poly.eval(x)[..., None, None]
    g = np.stack([gp.eval(x) for gp in grad], axis=-1)
    h = np.stack(
        [np.stack([hess[a][b].eval(x) for b in range(3)], axis=-1) for a in range(3)],
        axis=-2,
    )
    outer_xg = x[..., :, None] * g[..., None, :]
    base = eye / r - outer_xx / r**3
    extra = (
        (1.0 - l) * (-l - 1.0) * r ** (-l - 3.0) * pval * outer_xx
        + (1.0 - l) * r ** (-l - 1.0) * (outer_xg + np.swapaxes(outer_xg, -1, -2) + pval * eye)
        + r ** (1.0 - l) * h
    )
    return base + eps * extra


def oracle_specs():
    specs = [ig.constant(1.0), ig.constant(2.5), ig.ellipsoid(1, 1, 2), ig.ellipsoid(0.7, 1.3, 0.9)]
    for l in range(1, ig.MAX_HARMONIC_DEGREE + 1):
        specs += [ig.spherical_harmonic(l, m, 0.02) for m in range(-l, l + 1)]
    return specs


def oracle_inputs():
    rng = np.random.default_rng(13)
    pts = rng.standard_normal((60, 3))
    zeros = pts.copy()
    zeros[::3, 0] = 0.0
    zeros[1::3, 1] = 0.0
    zeros[::4, 2] = 0.0
    zeros[5, :2] = -0.0
    odd = np.array([[np.nan, 1, 1], [np.inf, 0, 1], [0, 0, 0], [-np.inf, np.inf, 1],
                    [1, 2, np.nan], [0, 0, -0.0]])
    return {
        "random": pts, "zero_components": zeros, "scaled_up": pts * 1e150,
        "scaled_down": pts * 1e-150, "nan_inf_zero_rows": odd,
        "two_batch_axes": pts.reshape(6, 10, 3), "column_major": np.asfortranarray(pts),
    }


class TestHessianLayout:
    @pytest.mark.parametrize("kind", list(oracle_inputs()))
    def test_bitwise_equal_to_broadcast_formula(self, kind):
        x = oracle_inputs()[kind]
        for spec in oracle_specs():
            with np.errstate(all="ignore"):
                want, got = broadcast_hessians(spec, x), ig.gamma_hessians(spec, x)
            assert got.shape == x.shape[:-1] + (3, 3)
            assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                                  want.view(np.uint64)), (str(spec), kind)

    def test_single_points_bitwise_equal(self):
        # one point is the (3,) input: numpy scalar and array powers can
        # round differently, so every row is checked on its own
        rows = np.concatenate([oracle_inputs()[k] for k in ("random", "nan_inf_zero_rows")])
        for spec in oracle_specs():
            for x in rows:
                with np.errstate(all="ignore"):
                    want, got = broadcast_hessians(spec, x), ig.gamma_hessians(spec, x)
                assert got.shape == (3, 3)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (str(spec), x)

    @pytest.mark.parametrize("entries", [((0, 0), (0, 1), (1, 1)), ((2, 2),), ((1, 2), (0, 2))])
    def test_entry_subset_bitwise_equal(self, entries):
        # the graph solver asks for three entries only; computing fewer
        # entries must not change the bits of the ones computed
        x = oracle_inputs()["two_batch_axes"]
        for spec in oracle_specs():
            want = broadcast_hessians(spec, x)
            for (a, b), plane in zip(entries, ig.hessian_entries(spec, x, entries)):
                assert np.array_equal(plane.view(np.uint64),
                                      np.ascontiguousarray(want[..., a, b]).view(np.uint64))

    def test_entry_planes_contiguous(self, rng):
        h = ig.gamma_hessians(ig.ellipsoid(1, 1, 2), rng.standard_normal((4, 5, 3)))
        for a in range(3):
            for b in range(3):
                assert h[..., a, b].flags.c_contiguous

    def test_restrict2_independent_of_layout(self, rng):
        for shape in ((50, 3), (6, 7, 3), (3,)):
            x, y, nu = rng.standard_normal((3,) + shape)
            for spec in oracle_specs():
                h = ig.gamma_hessians(spec, nu)
                got = ig.restrict2(h, x, y)
                want = ig.restrict2(np.ascontiguousarray(h), x, y)
                for g, w in zip(got, want, strict=True):
                    assert np.array_equal(g.view(np.uint64), w.view(np.uint64)), str(spec)


def planewise_form(p, h, q):
    """p.h.q summed from h's entry planes: the planes of h q, each over b
    ascending, then their dot product with p over a ascending."""
    hq = [h[..., a, 0] * q[..., 0] + h[..., a, 1] * q[..., 1] + h[..., a, 2] * q[..., 2]
          for a in range(3)]
    return p[..., 0] * hq[0] + p[..., 1] * hq[1] + p[..., 2] * hq[2]


class TestTangentAlgebra:
    def test_restrict2_entrywise(self, rng):
        h = rng.standard_normal((7, 5, 3, 3))
        h = h + np.swapaxes(h, -1, -2)
        x, y = rng.standard_normal((2, 7, 5, 3))
        # bit for bit in the plane-wise order, also on the entry-major
        # layout gamma_hessians returns
        entry_major = np.moveaxis(np.ascontiguousarray(np.moveaxis(h, (-2, -1), (0, 1))),
                                  (0, 1), (-2, -1))
        legs = ((x, x), (x, y), (y, y))  # the planes (11, 12, 22)
        for hh in (h, entry_major):
            r = ig.restrict2(hh, x, y)
            assert len(r) == 3 and all(plane.shape == (7, 5) for plane in r)
            for plane, (p, q) in zip(r, legs):
                assert np.array_equal(plane, planewise_form(p, h, q))
        # einsum sums in its own order: an independent oracle up to rounding
        norm_h = np.linalg.norm(h, axis=(-2, -1))
        for plane, (p, q) in zip(r, legs):
            want = np.einsum("abi,abij,abj->ab", p, h, q)
            bound = 1e-14 * norm_h * np.linalg.norm(p, axis=-1) * np.linalg.norm(q, axis=-1)
            assert np.all(np.abs(plane - want) <= bound)

    def test_trace_a_s2_matches_einsum(self, rng):
        # random symmetric stacks over twelve decades of scale
        mats = rng.standard_normal((2, 400, 2, 2)) * 10.0 ** rng.integers(-6, 6, (2, 400, 1, 1))
        a_mats, s_mats = mats + np.swapaxes(mats, -1, -2)
        got = ig.trace_a_s2(*((m[..., 0, 0], m[..., 0, 1], m[..., 1, 1]) for m in (a_mats, s_mats)))
        want = np.einsum("...ij,...jk,...ki->...", a_mats, s_mats, s_mats)
        norm = np.linalg.norm(a_mats, axis=(-2, -1)) * np.linalg.norm(s_mats, axis=(-2, -1)) ** 2
        assert np.all(np.abs(got - want) <= 1e-13 * norm)

    def test_eigenvalues_match_lapack(self, rng):
        a, b, d = rng.standard_normal((3, 500))
        # repeated eigenvalues hit the clamp under the square root
        planes = [np.concatenate(pair) for pair in ((a, a), (b, 0 * a), (d, a))]
        eigs = np.stack(ig.sym2x2_eigenvalues(*planes), axis=-1)
        assert np.max(np.abs(eigs - np.linalg.eigvalsh(stack2(*planes)))) <= 1e-12


class TestUnitVector:
    def test_plain_quotient_bit_for_bit(self, rng):
        scales = 10.0 ** rng.integers(-100, 100, (200, 1))
        for v in rng.standard_normal((200, 3)) * scales:
            assert np.array_equal(ig.unit_vector(v), v / np.linalg.norm(v))

    @pytest.mark.parametrize("exponent", [-1000, 1000, 1023])
    def test_squared_norm_out_of_range(self, exponent):
        # |v|^2 under- or overflows, yet the direction is the one v names
        for v in ([1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.6, 0.0, 0.8]):
            assert np.array_equal(ig.unit_vector(np.ldexp(v, exponent)), ig.unit_vector(v))

    def test_subnormal_entries(self):
        assert np.array_equal(ig.unit_vector([1e-320, 0.0, 0.0]), [1.0, 0.0, 0.0])
        assert np.array_equal(ig.unit_vector([0.0, -5e-324, 0.0]), [0.0, -1.0, 0.0])

    def test_zero_vector_refused(self):
        with pytest.raises(ZeroVector):
            ig.unit_vector([0.0, 0.0, 0.0])


class TestCahnHoffman:
    def test_constant_is_identity(self, rng):
        for nu in unit_samples(rng, 5):
            assert np.allclose(ig.cahn_hoffman(ig.constant(1.0), nu), nu, atol=1e-14)

    def test_ellipsoid_axis(self):
        xi = ig.cahn_hoffman(ig.ellipsoid(1, 1, 2), E3)
        assert np.allclose(xi, [0, 0, 2.0], atol=1e-14)

    def test_definition_gradient_plus_support(self, rng):
        # xi = (tangential gradient of gamma) + gamma * nu: the tangential
        # part must match directional finite differences of gamma and the
        # normal part must equal gamma itself
        h = 1e-6
        for spec in all_families():
            for nu in unit_samples(rng, 8):
                xi = ig.cahn_hoffman(spec, nu)
                assert xi @ nu == pytest.approx(ig.eval_gamma(spec, nu), abs=1e-10)
                e1, e2 = ig.tangent_frame(nu)
                for t in (e1, e2):
                    moved_p = (nu + h * t) / np.linalg.norm(nu + h * t)
                    moved_m = (nu - h * t) / np.linalg.norm(nu - h * t)
                    fd = (ig.eval_gamma(spec, moved_p) - ig.eval_gamma(spec, moved_m)) / (2 * h)
                    assert xi @ t == pytest.approx(fd, abs=1e-8)

    def test_tangency(self, rng):
        # moving the normal moves the Wulff point only tangentially
        h = 1e-6
        for spec in all_families():
            nus = unit_samples(rng, 100)
            e1, e2 = ig.tangent_frame(nus)
            ang = rng.uniform(0, 2 * np.pi, len(nus))[:, None]
            tang = np.cos(ang) * e1 + np.sin(ang) * e2
            base = ig.gamma_gradients(spec, nus)
            moved = nus + h * tang
            moved /= np.linalg.norm(moved, axis=1, keepdims=True)
            diff = (ig.gamma_gradients(spec, moved) - base) / h
            assert np.max(np.abs(np.einsum("ni,ni->n", diff, nus))) <= 1e-5


class TestAnisotropyConstants:
    def test_constant_one(self):
        c = ig.anisotropy_constants(ig.constant(1.0))
        assert c.lambda_gamma == pytest.approx(1.0, abs=1e-12)
        assert c.Lambda_gamma == pytest.approx(1.0, abs=1e-12)
        assert c.c_gamma == pytest.approx(2.0, abs=1e-10)
        assert c.c_prime_gamma == pytest.approx(4.0, abs=1e-10)

    def test_constant_two(self):
        c = ig.anisotropy_constants(ig.constant(2.0))
        assert (c.lambda_gamma, c.Lambda_gamma) == (
            pytest.approx(2.0, abs=1e-12),
            pytest.approx(2.0, abs=1e-12),
        )
        assert c.c_gamma == pytest.approx(2.0, abs=1e-10)
        assert c.c_prime_gamma == pytest.approx(1.0, abs=1e-10)

    def test_ellipsoid_extremes_closed_form(self):
        # the tangential eigenvalues of |diag(1, 1, 2) nu| fill [a^2/c, c^2/a] = [1/2, 4],
        # with the ends at the poles and on the equator; the sampled extremes
        # lie inside, within 1e-4 of them (1e-12 slack for rounding)
        c = ig.anisotropy_constants(ig.ellipsoid(1, 1, 2))
        assert 0.5 - 1e-12 <= c.lambda_gamma <= 0.5 + 1e-4 + 1e-12
        assert 4.0 - 1e-4 - 1e-12 <= c.Lambda_gamma <= 4.0 + 1e-12

    def test_harmonic_lambda_decreases_with_eps(self):
        # degenerate at eps = 0 to the round case, going down from there
        lams = []
        for eps in (0.0, 0.02, 0.04, 0.06):
            if eps == 0.0:
                lams.append(1.0)
                continue
            spec = ig.spherical_harmonic(2, 0, eps)
            lams.append(ig.anisotropy_constants(spec).lambda_gamma)
        assert all(b <= a + 1e-12 for a, b in zip(lams, lams[1:]))
        assert lams[-1] < 1.0

    def test_tensor_below_the_lattice_widens_it(self):
        # one node whose tensor diag(0.3, 2) lies outside const:1's record [1, 1]
        c = ig.anisotropy_constants(ig.constant(1.0), (np.array([0.3]), np.zeros(1),
                                                       np.array([2.0])))
        # the closed-form eigenvalues round (1.15 - 0.85) to 1 ulp below 0.3
        assert (c.lambda_gamma, c.Lambda_gamma) == pytest.approx((0.3, 2.0), rel=1e-15, abs=0)

    def test_non_positive_tensor_eigenvalue_refused(self):
        # a node tensor with lower eigenvalue -1 leaves no positive lambda_gamma
        with pytest.raises(NonConvexIntegrand):
            ig.anisotropy_constants(ig.constant(1.0), (np.array([-1.0]), np.zeros(1),
                                                       np.array([1.0])))


class TestValidation:
    def test_rejects_nonpositive_constant(self):
        with pytest.raises(NonConvexIntegrand):
            ig.constant(-1.0)

    def test_rejects_large_eps(self):
        with pytest.raises(NonConvexIntegrand):
            ig.spherical_harmonic(2, 0, 2.0)

    def test_rejects_degree_beyond_cap(self):
        with pytest.raises(ValueError):
            ig.spherical_harmonic(5, 0, 0.01)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            ig.spherical_harmonic(2, 3, 0.01)

    @pytest.mark.parametrize("call", [
        lambda: ig.fibonacci_sphere(0),
        lambda: ig.eval_gamma(ig.constant(1.0), [1.0, 0.0]),
        lambda: ig.gamma_bar_derivatives(ig.constant(1.0), [1.0, 0.0], 0),
        lambda: ig.gamma_bar_derivatives(ig.constant(1.0), [1.0, 0.0, 0.0], 3),
        lambda: ig.spherical_harmonic(2.0, 0, 0.01),
    ], ids=["no_samples", "eval_shape", "point_shape", "order_three", "degree_float"])
    def test_argument_guards(self, call):
        with pytest.raises(ValueError):
            call()

    def test_gradient_order_and_str(self):
        spec = ig.ellipsoid(1, 1, 2)
        nu = np.array([0.6, 0.0, 0.8])
        assert np.array_equal(ig.gamma_bar_derivatives(spec, nu, 1), ig.cahn_hoffman(spec, nu))
        assert str(spec) == ig.format_integrand(spec) == "ellipsoid:1,1,2"

    def test_parse_round_trip(self):
        for text in ("const:2", "ellipsoid:1,1,2", "sh:3,1,0.05"):
            spec = ig.parse_integrand(text)
            assert ig.parse_integrand(ig.format_integrand(spec)) == spec

    @pytest.mark.parametrize("factory, params", [
        (ig.constant, (math.inf,)),
        (ig.constant, (math.nan,)),
        (ig.ellipsoid, (math.nan, 1, 1)),
        (ig.ellipsoid, (1, math.nan, 1)),
        (ig.ellipsoid, (math.inf, 1, 1)),
        (ig.ellipsoid, (1e200, 1, 1)),  # finite, but its square overflows
        (ig.spherical_harmonic, (2, 0, math.nan)),
    ])
    def test_rejects_non_finite_parameters(self, factory, params):
        with pytest.raises(InvalidSpec):
            factory(*params)

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            ig.parse_integrand("quartic:1")

    @pytest.mark.parametrize("text, isotropic", [
        ("const:1", True), ("const:0.5", True), ("ellipsoid:2,2,2", True),
        ("sh:2,0,0", True), ("ellipsoid:1,1,2", False), ("ellipsoid:1,1,1.000001", False),
        ("sh:2,0,0.05", False),
    ])
    def test_is_isotropic_by_family_and_parameters(self, text, isotropic):
        assert ig.is_isotropic(ig.parse_integrand(text)) is isotropic


def icosphere_loop(refinement):
    """Midpoint subdivision one edge at a time: the oracle of ``icosphere``."""
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
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [tuple(v) for v in verts]
    for _ in range(refinement):
        cache, new_faces = {}, []

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                p = np.array(verts[i]) + np.array(verts[j])
                p /= np.linalg.norm(p)
                verts.append(tuple(p))
                cache[key] = len(verts) - 1
            return cache[key]

        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    v = np.array(verts, dtype=np.float64)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v, np.array(faces, dtype=np.int64)


class TestWulffMesh:
    @pytest.mark.parametrize("refinement", range(6))
    def test_icosphere_matches_edge_loop(self, refinement):
        verts, faces = ig.icosphere(refinement)
        want_verts, want_faces = icosphere_loop(refinement)
        assert verts.tobytes() == want_verts.tobytes()
        assert faces.dtype == want_faces.dtype and np.array_equal(faces, want_faces)

    def test_unit_sphere_area(self):
        mesh = ig.wulff_mesh(ig.constant(1.0), 4)
        assert abs(mesh.area / (4 * math.pi) - 1) < 0.005

    def test_radius_two_sphere_area(self):
        mesh = ig.wulff_mesh(ig.constant(2.0), 4)
        assert abs(mesh.area / (16 * math.pi) - 1) < 0.005

    def test_spheroid_area(self):
        # prolate spheroid closed form for semi-axes (1, 1, 2)
        e = math.sqrt(1 - 0.25)
        exact = 2 * math.pi * (1 + 2 / e * math.asin(e))
        mesh = ig.wulff_mesh(ig.ellipsoid(1, 1, 2), 5)
        assert abs(mesh.area / exact - 1) < 0.01

    def test_vertices_are_map_images(self):
        mesh = ig.wulff_mesh(ig.ellipsoid(1, 1, 2), 2)
        xi = ig.gamma_gradients(ig.ellipsoid(1, 1, 2), mesh.source_normals)
        assert np.max(np.abs(mesh.vertices - xi)) == 0.0

    def test_mesh_is_closed(self):
        mesh = ig.wulff_mesh(ig.constant(1.0), 2)
        edges: dict[tuple, int] = {}
        for a, b, c in mesh.faces:
            for i, j in ((a, b), (b, c), (c, a)):
                edges[(min(i, j), max(i, j))] = edges.get((min(i, j), max(i, j)), 0) + 1
        assert set(edges.values()) == {2}

    def test_outward_orientation(self):
        mesh = ig.wulff_mesh(ig.ellipsoid(1, 1, 2), 3)
        tri = mesh.vertices[mesh.faces]
        cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        assert np.min(np.einsum("ij,ij->i", cross, tri.mean(axis=1))) > 0
