import dataclasses
import hashlib
import math

import numpy as np
import pytest
from scipy.integrate import quad

from anisolab import integrand as ig, surface as sf
from anisolab.errors import (
    BoundaryNotFixed,
    DegenerateImmersion,
    SingularShear,
    UnknownFixture,
)
from anisolab.gauss_analysis import critical_set
from anisolab.harness import ExperimentConfig, RunContext, parse_surface

from conftest import higher_order_enneper, stack2

C1 = ig.constant(1.0)


def principal_weights(f):
    """The weight tensor A paired with the principal frame of S, (a1, a2)
    with a_i = <p_i, A p_i> for the principal direction p_i of kappa_i.

    The frame angle is atan2-based, so ties fall back to the X_u direction
    via atan2(0, 0) = 0."""
    (a11, a12, a22), (s11, s12, s22) = f.a_tensor, f.shape_op
    theta = 0.5 * np.arctan2(2 * s12, s11 - s22)
    ct, st = np.cos(theta), np.sin(theta)
    lam_p = s11 * ct**2 + 2 * s12 * ct * st + s22 * st**2
    a_p = a11 * ct**2 + 2 * a12 * ct * st + a22 * st**2
    a_q = a11 * st**2 - 2 * a12 * ct * st + a22 * ct**2
    p_is_k2 = np.abs(lam_p - f.kappa2) <= np.abs(lam_p - f.kappa1)
    return np.where(p_is_k2, a_q, a_p), np.where(p_is_k2, a_p, a_q)


def catenoid_K_oracle(v):
    # E = G = cosh^2 v, F = 0, L = -1, M = 0, N = 1 for the standard chart,
    # hand-checked: K = (LN - M^2)/(EG - F^2) = -cosh^-4 v
    return -1.0 / np.cosh(v) ** 4


class TestCurvatureField:
    def test_plane_everything_vanishes(self):
        f = sf.curvature_field(sf.fixture("plane", grid=32), ig.ellipsoid(1, 1, 2))
        assert np.max(np.abs(f.h_gamma)) == 0.0
        assert np.max(np.abs(f.k_sigma)) == 0.0
        assert np.max(np.abs(f.aniso_pairing)) == 0.0

    def test_catenoid_closed_forms(self):
        p = sf.fixture("catenoid", grid=(128, 128), v_extent=2.0)
        f = sf.curvature_field(p, C1)
        assert np.max(np.abs(f.h_gamma)) < 1e-8
        K = catenoid_K_oracle(p.v_samples())
        assert np.max(np.abs(f.k_sigma - K[None, :])) < 1e-6

    def test_sphere_round(self):
        f = sf.curvature_field(sf.fixture("sphere", grid=(96, 96)), C1)
        assert np.allclose(f.kappa1, -1.0, atol=1e-10)
        assert np.allclose(f.kappa2, -1.0, atol=1e-10)
        assert np.allclose(f.h_gamma, -2.0, atol=1e-10)

    def test_enneper_closed_form_K(self):
        p = sf.fixture("enneper", grid=(96, 96), radius=1.3)
        f = sf.curvature_field(p, C1)
        U, V = np.meshgrid(p.u_samples(), p.v_samples(), indexing="ij")
        K = -4.0 / (1 + U**2 + V**2) ** 4
        assert np.max(np.abs(f.h_gamma)) < 1e-12
        assert np.max(np.abs(f.k_sigma - K)) < 1e-12

    def test_shape_operator_diagonalization(self, rng):
        p = sf.fixture("enneper", grid=(48, 48), radius=1.2)
        f = sf.curvature_field(p, C1)
        eigs = np.sort(np.linalg.eigvalsh(stack2(*f.shape_op)), axis=-1)
        assert np.allclose(eigs[..., 0], f.kappa1, atol=1e-12)
        assert np.allclose(eigs[..., 1], f.kappa2, atol=1e-12)

    def test_gauss_curvature_is_principal_product(self):
        p = sf.fixture("enneper", grid=(48, 48), radius=1.2)
        f = sf.curvature_field(p, ig.ellipsoid(1, 1, 2))
        ref = np.maximum(np.abs(f.k_sigma), 1e-30)
        assert np.max(np.abs(f.k_sigma - f.kappa1 * f.kappa2) / ref) < 1e-9

    def test_pairing_is_weighted_square_sum(self):
        # tr(A S S) equals a1 k1^2 + a2 k2^2 in the principal frame
        p = sf.fixture("catenoid", grid=(64, 64), v_extent=1.5)
        f = sf.curvature_field(p, ig.ellipsoid(1, 1, 2))
        a1, a2 = principal_weights(f)
        recon = a1 * f.kappa1**2 + a2 * f.kappa2**2
        assert np.max(np.abs(recon - f.aniso_pairing)) < 1e-10
        assert np.min(f.aniso_pairing) >= 0.0

    @pytest.mark.parametrize("surface, integrand", [
        ("catenoid:3", "const:1"),
        ("enneper:1.3", "const:1"),
        ("sheared_catenoid:1,0,0,0,1,0,0,0,2;2", "ellipsoid:1,1,2"),
    ])
    def test_pairing_matches_einsum_on_criterion_11_fields(self, surface, integrand):
        # the closed-form tr(A S^2) against the matrix product, relative to |A| |S|^2
        f = sf.curvature_field(parse_surface(surface, 96, integrand), ig.parse_integrand(integrand))
        a_mats, s_mats = stack2(*f.a_tensor), stack2(*f.shape_op)
        want = np.einsum("...ij,...jk,...ki->...", a_mats, s_mats, s_mats)
        norm = (np.linalg.norm(a_mats, axis=(-2, -1))
                * np.linalg.norm(s_mats, axis=(-2, -1)) ** 2)
        assert np.all(np.abs(f.aniso_pairing - want) <= 1e-13 * norm)

    def test_harmonic_field_bytes_pinned(self):
        # the one integrand family no report or solution digest covers
        ctx = RunContext(ExperimentConfig(surface="catenoid:2", integrand="sh:4,4,0.05", grid=48))
        f, c = ctx.field, ctx.consts
        assert all(len(pair) == 3 and all(plane.shape == (48, 48) for plane in pair)
                   for pair in (f.shape_op, f.a_tensor))
        assert not any(np.ndim(getattr(f, fd.name)) == 4 for fd in dataclasses.fields(f))
        digest = hashlib.sha256()
        for array in (f.normal, *f.shape_op, f.kappa1, f.kappa2, *f.a_tensor, f.h_gamma,
                      f.k_sigma, f.k_gamma, f.aniso_pairing, f.jacobian, f.area_weight):
            digest.update(np.ascontiguousarray(array).tobytes())
        assert digest.hexdigest() == (
            "bb733aab9b953621d534c4ebc22cba8a3dc4e32ceec08b805a0baef7337bffe5")
        constants = np.array([c.lambda_gamma, c.Lambda_gamma, c.c_gamma, c.c_prime_gamma])
        assert hashlib.sha256(constants.tobytes()).hexdigest() == (
            "7e46f8ee541d98aabda209d502ff94b2258377b7d38ff854a25abef450a61bfe")
        # the one symmetric (2, 2) array: hessian_A_gamma's, equal to the planes
        nu = f.normal[5, 7]
        a, _, _ = ig.hessian_A_gamma(f.spec, nu)
        assert a.shape == (2, 2) and np.array_equal(a, a.T)
        planes, _, _ = ig.tangential_curvature_tensor(f.spec, nu[None, :])
        assert np.array_equal(a, stack2(*planes)[0])

    def test_degenerate_immersion_raises(self):
        def bad_jets(U, V):
            x = np.stack([U, U, np.zeros_like(U)], axis=-1)
            one = np.zeros_like(x)
            one[..., 0] = 1.0
            one[..., 1] = 1.0
            zero = np.zeros_like(x)
            return {"x": x, "xu": one, "xv": one.copy(), "xuu": zero,
                    "xuv": zero.copy(), "xvv": zero.copy()}

        with pytest.raises(DegenerateImmersion):
            sf.from_jet("bad", bad_jets, (0, 1, 0, 1), (16, 16)).normals()


class TestEnergy:
    def test_sphere_area(self):
        p = sf.fixture("sphere", grid=(128, 128))
        assert abs(sf.anisotropic_energy(p, C1) / (4 * math.pi) - 1) < 0.005

    def test_plane_rectangle(self):
        p = sf.fixture("plane", grid=(48, 48), lu=2.0, lv=1.5)
        assert sf.anisotropic_energy(p, ig.constant(3.0)) == pytest.approx(
            9.0, abs=1e-10
        )

    def test_catenoid_against_1d_quadrature(self):
        p = sf.fixture("catenoid", grid=(192, 192), v_extent=1.0)
        oracle, _ = quad(lambda v: 2 * math.pi * math.cosh(v) ** 2, -1.0, 1.0)
        assert sf.anisotropic_energy(p, C1) == pytest.approx(oracle, rel=1e-4)

    def test_quadrature_convergence_order(self):
        e_exact = 2 * math.pi * (1 + math.sinh(1.0) * math.cosh(1.0))
        k_exact = 4 * math.pi * math.tanh(1.0)
        errs_e, errs_k = [], []
        for n in (48, 96, 192):
            p = sf.fixture("catenoid", grid=(n, n), v_extent=1.0)
            f = sf.curvature_field(p, C1)
            errs_e.append(abs(sf.anisotropic_energy(p, C1) - e_exact))
            errs_k.append(abs(f.total_curvature() - k_exact))
        assert math.log2(errs_e[0] / errs_e[1]) >= 1.9
        assert math.log2(errs_k[0] / errs_k[1]) >= 1.9


class TestFirstVariation:
    def test_plane_stationary(self):
        p = sf.fixture("plane", grid=(64, 64))
        U, V = np.meshgrid(p.u_samples(), p.v_samples(), indexing="ij")
        u = np.sin(np.pi * U) * np.sin(np.pi * V)
        out = sf.first_variation_check(p, C1, u, 1e-3)
        assert abs(out["numeric_derivative"]) < 1e-9
        assert abs(out["minus_integral_Hu"]) < 1e-12

    def test_catenoid_random_bump(self, rng):
        p = sf.fixture("catenoid", grid=(128, 128), v_extent=2.0)
        U, V = np.meshgrid(p.u_samples(), p.v_samples(), indexing="ij")
        u = (np.sin(U + 0.7) + 0.3 * np.cos(2 * U)) * np.cos(np.pi * V / 4) ** 2
        u[:, 0] = 0.0
        u[:, -1] = 0.0
        out = sf.first_variation_check(p, C1, u, 1e-3)
        assert out["discrepancy"] < 1e-4

    def test_sphere_mean_curvature_pairing(self):
        p = sf.fixture("sphere", grid=(128, 128))
        f = sf.curvature_field(p, C1)
        U, V = np.meshgrid(p.u_samples(), p.v_samples(), indexing="ij")
        u = np.sin(V) ** 2 * np.cos(U) ** 2
        u[:, 0] = 0.0
        u[:, -1] = 0.0
        out = sf.first_variation_check(p, C1, u, 1e-3)
        expected = 2.0 * float(np.sum(u * f.area_weight))  # H_gamma = -2
        assert out["numeric_derivative"] == pytest.approx(expected, rel=0.01)

    def test_boundary_violation_raises(self):
        p = sf.fixture("plane", grid=(32, 32))
        with pytest.raises(BoundaryNotFixed):
            sf.first_variation_check(p, C1, np.ones(p.shape), 1e-3)

    def test_dt_range_enforced(self):
        p = sf.fixture("plane", grid=(32, 32))
        with pytest.raises(ValueError):
            sf.first_variation_check(p, C1, np.zeros(p.shape), 1e-7)

    def test_field_shape_refused(self):
        p = sf.fixture("plane", grid=(32, 32))
        with pytest.raises(ValueError, match="patch grid"):
            sf.first_variation_check(p, C1, np.zeros((31, 32)), 1e-3)


def stencil_d1(a, h, axis, periodic):
    """The explicit 3-point stencils grid_d1 must reproduce."""
    a = np.moveaxis(a, axis, 0)
    out = np.empty_like(a)
    if periodic:
        out[:] = (np.roll(a, -1, axis=0) - np.roll(a, 1, axis=0)) / (2 * h)
    else:
        out[1:-1] = (a[2:] - a[:-2]) / (2 * h)
        out[0] = (-3 * a[0] + 4 * a[1] - a[2]) / (2 * h)
        out[-1] = (3 * a[-1] - 4 * a[-2] + a[-3]) / (2 * h)
    return np.moveaxis(out, 0, axis)


class TestGridD1:
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("periodic", [False, True])
    def test_matches_stencils(self, axis, periodic):
        a = np.random.default_rng(5).standard_normal((17, 13, 3))
        h = 0.037
        got, ref = sf.grid_d1(a, h, axis, periodic), stencil_d1(a, h, axis, periodic)
        inner = [slice(None)] * 3
        inner[axis] = slice(1, -1)
        # bit for bit off the edges; the one-sided edge rows round differently
        np.testing.assert_array_equal(got[tuple(inner)], ref[tuple(inner)])
        if periodic:
            np.testing.assert_array_equal(got, ref)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * np.max(np.abs(a)) / h)

    def test_exact_on_quadratics(self):
        x = np.linspace(-1.0, 2.0, 7)
        np.testing.assert_allclose(sf.grid_d1(x**2 - 3 * x, x[1] - x[0], 0, False),
                                   2 * x - 3, rtol=0, atol=1e-13)


class TestMinimalSurfaceInvariants:
    def accepted_fields(self):
        out = [
            sf.curvature_field(sf.fixture("catenoid", grid=(96, 96), v_extent=2.0), C1),
            sf.curvature_field(sf.fixture("enneper", grid=(96, 96), radius=1.3), C1),
            sf.curvature_field(
                sf.fixture(
                    "sheared_catenoid",
                    grid=(96, 96),
                    shear=np.diag([1.0, 1.0, 2.0]),
                    v_extent=2.0,
                ),
                ig.ellipsoid(1, 1, 2),
            ),
        ]
        return out

    def test_sign_law(self):
        for f in self.accepted_fields():
            scale = f.curvature_scale()
            assert np.max(f.k_sigma) <= 1e-6 * scale**2

    def test_abs_a_squared_identity(self):
        for f in self.accepted_fields():
            lhs = f.abs_a_squared()
            a1, a2 = principal_weights(f)
            rhs = (a2 / a1 + a1 / a2) * (-f.k_sigma)
            ref = np.maximum(np.abs(lhs), 1e-30)
            assert np.max(np.abs(lhs - rhs) / ref) < 1e-6

    def test_pairing_sandwich(self):
        for f in self.accepted_fields():
            consts = ig.anisotropy_constants(
                f.spec, extra_normals=f.normal.reshape(-1, 3)
            )
            s2 = f.curvature_scale() ** 2
            lo = (-2.0 / consts.Lambda_gamma) * f.k_gamma
            hi = (-2.0 / consts.lambda_gamma) * f.k_gamma
            assert np.max(lo - f.aniso_pairing) / s2 <= 1e-8
            assert np.max(f.aniso_pairing - hi) / s2 <= 1e-8

    def test_k_gamma_factorization(self):
        for f in self.accepted_fields():
            a11, a12, a22 = f.a_tensor
            det_a = a11 * a22 - a12**2
            ref = np.maximum(np.abs(f.k_gamma), 1e-30)
            assert np.max(np.abs(f.k_gamma - det_a * f.k_sigma) / ref) < 1e-9

    def test_flat_point_clusters_stable_under_refinement(self):
        counts = []
        for n in (97, 193, 385):
            f = sf.curvature_field(higher_order_enneper(2, grid=n), C1)
            counts.append(len(critical_set(f)))
        assert counts[0] == counts[1] == counts[2] == 1


class TestFixtures:
    def test_plane_chart(self):
        p = sf.fixture("plane", grid=(16, 16))
        assert np.allclose(p.position[..., 2], 0.0)

    def test_catenoid_chart(self):
        p = sf.fixture("catenoid", grid=(32, 32), v_extent=2.0)
        U, V = np.meshgrid(p.u_samples(), p.v_samples(), indexing="ij")
        expected = np.stack(
            [np.cosh(V) * np.cos(U), np.cosh(V) * np.sin(U), V], axis=-1
        )
        assert np.allclose(p.position, expected)
        assert p.domain[2:] == (-2.0, 2.0)
        assert p.periodic_u

    def test_enneper_chart(self):
        p = sf.fixture("enneper", grid=(16, 16), radius=1.0)
        U, V = np.meshgrid(p.u_samples(), p.v_samples(), indexing="ij")
        expected = np.stack(
            [U - U**3 / 3 + U * V**2, V - V**3 / 3 + U**2 * V, U**2 - V**2],
            axis=-1,
        )
        assert np.allclose(p.position, expected)

    def test_unknown_fixture(self):
        with pytest.raises(UnknownFixture):
            sf.fixture("helicoid")

    @pytest.mark.parametrize("name", list(sf.FIXTURE_PARAMS))
    def test_parameters_default_to_table(self, name):
        default = sf.fixture(name, grid=(8, 8))
        spelled = sf.fixture(name, grid=(8, 8), **sf.FIXTURE_PARAMS[name])
        assert np.array_equal(default.position, spelled.position)
        assert default.domain == spelled.domain
        with pytest.raises(ValueError, match=r"unknown fixture parameters: \['bogus'\]"):
            sf.fixture(name, bogus=1.0)

    def test_singular_shear(self):
        with pytest.raises(SingularShear):
            sf.fixture("sheared_catenoid", shear=np.zeros((3, 3)))

    def test_shear_shape_refused(self):
        with pytest.raises(ValueError, match="3x3"):
            sf.fixture("sheared_catenoid", shear=np.eye(2))

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            sf.fixture("catenoid", v_extent=5.0)
        with pytest.raises(ValueError):
            sf.fixture("enneper", radius=2.0)

    def test_grid_floor(self):
        # the one-sided derivative stencils need three nodes per direction
        for grid in (2, (2, 16), (16, 1)):
            with pytest.raises(ValueError):
                sf.fixture("plane", grid=grid)
        with pytest.raises(ValueError):
            sf.from_jet("plane", sf._plane_jets, (0.0, 1.0, 0.0, 1.0), (16, 2))
        assert sf.fixture("plane", grid=3).shape == (3, 3)

    def test_completeness_is_declared(self):
        # fixtures chart complete surfaces; a user chart is a bounded piece
        assert all(sf.fixture(name, grid=8).complete for name in sf.FIXTURE_PARAMS)
        assert not higher_order_enneper(2, grid=9).complete

    def test_identity_shear_is_catenoid(self):
        a = sf.fixture("sheared_catenoid", grid=(32, 32), shear=np.eye(3), v_extent=1.5)
        b = sf.fixture("catenoid", grid=(32, 32), v_extent=1.5)
        assert np.allclose(a.position, b.position)
