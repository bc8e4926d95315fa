import importlib

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import dblquad

from anisolab import integrand as ig, spectrum as spx, surface as sf
from anisolab.errors import InvalidSpec, SolverFailure
from anisolab.harness import ExperimentConfig, RunContext
from anisolab.objio import grid_faces

C1 = ig.constant(1.0)
C2 = ig.constant(2.0)
E112 = ig.ellipsoid(1, 1, 2)
TWO_PI = 2 * np.pi


def flat_laplace_reference(patch):
    """Independent P1 Laplace assembly via the cotangent formula in 2D."""
    nu_, nv_ = patch.shape
    faces = grid_faces(nu_, nv_, patch.periodic_u)
    pts = np.stack(
        np.meshgrid(patch.u_samples(), patch.v_samples(), indexing="ij"), axis=-1
    ).reshape(-1, 2)
    rows, cols, vals = [], [], []
    for tri in faces:
        p = pts[tri]
        for loc in range(3):
            a, b, c = p[loc], p[(loc + 1) % 3], p[(loc + 2) % 3]
            e1, e2 = b - a, c - a
            cot = (e1 @ e2) / abs(e1[0] * e2[1] - e1[1] * e2[0])
            i, j = tri[(loc + 1) % 3], tri[(loc + 2) % 3]
            for r, cc, v in (
                (i, j, -0.5 * cot),
                (j, i, -0.5 * cot),
                (i, i, 0.5 * cot),
                (j, j, 0.5 * cot),
            ):
                rows.append(r)
                cols.append(cc)
                vals.append(v)
    n = nu_ * nv_
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def grid_faces_loop(nu, nv, periodic_u):
    """Cell-by-cell triangulation, the order the assembly is summed in."""
    faces = []
    for i in range(nu if periodic_u else nu - 1):
        inext = (i + 1) % nu
        for j in range(nv - 1):
            a, b = i * nv + j, inext * nv + j
            c, d = inext * nv + j + 1, i * nv + j + 1
            faces += [(a, b, c), (a, c, d)]
    return np.array(faces, dtype=np.int64)


@pytest.mark.parametrize("nu,nv", [(2, 2), (3, 5), (7, 4), (48, 48)])
@pytest.mark.parametrize("periodic_u", [False, True])
def test_grid_faces_match_cell_loop(nu, nv, periodic_u):
    faces = grid_faces(nu, nv, periodic_u)
    assert faces.dtype == np.int64
    assert np.array_equal(faces, grid_faces_loop(nu, nv, periodic_u))


class TestAssembly:
    def test_plane_stiffness_is_flat_laplacian(self):
        patch = sf.fixture("plane", grid=(24, 24))
        disc = spx.assemble(patch, C1)
        ref = flat_laplace_reference(patch)
        assert abs(disc.stiffness - ref).max() < 1e-12
        assert disc.potential.nnz == 0

    def test_symmetry_and_mass_positivity(self):
        patch = sf.fixture("catenoid", grid=(48, 48), v_extent=2.0)
        disc = spx.assemble(patch, E112)
        assert abs(disc.stiffness - disc.stiffness.T).max() < 1e-12
        assert abs(disc.potential - disc.potential.T).max() < 1e-12
        assert abs(disc.mass - disc.mass.T).max() < 1e-12
        idx = np.flatnonzero(~disc.dirichlet_mask)
        m = disc.mass.tocsr()[idx][:, idx].toarray()
        assert np.min(np.linalg.eigvalsh(m)) > 0

    def test_constant_two_doubles_both_matrices(self):
        patch = sf.fixture("catenoid", grid=(32, 32), v_extent=1.5)
        d1 = spx.assemble(patch, C1)
        d2 = spx.assemble(patch, C2)
        assert abs(d2.stiffness - 2 * d1.stiffness).max() < 1e-12
        assert abs(d2.potential - 2 * d1.potential).max() < 1e-12
        assert abs(d2.mass - d1.mass).max() < 1e-14

    def test_quadratic_form_against_dense_quadrature(self):
        # five fixed smooth fields, independent adaptive quadrature of the
        # analytic energy integrand on the catenoid
        patch = sf.fixture("catenoid", grid=(96, 96), v_extent=2.0)
        disc = spx.assemble(patch, C1)
        U, V = np.meshgrid(patch.u_samples(), patch.v_samples(), indexing="ij")
        rng = np.random.default_rng(42)
        for _ in range(5):
            a, b = rng.integers(1, 3, 2)
            pu, pv = rng.uniform(0, TWO_PI), rng.uniform(0.2, 0.8)
            fgrid = np.sin(a * U + pu) * np.sin(np.pi * b * (V + 2) / 4) + pv * np.cos(
                U
            ) * np.cos(np.pi * V / 4)
            x = fgrid.reshape(-1)
            q_fem = x @ (disc.stiffness - disc.potential) @ x

            def integrand(v, u, a=a, b=b, pu=pu, pv=pv):
                fu = a * np.cos(a * u + pu) * np.sin(np.pi * b * (v + 2) / 4) - pv * np.sin(
                    u
                ) * np.cos(np.pi * v / 4)
                fv = np.sin(a * u + pu) * np.pi * b / 4 * np.cos(
                    np.pi * b * (v + 2) / 4
                ) - pv * np.cos(u) * np.pi / 4 * np.sin(np.pi * v / 4)
                f = np.sin(a * u + pu) * np.sin(np.pi * b * (v + 2) / 4) + pv * np.cos(
                    u
                ) * np.cos(np.pi * v / 4)
                return fu**2 + fv**2 - 2 / np.cosh(v) ** 2 * f**2

            oracle, _ = dblquad(integrand, 0, TWO_PI, -2, 2, epsabs=1e-10, epsrel=1e-10)
            assert q_fem == pytest.approx(oracle, rel=1e-3)


class TestDirichletEigs:
    def test_flat_square_spectrum(self):
        patch = sf.fixture("plane", grid=(96, 96))
        vals, _, _ = spx.dirichlet_eigs(spx.assemble(patch, C1), 3)
        exact = np.array([2, 5, 5]) * np.pi**2
        assert np.max(np.abs(vals / exact - 1)) < 0.01

    def test_plane_spectrum_positive(self):
        for spec in (C1, E112):
            vals, _, _ = spx.dirichlet_eigs(spx.assemble(sf.fixture("plane", grid=(48, 48)), spec), 6)
            assert np.all(vals > 0)

    def test_catenoid_single_negative_mode_grid_stable(self):
        for n in (96, 128):
            disc = spx.assemble(sf.fixture("catenoid", grid=(n, n), v_extent=2.0), C1)
            for band in (1.5, 2.0):
                vals, _, _ = spx.dirichlet_eigs(disc, 12, domain=(0, TWO_PI, -band, band))
                assert spx.negative_count(vals) == 1

    def test_eigenvector_normalization_deterministic(self):
        disc = spx.assemble(sf.fixture("plane", grid=(32, 32)), C1)
        _, v1, _ = spx.dirichlet_eigs(disc, 4)
        _, v2, _ = spx.dirichlet_eigs(disc, 4)
        assert np.array_equal(v1, v2)

    def test_empty_domain_fails_loudly(self):
        disc = spx.assemble(sf.fixture("plane", grid=(32, 32)), C1)
        with pytest.raises(SolverFailure):
            spx.dirichlet_eigs(disc, 3, domain=(0.4, 0.41, 0.4, 0.41))
        assert spx.inertia(disc, (0.4, 0.41, 0.4, 0.41)) is None


class TestMorseIndex:
    def test_plane_index_zero(self):
        rep = spx.morse_index_exhaustion(
            sf.fixture("plane", grid=(48, 48)),
            C1,
            [(0.2, 0.8, 0.2, 0.8), (0.1, 0.9, 0.1, 0.9), (0.0, 1.0, 0.0, 1.0)],
        )
        assert rep.morse_index == [0, 0, 0]
        assert rep.stabilized_index == 0

    def test_catenoid_index_one(self):
        rep = spx.morse_index_exhaustion(
            sf.fixture("catenoid", grid=(96, 96), v_extent=3.0),
            C1,
            [(0, TWO_PI, -1, 1), (0, TWO_PI, -2, 2), (0, TWO_PI, -2.8, 2.8)],
        )
        assert rep.morse_index == [0, 1, 1]
        assert rep.stabilized_index == 1

    def test_enneper_index_one(self):
        rep = spx.morse_index_exhaustion(
            sf.fixture("enneper", grid=(96, 96), radius=1.3),
            C1,
            [(-0.8, 0.8, -0.8, 0.8), (-1.2, 1.2, -1.2, 1.2), (-1.3, 1.3, -1.3, 1.3)],
        )
        assert rep.stabilized_index == 1

    def test_requires_three_domains(self):
        with pytest.raises(ValueError):
            spx.morse_index_exhaustion(
                sf.fixture("plane", grid=(32, 32)), C1, [(0, 1, 0, 1)] * 2
            )

    @pytest.mark.parametrize("domains", [
        [(0, TWO_PI, -1, 1), (0, TWO_PI, -0.5, 0.5), (0, TWO_PI, -2, 2)],
        [(0, TWO_PI, -1, 1), (0, TWO_PI, -2, 2), (0, TWO_PI, -2, 2)],
        [(1, 2, -1, 1), (1.5, 2.5, -1.5, 1.5), (0, TWO_PI, -2, 2)],
    ], ids=["shrinks", "repeats", "shifts"])
    def test_refuses_domains_not_nested(self, domains):
        # a shrinking or repeated domain made the count sequence meaningless,
        # and a repeated last one stabilized the index by fiat
        with pytest.raises(InvalidSpec, match="must contain the one before it"):
            spx.morse_index_exhaustion(sf.fixture("catenoid", grid=(24, 24)), C1, domains)


class TestComparisonOperator:
    def test_plane_counts_zero(self):
        counts = RunContext(ExperimentConfig(
            surface="plane", grid=48,
            domains=[(0.2, 0.8, 0.2, 0.8), (0.1, 0.9, 0.1, 0.9), (0.0, 1.0, 0.0, 1.0)],
        )).comparison_counts
        assert all(c == {"neg_L": 0, "neg_Lgamma": 0} for c in counts)

    def test_round_weight_counts_coincide(self):
        # for the round integrand both operators carry the same potential
        counts = RunContext(ExperimentConfig(
            surface="catenoid:2", grid=96,
            domains=[(0, TWO_PI, -1, 1), (0, TWO_PI, -1.5, 1.5), (0, TWO_PI, -2, 2)],
        )).comparison_counts
        assert [c["neg_L"] for c in counts] == [0, 1, 1]
        for c in counts:
            assert c["neg_L"] == c["neg_Lgamma"]

    def test_anisotropic_domination(self):
        counts = RunContext(ExperimentConfig(
            surface="sheared_catenoid:1,0,0,0,1,0,0,0,2;2.5", integrand="ellipsoid:1,1,2",
            grid=96, domains=[(0, TWO_PI, -1, 1), (0, TWO_PI, -1.8, 1.8), (0, TWO_PI, -2.5, 2.5)],
        )).comparison_counts
        for c in counts:
            assert c["neg_L"] <= c["neg_Lgamma"]
        # the comparison count exceeds the default eigenvalue window; inertia
        # counts it without one (TestInertia covers the eigensolve's extension)
        assert counts[-1]["neg_Lgamma"] > spx.DEFAULT_EIG_COUNT

    def test_q_comparison_inequality(self, rng):
        patch = sf.fixture("catenoid", grid=(64, 64), v_extent=2.0)
        fld = sf.curvature_field(patch, E112)
        consts = ig.anisotropy_constants(E112, extra_normals=fld.normal.reshape(-1, 3))
        disc = spx.assemble(patch, E112, field=fld)
        w = (2.0 / consts.lambda_gamma**2) * (-fld.k_gamma)
        cmp_disc = spx.assemble(
            patch, E112, field=fld, potential_weight=w, isotropic_diffusion=True
        )
        free = np.flatnonzero(~disc.dirichlet_mask)
        for _ in range(100):
            x = np.zeros(disc.node_count)
            x[free] = rng.standard_normal(len(free))
            q = x @ (disc.stiffness - disc.potential) @ x
            qg = x @ (cmp_disc.stiffness - cmp_disc.potential) @ x
            assert q - consts.lambda_gamma * qg >= -1e-9 * (x @ disc.mass @ x)

    def test_coercivity_sandwich(self, rng):
        patch = sf.fixture("catenoid", grid=(48, 48), v_extent=1.5)
        fld = sf.curvature_field(patch, E112)
        consts = ig.anisotropy_constants(E112, extra_normals=fld.normal.reshape(-1, 3))
        disc = spx.assemble(patch, E112, field=fld)
        iso = spx.assemble(
            patch,
            E112,
            field=fld,
            potential_weight=np.zeros(patch.shape),
            isotropic_diffusion=True,
        )
        for _ in range(50):
            x = rng.standard_normal(disc.node_count)
            s = x @ disc.stiffness @ x
            s_iso = x @ iso.stiffness @ x
            assert consts.lambda_gamma * s_iso <= s + 1e-9
            assert s <= consts.Lambda_gamma * s_iso + 1e-9


CRITERION_11 = [
    ExperimentConfig(surface="catenoid:3", grid=56,
                     domains=[[0, TWO_PI, -1, 1], [0, TWO_PI, -2, 2], [0, TWO_PI, -2.8, 2.8]]),
    ExperimentConfig(surface="enneper:1.3", grid=56),
    ExperimentConfig(surface="sheared_catenoid:1,0,0,0,1,0,0,0,2;2",
                     integrand="ellipsoid:1,1,2", grid=56),
]


@pytest.fixture
def factorizations(monkeypatch):
    """Counts the factorizations the spectrum module makes; ARPACK's own
    shift-invert factorization raises."""
    def refuse(*args, **kwargs):
        raise AssertionError("ARPACK factored op - sigma mass itself")

    arpack = importlib.import_module("scipy.sparse.linalg._eigen.arpack.arpack")
    monkeypatch.setattr(arpack, "splu", refuse)
    made = []

    class CountingSpla:
        def __getattr__(self, name):
            return getattr(spla, name)

        def splu(self, *args, **kwargs):
            made.append(kwargs.get("permc_spec"))
            return spla.splu(*args, **kwargs)

    monkeypatch.setattr(spx, "spla", CountingSpla())
    return made


def dense_pencil(disc):
    idx = spx.interior_indices(disc)
    a, m = disc.operator[idx][:, idx].toarray(), disc.mass[idx][:, idx].toarray()
    return sla.eigh(a, m, eigvals_only=True)


class TestInertia:
    @pytest.mark.parametrize("config", CRITERION_11, ids=["catenoid", "enneper", "sheared"])
    def test_matches_eigensolve_count(self, config):
        ctx = RunContext(config)
        for disc in (ctx.disc, ctx.disc_cmp):
            for dom in ctx.domains:
                vals = spx.dirichlet_eigs(disc, spx.DEFAULT_EIG_COUNT, domain=dom)[0]
                expected = spx.negative_count(vals)
                shift = spx.ZERO_EIG_REL * float(np.max(np.abs(vals)))
                assert spx.inertia(disc, dom, shift=shift) == expected
                assert spx.guarded_negative_count(disc, spx.DEFAULT_EIG_COUNT, dom) == expected

    @pytest.mark.parametrize("matrix", [[[0, 1], [1, 0]], [[1, 0], [0, 0]],
                                        [[1, 1], [1, 1 + 1e-10]]],
                             ids=["pivots_off_diagonal", "singular", "tiny_pivot"])
    def test_untrusted_factor(self, matrix):
        # row pivoting, an exactly zero pivot, a pivot below ZERO_EIG_REL of its row
        assert spx._symmetric_factor(sp.csc_matrix(np.array(matrix, dtype=float))) == (None, None)

    def test_guard_falls_back_to_eigensolve(self, monkeypatch):
        # plane with constant potential weight q: eigenvalues mu_i - q, with
        # q tuned so that lambda_1 sits halfway into [-delta, 0)
        patch = sf.fixture("plane", grid=(32, 32))
        flat = spx.assemble(patch, C1, potential_weight=np.zeros(patch.shape))
        mu1 = spx.dirichlet_eigs(flat, 1, auto_extend=False)[0][0]
        idx = spx.interior_indices(flat)
        row_sum = np.asarray(abs(flat.operator[idx][:, idx]).sum(axis=1)).reshape(-1)
        delta = spx.ZERO_EIG_REL * 5.0 * np.max(row_sum / flat.lumped_mass[idx])
        disc = spx.assemble(patch, C1, potential_weight=np.full(patch.shape, mu1 + delta / 2))
        assert spx.inertia(disc) == 1
        assert spx.inertia(disc, shift=delta) == 0

        calls = []
        original = spx.dirichlet_eigs

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(spx, "dirichlet_eigs", counted)
        count = spx.guarded_negative_count(disc, spx.DEFAULT_EIG_COUNT)
        assert len(calls) == 1
        assert count == spx.negative_count(original(disc, spx.DEFAULT_EIG_COUNT)[0]) == 1

    def test_dirichlet_eigs_extends_past_window(self, factorizations):
        patch = sf.fixture(
            "sheared_catenoid", grid=(64, 64), shear=np.diag([1.0, 1.0, 2.0]), v_extent=2.5
        )
        fld = sf.curvature_field(patch, E112)
        consts = ig.anisotropy_constants(E112, extra_normals=fld.normal.reshape(-1, 3))
        disc = spx.comparison_assembly(fld, consts.lambda_gamma)
        vals = spx.dirichlet_eigs(disc, 12, domain=(0, TWO_PI, -2.5, 2.5))[0]
        assert len(vals) > 12
        assert spx.negative_count(vals) > 12
        # every widening of the window reuses the one shift-invert factor
        assert len(factorizations) == 1


class TestComparisonAssembly:
    def test_matches_weighted_isotropic_assembly(self):
        patch = sf.fixture(
            "sheared_catenoid", grid=(32, 24), shear=np.diag([1.0, 1.0, 2.0]), v_extent=2.0
        )
        fld = sf.curvature_field(patch, E112)
        lam = ig.anisotropy_constants(E112, extra_normals=fld.normal.reshape(-1, 3)).lambda_gamma
        got = spx.comparison_assembly(fld, lam)
        ref = spx.assemble(patch, E112, field=fld, potential_weight=(2.0 / lam**2) * (-fld.k_gamma),
                           isotropic_diffusion=True)
        for name in ("stiffness", "potential", "mass"):
            a, b = getattr(got, name), getattr(ref, name)
            for part in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(getattr(a, part), getattr(b, part), err_msg=name)


class TestShiftInvert:
    def test_arpack_matches_dense_above_cutoff(self, factorizations):
        patch = sf.fixture("catenoid", grid=(24, 22), v_extent=2.0)
        disc = spx.assemble(patch, C1)
        assert len(spx.interior_indices(disc)) == 480 > spx.DENSE_CUTOFF
        vals = spx.dirichlet_eigs(disc, 8)[0]
        ref = dense_pencil(disc)[:8]
        assert ref[0] < 0 < ref[1]
        np.testing.assert_allclose(vals, ref, rtol=1e-10, atol=1e-10 * np.max(np.abs(ref)))
        assert factorizations == ["MMD_AT_PLUS_A"]

    def test_shift_above_lambda1_is_lowered(self, factorizations):
        # a one-node potential spike: the diagonal estimate puts the first
        # shift at -0.6 q - 1, but the spike mode sits near -0.607 q
        patch = sf.fixture("plane", grid=(23, 23))
        weight = np.zeros(patch.shape)
        weight[11, 11] = 1e6
        disc = spx.assemble(patch, C1, potential_weight=weight)
        idx = spx.interior_indices(disc)
        assert len(idx) > spx.DENSE_CUTOFF
        first_shift = -np.max(disc.potential.diagonal()[idx] / disc.mass.diagonal()[idx]) - 1
        ref = dense_pencil(disc)
        assert ref[0] < first_shift < ref[1]
        vals = spx.dirichlet_eigs(disc, 6)[0]
        ref = ref[: len(vals)]
        np.testing.assert_allclose(vals, ref, rtol=1e-10, atol=1e-10 * np.max(np.abs(ref)))
        assert len(factorizations) == 2

    def test_unprovable_shift_fails_loudly(self, monkeypatch):
        disc = spx.assemble(sf.fixture("plane", grid=(32, 32)), C1)
        monkeypatch.setattr(spx, "_symmetric_factor", lambda a: (None, None))
        with pytest.raises(SolverFailure, match="no shift below the spectrum"):
            spx.dirichlet_eigs(disc, 4)


class TestJacobiFieldResidual:
    def test_plane_normal_axis_zero(self):
        disc = spx.assemble(sf.fixture("plane", grid=(32, 32)), C1)
        out = spx.jacobi_field_residual(disc, (0, 0, 1.0))
        assert out["relative_residual"] < 1e-12
        out_t = spx.jacobi_field_residual(disc, (1.0, 0, 0))
        assert out_t["relative_residual"] == 0.0

    @pytest.mark.parametrize("axis,plain", [((1e-320, 0, 0), (1.0, 0, 0)),
                                            ((1e308, 1e308, 0), (1.0, 1.0, 0))])
    def test_axis_scale_does_not_matter(self, axis, plain):
        # |axis|^2 underflows to zero or overflows to infinity
        disc = spx.assemble(sf.fixture("catenoid", grid=(32, 32), v_extent=2.0), C1)
        out = spx.jacobi_field_residual(disc, axis)["relative_residual"]
        assert out == spx.jacobi_field_residual(disc, plain)["relative_residual"]
        assert np.isfinite(out)

    def test_catenoid_second_order_decay(self):
        rels = []
        for n in (64, 128):
            patch = sf.fixture("catenoid", grid=(n, n), v_extent=2.0)
            out = spx.jacobi_field_residual(spx.assemble(patch, C1), (0, 0, 1.0))
            rels.append(out["relative_residual"])
        assert rels[1] < 1e-3
        assert rels[0] / rels[1] >= 3.0
