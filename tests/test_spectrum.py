import importlib
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import dblquad

from anisolab import integrand as ig, spectrum as spx, surface as sf
from anisolab.errors import InvalidSpec, SolverFailure
from anisolab.harness import ExperimentConfig, RunContext, parse_surface, verify_bounds
from anisolab.spectrum import grid_faces

from conftest import stack2

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


def einsum_assemble(patch, spec, field, potential_weight=None, isotropic_diffusion=False):
    """(stiffness, potential, mass) by per-triangle einsums summed through
    COO, the independent oracle of the two-tile kernel of ``assemble``."""
    nu_, nv_ = patch.shape
    faces = grid_faces(nu_, nv_, patch.periodic_u)
    tiles = np.array([[[0, 0], [1, 0], [1, 1]], [[0, 0], [1, 1], [0, 1]]])
    pts = np.tile(tiles, (len(faces) // 2, 1, 1)) * np.array([patch.hu, patch.hv])
    p0, p1, p2 = pts[:, 0], pts[:, 1], pts[:, 2]
    d1, d2 = p1 - p0, p2 - p0
    signed2 = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    area = 0.5 * np.abs(signed2)
    edges = np.stack([p2 - p1, p0 - p2, p1 - p0], axis=1)
    grads = np.stack([-edges[..., 1], edges[..., 0]], axis=-1) / signed2[:, None, None]
    xu = patch.du.reshape(-1, 3)[faces].mean(axis=1)
    xv = patch.dv.reshape(-1, 3)[faces].mean(axis=1)
    raw = np.cross(xu, xv)
    jac = np.linalg.norm(raw, axis=1)
    nbar = patch.orientation * raw / jac[:, None]
    E, F, G = (np.einsum("ti,ti->t", a, b) for a, b in ((xu, xu), (xu, xv), (xv, xv)))
    if isotropic_diffusion:
        amat = stack2(E, F, G)
    else:
        amat = stack2(*ig.restrict2(ig.gamma_hessians(spec, nbar), xu, xv))
    det_g = E * G - F * F
    ginv = stack2(G / det_g, -F / det_g, E / det_g)
    coeff = np.einsum("tab,tbc,tcd->tad", ginv, amat, ginv) * jac[:, None, None]
    local_k = area[:, None, None] * np.einsum("tai,tij,tbj->tab", grads, coeff, grads)
    q = field.aniso_pairing if potential_weight is None else potential_weight
    jnode = field.jacobian.reshape(-1)
    local_p = np.einsum("tk,ijk->tij", (q.reshape(-1) * jnode)[faces], spx._P1_CUBIC)
    local_m = np.einsum("tk,ijk->tij", jnode[faces], spx._P1_CUBIC)
    n = nu_ * nv_
    rows = np.repeat(faces, 3, axis=1).reshape(-1)
    cols = np.tile(faces, (1, 3)).reshape(-1)

    def build(local):
        m = sp.csr_matrix((local.reshape(-1), (rows, cols)), shape=(n, n))
        return 0.5 * (m + m.T)

    return (build(local_k), build(local_p * area[:, None, None]),
            build(local_m * area[:, None, None]))


class TestAssembly:
    def test_plane_stiffness_is_flat_laplacian(self):
        patch = sf.fixture("plane", grid=(24, 24))
        disc = spx.assemble(patch, C1)
        ref = flat_laplace_reference(patch)
        assert abs(disc.stiffness - ref).max() < 1e-12
        assert disc.potential.nnz == 0

    @pytest.mark.parametrize("surface,spec,kwargs", [
        ("catenoid", E112, {}),
        ("enneper", C1, {}),
        ("enneper", E112, {"potential_weight": "random"}),
        ("catenoid", E112, {"isotropic_diffusion": True}),
    ], ids=["catenoid_ellipsoid", "enneper", "potential_weight", "isotropic"])
    def test_matches_einsum_oracle(self, rng, surface, spec, kwargs):
        patch = sf.fixture(surface, grid=(40, 33))
        if kwargs.get("potential_weight") == "random":
            kwargs = {"potential_weight": rng.standard_normal(patch.shape)}
        fld = sf.curvature_field(patch, spec)
        disc = spx.assemble(patch, spec, field=fld, **kwargs)
        for got, ref in zip((disc.stiffness, disc.potential, disc.mass),
                            einsum_assemble(patch, spec, fld, **kwargs)):
            np.testing.assert_array_equal(got.indptr, ref.indptr)
            np.testing.assert_array_equal(got.indices, ref.indices)
            assert np.max(np.abs(got.data - ref.data)) <= 1e-15 * np.max(np.abs(ref.data))
            assert (got != got.T).nnz == 0  # bitwise symmetric

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

    def test_dense_window_beyond_arpack(self, monkeypatch):
        # k >= n - 1 of a pencil's n eigenvalues are beyond ARPACK: all 4 of a
        # 4-node domain come from LAPACK on the restricted pencil
        def refuse(*args, **kwargs):
            raise AssertionError("ARPACK called for a window beyond its reach")

        monkeypatch.setattr(spx.spla, "eigsh", refuse)
        disc = spx.assemble(sf.fixture("plane", grid=8), C1)
        domain = (0.3, 0.7, 0.3, 0.7)
        idx = spx.interior_indices(disc, domain)
        assert len(idx) == 4
        vals, _, free = spx.dirichlet_eigs(disc, 12, domain)
        ref = sla.eigh(disc.operator[idx][:, idx].toarray(), disc.mass[idx][:, idx].toarray(),
                       eigvals_only=True)
        assert np.array_equal(free, idx)
        np.testing.assert_allclose(vals, ref, rtol=1e-12, atol=0)

    def test_empty_window_refused(self):
        disc = spx.assemble(sf.fixture("plane", grid=8), C1)
        with pytest.raises(ValueError, match="k >= 1"):
            spx.dirichlet_eigs(disc, 0)

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


def comparison_counts(config):
    """The guarded comparison counts of a configuration, also for an
    isotropic integrand, whose run context does not compute them."""
    ctx = RunContext(config)
    disc_cmp = spx.comparison_assembly(ctx.field, ctx.consts.lambda_gamma)
    return spx.comparison_operator_counts(disc_cmp, ctx.domains, ctx.spectral.morse_index)


class TestComparisonOperator:
    def test_plane_counts_zero(self):
        counts = comparison_counts(ExperimentConfig(
            surface="plane", grid=48,
            domains=[(0.2, 0.8, 0.2, 0.8), (0.1, 0.9, 0.1, 0.9), (0.0, 1.0, 0.0, 1.0)],
        ))
        assert all(c == {"neg_L": 0, "neg_Lgamma": 0} for c in counts)

    def test_round_weight_counts_coincide(self):
        # for the round integrand both operators carry the same potential
        counts = comparison_counts(ExperimentConfig(
            surface="catenoid:2", grid=96,
            domains=[(0, TWO_PI, -1, 1), (0, TWO_PI, -1.5, 1.5), (0, TWO_PI, -2, 2)],
        ))
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
        consts = ig.anisotropy_constants(E112, fld.a_tensor)
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
        consts = ig.anisotropy_constants(E112, fld.a_tensor)
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


@pytest.fixture
def shifts(monkeypatch, factorizations):
    """The shifts of the ARPACK solves the spectrum module makes."""
    seen = []

    def eigsh(*args, **kwargs):
        seen.append(kwargs["sigma"])
        return spla.eigsh(*args, **kwargs)

    monkeypatch.setattr(spx.spla, "eigsh", eigsh)
    return seen


@contextmanager
def general_path():
    """Declines the per-mode path, so the spectrum module runs its ARPACK and
    dense solves and its sparse factorizations: the oracle of that path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spx, "_mode_pencil", lambda *args: None)
        yield


def dense_pencil(disc):
    idx = spx.interior_indices(disc)
    a, m = disc.operator[idx][:, idx].toarray(), disc.mass[idx][:, idx].toarray()
    return sla.eigh(a, m, eigvals_only=True)


def assert_guard_falls_back(monkeypatch, patch, factorizations=None):
    """Constant potential weight q on the chart: eigenvalues mu_i - q, with q
    tuned so that lambda_1 sits halfway into [-delta, 0).  The guard must
    fall back to one eigensolve; given ``factorizations``, without factoring."""
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
    if factorizations is not None:
        factorizations.clear()
    count = spx.guarded_negative_count(disc, spx.DEFAULT_EIG_COUNT)
    if factorizations is not None:
        assert factorizations == []
    assert len(calls) == 1
    assert count == spx.negative_count(original(disc, spx.DEFAULT_EIG_COUNT)[0]) == 1


class TestInertia:
    @pytest.mark.parametrize("config", CRITERION_11, ids=["catenoid", "enneper", "sheared"])
    def test_matches_eigensolve_count(self, config):
        # the recount on a fresh assembly, which holds no certified window,
        # factors at the shift on every chart
        ctx, fresh = RunContext(config), RunContext(config)
        for disc, recount in ((ctx.disc, fresh.disc), (ctx.disc_cmp, fresh.disc_cmp)):
            for dom in ctx.domains:
                vals = spx.dirichlet_eigs(disc, spx.DEFAULT_EIG_COUNT, domain=dom)[0]
                expected = spx.negative_count(vals)
                shift = spx.ZERO_EIG_REL * float(np.max(np.abs(vals)))
                assert recount.certified == {}
                assert spx.inertia(recount, dom, shift=shift) == expected
                assert spx.guarded_negative_count(disc, spx.DEFAULT_EIG_COUNT, dom) == expected

    @pytest.mark.parametrize("matrix", [[[0, 1], [1, 0]], [[1, 0], [0, 0]],
                                        [[1, 1], [1, 1 + 1e-10]]],
                             ids=["pivots_off_diagonal", "singular", "tiny_pivot"])
    def test_untrusted_factor(self, matrix):
        # row pivoting, an exactly zero pivot, a pivot below ZERO_EIG_REL of its row
        a = sp.csc_matrix(np.array(matrix, dtype=float))
        assert spx._symmetric_factor(a, sp.identity(2, format="csc"), 0.0) == (None, None)

    def test_guard_falls_back_to_eigensolve(self, monkeypatch):
        assert_guard_falls_back(monkeypatch, sf.fixture("plane", grid=(32, 32)))

    def test_dirichlet_eigs_extends_past_window(self, factorizations):
        patch = sf.fixture(
            "sheared_catenoid", grid=(64, 64), shear=np.diag([1.0, 1.0, 2.0]), v_extent=2.5
        )
        fld = sf.curvature_field(patch, E112)
        consts = ig.anisotropy_constants(E112, fld.a_tensor)
        disc = spx.comparison_assembly(fld, consts.lambda_gamma)
        with general_path():
            vals = spx.dirichlet_eigs(disc, 12, domain=(0, TWO_PI, -2.5, 2.5))[0]
        assert len(vals) > 12
        assert spx.negative_count(vals) > 12
        # the count at 0 exceeds the window, so the factor at 0 is followed
        # by one below the spectrum, and every widening reuses that one
        assert len(factorizations) == 2


class TestComparisonAssembly:
    def test_matches_weighted_isotropic_assembly(self):
        patch = sf.fixture(
            "sheared_catenoid", grid=(32, 24), shear=np.diag([1.0, 1.0, 2.0]), v_extent=2.0
        )
        fld = sf.curvature_field(patch, E112)
        lam = ig.anisotropy_constants(E112, fld.a_tensor).lambda_gamma
        got = spx.comparison_assembly(fld, lam)
        ref = spx.assemble(patch, E112, field=fld, potential_weight=(2.0 / lam**2) * (-fld.k_gamma),
                           isotropic_diffusion=True)
        for name in ("stiffness", "potential", "mass"):
            a, b = getattr(got, name), getattr(ref, name)
            for part in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(getattr(a, part), getattr(b, part), err_msg=name)


    @pytest.mark.parametrize("surface,integrand,c", [
        ("enneper:1.3", "const:1", 1.0),
        ("enneper:1.3", "const:0.5", 0.5),
        ("catenoid:3", "const:3", 3.0),
        ("sheared_catenoid:1,0,0,0,1,0,0,0,1;2", "ellipsoid:1,1,1", 1.0),
        ("catenoid:3", "sh:2,0,0", 1.0),
    ])
    def test_isotropic_jacobi_is_c_times_comparison(self, surface, integrand, c):
        # why the verdict skips the comparison for gamma = c|nu|: on a
        # gamma-minimal surface L = c L_gamma, so it would compare L with itself
        spec = ig.parse_integrand(integrand)
        assert ig.is_isotropic(spec)
        patch = parse_surface(surface, 64)
        fld = sf.curvature_field(patch, spec)
        jacobi = spx.assemble(patch, spec, field=fld).operator
        diff = jacobi - c * spx.comparison_assembly(fld, c).operator
        assert abs(diff).max() <= 1e-13 * abs(jacobi).max()

    def test_isotropic_off_a_minimal_surface_differs_by_4h2(self):
        # on the sphere L - L_gamma is the potential 4H^2, not zero, so the
        # Jacobi counts are no stand-in for the comparison counts there
        patch = sf.fixture("sphere", grid=(64, 64))
        fld = sf.curvature_field(patch, C1)
        jacobi = spx.assemble(patch, C1, field=fld).operator
        diff = jacobi - spx.comparison_assembly(fld, 1.0).operator
        four_h2 = spx.assemble(patch, C1, field=fld, potential_weight=(fld.kappa1 + fld.kappa2) ** 2,
                               isotropic_diffusion=True).potential
        assert abs(diff + four_h2).max() <= 1e-13 * abs(jacobi).max()
        assert abs(diff).max() >= 1e-6 * abs(jacobi).max()


class TestShiftInvert:
    def test_arpack_matches_dense_above_cutoff(self, factorizations):
        patch = sf.fixture("catenoid", grid=(24, 22), v_extent=2.0)
        disc = spx.assemble(patch, C1)
        assert len(spx.interior_indices(disc)) == 480
        with general_path():
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
        assert len(idx) == 441
        first_shift = -np.max(disc.potential.diagonal()[idx] / disc.mass.diagonal()[idx]) - 1
        ref = dense_pencil(disc)
        assert ref[0] < first_shift < ref[1]
        vals = spx.dirichlet_eigs(disc, 6)[0]
        ref = ref[: len(vals)]
        np.testing.assert_allclose(vals, ref, rtol=1e-10, atol=1e-10 * np.max(np.abs(ref)))
        # the window about 0 misses the spike mode, so the certificate fails
        # and the descent factors twice
        assert len(factorizations) == 3

    def one_negative_pencil(self):
        """A catenoid pencil of 480 free nodes with one negative eigenvalue,
        and its dense spectrum."""
        disc = spx.assemble(sf.fixture("catenoid", grid=(24, 22), v_extent=2.0), C1)
        ref = dense_pencil(disc)
        assert len(ref) == 480 and ref[0] < 0 < ref[1]
        return disc, ref

    def test_solved_from_the_factor_at_zero(self, factorizations, shifts):
        disc, ref = self.one_negative_pencil()
        with general_path():
            vals = spx.dirichlet_eigs(disc, 8)[0]
        np.testing.assert_allclose(vals, ref[:8], rtol=1e-10, atol=1e-10 * np.max(np.abs(ref)))
        assert len(factorizations) == 1 and shifts == [0.0]

    def test_certificate_rejects_a_missing_negative(self, monkeypatch, factorizations, shifts):
        # about 0, the solver hands back the k + 1 nearest values less the lowest
        eigsh = spx.spla.eigsh

        def drops_lowest(a, k, **kwargs):
            if kwargs["sigma"] != 0.0:
                return eigsh(a, k, **kwargs)
            vals, vecs = eigsh(a, k + 1, **kwargs)
            keep = np.argsort(vals)[1:]
            return vals[keep], vecs[:, keep]

        monkeypatch.setattr(spx.spla, "eigsh", drops_lowest)
        disc, ref = self.one_negative_pencil()
        with general_path():
            vals = spx.dirichlet_eigs(disc, 8)[0]
        np.testing.assert_allclose(vals, ref[:8], rtol=1e-10, atol=1e-10 * np.max(np.abs(ref)))
        assert len(factorizations) == 2
        assert shifts[0] == 0.0 and shifts[1] < ref[0]

    def test_untrusted_factor_at_zero_falls_back(self, monkeypatch, factorizations, shifts):
        factor = spx._symmetric_factor
        monkeypatch.setattr(spx, "_symmetric_factor", lambda op, mass, sigma: (
            factor(op, mass, sigma) if sigma else (None, None)))
        disc, ref = self.one_negative_pencil()
        with general_path():
            vals = spx.dirichlet_eigs(disc, 8)[0]
        np.testing.assert_allclose(vals, ref[:8], rtol=1e-10, atol=1e-10 * np.max(np.abs(ref)))
        assert len(factorizations) == 1  # the descent's; the one at 0 was refused
        assert len(shifts) == 1 and shifts[0] < ref[0]

    def test_unprovable_shift_fails_loudly(self, monkeypatch):
        disc = spx.assemble(sf.fixture("plane", grid=(32, 32)), C1)
        monkeypatch.setattr(spx, "_symmetric_factor", lambda op, mass, sigma: (None, None))
        with pytest.raises(SolverFailure, match="no shift below the spectrum"):
            spx.dirichlet_eigs(disc, 4)


class TestVerdictWork:
    """Factorizations and ARPACK shifts of one verdict: a second factor per
    eigensolve or the descent's shift below the spectrum fails here."""

    @pytest.mark.parametrize("config,eigensolves,made", [
        (ExperimentConfig(surface="enneper:1.3", grid=48), 3, 3),
        (CRITERION_11[0], 0, 3),
        (CRITERION_11[2], 0, 3),
    ], ids=["enneper", "catenoid", "sheared"])
    def test_counts(self, config, eigensolves, made, factorizations, shifts):
        # enneper: 3 eigensolves, whose certified counts at 0 answer the
        # inertia checks, and no comparison counts for its isotropic
        # integrand; the catenoids solve per Fourier mode and count the
        # comparison operator per mode, so only the inertia checks factor
        verify_bounds(config)
        assert len(factorizations) == made
        assert shifts == [0.0] * eigensolves


class TestRecount:
    """Which recounts :func:`spx.inertia` takes from a window certified at
    sigma = 0 and which it factors, on enneper:1.3 at grid 48."""

    @staticmethod
    def solved():
        ctx = RunContext(ExperimentConfig(surface="enneper:1.3", grid=48))
        windows = [spx.dirichlet_eigs(ctx.disc, spx.DEFAULT_EIG_COUNT, domain=dom)[0]
                   for dom in ctx.domains]
        return ctx.disc, ctx.domains, windows

    def test_certified_window_answers(self, factorizations):
        disc, domains, windows = self.solved()
        factorizations.clear()
        for dom, vals in zip(domains, windows):
            assert spx.inertia(disc, dom, shift=spx.zero_threshold(vals)) == spx.negative_count(vals)
        assert factorizations == []

    def test_window_value_in_range_factors(self, factorizations):
        disc, domains, windows = self.solved()
        lam1 = windows[-1][0]
        assert -1.01 < lam1 < -1.008 and disc.certified[domains[-1]][0] == 1
        factorizations.clear()
        assert spx.inertia(disc, domains[-1], shift=1.5 * abs(lam1)) == 0
        assert len(factorizations) == 1

    def test_negative_shift_factors(self, factorizations):
        disc, domains, windows = self.solved()
        expected = int(np.sum(windows[-1] < 1.5))  # the window holds every value below 1.5
        assert expected > 1
        factorizations.clear()
        assert spx.inertia(disc, domains[-1], shift=-1.5) == expected
        assert len(factorizations) == 1

    def test_unsolved_domain_factors(self, factorizations):
        disc = self.solved()[0]
        dom = (-1.0, 1.0, -1.0, 1.0)
        factorizations.clear()
        count = spx.inertia(disc, dom)
        assert len(factorizations) == 1
        assert count == spx.negative_count(spx.dirichlet_eigs(disc, spx.DEFAULT_EIG_COUNT, dom)[0])

    def test_refused_factor_at_zero_leaves_no_record(self, monkeypatch, factorizations):
        factor = spx._symmetric_factor
        monkeypatch.setattr(spx, "_symmetric_factor", lambda op, mass, sigma: (
            factor(op, mass, sigma) if sigma else (None, None)))
        disc, domains, windows = self.solved()
        assert disc.certified == {}
        factorizations.clear()
        for dom, vals in zip(domains, windows):
            assert spx.inertia(disc, dom, shift=spx.zero_threshold(vals)) == spx.negative_count(vals)
        assert len(factorizations) == 3

    def test_row_maxima(self):
        # an explicit zero, rows whose largest |entry| is a negative entry, an empty row
        rows, cols = [0, 0, 1, 1, 2, 2], [0, 1, 0, 2, 1, 2]
        a = sp.csc_matrix(([2.0, -5.0, -5.0, 0.0, 0.5, -3.0], (rows, cols)), shape=(4, 4))
        assert a.nnz == 6
        np.testing.assert_array_equal(spx._row_abs_max(a), [5.0, 5.0, 3.0, 0.0])
        np.testing.assert_array_equal(spx._row_abs_max(a),
                                      abs(a).max(axis=1).toarray().reshape(-1))


def eigs_and_count(disc, dom, k=spx.DEFAULT_EIG_COUNT):
    """Eigenvalues and guarded count of one Dirichlet domain."""
    return spx.dirichlet_eigs(disc, k, domain=dom)[0], spx.guarded_negative_count(disc, k, dom)


def block_circulant(nu, b0, b1):
    """The symmetric matrix with blocks b0 on the block diagonal, b1 to the
    next u-row and b1^T to the one before it, mod nu."""
    shift = sp.csr_matrix(np.roll(np.eye(nu), 1, axis=1))
    a = (sp.kron(sp.eye(nu), b0) + sp.kron(shift, b1) + sp.kron(shift.T, b1.T)).tocsc()
    a.eliminate_zeros()  # kron stores whole blocks; an assembled pencil holds no zeros
    return a


def identity_mass_modes(a, nu):
    """The modes of ``a`` with the identity as mass."""
    diag, off, gap = spx._circulant_bands(a, nu)
    return spx._ModePencil(nu, diag, off, gap, np.ones_like(diag), np.zeros_like(off), 0.0,
                           solved={})


def random_blocks(rng, p):
    """A symmetric tridiagonal b0 and a full tridiagonal b1."""
    up = rng.standard_normal(p - 1)
    b0 = np.diag(rng.standard_normal(p)) + np.diag(up, 1) + np.diag(up, -1)
    b1 = sum(np.diag(rng.standard_normal(p - abs(d)), d) for d in (-1, 0, 1))
    return sp.csr_matrix(b0), sp.csr_matrix(b1)


class TestModeBands:
    """The Fourier split of a block-circulant matrix against its dense spectrum,
    with every stencil entry present (the grid's triangulation leaves one out)."""

    @pytest.mark.parametrize("nu", [5, 6])
    def test_modes_hold_the_spectrum(self, rng, nu):
        p = 4
        a = block_circulant(nu, *random_blocks(rng, p))
        modes = identity_mass_modes(a, nu)
        diag, off = modes.diag_a, modes.off_a
        assert modes.gap_a < 1e-15 * abs(a).max()
        vals = [np.linalg.eigvalsh(np.diag(diag[:, m]) + np.diag(off[:, m], 1)
                                   + np.diag(off[:, m].conj(), -1)) for m in range(diag.shape[1])]
        ref = np.linalg.eigvalsh(a.toarray())
        got = np.sort(np.concatenate([np.tile(v, w) for v, w in zip(vals, modes.weights)]))
        np.testing.assert_allclose(got, ref, atol=1e-12 * np.max(np.abs(ref)))
        identity = sp.identity(a.shape[0], format="csc")
        for sigma in (ref[3] - 1e-3, 0.0, ref[-2] + 1e-3):
            # the Sturm count and the sparse count, one convention, one oracle
            assert modes.count(sigma) == np.sum(ref < sigma)
            assert spx._symmetric_factor(a, identity, sigma)[1] == np.sum(ref < sigma)
        k = 7
        low, vecs = modes.lowest(k)
        np.testing.assert_allclose(low, ref[:k], atol=1e-12 * np.max(np.abs(ref)))
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(k), atol=1e-12)
        assert np.max(np.abs(a @ vecs - vecs * low)) < 1e-12 * np.max(np.abs(ref))

    def test_zero_pivot_is_not_trusted(self, rng):
        nu, p = 6, 4
        modes = identity_mass_modes(block_circulant(nu, *random_blocks(rng, p)), nu)
        sigma = modes.diag_a[0, 2]  # the first pivot of mode 2 is exactly zero
        counts = modes.counts(sigma)
        assert counts[2] == -1 and np.all(np.delete(counts, 2) >= 0)
        assert modes.count(sigma) is None

    @pytest.mark.parametrize("change", ["perturbed_row", "distance_two"])
    def test_declines_what_is_not_circulant(self, rng, change):
        nu, p = 6, 4
        a = block_circulant(nu, *random_blocks(rng, p)).tolil()
        if change == "perturbed_row":
            a[p + 1, p + 1] += 1e-10
        else:
            a[0, 2] = a[2, 0] = 1.0
        assert spx._circulant_bands(a.tocsc(), nu) is None


class TestModePath:
    """The per-mode path against the general path it stands in for."""

    def test_eigenvectors_mass_orthonormal(self, factorizations):
        disc = RunContext(ExperimentConfig(surface="catenoid:3", grid=48)).disc
        dom = (0, TWO_PI, -2, 2)
        vals, vecs, idx = spx.dirichlet_eigs(disc, spx.DEFAULT_EIG_COUNT, domain=dom)
        assert factorizations == []
        assert vecs.dtype == np.float64 and vecs.shape == (len(idx), len(vals))
        a, m = disc.operator[idx][:, idx], disc.mass[idx][:, idx]
        scale = np.max(np.abs(vals))
        assert np.max(np.abs(a @ vecs - (m @ vecs) * vals)) < 1e-10 * scale
        np.testing.assert_allclose(vecs.T @ m @ vecs, np.eye(len(vals)), atol=1e-12)
        again = spx.dirichlet_eigs(disc, spx.DEFAULT_EIG_COUNT, domain=dom)
        assert np.array_equal(vals, again[0]) and np.array_equal(vecs, again[1])

    @pytest.mark.parametrize("config", [CRITERION_11[0], CRITERION_11[2]],
                             ids=["catenoid", "sheared"])
    def test_matches_general_path(self, config, factorizations):
        ctx = RunContext(config)
        windows = []
        for disc in (ctx.disc, ctx.disc_cmp):
            for dom in ctx.domains:
                vals, count = eigs_and_count(disc, dom)
                assert factorizations == []
                with general_path():
                    ref, ref_count = eigs_and_count(disc, dom)
                factorizations.clear()
                assert len(vals) == len(ref)
                assert np.max(np.abs(vals - ref)) <= 1e-11 * np.max(np.abs(ref))
                assert spx.negative_count(vals) == spx.negative_count(ref) == count == ref_count
                windows.append(len(vals))
        if config is CRITERION_11[2]:  # the comparison window auto-extends
            assert max(windows) > spx.DEFAULT_EIG_COUNT

    @pytest.mark.parametrize("surface,integrand,domain", [
        ("catenoid:2", "const:1", (0, np.pi, -1.5, 1.5)),
        ("catenoid:2", "ellipsoid:1,2,1", None),
        ("catenoid:2", "sh:4,4,0.05", None),
        ("plane", "const:1", None),
    ], ids=["u_sub_interval", "ellipsoid_121", "sh_4_4", "not_periodic"])
    def test_declines(self, surface, integrand, domain, factorizations):
        disc = RunContext(ExperimentConfig(surface=surface, integrand=integrand, grid=40)).disc
        sparse = spx._SparsePencil(disc, domain)
        assert 4 < len(sparse.idx) - 1  # a window ARPACK solves
        assert spx._mode_pencil(disc, domain, sparse) is None
        spx.dirichlet_eigs(disc, 4, domain=domain)
        assert factorizations == ["MMD_AT_PLUS_A"]
        spx.guarded_negative_count(disc, 4, domain)
        assert len(factorizations) >= 2

    def test_guard_falls_back_to_eigensolve(self, monkeypatch, factorizations):
        # periodic twin of TestInertia's, counted by the modes' Sturm counts
        patch = sf.fixture("catenoid", grid=(32, 32), v_extent=2.0)
        assert_guard_falls_back(monkeypatch, patch, factorizations)


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
