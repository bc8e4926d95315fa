import hashlib
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from anisolab import graph_solver as gs, integrand as ig, surface as sf
from anisolab.errors import EllipticityLoss
from anisolab.integrand import IntegrandSpec, gamma_hessians

C1 = ig.constant(1.0)
E112 = ig.ellipsoid(1, 1, 2)
SH = ig.spherical_harmonic(3, 1, 0.05)
SH2 = ig.spherical_harmonic(2, 0, 0.05)


def square_problem(spec, n=33, bc=None, **kw):
    return gs.GraphProblem(
        domain=(0.0, 1.0, 0.0, 1.0),
        shape=(n, n),
        boundary=bc or gs.bc_zero(),
        spec=spec,
        **kw,
    )


class TestResidual:
    def test_linear_functions_in_kernel(self):
        prob = square_problem(C1)
        X, Y = prob.node_coords()
        for spec in (C1, E112, SH):
            prob = square_problem(spec)
            r = gs.residual(0.4 * X - 1.1 * Y + 0.3, prob)
            # all second differences cancel up to roundoff amplified by 1/h^2
            assert np.max(np.abs(r)) < 1e-9

    def test_x_squared_closed_form(self):
        prob = square_problem(C1)
        X, _ = prob.node_coords()
        r = gs.residual(X**2, prob)
        p1 = -2 * X[1:-1, 1:-1]
        w = np.sqrt(1 + p1**2)
        closed = (1 - p1**2 / w**2) / w * 2  # gbar = |x| coefficient, times u_xx
        assert np.max(np.abs(r[1:-1, 1:-1] - closed)) < 1e-12
        assert np.min(r[1:-1, 1:-1]) > 0

    def test_catenoid_graph_second_order(self):
        # the exact catenoid height over an annular box satisfies the
        # classical equation; the stencil residual must shrink at O(h^2)
        errs = []
        for n in (65, 129, 257):
            prob = gs.GraphProblem(
                domain=(1.2, 2.0, -0.4, 0.4),
                shape=(n, n),
                boundary=gs.bc_catenoid(),
                spec=C1,
            )
            X, Y = prob.node_coords()
            u = np.arccosh(np.sqrt(X**2 + Y**2))
            errs.append(np.max(np.abs(gs.residual(u, prob))))
        assert np.log2(errs[0] / errs[1]) > 1.9
        assert np.log2(errs[1] / errs[2]) > 1.9

    def test_isotropic_reduction(self, rng):
        # for constant weight c the operator is c times the classical
        # minimal-surface operator, jet by jet
        for _ in range(100):
            ux, uy, uxx, uxy, uyy = rng.standard_normal(5)
            p = np.array([-ux, -uy, 1.0])
            for c in (1.0, 2.5):
                h = gamma_hessians(ig.constant(c), p)
                mine = h[0, 0] * uxx + 2 * h[0, 1] * uxy + h[1, 1] * uyy
                w2 = 1 + ux**2 + uy**2
                classical = (
                    (1 + uy**2) * uxx - 2 * ux * uy * uxy + (1 + ux**2) * uyy
                ) / w2**1.5
                assert mine == pytest.approx(c * classical, abs=1e-10)


def five_point_oracle(prob):
    """Harmonic extension by a sparse direct solve of the 5-point Laplacian."""
    u = prob.boundary_grid()
    nxi, nyi = prob.shape[0] - 2, prob.shape[1] - 2

    def second_difference(n, h):
        return sp.diags([np.ones(n - 1), -2 * np.ones(n), np.ones(n - 1)], [-1, 0, 1]) / h**2

    lap = (sp.kron(second_difference(nxi, prob.hx), sp.eye(nyi))
           + sp.kron(sp.eye(nxi), second_difference(nyi, prob.hy)))
    rhs = np.zeros((nxi, nyi))
    rhs[0, :] -= u[0, 1:-1] / prob.hx**2
    rhs[-1, :] -= u[-1, 1:-1] / prob.hx**2
    rhs[:, 0] -= u[1:-1, 0] / prob.hy**2
    rhs[:, -1] -= u[1:-1, -1] / prob.hy**2
    u[1:-1, 1:-1] = spla.spsolve(lap.tocsc(), rhs.ravel()).reshape(nxi, nyi)
    return u


class TestHarmonicSeed:
    @pytest.mark.parametrize("shape,domain", [
        ((17, 41), (0.0, 1.0, 0.0, 3.0)),
        ((40, 9), (-2.0, 5.0, 0.1, 0.2)),
    ])
    def test_matches_sparse_direct_solve(self, rng, monkeypatch, shape, domain):
        # non-square grids with hx != hy catch a swapped axis
        a = rng.standard_normal(6)
        prob = gs.GraphProblem(
            domain=domain, shape=shape, spec=C1,
            boundary=lambda x, y: a[0] * np.sin(a[1] * x + a[2] * y) + a[3] * np.cos(a[4] * x * y) + a[5],
        )
        expected = five_point_oracle(prob)

        def refuse(*args, **kwargs):
            raise AssertionError("the harmonic seed needs no factorization")

        monkeypatch.setattr(gs, "spla", type("NoSplu", (), {"splu": staticmethod(refuse)})())
        seed = gs.harmonic_extension(prob)
        assert np.max(np.abs(seed - expected)) <= 1e-13 * np.max(np.abs(expected))


def lexsort_stencil(shape):
    """CSR arrays (take, indices, indptr) of the interior 9-point operator
    on a grid of ``shape`` nodes, by a lexsort of its entries: the oracle
    for ``_Stencil``'s sort-free construction."""
    nxi, nyi = shape[0] - 2, shape[1] - 2
    n = nxi * nyi
    node = np.arange(n).reshape(nxi, nyi)
    ii, jj = np.indices((nxi, nyi))
    rows, cols, take = [], [], []
    for k, (di, dj) in enumerate(gs._OFFSETS):
        ni, nj = ii + di, jj + dj
        inner = (ni >= 0) & (ni < nxi) & (nj >= 0) & (nj < nyi)
        rows.append(node[inner])
        cols.append(ni[inner] * nyi + nj[inner])
        take.append(k * n + node[inner])
    rows, cols, take = (np.concatenate(a) for a in (rows, cols, take))
    order = np.lexsort((cols, rows))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    return take[order], cols[order], indptr


class TestStencil:
    # the stencil reads only the problem's shape, so grids below the
    # solver's 8x8 floor can be checked too
    @pytest.mark.parametrize("shape", [(5, 7), (7, 5), (65, 65), (129, 129)])
    def test_matches_lexsort_construction(self, shape):
        st = gs._Stencil(SimpleNamespace(shape=shape))
        for got, want in zip((st._take, st._indices, st._indptr), lexsort_stencil(shape)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_v_cycle_matches_column_major_sweeps(self, rng):
        # the row-major products and the product-free first sweep give the
        # bits of zero-start sweeps with column-major products; the solution
        # bits alone do not show this, as Picard steps absorb sub-ulp rounding
        prob = gs.GraphProblem(domain=(1.2, 2.0, -0.4, 0.4), shape=(65, 65),
                               boundary=gs.bc_catenoid(), spec=E112)
        mat = gs._Stencil(prob).matrix_at(gs.harmonic_extension(prob))
        csc, shape = mat.tocsc(), (63, 63)
        weight = gs.JACOBI_DAMPING / csc.diagonal()

        def coarse(rc):
            return 0.01 * rc

        def smooth(e, r):
            for _ in range(gs.JACOBI_SWEEPS):
                e = e + weight * (r - csc @ e)
            return e

        r = rng.standard_normal(csc.shape[0])
        e = smooth(np.zeros_like(r), r)
        rc = (r - csc @ e).reshape(shape)[1::2, 1::2]
        e += gs._refine(np.pad(coarse(rc.ravel()).reshape(rc.shape), 1))[1:-1, 1:-1].ravel()
        assert np.array_equal(gs._v_cycle(mat, shape, coarse)(r), smooth(e, r))


class TestGridTransfer:
    def test_refine_reproduces_cubics(self):
        # the 4-point midpoint rule is exact on cubics, at the ends too
        x, y = np.meshgrid(np.linspace(0, 1, 9), np.linspace(-1, 2, 12), indexing="ij")
        fx, fy = np.meshgrid(np.linspace(0, 1, 17), np.linspace(-1, 2, 23), indexing="ij")

        def cubic(x, y):
            return 1 - 2 * x + x**3 - 0.5 * x**2 * y + 0.3 * y**3 + x * y

        assert np.max(np.abs(gs._refine(cubic(x, y)) - cubic(fx, fy))) <= 1e-14


class TestSolve:
    def test_linear_data_converges_without_a_step(self):
        # the harmonic seed is exact for linear data: no Picard step is taken
        for spec in (C1, E112, SH):
            prob = square_problem(spec, bc=gs.bc_linear(0.3, -0.7, 0.2))
            sol = gs.solve(prob)
            assert sol.converged
            assert sol.iterations == 0
            assert sol.residual_linf <= 1e-12

    def test_catenoid_dirichlet_matches_analytic(self):
        prob = gs.GraphProblem(
            domain=(1.2, 2.0, -0.4, 0.4),
            shape=(129, 129),
            boundary=gs.bc_catenoid(),
            spec=C1,
        )
        sol = gs.solve(prob)
        assert sol.converged
        X, Y = prob.node_coords()
        exact = np.arccosh(np.sqrt(X**2 + Y**2))
        assert np.max(np.abs(sol.u - exact)) < 5e-4

    def test_anisotropic_sine_problem(self):
        prob = gs.GraphProblem(
            domain=(0.0, 1.0, 0.0, 1.0),
            shape=(97, 97),
            boundary=gs.bc_edge_sine(0.2, (0.0, 1.0, 0.0, 1.0)),
            spec=E112,
        )
        sol = gs.solve(prob)
        assert sol.converged
        f = sf.curvature_field(gs.lift(sol), E112)
        assert np.max(f.k_sigma) <= 1e-6

    def test_boundary_values_exact(self):
        prob = square_problem(E112, bc=gs.bc_linear(1.0, 2.0, 0.0))
        sol = gs.solve(prob)
        b = prob.boundary_grid()
        mask = np.zeros(prob.shape, dtype=bool)
        mask[0, :] = mask[-1, :] = True
        mask[:, 0] = mask[:, -1] = True
        assert np.array_equal(sol.u[mask], b[mask])

    def test_picard_monotone_residuals(self):
        prob = gs.GraphProblem(
            domain=(1.2, 2.0, -0.4, 0.4),
            shape=(65, 65),
            boundary=gs.bc_catenoid(),
            spec=C1,
        )
        sol = gs.solve(prob)
        assert sol.converged
        hist = sol.residual_history
        assert all(b < a for a, b in zip(hist, hist[1:]))

    def test_non_convergence_returns_data(self):
        prob = gs.GraphProblem(
            domain=(1.2, 2.0, -0.4, 0.4),
            shape=(33, 33),
            boundary=gs.bc_catenoid(),
            spec=C1,
            max_iter=1,
            tol=1e-14,
        )
        sol = gs.solve(prob)
        assert not sol.converged
        assert sol.status == "max_iter"
        assert sol.iterations == 1
        assert np.isfinite(sol.residual_linf)

    @pytest.mark.parametrize("spec, digest, iterations", [
        (C1, "5e7426b31a651ca8dea782bb5d2618d7c47008daf4d12429ce1e3fc36e48e099", 20),
        (E112, "2636e0af839f3bbf472bd353da38eeecb6b080dcdb72eac6c1d934aec85a51eb", 8),
    ])
    def test_catenoid_solution_bytes_pinned(self, spec, digest, iterations):
        sol = gs.solve(gs.GraphProblem(domain=(1.2, 2.0, -0.4, 0.4), shape=(65, 65),
                                       boundary=gs.bc_catenoid(), spec=spec))
        assert (sol.status, sol.iterations) == ("converged", iterations)
        assert hashlib.sha256(sol.u.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("spec, n, digest", [
        (C1, 129, "6e3582315b647cd5cc150be2055b6f1ef2cfe0cf5af0dc7a9e2881040f6fd928"),
        (C1, 257, "cddfe462286ad71a07887c706c3dd1e342f1d24f2952cf9b901bf06adf4737f4"),
        (E112, 129, "f44ed335d2c13156526b9d0f93604a6e390208c4aa3f2bd2035f9778a593aa81"),
    ])
    def test_nested_solution_bytes_pinned(self, spec, n, digest):
        # the solution bits of solves through two and three nested levels
        sol = gs.solve(gs.GraphProblem(domain=(1.2, 2.0, -0.4, 0.4), shape=(n, n),
                                       boundary=gs.bc_catenoid(), spec=spec))
        assert hashlib.sha256(sol.u.tobytes()).hexdigest() == digest

    def test_catenoid_grid_257_converges_on_reused_factor(self, monkeypatch):
        # at this grid the residual floor of a full re-solve sat above the
        # default tol; the correction form must get below it, and the
        # factorization must be reused across Picard steps
        factored = []

        class CountingSpla:
            def __getattr__(self, name):
                return getattr(spla, name)

            def splu(self, mat, *args, **kwargs):
                factored.append(mat.shape)
                return spla.splu(mat, *args, **kwargs)

        monkeypatch.setattr(gs, "spla", CountingSpla())
        prob = gs.GraphProblem(
            domain=(1.2, 2.0, -0.4, 0.4),
            shape=(257, 257),
            boundary=gs.bc_catenoid(),
            spec=C1,
        )
        sol = gs.solve(prob)
        assert sol.converged and sol.status == "converged"
        assert sol.residual_linf <= prob.tol
        X, Y = prob.node_coords()
        exact = np.arccosh(np.sqrt(X**2 + Y**2))
        assert np.max(np.abs(sol.u - exact)) <= 5e-4
        assert len(factored) == 1
        # the one factorization is the coarsest level's: 63x63 interior nodes
        assert factored[0] == (3969, 3969)

    @pytest.mark.parametrize("spec, n", [(C1, 129), (E112, 129), (SH2, 129), (C1, 257)])
    def test_nested_solve_matches_direct(self, monkeypatch, spec, n):
        # a nesting grid is solved after its coarse grids, with V-cycle
        # inverses; with no coarse level allowed it is solved alone
        prob = gs.GraphProblem(domain=(1.2, 2.0, -0.4, 0.4), shape=(n, n),
                               boundary=gs.bc_catenoid(), spec=spec)
        nested = gs.solve(prob)
        monkeypatch.setattr(gs, "MIN_COARSE_NODES", n)
        direct = gs.solve(prob)
        assert nested.converged and direct.converged
        assert np.max(np.abs(nested.u - direct.u)) <= 1e-12
        grids = [[m, m] for m in (65, 129, 257) if m <= n]
        assert [lv["grid"] for lv in nested.levels] == grids
        steps = {(C1, 129): [20, 13], (E112, 129): [8, 7], (SH2, 129): [18, 12],
                 (C1, 257): [20, 13, 12]}[spec, n]
        assert [lv["iterations"] for lv in nested.levels] == steps
        assert not any(lv["fell_back"] for lv in nested.levels)
        assert nested.levels[-1]["iterations"] == nested.iterations
        assert direct.levels == [{"grid": [n, n], "iterations": direct.iterations,
                                  "status": "converged", "fell_back": False}]

    def test_v_cycle_falls_back_to_factorization(self, monkeypatch):
        # steep edge data: the V-cycle step does not contract by
        # LAG_CONTRACTION, and the level switches to the direct factorization
        prob = square_problem(C1, n=129, bc=gs.bc_edge_sine(0.3, (0.0, 1.0, 0.0, 1.0)))
        nested = gs.solve(prob)
        monkeypatch.setattr(gs, "MIN_COARSE_NODES", 129)
        direct = gs.solve(prob)
        assert nested.status == direct.status == "converged"
        assert nested.residual_linf <= prob.tol
        assert [lv["fell_back"] for lv in nested.levels] == [False, True]
        # refreezing the V-cycle instead takes 57 steps here
        assert nested.iterations <= direct.iterations

    def test_converged_initial_guess_is_not_refactored(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("factored for an already converged start")

        monkeypatch.setattr(gs, "spla", type("NoSplu", (), {"splu": staticmethod(refuse)})())
        for spec, max_iter in ((C1, 0), (C1, 5), (E112, 5)):
            # linear functions are exact solutions for every integrand, and
            # the harmonic seed reproduces them
            prob = square_problem(spec, bc=gs.bc_linear(0.3, -0.7, 0.2), max_iter=max_iter)
            sol = gs.solve(prob)
            assert sol.converged and sol.status == "converged"
            assert sol.iterations == 0 and sol.residual_history == [sol.residual_linf]
            assert sol.residual_linf <= prob.tol
        # no step is taken, yet a degenerate integrand is still refused
        bad = square_problem(IntegrandSpec("ellipsoid", (1e-7, 1.0, 1.0)),
                             bc=gs.bc_linear(1.0, 0.0, 0.0))
        with pytest.raises(EllipticityLoss):
            gs.solve(bad)

    def test_stencil_built_only_to_factor(self, monkeypatch):
        built = []

        class Counted(gs._Stencil):
            def __init__(self, problem):
                built.append(problem)
                super().__init__(problem)

        monkeypatch.setattr(gs, "_Stencil", Counted)
        # the harmonic seed is exact for linear data: nothing is factored
        sol = gs.solve(square_problem(E112, bc=gs.bc_linear(0.3, -0.7, 0.2)))
        assert sol.converged and sol.iterations == 0
        assert built == []
        # a solve that steps builds its pattern once, however often it factors
        sol = gs.solve(gs.GraphProblem((1.2, 2.0, -0.4, 0.4), (33, 33), gs.bc_catenoid(), E112))
        assert sol.converged and sol.iterations > 1
        assert len(built) == 1

    def test_seed_within_tol_and_no_steps_is_converged(self):
        sol = gs.solve(square_problem(C1, max_iter=0))
        assert (sol.converged, sol.status, sol.iterations) == (True, "converged", 0)
        assert sol.residual_linf == 0.0

    def test_unreachable_tol_reports_stalled(self):
        prob = gs.GraphProblem(
            domain=(1.2, 2.0, -0.4, 0.4),
            shape=(65, 65),
            boundary=gs.bc_catenoid(),
            spec=C1,
            tol=1e-16,
        )
        sol = gs.solve(prob)
        assert not sol.converged
        assert sol.status == "stalled"
        assert sol.iterations < prob.max_iter
        hist = sol.residual_history
        assert all(b < a for a, b in zip(hist, hist[1:]))

    def test_ellipticity_guard(self):
        # a raw near-degenerate quadratic weight sneaks past no validation
        # here, and the coefficient matrix collapses: the solver must refuse
        bad = IntegrandSpec("ellipsoid", (1e-7, 1.0, 1.0))
        prob = square_problem(bad, bc=gs.bc_linear(1.0, 0.0, 0.0))
        with pytest.raises(EllipticityLoss):
            gs.solve(prob)

    def test_overflowing_heights_lose_ellipticity(self):
        # finite heights whose slopes overflow the coefficients to NaN
        # (quietly: RuntimeWarnings are errors under this suite's settings)
        for spec in (C1, SH):
            prob = square_problem(spec, n=9, bc=gs.bc_linear(1e200, 0.0, 0.0))
            with pytest.raises(EllipticityLoss):
                gs.solve(prob)

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            square_problem(C1, n=4)


class TestLift:
    def test_zero_solution_is_plane(self):
        prob = square_problem(C1)
        sol = gs.solve(prob)
        patch = gs.lift(sol)
        normals, _ = patch.normals()
        assert np.allclose(normals, [0.0, 0.0, 1.0], atol=1e-12)
        assert not patch.complete  # a bounded piece of a graph

    def test_linear_solution_tilted_normal(self):
        a, b = 0.5, -0.25
        prob = square_problem(C1, bc=gs.bc_linear(a, b, 0.1))
        sol = gs.solve(prob)
        patch = gs.lift(sol)
        normals, _ = patch.normals()
        expected = np.array([-a, -b, 1.0]) / np.sqrt(1 + a**2 + b**2)
        assert np.allclose(normals, expected, atol=1e-9)

    def test_metric_eigenvalue_bounds(self):
        prob = gs.GraphProblem(
            domain=(1.2, 2.0, -0.4, 0.4),
            shape=(65, 65),
            boundary=gs.bc_catenoid(),
            spec=C1,
        )
        patch = gs.lift(gs.solve(prob))
        ux, uy = patch.du[..., 2], patch.dv[..., 2]
        E, F, G = 1 + ux**2, ux * uy, 1 + uy**2
        det = E * G - F * F
        tr = (E + G) / det
        disc = np.sqrt(np.maximum(0.0, (0.5 * tr) ** 2 - 1.0 / det))
        emin, emax = 0.5 * tr - disc, 0.5 * tr + disc
        w2 = 1 + ux**2 + uy**2
        assert np.all(emin >= 1.0 / w2 - 1e-10)
        assert np.all(emax <= 1.0 + 1e-10)

    def test_hessian_curvature_estimate(self):
        prob = gs.GraphProblem(
            domain=(1.2, 2.0, -0.4, 0.4),
            shape=(65, 65),
            boundary=gs.bc_catenoid(),
            spec=C1,
        )
        patch = gs.lift(gs.solve(prob))
        f = sf.curvature_field(patch, C1)
        ux, uy = patch.du[..., 2], patch.dv[..., 2]
        hess2 = patch.duu[..., 2] ** 2 + 2 * patch.duv[..., 2] ** 2 + patch.dvv[..., 2] ** 2
        a2 = f.kappa1**2 + f.kappa2**2
        w2 = 1 + ux**2 + uy**2
        assert np.all(hess2 / w2**3 <= a2 * (1 + 1e-8))
        assert np.all(a2 <= hess2 / w2 * (1 + 1e-8))

    def test_lift_mean_curvature_at_solver_accuracy(self):
        # the jet identity ties tr(A S) on the lift to the solver residual
        prob = gs.GraphProblem(
            domain=(1.2, 2.0, -0.4, 0.4),
            shape=(65, 65),
            boundary=gs.bc_catenoid(),
            spec=E112,
        )
        sol = gs.solve(prob)
        assert sol.converged
        f = sf.curvature_field(gs.lift(sol), E112)
        assert np.max(np.abs(f.h_gamma)) <= 10 * sol.residual_linf
