import numpy as np
import pytest
import scipy.sparse.linalg as spla

from anisolab import graph_solver as gs, integrand as ig, surface as sf
from anisolab.errors import EllipticityLoss
from anisolab.integrand import IntegrandSpec, gamma_hessians

C1 = ig.constant(1.0)
E112 = ig.ellipsoid(1, 1, 2)
SH = ig.spherical_harmonic(3, 1, 0.05)


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

    def test_catenoid_grid_257_converges_on_reused_factor(self, monkeypatch):
        # at this grid the residual floor of a full re-solve sat above the
        # default tol; the correction form must get below it, and the
        # factorization must be reused across Picard steps
        factored = []

        class CountingSpla:
            def __getattr__(self, name):
                return getattr(spla, name)

            def splu(self, *args, **kwargs):
                factored.append(1)
                return spla.splu(*args, **kwargs)

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
        assert len(factored) <= 3

    def test_converged_initial_guess_is_not_refactored(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("factored for an already converged start")

        monkeypatch.setattr(gs, "spla", type("NoSplu", (), {"splu": staticmethod(refuse)})())
        for spec, max_iter in ((C1, 0), (C1, 5), (E112, 5)):
            # linear functions are exact solutions for every integrand
            prob = square_problem(spec, bc=gs.bc_linear(0.3, -0.7, 0.2), max_iter=max_iter)
            X, Y = prob.node_coords()
            sol = gs.solve(prob, u0=0.3 * X - 0.7 * Y + 0.2)
            assert sol.converged and sol.status == "converged"
            assert sol.iterations == 0 and sol.residual_history == [sol.residual_linf]
            assert sol.residual_linf <= prob.tol
        # no step is taken, yet a degenerate integrand is still refused
        bad = square_problem(IntegrandSpec("ellipsoid", (1e-7, 1.0, 1.0)),
                             bc=gs.bc_linear(1.0, 0.0, 0.0))
        with pytest.raises(EllipticityLoss):
            gs.solve(bad, u0=bad.node_coords()[0])

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

    def test_initial_guess_edges_take_boundary_data(self):
        prob = gs.GraphProblem(
            domain=(1.2, 2.0, -0.4, 0.4),
            shape=(33, 33),
            boundary=gs.bc_catenoid(),
            spec=E112,
        )
        u0 = gs.harmonic_extension(prob) + 0.3  # wrong on every edge node
        sol = gs.solve(prob, u0)
        assert sol.converged
        b = prob.boundary_grid()
        mask = np.ones(prob.shape, dtype=bool)
        mask[1:-1, 1:-1] = False
        assert np.array_equal(sol.u[mask], b[mask])
        # and the interior lands on the solution from the default seed
        assert np.max(np.abs(sol.u - gs.solve(prob).u)) <= 1e-9

    def test_ellipticity_guard(self):
        # a raw near-degenerate quadratic weight sneaks past no validation
        # here, and the coefficient matrix collapses: the solver must refuse
        bad = IntegrandSpec("ellipsoid", (1e-7, 1.0, 1.0))
        prob = square_problem(bad, bc=gs.bc_linear(1.0, 0.0, 0.0))
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
