import hashlib

import numpy as np
import pytest
from scipy.integrate import dblquad

from anisolab import gauss_analysis as ga, graph_solver as gs, integrand as ig, surface as sf
from anisolab.cli import main
from anisolab.errors import AmbiguousWinding, GrazingCircle, NonDiscreteCriticalSet
from anisolab.harness import accept_candidate

from conftest import higher_order_enneper, higher_order_enneper_jets, near_corner_enneper

C1 = ig.constant(1.0)
TWO_PI = 2 * np.pi
E3 = (0.0, 0.0, 1.0)
E1 = (1.0, 0.0, 0.0)


def graph_jets(height):
    """Jets of the graph z = f(x, y), ``height`` giving f and its derivatives
    (f, f_x, f_y, f_xx, f_xy, f_yy) on the node arrays."""

    def jets(U, V):
        f, fx, fy, fxx, fxy, fyy = np.broadcast_arrays(*height(U, V))
        zero, one = np.zeros_like(U), np.ones_like(U)
        return {
            "x": np.stack([U, V, f], axis=-1),
            "xu": np.stack([one, zero, fx], axis=-1),
            "xv": np.stack([zero, one, fy], axis=-1),
            "xuu": np.stack([zero, zero, fxx], axis=-1),
            "xuv": np.stack([zero, zero, fxy], axis=-1),
            "xvv": np.stack([zero, zero, fyy], axis=-1),
        }

    return jets


# z = x^3 y, whose K = -9x^4 / W^4 vanishes on the line x = 0
cubic_graph_jets = graph_jets(lambda x, y: (x**3 * y, 3 * x**2 * y, x**3, 6 * x * y, 3 * x**2, 0.0))


def flat_circle_jets(c: float):
    """z = (x^2 + y^2 - c)^3: flat on the circle of radius sqrt(c), where the
    Hessian vanishes, and umbilic at the origin."""

    def height(x, y):
        q = x**2 + y**2 - c
        return (q**3, 6 * x * q**2, 6 * y * q**2, 6 * q**2 + 24 * x**2 * q,
                24 * x * y * q, 6 * q**2 + 24 * y**2 * q)

    return graph_jets(height)


def stretched_enneper_jets(k: int):
    """The (1, z^k) chart mapped by diag(1, 1, 2): an ellipsoid:1,1,2-minimal
    surface (affine equivalence) with the same flat point of order k - 1."""
    base = higher_order_enneper_jets(k)
    return lambda U, V: {key: arr * np.array([1.0, 1.0, 2.0]) for key, arr in base(U, V).items()}


def composed_jets(k: int, zmap):
    """The (1, z^k) chart composed with z(u, v), linear in v: ``zmap`` gives
    (z, z_u, z_v, z_uu, z_uv) on the node arrays."""

    def jets(U, V):
        z, zu, zv, zuu, zuv = zmap(U, V)
        base = higher_order_enneper_jets(k)(z.real, z.imag)
        # a Weierstrass chart has X_x - i X_y = phi(z), so X_s = Re(phi z_s)
        phi = base["xu"] - 1j * base["xv"]
        dphi = base["xuu"] - 1j * base["xuv"]

        def re(a, b):
            return np.real(a * b[..., None])

        return {
            "x": base["x"],
            "xu": re(phi, zu),
            "xv": re(phi, zv),
            "xuu": re(dphi, zu**2) + re(phi, zuu),
            "xuv": re(dphi, zu * zv) + re(phi, zuv),
            "xvv": re(dphi, zv**2),
        }

    return jets


def seam_chart_jets(squeeze: float):
    """The (1, z^2) chart composed with z = -1/2 + (0.3 + 0.4 v) e^{i f(u)},
    f(u) = u - squeeze sin u: u is periodic, and the flat point z = 0 sits on
    the seam u = 0 at v = 1/2.  A squeeze near 1 packs nodes around the seam,
    so that the flat cluster holds nodes on both sides of it."""

    def zmap(U, V):
        f, df, ddf = U - squeeze * np.sin(U), 1 - squeeze * np.cos(U), squeeze * np.sin(U)
        e = np.exp(1j * f)
        r = 0.3 + 0.4 * V
        return -0.5 + r * e, 1j * df * r * e, 0.4 * e, (1j * ddf - df**2) * r * e, 0.4j * df * e

    return composed_jets(2, zmap)


def annulus_chart(k: int):
    """The (1, z^k) chart composed with z = 1/2 + v e^{iu}, u periodic,
    v in [0.2, 0.8]: its flat point z = 0 is the node (pi, 1/2), away from
    the seam and the edges."""

    def zmap(U, V):
        e = np.exp(1j * U)
        return 0.5 + V * e, 1j * V * e, e, -V * e, 1j * e

    return sf.from_jet(f"annulus_order_{k}", composed_jets(k, zmap),
                       (0.0, TWO_PI, 0.2, 0.8), (128, 65), periodic_u=True)


@pytest.fixture(scope="module")
def catenoid_field():
    patch = sf.fixture("catenoid", grid=(96, 96), v_extent=2.0)
    return sf.curvature_field(patch, C1)


@pytest.fixture(scope="module")
def wulff_sphere():
    return ig.wulff_mesh(C1, 4)


class TestCriticalSet:
    def test_catenoid_empty(self, catenoid_field):
        assert ga.critical_set(catenoid_field) == []

    def test_enneper_empty(self):
        f = sf.curvature_field(sf.fixture("enneper", grid=(96, 96), radius=1.3), C1)
        assert ga.critical_set(f) == []

    def test_plane_not_discrete(self):
        f = sf.curvature_field(sf.fixture("plane", grid=(32, 32)), C1)
        with pytest.raises(NonDiscreteCriticalSet):
            ga.critical_set(f)

    def test_branched_chart_finds_origin(self):
        f = sf.curvature_field(higher_order_enneper(2, grid=97), C1)
        pts = ga.critical_set(f)
        assert len(pts) == 1
        assert pts[0].location == pytest.approx((0.0, 0.0), abs=1e-12)
        # the certifying annulus really is regular
        assert pts[0].detection_radius > 0

    @pytest.mark.parametrize("k", [2, 3])
    def test_points_carry_branch_orders(self, k):
        f = sf.curvature_field(higher_order_enneper(k, grid=97), C1)
        assert [p.branch_order for p in ga.critical_set(f)] == [k - 1]

    @pytest.mark.parametrize("grid", [64, 65, 96, 128, 129, 257])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_branch_point_found_on_any_grid(self, k, grid):
        f = sf.curvature_field(higher_order_enneper(k, grid=grid), C1)
        points = ga.critical_set(f)
        assert [p.branch_order for p in points] == [k - 1]
        # odd grids have a node on the zero; even grids report a node next to it
        half = 0.0 if grid % 2 else 1.0 / (grid - 1)
        assert np.abs(points[0].location) == pytest.approx([half, half], abs=1e-12)

    @pytest.mark.parametrize("orientation", [1, -1])
    @pytest.mark.parametrize("grid", [129, 257])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_stretched_chart_with_its_integrand(self, k, grid, orientation):
        patch = sf.from_jet("stretched", stretched_enneper_jets(k), (-1.0, 1.0, -1.0, 1.0),
                            grid, orientation=orientation)
        (point,) = ga.critical_set(sf.curvature_field(patch, ig.parse_integrand("ellipsoid:1,1,2")))
        assert point.branch_order == k - 1
        assert point.location == pytest.approx((0.0, 0.0), abs=1e-12)
        assert point.nu == pytest.approx([0.0, 0.0, -orientation])

    def test_disagreeing_gauss_winding_fails_loudly(self, monkeypatch):
        f = sf.curvature_field(higher_order_enneper(3, grid=65), C1)
        monkeypatch.setattr(ga, "branch_order", lambda patch, point: point.branch_order - 1)
        with pytest.raises(AmbiguousWinding, match="wind differently"):
            ga.critical_set(f)

    @pytest.mark.parametrize("integrand", ["const:1", "ellipsoid:1,1,2"])
    def test_sine_graph_solution_empty(self, integrand):
        # |K| spans decades over the square; only zeros of the traceless curvature count
        spec = ig.parse_integrand(integrand)
        sol = gs.solve(gs.GraphProblem(domain=(0.0, 1.0, 0.0, 1.0), shape=(65, 65),
                                       boundary=gs.bc_edge_sine(0.2, (0.0, 1.0, 0.0, 1.0)),
                                       spec=spec))
        assert ga.critical_set(sf.curvature_field(gs.lift(sol), spec)) == []

    @pytest.mark.parametrize("integrand", ["const:1", "sh:4,4,0.05", "ellipsoid:1,1,2"])
    @pytest.mark.parametrize("grid", [65, 129])
    def test_quartic_graph_solution_flat_point(self, integrand, grid):
        # boundary heights 0.3 Re((x + iy)^4): the solution keeps the fourfold
        # symmetry, so its one flat point sits at the origin with order 2; the
        # lifted chart has no jets, so the winding reads interpolated normals
        spec = ig.parse_integrand(integrand)
        sol = gs.solve(gs.GraphProblem(
            domain=(-1.0, 1.0, -1.0, 1.0), shape=(grid, grid), spec=spec,
            boundary=lambda x, y: 0.3 * np.real((np.asarray(x) + 1j * np.asarray(y)) ** 4)))
        assert sol.converged
        patch = gs.lift(sol)
        assert patch.jet_fn is None
        (point,) = ga.critical_set(sf.curvature_field(patch, spec))
        assert point.location == pytest.approx((0.0, 0.0), abs=1e-12)
        assert point.branch_order == 2

    def test_sphere_empty(self):
        # all umbilic: the traceless curvature vanishes everywhere, and K > 0 at every node
        assert ga.critical_set(sf.curvature_field(sf.fixture("sphere", grid=64), C1)) == []

    @pytest.mark.parametrize("grid", [33, 65])
    def test_flat_line_not_isolated(self, grid):
        patch = sf.from_jet("cubic_graph", cubic_graph_jets, (-1.0, 1.0, -1.0, 1.0), grid)
        with pytest.raises(NonDiscreteCriticalSet,
                           match="turns on the patch boundary; no regular annulus"):
            ga.critical_set(sf.curvature_field(patch, C1))

    @pytest.mark.parametrize("c, grid", [(0.25, 64), (0.25, 65), (0.1, 65)])
    def test_flat_circle_not_isolated(self, c, grid):
        patch = sf.from_jet("circle", flat_circle_jets(c), (-1.0, 1.0, -1.0, 1.0), grid)
        with pytest.raises(NonDiscreteCriticalSet, match="no regular annulus"):
            ga.critical_set(sf.curvature_field(patch, C1))

    def test_flat_loop_around_periodic_chart_not_isolated(self):
        # z = sin(u) (v - 1/2)^3 over a periodic u is flat on the closed line v = 1/2
        jets = graph_jets(lambda u, v: (
            np.sin(u) * (v - 0.5)**3, np.cos(u) * (v - 0.5)**3, 3 * np.sin(u) * (v - 0.5)**2,
            -np.sin(u) * (v - 0.5)**3, 3 * np.cos(u) * (v - 0.5)**2, 6 * np.sin(u) * (v - 0.5)))
        patch = sf.from_jet("seam_line", jets, (0.0, TWO_PI, 0.0, 1.0), 33, periodic_u=True)
        with pytest.raises(NonDiscreteCriticalSet, match="every cell column"):
            ga.critical_set(sf.curvature_field(patch, C1))

    def test_unwinding_flat_point_refused(self):
        # z = (x^4 - y^4)/3 is flat at the origin, but its H != 0 and its traceless
        # curvature, about 4|z|^2, does not wind there: no branch order to report
        jets = graph_jets(lambda x, y: ((x**4 - y**4) / 3, 4 * x**3 / 3, -4 * y**3 / 3,
                                        4 * x**2, 0.0, -4 * y**2))
        patch = sf.from_jet("quartic", jets, (-1.0, 1.0, -1.0, 1.0), 65)
        with pytest.raises(NonDiscreteCriticalSet, match="does not wind"):
            ga.critical_set(sf.curvature_field(patch, C1))

    @pytest.mark.parametrize("squeeze, grid", [(0.0, 97), (0.0, 129), (0.95, 129), (0.95, 257)])
    def test_branch_point_on_periodic_seam(self, squeeze, grid):
        # the certifying circle and the winding loop cross the seam; with the
        # squeeze, the flat cluster takes nodes on both sides of it too
        patch = sf.from_jet("seam", seam_chart_jets(squeeze), (0.0, TWO_PI, 0.0, 1.0), grid,
                            periodic_u=True)
        (point,) = ga.critical_set(sf.curvature_field(patch, C1))
        assert point.location == pytest.approx((0.0, 0.5), abs=1e-12)
        assert point.branch_order == 1

    def test_point_without_annulus_not_discrete(self):
        # one node spacing from two edges: no regular circle fits around it
        f = sf.curvature_field(near_corner_enneper(), C1)
        with pytest.raises(NonDiscreteCriticalSet, match="no regular annulus"):
            ga.critical_set(f)


class TestBranchOrder:
    def test_regular_point_is_unbranched(self, catenoid_field):
        patch = catenoid_field.patch
        pt = ga.CriticalPoint(
            location=(np.pi, 0.5),
            nu=patch.normal_at(np.array([[np.pi, 0.5]]))[0],
            branch_order=0,
            detection_radius=0.2,
        )
        assert ga.branch_order(patch, pt) == 0

    @pytest.mark.parametrize("k", [2, 3])
    def test_higher_order_enneper(self, k):
        patch = higher_order_enneper(k, grid=97)
        f = sf.curvature_field(patch, C1)
        (pt,) = ga.critical_set(f)
        assert ga.branch_order(patch, pt) == k - 1

    def test_branching_additivity(self):
        # total branching computed by the winding probe matches the
        # Weierstrass construction exactly, chart by chart
        for k in (2, 3):
            patch = higher_order_enneper(k, grid=97)
            pts = ga.critical_set(sf.curvature_field(patch, C1))
            total = sum(ga.branch_order(patch, p) for p in pts)
            assert total == k - 1

    def test_coarse_sampling_fails_loudly(self):
        patch = higher_order_enneper(3, grid=97)
        (pt,) = ga.critical_set(sf.curvature_field(patch, C1))
        with pytest.raises(AmbiguousWinding):
            ga.branch_order(patch, pt, samples=4)

    def test_quarter_turn_steps_are_ambiguous(self):
        # order 2 around the exact zero: four samples step by a quarter turn each,
        # which a non-strict bound read as winding 1 (order 0); eight step by 3 pi/4
        patch = higher_order_enneper(3, grid=97)
        nu = patch.normal_at(np.array([[0.0, 0.0]]))[0]
        for radius in np.linspace(0.02, 0.40, 39):
            pt = ga.CriticalPoint((0.0, 0.0), nu, branch_order=0, detection_radius=radius)
            with pytest.raises(AmbiguousWinding):
                ga.branch_order(patch, pt, samples=4)
            assert ga.branch_order(patch, pt, samples=16) == 2


def rotation_to_pole(nu):
    """Rotation taking nu to +e3, so the projection pole -e3 is -nu."""
    nu = nu / np.linalg.norm(nu)
    c = float(nu[2])
    if c > 1.0 - 1e-14:
        return np.eye(3)
    if c < -1.0 + 1e-14:
        return np.diag([1.0, -1.0, -1.0])
    axis = np.cross(nu, [0.0, 0.0, 1.0])
    s = np.linalg.norm(axis)
    axis = axis / s
    kmat = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return np.eye(3) + s * kmat + (1 - c) * (kmat @ kmat)


def rotated_branch_order(patch, point, samples):
    """Branch order from the winding of the normals rotated so the center
    normal is +e3 and projected stereographically from -e3: the reading
    ``branch_order`` takes in the center's tangent frame, kept as its
    oracle.  None where the angular steps reach pi/2 at both samplings."""
    rot = rotation_to_pole(point.nu)
    uc, vc = point.location
    r = point.detection_radius
    for n in (samples, 2 * samples):
        theta = np.linspace(0, 2 * np.pi, n, endpoint=False)
        uv = np.stack([uc + r * np.cos(theta), vc + r * np.sin(theta)], axis=-1)
        normals = patch.normal_at(uv) @ rot.T
        w = normals[:, :2] / (1.0 + normals[:, 2])[:, None]
        ang = np.arctan2(w[:, 1], w[:, 0])
        steps = np.diff(np.concatenate([ang, ang[:1]]))
        steps = (steps + np.pi) % (2 * np.pi) - np.pi
        if np.max(np.abs(steps)) < 0.5 * np.pi:
            return abs(int(round(float(np.sum(steps)) / (2 * np.pi)))) - 1
    return None


class TestBranchOrderFrame:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_tangent_frame_matches_rotation_oracle(self, k):
        rng = np.random.default_rng(k)
        outcomes = []
        for orientation in (1, -1):
            patch = sf.from_jet(f"enneper_order_{k}", higher_order_enneper_jets(k),
                                (-1.0, 1.0, -1.0, 1.0), (65, 65), orientation=orientation)
            # the origin's normal is -e3 or +e3: the oracle's two special rotations
            centres = [(0.0, 0.0)] * 3 + [tuple(c) for c in rng.uniform(-0.5, 0.5, (20, 2))]
            for centre, radius in zip(centres, rng.uniform(0.05, 0.45, len(centres))):
                nu = patch.normal_at(np.array([centre]))[0]
                pt = ga.CriticalPoint(centre, nu, branch_order=0, detection_radius=radius)
                for samples in (4, 16, 64):
                    expected = rotated_branch_order(patch, pt, samples)
                    if expected is None:
                        with pytest.raises(AmbiguousWinding):
                            ga.branch_order(patch, pt, samples=samples)
                    else:
                        assert ga.branch_order(patch, pt, samples=samples) == expected
                    outcomes.append(expected)
        # the circles exercise both decisions and both windings
        assert {None, 0, k - 1} <= set(outcomes)


class TestDegrees:
    @pytest.mark.parametrize("v_extent", [2.0, 3.0])
    def test_catenoid_total_curvature(self, wulff_sphere, v_extent):
        f = sf.curvature_field(
            sf.fixture("catenoid", grid=(128, 128), v_extent=v_extent), C1
        )
        d = ga.degrees(f, wulff_sphere)
        assert d["raw_nu"] == pytest.approx(np.tanh(v_extent), rel=0.01)
        assert d["deg_nu"] == 1

    def test_enneper_truncated_total_curvature(self, wulff_sphere):
        # independent adaptive quadrature of the curvature integrand over
        # the truncated parameter square
        R = 1.3
        f = sf.curvature_field(sf.fixture("enneper", grid=(128, 128), radius=R), C1)
        d = ga.degrees(f, wulff_sphere)
        oracle, _ = dblquad(
            lambda v, u: 4.0 / (1 + u**2 + v**2) ** 2, -R, R, -R, R,
            epsabs=1e-10, epsrel=1e-10,
        )
        assert d["raw_nu"] == pytest.approx(oracle / (4 * np.pi), rel=0.01)
        assert d["deg_nu"] == 1  # rounding the truncated value still lands on 1

    def test_sphere_diagnostic_sign_flag(self, wulff_sphere):
        f = sf.curvature_field(sf.fixture("sphere", grid=(96, 96)), C1)
        d = ga.degrees(f, wulff_sphere)
        assert d["raw_nu"] == pytest.approx(-1.0, abs=0.01)
        assert d["sign_flipped"]

    def test_residues_shrink_with_truncation_and_grid(self, wulff_sphere):
        res = {}
        for v_extent in (2.0, 3.0, 4.0):
            for n in (64, 128):
                f = sf.curvature_field(
                    sf.fixture("catenoid", grid=(n, n), v_extent=v_extent), C1
                )
                res[(v_extent, n)] = ga.degrees(f, wulff_sphere)["residue_nu"]
        assert res[(3.0, 128)] < res[(2.0, 128)]
        assert res[(4.0, 128)] < res[(3.0, 128)]
        for v_extent in (2.0, 3.0, 4.0):
            assert res[(v_extent, 128)] < res[(v_extent, 64)]


class TestPseudograph:
    def test_catenoid_polar_axis(self, catenoid_field):
        pg = ga.pseudograph_extract(
            catenoid_field.patch, C1, E3, fld=catenoid_field, critical_points=[]
        )
        assert len(pg.edges) == 1
        assert pg.edges[0].closed
        assert pg.n_components_complement == 2
        assert pg.vertices == []
        # the loop sits on the waist
        assert np.max(np.abs(pg.edges[0].polyline[:, 1])) < 1e-10
        euler = ga.euler_inequality_check(pg)
        assert (euler["v"], euler["e"], euler["N"], euler["slack"]) == (1, 1, 2, 0)

    def test_catenoid_equatorial_axis(self, catenoid_field):
        pg = ga.pseudograph_extract(
            catenoid_field.patch, C1, E1, fld=catenoid_field, critical_points=[]
        )
        assert len(pg.edges) == 2
        assert not any(e.closed for e in pg.edges)
        assert pg.n_components_complement == 2
        # nodal lines are the u = pi/2 and u = 3 pi/2 meridians
        for e in pg.edges:
            spread = np.ptp(e.polyline[:, 0])
            assert spread < 1e-9
            assert min(
                abs(e.polyline[0, 0] - np.pi / 2), abs(e.polyline[0, 0] - 3 * np.pi / 2)
            ) < 0.07
        assert ga.euler_inequality_check(pg)["slack"] >= 0

    def test_nodal_great_circle_duality(self, catenoid_field):
        for axis in (E3, E1):
            pg = ga.pseudograph_extract(
                catenoid_field.patch, C1, axis, fld=catenoid_field, critical_points=[])
            a = np.asarray(axis)
            for e in pg.edges:
                normals = catenoid_field.patch.normal_at(e.polyline)
                comp = np.abs(normals @ a)
                assert np.max(comp) < pg.band_tol
                assert np.max(np.arcsin(np.clip(comp, 0, 1))) < 2 * pg.band_tol

    @pytest.mark.parametrize("with_vertices, counts, lower", [
        (False, (1, 1, 2, 0), 1),
        (True, (2, 2, 2, 0), 3),
    ], ids=["vertex_free", "through_vertices"])
    def test_catenoid_waist_loop(self, with_vertices, counts, lower):
        # the closed e3 nodal loop on the waist v = 0, through no vertex or
        # through two flat points of order 1, at u = pi and a tenth of a
        # spacing short of the seam
        patch = sf.fixture("catenoid", grid=(48, 25))
        f = sf.curvature_field(patch, C1)
        pts = [ga.CriticalPoint((u, 0.0), np.array([1.0, 0.0, 0.0]), 1, 0.1)
               for u in (np.pi, TWO_PI - 0.1 * patch.hu)] if with_vertices else []
        pg = ga.pseudograph_extract(patch, C1, E3, fld=f, critical_points=pts)
        assert len(pg.edges) == 1 and pg.edges[0].closed
        assert len(pg.vertices) == len(pts)
        euler = ga.euler_inequality_check(pg)
        assert (euler["v"], euler["e"], euler["N"], euler["slack"]) == counts
        assert ga.index_lower_bound(pg) == lower

    def test_plane_constant_axis_empty(self):
        patch = sf.fixture("plane", grid=(32, 32))
        pg = ga.pseudograph_extract(
            patch, C1, E3, fld=sf.curvature_field(patch, C1), critical_points=[])
        assert pg.degenerate and len(pg.edges) == 0
        euler = ga.euler_inequality_check(pg)
        assert euler == {"v": 0, "e": 0, "N": 1, "slack": 1, "degenerate": True}

    def test_plane_tangent_axis_grazes(self):
        patch = sf.fixture("plane", grid=(32, 32))
        with pytest.raises(GrazingCircle):
            ga.pseudograph_extract(
                patch, C1, E1, fld=sf.curvature_field(patch, C1), critical_points=[])

    def test_branched_chart_vertex_on_nodal_set(self):
        patch = higher_order_enneper(2, grid=97)
        f = sf.curvature_field(patch, C1)
        pts = ga.critical_set(f)  # with their branch orders
        pg = ga.pseudograph_extract(patch, C1, E1, fld=f, critical_points=pts)
        assert len(pg.vertices) == 1
        assert ga.euler_inequality_check(pg)["slack"] >= 0
        # genus 0, one vertex of order 1: floor of two unstable directions
        assert ga.index_lower_bound(pg) == 2

    @pytest.mark.parametrize("k", [2, 3])
    def test_interior_flat_point_on_periodic_chart(self, k):
        # the polar axis reads phi at the flat point through the periodic
        # interpolation; there g = 0 and phi = 1, so it is no vertex
        patch = annulus_chart(k)
        f = sf.curvature_field(patch, C1)
        assert accept_candidate(patch, C1, fld=f)["relative"] < 1e-12
        (point,) = ga.critical_set(f)
        assert point.location == pytest.approx((np.pi, 0.5), abs=1e-12)
        assert point.branch_order == k - 1
        assert ga._phi_at(patch, f.normal @ np.array(E3), point.location) == pytest.approx(1.0)
        pg = ga.pseudograph_extract(patch, C1, E3, fld=f, critical_points=[point])
        assert pg.vertices == []
        # the nodal set |z| = 1 is one arc with both ends on the edge v = 0.8
        assert len(pg.edges) == 1 and not pg.edges[0].closed
        assert pg.n_components_complement == 2


def march_per_cell(patch, phi):
    """Marching squares edge by edge and cell by cell: the loop that
    ``_march_zero_set`` vectorizes, kept as its oracle."""
    nu_, nv_ = patch.shape
    hu, hv = patch.hu, patch.hv
    us, vs = patch.u_samples(), patch.v_samples()
    ncells_u = nu_ if patch.periodic_u else nu_ - 1
    crossings = {}
    for i in range(ncells_u):
        for j in range(nv_):
            a, b = phi[i, j], phi[(i + 1) % nu_, j]
            if a * b < 0:
                t = a / (a - b)
                crossings[("u", i, j)] = np.array([us[i] + t * hu, vs[j]])
    for i in range(nu_):
        for j in range(nv_ - 1):
            a, b = phi[i, j], phi[i, j + 1]
            if a * b < 0:
                t = a / (a - b)
                crossings[("v", i, j)] = np.array([us[i], vs[j] + t * hv])

    segments = []
    for i in range(ncells_u):
        i1 = (i + 1) % nu_
        for j in range(nv_ - 1):
            bottom, top = ("u", i, j), ("u", i, j + 1)
            left, right = ("v", i, j), ("v", i1, j)
            ids = [e for e in (bottom, top, left, right) if e in crossings]
            if len(ids) == 2:
                segments.append((ids[0], ids[1]))
            elif len(ids) == 4:
                center = 0.25 * (phi[i, j] + phi[i1, j] + phi[i, j + 1] + phi[i1, j + 1])
                if (center > 0) == (phi[i, j] > 0):
                    segments += [(bottom, right), (top, left)]
                else:
                    segments += [(bottom, left), (top, right)]

    by_edge = {}
    for si, (ea, eb) in enumerate(segments):
        by_edge.setdefault(ea, []).append(si)
        by_edge.setdefault(eb, []).append(si)
    used = np.zeros(len(segments), dtype=bool)
    polylines = []
    for start in range(len(segments)):
        if used[start]:
            continue
        chain = list(segments[start])
        used[start] = True
        for end in (1, 0):
            while True:
                tip = chain[-1] if end == 1 else chain[0]
                nxt = [s for s in by_edge.get(tip, []) if not used[s]]
                if not nxt:
                    break
                used[nxt[0]] = True
                ea, eb = segments[nxt[0]]
                new = eb if ea == tip else ea
                if end == 1:
                    chain.append(new)
                else:
                    chain.insert(0, new)
        closed = len(chain) > 3 and chain[0] == chain[-1]
        if closed:
            chain = chain[:-1]
        polylines.append((np.array([crossings[e] for e in chain]), closed))
    return polylines


def assert_same_polylines(patch, phi):
    expected = march_per_cell(patch, phi)
    got = ga._march_zero_set(patch, phi)
    assert len(got) == len(expected)
    for (pts, closed), (ref, ref_closed) in zip(got, expected):
        assert closed == ref_closed
        assert np.array_equal(pts, ref)
    return got


class TestMarchZeroSet:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("fixture", ["catenoid", "plane"])
    def test_random_fields_match_per_cell_oracle(self, fixture, seed):
        patch = sf.fixture(fixture, grid=(19 + seed, 14 + 3 * seed))
        phi = np.random.default_rng(seed).standard_normal(patch.shape)
        polylines = assert_same_polylines(patch, phi)
        # the fields must exercise saddle cells and, when periodic, the seam
        sign = phi > 0
        saddle = ((sign[:-1, :-1] == sign[1:, 1:]) & (sign[1:, :-1] == sign[:-1, 1:])
                  & (sign[:-1, :-1] != sign[1:, :-1]))
        assert np.any(saddle)
        if patch.periodic_u:
            assert any(np.any(pts[:, 0] > patch.u_samples()[-1]) for pts, _ in polylines)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("fixture", ["catenoid", "plane"])
    def test_nodal_domains_are_sign_components(self, fixture, seed):
        # one count over the sign labels is the positive plus the negative
        # components; nodes planted at exact zero (label 0) join neither
        patch = sf.fixture(fixture, grid=(19 + seed, 14 + 3 * seed))
        rng = np.random.default_rng(seed)
        phi = rng.standard_normal(patch.shape)
        phi[rng.random(patch.shape) < 0.15] = 0.0
        assert np.any(phi == 0)
        joint = ga._components(np.sign(phi), patch.periodic_u)
        pos = ga._components(phi > 0, patch.periodic_u)
        neg = ga._components(phi < 0, patch.periodic_u)
        assert len(joint) == len(pos) + len(neg)
        by_first = sorted(pos + neg, key=lambda g: g[0])
        assert all(np.array_equal(g, h) for g, h in zip(joint, by_first))

    def test_seam_crossing_closes_loop(self):
        # a disc straddling u = 0 is one closed loop through the seam cells
        patch = sf.fixture("catenoid", grid=(24, 17))
        U, V = np.meshgrid(patch.u_samples(), patch.v_samples(), indexing="ij")
        du = np.abs(U - 0.3 * patch.hu)
        phi = 0.6 - np.hypot(np.minimum(du, TWO_PI - du), V)
        (pts, closed), = assert_same_polylines(patch, phi)
        assert closed
        assert np.any(pts[:, 0] > patch.u_samples()[-1])

    @pytest.mark.parametrize("axis", [E1, E3, (0.6, 0.0, 0.8)])
    def test_fixture_normal_fields_match_oracle(self, catenoid_field, axis):
        for patch in (catenoid_field.patch, higher_order_enneper(3, grid=97)):
            phi = patch.normals()[0] @ np.asarray(axis)
            assert_same_polylines(patch, phi + 1e-12 * np.max(np.abs(phi)))

    @pytest.mark.parametrize("args,digest", [
        (["--surface", "catenoid:2"],
         "38b7f39b3f8333160f2330c8e778efdfb4e59bf55ccb3fba6296e5ba8fce761e"),
        (["--surface", "enneper:1.3", "--axis", "1,0,0"],
         "7caebf84c929516c6f6839cf8ad08aa3bc0f25f934d5fd34ada054249f8004e9"),
        (["--surface", "plane"],
         "1076b33860c8030b1b35271cc3a4a73d58eaa028465a51a76fec9bf45b311293"),
    ])
    def test_gauss_report_bytes_unchanged(self, tmp_path, args, digest):
        # digests of the reports the per-cell loop produced
        out = tmp_path / "g.json"
        assert main(["gauss", "--integrand", "const:1", *args, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestBoundArithmetic:
    def test_catenoid_lower_bound(self, catenoid_field):
        pg = ga.pseudograph_extract(
            catenoid_field.patch, C1, E3, fld=catenoid_field, critical_points=[])
        assert ga.index_lower_bound(pg) == 1

    def test_reported_low_genus_values(self):
        # branching two on a genus-one surface and branching zero on a
        # genus-zero surface both force instability
        pg = ga.Pseudograph(
            vertices=[
                ga.CriticalPoint((0, 0), np.array([0, 0, 1.0]), 1, 0.1),
                ga.CriticalPoint((1, 0), np.array([0, 0, 1.0]), 1, 0.1),
            ],
            edges=[], n_components_complement=1, genus=1, band_tol=0.1,
            v_count=2, e_count=0,
        )
        assert ga.index_lower_bound(pg) == 1
        pg0 = ga.Pseudograph(
            vertices=[], edges=[], n_components_complement=2, genus=0,
            band_tol=0.1, v_count=1, e_count=1,
        )
        assert ga.index_lower_bound(pg0) == 1

    def test_two_disjoint_loops_euler_count(self):
        pg = ga.Pseudograph(
            vertices=[], edges=[
                ga.PseudographEdge(np.zeros((4, 2)), True),
                ga.PseudographEdge(np.zeros((4, 2)), True),
            ],
            n_components_complement=3, genus=0, band_tol=0.1,
            v_count=2, e_count=2,
        )
        euler = ga.euler_inequality_check(pg)
        assert (euler["v"], euler["e"], euler["N"], euler["slack"]) == (2, 2, 3, 1)

    def test_euler_violation_negative_slack(self):
        pg = ga.Pseudograph(
            vertices=[], edges=[ga.PseudographEdge(np.zeros((4, 2)), True)],
            n_components_complement=1, genus=0, band_tol=0.1,
            v_count=0, e_count=2,
        )
        assert ga.euler_inequality_check(pg)["slack"] < 0

    def test_riemann_hurwitz_fixtures(self, catenoid_field, wulff_sphere):
        d = ga.degrees(catenoid_field, wulff_sphere)
        assert ga.riemann_hurwitz_check(2, d["deg_nu"], []) == 0.0
        fe = sf.curvature_field(sf.fixture("enneper", grid=(96, 96), radius=1.3), C1)
        de = ga.degrees(fe, wulff_sphere)
        assert ga.riemann_hurwitz_check(2, de["deg_nu"], []) == 0.0

    def test_riemann_hurwitz_synthetic_double_cover(self):
        # a degree-two cover of the sphere with two simple branch points
        branch = [
            ga.CriticalPoint((0, 0), np.array([0, 0, 1.0]), 1, 0.1),
            ga.CriticalPoint((1, 1), np.array([0, 0, 1.0]), 1, 0.1),
        ]
        assert ga.riemann_hurwitz_check(2, 2, branch) == 0.0

    def test_riemann_hurwitz_detects_mismatch(self):
        assert ga.riemann_hurwitz_check(2, 2, []) == -2.0
