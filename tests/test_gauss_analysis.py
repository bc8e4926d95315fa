import hashlib

import numpy as np
import pytest
from scipy.integrate import dblquad

from anisolab import gauss_analysis as ga, integrand as ig, surface as sf
from anisolab.cli import main
from anisolab.errors import AmbiguousWinding, GrazingCircle, NonDiscreteCriticalSet

from conftest import higher_order_enneper

C1 = ig.constant(1.0)
TWO_PI = 2 * np.pi
E3 = (0.0, 0.0, 1.0)
E1 = (1.0, 0.0, 0.0)


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
            catenoid_field.patch, C1, E3, fld=catenoid_field
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
            catenoid_field.patch, C1, E1, fld=catenoid_field
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
            pg = ga.pseudograph_extract(catenoid_field.patch, C1, axis, fld=catenoid_field)
            a = np.asarray(axis)
            for e in pg.edges:
                normals = catenoid_field.patch.normal_at(e.polyline)
                comp = np.abs(normals @ a)
                assert np.max(comp) < pg.band_tol
                assert np.max(np.arcsin(np.clip(comp, 0, 1))) < 2 * pg.band_tol

    def test_plane_constant_axis_empty(self):
        patch = sf.fixture("plane", grid=(32, 32))
        pg = ga.pseudograph_extract(patch, C1, E3)
        assert pg.degenerate and len(pg.edges) == 0
        euler = ga.euler_inequality_check(pg)
        assert euler == {"v": 0, "e": 0, "N": 1, "slack": 1, "degenerate": True}

    def test_plane_tangent_axis_grazes(self):
        patch = sf.fixture("plane", grid=(32, 32))
        with pytest.raises(GrazingCircle):
            ga.pseudograph_extract(patch, C1, E1)

    def test_branched_chart_vertex_on_nodal_set(self):
        patch = higher_order_enneper(2, grid=97)
        f = sf.curvature_field(patch, C1)
        pts = ga.critical_set(f)
        for p in pts:
            p.branch_order = ga.branch_order(patch, p)
        pg = ga.pseudograph_extract(patch, C1, E1, fld=f, critical_points=pts)
        assert len(pg.vertices) == 1
        assert ga.euler_inequality_check(pg)["slack"] >= 0
        # genus 0, one vertex of order 1: floor of two unstable directions
        assert ga.index_lower_bound(pg) == 2


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
         "d24d93cf17c62d6827cd67a634a7a40180523bbbfd88317ae52d814b94dd32d5"),
    ])
    def test_gauss_report_bytes_unchanged(self, tmp_path, args, digest):
        # digests of the reports the per-cell loop produced
        out = tmp_path / "g.json"
        assert main(["gauss", "--integrand", "const:1", *args, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestBoundArithmetic:
    def test_catenoid_lower_bound(self, catenoid_field):
        pg = ga.pseudograph_extract(catenoid_field.patch, C1, E3, fld=catenoid_field)
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
