"""Gauss-map analysis: critical set, branching, degrees, nodal pseudographs.

On a critical-point-free patch the Gauss map is a local diffeomorphism and
the normal component of any fixed direction has a regular zero set; tracing
that zero set cell by cell yields an embedded pseudograph whose combinatorics
feed the index bounds.  Critical points (flat points of the surface) are
detected as isolated clusters of numerically vanishing Gauss curvature and
their branching is read off the winding number of the Gauss map around the
cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import AmbiguousWinding, GrazingCircle, NonDiscreteCriticalSet
from .integrand import WulffMesh
from .surface import CurvatureField, SurfacePatch, bilinear, grid_d1

MAX_CLUSTER_DIAMETER = 5  # node spacings; larger clusters are not "isolated"


@dataclass
class CriticalPoint:
    location: tuple[float, float]
    nu: np.ndarray
    branch_order: int
    detection_radius: float


@dataclass
class PseudographEdge:
    polyline: np.ndarray          # (m, 2) parameter points
    closed: bool
    vertex_hits: list[int] = field(default_factory=list)  # indices into vertices


@dataclass
class Pseudograph:
    vertices: list[CriticalPoint]
    edges: list[PseudographEdge]
    n_components_complement: int
    genus: int
    band_tol: float
    v_count: int                  # after the closed-loop / open-arc conventions
    e_count: int
    degenerate: bool = False


def _components(mask: np.ndarray, periodic_u: bool) -> list[np.ndarray]:
    """Connected components (4-adjacency) of a boolean node mask, as sorted
    flat node indices, ordered by their first node."""
    ids = np.arange(mask.size).reshape(mask.shape)
    links = [(ids[:, :-1], ids[:, 1:], mask[:, :-1] & mask[:, 1:]),
             (ids[:-1], ids[1:], mask[:-1] & mask[1:])]
    if periodic_u:  # nodes facing each other across the seam are adjacent
        links.append((ids[-1], ids[0], mask[-1] & mask[0]))
    src = np.concatenate([a[m] for a, _, m in links])
    dst = np.concatenate([b[m] for _, b, m in links])
    graph = sp.coo_matrix((np.ones(len(src)), (src, dst)), shape=(mask.size, mask.size))
    labels = csgraph.connected_components(graph, directed=False)[1]
    idx = np.flatnonzero(mask)
    keys = labels[idx]
    order = np.argsort(keys, kind="stable")
    groups = np.split(idx[order], np.flatnonzero(np.diff(keys[order])) + 1)
    return sorted((g for g in groups if len(g)), key=lambda g: g[0])


# ---------------------------------------------------------------------------
# critical set and branching
# ---------------------------------------------------------------------------

def critical_set(fld: CurvatureField) -> list[CriticalPoint]:
    """Isolated flat-point clusters of an accepted patch, one point each.

    Clusters wider than a few node spacings mean the patch is planar or
    flat along a curve; that is an error, not an empty answer.
    """
    patch = fld.patch
    K = fld.k_sigma
    scale = float(np.max(np.abs(K)))
    if scale == 0.0:
        raise NonDiscreteCriticalSet("Gauss curvature vanishes identically")
    tol = 1e-5 * scale
    mask = np.abs(K) < tol
    clusters = _components(mask, patch.periodic_u)
    points: list[CriticalPoint] = []
    us, vs = patch.u_samples(), patch.v_samples()
    nu_, nv_ = patch.shape
    for nodes in clusters:
        iu, jv = nodes // nv_, nodes % nv_
        if patch.periodic_u:
            iu = _unwrap_indices(iu, nu_)
        du = (iu.max() - iu.min())
        dv = (jv.max() - jv.min())
        if max(du, dv) >= MAX_CLUSTER_DIAMETER:
            raise NonDiscreteCriticalSet(
                f"flat cluster spans {max(du, dv)} node spacings; not isolated"
            )
        uc = us[0] + float(iu.mean()) * patch.hu
        vc = float(vs[jv].mean())
        radius = 0.5 * max(du * patch.hu, dv * patch.hv) + 2.0 * max(patch.hu, patch.hv)
        radius = _certify_radius(patch, K, tol, (uc, vc), radius)
        nu_vec = patch.normal_at(np.array([[uc, vc]]))[0]
        points.append(
            CriticalPoint(
                location=(uc, vc), nu=nu_vec, branch_order=0, detection_radius=radius
            )
        )
    return points


def _unwrap_indices(iu: np.ndarray, nu_: int) -> np.ndarray:
    # cluster node u-indices may straddle the periodic seam
    iu = iu.copy()
    if iu.max() - iu.min() > nu_ // 2:
        iu[iu > nu_ // 2] -= nu_
    return iu


def _certify_radius(patch, K, tol, center, radius) -> float:
    for _ in range(8):
        theta = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        circle = np.stack(
            [center[0] + radius * np.cos(theta), center[1] + radius * np.sin(theta)],
            axis=-1,
        )
        vals = bilinear(patch, K, circle)
        if np.min(np.abs(vals)) >= tol:
            return radius
        radius *= 1.5
    raise NonDiscreteCriticalSet(
        "could not certify an annulus of regular points around a flat cluster"
    )


def branch_order(patch: SurfacePatch, point: CriticalPoint, samples: int = 64) -> int:
    """Covering multiplicity of the Gauss map around a point, minus one.

    The normal field along a small circle is rotated so the center normal
    faces the projection pole away from it, projected stereographically and
    its winding number about the center image read off.  Negative curvature
    reverses orientation, so the magnitude of the winding is what counts.
    """
    uc, vc = point.location
    r = point.detection_radius
    u0, u1, v0, v1 = patch.domain
    if not (v0 + r <= vc <= v1 - r) or (
        not patch.periodic_u and not (u0 + r <= uc <= u1 - r)
    ):
        raise ValueError("no regular annulus inside the patch around the point")
    rot = _rotation_to_pole(point.nu)
    for n in (samples, 2 * samples):
        theta = np.linspace(0, 2 * np.pi, n, endpoint=False)
        uv = np.stack([uc + r * np.cos(theta), vc + r * np.sin(theta)], axis=-1)
        normals = patch.normal_at(uv) @ rot.T
        w = normals[:, :2] / (1.0 + normals[:, 2])[:, None]
        ang = np.arctan2(w[:, 1], w[:, 0])
        steps = np.diff(np.concatenate([ang, ang[:1]]))
        steps = (steps + np.pi) % (2 * np.pi) - np.pi
        if np.max(np.abs(steps)) <= 0.5 * np.pi:
            winding = int(round(float(np.sum(steps)) / (2 * np.pi)))
            return abs(winding) - 1
    raise AmbiguousWinding(
        f"angular steps exceed pi/2 with {2 * samples} samples around {point.location}"
    )


def _rotation_to_pole(nu: np.ndarray) -> np.ndarray:
    """Rotation taking nu to +e3 (so the projection pole -e3 is -nu)."""
    nu = nu / np.linalg.norm(nu)
    target = np.array([0.0, 0.0, 1.0])
    c = float(nu @ target)
    if c > 1.0 - 1e-14:
        return np.eye(3)
    if c < -1.0 + 1e-14:
        return np.diag([1.0, -1.0, -1.0])
    axis = np.cross(nu, target)
    s = np.linalg.norm(axis)
    axis = axis / s
    kmat = np.array(
        [
            [0, -axis[2], axis[1]],
            [axis[2], 0, -axis[0]],
            [-axis[1], axis[0], 0],
        ]
    )
    return np.eye(3) + s * kmat + (1 - c) * (kmat @ kmat)


# ---------------------------------------------------------------------------
# degrees
# ---------------------------------------------------------------------------

def degrees(fld: CurvatureField, wulff: WulffMesh) -> dict:
    """Total-curvature degree proxies of the Gauss maps.

    Raw values are the curvature integrals scaled by the target areas; the
    rounded integers are reported next to their residues and never replace
    them -- truncated fixtures legitimately fall short of integrality.
    """
    raw_nu = fld.total_curvature() / (4.0 * np.pi)
    raw_nu_gamma = fld.total_aniso_curvature() / wulff.area
    deg_nu = int(round(raw_nu))
    deg_nu_gamma = int(round(raw_nu_gamma))
    return {
        "raw_nu": raw_nu,
        "raw_nu_gamma": raw_nu_gamma,
        "deg_nu": deg_nu,
        "deg_nu_gamma": deg_nu_gamma,
        "residue_nu": abs(raw_nu - deg_nu),
        "residue_nu_gamma": abs(raw_nu_gamma - deg_nu_gamma),
        "sign_flipped": bool(raw_nu < 0),
    }


# ---------------------------------------------------------------------------
# nodal pseudograph
# ---------------------------------------------------------------------------

def pseudograph_extract(
    patch: SurfacePatch,
    spec,
    axis,
    genus: int | None = None,
    fld: CurvatureField | None = None,
    critical_points: list[CriticalPoint] | None = None,
) -> Pseudograph:
    """Trace the zero set of the normal component along a fixed axis.

    Sign changes on grid edges are interpolated linearly and joined cell by
    cell into polylines.  Critical points sitting inside the nodal band
    become graph vertices; vertex-free closed loops receive one artificial
    vertex and open boundary arcs two, so the Euler count is well-defined.
    """
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    normals, _ = patch.normals()
    phi = normals @ axis
    scale = float(np.max(np.abs(phi)))
    gu = grid_d1(phi, patch.hu, 0, patch.periodic_u)
    gv = grid_d1(phi, patch.hv, 1, False)
    band_tol = 2.0 * max(patch.hu, patch.hv) * float(np.max(np.hypot(gu, gv)))
    if band_tol == 0.0:  # constant normal component: band degenerates
        band_tol = 1e-12 * max(scale, 1.0)
    if np.mean(np.abs(phi) < band_tol) > 0.20:
        raise GrazingCircle(
            f"axis {axis.tolist()} grazes the normal field: |phi| < {band_tol:.3e} "
            f"on {100 * np.mean(np.abs(phi) < band_tol):.0f}% of nodes"
        )
    # nudge exact zeros off the nodes so every crossing is a strict sign change
    phis = phi + 1e-12 * scale

    polylines = _march_zero_set(patch, phis)
    n_comp = _count_sign_components(patch, phis)

    if critical_points is None:
        try:
            critical_points = critical_set(fld) if fld is not None else []
        except NonDiscreteCriticalSet:
            critical_points = []
    vertices = [
        p for p in critical_points if abs(_phi_at(patch, phi, p.location)) <= band_tol
    ]

    edges: list[PseudographEdge] = []
    v_count = len(vertices)
    e_count = 0
    tol_dist = 2.0 * max(patch.hu, patch.hv)
    period = patch.domain[1] - patch.domain[0]
    for pts, closed in polylines:
        hits = []
        for vi, vert in enumerate(vertices):
            du = np.abs(pts[:, 0] - vert.location[0])
            if patch.periodic_u:  # the shorter way round the seam
                du = np.minimum(du, period - du)
            if np.min(np.hypot(du, pts[:, 1] - vert.location[1])) <= tol_dist:
                hits.append(vi)
        k = len(hits)
        if closed:
            if k == 0:
                v_count += 1  # artificial vertex regularizing a vertex-free loop
                e_count += 1
            else:
                e_count += k
        else:
            v_count += 2  # artificial endpoints on the patch boundary
            e_count += k + 1
        edges.append(PseudographEdge(polyline=pts, closed=closed, vertex_hits=hits))

    return Pseudograph(
        vertices=vertices,
        edges=edges,
        n_components_complement=n_comp,
        genus=patch.genus if genus is None else genus,
        band_tol=band_tol,
        v_count=v_count,
        e_count=e_count,
        degenerate=(len(edges) == 0),
    )


def _phi_at(patch: SurfacePatch, phi: np.ndarray, loc) -> float:
    return float(bilinear(patch, phi, np.array([loc], dtype=np.float64))[0])


def _march_zero_set(patch: SurfacePatch, phi: np.ndarray):
    """Marching-squares polylines of the zero level set on the node grid.

    Edge (i, j) -> (i + 1, j) has id i * nv + j (across the seam for the last
    row of a periodic patch); edge (i, j) -> (i, j + 1) has id
    n_u + i * (nv - 1) + j, n_u being the number of u-edges.  Crossings are
    found and interpolated as arrays; only cells with crossing edges are
    visited one by one, in C order.
    """
    nu_, nv_ = patch.shape
    us, vs = patch.u_samples(), patch.v_samples()
    ncells_u = nu_ if patch.periodic_u else nu_ - 1
    next_row = np.arange(1, ncells_u + 1) % nu_

    a_u, b_u = phi[:ncells_u], phi[next_row]
    a_v, b_v = phi[:, :-1], phi[:, 1:]
    cross_u, cross_v = a_u * b_u < 0, a_v * b_v < 0
    iu, ju = np.nonzero(cross_u)
    iv, jv = np.nonzero(cross_v)
    t_u = a_u[iu, ju] / (a_u[iu, ju] - b_u[iu, ju])
    t_v = a_v[iv, jv] / (a_v[iv, jv] - b_v[iv, jv])
    points = np.concatenate([
        np.stack([us[iu] + t_u * patch.hu, vs[ju]], axis=-1),
        np.stack([us[iv], vs[jv] + t_v * patch.hv], axis=-1),
    ])
    n_u = cross_u.size
    edge_ids = np.concatenate([np.flatnonzero(cross_u), n_u + np.flatnonzero(cross_v)])

    # per cell: bottom, top, left and right edge
    sides = (cross_u[:, :-1], cross_u[:, 1:], cross_v[:ncells_u], cross_v[next_row])
    count = sum(s.astype(np.int8) for s in sides)
    segments: list[tuple[int, int]] = []
    for i, j in zip(*(x.tolist() for x in np.nonzero((count == 2) | (count == 4)))):
        i1 = (i + 1) % nu_
        bottom, top = i * nv_ + j, i * nv_ + j + 1
        left, right = n_u + i * (nv_ - 1) + j, n_u + i1 * (nv_ - 1) + j
        if count[i, j] == 2:
            ids = [e for e, s in zip((bottom, top, left, right), sides) if s[i, j]]
            segments.append((ids[0], ids[1]))
            continue
        # saddle cell: resolve by the center sign
        center = 0.25 * (phi[i, j] + phi[i1, j] + phi[i, j + 1] + phi[i1, j + 1])
        if (center > 0) == (phi[i, j] > 0):
            segments.append((bottom, right))
            segments.append((top, left))
        else:
            segments.append((bottom, left))
            segments.append((top, right))

    by_edge: dict[int, list[int]] = {}
    for si, (ea, eb) in enumerate(segments):
        by_edge.setdefault(ea, []).append(si)
        by_edge.setdefault(eb, []).append(si)

    used = np.zeros(len(segments), dtype=bool)
    polylines = []
    for start in range(len(segments)):
        if used[start]:
            continue
        chain = [segments[start][0], segments[start][1]]
        used[start] = True
        # extend forward then backward
        for end in (1, 0):
            while True:
                tip = chain[-1] if end == 1 else chain[0]
                nxt = [s for s in by_edge.get(tip, []) if not used[s]]
                if not nxt:
                    break
                s = nxt[0]
                used[s] = True
                ea, eb = segments[s]
                new = eb if ea == tip else ea
                if end == 1:
                    chain.append(new)
                else:
                    chain.insert(0, new)
        closed = len(chain) > 3 and chain[0] == chain[-1]
        if closed:
            chain = chain[:-1]
        pts = points[np.searchsorted(edge_ids, chain)]
        polylines.append((pts, closed))
    return polylines


def _count_sign_components(patch: SurfacePatch, phi: np.ndarray) -> int:
    pos = _components(phi > 0, patch.periodic_u)
    neg = _components(phi < 0, patch.periodic_u)
    return len(pos) + len(neg)


# ---------------------------------------------------------------------------
# bound arithmetic
# ---------------------------------------------------------------------------

def index_lower_bound(pg: Pseudograph) -> int:
    """Total branching over the pseudograph vertices, plus one, minus twice
    the genus -- the instability floor read off the nodal structure."""
    return sum(p.branch_order for p in pg.vertices) + 1 - 2 * pg.genus


def riemann_hurwitz_check(
    euler_char: int, deg_nu: int, branch_points: list[CriticalPoint]
) -> float:
    """Defect of the branched-covering Euler count; zero for a genuine cover."""
    return float(euler_char - 2 * deg_nu + sum(p.branch_order for p in branch_points))


def euler_inequality_check(pg: Pseudograph) -> dict:
    """Vertices minus edges plus complement components against the genus bound;
    a negative slack is a violation, for the caller to report.

    An empty pseudograph carries no obstruction; it is reported with the
    degenerate flag and its complement count as vacuous slack.
    """
    if pg.degenerate:
        return {
            "v": pg.v_count,
            "e": pg.e_count,
            "N": pg.n_components_complement,
            "slack": pg.n_components_complement,
            "degenerate": True,
        }
    slack = (pg.v_count - pg.e_count + pg.n_components_complement) - (2 - 2 * pg.genus)
    return {
        "v": pg.v_count,
        "e": pg.e_count,
        "N": pg.n_components_complement,
        "slack": int(slack),
        "degenerate": False,
    }
