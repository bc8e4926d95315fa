"""Gauss-map analysis: critical set, branching, degrees, nodal pseudographs.

On a critical-point-free patch the Gauss map is a local diffeomorphism and
the normal component of any fixed direction has a regular zero set; marching
squares, with its segments chained by scipy's graph routines, traces it as an
embedded pseudograph whose combinatorics feed the index bounds.  Critical
points (flat points of the surface) are found where the traceless curvature
turns on the grid, and their branching is its winding, checked against the
winding of the Gauss map around them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import AmbiguousWinding, GrazingCircle, NonDiscreteCriticalSet
from .integrand import WulffMesh, tangent_frame, unit_vector
from .surface import CurvatureField, SurfacePatch, bilinear, grid_d1


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


def _components(labels: np.ndarray, periodic_u: bool) -> list[np.ndarray]:
    """Connected components (4-adjacency) of the nonzero entries of a node or
    cell label array, neighbours joined where their labels are equal, as
    sorted flat indices, ordered by their first entry."""
    ids = np.arange(labels.size).reshape(labels.shape)
    links = [(ids[:, :-1], ids[:, 1:]), (ids[:-1], ids[1:])]
    if periodic_u:  # nodes facing each other across the seam are adjacent
        links.append((ids[-1], ids[0]))
    src, dst = (np.concatenate([link[k].ravel() for link in links]) for k in (0, 1))
    flat = labels.ravel()
    join = (flat[src] == flat[dst]) & (flat[src] != 0)
    graph = sp.csr_matrix((np.ones(np.count_nonzero(join)), (src[join], dst[join])),
                          shape=(labels.size, labels.size))
    component = csgraph.connected_components(graph, directed=False)[1]
    idx = np.flatnonzero(labels)
    keys = component[idx]
    order = np.argsort(keys, kind="stable")
    groups = np.split(idx[order], np.flatnonzero(np.diff(keys[order])) + 1)
    return sorted((g for g in groups if len(g)), key=lambda g: g[0])


# ---------------------------------------------------------------------------
# critical set and branching
# ---------------------------------------------------------------------------

def critical_set(fld: CurvatureField) -> list[CriticalPoint]:
    """Isolated flat points of an accepted patch, with their branch orders.

    Psi, the complex traceless part of (AS + SA)/2 (A the weight tensor, S
    the shape operator), vanishes where H_gamma = 0 only at flat points and
    winds m times around one of branch order m.  Grid edges along which Psi
    vanishes or turns by pi/2 or more mark their cells; the marked cells
    grow to disjoint bounding boxes, one flat point each.  An unresolved
    patch boundary, a box Psi does not wind around, and a Gauss-map winding
    (:func:`branch_order`) that disagrees are errors, not answers.
    """
    patch, K = fld.patch, fld.k_sigma
    if not np.any(K):
        raise NonDiscreteCriticalSet("Gauss curvature vanishes identically")
    if np.all(K > 0):  # no flat point; Psi vanishes on umbilics such as the sphere's
        return []
    (a11, a12, a22), (s11, s12, s22) = fld.a_tensor, fld.shape_op
    psi = (a11 * s11 - a22 * s22) + 1j * ((a11 + a22) * s12 + a12 * (s11 + s22))
    # unresolved edges: Psi turns by pi/2 or more, vanishes at an end, or is NaN
    bad_u = ~(np.real(np.roll(psi, -1, axis=0) * np.conj(psi)) > 0)  # (i, j) -> (i + 1, j)
    bad_v = ~(np.real(psi[:, 1:] * np.conj(psi[:, :-1])) > 0)
    cells = bad_u[:, :-1] | bad_u[:, 1:] | bad_v | np.roll(bad_v, -1, axis=0)
    us, vs = patch.u_samples(), patch.v_samples()
    if patch.periodic_u:  # roll a clear cell column to the seam and cut the chart there
        clear = np.flatnonzero(~cells.any(axis=1))
        if not len(clear):
            raise NonDiscreteCriticalSet("flat points in every cell column; not isolated")
        psi, cells, us = (np.roll(a, -1 - clear[0], axis=0) for a in (psi, cells, us))
    cells = cells[:-1]  # the column across the seam: off the chart, or the clear one
    while True:  # grow the marked cells to bounding boxes until these are disjoint
        boxes, spans = np.zeros_like(cells), []
        for comp in _components(cells, False):
            i, j = np.divmod(comp, cells.shape[1])
            spans.append((i.min(), i.max() + 1, j.min(), j.max() + 1))
            boxes[i.min():i.max() + 1, j.min():j.max() + 1] = True
        if np.array_equal(boxes, cells):
            break
        cells = boxes
    points: list[CriticalPoint] = []
    for i0, i1, j0, j1 in spans:  # node rows i0..i1, columns j0..j1
        ring = np.concatenate([psi[i0:i1, j0], psi[i1, j0:j1], psi[i1:i0:-1, j1],
                               psi[i0, j1:j0:-1]])
        steps = np.roll(ring, -1) * np.conj(ring)
        if not np.all(steps.real > 0):  # only edges on the patch boundary can be unresolved
            raise NonDiscreteCriticalSet("the traceless curvature turns on the patch boundary; "
                                         "no regular annulus around its flat set")
        order = abs(round(float(np.sum(np.angle(steps))) / (2 * np.pi)))
        box = np.abs(psi[i0:i1 + 1, j0:j1 + 1])
        di, dj = np.unravel_index(np.nanargmin(box), box.shape)
        loc = (float(us[i0 + di]), float(vs[j0 + dj]))
        if order == 0:
            raise NonDiscreteCriticalSet(f"the traceless curvature vanishes near {loc} "
                                         "but does not wind there")
        # preimages of nu(loc) lie up to twice |loc - zero| away, so twice the farthest corner
        radius = 2.0 * float(np.hypot(max(di, i1 - i0 - di) * patch.hu,
                                      max(dj, j1 - j0 - dj) * patch.hv))
        point = CriticalPoint(loc, patch.normal_at(np.array([loc]))[0], order, radius)
        if branch_order(patch, point) != order:
            raise AmbiguousWinding(f"the Gauss map and the traceless curvature wind "
                                   f"differently around {loc}")
        points.append(point)
    return points


def branch_order(patch: SurfacePatch, point: CriticalPoint, samples: int = 64) -> int:
    """Covering multiplicity of the Gauss map around a point, minus one.

    The normal field along a small circle is read as an angle in the
    tangent frame of the center normal -- the angle stereographic
    projection from its antipode keeps -- and its winding number about the
    center is counted.  Negative curvature reverses orientation, so the
    magnitude of the winding is what counts.
    """
    uc, vc = point.location
    r = point.detection_radius
    u0, u1, v0, v1 = patch.domain
    if not (v0 + r <= vc <= v1 - r) or (
        not patch.periodic_u and not (u0 + r <= uc <= u1 - r)
    ):
        raise NonDiscreteCriticalSet(f"no regular annulus inside the patch around {point.location}")
    e1, e2 = tangent_frame(point.nu)
    for n in (samples, 2 * samples):
        theta = np.linspace(0, 2 * np.pi, n, endpoint=False)
        uv = np.stack([uc + r * np.cos(theta), vc + r * np.sin(theta)], axis=-1)
        normals = patch.normal_at(uv)
        ang = np.arctan2(normals @ e2, normals @ e1)
        steps = np.diff(np.concatenate([ang, ang[:1]]))
        steps = (steps + np.pi) % (2 * np.pi) - np.pi
        if np.max(np.abs(steps)) < 0.5 * np.pi:
            winding = int(round(float(np.sum(steps)) / (2 * np.pi)))
            return abs(winding) - 1
    raise AmbiguousWinding(
        f"angular steps exceed pi/2 with {2 * samples} samples around {point.location}"
    )


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
    genus: int = 0,
    *,
    fld: CurvatureField,
    critical_points: list[CriticalPoint],
) -> Pseudograph:
    """Trace the zero set of ``fld.normal @ unit_vector(axis)``, ``fld``
    being the curvature field of ``patch`` (``spec`` is not read).

    Sign changes on grid edges are interpolated linearly and joined into
    polylines by :func:`_march_zero_set`; the nodal domains are the sign
    components of the nodes.  The flat points of ``critical_points``, as
    :func:`critical_set` returns them, that sit inside the nodal band
    become vertices; vertex-free closed loops receive one artificial vertex
    and open boundary arcs two, so the Euler count is well-defined.
    """
    axis = unit_vector(axis)
    phi = fld.normal @ axis
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
    n_comp = len(_components(np.sign(phis), patch.periodic_u))

    vertices = [
        p for p in critical_points if abs(_phi_at(patch, phi, p.location)) <= band_tol
    ]

    edges: list[PseudographEdge] = []
    v_count = len(vertices)
    e_count = 0
    tol_dist = 2.0 * max(patch.hu, patch.hv)
    period = patch.domain[1] - patch.domain[0]
    for pts, closed in polylines:
        k = 0  # vertices the polyline passes through
        for vert in vertices:
            du = np.abs(pts[:, 0] - vert.location[0])
            if patch.periodic_u:  # the shorter way round the seam
                du = np.minimum(du, period - du)
            k += bool(np.min(np.hypot(du, pts[:, 1] - vert.location[1])) <= tol_dist)
        if closed:
            if k == 0:
                v_count += 1  # artificial vertex regularizing a vertex-free loop
                e_count += 1
            else:
                e_count += k
        else:
            v_count += 2  # artificial endpoints on the patch boundary
            e_count += k + 1
        edges.append(PseudographEdge(polyline=pts, closed=closed))

    return Pseudograph(
        vertices=vertices,
        edges=edges,
        n_components_complement=n_comp,
        genus=genus,
        band_tol=band_tol,
        v_count=v_count,
        e_count=e_count,
        degenerate=(len(edges) == 0),
    )


def _phi_at(patch: SurfacePatch, phi: np.ndarray, loc) -> float:
    return float(bilinear(patch, phi, np.array([loc], dtype=np.float64))[0])


def _march_zero_set(patch: SurfacePatch, phi: np.ndarray):
    """Marching-squares polylines of the zero level set on the node grid,
    as a list of (points, closed).

    Edge (i, j) -> (i + 1, j) has id i * nv + j (across the seam for the last
    row of a periodic patch); edge (i, j) -> (i, j + 1) has id
    n_u + i * (nv - 1) + j, n_u being the number of u-edges.  All of it is
    array work but one graph walk per polyline: each crossed cell, in C
    order, joins its two crossed edges (in bottom, top, left, right order)
    by a segment, a saddle cell its four by two, resolved by the center
    sign.  A crossing touches at most two segments, so each polyline is a
    connected component of the segment graph, walked from its first
    segment (a, b): forward from b, then backward from a.
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

    # per crossed cell: bottom, top, left and right edge
    sides = np.stack([cross_u[:, :-1], cross_u[:, 1:], cross_v[:ncells_u], cross_v[next_row]],
                     axis=-1)
    count = sides.sum(axis=-1)
    i, j = np.nonzero((count == 2) | (count == 4))
    i1 = next_row[i]
    ids = np.stack([i * nv_ + j, i * nv_ + j + 1,
                    n_u + i * (nv_ - 1) + j, n_u + i1 * (nv_ - 1) + j], axis=-1)
    crossed = sides[i, j]
    # two segments per cell: the crossed edges in side order, padded with -1
    cells = np.take_along_axis(np.where(crossed, ids, -1),
                               np.argsort(~crossed, axis=-1, kind="stable"), -1)
    # saddle cell: resolve by the center sign
    saddle = count[i, j] == 4
    center = 0.25 * (phi[i, j] + phi[i1, j] + phi[i, j + 1] + phi[i1, j + 1])
    near = (center > 0) == (phi[i, j] > 0)
    bottom, top, left, right = ids.T
    cells[saddle] = np.stack([bottom, np.where(near, right, left),
                              top, np.where(near, left, right)], -1)[saddle]
    segments = cells.reshape(-1, 2)
    segments = np.searchsorted(edge_ids, segments[segments[:, 0] >= 0])

    n = len(points)

    def graph(segs):
        return sp.csr_matrix((np.ones(len(segs)), segs.T), shape=(n, n))

    label = csgraph.connected_components(graph(segments), directed=False)[1]
    starts = np.sort(np.unique(label[segments[:, 0]], return_index=True)[1])
    rest = np.delete(segments, starts, axis=0)  # each polyline cut at its first segment
    rest = graph(np.concatenate([rest, rest[:, ::-1]]))
    walk = partial(csgraph.depth_first_order, rest, return_predecessors=False)
    polylines = []
    for a, b in segments[starts]:
        forward = walk(b)
        closed = bool(forward[-1] == a)
        chain = np.r_[a, forward[:-1]] if closed else np.r_[walk(a)[::-1], forward]
        polylines.append((points[chain], closed))
    return polylines


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
    slack = (pg.v_count - pg.e_count + pg.n_components_complement) - (2 - 2 * pg.genus)
    return {
        "v": pg.v_count,
        "e": pg.e_count,
        "N": pg.n_components_complement,
        "slack": pg.n_components_complement if pg.degenerate else int(slack),
        "degenerate": pg.degenerate,
    }
