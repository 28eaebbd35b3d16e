"""Independent brute-force oracles used by the tests.

Everything here is deliberately written from scratch (no imports from cvmesh
beyond plain numpy) so the checks stay independent of the code paths they
verify: direct circumcircle/circumsphere scans, half-plane-intersection
Voronoi cells, a two-variable Newton solve for equal-power points, a
hand-rolled Gaussian elimination, one-face, one-vertex-at-a-time loops
for the 3D cell clipping, face-loop ordering, containment, volume, simplex
matching and perpendicularity that cvmesh computes as array code over whole
cells, the one-cell-at-a-time 2D cell assembly and perpendicularity loop
that cvmesh runs over one stack of rings, the star and ghost rows of a 3D
cell one facet at a time, the power-bisector clip of the domain that built
hull cells before they closed through ghost simplices
(`bisector_cell2`, `bisector_cell3`), the one-candidate-at-a-time
rejection loop that cvmesh's point
generator runs in blocks over a background grid, the artifact writers with
one Python call per number, and the point-, facet- and pair-at-a-time loops
behind duplicate detection, simplex adjacency and overlap labels.

`bowyer_watson_scan` is the Delaunay kernel that tested every live simplex
for each new point before cvmesh walked to the point and searched its
cavity; it imports from cvmesh, sharing its exact integer predicates and
finishing passes, which both kernels run.

`incircle_filter_permanent` and `insphere_filter_permanent` are the
kernel's in-circle and in-sphere float filters as they were before a static
bound, fixed by the input's extent, came first: every test against the
bound of its own permanent.

`rosenbrock_sequential` is the polish loop that tried one trial point at a
time before cvmesh evaluated each sweep's remaining trials in one call; it
imports cvmesh's parameters, bounds check and direction rotation.

`closed_cells_unique` is the face-closure test of cvmesh's containment
boxes as it numbered vertices with `np.unique(axis=0)` and tested edges with
`np.isin`, before one lexsort and a search of the sorted edge keys replaced
both. `angular_order_lexsort` is cvmesh's wall ordering as one stable
`np.lexsort` on (group, angle), before the groups of each size were sorted
along the rows of one table; it imports cvmesh's frames and row products,
so both sort the same angles. `einsum_offsets` is the radical-center kernel that summed each
coordinate's corner terms with its own einsum, before one block product
over all coordinates replaced it.

`soft_selection_choice` is the evolution strategy as it drew each
generation's parents with `rng.choice(order, p=rank_w)` and clamped with
`np.clip`, before a cumulative rank table searched once per draw and two
in-place bounds replaced both; it imports cvmesh's parameters, result type,
bounds checks and population test, which both loops share.

`check_face_planarity` and `check_convex3` are the one-cell face-plane
checks that cvmesh decides for every cell at once. They are the only other
references that import from cvmesh: they raise its own errors, so the tests
compare error type, owner and text.

`neighbor_lists` is the per-point dict walk that built each point's ring or
star as its own array before cvmesh built them as one row table; the tests
check the table row for row against it, and the loops here read its lists.

The references that walk a mesh cell by cell read per-cell records
(`cell_records`), unpacked from the mesh's one cell stack. The records keep
the one-cell containment, measure and shared-wall code that cvmesh ran per
cell object before it validated the whole stack at once.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np


def circumcircle(a, b, c):
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    a2 = ax * ax + ay * ay
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
    r2 = (ax - ux) ** 2 + (ay - uy) ** 2
    return np.array([ux, uy]), r2


def circumsphere(a, b, c, d):
    m = 2.0 * np.vstack([b - a, c - a, d - a])
    rhs = np.array([b @ b - a @ a, c @ c - a @ a, d @ d - a @ a])
    cc = gauss_solve(m, rhs)
    return cc, float((a - cc) @ (a - cc))


def empty_circumcircles(pts, triangles, eps=1e-9):
    """Every point must lie outside every triangle's circumcircle shrunk by eps."""
    pts = np.asarray(pts, dtype=float)
    for t in triangles:
        cc, r2 = circumcircle(pts[t[0]], pts[t[1]], pts[t[2]])
        d2 = np.sum((pts - cc) ** 2, axis=1)
        inside = d2 < r2 * (1.0 - eps)
        inside[list(t)] = False
        if np.any(inside):
            return False, (tuple(int(v) for v in t), int(np.nonzero(inside)[0][0]))
    return True, None


def empty_circumspheres(pts, tets, eps=1e-9):
    pts = np.asarray(pts, dtype=float)
    for t in tets:
        cc, r2 = circumsphere(pts[t[0]], pts[t[1]], pts[t[2]], pts[t[3]])
        d2 = np.sum((pts - cc) ** 2, axis=1)
        inside = d2 < r2 * (1.0 - eps)
        inside[list(t)] = False
        if np.any(inside):
            return False, (tuple(int(v) for v in t), int(np.nonzero(inside)[0][0]))
    return True, None


def triangle_area(a, b, c) -> float:
    return 0.5 * abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


def tetra_volume(a, b, c, d) -> float:
    return abs(np.linalg.det(np.vstack([b - a, c - a, d - a]))) / 6.0


def convex_hull_area(pts) -> float:
    """Monotone-chain hull followed by the shoelace formula."""
    p = sorted(map(tuple, np.asarray(pts, dtype=float)))

    def half(seq):
        out = []
        for v in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], v) <= 0:
                out.pop()
            out.append(v)
        return out

    hull = half(p)[:-1] + half(p[::-1])[:-1]
    area = 0.0
    for k in range(len(hull)):
        x1, y1 = hull[k]
        x2, y2 = hull[(k + 1) % len(hull)]
        area += x1 * y2 - x2 * y1
    return abs(area) / 2.0


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull_volume(pts) -> float:
    """Hull volume as a sum of pyramids from the centroid over the hull planes.

    The hull planes are found by brute force: a plane through a point triple
    with every point on one side. All triples of one plane (a flat face holding
    more than three points) give one plane, identified by the points on it, and
    count once with the area of the 2D hull of those points."""
    pts = np.asarray(pts, dtype=float)
    n = len(pts)
    center = pts.mean(axis=0)
    planes: dict[frozenset, np.ndarray] = {}
    for i in range(n):
        for j in range(i + 1, n):
            ks = np.arange(j + 1, n)
            nrm = np.cross(pts[j] - pts[i], pts[ks] - pts[i])      # one row per k
            side = (pts - pts[i]) @ nrm.T                          # (n, len(ks))
            tol = 1e-10 * np.abs(side).max(axis=0, initial=0.0)
            hull = (np.linalg.norm(nrm, axis=1) >= 1e-14) & (
                np.all(side <= tol, axis=0) | np.all(side >= -tol, axis=0))
            for col in np.nonzero(hull)[0]:
                on = frozenset(np.nonzero(np.abs(side[:, col]) <= tol[col])[0].tolist())
                planes.setdefault(on, nrm[col])
    vol = 0.0
    for on, nrm in planes.items():
        q = pts[sorted(on)]
        unit = nrm / np.linalg.norm(nrm)
        e1 = (q[1] - q[0]) / np.linalg.norm(q[1] - q[0])
        e2 = np.cross(unit, e1)
        area = convex_hull_area(np.stack([(q - q[0]) @ e1, (q - q[0]) @ e2], axis=1))
        vol += area * abs(float((center - q[0]) @ unit)) / 3.0
    return vol


# Radius-height rules of the paper, one triangle or tetrahedron at a time: the
# scalar reference for cvmesh.geometry.neighbor_heights/tetra_heights and the
# radius bounds built on them. Thresholds as in cvmesh.geometry.
EPS_RIGHT = 1e-9
EPS_AREA = 1e-12
EPS_VOL = 1e-12
EPS_LEN = 1e-12


def _cross_norm(u, v) -> float:
    if u.shape[0] == 2:
        return abs(u[0] * v[1] - u[1] * v[0])
    return float(np.linalg.norm(np.cross(u, v)))


def neighbor_height(i, jk, jk1) -> float:
    """Height of the triangle (i, jk, jk1), 2D or 3D: the distance from i to
    the line (jk, jk1) when the triangle is acute, else the shorter edge at i."""
    a, b, c = (np.asarray(x, dtype=float) for x in (i, jk, jk1))
    corners = (a, b, c)
    longest = max(np.linalg.norm(b - a), np.linalg.norm(c - b), np.linalg.norm(a - c))
    if _cross_norm(b - a, c - a) <= 2.0 * EPS_AREA * longest * longest:
        raise ValueError("collinear corners")
    acute = True
    for k in range(3):
        u = corners[(k + 1) % 3] - corners[k]
        v = corners[(k + 2) % 3] - corners[k]
        cos_k = float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
        if abs(cos_k) <= EPS_RIGHT or cos_k < 0.0:
            acute = False
    if acute:
        ab = c - b
        seg = float(np.linalg.norm(ab))
        return _cross_norm(a - b, ab) / seg
    return min(float(np.linalg.norm(a - b)), float(np.linalg.norm(a - c)))


def tetra_height(i, j1, j2, j3) -> float:
    """Height of the tetrahedron (i, j1, j2, j3): the plane distance when the
    foot of i falls inside the base triangle, else the smallest wall height."""
    ii, a, b, c = (np.asarray(x, dtype=float) for x in (i, j1, j2, j3))
    u = b - a
    v = c - a
    normal = np.cross(u, v)
    nn = float(np.linalg.norm(normal))
    edges = [ii - a, ii - b, ii - c, u, v, c - b]
    longest = max(float(np.linalg.norm(e)) for e in edges)
    volume6 = abs(float(np.dot(normal, ii - a)))
    if volume6 <= 6.0 * EPS_VOL * longest**3:
        raise ValueError("coplanar corners")
    w = ii - a
    uu = float(np.dot(u, u))
    uv = float(np.dot(u, v))
    vv = float(np.dot(v, v))
    wu = float(np.dot(w, u))
    wv = float(np.dot(w, v))
    den = uu * vv - uv * uv
    s = (vv * wu - uv * wv) / den
    t = (uu * wv - uv * wu) / den
    if s >= -EPS_LEN and t >= -EPS_LEN and s + t <= 1.0 + EPS_LEN:
        return volume6 / nn
    return min(neighbor_height(ii, a, b), neighbor_height(ii, b, c), neighbor_height(ii, c, a))


@dataclass
class NeighborLists:
    """Per-point neighbourhood lists, the reference for cvmesh's row table
    (`NeighborMap`). 2D: rings[i] lists the neighbors of i in CCW order;
    closed[i] says whether the ring wraps (interior point) or is an open fan
    (hull point), and ring_simplices[i][k] is the triangle (i, ring[k],
    ring[k+1]). 3D: stars[i] is a (K, 3) array of incident-tetra vertex
    triples, each ordered so (i, t0, t1, t2) is positively oriented;
    star_simplices[i][k] is the tetrahedron id of row k."""

    dim: int
    on_hull: np.ndarray
    rings: list | None = None
    closed: np.ndarray | None = None
    ring_simplices: list | None = None
    stars: list | None = None
    star_simplices: list | None = None

    @property
    def n_points(self) -> int:
        return len(self.rings) if self.dim == 2 else len(self.stars)

    def neighbors(self, i: int) -> np.ndarray:
        """All Delaunay neighbors of i (sorted unique ids in 3D, ring order in 2D)."""
        if self.dim == 2:
            return self.rings[i]
        return np.unique(self.stars[i])


def neighbor_lists(tri) -> NeighborLists:
    """The neighbourhood lists of a triangulation, one dict walk per point."""
    if tri.dim == 2:
        return _neighbor_lists2(tri)
    return _neighbor_lists3(tri)


def _neighbor_lists2(tri) -> NeighborLists:
    n = len(tri.points)
    # succ[i][u] = (v, t) when triangle t = (i, u, v) sweeps CCW around i.
    succ: list[dict[int, tuple[int, int]]] = [dict() for _ in range(n)]
    for t, (a, b, c) in enumerate(tri.triangles):
        succ[a][b] = (c, t)
        succ[b][c] = (a, t)
        succ[c][a] = (b, t)

    rings: list[np.ndarray] = []
    ring_simplices: list[np.ndarray] = []
    closed = np.zeros(n, dtype=bool)
    for i in range(n):
        s = succ[i]
        if not s:
            rings.append(np.empty(0, dtype=np.int64))
            ring_simplices.append(np.empty(0, dtype=np.int64))
            continue
        heads = set(s.keys()) - {v for v, _ in s.values()}
        if heads:
            start = min(heads)  # hull point: open fan
        else:
            start = min(s.keys())  # interior point: cycle, normalized start
            closed[i] = True
        chain = [start]
        tris = []
        u = start
        while u in s:
            v, t = s[u]
            tris.append(t)
            if v == start:
                break
            chain.append(v)
            u = v
        rings.append(np.asarray(chain, dtype=np.int64))
        ring_simplices.append(np.asarray(tris, dtype=np.int64))

    return NeighborLists(
        dim=2,
        on_hull=~closed,
        rings=rings,
        closed=closed,
        ring_simplices=ring_simplices,
    )


# Remaining-corner orderings keeping (corner, t0, t1, t2) positively oriented.
_STAR_ORDER = {0: (1, 2, 3), 1: (0, 3, 2), 2: (0, 1, 3), 3: (0, 2, 1)}


def _neighbor_lists3(tri) -> NeighborLists:
    n = len(tri.points)
    stars: list[list[tuple]] = [[] for _ in range(n)]
    star_ids: list[list[int]] = [[] for _ in range(n)]
    for t, row in enumerate(tri.tetrahedra):
        for m in range(4):
            i = row[m]
            triple = tuple(row[k] for k in _STAR_ORDER[m])
            # Rotate so the smallest id leads; rotation preserves orientation.
            j = triple.index(min(triple))
            triple = triple[j:] + triple[:j]
            stars[i].append(triple)
            star_ids[i].append(t)

    on_hull = np.zeros(n, dtype=bool)
    for t, row in enumerate(tri.tetrahedra):
        for k in range(4):
            if tri.adjacency[t, k] == -1:
                for v in np.delete(row, k):
                    on_hull[v] = True

    star_arrays: list[np.ndarray] = []
    star_simplices: list[np.ndarray] = []
    for i in range(n):
        if stars[i]:
            order = sorted(range(len(stars[i])), key=lambda k: stars[i][k])
            star_arrays.append(np.asarray([stars[i][k] for k in order], dtype=np.int64))
            star_simplices.append(np.asarray([star_ids[i][k] for k in order], dtype=np.int64))
        else:
            star_arrays.append(np.empty((0, 3), dtype=np.int64))
            star_simplices.append(np.empty(0, dtype=np.int64))

    return NeighborLists(
        dim=3,
        on_hull=on_hull,
        stars=star_arrays,
        star_simplices=star_simplices,
    )


def radius_bounds_loop(nm, pts):
    """Per-point loop over the height rules: (r_max, lo, hi, blocking) with
    blocking[i] the first neighbour attaining lo (None when lo is 0). Reads
    only the rings/stars of the `NeighborLists` nm."""
    pts = np.asarray(pts, dtype=float)
    n = len(pts)
    r_max = np.full(n, np.inf)
    for i in range(n):
        if nm.dim == 2:
            ring = nm.rings[i]
            for k in range(len(nm.ring_simplices[i])):
                u, v = ring[k], ring[(k + 1) % len(ring)]
                r_max[i] = min(r_max[i], neighbor_height(pts[i], pts[u], pts[v]))
        else:
            for t0, t1, t2 in nm.stars[i]:
                r_max[i] = min(r_max[i], tetra_height(pts[i], pts[t0], pts[t1], pts[t2]))
    lo = np.zeros(n)
    blocking = [None] * n
    for i in range(n):
        if nm.dim == 2:
            rows = [(int(u), float(np.linalg.norm(pts[i] - pts[u]))) for u in nm.rings[i]]
        else:
            rows = [(int(t[l]), neighbor_height(pts[i], pts[t[l]], pts[t[(l + 1) % 3]]))
                    for t in nm.stars[i] for l in range(3)]
        for j, reach in rows:
            value = reach - float(r_max[j])
            if value > lo[i]:
                lo[i] = value
                blocking[i] = j
    return r_max, lo, r_max.copy(), blocking


def clip_poly_halfplane(verts, n, c):
    """Test-local Sutherland-Hodgman: keep n.x <= c."""
    out = []
    k = len(verts)
    for a in range(k):
        b = (a + 1) % k
        va, vb = verts[a], verts[b]
        da = va @ n - c
        db = vb @ n - c
        if da <= 0:
            out.append(va)
            if db > 0:
                out.append(va + (da / (da - db)) * (vb - va))
        elif db <= 0:
            out.append(va + (da / (da - db)) * (vb - va))
    return np.asarray(out) if out else None


def voronoi_cell_2d(pts, i, domain_verts, radii=None):
    """Brute-force power/Voronoi cell: clip the domain polygon by the bisector
    of (i, j) for every other j."""
    pts = np.asarray(pts, dtype=float)
    r = np.zeros(len(pts)) if radii is None else np.asarray(radii, dtype=float)
    cell = np.asarray(domain_verts, dtype=float)
    for j in range(len(pts)):
        if j == i or cell is None:
            continue
        n = 2.0 * (pts[j] - pts[i])
        c = float(pts[j] @ pts[j] - pts[i] @ pts[i]) + r[i] ** 2 - r[j] ** 2
        cell = clip_poly_halfplane(cell, n, c)
    return cell


# ---------------------------------------------------------------------------
# 2D cells one at a time: cvmesh's cell assembly before its ring stack, kept
# as the byte reference (same operations in the same order, so the same bits)


class CellError(Exception):
    """A failure of build_cells2_loop: kind is "NonConvexCell" or
    "OrphanVertex", key the owner or the simplex id, text cvmesh's detail."""

    def __init__(self, kind: str, key: int, text: str = ""):
        super().__init__(kind, key, text)
        self.kind, self.key, self.text = kind, key, text


def clip_polygon_loop(verts, tags, normal, offset: float, tag, eps: float, origin=None):
    """Keep the part of a tagged polygon with normal . x <= offset, one edge
    at a time; new edges carry `tag`. With an origin the line is
    normal . (x - origin) <= offset, each vertex's distance one dot product.
    Returns (verts, tags) or None."""
    v = np.asarray(verts, dtype=float)
    k = len(v)
    if k == 0:
        return None
    n = np.asarray(normal, dtype=float)
    if origin is None:
        d = v @ n - offset
    else:
        d = np.array([float((x - origin) @ n) for x in v]) - offset
    if np.all(d <= eps):
        return v, list(tags)
    if np.all(d >= -eps):
        return None
    out_v, out_t = [], []
    for a in range(k):
        b = (a + 1) % k
        da, db = d[a], d[b]
        if da <= eps:
            out_v.append(v[a])
            if db <= eps:
                out_t.append(tags[a])
            else:
                s = da / (da - db)
                out_v.append(v[a] + s * (v[b] - v[a]))
                out_t.append(tags[a])
                out_t.append(tag)
        elif db <= eps:
            s = da / (da - db)
            out_v.append(v[a] + s * (v[b] - v[a]))
            out_t.append(tags[a])
    return merge_ring_loop(out_v, out_t, eps)


def merge_ring_loop(verts, tags, eps: float):
    """Merge each vertex of a tagged polygon within eps of the last one kept
    into it, one vertex at a time, then drop the last kept one when it lies
    within eps of the first. Returns (verts, tags) or None under three."""
    keep_v, keep_t = [], []
    for k in range(len(verts)):
        if keep_v and np.linalg.norm(verts[k] - keep_v[-1]) <= eps:
            keep_t[-1] = tags[k]  # zero-length edge collapses onto its successor
            continue
        keep_v.append(verts[k])
        keep_t.append(tags[k])
    if len(keep_v) > 1 and np.linalg.norm(keep_v[0] - keep_v[-1]) <= eps:
        keep_v.pop()
        keep_t.pop()
    if len(keep_v) < 3:
        return None
    return np.asarray(keep_v), keep_t


def polygon_area(v) -> float:
    """Signed shoelace area of one vertex loop, its terms taken about its
    first vertex and summed by np.sum."""
    v = v - v[0]
    return 0.5 * float(np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1]))


def halfplanes(verts):
    """The outward line u . x = c of every edge of a CCW polygon, one edge at
    a time: u the edge vector turned clockwise over its length (zero for a
    zero-length edge), c placing the line through the edge's first vertex."""
    out = []
    for a in range(len(verts)):
        e = verts[(a + 1) % len(verts)] - verts[a]
        n = np.array([e[1], -e[0]])
        nn = math.sqrt(float(n @ n))
        u = n / nn if nn != 0.0 else np.zeros(2)
        out.append((u, float(u @ verts[a])))
    return out


def far_line(pts, i: int, q, tids, corners, scale: float):
    """The far line (plane) m . x = L of hull point i, one value at a time:
    m the unit vector from the points' mean to p_i, L one domain scale
    beyond every domain corner and every radical center q[t] of i's
    simplices tids."""
    m = pts[i] - pts.mean(axis=0)
    m = m / np.sqrt(float(m @ m))
    return m, max([float(m @ c) for c in corners] + [float(m @ q[t]) for t in tids]) + scale


def far_point(qt, n, m, far: float):
    """Where the ray qt + s n (s > 0) meets the far line (plane) m . x = far."""
    s = (far - float(m @ qt)) / float(m @ n)
    return qt + s * n


def build_cells2_loop(pts, q, rings, closed, ring_simplices, domain_verts):
    """One 2D cell per point, one cell and one clip at a time: each cell is
    the candidate vertices q of its ring triangles, a hull point's fan
    u_0 .. u_m closed by the far points of the power rays through its hull
    edges (i, u_0) and (i, u_m) (`far_line`, `far_point`) with a ghost edge
    (None) between them; reversed with the tags when clockwise, near
    duplicates merged by `merge_ring_loop`, then clipped by each domain line
    some vertex crosses. Returns per point (verts, tags, simplex ids) or
    None, tags and ids None where cvmesh has None; raises CellError for the
    first reflex cell, then the first unmatched candidate vertex inside."""
    dverts = np.asarray(domain_verts, dtype=float)
    scale = float(np.linalg.norm(dverts.max(axis=0) - dverts.min(axis=0)))
    eps = 1e-10 * scale
    match_eps = 1e-9 * scale
    planes = halfplanes(dverts)
    cells, matched = [], set()
    for i in range(len(pts)):
        ring, tids = rings[i], ring_simplices[i]
        m = len(ring)
        if closed[i]:
            poly = (q[tids].copy(), [int(ring[(k + 1) % m]) for k in range(len(tids))])
        else:
            mi, far = far_line(pts, i, q, tids, dverts, scale)
            ends = []
            for u, t, turn in ((ring[0], tids[0], 1.0), (ring[-1], tids[-1], -1.0)):
                e = pts[int(u)] - pts[i]
                ends.append(far_point(q[t], turn * np.array([e[1], -e[0]]), mi, far))
            poly = (np.vstack([ends[0], q[tids], ends[1]]), [int(u) for u in ring] + [None])
        if polygon_area(poly[0]) < 0.0:
            k = len(poly[0])
            poly = (poly[0][::-1].copy(), [poly[1][(k - 2 - j) % k] for j in range(k)])
        poly = merge_ring_loop(*poly, eps)
        for n, c in planes:
            if poly is not None and np.any(poly[0] @ n - c > eps):
                poly = clip_polygon_loop(*poly, n, c, None, eps)
        if poly is None:
            cells.append(None)
            continue
        v = poly[0]
        if len(v) >= 3:
            e = np.roll(v, -1, axis=0) - v
            ln = np.maximum(np.hypot(e[:, 0], e[:, 1]), 1e-300)
            cross = ((e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1))
                     / (ln * np.roll(ln, -1)))
            if np.any(cross < -1e-9):
                raise CellError("NonConvexCell", i, f"reflex corner, sin={cross.min():.3g}")
        cand = np.asarray(tids, dtype=np.intp)
        ids = [None] * len(v)
        if len(cand):
            near = np.linalg.norm(q[cand][None, :, :] - v[:, None, :], axis=2) <= match_eps
            first = np.where(near.any(axis=1), cand[near.argmax(axis=1)], -1)
            ids = [None if t < 0 else int(t) for t in first.tolist()]
        matched.update(t for t in ids if t is not None)
        cells.append((v, poly[1], ids))
    for t in range(len(q)):
        if t not in matched and all(float(q[t] @ u - c) < -match_eps for u, c in planes):
            raise CellError("OrphanVertex", t)
    return cells


def bisector_cell2(pts, r, i: int, neighbors, domain_verts, eps: float):
    """The power cell of point i as cvmesh built hull cells before it closed
    them through ghost triangles: the domain polygon clipped by the power
    bisector toward each neighbor j in the given order, new edges tagged j,
    worked in the frame of p_i (the domain moved by -p_i, the bisector
    2 e . x <= |e|^2 + r_i^2 - r_j^2 with e = p_j - p_i), so a cloud far
    from the origin keeps its digits. Returns (verts, tags) or None."""
    origin = pts[i]
    poly = (np.asarray(domain_verts, dtype=float) - origin, [None] * len(domain_verts))
    for j in neighbors:
        e = pts[int(j)] - origin
        poly = clip_polygon_loop(*poly, 2.0 * e, float(e @ e) + r[i] * r[i] - r[j] * r[j],
                                 int(j), eps)
        if poly is None:
            return None
    return poly[0] + origin, poly[1]


def bisector_cell3(pts, r, i: int, neighbors, domain_faces, eps: float):
    """The 3D `bisector_cell2`: the domain polyhedron's (loop, tag) faces
    clipped by the power bisector toward each neighbor in the given order,
    in the frame of p_i. Returns the faces or None."""
    origin = pts[i]
    faces = [(v - origin, t) for v, t in domain_faces]
    for j in neighbors:
        e = pts[int(j)] - origin
        faces = clip_polyhedron_loop(faces, 2.0 * e, float(e @ e) + r[i] * r[i] - r[j] * r[j],
                                     int(j), eps)
        if faces is None:
            return None
    return [(v + origin, t) for v, t in faces]


# ---------------------------------------------------------------------------
# per-cell records of a mesh's cell stack


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def stack_loops(loops) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The loops' rows in one array, each loop's first row, and per row the
    row of the next vertex around its loop."""
    sizes = np.array([len(v) for v in loops], dtype=np.intp)
    starts = np.zeros(len(sizes), dtype=np.intp)
    np.cumsum(sizes[:-1], out=starts[1:])
    succ = np.arange(1, int(sizes.sum()) + 1)
    succ[starts + sizes - 1] = starts
    return np.concatenate(loops), starts, succ


def loops_volume(loops) -> float:
    """Divergence-theorem volume bounded by outward-oriented vertex loops:
    v[0] . (v[k] x v[k + 1]) / 6 over the fan triangles of every loop, each
    vertex taken about the first vertex of the first loop, as a running
    total in fan order."""
    if not loops:
        return 0.0
    v, starts, succ = stack_loops(loops)
    rows = np.arange(len(v))
    mid = succ > rows
    mid[starts] = False
    b = rows[mid]
    a = starts[np.searchsorted(starts, b, side="right") - 1]
    o = v[0]
    return sum(_rowdot(v[a] - o, np.cross(v[b] - o, v[b + 1] - o)).tolist()) / 6.0


@dataclass
class Face:
    """One wall of a 3D cell: outward-oriented loop, the neighbor it faces
    (None on the domain boundary) and the simplex id per vertex (None for a
    clip point)."""

    verts: np.ndarray
    neighbor: int | None
    vertex_simplices: list


@dataclass
class Cell:
    """The cell of point `owner`: a CCW polygon with one neighbor per edge
    and one simplex id per vertex (2D), or its faces (3D)."""

    owner: int
    closed: bool
    verts: np.ndarray | None = None          # 2D: (K, 2) CCW polygon
    edge_neighbors: list | None = None       # 2D: neighbor id per edge (None = domain)
    vertex_simplices: list | None = None     # 2D: simplex id per vertex (None = clip point)
    faces: list | None = None                # 3D

    @property
    def empty(self) -> bool:
        if self.verts is not None:
            return len(self.verts) < 3
        return not self.faces

    def all_vertices(self) -> np.ndarray:
        if self.verts is not None:
            return self.verts
        if not self.faces:
            return np.empty((0, 3))
        return np.vstack([f.verts for f in self.faces])

    def measure(self) -> float:
        """Polygon area (2D) or divergence-theorem volume (3D), the fan terms
        of every face summed in order."""
        if self.verts is not None:
            return polygon_area(self.verts) if len(self.verts) >= 3 else 0.0
        return loops_volume([f.verts for f in self.faces or []])

    def _planes(self) -> tuple[np.ndarray, np.ndarray]:
        """Unit normal u and offset c (u . x = c through the first vertex) of
        every face with a nonzero Newell normal, each normal summed along
        its loop in order."""
        v, starts, succ = stack_loops([f.verts for f in self.faces])
        w = v[succ]
        normals = np.add.reduceat((v - w)[:, [1, 2, 0]] * (v + w)[:, [2, 0, 1]], starts, axis=0)
        nn = np.sqrt(_rowdot(normals, normals))
        keep = nn != 0.0
        u = normals[keep] / nn[keep, None]
        return u, _rowdot(u, v[starts[keep]])

    def contains(self, p, margin: float = 0.0) -> bool:
        """Point-in-cell test; negative margin demands strict interiority."""
        p = np.asarray(p, dtype=float)
        if self.verts is not None:
            v = self.verts
            if len(v) < 3:
                return False
            w = np.roll(v, -1, axis=0)
            e = w - v
            ln = np.maximum(np.hypot(e[:, 0], e[:, 1]), 1e-300)
            cross = (e[:, 0] * (p[1] - v[:, 1]) - e[:, 1] * (p[0] - v[:, 0])) / ln
            return bool(np.all(cross >= -margin))
        if not self.faces:
            return False
        u, c = self._planes()
        return not np.any(u @ p - c > margin)

    def contains_many(self, pts: np.ndarray, margin: float = 0.0) -> np.ndarray:
        """contains() over an (M, dim) probe array."""
        if self.verts is not None:
            v = self.verts
            if len(v) < 3:
                return np.zeros(len(pts), dtype=bool)
            w = np.roll(v, -1, axis=0)
            e = w - v
            ln = np.maximum(np.hypot(e[:, 0], e[:, 1]), 1e-300)
            cross = (
                e[None, :, 0] * (pts[:, None, 1] - v[None, :, 1])
                - e[None, :, 1] * (pts[:, None, 0] - v[None, :, 0])
            ) / ln[None, :]
            return np.all(cross >= -margin, axis=1)
        if not self.faces:
            return np.zeros(len(pts), dtype=bool)
        ok = np.ones(len(pts), dtype=bool)
        for n, c in zip(*self._planes()):
            ok &= pts @ n - c <= margin
        return ok


def cell_records(mesh) -> list:
    """One Cell per point, unpacked from mesh.cells: ring i's rows (2D) or
    the faces labelled i (3D), ids of -1 as None."""
    stack = mesh.cells
    ends = stack.starts.tolist()[1:] + [len(stack.verts)]

    def ids(a) -> list:
        return [None if t < 0 else t for t in a.tolist()]

    if mesh.dim == 2:
        return [Cell(owner=i, closed=b > a, verts=stack.verts[a:b],
                     edge_neighbors=ids(stack.tags[a:b]),
                     vertex_simplices=ids(stack.simplices[a:b]))
                for i, (a, b) in enumerate(zip(stack.starts.tolist(), ends))]
    faces = [[] for _ in mesh.points]
    for (a, b), c, t in zip(zip(stack.starts.tolist(), ends), stack.cells.tolist(),
                            ids(stack.tags)):
        faces[c].append(Face(stack.verts[a:b], t, ids(stack.simplices[a:b])))
    return [Cell(owner=i, closed=bool(f), faces=f) for i, f in enumerate(faces)]


def shared_walls(cells: list) -> dict[tuple[int, int], dict[int, np.ndarray]]:
    """Map (i, j), i < j, to each side's wall geometry (edge endpoints or
    face loop), taken from the wall tags of the cell records."""
    walls: dict[tuple[int, int], dict[int, np.ndarray]] = {}
    for cell in cells:
        i = cell.owner
        if cell.verts is not None:
            if cell.empty:
                continue
            v = cell.verts
            for k, j in enumerate(cell.edge_neighbors):
                if j is None:
                    continue
                key = (i, j) if i < j else (j, i)
                seg = np.vstack([v[k], v[(k + 1) % len(v)]])
                walls.setdefault(key, {})[i] = seg
        else:
            for f in cell.faces or []:
                if f.neighbor is None:
                    continue
                j = f.neighbor
                key = (i, j) if i < j else (j, i)
                walls.setdefault(key, {})[i] = f.verts
    return walls


def perpendicularity_loop2(mesh, tol: float = 1e-6) -> tuple[int, list]:
    """(checked, violations) of the wall-perpendicularity check of a 2D mesh,
    one edge at a time: every tagged edge longer than 1e-12 * scale, with the
    arcsine of its |cos| against the segment joining the two generators."""
    pts = mesh.points
    dv = mesh.domain.verts
    scale = float(np.linalg.norm(dv.max(axis=0) - dv.min(axis=0)))
    checked = 0
    violations = []
    for cell in cell_records(mesh):
        if cell.verts is None or len(cell.verts) < 3:
            continue
        v = cell.verts
        for k, j in enumerate(cell.edge_neighbors):
            if j is None:
                continue
            e = v[(k + 1) % len(v)] - v[k]
            ln = float(np.linalg.norm(e))
            if ln <= 1e-12 * scale:
                continue
            axis = pts[j] - pts[cell.owner]
            cosang = abs(float(e @ axis)) / (ln * float(np.linalg.norm(axis)))
            dev = math.asin(min(1.0, cosang))
            checked += 1
            if dev > tol:
                violations.append((cell.owner, int(j), dev))
    return checked, violations


def clip_polyhedron_halfspace(faces, n, c, eps=1e-12):
    """Test-local convex polyhedron clip: faces are vertex loops; keep n.x <= c."""
    new_faces = []
    section = []
    allv = np.vstack(faces)
    d_all = allv @ n - c
    if np.all(d_all <= eps):
        return faces
    if np.all(d_all >= -eps):
        return None
    for f in faces:
        d = f @ n - c
        if np.all(d >= -eps):
            for k in range(len(f)):
                if abs(d[k]) <= eps:
                    section.append(f[k])
            continue
        if np.all(d <= eps):
            new_faces.append(f)
            for k in range(len(f)):
                if abs(d[k]) <= eps:
                    section.append(f[k])
            continue
        loop = []
        k = len(f)
        for a in range(k):
            b = (a + 1) % k
            da, db = d[a], d[b]
            if da <= eps:
                loop.append(f[a])
                if abs(da) <= eps:
                    section.append(f[a])
                if db > eps:
                    x = f[a] + (da / (da - db)) * (f[b] - f[a])
                    loop.append(x)
                    section.append(x)
            elif db <= eps:
                x = f[a] + (da / (da - db)) * (f[b] - f[a])
                loop.append(x)
                section.append(x)
        if len(loop) >= 3:
            new_faces.append(np.asarray(loop))
    uniq = []
    for p in section:
        if all(np.linalg.norm(p - q) > 1e-9 for q in uniq):
            uniq.append(p)
    if len(uniq) >= 3:
        center = np.mean(uniq, axis=0)
        nn = n / np.linalg.norm(n)
        seed = np.array([1.0, 0.0, 0.0]) if abs(nn[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        e1 = np.cross(nn, seed)
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(nn, e1)
        rel = np.asarray(uniq) - center
        order = np.argsort(np.arctan2(rel @ e2, rel @ e1))
        new_faces.append(np.asarray(uniq)[order])
    return new_faces if new_faces else None


def box_faces(lo, hi):
    x0, y0, z0 = lo
    x1, y1, z1 = hi
    quad = lambda *vs: np.asarray(vs, dtype=float)
    return [
        quad((x0, y0, z0), (x0, y1, z0), (x1, y1, z0), (x1, y0, z0)),
        quad((x0, y0, z1), (x1, y0, z1), (x1, y1, z1), (x0, y1, z1)),
        quad((x0, y0, z0), (x1, y0, z0), (x1, y0, z1), (x0, y0, z1)),
        quad((x0, y1, z0), (x0, y1, z1), (x1, y1, z1), (x1, y1, z0)),
        quad((x0, y0, z0), (x0, y0, z1), (x0, y1, z1), (x0, y1, z0)),
        quad((x1, y0, z0), (x1, y1, z0), (x1, y1, z1), (x1, y0, z1)),
    ]


def voronoi_cell_3d(pts, i, lo, hi, radii=None):
    pts = np.asarray(pts, dtype=float)
    r = np.zeros(len(pts)) if radii is None else np.asarray(radii, dtype=float)
    faces = box_faces(lo, hi)
    for j in range(len(pts)):
        if j == i or faces is None:
            continue
        n = 2.0 * (pts[j] - pts[i])
        c = float(pts[j] @ pts[j] - pts[i] @ pts[i]) + r[i] ** 2 - r[j] ** 2
        faces = clip_polyhedron_halfspace(faces, n, c)
    return faces


def vertex_sets_match(a, b, tol) -> bool:
    """Every vertex of a has a distinct partner in b within tol, and conversely."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) != len(b):
        return False
    used = np.zeros(len(b), dtype=bool)
    for v in a:
        d = np.linalg.norm(b - v, axis=1)
        d[used] = np.inf
        k = int(np.argmin(d))
        if d[k] > tol:
            return False
        used[k] = True
    return True


def newell_normal(verts) -> np.ndarray:
    """Newell normal of one vertex loop, summed with np.sum per component."""
    v = verts
    w = np.roll(v, -1, axis=0)
    return np.array([
        float(np.sum((v[:, 1] - w[:, 1]) * (v[:, 2] + w[:, 2]))),
        float(np.sum((v[:, 2] - w[:, 2]) * (v[:, 0] + w[:, 0]))),
        float(np.sum((v[:, 0] - w[:, 0]) * (v[:, 1] + w[:, 1]))),
    ])


def _loop_planes(stack, normals):
    """Per loop of one cell's loops (rows, starts, successors) with Newell
    normals `normals`: whether it has a nonzero normal, the unit normal u
    and offset c (u . x = c through the first vertex) of the loops that do,
    the largest distance of its vertices from that plane (0.0 without a
    normal) and its longest edge."""
    v, starts, succ = stack
    nn = np.sqrt(_rowdot(normals, normals))
    keep = nn != 0.0
    unit = np.zeros_like(normals)
    unit[keep] = normals[keep] / nn[keep, None]
    face = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(v)))
    dev = np.maximum.reduceat(np.abs(_rowdot(v - v[starts][face], unit[face])), starts)
    e = v[succ] - v
    edge = np.maximum.reduceat(np.sqrt(_rowdot(e, e)), starts)
    return keep, unit[keep], _rowdot(unit[keep], v[starts[keep]]), dev, edge


def check_face_planarity(owner: int, neighbors: list, stack, normals):
    """Raise cvmesh's NonPlanarFace for the first face of one cell whose
    vertices leave the plane through its first vertex by more than EPS_FACE
    times its longest edge; faces with no normal or no edge length pass."""
    from cvmesh.errors import NonPlanarFace
    from cvmesh.mesh import EPS_FACE

    keep, _, _, dev, edge = _loop_planes(stack, normals)
    bad = np.flatnonzero(keep & (edge != 0.0) & (dev > EPS_FACE * edge))
    if len(bad):
        f = int(bad[0])
        raise NonPlanarFace(owner, neighbors[f], float(dev[f]))


def check_convex3(owner: int, stack, normals, scale: float):
    """Raise cvmesh's NonConvexCell for the first face of one cell with a
    vertex of the cell more than 1e-9 * scale outside its plane, from one
    matrix product of the cell's vertices and face normals."""
    from cvmesh.errors import NonConvexCell

    _, u, c, _, _ = _loop_planes(stack, normals)
    out = (stack[0] @ u.T - c).max(axis=0)
    bad = np.nonzero(out > 1e-9 * scale)[0]
    if len(bad):
        raise NonConvexCell(owner, f"vertex {out[bad[0]]:.3g} outside face plane")


def cell_contains3(cell, p, margin: float = 0.0) -> bool:
    """Point-in-cell test for a 3D cell, one face at a time: p must lie within
    margin of the inner side of the plane through each face's first vertex;
    faces with a zero normal are skipped."""
    p = np.asarray(p, dtype=float)
    for f in cell.faces or []:
        n = newell_normal(f.verts)
        nn = float(np.linalg.norm(n))
        if nn == 0.0:
            continue
        if float(np.dot(n, p - f.verts[0])) / nn > margin:
            return False
    return bool(cell.faces)


def cell_volume3(cell) -> float:
    """Divergence-theorem volume of a 3D cell, summed over each face's fan
    triangles one at a time, about the cell's first vertex."""
    total = 0.0
    for f in cell.faces or []:
        v = f.verts - cell.faces[0].verts[0]
        for k in range(1, len(v) - 1):
            total += float(np.dot(v[0], np.cross(v[k], v[k + 1])))
    return total / 6.0


def match_simplex_ids(verts, q, candidates, eps) -> list:
    """Per vertex, the first candidate t in order with |q[t] - v| <= eps, else None."""
    ids = []
    for v in verts:
        found = None
        for t in candidates:
            if np.linalg.norm(q[t] - v) <= eps:
                found = int(t)
                break
        ids.append(found)
    return ids


def perpendicularity_loop3(mesh, tol: float = 1e-6) -> tuple[int, list]:
    """(checked, violations) of the wall-perpendicularity check of a 3D mesh,
    one wall and one edge at a time: per wall, the arcsine of the largest
    |cos| between an edge longer than 1e-12 * scale and the segment joining
    the two generators."""
    pts = mesh.points
    dv = mesh.domain.verts
    scale = float(np.linalg.norm(dv.max(axis=0) - dv.min(axis=0)))
    checked = 0
    violations = []
    for cell in cell_records(mesh):
        i = cell.owner
        for f in cell.faces or []:
            if f.neighbor is None:
                continue
            axis = pts[f.neighbor] - pts[i]
            axis = axis / np.linalg.norm(axis)
            v = f.verts
            worst = 0.0
            for k in range(len(v)):
                e = v[(k + 1) % len(v)] - v[k]
                ln = float(np.linalg.norm(e))
                if ln <= 1e-12 * scale:
                    continue
                worst = max(worst, abs(float(e @ axis)) / ln)
            dev = math.asin(min(1.0, worst))
            checked += 1
            if dev > tol:
                violations.append((i, int(f.neighbor), dev))
    return checked, violations


def clip_polyhedron_loop(faces, normal, offset: float, tag, eps: float):
    """Keep the part of the polyhedron with normal . x <= offset, one face and
    one vertex at a time: the loop code cvmesh ran before its stacked clip
    kernel. faces are (verts, tag) pairs; returns the clipped list or None.
    The section polygon becomes one new face labelled `tag`, oriented with its
    outward normal along +normal."""
    n = np.asarray(normal, dtype=float)
    all_v = np.vstack([v for v, _ in faces])
    d_all = all_v @ n - offset
    if np.all(d_all <= eps):
        return faces
    if np.all(d_all >= -eps):
        return None

    new_faces = []
    cut_points = []
    for f in faces:
        v = f[0]
        d = v @ n - offset
        if np.all(d >= -eps):
            continue
        if np.all(d <= eps):
            new_faces.append(f)
            # boundary-touching vertices still seed the cap polygon
            for k in range(len(v)):
                if abs(d[k]) <= eps:
                    cut_points.append(v[k])
            continue
        loop = []
        k = len(v)
        for a in range(k):
            b = (a + 1) % k
            da, db = d[a], d[b]
            if da <= eps:
                loop.append(v[a])
                if abs(da) <= eps:
                    cut_points.append(v[a])
                if db > eps:
                    s = da / (da - db)
                    x = v[a] + s * (v[b] - v[a])
                    loop.append(x)
                    cut_points.append(x)
            elif db <= eps:
                s = da / (da - db)
                x = v[a] + s * (v[b] - v[a])
                loop.append(x)
                cut_points.append(x)
        loop_arr = dedup_loop(np.asarray(loop), eps)
        if loop_arr is not None:
            new_faces.append((loop_arr, f[1]))

    cap = cap_face(cut_points, n, eps)
    if cap is not None:
        new_faces.append((cap, tag))
    if not new_faces:
        return None
    return new_faces


def dedup_loop(verts, eps):
    """Drop each vertex within eps of the last one kept, then the last kept
    one when it lies within eps of the first; None under three left."""
    if len(verts) == 0:
        return None
    keep = [verts[0]]
    for v in verts[1:]:
        if np.linalg.norm(v - keep[-1]) > eps:
            keep.append(v)
    if len(keep) > 1 and np.linalg.norm(keep[0] - keep[-1]) <= eps:
        keep.pop()
    if len(keep) < 3:
        return None
    return np.asarray(keep)


def cap_face(points, n, eps):
    """Order section points CCW around +n so the cap's outward normal is +n."""
    if len(points) < 3:
        return None
    pts = np.asarray(points)
    # unique within eps
    uniq = []
    for p in pts:
        if all(np.linalg.norm(p - q) > eps for q in uniq):
            uniq.append(p)
    if len(uniq) < 3:
        return None
    pts = np.asarray(uniq)
    center = pts.mean(axis=0)
    nn = n / np.linalg.norm(n)
    seed = np.array([1.0, 0.0, 0.0]) if abs(nn[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(nn, seed)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(nn, e1)  # (e1, e2, nn) right-handed => CCW angles wind around +nn
    rel = pts - center
    ang = np.arctan2(rel @ e2, rel @ e1)
    order = np.argsort(ang, kind="stable")
    loop = pts[order]
    # (e1, e2) chosen so increasing angle winds CCW when viewed from +n;
    # flip if the realized normal disagrees (degenerate seeds).
    realized = newell_normal(loop)
    if np.dot(realized, nn) < 0.0:
        loop = loop[::-1]
    return loop


def face_loop_around_edge(i: int, j: int, q, tet_ids, pts, eps: float, axis=None):
    """Order the candidate vertices of all tetrahedra on edge (i, j) cyclically
    in the plane perpendicular to the edge (or to `axis` when given); returns
    (loop, simplex ids)."""
    axis = pts[j] - pts[i] if axis is None else np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    seed = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(axis, seed)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    # sort around the vertex centroid: it is interior to the convex face loop,
    # unlike the edge midpoint, so angular order equals boundary order
    rel = q[tet_ids] - np.mean(q[tet_ids], axis=0)
    ang = np.arctan2(rel @ e2, rel @ e1)
    order = np.argsort(ang, kind="stable")
    loop = q[np.asarray(tet_ids)[order]]
    ids = [int(np.asarray(tet_ids)[k]) for k in order]
    keep_v = []
    keep_i = []
    for v, t in zip(loop, ids):
        if keep_v and np.linalg.norm(v - keep_v[-1]) <= eps:
            continue
        keep_v.append(v)
        keep_i.append(t)
    if len(keep_v) > 1 and np.linalg.norm(keep_v[0] - keep_v[-1]) <= eps:
        keep_v.pop()
        keep_i.pop()
    if len(keep_v) < 3:
        return None, None
    return np.asarray(keep_v), keep_i


def ghost_rows_loop(tets, adjacency, pts, q, far_lines):
    """The star rows of the ghost tetrahedra, one hull facet (adjacency -1)
    and one corner at a time: per hull point i, a list of (the facet's other
    two corners, the far point where the power ray from the radical center
    of the facet's tetrahedron along its outward normal meets i's far plane
    far_lines[i] = (m, L))."""
    rows = {}
    for t in range(len(tets)):
        for k in range(4):
            if adjacency[t][k] != -1:
                continue
            facet = [int(v) for c, v in enumerate(tets[t]) if c != k]
            a = pts[facet[0]]
            n = np.cross(pts[facet[1]] - a, pts[facet[2]] - a)
            if float(n @ (pts[int(tets[t][k])] - a)) > 0.0:
                n = -n
            for i in facet:
                others = [v for v in facet if v != i]
                rows.setdefault(i, []).append((others, far_point(q[t], n, *far_lines[i])))
    return rows


def star_walls_loop(i: int, triples, points, pts, m, eps: float):
    """The walls of point i from its star rows (the row's three corners,
    GHOST = -1 for a ghost row's third, and its vertex), one neighbor at a
    time in ascending order: the vertices of the rows that hold j ordered by
    `face_loop_around_edge` around p_j - p_i (around m for GHOST), oriented
    along that axis, tagged j (None for GHOST); walls under three vertices
    left out. Returns (loop, tag) faces."""
    points = np.asarray(points, dtype=float)
    faces = []
    for j in sorted({int(x) for tr in triples for x in tr}):
        rows = [k for k, tr in enumerate(triples) if j in [int(x) for x in tr]]
        axis = m if j < 0 else pts[j] - pts[i]
        loop, _ = face_loop_around_edge(i, j, points, rows, pts, eps, axis=axis)
        if loop is None:
            continue
        if float(np.dot(newell_normal(loop), axis)) < 0.0:
            loop = loop[::-1]
        faces.append((loop, None if j < 0 else j))
    return faces


def dedup_vertices(verts, tol):
    out = []
    for v in np.asarray(verts, dtype=float):
        if all(np.linalg.norm(v - w) > tol for w in out):
            out.append(v)
    return np.asarray(out)


def newton_equal_power_2d(centers, radii, x0, iters=60):
    """Newton solve of power(c1)=power(c2)=power(c3) in the plane."""
    c = np.asarray(centers, dtype=float)
    r = np.asarray(radii, dtype=float)
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(iters):
        p = np.sum((x - c) ** 2, axis=1) - r**2
        f = np.array([p[0] - p[1], p[0] - p[2]])
        jac = np.array([2.0 * (c[1] - c[0]), 2.0 * (c[2] - c[0])])
        x = x - gauss_solve(jac, f)
    return x


def radical_center_exact(corners, radii):
    """Radical center of one simplex's d+1 spheres in exact rational
    arithmetic: the float inputs are taken as `Fraction`s, and the rows
    2 (c_k - c_0) . x = |c_k|^2 - |c_0|^2 - r_k^2 + r_0^2 are solved by
    Gauss-Jordan elimination. Returns d `Fraction`s."""
    c = [[Fraction(float(v)) for v in row] for row in corners]
    w = [Fraction(float(r)) ** 2 for r in radii]
    sq = [sum(v * v for v in row) for row in c]
    rows = [[2 * (a - b) for a, b in zip(c[k], c[0])] + [sq[k] - sq[0] - w[k] + w[0]]
            for k in range(1, len(c))]
    n = len(rows)
    for col in range(n):
        piv = next(k for k in range(col, n) if rows[k][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        for k in range(n):
            if k != col and rows[k][col] != 0:
                f = rows[k][col] / rows[col][col]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[col])]
    return [rows[k][n] / rows[k][k] for k in range(n)]


def gauss_solve(a, b):
    """Partial-pivot Gaussian elimination, written out by hand."""
    a = np.asarray(a, dtype=float).copy()
    b = np.asarray(b, dtype=float).copy()
    n = len(b)
    for col in range(n):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
        for row in range(col + 1, n):
            f = a[row, col] / a[col, col]
            a[row, col:] -= f * a[col, col:]
            b[row] -= f * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
    return x


def closed_cells_unique(faces, n: int, grid: float) -> np.ndarray:
    """Per cell of a face stack (n cells), whether its face loops close:
    every directed edge has exactly one reverse in the cell, none repeats and
    none joins a vertex to itself, vertices being one when they snap to the
    same cube of side grid; a non-finite vertex fails its cell. Vertices are
    numbered by np.unique over (cell, snapped coordinates) rows."""
    rcell = np.repeat(faces.cells, np.diff(np.append(faces.starts, len(faces.verts))))
    finite = np.all(np.isfinite(faces.verts), axis=1)
    snapped = np.floor(np.where(finite[:, None], faces.verts, 0.0) / grid).astype(np.int64)
    _, vid = np.unique(np.column_stack((rcell, snapped)), axis=0, return_inverse=True)
    a = vid.ravel()
    b = a[faces.succ]
    nv = int(a.max(initial=0)) + 1
    fwd = a * nv + b
    srt = np.sort(fwd)
    once = np.ones(len(fwd), dtype=bool)
    once[np.isin(fwd, srt[1:][srt[1:] == srt[:-1]])] = False
    ok = once & finite & (a != b) & np.isin(b * nv + a, srt)
    return np.bincount(rcell[~ok], minlength=n) == 0


def angular_order_lexsort(p, groups, axis) -> np.ndarray:
    """Row order that sorts every group of points (groups sorted) by angle
    around its centroid in the plane normal to the group's row of axis,
    stable on ties, from one np.lexsort on (group, angle)."""
    from cvmesh.clipping import _frames, _rowdot

    starts = np.flatnonzero(np.r_[True, groups[1:] != groups[:-1]])
    counts = np.diff(np.append(starts, len(p)))
    g = np.repeat(np.arange(len(starts)), counts)
    _, e1, e2 = _frames(axis)
    rel = p - (np.add.reduceat(p, starts, axis=0) / counts[:, None])[g]
    ang = np.arctan2(_rowdot(rel, e2[g]), _rowdot(rel, e1[g]))
    return np.lexsort((ang, g))


def einsum_offsets(indices, K, c, den, w):
    """The d coordinates of each simplex's radical center relative to its
    first corner, as a (..., T, d) array: coordinate i is
    (einsum("tk,...tk->...t", K[:, i], w_t) + c[:, i]) / den on contiguous
    copies of K[:, i] and of the gather w_t of the corner weights, with
    K (T, d, d+1) and c (T, d) as cvmesh's SimplexSystems derives them."""
    wt = np.ascontiguousarray(w[..., indices])
    return np.stack([(np.einsum("tk,...tk->...t", np.ascontiguousarray(K[:, i]), wt) + c[:, i])
                     / den for i in range(K.shape[1])], axis=-1)


def validate_global_brute_force(mesh, probes=10_000, seed=0) -> dict:
    """The GlobalReport fields of cvmesh's validate_global, computed by testing
    every probe and every generator against every cell: the cell records'
    shared walls, contains and contains_many, and the mesh's own measures."""
    scale = mesh.scale()
    tol = 1e-9 * scale
    pts = mesh.points
    cells = cell_records(mesh)

    mismatches = []
    for (i, j), sides in shared_walls(cells).items():
        if len(sides) != 2:
            mismatches.append((i, j, "missing side"))
            continue
        a, b = sides[i], sides[j]
        if len(a) != len(b) or not vertex_sets_match(a, b, tol):
            mismatches.append((i, j, "wall geometry differs"))

    rng = np.random.default_rng(seed)
    dverts = mesh.domain.verts
    lo = dverts.min(axis=0)
    hi = dverts.max(axis=0)
    samples = lo + (hi - lo) * rng.random((probes, mesh.dim))
    hit = np.zeros(probes, dtype=np.int64)
    first_owner = np.full(probes, -1, dtype=np.int64)
    overlaps = []
    for cell in cells:
        if cell.empty:
            continue
        inside = cell.contains_many(samples, margin=-tol)
        fresh = inside & (hit == 0)
        first_owner[fresh] = cell.owner
        clash = np.nonzero(inside & (hit > 0))[0]
        for m in clash:
            overlaps.append((int(m), int(first_owner[m]), cell.owner))
        hit[inside] += 1

    owners_outside = []
    foreign = []
    for cell in cells:
        if cell.empty:
            owners_outside.append(cell.owner)
            continue
        if not cell.contains(pts[cell.owner], margin=-tol):
            owners_outside.append(cell.owner)
        inside = cell.contains_many(pts, margin=-tol)
        for j in np.nonzero(inside)[0]:
            if int(j) != cell.owner:
                foreign.append((cell.owner, int(j)))

    return dict(
        shared_wall_mismatches=mismatches,
        overlaps=overlaps,
        owners_outside=owners_outside,
        foreign_points=foreign,
        total_measure=mesh.total_measure(),
        domain_measure=mesh.domain_measure(),
        probes=probes,
    )


def _line_of(a, b):
    """The outward line u . x = c of the edge a -> b of a CCW polygon: u the
    edge vector turned clockwise over its length (zero for an edge of no
    length), c = u . a."""
    e = b - a
    nn = math.hypot(float(e[0]), float(e[1]))
    u = np.array([e[1], -e[0]]) / nn if nn != 0.0 else np.zeros(2)
    return u, float(u @ a)


def _plane_of(verts):
    """The plane u . x = c of one face loop, from its Newell normal with the
    vertices taken about the first (u zero without a normal), c = u . v0."""
    n = newell_normal(verts - verts[0])
    nn = float(np.linalg.norm(n))
    u = n / nn if nn != 0.0 else np.zeros(3)
    return u, float(u @ verts[0])


def _walls_of(cell):
    """A non-empty cell's walls as (vertices, neighbor, u, c): each edge of a
    2D ring, each face of a 3D cell."""
    if cell.verts is not None:
        v = cell.verts
        return [(np.vstack([v[k], v[(k + 1) % len(v)]]), j) + _line_of(v[k], v[(k + 1) % len(v)])
                for k, j in enumerate(cell.edge_neighbors)]
    return [(f.verts, f.neighbor) + _plane_of(f.verts) for f in cell.faces]


def _closed_loop(cell, grid: float) -> bool:
    """Whether a 3D cell's face loops close, one directed edge at a time:
    vertices snapped to cubes of side grid, every edge present once, never
    from a vertex to itself, and run back once along another edge."""
    edges = []
    for f in cell.faces:
        if not np.all(np.isfinite(f.verts)):
            return False
        keys = [tuple(k) for k in np.floor(f.verts / grid).astype(np.int64).tolist()]
        edges += [(keys[k], keys[(k + 1) % len(keys)]) for k in range(len(keys))]
    seen = {}
    for e in edges:
        seen[e] = seen.get(e, 0) + 1
    return all(seen[(a, b)] == 1 and a != b and (b, a) in seen for a, b in edges)


def certify_loop(mesh) -> dict:
    """The GlobalReport fields of cvmesh's validate_global, from its five
    conditions checked one cell and one wall at a time on the cell records:
    (i) convex (every corner's sine at least -1e-9 in 2D; no vertex more than
    1e-9 * scale outside a wall's line or plane), planar and closed (3D);
    (ii) every interior wall met once from the other side, with the same
    vertices and opposite normals; (iii) every domain wall within tol of a
    domain face; (v) every owner, and no wall neighbour from either side,
    more than tol inside the cell. The measures are the mesh's own, and
    condition (iv) compares them in GlobalReport.ok."""
    from cvmesh.mesh import EPS_FACE

    scale = mesh.scale()
    tol = 1e-9 * scale
    pts = mesh.points
    n = len(pts)
    cells = cell_records(mesh)
    if mesh.dim == 2:
        d = mesh.domain.verts
        domain = [_line_of(d[k], d[(k + 1) % len(d)]) for k in range(len(d))]
    else:
        domain = [_plane_of(v) for v in np.split(mesh.domain.verts, mesh.domain.starts[1:])]

    def on_domain(verts) -> bool:
        inside = all(float(u @ v) - c <= tol for v in verts for u, c in domain)
        return inside and any(all(abs(float(u @ v) - c) <= tol for v in verts) for u, c in domain)

    overlaps, sides, near = [], {}, [set() for _ in range(n)]
    for cell in cells:
        if cell.empty:
            continue
        i = cell.owner
        walls = _walls_of(cell)
        verts = cell.all_vertices()
        faults = []
        if mesh.dim == 3:
            for f in cell.faces:
                u, _ = _plane_of(f.verts)
                dev = max(abs(float(u @ (v - f.verts[0]))) for v in f.verts)
                edge = max(float(np.linalg.norm(np.roll(f.verts, -1, axis=0)[k] - f.verts[k]))
                           for k in range(len(f.verts)))
                if u.any() and edge != 0.0 and dev > EPS_FACE * edge:
                    faults.append("nonplanar")
                    break
        convex = all(float(u @ v) - c <= 1e-9 * scale for _, _, u, c in walls if u.any()
                     for v in verts)
        if mesh.dim == 2:
            v = cell.verts
            for k in range(len(v)):
                e0 = v[(k + 1) % len(v)] - v[k]
                e1 = v[(k + 2) % len(v)] - v[(k + 1) % len(v)]
                ln = max(math.hypot(*e0), 1e-300) * max(math.hypot(*e1), 1e-300)
                convex &= not (e0[0] * e1[1] - e0[1] * e1[0]) / ln < -1e-9
        if not convex:
            faults.append("not convex")
        if mesh.dim == 3 and not _closed_loop(cell, tol):
            faults.append("open")
        if any(j is None and not on_domain(w) for w, j, _, _ in walls):
            faults.append("off domain")
        overlaps += [(i, f) for f in faults]
        for w, j, u, _ in walls:
            if j is None:
                continue
            lo, hi = min(i, j), max(i, j)
            sides.setdefault((lo, hi), ([], []))[int(i == hi and lo != hi)].append((w, u))
            if 0 <= j < n and j != i:
                near[i].add(j)
                near[j].add(i)

    mismatches = []
    for (lo, hi), (a, b) in sides.items():
        if not a or not b:
            mismatches.append((lo, hi, "missing side"))
        elif len(a) > 1 or len(b) > 1:
            mismatches.append((lo, hi, "repeated wall"))
        elif len(a[0][0]) != len(b[0][0]) or not vertex_sets_match(a[0][0], b[0][0], tol):
            mismatches.append((lo, hi, "wall geometry differs"))
        elif float(a[0][1] @ b[0][1]) > 0.0:
            mismatches.append((lo, hi, "normals agree"))

    owners_outside, foreign = [], []
    for cell in cells:
        i = cell.owner
        if cell.empty or not cell.contains(pts[i], margin=-tol):
            owners_outside.append(i)
        if not cell.empty:
            foreign += [(i, j) for j in sorted(near[i]) if cell.contains(pts[j], margin=-tol)]

    return dict(
        shared_wall_mismatches=mismatches,
        overlaps=overlaps,
        owners_outside=owners_outside,
        foreign_points=foreign,
        total_measure=mesh.total_measure(),
        domain_measure=mesh.domain_measure(),
    )


# ---------------------------------------------------------------------------
# point generation, one draw and one candidate at a time


class GenerationBudgetExceeded(RuntimeError):
    """reference_points ran out of attempts; the message is cvmesh's."""


def border_samples_loop(lo, hi, spacing: float, rng) -> list:
    """Box corners, then jittered points on every edge and (in 3D) a
    jittered grid on every face, one scalar draw at a time."""
    d = len(lo)
    pts = []
    for corner in product(*zip(lo, hi)):
        pts.append(np.asarray(corner, dtype=float))

    def along(a, b):
        length = float(np.linalg.norm(b - a))
        k = int(round(length / spacing)) - 1
        if k < 1:
            return
        ts = (np.arange(1, k + 1) + 0.15 * (rng.random(k) - 0.5)) / (k + 1)
        for t in ts:
            pts.append(a + t * (b - a))

    if d == 2:
        c = np.array
        along(c([lo[0], lo[1]]), c([hi[0], lo[1]]))
        along(c([hi[0], lo[1]]), c([hi[0], hi[1]]))
        along(c([hi[0], hi[1]]), c([lo[0], hi[1]]))
        along(c([lo[0], hi[1]]), c([lo[0], lo[1]]))
        return pts

    for axis in range(3):
        u, v = (axis + 1) % 3, (axis + 2) % 3
        for cu in (lo[u], hi[u]):
            for cv in (lo[v], hi[v]):
                a = np.empty(3)
                b = np.empty(3)
                a[axis], b[axis] = lo[axis], hi[axis]
                a[u] = b[u] = cu
                a[v] = b[v] = cv
                along(a, b)
    for axis in range(3):
        u, v = (axis + 1) % 3, (axis + 2) % 3
        ku = max(1, int(round((hi[u] - lo[u]) / spacing)) - 1)
        kv = max(1, int(round((hi[v] - lo[v]) / spacing)) - 1)
        for w in (lo[axis], hi[axis]):
            for iu in range(1, ku + 1):
                for iv in range(1, kv + 1):
                    p = np.empty(3)
                    p[axis] = w
                    p[u] = lo[u] + (iu + 0.15 * (rng.random() - 0.5)) / (ku + 1) * (hi[u] - lo[u])
                    p[v] = lo[v] + (iv + 0.15 * (rng.random() - 0.5)) / (kv + 1) * (hi[v] - lo[v])
                    pts.append(p)
    return pts


def reference_points(lo, hi, n: int, seed: int, min_sep_factor: float = 0.75,
                     boundary: bool = True) -> np.ndarray:
    """cvmesh.io.generate_points as a scalar loop: each candidate is one
    rng.random(d) call, checked against every point placed so far."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    d = len(lo)
    side = float((hi - lo).min())
    min_sep = min_sep_factor * side / n ** (1.0 / d)
    rng = np.random.default_rng(seed)

    pts = np.empty((n, d))
    k = 0
    if boundary:
        border = border_samples_loop(lo, hi, 1.25 * min_sep, rng)
        if len(border) < n:
            k = len(border)
            pts[:k] = border

    budget = 1000 + 500 * n
    attempts = 0
    while k < n:
        if attempts >= budget:
            raise GenerationBudgetExceeded(
                f"placed {k}/{n} points after {attempts} attempts "
                f"(min separation {min_sep:.3g})"
            )
        cand = lo + (hi - lo) * rng.random(d)
        attempts += 1
        if k and float(np.min(np.linalg.norm(pts[:k] - cand, axis=1))) < min_sep:
            continue
        pts[k] = cand
        k += 1
    return pts


# ---------------------------------------------------------------------------
# artifact writers, one Python call per number: the reference bytes of
# cvmesh's mesh.json, mesh.vtk and mesh.svg. The functions of
# cvmesh.io/cvmesh.svg as they were before those wrote whole arrays, with
# only the cvmesh imports taken out (render_svg checks no dimension and takes
# its options from the caller).

SCHEMA = "cvmesh/1"


def _fmt_number(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if not math.isfinite(v):
        return "null"
    return format(v, ".17g")


def dumps_json(obj, indent: int = 0) -> str:
    """Serialize dict/list/number/str/None with 17-significant-digit floats."""
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, np.bool_, int, np.integer, float, np.floating)):
        return _fmt_number(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ", ".join(dumps_json(v, indent) for v in obj)
        return f"[{inner}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = []
        for k, v in obj.items():
            rows.append(f'{pad}  {json.dumps(str(k))}: {dumps_json(v, indent + 2)}')
        body = ",\n".join(rows)
        return "{\n" + body + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _pool_vertices(dim: int):
    pool: dict[tuple, int] = {}
    coords: list[list[float]] = []

    def vid(v) -> int:
        key = tuple(format(float(c), ".17g") for c in v)
        if key not in pool:
            pool[key] = len(coords)
            coords.append([float(c) for c in v])
        return pool[key]

    return vid, coords


def mesh_doc(mesh, validation: dict | None = None) -> dict:
    vid, coords = _pool_vertices(mesh.dim)
    cells = []
    for cell in cell_records(mesh):
        if mesh.dim == 2:
            cells.append({
                "owner": cell.owner,
                "closed": cell.closed,
                "loop": [vid(v) for v in (cell.verts if cell.verts is not None else [])],
                "edge_neighbors": [None if t is None else int(t) for t in (cell.edge_neighbors or [])],
                "vertex_simplices": [None if t is None else int(t) for t in (cell.vertex_simplices or [])],
            })
        else:
            cells.append({
                "owner": cell.owner,
                "closed": cell.closed,
                "faces": [
                    {
                        "loop": [vid(v) for v in f.verts],
                        "neighbor": None if f.neighbor is None else int(f.neighbor),
                        "vertex_simplices": [None if t is None else int(t) for t in f.vertex_simplices],
                    }
                    for f in (cell.faces or [])
                ],
            })
    d = mesh.domain
    if mesh.dim == 2:
        domain = {"vertices": d.verts}
    else:
        ends = d.starts.tolist()[1:] + [len(d.verts)]
        domain = {"faces": [d.verts[a:b] for a, b in zip(d.starts.tolist(), ends)]}
    return {
        "schema": SCHEMA,
        "kind": "mesh",
        "dimension": mesh.dim,
        "mode": mesh.mode,
        "points": mesh.points,
        "radii": mesh.radii,
        "domain": domain,
        "vertices": coords,
        "cells": cells,
        "simplices": mesh.simplices,
        "simplex_vertices": mesh.simplex_vertices,
        "validation": validation,
    }


def _vtk_header(title: str, dataset: str) -> list[str]:
    return ["# vtk DataFile Version 3.0", title, "ASCII", f"DATASET {dataset}"]


def vtk_polydata(mesh) -> str:
    vid, coords = _pool_vertices(2)
    loops = []
    for cell in cell_records(mesh):
        if cell.empty:
            continue
        loops.append([vid(v) for v in cell.verts])
    lines = _vtk_header("cvmesh control volumes", "POLYDATA")
    lines.append(f"POINTS {len(coords)} double")
    for x, y in coords:
        lines.append(f"{format(x, '.17g')} {format(y, '.17g')} 0")
    size = sum(len(l) + 1 for l in loops)
    lines.append(f"POLYGONS {len(loops)} {size}")
    for l in loops:
        lines.append(" ".join([str(len(l))] + [str(k) for k in l]))
    return "\n".join(lines) + "\n"


def vtk_unstructured(mesh) -> str:
    vid, coords = _pool_vertices(3)
    records = []
    for cell in cell_records(mesh):
        if cell.empty:
            continue
        faces = [[vid(v) for v in f.verts] for f in cell.faces]
        stream = [len(faces)]
        for f in faces:
            stream.append(len(f))
            stream.extend(f)
        records.append(stream)
    lines = _vtk_header("cvmesh control volumes", "UNSTRUCTURED_GRID")
    lines.append(f"POINTS {len(coords)} double")
    for x, y, z in coords:
        lines.append(f"{format(x, '.17g')} {format(y, '.17g')} {format(z, '.17g')}")
    total = sum(len(s) + 1 for s in records)
    lines.append(f"CELLS {len(records)} {total}")
    for s in records:
        lines.append(" ".join(str(v) for v in [len(s)] + s))
    lines.append(f"CELL_TYPES {len(records)}")
    lines.extend(["42"] * len(records))
    return "\n".join(lines) + "\n"




def _fmt(v: float) -> str:
    return format(v, ".6f")


def render_svg(mesh, pts=None, radii=None, options=None) -> str:
    """cvmesh.svg.render_svg, one element and one number at a time; options
    is a cvmesh.svg.SvgOptions (the caller passes the default). Every
    coordinate, radius and stroke width is multiplied by f, the power of two
    2^-e with the padded view span in [2^e, 2^(e + 1))."""
    opt = options
    pts = mesh.points if pts is None else np.asarray(pts, dtype=float)
    radii = mesh.radii if radii is None else radii

    dv = mesh.domain.verts
    lo = dv.min(axis=0)
    hi = dv.max(axis=0)
    span = float(max(hi - lo))
    e = 0
    while 2.0 ** (e + 1) <= span + 2 * (0.02 * span):
        e += 1
    while 2.0 ** e > span + 2 * (0.02 * span):
        e -= 1
    f = 2.0 ** -e
    lo, hi, span, pts = lo * f, hi * f, span * f, pts * f
    pad = 0.02 * span
    x0, y0 = lo - pad
    w, h = (hi - lo) + 2 * pad
    flip = y0 + (y0 + h)  # y -> flip - y maps world up to svg up

    def fy(y: float) -> str:
        return _fmt(flip - y)

    sw = _fmt(0.0015 * span)
    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{opt.size}" height="{opt.size}" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(w)} {_fmt(h)}">'
    )
    out.append(f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(w)}" height="{_fmt(h)}" fill="white"/>')

    if "cells" in opt.layers:
        out.append(f'<g id="cells" fill="none" stroke="#1a6faf" stroke-width="{sw}">')
        for cell in cell_records(mesh):
            if cell.empty:
                continue
            coords = " ".join(f"{_fmt(v[0] * f)},{fy(v[1] * f)}" for v in cell.verts)
            out.append(f'<polygon points="{coords}"/>')
        out.append("</g>")

    if "delaunay" in opt.layers and mesh.simplices is not None:
        t = mesh.simplices
        e = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        e.sort(axis=1)
        e = np.unique(e, axis=0)
        out.append(f'<g id="delaunay" stroke="#bbbbbb" stroke-width="{sw}">')
        for u, v in e:
            a, b = pts[u], pts[v]
            out.append(
                f'<line x1="{_fmt(a[0])}" y1="{fy(a[1])}" x2="{_fmt(b[0])}" y2="{fy(b[1])}"/>'
            )
        out.append("</g>")

    if "circles" in opt.layers and radii is not None:
        out.append(f'<g id="circles" fill="none" stroke="#d88a2d" stroke-width="{sw}">')
        for p, r in zip(pts, radii):
            out.append(f'<circle cx="{_fmt(p[0])}" cy="{fy(p[1])}" r="{_fmt(float(r) * f)}"/>')
        out.append("</g>")

    if "points" in opt.layers:
        s = opt.point_size * span
        out.append('<g id="points" fill="#c0392b">')
        for p in pts:
            out.append(
                f'<rect x="{_fmt(p[0] - s)}" y="{_fmt(flip - p[1] - s)}" '
                f'width="{_fmt(2 * s)}" height="{_fmt(2 * s)}"/>'
            )
        out.append("</g>")

    out.append("</svg>")
    return "\n".join(out) + "\n"


def mesh_json(mesh, validation: dict | None = None) -> str:
    """The bytes cvmesh.io.export_mesh writes to mesh.json."""
    return dumps_json(mesh_doc(mesh, validation)) + "\n"


# ---------------------------------------------------------------------------
# duplicate points, simplex adjacency and overlap labels, one point, facet
# or neighbour pair at a time: cvmesh's array passes as they were written
# before, kept as their references.


def duplicate_pairs_loop(pts: np.ndarray, eps: float) -> list:
    """Grid-hash scan for point pairs closer than eps."""
    if eps <= 0.0:
        return []
    cells: dict[tuple, list[int]] = {}
    keys = np.floor((pts - pts.min(axis=0)) / eps).astype(np.int64)
    pairs = []
    dim = pts.shape[1]
    offsets = list(product((-1, 0, 1), repeat=dim))
    for i in range(len(pts)):
        k = tuple(keys[i])
        for off in offsets:
            bucket = cells.get(tuple(k[d] + off[d] for d in range(dim)))
            if bucket:
                for j in bucket:
                    if np.sum((pts[i] - pts[j]) ** 2) < eps * eps:
                        pairs.append((j, i))
        cells.setdefault(k, []).append(i)
    return pairs


def adjacency_loop(simplices: np.ndarray) -> np.ndarray:
    """Entry [t, k] is the simplex across the facet opposite corner k of
    simplex t, or -1 when that facet is on the hull."""
    owner: dict[tuple, list[tuple[int, int]]] = {}
    for t, row in enumerate(simplices.tolist()):
        for k in range(len(row)):
            owner.setdefault(tuple(sorted(row[:k] + row[k + 1:])), []).append((t, k))
    adj = np.full(simplices.shape, -1, dtype=np.int64)
    for entries in owner.values():
        if len(entries) == 2:
            (t1, k1), (t2, k2) = entries
            adj[t1, k1] = t2
            adj[t2, k2] = t1
    return adj


def overlap_loop(rr: np.ndarray, nm, pts: np.ndarray) -> dict:
    """cvmesh.solver.classify_overlap one neighbour pair at a time: (i, j),
    i < j, maps to True when the pair overlaps (gap <= 0)."""
    pairs: dict[tuple[int, int], bool] = {}
    n = nm.n_points
    for i in range(n):
        for j in nm.neighbors(i):
            j = int(j)
            key = (i, j) if i < j else (j, i)
            if key in pairs:
                continue
            L = float(np.linalg.norm(pts[i] - pts[j]))
            gap = L - (rr[i] + rr[j])
            pairs[key] = not gap > 0.0
    return pairs


# ---------------------------------------------------------------------------
# the Bowyer-Watson kernel that scans every live simplex per insertion:
# cvmesh.delaunay's kernel before it walked to each point and grew the cavity
# by breadth-first search, kept as the reference for its simplices,
# adjacency and slivers. It shares cvmesh's exact integer predicates and its
# finishing passes (sliver rule, canonical rows, adjacency), which both
# kernels run unchanged; what differs is how the conflicts are found.

# Cached circumcircle/circumsphere and hull-facet tests decide a conflict only
# outside this relative band; inside it the kernel decides exactly.
BAND_EPS = 1e-5
# A circumcentre solve whose condition-number bound exceeds this is not
# trusted to BAND_EPS; every conflict test of that simplex is exact.
COND_MAX = 1e8
# Bound on the relative rounding of a cached simplex test, as a share of the
# square of its largest length (centre, circumradius and point magnitudes).
ROUND_EPS = 1e-14


def _scan_rowdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", u, v)


def _cached_tests(pts: np.ndarray, rows: np.ndarray, reach: float):
    """Float conflict tests of new simplices, as (lin, off, band).

    The margin of point p is lin . (p, |p|^2) + off: for a simplex with
    circumcentre c and squared circumradius r^2 it is r^2 - |p - c|^2, for a
    ghost the product of p - a with the outward normal of its hull facet (a
    the facet's first corner). p conflicts when the margin exceeds band and
    not when it is below -band; in between the test is left to the exact
    conflict test. A ghost's band bounds the rounding of its facet test; a
    simplex's is BAND_EPS of r^2 plus the rounding of the lifted product, or
    infinite when the bound on the condition number of its circumcentre solve
    exceeds COND_MAX.
    """
    from cvmesh.delaunay import GHOST, _rownormal

    d = pts.shape[1]
    ghost = rows[:, d] == GHOST
    a = pts[rows[:, 0]]
    # The last edge is meaningless on ghost rows, and not used there.
    edges = [pts[rows[:, k]] - a for k in range(1, d + 1)]
    sq = [_scan_rowdot(e, e) for e in edges]
    normal = _rownormal(*edges[:-1])
    det = _scan_rowdot(normal, edges[-1])
    # Circumcentre minus a, by Cramer's rule on [edges] x = sq / 2: column k
    # of the adjugate is (-1)^(d-1-k) times the normal of the other edges.
    x = sum((-1) ** (d - 1 - k) * sq[k][:, None] * _rownormal(*edges[:k], *edges[k + 1:])
            for k in range(d))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = 0.5 * x / det[:, None]
        trusted = ~ghost & (sum(sq) ** (d / 2) <= COND_MAX * np.abs(det))
    # An untrusted simplex gets the dummy circle of radius 0 around a; its
    # band is infinite.
    x[~trusted] = 0.0
    r2 = _scan_rowdot(x, x)
    lin = np.empty((len(rows), d + 1))
    lin[:, :d] = np.where(ghost[:, None], normal, 2.0 * (a + x))
    lin[:, d] = np.where(ghost, 0.0, -1.0)
    off = np.where(ghost, -_scan_rowdot(normal, a), -_scan_rowdot(a, a + 2.0 * x))
    rounding = ROUND_EPS * (np.sqrt(_scan_rowdot(a, a)) + 2.0 * np.sqrt(r2) + reach) ** 2
    band = np.where(ghost, BAND_EPS * np.sqrt(np.prod(sq[:-1], axis=0)) * reach,
                    np.where(trusted, BAND_EPS * r2 + rounding, np.inf))
    return lin, off, band


def bowyer_watson_scan(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Delaunay simplices of (N, d) points, d = 2 or 3, as (simplices,
    adjacency, hull slivers dropped), finding each point's cavity by testing
    it against every live simplex: one cached float test per simplex, the
    exact test inside its band. The points must already pass
    `triangulate2`'s (`tetrahedralize3`'s) input checks."""
    from cvmesh.delaunay import (
        _FACETS, GHOST, _adjacency, _canonical_rows, _conflict_exact, _drop_hull_slivers,
        _ExactCoords, _first_simplex,
    )

    n, d = pts.shape
    facets = _FACETS[d]
    xp = _ExactCoords(pts)
    lifted = np.hstack([pts, _scan_rowdot(pts, pts)[:, None]])
    # With the facet's edge lengths, bounds the rounding of a ghost's facet test.
    diameter = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    reach = diameter + 2.0 * float(np.abs(pts).max())

    # Rows [0, count) of the simplices and their cached tests; a dead row's
    # off is NaN, which no test selects, and dead rows are dropped whenever
    # the arrays fill up.
    simp, lin, off, band = (np.empty((0, d + 1), dtype=np.int64), np.empty((0, d + 1)),
                            np.empty(0), np.empty(0))
    count = 0

    def add(rows: list[tuple]):
        nonlocal count, simp, lin, off, band
        rows = np.asarray(rows, dtype=np.int64)
        if count + len(rows) > len(simp):
            live = np.nonzero(~np.isnan(off[:count]))[0]
            cap = 2 * (len(live) + len(rows))
            arrays = []
            for old in (simp, lin, off, band):
                new = np.zeros((cap,) + old.shape[1:], dtype=old.dtype)
                new[:len(live)] = old[live]
                arrays.append(new)
            simp, lin, off, band = arrays
            count = len(live)
        k = slice(count, count + len(rows))
        simp[k] = rows
        lin[k], off[k], band[k] = _cached_tests(pts, rows, reach)
        count += len(rows)

    first = _first_simplex(xp)
    # Each facet reversed (its first two corners swapped) faces away from the simplex.
    ghosts = np.asarray(first)[facets][:, [1, 0, *range(2, d)]]
    add([first] + [(*facet, GHOST) for facet in ghosts.tolist()])
    rest = np.ones(n, dtype=bool)
    rest[first] = False

    for p in np.nonzero(rest)[0].tolist():
        margin = lin[:count] @ lifted[p] + off[:count]
        near = np.nonzero(margin >= -band[:count])[0]
        sure = margin[near] > band[near]
        cavity = near[sure].tolist()
        cavity += [t for t in near[~sure].tolist() if _conflict_exact(xp, simp[t].tolist(), p)]
        boundary: dict[frozenset, list] = {}
        for facet in simp[cavity][:, facets].reshape(-1, d).tolist():
            key = frozenset(facet)
            if key in boundary:
                del boundary[key]  # shared by two cavity simplices: interior
            else:
                boundary[key] = facet
        off[cavity] = np.nan
        new = []
        for facet in boundary.values():
            row = [*facet, p]
            if GHOST in facet:
                # Move GHOST last; a second swap keeps the orientation.
                j = row.index(GHOST)
                row[j], row[d] = row[d], row[j]
                row[0], row[1] = row[1], row[0]
            new.append(tuple(row))
        add(new)

    rows = simp[:count][~np.isnan(off[:count])]
    ghost = rows[:, d] == GHOST
    simplices, dropped = _drop_hull_slivers(pts, rows[~ghost], rows[ghost, :d])
    simplices = _canonical_rows(simplices)
    return simplices, _adjacency(simplices), dropped


# Shewchuk's (1997) error constants of incircle and insphere, and the
# absolute term cvmesh adds for rounding below the normal range.
_SHEWCHUK_EPS = 2.0 ** -53
_ICC_ERRBOUND = (10.0 + 96.0 * _SHEWCHUK_EPS) * _SHEWCHUK_EPS
_ISP_ERRBOUND = (16.0 + 224.0 * _SHEWCHUK_EPS) * _SHEWCHUK_EPS
_SUBNORMAL_TERM = 2.0 ** -960


def incircle_filter_permanent(a, b, c, p) -> int:
    """The in-circle filter with the permanent's bound alone: the sign of
    the lifted determinant of a, b, c translated by -p, or 0 inside
    (10 + 96 eps) eps times its permanent."""
    adx, ady = a[0] - p[0], a[1] - p[1]
    bdx, bdy = b[0] - p[0], b[1] - p[1]
    cdx, cdy = c[0] - p[0], c[1] - p[1]
    bdxcdy, cdxbdy = bdx * cdy, cdx * bdy
    cdxady, adxcdy = cdx * ady, adx * cdy
    adxbdy, bdxady = adx * bdy, bdx * ady
    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy
    det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) + clift * (adxbdy - bdxady)
    permanent = ((abs(bdxcdy) + abs(cdxbdy)) * alift + (abs(cdxady) + abs(adxcdy)) * blift
                 + (abs(adxbdy) + abs(bdxady)) * clift)
    err = _ICC_ERRBOUND * permanent + _SUBNORMAL_TERM
    return 1 if det > err else -1 if det < -err else 0


def insphere_filter_permanent(a, b, c, d, p) -> int:
    """The in-sphere filter with the permanent's bound alone: the sign of
    the lifted determinant of a, b, c, d translated by -p (the opposite of
    Shewchuk's insphere), or 0 inside (16 + 224 eps) eps times its
    permanent."""
    aex, aey, aez = a[0] - p[0], a[1] - p[1], a[2] - p[2]
    bex, bey, bez = b[0] - p[0], b[1] - p[1], b[2] - p[2]
    cex, cey, cez = c[0] - p[0], c[1] - p[1], c[2] - p[2]
    dex, dey, dez = d[0] - p[0], d[1] - p[1], d[2] - p[2]
    aexbey, bexaey = aex * bey, bex * aey
    bexcey, cexbey = bex * cey, cex * bey
    cexdey, dexcey = cex * dey, dex * cey
    dexaey, aexdey = dex * aey, aex * dey
    aexcey, cexaey = aex * cey, cex * aey
    bexdey, dexbey = bex * dey, dex * bey
    ab, bc, cd = aexbey - bexaey, bexcey - cexbey, cexdey - dexcey
    da, ac, bd = dexaey - aexdey, aexcey - cexaey, bexdey - dexbey
    abc = aez * bc - bez * ac + cez * ab
    bcd = bez * cd - cez * bd + dez * bc
    cda = cez * da + dez * ac + aez * cd
    dab = dez * ab + aez * bd + bez * da
    alift = aex * aex + aey * aey + aez * aez
    blift = bex * bex + bey * bey + bez * bez
    clift = cex * cex + cey * cey + cez * cez
    dlift = dex * dex + dey * dey + dez * dez
    det = (dlift * abc - clift * dab) + (blift * cda - alift * bcd)
    aez, bez, cez, dez = abs(aez), abs(bez), abs(cez), abs(dez)
    aexbey, bexaey, bexcey, cexbey = abs(aexbey), abs(bexaey), abs(bexcey), abs(cexbey)
    cexdey, dexcey, dexaey, aexdey = abs(cexdey), abs(dexcey), abs(dexaey), abs(aexdey)
    aexcey, cexaey, bexdey, dexbey = abs(aexcey), abs(cexaey), abs(bexdey), abs(dexbey)
    permanent = (((cexdey + dexcey) * bez + (dexbey + bexdey) * cez + (bexcey + cexbey) * dez) * alift
                 + ((dexaey + aexdey) * cez + (aexcey + cexaey) * dez + (cexdey + dexcey) * aez) * blift
                 + ((aexbey + bexaey) * dez + (bexdey + dexbey) * aez + (dexaey + aexdey) * bez) * clift
                 + ((bexcey + cexbey) * aez + (cexaey + aexcey) * bez + (aexbey + bexaey) * cez) * dlift)
    err = _ISP_ERRBOUND * permanent + _SUBNORMAL_TERM
    return -1 if det > err else 1 if det < -err else 0


def rosenbrock_sequential(f, x0, bounds, params=None):
    """Rosenbrock's rotating-direction search trying one trial point at a
    time, f called on each (n,) point alone, as cvmesh ran its polish before
    it evaluated a sweep's remaining trials in one stacked call. It shares
    cvmesh's parameters, result type, bounds check and rotation, which both
    loops run; the tests compare x, fun, n_eval and status bit for bit."""
    from cvmesh.optimize import OptimizeResult, OptimizerParams, _as_bounds, _gram_schmidt_rotation

    p = params or OptimizerParams()
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    lo, hi = _as_bounds(bounds, n)
    if np.any(x <= lo) or np.any(x >= hi):
        raise ValueError("x0 must lie strictly inside the bounds box")
    max_evals = p.max_evals if p.max_evals > 0 else 100_000 * n

    width = hi - lo
    fx = float(f(x))
    n_eval = 1
    if not np.isfinite(fx):
        raise ValueError("objective is not finite at x0")

    dirs = np.eye(n)
    steps = p.initial_step * width.copy()
    lam = np.zeros(n)
    succeeded = np.zeros(n, dtype=bool)
    failed_after = np.zeros(n, dtype=bool)
    f_stage = fx
    status = "max-evals"
    while n_eval < max_evals:
        for k in range(n):
            trial = x + steps[k] * dirs[k]
            if np.all(trial > lo) and np.all(trial < hi):
                ft = float(f(trial))
                n_eval += 1
            else:
                ft = np.inf
            if ft <= fx:
                x = trial
                fx = ft
                lam[k] += steps[k]
                steps[k] *= p.expansion
                succeeded[k] = True
            else:
                steps[k] *= p.contraction
                if succeeded[k]:
                    failed_after[k] = True
            if n_eval >= max_evals:
                break

        if np.all(np.abs(steps) < p.tol_step):
            status = "step-tol"
            break

        if succeeded.all() and failed_after.all():
            if f_stage - fx < p.tol_f:
                status = "f-tol"
                break
            f_stage = fx
            dirs = _gram_schmidt_rotation(dirs, lam)
            steps = p.initial_step * width.copy()
            lam[:] = 0.0
            succeeded[:] = False
            failed_after[:] = False

    converged = status in ("step-tol", "f-tol")
    return OptimizeResult(x=x, fun=fx, n_eval=n_eval, converged=converged, status=status)


def soft_selection_choice(f, bounds, seed=0, params=None, x0=None, polish=None):
    """cvmesh's (mu, lambda) evolution strategy drawing each generation's
    parents by rng.choice(order, size=mu, p=rank_w) and keeping individuals
    in the interior box by np.clip; the tests compare x, fun, n_eval and
    trace bit for bit."""
    from cvmesh.optimize import (OptimizeResult, OptimizerParams, _as_bounds, _values,
                                 interior_box, rosenbrock_minimize)

    p = params or OptimizerParams()
    rng = np.random.default_rng(seed)
    lo, hi = _as_bounds(bounds)
    n = lo.size
    width = hi - lo
    inner_lo, inner_hi = interior_box((lo, hi))
    if x0 is None:
        pop = lo + width * rng.random((p.lam, n))
    else:
        x0 = np.asarray(x0, dtype=float)
        pop = x0 + p.sigma0 * width * rng.standard_normal((p.lam, n))
        pop[0] = x0
    np.clip(pop, inner_lo, inner_hi, out=pop)
    sigma = p.sigma0
    best_x, best_f, n_eval, trace = None, np.inf, 0, []
    rank_w = np.arange(p.lam, 0, -1, dtype=float)
    rank_w /= rank_w.sum()
    for _ in range(p.generations):
        fitness = _values(f, pop, "population")
        n_eval += p.lam
        order = np.argsort(fitness, kind="stable")
        if fitness[order[0]] < best_f:
            best_f = float(fitness[order[0]])
            best_x = pop[order[0]].copy()
        trace.append(best_f)
        parents = pop[rng.choice(order, size=p.mu, p=rank_w)]
        picks = rng.integers(0, p.mu, size=p.lam)
        pop = parents[picks] + sigma * width * rng.standard_normal((p.lam, n))
        np.clip(pop, inner_lo, inner_hi, out=pop)
        sigma *= p.sigma_decay
    polished = rosenbrock_minimize(f, best_x, (lo, hi), p) if polish is None else polish(best_x)
    if polished.fun <= best_f:
        best_x, best_f = polished.x, polished.fun
    return OptimizeResult(x=best_x, fun=best_f, n_eval=n_eval + polished.n_eval,
                          converged=True, status="generations", trace=trace)
