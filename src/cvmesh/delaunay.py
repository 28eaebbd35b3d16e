"""Incremental Bowyer-Watson Delaunay triangulation (2D) / tetrahedralization (3D)
and the per-point neighbor indexing (rings in 2D, incident-tetra stars in 3D).

Construction is single-threaded; finished triangulations and neighbor maps are
immutable and safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import AllCollinear, AllCoplanar, DuplicatePoints, TooFewPoints
from .geometry import as_point_array

# Near-cocircular margin of the 2D kernel: determinant ties count as "outside",
# so the first-inserted triangles win and construction stays deterministic.
TIE_EPS = 1e-12
# Cached circumcircle/circumsphere (and, in 3D, hull-face plane) tests decide
# only outside this relative band; inside it the 2D kernel recomputes with the
# translated determinant and the 3D kernel decides exactly.
BAND_EPS = 1e-5
# A 3D circumcentre solve whose condition-number bound exceeds this is not
# trusted to BAND_EPS; every conflict test of that tetrahedron is exact.
COND_MAX = 1e8
GHOST = -1  # the vertex at infinity shared by every hull face's ghost tetrahedron
DUP_EPS = 1e-12  # duplicate detection, relative to the bounding-box diagonal


@dataclass(frozen=True)
class Triangulation2:
    """Delaunay triangulation: CCW triangles plus edge-neighbor adjacency."""

    points: np.ndarray                 # (N, 2)
    triangles: np.ndarray              # (T, 3) int, CCW
    adjacency: np.ndarray = field(repr=False, default=None)  # (T, 3); entry k faces the edge opposite v_k

    @property
    def dim(self) -> int:
        return 2

    @property
    def simplices(self) -> np.ndarray:
        return self.triangles

    def edges(self) -> np.ndarray:
        """Unique undirected edges as an (E, 2) index array."""
        t = self.triangles
        e = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        e.sort(axis=1)
        return np.unique(e, axis=0)


@dataclass(frozen=True)
class Triangulation3:
    """Delaunay tetrahedralization: positively oriented tets plus face adjacency."""

    points: np.ndarray                 # (N, 3)
    tetrahedra: np.ndarray             # (T, 4) int, positive orientation
    adjacency: np.ndarray = field(repr=False, default=None)  # (T, 4); entry k faces the face opposite v_k

    @property
    def dim(self) -> int:
        return 3

    @property
    def simplices(self) -> np.ndarray:
        return self.tetrahedra

    def edges(self) -> np.ndarray:
        t = self.tetrahedra
        e = np.vstack([t[:, [0, 1]], t[:, [0, 2]], t[:, [0, 3]],
                       t[:, [1, 2]], t[:, [1, 3]], t[:, [2, 3]]])
        e.sort(axis=1)
        return np.unique(e, axis=0)


@dataclass(frozen=True)
class NeighborMap:
    """Per-point neighborhood indexing over a triangulation.

    2D: rings[i] lists the neighbors of i in CCW order; closed[i] says whether
    the ring wraps (interior point) or is an open fan (hull point), and
    ring_simplices[i][k] is the triangle (i, ring[k], ring[k+1]).
    3D: stars[i] is a (K, 3) array of incident-tetra vertex triples, each
    ordered so (i, t0, t1, t2) is positively oriented; star_simplices[i][k]
    is the tetrahedron id of row k.
    """

    dim: int
    on_hull: np.ndarray
    rings: list[np.ndarray] | None = None
    closed: np.ndarray | None = None
    ring_simplices: list[np.ndarray] | None = None
    stars: list[np.ndarray] | None = None
    star_simplices: list[np.ndarray] | None = None

    @property
    def n_points(self) -> int:
        return len(self.rings) if self.dim == 2 else len(self.stars)

    def neighbors(self, i: int) -> np.ndarray:
        """All Delaunay neighbors of i (sorted unique ids in 3D, ring order in 2D)."""
        if self.dim == 2:
            return self.rings[i]
        return np.unique(self.stars[i])


def _duplicate_pairs(pts: np.ndarray, eps: float) -> list[tuple[int, int]]:
    """Grid-hash scan for point pairs closer than eps."""
    if eps <= 0.0:
        return []
    cells: dict[tuple, list[int]] = {}
    keys = np.floor(pts / eps).astype(np.int64)
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


def _affine_rank(pts: np.ndarray) -> int:
    d = pts - pts[0]
    scale = np.abs(d).max()
    if scale == 0.0:
        return 0
    return int(np.linalg.matrix_rank(d / scale, tol=1e-9))


def _validate_input(points, dim: int) -> np.ndarray:
    pts = as_point_array(points, dim)
    n = len(pts)
    if n < dim + 1:
        raise TooFewPoints(f"need at least {dim + 1} points in {dim}D, got {n}")
    span = pts.max(axis=0) - pts.min(axis=0)
    diag = float(np.linalg.norm(span))
    dup = _duplicate_pairs(pts, DUP_EPS * max(diag, 1.0))
    if dup:
        raise DuplicatePoints(dup)
    rank = _affine_rank(pts)
    if dim == 2 and rank < 2:
        raise AllCollinear("all points lie on one line")
    if dim == 3 and rank < 3:
        raise AllCoplanar("all points lie on one plane")
    return pts


def _circumcircle(a, b, c):
    """Center and squared radius of the circle through three 2D points."""
    d = 2.0 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
    if d == 0.0:
        return np.array([np.inf, np.inf]), np.inf
    a2 = a[0] * a[0] + a[1] * a[1]
    b2 = b[0] * b[0] + b[1] * b[1]
    c2 = c[0] * c[0] + c[1] * c[1]
    ux = (a2 * (b[1] - c[1]) + b2 * (c[1] - a[1]) + c2 * (a[1] - b[1])) / d
    uy = (a2 * (c[0] - b[0]) + b2 * (a[0] - c[0]) + c2 * (b[0] - a[0])) / d
    cc = np.array([ux, uy])
    r2 = (a[0] - ux) ** 2 + (a[1] - uy) ** 2
    return cc, r2


def _orient2(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _incircle_det(a, b, c, p) -> float:
    """Translated 3x3 in-circle determinant: positive iff p lies inside the
    circumcircle of CCW (a, b, c). Stable where the cached-center test is not."""
    ax, ay = a[0] - p[0], a[1] - p[1]
    bx, by = b[0] - p[0], b[1] - p[1]
    cx, cy = c[0] - p[0], c[1] - p[1]
    a2 = ax * ax + ay * ay
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    return (
        ax * (by * c2 - b2 * cy)
        - ay * (bx * c2 - b2 * cx)
        + a2 * (bx * cy - by * cx)
    )


# Even permutations of a row's corners: they keep its orientation.
_EVEN_PERMS = {
    3: [(0, 1, 2), (1, 2, 0), (2, 0, 1)],
    4: [
        (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2),
        (1, 0, 3, 2), (1, 2, 0, 3), (1, 3, 2, 0),
        (2, 0, 1, 3), (2, 1, 3, 0), (2, 3, 0, 1),
        (3, 0, 2, 1), (3, 1, 0, 2), (3, 2, 1, 0),
    ],
}


def _canonical_rows(rows: np.ndarray) -> np.ndarray:
    """Apply the lexicographically smallest even permutation to each row
    (orientation preserved; in 2D, the rotation starting at the smallest id),
    then sort the rows."""
    perms = _EVEN_PERMS[rows.shape[1]]
    out = np.asarray([min(tuple(row[k] for k in p) for p in perms) for row in rows.tolist()],
                     dtype=np.int64).reshape(rows.shape)
    return out[np.lexsort(out.T[::-1])]


def triangulate2(points) -> Triangulation2:
    """Delaunay-triangulate 2D points by incremental Bowyer-Watson.

    Deterministic for a fixed input order; near-cocircular ties are broken in
    favor of earlier-inserted triangles.
    """
    pts = _validate_input(points, 2)
    n = len(pts)

    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    center = (lo + hi) / 2.0
    span = max(float((hi - lo).max()), 1e-12)
    m = 64.0 * span
    # Scalene super-triangle: generic placement dodges exact ties with inputs.
    sup = np.array([
        [center[0] - 1.03 * m, center[1] - 0.57 * m],
        [center[0] + 0.99 * m, center[1] - 0.61 * m],
        [center[0] + 0.04 * m, center[1] + 1.07 * m],
    ])
    allp = np.vstack([pts, sup])

    cap = 4 * n + 32
    tri = np.empty((cap, 3), dtype=np.int64)
    ccs = np.empty((cap, 2))
    rr2 = np.empty(cap)
    alive = np.zeros(cap, dtype=bool)
    count = 0

    def add(a: int, b: int, c: int):
        nonlocal count, cap, tri, ccs, rr2, alive
        if _orient2(allp[a], allp[b], allp[c]) < 0.0:
            b, c = c, b
        if count == cap:
            cap *= 2
            tri = np.vstack([tri, np.empty_like(tri)])
            ccs = np.vstack([ccs, np.empty_like(ccs)])
            rr2 = np.concatenate([rr2, np.empty_like(rr2)])
            alive = np.concatenate([alive, np.zeros_like(alive)])
        tri[count] = (a, b, c)
        ccs[count], rr2[count] = _circumcircle(allp[a], allp[b], allp[c])
        alive[count] = True
        count += 1

    add(n, n + 1, n + 2)

    for p in range(n):
        x, y = allp[p]
        d2 = (ccs[:count, 0] - x) ** 2 + (ccs[:count, 1] - y) ** 2
        margin = rr2[:count] - d2
        sure = alive[:count] & (margin > BAND_EPS * rr2[:count])
        band = alive[:count] & (np.abs(margin) <= BAND_EPS * rr2[:count])
        bad = set(int(t) for t in np.nonzero(sure)[0])
        for t in np.nonzero(band)[0]:
            a, b, c = (allp[v] for v in tri[t])
            det = _incircle_det(a, b, c, allp[p])
            scale = max(
                (a[0] - x) ** 2 + (a[1] - y) ** 2,
                (b[0] - x) ** 2 + (b[1] - y) ** 2,
                (c[0] - x) ** 2 + (c[1] - y) ** 2,
            )
            if det > TIE_EPS * scale * scale:
                bad.add(int(t))
        if not bad:
            continue  # tie-snapped onto an existing circumcircle boundary
        cavity = _star_shaped_cavity_2(bad, tri, allp, p)
        edge_count: dict[tuple[int, int], int] = {}
        edge_dir: dict[tuple[int, int], tuple[int, int]] = {}
        for t in cavity:
            a, b, c = tri[t]
            for u, v in ((a, b), (b, c), (c, a)):
                key = (u, v) if u < v else (v, u)
                edge_count[key] = edge_count.get(key, 0) + 1
                edge_dir[key] = (u, v)
            alive[t] = False
        for key, cnt in edge_count.items():
            if cnt == 1:
                u, v = edge_dir[key]
                add(u, v, p)

    keep = [t for t in range(count) if alive[t] and tri[t].max() < n]
    rows = _fill_hull_pockets_2(pts, [tuple(int(v) for v in tri[t]) for t in keep])
    triangles = _canonical_rows(np.asarray(rows, dtype=np.int64))
    adjacency = _adjacency(triangles)
    return Triangulation2(points=pts, triangles=triangles, adjacency=adjacency)


def _fill_hull_pockets_2(pts: np.ndarray, rows: list[tuple]) -> list[tuple]:
    """2D analog of the hull-pocket repair: a near-collinear hull sliver whose
    circumcircle reaches a super vertex goes missing, leaving boundary edges
    that are not on the convex hull. Ear-clip those chains back in."""
    for _ in range(128):
        edge_count: dict[tuple, int] = {}
        edge_dir: dict[tuple, tuple] = {}
        for row in rows:
            a, b, c = row
            for u, v in ((a, b), (b, c), (c, a)):
                key = (u, v) if u < v else (v, u)
                edge_count[key] = edge_count.get(key, 0) + 1
                edge_dir[key] = (u, v)
        internal = [
            edge_dir[k] for k, c in edge_count.items()
            if c == 1 and not _edge_on_hull(pts, k)
        ]
        if not internal:
            return rows
        # owner triangles are CCW, so the pocket is to the right of each
        # directed edge; two edges chained through a vertex close an ear
        succ = {u: v for u, v in internal}
        added = False
        for u, v in internal:
            w = succ.get(v)
            if w is None or w == u:
                continue
            if _orient2(pts[w], pts[v], pts[u]) > 0.0:
                rows.append((w, v, u))
                added = True
                break
        if not added:
            return rows  # irreducible pocket: leave it to the validation oracle
    return rows


def _edge_on_hull(pts: np.ndarray, edge: tuple) -> bool:
    a, b = pts[edge[0]], pts[edge[1]]
    e = b - a
    side = (pts - a) @ np.array([-e[1], e[0]])
    tol = 1e-9 * max(float(np.abs(side).max()), 1e-300)
    return bool(np.all(side <= tol) or np.all(side >= -tol))


def _star_shaped_cavity_2(bad: set[int], tri: np.ndarray, allp: np.ndarray, p: int) -> set[int]:
    """Erode the bad-triangle set until every cavity boundary edge sees the new
    point strictly from the interior side; refilling a non-star-shaped cavity
    would leave holes or inverted triangles."""
    pp = allp[p]
    initial = set(bad)
    while bad:
        owner: dict[tuple[int, int], list] = {}
        for t in bad:
            a, b, c = tri[t]
            for u, v in ((a, b), (b, c), (c, a)):
                key = (u, v) if u < v else (v, u)
                owner.setdefault(key, []).append((t, u, v))
        drop = None
        for entries in owner.values():
            if len(entries) != 1:
                continue
            t, u, v = entries[0]
            # boundary edge of a CCW triangle: interior (and p) must be to the left
            e = allp[v] - allp[u]
            cross = e[0] * (pp[1] - allp[u][1]) - e[1] * (pp[0] - allp[u][0])
            if cross <= 1e-13 * np.linalg.norm(e) * (np.linalg.norm(pp - allp[u]) + 1e-300):
                drop = t
                break
        if drop is None:
            return bad
        bad.remove(drop)
    # fully eroded: p sits numerically on a cavity edge; keep the triangle that
    # contains it best so the point is still inserted
    best = None
    best_val = -np.inf
    for t in initial:
        a, b, c = (allp[v] for v in tri[t])
        val = min(
            (b - a)[0] * (pp - a)[1] - (b - a)[1] * (pp - a)[0],
            (c - b)[0] * (pp - b)[1] - (c - b)[1] * (pp - b)[0],
            (a - c)[0] * (pp - c)[1] - (a - c)[1] * (pp - c)[0],
        )
        if val > best_val:
            best_val = val
            best = t
    return {best}


def _adjacency(simplices: np.ndarray) -> np.ndarray:
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


def _exact_coords(pts: np.ndarray) -> list[tuple[int, ...]]:
    """The points scaled by the least power of two that makes every coordinate
    an integer: exact, so the predicates below have no rounding."""
    ratios = [x.as_integer_ratio() for x in pts.ravel().tolist()]
    shift = max(den.bit_length() for _, den in ratios)
    flat = [num << (shift - den.bit_length()) for num, den in ratios]
    d = pts.shape[1]
    return [tuple(flat[k:k + d]) for k in range(0, len(flat), d)]


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _orient3_exact(a, b, c, d) -> int:
    """det[b - a, c - a, d - a] on integer points: positive when d lies on the
    side of plane(a, b, c) that (b - a) x (c - a) points to."""
    return _dot(_cross(_sub(b, a), _sub(c, a)), _sub(d, a))


def _insphere_exact(a, b, c, d, p) -> int:
    """Positive iff p lies strictly inside the sphere through the positively
    oriented (a, b, c, d); zero on it. The lifted 4x4 determinant, expanded
    along the lifted column, on integer points."""
    a, b, c, d = (_sub(v, p) for v in (a, b, c, d))
    la, lb, lc, ld = (_dot(v, v) for v in (a, b, c, d))
    det3 = lambda u, v, w: _dot(u, _cross(v, w))
    return la * det3(b, c, d) - lb * det3(a, c, d) + lc * det3(a, b, d) - ld * det3(a, b, c)


def _conflict_exact(xp: list, tet, p: int) -> bool:
    """Exact conflict of point p with a tetrahedron or a ghost tetrahedron.

    A ghost (a, b, c, GHOST) conflicts when p lies strictly outside hull face
    (a, b, c), or in its plane and strictly inside its circumcircle: the
    degenerate circumsphere of a tetrahedron whose fourth vertex is at infinity.
    """
    a, b, c, d = tet
    if d != GHOST:
        return _insphere_exact(xp[a], xp[b], xp[c], xp[d], xp[p]) > 0
    side = _orient3_exact(xp[a], xp[b], xp[c], xp[p])
    if side:
        return side > 0
    # In plane: the sphere through a, b, c and a point off the plane meets the
    # plane in the circumcircle of (a, b, c).
    normal = _cross(_sub(xp[b], xp[a]), _sub(xp[c], xp[a]))
    off = tuple(xp[a][k] + normal[k] for k in range(3))
    return _insphere_exact(xp[a], xp[b], xp[c], off, xp[p]) > 0


def _first_simplex(xp: list) -> list[int]:
    """The first four affinely independent points in index order, positively oriented."""
    a, b = 0, 1
    c = next(k for k in range(2, len(xp))
             if any(_cross(_sub(xp[b], xp[a]), _sub(xp[k], xp[a]))))
    d = next(k for k in range(c + 1, len(xp)) if _orient3_exact(xp[a], xp[b], xp[c], xp[k]))
    if _orient3_exact(xp[a], xp[b], xp[c], xp[d]) < 0:
        c, d = d, c
    return [a, b, c, d]


# FACES[k]: the face opposite corner k of a positively oriented tetrahedron,
# ordered so that (face, corner k) is positively oriented too.
_FACES = ((1, 3, 2), (0, 2, 3), (0, 3, 1), (0, 1, 2))


def _rowdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", u, v)


def _cached_tests(pts: np.ndarray, rows: np.ndarray, reach: float):
    """Float conflict tests of new tetrahedra, as (ghost, ctr, off, band).

    Point p conflicts with a tetrahedron when off - |p - ctr|^2 > band (ctr
    the circumcentre, off the squared circumradius) and with a ghost when
    ctr . p - off > band (ctr the outward normal of its hull face, off the
    normal's product with the face's first corner); within +-band the test is
    left to `_conflict_exact`. A ghost's band bounds the rounding of its plane
    test; a tetrahedron's is BAND_EPS of r^2, or infinite when the bound on the
    condition number of its circumcentre solve exceeds COND_MAX.
    """
    ghost = rows[:, 3] == GHOST
    a = pts[rows[:, 0]]
    u, v = pts[rows[:, 1]] - a, pts[rows[:, 2]] - a
    w = pts[rows[:, 3]] - a     # meaningless on ghost rows, and not used there
    normal = np.cross(u, v)
    det = _rowdot(normal, w)
    uu, vv, ww = _rowdot(u, u), _rowdot(v, v), _rowdot(w, w)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # Circumcentre minus a, by Cramer's rule on [u; v; w] x = (uu, vv, ww) / 2.
        x = 0.5 * (uu[:, None] * np.cross(v, w) + vv[:, None] * np.cross(w, u)
                   + ww[:, None] * normal) / det[:, None]
        r2 = _rowdot(x, x)
        trusted = (uu + vv + ww) ** 1.5 <= COND_MAX * np.abs(det)
    # An untrusted tetrahedron gets a finite dummy sphere; its band is infinite.
    ctr = np.where(ghost[:, None], normal, np.where(trusted[:, None], a + x, a))
    off = np.where(ghost, _rowdot(normal, a), np.where(trusted, r2, 0.0))
    band = np.where(ghost, BAND_EPS * np.sqrt(uu * vv) * reach,
                    np.where(trusted, BAND_EPS * r2, np.inf))
    return ghost, ctr, off, band


def tetrahedralize3(points) -> Triangulation3:
    """Delaunay-tetrahedralize 3D points by incremental Bowyer-Watson.

    The first four affinely independent points (in index order) start one
    tetrahedron plus a ghost tetrahedron (a, b, c, GHOST) on each hull face;
    the other points follow in index order. A point's cavity is every
    tetrahedron whose circumsphere holds it strictly, with the ghosts' rule of
    `_conflict_exact`. Cached circumspheres and face planes decide outside a
    BAND_EPS band, integer arithmetic decides inside it, so each cavity is
    exactly star-shaped and its boundary faces coned to the point are the new
    tetrahedra; no repair pass follows. Cospherical ties count as outside, so
    earlier tetrahedra win and the output is deterministic.
    """
    pts = _validate_input(points, 3)
    n = len(pts)
    xp = _exact_coords(pts)
    # With |b - a| |c - a|, bounds the rounding of a ghost's plane test.
    diameter = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    reach = diameter + 2.0 * float(np.abs(pts).max())

    # Rows [0, count) of the tetrahedra and their cached tests; dead rows are
    # dropped whenever the arrays fill up.
    tet = np.empty((0, 4), dtype=np.int64)
    ghost, ctr, off, band, alive = (np.empty(0, dtype=bool), np.empty((0, 3)),
                                    np.empty(0), np.empty(0), np.empty(0, dtype=bool))
    count = 0

    def add(rows: list[tuple]):
        nonlocal count, tet, ghost, ctr, off, band, alive
        rows = np.asarray(rows, dtype=np.int64)
        if count + len(rows) > len(tet):
            live = np.nonzero(alive[:count])[0]
            cap = 2 * (len(live) + len(rows))
            arrays = []
            for old in (tet, ghost, ctr, off, band, alive):
                new = np.zeros((cap,) + old.shape[1:], dtype=old.dtype)
                new[:len(live)] = old[live]
                arrays.append(new)
            tet, ghost, ctr, off, band, alive = arrays
            count = len(live)
        k = slice(count, count + len(rows))
        tet[k] = rows
        ghost[k], ctr[k], off[k], band[k] = _cached_tests(pts, rows, reach)
        alive[k] = True
        count += len(rows)

    first = _first_simplex(xp)
    add([tuple(first)] + [(first[f[0]], first[f[2]], first[f[1]], GHOST) for f in _FACES])
    rest = np.ones(n, dtype=bool)
    rest[first] = False

    for p in np.nonzero(rest)[0].tolist():
        pp = pts[p]
        c = ctr[:count]
        margin = np.where(ghost[:count], c @ pp - off[:count],
                          off[:count] - np.sum((c - pp) ** 2, axis=1))
        sure = alive[:count] & (margin > band[:count])
        unsure = alive[:count] & ~sure & (margin >= -band[:count])
        cavity = np.nonzero(sure)[0].tolist()
        cavity += [t for t in np.nonzero(unsure)[0].tolist()
                   if _conflict_exact(xp, tet[t].tolist(), p)]
        faces: dict[frozenset, tuple] = {}
        for t in cavity:
            row = tet[t].tolist()
            for f in _FACES:
                tri = (row[f[0]], row[f[1]], row[f[2]])
                key = frozenset(tri)
                if key in faces:
                    del faces[key]  # shared by two cavity tetrahedra: interior
                else:
                    faces[key] = tri
            alive[t] = False
        new = []
        for tri in faces.values():
            row = [*tri, p]
            if GHOST in tri:
                # Move GHOST last; a second swap keeps the orientation.
                j = row.index(GHOST)
                row[j], row[3] = row[3], row[j]
                row[0], row[1] = row[1], row[0]
            new.append(tuple(row))
        add(new)

    keep = alive[:count] & ~ghost[:count]
    tets = _canonical_rows(tet[:count][keep])
    adjacency = _adjacency(tets)
    return Triangulation3(points=pts, tetrahedra=tets, adjacency=adjacency)


def neighbor_map(tri: Triangulation2 | Triangulation3) -> NeighborMap:
    """Build the neighbor indexing (rings or stars) from a triangulation."""
    if isinstance(tri, Triangulation2):
        return _neighbor_map2(tri)
    if isinstance(tri, Triangulation3):
        return _neighbor_map3(tri)
    raise TypeError(f"expected Triangulation2 or Triangulation3, got {type(tri)!r}")


def _neighbor_map2(tri: Triangulation2) -> NeighborMap:
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

    return NeighborMap(
        dim=2,
        on_hull=~closed,
        rings=rings,
        closed=closed,
        ring_simplices=ring_simplices,
    )


# Remaining-corner orderings keeping (corner, t0, t1, t2) positively oriented.
_STAR_ORDER = {0: (1, 2, 3), 1: (0, 3, 2), 2: (0, 1, 3), 3: (0, 2, 1)}


def _neighbor_map3(tri: Triangulation3) -> NeighborMap:
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

    return NeighborMap(
        dim=3,
        on_hull=on_hull,
        stars=star_arrays,
        star_simplices=star_simplices,
    )
