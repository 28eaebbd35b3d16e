"""Delaunay triangulation (2D) and tetrahedralization (3D) by one incremental
Bowyer-Watson kernel with a ghost vertex at infinity and exact predicates,
and the neighbourhood of every point (its CCW ring in 2D, its star of
incident tetrahedra in 3D) as one flat row table, `NeighborMap`, built from
the simplices in whole-array passes.

Construction is single-threaded; finished triangulations and neighbor maps are
immutable and safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import factorial

import numpy as np

from .clipping import _lengths, _successors
from .errors import AllCollinear, AllCoplanar, DuplicatePoints, TooFewPoints
from .geometry import EPS_AREA, EPS_VOL, as_point_array

# Cached circumcircle/circumsphere and hull-facet tests decide a conflict only
# outside this relative band; inside it the kernel decides exactly.
BAND_EPS = 1e-5
# A circumcentre solve whose condition-number bound exceeds this is not
# trusted to BAND_EPS; every conflict test of that simplex is exact.
COND_MAX = 1e8
# Bound on the relative rounding of a cached simplex test, as a share of the
# square of its largest length (centre, circumradius and point magnitudes).
ROUND_EPS = 1e-14
GHOST = -1  # the vertex at infinity shared by every hull facet's ghost simplex
DUP_EPS = 1e-12  # duplicate detection, relative to the bounding-box diagonal


@dataclass(frozen=True)
class Triangulation2:
    """Delaunay triangulation: CCW triangles plus edge-neighbor adjacency."""

    points: np.ndarray                 # (N, 2)
    triangles: np.ndarray              # (T, 3) int, CCW
    adjacency: np.ndarray = field(repr=False, default=None)  # (T, 3); entry k faces the edge opposite v_k
    hull_slivers_dropped: int = 0      # flat hull triangles the kernel removed

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
    hull_slivers_dropped: int = 0      # flat hull tetrahedra the kernel removed

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
    """The Delaunay neighbourhood of every point as one row table.

    Point i owns rows starts[i] up to starts[i + 1]; owner[k] is the point of
    row k. In 2D nbr[k] is a ring neighbour, the rows of a point listing its
    neighbours in CCW order: a closed ring (interior point) from its least
    neighbour, an open fan (hull point) from its head. simplex[k] is the
    triangle (i, nbr[k], nbr[k + 1]), wrapping on a closed ring, or -1 on the
    last row of an open fan. In 3D row k is one incident tetrahedron
    simplex[k], and nbr[k] its other three corners, least id first and
    ordered so (i, *nbr[k]) is positively oriented; a point's rows are
    sorted by that triple. on_hull marks the hull points (in 2D, the points
    without a closed ring).
    """

    dim: int
    on_hull: np.ndarray    # (N,) bool
    starts: np.ndarray     # (N,) first row of each point
    owner: np.ndarray      # (R,) point of each row
    nbr: np.ndarray        # (R,) ring neighbour (2D) or (R, 3) star triple (3D)
    simplex: np.ndarray    # (R,) triangle or tetrahedron of each row, -1 for none

    @property
    def n_points(self) -> int:
        return len(self.starts)

    def lengths(self) -> np.ndarray:
        """Rows per point, (N,)."""
        return _lengths(self.starts, len(self.owner))

    def succ(self) -> np.ndarray:
        """Per row, the next row of its point, the last row wrapping to the first."""
        return _successors(self.starts[self.lengths() > 0], len(self.owner))

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(point, neighbour) ids in row order: one pair per row in 2D, one
        per triple entry in 3D. Each neighbour pair appears both ways."""
        if self.dim == 2:
            return self.owner, self.nbr
        return np.repeat(self.owner, 3), self.nbr.ravel()


def _duplicate_pairs(pts: np.ndarray, eps: float) -> list[tuple[int, int]]:
    """Point pairs (j, i), j < i, with squared distance below eps**2, found
    on a grid of side eps: each point is measured against the earlier points
    in the 3^d cells around its own. Pairs are ordered by i, then by the
    neighbour cell's offset in product((-1, 0, 1), repeat=d) order, then
    by j."""
    if eps <= 0.0:
        return []
    n, dim = pts.shape
    keys = np.floor((pts - pts.min(axis=0)) / eps).astype(np.int64)
    # Occupied cells are numbered through the per-axis ranks of their keys;
    # a neighbour cell that no point occupies gets no candidates.
    axes = [np.unique(keys[:, a]) for a in range(dim)]
    shape = [len(v) for v in axes]
    nb = (keys[:, None, :] + np.array(list(product((-1, 0, 1), repeat=dim)))).reshape(-1, dim)
    rank = [np.minimum(np.searchsorted(v, nb[:, a]), len(v) - 1) for a, v in enumerate(axes)]
    occupied = np.all([v[r] == nb[:, a] for a, (v, r) in enumerate(zip(axes, rank))], axis=0)
    code = np.ravel_multi_index([np.searchsorted(v, keys[:, a]) for a, v in enumerate(axes)], shape)
    order = np.argsort(code, kind="stable")
    sorted_code = code[order]
    cell = np.ravel_multi_index(rank, shape)
    lo = np.searchsorted(sorted_code, cell, "left")
    count = np.where(occupied, np.searchsorted(sorted_code, cell, "right") - lo, 0)
    run = np.cumsum(count) - count
    q = np.repeat(np.arange(len(nb)) // 3 ** dim, count)
    p = order[np.arange(int(count.sum())) + np.repeat(lo - run, count)]
    near = (p < q) & (np.sum((pts[q] - pts[p]) ** 2, axis=1) < eps * eps)
    return list(zip(p[near].tolist(), q[near].tolist()))


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


# Even permutations of a row's corners: they keep its orientation.
_EVEN_PERMS = {
    3: np.array([(0, 1, 2), (1, 2, 0), (2, 0, 1)]),
    4: np.array([
        (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2),
        (1, 0, 3, 2), (1, 2, 0, 3), (1, 3, 2, 0),
        (2, 0, 1, 3), (2, 1, 3, 0), (2, 3, 0, 1),
        (3, 0, 2, 1), (3, 1, 0, 2), (3, 2, 1, 0),
    ]),
}


def _canonical_rows(rows: np.ndarray) -> np.ndarray:
    """Apply the lexicographically smallest even permutation to each row
    (orientation preserved; in 2D, the rotation starting at the smallest id),
    then sort the rows."""
    cand = rows[:, _EVEN_PERMS[rows.shape[1]]]  # (rows, perms, corners)
    # Narrow the candidates to the least first corner, then second, ...
    best = np.ones(cand.shape[:2], dtype=bool)
    for k in range(rows.shape[1]):
        col = np.where(best, cand[:, :, k], np.iinfo(np.int64).max)
        best &= col == col.min(axis=1, keepdims=True)
    out = cand[np.arange(len(rows)), best.argmax(axis=1)]
    return out[np.lexsort(out.T[::-1])]


def _adjacency(simplices: np.ndarray) -> np.ndarray:
    """Entry [t, k] is the simplex across the facet opposite corner k of
    simplex t, or -1 when that facet is on the hull (or, not in a valid
    triangulation, shared by more than two simplices)."""
    t, m = simplices.shape
    opposite = np.array([[c for c in range(m) if c != k] for k in range(m)])
    facets = np.sort(simplices[:, opposite], axis=2).reshape(t * m, m - 1)
    order = np.lexsort(facets.T[::-1])
    f = facets[order]
    start = np.flatnonzero(np.r_[True, np.any(f[1:] != f[:-1], axis=1)])[:len(f)]
    pair = start[np.diff(np.r_[start, len(f)]) == 2]
    a, b = order[pair], order[pair + 1]
    adj = np.full(t * m, -1, dtype=np.int64)
    adj[a] = b // m
    adj[b] = a // m
    return adj.reshape(t, m)


def _exact_coords(pts: np.ndarray) -> list[tuple[int, ...]]:
    """The points scaled by the least power of two that makes every coordinate
    an integer: exact, so the predicates below have no rounding."""
    ratios = [x.as_integer_ratio() for x in pts.ravel().tolist()]
    shift = max(den.bit_length() for _, den in ratios)
    flat = [num << (shift - den.bit_length()) for num, den in ratios]
    d = pts.shape[1]
    return [tuple(flat[k:k + d]) for k in range(0, len(flat), d)]


# Exact predicates on integer points, one closed form per dimension. orient is
# positive when the simplex is positively oriented (CCW in 2D); insphere is
# positive iff p lies strictly inside the circumcircle (circumsphere) of a
# positively oriented simplex, zero on it; on_facet decides a point on a hull
# facet's line (plane): strictly inside the facet's segment (circumcircle).


def _orient2_exact(a, b, c) -> int:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _incircle_exact(a, b, c, p) -> int:
    """The lifted 3x3 determinant of a, b, c translated by -p."""
    ax, ay, bx, by, cx, cy = a[0] - p[0], a[1] - p[1], b[0] - p[0], b[1] - p[1], c[0] - p[0], c[1] - p[1]
    return ((ax * ax + ay * ay) * (bx * cy - cx * by) + (bx * bx + by * by) * (cx * ay - ax * cy)
            + (cx * cx + cy * cy) * (ax * by - bx * ay))


def _in_segment_exact(a, b, p) -> bool:
    return (a[0] - p[0]) * (b[0] - p[0]) + (a[1] - p[1]) * (b[1] - p[1]) < 0


def _normal3_exact(a, b, c) -> tuple[int, int, int]:
    """(b - a) x (c - a)."""
    ux, uy, uz, vx, vy, vz = b[0] - a[0], b[1] - a[1], b[2] - a[2], c[0] - a[0], c[1] - a[1], c[2] - a[2]
    return (uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx)


def _orient3_exact(a, b, c, d) -> int:
    """det[b - a, c - a, d - a]."""
    nx, ny, nz = _normal3_exact(a, b, c)
    return nx * (d[0] - a[0]) + ny * (d[1] - a[1]) + nz * (d[2] - a[2])


def _insphere_exact(a, b, c, d, p) -> int:
    """The lifted 4x4 determinant of a, b, c, d translated by -p, expanded
    along the lifted column over the 2x2 minors of the x and y columns."""
    ax, ay, az = a[0] - p[0], a[1] - p[1], a[2] - p[2]
    bx, by, bz = b[0] - p[0], b[1] - p[1], b[2] - p[2]
    cx, cy, cz = c[0] - p[0], c[1] - p[1], c[2] - p[2]
    dx, dy, dz = d[0] - p[0], d[1] - p[1], d[2] - p[2]
    ab, bc, cd = ax * by - bx * ay, bx * cy - cx * by, cx * dy - dx * cy
    da, ac, bd = dx * ay - ax * dy, ax * cy - cx * ay, bx * dy - dx * by
    return ((ax * ax + ay * ay + az * az) * (bz * cd - cz * bd + dz * bc)
            - (bx * bx + by * by + bz * bz) * (az * cd + cz * da + dz * ac)
            + (cx * cx + cy * cy + cz * cz) * (az * bd + bz * da + dz * ab)
            - (dx * dx + dy * dy + dz * dz) * (az * bc - bz * ac + cz * ab))


def _in_circumcircle_exact(a, b, c, p) -> bool:
    # The sphere through a, b, c and a point off their plane meets the plane
    # in their circumcircle.
    off = tuple(x + y for x, y in zip(a, _normal3_exact(a, b, c)))
    return _insphere_exact(a, b, c, off, p) > 0


_ORIENT = {2: _orient2_exact, 3: _orient3_exact}
_INSPHERE = {2: _incircle_exact, 3: _insphere_exact}
_ON_FACET = {2: _in_segment_exact, 3: _in_circumcircle_exact}


def _conflict_exact(xp: list, row, p: int) -> bool:
    """Exact conflict of point p with a simplex or a ghost simplex.

    A ghost (facet..., GHOST) conflicts when p lies strictly outside its hull
    facet, or on the facet's line (plane) and strictly inside the facet's
    segment (circumcircle): the degenerate circumcircle (circumsphere) of a
    simplex whose last vertex is at infinity.
    """
    d = len(row) - 1
    q = xp[p]
    if row[d] != GHOST:
        return _INSPHERE[d](*(xp[v] for v in row), q) > 0
    facet = [xp[v] for v in row[:d]]
    side = _ORIENT[d](*facet, q)
    return side > 0 if side else _ON_FACET[d](*facet, q)


def _first_simplex(xp: list) -> list[int]:
    """The first d + 1 affinely independent points in index order, positively oriented."""
    d = len(xp[0])
    first = [0, 1]
    if d == 3:  # the first point off the line through points 0 and 1
        first.append(next(k for k in range(2, len(xp)) if any(_normal3_exact(xp[0], xp[1], xp[k]))))
    orient, corners = _ORIENT[d], [xp[v] for v in first]
    last = next(k for k in range(first[-1] + 1, len(xp)) if orient(*corners, xp[k]))
    if orient(*corners, xp[last]) > 0:
        return first + [last]
    return first[:-1] + [last, first[-1]]


# FACETS[d][k]: the facet opposite corner k of a positively oriented simplex,
# ordered so that (facet, corner k) is positively oriented too.
_FACETS = {
    2: np.array([(1, 2), (2, 0), (0, 1)]),
    3: np.array([(1, 3, 2), (0, 2, 3), (0, 3, 1), (0, 1, 2)]),
}


def _rowdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", u, v)


def _rownormal(*edges: np.ndarray) -> np.ndarray:
    """Row-wise n with n . x = det[edges; x] for d - 1 (R, d) edge arrays: in
    2D the edge turned a quarter counterclockwise, in 3D the cross product
    (without np.cross's per-call overhead on short arrays)."""
    if len(edges) == 1:
        (u,) = edges
        return np.stack([-u[:, 1], u[:, 0]], axis=1)
    u, v = edges
    return np.stack([u[:, 1] * v[:, 2] - u[:, 2] * v[:, 1],
                     u[:, 2] * v[:, 0] - u[:, 0] * v[:, 2],
                     u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]], axis=1)


def _cached_tests(pts: np.ndarray, rows: np.ndarray, reach: float):
    """Float conflict tests of new simplices, as (lin, off, band).

    The margin of point p is lin . (p, |p|^2) + off: for a simplex with
    circumcentre c and squared circumradius r^2 it is r^2 - |p - c|^2, for a
    ghost the product of p - a with the outward normal of its hull facet (a
    the facet's first corner). p conflicts when the margin exceeds band and
    not when it is below -band; in between the test is left to
    `_conflict_exact`. A ghost's band bounds the rounding of its facet test; a
    simplex's is BAND_EPS of r^2 plus the rounding of the lifted product, or
    infinite when the bound on the condition number of its circumcentre solve
    exceeds COND_MAX.
    """
    d = pts.shape[1]
    ghost = rows[:, d] == GHOST
    a = pts[rows[:, 0]]
    # The last edge is meaningless on ghost rows, and not used there.
    edges = [pts[rows[:, k]] - a for k in range(1, d + 1)]
    sq = [_rowdot(e, e) for e in edges]
    normal = _rownormal(*edges[:-1])
    det = _rowdot(normal, edges[-1])
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
    r2 = _rowdot(x, x)
    lin = np.empty((len(rows), d + 1))
    lin[:, :d] = np.where(ghost[:, None], normal, 2.0 * (a + x))
    lin[:, d] = np.where(ghost, 0.0, -1.0)
    off = np.where(ghost, -_rowdot(normal, a), -_rowdot(a, a + 2.0 * x))
    rounding = ROUND_EPS * (np.sqrt(_rowdot(a, a)) + 2.0 * np.sqrt(r2) + reach) ** 2
    band = np.where(ghost, BAND_EPS * np.sqrt(np.prod(sq[:-1], axis=0)) * reach,
                    np.where(trusted, BAND_EPS * r2 + rounding, np.inf))
    return lin, off, band


def _bowyer_watson(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Delaunay simplices of validated (N, d) points, d = 2 or 3, as
    (simplices, adjacency, hull slivers dropped).

    The first d + 1 affinely independent points (in index order) start one
    simplex plus a ghost simplex (facet..., GHOST) on each of its facets; the
    other points follow in index order. A point's cavity is every simplex
    whose circumcircle (circumsphere) holds it strictly, with the ghosts' rule
    of `_conflict_exact`. Cached float tests decide outside a band, integer
    arithmetic decides inside it, so each cavity is exactly star-shaped and
    its boundary facets coned to the point are the new simplices; no repair
    pass follows. Cocircular (cospherical) ties count as outside, so earlier
    simplices win and the output is deterministic. Last, `_drop_hull_slivers`
    removes the flat hull simplices.
    """
    n, d = pts.shape
    facets = _FACETS[d]
    xp = _exact_coords(pts)
    lifted = np.hstack([pts, _rowdot(pts, pts)[:, None]])
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


def _drop_hull_slivers(pts: np.ndarray, simplices: np.ndarray, hull: np.ndarray):
    """Remove hull simplices with |det| <= d! EPS (longest edge)^d, with EPS the
    EPS_AREA (EPS_VOL) at which `neighbor_heights` (`tetra_heights`) call a
    triangle (tetrahedron) degenerate, until no hull simplex is that flat.
    Returns the kept simplices and the number dropped."""
    d = pts.shape[1]
    corners = pts[simplices]
    edges = [corners[:, k] - corners[:, 0] for k in range(1, d + 1)]
    det = np.abs(_rowdot(_rownormal(*edges[:-1]), edges[-1]))
    longest2 = np.max(np.sum((corners[:, :, None] - corners[:, None]) ** 2, axis=3), axis=(1, 2))
    eps = EPS_AREA if d == 2 else EPS_VOL
    flat = set(np.nonzero(det <= factorial(d) * eps * longest2 ** (d / 2))[0].tolist())

    def facets_of(t: int) -> set[frozenset]:
        row = simplices[t].tolist()
        return {frozenset(row[:k] + row[k + 1:]) for k in range(d + 1)}

    # The facets of the hull, as the ghosts left them; each dropped simplex
    # trades its hull facets for the facets it shared with its neighbours.
    open_facets = {frozenset(row) for row in hull.tolist()}
    dropped = []
    while drop := [t for t in sorted(flat) if facets_of(t) & open_facets]:
        for t in drop:
            flat.discard(t)
            dropped.append(t)
            open_facets ^= facets_of(t)
    return np.delete(simplices, dropped, axis=0), len(dropped)


def triangulate2(points) -> Triangulation2:
    """Delaunay-triangulate 2D points with `_bowyer_watson`."""
    pts = _validate_input(points, 2)
    triangles, adjacency, dropped = _bowyer_watson(pts)
    return Triangulation2(points=pts, triangles=triangles, adjacency=adjacency,
                          hull_slivers_dropped=dropped)


def tetrahedralize3(points) -> Triangulation3:
    """Delaunay-tetrahedralize 3D points with `_bowyer_watson`."""
    pts = _validate_input(points, 3)
    tets, adjacency, dropped = _bowyer_watson(pts)
    return Triangulation3(points=pts, tetrahedra=tets, adjacency=adjacency,
                          hull_slivers_dropped=dropped)

def neighbor_map(tri: Triangulation2 | Triangulation3) -> NeighborMap:
    """The neighbourhood row table (rings or stars) of a triangulation."""
    if isinstance(tri, Triangulation2):
        return _ring_table(len(tri.points), np.asarray(tri.triangles, dtype=np.int64))
    if isinstance(tri, Triangulation3):
        return _star_table(len(tri.points), np.asarray(tri.tetrahedra, dtype=np.int64),
                           np.asarray(tri.adjacency))
    raise TypeError(f"expected Triangulation2 or Triangulation3, got {type(tri)!r}")


def _ring_table(n: int, triangles: np.ndarray) -> NeighborMap:
    """Rings from the corners (i, u, v, t) of the triangles t = (i, u, v),
    each sweeping CCW around i from u to v. A corner continues at the corner
    of i whose u is its v. Each point's walk starts at its head of least u
    (a corner nothing continues at: open fan) or, without heads, at its
    corner of least u (closed ring), and takes one row per corner until it
    closes or stops; one that stops adds a row for its last v, with no
    triangle. Every point's walk takes one step per pass."""
    i = triangles.ravel()
    u = triangles[:, [1, 2, 0]].ravel()
    v = triangles[:, [2, 0, 1]].ravel()
    t = np.repeat(np.arange(len(triangles)), 3)
    key = i * n + u
    order = np.argsort(key)
    key, i, u, v, t = key[order], i[order], u[order], v[order], t[order]
    at = np.minimum(np.searchsorted(key, i * n + v), len(key) - 1)
    nxt = np.where(key[at] == i * n + v, at, -1)

    head = np.ones(len(key), dtype=bool)
    head[nxt[nxt >= 0]] = False
    count = np.bincount(i, minlength=n)
    start = np.searchsorted(i, np.arange(n))
    fans, first = np.unique(i[head], return_index=True)
    start[fans] = np.flatnonzero(head)[first]
    closed = count > 0
    closed[fans] = False

    pos = np.full(len(key), -1)    # each corner's step on its point's walk
    p = np.flatnonzero(count > 0)
    c = start[p]
    for step in range(int(count.max(initial=0))):
        pos[c] = step
        c = nxt[c]
        go = (c >= 0) & (c != start[p])
        p, c = p[go], c[go]
    walked = pos >= 0
    stop = walked & (nxt < 0)
    lens = np.bincount(i[walked], minlength=n) + np.bincount(i[stop], minlength=n)
    starts = np.cumsum(lens) - lens
    nbr = np.empty(int(lens.sum()), dtype=np.int64)
    simplex = np.full(len(nbr), -1)
    nbr[starts[i[walked]] + pos[walked]] = u[walked]
    simplex[starts[i[walked]] + pos[walked]] = t[walked]
    nbr[starts[i[stop]] + pos[stop] + 1] = v[stop]
    return NeighborMap(dim=2, on_hull=~closed, starts=starts, owner=np.repeat(np.arange(n), lens),
                       nbr=nbr, simplex=simplex)


# Remaining-corner orderings keeping (corner, t0, t1, t2) positively oriented.
_STAR_ORDER = np.array([(1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1)])


def _star_table(n: int, tets: np.ndarray, adjacency: np.ndarray) -> NeighborMap:
    """Stars: one row per corner of every tetrahedron, its other corners
    rotated so the least id leads (a rotation keeps the orientation), the
    rows of each point sorted by triple (ties in tetrahedron order). The
    corners of every hull facet (adjacency -1) are hull points."""
    owner = tets.ravel()
    triple = tets[:, _STAR_ORDER].reshape(-1, 3)
    lead = np.argmin(triple, axis=1)
    triple = np.take_along_axis(triple, (lead[:, None] + np.arange(3)) % 3, axis=1)
    rows = np.lexsort((triple[:, 2], triple[:, 1], triple[:, 0], owner))
    on_hull = np.zeros(n, dtype=bool)
    t, k = np.nonzero(adjacency == -1)
    on_hull[tets[t][np.arange(4) != k[:, None]]] = True
    return NeighborMap(dim=3, on_hull=on_hull, starts=np.searchsorted(owner[rows], np.arange(n)),
                       owner=owner[rows], nbr=triple[rows],
                       simplex=np.repeat(np.arange(len(tets)), 4)[rows])
