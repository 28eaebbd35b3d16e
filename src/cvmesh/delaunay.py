"""Delaunay triangulation (2D) and tetrahedralization (3D) by one incremental
Bowyer-Watson kernel with a ghost vertex at infinity, which locates each
point by a walk and grows its cavity by breadth-first search, with
predicates in three stages: a float filter against one static error bound
fixed by the input's extent, then against Shewchuk's bound from the
permanent of the very test, then exact integer arithmetic on coordinates
built on first use; and the neighbourhood of every point (its CCW ring in
2D, its star of incident tetrahedra in 3D) as one flat row table,
`NeighborMap`, built from the simplices in whole-array passes.

Construction is single-threaded; finished triangulations and neighbor maps are
immutable and safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import factorial, frexp, inf
from operator import itemgetter

import numpy as np

from .clipping import _lengths, _successors
from .errors import AllCollinear, AllCoplanar, DuplicatePoints, PointLocationFailed, TooFewPoints
from .geometry import EPS_AREA, EPS_VOL, as_point_array

GHOST = -1  # the vertex at infinity shared by every hull facet's ghost simplex
DUP_EPS = 1e-12  # duplicate detection, relative to the bounding-box diagonal


@dataclass(frozen=True)
class Triangulation2:
    """Delaunay triangulation: CCW triangles plus edge-neighbor adjacency."""

    points: np.ndarray                 # (N, 2)
    triangles: np.ndarray              # (T, 3) int, CCW
    adjacency: np.ndarray = field(repr=False, default=None)  # (T, 3); entry k faces the edge opposite v_k
    hull_slivers_dropped: int = 0      # flat hull triangles the kernel removed
    exact_tests: int = 0               # kernel tests its float filters left to integer arithmetic
    walk_steps: int = 0                # simplices the kernel's point-location walks crossed

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
    exact_tests: int = 0               # kernel tests its float filters left to integer arithmetic
    walk_steps: int = 0                # simplices the kernel's point-location walks crossed

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
    by j.

    The grid is skipped when a sort proves there is no pair: two points
    within eps project on a unit direction within eps of each other, so if
    the sorted projections on (1, sqrt 2, sqrt 3) normalised (irrational
    ratios, so no lattice row projects onto one value) are all further apart
    than eps plus a bound on their rounding, the grid would find nothing."""
    if eps <= 0.0:
        return []
    n, dim = pts.shape
    direction = np.sqrt(np.arange(1.0, dim + 1))
    direction /= np.linalg.norm(direction)
    # each projection's rounding is below d^1.5 ulps of max |x|, the
    # direction's norm is 1 within 2 ulps, and the gap rounds within 1
    slack = 16 * dim * _EPS * (float(np.abs(pts).max()) + eps)
    if np.all(np.diff(np.sort(pts @ direction)) > eps + slack):
        return []
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


def _validate_input(points, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The points as an (N, dim) array, and that array times the power of two
    that brings its largest |coordinate| into [0.5, 1), the kernel's input.
    The scaling is exact (unless it takes a coordinate below 2^-1022): on the
    scaled points the checks here, with their tolerance scaled alike, every
    predicate and the sliver rule decide as on the points themselves, and
    none of their float arithmetic overflows."""
    pts = as_point_array(points, dim)
    n = len(pts)
    if n < dim + 1:
        raise TooFewPoints(f"need at least {dim + 1} points in {dim}D, got {n}")
    shift = frexp(float(np.abs(pts).max()))[1]
    unit = np.ldexp(pts, -shift)
    diag = float(np.linalg.norm(unit.max(axis=0) - unit.min(axis=0)))
    # points that all coincide have no diagonal; any tolerance pairs them all
    dup = _duplicate_pairs(unit, DUP_EPS * diag if diag > 0.0 else 1.0)
    if dup:
        raise DuplicatePoints(dup)
    rank = _affine_rank(unit)
    if dim == 2 and rank < 2:
        raise AllCollinear("all points lie on one line")
    if dim == 3 and rank < 3:
        raise AllCoplanar("all points lie on one plane")
    return pts, unit


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


class _ExactCoords:
    """The points times one power of two that makes every coordinate an
    integer: exact, so the predicates below have no rounding, and the same
    power for all points, so every predicate, homogeneous in the points,
    keeps its sign. xp[v] is point v's integer tuple, built on first use:
    most runs leave only a few tests to exact arithmetic."""

    def __init__(self, pts: np.ndarray):
        # x = m 2^e with m 2^53 an integer, so x 2^(53 - min e) is the
        # integer (m 2^53) << (e - min e); a zero (e = 0) stays zero
        mant, exp = np.frexp(pts)
        self.mant = (mant * 2.0 ** 53).astype(np.int64)
        self.shift = exp - exp.min()
        self.rows: dict[int, tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self.mant)

    def __getitem__(self, v: int) -> tuple[int, ...]:
        row = self.rows.get(v)
        if row is None:
            row = self.rows[v] = tuple(m << s for m, s in zip(self.mant[v].tolist(), self.shift[v].tolist()))
        return row


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


# Float filters of the predicates above (Shewchuk 1997). Each evaluates its
# determinant in floating point exactly as Shewchuk's orient2d, orient3d,
# incircle or insphere does and returns its sign, +1 or -1, when the value
# exceeds that evaluation's error bound (a constant times the permanent: the
# determinant with every product taken by absolute value), or 0 to abstain
# and leave the case to the exact test. _TINY covers rounding below the
# normal range, which the relative bounds leave out, for coordinates of
# magnitude about 1 or less, as the kernel scales them. The in-circle and
# in-sphere filters first try `static`, the bound of `_static_error`: never
# below the permanent's, it decides most tests before the permanent is
# computed, and the same way.
_EPS = 2.0 ** -53
_CCW_BOUND = (3.0 + 16.0 * _EPS) * _EPS
_O3D_BOUND = (7.0 + 56.0 * _EPS) * _EPS
_ICC_BOUND = (10.0 + 96.0 * _EPS) * _EPS
_ISP_BOUND = (16.0 + 224.0 * _EPS) * _EPS
_TINY = 2.0 ** -960


def _orient2_filter(a, b, c) -> int:
    """Sign of `_orient2_exact(a, b, c)`, or 0."""
    left = (a[0] - c[0]) * (b[1] - c[1])
    right = (a[1] - c[1]) * (b[0] - c[0])
    det = left - right
    err = _CCW_BOUND * (abs(left) + abs(right)) + _TINY
    return 1 if det > err else -1 if det < -err else 0


def _dot2_filter(a, b, p) -> int:
    """Sign of (a - p) . (b - p), or 0: orient2's form with a sum for the
    difference, so orient2's bound."""
    left = (a[0] - p[0]) * (b[0] - p[0])
    right = (a[1] - p[1]) * (b[1] - p[1])
    dot = left + right
    err = _CCW_BOUND * (abs(left) + abs(right)) + _TINY
    return 1 if dot > err else -1 if dot < -err else 0


def _static_error(pts: np.ndarray) -> float:
    """The static error bound of `_incircle_filter` (2D points) or
    `_insphere_filter` (3D points) on points whose |coordinates| are at most
    those of pts. With B twice the largest |coordinate|, no coordinate
    difference exceeds B, so the in-circle permanent is at most 12 B^4 and
    the in-sphere permanent at most 72 B^5; twice that covers the rounding
    of the computed permanent, so this bound is never below the permanent's.
    A bound that overflows is infinite and decides nothing."""
    b = 2.0 * float(np.abs(pts).max())
    if pts.shape[1] == 2:
        return _ICC_BOUND * (24.0 * (b * b * b * b)) + _TINY
    return _ISP_BOUND * (144.0 * (b * b * b * b * b)) + _TINY


def _incircle_filter(a, b, c, p, static: float) -> int:
    """Sign of `_incircle_exact(a, b, c, p)`, or 0; static is
    `_static_error` of points at least as large."""
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
    if det > static:
        return 1
    if det < -static:
        return -1
    permanent = ((abs(bdxcdy) + abs(cdxbdy)) * alift + (abs(cdxady) + abs(adxcdy)) * blift
                 + (abs(adxbdy) + abs(bdxady)) * clift)
    err = _ICC_BOUND * permanent + _TINY
    return 1 if det > err else -1 if det < -err else 0


def _orient3_filter(a, b, c, d) -> int:
    """Sign of `_orient3_exact(a, b, c, d)`, or 0 (Shewchuk's orient3d has
    the opposite sign)."""
    adx, ady, adz = a[0] - d[0], a[1] - d[1], a[2] - d[2]
    bdx, bdy, bdz = b[0] - d[0], b[1] - d[1], b[2] - d[2]
    cdx, cdy, cdz = c[0] - d[0], c[1] - d[1], c[2] - d[2]
    bdxcdy, cdxbdy = bdx * cdy, cdx * bdy
    cdxady, adxcdy = cdx * ady, adx * cdy
    adxbdy, bdxady = adx * bdy, bdx * ady
    det = adz * (bdxcdy - cdxbdy) + bdz * (cdxady - adxcdy) + cdz * (adxbdy - bdxady)
    permanent = ((abs(bdxcdy) + abs(cdxbdy)) * abs(adz) + (abs(cdxady) + abs(adxcdy)) * abs(bdz)
                 + (abs(adxbdy) + abs(bdxady)) * abs(cdz))
    err = _O3D_BOUND * permanent + _TINY
    return -1 if det > err else 1 if det < -err else 0


def _insphere_filter(a, b, c, d, p, static: float) -> int:
    """Sign of `_insphere_exact(a, b, c, d, p)`, or 0 (Shewchuk's insphere
    has the opposite sign); static is `_static_error` of points at least as
    large."""
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
    if det > static:
        return -1
    if det < -static:
        return 1
    aez, bez, cez, dez = abs(aez), abs(bez), abs(cez), abs(dez)
    aexbey, bexaey, bexcey, cexbey = abs(aexbey), abs(bexaey), abs(bexcey), abs(cexbey)
    cexdey, dexcey, dexaey, aexdey = abs(cexdey), abs(dexcey), abs(dexaey), abs(aexdey)
    aexcey, cexaey, bexdey, dexbey = abs(aexcey), abs(cexaey), abs(bexdey), abs(dexbey)
    permanent = (((cexdey + dexcey) * bez + (dexbey + bexdey) * cez + (bexcey + cexbey) * dez) * alift
                 + ((dexaey + aexdey) * cez + (aexcey + cexaey) * dez + (cexdey + dexcey) * aez) * blift
                 + ((aexbey + bexaey) * dez + (bexdey + dexbey) * aez + (dexaey + aexdey) * bez) * clift
                 + ((bexcey + cexbey) * aez + (cexaey + aexcey) * bez + (aexbey + bexaey) * cez) * dlift)
    err = _ISP_BOUND * permanent + _TINY
    return -1 if det > err else 1 if det < -err else 0


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


class _Predicates:
    """The kernel's orientation and conflict tests on its (scaled) points, in
    three stages: the in-circle (in-sphere) filter against `static`, the
    static bound fixed by the points' extent; every filter against the bound
    from its own permanent; the exact integer test, on coordinates built on
    first use (`_ExactCoords`), only where both abstain. `exact` counts the
    exact tests."""

    def __init__(self, pts: np.ndarray):
        self.P = [tuple(row) for row in pts.tolist()]
        self.static = _static_error(pts)
        self.xp = _ExactCoords(pts)
        self.exact = 0

    def orient(self, f, p: int) -> int:
        """Sign of the orientation of the d corners f and point p."""
        P = self.P
        if len(f) == 2:
            s = _orient2_filter(P[f[0]], P[f[1]], P[p])
        else:
            s = _orient3_filter(P[f[0]], P[f[1]], P[f[2]], P[p])
        if s:
            return s
        corners = [P[v] for v in f] + [P[p]]
        if any(len({c[k] for c in corners}) == 1 for k in range(len(f))):
            return 0    # on one axis-parallel line (plane)
        self.exact += 1
        xp = self.xp
        s = _ORIENT[len(f)](*(xp[v] for v in f), xp[p])
        return (s > 0) - (s < 0)

    def conflict(self, row, p: int) -> bool:
        """`_conflict_exact` of point p and a simplex or ghost row."""
        d = len(row) - 1
        P = self.P
        if row[d] != GHOST:
            if d == 2:
                s = _incircle_filter(P[row[0]], P[row[1]], P[row[2]], P[p], self.static)
            else:
                s = _insphere_filter(P[row[0]], P[row[1]], P[row[2]], P[row[3]], P[p], self.static)
            if s:
                return s > 0
            self.exact += 1
            return _conflict_exact(self.xp, row, p)
        f = row[:d]
        s = self.orient(f, p)
        return s > 0 if s else self._on_facet(f, p)

    def _on_facet(self, f, p: int) -> bool:
        """For p on the line (plane) of hull facet f: whether p lies strictly
        inside f's segment (circumcircle)."""
        P = self.P
        a, b, q = P[f[0]], P[f[1]], P[p]
        if len(f) == 2:
            s = _dot2_filter(a, b, q)
            if s:
                return s < 0
        else:
            # Every sphere through a, b, c meets their plane in their
            # circumcircle: any point off the plane, on its positive side for
            # certain, closes one. That point lies beyond the points' extent,
            # so the static bound does not hold for it.
            c = P[f[2]]
            ux, uy, uz = b[0] - a[0], b[1] - a[1], b[2] - a[2]
            vx, vy, vz = c[0] - a[0], c[1] - a[1], c[2] - a[2]
            off = (a[0] + (uy * vz - uz * vy), a[1] + (uz * vx - ux * vz), a[2] + (ux * vy - uy * vx))
            if _orient3_filter(a, b, c, off) > 0:
                s = _insphere_filter(a, b, c, off, q, inf)
                if s:
                    return s > 0
        self.exact += 1
        xp = self.xp
        return _ON_FACET[len(f)](*(xp[v] for v in f), xp[p])


def _bowyer_watson(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int, int]:
    """Delaunay simplices of validated, scaled (N, d) points (the second array
    of `_validate_input`), d = 2 or 3, as (simplices, adjacency, hull slivers
    dropped, exact tests, walk steps).

    The first d + 1 affinely independent points (in index order) start one
    simplex plus a ghost simplex (facet..., GHOST) on each of its facets; the
    other points follow in index order. A point's cavity is every simplex
    whose circumcircle (circumsphere) holds it strictly, with the ghosts' rule
    of `_conflict_exact`. The kernel finds one such simplex by a visibility
    walk (Devillers, Pion & Teillaud 2002) and grows the cavity from it by
    breadth-first search across facets; the cavity's boundary facets coned to
    the point are the new simplices. Each walk starts at a live simplex of
    the point inserted last in the point's finest occupied cell of a
    power-of-two grid hierarchy over the bounding box (at the last new
    simplex when no cell is occupied). Each step tries the facets in a
    rotation drawn at random and crosses the first the point lies strictly
    beyond: the random draw keeps a walk through cocircular (cospherical)
    simplices from cycling (Devillers et al.'s stochastic walk), and a walk
    of more steps than there are live simplices raises `PointLocationFailed`.
    Every test is decided exactly (`_Predicates`): a float filter against
    the static bound of the points' extent, then against the bound of the
    test's own permanent, then integer arithmetic on coordinates built on
    first use, so each cavity is exactly star-shaped and no repair pass
    follows. Cocircular (cospherical) ties count as outside, so earlier
    simplices win and the output is deterministic. Last,
    `_drop_hull_slivers` removes the flat hull simplices.
    """
    n, d = pts.shape
    tests = _Predicates(pts)
    P = tests.P + [None]    # P[GHOST] is None
    static = tests.static
    orient = _orient2_filter if d == 2 else _orient3_filter
    insphere = _incircle_filter if d == 2 else _insphere_filter
    # The corners of the facet opposite corner k, ordered so that the facet
    # followed by corner k is positively oriented.
    facet = [itemgetter(*f) for f in _FACETS[d].tolist()]
    # The facet orders a walk step draws from: r, r + 1, ... (mod d + 1).
    turns = [[(r + i) % (d + 1) for i in range(d + 1)] for r in range(d + 1)]
    # For a new simplex with its point at corner j: each other corner k and
    # the corners other than j and k, which name the ridge (new point
    # excluded) across the facet opposite k.
    ridges = [[(k, [i for i in range(d + 1) if i not in (j, k)]) for k in range(d + 1) if k != j]
              for j in range(d + 1)]

    # Simplex t is S[t] (None once dead, its slot then on `free`), C[t] the
    # coordinates of its corners, A[t][k] the simplex across its facet
    # opposite corner k; star[v] is a live simplex of point v (star[GHOST] a
    # spare slot).
    first = _first_simplex(tests.xp)
    S = [tuple(first)] + [(f[1], f[0], *f[2:], GHOST) for f in (g(first) for g in facet)]
    C = [tuple(P[v] for v in row) for row in S]
    A = [[-1] * (d + 1) for _ in S]
    shared: dict[frozenset, tuple[int, int]] = {}
    for t, row in enumerate(S):
        for k in range(d + 1):
            key = frozenset(row[:k] + row[k + 1:])
            if key in shared:
                u, j = shared.pop(key)
                A[t][k], A[u][j] = u, t
            else:
                shared[key] = (t, k)
    free: list[int] = []
    star = [0] * (n + 1)

    # Cell codes of every point on grids of 2^L, 2^(L-1), ..., 2 cells a side,
    # the finest with at most n cells (2^(dL) <= n), and per grid the point
    # inserted last in each cell.
    levels = max(1, (n.bit_length() - 1) // d)
    lo = pts.min(axis=0)
    cell = np.minimum((pts - lo) / (pts.max(axis=0) - lo) * 2 ** levels, 2 ** levels - 1).astype(np.int64)
    keys = np.stack([sum((cell[:, a] >> s) << (a * levels) for a in range(d)) for s in range(levels)],
                    axis=1).tolist()
    grids: list[dict] = [{} for _ in range(levels)]
    for p in first:
        for grid, key in zip(grids, keys[p]):
            grid[key] = p

    state = 0    # of the linear congruential generator behind each walk's turns
    walked = 0
    last = 0

    for p in sorted(set(range(n)) - set(first)):
        q = P[p]
        t = last
        for grid, key in zip(grids, keys[p]):
            v = grid.get(key)
            if v is not None:
                t = star[v]
                break

        # Walk to a simplex in conflict with p. A ghost start not in conflict
        # hands over to the simplex across its hull facet. A walk that enters
        # a ghost crossed its hull facet, which p lies strictly beyond; one
        # that finds no facet p lies strictly beyond has p in the closed
        # simplex, so strictly inside its circumsphere.
        row = S[t]
        if row[d] == GHOST and not tests.conflict(row, p):
            t = A[t][d]
            row = S[t]
        prev, steps, live = -1, 0, len(S) - len(free)
        while row[d] != GHOST:
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            adj, corners = A[t], C[t]
            for k in turns[(state >> 16) % (d + 1)]:
                o = adj[k]
                if o != prev and (orient(*facet[k](corners), q) or tests.orient(facet[k](row), p)) < 0:
                    break
            else:
                break
            prev, t, row = t, o, S[o]
            steps += 1
            if steps > live:
                raise PointLocationFailed(p, steps)
        walked += steps

        # Breadth-first over the cavity; each boundary facet, ordered so the
        # cavity side is positive, gives a new row (facet..., p) and links to
        # the simplex outside it at that simplex's corner `back`.
        cavity = [t]
        inside = {t: True}
        new = []
        for c in cavity:
            row, adj = S[c], A[c]
            for k in range(d + 1):
                o = adj[k]
                hit = inside.get(o)
                if hit is None:
                    out, corners = S[o], C[o]
                    # a ghost conflicts when p lies strictly beyond its facet
                    s = insphere(*corners, q, static) if out[d] != GHOST else orient(*corners[:d], q)
                    hit = inside[o] = s > 0 if s else tests.conflict(out, p)
                    if hit:
                        cavity.append(o)
                if not hit:
                    f = [*facet[k](row), p]
                    j = d
                    if GHOST in f:
                        # Move GHOST last; a second swap keeps the orientation.
                        j = f.index(GHOST)
                        f[j], f[d] = f[d], f[j]
                        f[0], f[1] = f[1], f[0]
                        j = j ^ 1 if j < 2 else j
                    new.append((f, j, o, A[o].index(c)))
        for c in cavity:
            S[c] = None
        free += cavity

        # New simplices sharing a ridge (with p) are linked through one dict,
        # keyed by the ridge's other vertex (2D) or by u * n + v for its other
        # two, u < v (3D; v >= 0, as only u can be GHOST).
        link: dict = {}
        for f, j, o, back in new:
            if free:
                t = free.pop()
            else:
                t = len(S)
                S.append(None)
                C.append(None)
                A.append(None)
            adj = [-1] * (d + 1)
            adj[j] = o
            A[o][back] = t
            S[t], C[t], A[t] = tuple(f), tuple(map(P.__getitem__, f)), adj
            for k, r in ridges[j]:
                if d == 2:
                    key = f[r[0]]
                else:
                    u, v = f[r[0]], f[r[1]]
                    key = u * n + v if u < v else v * n + u
                other = link.pop(key, None)
                if other is None:
                    link[key] = (t, k)
                else:
                    adj[k] = other[0]
                    A[other[0]][other[1]] = t
            for v in f:
                star[v] = t
        last = t
        for grid, key in zip(grids, keys[p]):
            grid[key] = p

    rows = np.array([row for row in S if row is not None], dtype=np.int64)
    ghost = rows[:, d] == GHOST
    simplices, dropped = _drop_hull_slivers(pts, rows[~ghost], rows[ghost, :d])
    simplices = _canonical_rows(simplices)
    return simplices, _adjacency(simplices), dropped, tests.exact, walked


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
    pts, unit = _validate_input(points, 2)
    triangles, adjacency, dropped, exact, walked = _bowyer_watson(unit)
    return Triangulation2(points=pts, triangles=triangles, adjacency=adjacency,
                          hull_slivers_dropped=dropped, exact_tests=exact, walk_steps=walked)


def tetrahedralize3(points) -> Triangulation3:
    """Delaunay-tetrahedralize 3D points with `_bowyer_watson`."""
    pts, unit = _validate_input(points, 3)
    tets, adjacency, dropped, exact, walked = _bowyer_watson(unit)
    return Triangulation3(points=pts, tetrahedra=tets, adjacency=adjacency,
                          hull_slivers_dropped=dropped, exact_tests=exact, walk_steps=walked)

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
