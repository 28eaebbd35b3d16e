"""Radius solving: closed-form candidate vertices (radical centers), per-point
radius bounds, the power-mismatch objective, overlap classification, and the
mode logic assembling the final radius vector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .delaunay import NeighborMap, Triangulation2, Triangulation3
from .errors import DegenerateTetrahedron, DegenerateTriangle, EmptyInterval
from .geometry import EPS_AREA, EPS_VOL, neighbor_heights, tetra_heights
from .optimize import SoftSelectionParams, soft_selection_minimize

__all__ = [
    "VolumeMode",
    "RadiusVector",
    "RadiusBounds",
    "CandidateVertex",
    "CramerDeterminants",
    "OverlapKind",
    "OverlapMode",
    "SolveResult",
    "vertex2",
    "vertex3",
    "cramer3",
    "max_radii",
    "radius_bounds2",
    "radius_bounds3",
    "bounds_arrays",
    "objective",
    "classify_overlap",
    "solve_radii",
    "simplex_systems",
]


class VolumeMode(Enum):
    EXACT_INTERSECTION = "exact-intersection"
    RADICAL_CENTER = "radical-center"


class OverlapKind(Enum):
    OVERLAPPING = "overlapping"
    NON_OVERLAPPING = "non-overlapping"


@dataclass(frozen=True)
class RadiusVector:
    r: np.ndarray
    mode: VolumeMode


@dataclass(frozen=True)
class RadiusBounds:
    lo: float
    hi: float

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class CandidateVertex:
    """Radical center of one simplex's circles/spheres; residual is the
    absolute power mismatch (zero exactly when the circles meet at a point)."""

    x: float
    y: float
    z: float | None
    simplex: int
    residual: float

    @property
    def coords(self) -> tuple[float, ...]:
        return (self.x, self.y) if self.z is None else (self.x, self.y, self.z)


@dataclass(frozen=True)
class CramerDeterminants:
    w: float
    wx: float
    wy: float
    wz: float
    d1: float
    d2: float
    d3: float


@dataclass(frozen=True)
class OverlapMode:
    """Per-neighbor-pair overlap labels keyed by (i, j) with i < j."""

    pairs: dict[tuple[int, int], OverlapKind]

    def kind(self, i: int, j: int) -> OverlapKind:
        return self.pairs[(i, j) if i < j else (j, i)]


@dataclass
class SolveResult:
    radii: RadiusVector
    lo: np.ndarray
    hi: np.ndarray
    objective: float
    n_eval: int
    converged: bool
    status: str
    clamped_points: list[int] = field(default_factory=list)
    trace: list[float] = field(default_factory=list)   # best objective per ES generation


def _coords(p, dim):
    arr = np.asarray(getattr(p, "coords", p), dtype=float).reshape(-1)
    if arr.size != dim:
        raise ValueError(f"expected {dim}D center, got {arr}")
    return arr


def vertex2(c1, c2, c3, r1: float, r2: float, r3: float, simplex: int = -1) -> CandidateVertex:
    """Radical center of three circles: the unique point with equal power to all
    three. When the circles share a common point, that point is returned and the
    residual vanishes. Closed form, rational in the squared radii."""
    a1, b1 = _coords(c1, 2)
    a2, b2 = _coords(c2, 2)
    a3, b3 = _coords(c3, 2)
    den = 2.0 * ((a1 - a2) * (b1 - b3) - (a1 - a3) * (b1 - b2))
    longest = max(
        math.hypot(a1 - a2, b1 - b2),
        math.hypot(a2 - a3, b2 - b3),
        math.hypot(a1 - a3, b1 - b3),
    )
    if abs(den) <= 4.0 * EPS_AREA * longest * longest:
        raise DegenerateTriangle("collinear circle centers")
    q1 = a1 * a1 + b1 * b1
    q2 = a2 * a2 + b2 * b2
    q3 = a3 * a3 + b3 * b3
    num_x = (
        -(b2 - b3) * r1 * r1 + (b1 - b3) * r2 * r2 - (b1 - b2) * r3 * r3
        + q1 * (b2 - b3) - q2 * (b1 - b3) + q3 * (b1 - b2)
    )
    num_y = (
        (a2 - a3) * r1 * r1 - (a1 - a3) * r2 * r2 + (a1 - a2) * r3 * r3
        - q1 * (a2 - a3) + q2 * (a1 - a3) - q3 * (a1 - a2)
    )
    x = num_x / den
    y = num_y / den
    residual = abs((x - a1) ** 2 + (y - b1) ** 2 - r1 * r1)
    return CandidateVertex(x=x, y=y, z=None, simplex=simplex, residual=residual)


def _det3(m) -> float:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def cramer3(c1, c2, c3, c4, r1: float, r2: float, r3: float, r4: float) -> CramerDeterminants:
    """Cramer determinants of the pairwise-difference sphere system."""
    p1 = _coords(c1, 3)
    p2 = _coords(c2, 3)
    p3 = _coords(c3, 3)
    p4 = _coords(c4, 3)
    rows = [2.0 * (p1 - p) for p in (p2, p3, p4)]
    d = [
        r2 * r2 - r1 * r1 + float(p1 @ p1 - p2 @ p2),
        r3 * r3 - r1 * r1 + float(p1 @ p1 - p3 @ p3),
        r4 * r4 - r1 * r1 + float(p1 @ p1 - p4 @ p4),
    ]
    w = _det3(rows)
    wx = _det3([[d[k], rows[k][1], rows[k][2]] for k in range(3)])
    wy = _det3([[rows[k][0], d[k], rows[k][2]] for k in range(3)])
    wz = _det3([[rows[k][0], rows[k][1], d[k]] for k in range(3)])
    return CramerDeterminants(w=w, wx=wx, wy=wy, wz=wz, d1=d[0], d2=d[1], d3=d[2])


def vertex3(c1, c2, c3, c4, r1: float, r2: float, r3: float, r4: float,
            simplex: int = -1) -> CandidateVertex:
    """Radical center of four spheres, solved by Cramer's rule."""
    cd = cramer3(c1, c2, c3, c4, r1, r2, r3, r4)
    p1 = _coords(c1, 3)
    p2 = _coords(c2, 3)
    p3 = _coords(c3, 3)
    p4 = _coords(c4, 3)
    longest = max(
        float(np.linalg.norm(u - v))
        for u, v in ((p1, p2), (p1, p3), (p1, p4), (p2, p3), (p2, p4), (p3, p4))
    )
    if abs(cd.w) <= 48.0 * EPS_VOL * longest**3:
        raise DegenerateTetrahedron("coplanar sphere centers")
    x = cd.wx / cd.w
    y = cd.wy / cd.w
    z = cd.wz / cd.w
    residual = abs((x - p1[0]) ** 2 + (y - p1[1]) ** 2 + (z - p1[2]) ** 2 - r1 * r1)
    return CandidateVertex(x=x, y=y, z=z, simplex=simplex, residual=residual)


def _upper_rows(nm: NeighborMap, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(point, height) for every incident simplex of every point: in 2D the
    triangle (i, ring[k], ring[k+1]) of each ring pair, in 3D each star row."""
    if nm.dim == 2:
        pairs = np.array([len(s) for s in nm.ring_simplices], dtype=np.int64)
        sizes = np.array([len(r) for r in nm.rings], dtype=np.int64)
        owner = np.repeat(np.arange(len(pairs)), pairs)
        ring = np.concatenate(nm.rings)
        # Row k of point i pairs ring[k] with ring[(k + 1) % len(ring)].
        start = np.repeat(np.cumsum(sizes) - sizes, pairs)
        k = np.arange(len(owner)) - np.repeat(np.cumsum(pairs) - pairs, pairs)
        u = ring[start + k]
        v = ring[start + (k + 1) % sizes[owner]]
        return owner, neighbor_heights(pts[owner], pts[u], pts[v])[0]
    owner = np.repeat(np.arange(len(nm.stars)), [len(s) for s in nm.stars])
    t = np.concatenate(nm.stars)
    return owner, tetra_heights(pts[owner], pts[t[:, 0]], pts[t[:, 1]], pts[t[:, 2]])[0]


def _lower_rows(nm: NeighborMap, pts: np.ndarray,
                points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(point, neighbour, reach) rows of the lower-bound rule for `points`, in
    the order radius_bounds2/3 visit them. Reach is the neighbour distance in
    2D and the wall-triangle height towards the neighbour in 3D."""
    if nm.dim == 2:
        rows = [nm.rings[i] for i in points]
        owner = np.repeat(points, [len(r) for r in rows])
        nbr = np.concatenate(rows)
        d = pts[owner] - pts[nbr]
        return owner, nbr, np.sqrt(np.einsum("ij,ij->i", d, d))
    stars = [nm.stars[i] for i in points]
    owner = np.repeat(points, [3 * len(s) for s in stars])
    t = np.concatenate(stars)
    # Row (i, triple) gives walls (triple[l], triple[l + 1]) for l = 0, 1, 2.
    nbr = t.reshape(-1)
    nxt = t[:, [1, 2, 0]].reshape(-1)
    return owner, nbr, neighbor_heights(pts[owner], pts[nbr], pts[nxt])[0]


def _lower_bounds(nm: NeighborMap, pts: np.ndarray, r_max: np.ndarray,
                  points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lo and blocking neighbour (-1 for none) of each of `points`.

    lo is the largest reach minus that neighbour's max radius, floored at zero;
    the blocking neighbour is the first row in visiting order that attains it.
    """
    owner, nbr, reach = _lower_rows(nm, pts, points)
    slot = np.searchsorted(points, owner)
    value = reach - r_max[nbr]
    lo = np.zeros(len(points))
    np.maximum.at(lo, slot, value)
    blocking = np.full(len(points), -1, dtype=np.int64)
    hit = np.nonzero((value > 0.0) & (value == lo[slot]))[0]
    first_slot, first = np.unique(slot[hit], return_index=True)
    blocking[first_slot] = nbr[hit[first]]
    return lo, blocking


def max_radii(nm: NeighborMap, pts: np.ndarray) -> np.ndarray:
    """Largest admissible radius per point: the minimum incident height."""
    out = np.full(len(pts), np.inf)
    owner, heights = _upper_rows(nm, pts)
    np.minimum.at(out, owner, heights)
    return out


def _empty_interval(i, lo, hi, blocking) -> EmptyInterval:
    return EmptyInterval(int(i), float(lo), float(hi), int(blocking) if blocking >= 0 else None)


def _radius_bounds(i: int, nm: NeighborMap, pts: np.ndarray,
                   r_max: np.ndarray | None) -> RadiusBounds:
    if r_max is None:
        r_max = max_radii(nm, pts)
    lo, blocking = _lower_bounds(nm, pts, r_max, np.array([i]))
    if lo[0] >= r_max[i]:
        raise _empty_interval(i, lo[0], r_max[i], blocking[0])
    return RadiusBounds(lo=float(lo[0]), hi=float(r_max[i]))


def radius_bounds2(i: int, nm: NeighborMap, pts: np.ndarray,
                   r_max: np.ndarray | None = None) -> RadiusBounds:
    """Open admissible interval for the radius at point i (2D).

    hi is the minimum incident-triangle height; lo is the largest neighbor
    distance minus that neighbor's own max radius, floored at zero.
    """
    return _radius_bounds(i, nm, pts, r_max)


def radius_bounds3(i: int, nm: NeighborMap, pts: np.ndarray,
                   r_max: np.ndarray | None = None) -> RadiusBounds:
    """Open admissible interval for the radius at point i (3D).

    hi is the minimum incident-tetra height; lo pairs each wall-triangle height
    with the max radius of the neighbor it is measured to, floored at zero.
    """
    return _radius_bounds(i, nm, pts, r_max)


def bounds_arrays(nm: NeighborMap, pts: np.ndarray,
                  policy: str = "strict") -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Stack per-point radius bounds into (lo, hi) arrays; one r_max pass.

    policy "strict" raises EmptyInterval for the first point with an empty
    interval; "clamp" floors each empty interval to (0, hi) and records the
    point index. Returns (lo, hi, clamped_points).
    """
    r_max = max_radii(nm, pts)
    n = len(pts)
    lo, blocking = _lower_bounds(nm, pts, r_max, np.arange(n))
    hi = r_max.copy()
    empty = np.nonzero(lo >= hi)[0]
    if len(empty) and policy != "clamp":
        i = empty[0]
        raise _empty_interval(i, lo[i], hi[i], blocking[i])
    lo[empty] = 0.0
    return lo, hi, [int(i) for i in empty]


class TriangleSystems2:
    """Vectorized radical-center evaluation for every triangle of a triangulation.

    `vertices`, `powers` and `objective` take radii r of shape (N,) or a stack
    of radius vectors of shape (L, N); every row of a stack gives bit for bit
    the value that row gives on its own.
    """

    def __init__(self, pts: np.ndarray, triangles: np.ndarray):
        self.indices = np.asarray(triangles, dtype=np.int64)
        i1, i2, i3 = self.indices.T
        a1, b1 = pts[i1].T
        a2, b2 = pts[i2].T
        a3, b3 = pts[i3].T
        self._a1, self._b1 = a1, b1
        self.den = 2.0 * ((a1 - a2) * (b1 - b3) - (a1 - a3) * (b1 - b2))
        q1 = a1 * a1 + b1 * b1
        q2 = a2 * a2 + b2 * b2
        q3 = a3 * a3 + b3 * b3
        self.cx = q1 * (b2 - b3) - q2 * (b1 - b3) + q3 * (b1 - b2)
        self.cy = -q1 * (a2 - a3) + q2 * (a1 - a3) - q3 * (a1 - a2)
        self.kx = np.stack([-(b2 - b3), (b1 - b3), -(b1 - b2)], axis=1)
        self.ky = np.stack([(a2 - a3), -(a1 - a3), (a1 - a2)], axis=1)
        mean_edge = (
            np.hypot(a1 - a2, b1 - b2)
            + np.hypot(a2 - a3, b2 - b3)
            + np.hypot(a1 - a3, b1 - b3)
        ) / 3.0
        self.weights = mean_edge**-4.0

    def __len__(self) -> int:
        return len(self.indices)

    def vertices(self, r: np.ndarray) -> np.ndarray:
        r2 = np.asarray(r) ** 2
        # A gather from a stack comes back with transposed strides, on which
        # einsum sums in another order; contiguous rows keep results bit-identical.
        rt = np.ascontiguousarray(r2[..., self.indices])  # (..., T, 3)
        x = (np.einsum("tk,...tk->...t", self.kx, rt) + self.cx) / self.den
        y = (np.einsum("tk,...tk->...t", self.ky, rt) + self.cy) / self.den
        return np.stack([x, y], axis=-1)

    def powers(self, r: np.ndarray) -> np.ndarray:
        """Power of each radical center with respect to its first circle."""
        q = self.vertices(r)
        r2 = np.asarray(r) ** 2
        return (
            (q[..., 0] - self._a1) ** 2
            + (q[..., 1] - self._b1) ** 2
            - r2[..., self.indices[:, 0]]
        )

    def objective(self, r: np.ndarray) -> float | np.ndarray:
        """Weighted sum of squared powers: a float for r of shape (N,), an
        (L,) array for a stack of shape (L, N)."""
        return _weighted_sum(self.weights, self.powers(r))


class TetraSystems3:
    """Vectorized radical-center evaluation for every tetrahedron (Cramer form).

    Takes r of shape (N,) or (L, N), like TriangleSystems2.
    """

    def __init__(self, pts: np.ndarray, tets: np.ndarray):
        self.indices = np.asarray(tets, dtype=np.int64)
        p = pts[self.indices]  # (T, 4, 3)
        self._p1 = p[:, 0, :]
        rows = 2.0 * (p[:, [0, 0, 0], :] - p[:, [1, 2, 3], :])  # (T, 3row, 3col)
        A = rows[:, :, 0]
        B = rows[:, :, 1]
        C = rows[:, :, 2]
        # Row-pair cofactors used by each Cramer column expansion.
        self.cof_bc = np.stack([
            B[:, 1] * C[:, 2] - B[:, 2] * C[:, 1],
            B[:, 0] * C[:, 2] - B[:, 2] * C[:, 0],
            B[:, 0] * C[:, 1] - B[:, 1] * C[:, 0],
        ], axis=1)
        self.cof_ac = np.stack([
            A[:, 1] * C[:, 2] - A[:, 2] * C[:, 1],
            A[:, 0] * C[:, 2] - A[:, 2] * C[:, 0],
            A[:, 0] * C[:, 1] - A[:, 1] * C[:, 0],
        ], axis=1)
        self.cof_ab = np.stack([
            A[:, 1] * B[:, 2] - A[:, 2] * B[:, 1],
            A[:, 0] * B[:, 2] - A[:, 2] * B[:, 0],
            A[:, 0] * B[:, 1] - A[:, 1] * B[:, 0],
        ], axis=1)
        self.w = A[:, 0] * self.cof_bc[:, 0] - B[:, 0] * self.cof_ac[:, 0] + C[:, 0] * self.cof_ab[:, 0]
        sq = np.sum(p * p, axis=2)  # (T, 4)
        self.kd = sq[:, [0, 0, 0]] - sq[:, [1, 2, 3]]  # r-independent part of the deltas
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        mean_edge = sum(
            np.linalg.norm(p[:, u, :] - p[:, v, :], axis=1) for u, v in edges
        ) / 6.0
        self.weights = mean_edge**-4.0

    def __len__(self) -> int:
        return len(self.indices)

    def _deltas(self, r2: np.ndarray) -> np.ndarray:
        rt = r2[..., self.indices]  # (..., T, 4)
        # Contiguous for the same reason as in TriangleSystems2.vertices.
        return np.ascontiguousarray(rt[..., 1:] - rt[..., [0, 0, 0]] + self.kd)

    def vertices(self, r: np.ndarray) -> np.ndarray:
        r2 = np.asarray(r) ** 2
        d = self._deltas(r2)  # (..., T, 3)
        sign = np.array([1.0, -1.0, 1.0])
        wx = np.einsum("...tk,tk,k->...t", d, self.cof_bc, sign)
        wy = -np.einsum("...tk,tk,k->...t", d, self.cof_ac, sign)
        wz = np.einsum("...tk,tk,k->...t", d, self.cof_ab, sign)
        return np.stack([wx, wy, wz], axis=-1) / self.w[:, None]

    def powers(self, r: np.ndarray) -> np.ndarray:
        q = self.vertices(r)
        r2 = np.asarray(r) ** 2
        return np.sum((q - self._p1) ** 2, axis=-1) - r2[..., self.indices[:, 0]]

    def objective(self, r: np.ndarray) -> float | np.ndarray:
        """Float for r of shape (N,), (L,) array for a stack of shape (L, N)."""
        return _weighted_sum(self.weights, self.powers(r))


def _weighted_sum(weights: np.ndarray, p: np.ndarray) -> float | np.ndarray:
    """Row sums of weights * p**2, each in the order a single (T,) row sums in."""
    sums = np.sum(np.ascontiguousarray(weights * p * p), axis=-1)
    return float(sums) if sums.ndim == 0 else sums


def simplex_systems(tri: Triangulation2 | Triangulation3):
    if isinstance(tri, Triangulation2):
        return TriangleSystems2(tri.points, tri.triangles)
    return TetraSystems3(tri.points, tri.tetrahedra)


def objective(r, tri, nm: NeighborMap | None = None, pts: np.ndarray | None = None) -> float:
    """Scale-invariant power-mismatch objective over all simplices.

    Sum of w_s * power(Q_s, first circle)^2 with w_s = 1 / mean-edge^4; zero
    exactly when every simplex's circles/spheres meet at a single point.
    """
    rr = r.r if isinstance(r, RadiusVector) else np.asarray(r, dtype=float)
    return simplex_systems(tri).objective(rr)


def classify_overlap(r, nm: NeighborMap, pts: np.ndarray) -> OverlapMode:
    """Label every Delaunay-neighbor pair as overlapping (L - (r_i + r_j) <= 0,
    tangency included) or non-overlapping (strictly positive gap)."""
    rr = r.r if isinstance(r, RadiusVector) else np.asarray(r, dtype=float)
    pairs: dict[tuple[int, int], OverlapKind] = {}
    n = nm.n_points
    for i in range(n):
        for j in nm.neighbors(i):
            j = int(j)
            key = (i, j) if i < j else (j, i)
            if key in pairs:
                continue
            L = float(np.linalg.norm(pts[i] - pts[j]))
            gap = L - (rr[i] + rr[j])
            pairs[key] = OverlapKind.NON_OVERLAPPING if gap > 0.0 else OverlapKind.OVERLAPPING
    return OverlapMode(pairs=pairs)


def solve_radii(
    tri,
    nm: NeighborMap,
    pts: np.ndarray | None = None,
    mode: VolumeMode = VolumeMode.RADICAL_CENTER,
    seed: int = 0,
    r0: np.ndarray | None = None,
    params: SoftSelectionParams | None = None,
    equal_radii: bool = False,
    equal_radius: float | None = None,
    bounds_policy: str = "strict",
) -> SolveResult:
    """Produce the radius vector for a triangulation.

    RADICAL_CENTER mode sets each radius to its interval midpoint and takes
    vertices directly as radical centers (no optimization). EXACT_INTERSECTION
    mode minimizes the power-mismatch objective inside the strict bounds box
    (soft selection plus a rotating-direction polish). equal_radius bypasses
    both and assigns one shared radius (the Voronoi-equivalence override).
    bounds_policy "clamp" floors empty radius intervals to (0, r_max) instead
    of raising EmptyInterval; affected points are reported on the result.
    """
    if pts is None:
        pts = tri.points
    systems = simplex_systems(tri)

    if equal_radii and equal_radius is None:
        equal_radius = 0.5 * float(np.min(max_radii(nm, pts)))
    if equal_radius is not None:
        r = np.full(len(pts), float(equal_radius))
        lo = np.zeros(len(pts))
        hi = np.full(len(pts), np.inf)
        return SolveResult(
            radii=RadiusVector(r=r, mode=mode),
            lo=lo,
            hi=hi,
            objective=systems.objective(r),
            n_eval=1,
            converged=True,
            status="equal-radii",
        )

    lo, hi, clamped = bounds_arrays(nm, pts, policy=bounds_policy)

    if mode is VolumeMode.RADICAL_CENTER:
        r = 0.5 * (lo + hi)
        return SolveResult(
            radii=RadiusVector(r=r, mode=mode),
            lo=lo,
            hi=hi,
            objective=systems.objective(r),
            n_eval=1,
            converged=True,
            status="radical-center",
            clamped_points=clamped,
        )

    x0 = r0 if r0 is not None else lo + 0.62 * (hi - lo)
    x0 = np.clip(x0, lo + 1e-9 * (hi - lo), hi - 1e-9 * (hi - lo))
    result = soft_selection_minimize(systems.objective, (lo, hi), seed=seed, params=params, x0=x0)
    return SolveResult(
        radii=RadiusVector(r=result.x, mode=mode),
        lo=lo,
        hi=hi,
        objective=result.fun,
        n_eval=result.n_eval,
        converged=result.converged,
        status=result.status,
        clamped_points=clamped,
        trace=result.trace,
    )
