"""Radius solving: closed-form candidate vertices (radical centers), per-point
radius bounds, the power-mismatch objective, overlap classification, and the
mode logic assembling the final radius vector.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .clipping import _rowdot
from .delaunay import NeighborMap, Triangulation2, Triangulation3
from .errors import EmptyInterval
from .geometry import neighbor_heights, tetra_heights
from .optimize import OptimizerParams, soft_selection_minimize

__all__ = [
    "VolumeMode",
    "OverlapKind",
    "OverlapMode",
    "SolveResult",
    "max_radii",
    "bounds_arrays",
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
class OverlapMode:
    """Overlap labels of the Delaunay-neighbor pairs: row k of `edges` is a
    pair (i, j) with i < j, rows in lexicographic order, and overlapping[k]
    says whether that pair overlaps."""

    edges: np.ndarray           # (E, 2) int
    overlapping: np.ndarray     # (E,) bool

    @property
    def pairs(self) -> dict[tuple[int, int], OverlapKind]:
        """The labels keyed by (i, j) with i < j."""
        kinds = [OverlapKind.OVERLAPPING if o else OverlapKind.NON_OVERLAPPING
                 for o in self.overlapping.tolist()]
        return dict(zip(map(tuple, self.edges.tolist()), kinds))

    def kind(self, i: int, j: int) -> OverlapKind:
        hit = self.overlapping[np.all(self.edges == sorted((i, j)), axis=1)]
        if not len(hit):
            raise KeyError((i, j))
        return OverlapKind.OVERLAPPING if hit[0] else OverlapKind.NON_OVERLAPPING


@dataclass
class SolveResult:
    radii: np.ndarray           # (N,)
    mode: VolumeMode
    lo: np.ndarray
    hi: np.ndarray
    objective: float
    n_eval: int
    converged: bool
    status: str
    clamped_points: list[int] = field(default_factory=list)
    trace: list[float] = field(default_factory=list)   # best objective per ES generation


def _lower_bounds(nm: NeighborMap, pts: np.ndarray,
                  r_max: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lo and blocking neighbour (-1 for none) of every point.

    Each (point, neighbour) pair of the table, in row order, has a reach:
    the neighbour distance in 2D, the wall-triangle height towards the
    neighbour in 3D (row (i, triple) gives walls (triple[l], triple[l + 1])
    for l = 0, 1, 2). lo is the largest reach minus that neighbour's max
    radius, floored at zero; the blocking neighbour is the first row in
    visiting order that attains it.
    """
    owner, nbr = nm.pairs()
    if nm.dim == 2:
        d = pts[owner] - pts[nbr]
        reach = np.sqrt(np.einsum("ij,ij->i", d, d))
    else:
        reach = neighbor_heights(pts[owner], pts[nbr], pts[nm.nbr[:, [1, 2, 0]].reshape(-1)])[0]
    value = reach - r_max[nbr]
    lo = np.zeros(len(pts))
    np.maximum.at(lo, owner, value)
    blocking = np.full(len(pts), -1, dtype=np.int64)
    hit = np.nonzero((value > 0.0) & (value == lo[owner]))[0]
    first_owner, first = np.unique(owner[hit], return_index=True)
    blocking[first_owner] = nbr[hit[first]]
    return lo, blocking


def max_radii(nm: NeighborMap, pts: np.ndarray) -> np.ndarray:
    """Largest admissible radius per point: the minimum height of its
    incident simplices, in 2D the triangle (i, nbr[k], nbr[k + 1]) of each
    row with a triangle, in 3D each star row."""
    if nm.dim == 2:
        rows = np.flatnonzero(nm.simplex >= 0)
        owner, u, v = nm.owner[rows], nm.nbr[rows], nm.nbr[nm.succ()[rows]]
        heights = neighbor_heights(pts[owner], pts[u], pts[v])[0]
    else:
        owner, t = nm.owner, nm.nbr
        heights = tetra_heights(pts[owner], pts[t[:, 0]], pts[t[:, 1]], pts[t[:, 2]])[0]
    out = np.full(len(pts), np.inf)
    np.minimum.at(out, owner, heights)
    return out


def _empty_interval(i, lo, hi, blocking) -> EmptyInterval:
    return EmptyInterval(int(i), float(lo), float(hi), int(blocking) if blocking >= 0 else None)


def bounds_arrays(nm: NeighborMap, pts: np.ndarray,
                  policy: str = "strict") -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Stack per-point radius bounds into (lo, hi) arrays; one r_max pass.

    policy "strict" raises EmptyInterval for the first point with an empty
    interval; "clamp" floors each empty interval to (0, hi) and records the
    point index. Returns (lo, hi, clamped_points).
    """
    r_max = max_radii(nm, pts)
    lo, blocking = _lower_bounds(nm, pts, r_max)
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

    def _centers(self, r2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """x and y of every radical center, (..., T) each, from squared radii."""
        # A gather from a stack comes back with transposed strides, on which
        # einsum sums in another order; contiguous rows keep results bit-identical.
        rt = np.ascontiguousarray(r2[..., self.indices])  # (..., T, 3)
        x = (np.einsum("tk,...tk->...t", self.kx, rt) + self.cx) / self.den
        y = (np.einsum("tk,...tk->...t", self.ky, rt) + self.cy) / self.den
        return x, y

    def vertices(self, r: np.ndarray) -> np.ndarray:
        return np.stack(self._centers(np.asarray(r) ** 2), axis=-1)

    def powers(self, r: np.ndarray) -> np.ndarray:
        """Power of each radical center with respect to its first circle."""
        r2 = np.asarray(r) ** 2
        x, y = self._centers(r2)
        return (x - self._a1) ** 2 + (y - self._b1) ** 2 - r2[..., self.indices[:, 0]]

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


def classify_overlap(r, nm: NeighborMap, pts: np.ndarray) -> OverlapMode:
    """Label every Delaunay-neighbor pair as overlapping (L - (r_i + r_j) <= 0,
    tangency included) or non-overlapping (strictly positive gap)."""
    rr = np.asarray(r, dtype=float)
    pts = np.asarray(pts, dtype=float)
    n = nm.n_points
    # every neighbour pair, both ways and repeated: np.unique drops the repeats
    i, j = nm.pairs()
    key = np.unique(np.minimum(i, j) * n + np.maximum(i, j))
    edges = np.column_stack(np.divmod(key, n))
    d = pts[edges[:, 0]] - pts[edges[:, 1]]
    # the row-wise sqrt(d . d) is np.linalg.norm of each row, bit for bit
    gap = np.sqrt(_rowdot(d, d)) - (rr[edges[:, 0]] + rr[edges[:, 1]])
    return OverlapMode(edges=edges, overlapping=~(gap > 0.0))


def solve_radii(
    tri,
    nm: NeighborMap,
    pts: np.ndarray | None = None,
    mode: VolumeMode = VolumeMode.RADICAL_CENTER,
    seed: int = 0,
    r0: np.ndarray | None = None,
    params: OptimizerParams | None = None,
    equal_radii: bool = False,
    bounds_policy: str = "strict",
) -> SolveResult:
    """Produce the radius vector for a triangulation.

    RADICAL_CENTER mode sets each radius to its interval midpoint and takes
    vertices directly as radical centers (no optimization). EXACT_INTERSECTION
    mode minimizes the power-mismatch objective inside the strict bounds box
    (soft selection plus a rotating-direction polish). equal_radii bypasses
    both and assigns every point half the smallest max radius (the
    Voronoi-equivalence override).
    bounds_policy "clamp" floors empty radius intervals to (0, r_max) instead
    of raising EmptyInterval; affected points are reported on the result.
    """
    if pts is None:
        pts = tri.points
    systems = simplex_systems(tri)

    if equal_radii:
        r = np.full(len(pts), 0.5 * float(np.min(max_radii(nm, pts))))
        lo = np.zeros(len(pts))
        hi = np.full(len(pts), np.inf)
        return SolveResult(
            radii=r,
            mode=mode,
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
            radii=r,
            mode=mode,
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
        radii=result.x,
        mode=mode,
        lo=lo,
        hi=hi,
        objective=result.fun,
        n_eval=result.n_eval,
        converged=result.converged,
        status=result.status,
        clamped_points=clamped,
        trace=result.trace,
    )
