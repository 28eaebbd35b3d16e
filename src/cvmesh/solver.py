"""Radius solving: closed-form candidate vertices (radical centers), per-point
radius bounds, the power-mismatch objective, overlap classification, and the
mode logic assembling the final radius vector.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations

import numpy as np

from .clipping import _rowdot
from .delaunay import NeighborMap, Triangulation2, Triangulation3
from .errors import EmptyInterval
from .geometry import neighbor_heights, tetra_heights
from .optimize import OptimizerParams, interior_box, levenberg_marquardt, soft_selection_minimize

__all__ = [
    "VolumeMode",
    "OverlapMode",
    "SolveResult",
    "max_radii",
    "bounds_arrays",
    "classify_overlap",
    "solve_radii",
    "SimplexSystems",
    "simplex_systems",
]


class VolumeMode(Enum):
    EXACT_INTERSECTION = "exact-intersection"
    RADICAL_CENTER = "radical-center"


@dataclass(frozen=True)
class OverlapMode:
    """Overlap labels of the Delaunay-neighbor pairs: row k of `edges` is a
    pair (i, j) with i < j, rows in lexicographic order, and overlapping[k]
    says whether that pair overlaps."""

    edges: np.ndarray           # (E, 2) int
    overlapping: np.ndarray     # (E,) bool


@dataclass
class SolveResult:
    radii: np.ndarray           # (N,)
    mode: VolumeMode
    lo: np.ndarray
    hi: np.ndarray
    objective: float
    powers: np.ndarray          # (T,) power of each simplex's radical center at radii
    n_eval: int
    converged: bool
    status: str
    clamped_points: list[int] = field(default_factory=list)
    trace: list[float] = field(default_factory=list)   # best objective per ES generation

    @property
    def max_simplex_residual(self) -> float:
        """The largest |power| over the simplices, 0 with none."""
        return float(np.max(np.abs(self.powers))) if len(self.powers) else 0.0


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


def _adjugate(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Adjugate and determinant of a stack of 2x2 or 3x3 matrices (T, d, d):
    the 2x2 closed form, or in 3D the columns r1 x r2, r2 x r0 and r0 x r1
    of the rows r0, r1, r2."""
    if a.shape[-1] == 2:
        (a00, a01), (a10, a11) = a[:, 0].T, a[:, 1].T
        return np.array([[a11, -a01], [-a10, a00]]).transpose(2, 0, 1), a00 * a11 - a01 * a10
    r0, r1, r2 = a[:, 0], a[:, 1], a[:, 2]
    adj = np.stack([np.cross(r1, r2), np.cross(r2, r0), np.cross(r0, r1)], axis=2)
    return adj, _rowdot(r0, adj[:, :, 0])


BLOCK = 1 << 14   # float64 entries of one (d, T, B) array of the radius-stack kernel


class _Block:
    """Workspace of the `SimplexSystems` kernel for blocks of B radius
    vectors, population last: the kernel's constants tiled to B columns, so
    that every product and sum runs over contiguous (T, B) operands, and the
    arrays a block writes, so that evaluating a block allocates nothing."""

    def __init__(self, systems: "SimplexSystems", width: int):
        def tile(a):
            return np.ascontiguousarray(np.broadcast_to(a[..., None], a.shape + (width,)))

        d, t = systems.K.shape[0], len(systems)
        self.K, self.c, self.den, self.weights = (
            tile(a) for a in (systems.K, systems.c, systems.den, systems.weights))
        self.w = np.zeros((systems.n_points, width))    # squared radii, one column per vector
        self.wt = np.empty((d + 1, t, width))            # corner weights
        self.y = np.empty((d, t, width))                 # center offsets
        self.terms = np.empty((d - 1, d, t, width))     # corner terms held for their pairing
        self.p = np.empty((2, t, width))                 # powers, and a term of them
        self.rows = np.empty((width, t))                 # weighted squared powers, by rows
        self.sums = np.empty(width)


class SimplexSystems:
    """Radical centers of every simplex: triangles in 2D, tetrahedra in 3D.

    Relative to a simplex's first corner p0, with e_k = p_k - p0, the center
    y = x - p0 solves the equal-power rows 2 e_k . y = |e_k|^2 + w_0 - w_k
    in the squared radii w. So it is affine in w: y = (K w_t + c) / den, with
    w_t the simplex's d+1 squared radii, K stored as (d, d+1, T), c as
    (d, T) and den = det(2E) (T,).

    `vertices`, `powers` and `objective` take radii r of shape (N,) or a
    stack of radius vectors of shape (L, N); every row of a stack gives bit
    for bit the value that row gives on its own. `jacobian` and
    `powers_and_jacobian` take r of shape (N,). The kernel keeps one
    workspace per block width it has met (`_Block`), so one instance is not
    to be shared between threads.
    """

    def __init__(self, pts: np.ndarray, simplices: np.ndarray):
        self.indices = np.asarray(simplices, dtype=np.int64)
        self._corners = np.ascontiguousarray(self.indices.T)  # (d+1, T)
        p = np.asarray(pts, dtype=float)[self.indices]      # (T, d+1, d)
        self.n_points = len(pts)
        self.p0 = p[:, 0]
        e = p[:, 1:] - p[:, :1]                                # (T, d, d)
        adj, self.den = _adjugate(2.0 * e)
        c = np.einsum("tij,tj->ti", adj, np.einsum("tkj,tkj->tk", e, e))
        # w_0 enters every row with +1 and w_k row k with -1
        k = np.concatenate([adj.sum(axis=2, keepdims=True), -adj], axis=2)
        self.K = np.ascontiguousarray(k.transpose(1, 2, 0))
        self.c = np.ascontiguousarray(c.T)
        dist = [np.sqrt(_rowdot(p[:, u] - p[:, v], p[:, u] - p[:, v]))
                for u, v in combinations(range(p.shape[1]), 2)]
        self.weights = (sum(dist) / len(dist)) ** -4.0
        self._blocks: dict[int, _Block] = {}

    def __len__(self) -> int:
        return len(self.indices)

    def _block(self, width: int) -> _Block:
        blk = self._blocks.get(width)
        if blk is None:
            blk = self._blocks[width] = _Block(self, width)
        return blk

    def _stacked(self, r: np.ndarray, kernel) -> np.ndarray:
        """kernel(blk) on the radii r, population last: the stack goes through
        in blocks of B vectors, B as even over the blocks as the budget lets,
        each block's squared radii in the columns of blk.w (N, B); a last
        block with fewer vectors leaves its spare columns as they were.
        BLOCK bounds each (d, T, B) array. A single vector r (N,) is the
        one-column case and loses that column again; the kernel's (..., B)
        outputs are gathered along their last axis."""
        r = np.asarray(r, dtype=float)
        stack = np.atleast_2d(r)
        n = len(stack)
        most = max(BLOCK // max(self.K.shape[0] * len(self), 1), 1)
        width = -(-n // -(-n // most))
        blk = self._block(width)
        out = None
        for b in range(0, n, width):
            m = min(width, n - b)
            np.square(stack[b:b + m].T, out=blk.w[:, :m])
            part = kernel(blk)
            if out is None:
                out = np.empty(part.shape[:-1] + (n,))
            out[..., b:b + m] = part[..., :m]
        return out[..., 0] if r.ndim == 1 else out

    def _offsets(self, blk: _Block) -> np.ndarray:
        """y = x - p0 of every simplex, blk.y (d, T, B), from blk.w.

        One gather of the corner weights, then one product with K per corner,
        summed as (t0 + t2) + t1 in 2D and (t0 + t2) + (t1 + t3) in 3D: the
        same products and pairing for every column, whatever B."""
        wt, y, t, K = blk.wt, blk.y, blk.terms, blk.K
        blk.w.take(self._corners, axis=0, out=wt, mode="clip")
        np.multiply(K[:, 0], wt[0], out=y)
        y += np.multiply(K[:, 2], wt[2], out=t[0])
        t1 = np.multiply(K[:, 1], wt[1], out=t[-1])
        if len(wt) == 4:
            t1 += np.multiply(K[:, 3], wt[3], out=t[0])
        y += t1
        y += blk.c
        y /= blk.den
        return y

    def _powers(self, blk: _Block) -> np.ndarray:
        """blk.p[0] (T, B): the power of every center blk.y at blk.w."""
        y, p = blk.y, blk.p
        np.multiply(y[0], y[0], out=p[0])
        for i in range(1, len(y)):
            p[0] += np.multiply(y[i], y[i], out=p[1])
        p[0] -= blk.w.take(self.indices[:, 0], axis=0, out=p[1], mode="clip")
        return p[0]

    def _power_columns(self, blk: _Block) -> np.ndarray:
        self._offsets(blk)
        return self._powers(blk)

    def _weighted_sums(self, blk: _Block) -> np.ndarray:
        """(B,) sums of weights * p**2 over the simplices, each summed as a
        contiguous (T,) row: the order a single vector's sum takes."""
        p = self._power_columns(blk)
        q = np.multiply(blk.weights, p, out=blk.p[1])
        q *= p
        np.copyto(blk.rows, q.T)
        return blk.rows.sum(axis=-1, out=blk.sums)

    def vertices(self, r: np.ndarray) -> np.ndarray:
        return self.p0 + np.swapaxes(self._stacked(r, self._offsets), 0, -1)

    def powers(self, r: np.ndarray) -> np.ndarray:
        """Power of each radical center with respect to its first sphere."""
        return self._stacked(r, self._power_columns).T

    def jacobian(self, r: np.ndarray) -> np.ndarray:
        """Derivatives of `powers` in the squared radii, (T, d+1): row t holds
        dp_t/dw_k for the simplex's corners k = 0..d, which is
        2 y . K[:, k, t] / den, less 1 for the first corner."""
        return self.powers_and_jacobian(r)[1]

    def powers_and_jacobian(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`powers` and `jacobian` at r, from one evaluation of the centers."""
        blk = self._block(1)
        np.square(r, out=blk.w[:, 0])
        y = self._offsets(blk)[..., 0]
        p = self._powers(blk)[:, 0].copy()
        jac = y[0] * self.K[0]
        for i in range(1, len(y)):
            jac += y[i] * self.K[i]
        jac *= 2.0 / self.den
        jac[0] -= 1.0
        return p, jac.T

    def objective(self, r: np.ndarray) -> float | np.ndarray:
        """Weighted sum of squared powers: a float for r of shape (N,), an
        (L,) array for a stack of shape (L, N)."""
        sums = self._stacked(r, self._weighted_sums)
        return float(sums) if sums.ndim == 0 else sums


def simplex_systems(tri: Triangulation2 | Triangulation3) -> SimplexSystems:
    return SimplexSystems(tri.points, tri.simplices)


def classify_overlap(r, nm: NeighborMap, pts: np.ndarray) -> OverlapMode:
    """Label every Delaunay-neighbor pair as overlapping (L - (r_i + r_j) <= 0,
    tangency included) or non-overlapping (strictly positive gap)."""
    rr = np.asarray(r, dtype=float)
    pts = np.asarray(pts, dtype=float)
    n = nm.n_points
    # every neighbour pair appears both ways: the rows with i < j give each
    # pair once in 2D (a point's ring lists a neighbour once), so a sort
    # orders them; in 3D a pair repeats over the tetrahedra around its edge,
    # and np.unique drops the repeats and sorts
    i, j = nm.pairs()
    one_way = i < j
    key = i[one_way] * n + j[one_way]
    key = np.sort(key) if nm.dim == 2 else np.unique(key)
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
    mode minimizes the power-mismatch objective inside the strict bounds box:
    soft selection (`soft_selection_minimize`), then a Levenberg-Marquardt
    polish of its best radii in the squared radii w = r^2
    (`levenberg_marquardt` on the weighted powers and their `jacobian`
    rows, inside the box the evolution strategy keeps to, squared; it reads
    params.tol_f, as relative, and params.max_evals). The polished radii are kept when
    their objective is no larger. equal_radii bypasses both and assigns
    every point half the smallest max radius (the Voronoi-equivalence
    override).
    bounds_policy "clamp" floors empty radius intervals to (0, r_max) instead
    of raising EmptyInterval; affected points are reported on the result.
    """
    if pts is None:
        pts = tri.points
    systems = simplex_systems(tri)
    clamped: list[int] = []
    n_eval, converged, trace = 1, True, []

    if equal_radii:
        r = np.full(len(pts), 0.5 * float(np.min(max_radii(nm, pts))))
        lo = np.zeros(len(pts))
        hi = np.full(len(pts), np.inf)
        status = "equal-radii"
    else:
        lo, hi, clamped = bounds_arrays(nm, pts, policy=bounds_policy)
        if mode is VolumeMode.RADICAL_CENTER:
            r = 0.5 * (lo + hi)
            status = "radical-center"
        else:
            x0 = r0 if r0 is not None else lo + 0.62 * (hi - lo)
            x0 = np.clip(x0, lo + 1e-9 * (hi - lo), hi - 1e-9 * (hi - lo))
            result = soft_selection_minimize(
                systems.objective, (lo, hi), seed=seed, params=params, x0=x0,
                polish=_lm_polish(systems, (lo, hi), params),
            )
            r, n_eval, converged, status, trace = (
                result.x, result.n_eval, result.converged, result.status, result.trace)

    powers = systems.powers(r)
    return SolveResult(
        radii=r,
        mode=mode,
        lo=lo,
        hi=hi,
        objective=systems.objective(r),
        powers=powers,
        n_eval=n_eval,
        converged=converged,
        status=status,
        clamped_points=clamped,
        trace=trace,
    )


def _lm_polish(systems: SimplexSystems, bounds, params: OptimizerParams | None):
    """polish(r) -> OptimizeResult for `soft_selection_minimize`: Levenberg-
    Marquardt on the residuals sqrt(weights) * powers in w = r^2, inside the
    squared `interior_box(bounds)`, with the (T, d+1) Jacobian rows on the
    simplices' corner ids as columns; x and fun come back in radii."""
    inner_lo, inner_hi = interior_box(bounds)
    scale = np.sqrt(systems.weights)

    def residuals(w):
        powers, dpdw = systems.powers_and_jacobian(np.sqrt(w))
        return scale * powers, scale[:, None] * dpdw, systems.indices

    def polish(r):
        result = levenberg_marquardt(residuals, r * r, (inner_lo ** 2, inner_hi ** 2), params)
        result.x = np.sqrt(result.x)
        result.fun = systems.objective(result.x)
        return result

    return polish
