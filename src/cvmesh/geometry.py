"""Point-array input checks and the admissible-radius heights of triangles
and tetrahedra, as array code over rows.

All operations are pure functions of their inputs and safe to call concurrently.
Degeneracy tolerances are relative to the local edge scale of the inputs.
"""
from __future__ import annotations

import numpy as np

from .errors import DegenerateTetrahedron, DegenerateTriangle

__all__ = [
    "neighbor_heights",
    "tetra_heights",
    "as_point_array",
]

# Classification/degeneracy tolerances (relative to local edge scale).
EPS_RIGHT = 1e-9
EPS_AREA = 1e-12
EPS_VOL = 1e-12
EPS_LEN = 1e-12


def as_point_array(points, dim: int) -> np.ndarray:
    """The points as an (N, dim) float array; raises ValueError on another
    shape or on the first row holding a NaN or an infinity."""
    arr = np.asarray(points, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, dim)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"expected {dim}D points, got shape {arr.shape}")
    bad = ~np.isfinite(arr).all(axis=1)
    if bad.any():
        r = int(np.argmax(bad))
        raise ValueError(f"non-finite coordinates in point {r}: {tuple(arr[r].tolist())}")
    return arr


def _norms(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", v, v))


def _dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", u, v)


def _cross_norms(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    if u.shape[1] == 2:
        return np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
    return _norms(np.cross(u, v))


def neighbor_heights(i, jk, jk1) -> tuple[np.ndarray, np.ndarray]:
    """Admissible-radius heights of the triangles (i[r], jk[r], jk1[r]).

    The three arguments are (R, d) arrays, d = 2 or 3. Returns (heights, foot).
    An acute row (every angle cosine above EPS_RIGHT) has foot True and the
    perpendicular distance from i to the line (jk, jk1) as its height; a row
    with a right or obtuse corner falls back to the shorter of the two edges
    at i. The first degenerate row raises DegenerateTriangle.
    """
    i, jk, jk1 = (np.asarray(x, dtype=float) for x in (i, jk, jk1))
    to_j, to_j1, base = jk - i, jk1 - i, jk1 - jk
    l_j, l_j1, l_base = _norms(to_j), _norms(to_j1), _norms(base)
    longest = np.maximum(np.maximum(l_j, l_base), l_j1)
    bad = _cross_norms(to_j, to_j1) <= 2.0 * EPS_AREA * longest * longest
    if bad.any():
        r = int(np.argmax(bad))
        raise DegenerateTriangle(f"collinear corners: {i[r]}, {jk[r]}, {jk1[r]}")
    foot = (
        (_dots(to_j, to_j1) / (l_j * l_j1) > EPS_RIGHT)
        & (_dots(base, -to_j) / (l_base * l_j) > EPS_RIGHT)
        & (_dots(-to_j1, -base) / (l_j1 * l_base) > EPS_RIGHT)
    )
    perpendicular = _cross_norms(-to_j, base) / l_base
    return np.where(foot, perpendicular, np.minimum(l_j, l_j1)), foot


def tetra_heights(i, a, b, c) -> tuple[np.ndarray, np.ndarray]:
    """Admissible-radius heights of the tetrahedra (i[r], a[r], b[r], c[r]).

    The arguments are (R, 3) arrays. Returns (heights, foot). Where the
    perpendicular foot of i on plane(a, b, c) falls inside that triangle
    (boundary inclusive, within EPS_LEN in barycentric coordinates) foot is
    True and the height is the plane distance; elsewhere it is the minimum of
    the three wall-triangle heights at i (neighbor_heights). The first
    degenerate row raises DegenerateTetrahedron.
    """
    i, a, b, c = (np.asarray(x, dtype=float) for x in (i, a, b, c))
    u = b - a
    v = c - a
    w = i - a
    normal = np.cross(u, v)
    longest = np.max(np.stack([_norms(e) for e in (w, i - b, i - c, u, v, c - b)]), axis=0)
    volume6 = np.abs(_dots(normal, w))  # 6 * volume
    bad = volume6 <= 6.0 * EPS_VOL * longest**3
    if bad.any():
        r = int(np.argmax(bad))
        raise DegenerateTetrahedron(f"coplanar corners: {i[r]}, {a[r]}, {b[r]}, {c[r]}")

    # Barycentric coordinates of the perpendicular foot in the base plane.
    uu, uv, vv = _dots(u, u), _dots(u, v), _dots(v, v)
    wu, wv = _dots(w, u), _dots(w, v)
    den = uu * vv - uv * uv
    s = (vv * wu - uv * wv) / den
    t = (uu * wv - uv * wu) / den
    foot = (s >= -EPS_LEN) & (t >= -EPS_LEN) & (s + t <= 1.0 + EPS_LEN)
    heights = volume6 / _norms(normal)

    out = ~foot
    if out.any():
        # Wall rows interleaved per tetrahedron: (a, b), (b, c), (c, a).
        ends = np.stack([a[out], b[out], c[out]], axis=1)
        walls, _ = neighbor_heights(
            np.repeat(i[out], 3, axis=0),
            ends.reshape(-1, 3),
            ends[:, [1, 2, 0]].reshape(-1, 3),
        )
        heights[out] = walls.reshape(-1, 3).min(axis=1)
    return heights, foot
