"""Exact-formula geometric primitives: distances, triangle/tetra heights, shape tests.

All operations are pure functions of their inputs and safe to call concurrently.
Degeneracy tolerances are relative to the local edge scale of the inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateSegment, DegenerateTetrahedron, DegenerateTriangle

__all__ = [
    "Point",
    "TriangleKind",
    "TriangleShape",
    "HeightSource",
    "HeightValue",
    "distance2",
    "distance3",
    "classify_triangle",
    "point_line_distance2",
    "point_line_distance3",
    "neighbor_height2",
    "neighbor_height3",
    "neighbor_heights",
    "tetra_height",
    "tetra_heights",
    "as_point_array",
]

# Classification/degeneracy tolerances (relative to local edge scale).
EPS_RIGHT = 1e-9
EPS_AREA = 1e-12
EPS_VOL = 1e-12
EPS_LEN = 1e-12


@dataclass(frozen=True)
class Point:
    """A cell center: 2D when c is None, 3D otherwise. id is its index in the set."""

    a: float
    b: float
    c: float | None = None
    id: int = -1

    def __post_init__(self):
        coords = (self.a, self.b) if self.c is None else (self.a, self.b, self.c)
        if not all(math.isfinite(v) for v in coords):
            raise ValueError(f"non-finite point coordinates: {coords}")

    @property
    def dim(self) -> int:
        return 2 if self.c is None else 3

    @property
    def coords(self) -> tuple[float, ...]:
        return (self.a, self.b) if self.c is None else (self.a, self.b, self.c)


def _vec(p, dim: int) -> np.ndarray:
    if isinstance(p, Point):
        arr = np.asarray(p.coords, dtype=float)
    else:
        arr = np.asarray(p, dtype=float).reshape(-1)
    if arr.shape[0] != dim:
        raise ValueError(f"expected a {dim}D point, got shape {arr.shape}")
    return arr


def as_point_array(points, dim: int) -> np.ndarray:
    """Stack points (Point objects or coordinate sequences) into an (N, dim) array."""
    rows = [_vec(p, dim) for p in points]
    if not rows:
        return np.empty((0, dim), dtype=float)
    return np.vstack(rows)


class TriangleKind(Enum):
    ACUTE = "acute"
    RIGHT = "right"
    OBTUSE = "obtuse"


@dataclass(frozen=True)
class TriangleShape:
    """Result of angle classification; at_vertex is the local index (0..2) of the
    right/obtuse corner and is None for acute triangles."""

    kind: TriangleKind
    at_vertex: int | None = None

    def __post_init__(self):
        if self.kind is not TriangleKind.ACUTE and self.at_vertex is None:
            raise ValueError("right/obtuse classification must name the vertex")


class HeightSource(Enum):
    PERPENDICULAR_FOOT = "perpendicular-foot"
    EDGE_LENGTH_FALLBACK = "edge-length-fallback"


@dataclass(frozen=True)
class HeightValue:
    value: float
    source: HeightSource

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value > 0.0):
            raise ValueError(f"height must be finite and positive, got {self.value}")


def distance2(p, q) -> float:
    """Euclidean distance between two 2D points."""
    u = _vec(p, 2)
    v = _vec(q, 2)
    return math.hypot(u[0] - v[0], u[1] - v[1])


def distance3(p, q) -> float:
    """Euclidean distance between two 3D points."""
    u = _vec(p, 3)
    v = _vec(q, 3)
    return math.sqrt((u[0] - v[0]) ** 2 + (u[1] - v[1]) ** 2 + (u[2] - v[2]) ** 2)


def _triangle_arrays(p1, p2, p3):
    dim = 3 if (isinstance(p1, Point) and p1.dim == 3) or (
        not isinstance(p1, Point) and len(np.asarray(p1).reshape(-1)) == 3
    ) else 2
    return _vec(p1, dim), _vec(p2, dim), _vec(p3, dim)


def _cross_norm(u: np.ndarray, v: np.ndarray) -> float:
    if u.shape[0] == 2:
        return abs(u[0] * v[1] - u[1] * v[0])
    return float(np.linalg.norm(np.cross(u, v)))


def classify_triangle(p1, p2, p3) -> TriangleShape:
    """Classify the triangle as acute, right, or obtuse by its angle cosines.

    A cosine with magnitude <= EPS_RIGHT counts as a right angle; a negative
    cosine marks the obtuse corner. Works for 2D and 3D corner points.
    """
    a, b, c = _triangle_arrays(p1, p2, p3)
    corners = (a, b, c)
    edges = [np.linalg.norm(b - a), np.linalg.norm(c - b), np.linalg.norm(a - c)]
    longest = max(edges)
    area2 = _cross_norm(b - a, c - a)  # 2 * area
    if area2 <= 2.0 * EPS_AREA * longest * longest:
        raise DegenerateTriangle(f"collinear corners: {a}, {b}, {c}")

    right_at = None
    obtuse_at = None
    for k in range(3):
        u = corners[(k + 1) % 3] - corners[k]
        v = corners[(k + 2) % 3] - corners[k]
        cos_k = float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
        if abs(cos_k) <= EPS_RIGHT:
            right_at = k
        elif cos_k < 0.0:
            obtuse_at = k
    if right_at is not None:
        return TriangleShape(TriangleKind.RIGHT, right_at)
    if obtuse_at is not None:
        return TriangleShape(TriangleKind.OBTUSE, obtuse_at)
    return TriangleShape(TriangleKind.ACUTE)


def _point_line_distance(p, a, b, dim: int) -> float:
    pp = _vec(p, dim)
    aa = _vec(a, dim)
    bb = _vec(b, dim)
    ab = bb - aa
    seg = float(np.linalg.norm(ab))
    scale = max(seg, float(np.linalg.norm(pp - aa)), float(np.linalg.norm(pp - bb)))
    if seg <= EPS_LEN * max(scale, 1.0):
        raise DegenerateSegment(f"segment endpoints coincide: {aa}, {bb}")
    return _cross_norm(pp - aa, ab) / seg


def point_line_distance2(p, a, b) -> float:
    """Perpendicular distance from p to the infinite line through a and b (2D)."""
    return _point_line_distance(p, a, b, 2)


def point_line_distance3(p, a, b) -> float:
    """Perpendicular distance from p to the infinite line through a and b (3D)."""
    return _point_line_distance(p, a, b, 3)


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
    short = l_base <= EPS_LEN * np.maximum(longest, 1.0)
    if (foot & short).any():
        r = int(np.argmax(foot & short))
        raise DegenerateSegment(f"segment endpoints coincide: {jk[r]}, {jk1[r]}")
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


def _height_value(heights, points, dim: int) -> HeightValue:
    value, foot = heights(*(_vec(p, dim)[None, :] for p in points))
    source = HeightSource.PERPENDICULAR_FOOT if foot[0] else HeightSource.EDGE_LENGTH_FALLBACK
    return HeightValue(float(value[0]), source)


def neighbor_height2(i, jk, jk1) -> HeightValue:
    """Admissible-radius height of the triangle (i, jk, jk1) in 2D.

    Acute triangles use the perpendicular distance from i to the opposite edge;
    right and obtuse triangles fall back to the shorter of the two edges at i.
    """
    return _height_value(neighbor_heights, (i, jk, jk1), 2)


def neighbor_height3(i, jk, jk1) -> HeightValue:
    """3D analog of neighbor_height2 for a tetrahedron wall triangle."""
    return _height_value(neighbor_heights, (i, jk, jk1), 3)


def tetra_height(i, j1, j2, j3) -> HeightValue:
    """Admissible-radius height of the tetrahedron (i, j1, j2, j3).

    When the perpendicular foot of i on plane(j1, j2, j3) falls inside that
    triangle (boundary inclusive) the plane distance is returned; otherwise the
    minimum of the three wall-triangle heights at i.
    """
    return _height_value(tetra_heights, (i, j1, j2, j3), 3)
