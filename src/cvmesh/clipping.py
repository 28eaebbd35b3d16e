"""Convex clipping with provenance tags.

Polygons carry one tag per edge and polyhedra one tag per face (the neighbor
point a cut came from, or None for domain boundary), so assembled cells know
which neighbor each wall separates them from.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class TaggedPolygon:
    """Convex polygon: verts[k] -> verts[k+1] is edge k, labelled tags[k]."""

    verts: np.ndarray            # (K, 2)
    tags: list                   # length K

    def area(self) -> float:
        v = self.verts
        return 0.5 * float(np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1]))


@dataclass
class TaggedFace:
    verts: np.ndarray            # (K, 3), outward-oriented loop
    tag: object                  # neighbor id or None


@dataclass
class TaggedPolyhedron:
    faces: list[TaggedFace]

    def vertices(self) -> np.ndarray:
        return np.vstack([f.verts for f in self.faces])

    def volume(self) -> float:
        """Divergence-theorem volume; faces must be outward-oriented."""
        return _loops_volume([f.verts for f in self.faces])


def clip_polygon(poly: TaggedPolygon, normal, offset: float, tag, eps: float) -> TaggedPolygon | None:
    """Keep the part of the polygon with normal . x <= offset.

    New edges created by the cut carry `tag`. Returns None when nothing is left.
    """
    v = poly.verts
    k = len(v)
    if k == 0:
        return None
    n = np.asarray(normal, dtype=float)
    d = v @ n - offset
    if np.all(d <= eps):
        return poly
    if np.all(d >= -eps):
        return None

    out_v: list[np.ndarray] = []
    out_t: list = []
    for a in range(k):
        b = (a + 1) % k
        da, db = d[a], d[b]
        if da <= eps:
            out_v.append(v[a])
            if db <= eps:
                out_t.append(poly.tags[a])
            else:
                # leaving the half-plane: truncated edge, then the cut edge
                s = da / (da - db)
                out_v.append(v[a] + s * (v[b] - v[a]))
                out_t.append(poly.tags[a])
                out_t.append(tag)
        elif db <= eps:
            s = da / (da - db)
            out_v.append(v[a] + s * (v[b] - v[a]))
            out_t.append(poly.tags[a])
    return _dedup_polygon(np.asarray(out_v), out_t, eps)


def _dedup_polygon(verts: np.ndarray, tags: list, eps: float) -> TaggedPolygon | None:
    """Merge consecutive near-coincident vertices, keeping the outgoing edge tag."""
    if len(verts) == 0:
        return None
    keep_v: list[np.ndarray] = []
    keep_t: list = []
    for k in range(len(verts)):
        if keep_v and np.linalg.norm(verts[k] - keep_v[-1]) <= eps:
            keep_t[-1] = tags[k]  # zero-length edge collapses onto its successor
            continue
        keep_v.append(verts[k])
        keep_t.append(tags[k])
    if len(keep_v) > 1 and np.linalg.norm(keep_v[0] - keep_v[-1]) <= eps:
        # last vertex merges into the first: its zero-length closing edge goes
        keep_v.pop()
        keep_t.pop()
    if len(keep_v) < 3:
        return None
    return TaggedPolygon(verts=np.asarray(keep_v), tags=keep_t)


def box_polygon(lo, hi) -> TaggedPolygon:
    """CCW axis-aligned rectangle with untagged (domain) edges."""
    x0, y0 = lo
    x1, y1 = hi
    verts = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float)
    return TaggedPolygon(verts=verts, tags=[None, None, None, None])


def polygon_halfplanes(verts: np.ndarray):
    """Outward half-plane form (n, c) per edge of a CCW convex polygon: n.x <= c inside."""
    out = []
    k = len(verts)
    for a in range(k):
        b = (a + 1) % k
        e = verts[b] - verts[a]
        n = np.array([e[1], -e[0]])  # outward for CCW
        out.append((n, float(n @ verts[a])))
    return out


def clip_polyhedron(poly: TaggedPolyhedron, normal, offset: float, tag, eps: float) -> TaggedPolyhedron | None:
    """Keep the part of the polyhedron with normal . x <= offset.

    The section polygon becomes one new face labelled `tag`, oriented with its
    outward normal along +normal.
    """
    n = np.asarray(normal, dtype=float)
    all_v = poly.vertices()
    d_all = all_v @ n - offset
    if np.all(d_all <= eps):
        return poly
    if np.all(d_all >= -eps):
        return None

    new_faces: list[TaggedFace] = []
    cut_points: list[np.ndarray] = []
    for f in poly.faces:
        v = f.verts
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
        loop: list[np.ndarray] = []
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
        loop_arr = _dedup_loop(np.asarray(loop), eps)
        if loop_arr is not None:
            new_faces.append(TaggedFace(verts=loop_arr, tag=f.tag))

    cap = _cap_face(cut_points, n, eps)
    if cap is not None:
        new_faces.append(TaggedFace(verts=cap, tag=tag))
    if not new_faces:
        return None
    return TaggedPolyhedron(faces=new_faces)


def _dedup_loop(verts: np.ndarray, eps: float) -> np.ndarray | None:
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


def _cap_face(points: list[np.ndarray], n: np.ndarray, eps: float) -> np.ndarray | None:
    """Order section points CCW around +n so the cap's outward normal is +n."""
    if len(points) < 3:
        return None
    pts = np.asarray(points)
    # unique within eps
    uniq: list[np.ndarray] = []
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
    realized = _newell_normal(loop)
    if np.dot(realized, nn) < 0.0:
        loop = loop[::-1]
    return loop


def _newell_normal(verts: np.ndarray) -> np.ndarray:
    v = verts
    w = np.concatenate((v[1:], v[:1]))
    return np.array([
        float(np.sum((v[:, 1] - w[:, 1]) * (v[:, 2] + w[:, 2]))),
        float(np.sum((v[:, 2] - w[:, 2]) * (v[:, 0] + w[:, 0]))),
        float(np.sum((v[:, 0] - w[:, 0]) * (v[:, 1] + w[:, 1]))),
    ])


def _stack_loops(loops) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack non-empty vertex loops into one array.

    Returns the (N, 3) vertices, the row where each loop starts (F,) and, per
    row, the row of the next vertex around its loop (N,).
    """
    sizes = np.array([len(v) for v in loops], dtype=np.intp)
    starts = np.zeros(len(sizes), dtype=np.intp)
    np.cumsum(sizes[:-1], out=starts[1:])
    succ = np.arange(1, int(sizes.sum()) + 1)
    succ[starts + sizes - 1] = starts
    return np.concatenate(loops), starts, succ


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[k] @ b[k] for every row k of two (N, d) arrays. np.matmul takes each
    through the dot kernel of a 1-D `a[k] @ b[k]`, so every value equals the
    one-row product bit for bit (np.einsum rounds in another order)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _loops_volume(loops) -> float:
    """Divergence-theorem volume bounded by outward-oriented vertex loops:
    v[0] . (v[k] x v[k + 1]) / 6 summed over the fan triangles of every loop,
    as a running total in fan order (so it equals that loop bit for bit)."""
    if not loops:
        return 0.0
    v, starts, succ = _stack_loops(loops)
    rows = np.arange(len(v))
    mid = succ > rows        # neither the last row of its loop ...
    mid[starts] = False      # ... nor the first
    b = rows[mid]
    a = starts[np.searchsorted(starts, b, side="right") - 1]
    return sum(_rowdot(v[a], np.cross(v[b], v[b + 1])).tolist()) / 6.0


def _face_normals(v: np.ndarray, starts: np.ndarray, succ: np.ndarray) -> np.ndarray:
    """Newell normal of every loop of a `_stack_loops` stack in one pass, (F, 3).

    Row f equals `_newell_normal` of loop f up to summation order (each sum
    runs in loop order here, pairwise in np.sum from eight vertices on).
    """
    w = v[succ]
    return np.add.reduceat((v - w)[:, [1, 2, 0]] * (v + w)[:, [2, 0, 1]], starts, axis=0)


def box_polyhedron(lo, hi) -> TaggedPolyhedron:
    """Axis-aligned box with outward-oriented untagged faces."""
    x0, y0, z0 = lo
    x1, y1, z1 = hi
    c = lambda x, y, z: np.array([x, y, z], dtype=float)
    faces = [
        [c(x0, y0, z0), c(x0, y1, z0), c(x1, y1, z0), c(x1, y0, z0)],  # z = z0, normal -z
        [c(x0, y0, z1), c(x1, y0, z1), c(x1, y1, z1), c(x0, y1, z1)],  # z = z1, normal +z
        [c(x0, y0, z0), c(x1, y0, z0), c(x1, y0, z1), c(x0, y0, z1)],  # y = y0, normal -y
        [c(x0, y1, z0), c(x0, y1, z1), c(x1, y1, z1), c(x1, y1, z0)],  # y = y1, normal +y
        [c(x0, y0, z0), c(x0, y0, z1), c(x0, y1, z1), c(x0, y1, z0)],  # x = x0, normal -x
        [c(x1, y0, z0), c(x1, y1, z0), c(x1, y1, z1), c(x1, y0, z1)],  # x = x1, normal +x
    ]
    return TaggedPolyhedron(faces=[TaggedFace(verts=np.asarray(f), tag=None) for f in faces])


def polyhedron_halfspaces(poly: TaggedPolyhedron):
    """Outward (n, c) per face: n.x <= c inside. Normals are not normalized."""
    out = []
    for f in poly.faces:
        n = _newell_normal(f.verts)
        out.append((n, float(n @ f.verts[0])))
    return out
