"""Convex clipping with provenance tags.

Polygons carry one tag per edge and polyhedra one tag per face (the neighbor
point a cut came from, or -1 for the domain boundary), so assembled cells
know which neighbor each wall separates them from.

Polyhedra are clipped in stacked form (`PolyStack`): the face loops of many
cells lie one after another in one (N, 3) vertex array, with the row where
each face starts, the row of each vertex's successor around its loop, one
tag per face (-1 for the domain), one cell id per face, faces grouped by
cell, and one simplex id per vertex. `clip_stack` clips every cell of a
stack by its own plane in one array pass; `clip_polyhedron` is its one-cell
case.

Polygons have the same in 2D (`RingStack`): one ring per cell in one (V, 2)
vertex array, one tag per edge and one simplex id per vertex. `clip_rings`
clips every ring by its own line in one pass; `clip_polygon` is its one-cell
case.

The domain a mesh is cut from is a one-cell stack of the same kind, every
wall tagged -1 (`box_polygon`, `box_polyhedron`), and `domain_planes` gives
its outward planes.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np


def clip_polygon(poly: RingStack, normal, offset: float, tag, eps: float) -> RingStack:
    """Keep the part of a one-ring stack with normal . x <= offset.

    New edges created by the cut carry `tag`; the ring has no rows when
    nothing is left. This is the one-cell case of `clip_rings`.
    """
    return clip_rings(poly, poly.verts @ np.asarray(normal, dtype=float) - offset, [tag], eps)


@dataclass
class RingStack:
    """Convex polygons stacked into arrays, the 2D twin of `PolyStack`.

    Ring c is rows starts[c] up to starts[c + 1] of `verts` (no rows: the cell
    is empty). tags[r] labels the edge from row r to the next row around its
    ring (a neighbor id, or -1 for the domain boundary); simplices[r] is the
    simplex whose candidate vertex row r is (-1 for a clip point or unknown).
    """

    verts: np.ndarray       # (V, 2)
    starts: np.ndarray      # (C,)
    tags: np.ndarray        # (V,)
    simplices: np.ndarray   # (V,)

    @classmethod
    def from_rings(cls, verts, starts, tags) -> "RingStack":
        """Rings of the given rows, starts and tags; no simplex ids yet."""
        verts = np.asarray(verts, dtype=float).reshape(-1, 2)
        return cls(verts, np.asarray(starts, dtype=np.intp), np.asarray(tags, dtype=np.int64),
                   np.full(len(verts), -1, dtype=np.int64))

    def lengths(self) -> np.ndarray:
        """Rows per ring, (C,)."""
        return _lengths(self.starts, len(self.verts))

    def row_rings(self) -> np.ndarray:
        """Ring id per vertex row, (V,)."""
        return np.repeat(np.arange(len(self.starts)), self.lengths())

    def succ(self) -> np.ndarray:
        """Row of the next vertex around its ring, per row (V,)."""
        lens = self.lengths()
        full = lens > 0
        return _successors(self.starts[full], len(self.verts))


def grouped_matvec(verts: np.ndarray, group: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Per row r, verts[r] @ normals[group[r]] (groups sorted, rows of a
    group contiguous), each group rounded as the one-group product
    `group_rows @ normal`: a BLAS matrix-vector product, whose rounding
    differs from a row-wise dot. The groups, padded with zero rows to one
    length, go through one stacked matmul, which makes one matrix-vector
    product per group."""
    normals = np.asarray(normals, dtype=float)
    if not len(verts):
        return np.empty(0)
    first = np.searchsorted(group, np.arange(len(normals)))
    local = np.arange(len(verts)) - first[group]
    pad = np.zeros((len(normals), max(int(local.max()) + 1, 2), verts.shape[1]))
    pad[group, local] = verts
    return np.matmul(pad, normals[:, :, None])[group, local, 0]


def ring_distances(stack: RingStack, normals: np.ndarray, offsets: np.ndarray,
                   live: np.ndarray | None = None) -> np.ndarray:
    """Per row, verts[r] @ normals[c] - offsets[c] for its ring c, rounded as
    `ring_verts @ normal - offset` for each ring alone (`grouped_matvec`).
    Rows of the rings where `live` is False get -inf: no cut reaches them."""
    ring = stack.row_rings()
    live = np.ones(len(stack.starts), dtype=bool) if live is None else live
    rows = live[ring]
    group = (np.cumsum(live) - 1)[ring[rows]]
    d = np.full(len(stack.verts), -np.inf)
    d[rows] = (grouped_matvec(stack.verts[rows], group, np.asarray(normals, dtype=float)[live])
               - np.asarray(offsets, dtype=float)[live][group])
    return d


def clip_rings(stack: RingStack, d: np.ndarray, tags, eps: float) -> RingStack:
    """Clip every ring of the stack by its own line in one array pass.

    d[r] is the signed distance of row r from its ring's line (positive
    outside) and tags[c] the tag of the edge a cut adds to ring c (None or -1
    for the domain). Per ring, as for one polygon: a ring with every d <= eps
    is kept whole, one with every d >= -eps vanishes. Otherwise each vertex
    with d <= eps stays, followed by the crossing point of its outgoing edge
    when that edge crosses the line. The cut edge carries the new tag and a
    truncated edge keeps its own. Then consecutive vertices within eps merge,
    the merged vertex's edge taking the tag of the last one merged, and the
    last vertex goes when it lies within eps of the first; a ring left with
    under three vertices vanishes. Simplex ids of kept rows stay; new rows
    get -1.
    """
    v = stack.verts
    nring = len(stack.starts)
    ring = stack.row_rings()
    succ = stack.succ()
    new_tag = np.array([-1 if t is None else t for t in tags], dtype=np.int64)
    inside = d <= eps
    outside = np.bincount(ring[~inside], minlength=nring) > 0
    below = np.bincount(ring[d < -eps], minlength=nring) > 0
    cut = outside & below
    whole_rows = np.flatnonzero(~outside[ring])

    # Emit per row of a cut ring its vertex when inside, then the crossing
    # point of its outgoing edge when that edge crosses the line.
    rows = np.flatnonzero(cut[ring])
    emit = np.empty((len(rows), 2), dtype=bool)
    emit[:, 0] = inside[rows]
    emit[:, 1] = inside[rows] != inside[succ[rows]]
    pts = np.empty((len(rows), 2, 2))
    pts[:, 0] = v[rows]
    a = rows[emit[:, 1]]
    b = succ[a]
    s = d[a] / (d[a] - d[b])
    pts[emit[:, 1], 1] = v[a] + s[:, None] * (v[b] - v[a])
    tag = np.empty((len(rows), 2), dtype=np.int64)
    tag[:, 0] = stack.tags[rows]
    tag[:, 1] = np.where(inside[rows], new_tag[ring[rows]], stack.tags[rows])
    sid = np.empty((len(rows), 2), dtype=np.int64)
    sid[:, 0] = stack.simplices[rows]
    sid[:, 1] = -1
    emit = emit.ravel()
    pts = pts.reshape(-1, 2)[emit]
    tag = tag.ravel()[emit]
    sid = sid.ravel()[emit]
    owner = np.repeat(ring[rows], 2)[emit]

    # Merge runs of near-coincident vertices: a kept vertex's edge takes the
    # tag of the last row before the next kept one (before the closing merge).
    loop_starts = _group_starts(owner)
    runs = _dedup_runs(pts, loop_starts, eps)
    kept = np.flatnonzero(runs)
    if len(kept):
        nxt = np.append(kept[1:], len(pts))
        last = np.append(owner[kept[1:]] != owner[kept[:-1]], True)
        loop = np.searchsorted(loop_starts, kept[last], side="right") - 1
        nxt[last] = np.append(loop_starts[1:], len(pts))[loop]
        tag[kept] = tag[nxt - 1]
    stay = _drop_closing(pts, loop_starts, runs, eps)
    stay &= (np.bincount(owner[stay], minlength=nring) >= 3)[owner]

    # Whole rings keep their rows; cut rings take their stayed points.
    src_ring = np.concatenate((ring[whole_rows], owner[stay]))
    order = np.argsort(src_ring, kind="stable")
    lens = np.bincount(src_ring, minlength=nring)
    return RingStack(
        np.concatenate((v[whole_rows], pts[stay]))[order],
        np.cumsum(lens) - lens,
        np.concatenate((stack.tags[whole_rows], tag[stay]))[order],
        np.concatenate((stack.simplices[whole_rows], sid[stay]))[order],
    )


def box_polygon(lo, hi) -> RingStack:
    """CCW axis-aligned rectangle as a one-ring stack with domain edges."""
    x0, y0 = lo
    x1, y1 = hi
    verts = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float)
    return RingStack.from_rings(verts, [0], [-1] * 4)


def clip_polyhedron(poly: PolyStack, normal, offset: float, tag, eps: float) -> PolyStack:
    """Keep the part of a one-cell stack with normal . x <= offset.

    The section polygon becomes one new face labelled `tag`, oriented with its
    outward normal along +normal; the stack has no faces when nothing is
    left. This is the one-cell case of `clip_stack`.
    """
    n = np.asarray(normal, dtype=float)
    return clip_stack(poly, poly.verts @ n - offset, n[None, :], [tag], eps)


@dataclass
class PolyStack:
    """Convex polyhedra stacked into arrays.

    Face loops lie one after another in `verts`; face f starts at row
    starts[f], belongs to cell cells[f] (nondecreasing) and is labelled
    tags[f] (a neighbor id, or -1 for the domain boundary). succ[r] is the
    row of the vertex after row r around its loop; simplices[r] is the
    simplex whose candidate vertex row r is (-1 for a clip point or unknown).
    """

    verts: np.ndarray      # (N, 3)
    starts: np.ndarray     # (F,)
    succ: np.ndarray       # (N,)
    tags: np.ndarray       # (F,)
    cells: np.ndarray      # (F,)
    simplices: np.ndarray  # (N,)

    @classmethod
    def from_loops(cls, verts, starts, tags, cells, simplices=None) -> "PolyStack":
        """Loops of the given rows, starts, tags and cells; simplex ids -1
        unless given."""
        verts = np.asarray(verts, dtype=float).reshape(-1, 3)
        starts = np.asarray(starts, dtype=np.intp)
        sids = np.full(len(verts), -1) if simplices is None else simplices
        return cls(verts, starts, _successors(starts, len(verts)),
                   np.asarray(tags, dtype=np.int64), np.asarray(cells, dtype=np.intp),
                   np.asarray(sids, dtype=np.int64))

    @classmethod
    def empty(cls) -> "PolyStack":
        return cls.from_loops(np.empty((0, 3)), [], [], [])

    def lengths(self) -> np.ndarray:
        """Rows per face loop, (F,)."""
        return _lengths(self.starts, len(self.verts))

    def row_cells(self) -> np.ndarray:
        """Cell id per vertex row, (N,)."""
        return np.repeat(self.cells, self.lengths())

    def take(self, faces: np.ndarray) -> "PolyStack":
        """The faces with the given indices, in that order."""
        lens = self.lengths()[faces]
        starts = np.cumsum(lens) - lens
        rows = np.arange(int(lens.sum())) + np.repeat(self.starts[faces] - starts, lens)
        return PolyStack.from_loops(self.verts[rows], starts, self.tags[faces], self.cells[faces],
                                    self.simplices[rows])

    def split(self, c: int) -> tuple["PolyStack", "PolyStack"]:
        """The faces of the cells below c, and the rest."""
        f = int(np.searchsorted(self.cells, c))
        r = int(self.starts[f]) if f < len(self.starts) else len(self.verts)
        return (PolyStack(self.verts[:r], self.starts[:f], self.succ[:r],
                          self.tags[:f], self.cells[:f], self.simplices[:r]),
                PolyStack(self.verts[r:], self.starts[f:] - r, self.succ[r:] - r,
                          self.tags[f:], self.cells[f:], self.simplices[r:]))

    def vertices(self) -> np.ndarray:
        """Every vertex row, (N, 3). perfbench's clip kernel reads a 3D
        domain's corners through this name (and a 2D domain's through
        `verts`), so it stays while that benchmark code reads it."""
        return self.verts


def concat_stacks(stacks) -> PolyStack:
    """One stack of all faces of `stacks`, ordered by cell; the faces of a
    cell keep their order."""
    offsets = np.cumsum([0] + [len(s.verts) for s in stacks[:-1]])
    whole = PolyStack.from_loops(
        np.concatenate([s.verts for s in stacks]),
        np.concatenate([s.starts + o for s, o in zip(stacks, offsets)]),
        np.concatenate([s.tags for s in stacks]),
        np.concatenate([s.cells for s in stacks]),
        np.concatenate([s.simplices for s in stacks]),
    )
    if np.all(whole.cells[1:] >= whole.cells[:-1]):
        return whole
    return whole.take(np.argsort(whole.cells, kind="stable"))


def _lengths(starts: np.ndarray, n: int) -> np.ndarray:
    """Rows per loop of loops starting at `starts`, n rows in all."""
    return np.concatenate((starts[1:], [n])) - starts


def _successors(starts: np.ndarray, n: int) -> np.ndarray:
    """Per row of loops starting at `starts` (n rows in all), the row of the
    next vertex around its loop."""
    succ = np.arange(1, n + 1)
    succ[starts + _lengths(starts, n) - 1] = starts
    return succ


def _group_starts(groups: np.ndarray) -> np.ndarray:
    """First row of each run of equal values in a sorted id array."""
    new = np.ones(len(groups), dtype=bool)
    np.not_equal(groups[1:], groups[:-1], out=new[1:])
    return np.flatnonzero(new)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product of two (N, 3) arrays, rounded as np.cross."""
    return a[:, [1, 2, 0]] * b[:, [2, 0, 1]] - a[:, [2, 0, 1]] * b[:, [1, 2, 0]]


def _dedup_loops(p: np.ndarray, starts: np.ndarray, eps: float) -> np.ndarray:
    """Keep mask that removes near-duplicate vertices from every loop.

    Along each loop a vertex stays when it lies more than eps from the last
    vertex kept before it (the first always stays); then the last kept vertex
    goes when it lies within eps of the first.
    """
    return _drop_closing(p, starts, _dedup_runs(p, starts, eps), eps)


def _dedup_runs(p: np.ndarray, starts: np.ndarray, eps: float) -> np.ndarray:
    """The first step of `_dedup_loops`: the mask of the vertices that lie
    more than eps from the last vertex kept before them (the first of each
    loop always stays). The rule compares with the last kept vertex, not the
    previous one, so it is solved by repeated passes: a pass fixes at least
    the next undecided vertex of every loop, and near duplicates are rare, so
    two passes usually settle it."""
    n = len(p)
    if n == 0:
        return np.ones(0, dtype=bool)
    rows = np.arange(n)
    first = np.zeros(n, dtype=bool)
    first[starts] = True
    keep = np.ones(n, dtype=bool)
    while True:
        last = np.maximum.accumulate(np.where(keep, rows, 0))
        prev = np.concatenate(([0], last[:-1]))
        gap = p - p[prev]
        again = first | (np.sqrt(_rowdot(gap, gap)) > eps)
        if np.array_equal(again, keep):
            return keep
        keep = again


def _drop_closing(p: np.ndarray, starts: np.ndarray, keep: np.ndarray, eps: float) -> np.ndarray:
    """`keep` without the last kept vertex of each loop that lies within eps
    of the loop's first vertex (and is not that vertex)."""
    keep = keep.copy()
    if not len(p):
        return keep
    tail = np.maximum.reduceat(np.where(keep, np.arange(len(p)), 0), starts)
    gap = p[tail] - p[starts]
    close = (tail != starts) & (np.sqrt(_rowdot(gap, gap)) <= eps)
    keep[tail[close]] = False
    return keep


def _first_unique(p: np.ndarray, groups: np.ndarray, eps: float) -> np.ndarray:
    """Keep mask of the points, in order, that lie more than eps from every
    earlier kept point of their group (groups sorted)."""
    rows = np.arange(len(p))
    starts = _group_starts(groups)
    first = np.repeat(starts, _lengths(starts, len(p)))
    local = rows - first
    # every pair (later, earlier) of rows of one group, earlier < later
    later = np.repeat(rows, local)
    earlier = np.arange(len(later)) + np.repeat(first - (np.cumsum(local) - local), local)
    gap = p[later] - p[earlier]
    near = np.sqrt(_rowdot(gap, gap)) <= eps
    later, earlier = later[near], earlier[near]
    keep = np.ones(len(p), dtype=bool)
    while True:
        again = np.ones(len(p), dtype=bool)
        again[later[keep[earlier]]] = False
        if np.array_equal(again, keep):
            return keep
        keep = again


def _frames(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of (G, 3) axes: the unit axis a and unit e1, e2 with (e1, e2, a)
    right-handed, so increasing atan2(. e2, . e1) winds CCW seen from +a."""
    a = axis / np.sqrt(_rowdot(axis, axis))[:, None]
    seed = np.eye(3)[np.where(np.abs(a[:, 0]) < 0.9, 0, 1)]
    e1 = _cross(a, seed)
    e1 /= np.sqrt(_rowdot(e1, e1))[:, None]
    return a, e1, _cross(a, e1)


def _angular_order(p: np.ndarray, groups: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """Row order that sorts every group of points (groups sorted) by angle
    around its centroid in the plane normal to the group's row of axis,
    stable on ties."""
    starts = _group_starts(groups)
    counts = _lengths(starts, len(p))
    g = np.repeat(np.arange(len(starts)), counts)
    _, e1, e2 = _frames(axis)
    rel = p - (np.add.reduceat(p, starts, axis=0) / counts[:, None])[g]
    ang = np.arctan2(_rowdot(rel, e2[g]), _rowdot(rel, e1[g]))
    return np.lexsort((ang, g))


def _reverse_within(starts: np.ndarray, n: int, flip: np.ndarray) -> np.ndarray:
    """Row order that reverses the loops where `flip` holds."""
    lens = _lengths(starts, n)
    rows = np.arange(n)
    face = np.repeat(np.arange(len(starts)), lens)
    mirrored = 2 * starts[face] + lens[face] - 1 - rows
    return np.where(flip[face], mirrored, rows)


def clip_stack(stack: PolyStack, d: np.ndarray, normals: np.ndarray, tags, eps: float) -> PolyStack:
    """Clip every cell of the stack by its own plane in one array pass.

    d[r] is the signed distance of vertex row r from its cell's plane (positive
    outside), normals[c] the plane normal of cell c and tags[c] the tag of the
    section face it adds (None or -1 for the domain). Per cell, as for one
    polyhedron: a cell with every d <= eps is kept whole, one with every
    d >= -eps vanishes. Otherwise a face with every d >= -eps goes, a face
    with every d <= eps stays whole, and every other face is cut: each vertex
    inside stays, each edge that crosses the plane adds its crossing point,
    and near-duplicate vertices of the cut loop are removed (`_dedup_loops`;
    under three left, the face goes). Kept rows keep their simplex ids; new
    rows get -1. The crossing points and the vertices
    within eps of the plane, taken in face and loop order, minus those within
    eps of an earlier one, make the section face when there are three or
    more: ordered by angle around their centroid, oriented along +normal and
    appended after the cell's other faces. A cell with no face left vanishes.
    """
    v, starts, succ = stack.verts, stack.starts, stack.succ
    nface = len(starts)
    if nface == 0:
        return stack
    row_face = np.repeat(np.arange(nface), stack.lengths())
    ncell = len(normals)
    below = np.logical_or.reduceat(d < -eps, starts)
    above = np.logical_or.reduceat(d > eps, starts)
    cell_below = np.bincount(stack.cells[below], minlength=ncell) > 0
    cell_above = np.bincount(stack.cells[above], minlength=ncell) > 0
    cut_cell = cell_below & cell_above
    keep_face = ~cell_above[stack.cells] | (cut_cell[stack.cells] & below)
    cut_face = cut_cell[stack.cells] & below & above

    # Emit per kept row its vertex when inside, then the crossing point of
    # its outgoing edge when that edge crosses the plane.
    rows = np.flatnonzero(keep_face[row_face])
    inside = d <= eps
    emit = np.empty((len(rows), 2), dtype=bool)
    emit[:, 0] = inside[rows]
    emit[:, 1] = inside[rows] != inside[succ[rows]]
    pts = np.empty((len(rows), 2, 3))
    pts[:, 0] = v[rows]
    a = rows[emit[:, 1]]
    b = succ[a]
    s = d[a] / (d[a] - d[b])
    pts[emit[:, 1], 1] = v[a] + s[:, None] * (v[b] - v[a])
    sid = np.full((len(rows), 2), -1, dtype=np.int64)
    sid[:, 0] = stack.simplices[rows]
    on_plane = np.empty_like(emit)
    on_plane[:, 0] = np.abs(d[rows]) <= eps
    on_plane[:, 1] = True
    emit = emit.ravel()
    pts = pts.reshape(-1, 3)[emit]
    sid = sid.ravel()[emit]
    face = np.repeat(row_face[rows], 2)[emit]
    on_plane = on_plane.ravel()[emit] & cut_cell[stack.cells[face]]

    # Cut loops lose their near-duplicate vertices; loops under three go.
    loop_starts = _group_starts(face)
    stay = _dedup_loops(pts, loop_starts, eps) | ~cut_face[face]
    count = np.bincount(face[stay], minlength=nface)
    stay &= count[face] >= 3
    loop_starts = _group_starts(face[stay])
    kept = face[stay][loop_starts]
    faces = PolyStack.from_loops(pts[stay], loop_starts, stack.tags[kept], stack.cells[kept],
                                 sid[stay])

    caps = _section_faces(pts[on_plane], stack.cells[face[on_plane]], normals, tags, eps)
    return concat_stacks([faces, caps])


def _section_faces(p: np.ndarray, cells: np.ndarray, normals: np.ndarray, tags, eps: float) -> PolyStack:
    """The section face of every cell from its points on the plane (cells
    sorted): distinct within eps, three or more, CCW around +normals[c]."""
    uniq = _first_unique(p, cells, eps)
    p, cells = p[uniq], cells[uniq]
    big = (np.bincount(cells, minlength=len(normals)) >= 3)[cells]
    p, cells = p[big], cells[big]
    if not len(p):
        return PolyStack.empty()
    starts = _group_starts(cells)
    owner = cells[starts]
    n = normals[owner]
    loops = p[_angular_order(p, cells, n)]
    realized = _face_normals(loops, starts, _successors(starts, len(loops)))
    flip = _rowdot(realized, n / np.sqrt(_rowdot(n, n))[:, None]) < 0.0
    tag = np.array([-1 if t is None else t for t in tags], dtype=np.int64)
    return PolyStack.from_loops(loops[_reverse_within(starts, len(loops), flip)], starts,
                                tag[owner], owner)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[k] @ b[k] for every row k of two (N, d) arrays. np.matmul takes each
    through the dot kernel of a 1-D `a[k] @ b[k]`, so every value equals the
    one-row product bit for bit (np.einsum rounds in another order)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _face_normals(v: np.ndarray, starts: np.ndarray, succ: np.ndarray) -> np.ndarray:
    """Newell normal of every loop of a stack of loops (rows, starts,
    successors) in one pass, (F, 3), each component summed in loop order."""
    w = v[succ]
    return np.add.reduceat((v - w)[:, [1, 2, 0]] * (v + w)[:, [2, 0, 1]], starts, axis=0)


# The corners of a box, numbered 4 * ix + 2 * iy + iz, and its faces as
# outward loops of them: z = z0, z = z1, y = y0, y = y1, x = x0, x = x1.
_BOX_FACES = [0, 2, 6, 4, 1, 5, 7, 3, 0, 4, 5, 1, 2, 3, 7, 6, 0, 1, 3, 2, 4, 6, 7, 5]


def box_polyhedron(lo, hi) -> PolyStack:
    """Axis-aligned box as a one-cell stack with outward domain faces."""
    corners = np.array(list(product(*zip(lo, hi))), dtype=float)
    return PolyStack.from_loops(corners[_BOX_FACES], np.arange(0, 24, 4), [-1] * 6, [0] * 6)


def domain_planes(domain: RingStack | PolyStack) -> tuple[np.ndarray, np.ndarray]:
    """Outward planes n . x <= c of a one-cell domain stack, unnormalized:
    one per edge of a CCW ring, n the edge vector turned clockwise, or one
    per face, n its Newell normal; c places the plane through the first
    vertex of the edge or face."""
    v = domain.verts
    if isinstance(domain, RingStack):
        e = v[domain.succ()] - v
        n = np.column_stack((e[:, 1], -e[:, 0]))
        return n, _rowdot(n, v)
    n = _face_normals(v, domain.starts, domain.succ)
    return n, _rowdot(n, v[domain.starts])
