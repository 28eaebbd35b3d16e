"""Control-volume assembly from per-simplex candidate vertices, boundary-cell
closure by domain clipping, and the global/local mesh validations.

Interior cells take their vertices directly from the incident simplices in
ring/star order; hull-point cells are cut out of the domain by the power
bisectors toward their neighbors. Both run as array code over all cells at
once, on polygons stacked by `clipping.RingStack` (2D) and polyhedra stacked
by `clipping.PolyStack` (3D); the per-cell checks run once over the whole
stack and raise for the first failing cell. That stack is the mesh's one
cell representation (`ControlVolumeMesh.cells`): cell i belongs to point i,
the validators and writers read its arrays, and nothing unpacks it into
per-cell objects. The domain every cell is cut from
(`ControlVolumeMesh.domain`) is a one-cell stack of the same kind, its
walls tagged -1. Every wall knows which neighbor it separates its owner
from, which makes the perpendicularity and shared-wall checks exact; those
and the global checks are whole-mesh array passes too, with the same report
as checking one cell at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .clipping import (  # noqa: F401 (perfbench wraps clip_polygon, clip_polyhedron here)
    PolyStack,
    RingStack,
    box_polygon,
    box_polyhedron,
    clip_polygon,
    clip_polyhedron,
    clip_rings,
    clip_stack,
    concat_stacks,
    domain_planes,
    grouped_matvec,
    ring_distances,
    _angular_order,
    _dedup_loops,
    _face_normals,
    _group_starts,
    _lengths,
    _reverse_within,
    _rowdot,
    _successors,
)
from .delaunay import NeighborMap, Triangulation2, Triangulation3
from .errors import NonConvexCell, NonPlanarFace, OrphanVertex
from .solver import simplex_systems

EPS_FACE = 1e-6       # face planarity, relative to the face edge scale
DOMAIN_PAD = 0.05     # domain box padding, relative to the points' largest extent


@dataclass
class ControlVolumeMesh:
    """One control volume per point, all of them in one stack: `cells` is a
    `RingStack` (2D) whose ring i is the polygon of points[i], or a
    `PolyStack` (3D) whose faces labelled i bound the polyhedron of
    points[i]. Walls carry the neighbor they face (-1 on the domain boundary)
    and vertex rows the simplex they came from (-1 for clip points). A ring
    under three rows, or a cell without faces, is empty."""

    dim: int
    points: np.ndarray
    radii: np.ndarray | None
    cells: RingStack | PolyStack
    domain: RingStack | PolyStack                # one cell, walls tagged -1
    simplices: np.ndarray | None = None
    simplex_vertices: np.ndarray | None = None   # (T, dim) candidate-vertex coords
    mode: str | None = None
    diagnostics: dict | None = None

    def empty_cells(self) -> np.ndarray:
        """Per point, whether its cell is empty."""
        if isinstance(self.cells, RingStack):
            return self.cells.lengths() < 3
        return np.bincount(self.cells.cells, minlength=len(self.points)) == 0

    def total_measure(self) -> float:
        """Sum of the cell measures in cell order, from one pass over all
        cells."""
        return float(sum(_cell_measures(self.cells, len(self.points)).tolist()))

    def domain_measure(self) -> float:
        return float(_cell_measures(self.domain, 1)[0])

    def scale(self) -> float:
        verts = self.domain.verts
        return float(np.linalg.norm(verts.max(axis=0) - verts.min(axis=0)))


def _cell_measures(stack, n: int) -> np.ndarray:
    """The measure of every cell of a stack of n cells: 2D areas by
    `_ring_areas`; 3D volumes from the fan terms of every face loop of every
    cell at once, each cell's terms summed in order from 0 (a Python sum)
    and divided by 6."""
    if isinstance(stack, RingStack):
        return _ring_areas(stack.verts, stack.starts)
    v, starts, succ = stack.verts, stack.starts, stack.succ
    rows = np.arange(len(v))
    mid = succ > rows        # neither the last row of its loop ...
    mid[starts] = False      # ... nor the first
    b = rows[mid]
    f = np.searchsorted(starts, b, side="right") - 1
    terms = _rowdot(v[starts[f]], np.cross(v[b], v[b + 1])).tolist()
    cuts = np.searchsorted(stack.cells[f], np.arange(n + 1)).tolist()
    return np.array([sum(terms[i:j]) / 6.0 for i, j in zip(cuts, cuts[1:])])


def _padded_box(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    pad = DOMAIN_PAD * max(float((hi - lo).max()), 1e-12)
    return lo - pad, hi + pad


def bounding_domain2(pts: np.ndarray) -> RingStack:
    return box_polygon(*_padded_box(pts))


def bounding_domain3(pts: np.ndarray) -> PolyStack:
    return box_polyhedron(*_padded_box(pts))


def _ring_areas(verts: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Signed area of every ring of a `RingStack` (0.0 for rings under three
    rows): half the np.sum of its shoelace terms. The terms of the rings of
    one length go through one np.sum along rows, which sums each row as
    np.sum sums that ring alone (pairwise from eight on)."""
    lens = _lengths(starts, len(verts))
    nxt = _successors(starts[lens > 0], len(verts))
    t = verts[:, 0] * verts[nxt, 1] - verts[nxt, 0] * verts[:, 1]
    area = np.zeros(len(starts))
    for k in np.unique(lens[lens >= 3]).tolist():
        rings = np.flatnonzero(lens == k)
        area[rings] = 0.5 * np.sum(t[starts[rings, None] + np.arange(k)], axis=1)
    return area


def _initial_rings(nm: NeighborMap, q: np.ndarray, box: RingStack) -> RingStack:
    """One ring per point, in point order. An interior point's ring lists
    the candidate vertices of its rows' triangles in ring order, the edge
    after vertex k tagged with the next row's neighbor, reversed where its
    signed area is negative (the tags rotate with it: edge m of the reversed
    ring is edge k - 2 - m of the original). A hull point's ring is the
    domain ring, `box`."""
    inner = ~nm.on_hull
    lens = np.where(inner, nm.lengths(), len(box.verts))
    starts = np.cumsum(lens) - lens
    local = np.arange(int(lens.sum())) - np.repeat(starts, lens)
    inside = np.repeat(inner, lens)
    row = (np.repeat(nm.starts, lens) + local)[inside]
    outer = local[~inside]
    verts = np.empty((len(local), 2))
    tags = np.empty(len(local), dtype=np.int64)
    verts[inside], tags[inside] = q[nm.simplex[row]], nm.nbr[nm.succ()[row]]
    verts[~inside], tags[~inside] = box.verts[outer], box.tags[outer]

    flip = np.repeat(inner & (_ring_areas(verts, starts) < 0.0), lens)
    k = np.repeat(lens, lens)
    first = np.repeat(starts, lens)
    rows = np.where(flip, first + k - 1 - local, first + local)
    tag_rows = np.where(flip, first + (k - 2 - local) % k, first + local)
    return RingStack.from_rings(verts[rows], starts, tags[tag_rows])


def _check_convex2(stack: RingStack):
    """Raise NonConvexCell for the first ring (its index the owner) with a
    corner whose sine (edge cross product over both lengths) is below -1e-9."""
    v = stack.verts
    nxt = stack.succ()
    e = v[nxt] - v
    ln = np.maximum(np.hypot(e[:, 0], e[:, 1]), 1e-300)
    cross = (e[:, 0] * e[nxt, 1] - e[:, 1] * e[nxt, 0]) / (ln * ln[nxt])
    ring = stack.row_rings()
    bad = np.flatnonzero((cross < -1e-9) & (stack.lengths() >= 3)[ring])
    if len(bad):
        c = int(ring[bad[0]])
        rows = cross[ring == c]
        raise NonConvexCell(c, f"reflex corner, sin={rows.min():.3g}")


BLOCK = 1 << 15   # padded entries per block of cells in the per-cell passes


def _blocks(a: np.ndarray, b: np.ndarray):
    """Blocks of cells for passes that pad every cell of a block to the
    block's largest a and b (two counts per cell): cells sorted by a * b,
    each block as long as cells * max a * max b stays within BLOCK (one
    cell at least). Yields (cells, max a, max b)."""
    order = np.argsort(-(a * b), kind="stable")
    a, b = a[order].tolist(), b[order].tolist()
    lo = 0
    while lo < len(order):
        ma, mb, hi = a[lo], b[lo], lo + 1
        while hi < len(order) and (hi + 1 - lo) * max(ma, a[hi]) * max(mb, b[hi]) <= BLOCK:
            ma, mb, hi = max(ma, a[hi]), max(mb, b[hi]), hi + 1
        yield order[lo:hi], max(ma, 1), max(mb, 1)
        lo = hi


def _padded(starts: np.ndarray, counts: np.ndarray, cells: np.ndarray, width: int):
    """Row indices (len(cells), width) of each cell's run of counts[c] rows
    from starts[c], and the mask of real ones (padding points at row 0)."""
    real = np.arange(width) < counts[cells, None]
    return np.where(real, starts[cells, None] + np.arange(width), 0), real


def _match_rows(verts: np.ndarray, row_starts: np.ndarray, q: np.ndarray, cand: np.ndarray,
                cand_starts: np.ndarray, eps: float) -> np.ndarray:
    """Per vertex row, the first candidate simplex of its cell, in the given
    order, whose candidate vertex q[t] lies within eps of it; -1 where none
    does. Cell c owns rows row_starts[c] up to row_starts[c + 1] and the
    candidates cand[cand_starts[c]:cand_starts[c + 1]]. Each block of cells
    (`_blocks`) takes the distances of all its rows to all its candidates as
    one cell at a time would, (q[t] - v) under np.linalg.norm, whose sum of
    squares runs over the coordinates in order."""
    out = np.full(len(verts), -1, dtype=np.int64)
    nrow = _lengths(row_starts, len(verts))
    ncand = _lengths(cand_starts, len(cand))
    if not len(cand) or not len(verts):
        return out
    for cells, mr, mc in _blocks(nrow, ncand):
        rows, real_row = _padded(row_starts, nrow, cells, mr)
        slots, real_cand = _padded(cand_starts, ncand, cells, mc)
        t = cand[slots]
        square = 0.0
        for k in range(verts.shape[1]):
            gap = q[t, k][:, None, :] - verts[rows, k][:, :, None]
            square = square + gap * gap
        near = (np.sqrt(square) <= eps) & real_cand[:, None, :]
        hit = near.any(axis=2) & real_row
        first = np.take_along_axis(t[:, None, :], near.argmax(axis=2)[:, :, None], axis=2)
        out[rows[hit]] = first[:, :, 0][hit]
    return out


def _candidates(nm: NeighborMap) -> tuple[np.ndarray, np.ndarray]:
    """Every point's simplices in row order (rows without one left out) as
    one flat array, and per-point starts."""
    has = nm.simplex >= 0
    return nm.simplex[has], np.searchsorted(nm.owner[has], np.arange(nm.n_points))


def _neighbor_table(owner: np.ndarray, nbr: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per point of n, its count of (owner, nbr) pairs (sorted by owner) and
    an (n, largest count) table of its neighbors in pair order, zero-padded."""
    counts = np.bincount(owner, minlength=n)
    table = np.zeros((n, counts.max(initial=0)), dtype=np.int64)
    table[owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]] = nbr
    return counts, table


def build_volumes2(tri: Triangulation2, nm: NeighborMap, pts=None, radii=None,
                   domain: RingStack | None = None) -> ControlVolumeMesh:
    """Assemble one convex cell per point from the triangle radical centers.

    Interior cells list the candidate vertex of each incident triangle in ring
    order; hull cells are the domain ring cut by the power bisectors toward
    the ring neighbors. Every cell is clipped to the domain. All cells go
    through each step together, stacked in one `RingStack`, which the mesh
    keeps as its cells.
    """
    pts = tri.points if pts is None else pts
    r = np.asarray(radii, dtype=float)
    systems = simplex_systems(tri)
    q = systems.vertices(r)
    domain = domain if domain is not None else bounding_domain2(pts)
    dverts = domain.verts
    scale = float(np.linalg.norm(dverts.max(axis=0) - dverts.min(axis=0)))
    eps = 1e-10 * scale
    match_eps = 1e-9 * scale
    planes = domain_planes(domain)

    # Hull cells are clipped by the power bisector toward their k-th ring
    # neighbor at step k, then interior cells by each domain line that a
    # vertex lies beyond: every ring that takes a cut in one pass per step.
    stack = _initial_rings(nm, q, domain)
    hull = nm.on_hull[nm.owner]
    counts, table = _neighbor_table(nm.owner[hull], nm.nbr[hull], len(pts))
    for k in range(table.shape[1]):
        pj, rj = pts[table[:, k]], r[table[:, k]]
        normal = 2.0 * (pj - pts)
        offset = _rowdot(pj, pj) - _rowdot(pts, pts) + r * r - rj * rj
        d = ring_distances(stack, normal, offset, counts > k)
        stack = clip_rings(stack, d, table[:, k], eps)
    for n, c in zip(*planes):
        d = ring_distances(stack, np.tile(n, (len(pts), 1)), np.full(len(pts), c), ~nm.on_hull)
        if np.any(d > eps):
            stack = clip_rings(stack, d, [None] * len(pts), eps)

    _check_convex2(stack)
    cand, cand_starts = _candidates(nm)
    stack = replace(stack, simplices=_match_rows(stack.verts, stack.starts, q, cand,
                                                 cand_starts, match_eps))
    _check_orphans(q, stack.simplices, planes, eps_inside=match_eps)
    return ControlVolumeMesh(dim=2, points=pts, radii=r, cells=stack, domain=domain,
                             simplices=tri.triangles, simplex_vertices=q)


def _check_orphans(q: np.ndarray, matched: np.ndarray, planes, eps_inside: float):
    """Raise OrphanVertex for the first candidate vertex that no cell vertex
    matched (`matched` holds the matched simplex ids, -1 ignored) and that
    lies inside every domain plane (`domain_planes`) by more than
    eps_inside."""
    inside = np.ones(len(q), dtype=bool)
    inside[matched[matched >= 0]] = False
    for n, c in zip(*planes):
        inside &= _rowdot(q, np.broadcast_to(n, q.shape)) - c < -eps_inside * np.linalg.norm(n)
    bad = np.flatnonzero(inside)
    if len(bad):
        raise OrphanVertex(int(bad[0]))


def _face_planes(stack, normals) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Planes of the loops of a stack (rows, starts, successors) with Newell
    normals `normals`: the mask of loops with a nonzero normal, and for those
    the unit normal u (F', 3) and offset c (F',), u . x = c through the first
    vertex."""
    v, starts, _ = stack
    nn = np.sqrt(_rowdot(normals, normals))
    keep = nn != 0.0
    u = normals[keep] / nn[keep, None]
    return keep, u, _rowdot(u, v[starts[keep]])


def _face_planarity(stack, normals) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per loop of a stack (rows, starts, successors): whether it has a
    nonzero normal, the largest distance of its vertices from the plane
    through its first vertex (0.0 without a normal) and its longest edge."""
    v, starts, succ = stack
    keep, u, _ = _face_planes(stack, normals)
    face = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(v)))
    unit = np.zeros_like(normals)
    unit[keep] = u
    dev = np.maximum.reduceat(np.abs(_rowdot(v - v[starts][face], unit[face])), starts)
    e = v[succ] - v
    edge = np.maximum.reduceat(np.sqrt(_rowdot(e, e)), starts)
    return keep, dev, edge


def _nonplanar_faces(stack, normals) -> np.ndarray:
    """Mask of the loops whose vertices leave the plane through their first
    vertex by more than EPS_FACE times their longest edge; loops with no
    normal or no edge length pass."""
    keep, dev, edge = _face_planarity(stack, normals)
    return keep & (edge != 0.0) & (dev > EPS_FACE * edge)


def _check_face_planarity(owner: int, neighbors: list, stack, normals):
    """Raise NonPlanarFace for the first face of one cell that
    `_nonplanar_faces` flags."""
    bad = np.flatnonzero(_nonplanar_faces(stack, normals))
    if len(bad):
        f = int(bad[0])
        dev = _face_planarity(stack, normals)[1]
        raise NonPlanarFace(owner, neighbors[f], float(dev[f]))


def _check_convex3(owner: int, stack, normals, scale: float):
    """Raise NonConvexCell for the first face with a cell vertex more than
    1e-9 * scale outside its plane."""
    _, u, c = _face_planes(stack, normals)
    out = (stack[0] @ u.T - c).max(axis=0)
    bad = np.nonzero(out > 1e-9 * scale)[0]
    if len(bad):
        raise NonConvexCell(owner, f"vertex {out[bad[0]]:.3g} outside face plane")


def _convex_suspects(stack: PolyStack, normals: np.ndarray, scale: float) -> np.ndarray:
    """Sorted ids of the cells of a stack that `_check_convex3` might reject:
    every cell whose largest vertex offset outside one of its face planes
    comes within a rounding margin of 1e-9 * scale. The offsets come from one
    stacked matmul per block of cells (`_blocks`: padded vertex rows times
    face normals), which rounds unlike the cell-by-cell product, hence the
    margin; the suspects are decided by `_check_convex3` itself."""
    v = stack.verts
    keep, u, c = _face_planes((v, stack.starts, stack.succ), normals)
    ncell = int(stack.cells.max(initial=-1)) + 1
    rcell = stack.row_cells()
    row_starts = np.searchsorted(rcell, np.arange(ncell))
    face_starts = np.searchsorted(stack.cells[keep], np.arange(ncell))
    nrow = _lengths(row_starts, len(v))
    nface = _lengths(face_starts, len(u))
    if not len(u):
        return np.zeros(0, dtype=np.int64)
    margin = 1e-12 * (float(np.abs(v).max(initial=0.0)) + float(np.abs(c).max()))
    worst = np.full(ncell, -np.inf)
    for cells, mr, mf in _blocks(nrow, nface):
        rows, real_row = _padded(row_starts, nrow, cells, mr)
        faces, real_face = _padded(face_starts, nface, cells, mf)
        out = np.matmul(v[rows], u[faces].transpose(0, 2, 1)) - c[faces][:, None, :]
        out[~(real_row[:, :, None] & real_face[:, None, :])] = -np.inf
        worst[cells] = out.max(axis=(1, 2))
    return np.flatnonzero(worst > 1e-9 * scale - margin)


def _check_cells3(stack: PolyStack, normals: np.ndarray, scale: float):
    """The face-planarity and convexity checks of every cell of a stack, in
    one pass each. Raise for the first failing cell in cell order: its first
    nonplanar face (NonPlanarFace) or, when its faces are planar,
    NonConvexCell as `_check_convex3` words it."""
    nonplanar = stack.cells[_nonplanar_faces((stack.verts, stack.starts, stack.succ), normals)]
    first = int(nonplanar[0]) if len(nonplanar) else None
    ends = np.append(stack.starts, len(stack.verts))

    def cell(i):
        f0, f1 = np.searchsorted(stack.cells, [i, i + 1]).tolist()
        r0, r1 = int(ends[f0]), int(ends[f1])
        return (stack.verts[r0:r1], stack.starts[f0:f1] - r0, stack.succ[r0:r1] - r0), f0, f1

    for i in _convex_suspects(stack, normals, scale).tolist():
        if first is not None and i >= first:
            break
        loops, f0, f1 = cell(i)
        _check_convex3(i, loops, normals[f0:f1], scale)
    if first is not None:
        loops, f0, f1 = cell(first)
        tags = [None if t < 0 else t for t in stack.tags[f0:f1].tolist()]
        _check_face_planarity(first, tags, loops, normals[f0:f1])


def _hull_cells(cells: np.ndarray, pts, r, domain: PolyStack, eps: float,
                counts: np.ndarray, table: np.ndarray) -> PolyStack:
    """Hull-point cells: each starts as a copy of the one-cell domain stack
    and is clipped by the power bisector toward its k-th neighbor
    (table[i, k], k < counts[i]) at step k, every cell that has a k-th
    neighbor in one `clip_stack` pass per step."""
    # most neighbors first, so the cells clipped at step k lead the stack
    cells = cells[np.argsort(-counts[cells], kind="stable")]
    counts, table = counts[cells], table[cells]
    m, nv, nf = len(cells), len(domain.verts), len(domain.starts)
    stack = PolyStack.from_loops(np.tile(domain.verts, (m, 1)),
                                 (domain.starts + nv * np.arange(m)[:, None]).ravel(),
                                 np.tile(domain.tags, m), np.repeat(np.arange(m), nf))
    for k in range(table.shape[1]):
        live = int(np.count_nonzero(counts > k))
        head, tail = stack.split(live)
        pi, pj = pts[cells[:live]], pts[table[:live, k]]
        ri, rj = r[cells[:live]], r[table[:live, k]]
        normal = 2.0 * (pj - pi)
        offset = _rowdot(pj, pj) - _rowdot(pi, pi) + ri * ri - rj * rj
        rc = head.row_cells()
        d = _rowdot(head.verts, normal[rc]) - offset[rc]
        stack = concat_stacks([clip_stack(head, d, normal, table[:live, k], eps), tail])
    return replace(stack, cells=cells[stack.cells])


def _interior_cells(cells: np.ndarray, nm: NeighborMap, q: np.ndarray, pts,
                    eps: float) -> PolyStack:
    """Interior-point cells: the wall toward neighbor j collects the candidate
    vertices of every tetrahedron on edge (i, j), in star order, sorted by
    angle around their centroid in the plane normal to the edge (the
    centroid lies inside the convex wall, unlike the edge midpoint, so
    angular order is boundary order), with near duplicates removed
    (`_dedup_loops`) and oriented toward j; walls under three vertices are
    left out. All walls of all cells in one pass."""
    if not len(cells):
        return PolyStack.empty()
    rows = np.flatnonzero(np.isin(nm.owner, cells))
    # one row per (owner, neighbor, tetrahedron), by owner, neighbor, star order
    owner = np.repeat(nm.owner[rows], 3)
    other = nm.nbr[rows].ravel()
    tets = nm.simplex[rows]
    row = np.repeat(np.arange(len(rows)), 3)
    order = np.lexsort((row, other, owner))
    owner, other, tet = owner[order], other[order], tets[row[order]]
    new = np.ones(len(owner), dtype=bool)
    new[1:] = (owner[1:] != owner[:-1]) | (other[1:] != other[:-1])
    group = np.cumsum(new) - 1
    gi, gj = owner[new], other[new]
    axis = pts[gj] - pts[gi]
    p = q[tet]
    loops = p[_angular_order(p, group, axis)]
    keep = _dedup_loops(loops, np.flatnonzero(new), eps)
    keep &= (np.bincount(group[keep], minlength=len(gi)) >= 3)[group]
    loops, group = loops[keep], group[keep]
    starts = _group_starts(group)
    walls = group[starts]
    realized = _face_normals(loops, starts, _successors(starts, len(loops)))
    flip = _rowdot(realized, axis[walls]) < 0.0
    return PolyStack.from_loops(loops[_reverse_within(starts, len(loops), flip)], starts,
                                gj[walls], gi[walls])


def _clip_to_domain(stack: PolyStack, planes, eps: float) -> PolyStack:
    """Clip the cells with a vertex beyond a domain plane (`domain_planes`,
    by more than eps relative to its normal) by each such plane in turn: one
    `clip_stack` pass per plane over every cell that crosses it."""
    for n, c in zip(*planes):
        rows = stack.row_cells()
        d = grouped_matvec(stack.verts, rows, np.tile(n, (int(rows.max(initial=-1)) + 1, 1))) - c
        crossing = np.unique(rows[d > eps * np.linalg.norm(n)])
        if not len(crossing):
            continue
        inside = np.isin(stack.cells, crossing)
        part = stack.take(np.flatnonzero(inside))
        part = replace(part, cells=np.searchsorted(crossing, part.cells))
        cut = clip_stack(part, d[np.isin(rows, crossing)], np.tile(n, (len(crossing), 1)),
                         [None] * len(crossing), eps)
        stack = concat_stacks([stack.take(np.flatnonzero(~inside)),
                               replace(cut, cells=crossing[cut.cells])])
    return stack


def build_volumes3(tet: Triangulation3, nm: NeighborMap, pts=None, radii=None,
                   domain: PolyStack | None = None) -> ControlVolumeMesh:
    """3D analog of build_volumes2: the face toward neighbor j collects the
    candidate vertices of every tetrahedron on edge (i, j), ordered around the
    edge; hull cells are cut from the domain by power bisectors. The checks
    run once over the whole `PolyStack`, raising for the first failing cell,
    and the mesh keeps that stack as its cells."""
    pts = tet.points if pts is None else pts
    r = np.asarray(radii, dtype=float)
    systems = simplex_systems(tet)
    q = systems.vertices(r)
    domain = domain if domain is not None else bounding_domain3(pts)
    dv = domain.verts
    scale = float(np.linalg.norm(dv.max(axis=0) - dv.min(axis=0)))
    eps = 1e-10 * scale
    match_eps = 1e-9 * scale
    planes = domain_planes(domain)

    hull = np.flatnonzero(nm.on_hull)
    interior = np.flatnonzero(~nm.on_hull)
    i, j = nm.pairs()
    owner, nbr = np.divmod(np.unique(i * len(pts) + j), len(pts))   # each point's neighbors, sorted
    hull_pairs = nm.on_hull[owner]
    stack = concat_stacks([
        _hull_cells(hull, pts, r, domain, eps,
                    *_neighbor_table(owner[hull_pairs], nbr[hull_pairs], len(pts))),
        _clip_to_domain(_interior_cells(interior, nm, q, pts, eps), planes, eps),
    ])
    normals = _face_normals(stack.verts, stack.starts, stack.succ)
    _check_cells3(stack, normals, scale)
    cand, cand_starts = _candidates(nm)
    row_starts = np.searchsorted(stack.row_cells(), np.arange(len(pts)))
    stack = replace(stack, simplices=_match_rows(stack.verts, row_starts, q, cand, cand_starts,
                                                 match_eps))
    _check_orphans(q, stack.simplices, planes, eps_inside=match_eps)
    return ControlVolumeMesh(dim=3, points=pts, radii=r, cells=stack, domain=domain,
                             simplices=tet.tetrahedra, simplex_vertices=q)


@dataclass
class PerpendicularityReport:
    tol: float
    checked: int
    violations: list  # (owner, neighbor, deviation_radians)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_perpendicularity(mesh: ControlVolumeMesh, pts: np.ndarray | None = None,
                              tol: float = 1e-6) -> PerpendicularityReport:
    """Check every tagged wall against the local orthogonality condition: the
    wall must be perpendicular to the segment joining its two cell centers.

    A 2D wall is one edge of a ring of three rows or more, skipped when no
    longer than 1e-12 * scale; a 3D wall is a face, judged by its edge
    longer than 1e-12 * scale with the largest |cos| against the segment
    (0.0 when it has none). All walls of the mesh go through one array pass;
    the deviation is the arcsine of that |cos|, capped at 1, taken with
    math.asin for every wall that np.arcsin puts near or above tol."""
    pts = mesh.points if pts is None else pts
    scale = mesh.scale()
    if mesh.dim == 2:
        rings = mesh.cells
        ring = rings.row_rings()
        v = rings.verts
        e = v[rings.succ()] - v
        ln = np.sqrt(_rowdot(e, e))
        wall = _wall_rows(mesh) & ~(ln <= 1e-12 * scale)
        i, j = ring[wall], rings.tags[wall]
        axis = pts[j] - pts[i]
        cos = np.abs(_rowdot(e[wall], axis)) / (ln[wall] * np.sqrt(_rowdot(axis, axis)))
    else:
        faces = mesh.cells
        walls = faces.take(np.flatnonzero(faces.tags >= 0))
        i, j = walls.cells, walls.tags
        axis = pts[j] - pts[i]
        axis = axis / np.sqrt(_rowdot(axis, axis))[:, None]
        v = walls.verts
        e = v[walls.succ] - v
        ln = np.sqrt(_rowdot(e, e))
        face = np.repeat(np.arange(len(walls.starts)), walls.lengths())
        dot = np.abs(_rowdot(e, axis[face]))
        long = ln > 1e-12 * scale
        row_cos = np.zeros(len(v))
        row_cos[long] = dot[long] / ln[long]
        cos = np.maximum.reduceat(row_cos, walls.starts) if len(v) else np.zeros(0)
    capped = np.where(cos < 1.0, cos, 1.0)
    near = np.flatnonzero(np.arcsin(capped) >= tol - 1e-9 * abs(tol))
    violations = []
    for k, x in zip(near.tolist(), capped[near].tolist()):
        dev = math.asin(x)
        if dev > tol:
            violations.append((int(i[k]), int(j[k]), dev))
    return PerpendicularityReport(tol=tol, checked=len(cos), violations=violations)


def _wall_rows(mesh: ControlVolumeMesh) -> np.ndarray:
    """Mask of the rows of a 2D mesh's rings that start a wall: a tagged edge
    of a ring that is not empty."""
    rings = mesh.cells
    return (rings.tags >= 0) & ~mesh.empty_cells()[rings.row_rings()]


@dataclass
class GlobalReport:
    shared_wall_mismatches: list
    overlaps: list
    owners_outside: list
    foreign_points: list
    total_measure: float
    domain_measure: float
    probes: int

    @property
    def ok(self) -> bool:
        return not (
            self.shared_wall_mismatches or self.overlaps
            or self.owners_outside or self.foreign_points
        )


def _containment_boxes(stack, n: int, tol: float, pad: float):
    """Per cell of a stack of n cells, whether a box holding every point
    that `_inside_pairs` accepts in it at tolerance tol is known, and the box
    (lo, hi), as arrays over the cells.

    A point strictly left of every edge line of a closed loop has winding
    number >= 1 around it, so it lies in the hull of the loop's vertices and
    hence in their bounding box, widened here by pad against rounding. In 3D,
    the test takes each face against the plane through its first vertex and
    skips faces with no normal, so the same argument needs more of the
    cell: every face has a normal and lies within tol / 2 of its plane, and
    the faces close, each directed edge running back along exactly one edge
    of another face (`_closed_cells`). Then a point inside every plane by tol
    sees every face at a positive solid angle, and the solid angles of a
    closed surface sum to a whole number of spheres. Such cells get the box
    of their vertices; other 3D cells, and every cell when tol <= 0, get
    none. Empty cells get none either.
    """
    has = np.zeros(n, dtype=bool)
    lo = np.zeros((n, stack.verts.shape[1]))
    hi = np.zeros_like(lo)
    if tol <= 0.0 or n == 0:
        return has, lo, hi
    if isinstance(stack, RingStack):
        full = stack.lengths() > 0
        starts = stack.starts[full]
        lo[full] = np.minimum.reduceat(stack.verts, starts, axis=0) - pad
        hi[full] = np.maximum.reduceat(stack.verts, starts, axis=0) + pad
        has[full] = True
        return has, lo, hi
    faces = stack
    if not len(faces.starts):
        return has, lo, hi
    loops = (faces.verts, faces.starts, faces.succ)
    keep, dev, _ = _face_planarity(loops, _face_normals(*loops))
    flat = keep & (dev <= 0.5 * tol)
    good = np.bincount(faces.cells[~flat], minlength=n) == 0
    good &= _closed_cells(faces, n, tol)
    ids = np.unique(faces.cells)
    rows = np.searchsorted(faces.row_cells(), ids)
    lo[ids] = np.minimum.reduceat(faces.verts, rows, axis=0) - pad
    hi[ids] = np.maximum.reduceat(faces.verts, rows, axis=0) + pad
    has[ids] = good[ids]
    return has, lo, hi


def _closed_cells(faces: PolyStack, n: int, grid: float) -> np.ndarray:
    """Per cell (n cells), whether its face loops close: every directed edge
    a -> b has exactly one reverse b -> a in the cell, none is repeated and
    none joins a vertex to itself. Vertices of a cell are the same when their
    coordinates fall in the same cube of a grid of side `grid`; the faces of
    one cell compute a shared corner separately, so it differs by rounding.
    A cell with a non-finite coordinate does not close."""
    rcell = faces.row_cells()
    finite = np.all(np.isfinite(faces.verts), axis=1)
    snapped = np.floor(np.where(finite[:, None], faces.verts, 0.0) / grid).astype(np.int64)
    _, vid = np.unique(np.column_stack((rcell, snapped)), axis=0, return_inverse=True)
    a = vid.ravel()
    b = a[faces.succ]
    nv = int(a.max(initial=0)) + 1
    fwd = a * nv + b
    srt = np.sort(fwd)
    once = np.ones(len(fwd), dtype=bool)
    once[np.isin(fwd, srt[1:][srt[1:] == srt[:-1]])] = False
    ok = once & finite & (a != b) & np.isin(b * nv + a, srt)
    return np.bincount(rcell[~ok], minlength=n) == 0


PAIR_CHUNK = 1 << 12   # candidate (box, target) pairs per chunk


def _box_pairs(lo: np.ndarray, hi: np.ndarray, targets: np.ndarray):
    """Yield (box, target) index arrays of every target inside a box (lo <= x
    <= hi on every axis), grouped by box in box order, in chunks of boxes with
    about PAIR_CHUNK candidates each. Candidates come from a grid of buckets
    over the targets, a quarter as wide as the median box: bucket indices
    grow with each coordinate, so a box's bucket range holds all its
    targets."""
    dim = lo.shape[1]
    live = np.flatnonzero(~np.any(np.isnan(lo) | np.isnan(hi), axis=1))
    if not len(live) or not len(targets):
        return
    tlo, thi = targets.min(axis=0), targets.max(axis=0)
    extent = thi - tlo
    width = np.median(np.minimum(hi[live], thi) - np.maximum(lo[live], tlo), axis=0)
    cap = int(np.ceil((4 * len(targets)) ** (1.0 / dim)))
    m = np.ones(dim, dtype=np.int64)
    ok = (extent > 0) & (width > 0)
    m[ok] = np.clip(np.round(4 * extent[ok] / width[ok]), 1, cap).astype(np.int64)
    h = np.where(extent > 0, extent / m, 1.0)

    def bucket(x):
        return np.clip(np.floor((x - tlo) / h), 0, m - 1).astype(np.int64)

    stride = np.append(np.cumprod(m[::-1])[::-1][1:], 1)
    tkey = bucket(targets) @ stride
    by_key = np.argsort(tkey, kind="stable")
    first = np.searchsorted(tkey[by_key], np.arange(int(np.prod(m)) + 1))
    blo, bhi = bucket(lo[live]), bucket(hi[live])
    cnt = bhi - blo + 1
    nstrip = np.prod(cnt[:, :-1], axis=1)
    box = np.repeat(np.arange(len(live)), nstrip)
    rest = np.arange(int(nstrip.sum())) - np.repeat(np.cumsum(nstrip) - nstrip, nstrip)
    prefix = np.zeros(len(box), dtype=np.int64)
    for k in range(dim - 2, -1, -1):
        prefix += (blo[box, k] + rest % cnt[box, k]) * stride[k]
        rest //= cnt[box, k]
    s0 = first[prefix + blo[box, -1]]
    s1 = first[prefix + bhi[box, -1] + 1]
    per_box = np.bincount(box, weights=s1 - s0, minlength=len(live)).astype(np.int64)
    total = np.cumsum(per_box)
    strip_of = np.cumsum(nstrip) - nstrip
    b0 = 0
    while b0 < len(live):
        b1 = max(int(np.searchsorted(total, total[b0] - per_box[b0] + PAIR_CHUNK, side="right")),
                 b0 + 1)
        sl = slice(int(strip_of[b0]), int(strip_of[b1 - 1] + nstrip[b1 - 1]))
        n = s1[sl] - s0[sl]
        pb = np.repeat(box[sl], n)
        pos = np.arange(int(n.sum())) + np.repeat(s0[sl] - (np.cumsum(n) - n), n)
        pt = by_key[pos]
        pb = live[pb]
        inside = np.ones(len(pt), dtype=bool)
        for k in range(dim):
            x = targets[pt, k]
            inside &= (x >= lo[pb, k]) & (x <= hi[pb, k])
        yield pb[inside], pt[inside]
        b0 = b1


def _inside_pairs(mesh: ControlVolumeMesh, targets: np.ndarray, tol: float, pad: float):
    """(cell, target) of every target that lies inside its cell by more than
    tol, sorted by cell then target. In 2D a target is inside when its
    distance left of every edge line exceeds tol; in 3D when it lies more than
    tol inside the plane through the first vertex of every face with a
    normal. A cell with a containment box (`_containment_boxes`) pairs with
    the targets in it, every other non-empty cell with every target; the
    pairs go through one array test per chunk."""
    stack = mesh.cells
    n = len(mesh.points)
    margin = -tol
    empty = mesh.empty_cells()
    has, lo, hi = _containment_boxes(stack, n, tol, pad)
    has &= ~empty
    pos, tgt = [], []
    flat = isinstance(stack, RingStack)
    if flat:
        # per cell (column) its vertices, edge vectors and lengths, padded
        # to one height; padding rows pass every test
        rings = stack
        v = rings.verts
        e = v[rings.succ()] - v
        ring = rings.row_rings()
        at = (np.arange(len(v)) - rings.starts[ring], ring)
        width = (max(int(rings.lengths().max(initial=0)), 1), n)
        vx, vy, ex, ey = (np.zeros(width) for _ in range(4))
        ln = np.ones(width)
        pad = np.ones(width, dtype=bool)
        vx[at], vy[at], ex[at], ey[at] = v[:, 0], v[:, 1], e[:, 0], e[:, 1]
        ln[at] = np.maximum(np.hypot(e[:, 0], e[:, 1]), 1e-300)
        pad[at] = False
    else:
        loops = (stack.verts, stack.starts, stack.succ)
        keep, u, c = _face_planes(loops, _face_normals(*loops))
        fcell = stack.cells[keep]
        fstart = np.searchsorted(fcell, np.arange(n + 1))

    def unboxed():
        rest = np.flatnonzero(~has & ~empty)
        step = max(PAIR_CHUNK // len(targets), 1)
        for a in range(0, len(rest), step):
            cells = rest[a:a + step]
            yield np.repeat(cells, len(targets)), np.tile(np.arange(len(targets)), len(cells))

    boxed = np.flatnonzero(has)
    for pc, pt in chain(((boxed[pb], pt) for pb, pt in _box_pairs(lo[boxed], hi[boxed], targets)),
                        unboxed()):
        if flat:
            # the cross products, one column of edges per pair
            px, py = targets[pt, 0], targets[pt, 1]
            cross = (ex[:, pc] * (py - vy[:, pc]) - ey[:, pc] * (px - vx[:, pc])) / ln[:, pc]
            ok = np.logical_and.reduce((cross >= -margin) | pad[:, pc], axis=0)
        else:
            # each face's plane over its cell's targets, one matrix-vector
            # product per face (two rows at least: a one-row product rounds
            # as a dot, unlike a longer one)
            cut = np.flatnonzero(np.append(True, pc[1:] != pc[:-1]))
            ok = np.ones(len(pc), dtype=bool)
            for a, b in zip(cut.tolist(), np.append(cut[1:], len(pc)).tolist()):
                p = targets[pt[a:b]] if b - a > 1 else targets[pt[[a, a]]]
                inside = np.ones(len(p), dtype=bool)
                cell = int(pc[a])
                for f in range(fstart[cell], fstart[cell + 1]):
                    inside &= p @ u[f] - c[f] <= margin
                ok[a:b] = inside[:b - a]
        pos.append(pc[ok])
        tgt.append(pt[ok])
    if not pos:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    key = np.sort(np.concatenate(pos).astype(np.int64) * len(targets) + np.concatenate(tgt))
    return np.divmod(key, len(targets))


def _wall_mismatches(mesh: ControlVolumeMesh, tol: float) -> list:
    """The shared-wall check: walls keyed (min, max) of owner and neighbor,
    in order of first appearance, each side taking its owner's last wall
    under that key; a key without both sides is "missing side", two sides
    whose vertices do not pair up within tol (`_vertex_sets_match_many`, for
    all walls of one size at once) are "wall geometry differs"."""
    if mesh.dim == 2:
        # each wall a loop of its edge's two endpoints
        rings = mesh.cells
        rows = np.flatnonzero(_wall_rows(mesh))
        o, j = rings.row_rings()[rows], rings.tags[rows]
        verts = np.stack((rings.verts[rows], rings.verts[rings.succ()[rows]]), axis=1)
        verts = verts.reshape(-1, 2)
        starts, lens = 2 * np.arange(len(rows)), np.full(len(rows), 2)
    else:
        walls = mesh.cells.take(np.flatnonzero(mesh.cells.tags >= 0))
        o, j = walls.cells, walls.tags
        verts, starts, lens = walls.verts, walls.starts, walls.lengths()
    if not len(o):
        return []
    lo, hi = np.minimum(o, j), np.maximum(o, j)
    base = int(hi.max()) + 1
    _, first, key = np.unique(lo * base + hi, return_index=True, return_inverse=True)
    key = key.ravel()
    side = (o == hi) & (lo != hi)
    code = 2 * key + side
    uniq, back = np.unique(code[::-1], return_index=True)
    last = np.full(2 * len(first), -1)
    last[uniq] = len(code) - 1 - back
    a, b = last[0::2], last[1::2]
    both = (a >= 0) & (b >= 0)
    differs = np.zeros(len(first), dtype=bool)
    pairs = np.flatnonzero(both)
    differs[pairs] = lens[a[pairs]] != lens[b[pairs]]
    same = pairs[~differs[pairs]]
    for k in np.unique(lens[a[same]]).tolist():
        grp = same[lens[a[same]] == k]
        loops = verts[starts[np.stack((a[grp], b[grp]))][..., None] + np.arange(k)]
        differs[grp] = ~_vertex_sets_match_many(loops[0], loops[1], tol)
    out = []
    for w in np.argsort(first).tolist():
        if not both[w]:
            out.append((int(lo[first[w]]), int(hi[first[w]]), "missing side"))
        elif differs[w]:
            out.append((int(lo[first[w]]), int(hi[first[w]]), "wall geometry differs"))
    return out


def validate_global(mesh: ControlVolumeMesh, probes: int = 10_000, seed: int = 0,
                    tol: float | None = None) -> GlobalReport:
    """Global mesh conditions: identical shared walls seen from both owners,
    sampled pairwise interior disjointness, each owner inside its own cell,
    and no foreign generator inside any cell.

    Each cell with a containment box (`_containment_boxes`) tests only the
    probes and generators inside it; the points outside cannot pass the
    strict containment test, so the report equals that of testing every
    point against every cell. A cell without a known box tests every point.
    The owner is inside its cell when its own generator row passes that same
    test; an empty cell holds nothing, so its owner is outside. Overlaps,
    owners outside and foreign points are listed in cell order, then probe
    or generator order.
    """
    scale = mesh.scale()
    tol = 1e-9 * scale if tol is None else tol
    pts = mesh.points
    n = len(pts)
    mismatches = _wall_mismatches(mesh, tol)

    rng = np.random.default_rng(seed)
    dverts = mesh.domain.verts
    lo = dverts.min(axis=0)
    hi = dverts.max(axis=0)
    samples = lo + (hi - lo) * rng.random((probes, mesh.dim))
    targets = np.vstack([samples, pts])
    pos, tgt = _inside_pairs(mesh, targets, tol, 1e-9 * scale)

    # a probe's first cell (in cell order) owns it; every later one overlaps
    probe = tgt < probes
    ppos, pk = pos[probe], tgt[probe]
    first = np.full(probes, n, dtype=np.int64)
    np.minimum.at(first, pk, ppos)
    later = ppos != first[pk]
    overlaps = list(zip(pk[later].tolist(), first[pk[later]].tolist(), ppos[later].tolist()))

    gpos, gj = pos[~probe], tgt[~probe] - probes
    own = gj == gpos
    home = np.zeros(n, dtype=bool)
    home[gpos[own]] = True
    return GlobalReport(
        shared_wall_mismatches=mismatches,
        overlaps=overlaps,
        owners_outside=np.flatnonzero(mesh.empty_cells() | ~home).tolist(),
        foreign_points=list(zip(gpos[~own].tolist(), gj[~own].tolist())),
        total_measure=mesh.total_measure(),
        domain_measure=mesh.domain_measure(),
        probes=probes,
    )


def _vertex_sets_match_many(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Greedy matching of every pair (a[w], b[w]) of (W, K, dim) loops: each
    vertex of a[w], in order, takes the nearest unused vertex of b[w], which
    must lie within tol; one greedy step for all pairs at a time."""
    d = np.linalg.norm(a[:, :, None, :] - b[:, None, :, :], axis=3)
    ok = np.ones(len(a), dtype=bool)
    rows = np.arange(len(a))
    for m in range(a.shape[1]):
        k = np.argmin(d[:, m, :], axis=1)
        ok &= ~(d[rows, m, k] > tol)
        d[rows, :, k] = np.inf
    return ok
