"""Control-volume assembly from per-simplex candidate vertices, one rule
for every cell, the local validation and the global certificate.

Every cell lists the radical centers of its simplices in ring (2D) or star
(3D) order. A hull point's cell closes through the ghost simplices on its
hull facets: each adds the point where its facet's power ray meets the
point's far line or plane beyond the domain (`_far_planes`), and the edge or
face of those points is tagged -1. The domain clip is then the one cut, and
no cell is repaired after it is built. All of it runs as array code over all
cells at once, on polygons stacked by `clipping.RingStack` (2D) and
polyhedra stacked by `clipping.PolyStack` (3D); the per-cell checks run once
over the whole stack and raise for the first failing cell. Every wall's
line (2D) or plane (3D), of the domain and of the cells, comes from one
table (`face_planes`) with unit normals, so every cut and every tolerance
compares a true distance with an eps relative to the domain scale, and a
domain scaled by a power of two gives the same mesh scaled by it, bit for
bit. The domain clip and the orphan check read the domain's table; the
convexity check (`_convex_faults`: every vertex of a cell against every
wall of it) and in 3D the planarity check decide every cell from the
cells' table in one padded pass. That stack is the mesh's one cell
representation (`ControlVolumeMesh.cells`): cell i belongs to point i, the
validators and writers read its arrays, and nothing unpacks it into
per-cell objects. The domain every cell is cut from
(`ControlVolumeMesh.domain`) is a one-cell stack of the same kind, its
walls tagged -1. Every wall knows which neighbor it separates its owner
from, which makes the perpendicularity and shared-wall checks exact.

`validate_global` certifies that the cells tile the domain once, each
generator inside its own cell only, from five conditions that hold cell by
cell and wall by wall: convex, positively oriented cells (planar and closed
in 3D), shared walls matched once with opposite normals, domain walls on
the domain's faces, cell measures that sum to the domain's, and every
owner inside its cell. Each is a whole-mesh array pass, with the report of
checking one cell at a time; no point is sampled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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
    merge_rings,
    _angular_order,
    _dedup_loops,
    _face_normals,
    _group_starts,
    _lengths,
    _reverse_within,
    _rowdot,
    _successors,
)
from .delaunay import GHOST, NeighborMap, Triangulation2, Triangulation3
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
    cell at once, each taken about its cell's first vertex (so a cell far
    from the origin keeps its digits), each cell's terms summed in order
    from 0 (a Python sum) and divided by 6."""
    if isinstance(stack, RingStack):
        return _ring_areas(stack.verts, stack.starts)
    v, starts, succ = stack.verts, stack.starts, stack.succ
    rows = np.arange(len(v))
    mid = succ > rows        # neither the last row of its loop ...
    mid[starts] = False      # ... nor the first
    b = rows[mid]
    f = np.searchsorted(starts, b, side="right") - 1
    o = v[starts[np.searchsorted(stack.cells, stack.cells[f])]]
    terms = _rowdot(v[starts[f]] - o, np.cross(v[b] - o, v[b + 1] - o)).tolist()
    cuts = np.searchsorted(stack.cells[f], np.arange(n + 1)).tolist()
    return np.array([sum(terms[i:j]) / 6.0 for i, j in zip(cuts, cuts[1:])])


def _padded_box(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    pad = DOMAIN_PAD * float((hi - lo).max())
    return lo - pad, hi + pad


def bounding_domain2(pts: np.ndarray) -> RingStack:
    return box_polygon(*_padded_box(pts))


def bounding_domain3(pts: np.ndarray) -> PolyStack:
    return box_polyhedron(*_padded_box(pts))


def _ring_areas(verts: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Signed area of every ring of a `RingStack` (0.0 for rings under three
    rows): half the np.sum of its shoelace terms, taken about the ring's
    first row. The terms of the rings of one length go through one np.sum
    along rows, which sums each row as np.sum sums that ring alone (pairwise
    from eight on)."""
    lens = _lengths(starts, len(verts))
    nxt = _successors(starts[lens > 0], len(verts))
    rel = verts - verts[np.repeat(starts, lens)]
    t = rel[:, 0] * rel[nxt, 1] - rel[nxt, 0] * rel[:, 1]
    area = np.zeros(len(starts))
    for k in np.unique(lens[lens >= 3]).tolist():
        rings = np.flatnonzero(lens == k)
        area[rings] = 0.5 * np.sum(t[starts[rings, None] + np.arange(k)], axis=1)
    return area


def _far_planes(pts: np.ndarray, nm: NeighborMap, q: np.ndarray, corners: np.ndarray,
                scale: float) -> tuple[np.ndarray, np.ndarray]:
    """The far line (2D) or plane (3D) m_i . x = L_i of every hull point i,
    as (m, L) (m zero and L -inf for interior points). m_i is the unit
    vector from the cloud's mean to p_i, so m_i . n > 0 for the outward
    normal n of every hull facet through p_i. L_i lies one domain scale
    beyond every domain corner and every radical center of i's simplices."""
    hull = nm.on_hull
    m = np.zeros_like(pts)
    mh = pts[hull] - pts.mean(axis=0)
    m[hull] = mh = mh / np.sqrt(_rowdot(mh, mh))[:, None]
    rows = hull[nm.owner] & (nm.simplex >= 0)
    far = np.full(len(pts), -np.inf)
    np.maximum.at(far, nm.owner[rows], _rowdot(m[nm.owner[rows]], q[nm.simplex[rows]]))
    corner = [_rowdot(mh, np.broadcast_to(c, mh.shape)) for c in corners]
    far[hull] = np.max([far[hull]] + corner, axis=0)
    return m, far + scale


def _far_points(q: np.ndarray, n: np.ndarray, m: np.ndarray, far: np.ndarray) -> np.ndarray:
    """Row by row, where the line q + s n through a radical center q along a
    hull facet's normal n meets the far line or plane m . x = far: the
    vertex a ghost simplex gives a cell. Either sign of n gives that point,
    on the power ray: the plane lies beyond q and m . n > 0 outward."""
    s = (far - _rowdot(m, q)) / _rowdot(m, n)
    return q + s[:, None] * n


def _rings(pts: np.ndarray, nm: NeighborMap, q: np.ndarray, m: np.ndarray,
           far: np.ndarray) -> RingStack:
    """One ring per point, in point order, of the candidate vertices of its
    rows' triangles in ring order, each row carrying its triangle's id (-1
    for a far point). An interior point's ring closes on itself,
    the edge after vertex k tagged with the next row's neighbor. A hull
    point's fan u_0 .. u_m with triangles t_0 .. t_(m-1) closes through its
    two ghost triangles: its ring is [F_0, q[t_0], ..., q[t_(m-1)], F_m],
    where F_0 and F_m are the `_far_points` of the power rays from q[t_0] and
    q[t_(m-1)] through the hull edges (i, u_0) and (i, u_m), its edges tagged
    u_0, ..., u_m and the closing edge GHOST. A ring is reversed where its
    signed area is negative (the tags rotate with it: edge m of the reversed
    ring is edge k - 2 - m of the original)."""
    hull = nm.on_hull
    lens = nm.lengths() + hull
    starts = np.cumsum(lens) - lens
    first = np.repeat(starts, lens)
    local = np.arange(len(first)) - first
    k = np.repeat(lens, lens)
    ghost = np.repeat(hull, lens)
    row = np.repeat(nm.starts, lens) + local - ghost    # the row of each vertex's triangle
    head = ghost & (local == 0)
    tail = ghost & (local == k - 1)
    real = ~(head | tail)
    verts = np.empty((len(first), 2))
    sids = np.where(real, nm.simplex[row], -1)
    verts[real] = q[sids[real]]
    a, b = row[head] + 1, row[tail]                      # each fan's first and last row
    i = nm.owner[a]
    for at, t, u in ((head, nm.simplex[a], nm.nbr[a]), (tail, nm.simplex[b - 1], nm.nbr[b])):
        e = pts[u] - pts[i]                              # along the hull edge (i, u)
        verts[at] = _far_points(q[t], np.column_stack((e[:, 1], -e[:, 0])), m[i], far[i])
    # the edge after a vertex faces the neighbor of the row after the vertex's
    # triangle; a hull ring's closing edge faces the ghost
    after = np.minimum(np.where(ghost, row + 1, nm.succ()[row]), len(nm.nbr) - 1)
    tags = np.where(tail, GHOST, nm.nbr[after])

    flip = np.repeat(_ring_areas(verts, starts) < 0.0, lens)
    rows = np.where(flip, first + k - 1 - local, first + local)
    tag_rows = np.where(flip, first + (k - 2 - local) % k, first + local)
    return RingStack(verts[rows], starts, tags[tag_rows], sids[rows])


BLOCK = 1 << 15   # padded entries per block of cells in the per-cell passes


def _blocks(a: np.ndarray, b: np.ndarray):
    """Blocks of cells for passes that pad every cell of a block to the
    block's largest a and b (two counts per cell): cells sorted by a * b,
    each block as long as cells * max a * max b stays within BLOCK (one
    cell at least). Yields (cells, max a, max b)."""
    order = np.argsort(-(a * b), kind="stable")
    a, b = a[order], b[order]
    lo = 0
    while lo < len(order):
        # no later cell has a larger a * b, so a block holds at most
        # BLOCK // (a * b) of its first cell, plus that cell
        end = min(len(order), lo + BLOCK // max(int(a[lo] * b[lo]), 1) + 1)
        ma = np.maximum.accumulate(a[lo:end])
        mb = np.maximum.accumulate(b[lo:end])
        k = max(int(np.searchsorted(np.arange(1, end - lo + 1) * ma * mb, BLOCK, side="right")), 1)
        yield order[lo:lo + k], max(int(ma[k - 1]), 1), max(int(mb[k - 1]), 1)
        lo += k


def _padded(starts: np.ndarray, counts: np.ndarray, cells: np.ndarray, width: int):
    """Row indices (len(cells), width) of each cell's run of counts[c] rows
    from starts[c], and the mask of real ones (padding points at row 0)."""
    real = np.arange(width) < counts[cells, None]
    return np.where(real, starts[cells, None] + np.arange(width), 0), real


def _layout(stack: RingStack | PolyStack, n: int):
    """Per cell of a stack of n cells: the first of its vertex rows and their
    count, then the first of its walls and their count, as four arrays. A
    ring's walls are its edges, one per row; a ring under three rows has
    neither rows nor walls here."""
    if isinstance(stack, RingStack):
        lens = stack.lengths()
        lens = np.where(lens >= 3, lens, 0)
        return stack.starts, lens, stack.starts, lens
    row_starts = np.searchsorted(stack.row_cells(), np.arange(n))
    face_starts = np.searchsorted(stack.cells, np.arange(n))
    return (row_starts, _lengths(row_starts, len(stack.verts)),
            face_starts, _lengths(face_starts, len(stack.starts)))


def _offset_blocks(points: np.ndarray, point_starts: np.ndarray, npoint: np.ndarray,
                   planes: FacePlanes, wall_starts: np.ndarray, nwall: np.ndarray):
    """The signed offset of each point of a cell from each of its walls'
    lines or planes, one stacked matmul per block of cells (`_blocks`). Cell
    c's points are rows point_starts[c] .. + npoint[c] of `points`, its
    walls entries wall_starts[c] .. + nwall[c] of `planes`. Yields, per
    block, the padded point rows and their mask of real ones, the padded
    walls and theirs, and the (cells, points, walls) offsets."""
    for cells, mp, mw in _blocks(npoint, nwall):
        rows, real_row = _padded(point_starts, npoint, cells, mp)
        walls, real_wall = _padded(wall_starts, nwall, cells, mw)
        out = np.matmul(points[rows], planes.u[walls].transpose(0, 2, 1)) - planes.c[walls][:, None, :]
        yield rows, real_row, walls, real_wall, out


def _convex_faults(stack: RingStack | PolyStack, planes: FacePlanes, scale: float, n: int):
    """The convexity test of every wall of a stack of n cells with its
    `face_planes`, for the build checks and `validate_global` alike. A wall
    fails when a vertex of its cell lies more than 1e-9 * scale outside its
    line or plane (walls without a normal pass); in 2D a ring's edge also
    fails when the corner at its end has a sine (edge cross product over
    both lengths) below -1e-9. Every vertex against every wall catches what
    the corner rule alone passes, a ring that winds twice. Returns the mask
    of failing walls, each wall's largest vertex offset (-inf for a ring
    under three rows) and, in 2D, each row's corner sine."""
    point_starts, npoint, wall_starts, nwall = _layout(stack, n)
    worst = np.full(len(planes.c), -np.inf)
    for _, real_row, walls, real_wall, out in _offset_blocks(stack.verts, point_starts, npoint,
                                                             planes, wall_starts, nwall):
        out[~real_row] = -np.inf
        worst[walls[real_wall]] = out.max(axis=1)[real_wall]
    bad = planes.keep & (worst > 1e-9 * scale)
    if not isinstance(stack, RingStack):
        return bad, worst, None
    v = stack.verts
    nxt = stack.succ()
    e = v[nxt] - v
    ln = np.maximum(np.hypot(e[:, 0], e[:, 1]), 1e-300)
    r = np.flatnonzero((stack.lengths() >= 3)[stack.row_rings()])
    s = nxt[r]
    sine = np.zeros(len(v))
    sine[r] = (e[r, 0] * e[s, 1] - e[r, 1] * e[s, 0]) / (ln[r] * ln[s])
    bad |= sine < -1e-9
    return bad, worst, sine


def _check_convex2(stack: RingStack, planes: FacePlanes, scale: float):
    """Raise NonConvexCell for the first ring (its index the owner) that
    fails `_convex_faults`: by its most reflex corner when a corner fails,
    else by its vertex farthest outside an edge line."""
    bad, worst, sine = _convex_faults(stack, planes, scale, len(stack.starts))
    rows = np.flatnonzero(bad)
    if len(rows):
        ring = stack.row_rings()
        c = int(ring[rows[0]])
        mine = ring == c
        if sine[mine].min() < -1e-9:
            raise NonConvexCell(c, f"reflex corner, sin={sine[mine].min():.3g}")
        raise NonConvexCell(c, f"vertex {worst[mine].max():.3g} outside edge line")


def _check_orphans(simplices: np.ndarray, q: np.ndarray, cells: np.ndarray, ids: np.ndarray,
                   planes: FacePlanes, eps_inside: float):
    """Raise OrphanVertex for the first simplex whose candidate vertex lies
    more than eps_inside inside every domain plane (the domain's
    `face_planes`) and that not every cell of its d + 1 corners covers. Cell cells[k] covers
    simplex ids[k]: the simplex of one of its vertex rows, or one that it
    absorbed when rows merged (-1, a clip point, covers nothing). No
    distance is measured; each (corner, simplex) pair is marked once."""
    real = ids >= 0
    row, k = np.nonzero(simplices[ids[real]] == cells[real, None])
    hit = np.zeros(simplices.shape, dtype=bool)
    hit[ids[real][row], k] = True
    inside = ~hit.all(axis=1)
    for u, c in zip(planes.u, planes.c):
        inside &= _rowdot(q, np.broadcast_to(u, q.shape)) - c < -eps_inside
    bad = np.flatnonzero(inside)
    if len(bad):
        raise OrphanVertex(int(bad[0]))


@dataclass
class FacePlanes:
    """The line or plane of every wall of a stack, computed once: whether
    the wall has a normal (`keep`), the outward unit normal u and offset c
    of the line or plane u . x = c through its first vertex (u zero without
    a normal), the largest distance of its vertices from that plane (0.0
    for an edge or without a normal) and its longest edge."""

    keep: np.ndarray      # (F,)
    u: np.ndarray         # (F, d)
    c: np.ndarray         # (F,)
    dev: np.ndarray       # (F,)
    edge: np.ndarray      # (F,)

    def nonplanar(self) -> np.ndarray:
        """Mask of the faces whose vertices leave their plane by more than
        EPS_FACE times their longest edge; faces with no normal or no edge
        length pass."""
        return self.keep & (self.edge != 0.0) & (self.dev > EPS_FACE * self.edge)


def face_planes(stack: RingStack | PolyStack) -> FacePlanes:
    """The `FacePlanes` of every wall of a stack, in one pass over its rows:
    one line per edge of a `RingStack`, n the edge vector e turned
    clockwise (outward for a CCW ring), or one plane per face of a
    `PolyStack`, n its Newell normal; u is n / |n|. Face normals and
    deviations take each vertex relative to its face's first vertex, so a
    small face far from the origin keeps its digits."""
    v = stack.verts
    if isinstance(stack, RingStack):
        e = v[stack.succ()] - v
        n, first = np.column_stack((e[:, 1], -e[:, 0])), v
    else:
        starts = stack.starts
        face = np.repeat(np.arange(len(starts)), stack.lengths())
        rel = v - v[starts][face]
        n, first = _face_normals(rel, starts, stack.succ), v[starts]
    nn = np.sqrt(_rowdot(n, n))
    keep = nn != 0.0
    u = np.zeros_like(n)
    u[keep] = n[keep] / nn[keep, None]
    c = _rowdot(u, first)
    if isinstance(stack, RingStack):
        return FacePlanes(keep, u, c, np.zeros(len(v)), np.sqrt(_rowdot(e, e)))
    if not len(starts):
        return FacePlanes(keep, u, c, np.zeros(0), np.zeros(0))
    dev = np.maximum.reduceat(np.abs(_rowdot(rel, u[face])), starts)
    e = v[stack.succ] - v
    edge = np.maximum.reduceat(np.sqrt(_rowdot(e, e)), starts)
    return FacePlanes(keep, u, c, dev, edge)


def _check_cells3(stack: PolyStack, planes: FacePlanes, scale: float):
    """The face-planarity and convexity checks of every cell of a stack,
    decided in one pass from its face planes. Raise for the first failing
    cell in cell order: NonPlanarFace for its first nonplanar face, else
    NonConvexCell for its first face that fails `_convex_faults`."""
    ncell = int(stack.cells.max(initial=-1)) + 1
    outside, worst, _ = _convex_faults(stack, planes, scale, ncell)
    nonplanar = planes.nonplanar()
    bad = np.flatnonzero(nonplanar | outside)
    if not len(bad):
        return
    i = int(stack.cells[bad[0]])
    mine = stack.cells == i
    f = np.flatnonzero(nonplanar & mine)
    if len(f):
        t = int(stack.tags[f[0]])
        raise NonPlanarFace(i, None if t < 0 else t, float(planes.dev[f[0]]))
    f = int(np.flatnonzero(outside & mine)[0])
    raise NonConvexCell(i, f"vertex {worst[f]:.3g} outside face plane")


def _star_rows(tet: Triangulation3, nm: NeighborMap, pts: np.ndarray, q: np.ndarray,
               m: np.ndarray, far: np.ndarray):
    """Every point's star rows, then the rows its ghost tetrahedra add, as
    (owner, triples, points, ids) for `_cell_walls`. A star row holds its
    tetrahedron's other three corners, radical center and id. A ghost row
    belongs to a corner i of a hull facet f (adjacency -1): the facet's
    other two corners plus GHOST, and the point where the power ray from the
    radical center of f's tetrahedron through f meets i's far plane
    (`_far_points`), with id -1."""
    t, k = np.nonzero(tet.adjacency == -1)
    facet = tet.tetrahedra[t][np.arange(4) != k[:, None]].reshape(-1, 3)
    a = pts[facet[:, 0]]
    n = np.cross(pts[facet[:, 1]] - a, pts[facet[:, 2]] - a)
    owner = facet.ravel()
    triples = np.column_stack((facet[:, [1, 2, 0, 2, 0, 1]].reshape(-1, 2),
                               np.full(len(owner), GHOST)))
    f = np.repeat(np.arange(len(t)), 3)
    points = _far_points(q[t[f]], n[f], m[owner], far[owner])
    return (np.concatenate((nm.owner, owner)), np.concatenate((nm.nbr, triples)),
            np.concatenate((q[nm.simplex], points)),
            np.concatenate((nm.simplex, np.full(len(owner), -1, dtype=np.int64))))


def _cell_walls(owner: np.ndarray, triples: np.ndarray, points: np.ndarray, ids: np.ndarray,
                pts: np.ndarray, m: np.ndarray, eps: float):
    """Every cell's walls from star rows (row k: point owner[k], corners
    triples[k], vertex points[k], simplex ids[k]). The wall of i toward j
    collects the vertices of every row of i whose triple holds j, in row
    order, sorted by angle around their centroid in the plane normal to the
    axis p_j - p_i (the centroid lies inside the convex wall, so angular
    order is boundary order), with near duplicates removed (`_dedup_loops`)
    and oriented along the axis; walls under three vertices are left out. The GHOST wall of a
    hull point i, its far points, takes the axis m[i] and the tag -1. All
    walls of all cells in one pass. Returns the walls as a `PolyStack`, each
    row with its simplex id, and what the cells absorbed: the cell and
    simplex id of every row dropped, as a near duplicate or with a wall under
    three vertices (an edge or a vertex of the cell), from a cell that keeps
    a wall."""
    # one entry per (owner, neighbor, row), by owner, neighbor, row order
    own = np.repeat(owner, 3)
    other = triples.ravel()
    order = np.argsort(own * (len(pts) + 1) + other + 1, kind="stable")
    own, other, row = own[order], other[order], order // 3
    new = np.ones(len(own), dtype=bool)
    new[1:] = (own[1:] != own[:-1]) | (other[1:] != other[:-1])
    group = np.cumsum(new) - 1
    gi, gj = own[new], other[new]
    axis = np.where((gj == GHOST)[:, None], m[gi], pts[gj] - pts[gi])
    p = points[row]
    by_angle = row[_angular_order(p, group, axis)]
    loops, sids = points[by_angle], ids[by_angle]
    keep = _dedup_loops(loops, np.flatnonzero(new), eps)
    keep &= (np.bincount(group[keep], minlength=len(gi)) >= 3)[group]
    cell = gi[group]
    gone = ~keep & (np.bincount(cell[keep], minlength=len(pts)) > 0)[cell]
    absorbed = cell[gone], sids[gone]
    loops, sids, group = loops[keep], sids[keep], group[keep]
    starts = _group_starts(group)
    walls = group[starts]
    realized = _face_normals(loops, starts, _successors(starts, len(loops)))
    flip = _rowdot(realized, axis[walls]) < 0.0
    rows = _reverse_within(starts, len(loops), flip)
    return PolyStack.from_loops(loops[rows], starts, gj[walls], gi[walls], sids[rows]), absorbed


def _clip_to_domain(stack: PolyStack, planes: FacePlanes, eps: float) -> PolyStack:
    """Clip the cells with a vertex more than eps beyond a domain plane (the
    domain's `face_planes`) to the domain: those cells are taken out once,
    clipped by each plane in turn in one `clip_stack` pass (the rows of the
    cells that do not cross that plane at -inf) and put back among the
    others, which keep their rows."""
    ncell = int(stack.cells.max(initial=-1)) + 1
    rows = stack.row_cells()
    beyond = np.zeros(len(rows), dtype=bool)
    for u, c in zip(planes.u, planes.c):
        beyond |= stack.verts @ u - c > eps
    cut = (np.bincount(rows[beyond], minlength=ncell) > 0)[stack.cells]
    part = stack.take(np.flatnonzero(cut))
    for u, c in zip(planes.u, planes.c):
        rows = part.row_cells()
        d = part.verts @ u - c
        crossing = np.bincount(rows[d > eps], minlength=ncell) > 0
        if crossing.any():
            d[~crossing[rows]] = -np.inf
            part = clip_stack(part, d, np.tile(u, (ncell, 1)), [None] * ncell, eps)
    return concat_stacks([stack.take(np.flatnonzero(~cut)), part])


def _build(tri, nm: NeighborMap, pts, radii, domain) -> ControlVolumeMesh:
    """The cells of `build_volumes2` and `build_volumes3`, then their checks
    over the whole stack: convexity (2D) or planarity and convexity (3D),
    then that every candidate vertex inside the domain is covered by the
    cells of all its simplex's corners (`_check_orphans`), from the simplex
    ids the rows carry from assembly on."""
    pts = tri.points if pts is None else pts
    r = np.asarray(radii, dtype=float)
    q = simplex_systems(tri).vertices(r)
    if domain is None:
        domain = bounding_domain2(pts) if tri.dim == 2 else bounding_domain3(pts)
    dv = domain.verts
    scale = float(np.linalg.norm(dv.max(axis=0) - dv.min(axis=0)))
    eps = 1e-10 * scale
    planes = face_planes(domain)
    m, far = _far_planes(pts, nm, q, dv, scale)
    if tri.dim == 2:
        # every ring that a domain line cuts, in one pass per line
        stack, (cells, ids) = merge_rings(_rings(pts, nm, q, m, far), eps)
        for u, c in zip(planes.u, planes.c):
            d = stack.verts @ u - c
            if np.any(d > eps):
                stack = clip_rings(stack, d, [None] * len(pts), eps)
        _check_convex2(stack, face_planes(stack), scale)
        rows = stack.row_rings()
    else:
        walls, (cells, ids) = _cell_walls(*_star_rows(tri, nm, pts, q, m, far), pts, m, eps)
        stack = _clip_to_domain(walls, planes, eps)
        _check_cells3(stack, face_planes(stack), scale)
        rows = stack.row_cells()
    _check_orphans(tri.simplices, q, np.concatenate((rows, cells)),
                   np.concatenate((stack.simplices, ids)), planes, 1e-9 * scale)
    return ControlVolumeMesh(dim=tri.dim, points=pts, radii=r, cells=stack,
                             domain=domain, simplices=tri.simplices, simplex_vertices=q)


def build_volumes2(tri: Triangulation2, nm: NeighborMap, pts=None, radii=None,
                   domain: RingStack | None = None) -> ControlVolumeMesh:
    """One convex cell per point: the radical centers of its triangles in
    ring order (`_rings`), near-coincident ones merged (`merge_rings`),
    clipped to the domain; all cells in one `RingStack`, the mesh's cells."""
    return _build(tri, nm, pts, radii, domain)


def build_volumes3(tet: Triangulation3, nm: NeighborMap, pts=None, radii=None,
                   domain: PolyStack | None = None) -> ControlVolumeMesh:
    """3D analog of build_volumes2: the face toward neighbor j collects the
    radical centers of the tetrahedra on edge (i, j) (`_cell_walls`); all
    cells in one `PolyStack`, the mesh's cells."""
    return _build(tet, nm, pts, radii, domain)


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


MEASURE_RTOL = 1e-9   # condition (iv): the cell measures' sum against the domain measure


@dataclass
class GlobalReport:
    """The certificate of `validate_global`: what fails each condition, and
    the total cell and domain measures of condition (iv)."""

    shared_wall_mismatches: list   # (i, j, kind), i <= j
    overlaps: list                 # (cell, condition)
    owners_outside: list           # cell
    foreign_points: list           # (cell, generator)
    total_measure: float
    domain_measure: float

    @property
    def ok(self) -> bool:
        gap = abs(self.total_measure - self.domain_measure)
        return not (
            self.shared_wall_mismatches or self.overlaps
            or self.owners_outside or self.foreign_points
        ) and gap <= MEASURE_RTOL * abs(self.domain_measure)


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
    # vertex ids in the lexicographic order of (cell, snapped x, y, z)
    keys = np.column_stack((rcell, snapped))
    by_key = np.lexsort(keys.T[::-1])
    srt = keys[by_key]
    new = np.ones(len(keys), dtype=bool)
    np.any(srt[1:] != srt[:-1], axis=1, out=new[1:])
    a = np.empty(len(keys), dtype=np.int64)
    a[by_key] = np.cumsum(new) - 1
    b = a[faces.succ]
    nv = int(a.max(initial=0)) + 1
    fwd = a * nv + b
    by_edge = np.argsort(fwd)
    srt = fwd[by_edge]
    twice = by_edge[np.flatnonzero(srt[1:] == srt[:-1])[:, None] + [0, 1]]
    once = np.ones(len(fwd), dtype=bool)
    once[twice.ravel()] = False
    rev = b * nv + a
    has_rev = srt[np.minimum(srt.searchsorted(rev), len(srt) - 1)] == rev
    ok = once & finite & (a != b) & has_rev
    return np.bincount(rcell[~ok], minlength=n) == 0


def _off_domain(mesh: ControlVolumeMesh, tol: float) -> np.ndarray:
    """Condition (iii), per wall of the cells (2D: per row, its edge): the
    mask of the domain walls (tag -1, of a cell that is not empty) that lie
    within tol of no domain face. A wall lies within tol of face f when every
    vertex of it is within tol of f's line or plane and at most tol outside
    every domain line or plane (the domain's `face_planes`)."""
    stack = mesh.cells
    if isinstance(stack, RingStack):
        walls = np.flatnonzero((stack.tags < 0) & ~mesh.empty_cells()[stack.row_rings()])
        verts = stack.verts[np.column_stack((walls, stack.succ()[walls])).ravel()]
        starts = 2 * np.arange(len(walls))
    else:
        walls = np.flatnonzero(stack.tags < 0)
        part = stack.take(walls)
        verts, starts = part.verts, part.starts
    off = np.zeros(len(stack.tags), dtype=bool)
    if not len(walls):
        return off
    dp = face_planes(mesh.domain)
    d = verts @ dp.u.T - dp.c
    inside = np.logical_and.reduceat(d.max(axis=1) <= tol, starts)
    on = np.logical_and.reduceat(np.abs(d) <= tol, starts, axis=0).any(axis=1)
    off[walls] = ~(inside & on)
    return off


def _contained(mesh: ControlVolumeMesh, planes: FacePlanes, tol: float) -> tuple[list, list]:
    """Condition (v) and the local foreign-point test, in one padded pass
    over (cell, point) pairs: every cell that is not empty against its own
    generator and the generators of its wall neighbours, from either side of
    the wall. A point is inside a cell when it lies more than tol inside
    every edge line (2D; an edge of no length holds nothing inside it) or
    every face plane with a normal (3D) of it, from the cells'
    `face_planes`. Returns the owners outside their cells (empty
    cells included) and the (cell, generator) pairs of neighbours inside,
    both in cell then generator order."""
    stack = mesh.cells
    n = len(mesh.points)
    empty = mesh.empty_cells()
    i = stack.row_rings() if isinstance(stack, RingStack) else stack.cells
    j = stack.tags
    wall = (j >= 0) & (j < n) & (j != i) & ~empty[i]
    own = np.arange(n)
    cell = np.concatenate((i[wall], j[wall], own))
    point = np.concatenate((j[wall], i[wall], own))
    key = np.sort((cell * n + point)[~empty[cell]])
    key = key[np.append(True, key[1:] != key[:-1])]
    cell, point = np.divmod(key, n)
    pair_starts = np.searchsorted(cell, own)
    _, _, wall_starts, nwall = _layout(stack, n)
    usable = np.ones(len(j), dtype=bool) if isinstance(stack, RingStack) else planes.keep
    inside = np.zeros(len(key), dtype=bool)
    for rows, real_row, walls, real_wall, out in _offset_blocks(
            mesh.points[point], pair_starts, _lengths(pair_starts, len(key)),
            planes, wall_starts, nwall):
        live = (real_wall & usable[walls])[:, None, :]
        inside[rows[real_row]] = (np.where(live, out, -np.inf).max(axis=2) <= -tol)[real_row]
    home = np.zeros(n, dtype=bool)
    home[cell[inside & (cell == point)]] = True
    foreign = inside & (cell != point)
    return (np.flatnonzero(empty | ~home).tolist(),
            list(zip(cell[foreign].tolist(), point[foreign].tolist())))


WALL_KINDS = ("missing side", "repeated wall", "wall geometry differs", "normals agree")


def _wall_mismatches(mesh: ControlVolumeMesh, planes: FacePlanes, tol: float) -> list:
    """Condition (ii), the shared-wall check: walls keyed (min, max) of owner
    and neighbor, in order of first appearance. A key is "missing side"
    without a wall on both sides, "repeated wall" when a side has two, "wall
    geometry differs" when the two sides' vertices do not pair up within tol
    (`_vertex_sets_match_many`, for all walls of one size at once), and
    "normals agree" when the two sides' unit normals (the cells'
    `face_planes`) point the same way, so that the cells lie on one side of
    the wall, folded over each other."""
    if mesh.dim == 2:
        # each wall a loop of its edge's two endpoints
        rings = mesh.cells
        rows = np.flatnonzero(_wall_rows(mesh))
        o, j = rings.row_rings()[rows], rings.tags[rows]
        verts = np.stack((rings.verts[rows], rings.verts[rings.succ()[rows]]), axis=1)
        verts = verts.reshape(-1, 2)
        starts, lens = 2 * np.arange(len(rows)), np.full(len(rows), 2)
    else:
        rows = np.flatnonzero(mesh.cells.tags >= 0)
        walls = mesh.cells.take(rows)
        o, j = walls.cells, walls.tags
        verts, starts, lens = walls.verts, walls.starts, walls.lengths()
    if not len(o):
        return []
    u = planes.u[rows]
    lo, hi = np.minimum(o, j), np.maximum(o, j)
    base = int(hi.max()) + 1
    _, first, key = np.unique(lo * base + hi, return_index=True, return_inverse=True)
    key = key.ravel()
    side = (o == hi) & (lo != hi)
    code = 2 * key + side
    count = np.bincount(code, minlength=2 * len(first))
    last = np.full(2 * len(first), -1)
    last[code] = np.arange(len(code))
    a, b = last[0::2], last[1::2]
    both = (a >= 0) & (b >= 0)
    repeated = both & ((count[0::2] > 1) | (count[1::2] > 1))
    pairs = np.flatnonzero(both & ~repeated)
    differs = np.zeros(len(first), dtype=bool)
    differs[pairs] = lens[a[pairs]] != lens[b[pairs]]
    same = pairs[~differs[pairs]]
    for k in np.unique(lens[a[same]]).tolist():
        grp = same[lens[a[same]] == k]
        loops = verts[starts[np.stack((a[grp], b[grp]))][..., None] + np.arange(k)]
        differs[grp] = ~_vertex_sets_match_many(loops[0], loops[1], tol)
    agree = np.zeros(len(first), dtype=bool)
    agree[pairs] = _rowdot(u[a[pairs]], u[b[pairs]]) > 0.0
    kind = np.select([~both, repeated, differs, agree], [0, 1, 2, 3], -1)
    bad = np.flatnonzero(kind >= 0)
    bad = bad[np.argsort(first[bad])]
    return [(int(lo[first[w]]), int(hi[first[w]]), WALL_KINDS[kind[w]]) for w in bad.tolist()]


def validate_global(mesh: ControlVolumeMesh) -> GlobalReport:
    """Certify that the cells tile the domain once, with each generator in
    its own cell, from five conditions checked as array passes over the
    cells' one `face_planes` table:

    (i) every cell is convex and positively oriented (`_convex_faults`, the
        build checks' test), and in 3D every face is planar and every cell
        closed (`_closed_cells`);
    (ii) every interior wall is matched by exactly one wall of its neighbour,
        with the same vertices and the opposite unit normal
        (`_wall_mismatches`);
    (iii) every domain wall lies within tol of one domain face
        (`_off_domain`);
    (iv) the cell measures sum to the domain measure, to MEASURE_RTOL
        relative (`GlobalReport.ok`);
    (v) every owner lies more than tol inside its own cell (`_contained`).

    By (ii) and (iii) the cells' boundaries add up to k times the domain's
    boundary; every point of the domain is then covered k times, and (i)
    with (iv) give k = 1. So the cells tile the domain without overlap, and
    by (v) no generator lies inside another cell. tol is 1e-9 times the
    domain scale. Failures of (i) and (iii) are listed under `overlaps` as
    (cell, condition) in cell order, the conditions "nonplanar", "not
    convex", "open" and "off domain" in that order; `foreign_points` lists
    the wall neighbours whose generator lies inside a cell. Empty cells are
    listed only under `owners_outside`.
    """
    scale = mesh.scale()
    tol = 1e-9 * scale
    n = len(mesh.points)
    stack = mesh.cells
    planes = face_planes(stack)
    flat = isinstance(stack, RingStack)
    owner = stack.row_rings() if flat else stack.cells

    def per_cell(wall_mask):
        return np.bincount(owner[wall_mask], minlength=n) > 0

    # a 2D edge is never nonplanar, and rings close by construction
    faults = {
        "nonplanar": per_cell(planes.nonplanar()),
        "not convex": per_cell(_convex_faults(stack, planes, scale, n)[0]),
        "open": np.zeros(n, dtype=bool) if flat else ~_closed_cells(stack, n, tol),
        "off domain": per_cell(_off_domain(mesh, tol)),
    }
    names = list(faults)
    cells, k = np.nonzero(np.column_stack(list(faults.values())) & ~mesh.empty_cells()[:, None])
    owners_outside, foreign = _contained(mesh, planes, tol)
    return GlobalReport(
        shared_wall_mismatches=_wall_mismatches(mesh, planes, tol),
        overlaps=[(c, names[m]) for c, m in zip(cells.tolist(), k.tolist())],
        owners_outside=owners_outside,
        foreign_points=foreign,
        total_measure=mesh.total_measure(),
        domain_measure=mesh.domain_measure(),
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
