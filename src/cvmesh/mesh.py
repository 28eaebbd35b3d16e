"""Control-volume assembly from per-simplex candidate vertices, one rule
for every cell, and the global/local mesh validations.

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
bit. The domain clip and the orphan check read the domain's table; in 3D
the planarity and convexity checks decide every cell from the cells' table
in one pass, and `validate_global` tests points against the cells' lines
or planes. That stack is the
mesh's one cell representation (`ControlVolumeMesh.cells`): cell i belongs
to point i, the validators and writers read its arrays, and nothing unpacks
it into per-cell objects. The domain every cell is cut from
(`ControlVolumeMesh.domain`) is a one-cell stack of the same kind, its
walls tagged -1. Every wall knows which neighbor it separates its owner
from, which makes the perpendicularity and shared-wall checks exact; those
and the global checks are whole-mesh array passes too, with the same report
as checking one cell at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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
    pad = DOMAIN_PAD * float((hi - lo).max())
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
    NonConvexCell for its first face with a vertex of the cell more than
    1e-9 * scale outside the face's plane. Each face's worst vertex offset
    comes from one stacked matmul per block of cells (`_blocks`: padded
    vertex rows times face normals)."""
    v = stack.verts
    ncell = int(stack.cells.max(initial=-1)) + 1
    row_starts = np.searchsorted(stack.row_cells(), np.arange(ncell))
    face_starts = np.searchsorted(stack.cells, np.arange(ncell))
    nrow = _lengths(row_starts, len(v))
    nface = _lengths(face_starts, len(stack.starts))
    worst = np.full(len(stack.starts), -np.inf)
    for cells, mr, mf in _blocks(nrow, nface):
        rows, real_row = _padded(row_starts, nrow, cells, mr)
        faces, real_face = _padded(face_starts, nface, cells, mf)
        out = np.matmul(v[rows], planes.u[faces].transpose(0, 2, 1)) - planes.c[faces][:, None, :]
        out[~real_row] = -np.inf
        worst[faces[real_face]] = out.max(axis=1)[real_face]
    nonplanar = planes.nonplanar()
    outside = planes.keep & (worst > 1e-9 * scale)
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
        _check_convex2(stack)
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


def _containment_boxes(stack, planes: FacePlanes, n: int, tol: float, pad: float):
    """Per cell of a stack of n cells with its `face_planes`,
    whether a box holding every point that `_inside_pairs` accepts in it at
    tolerance tol is known, and the box (lo, hi), as arrays over the cells.

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
    of their vertices; other 3D cells get none. Empty cells get none either.
    """
    has = np.zeros(n, dtype=bool)
    lo = np.zeros((n, stack.verts.shape[1]))
    hi = np.zeros_like(lo)
    if n == 0:
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
    flat = planes.keep & (planes.dev <= 0.5 * tol)
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
    # vertex ids in the lexicographic order of (cell, snapped x, y, z)
    keys = np.column_stack((rcell, snapped))
    by_key = np.lexsort(keys.T[::-1])
    new = np.ones(len(keys), dtype=bool)
    np.any(keys[by_key[1:]] != keys[by_key[:-1]], axis=1, out=new[1:])
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


PAIR_CHUNK = 1 << 12   # candidate (box, target) pairs per chunk


def _box_pairs(lo: np.ndarray, hi: np.ndarray, cols: np.ndarray):
    """Yield (box, target) index arrays of every target inside a box (lo <= x
    <= hi on every axis), grouped by box in box order, in chunks of boxes with
    about PAIR_CHUNK candidates each; the targets come as their (d, N)
    coordinate columns. Candidates come from a grid of buckets
    over the targets, a quarter as wide as the median box: bucket indices
    grow with each coordinate, so a box's bucket range holds all its
    targets. The order of a box's targets within a bucket is free: callers
    sort the pairs they keep."""
    dim = lo.shape[1]
    live = np.flatnonzero(~np.any(np.isnan(lo) | np.isnan(hi), axis=1))
    if not len(live) or not cols.shape[1]:
        return
    locols, hicols = np.ascontiguousarray(lo.T), np.ascontiguousarray(hi.T)
    tlo = np.array([x.min() for x in cols])
    thi = np.array([x.max() for x in cols])
    extent = thi - tlo
    width = np.median(np.minimum(hi[live], thi) - np.maximum(lo[live], tlo), axis=0)
    cap = int(np.ceil((4 * cols.shape[1]) ** (1.0 / dim)))
    m = np.ones(dim, dtype=np.int64)
    ok = (extent > 0) & (width > 0)
    m[ok] = np.clip(np.round(4 * extent[ok] / width[ok]), 1, cap).astype(np.int64)
    h = np.where(extent > 0, extent / m, 1.0)

    def bucket(x):
        return np.clip(np.floor((x - tlo) / h), 0, m - 1).astype(np.int64)

    stride = np.append(np.cumprod(m[::-1])[::-1][1:], 1)
    tkey = bucket(cols.T) @ stride
    by_key = np.argsort(tkey)
    first = np.zeros(int(np.prod(m)) + 1, dtype=np.int64)
    np.cumsum(np.bincount(tkey, minlength=len(first) - 1), out=first[1:])
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
        for x, a, b in zip(cols, locols, hicols):
            x = x[pt]
            inside &= (x >= a[pb]) & (x <= b[pb])
        yield pb[inside], pt[inside]
        b0 = b1


def _inside_pairs(mesh: ControlVolumeMesh, planes: FacePlanes, targets: np.ndarray,
                  tol: float, pad: float):
    """(cell, target) of every target that lies inside its cell by more than
    tol, sorted by cell then target, against the cells' `face_planes`: in 2D
    a target is inside when it lies more than tol inside every edge line; in
    3D when it lies more than tol inside the plane of every face with a
    normal. A cell with a containment box (`_containment_boxes`) pairs with
    the targets in it, every other non-empty cell with every target; in 2D
    the pairs go through one array test per chunk, in 3D each cell's
    targets through one product with all of the cell's planes."""
    stack = mesh.cells
    n = len(mesh.points)
    margin = -tol
    empty = mesh.empty_cells()
    has, lo, hi = _containment_boxes(stack, planes, n, tol, pad)
    has &= ~empty
    pos, tgt = [], []
    flat = isinstance(stack, RingStack)
    if flat:
        # per cell (row) its edge lines, padded to one width; padding
        # entries (u zero, c infinite) pass every test
        ring = stack.row_rings()
        lens = stack.lengths()
        at = (ring, np.arange(len(ring)) - stack.starts[ring])
        width = (n, max(int(lens.max(initial=0)), 1))
        ux, uy, c = np.zeros(width), np.zeros(width), np.full(width, np.inf)
        ux[at], uy[at], c[at] = planes.u[:, 0], planes.u[:, 1], planes.c
    else:
        u, c = planes.u[planes.keep], planes.c[planes.keep]
        fstart = np.searchsorted(stack.cells[planes.keep], np.arange(n + 1))

    def unboxed():
        rest = np.flatnonzero(~has & ~empty)
        step = max(PAIR_CHUNK // len(targets), 1)
        for a in range(0, len(rest), step):
            cells = rest[a:a + step]
            yield np.repeat(cells, len(targets)), np.tile(np.arange(len(targets)), len(cells))

    boxed = np.flatnonzero(has)
    # the targets (and boxes) column by column: on (N, d) rows, axis-0
    # reductions and gathers of one column are several times slower
    cols = np.ascontiguousarray(targets.T)
    for pc, pt in chain(((boxed[pb], pt) for pb, pt in _box_pairs(lo[boxed], hi[boxed], cols)),
                        unboxed()):
        if flat:
            # the signed distances, one row of edge lines per pair, cut to
            # the widest cell of the chunk
            w = int(lens[pc].max(initial=1))
            px, py = cols.take(pt, axis=1)[:, :, None]
            ok = np.all(ux[pc, :w] * px + uy[pc, :w] * py - c[pc, :w] <= margin, axis=1)
        else:
            # each cell's targets against all of its planes in one product
            cut = np.flatnonzero(np.diff(pc, prepend=-1))
            ok = np.ones(len(pc), dtype=bool)
            tp = targets[pt]
            for a, b in zip(cut.tolist(), np.append(cut[1:], len(pc)).tolist()):
                f0, f1 = fstart[pc[a]], fstart[pc[a] + 1]
                ok[a:b] = np.all(tp[a:b] @ u[f0:f1].T - c[f0:f1] <= margin, axis=1)
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


def validate_global(mesh: ControlVolumeMesh, probes: int = 10_000, seed: int = 0) -> GlobalReport:
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
    tol = 1e-9 * scale
    pts = mesh.points
    n = len(pts)
    mismatches = _wall_mismatches(mesh, tol)

    rng = np.random.default_rng(seed)
    dverts = mesh.domain.verts
    lo = dverts.min(axis=0)
    hi = dverts.max(axis=0)
    samples = lo + (hi - lo) * rng.random((probes, mesh.dim))
    targets = np.vstack([samples, pts])
    planes = face_planes(mesh.cells)
    pos, tgt = _inside_pairs(mesh, planes, targets, tol, 1e-9 * scale)

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
