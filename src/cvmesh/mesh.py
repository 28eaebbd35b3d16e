"""Control-volume assembly from per-simplex candidate vertices, boundary-cell
closure by domain clipping, and the global/local mesh validations.

Interior cells take their vertices directly from the incident simplices in
ring/star order; hull-point cells are cut out of the domain by the power
bisectors toward their neighbors. In 3D each of the two runs as array code
over all cells at once, on polyhedra stacked by `clipping.PolyStack`. Every
wall knows which neighbor it separates its owner from, which makes the
perpendicularity and shared-wall checks exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .clipping import (
    PolyStack,
    TaggedPolygon,
    TaggedPolyhedron,
    box_polygon,
    box_polyhedron,
    clip_polygon,
    clip_polyhedron,
    clip_stack,
    concat_stacks,
    polygon_halfplanes,
    polyhedron_halfspaces,
    _angular_order,
    _dedup_loops,
    _face_normals,
    _group_starts,
    _loops_volume,
    _reverse_within,
    _rowdot,
    _stack_loops,
    _successors,
)
from .delaunay import NeighborMap, Triangulation2, Triangulation3
from .errors import NonConvexCell, NonPlanarFace, OrphanVertex
from .solver import RadiusVector, simplex_systems

EPS_FACE = 1e-6       # face planarity, relative to the face edge scale
DOMAIN_PAD = 0.05     # domain box padding, relative to the points' largest extent


@dataclass
class CellFace:
    """One wall of a 3D cell: outward-oriented loop, separating neighbor (None
    for domain boundary), and the owning simplex id per vertex where known."""

    verts: np.ndarray
    neighbor: int | None
    vertex_simplices: list = field(default_factory=list)


@dataclass
class ControlVolume:
    owner: int
    closed: bool = True
    verts: np.ndarray | None = None          # 2D: (K, 2) CCW polygon
    edge_neighbors: list | None = None       # 2D: neighbor id per edge (None = domain)
    vertex_simplices: list | None = None     # 2D: simplex id per vertex (None = clip point)
    faces: list[CellFace] | None = None      # 3D

    @property
    def dim(self) -> int:
        return 2 if self.verts is not None else 3

    @property
    def empty(self) -> bool:
        if self.verts is not None:
            return len(self.verts) < 3
        return not self.faces

    def all_vertices(self) -> np.ndarray:
        if self.verts is not None:
            return self.verts
        if not self.faces:
            return np.empty((0, 3))
        return np.vstack([f.verts for f in self.faces])

    def measure(self) -> float:
        """Polygon area (2D) or polyhedron volume (3D)."""
        if self.verts is not None:
            v = self.verts
            if len(v) < 3:
                return 0.0
            return 0.5 * float(
                np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1])
            )
        return _loops_volume([f.verts for f in self.faces or []])

    def _planes(self) -> tuple[np.ndarray, np.ndarray]:
        """(u, c) of the non-degenerate faces (`_face_planes`), computed from
        the current face loops on every call."""
        stack = _stack_loops([f.verts for f in self.faces])
        _, u, c = _face_planes(stack, _face_normals(*stack))
        return u, c

    def contains(self, p, margin: float = 0.0) -> bool:
        """Point-in-cell test; negative margin demands strict interiority."""
        p = np.asarray(p, dtype=float)
        if self.verts is not None:
            v = self.verts
            if len(v) < 3:
                return False
            w = np.roll(v, -1, axis=0)
            e = w - v
            ln = np.maximum(np.hypot(e[:, 0], e[:, 1]), 1e-300)
            cross = (e[:, 0] * (p[1] - v[:, 1]) - e[:, 1] * (p[0] - v[:, 0])) / ln
            return bool(np.all(cross >= -margin))
        if not self.faces:
            return False
        u, c = self._planes()
        return not np.any(u @ p - c > margin)

    def contains_many(self, pts: np.ndarray, margin: float = 0.0) -> np.ndarray:
        """Vectorized contains() over an (M, dim) probe array."""
        if self.verts is not None:
            v = self.verts
            if len(v) < 3:
                return np.zeros(len(pts), dtype=bool)
            w = np.roll(v, -1, axis=0)
            e = w - v
            ln = np.maximum(np.hypot(e[:, 0], e[:, 1]), 1e-300)
            cross = (
                e[None, :, 0] * (pts[:, None, 1] - v[None, :, 1])
                - e[None, :, 1] * (pts[:, None, 0] - v[None, :, 0])
            ) / ln[None, :]
            return np.all(cross >= -margin, axis=1)
        if not self.faces:
            return np.zeros(len(pts), dtype=bool)
        ok = np.ones(len(pts), dtype=bool)
        for n, c in zip(*self._planes()):
            ok &= pts @ n - c <= margin
        return ok


@dataclass
class ControlVolumeMesh:
    dim: int
    points: np.ndarray
    radii: np.ndarray | None
    volumes: list[ControlVolume]
    domain: TaggedPolygon | TaggedPolyhedron
    simplices: np.ndarray | None = None
    simplex_vertices: np.ndarray | None = None   # (T, dim) candidate-vertex coords
    mode: str | None = None
    diagnostics: dict | None = None

    def cell(self, i: int) -> ControlVolume:
        return self.volumes[i]

    def total_measure(self) -> float:
        return float(sum(v.measure() for v in self.volumes))

    def domain_measure(self) -> float:
        return self.domain.area() if self.dim == 2 else self.domain.volume()

    def scale(self) -> float:
        verts = self.domain.verts if self.dim == 2 else self.domain.vertices()
        return float(np.linalg.norm(verts.max(axis=0) - verts.min(axis=0)))

    def shared_walls(self) -> dict[tuple[int, int], dict[int, np.ndarray]]:
        """Map (i, j), i < j, to each side's wall geometry (edge endpoints or
        face loop), taken from the wall tags."""
        walls: dict[tuple[int, int], dict[int, np.ndarray]] = {}
        for cell in self.volumes:
            i = cell.owner
            if self.dim == 2:
                if cell.verts is None or cell.empty:
                    continue
                v = cell.verts
                for k, j in enumerate(cell.edge_neighbors):
                    if j is None:
                        continue
                    key = (i, j) if i < j else (j, i)
                    seg = np.vstack([v[k], v[(k + 1) % len(v)]])
                    walls.setdefault(key, {})[i] = seg
            else:
                for f in cell.faces or []:
                    if f.neighbor is None:
                        continue
                    j = f.neighbor
                    key = (i, j) if i < j else (j, i)
                    walls.setdefault(key, {})[i] = f.verts
        return walls


def _padded_box(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    pad = DOMAIN_PAD * max(float((hi - lo).max()), 1e-12)
    return lo - pad, hi + pad


def bounding_domain2(pts: np.ndarray) -> TaggedPolygon:
    return box_polygon(*_padded_box(pts))


def bounding_domain3(pts: np.ndarray) -> TaggedPolyhedron:
    return box_polyhedron(*_padded_box(pts))


def _power_bisector(pi, pj, ri, rj):
    """Half-space toward i: n . x <= c keeps power_i(x) <= power_j(x)."""
    n = 2.0 * (pj - pi)
    c = float(pj @ pj - pi @ pi) + ri * ri - rj * rj
    return n, c


def _reverse_polygon(poly: TaggedPolygon) -> TaggedPolygon:
    k = len(poly.verts)
    verts = poly.verts[::-1].copy()
    tags = [poly.tags[(k - 2 - m) % k] for m in range(k)]
    return TaggedPolygon(verts=verts, tags=tags)


def _check_convex2(owner: int, verts: np.ndarray, scale: float):
    k = len(verts)
    if k < 3:
        return
    w = np.roll(verts, -1, axis=0)
    e = w - verts
    ln = np.maximum(np.hypot(e[:, 0], e[:, 1]), 1e-300)
    cross = (e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1)) / (ln * np.roll(ln, -1))
    if np.any(cross < -1e-9):
        raise NonConvexCell(owner, f"reflex corner, sin={cross.min():.3g}")


def _match_simplex_ids(verts: np.ndarray, q: np.ndarray, candidates, eps: float) -> list:
    """Per vertex, the first candidate simplex, in the given order, whose
    candidate vertex q[t] lies within eps of it; None where none does."""
    cand = np.asarray(candidates, dtype=np.intp)
    if len(cand) == 0:
        return [None] * len(verts)
    near = np.linalg.norm(q[cand][None, :, :] - verts[:, None, :], axis=2) <= eps
    first = np.where(near.any(axis=1), cand[near.argmax(axis=1)], -1)
    return [None if t < 0 else t for t in first.tolist()]


def build_volumes2(tri: Triangulation2, nm: NeighborMap, pts=None, radii=None,
                   domain: TaggedPolygon | None = None) -> ControlVolumeMesh:
    """Assemble one convex cell per point from the triangle radical centers.

    Interior cells list the candidate vertex of each incident triangle in ring
    order; hull cells are the domain polygon cut by the power bisectors toward
    the ring neighbors. Every cell is clipped to the domain.
    """
    pts = tri.points if pts is None else pts
    r = radii.r if isinstance(radii, RadiusVector) else np.asarray(radii, dtype=float)
    systems = simplex_systems(tri)
    q = systems.vertices(r)
    domain = domain if domain is not None else bounding_domain2(pts)
    dverts = domain.verts
    scale = float(np.linalg.norm(dverts.max(axis=0) - dverts.min(axis=0)))
    eps = 1e-10 * scale
    match_eps = 1e-9 * scale
    domain_planes = polygon_halfplanes(dverts)

    volumes: list[ControlVolume] = []
    matched: set[int] = set()
    for i in range(len(pts)):
        ring = nm.rings[i]
        tids = nm.ring_simplices[i]
        if nm.closed[i]:
            verts = q[tids]
            m = len(ring)
            tags = [int(ring[(k + 1) % m]) for k in range(len(tids))]
            poly = TaggedPolygon(verts=verts.copy(), tags=tags)
            if poly.area() < 0.0:
                poly = _reverse_polygon(poly)
            # only clip cells that actually poke out of the domain
            for n, c in domain_planes:
                if poly is not None and np.any(poly.verts @ n - c > eps):
                    poly = clip_polygon(poly, n, c, None, eps)
        else:
            poly = TaggedPolygon(verts=dverts.copy(), tags=list(domain.tags))
            for u in ring:
                if poly is None:
                    break
                n, c = _power_bisector(pts[i], pts[int(u)], r[i], r[int(u)])
                poly = clip_polygon(poly, n, c, int(u), eps)

        if poly is None:
            volumes.append(ControlVolume(owner=i, closed=False,
                                         verts=np.empty((0, 2)), edge_neighbors=[],
                                         vertex_simplices=[]))
            continue
        _check_convex2(i, poly.verts, scale)
        ids = _match_simplex_ids(poly.verts, q, tids, match_eps)
        matched.update(t for t in ids if t is not None)
        volumes.append(ControlVolume(owner=i, closed=True, verts=poly.verts,
                                     edge_neighbors=list(poly.tags),
                                     vertex_simplices=ids))

    _check_orphans(q, matched, domain_planes, eps_inside=match_eps)
    return ControlVolumeMesh(
        dim=2, points=pts, radii=r, volumes=volumes, domain=domain,
        simplices=tri.triangles, simplex_vertices=q,
    )


def _check_orphans(q: np.ndarray, matched: set[int], planes, eps_inside: float):
    for t in range(len(q)):
        if t in matched:
            continue
        inside = all(float(q[t] @ n - c) < -eps_inside * np.linalg.norm(n) for n, c in planes)
        if inside:
            raise OrphanVertex(t)


def _face_planes(stack, normals) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Planes of the loops of a `_stack_loops` stack with Newell normals
    `normals`: the mask of loops with a nonzero normal, and for those the unit
    normal u (F', 3) and offset c (F',), u . x = c through the first vertex."""
    v, starts, _ = stack
    nn = np.sqrt(_rowdot(normals, normals))
    keep = nn != 0.0
    u = normals[keep] / nn[keep, None]
    return keep, u, _rowdot(u, v[starts[keep]])


def _check_face_planarity(owner: int, neighbors: list, stack, normals):
    """Raise NonPlanarFace for the first face whose vertices leave the plane
    through its first vertex by more than EPS_FACE times its longest edge;
    faces with no normal or no edge length pass."""
    v, starts, succ = stack
    keep, u, _ = _face_planes(stack, normals)
    face = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(v)))
    unit = np.zeros_like(normals)
    unit[keep] = u
    dev = np.maximum.reduceat(np.abs(_rowdot(v - v[starts][face], unit[face])), starts)
    e = v[succ] - v
    edge = np.maximum.reduceat(np.sqrt(_rowdot(e, e)), starts)
    bad = np.nonzero(keep & (edge != 0.0) & (dev > EPS_FACE * edge))[0]
    if len(bad):
        f = int(bad[0])
        raise NonPlanarFace(owner, neighbors[f], float(dev[f]))


def _check_convex3(owner: int, stack, normals, scale: float):
    """Raise NonConvexCell for the first face with a cell vertex more than
    1e-9 * scale outside its plane."""
    _, u, c = _face_planes(stack, normals)
    out = (stack[0] @ u.T - c).max(axis=0)
    bad = np.nonzero(out > 1e-9 * scale)[0]
    if len(bad):
        raise NonConvexCell(owner, f"vertex {out[bad[0]]:.3g} outside face plane")


def _hull_cells(cells: np.ndarray, pts, r, domain: TaggedPolyhedron, eps: float,
                neighbors: list) -> PolyStack:
    """Hull-point cells: each starts as the domain box and is clipped by the
    power bisector toward its k-th neighbor at step k, every cell that has a
    k-th neighbor in one `clip_stack` pass per step."""
    # most neighbors first, so the cells clipped at step k lead the stack
    order = np.argsort([-len(nb) for nb in neighbors], kind="stable")
    cells = cells[order]
    counts = np.array([len(neighbors[c]) for c in order], dtype=np.intp)
    table = np.zeros((len(cells), counts.max(initial=0)), dtype=np.int64)
    for row, c in enumerate(order.tolist()):
        table[row, :counts[row]] = neighbors[c]
    stack = PolyStack.of([domain] * len(cells))
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
    star = np.concatenate([nm.stars[i] for i in cells])
    tets = np.concatenate([nm.star_simplices[i] for i in cells])
    sizes = [len(nm.stars[i]) for i in cells]
    # one row per (owner, neighbor, tetrahedron), by owner, neighbor, star order
    owner = np.repeat(np.repeat(cells, sizes), 3)
    other = star.ravel()
    row = np.repeat(np.arange(len(star)), 3)
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


def _clip_to_domain(stack: PolyStack, domain_planes, eps: float) -> PolyStack:
    """Clip the cells with a vertex beyond a domain plane (by more than eps
    relative to its normal) by each such plane in turn, one cell at a time."""
    beyond = np.zeros(len(stack.verts), dtype=bool)
    for n, c in domain_planes:
        beyond |= stack.verts @ n - c > eps * np.linalg.norm(n)
    crossing = np.unique(stack.row_cells()[beyond])
    if not len(crossing):
        return stack
    parts = [stack.take(np.flatnonzero(~np.isin(stack.cells, crossing)))]
    for i in crossing.tolist():
        poly = stack.polyhedron(i)
        allv = poly.vertices()
        for n, c in domain_planes:
            if np.any(allv @ n - c > eps * np.linalg.norm(n)):
                poly = clip_polyhedron(poly, n, c, None, eps)
                if poly is None:
                    break
                allv = poly.vertices()
        if poly is not None:
            part = PolyStack.of([poly])
            parts.append(replace(part, cells=np.full(len(part.starts), i)))
    return concat_stacks(parts)


def build_volumes3(tet: Triangulation3, nm: NeighborMap, pts=None, radii=None,
                   domain: TaggedPolyhedron | None = None) -> ControlVolumeMesh:
    """3D analog of build_volumes2: the face toward neighbor j collects the
    candidate vertices of every tetrahedron on edge (i, j), ordered around the
    edge; hull cells are cut from the domain by power bisectors."""
    pts = tet.points if pts is None else pts
    r = radii.r if isinstance(radii, RadiusVector) else np.asarray(radii, dtype=float)
    systems = simplex_systems(tet)
    q = systems.vertices(r)
    domain = domain if domain is not None else bounding_domain3(pts)
    dv = domain.vertices()
    scale = float(np.linalg.norm(dv.max(axis=0) - dv.min(axis=0)))
    eps = 1e-10 * scale
    match_eps = 1e-9 * scale
    domain_planes = polyhedron_halfspaces(domain)

    hull = np.flatnonzero(nm.on_hull)
    interior = np.flatnonzero(~nm.on_hull)
    stack = concat_stacks([
        _hull_cells(hull, pts, r, domain, eps, [np.unique(nm.stars[i]) for i in hull]),
        _clip_to_domain(_interior_cells(interior, nm, q, pts, eps), domain_planes, eps),
    ])
    normals = _face_normals(stack.verts, stack.starts, stack.succ)
    bounds = np.searchsorted(stack.cells, np.arange(len(pts) + 1))
    ends = np.concatenate((stack.starts, [len(stack.verts)]))

    volumes: list[ControlVolume] = []
    matched: set[int] = set()
    for i in range(len(pts)):
        f0, f1 = int(bounds[i]), int(bounds[i + 1])
        if f0 == f1:
            volumes.append(ControlVolume(owner=i, closed=False, faces=[]))
            continue
        r0, r1 = int(ends[f0]), int(ends[f1])
        v = stack.verts[r0:r1]
        cell = (v, stack.starts[f0:f1] - r0, stack.succ[r0:r1] - r0)
        tags = [None if t < 0 else t for t in stack.tags[f0:f1].tolist()]
        _check_face_planarity(i, tags, cell, normals[f0:f1])
        ids = _match_simplex_ids(v, q, nm.star_simplices[i], match_eps)
        matched.update(t for t in ids if t is not None)
        cuts = (ends[f0:f1 + 1] - r0).tolist()
        cell_faces = [
            CellFace(verts=v[a:b], neighbor=t, vertex_simplices=ids[a:b])
            for a, b, t in zip(cuts[:-1], cuts[1:], tags)
        ]
        _check_convex3(i, cell, normals[f0:f1], scale)
        volumes.append(ControlVolume(owner=i, closed=True, faces=cell_faces))

    _check_orphans(q, matched, domain_planes, eps_inside=match_eps)
    return ControlVolumeMesh(
        dim=3, points=pts, radii=r, volumes=volumes, domain=domain,
        simplices=tet.tetrahedra, simplex_vertices=q,
    )


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
    wall must be perpendicular to the segment joining its two cell centers."""
    pts = mesh.points if pts is None else pts
    scale = mesh.scale()
    checked = 0
    violations = []
    for cell in mesh.volumes:
        i = cell.owner
        if mesh.dim == 2:
            if cell.verts is None or cell.empty:
                continue
            v = cell.verts
            for k, j in enumerate(cell.edge_neighbors):
                if j is None:
                    continue
                e = v[(k + 1) % len(v)] - v[k]
                ln = float(np.linalg.norm(e))
                if ln <= 1e-12 * scale:
                    continue
                axis = pts[j] - pts[i]
                cosang = abs(float(e @ axis)) / (ln * float(np.linalg.norm(axis)))
                dev = math.asin(min(1.0, cosang))
                checked += 1
                if dev > tol:
                    violations.append((i, int(j), dev))
        else:
            walls = [f for f in cell.faces or [] if f.neighbor is not None]
            if not walls:
                continue
            nbr = [int(f.neighbor) for f in walls]
            axis = pts[nbr] - pts[i]
            axis = axis / np.sqrt(_rowdot(axis, axis))[:, None]
            # per face, the largest |cos| between an edge of length above
            # 1e-12 * scale and the axis (0.0 when it has no such edge)
            v, starts, succ = _stack_loops([f.verts for f in walls])
            e = v[succ] - v
            ln = np.sqrt(_rowdot(e, e))
            face = np.repeat(np.arange(len(walls)), np.diff(starts, append=len(v)))
            dot = np.abs(_rowdot(e, axis[face]))
            long = ln > 1e-12 * scale
            cos = np.zeros(len(v))
            cos[long] = dot[long] / ln[long]
            for j, worst in zip(nbr, np.maximum.reduceat(cos, starts).tolist()):
                dev = math.asin(min(1.0, worst))
                checked += 1
                if dev > tol:
                    violations.append((i, j, dev))
    return PerpendicularityReport(tol=tol, checked=checked, violations=violations)


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


def _containment_box(cell: ControlVolume, tol: float, pad: float):
    """(lo, hi) holding every point that cell.contains_many(..., margin=-tol)
    accepts, or None when no such box is known.

    A point strictly left of every edge line of a closed loop has winding
    number >= 1 around it, so it lies in the hull of the loop's vertices and
    hence in their bounding box, widened here by pad against rounding. In 3D,
    contains_many tests each face against one plane and skips faces with no
    normal, so the same argument would need planar faces that close; 3D cells
    therefore get no box.
    """
    if tol <= 0.0 or cell.faces is not None:
        return None
    return cell.verts.min(axis=0) - pad, cell.verts.max(axis=0) + pad


def validate_global(mesh: ControlVolumeMesh, probes: int = 10_000, seed: int = 0,
                    tol: float | None = None) -> GlobalReport:
    """Global mesh conditions: identical shared walls seen from both owners,
    sampled pairwise interior disjointness, each owner inside its own cell,
    and no foreign generator inside any cell.

    Each cell tests only the probes and generators inside its vertex bounding
    box (`_containment_box`); the points outside it cannot pass the strict
    containment test, so the report equals that of testing every point
    against every cell. A cell without a known box (every 3D cell, and every
    cell when tol <= 0) tests every point. The owner is inside its cell when
    its own generator row passes that same test.
    """
    scale = mesh.scale()
    tol = 1e-9 * scale if tol is None else tol
    pts = mesh.points

    mismatches = []
    for (i, j), sides in mesh.shared_walls().items():
        if len(sides) != 2:
            mismatches.append((i, j, "missing side"))
            continue
        a, b = sides[i], sides[j]
        if len(a) != len(b) or not _vertex_sets_match(a, b, tol):
            mismatches.append((i, j, "wall geometry differs"))

    rng = np.random.default_rng(seed)
    dverts = mesh.domain.verts if mesh.dim == 2 else mesh.domain.vertices()
    lo = dverts.min(axis=0)
    hi = dverts.max(axis=0)
    samples = lo + (hi - lo) * rng.random((probes, mesh.dim))
    # probes first, then generators, swept by x
    targets = np.vstack([samples, pts])
    by_x = np.argsort(targets[:, 0], kind="stable")
    swept = targets[by_x]
    xs = np.ascontiguousarray(swept[:, 0])
    everything = np.arange(len(targets))

    hit = np.zeros(probes, dtype=np.int64)
    first_owner = np.full(probes, -1, dtype=np.int64)
    overlaps = []
    owners_outside = []
    foreign = []
    for cell in mesh.volumes:
        if cell.empty:
            owners_outside.append(cell.owner)
            continue
        box = _containment_box(cell, tol, 1e-9 * scale)
        if box is None:
            inside = everything[cell.contains_many(targets, margin=-tol)]
        else:
            blo, bhi = box
            a = np.searchsorted(xs, blo[0], side="left")
            b = np.searchsorted(xs, bhi[0], side="right")
            rest = swept[a:b, 1:]
            in_box = np.all((rest >= blo[1:]) & (rest <= bhi[1:]), axis=1)
            cand = np.sort(by_x[a:b][in_box])
            inside = cand[cell.contains_many(targets[cand], margin=-tol)]

        m = inside[inside < probes]
        first_owner[m[hit[m] == 0]] = cell.owner
        for k in m[hit[m] > 0]:
            overlaps.append((int(k), int(first_owner[k]), cell.owner))
        hit[m] += 1
        generators = (inside[inside >= probes] - probes).tolist()
        if cell.owner not in generators:
            owners_outside.append(cell.owner)
        foreign += [(cell.owner, j) for j in generators if j != cell.owner]

    return GlobalReport(
        shared_wall_mismatches=mismatches,
        overlaps=overlaps,
        owners_outside=owners_outside,
        foreign_points=foreign,
        total_measure=mesh.total_measure(),
        domain_measure=mesh.domain_measure(),
        probes=probes,
    )


def _vertex_sets_match(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """Greedy matching: each vertex of a, in order, takes the nearest unused
    vertex of b, which must lie within tol."""
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    for row in d:
        k = int(np.argmin(row))
        if row[k] > tol:
            return False
        d[:, k] = np.inf
    return True
