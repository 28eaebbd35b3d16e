"""Shared instance factories.

The radius bounds (and hence radical-center/exact meshes) need locally uniform
point spacing: an interval is non-empty iff every Delaunay edge is shorter than
the sum of its endpoints' max radii. Jittered lattice patches satisfy that by a
wide margin; the uniform generator's clouds generally do not, so tests that
exercise strict bounds run on the lattice families below while generator-based
tests stick to equal radii, triangulation, or clamped bounds.
"""
from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cvmesh.clipping import PolyStack, RingStack
from cvmesh.delaunay import neighbor_map, triangulate2
from cvmesh.io import RunConfig, generate_points
from cvmesh.solver import TetraSystems3, TriangleSystems2, bounds_arrays, simplex_systems


def uniform_points(dim: int, n: int, seed: int, **cfg) -> np.ndarray:
    return generate_points(RunConfig(dimension=dim, n=n, seed=seed, **cfg))


def assert_table_equals_lists(nm, ref):
    """The row table `nm` holds, point for point, the rings or stars of the
    reference lists `ref` (`oracles.neighbor_lists`): the same neighbours
    and simplices in the same order, an open fan's last row without a
    triangle (-1), and the same hull points."""
    assert nm.dim == ref.dim and nm.n_points == ref.n_points
    assert np.array_equal(nm.on_hull, ref.on_hull)
    lens = nm.lengths()
    assert np.array_equal(nm.starts, np.cumsum(lens) - lens)
    assert np.array_equal(nm.owner, np.repeat(np.arange(nm.n_points), lens))
    for i in range(nm.n_points):
        rows = slice(nm.starts[i], nm.starts[i] + lens[i])
        if nm.dim == 2:
            ring, tids = ref.rings[i].tolist(), ref.ring_simplices[i].tolist()
            assert nm.nbr[rows].tolist() == ring, i
            assert nm.simplex[rows].tolist() == tids + [-1] * (len(ring) - len(tids)), i
        else:
            assert nm.nbr[rows].tolist() == ref.stars[i].tolist(), i
            assert nm.simplex[rows].tolist() == ref.star_simplices[i].tolist(), i


def with_ring(mesh, i: int, verts, tags, simplices=None):
    """The 2D mesh with ring i of its cell stack replaced by the given rows,
    edge tags (-1: domain) and simplex ids (-1 unless given)."""
    s = mesh.cells
    a = int(s.starts[i])
    b = a + int(s.lengths()[i])
    verts = np.asarray(verts, dtype=float).reshape(-1, 2)
    sids = np.full(len(verts), -1) if simplices is None else simplices
    shift = np.where(np.arange(len(s.starts)) > i, len(verts) - (b - a), 0)
    cells = RingStack(np.concatenate([s.verts[:a], verts, s.verts[b:]]), s.starts + shift,
                      np.concatenate([s.tags[:a], np.asarray(tags, dtype=np.int64), s.tags[b:]]),
                      np.concatenate([s.simplices[:a], np.asarray(sids, dtype=np.int64),
                                      s.simplices[b:]]))
    return dataclasses.replace(mesh, cells=cells)


def rings_stack(polys) -> RingStack:
    """One ring stack of (verts, tags) polygons, ring c = polys[c], edge
    tags None on the domain."""
    lens = np.array([len(v) for v, _ in polys], dtype=np.intp)
    return RingStack.from_rings(np.concatenate([v for v, _ in polys]), np.cumsum(lens) - lens,
                                [-1 if t is None else t for _, tags in polys for t in tags])


def ring_of(stack: RingStack, c: int):
    """Ring c of a stack as (verts, tags), tags None on the domain, or None
    when it has no rows."""
    a = int(stack.starts[c])
    b = a + int(stack.lengths()[c])
    if a == b:
        return None
    return stack.verts[a:b], [None if t < 0 else t for t in stack.tags[a:b].tolist()]


def hexagonal_domain(pts) -> RingStack:
    """A one-ring domain: the hexagon of radius 1.2 around the points'
    centroid, turned so that no edge line is axis-aligned."""
    ang = np.linspace(0.0, 2.0 * np.pi, 7)[:-1] + 0.3
    verts = pts.mean(axis=0) + 1.2 * np.column_stack([np.cos(ang), np.sin(ang)])
    return RingStack.from_rings(verts, [0], [-1] * 6)


def polyhedra_stack(polys) -> PolyStack:
    """One face stack of polyhedra given as lists of (loop, tag) faces, cell
    c = polys[c], tags None on the domain."""
    faces = [f for p in polys for f in p]
    lens = np.array([len(v) for v, _ in faces], dtype=np.intp)
    return PolyStack.from_loops(np.concatenate([v for v, _ in faces]), np.cumsum(lens) - lens,
                                [-1 if t is None else t for _, t in faces],
                                np.repeat(np.arange(len(polys)), [len(p) for p in polys]))


def faces_of(stack: PolyStack, c: int = 0):
    """Cell c of a face stack as a list of (loop, tag) faces, tags None on
    the domain, or None when it has no faces."""
    ends = np.append(stack.starts, len(stack.verts))
    faces = np.flatnonzero(stack.cells == c).tolist()
    tags = [None if t < 0 else t for t in stack.tags.tolist()]
    return [(stack.verts[ends[f]:ends[f + 1]], tags[f]) for f in faces] or None


def radical_centers(centers, radii) -> tuple[np.ndarray, np.ndarray]:
    """Radical centres of K triangles (K, 3, 2) or tetrahedra (K, 4, 3) of
    circles/spheres with radii (K, 3|4), by the simplex systems the solver
    runs. Returns the (K, d) centres and each one's power with respect to
    its simplex's first circle (zero when all the circles meet there)."""
    c = np.asarray(centers, dtype=float)
    k, m, d = c.shape
    systems = (TriangleSystems2 if d == 2 else TetraSystems3)(
        c.reshape(-1, d), np.arange(k * m).reshape(k, m))
    r = np.asarray(radii, dtype=float).reshape(-1)
    return systems.vertices(r), systems.powers(r)


def hexagon_patch(rings: int, seed: int, jitter: float = 0.10) -> np.ndarray:
    """Hexagonal chunk of the unit triangular lattice (1 + 3R(R+1) points);
    the outer ring stays unjittered so the hull keeps unit spacing."""
    pts = []
    ring = []
    for r in range(-rings, rings + 1):
        for c in range(-rings, rings + 1):
            if abs(r + c) <= rings:
                pts.append((c + 0.5 * r, r * np.sqrt(3) / 2))
                ring.append(max(abs(r), abs(c), abs(r + c)))
    pts = np.asarray(pts)
    rng = np.random.default_rng(seed)
    jit = jitter * (rng.random(pts.shape) - 0.5) * 2
    jit[np.asarray(ring) == rings] = 0.0
    return pts + jit


def flat_faced_box() -> np.ndarray:
    """Unit cube corners, 30 points on its faces (many coplanar hull triples)
    and 10 inside: the cloud of test_convex_hull_volume_counts_flat_faces_once."""
    rng = np.random.default_rng(3)
    corners = np.array([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], dtype=float)
    face = rng.random((30, 3))
    face[np.arange(30), rng.integers(0, 3, 30)] = rng.integers(0, 2, 30)
    return np.vstack([corners, face, 0.1 + 0.8 * rng.random((10, 3))])


def bcc_cell(seed: int, jitter: float = 0.08) -> np.ndarray:
    """Unit cube corners plus body center, fully jittered (9 points)."""
    pts = [[i, j, k] for i in (0.0, 1.0) for j in (0.0, 1.0) for k in (0.0, 1.0)]
    pts.append([0.5, 0.5, 0.5])
    pts = np.asarray(pts)
    rng = np.random.default_rng(seed)
    return pts + jitter * (rng.random(pts.shape) - 0.5) * 2


# Frozen construction recipes for zero-residual exact-intersection instances
# (convex-position points; the dual graph of their triangulation is a tree, so
# probe points propagate without consistency conflicts).
CONVEX_RECIPES = {
    5: dict(seed=38, ecc=0.75, root=1, blend=0.5, prefer_near=True),
    6: dict(seed=34, ecc=0.75, root=3, blend=0.5, prefer_near=True),
    7: dict(seed=38, ecc=0.60, root=1, blend=0.0, prefer_near=True),
}
CONVEX_GAP = 0.35


def convex_points(n: int, seed: int, ecc: float) -> np.ndarray | None:
    rng = np.random.default_rng(seed)
    ang = np.sort(rng.random(n)) * 2 * np.pi
    gaps = np.diff(np.concatenate([ang, [ang[0] + 2 * np.pi]]))
    if np.min(gaps) < CONVEX_GAP * 2 * np.pi / n:
        return None
    return np.stack([np.cos(ang), ecc * np.sin(ang)], axis=1)


def _incenter(pts, tri, t):
    a, b, c = pts[tri.triangles[t]]
    la = np.linalg.norm(b - c)
    lb = np.linalg.norm(c - a)
    lc = np.linalg.norm(a - b)
    return (la * a + lb * b + lc * c) / (la + lb + lc)


def back_compute_radii(pts, tri, root: int, blend: float, prefer_near: bool) -> np.ndarray | None:
    """Propagate probe points over the dual tree: the root triangle gets a free
    probe, every next triangle intersects the two known circles and reads off
    the new vertex's radius. Exact zero-residual assignment by construction."""
    T = tri.triangles
    adj = tri.adjacency
    r = np.full(len(pts), np.nan)
    q0 = (1 - blend) * _incenter(pts, tri, root) + blend * pts[T[root]].mean(axis=0)
    for v in T[root]:
        r[v] = np.linalg.norm(pts[v] - q0)
    seen = {root}
    queue = [root]
    while queue:
        t = queue.pop(0)
        for k in range(3):
            t2 = int(adj[t][k])
            if t2 == -1 or t2 in seen:
                continue
            seen.add(t2)
            vs = T[t2]
            known = [v for v in vs if not np.isnan(r[v])]
            new = [v for v in vs if np.isnan(r[v])]
            if len(new) != 1:
                queue.append(t2)
                continue
            a, b = pts[known[0]], pts[known[1]]
            ra, rb = r[known[0]], r[known[1]]
            L = float(np.linalg.norm(b - a))
            if not (abs(ra - rb) < L < ra + rb):
                return None
            x = (L * L + ra * ra - rb * rb) / (2 * L)
            h2 = ra * ra - x * x
            if h2 <= 0:
                return None
            h = np.sqrt(h2)
            u = (b - a) / L
            perp = np.array([-u[1], u[0]])
            q1 = a + x * u + h * perp
            q2 = a + x * u - h * perp
            ic = _incenter(pts, tri, t2)
            near = np.linalg.norm(q1 - ic) <= np.linalg.norm(q2 - ic)
            q = q1 if near == prefer_near else q2
            r[new[0]] = np.linalg.norm(pts[new[0]] - q)
            queue.append(t2)
    if np.any(np.isnan(r)):
        return None
    return r


def exact_instance(n: int):
    """(pts, tri, nm, r_star, lo, hi) with objective(r_star) == 0 exactly."""
    rec = CONVEX_RECIPES[n]
    pts = convex_points(n, rec["seed"], rec["ecc"])
    assert pts is not None
    tri = triangulate2(pts)
    nm = neighbor_map(tri)
    r_star = back_compute_radii(pts, tri, rec["root"], rec["blend"], rec["prefer_near"])
    assert r_star is not None
    assert simplex_systems(tri).objective(r_star) < 1e-20
    lo, hi, _ = bounds_arrays(nm, tri.points, policy="clamp")
    assert np.all(r_star > lo) and np.all(r_star < hi)
    return pts, tri, nm, r_star, lo, hi


@pytest.fixture(scope="session")
def hex50():
    """The uniform-generator N=50 2D instance whose radical-center mesh builds
    cleanly under the clamp policy (seed chosen by scan, frozen)."""
    return uniform_points(2, 50, 43)


@pytest.fixture(scope="session")
def uni30_3d():
    """Uniform-generator N=30 3D instance with a clean clamped build (frozen)."""
    return uniform_points(3, 30, 6)
