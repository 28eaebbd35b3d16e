"""The stacked clip kernel and the batched wall loops against the
one-face, one-vertex-at-a-time loops of tests/oracles.py.

A match is the same faces in the same order, with the same tags, loop
lengths and start vertices, and coordinates within 1e-12 times the scale.
"""
import numpy as np
import pytest

from cvmesh.clipping import (
    _dedup_loops,
    _first_unique,
    box_polyhedron,
    clip_polygon,
    clip_polyhedron,
    clip_rings,
    clip_stack,
    ring_distances,
)
from cvmesh.delaunay import neighbor_map, tetrahedralize3
from cvmesh.mesh import _interior_cells, build_volumes3
from cvmesh.solver import simplex_systems

from conftest import faces_of, polyhedra_stack, ring_of, rings_stack, uniform_points
from oracles import (
    neighbor_lists,
    clip_polygon_loop,
    clip_polyhedron_loop,
    dedup_loop,
    face_loop_around_edge,
    newell_normal,
)

EPS = 1e-10


def _poly(faces):
    return polyhedra_stack([faces])


def _assert_same(got, want, scale=1.0):
    if want is None:
        assert got is None
        return
    assert got is not None
    assert [t for _, t in got] == [t for _, t in want]
    assert [len(v) for v, _ in got] == [len(v) for v, _ in want]
    for (a, _), (b, _) in zip(got, want):
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12 * scale)


def _random_polyhedron(rng, cuts=6):
    """The box [-1, 1]^3 cut by random planes 0.5-0.9 from the origin, by the
    loop reference; faces tagged by the cut that made them (None: box)."""
    faces = faces_of(box_polyhedron((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)))
    for k in range(cuts):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        faces = clip_polyhedron_loop(faces, n, rng.uniform(0.5, 0.9), k, EPS)
    return faces


def _random_normal(rng):
    n = rng.normal(size=3)
    return n / np.linalg.norm(n)


@pytest.mark.parametrize("seed", range(8))
def test_clip_matches_loop_reference_random_planes(seed):
    rng = np.random.default_rng(seed)
    for _ in range(10):
        faces = _random_polyhedron(rng)
        n = _random_normal(rng) * rng.uniform(0.5, 3.0)
        c = float(n @ rng.uniform(-0.6, 0.6, size=3))
        _assert_same(faces_of(clip_polyhedron(_poly(faces), n, c, 99, EPS)),
                     clip_polyhedron_loop(faces, n, c, 99, EPS))


@pytest.mark.parametrize("seed", range(8))
def test_clip_matches_loop_reference_through_vertex_or_edge(seed):
    """Planes through a vertex or along an edge put rows at |d| <= eps."""
    rng = np.random.default_rng(100 + seed)
    touched = 0
    for trial in range(12):
        faces = _random_polyhedron(rng)
        loop = faces[rng.integers(len(faces))][0]
        k = int(rng.integers(len(loop)))
        a, b = loop[k], loop[(k + 1) % len(loop)]
        along_edge = trial % 2 == 0
        n = np.cross(b - a, _random_normal(rng)) if along_edge else _random_normal(rng)
        c = float(n @ a)
        d = np.vstack([v for v, _ in faces]) @ n - c
        touched += int(np.sum(np.abs(d) <= EPS) >= (2 if along_edge else 1))
        for tag in (7, None):
            _assert_same(faces_of(clip_polyhedron(_poly(faces), n, c, tag, EPS)),
                         clip_polyhedron_loop(faces, n, c, tag, EPS))
    assert touched >= 6


BOX_PLANES = [
    ((1.0, 1.0, 1.0), 1.0),     # through three corners
    ((1.0, 1.0, 1.0), 2.0),     # through the three opposite corners
    ((1.0, 1.0, 1.0), 0.0),     # touches one corner only: kept whole
    ((1.0, 1.0, 1.0), 3.0),     # touches the far corner only: kept whole
    ((-1.0, -1.0, -1.0), 0.0),  # everything on or beyond: nothing left
    ((1.0, -1.0, 0.0), 0.0),    # along two vertical edges (diagonal section)
    ((1.0, 1.0, 0.0), 1.0),     # along the other diagonal
    ((0.0, 0.0, 1.0), 1.0),     # the top face itself
    ((0.0, 0.0, 1.0), 0.0),     # the bottom face itself
    ((1.0, 1.0, -1.0), 1.0),    # through (1,0,0), (0,1,0), (1,1,1)
]


@pytest.mark.parametrize("normal, offset", BOX_PLANES)
def test_clip_matches_loop_reference_box_corners(normal, offset):
    box = box_polyhedron((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    n = np.array(normal)
    _assert_same(faces_of(clip_polyhedron(box, n, offset, 5, EPS)),
                 clip_polyhedron_loop(faces_of(box), n, offset, 5, EPS))


def test_clip_matches_loop_reference_face_within_eps():
    """A square bipyramid whose equator lies within eps of the plane but not
    on it: the equator corners, first met on the lower faces, which stay
    whole, are the section points; the crossing points near them on the
    upper edges are dropped as near duplicates."""
    eq = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    top, bottom = np.array([0.5, 0.5, 1.0]), np.array([0.5, 0.5, -1.0])
    faces = ([(np.array([eq[(k + 1) % 4], eq[k], bottom]), k) for k in range(4)]
             + [(np.array([eq[k], eq[(k + 1) % 4], top]), 4 + k) for k in range(4)])
    n = np.array([0.05, 0.0, 1.0])
    want = clip_polyhedron_loop(faces, n, 0.04, 9, 0.1)
    _assert_same(faces_of(clip_polyhedron(_poly(faces), n, 0.04, 9, 0.1)), want)
    assert want[-1][1] == 9
    np.testing.assert_array_equal(np.sort(want[-1][0], axis=0), np.sort(eq, axis=0))


def _prism(base, height=1.0):
    """Right prism over a CCW convex polygon in z = 0, outward loops."""
    base = np.asarray(base, dtype=float)
    lo = np.column_stack([base, np.zeros(len(base))])
    hi = lo + [0.0, 0.0, height]
    faces = [(lo[::-1], 0), (hi, 1)]
    for k in range(len(base)):
        m = (k + 1) % len(base)
        faces.append((np.array([lo[k], lo[m], hi[m], hi[k]]), 2 + k))
    return faces


def test_clip_matches_loop_reference_near_duplicate_chain():
    """Three prism corners a, b, c with |ab| and |bc| within eps but |ac|
    not. The section points come in the order c, b, d, c, e, d, a, e, b, a:
    c stays, b goes (near c), and a stays, because it is compared only with
    the points kept before it (c, d, e). The thin side walls collapse."""
    eps = 1e-6
    delta = 0.6e-6
    ang = [delta, 2 * delta, 2.0, 4.0, 0.0]  # b, c, d, e, a: CCW
    base = np.column_stack([np.cos(ang), np.sin(ang)])
    faces = _prism(base)
    n = np.array([0.0, 0.0, 1.0])
    want = clip_polyhedron_loop(faces, n, 0.5, 9, eps)
    _assert_same(faces_of(clip_polyhedron(_poly(faces), n, 0.5, 9, eps)), want)
    cap = want[-1][0]
    assert want[-1][1] == 9 and len(cap) == 4  # c, d, e and a
    # a tilted cut through the clustered corner as well
    n = np.array([1.0, 0.2, 0.3])
    c = float(n @ [1.0, 0.0, 0.5])
    _assert_same(faces_of(clip_polyhedron(_poly(faces), n, c, 9, eps)),
                 clip_polyhedron_loop(faces, n, c, 9, eps))


def test_loop_dedup_follows_last_kept_vertex():
    """Chains of near duplicates (each within eps of the previous, not of
    the one before) against the loop reference, including the wrap-around."""
    rng = np.random.default_rng(5)
    eps = 1.0
    loops = []
    for _ in range(300):
        m = int(rng.integers(1, 9))
        steps = rng.choice([0.3, 0.6, 0.9, 1.5, 3.0], size=(m, 1)) * _unit_rows(rng, m)
        loops.append(np.cumsum(steps, axis=0))
    starts = np.cumsum([0] + [len(v) for v in loops[:-1]])
    keep = _dedup_loops(np.concatenate(loops), starts, eps)
    for v, s in zip(loops, starts):
        mask = keep[s:s + len(v)]
        want = dedup_loop(v, eps)
        got = v[mask]
        if want is None:
            assert len(got) < 3
        else:
            np.testing.assert_array_equal(got, want)


def test_first_unique_compares_with_every_kept_point():
    rng = np.random.default_rng(6)
    eps = 1.0
    groups = np.repeat(np.arange(200), rng.integers(1, 12, size=200))
    p = rng.uniform(0.0, 3.0, size=(len(groups), 3))
    keep = _first_unique(p, groups, eps)
    for g in range(200):
        kept = []
        for q in p[groups == g]:
            if all(np.linalg.norm(q - k) > eps for k in kept):
                kept.append(q)
        np.testing.assert_array_equal(p[groups == g][keep[groups == g]], np.array(kept).reshape(-1, 3))


def _unit_rows(rng, m):
    v = rng.normal(size=(m, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


@pytest.mark.parametrize("seed", range(4))
def test_clip_stack_clips_each_cell_by_its_own_plane(seed):
    """One clip_stack pass over many cells equals one loop-reference clip per
    cell, vanished cells included; cells whose rows all lie inside are kept
    whole."""
    rng = np.random.default_rng(200 + seed)
    polys = [_random_polyhedron(rng, cuts=int(rng.integers(0, 7))) for _ in range(25)]
    normals = np.array([_random_normal(rng) * rng.uniform(0.5, 2.0) for _ in polys])
    offsets = np.array([float(n @ rng.uniform(-1.2, 1.2, size=3)) for n in normals])
    tags = list(range(50, 75))
    stack = polyhedra_stack(polys)
    rc = stack.row_cells()
    d = np.einsum("ij,ij->i", stack.verts, normals[rc]) - offsets[rc]
    out = clip_stack(stack, d, normals, tags, EPS)
    for c, faces in enumerate(polys):
        _assert_same(faces_of(out, c),
                     clip_polyhedron_loop(faces, normals[c], offsets[c], tags[c], EPS))


@pytest.mark.parametrize("n, seed", [(30, 1), (60, 2), (60, 3)])
def test_interior_walls_match_loop_reference(n, seed):
    """Every wall of every interior cell from the batched pass equals the
    per-edge loop reference, oriented toward the neighbor."""
    pts = uniform_points(3, n, seed)
    tet = tetrahedralize3(pts)
    nm = neighbor_map(tet)
    r = np.full(len(pts), 0.05)
    q = simplex_systems(tet).vertices(r)
    scale = build_volumes3(tet, nm, pts, r).scale()
    eps = 1e-10 * scale
    interior = np.flatnonzero(~nm.on_hull)
    assert len(interior)
    stack = _interior_cells(interior, nm, q, pts, eps)
    ref = neighbor_lists(tet)
    for i in interior.tolist():
        want = []
        for j in np.unique(ref.stars[i]).tolist():
            rows = np.nonzero(np.any(ref.stars[i] == j, axis=1))[0]
            loop, _ = face_loop_around_edge(i, j, q, ref.star_simplices[i][rows], pts, eps)
            if loop is None:
                continue
            if float(np.dot(newell_normal(loop), pts[j] - pts[i])) < 0.0:
                loop = loop[::-1]
            want.append((loop, j))
        _assert_same(faces_of(stack, i), want, scale)


@pytest.mark.parametrize("n, seed", [(30, 1), (60, 2), (60, 3)])
def test_hull_cells_match_loop_reference(n, seed):
    """Each hull cell is the domain clipped by the power bisector toward each
    neighbor in ascending id order, stopping when nothing is left: faces,
    order, tags and loops as the loop reference gives them."""
    pts = uniform_points(3, n, seed)
    tet = tetrahedralize3(pts)
    nm = neighbor_map(tet)
    r = np.full(len(pts), 0.05)
    mesh = build_volumes3(tet, nm, pts, r)
    eps = 1e-10 * mesh.scale()
    ref = neighbor_lists(tet)
    for i in np.flatnonzero(nm.on_hull).tolist():
        faces = faces_of(mesh.domain)
        for j in np.unique(ref.stars[i]).tolist():
            faces = clip_polyhedron_loop(faces, 2.0 * (pts[j] - pts[i]),
                                         float(pts[j] @ pts[j] - pts[i] @ pts[i]), j, eps)
            if faces is None:
                break
        got = faces_of(mesh.cells, i)
        _assert_same(got, faces, mesh.scale())


def _random_polygon(rng, k):
    """A convex k-gon around a random center, sometimes with a vertex
    repeated within eps (as coinciding radical centers give)."""
    ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, k))
    v = rng.normal(size=2) + rng.uniform(0.5, 2.0) * np.column_stack([np.cos(ang), np.sin(ang)])
    if rng.random() < 0.3:
        j = int(rng.integers(k))
        v = np.insert(v, j + 1, v[j] + 0.3 * EPS * rng.normal(size=2), axis=0)
    return v


@pytest.mark.parametrize("seed", range(6))
def test_clip_rings_match_polygon_loop(seed):
    """Many rings clipped at once, each by its own line, against the one-edge
    loop reference: the same vertices bit for bit and the same tags; lines
    through vertices and within eps of an edge included."""
    rng = np.random.default_rng(seed)
    polys, normals, offsets, tags = [], [], [], []
    for c in range(60):
        v = _random_polygon(rng, int(rng.integers(3, 12)))
        polys.append((v, [int(t) for t in rng.integers(0, 50, len(v))]))
        n = rng.normal(size=2)
        how = c % 4
        if how == 0:       # through a vertex
            offset = float(v[int(rng.integers(len(v)))] @ n)
        elif how == 1:     # within eps of a whole edge
            a = int(rng.integers(len(v)))
            e = v[(a + 1) % len(v)] - v[a]
            n = np.array([e[1], -e[0]])
            offset = float(v[a] @ n) + 0.5 * EPS * float(np.linalg.norm(n)) * rng.uniform(-1, 1)
        else:
            offset = float(rng.uniform(-1.5, 1.5) * np.linalg.norm(n) + v.mean(axis=0) @ n)
        normals.append(n)
        offsets.append(offset)
        tags.append(None if c % 5 == 0 else 100 + c)
    stack = rings_stack(polys)
    d = ring_distances(stack, np.array(normals), np.array(offsets))
    out = clip_rings(stack, d, tags, EPS)
    for c, poly in enumerate(polys):
        want = clip_polygon_loop(*poly, normals[c], offsets[c], tags[c], EPS)
        one = clip_polygon(rings_stack([poly]), normals[c], offsets[c], tags[c], EPS)
        for got in (ring_of(out, c), ring_of(one, 0)):
            if want is None:
                assert got is None
                continue
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1] == want[1]
