from itertools import permutations, product

import numpy as np
import pytest

from cvmesh.delaunay import _adjacency, _duplicate_pairs, neighbor_map, tetrahedralize3, triangulate2
from cvmesh.errors import AllCollinear, AllCoplanar, DuplicatePoints, TooFewPoints

from conftest import assert_table_equals_lists, flat_faced_box, hexagon_patch, uniform_points
from oracles import (
    adjacency_loop,
    bowyer_watson_scan,
    convex_hull_area,
    convex_hull_volume,
    duplicate_pairs_loop,
    empty_circumcircles,
    empty_circumspheres,
    neighbor_lists,
    tetra_volume,
    triangle_area,
)


def test_three_points_single_triangle():
    tri = triangulate2([(0, 0), (1, 0), (0.2, 0.8)])
    assert len(tri.triangles) == 1
    assert sorted(tri.triangles[0]) == [0, 1, 2]


def test_unit_square_two_triangles_deterministic():
    pts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    tri = triangulate2(pts)
    assert len(tri.triangles) == 2
    again = triangulate2(pts)
    assert np.array_equal(tri.triangles, again.triangles)
    # both triangles share one diagonal
    edges = tri.edges()
    assert len(edges) == 5


def test_input_validation_errors():
    with pytest.raises(TooFewPoints):
        triangulate2([(0, 0), (1, 1)])
    with pytest.raises(AllCollinear):
        triangulate2([(0, 0), (1, 1), (2, 2), (3, 3)])
    with pytest.raises(DuplicatePoints) as err:
        triangulate2([(0, 0), (1, 0), (0, 1), (1e-15, 0)])
    assert (0, 3) in err.value.pairs
    for dim, kernel in ((2, triangulate2), (3, tetrahedralize3)):
        # one point repeated: the cloud has no diagonal to scale by
        with pytest.raises(DuplicatePoints) as err:
            kernel(np.full((4, dim), 0.3))
        assert err.value.pairs == [(j, i) for i in range(4) for j in range(i)]
    with pytest.raises(TooFewPoints):
        tetrahedralize3([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    with pytest.raises(AllCoplanar):
        tetrahedralize3([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0.3, 0.2, 0)])


def test_triangulation_oracle_seeded_50():
    pts = uniform_points(2, 50, 11)
    tri = triangulate2(pts)
    ok, witness = empty_circumcircles(pts, tri.triangles, eps=1e-9)
    assert ok, f"circumcircle violated: {witness}"


def test_triangle_areas_cover_hull():
    pts = uniform_points(2, 80, 5)
    tri = triangulate2(pts)
    total = sum(triangle_area(pts[a], pts[b], pts[c]) for a, b, c in tri.triangles)
    assert total == pytest.approx(convex_hull_area(pts), rel=1e-9)


def test_triangles_ccw():
    pts = uniform_points(2, 40, 9)
    tri = triangulate2(pts)
    for a, b, c in tri.triangles:
        cross = (pts[b] - pts[a])[0] * (pts[c] - pts[a])[1] - (pts[b] - pts[a])[1] * (pts[c] - pts[a])[0]
        assert cross > 0


def test_adjacency_symmetric():
    pts = uniform_points(2, 40, 13)
    tri = triangulate2(pts)
    for t in range(len(tri.triangles)):
        for k in range(3):
            t2 = tri.adjacency[t, k]
            if t2 != -1:
                assert t in tri.adjacency[t2]


def _lattice_with_duplicates(dim: int, seed: int) -> np.ndarray:
    """Points snapped to a quarter-unit lattice (exact duplicates), plus two
    copies of one point moved by 1e-13 and 3e-13."""
    rng = np.random.default_rng(seed)
    pts = np.round(rng.random((60, dim)) * 4) / 4
    return np.vstack([pts, pts[7] + 1e-13, pts[7] + 3e-13])


def test_duplicate_pairs_match_grid_loop():
    """The sorted-array pass finds the pairs of the grid-hash loop, in its
    order: by later point, then neighbour cell, then earlier point."""
    clouds = [uniform_points(2, 400, 1), uniform_points(3, 60, 2), hexagon_patch(3, 1),
              flat_faced_box()]
    clouds += [_lattice_with_duplicates(d, s) for d in (2, 3) for s in (0, 1)]
    for pts in clouds:
        for eps in (1e-12, 2e-13, 1e-3, 0.1, 0.3, 0.0):
            got = _duplicate_pairs(pts, eps)
            assert got == duplicate_pairs_loop(pts, eps), (len(pts), eps)
    assert len(_duplicate_pairs(clouds[-1], 1e-12)) > 10


def test_adjacency_matches_facet_loop():
    sims = [triangulate2(uniform_points(2, 400, 3)).simplices,
            tetrahedralize3(uniform_points(3, 60, 4)).simplices,
            tetrahedralize3(flat_faced_box()).simplices,
            # facet (0, 1, 2) shared by three tetrahedra: linked to none
            np.array([[0, 1, 2, 3], [0, 2, 1, 4], [1, 0, 2, 5], [3, 4, 5, 6]])]
    for s in sims:
        got = _adjacency(s)
        assert got.dtype == np.int64 and np.array_equal(got, adjacency_loop(s))


def test_permutation_invariance_as_sets():
    pts = uniform_points(2, 30, 21)
    tri1 = triangulate2(pts)
    perm = np.random.default_rng(4).permutation(len(pts))
    tri2 = triangulate2(pts[perm])  # new index k holds old point perm[k]
    set1 = {tuple(sorted(t)) for t in tri1.triangles}
    set2 = {tuple(sorted(int(perm[v]) for v in t)) for t in tri2.triangles}
    assert set1 == set2


def test_minimal_tetrahedralization():
    tet = tetrahedralize3([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert len(tet.tetrahedra) == 1
    assert sorted(tet.tetrahedra[0]) == [0, 1, 2, 3]


def test_cube_corners_tetrahedralization_oracle():
    pts = np.array([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], dtype=float)
    tet = tetrahedralize3(pts)
    ok, witness = empty_circumspheres(pts, tet.tetrahedra, eps=1e-9)
    assert ok, f"circumsphere violated: {witness}"
    total = sum(tetra_volume(pts[a], pts[b], pts[c], pts[d]) for a, b, c, d in tet.tetrahedra)
    assert total == pytest.approx(1.0, rel=1e-9)


def test_tetrahedralization_oracle_seeded_30():
    pts = uniform_points(3, 30, 17)
    tet = tetrahedralize3(pts)
    ok, witness = empty_circumspheres(pts, tet.tetrahedra, eps=1e-9)
    assert ok, f"circumsphere violated: {witness}"
    total = sum(tetra_volume(pts[a], pts[b], pts[c], pts[d]) for a, b, c, d in tet.tetrahedra)
    assert total == pytest.approx(convex_hull_volume(pts), rel=1e-8)


def test_tets_positively_oriented():
    pts = uniform_points(3, 25, 3)
    tet = tetrahedralize3(pts)
    for a, b, c, d in tet.tetrahedra:
        det = np.linalg.det(np.vstack([pts[b] - pts[a], pts[c] - pts[a], pts[d] - pts[a]]))
        assert det > 0


def test_ring_square_center():
    pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]], dtype=float)
    tri = triangulate2(pts)
    nm = neighbor_lists(tri)
    assert_table_equals_lists(neighbor_map(tri), nm)
    assert len(nm.rings[4]) == 4
    assert bool(nm.closed[4])
    # oracle: incidence scan says the ring is exactly the four corners
    incident = {v for t in tri.triangles if 4 in t for v in t if v != 4}
    assert set(nm.rings[4].tolist()) == incident == {0, 1, 2, 3}
    # CCW order around the center
    ring = nm.rings[4]
    ang = np.arctan2(pts[ring][:, 1] - 0.5, pts[ring][:, 0] - 0.5)
    assert np.all(np.diff(np.unwrap(ang)) > 0)


def test_ring_single_triangle():
    tri = triangulate2([(0, 0), (2, 0), (0.4, 1.3)])
    nm = neighbor_lists(tri)
    assert_table_equals_lists(neighbor_map(tri), nm)
    for i in range(3):
        assert len(nm.rings[i]) == 2
        assert not nm.closed[i]


def test_hull_ring_is_open_fan():
    pts = uniform_points(2, 30, 2)
    tri = triangulate2(pts)
    nm = neighbor_lists(tri)
    assert_table_equals_lists(neighbor_map(tri), nm)
    for i in range(len(pts)):
        incident = [t for t in tri.triangles if i in t]
        if nm.on_hull[i]:
            assert len(nm.rings[i]) == len(incident) + 1
        else:
            assert len(nm.rings[i]) == len(incident)


def test_ring_roundtrip_reconstructs_triangulation():
    pts = uniform_points(2, 40, 8)
    tri = triangulate2(pts)
    nm = neighbor_lists(tri)
    assert_table_equals_lists(neighbor_map(tri), nm)
    tri_set = {tuple(sorted(t)) for t in tri.triangles}
    rebuilt = set()
    for i in range(len(pts)):
        ring = nm.rings[i]
        pairs = len(nm.ring_simplices[i])
        for k in range(pairs):
            u = ring[k]
            v = ring[(k + 1) % len(ring)]
            key = tuple(sorted((i, int(u), int(v))))
            assert key in tri_set
            rebuilt.add(key)
    assert rebuilt == tri_set
    for i in range(len(pts)):
        assert i not in nm.rings[i]


def test_star_covers_incident_tets_once():
    pts = uniform_points(3, 20, 5)
    tet = tetrahedralize3(pts)
    nm = neighbor_lists(tet)
    assert_table_equals_lists(neighbor_map(tet), nm)
    for i in range(len(pts)):
        incident = [t for t, row in enumerate(tet.tetrahedra) if i in row]
        assert sorted(nm.star_simplices[i].tolist()) == sorted(incident)
        assert len(nm.stars[i]) == len(incident)
        for triple in nm.stars[i]:
            assert i not in triple


def test_interior_only_cloud_covers_hull():
    # sliver-prone clouds: with no border layer the hull has long, nearly flat
    # triangles, whose circumcircles are huge and whose ghost edges are
    # almost collinear
    for seed in (12, 20, 27, 31):
        pts = uniform_points(2, 150, seed, boundary=False, min_sep_factor=0.2)
        tri = triangulate2(pts)
        total = sum(triangle_area(pts[a], pts[b], pts[c]) for a, b, c in tri.triangles)
        assert total == pytest.approx(convex_hull_area(pts), rel=1e-9)
        ok, witness = empty_circumcircles(pts, tri.triangles, eps=1e-9)
        assert ok, witness


def test_tet_boundary_faces_all_on_hull():
    # a flat hull sliver on this cloud once went missing, leaving two boundary
    # faces inside the hull
    from collections import Counter

    pts = uniform_points(3, 60, 12)
    tet = tetrahedralize3(pts)
    count = Counter()
    for row in tet.tetrahedra:
        for k in range(4):
            count[tuple(sorted(np.delete(row, k)))] += 1
    for face, c in count.items():
        if c != 1:
            continue
        a, b, d = pts[face[0]], pts[face[1]], pts[face[2]]
        normal = np.cross(b - a, d - a)
        side = (pts - a) @ normal
        tol = 1e-9 * np.abs(side).max()
        assert np.all(side <= tol) or np.all(side >= -tol), face


def test_star_triples_positively_oriented():
    pts = uniform_points(3, 15, 6)
    tet = tetrahedralize3(pts)
    nm = neighbor_lists(tet)
    assert_table_equals_lists(neighbor_map(tet), nm)
    for i in range(len(pts)):
        for t0, t1, t2 in nm.stars[i]:
            det = np.linalg.det(np.vstack([
                pts[t0] - pts[i], pts[t1] - pts[i], pts[t2] - pts[i]
            ]))
            assert det > 0


def _table_cloud(dim, kind, a, b):
    if kind == "uniform":
        return uniform_points(dim, a, b[0], boundary=b[1])
    if kind == "hex":
        return hexagon_patch(a, b, jitter=0.1 if b else 0.0)
    if kind == "hexagon":
        return hexagon_patch(3, a) * 3.7
    if kind == "grid":
        return np.array(list(product(range(a), repeat=dim)), dtype=float)
    return np.vstack([np.zeros(dim), np.eye(dim)])    # one triangle or tetrahedron


TABLE_CLOUDS = (
    [(2, "uniform", n, (s, b)) for n in (20, 400) for s in range(5) for b in (True, False)]
    + [(2, "hex", rings, s) for rings in (1, 2, 4) for s in (0, 1)]
    + [(2, "grid", k, None) for k in (3, 5, 8)]
    + [(2, "hexagon", s, None) for s in range(4)]
    + [(2, "simplex", None, None)]
    + [(3, "uniform", n, (s, True)) for n in (30, 300) for s in range(5)]
    + [(3, "grid", k, None) for k in (2, 3, 4)]
    + [(3, "simplex", None, None)]
)


@pytest.mark.parametrize("case", TABLE_CLOUDS, ids=str)
def test_neighbor_table_equals_reference_lists(case):
    """The row table row for row against the per-point dict walk: rings (2D)
    on generator clouds with and without border points, hex lattices,
    square grids with collinear borders and the sliver-dropping hexagon
    patches; stars (3D) on generator clouds and grid lattices; and one
    simplex in each."""
    pts = _table_cloud(*case)
    tri = triangulate2(pts) if case[0] == 2 else tetrahedralize3(pts)
    if case[1] == "hexagon":
        assert tri.hull_slivers_dropped > 0
    assert_table_equals_lists(neighbor_map(tri), neighbor_lists(tri))


# Default-generator 3D n=60 clouds on which a super-tetrahedron kernel with a
# hull-pocket repair built a wrong tetrahedralization (15 of the 720 clouds of
# seeds 1-30 with 24 clouds each, cloud seed = 1000 * seed + cloud index).
KERNEL_SEEDS = (1006, 7005, 12005, 13005, 14004, 14013, 15002, 15009,
                18002, 18015, 19004, 22007, 26002, 27005, 28016)
GENERIC_CLOUDS = [(60, s) for s in KERNEL_SEEDS] + [(300, 1)]


def _kernel_cloud(case):
    if case == "lattice":
        return np.array(list(product(range(3), repeat=3)), dtype=float)
    n, seed = case
    return uniform_points(3, n, seed)


def _hull_volume(pts):
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    corners = {(x, y, z) for x in (lo[0], hi[0]) for y in (lo[1], hi[1]) for z in (lo[2], hi[2])}
    if corners <= set(map(tuple, pts.tolist())):
        return float(np.prod(hi - lo))  # the cloud holds its box's corners: the hull is the box
    return convex_hull_volume(pts)


@pytest.mark.parametrize("case", GENERIC_CLOUDS + ["lattice"], ids=str)
def test_tetrahedralization_kernel_regressions(case):
    from collections import Counter

    pts = _kernel_cloud(case)
    tet = tetrahedralize3(pts)
    ok, witness = empty_circumspheres(pts, tet.tetrahedra, eps=1e-9)
    assert ok, f"circumsphere violated: {witness}"
    uses = Counter(tuple(sorted(np.delete(row, k))) for row in tet.tetrahedra for k in range(4))
    assert max(uses.values()) <= 2
    total = sum(tetra_volume(pts[a], pts[b], pts[c], pts[d]) for a, b, c, d in tet.tetrahedra)
    assert total == pytest.approx(_hull_volume(pts), rel=1e-9)


@pytest.mark.parametrize("case", GENERIC_CLOUDS, ids=str)
def test_tetrahedralization_equals_qhull(case):
    spatial = pytest.importorskip("scipy.spatial")
    pts = _kernel_cloud(case)
    mine = {tuple(sorted(row)) for row in tetrahedralize3(pts).tetrahedra.tolist()}
    qhull = {tuple(sorted(row)) for row in spatial.Delaunay(pts).simplices.tolist()}
    assert mine == qhull


# 2D twins of the clouds above: default-generator clouds, the interior-only
# clouds of test_interior_only_cloud_covers_hull, an exactly cocircular square
# lattice, and scaled hexagon patches whose straight borders round into hull
# slivers that the kernel drops.
GENERIC_CLOUDS_2D = ([(n, s) for n in (20, 50, 400) for s in range(5)]
                     + [("interior", s) for s in (12, 20, 27, 31)])
CLOUDS_2D = GENERIC_CLOUDS_2D + ["lattice", "lattice corners first"] + [("hexagon", s) for s in range(4)]


def _corners_first(pts):
    corner = np.all((pts == pts.min(axis=0)) | (pts == pts.max(axis=0)), axis=1)
    return np.vstack([pts[corner], pts[~corner][::-1]])


def _kernel_cloud_2d(case):
    if case == "lattice":
        return np.array(list(product(range(5), repeat=2)), dtype=float)
    if case == "lattice corners first":
        # later border points land strictly inside hull edges, on their lines
        return _corners_first(np.array(list(product(range(5), repeat=2)), dtype=float))
    kind, seed = case
    if kind == "interior":
        return uniform_points(2, 150, seed, boundary=False, min_sep_factor=0.2)
    if kind == "hexagon":
        return hexagon_patch(3, seed) * 3.7
    return uniform_points(2, kind, seed)


@pytest.mark.parametrize("case", CLOUDS_2D, ids=str)
def test_triangulation_kernel_regressions(case):
    from collections import Counter

    pts = _kernel_cloud_2d(case)
    tri = triangulate2(pts)
    ok, witness = empty_circumcircles(pts, tri.triangles, eps=1e-9)
    assert ok, f"circumcircle violated: {witness}"
    uses = Counter(tuple(sorted(np.delete(row, k))) for row in tri.triangles for k in range(3))
    assert max(uses.values()) <= 2
    total = sum(triangle_area(pts[a], pts[b], pts[c]) for a, b, c in tri.triangles)
    assert total == pytest.approx(convex_hull_area(pts), rel=1e-9)
    if "lattice" in case:
        assert len(tri.triangles) == 32 and tri.hull_slivers_dropped == 0
    if case[0] == "hexagon":
        assert tri.hull_slivers_dropped > 0


@pytest.mark.parametrize("case", GENERIC_CLOUDS_2D, ids=str)
def test_triangulation_equals_qhull(case):
    spatial = pytest.importorskip("scipy.spatial")
    pts = _kernel_cloud_2d(case)
    mine = {tuple(sorted(row)) for row in triangulate2(pts).triangles.tolist()}
    qhull = {tuple(sorted(row)) for row in spatial.Delaunay(pts).simplices.tolist()}
    assert mine == qhull


@pytest.mark.parametrize("dim", (2, 3))
def test_far_from_origin_cloud_triangulates_the_same(dim):
    # Coordinates on a 2^-20 grid, shifted by 2^24 without rounding: exact
    # predicates give the same simplices, and the cached float tests must
    # hand every case their rounding can decide wrongly to them.
    pts = np.round(uniform_points(dim, 60 if dim == 2 else 30, 5) * 2.0**20) / 2.0**20
    kernel = triangulate2 if dim == 2 else tetrahedralize3
    assert np.array_equal(kernel(pts + 2.0**24).simplices, kernel(pts).simplices)


@pytest.mark.parametrize("case", ["lattice", "flat-faced box"])
def test_exactly_flat_hull_drops_no_sliver(case):
    # Points exactly on a hull face, inserted after the face's corners, fall
    # strictly inside the face's circumcircle: the ghost rule takes them in
    # without a flat tetrahedron to drop.
    from collections import Counter

    pts = _corners_first(np.array(list(product(range(3), repeat=3)), dtype=float)
                         if case == "lattice" else flat_faced_box())
    tet = tetrahedralize3(pts)
    assert tet.hull_slivers_dropped == 0
    ok, witness = empty_circumspheres(pts, tet.tetrahedra, eps=1e-9)
    assert ok, witness
    uses = Counter(tuple(sorted(np.delete(row, k))) for row in tet.tetrahedra for k in range(4))
    assert max(uses.values()) <= 2
    total = sum(tetra_volume(pts[a], pts[b], pts[c], pts[d]) for a, b, c, d in tet.tetrahedra)
    assert total == pytest.approx(np.prod(pts.max(axis=0) - pts.min(axis=0)), rel=1e-12)


def test_convex_hull_volume_counts_flat_faces_once():
    # unit cube corners, points on its faces (many coplanar hull triples) and inside
    rng = np.random.default_rng(3)
    corners = np.array([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], dtype=float)
    face = rng.random((30, 3))
    face[np.arange(30), rng.integers(0, 3, 30)] = rng.integers(0, 2, 30)
    pts = np.vstack([corners, face, 0.1 + 0.8 * rng.random((10, 3))])
    assert convex_hull_volume(pts) == pytest.approx(1.0, rel=1e-12)
    tet = tetrahedralize3(pts)
    total = sum(tetra_volume(pts[a], pts[b], pts[c], pts[d]) for a, b, c, d in tet.tetrahedra)
    assert total == pytest.approx(1.0, rel=1e-12)
    ok, witness = empty_circumspheres(pts, tet.tetrahedra, eps=1e-9)
    assert ok, witness


# ---------------------------------------------------------------------------
# The walking kernel against the scanning reference (oracles.bowyer_watson_scan):
# the same simplices, adjacency and dropped slivers, on generator sweeps and
# on degenerate sets.

def _cocircular() -> np.ndarray:
    """The 16 integer points on x^2 + y^2 = 65, and their centre."""
    ring = {(s * x, t * y) for x, y in ((1, 8), (8, 1), (4, 7), (7, 4)) for s in (1, -1) for t in (1, -1)}
    return np.array(sorted(ring) + [(0, 0)], dtype=float)


def _cospherical() -> np.ndarray:
    """The 30 integer points on x^2 + y^2 + z^2 = 9, and their centre."""
    axes = [(3, 0, 0), (1, 2, 2)]
    shell = {tuple(s * v for s, v in zip(signs, perm)) for base in axes
             for perm in set(permutations(base)) for signs in product((1, -1), repeat=3)}
    return np.array(sorted(shell) + [(0, 0, 0)], dtype=float)


def _lattice(dim: int, k: int) -> np.ndarray:
    return np.array(list(product(range(k), repeat=dim)), dtype=float)


def _permuted(pts: np.ndarray, seed: int = 0) -> np.ndarray:
    return pts[np.random.default_rng(seed).permutation(len(pts))]


SWEEP = [(2, n, s) for n in (20, 100, 400, 2000) for s in range(5)] + \
        [(3, n, s) for n in (30, 60, 300) for s in range(5)]

DEGENERATE = {
    "hex patch 1": lambda: hexagon_patch(1, 0, jitter=0.0),
    "hex patch 4": lambda: hexagon_patch(4, 0, jitter=0.0),
    "hex patch 4 jittered": lambda: hexagon_patch(4, 1),
    "hexagon 0": lambda: hexagon_patch(3, 0) * 3.7,
    "hexagon 3": lambda: hexagon_patch(3, 3) * 3.7,
    "square 8": lambda: _lattice(2, 8),
    "square 8 permuted": lambda: _permuted(_lattice(2, 8)),
    "square 5 corners first": lambda: _corners_first(_lattice(2, 5)),
    "cube 4": lambda: _lattice(3, 4),
    "cube 4 permuted": lambda: _permuted(_lattice(3, 4)),
    "cube 3 corners first": lambda: _corners_first(_lattice(3, 3)),
    "flat-faced box": flat_faced_box,
    "cocircular": _cocircular,
    "cocircular centre first": lambda: _cocircular()[::-1],
    "cospherical": _cospherical,
    "cospherical centre first": lambda: _cospherical()[::-1],
    "2D cloud offset by 1e6": lambda: uniform_points(2, 400, 1) + 1e6,
    "3D cloud offset by 1e6": lambda: uniform_points(3, 60, 1) + 1e6,
}


def _assert_same_as_scan(pts: np.ndarray):
    tri = triangulate2(pts) if pts.shape[1] == 2 else tetrahedralize3(pts)
    simplices, adjacency, dropped = bowyer_watson_scan(np.asarray(pts, dtype=float))
    assert np.array_equal(tri.simplices, simplices)
    assert np.array_equal(tri.adjacency, adjacency)
    assert tri.hull_slivers_dropped == dropped
    return tri


@pytest.mark.parametrize("dim,n,seed", SWEEP)
def test_kernel_equals_scan_on_generator_clouds(dim, n, seed):
    tri = _assert_same_as_scan(uniform_points(dim, n, seed))
    # The walks start near their points: a few steps each, not a scan.
    assert tri.walk_steps < 8 * n


@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_kernel_equals_scan_on_degenerate_sets(case):
    _assert_same_as_scan(DEGENERATE[case]())


@pytest.mark.parametrize("dim", (2, 3))
def test_huge_coordinates_triangulate_as_unit_ones(dim):
    # The kernel scales the points by a power of two: u * 2^600 is u to
    # every predicate, to the sliver rule and to the duplicate tolerance
    # (relative to the diagonal), and no float test overflows or underflows.
    u = uniform_points(dim, 400 if dim == 2 else 60, 1)
    kernel = triangulate2 if dim == 2 else tetrahedralize3
    base = kernel(u)
    for big in (u * 2.0**600, u * 1e200, u * 2.0**-600, u * 1e-200):
        tri = kernel(big)
        assert np.array_equal(tri.simplices, base.simplices)
        assert np.array_equal(tri.adjacency, base.adjacency)
        assert tri.hull_slivers_dropped == base.hull_slivers_dropped


def test_box_face_points_take_few_exact_tests():
    # Points on a box face lie exactly in the plane of the face's ghosts;
    # the filters decide those in-plane tests in floating point.
    tet = tetrahedralize3(uniform_points(3, 300, 1))
    assert tet.exact_tests < 100


def _nudged(pts: np.ndarray, seed: int) -> np.ndarray:
    """pts with every coordinate moved by -1, 0 or +1 ulp at random."""
    step = np.random.default_rng(seed).integers(-1, 2, pts.shape)
    return np.where(step > 0, np.nextafter(pts, np.inf), np.where(step < 0, np.nextafter(pts, -np.inf), pts))


def _box_faces(dim: int, seed: int) -> np.ndarray:
    """Unit-box points, each on a face (one coordinate 0 or 1), and a few inside."""
    rng = np.random.default_rng(seed)
    pts = rng.random((40, dim))
    pts[np.arange(32), rng.integers(0, dim, 32)] = rng.integers(0, 2, 32)
    return pts


PREDICATE_SETS = {
    "cocircular": lambda s: _cocircular() / 8.0,
    "cocircular nudged": lambda s: _nudged(_cocircular() / 8.0, s),
    "square nudged": lambda s: _nudged(_lattice(2, 5) / 4.0, s),
    "2D box faces": lambda s: _box_faces(2, s),
    "cospherical": lambda s: _cospherical() / 4.0,
    "cospherical nudged": lambda s: _nudged(_cospherical() / 4.0, s),
    "cube nudged": lambda s: _nudged(_lattice(3, 3) / 2.0, s),
    "3D box faces": lambda s: _box_faces(3, s),
}


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


@pytest.mark.parametrize("case", sorted(PREDICATE_SETS))
def test_float_filters_abstain_or_agree_with_exact(case):
    from cvmesh.delaunay import (
        GHOST, _conflict_exact, _dot2_filter, _exact_coords, _incircle_exact, _incircle_filter,
        _insphere_exact, _insphere_filter, _orient2_exact, _orient2_filter, _orient3_exact,
        _orient3_filter, _Predicates,
    )

    for seed in range(3):
        pts = PREDICATE_SETS[case](seed)
        n, d = pts.shape
        P = [tuple(p) for p in pts.tolist()]
        xp = _exact_coords(pts)
        tests = _Predicates(pts)
        rng = np.random.default_rng(seed)
        for _ in range(3000):
            ids = rng.choice(n, d + 2, replace=False).tolist()
            *row, p = ids
            if d == 2:
                pairs = [(_orient2_filter(*(P[v] for v in row)), _orient2_exact(*(xp[v] for v in row))),
                         (_incircle_filter(*(P[v] for v in ids)), _incircle_exact(*(xp[v] for v in ids))),
                         (_dot2_filter(P[row[0]], P[row[1]], P[p]),
                          sum((a - c) * (b - c) for a, b, c in zip(xp[row[0]], xp[row[1]], xp[p])))]
            else:
                pairs = [(_orient3_filter(*(P[v] for v in row)), _orient3_exact(*(xp[v] for v in row))),
                         (_insphere_filter(*(P[v] for v in ids)), _insphere_exact(*(xp[v] for v in ids)))]
            for got, want in pairs:
                assert got in (0, _sign(want)), (ids, got, want)
            # The kernel's tests, filter and fallback together, are exact.
            for r in (row, row[:d] + [GHOST]):
                assert tests.conflict(r, p) == _conflict_exact(xp, r, p), (r, p)
            assert tests.orient(row[:d], p) == _sign((_orient2_exact if d == 2 else _orient3_exact)(
                *(xp[v] for v in row[:d]), xp[p]))


def test_walk_that_does_not_end_raises(monkeypatch):
    # An orientation filter that lies for the last point: from any triangle
    # around the centre it sends the walk across the spoke ahead, so the walk
    # circles the centre. The kernel stops it after as many steps as there
    # are simplices and names the point instead of hanging.
    import cvmesh.delaunay as delaunay
    from cvmesh.errors import PointLocationFailed

    ring = [(np.cos(a), np.sin(a)) for a in np.arange(6) * np.pi / 3]
    pts = np.array(ring + [(0.0, 0.0), (0.1, 0.05)])
    # The kernel sees the points scaled by 1/2, and the centre was inserted
    # last in the last point's grid cell, so that walk starts next to it.
    last, centre = (0.05, 0.025), (0.0, 0.0)
    honest = delaunay._orient2_filter

    def lying(a, b, c):
        if c != last:
            return honest(a, b, c)
        return -1 if b == centre else 1

    monkeypatch.setattr(delaunay, "_orient2_filter", lying)
    with pytest.raises(PointLocationFailed, match="point 7"):
        triangulate2(pts)
