import math
from fractions import Fraction

import numpy as np
import pytest

from cvmesh.delaunay import Triangulation2, _adjacency, neighbor_map, tetrahedralize3, triangulate2
from cvmesh.errors import DegenerateTriangle, EmptyInterval
import cvmesh.solver
from cvmesh.optimize import OptimizeResult, OptimizerParams, rosenbrock_minimize, soft_selection_minimize
from cvmesh.solver import (
    SimplexSystems,
    VolumeMode,
    _lm_polish,
    _lower_bounds,
    bounds_arrays,
    classify_overlap,
    max_radii,
    simplex_systems,
    solve_radii,
)

from conftest import bcc_cell, exact_instance, hexagon_patch, radical_centers, uniform_points
from oracles import (einsum_offsets, gauss_solve, neighbor_lists, newton_equal_power_2d,
                     overlap_loop, radical_center_exact, radius_bounds_loop, tetra_height)


def test_vertex2_common_point_of_three_circles():
    q, power = radical_centers([[(1, 0), (0, 2), (-3, -4)]], [[1, 2, 5]])
    assert q[0, 0] == pytest.approx(0.0, abs=1e-14)
    assert q[0, 1] == pytest.approx(0.0, abs=1e-14)
    assert abs(power[0]) == pytest.approx(0.0, abs=1e-14)


def test_vertex2_equal_radii_is_circumcenter():
    for r in (0.1, 1.0, 17.3):
        q, _ = radical_centers([[(0, 0), (1, 0), (0, 1)]], [[r, r, r]])
        assert q[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert q[0, 1] == pytest.approx(0.5, abs=1e-12)


def test_vertex2_matches_newton_oracle():
    centers = [(0, 0), (2, 0), (1, 2)]
    radii = [1.2, 1.2, 1.0]
    expected = newton_equal_power_2d(centers, radii, x0=(1.0, 0.5))
    q, _ = radical_centers([centers], [radii])
    assert q[0, 0] == pytest.approx(expected[0], abs=1e-10)
    assert q[0, 1] == pytest.approx(expected[1], abs=1e-10)


def test_vertex2_degenerate_centers():
    # Collinear centres never reach the radical-centre formula: the radius
    # bounds the solver computes first reject their triangle.
    pts = np.array([(0, 0), (1, 1), (2, 2)], dtype=float)
    triangles = np.array([[0, 1, 2]])
    tri = Triangulation2(points=pts, triangles=triangles, adjacency=_adjacency(triangles))
    with pytest.raises(DegenerateTriangle):
        solve_radii(tri, neighbor_map(tri), equal_radii=True)


def test_vertex2_equal_power_property():
    rng = np.random.default_rng(1)
    draws = [(rng.standard_normal((3, 2)) * 3, 0.2 + rng.random(3)) for _ in range(300)]
    c = np.asarray([d[0] for d in draws])
    r = np.asarray([d[1] for d in draws])
    q, _ = radical_centers(c, r)
    for k in range(300):
        powers = np.sum((q[k] - c[k]) ** 2, axis=1) - r[k] ** 2
        scale = max(np.linalg.norm(c[k, i] - c[k, j]) for i in range(3) for j in range(i))
        assert np.max(np.abs(powers - powers[0])) <= 1e-9 * scale**2


def test_vertex3_symmetric_centers():
    q, power = radical_centers([[(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)]], [[1, 1, 1, 1]])
    assert np.allclose(q[0], (0, 0, 0), atol=1e-12)
    assert abs(power[0]) == pytest.approx(0.0, abs=1e-12)


def test_vertex3_probe_construction():
    rng = np.random.default_rng(2)
    for _ in range(50):
        c = rng.standard_normal((4, 3))
        if abs(np.linalg.det(np.vstack([c[1] - c[0], c[2] - c[0], c[3] - c[0]]))) < 1e-2:
            continue
        probe = rng.standard_normal(3)
        r = np.linalg.norm(c - probe, axis=1)
        q, power = radical_centers([c], [r])
        assert np.allclose(q[0], probe, atol=1e-8)
        assert abs(power[0]) < 1e-8


def test_vertex3_matches_gauss_oracle():
    rng = np.random.default_rng(3)
    draws = [(rng.standard_normal((4, 3)) * 2, 0.2 + rng.random(4)) for _ in range(300)]
    q, _ = radical_centers([d[0] for d in draws], [d[1] for d in draws])
    for (c, r), got in zip(draws, q):
        a = 2.0 * (c[0] - c[1:])
        b = np.array([
            r[k] ** 2 - r[0] ** 2 + float(c[0] @ c[0] - c[k] @ c[k]) for k in (1, 2, 3)
        ])
        expected = gauss_solve(a, b)
        assert np.allclose(got, expected, rtol=1e-10, atol=1e-12)


def test_cramer_determinants_solve_the_system():
    # The 3D centers solve the pairwise-difference system.
    rng = np.random.default_rng(4)
    for _ in range(100):
        c = rng.standard_normal((4, 3)) * 2
        if abs(np.linalg.det(np.vstack([c[1] - c[0], c[2] - c[0], c[3] - c[0]]))) < 1e-2:
            continue
        r = 0.3 + rng.random(4)
        q, _ = radical_centers([c], [r])
        rows = 2.0 * (c[0] - c[1:])
        d = np.array([r[k] ** 2 - r[0] ** 2 + float(c[0] @ c[0] - c[k] @ c[k]) for k in (1, 2, 3)])
        assert np.allclose(rows @ q[0], d, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("shift", [1e3, 1e5])
@pytest.mark.parametrize("dim", [2, 3])
def test_vertices_match_exact_centers_far_from_origin(dim, shift):
    """On a unit-extent cloud shifted far from the origin, every radical
    center is within 1e-10 of the exact rational one: the centers are solved
    relative to each simplex's first corner, so the shift costs no digits."""
    pts = uniform_points(dim, 30 if dim == 2 else 20, seed=1)
    tri = triangulate2(pts) if dim == 2 else tetrahedralize3(pts)
    r = 0.5 * np.min(max_radii(neighbor_map(tri), pts)) * (1.0 + np.random.default_rng(dim).random(len(pts)))
    far = pts + shift
    q = SimplexSystems(far, tri.simplices).vertices(r)
    err = max(abs(Fraction(float(got)) - want)
              for s, row in zip(tri.simplices, q)
              for got, want in zip(row, radical_center_exact(far[s], r[s])))
    assert err <= 1e-10


def _hexagon_with_center():
    pts = [(0.0, 0.0)]
    for k in range(6):
        pts.append((math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)))
    return np.asarray(pts)


def _bounds(tri, i):
    """(lo, hi) of point i from the pipeline's bounds pass; i's interval must
    not be empty."""
    lo, hi, clamped = bounds_arrays(neighbor_map(tri), tri.points, policy="clamp")
    assert i not in clamped
    return lo[i], hi[i]


def test_radius_bounds2_hexagon():
    pts = _hexagon_with_center()
    tri = triangulate2(pts)
    lo, hi = _bounds(tri, 0)
    assert hi == pytest.approx(math.sqrt(3) / 2, rel=1e-12)
    assert lo == pytest.approx(1 - math.sqrt(3) / 2, rel=1e-12)


def test_radius_bounds2_right_triangle():
    tri = triangulate2([(0, 0), (1, 0), (0, 1)])
    _, hi = _bounds(tri, 0)
    assert hi == pytest.approx(1.0)  # min of the two legs at the right angle


def test_radius_bounds2_needs_full_rmax_field():
    pts = _hexagon_with_center()
    tri = triangulate2(pts)
    # corner r_max equals the equilateral height, so lo = L - h at every corner
    for i in range(1, 7):
        lo, _ = _bounds(tri, i)
        assert lo == pytest.approx(1 - math.sqrt(3) / 2, rel=1e-12)


def test_radius_bounds3_corner_tetra():
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    tet = tetrahedralize3(pts)
    lo, hi = _bounds(tet, 0)
    assert hi == pytest.approx(1 / math.sqrt(3), rel=1e-12)
    assert lo == 0.0


def test_radius_bounds3_regular_simplex_symmetry():
    s = 1 / math.sqrt(2)
    pts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float) * s
    tet = tetrahedralize3(pts)
    his = [_bounds(tet, i)[1] for i in range(4)]
    assert np.allclose(his, his[0], rtol=1e-12)


def test_radius_bounds3_stacked_tets_take_min_height():
    base = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.4, 1.1, 0.0)]
    pts = np.array(base + [(0.5, 0.4, 0.9), (0.45, 0.35, -0.6)])
    tet = tetrahedralize3(pts)
    assert len(tet.tetrahedra) == 2
    stars = neighbor_lists(tet).stars
    for i in range(3):  # shared-face vertices sit in both tets
        h1 = tetra_height(pts[i], *[pts[v] for v in stars[i][0]])
        h2 = tetra_height(pts[i], *[pts[v] for v in stars[i][1]])
        assert _bounds(tet, i)[1] == pytest.approx(min(h1, h2), rel=1e-12)


def test_empty_interval_reports_blocker():
    pts = uniform_points(2, 50, 1)
    tri = triangulate2(pts)
    nm = neighbor_map(tri)
    with pytest.raises(EmptyInterval) as err:
        bounds_arrays(nm, tri.points, policy="strict")
    assert err.value.blocking_neighbor is not None
    lo, hi, clamped = bounds_arrays(nm, tri.points, policy="clamp")
    assert clamped and np.all(hi > lo)


BOUNDS_SWEEP = (
    [(2, n, s) for n in (20, 50) for s in (1, 2, 3)] + [(2, 400, 1), (2, 400, 2)]
    + [(3, 30, s) for s in (1, 2, 3)] + [(3, 60, 1), (3, 60, 2), (3, 200, 1)]
)


@pytest.mark.parametrize("dim,n,seed", BOUNDS_SWEEP)
def test_bounds_match_per_point_reference(dim, n, seed):
    # The array code sums in another order than the scalar loop: 1e-13 relative.
    pts = uniform_points(dim, n, seed)
    tri = triangulate2(pts) if dim == 2 else tetrahedralize3(pts)
    nm = neighbor_map(tri)
    r_max, lo_ref, hi_ref, blocking = radius_bounds_loop(neighbor_lists(tri), tri.points)
    got = max_radii(nm, tri.points)
    np.testing.assert_allclose(got, r_max, rtol=1e-13, atol=0.0)
    empty = [i for i in range(n) if lo_ref[i] >= hi_ref[i]]

    lo, hi, clamped = bounds_arrays(nm, tri.points, policy="clamp")
    assert clamped == empty
    np.testing.assert_allclose(hi, hi_ref, rtol=1e-13, atol=0.0)
    lo_ref[empty] = 0.0
    assert np.all(np.abs(lo - lo_ref) <= 1e-13 * np.maximum(lo_ref, hi_ref))

    # Every empty interval names the neighbour the reference names.
    _, got_blocking = _lower_bounds(nm, tri.points, got)
    assert [int(got_blocking[i]) for i in empty] == [blocking[i] for i in empty]
    if empty:
        with pytest.raises(EmptyInterval) as err:
            bounds_arrays(nm, tri.points, policy="strict")
        assert (err.value.point, err.value.blocking_neighbor) == (empty[0], blocking[empty[0]])
    else:
        strict = bounds_arrays(nm, tri.points, policy="strict")
        assert np.array_equal(strict[0], lo) and np.array_equal(strict[1], hi)


def test_objective_zero_on_constructed_instance():
    pts, tri, nm, r_star, lo, hi = exact_instance(5)
    assert simplex_systems(tri).objective(r_star) < 1e-20


def test_objective_equal_radii_matches_circumradius_formula():
    pts = hexagon_patch(2, seed=0)
    tri = triangulate2(pts)
    r = 0.4
    expected = 0.0
    for t in tri.triangles:
        a, b, c = pts[t]
        the = simplex_systems(tri)
        la = np.linalg.norm(b - c)
        lb = np.linalg.norm(c - a)
        lc = np.linalg.norm(a - b)
        area = 0.5 * abs((b - a)[0] * (c - a)[1] - (b - a)[1] * (c - a)[0])
        circumradius = la * lb * lc / (4 * area)
        w = ((la + lb + lc) / 3.0) ** -4
        expected += w * (circumradius**2 - r**2) ** 2
    got = simplex_systems(tri).objective(np.full(len(pts), r))
    assert got == pytest.approx(expected, rel=1e-10)


def test_objective_scale_invariant():
    pts = hexagon_patch(2, seed=3)
    tri = triangulate2(pts)
    r = 0.3 + 0.1 * np.random.default_rng(5).random(len(pts))
    base = simplex_systems(tri).objective(r)
    for lam in (0.01, 3.7, 250.0):
        tri_scaled = triangulate2(pts * lam)
        assert simplex_systems(tri_scaled).objective(r * lam) == pytest.approx(base, rel=1e-9)


def test_classify_overlap_boundary_and_strict():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.8]])
    tri = triangulate2(pts)
    nm = neighbor_map(tri)
    # tangency (equality) counts as overlapping; the pair (0, 1) is row 0
    # of the sorted i < j edges
    for r, label in (([1.0, 1.0, 0.1], True), ([0.9, 0.9, 0.1], False), ([1.5, 0.6, 0.1], True)):
        mode = classify_overlap(np.array(r), nm, pts)
        assert mode.edges.tolist() == [[0, 1], [0, 2], [1, 2]]
        assert mode.overlapping[0] == label


def test_classify_overlap_partitions_all_neighbor_pairs():
    pts = hexagon_patch(2, seed=1)
    tri = triangulate2(pts)
    nm = neighbor_map(tri)
    r = 0.3 * np.ones(len(pts))
    mode = classify_overlap(r, nm, pts)
    expected_pairs = {tuple(sorted(e)) for e in tri.edges().tolist()}
    assert len(mode.edges) == len(mode.overlapping) == len(expected_pairs)
    assert set(map(tuple, mode.edges.tolist())) == expected_pairs


def test_classify_overlap_matches_pair_loop():
    """One distance pass over the unique neighbour pairs labels every pair
    as the pair-at-a-time loop does, tangency bits included."""
    for dim, n, seed in ((2, 400, 1), (3, 60, 2), (3, 200, 3)):
        pts = uniform_points(dim, n, seed)
        tri = triangulate2(pts) if dim == 2 else tetrahedralize3(pts)
        nm = neighbor_map(tri)
        base = 0.5 * np.median(np.linalg.norm(pts[tri.edges()[:, 0]] - pts[tri.edges()[:, 1]], axis=1))
        # tangent pairs: r_i = r_j = |p_i - p_j| / 2 on disjoint edges, so
        # the label rests on the last bit of the distance
        tangent = np.full(n, base)
        for i, j in tri.edges().tolist():
            if tangent[i] == base and tangent[j] == base:
                tangent[i] = tangent[j] = np.linalg.norm(pts[i] - pts[j]) / 2
        rng = np.random.default_rng(seed)
        for r in [tangent] + [s * base * rng.uniform(0.7, 1.3, n) for s in (0.8, 1.0, 1.2)]:
            mode = classify_overlap(r, nm, pts)
            expected = overlap_loop(r, neighbor_lists(tri), pts)
            got = dict(zip(map(tuple, mode.edges.tolist()), mode.overlapping.tolist()))
            assert got == expected
            assert 0 < sum(expected.values()) < len(expected)
            assert np.array_equal(mode.edges, np.array(sorted(expected)))


@pytest.mark.parametrize("n, seed", [(400, 0), (400, 1), (400, 2), (2000, 1), (64, None)])
def test_classify_overlap_2d_edges_are_the_unique_pairs(n, seed):
    """In 2D the rows with owner < nbr give each edge once, so the sorted
    keys classify_overlap keeps are the np.unique of those keys: on
    generator clouds and on the 8 x 8 unit lattice (seed None)."""
    if seed is None:
        g = np.linspace(0.0, 1.0, 8)
        pts = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    else:
        pts = uniform_points(2, n, seed)
    nm = neighbor_map(triangulate2(pts))
    i, j = nm.pairs()
    key = np.unique(i[i < j] * len(pts) + j[i < j])
    mode = classify_overlap(np.full(len(pts), 0.01), nm, pts)
    assert np.array_equal(mode.edges, np.column_stack(np.divmod(key, len(pts))))


def test_solve_radii_single_triangle_exact():
    pts = np.array([[0.0, 0.0], [1.0, 0.1], [0.45, 0.95]])
    tri = triangulate2(pts)
    nm = neighbor_map(tri)
    sol = solve_radii(tri, nm, pts, mode=VolumeMode.EXACT_INTERSECTION, seed=0)
    assert sol.objective < 1e-10
    assert sol.radii.shape == (3,) and sol.mode is VolumeMode.EXACT_INTERSECTION
    assert np.all(sol.radii > sol.lo) and np.all(sol.radii < sol.hi)


def test_solve_radii_radical_center_midpoints():
    pts = hexagon_patch(2, seed=2)
    tri = triangulate2(pts)
    nm = neighbor_map(tri)
    sol = solve_radii(tri, nm, pts, mode=VolumeMode.RADICAL_CENTER, bounds_policy="strict")
    assert sol.mode is VolumeMode.RADICAL_CENTER
    assert np.allclose(sol.radii, 0.5 * (sol.lo + sol.hi))
    verts = simplex_systems(tri).vertices(sol.radii)
    assert np.all(np.isfinite(verts))


def test_solve_radii_equal_override():
    pts = bcc_cell(seed=0)
    tet = tetrahedralize3(pts)
    nm = neighbor_map(tet)
    sol = solve_radii(tet, nm, pts, equal_radii=True)
    assert sol.radii.shape == (len(pts),) and np.all(sol.radii == sol.radii[0])
    assert sol.status == "equal-radii" and sol.mode is VolumeMode.RADICAL_CENTER


def test_solve_radii_deterministic():
    pts, tri, nm, r_star, lo, hi = exact_instance(6)
    a = solve_radii(tri, nm, pts, mode=VolumeMode.EXACT_INTERSECTION, seed=42, bounds_policy="clamp")
    b = solve_radii(tri, nm, pts, mode=VolumeMode.EXACT_INTERSECTION, seed=42, bounds_policy="clamp")
    assert np.array_equal(a.radii, b.radii)
    assert a.objective == b.objective


def test_solver_outputs_respect_strict_bounds():
    pts = hexagon_patch(3, seed=4)
    tri = triangulate2(pts)
    nm = neighbor_map(tri)
    sol = solve_radii(tri, nm, pts, mode=VolumeMode.RADICAL_CENTER, bounds_policy="strict")
    assert np.all(sol.radii > sol.lo) and np.all(sol.radii < sol.hi)


def _row_by_row(obj, X):
    return obj(X) if X.ndim == 1 else np.array([obj(x) for x in X])


@pytest.mark.parametrize("build", [
    lambda: exact_instance(5)[1],
    lambda: exact_instance(6)[1],
    lambda: exact_instance(7)[1],
    lambda: triangulate2(hexagon_patch(3, seed=7)),
    lambda: triangulate2(uniform_points(2, 40, seed=3)),
    lambda: tetrahedralize3(bcc_cell(seed=0)),
    lambda: tetrahedralize3(uniform_points(3, 30, seed=4)),
], ids=["exact5", "exact6", "exact7", "hex3", "uniform2d", "bcc", "uniform3d"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_batched_objective_equals_row_by_row(build, order):
    tri = build()
    systems = simplex_systems(tri)
    pop = np.asarray(0.2 + 0.4 * np.random.default_rng(0).random((140, len(tri.points))),
                     order=order)
    batch = systems.objective(pop)
    assert batch.shape == (len(pop),)
    assert np.array_equal(batch, _row_by_row(systems.objective, pop))
    assert isinstance(systems.objective(pop[0]), float)
    powers = systems.powers(pop)
    vertices = systems.vertices(pop)
    for k in (0, 57, len(pop) - 1):
        row = np.ascontiguousarray(pop[k])
        assert np.array_equal(powers[k], systems.powers(row))
        assert np.array_equal(vertices[k], systems.vertices(row))


@pytest.fixture(scope="module", params=[(2, 400), (3, 200)], ids=["2d-n400", "3d-n200"])
def generator_systems(request):
    dim, n = request.param
    pts = uniform_points(dim, n, seed=1)
    tri = triangulate2(pts) if dim == 2 else tetrahedralize3(pts)
    return SimplexSystems(pts, tri.simplices), 0.5 * np.min(max_radii(neighbor_map(tri), pts))


@pytest.mark.parametrize("size", [1, 5, 141])
@pytest.mark.parametrize("order", ["C", "F"])
def test_stacks_across_blocks_equal_row_by_row(generator_systems, size, order):
    """Stacks that span several kernel blocks, with a last block the stack
    does not fill, give every row bit for bit as that row alone; so does a
    stack of one. A later call leaves the arrays an earlier one returned
    as they were."""
    systems, r_min = generator_systems
    n = systems.n_points
    most = cvmesh.solver.BLOCK // (systems.K.shape[0] * len(systems))
    width = -(-size // -(-size // most))                # the blocks' width, as even as it goes
    if size == 141:
        assert 1 < width < size and size % width        # several blocks; the last one not full
    pop = np.asarray(r_min * (1.0 + np.random.default_rng(size).random((size, n))), order=order)
    objective, powers, vertices = systems.objective(pop), systems.powers(pop), systems.vertices(pop)
    kept = objective.copy(), powers.copy(), vertices.copy()
    single = [(systems.objective(row), systems.powers(row), systems.vertices(row))
              for row in map(np.ascontiguousarray, pop)]
    assert np.array_equal(objective, [o for o, _, _ in single])
    assert np.array_equal(powers, [p for _, p, _ in single])
    assert np.array_equal(vertices, [v for _, _, v in single])
    for got, want in zip((objective, powers, vertices), kept):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("shift", [0.0, 1e3])
@pytest.mark.parametrize("dim", [2, 3])
def test_block_kernel_matches_einsum_reference(dim, shift):
    """The one block kernel gives the centers, powers and vertices the
    per-coordinate einsum kernel gives, to within 2 ulp: for single radius
    vectors and for C- and F-ordered stacks. Einsum's summation order is no
    numpy contract, so the bound is not 0."""
    pts = uniform_points(dim, 40 if dim == 2 else 30, seed=5)
    tri = triangulate2(pts) if dim == 2 else tetrahedralize3(pts)
    systems = SimplexSystems(pts + shift, tri.simplices)
    K, c = systems.K.transpose(2, 0, 1), systems.c.T          # (T, d, d+1), (T, d)
    r_min = 0.5 * np.min(max_radii(neighbor_map(tri), pts))
    stack = r_min * (1.0 + np.random.default_rng(dim).random((50, len(pts))))
    for r in (stack, np.asfortranarray(stack), stack[7]):
        w = r ** 2
        y = einsum_offsets(systems.indices, K, c, systems.den, w)
        offsets = systems._stacked(r, systems._offsets)            # (d, T, ...) population last
        np.testing.assert_array_max_ulp(np.swapaxes(offsets, 0, -1), y, maxulp=2)
        np.testing.assert_array_max_ulp(systems.vertices(r), systems.p0 + y, maxulp=2)
        powers = np.sum(y * y, axis=-1) - w[..., systems.indices[:, 0]]
        np.testing.assert_array_max_ulp(systems.powers(r), powers, maxulp=2)


def test_soft_selection_batched_matches_row_by_row():
    pts, tri, nm, r_star, lo, hi = exact_instance(6)
    obj = simplex_systems(tri).objective
    params = OptimizerParams(generations=30)
    x0 = lo + 0.62 * (hi - lo)
    a = soft_selection_minimize(obj, (lo, hi), seed=5, params=params, x0=x0)
    b = soft_selection_minimize(lambda X: _row_by_row(obj, X), (lo, hi), seed=5,
                                params=params, x0=x0)
    assert np.array_equal(a.x, b.x)
    assert a.fun == b.fun
    assert a.n_eval == b.n_eval
    assert a.trace == b.trace


@pytest.mark.parametrize("shift", [0.0, 1e3])
@pytest.mark.parametrize("dim", [2, 3])
def test_jacobian_matches_central_differences(dim, shift):
    """Every row of `jacobian` matches central differences of `powers` in
    w = r^2 to 1e-7 of the row's largest entry. The powers are quadratic in
    w, so the differences are exact but for rounding."""
    pts = uniform_points(dim, 30 if dim == 2 else 20, seed=2)
    tri = triangulate2(pts) if dim == 2 else tetrahedralize3(pts)
    n = len(pts)
    r = 0.5 * np.min(max_radii(neighbor_map(tri), pts)) * (1.0 + np.random.default_rng(dim).random(n))
    systems = SimplexSystems(pts + shift, tri.simplices)
    jac = systems.jacobian(r)
    assert jac.shape == (len(systems), dim + 1)
    dense = np.zeros((len(systems), n))
    dense[np.arange(len(systems))[:, None], systems.indices] = jac

    w = r * r
    h = 1e-4 * w
    step = np.diag(h)                       # row k moves w_k alone
    fd = ((systems.powers(np.sqrt(w + step)) - systems.powers(np.sqrt(w - step))) / (2.0 * h[:, None])).T
    err = np.max(np.abs(fd - dense), axis=1) / np.max(np.abs(dense), axis=1)
    assert np.all(err < 1e-7), float(err.max())


def _es_best(systems, lo, hi, seed):
    """The evolution strategy's best radii, as solve_radii starts it, unpolished."""
    x0 = lo + 0.62 * (hi - lo)
    x0 = np.clip(x0, lo + 1e-9 * (hi - lo), hi - 1e-9 * (hi - lo))
    declined = OptimizeResult(x=x0, fun=np.inf, n_eval=0, converged=False, status="max-evals")
    return soft_selection_minimize(systems.objective, (lo, hi), seed=seed, x0=x0,
                                   polish=lambda x: declined)


@pytest.mark.parametrize("seed", range(1, 9))
def test_lm_polish_reaches_rosenbrock_objective_on_lattices(seed):
    """From the same evolution-strategy best, the Levenberg-Marquardt polish
    ends no higher than the Rosenbrock polish it replaced."""
    pts = hexagon_patch(2, seed)
    tri = triangulate2(pts)
    lo, hi, _ = bounds_arrays(neighbor_map(tri), pts, policy="clamp")
    systems = simplex_systems(tri)
    es = _es_best(systems, lo, hi, seed)
    lm = _lm_polish(systems, (lo, hi), None)(es.x)
    ros = rosenbrock_minimize(systems.objective, es.x, (lo, hi))
    assert lm.converged
    assert lm.fun <= ros.fun < es.fun
    assert lm.fun == systems.objective(lm.x)


def test_lm_polish_evaluates_only_strictly_inside_the_bounds(monkeypatch):
    seen = []
    lm = cvmesh.solver.levenberg_marquardt

    def recording(residuals, x0, bounds, params=None):
        def recorded(w):
            seen.append(np.sqrt(w))
            return residuals(w)
        return lm(recorded, x0, bounds, params)

    monkeypatch.setattr(cvmesh.solver, "levenberg_marquardt", recording)
    for seed in (1, 2, 3):
        pts = hexagon_patch(2, seed)
        tri = triangulate2(pts)
        sol = solve_radii(tri, neighbor_map(tri), pts, mode=VolumeMode.EXACT_INTERSECTION,
                          seed=seed, bounds_policy="clamp")
        assert len(seen) > 1
        for r in seen:
            assert np.all(r > sol.lo) and np.all(r < sol.hi)
        assert np.all(sol.radii > sol.lo) and np.all(sol.radii < sol.hi)
        seen.clear()


def test_lm_polish_stops_relative_on_generator_cloud():
    """On the 2D n=200 seed-1 generator cloud (exact mode, clamp) the polish
    stops once a step gains less than tol_f of the objective: at most 1000
    residual evaluations (2545 with the absolute 1e-14 stop), ending within
    1e-6 of the objective that stop reached, 2.5537394."""
    pts = uniform_points(2, 200, seed=1)
    tri = triangulate2(pts)
    sol = solve_radii(tri, neighbor_map(tri), pts, mode=VolumeMode.EXACT_INTERSECTION, seed=1,
                      bounds_policy="clamp")
    p = OptimizerParams()
    assert sol.n_eval - p.lam * p.generations <= 1000
    assert sol.objective == pytest.approx(2.5537394, rel=1e-6)


def test_lm_polish_solves_exact_instance():
    pts, tri, nm, r_star, lo, hi = exact_instance(6)
    width = hi - lo
    r0 = np.clip(r_star + 0.08 * width * (np.random.default_rng(4).random(len(pts)) * 2 - 1),
                 lo + 1e-6 * width, hi - 1e-6 * width)
    res = _lm_polish(simplex_systems(tri), (lo, hi), None)(r0)
    assert res.converged
    assert res.fun < 1e-20


@pytest.mark.parametrize("kw", [
    dict(equal_radii=True),
    dict(mode=VolumeMode.RADICAL_CENTER, bounds_policy="clamp"),
    dict(mode=VolumeMode.EXACT_INTERSECTION, bounds_policy="clamp",
         params=OptimizerParams(generations=5)),
], ids=["equal", "radical-center", "exact"])
def test_solve_result_carries_objective_and_max_residual(kw):
    pts = hexagon_patch(2, seed=3)
    tri = triangulate2(pts)
    sol = solve_radii(tri, neighbor_map(tri), pts, seed=3, **kw)
    systems = simplex_systems(tri)
    assert sol.objective == systems.objective(sol.radii)
    assert sol.max_simplex_residual == float(np.max(np.abs(systems.powers(sol.radii))))
