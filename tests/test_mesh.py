import copy
from dataclasses import asdict, replace
from functools import cache

import numpy as np
import pytest

from cvmesh.clipping import (
    RingStack,
    _face_normals,
    box_polygon,
    box_polyhedron,
    clip_polyhedron,
    concat_stacks,
    domain_planes,
)
from cvmesh.delaunay import neighbor_map, tetrahedralize3, triangulate2
from cvmesh.errors import NonConvexCell, NonPlanarFace, OrphanVertex
from cvmesh.mesh import (
    ControlVolumeMesh,
    _candidates,
    _cell_measures,
    _check_cells3,
    _check_convex3,
    _check_face_planarity,
    _clip_to_domain,
    _containment_boxes,
    _hull_cells,
    _inside_pairs,
    _interior_cells,
    _match_rows,
    _ring_areas,
    _vertex_sets_match_many,
    bounding_domain2,
    bounding_domain3,
    build_volumes2,
    build_volumes3,
    validate_global,
    validate_perpendicularity,
)
from cvmesh.solver import VolumeMode, simplex_systems, solve_radii

from conftest import (
    assert_table_equals_lists,
    exact_instance,
    faces_of,
    hexagon_patch,
    hexagonal_domain,
    polyhedra_stack,
    rings_stack,
    uniform_points,
    with_ring,
)
from oracles import (
    CellError,
    build_cells2_loop,
    cell_contains3,
    cell_contains_many3,
    cell_records,
    cell_volume3,
    dedup_vertices,
    halfplanes,
    loops_volume,
    match_simplex_ids,
    neighbor_lists,
    newell_normal,
    perpendicularity_loop2,
    perpendicularity_loop3,
    polygon_area,
    stack_loops,
    validate_global_brute_force,
    vertex_sets_match,
    voronoi_cell_2d,
    voronoi_cell_3d,
)


def _square_center_mesh(r=0.3):
    pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]], dtype=float)
    tri = triangulate2(pts)
    nm = neighbor_map(tri)
    radii = np.full(5, r)
    return pts, build_volumes2(tri, nm, pts, radii)


def _rows(mesh, i) -> np.ndarray:
    """The vertex rows of cell i in the mesh's cell stack."""
    if mesh.dim == 2:
        return mesh.cells.starts[i] + np.arange(mesh.cells.lengths()[i])
    return np.flatnonzero(mesh.cells.row_cells() == i)


def test_square_center_cell_is_voronoi_diamond():
    pts, mesh = _square_center_mesh()
    cell = cell_records(mesh)[4]
    expected = np.array([[0.5, 0.0], [1.0, 0.5], [0.5, 1.0], [0.0, 0.5]])
    assert vertex_sets_match(cell.verts, expected, tol=1e-12)
    assert _cell_measures(mesh.cells, 5)[4] == pytest.approx(0.5, rel=1e-12)
    # and against the brute-force half-plane oracle on the same domain
    oracle = voronoi_cell_2d(pts, 4, mesh.domain.verts)
    assert vertex_sets_match(cell.verts, dedup_vertices(oracle, 1e-9), tol=1e-9)


def test_every_cell_matches_voronoi_oracle_equal_radii():
    pts, mesh = _square_center_mesh()
    for cell in cell_records(mesh):
        oracle = voronoi_cell_2d(pts, cell.owner, mesh.domain.verts)
        assert vertex_sets_match(
            dedup_vertices(cell.verts, 1e-10), dedup_vertices(oracle, 1e-10), tol=1e-9
        )


def test_three_point_mesh_clipped_wedges():
    pts = np.array([[0.0, 0.0], [1.0, 0.1], [0.45, 0.95]])
    tri = triangulate2(pts)
    nm = neighbor_map(tri)
    mesh = build_volumes2(tri, nm, pts, np.full(3, 0.3))
    q = mesh.simplex_vertices[0]
    for cell in cell_records(mesh):
        interior = [k for k, t in enumerate(cell.vertex_simplices) if t == 0]
        assert len(interior) == 1  # exactly one interior vertex: the radical center
        assert np.allclose(cell.verts[interior[0]], q, atol=1e-9)
        assert cell.closed


def test_seeded_radical_center_cells_convex_and_own(hex50):
    pts = hex50
    tri = triangulate2(pts)
    nm = neighbor_map(tri)
    sol = solve_radii(tri, nm, pts, mode=VolumeMode.RADICAL_CENTER, bounds_policy="clamp")
    mesh = build_volumes2(tri, nm, pts, sol.radii)  # raises NonConvexCell on failure
    scale = mesh.scale()
    for cell in cell_records(mesh):
        assert not cell.empty
        assert cell.contains(pts[cell.owner], margin=-1e-12 * scale)


def test_nonconvex_cell_reported_not_repaired():
    pts = uniform_points(2, 50, 1)  # clamped midpoint radii flip cells here
    tri = triangulate2(pts)
    nm = neighbor_map(tri)
    sol = solve_radii(tri, nm, pts, mode=VolumeMode.RADICAL_CENTER, bounds_policy="clamp")
    with pytest.raises(NonConvexCell) as err:
        build_volumes2(tri, nm, pts, sol.radii)
    assert err.value.owner >= 0


def test_interior_candidate_vertex_in_three_cells():
    pts = hexagon_patch(3, seed=1)
    tri = triangulate2(pts)
    nm = neighbor_map(tri)
    sol = solve_radii(tri, nm, pts, mode=VolumeMode.RADICAL_CENTER, bounds_policy="strict")
    mesh = build_volumes2(tri, nm, pts, sol.radii)
    interior_pt = ~nm.on_hull
    counts = {}
    for cell in cell_records(mesh):
        for t in set(x for x in cell.vertex_simplices if x is not None):
            counts[t] = counts.get(t, 0) + 1
    for t, row in enumerate(tri.triangles):
        if all(interior_pt[v] for v in row):
            assert counts.get(t, 0) == 3


def test_cube_center_cell_matches_3d_voronoi_oracle():
    pts = np.array(
        [[i, j, k] for i in (0.0, 1.0) for j in (0.0, 1.0) for k in (0.0, 1.0)] + [[0.5, 0.5, 0.5]]
    )
    tet = tetrahedralize3(pts)
    nm = neighbor_map(tet)
    mesh = build_volumes3(tet, nm, pts, np.full(9, 0.3))
    cell = cell_records(mesh)[8]
    volume = _cell_measures(mesh.cells, 9)[8]
    dv = mesh.domain.verts
    oracle = voronoi_cell_3d(pts, 8, dv.min(axis=0), dv.max(axis=0))
    cell_v = dedup_vertices(cell.all_vertices(), 1e-9)
    oracle_v = dedup_vertices(np.vstack(oracle), 1e-9)
    assert vertex_sets_match(cell_v, oracle_v, tol=1e-9)
    # the center's Voronoi cell is the octahedron |u|+|v|+|w| <= 0.75 with six
    # tips clipped off by the inflated domain box
    a, t = 0.75, 0.75 - 0.55
    expected = (4.0 / 3.0) * a**3 - 6.0 * (2.0 * t**3 / 3.0)
    assert volume == pytest.approx(expected, rel=1e-9)
    # oracle volume: pyramids from the centroid to each (convex) face
    centroid = oracle_v.mean(axis=0)
    vol_oracle = sum(
        abs(sum(np.dot(f[0] - centroid, np.cross(f[k] - centroid, f[k + 1] - centroid))
                for k in range(1, len(f) - 1))) / 6.0
        for f in oracle
    )
    assert volume == pytest.approx(vol_oracle, rel=1e-9)


def test_single_tet_cells_have_one_interior_vertex():
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    tet = tetrahedralize3(pts)
    nm = neighbor_map(tet)
    mesh = build_volumes3(tet, nm, pts, np.full(4, 0.3))
    q = mesh.simplex_vertices[0]
    for cell in cell_records(mesh):
        matched = [
            v for f in cell.faces for v, t in zip(f.verts, f.vertex_simplices) if t == 0
        ]
        assert matched  # the radical center is a corner of every cell
        for v in matched:
            assert np.allclose(v, q, atol=1e-9)


def test_equal_radii_faces_planar_3d():
    pts = uniform_points(3, 30, 4)
    tet = tetrahedralize3(pts)
    nm = neighbor_map(tet)
    mesh = build_volumes3(tet, nm, pts, np.full(len(pts), 0.05))
    for cell in cell_records(mesh):
        for f in cell.faces or []:
            n = newell_normal(f.verts)
            nn = np.linalg.norm(n)
            if nn == 0:
                continue
            dev = np.max(np.abs((f.verts - f.verts[0]) @ (n / nn)))
            edge = max(np.linalg.norm(f.verts[k] - f.verts[k - 1]) for k in range(len(f.verts)))
            assert dev <= 1e-6 * edge


def test_perpendicularity_zero_for_equal_radii():
    pts, mesh = _square_center_mesh()
    report = validate_perpendicularity(mesh, tol=1e-9)
    assert report.ok
    assert report.checked > 0


def test_perpendicularity_zero_for_radical_center(hex50):
    pts = hex50
    tri = triangulate2(pts)
    nm = neighbor_map(tri)
    sol = solve_radii(tri, nm, pts, mode=VolumeMode.RADICAL_CENTER, bounds_policy="clamp")
    mesh = build_volumes2(tri, nm, pts, sol.radii)
    report = validate_perpendicularity(mesh, tol=1e-9)
    assert report.ok, report.violations[:3]


def test_perpendicularity_flags_displaced_vertex():
    pts, mesh = _square_center_mesh()
    mesh.cells.verts[_rows(mesh, 4)[0]] += np.array([1e-3, 0.0])
    report = validate_perpendicularity(mesh, tol=1e-6)
    pairs = {(i, j) for i, j, _ in report.violations}
    assert any(4 in p for p in pairs)


def test_global_checks_pass_on_voronoi_mesh():
    pts, mesh = _square_center_mesh()
    report = validate_global(mesh, probes=4000, seed=0)
    assert report.ok
    assert report.total_measure == pytest.approx(report.domain_measure, rel=1e-9)


def test_global_flags_mismatched_shared_wall():
    pts, mesh = _square_center_mesh()
    mesh.cells.verts[_rows(mesh, 4)[0]] += np.array([2e-3, 1e-3])
    report = validate_global(mesh, probes=500, seed=0)
    assert report.shared_wall_mismatches


def test_global_flags_translated_cell_overlap():
    pts, mesh = _square_center_mesh()
    mesh.cells.verts[_rows(mesh, 4)] += np.array([0.18, 0.0])
    report = validate_global(mesh, probes=10_000, seed=0)
    assert report.overlaps


def test_validation_reports_are_reproducible(hex50):
    pts = hex50
    tri = triangulate2(pts)
    nm = neighbor_map(tri)
    sol = solve_radii(tri, nm, pts, mode=VolumeMode.RADICAL_CENTER, bounds_policy="clamp")
    mesh = build_volumes2(tri, nm, pts, sol.radii)
    r1 = validate_global(mesh, probes=2000, seed=5)
    r2 = validate_global(mesh, probes=2000, seed=5)
    assert r1 == r2


def _central(pts) -> int:
    return int(np.argmin(np.linalg.norm(pts - pts.mean(axis=0), axis=1)))


def _square_instance():
    pts, mesh = _square_center_mesh()
    return mesh, 4


def _hex50_instance():
    pts = uniform_points(2, 50, 43)
    tri = triangulate2(pts)
    nm = neighbor_map(tri)
    sol = solve_radii(tri, nm, pts, mode=VolumeMode.RADICAL_CENTER, bounds_policy="clamp")
    return build_volumes2(tri, nm, pts, sol.radii), _central(pts)


def _uniform_equal_radii_instance(dim, n, seed):
    pts = uniform_points(dim, n, seed)
    if dim == 2:
        tri = triangulate2(pts)
        build = build_volumes2
    else:
        tri = tetrahedralize3(pts)
        build = build_volumes3
    nm = neighbor_map(tri)
    return build(tri, nm, pts, np.full(len(pts), 0.05)), _central(pts)


@cache
def _instance(name):
    """Built once per session; each test edits a deep copy."""
    return INSTANCES[name]()


INSTANCES = {
    "square": _square_instance,
    "hex50": _hex50_instance,
    "uni400": lambda: _uniform_equal_radii_instance(2, 400, 1),
    "uni60_3d": lambda: _uniform_equal_radii_instance(3, 60, 1),
}


def _translate(mesh, i):
    rows = _rows(mesh, i)
    v = mesh.cells.verts
    shift = np.zeros(v.shape[1])
    shift[0] = 0.5 * float(np.ptp(v[rows, 0]))
    v[rows] += shift


def _scale3(mesh, i):
    rows = _rows(mesh, i)
    v = mesh.cells.verts
    c = v[rows].mean(axis=0)
    v[rows] = c + 3.0 * (v[rows] - c)


def _empty(mesh, i):
    if mesh.dim == 2:
        mesh.cells = with_ring(mesh, i, np.empty((0, 2)), []).cells
    else:
        mesh.cells = mesh.cells.take(np.flatnonzero(mesh.cells.cells != i))


def _drop_face(mesh, i):
    """Remove the first wall whose removal lets the cell swallow the
    generator on the other side of it."""
    cell = cell_records(mesh)[i]
    tol = 1e-9 * mesh.scale()
    first = int(np.searchsorted(mesh.cells.cells, i))
    for k, f in enumerate(cell.faces):
        rest = replace(cell, faces=cell.faces[:k] + cell.faces[k + 1:])
        if f.neighbor is not None and rest.contains(mesh.points[f.neighbor], -tol):
            mesh.cells = mesh.cells.take(np.delete(np.arange(len(mesh.cells.starts)), first + k))
            return
    raise AssertionError(f"no wall of cell {i} guards a neighbor alone")


# corruption -> (edit of the chosen cell, GlobalReport field it must fill)
CORRUPTIONS = {
    None: (None, None),
    "translate": (_translate, "overlaps"),
    "scale3": (_scale3, "foreign_points"),
    "empty": (_empty, "owners_outside"),
    "drop_face": (_drop_face, "foreign_points"),
}


@pytest.mark.parametrize("instance, corruption", [
    ("square", None), ("square", "translate"), ("square", "scale3"),
    ("hex50", None), ("hex50", "translate"),
    ("uni400", None), ("uni400", "translate"), ("uni400", "scale3"), ("uni400", "empty"),
    ("uni60_3d", None), ("uni60_3d", "translate"), ("uni60_3d", "scale3"),
    ("uni60_3d", "empty"), ("uni60_3d", "drop_face"),
])
def test_validate_global_equals_brute_force(instance, corruption):
    """The bounding-box sweep reports exactly what testing every probe and
    every generator against every cell reports, on valid and broken meshes."""
    mesh, i = copy.deepcopy(_instance(instance))
    edit, field = CORRUPTIONS[corruption]
    if edit is not None:
        edit(mesh, i)
    report = validate_global(mesh)
    assert asdict(report) == validate_global_brute_force(mesh)
    assert report.ok == (corruption is None)
    if field is not None:
        assert getattr(report, field), field

    # clean cells take the bounding-box path in 2D and 3D; a 3D cell that
    # lost a face no longer closes and tests every point
    tol = 1e-9 * mesh.scale()
    boxed = _containment_boxes(mesh.cells, len(mesh.points), tol, tol)[0]
    if corruption is None:
        assert boxed.all()
    if corruption == "drop_face":
        assert not boxed[i]


def test_validate_global_without_margin_scans_every_point():
    """At tol=0 a degenerate loop accepts points on its line beyond its
    vertices, so no bounding box is sound and every cell tests every point."""
    mesh, _ = copy.deepcopy(_instance("square"))
    mesh = with_ring(mesh, 0, [[0.0, 0.5], [0.2, 0.5], [0.1, 0.5]], [-1, -1, -1])
    report = validate_global(mesh, probes=500, tol=0.0)
    assert asdict(report) == validate_global_brute_force(mesh, probes=500, tol=0.0)
    assert (0, 4) in report.foreign_points


def _cell_stack(faces):
    stack = stack_loops([f.verts for f in faces])
    return stack, _face_normals(*stack)


def _cube_center_faces():
    pts = np.array(
        [[i, j, k] for i in (0.0, 1.0) for j in (0.0, 1.0) for k in (0.0, 1.0)] + [[0.5, 0.5, 0.5]]
    )
    tet = tetrahedralize3(pts)
    mesh = build_volumes3(tet, neighbor_map(tet), pts, np.full(9, 0.3))
    return copy.deepcopy(cell_records(mesh)[8].faces)


def test_face_normals_equal_per_loop_newell():
    """One reduceat pass gives each loop's Newell normal; loops of eight or
    more vertices sum in another order than np.sum, hence the tolerance."""
    rng = np.random.default_rng(7)
    loops = []
    for k in range(3, 13):
        ang = np.sort(rng.random(k)) * 2.0 * np.pi
        frame = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        flat = np.column_stack([np.cos(ang), np.sin(ang), 1e-3 * rng.standard_normal(k)])
        loops.append(0.5 + 0.4 * flat @ frame)
    loops.append(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]))  # zero area
    assert max(len(v) for v in loops) >= 8
    got = _face_normals(*stack_loops(loops))
    ref = np.array([newell_normal(v) for v in loops])
    scale = max(float(np.ptp(v, axis=0).max()) for v in loops)
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-14 * scale)
    assert not got[-1].any()


def test_match_simplex_ids_takes_first_candidate_in_order():
    q = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    verts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]])  # last: a clip point
    one = np.zeros(1, dtype=np.intp)
    for cand, want in (([2, 1, 3], [2, 3, None]), ([1, 2, 3], [1, 3, None]),
                       (np.array([3, 2, 1]), [2, 3, None]), ([], [None] * 3),
                       (np.empty(0, dtype=np.int64), [None] * 3)):
        ids = _match_rows(verts, one, q, np.asarray(cand, dtype=np.intp), one, 1e-9)
        got = [None if t < 0 else t for t in ids.tolist()]
        assert got == want == match_simplex_ids(verts, q, cand, 1e-9)


def test_vertex_sets_match_uses_each_vertex_once():
    p, q = [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]
    near = [1e-12, 0.0, 0.0]
    for a, b, want in (([p, q], [q, p], True), ([p, near], [near, p], True),
                       ([p, p], [p, q], False), ([p, q], [p, [1.0, 1e-3, 0.0]], False)):
        a, b = np.array(a), np.array(b)
        assert bool(_vertex_sets_match_many(a[None], b[None], 1e-9)[0]) is want
        assert vertex_sets_match(a, b, 1e-9) is want


def test_displaced_face_vertex_raises_nonplanar_3d():
    faces = _cube_center_faces()
    neighbors = [f.neighbor for f in faces]
    _check_face_planarity(8, neighbors, *_cell_stack(faces))
    k = next(k for k, f in enumerate(faces) if len(f.verts) >= 4 and f.neighbor is not None)
    n = newell_normal(faces[k].verts)
    faces[k].verts = faces[k].verts.copy()
    faces[k].verts[1] += 1e-3 * n / np.linalg.norm(n)
    with pytest.raises(NonPlanarFace) as err:
        _check_face_planarity(8, neighbors, *_cell_stack(faces))
    assert (err.value.owner, err.value.neighbor) == (8, faces[k].neighbor)
    assert err.value.deviation > 1e-4


def test_outside_vertex_raises_nonconvex_3d():
    faces = _cube_center_faces()
    _check_convex3(8, *_cell_stack(faces), scale=1.0)
    n = newell_normal(faces[0].verts)
    faces[0].verts = faces[0].verts + 0.05 * n / np.linalg.norm(n)  # still planar
    stack, normals = _cell_stack(faces)
    _check_face_planarity(8, [f.neighbor for f in faces], stack, normals)
    with pytest.raises(NonConvexCell) as err:
        _check_convex3(8, stack, normals, scale=1.0)
    assert err.value.owner == 8


def test_nonconvex_cell_reported_not_repaired_3d():
    pts = uniform_points(3, 30, 1)  # clamped radical-center radii bend a cell here
    tet = tetrahedralize3(pts)
    nm = neighbor_map(tet)
    sol = solve_radii(tet, nm, pts, mode=VolumeMode.RADICAL_CENTER, bounds_policy="clamp")
    with pytest.raises(NonConvexCell) as err:
        build_volumes3(tet, nm, pts, sol.radii)
    assert err.value.owner == 0


@cache
def _sweep_mesh(dim, n, seed):
    pts = uniform_points(dim, n, seed)
    tri = triangulate2(pts) if dim == 2 else tetrahedralize3(pts)
    build = build_volumes2 if dim == 2 else build_volumes3
    return neighbor_lists(tri), build(tri, neighbor_map(tri), pts, np.full(len(pts), 0.05))


KERNEL_SWEEP = (
    [(3, n, seed) for n in (30, 60) for seed in range(1, 6)]
    + [(3, 200, 1), (2, 400, 1), (2, 400, 2)]
)


@pytest.mark.parametrize("dim, n, seed", KERNEL_SWEEP)
def test_cell_kernels_equal_loop_references(dim, n, seed):
    """The stacked-loop kernels against the one-face, one-vertex loops of
    tests/oracles.py: identical simplex ids and containment masks, equal
    perpendicularity reports, volumes to 1e-13."""
    ref, mesh = _sweep_mesh(dim, n, seed)
    q = mesh.simplex_vertices
    scale = mesh.scale()
    cells = cell_records(mesh)
    for cell in cells:
        i = cell.owner
        if dim == 2:
            want = match_simplex_ids(cell.verts, q, ref.ring_simplices[i], 1e-9 * scale)
            assert cell.vertex_simplices == want
        else:
            got = [t for f in cell.faces for t in f.vertex_simplices]
            want = match_simplex_ids(cell.all_vertices(), q, ref.star_simplices[i], 1e-9 * scale)
            assert got == want
    if dim == 2:
        return

    rng = np.random.default_rng(seed)
    dv = mesh.domain.verts
    lo, hi = dv.min(axis=0), dv.max(axis=0)
    targets = np.vstack([lo + (hi - lo) * rng.random((10_000, 3)), mesh.points])
    tol = 1e-9 * scale
    pos, tgt = _inside_pairs(mesh, targets, tol, tol)
    measures = _cell_measures(mesh.cells, len(mesh.points))
    for cell in cells:
        got = np.zeros(len(targets), dtype=bool)
        got[tgt[pos == cell.owner]] = True
        assert np.array_equal(got, cell_contains_many3(cell, targets, -tol))
        near = [cell.owner] + [f.neighbor for f in cell.faces if f.neighbor is not None]
        for j in near:
            assert got[10_000 + j] == cell_contains3(cell, mesh.points[j], -tol)
        assert measures[cell.owner] == pytest.approx(cell_volume3(cell), rel=1e-13, abs=0.0)
    report = validate_perpendicularity(mesh)
    assert (report.checked, report.violations) == perpendicularity_loop3(mesh)


def test_perpendicularity_3d_flags_displaced_vertex_as_loop_reference():
    mesh, i = copy.deepcopy(_instance("uni60_3d"))
    stack = mesh.cells
    f = np.flatnonzero((stack.cells == i) & (stack.tags >= 0))[0]
    stack.verts[stack.starts[f]] += np.array([1e-3, 2e-3, -1e-3])
    report = validate_perpendicularity(mesh, tol=1e-6)
    assert (i, stack.tags[f]) in {(a, b) for a, b, _ in report.violations}
    assert (report.checked, report.violations) == perpendicularity_loop3(mesh, tol=1e-6)


@pytest.mark.parametrize("n", [20, 40, 80])
@pytest.mark.parametrize("seed", range(10))
def test_equal_radii_3d_sweep_builds_valid_meshes(n, seed):
    """Default-generator 3D clouds with equal radii, over seeds and sizes:
    the build succeeds, every wall is perpendicular, the global checks pass
    and the cells fill the domain."""
    pts = uniform_points(3, n, seed)
    tet = tetrahedralize3(pts)
    nm = neighbor_map(tet)
    sol = solve_radii(tet, nm, pts, equal_radii=True)
    mesh = build_volumes3(tet, nm, pts, sol.radii)
    assert validate_perpendicularity(mesh, tol=1e-9).ok
    report = validate_global(mesh)
    assert report.ok
    assert report.total_measure == pytest.approx(report.domain_measure, rel=1e-9, abs=0.0)


# ---------------------------------------------------------------------------
# the ring-stack 2D build and the whole-stack 3D checks against one-cell loops


def _square_grid(k: int) -> np.ndarray:
    """k x k unit grid: every square's four corners are co-circular, so the
    two triangles of a square share one radical center under equal radii."""
    return np.array([[i, j] for i in range(k) for j in range(k)], dtype=float)


def _sweep2(kind, n, seed):
    """(pts, tri, nm, radii) of one 2D sweep case."""
    if kind == "hex":
        pts = hexagon_patch(n, seed, jitter=0.1 if seed else 0.0)
    elif kind == "grid":
        pts = _square_grid(n)
    elif kind == "exact":
        pts, tri, nm, r_star, _, _ = exact_instance(n)
        return pts, tri, nm, r_star
    else:
        pts = uniform_points(2, n, seed)
    tri = triangulate2(pts)
    nm = neighbor_map(tri)
    if kind == "default":
        sol = solve_radii(tri, nm, pts, mode=VolumeMode.RADICAL_CENTER, bounds_policy="clamp")
    else:
        sol = solve_radii(tri, nm, pts, equal_radii=True)
    return pts, tri, nm, sol.radii


SWEEP2 = (
    [(kind, n, seed) for kind in ("equal", "default") for n in (20, 100, 400)
     for seed in range(10)]
    + [("hex", rings, seed) for rings in (2, 4) for seed in range(3)]
    + [("grid", k, 0) for k in (3, 6)]
    + [("exact", n, 0) for n in (5, 6, 7)]
)


@pytest.mark.parametrize("kind, n, seed", SWEEP2)
def test_build_volumes2_equals_cell_loop(kind, n, seed):
    """The ring-stack build against the one-cell loop it replaced: the same
    cells bit for bit (vertices, edge tags, simplex ids), or the same error
    with the same owner and text; the 2D perpendicularity pass against its
    one-edge loop on every mesh that builds."""
    pts, tri, nm, r = _sweep2(kind, n, seed)
    q = simplex_systems(tri).vertices(r)
    domain = bounding_domain2(pts)
    ref = neighbor_lists(tri)
    try:
        want = build_cells2_loop(pts, r, q, ref.rings, ref.closed, ref.ring_simplices,
                                 domain.verts, [None] * 4)
    except CellError as exc:
        error = {"NonConvexCell": NonConvexCell, "OrphanVertex": OrphanVertex}[exc.kind]
        with pytest.raises(error) as err:
            build_volumes2(tri, nm, pts, r)
        key = err.value.owner if exc.kind == "NonConvexCell" else err.value.simplex
        assert key == exc.key
        assert exc.text in str(err.value)
        return
    mesh = build_volumes2(tri, nm, pts, r)
    for cell, ref in zip(cell_records(mesh), want):
        if ref is None:
            assert not cell.closed and len(cell.verts) == 0
            continue
        v, tags, ids = ref
        assert cell.closed
        assert cell.verts.shape == v.shape and cell.verts.tobytes() == v.tobytes()
        assert cell.edge_neighbors == tags
        assert cell.vertex_simplices == ids
    for tol in (1e-6, 1e-9, 0.0):
        report = validate_perpendicularity(mesh, tol=tol)
        assert (report.checked, report.violations) == perpendicularity_loop2(mesh, tol=tol)


@pytest.mark.parametrize("seed", range(3))
def test_build_volumes2_clockwise_rings_equal_cell_loop(seed):
    """Interior rings listed clockwise (each ring and its triangles reversed,
    in the lists and in the row table alike) take the reversal path, tags
    rotating with the vertices, as the loop does it."""
    pts, tri, nm, r = _sweep2("equal", 100, seed)
    ref = neighbor_lists(tri)
    rings, tids = list(ref.rings), list(ref.ring_simplices)
    for i in np.flatnonzero(ref.closed).tolist():
        m = len(rings[i])
        rings[i] = rings[i][::-1].copy()
        tids[i] = tids[i][(m - 2 - np.arange(m)) % m].copy()
    rows = np.flatnonzero(~nm.on_hull[nm.owner])
    first, m = nm.starts[nm.owner[rows]], nm.lengths()[nm.owner[rows]]
    k = rows - first
    nbr, simplex = nm.nbr.copy(), nm.simplex.copy()
    nbr[rows] = nm.nbr[first + m - 1 - k]
    simplex[rows] = nm.simplex[first + (m - 2 - k) % m]
    nm = replace(nm, nbr=nbr, simplex=simplex)
    assert_table_equals_lists(nm, replace(ref, rings=rings, ring_simplices=tids))
    q = simplex_systems(tri).vertices(r)
    domain = bounding_domain2(pts)
    want = build_cells2_loop(pts, r, q, rings, ref.closed, tids, domain.verts, [None] * 4)
    mesh = build_volumes2(tri, nm, pts, r)
    for cell, (v, tags, ids) in zip(cell_records(mesh), want):
        assert cell.verts.tobytes() == v.tobytes()
        assert (cell.edge_neighbors, cell.vertex_simplices) == (tags, ids)


@pytest.mark.parametrize("seed", range(3))
def test_build_volumes2_hexagonal_domain_equals_cell_loop(seed):
    """A rotated hexagonal domain: its edge lines are not axis-aligned, so
    the per-ring matrix-vector rounding of the domain clips shows."""
    pts, tri, nm, r = _sweep2("equal", 60, seed)
    domain = hexagonal_domain(pts)
    q = simplex_systems(tri).vertices(r)
    ref = neighbor_lists(tri)
    want = build_cells2_loop(pts, r, q, ref.rings, ref.closed, ref.ring_simplices,
                             domain.verts, [None] * 6)
    mesh = build_volumes2(tri, nm, pts, r, domain=domain)
    for cell, (v, tags, ids) in zip(cell_records(mesh), want):
        assert cell.verts.tobytes() == v.tobytes()
        assert (cell.edge_neighbors, cell.vertex_simplices) == (tags, ids)
    assert validate_global(mesh).ok


def test_ring_areas_equal_polygon_area():
    """One area per ring with the bits of the one-polygon area (np.sum, which
    sums pairwise from eight terms on), rings of 3 to 20 vertices."""
    rng = np.random.default_rng(3)
    polys = []
    for k in list(range(3, 21)) * 3:
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, k))
        rad = rng.uniform(0.5, 2.0, k)
        polys.append((rng.normal(size=2) + np.column_stack(
            [rad * np.cos(ang), rad * np.sin(ang)]), [None] * k))
    stack = rings_stack(polys)
    got = _ring_areas(stack.verts, stack.starts)
    assert got.tolist() == [polygon_area(v) for v, _ in polys]


def test_domain_planes_and_measure_equal_one_loop_references():
    """The planes and measure of a one-cell domain stack, from its arrays,
    against the one-edge half-planes, the one-face Newell normals and the
    one-loop area and volume, bit for bit, on random boxes and turned
    hexagons."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        lo = rng.normal(size=3) * 10.0 ** rng.integers(-3, 4)
        hi = lo + rng.random(3) * 10.0 ** rng.integers(-3, 4) + 1e-9
        for domain in (box_polygon(lo[:2], hi[:2]), hexagonal_domain(lo[None, :2])):
            n, c = domain_planes(domain)
            want = halfplanes(domain.verts)
            assert n.tolist() == [w.tolist() for w, _ in want]
            assert c.tolist() == [w for _, w in want]
            mesh = ControlVolumeMesh(2, lo[None, :2], None, domain, domain)
            assert mesh.domain_measure() == polygon_area(domain.verts)
        box = box_polyhedron(lo, hi)
        loops = [v for v, _ in faces_of(box)]
        n, c = domain_planes(box)
        assert n.tolist() == [newell_normal(v).tolist() for v in loops]
        assert c.tolist() == [float(newell_normal(v) @ v[0]) for v in loops]
        mesh = ControlVolumeMesh(3, lo[None], None, box, box)
        assert mesh.domain_measure() == loops_volume(loops)


def test_nonconvex_2d_default_mode_sweep_reports_owner():
    """The default mode fails on most generator clouds (ROADMAP item 1); the
    sweep above must include such failures, or it does not test the error
    path."""
    failing = 0
    for n in (20, 100):
        for seed in range(10):
            pts, tri, nm, r = _sweep2("default", n, seed)
            try:
                build_volumes2(tri, nm, pts, r)
            except NonConvexCell:
                failing += 1
    assert failing >= 5


def test_perpendicularity_2d_flags_displaced_vertex_as_loop_reference():
    mesh, i = copy.deepcopy(_instance("uni400"))
    mesh.cells.verts[_rows(mesh, i)[0]] += np.array([1e-3, -2e-3])
    report = validate_perpendicularity(mesh, tol=1e-6)
    assert i in {a for a, _, _ in report.violations}
    assert (report.checked, report.violations) == perpendicularity_loop2(mesh, tol=1e-6)


def _clip_to_domain_loop(stack, domain_planes, eps):
    """The one-cell-at-a-time domain clip that `_clip_to_domain` replaced."""
    domain_planes = list(zip(*domain_planes))
    beyond = np.zeros(len(stack.verts), dtype=bool)
    for n, c in domain_planes:
        beyond |= stack.verts @ n - c > eps * np.linalg.norm(n)
    crossing = np.unique(stack.row_cells()[beyond])
    parts = [stack.take(np.flatnonzero(~np.isin(stack.cells, crossing)))]
    for i in crossing.tolist():
        poly = polyhedra_stack([faces_of(stack, i)])
        for n, c in domain_planes:
            if np.any(poly.verts @ n - c > eps * np.linalg.norm(n)):
                poly = clip_polyhedron(poly, n, c, None, eps)
                if not len(poly.starts):
                    break
        parts.append(replace(poly, cells=np.full(len(poly.starts), i)))
    return concat_stacks(parts)


def _check_cells3_loop(stack, normals, scale, q, ref, match_eps):
    """The one-cell-at-a-time checks and simplex matching `build_volumes3`
    ran before its whole-stack passes; returns the matched ids per row."""
    ends = np.append(stack.starts, len(stack.verts))
    ids = []
    for i in np.unique(stack.cells).tolist():
        f0, f1 = np.searchsorted(stack.cells, [i, i + 1]).tolist()
        r0, r1 = int(ends[f0]), int(ends[f1])
        v = stack.verts[r0:r1]
        cell = (v, stack.starts[f0:f1] - r0, stack.succ[r0:r1] - r0)
        tags = [None if t < 0 else t for t in stack.tags[f0:f1].tolist()]
        _check_face_planarity(i, tags, cell, normals[f0:f1])
        ids += match_simplex_ids(v, q, ref.star_simplices[i], match_eps)
        _check_convex3(i, cell, normals[f0:f1], scale)
    return [-1 if t is None else t for t in ids]


def _stack3(n, seed, default):
    pts = uniform_points(3, n, seed)
    tet = tetrahedralize3(pts)
    nm = neighbor_map(tet)
    if default:
        r = solve_radii(tet, nm, pts, mode=VolumeMode.RADICAL_CENTER, bounds_policy="clamp").radii
    else:
        r = solve_radii(tet, nm, pts, equal_radii=True).radii
    q = simplex_systems(tet).vertices(r)
    domain = bounding_domain3(pts)
    dv = domain.verts
    scale = float(np.linalg.norm(dv.max(axis=0) - dv.min(axis=0)))
    eps = 1e-10 * scale
    planes = domain_planes(domain)
    hull = np.flatnonzero(nm.on_hull)
    interior = _interior_cells(np.flatnonzero(~nm.on_hull), nm, q, pts, eps)
    ref = neighbor_lists(tet)
    hood = [np.unique(ref.stars[i]) for i in range(len(pts))]
    counts = np.array([len(h) for h in hood])
    table = np.zeros((len(pts), counts[hull].max()), dtype=np.int64)
    for i in hull.tolist():
        table[i, :counts[i]] = hood[i]
    hulls = _hull_cells(hull, pts, r, domain, eps, counts, table)
    return nm, ref, q, planes, scale, eps, interior, hulls


def _same_stack(a, b):
    for name in ("verts", "starts", "succ", "tags", "cells"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


def _raised(fn, *args):
    try:
        return fn(*args), None
    except (NonConvexCell, NonPlanarFace) as exc:
        return None, (type(exc), exc.owner, str(exc))


@pytest.mark.parametrize("default", [False, True])
@pytest.mark.parametrize("n, seed", [(n, seed) for n in (20, 40, 80) for seed in range(4)])
def test_3d_stack_passes_equal_cell_loops(n, seed, default):
    """The per-plane domain clip, the whole-stack planarity and convexity
    checks and the whole-stack simplex matching against the one-cell loops
    they replaced, in equal-radii and default mode (where cells fail)."""
    nm, ref, q, planes, scale, eps, interior, hulls = _stack3(n, seed, default)
    clipped = _clip_to_domain(interior, planes, eps)
    _same_stack(clipped, _clip_to_domain_loop(interior, planes, eps))
    stack = concat_stacks([hulls, clipped])
    normals = _face_normals(stack.verts, stack.starts, stack.succ)
    want, error = _raised(_check_cells3_loop, stack, normals, scale, q, ref, 1e-9 * scale)
    assert _raised(_check_cells3, stack, normals, scale)[1] == error
    if error is None:
        cand, starts = _candidates(nm)
        row_starts = np.searchsorted(stack.row_cells(), np.arange(nm.n_points))
        got = _match_rows(stack.verts, row_starts, q, cand, starts, 1e-9 * scale)
        assert got.tolist() == want


def test_3d_stack_checks_report_first_failing_cell():
    """Break a late cell's planarity and an earlier cell's convexity: the
    earlier cell is reported, as the cell loop reports it; then only the
    planarity break, reported as NonPlanarFace."""
    nm, ref, q, planes, scale, eps, interior, hulls = _stack3(60, 1, False)
    stack = concat_stacks([hulls, _clip_to_domain(interior, planes, eps)])
    cells = np.unique(stack.cells)
    late, early = int(cells[-3]), int(cells[5])
    ends = np.append(stack.starts, len(stack.verts))
    verts = stack.verts.copy()
    f = int(np.searchsorted(stack.cells, late))
    verts[int(ends[f]) + 1] += 1e-3 * scale          # one vertex off its face plane
    bent = replace(stack, verts=verts)
    normals = _face_normals(bent.verts, bent.starts, bent.succ)
    _, error = _raised(_check_cells3_loop, bent, normals, scale, q, ref, 1e-9 * scale)
    assert error[:2] == (NonPlanarFace, late)
    assert _raised(_check_cells3, bent, normals, scale)[1] == error
    g = int(np.searchsorted(stack.cells, early))
    # one face pushed inward, still planar: its neighbors' corners stick out
    verts[int(ends[g]):int(ends[g + 1])] -= 0.05 * scale * normals[g] / np.linalg.norm(normals[g])
    both = replace(stack, verts=verts)
    normals = _face_normals(both.verts, both.starts, both.succ)
    _, error = _raised(_check_cells3_loop, both, normals, scale, q, ref, 1e-9 * scale)
    assert error[:2] == (NonConvexCell, early)
    assert _raised(_check_cells3, both, normals, scale)[1] == error


def test_total_measure_keeps_each_cell_measure():
    """The one-pass total equals the sum of the one-cell measures of the
    reference cell records in cell order bit for bit, in 2D (rings of eight
    and more vertices sum pairwise) and 3D."""
    for name in ("uni400", "uni60_3d", "hex50"):
        mesh, _ = _instance(name)
        assert mesh.total_measure() == float(sum(c.measure() for c in cell_records(mesh)))
    pts = hexagon_patch(2, 0, jitter=0.0)
    mesh = build_volumes2(triangulate2(pts), neighbor_map(triangulate2(pts)), pts,
                          np.full(len(pts), 0.3))
    k = int(mesh.cells.lengths()[0])
    ang = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
    mesh = with_ring(mesh, 0, np.column_stack([np.cos(ang), np.sin(ang)]) * 1e-3 + 0.1, [-1] * 12)
    assert k != 12
    assert mesh.total_measure() == float(sum(c.measure() for c in cell_records(mesh)))
