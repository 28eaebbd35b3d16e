import copy
from dataclasses import asdict
from functools import cache

import numpy as np
import pytest

from cvmesh.clipping import _face_normals, _newell_normal, _stack_loops
from cvmesh.delaunay import neighbor_map, tetrahedralize3, triangulate2
from cvmesh.errors import NonConvexCell, NonPlanarFace
from cvmesh.mesh import (
    _check_convex3,
    _check_face_planarity,
    _containment_box,
    _match_simplex_ids,
    _vertex_sets_match,
    build_volumes2,
    build_volumes3,
    validate_global,
    validate_perpendicularity,
)
from cvmesh.solver import VolumeMode, solve_radii

from conftest import hexagon_patch, uniform_points
from oracles import (
    cell_contains3,
    cell_contains_many3,
    cell_volume3,
    dedup_vertices,
    match_simplex_ids,
    perpendicularity_loop3,
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


def test_square_center_cell_is_voronoi_diamond():
    pts, mesh = _square_center_mesh()
    cell = mesh.cell(4)
    expected = np.array([[0.5, 0.0], [1.0, 0.5], [0.5, 1.0], [0.0, 0.5]])
    assert vertex_sets_match(cell.verts, expected, tol=1e-12)
    assert cell.measure() == pytest.approx(0.5, rel=1e-12)
    # and against the brute-force half-plane oracle on the same domain
    oracle = voronoi_cell_2d(pts, 4, mesh.domain.verts)
    assert vertex_sets_match(cell.verts, dedup_vertices(oracle, 1e-9), tol=1e-9)


def test_every_cell_matches_voronoi_oracle_equal_radii():
    pts, mesh = _square_center_mesh()
    for cell in mesh.volumes:
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
    for cell in mesh.volumes:
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
    for cell in mesh.volumes:
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
    for cell in mesh.volumes:
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
    cell = mesh.cell(8)
    dv = mesh.domain.vertices()
    oracle = voronoi_cell_3d(pts, 8, dv.min(axis=0), dv.max(axis=0))
    cell_v = dedup_vertices(cell.all_vertices(), 1e-9)
    oracle_v = dedup_vertices(np.vstack(oracle), 1e-9)
    assert vertex_sets_match(cell_v, oracle_v, tol=1e-9)
    # the center's Voronoi cell is the octahedron |u|+|v|+|w| <= 0.75 with six
    # tips clipped off by the inflated domain box
    a, t = 0.75, 0.75 - 0.55
    expected = (4.0 / 3.0) * a**3 - 6.0 * (2.0 * t**3 / 3.0)
    assert cell.measure() == pytest.approx(expected, rel=1e-9)
    # oracle volume: pyramids from the centroid to each (convex) face
    centroid = oracle_v.mean(axis=0)
    vol_oracle = sum(
        abs(sum(np.dot(f[0] - centroid, np.cross(f[k] - centroid, f[k + 1] - centroid))
                for k in range(1, len(f) - 1))) / 6.0
        for f in oracle
    )
    assert cell.measure() == pytest.approx(vol_oracle, rel=1e-9)


def test_single_tet_cells_have_one_interior_vertex():
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    tet = tetrahedralize3(pts)
    nm = neighbor_map(tet)
    mesh = build_volumes3(tet, nm, pts, np.full(4, 0.3))
    q = mesh.simplex_vertices[0]
    for cell in mesh.volumes:
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
    from cvmesh.clipping import _newell_normal

    for cell in mesh.volumes:
        for f in cell.faces or []:
            n = _newell_normal(f.verts)
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
    cell = mesh.cell(4)
    cell.verts = cell.verts.copy()
    cell.verts[0] += np.array([1e-3, 0.0])
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
    cell = mesh.cell(4)
    cell.verts = cell.verts.copy()
    cell.verts[0] += np.array([2e-3, 1e-3])
    report = validate_global(mesh, probes=500, seed=0)
    assert report.shared_wall_mismatches


def test_global_flags_translated_cell_overlap():
    pts, mesh = _square_center_mesh()
    cell = mesh.cell(4)
    cell.verts = cell.verts + np.array([0.18, 0.0])
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


def _map_vertices(cell, fn):
    if cell.verts is not None:
        cell.verts = fn(cell.verts)
    else:
        for f in cell.faces:
            f.verts = fn(f.verts)


def _translate(mesh, i):
    cell = mesh.cell(i)
    v = cell.all_vertices()
    shift = np.zeros(v.shape[1])
    shift[0] = 0.5 * float(np.ptp(v[:, 0]))
    _map_vertices(cell, lambda w: w + shift)


def _scale3(mesh, i):
    cell = mesh.cell(i)
    c = cell.all_vertices().mean(axis=0)
    _map_vertices(cell, lambda w: c + 3.0 * (w - c))


def _empty(mesh, i):
    cell = mesh.cell(i)
    if cell.verts is not None:
        cell.verts = np.empty((0, 2))
        cell.edge_neighbors = []
        cell.vertex_simplices = []
    else:
        cell.faces = []


def _drop_face(mesh, i):
    """Remove the first wall whose removal lets the cell swallow the
    generator on the other side of it."""
    cell = mesh.cell(i)
    tol = 1e-9 * mesh.scale()
    faces = cell.faces
    for k, f in enumerate(faces):
        cell.faces = faces[:k] + faces[k + 1:]
        if f.neighbor is not None and cell.contains(mesh.points[f.neighbor], -tol):
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

    # 2D cells take the bounding-box path; 3D cells test every point
    tol = 1e-9 * mesh.scale()
    boxed = {_containment_box(c, tol, tol) is not None for c in mesh.volumes if not c.empty}
    assert boxed == {mesh.dim == 2}


def test_validate_global_without_margin_scans_every_point():
    """At tol=0 a degenerate loop accepts points on its line beyond its
    vertices, so no bounding box is sound and every cell tests every point."""
    mesh, _ = copy.deepcopy(_instance("square"))
    cell = mesh.cell(0)
    cell.verts = np.array([[0.0, 0.5], [0.2, 0.5], [0.1, 0.5]])
    cell.edge_neighbors = [None, None, None]
    report = validate_global(mesh, probes=500, tol=0.0)
    assert asdict(report) == validate_global_brute_force(mesh, probes=500, tol=0.0)
    assert (0, 4) in report.foreign_points


def _cell_stack(faces):
    stack = _stack_loops([f.verts for f in faces])
    return stack, _face_normals(*stack)


def _cube_center_faces():
    pts = np.array(
        [[i, j, k] for i in (0.0, 1.0) for j in (0.0, 1.0) for k in (0.0, 1.0)] + [[0.5, 0.5, 0.5]]
    )
    tet = tetrahedralize3(pts)
    mesh = build_volumes3(tet, neighbor_map(tet), pts, np.full(9, 0.3))
    return copy.deepcopy(mesh.cell(8).faces)


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
    got = _face_normals(*_stack_loops(loops))
    ref = np.array([_newell_normal(v) for v in loops])
    scale = max(float(np.ptp(v, axis=0).max()) for v in loops)
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-14 * scale)
    assert not got[-1].any()


def test_match_simplex_ids_takes_first_candidate_in_order():
    q = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    verts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]])  # last: a clip point
    for cand, want in (([2, 1, 3], [2, 3, None]), ([1, 2, 3], [1, 3, None]),
                       (np.array([3, 2, 1]), [2, 3, None]), ([], [None] * 3),
                       (np.empty(0, dtype=np.int64), [None] * 3)):
        got = _match_simplex_ids(verts, q, cand, 1e-9)
        assert got == want == match_simplex_ids(verts, q, cand, 1e-9)
        assert all(type(t) is int for t in got if t is not None)


def test_vertex_sets_match_uses_each_vertex_once():
    p, q = [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]
    near = [1e-12, 0.0, 0.0]
    for a, b, want in (([p, q], [q, p], True), ([p, near], [near, p], True),
                       ([p, p], [p, q], False), ([p, q], [p, [1.0, 1e-3, 0.0]], False)):
        a, b = np.array(a), np.array(b)
        assert _vertex_sets_match(a, b, 1e-9) is want
        assert vertex_sets_match(a, b, 1e-9) is want


def test_displaced_face_vertex_raises_nonplanar_3d():
    faces = _cube_center_faces()
    neighbors = [f.neighbor for f in faces]
    _check_face_planarity(8, neighbors, *_cell_stack(faces))
    k = next(k for k, f in enumerate(faces) if len(f.verts) >= 4 and f.neighbor is not None)
    n = _newell_normal(faces[k].verts)
    faces[k].verts = faces[k].verts.copy()
    faces[k].verts[1] += 1e-3 * n / np.linalg.norm(n)
    with pytest.raises(NonPlanarFace) as err:
        _check_face_planarity(8, neighbors, *_cell_stack(faces))
    assert (err.value.owner, err.value.neighbor) == (8, faces[k].neighbor)
    assert err.value.deviation > 1e-4


def test_outside_vertex_raises_nonconvex_3d():
    faces = _cube_center_faces()
    _check_convex3(8, *_cell_stack(faces), scale=1.0)
    n = _newell_normal(faces[0].verts)
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
    nm = neighbor_map(tri)
    build = build_volumes2 if dim == 2 else build_volumes3
    return nm, build(tri, nm, pts, np.full(len(pts), 0.05))


KERNEL_SWEEP = (
    [(3, n, seed) for n in (30, 60) for seed in range(1, 6)]
    + [(3, 200, 1), (2, 400, 1), (2, 400, 2)]
)


@pytest.mark.parametrize("dim, n, seed", KERNEL_SWEEP)
def test_cell_kernels_equal_loop_references(dim, n, seed):
    """The stacked-loop kernels against the one-face, one-vertex loops of
    tests/oracles.py: identical simplex ids and containment masks, equal
    perpendicularity reports, volumes to 1e-13."""
    nm, mesh = _sweep_mesh(dim, n, seed)
    q = mesh.simplex_vertices
    scale = mesh.scale()
    for cell in mesh.volumes:
        i = cell.owner
        if dim == 2:
            want = match_simplex_ids(cell.verts, q, nm.ring_simplices[i], 1e-9 * scale)
            assert cell.vertex_simplices == want
        else:
            got = [t for f in cell.faces for t in f.vertex_simplices]
            want = match_simplex_ids(cell.all_vertices(), q, nm.star_simplices[i], 1e-9 * scale)
            assert got == want
    if dim == 2:
        return

    rng = np.random.default_rng(seed)
    dv = mesh.domain.vertices()
    lo, hi = dv.min(axis=0), dv.max(axis=0)
    targets = np.vstack([lo + (hi - lo) * rng.random((10_000, 3)), mesh.points])
    tol = 1e-9 * scale
    for cell in mesh.volumes:
        got = cell.contains_many(targets, -tol)
        assert np.array_equal(got, cell_contains_many3(cell, targets, -tol))
        near = [cell.owner] + [f.neighbor for f in cell.faces if f.neighbor is not None]
        for j in near:
            assert cell.contains(mesh.points[j], -tol) == cell_contains3(cell, mesh.points[j], -tol)
        assert cell.measure() == pytest.approx(cell_volume3(cell), rel=1e-13, abs=0.0)
    report = validate_perpendicularity(mesh)
    assert (report.checked, report.violations) == perpendicularity_loop3(mesh)


def test_perpendicularity_3d_flags_displaced_vertex_as_loop_reference():
    mesh, i = copy.deepcopy(_instance("uni60_3d"))
    f = next(f for f in mesh.cell(i).faces if f.neighbor is not None)
    f.verts = f.verts.copy()
    f.verts[0] += np.array([1e-3, 2e-3, -1e-3])
    report = validate_perpendicularity(mesh, tol=1e-6)
    assert (i, f.neighbor) in {(a, b) for a, b, _ in report.violations}
    assert (report.checked, report.violations) == perpendicularity_loop3(mesh, tol=1e-6)
