import copy
import json
import math
from dataclasses import asdict, replace
from functools import cache

import numpy as np
import pytest

from cvmesh.clipping import (
    PolyStack,
    RingStack,
    _face_normals,
    box_polygon,
    box_polyhedron,
    clip_polyhedron,
    concat_stacks,
)
from cvmesh.delaunay import neighbor_map, tetrahedralize3, triangulate2
from cvmesh.errors import NonConvexCell, NonPlanarFace, OrphanVertex
from cvmesh import mesh as mesh_module
from cvmesh.io import RunConfig, dumps_json, generate_points, mesh_doc, mesh_from_doc
from cvmesh.mesh import (
    ControlVolumeMesh,
    _cell_measures,
    _cell_walls,
    _check_cells3,
    _clip_to_domain,
    _closed_cells,
    _far_planes,
    _ring_areas,
    _star_rows,
    _vertex_sets_match_many,
    bounding_domain2,
    bounding_domain3,
    build_volumes2,
    build_volumes3,
    face_planes,
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
    bisector_cell2,
    bisector_cell3,
    build_cells2_loop,
    cell_contains3,
    cell_records,
    cell_volume3,
    certify_loop,
    check_convex3,
    check_face_planarity,
    closed_cells_unique,
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
    report = validate_global(mesh)
    assert report.ok
    assert report.total_measure == pytest.approx(report.domain_measure, rel=1e-9)


def test_ok_needs_the_measures_to_sum_to_the_domain():
    """Condition (iv) is part of `ok`: with every list empty, a total measure
    off the domain's by more than 1e-9 relative fails, one within it passes."""
    report = validate_global(_square_center_mesh()[1])
    d = report.domain_measure
    assert replace(report, total_measure=d * (1.0 + 5e-10)).ok
    assert not replace(report, total_measure=d * (1.0 + 2e-9)).ok
    assert not replace(report, total_measure=d * (1.0 - 2e-9)).ok


def test_global_flags_mismatched_shared_wall():
    pts, mesh = _square_center_mesh()
    mesh.cells.verts[_rows(mesh, 4)[0]] += np.array([2e-3, 1e-3])
    report = validate_global(mesh)
    assert report.shared_wall_mismatches


def test_global_flags_translated_cell_overlap():
    """A cell moved over its neighbours still matches no wall of theirs: the
    certificate fails on condition (ii)."""
    pts, mesh = _square_center_mesh()
    mesh.cells.verts[_rows(mesh, 4)] += np.array([0.18, 0.0])
    report = validate_global(mesh)
    assert not report.ok
    assert {(i, j) for i, j, kind in report.shared_wall_mismatches
            if kind == "wall geometry differs"} == {(0, 4), (1, 4), (2, 4), (3, 4)}


def test_validation_reports_are_reproducible(hex50):
    pts = hex50
    tri = triangulate2(pts)
    nm = neighbor_map(tri)
    sol = solve_radii(tri, nm, pts, mode=VolumeMode.RADICAL_CENTER, bounds_policy="clamp")
    mesh = build_volumes2(tri, nm, pts, sol.radii)
    assert validate_global(mesh) == validate_global(copy.deepcopy(mesh))


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


def _wall_neighbor(mesh, i) -> int:
    """The neighbor of cell i's first interior wall."""
    owner = mesh.cells.row_rings() if mesh.dim == 2 else mesh.cells.cells
    tags = mesh.cells.tags[owner == i]
    return int(tags[tags >= 0][0])


def _duplicate(mesh, i):
    """Cell i's walls, copied under the owner of a neighboring cell in place
    of that cell's own."""
    k = _wall_neighbor(mesh, i)
    s = mesh.cells
    if mesh.dim == 2:
        rows = _rows(mesh, i)
        mesh.cells = with_ring(mesh, k, s.verts[rows], s.tags[rows], s.simplices[rows]).cells
    else:
        mine = s.take(np.flatnonzero(s.cells == i))
        mine.cells[:] = k
        mesh.cells = concat_stacks([s.take(np.flatnonzero(s.cells != k)), mine])


def _fold(mesh, i):
    """A neighbor k of cell i mirrored through the line or plane of their
    shared wall, its loops reversed to keep them outward: the two walls keep
    their vertices, but both cells now lie on one side of them."""
    k = _wall_neighbor(mesh, i)
    s = mesh.cells
    planes = face_planes(s)
    owner = s.row_rings() if mesh.dim == 2 else s.cells
    w = np.flatnonzero((owner == i) & (s.tags == k))[0]
    u, c = planes.u[w], planes.c[w]
    rows = _rows(mesh, k)
    s.verts[rows] -= 2.0 * (s.verts[rows] @ u - c)[:, None] * u
    if mesh.dim == 2:
        m = len(rows)
        s.verts[rows] = s.verts[rows[::-1]]
        s.simplices[rows] = s.simplices[rows[::-1]]
        s.tags[rows] = s.tags[rows[(m - 2 - np.arange(m)) % m]]
    else:
        for f in np.flatnonzero(s.cells == k):
            loop = s.starts[f] + np.arange(s.lengths()[f])
            s.verts[loop] = s.verts[loop[::-1]]
            s.simplices[loop] = s.simplices[loop[::-1]]


def _pull_in(mesh, i):
    """The first domain wall of the mesh moved inward by 1e-5 of the domain
    scale across the domain face it lies on: every vertex row of the mesh at
    one of its vertices moves with it, so the walls on both sides still
    match."""
    s = mesh.cells
    tol = 1e-9 * mesh.scale()
    w = int(np.flatnonzero(s.tags < 0)[0])
    if mesh.dim == 2:
        at = s.verts[[w, s.succ()[w]]]
    else:
        at = s.verts[s.starts[w] + np.arange(s.lengths()[w])]
    dp = face_planes(mesh.domain)
    f = int(np.argmin(np.abs(at @ dp.u.T - dp.c).max(axis=0)))
    near = (np.abs(s.verts[:, None, :] - at[None]) <= tol).all(axis=2).any(axis=1)
    s.verts[near] -= 1e-5 * mesh.scale() * dp.u[f]


def _move_generator(mesh, i):
    """Generator i moved to the mean of the vertices of a neighbor's cell."""
    k = _wall_neighbor(mesh, i)
    mesh.points = mesh.points.copy()
    mesh.points[i] = mesh.cells.verts[_rows(mesh, k)].mean(axis=0)


# corruption -> (edit of the chosen cell, GlobalReport field it must fill)
CORRUPTIONS = {
    None: (None, None),
    "translate": (_translate, "shared_wall_mismatches"),
    "scale3": (_scale3, "foreign_points"),
    "empty": (_empty, "owners_outside"),
    "drop_face": (_drop_face, "foreign_points"),
    "duplicate": (_duplicate, "shared_wall_mismatches"),
    "fold": (_fold, "shared_wall_mismatches"),
    "pull_in": (_pull_in, "overlaps"),
    "move_generator": (_move_generator, "foreign_points"),
}
MUTATIONS = ("duplicate", "fold", "pull_in", "move_generator")


def _corrupted(instance, corruption):
    mesh, i = copy.deepcopy(_instance(instance))
    edit, field = CORRUPTIONS[corruption]
    if edit is not None:
        edit(mesh, i)
    return mesh, i, field


@pytest.mark.parametrize("instance, corruption", [
    ("square", None), ("square", "translate"), ("square", "scale3"),
    ("hex50", None), ("hex50", "translate"),
    ("uni400", None), ("uni400", "translate"), ("uni400", "scale3"), ("uni400", "empty"),
    ("uni60_3d", None), ("uni60_3d", "translate"), ("uni60_3d", "scale3"),
    ("uni60_3d", "empty"), ("uni60_3d", "drop_face"),
])
def test_validate_global_equals_brute_force(instance, corruption):
    """The certificate passes exactly the meshes on which testing every
    probe and every generator against every cell finds no defect."""
    mesh, i, field = _corrupted(instance, corruption)
    report = validate_global(mesh)
    brute = validate_global_brute_force(mesh)
    clean = not any(brute[k] for k in ("shared_wall_mismatches", "overlaps",
                                       "owners_outside", "foreign_points"))
    assert report.ok == clean == (corruption is None)
    if field is not None:
        assert getattr(report, field), field


@pytest.mark.parametrize("instance, corruption", [
    (instance, corruption) for instance in INSTANCES for corruption in CORRUPTIONS
    if corruption != "drop_face" or instance == "uni60_3d"   # a 2D cell has no face to drop
])
def test_validate_global_equals_certify_loop(instance, corruption):
    """The array passes of the certificate report what checking its five
    conditions one cell and one wall at a time reports, on valid and broken
    meshes."""
    mesh, _, _ = _corrupted(instance, corruption)
    assert asdict(validate_global(mesh)) == certify_loop(mesh)


@pytest.mark.parametrize("corruption", MUTATIONS)
@pytest.mark.parametrize("instance", ("square", "uni400", "uni60_3d"))
def test_certificate_catches_mutation(instance, corruption):
    """Each mutation fails the certificate on the condition it breaks: a
    duplicated cell leaves its copy's old neighbors without a side, a fold
    has matching walls whose normals agree, a wall pulled off the domain
    fails (iii) and (iv), and a generator moved into its neighbor's cell is
    outside its own and foreign in the neighbor's."""
    mesh, i, field = _corrupted(instance, corruption)
    report = validate_global(mesh)
    assert not report.ok
    assert getattr(report, field), field
    k = _wall_neighbor(_instance(instance)[0], i)
    kinds = {(a, b): kind for a, b, kind in report.shared_wall_mismatches}
    if corruption == "duplicate":
        assert "missing side" in kinds.values() and k in report.owners_outside
    elif corruption == "fold":
        assert kinds[(min(i, k), max(i, k))] == "normals agree"
    elif corruption == "pull_in":
        assert "off domain" in {cond for _, cond in report.overlaps}
        assert not report.shared_wall_mismatches
        assert report.total_measure < report.domain_measure * (1.0 - 1e-9)
    else:
        assert i in report.owners_outside and (k, i) in report.foreign_points


def test_pentagram_cell_is_not_convex(tmp_path):
    """A ring that winds twice (a pentagram: its corners all turn left, so
    the corner rule alone passes it) is listed as not convex, in a mesh read
    back from mesh.json."""
    mesh, _ = _instance("uni400")
    doc = json.loads(dumps_json(mesh_doc(mesh)))
    k = next(c for c, cell in enumerate(doc["cells"])
             if len(cell["loop"]) == 5 and -1 not in cell["edge_neighbors"])
    cell = doc["cells"][k]
    for key in ("loop", "edge_neighbors", "vertex_simplices"):
        cell[key] = [cell[key][m] for m in (0, 2, 4, 1, 3)]
    star = mesh_from_doc(doc)
    v = star.cells.verts[_rows(star, k)]
    e = np.roll(v, -1, axis=0) - v
    assert np.all(e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0] > 0)
    report = validate_global(star)
    assert (k, "not convex") in report.overlaps
    assert asdict(report) == certify_loop(star)


@cache
def _generator_faces3(n, seed):
    """The face stack of an equal-radii 3D generator cloud (box border
    included), and the mesh's scale."""
    pts = generate_points(RunConfig(dimension=3, n=n, seed=seed))
    tri = tetrahedralize3(pts)
    nm = neighbor_map(tri)
    mesh = build_volumes3(tri, nm, pts, solve_radii(tri, nm, pts, equal_radii=True).radii)
    return mesh.cells, mesh.scale()


def _with_loop(stack, f, loop):
    """The stack with face f's loop replaced by the given rows."""
    lens = stack.lengths()
    ends = np.cumsum(lens)
    verts = np.concatenate([stack.verts[:ends[f] - lens[f]], loop, stack.verts[ends[f]:]])
    lens[f] = len(loop)
    return PolyStack.from_loops(verts, np.cumsum(lens) - lens, stack.tags, stack.cells)


def _broken(stack, i, fault):
    """The stack with one fault in a face of cell i: the face dropped,
    listed twice (every edge repeated), one vertex NaN, or one vertex
    repeated (an edge from a vertex to itself)."""
    f = int(np.flatnonzero(stack.cells == i)[1])
    loop = stack.verts[stack.starts[f]:stack.starts[f] + stack.lengths()[f]]
    every = np.arange(len(stack.starts))
    if fault == "dropped face":
        return stack.take(np.delete(every, f))
    if fault == "repeated edge":
        return stack.take(np.insert(every, f, f))
    if fault == "nan vertex":
        bad = loop.copy()
        bad[1, 2] = np.nan
        return _with_loop(stack, f, bad)
    return _with_loop(stack, f, np.insert(loop, 1, loop[1], axis=0))


@pytest.mark.parametrize("fault", [None, "dropped face", "repeated edge", "nan vertex", "self-loop"])
@pytest.mark.parametrize("source, grid", [("uniform", 1e-9), ("generator", 1e-9), ("generator", 2e-2)])
def test_closed_cells_equal_unique_reference(source, grid, fault):
    """The lexsort numbering and sorted-key search mark the same cells
    closed as numbering by np.unique(axis=0) and testing edges by np.isin:
    on clean face stacks of a uniform cloud and of a generator cloud with
    its box border, at the validation grid (1e-9 of the scale, where every
    cell closes) and at a coarse one (where short edges collapse and many
    cells do not), and on stacks with one broken face, whose cell then does
    not close."""
    if source == "uniform":
        mesh = _sweep_mesh(3, 60, 1)[1]
        stack, scale = mesh.cells, mesh.scale()
    else:
        stack, scale = _generator_faces3(200, 1)
    n = int(stack.cells.max()) + 1
    closed = closed_cells_unique(stack, n, grid * scale)
    assert closed.all() == (grid < 1e-3)
    i = int(np.flatnonzero(closed)[len(closed) // 3 % int(closed.sum())])
    if fault is not None:
        stack = _broken(stack, i, fault)
    got = _closed_cells(stack, n, grid * scale)
    assert np.array_equal(got, closed_cells_unique(stack, n, grid * scale))
    assert got[i] == (fault is None)


def _cell_stack(faces):
    stack = stack_loops([f.verts for f in faces])
    return stack, _face_normals(*stack)


def _cell8(faces):
    """The faces as the one cell of a stack, labelled cell 8, and its face
    planes."""
    stack = polyhedra_stack([[(f.verts, f.neighbor) for f in faces]])
    stack = replace(stack, cells=np.full(len(faces), 8, dtype=np.intp))
    return stack, face_planes(stack)


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


def _face_plane_loop(v):
    """One face's plane, one vertex at a time: its Newell normal (of the
    loop alone taken relative to its first vertex, which `newell_normal`
    gives up to rounding), whether that is nonzero, the unit normal and
    offset of the plane through the first vertex (zero without a normal),
    the largest distance of a vertex from that plane and the longest edge."""
    n = _face_normals(*stack_loops([v - v[0]]))[0]
    nn = math.sqrt(float(n @ n))
    u = n / nn if nn != 0.0 else np.zeros(3)
    c = float(u @ v[0])
    dev = max(abs(float((x - v[0]) @ u)) for x in v)
    edge = max(math.sqrt(float(e @ e)) for e in np.roll(v, -1, axis=0) - v)
    return n, nn != 0.0, u, c, dev, edge


def test_face_planes_equal_per_face_loop():
    """The one-pass face-plane table against one face at a time, bit for
    bit, on a 3D mesh's cells, with one vertex moved off its face plane, and
    with a zero-area face; `nonplanar` flags exactly the moved face."""
    mesh, i = _instance("uni60_3d")
    stack = mesh.cells
    f = int(np.flatnonzero((stack.cells == i) & (stack.lengths() >= 4))[0])
    bent = replace(stack, verts=stack.verts.copy())
    bent.verts[stack.starts[f] + 1] += 1e-3 * mesh.scale()
    flat = polyhedra_stack([faces_of(stack, i) + [(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0],
                                                            [2.0, 2.0, 2.0]]), None)]])
    for s, moved in ((stack, []), (bent, [f]), (flat, [])):
        planes = face_planes(s)
        ends = np.append(s.starts, len(s.verts))
        for g, (a, b) in enumerate(zip(ends[:-1].tolist(), ends[1:].tolist())):
            n, keep, u, c, dev, edge = _face_plane_loop(s.verts[a:b])
            np.testing.assert_allclose(n, newell_normal(s.verts[a:b]), rtol=0.0, atol=1e-14)
            assert (bool(planes.keep[g]), planes.u[g].tolist()) == (keep, u.tolist())
            assert (planes.c[g], planes.dev[g], planes.edge[g]) == (c, dev, edge)
        assert np.flatnonzero(planes.nonplanar()).tolist() == moved
    assert not planes.keep[-1] and planes.keep[:-1].all()


def _built(pts, monkeypatch=None):
    """The equal-radii mesh of pts; with monkeypatch, also the arguments the
    build hands `_check_orphans`."""
    seen = []
    if monkeypatch is not None:
        check = mesh_module._check_orphans

        def spy(*args):
            seen.append(args)
            return check(*args)
        monkeypatch.setattr(mesh_module, "_check_orphans", spy)
    tri = triangulate2(pts) if pts.shape[1] == 2 else tetrahedralize3(pts)
    nm = neighbor_map(tri)
    r = solve_radii(tri, nm, pts, equal_radii=True).radii
    build = build_volumes2 if pts.shape[1] == 2 else build_volumes3
    return build(tri, nm, pts, r), nm, (seen[0] if seen else None)


def _cell_rows(mesh):
    """The cell of every vertex row of a mesh's cell stack."""
    return mesh.cells.row_rings() if mesh.dim == 2 else mesh.cells.row_cells()


def _inside(mesh):
    """Per simplex, whether its candidate vertex lies inside every domain
    plane by more than 1e-9 * scale."""
    q = mesh.simplex_vertices
    inside = np.ones(len(q), dtype=bool)
    planes = face_planes(mesh.domain)
    for u, c in zip(planes.u, planes.c):
        inside &= q @ u - c < -1e-9 * mesh.scale()
    return inside


@pytest.mark.parametrize("dim, n", [(2, 400), (3, 300)])
@pytest.mark.parametrize("seed", range(3))
def test_build_ids_equal_distance_reference(dim, n, seed):
    """On generator clouds the simplex id each row carries from assembly is
    the one the distance reference finds: the first simplex of the cell, in
    row order, whose candidate vertex lies within 1e-9 * scale of the row
    (None for clip points)."""
    mesh, nm, _ = _built(uniform_points(dim, n, seed))
    q, eps = mesh.simplex_vertices, 1e-9 * mesh.scale()
    rows = _cell_rows(mesh)
    for i in range(n):
        mine = rows == i
        cand = nm.simplex[nm.owner == i]
        want = match_simplex_ids(mesh.cells.verts[mine], q, cand[cand >= 0], eps)
        assert [None if t < 0 else t for t in mesh.cells.simplices[mine].tolist()] == want


@pytest.mark.parametrize("dim", [2, 3])
def test_stripped_vertex_raises_orphan_naming_its_simplex(dim):
    """A cell that loses the rows of one of its vertices inside the domain
    no longer covers that vertex's simplex, though the other corners' cells
    do: the orphan check names that simplex. The intact stack passes."""
    mesh, _, _ = _built(uniform_points(dim, 400 if dim == 2 else 60, 1))
    rows, ids = _cell_rows(mesh), mesh.cells.simplices
    args = mesh.simplices, mesh.simplex_vertices
    planes, eps = face_planes(mesh.domain), 1e-9 * mesh.scale()
    mesh_module._check_orphans(*args, rows, ids, planes, eps)
    inside = _inside(mesh)
    for k in (np.flatnonzero((ids >= 0) & inside[np.maximum(ids, 0)])[[0, -1]]).tolist():
        gone = (rows == rows[k]) & (ids == ids[k])
        assert gone.sum() == (1 if dim == 2 else 3)
        with pytest.raises(OrphanVertex) as err:
            mesh_module._check_orphans(*args, rows[~gone], ids[~gone], planes, eps)
        assert err.value.simplex == ids[k]


@pytest.mark.parametrize("dim, k", [(2, 13), (3, 5)])
def test_lattice_simplices_counted_by_every_corner(dim, k, monkeypatch):
    """On unit lattices, where the simplices of one square or cube share a
    center and the rows merge, every simplex inside the domain is covered
    by the d + 1 cells of its corners, counting each (cell, simplex) pair
    once; some only through the ids the cells absorbed, and no cell covers
    a simplex it is not a corner of."""
    mesh, _, (simplices, q, cells, ids, _, _) = _built(_lattice(dim, k), monkeypatch)
    assert np.array_equal(simplices, mesh.simplices)
    nrow = len(mesh.cells.verts)
    assert np.array_equal(cells[:nrow], _cell_rows(mesh))
    assert np.array_equal(ids[:nrow], mesh.cells.simplices)
    inside = _inside(mesh)
    assert inside.all()

    def counts(cells, ids):
        real = ids >= 0
        pair = np.unique(ids[real] * len(mesh.points) + cells[real])
        t, c = np.divmod(pair, len(mesh.points))
        assert np.all(np.any(simplices[t] == c[:, None], axis=1))
        return np.bincount(t, minlength=len(q))

    assert np.all(counts(cells, ids) == dim + 1)
    assert np.any(counts(cells[:nrow], ids[:nrow]) < dim + 1)


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
    check_face_planarity(8, neighbors, *_cell_stack(faces))
    _check_cells3(*_cell8(faces), 1.0)
    k = next(k for k, f in enumerate(faces) if len(f.verts) >= 4 and f.neighbor is not None)
    n = newell_normal(faces[k].verts)
    faces[k].verts = faces[k].verts.copy()
    faces[k].verts[1] += 1e-3 * n / np.linalg.norm(n)
    with pytest.raises(NonPlanarFace) as err:
        _check_cells3(*_cell8(faces), 1.0)
    assert (err.value.owner, err.value.neighbor) == (8, faces[k].neighbor)
    assert err.value.deviation > 1e-4
    want = _raised(check_face_planarity, 8, neighbors, *_cell_stack(faces))[1]
    assert want == _raised(_check_cells3, *_cell8(faces), 1.0)[1]


def test_outside_vertex_raises_nonconvex_3d():
    faces = _cube_center_faces()
    check_convex3(8, *_cell_stack(faces), scale=1.0)
    _check_cells3(*_cell8(faces), 1.0)
    n = newell_normal(faces[0].verts)
    faces[0].verts = faces[0].verts + 0.05 * n / np.linalg.norm(n)  # still planar
    stack, normals = _cell_stack(faces)
    check_face_planarity(8, [f.neighbor for f in faces], stack, normals)
    with pytest.raises(NonConvexCell) as err:
        _check_cells3(*_cell8(faces), 1.0)
    assert err.value.owner == 8
    want = _raised(check_convex3, 8, stack, normals, 1.0)[1]
    assert want == _raised(_check_cells3, *_cell8(faces), 1.0)[1]


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
    tests/oracles.py: identical simplex ids, the containment of each cell's
    owner and wall neighbors, equal perpendicularity reports, volumes to
    1e-13."""
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

    tol = 1e-9 * scale
    report = validate_global(mesh)
    measures = _cell_measures(mesh.cells, len(mesh.points))
    foreign = set(report.foreign_points)
    for cell in cells:
        i = cell.owner
        assert (i not in report.owners_outside) == cell_contains3(cell, mesh.points[i], -tol)
        for j in {f.neighbor for f in cell.faces if f.neighbor is not None}:
            assert ((i, j) in foreign) == cell_contains3(cell, mesh.points[j], -tol)
        assert measures[i] == pytest.approx(cell_volume3(cell), rel=1e-13, abs=0.0)
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
        want = build_cells2_loop(pts, q, ref.rings, ref.closed, ref.ring_simplices,
                                 domain.verts)
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
    want = build_cells2_loop(pts, q, rings, ref.closed, tids, domain.verts)
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
    want = build_cells2_loop(pts, q, ref.rings, ref.closed, ref.ring_simplices, domain.verts)
    mesh = build_volumes2(tri, nm, pts, r, domain=domain)
    for cell, (v, tags, ids) in zip(cell_records(mesh), want):
        assert cell.verts.tobytes() == v.tobytes()
        assert (cell.edge_neighbors, cell.vertex_simplices) == (tags, ids)
    assert validate_global(mesh).ok


def _lattice(dim, k):
    g = np.linspace(0.0, 1.0, k)
    return np.stack(np.meshgrid(*[g] * dim, indexing="ij"), axis=-1).reshape(-1, dim)


def _same_loop(verts, ids, tags, want_verts, want_ids, want_tags, tol) -> bool:
    """Whether a loop is the wanted one up to the vertex it starts at: the
    same simplex ids (and edge tags, when given) at every vertex, each
    vertex within tol. A wanted id may also be a set of the ids allowed."""
    k = len(verts)
    if k != len(want_verts):
        return False
    for s in range(k):
        at = (np.arange(k) + s) % k
        if (all(x in w if isinstance(w, set) else x == w
                for x, w in zip(ids, [want_ids[a] for a in at]))
                and (tags is None or [want_tags[a] for a in at] == tags)
                and np.all(np.abs(want_verts[at] - verts) <= tol)):
            return True
    return False


HULL_CASES = (
    [("uniform", 2, n, seed) for n in (20, 100, 400) for seed in range(3)]
    + [("uniform", 3, n, seed) for n in (30, 60) for seed in range(3)] + [("uniform", 3, 200, 0)]
    + [("lattice", 2, k, 0) for k in (3, 8, 13)] + [("lattice", 3, k, 0) for k in (3, 4, 5)]
    + [("hexagon", 2, 60, seed) for seed in range(2)]
    + [("far", 2, 400, 1), ("far", 3, 300, 1)]
)


@pytest.mark.parametrize("kind, dim, n, seed", HULL_CASES)
def test_hull_cells_equal_bisector_reference(kind, dim, n, seed):
    """In equal-radii mode every hull cell, closed through its ghost
    simplices and cut by the domain alone, is the domain cut by the power
    bisectors toward its neighbors (`bisector_cell2`, `bisector_cell3`):
    the same walls with the same tags and simplex ids, each vertex within
    1e-12 of the scale, up to where a loop starts and the order of the
    faces. Generator clouds, lattices (shared circumcenters), a turned
    hexagonal domain and a unit box moved to 1e3. A 3D lattice wall keeps
    the id of the first of its merged rows in angular order, so there the
    id may be any simplex of the cell whose center lies at the vertex."""
    if kind == "lattice":
        pts = _lattice(dim, n)
    elif kind == "far":
        pts = uniform_points(dim, n, seed, box=[1e3] * dim + [1e3 + 1.0] * dim)
    else:
        pts = uniform_points(dim, n, seed)
    tri = triangulate2(pts) if dim == 2 else tetrahedralize3(pts)
    nm = neighbor_map(tri)
    r = solve_radii(tri, nm, pts, equal_radii=True).radii
    q = simplex_systems(tri).vertices(r)
    if dim == 2:
        domain = hexagonal_domain(pts) if kind == "hexagon" else bounding_domain2(pts)
        mesh = build_volumes2(tri, nm, pts, r, domain=domain)
    else:
        mesh = build_volumes3(tri, nm, pts, r)
    scale = mesh.scale()
    eps, tol = 1e-10 * scale, 1e-12 * scale
    ref = neighbor_lists(tri)
    cells = cell_records(mesh)
    for i in np.flatnonzero(nm.on_hull).tolist():
        nbrs = np.unique(ref.neighbors(i))
        cell = cells[i]
        if dim == 2:
            cand = ref.ring_simplices[i]
            v, tags = bisector_cell2(pts, r, i, nbrs, mesh.domain.verts, eps)
            ids = match_simplex_ids(v, q, cand, 1e-9 * scale)
            assert _same_loop(cell.verts, cell.vertex_simplices, cell.edge_neighbors,
                              v, ids, tags, tol), i
            continue
        cand = ref.star_simplices[i]
        want = bisector_cell3(pts, r, i, nbrs, faces_of(mesh.domain), eps)
        got = list(cell.faces)
        assert sorted(f.neighbor if f.neighbor is not None else -1 for f in got) == \
            sorted(t if t is not None else -1 for _, t in want), i
        for v, t in want:
            ids = match_simplex_ids(v, q, cand, 1e-9 * scale)
            if kind == "lattice":
                ids = [{c for c in cand.tolist() if np.linalg.norm(q[c] - x) <= 1e-9 * scale}
                       or {None} for x in v]
            hit = [k for k, f in enumerate(got) if f.neighbor == t
                   and _same_loop(f.verts, f.vertex_simplices, None, v, ids, None, tol)]
            assert hit, (i, t)
            got.pop(hit[0])


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
    """The planes (`face_planes`) and measure of a one-cell domain stack,
    from its arrays, against the one-edge half-planes, the one-face planes
    and the one-loop area and volume, bit for bit, on random boxes and
    turned hexagons."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        lo = rng.normal(size=3) * 10.0 ** rng.integers(-3, 4)
        hi = lo + rng.random(3) * 10.0 ** rng.integers(-3, 4) + 1e-9
        for domain in (box_polygon(lo[:2], hi[:2]), hexagonal_domain(lo[None, :2])):
            planes = face_planes(domain)
            want = halfplanes(domain.verts)
            assert planes.u.tolist() == [w.tolist() for w, _ in want]
            assert planes.c.tolist() == [w for _, w in want]
            assert planes.keep.all() and not planes.dev.any()
            edges = np.roll(domain.verts, -1, axis=0) - domain.verts
            assert planes.edge.tolist() == [math.sqrt(float(e @ e)) for e in edges]
            mesh = ControlVolumeMesh(2, lo[None, :2], None, domain, domain)
            assert mesh.domain_measure() == polygon_area(domain.verts)
        box = box_polyhedron(lo, hi)
        loops = [v for v, _ in faces_of(box)]
        planes = face_planes(box)
        for g, v in enumerate(loops):
            _, keep, u, c, dev, edge = _face_plane_loop(v)
            assert (bool(planes.keep[g]), planes.u[g].tolist()) == (keep, u.tolist())
            assert (planes.c[g], planes.dev[g], planes.edge[g]) == (c, dev, edge)
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


def test_reflex_hull_ring_raises_instead_of_clipped_convex():
    """No repair after the build: in the default mode, generator cloud n=50
    seed 0 gives hull point 4 a ring with a reflex corner. Cutting the
    domain by power bisectors, the old hull rule, made that cell convex;
    closed through its ghost triangles, it raises NonConvexCell naming the
    point, as an interior cell does."""
    pts, tri, nm, r = _sweep2("default", 50, 0)
    assert nm.on_hull[4]
    with pytest.raises(NonConvexCell) as err:
        build_volumes2(tri, nm, pts, r)
    assert err.value.owner == 4
    domain = bounding_domain2(pts)
    scale = float(np.linalg.norm(domain.verts.max(axis=0) - domain.verts.min(axis=0)))
    v, _ = bisector_cell2(pts, r, 4, neighbor_lists(tri).rings[4], domain.verts, 1e-10 * scale)
    e = np.roll(v, -1, axis=0) - v
    assert np.all(e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1) >= 0.0)


# Of the default-mode and exact-mode sweeps (clamped bounds; 2D n=20, 50, 100
# and 400 and 3D n=30 and 60 with seeds 0-9, 3D n=200 with seeds 0-2), the
# cases that built when hull cells were cut from the domain by power
# bisectors; every other case raised under both rules.
BUILT_UNDER_BISECTORS = (
    [("radical-center", 2, 20, s) for s in (3, 6, 8)] + [("radical-center", 3, 30, 6)]
    + [("exact-intersection", 2, 20, s) for s in (1, 3, 5, 8)]
    + [("exact-intersection", 2, 50, s) for s in (3, 7, 8)]
)


@pytest.mark.parametrize("mode, dim, n, seed", BUILT_UNDER_BISECTORS)
def test_sweep_cases_that_built_under_bisectors_still_build(mode, dim, n, seed):
    """Closing hull cells through their ghost simplices fails no case that
    the bisector rule built: each gives a valid mesh."""
    pts = uniform_points(dim, n, seed)
    tri = triangulate2(pts) if dim == 2 else tetrahedralize3(pts)
    nm = neighbor_map(tri)
    r = solve_radii(tri, nm, pts, mode=VolumeMode(mode), seed=seed, bounds_policy="clamp").radii
    mesh = (build_volumes2 if dim == 2 else build_volumes3)(tri, nm, pts, r)
    assert validate_global(mesh).ok and validate_perpendicularity(mesh).ok


def test_perpendicularity_2d_flags_displaced_vertex_as_loop_reference():
    mesh, i = copy.deepcopy(_instance("uni400"))
    mesh.cells.verts[_rows(mesh, i)[0]] += np.array([1e-3, -2e-3])
    report = validate_perpendicularity(mesh, tol=1e-6)
    assert i in {a for a, _, _ in report.violations}
    assert (report.checked, report.violations) == perpendicularity_loop2(mesh, tol=1e-6)


def _clip_to_domain_loop(stack, planes, eps):
    """The one-cell-at-a-time domain clip that `_clip_to_domain` replaced."""
    planes = list(zip(planes.u, planes.c))
    beyond = np.zeros(len(stack.verts), dtype=bool)
    for n, c in planes:
        beyond |= stack.verts @ n - c > eps
    crossing = np.unique(stack.row_cells()[beyond])
    parts = [stack.take(np.flatnonzero(~np.isin(stack.cells, crossing)))]
    for i in crossing.tolist():
        poly = polyhedra_stack([faces_of(stack, i)])
        for n, c in planes:
            if np.any(poly.verts @ n - c > eps):
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
        check_face_planarity(i, tags, cell, normals[f0:f1])
        ids += match_simplex_ids(v, q, ref.star_simplices[i], match_eps)
        check_convex3(i, cell, normals[f0:f1], scale)
    return [-1 if t is None else t for t in ids]


def _stack3(n, seed, default):
    """One 3D case and its cells' walls before the domain clip: the star
    rows of every point and the ghost rows of every hull point, in one
    `_cell_walls` pass."""
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
    planes = face_planes(domain)
    m, far = _far_planes(pts, nm, q, dv, scale)
    walls = _cell_walls(*_star_rows(tet, nm, pts, q, m, far), pts, m, eps)[0]
    return nm, neighbor_lists(tet), q, planes, scale, eps, walls


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
    nm, ref, q, planes, scale, eps, walls = _stack3(n, seed, default)
    stack = _clip_to_domain(walls, planes, eps)
    _same_stack(stack, _clip_to_domain_loop(walls, planes, eps))
    normals = _face_normals(stack.verts, stack.starts, stack.succ)
    want, error = _raised(_check_cells3_loop, stack, normals, scale, q, ref, 1e-9 * scale)
    assert _raised(_check_cells3, stack, face_planes(stack), scale)[1] == error
    if error is None:
        assert stack.simplices.tolist() == want


def test_3d_stack_checks_report_first_failing_cell():
    """Break a late cell's planarity and an earlier cell's convexity: the
    earlier cell is reported, as the cell loop reports it; then only the
    planarity break, reported as NonPlanarFace."""
    nm, ref, q, planes, scale, eps, walls = _stack3(60, 1, False)
    stack = _clip_to_domain(walls, planes, eps)
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
    assert _raised(_check_cells3, bent, face_planes(bent), scale)[1] == error
    g = int(np.searchsorted(stack.cells, early))
    # one face pushed inward, still planar: its neighbors' corners stick out
    verts[int(ends[g]):int(ends[g + 1])] -= 0.05 * scale * normals[g] / np.linalg.norm(normals[g])
    both = replace(stack, verts=verts)
    normals = _face_normals(both.verts, both.starts, both.succ)
    _, error = _raised(_check_cells3_loop, both, normals, scale, q, ref, 1e-9 * scale)
    assert error[:2] == (NonConvexCell, early)
    assert _raised(_check_cells3, both, face_planes(both), scale)[1] == error


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


def test_face_planes_keep_small_faces_planar_far_from_origin():
    """Triangles with edges near 1e-4 at 1e5 from the origin are planar: the
    face normals are taken relative to each face's first vertex, where the
    absolute Newell sums would tilt them by about 1e-6 rad."""
    rng = np.random.default_rng(3)
    loops = [1e5 + rng.random(3) + 1e-4 * rng.random((3, 3)) for _ in range(200)]
    planes = face_planes(polyhedra_stack([[(v, None) for v in loops]]))
    assert not planes.nonplanar().any()
    assert np.all(planes.dev <= 1e-9 * planes.edge)
