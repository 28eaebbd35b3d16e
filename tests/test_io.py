import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from cvmesh.clipping import RingStack
from cvmesh.delaunay import neighbor_map, tetrahedralize3, triangulate2
from cvmesh.errors import (
    DimensionMismatch,
    IoFailure,
    RejectionBudgetExceeded,
    UnsupportedFormat,
)
from cvmesh.io import (
    PooledVertices,
    RunConfig,
    dumps_json,
    export_mesh,
    generate_points,
    mesh_doc,
    mesh_from_doc,
    radii_doc,
    read_json,
    vtk_polydata,
    vtk_unstructured,
)
import cvmesh.io as io_mod
from cvmesh.mesh import build_volumes2, build_volumes3, validate_global, validate_perpendicularity
from cvmesh.pipeline import report_doc, run_pipeline
from cvmesh.solver import VolumeMode, solve_radii
from cvmesh.svg import SvgOptions, render_svg

import oracles
from conftest import bcc_cell, hexagon_patch, hexagonal_domain, uniform_points, with_ring
from oracles import GenerationBudgetExceeded, cell_records, reference_points


def test_json_floats_roundtrip_exactly():
    values = [0.1, 1 / 3, math.pi, 1e-300, 1e300, -2.5e-17, 123456789.123456789]
    text = dumps_json({"v": values})
    back = json.loads(text)["v"]
    assert back == values  # bit-exact through 17 significant digits


def test_json_non_finite_becomes_null():
    assert dumps_json(float("nan")) == "null"
    assert dumps_json(float("inf")) == "null"


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig(dimension=4)
    with pytest.raises(ValueError):
        RunConfig(dimension=2, n=2)
    with pytest.raises(ValueError):
        RunConfig(mode="banana")
    with pytest.raises(ValueError):
        RunConfig(tol_perp=-1.0)
    with pytest.raises(ValueError):
        RunConfig(bounds_policy="loose")
    cfg = RunConfig(dimension=3, n=9)
    assert cfg.box == (0.0, 0.0, 0.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("formats", [("jsn",), ("json", "png"), ("",), tuple("json")])
def test_runconfig_rejects_unknown_formats(formats, tmp_path):
    """A format other than json, vtk or svg is an input error naming it, at
    construction, from a config file and through replace; before, the run
    skipped it and wrote no mesh."""
    with pytest.raises(ValueError, match="unknown formats"):
        RunConfig(formats=formats)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"formats": list(formats)}))
    with pytest.raises(ValueError, match="unknown formats"):
        RunConfig.from_file(str(p))
    with pytest.raises(ValueError, match="unknown formats"):
        RunConfig().replace(formats=formats)
    assert RunConfig(formats=("svg", "json", "vtk")).formats == ("svg", "json", "vtk")
    assert RunConfig(formats=()).formats == ()


def test_runconfig_from_file_rejects_unknown_keys(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text('{"n": 12, "sneed": 4}')
    with pytest.raises(ValueError, match="sneed"):
        RunConfig.from_file(str(p))
    p.write_text('{"n": 12, "seed": 4, "optimizer": {"generations": 5}}')
    cfg = RunConfig.from_file(str(p), seed=9)
    assert cfg.n == 12 and cfg.seed == 9
    assert cfg.optimizer.generations == 5


def test_generate_points_deterministic():
    cfg = RunConfig(dimension=2, n=3, seed=7)
    a = generate_points(cfg)
    b = generate_points(cfg)
    assert a.shape == (3, 2)
    assert np.array_equal(a, b)


def test_generate_points_min_separation_scan():
    cfg = RunConfig(dimension=2, n=100, seed=5)
    pts = generate_points(cfg)
    min_sep = cfg.min_sep_factor * 1.0 / math.sqrt(cfg.n)
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    np.fill_diagonal(d, np.inf)
    assert d.min() >= min_sep - 1e-12


def test_generate_points_interior_only_mode():
    cfg = RunConfig(dimension=2, n=40, seed=3, boundary=False, min_sep_factor=0.2)
    pts = generate_points(cfg)
    assert np.all(pts > 0.0) and np.all(pts < 1.0)
    min_sep = 0.2 / math.sqrt(40)
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    np.fill_diagonal(d, np.inf)
    assert d.min() >= min_sep


@pytest.mark.parametrize("config, digest", [
    (dict(dimension=2, n=400, seed=1),
     "6cd6c54084ed64dae235476e7591943a21fc3d6c35b97b58c7895a1ab7349dfb"),
    (dict(dimension=3, n=60, seed=1),
     "cf9de033c67d16d60eea60b25cbd5c86619d8ffbbc78e312164f33fcad1e4cc8"),
])
def test_generate_points_pinned_output(config, digest):
    """The generated coordinates are part of every artifact's identity: any
    change to the RNG draws or the acceptance arithmetic shows here."""
    pts = np.asarray(generate_points(RunConfig(**config)), dtype="<f8")
    assert pts.shape == (config["n"], config["dimension"])
    assert hashlib.sha256(pts.tobytes()).hexdigest() == digest


def _reference(cfg: RunConfig) -> np.ndarray:
    lo, hi = cfg.box_bounds()
    return reference_points(lo, hi, cfg.n, cfg.seed, cfg.min_sep_factor, cfg.boundary)


@pytest.mark.parametrize("dim, n", [
    (2, 3), (2, 10), (2, 50), (2, 200), (2, 1000),
    (3, 4), (3, 20), (3, 60), (3, 300),
])
def test_generate_points_matches_scalar_loop(dim, n):
    """Block-drawn candidates over the background grid place the same points,
    byte for byte, as one candidate at a time against every placed point."""
    offset_box = (0.5, -2.0, 1.0)[:dim] + (1.7, 0.5, 4.0)[:dim]
    for seed in (0, 1):
        for boundary in (True, False):
            for box in (None, offset_box):
                cfg = RunConfig(dimension=dim, n=n, seed=seed, boundary=boundary, box=box)
                assert generate_points(cfg).tobytes() == _reference(cfg).tobytes(), cfg


@pytest.mark.parametrize("config, capped, digest", [
    (dict(dimension=2, n=20_000, seed=1), True,
     "94aacd9f8e639ee2eac37e83e61ac354430c0d9dd06f343bdbe62f9bd31f6962"),
    (dict(dimension=3, n=5000, seed=1), False,
     "830d26e0f45ff7be489527448716041bef0df2af6ced1660e3631fed9b40f328"),
])
def test_generate_points_pinned_output_at_size(config, capped, digest, monkeypatch):
    """Past the scalar-loop sizes: both clouds merge many blocks into the
    placed points' buckets, and the 2D one draws blocks capped at
    _MAX_BLOCK. The digests are those of the grid that re-sorted every
    placed point for each block."""
    blocks, capped_draws = [], []

    class Grid(io_mod._BackgroundGrid):
        def add(self, flat):
            blocks.append(len(flat))
            super().add(flat)

        def flat(self, x):
            capped_draws.append(len(x) == io_mod._MAX_BLOCK)
            return super().flat(x)

    monkeypatch.setattr(io_mod, "_BackgroundGrid", Grid)
    pts = np.asarray(generate_points(RunConfig(**config)), dtype="<f8")
    assert hashlib.sha256(pts.tobytes()).hexdigest() == digest
    assert len(blocks) > 5 and sum(blocks) == config["n"]
    assert any(capped_draws) == capped


@pytest.mark.parametrize("config", [
    dict(dimension=2, n=200, seed=1, box=(0.0, 0.0, 1000.0, 1.0), min_sep_factor=10.0),
    dict(dimension=2, n=30, seed=2, box=(0.0, 0.0, 100.0, 1.0), min_sep_factor=2.0),
    dict(dimension=2, n=120, seed=3, box=(0.0, 0.0, 1.0, 300.0), min_sep_factor=6.0,
         boundary=False),
    dict(dimension=3, n=40, seed=1, box=(0.0, 0.0, 0.0, 60.0, 1.0, 1.0), min_sep_factor=1.5),
    dict(dimension=3, n=100, seed=2, box=(0.0, 0.0, 0.0, 1.0, 80.0, 0.5), min_sep_factor=4.0),
])
def test_generate_points_matches_scalar_loop_on_thin_grids(config, monkeypatch):
    """Long thin boxes whose grid has one or two cells across a short axis
    (the long axis widened to keep the grid O(n)), so the margin cells
    around the grid outnumber the cells inside it: the same bytes as the
    scalar loop."""
    grids = []

    class Grid(io_mod._BackgroundGrid):
        def __init__(self, *args):
            super().__init__(*args)
            grids.append(self)

    monkeypatch.setattr(io_mod, "_BackgroundGrid", Grid)
    cfg = RunConfig(**config)
    assert generate_points(cfg).tobytes() == _reference(cfg).tobytes()
    (grid,) = grids
    assert grid.top.min() <= 1
    assert grid.size > 2 * np.prod(grid.top + 1)


def test_background_grid_distance_is_norm_bit_for_bit():
    """Point pairs whose squared differences sum to another double when
    summed from the last column: with min_sep the larger of the two
    distances, the grid decides each pair as np.linalg.norm does."""
    rng = np.random.default_rng(0)
    lo, hi = np.zeros(3), np.ones(3)
    cases = 0
    while cases < 20:
        a = 0.5 + 0.01 * (rng.random((1, 3)) - 0.5)
        b = a + 0.05 * (rng.random((1, 3)) - 0.5)
        sq = (b - a)[0] ** 2
        first, last = np.sqrt((sq[0] + sq[1]) + sq[2]), np.sqrt(sq[0] + (sq[1] + sq[2]))
        if first == last:
            continue
        cases += 1
        min_sep = max(first, last)
        grid = io_mod._BackgroundGrid(lo, hi, min_sep, 10)
        grid.add(grid.flat(b))
        q, _ = grid.conflicts(a, grid.flat(a), b, grid.bound, grid.order)
        assert len(q) == int(np.linalg.norm(b - a, axis=1)[0] < min_sep)


def test_generate_points_budget_exceeded():
    """The budget runs out at the same attempt with the same points placed
    as in the scalar loop, with or without a border layer, in 2D and 3D."""
    with pytest.raises(RejectionBudgetExceeded):
        generate_points(RunConfig(dimension=2, n=200, seed=1, min_sep_factor=2.5))
    for config in (
        dict(dimension=2, n=30, seed=1, min_sep_factor=2.5),
        dict(dimension=3, n=20, seed=2, min_sep_factor=2.0, boundary=False),
        dict(dimension=3, n=30, seed=2, min_sep_factor=2.5),
    ):
        cfg = RunConfig(**config)
        with pytest.raises(GenerationBudgetExceeded) as ref:
            _reference(cfg)
        with pytest.raises(RejectionBudgetExceeded) as got:
            generate_points(cfg)
        assert str(got.value) == str(ref.value)


def test_generate_points_grid_memory_on_elongated_box():
    """A 1 x 10^4 box at n=400: a grid with one cell per min_sep would have
    about 7e6 cells; cells widened along the long axis keep the run small."""
    cfg = RunConfig(dimension=2, n=400, seed=1, box=(0.0, 0.0, 1e4, 1.0))
    tracemalloc.start()
    try:
        pts = generate_points(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6, peak
    assert pts.tobytes() == _reference(cfg).tobytes()


@pytest.mark.parametrize("box, spacing", [
    ((0.0, 0.0, 1.0, 1.0), 0.05),
    ((0.5, -2.0, 1.7, 0.5), 0.3),
    ((0.0, 0.0, 1e4, 1.0), 0.047),
    ((0.0, 0.0, 1.0, 1.0), 2.0),
    ((0.0, 0.0, 0.0, 1.0, 1.0, 1.0), 0.2),
    ((0.5, -2.0, 1.0, 1.7, 0.5, 4.0), 0.4),
    ((0.0, 0.0, 0.0, 50.0, 1.0, 2.0), 0.3),
    ((0.0, 0.0, 0.0, 1.0, 1.0, 1.0), 3.0),
])
def test_border_size_counts_border_samples(box, spacing):
    """The border size and draw count found without a draw are the points
    the border layer places and the stream it consumes."""
    d = len(box) // 2
    lo, hi = np.asarray(box[:d]), np.asarray(box[d:])
    drawn, skipped = np.random.default_rng(5), np.random.default_rng(5)
    border = io_mod._border_samples(lo, hi, spacing, drawn)
    size, draws = io_mod._border_size(lo, hi, spacing)
    assert size == len(border)
    skipped.bit_generator.advance(draws)
    assert drawn.random(3).tolist() == skipped.random(3).tolist()


@pytest.mark.parametrize("config", [
    dict(dimension=2, n=400, seed=1, box=(0.0, 0.0, 1e4, 1.0)),
    dict(dimension=3, n=60, seed=1),
    dict(dimension=3, n=60, seed=2, box=(0.0, 0.0, 0.0, 50.0, 1.0, 1.0)),
])
def test_generate_points_skips_a_border_it_would_drop(config, monkeypatch):
    """A box whose border layer would hold n points or more (426,708 for a
    1 x 10^4 box at n=400, 98 for the unit cube at n=60) draws none, and
    places the points the scalar loop places after drawing and dropping it."""
    ref = _reference(RunConfig(**config))

    def no_draw(*args):
        raise AssertionError("border drawn")

    monkeypatch.setattr(io_mod, "_border_samples", no_draw)
    assert generate_points(RunConfig(**config)).tobytes() == ref.tobytes()


def _mesh2(seed=3, n=12):
    pts = uniform_points(2, n, seed)
    tri = triangulate2(pts)
    nm = neighbor_map(tri)
    mesh = build_volumes2(tri, nm, pts, np.full(n, 0.05))
    mesh.mode = "radical-center"
    return mesh


def _mesh3():
    pts = bcc_cell(seed=1)
    tet = tetrahedralize3(pts)
    nm = neighbor_map(tet)
    mesh = build_volumes3(tet, nm, pts, np.full(9, 0.2))
    mesh.mode = "radical-center"
    return mesh


def _hex_domain_mesh(seed=0):
    """The mesh of 60 generator points in a turned hexagonal domain."""
    pts = uniform_points(2, 60, seed)
    tri = triangulate2(pts)
    nm = neighbor_map(tri)
    r = solve_radii(tri, nm, pts, equal_radii=True).radii
    mesh = build_volumes2(tri, nm, pts, r, domain=hexagonal_domain(pts))
    mesh.mode = "radical-center"
    return mesh


def test_mesh_json_roundtrip_bit_exact(tmp_path):
    """Written and read back, a mesh gives the same document, and its cell
    stack and one-cell domain stack the same arrays, field for field."""
    for mesh in (_mesh2(), _mesh3(), _hex_domain_mesh()):
        doc = mesh_doc(mesh)
        text = dumps_json(doc)
        back = mesh_from_doc(json.loads(text))
        assert dumps_json(mesh_doc(back)) == text
        for stack in ("cells", "domain"):
            built, read = getattr(mesh, stack), getattr(back, stack)
            assert type(read) is type(built)
            for f in dataclasses.fields(built):
                a, b = getattr(built, f.name), getattr(read, f.name)
                assert a.dtype == b.dtype, (stack, f.name)
                assert a.shape == b.shape and np.array_equal(a, b), (stack, f.name)


def test_mesh_doc_schema_rejected_on_major_mismatch():
    doc = mesh_doc(_mesh2())
    doc["schema"] = "cvmesh/2"
    with pytest.raises(IoFailure):
        mesh_from_doc(doc)
    doc["schema"] = "someting-else"
    with pytest.raises(IoFailure):
        mesh_from_doc(doc)


def test_export_errors(tmp_path):
    mesh = _mesh2()
    with pytest.raises(UnsupportedFormat):
        export_mesh(mesh, str(tmp_path / "m.xyz"), "xyz")
    mesh.cells = RingStack.from_rings(np.empty((0, 2)), np.zeros(len(mesh.points)), [])
    with pytest.raises(IoFailure):
        export_mesh(mesh, str(tmp_path / "m.json"), "json")
    assert not (tmp_path / "m.json").exists()


def _check_vtk_counts(text: str):
    lines = text.strip().splitlines()
    assert lines[0].startswith("# vtk DataFile")
    assert lines[2] == "ASCII"
    npoints = None
    for k, line in enumerate(lines):
        if line.startswith("POINTS"):
            npoints = int(line.split()[1])
            coords = lines[k + 1: k + 1 + npoints]
            assert all(len(c.split()) == 3 for c in coords)
    assert npoints is not None
    return lines


def test_vtk_polydata_structure():
    mesh = _mesh2()
    lines = _check_vtk_counts(vtk_polydata(mesh))
    k = [i for i, l in enumerate(lines) if l.startswith("POLYGONS")][0]
    ncells, size = (int(v) for v in lines[k].split()[1:])
    rows = lines[k + 1: k + 1 + ncells]
    assert len(rows) == ncells == sum(1 for c in cell_records(mesh) if not c.empty)
    total = 0
    for row in rows:
        vals = [int(v) for v in row.split()]
        assert vals[0] == len(vals) - 1
        total += len(vals)
    assert total == size


def test_vtk_polyhedron_stream_structure():
    mesh = _mesh3()
    lines = _check_vtk_counts(vtk_unstructured(mesh))
    k = [i for i, l in enumerate(lines) if l.startswith("CELLS")][0]
    ncells, size = (int(v) for v in lines[k].split()[1:])
    rows = lines[k + 1: k + 1 + ncells]
    total = 0
    for row in rows:
        vals = [int(v) for v in row.split()]
        assert vals[0] == len(vals) - 1  # record length prefix
        nfaces = vals[1]
        cursor = 2
        for _ in range(nfaces):
            npts = vals[cursor]
            cursor += 1 + npts
        assert cursor == len(vals)
        total += len(vals)
    assert total == size
    t = [i for i, l in enumerate(lines) if l.startswith("CELL_TYPES")][0]
    assert int(lines[t].split()[1]) == ncells
    assert all(l == "42" for l in lines[t + 1: t + 1 + ncells])


def test_svg_structure_and_layers():
    mesh = _mesh2(seed=6, n=15)
    svg = render_svg(mesh)
    assert svg.count("<circle") == 15
    assert svg.count("<polygon") == sum(1 for c in cell_records(mesh) if not c.empty)
    assert svg.count("<rect") == 15 + 1  # markers plus background
    only_points = render_svg(mesh, options=SvgOptions(layers=("points",)))
    assert "<polygon" not in only_points
    assert "<circle" not in only_points


def test_svg_deterministic_bytes():
    mesh = _mesh2(seed=9, n=10)
    assert render_svg(mesh) == render_svg(mesh)


def test_svg_bytes_equal_for_mesh_scaled_by_power_of_two():
    """Coordinates are formatted at a view span in [1, 2), so a mesh scaled
    by 2^k renders the bytes of the unscaled mesh, down to spans where six
    fixed decimals of the world coordinates would print only zeros."""
    mesh = _mesh2(seed=6, n=15)
    want = render_svg(mesh)
    for k in (-40, -30, -1, 1, 20):
        s = 2.0 ** k
        scaled = dataclasses.replace(
            mesh, points=mesh.points * s, radii=mesh.radii * s,
            cells=dataclasses.replace(mesh.cells, verts=mesh.cells.verts * s),
            domain=dataclasses.replace(mesh.domain, verts=mesh.domain.verts * s))
        assert render_svg(scaled) == want, k
        assert render_svg(scaled) == oracles.render_svg(scaled, options=SvgOptions()), k


def test_svg_rejects_3d():
    with pytest.raises(DimensionMismatch):
        render_svg(_mesh3())


# ---------------------------------------------------------------------------
# the writers against the number-at-a-time reference writers in oracles.py


def test_percent_templates_format_like_format_on_random_bits():
    """The writers format whole arrays with one "%.17g" or "%.6f" template;
    on every double that gives the text of format(x, ".17g"/".6f")."""
    rng = np.random.default_rng(7)
    x = rng.integers(0, 2**64, 50_000, dtype=np.uint64, endpoint=False).view(np.float64)
    values = x.tolist() + [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                           1e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan]
    for spec in (".17g", ".6f"):
        assert (f"%{spec}\n" * len(values)) % tuple(values) == "".join(
            format(v, spec) + "\n" for v in values), spec


def test_dumps_json_arrays_match_reference():
    nan_payload = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(np.float64)
    docs = [
        np.array([[0.1, -0.0], [np.nan, 1e308], [np.inf, 5e-324], [-np.inf, 2.0]]),
        nan_payload,
        np.arange(24, dtype=np.int64).reshape(2, 3, 4) - 7,
        np.arange(5, dtype=np.uint8),
        np.array([1.5, np.nan]).reshape(1, 2, 1),
        np.linspace(0, 1, 7, dtype=np.float32),
        np.array([True, False]),
        np.empty((0,)), np.empty((0, 3)), np.empty((3, 0)), np.empty((2, 0, 2)),
        np.float64(np.nan), np.int32(-3),
        {"a": [np.arange(3), (np.ones((2, 2)), None)], "b": {"c": np.array([-0.0])}},
    ]
    for doc in docs:
        assert dumps_json(doc) == oracles.dumps_json(doc), doc


def test_radii_doc_with_non_finite_bounds_matches_reference():
    pts = hexagon_patch(2, seed=1)
    tri = triangulate2(pts)
    sol = solve_radii(tri, neighbor_map(tri), pts, bounds_policy="clamp")
    lo = sol.lo.copy()
    hi = sol.hi.copy()
    lo[:3] = [-np.inf, np.nan, np.inf]
    hi[-2:] = [np.inf, np.nan]
    doc = radii_doc(dataclasses.replace(sol, lo=lo, hi=hi), 2)
    text = dumps_json(doc)
    assert text == oracles.dumps_json(doc)
    assert json.loads(text)["lo"][:3] == [None, None, None]


@pytest.mark.parametrize("kind", ["equal", "exact", "clamp"])
def test_radii_doc_bytes_equal_the_list_path(kind):
    """lo and hi go to dumps_json as arrays, each non-finite entry a null
    slot of one template: radii.json keeps the bytes of writing them as
    Python lists with None for each non-finite entry."""
    if kind == "exact":
        pts = hexagon_patch(2, seed=1)
        kw = dict(mode=VolumeMode.EXACT_INTERSECTION, seed=1, bounds_policy="clamp")
    else:
        pts = uniform_points(2, 400, seed=1)
        kw = dict(equal_radii=True) if kind == "equal" else dict(bounds_policy="clamp")
    tri = triangulate2(pts)
    sol = solve_radii(tri, neighbor_map(tri), pts, **kw)
    doc = radii_doc(sol, 2)
    listed = dict(doc, **{k: [v if math.isfinite(v) else None for v in getattr(sol, k).tolist()]
                          for k in ("lo", "hi")})
    text = dumps_json(doc)
    assert text == oracles.dumps_json(listed)
    if kind == "equal":
        assert json.loads(text)["hi"] == [None] * len(pts)


def _assert_reference_bytes(result):
    """mesh.json, mesh.vtk and mesh.svg of a run are the reference writers'
    bytes for the run's mesh and validation report."""
    mesh = result.mesh
    expected = {
        "mesh.json": oracles.mesh_json(mesh, mesh.diagnostics),
        "mesh.vtk": (oracles.vtk_polydata if mesh.dim == 2 else oracles.vtk_unstructured)(mesh),
    }
    if mesh.dim == 2:
        expected["mesh.svg"] = oracles.render_svg(mesh, options=SvgOptions())
    for name, text in expected.items():
        with open(result.artifacts[name]) as fh:
            assert fh.read() == text, name


@pytest.mark.parametrize("dim, n, seeds", [(2, 400, (1, 2, 3)), (3, 60, (1, 2, 3)), (3, 300, (1, 2))])
def test_artifact_bytes_match_reference_writers(tmp_path, dim, n, seeds):
    for seed in seeds:
        cfg = RunConfig(dimension=dim, n=n, seed=seed, equal_radii=True,
                        out_dir=str(tmp_path / str(seed)))
        result = run_pipeline(cfg)
        assert result.exit_code == 0
        _assert_reference_bytes(result)


def test_artifact_bytes_match_reference_writers_on_hex_lattice(tmp_path):
    """The paper's exact-intersection mode on a jittered hexagonal patch."""
    for seed in (1, 2):
        pts = hexagon_patch(2, seed=seed)
        cfg = RunConfig(dimension=2, n=len(pts), seed=seed, mode="exact-intersection",
                        out_dir=str(tmp_path / str(seed)))
        _assert_reference_bytes(run_pipeline(cfg, points=pts))


def _odd_coordinates(loops: list, dim: int):
    """Write -0.0, 0.0, a subnormal, +-1e308 and NaNs of three bit patterns
    into the first rows of the given (k, dim) loops."""
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000],
                    dtype=np.uint64).view(np.float64)
    rows = [(-0.0, 5e-324), (0.0, 5e-324), (1e308, -1e308), (nans[0], -0.0),
            (nans[1], -0.0), (nans[2], 1e308), (-5e-324, -0.0)]
    for v, row in zip(loops, rows):
        v[0, :2] = row
        v[0, 2:] = row[0]


def test_mesh_bytes_match_reference_on_odd_coordinates(tmp_path):
    mesh = _mesh2(seed=4, n=20)
    cells = [c for c in cell_records(mesh) if not c.empty]
    _odd_coordinates([c.verts for c in cells], 2)     # the records' loops view the stack
    a = int(mesh.cells.starts[cells[-1].owner])        # a degenerate cell: in mesh.json only
    mesh = with_ring(mesh, cells[-1].owner, mesh.cells.verts[a:a + 2], mesh.cells.tags[a:a + 2],
                     mesh.cells.simplices[a:a + 2])
    mesh3 = _mesh3()
    _odd_coordinates([f.verts for c in cell_records(mesh3) for f in c.faces or []][::3], 3)
    for m in (mesh, mesh3):
        # ids below -1 print as null, as -1 does
        sids, tags = m.cells.simplices.copy(), m.cells.tags.copy()
        sids[1::7], tags[2::9] = -12, -7
        m = dataclasses.replace(m, cells=dataclasses.replace(m.cells, simplices=sids, tags=tags))
        # each writer pooling for itself, and both sharing one pool
        for pooled in (None, PooledVertices.of(m.cells.verts)):
            export_mesh(m, str(tmp_path / "m.json"), "json", validation={"ok": False}, pooled=pooled)
            export_mesh(m, str(tmp_path / "m.vtk"), "vtk", pooled=pooled)
            assert (tmp_path / "m.json").read_text() == oracles.mesh_json(m, {"ok": False})
            vtk = oracles.vtk_polydata if m.dim == 2 else oracles.vtk_unstructured
            assert (tmp_path / "m.vtk").read_text() == vtk(m)
    assert render_svg(mesh) == oracles.render_svg(mesh, options=SvgOptions())
    doc = json.loads((tmp_path / "m.json").read_text())
    # NaN rows of two bit patterns pool into one vertex, a third row is apart
    assert sum(None in v for v in doc["vertices"]) == 2


def test_svg_bytes_match_reference_with_options():
    mesh = _mesh2(seed=9, n=30)
    pts = mesh.points + 0.25
    radii = np.linspace(0.01, 0.2, 25)       # fewer radii than points: circles stop at 25
    for layers in (("points",), ("delaunay", "circles"), ("cells", "points")):
        opt = SvgOptions(layers=layers, size=300, point_size=0.01)
        assert render_svg(mesh, pts, radii, opt) == oracles.render_svg(mesh, pts, radii, opt)


@pytest.mark.parametrize("index", ["-1", "len"])
def test_mesh_from_doc_rejects_loop_index_out_of_range(index):
    """A loop index below 0 used to wrap to the last vertex, and one past the
    end raised a bare IndexError."""
    for mesh in (_mesh2(), _mesh3()):
        doc = json.loads(dumps_json(mesh_doc(mesh)))
        bad = -1 if index == "-1" else len(doc["vertices"])
        k = next(k for k, c in enumerate(cell_records(mesh)) if not c.empty and k > 0)
        if mesh.dim == 2:
            doc["cells"][k]["loop"][1] = bad
            where = f"cell {k}:"
        else:
            doc["cells"][k]["faces"][2]["loop"][0] = bad
            where = f"cell {k}, face 2:"
        with pytest.raises(IoFailure, match=where):
            mesh_from_doc(doc)


@pytest.mark.parametrize("size", [0, 2])
def test_mesh_from_doc_rejects_short_domain_2d(size):
    """A 2D domain ring under three vertices is bad input naming the domain,
    not a bare numpy error later on."""
    doc = json.loads(dumps_json(mesh_doc(_mesh2())))
    doc["domain"]["vertices"] = doc["domain"]["vertices"][:size]
    with pytest.raises(IoFailure, match=f"^domain: a ring of {size} vertices"):
        mesh_from_doc(doc)


@pytest.mark.parametrize("case", ["no faces", "short face"])
def test_mesh_from_doc_rejects_short_domain_3d(case):
    """A 3D domain without faces, or with a face under three vertices, is
    bad input naming the domain (and the face)."""
    doc = json.loads(dumps_json(mesh_doc(_mesh3())))
    if case == "no faces":
        doc["domain"]["faces"] = []
        where = "^domain: no faces"
    else:
        doc["domain"]["faces"][4] = doc["domain"]["faces"][4][:2]
        where = "^domain, face 4: a loop of 2 vertices"
    with pytest.raises(IoFailure, match=where):
        mesh_from_doc(doc)


@pytest.mark.parametrize("case", ["count", "owner", "closed", "open", "length",
                                  "short0", "short1", "short2"])
def test_mesh_from_doc_rejects_cells_that_disagree_with_the_stack(case):
    """Cell k is point k's, it is closed exactly when it has rows (2D) or
    faces (3D), and its loops have one neighbor (2D) and one simplex id per
    vertex, three vertices at least: a document with another cell count,
    owner, closed flag or list length, or a closed ring or face of 0, 1 or 2
    vertices, is bad input, named by its cell."""
    for mesh in (_mesh2(), _mesh3()):
        doc = json.loads(dumps_json(mesh_doc(mesh)))
        k = 3
        cell = doc["cells"][k]
        if case == "count":
            doc["cells"].pop()
            k = len(doc["cells"])
        elif case == "owner":
            cell["owner"] = k + 1
        elif case == "closed":
            cell["closed"] = False
        elif case == "open" and mesh.dim == 2:
            cell.update(loop=[], edge_neighbors=[], vertex_simplices=[])
        elif case == "open":
            cell["faces"] = []
        elif case == "length":
            (cell if mesh.dim == 2 else cell["faces"][2])["vertex_simplices"].pop()
        else:
            rows = int(case[-1])
            wall = cell if mesh.dim == 2 else cell["faces"][2]
            for key in ("loop", "edge_neighbors", "vertex_simplices"):
                if key in wall:
                    wall[key] = wall[key][:rows]
        with pytest.raises(IoFailure, match=f"cell {k}[:,]"):
            mesh_from_doc(doc)
    if case == "length":
        doc = json.loads(dumps_json(mesh_doc(_mesh2())))
        doc["cells"][k]["edge_neighbors"].pop()
        with pytest.raises(IoFailure, match=f"cell {k}:"):
            mesh_from_doc(doc)


def test_ring_under_three_rows_is_an_empty_cell():
    """A 2D ring of one or two rows (a document can hold one) is an empty
    cell: it has no walls to check, its owner is outside it, the VTK and SVG
    writers skip it, and mesh.json keeps it as it is; `mesh_from_doc`
    rejects it, naming the cell."""
    mesh = _mesh2(seed=4, n=20)
    k = 5
    a = int(mesh.cells.starts[k])
    empty = with_ring(mesh, k, np.empty((0, 2)), [])
    for rows in (1, 2):
        cut = slice(a, a + rows)
        deg = with_ring(mesh, k, mesh.cells.verts[cut], mesh.cells.tags[cut],
                        mesh.cells.simplices[cut])
        assert validate_perpendicularity(deg) == validate_perpendicularity(empty)
        report = validate_global(deg)
        assert report == validate_global(empty)
        assert k in report.owners_outside
        assert dataclasses.asdict(report) == oracles.certify_loop(deg)
        assert vtk_polydata(deg) == vtk_polydata(empty)
        assert render_svg(deg) == render_svg(empty)
        text = dumps_json(mesh_doc(deg))
        cell = json.loads(text)["cells"][k]
        assert cell["closed"] and len(cell["loop"]) == len(cell["edge_neighbors"]) == rows
        with pytest.raises(IoFailure, match=f"cell {k}: a loop of {rows} vertices, under three"):
            mesh_from_doc(json.loads(text))


@pytest.mark.parametrize("dim, n", [(2, 400), (3, 60)])
def test_validators_on_read_mesh_give_the_runs_report(tmp_path, dim, n):
    """mesh.json -> stack -> validators, the path of `cvmesh validate`, gives
    the report of the run that wrote the file."""
    for seed in (1, 2, 3):
        cfg = RunConfig(dimension=dim, n=n, seed=seed, equal_radii=True,
                        formats=("json",), out_dir=str(tmp_path / str(seed)))
        result = run_pipeline(cfg)
        doc = read_json(result.artifacts["mesh.json"])
        mesh = mesh_from_doc(doc)
        perp = validate_perpendicularity(mesh, tol=cfg.tol_perp)
        glob = validate_global(mesh)
        assert json.loads(dumps_json(report_doc(perp, glob))) == doc["validation"]
