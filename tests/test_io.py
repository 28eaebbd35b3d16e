import hashlib
import json
import math

import numpy as np
import pytest

from cvmesh.delaunay import neighbor_map, tetrahedralize3, triangulate2
from cvmesh.errors import (
    DimensionMismatch,
    IoFailure,
    RejectionBudgetExceeded,
    UnsupportedFormat,
)
from cvmesh.io import (
    RunConfig,
    dumps_json,
    export_mesh,
    generate_points,
    mesh_doc,
    mesh_from_doc,
    vtk_polydata,
    vtk_unstructured,
)
from cvmesh.mesh import build_volumes2, build_volumes3
from cvmesh.svg import SvgOptions, render_svg

from conftest import bcc_cell, uniform_points


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


def test_generate_points_budget_exceeded():
    with pytest.raises(RejectionBudgetExceeded):
        generate_points(RunConfig(dimension=2, n=200, seed=1, min_sep_factor=2.5))


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


def test_mesh_json_roundtrip_bit_exact(tmp_path):
    for mesh in (_mesh2(), _mesh3()):
        doc = mesh_doc(mesh)
        text = dumps_json(doc)
        back = mesh_from_doc(json.loads(text))
        assert dumps_json(mesh_doc(back)) == text
        for a, b in zip(mesh.volumes, back.volumes):
            assert a.owner == b.owner
            assert np.array_equal(a.all_vertices(), b.all_vertices())


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
    for cell in mesh.volumes:
        cell.verts = np.empty((0, 2))
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
    assert len(rows) == ncells == sum(1 for c in mesh.volumes if not c.empty)
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
    assert svg.count("<polygon") == sum(1 for c in mesh.volumes if not c.empty)
    assert svg.count("<rect") == 15 + 1  # markers plus background
    only_points = render_svg(mesh, options=SvgOptions(layers=("points",)))
    assert "<polygon" not in only_points
    assert "<circle" not in only_points


def test_svg_deterministic_bytes():
    mesh = _mesh2(seed=9, n=10)
    assert render_svg(mesh) == render_svg(mesh)


def test_svg_rejects_3d():
    with pytest.raises(DimensionMismatch):
        render_svg(_mesh3())
