import json
import os

from cvmesh.cli import main
from cvmesh.io import dumps_json, read_json


def _cfg(tmp_path, **extra):
    doc = {
        "dimension": 2,
        "n": 12,
        "seed": 3,
        "equal_radii": True,
        "probes": 1000,
        "optimizer": {"generations": 10},
    }
    doc.update(extra)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    return str(p)


def test_stage_chain(tmp_path):
    os.chdir(tmp_path)
    cfg = _cfg(tmp_path)
    assert main(["gen", "--config", cfg, "--out", "pts.json"]) == 0
    assert main(["tri", "--points", "pts.json", "--out", "tri.json"]) == 0
    assert main(["solve", "--config", cfg, "--tri", "tri.json",
                 "--equal-radii", "--out", "radii.json"]) == 0
    assert main(["build", "--tri", "tri.json", "--radii", "radii.json",
                 "--out", "mesh.json"]) == 0
    assert main(["validate", "--mesh", "mesh.json", "--out", "report.json"]) == 0
    assert main(["export", "--mesh", "mesh.json", "--format", "vtk",
                 "--out", "mesh.vtk"]) == 0
    assert main(["render", "--mesh", "mesh.json", "--out", "mesh.svg"]) == 0

    report = read_json("report.json")
    assert report["ok"] is True
    assert (tmp_path / "mesh.vtk").read_text().startswith("# vtk DataFile")
    assert "<svg" in (tmp_path / "mesh.svg").read_text()


def test_run_composite_exit_zero(tmp_path):
    cfg = _cfg(tmp_path)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    for name in ("points.json", "triangulation.json", "radii.json", "mesh.json",
                 "mesh.vtk", "mesh.svg", "report.json", "summary.json"):
        assert (tmp_path / "out" / name).exists(), name
    summary = read_json(os.path.join(out, "summary.json"))
    assert summary["exit_code"] == 0
    assert summary["global_ok"] is True
    assert "timings" in summary


def test_run_rejects_bad_input(tmp_path):
    assert main(["run", "--n", "2", "--out", str(tmp_path / "x")]) == 4
    assert main(["tri", "--points", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "t.json")]) == 4


def test_tri_rejects_non_finite_points(tmp_path, capsys):
    # json reads the bare NaN token; the writer never emits one.
    doc = {"schema": "cvmesh/1", "kind": "points", "dimension": 2,
           "points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [float("nan"), 0.5], [1.0, 1.0]]}
    pts = tmp_path / "points.json"
    pts.write_text(json.dumps(doc))
    assert main(["tri", "--points", str(pts), "--out", str(tmp_path / "t.json")]) == 4
    assert "non-finite coordinates in point 3" in capsys.readouterr().err


def test_pipeline_errors_name_the_stage(tmp_path, capsys):
    # strict bounds on a rough cloud die in the solve stage, and the CLI says so
    cfg = _cfg(tmp_path, equal_radii=False, bounds_policy="strict", n=30,
               min_sep_factor=0.2, boundary=False)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "y")]) == 4
    err = capsys.readouterr().err
    assert "stage 'solve'" in err
    assert "empty radius interval" in err


def test_validate_exit_two_on_invalid_mesh(tmp_path):
    os.chdir(tmp_path)
    cfg = _cfg(tmp_path)
    assert main(["run", "--config", cfg, "--out", "out"]) == 0
    doc = read_json("out/mesh.json")
    # fault injection: shift one cell's vertices in the pooled table
    loop = doc["cells"][0]["loop"]
    for vid in set(loop):
        doc["vertices"][vid][0] += 0.05
    bad = tmp_path / "bad_mesh.json"
    bad.write_text(dumps_json(doc))
    assert main(["validate", "--mesh", str(bad), "--out", "bad_report.json"]) == 2
    report = read_json("bad_report.json")
    assert report["ok"] is False


def test_render_layer_selection(tmp_path):
    os.chdir(tmp_path)
    cfg = _cfg(tmp_path)
    assert main(["run", "--config", cfg, "--out", "out"]) == 0
    assert main(["render", "--mesh", "out/mesh.json", "--layers", "points",
                 "--out", "pts_only.svg"]) == 0
    svg = (tmp_path / "pts_only.svg").read_text()
    assert "<polygon" not in svg and "<circle" not in svg


def test_unknown_mode_rejected(tmp_path):
    assert main(["run", "--mode", "exact-intersection", "--n", "2"]) == 4
