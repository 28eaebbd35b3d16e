import dataclasses
import json
import os

import pytest

import cvmesh.cli
import cvmesh.pipeline
from cvmesh.cli import main
from cvmesh.io import dumps_json, read_json


def _cfg(tmp_path, **extra):
    doc = {
        "dimension": 2,
        "n": 12,
        "seed": 3,
        "equal_radii": True,
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


@pytest.mark.parametrize("converged, code", [(True, 0), (False, 3)])
def test_solve_and_run_exit_by_one_solver_rule(tmp_path, monkeypatch, converged, code):
    """`solve` and `run` take their exit code from one rule: a solve that did
    not converge exits 3, whatever its mode and residual."""
    os.chdir(tmp_path)
    cfg = _cfg(tmp_path)
    assert main(["gen", "--config", cfg, "--out", "pts.json"]) == 0
    assert main(["tri", "--points", "pts.json", "--out", "tri.json"]) == 0
    solve_radii = cvmesh.pipeline.solve_radii

    def solve(*args, **kwargs):
        return dataclasses.replace(solve_radii(*args, **kwargs), converged=converged)

    monkeypatch.setattr(cvmesh.cli, "solve_radii", solve)
    monkeypatch.setattr(cvmesh.pipeline, "solve_radii", solve)
    assert main(["solve", "--config", cfg, "--tri", "tri.json", "--out", "radii.json"]) == code
    assert main(["run", "--config", cfg, "--out", "out"]) == code


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


def test_validate_prints_one_count_per_certificate_field(tmp_path, capsys):
    os.chdir(tmp_path)
    assert main(["run", "--config", _cfg(tmp_path), "--out", "out"]) == 0
    capsys.readouterr()
    assert main(["validate", "--mesh", "out/mesh.json"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("validation ok: 0 perpendicularity violations, 0 wall mismatches, "
                          "0 overlaps, 0 owners outside, 0 foreign points, cell measures ")
    s = read_json("out/summary.json")
    assert f"{s['total_measure']:.12g} of domain {s['domain_measure']:.12g}" in out


def test_run_rejects_probes_key(tmp_path, capsys):
    """The probe count went with the probe sweep: a config file that still
    sets it is an input error naming the key."""
    cfg = _cfg(tmp_path, probes=1000)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "p")]) == 4
    assert "unknown config keys: ['probes']" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


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


def test_unknown_format_rejected(tmp_path, capsys):
    """`--format jsn` exits 4 naming the format and writes nothing; it used
    to exit 0 without a mesh."""
    out = tmp_path / "out"
    assert main(["run", "--n", "30", "--equal-radii", "--format", "jsn", "--out", str(out)]) == 4
    assert "unknown formats: ['jsn']" in capsys.readouterr().err
    assert not out.exists()


def test_3d_run_and_gen_from_flags(tmp_path):
    """`--dim 3` without a config file takes the 3D unit box (it used to
    keep the 2D default box and exit 4), and `export` of the run's mesh.json
    gives the run's mesh.vtk byte for byte."""
    out = tmp_path / "out3d"
    assert main(["run", "--dim", "3", "--n", "30", "--equal-radii", "--format", "json,vtk",
                 "--out", str(out)]) == 0
    assert read_json(str(out / "summary.json"))["config"]["box"] == [0, 0, 0, 1, 1, 1]
    assert main(["export", "--mesh", str(out / "mesh.json"), "--format", "vtk",
                 "--out", str(tmp_path / "again.vtk")]) == 0
    assert (tmp_path / "again.vtk").read_bytes() == (out / "mesh.vtk").read_bytes()
    assert main(["gen", "--dim", "3", "--n", "20", "--out", str(tmp_path / "p.json")]) == 0
    assert len(read_json(str(tmp_path / "p.json"))["points"][0]) == 3


def test_run_rejects_unknown_optimizer_keys(tmp_path, capsys):
    # a misspelt key inside "optimizer" is an input error naming the key,
    # as an unknown top-level key is
    cfg = _cfg(tmp_path, optimizer={"generation": 5})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "z")]) == 4
    err = capsys.readouterr().err
    assert "unknown optimizer config keys: ['generation']" in err
