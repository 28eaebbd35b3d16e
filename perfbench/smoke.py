"""Smoke test of the benchmark itself, in a few seconds:

    python3 perfbench/smoke.py

Runs every workload at a tiny size, untraced and traced, and checks that the
metrics are exactly those BENCHMARK.json names, with its units. Then
corrupts the mesh.json of every op in three ways (a dropped cell, a wrong
radius, bytes that differ between repeats) and checks that each op counts
as failed and the run as incorrect.
"""
from __future__ import annotations

import dataclasses
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import run

TINY = {
    "voronoi2d": dict(n=30),
    "voronoi3d": dict(n=20),
    "exact2d": dict(lattice_rings=1, config=dict(mode="exact-intersection",
                                                 optimizer=dict(generations=4))),
}
TINY_PANEL = {
    2: (dict(dimension=2, n=20, seed=1, equal_radii=True),),
    3: (dict(dimension=3, n=20, seed=1, equal_radii=True),),
}


def check(cond: bool, msg: str):
    if not cond:
        raise AssertionError(msg)


def tiny(name: str) -> run.Workload:
    work = run.WORKLOADS[name]
    return dataclasses.replace(work, panel=TINY_PANEL[work.dim], **TINY[name])


def declared_metrics() -> dict[str, dict[str, str]]:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in doc[key]} for key in ("end_to_end", "per_layer")}


@contextmanager
def corrupted(cv, edit):
    """Within the block, each op's mesh.json is rewritten as `edit(doc, call)`."""
    original = cv.pipeline.run_pipeline
    calls = [0]

    def wrapped(config, points=None):
        res = original(config, points=points)
        path = Path(res.artifacts["mesh.json"])
        doc = json.loads(path.read_text())
        path.write_text(json.dumps(edit(doc, calls[0])))
        calls[0] += 1
        return res

    cv.pipeline.run_pipeline = wrapped
    try:
        yield
    finally:
        cv.pipeline.run_pipeline = original


def drop_cell(doc, _call):
    doc["cells"].pop()
    return doc


def inflate_radius(doc, _call):
    doc["radii"][0] *= 4.0
    return doc


def differ_on_repeat(doc, call):
    doc["note"] = call
    return doc


def main() -> int:
    cv = run.load_program()
    scratch = run.OUT_DIR / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    declared = declared_metrics()

    for name in run.WORKLOADS:
        work = tiny(name)
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            rec = run.run_workload(cv, work, seed=1, seconds=0.0, trace=trace, scratch=scratch)
            got = {m: v["unit"] for m, v in rec["metrics"].items()}
            check(got == declared[key], f"{name} trace={trace}: metrics {got} != {declared[key]}")
            check(rec["correct"] and rec["failed"] == 0,
                  f"{name} trace={trace}: clean run reported failures {rec['failures']}")
        print(f"smoke: {name} reports every declared metric")

    work = tiny("voronoi2d")
    for edit in (drop_cell, inflate_radius, differ_on_repeat):
        with corrupted(cv, edit):
            rec = run.run_workload(cv, work, seed=1, seconds=4.0, trace=False, scratch=scratch)
        check(rec["attempted"] >= 2 * work.clouds, f"{edit.__name__}: no repeats")
        check(rec["failed"] == rec["attempted"] and not rec["correct"],
              f"{edit.__name__}: {rec['failed']}/{rec['attempted']} ops failed, "
              f"correct={rec['correct']}")
        print(f"smoke: {edit.__name__} fails every op ({rec['failures'][0]})")
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
