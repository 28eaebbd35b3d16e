"""North-star scale runs: one `run_pipeline` per size, timed per stage.

    python3 bench/scale.py                        # 2D n=10^4 and 3D n=2*10^3
    python3 bench/scale.py --n2 2000 --n3 300     # small sizes, for CI

Each run is `cvmesh.pipeline.run_pipeline` with the `RunConfig` defaults plus
equal_radii=True, seed 1 and formats json and vtk, written to a temporary
directory. For each size the record holds the exit code, `global_ok`, the
wall time of the run and `summary.json`'s per-stage `timings`. The record is
stored under --label in the --out JSON file (BENCH_scale.json at the
repository root by default), replacing an earlier record of that label and
keeping the others. --src selects the cvmesh source tree to import, so one
copy of this script can measure another checkout.

The exit status is 0 when every run exited 0 with `global_ok`, else 1.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def load_cvmesh(src: Path):
    src = src.resolve()
    sys.path.insert(0, str(src))
    import cvmesh
    from cvmesh import io, pipeline

    if not Path(cvmesh.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"scale: cvmesh imported from {cvmesh.__file__}, not {src}")
    return io, pipeline


def run_size(io, pipeline, dim: int, n: int) -> dict:
    out = tempfile.mkdtemp(prefix=f"cvmesh-scale-{dim}d-")
    try:
        cfg = io.RunConfig(dimension=dim, n=n, seed=1, equal_radii=True,
                           formats=("json", "vtk"), out_dir=out)
        t0 = perf_counter()
        result = pipeline.run_pipeline(cfg)
        wall = perf_counter() - t0
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
    finally:
        shutil.rmtree(out)
    return {
        "dimension": dim,
        "n": n,
        "exit_code": result.exit_code,
        "global_ok": bool(summary["global_ok"]),
        "wall_s": round(wall, 3),
        "timings": summary["timings"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n2", type=int, default=10_000, help="2D size (0 skips it)")
    ap.add_argument("--n3", type=int, default=2_000, help="3D size (0 skips it)")
    ap.add_argument("--label", default="current", help="name of the record in --out")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="cvmesh source tree")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_scale.json")
    args = ap.parse_args(argv)

    io, pipeline = load_cvmesh(args.src)
    runs = []
    for dim, n in ((2, args.n2), (3, args.n3)):
        if n > 0:
            runs.append(run_size(io, pipeline, dim, n))
            print(json.dumps(runs[-1]), flush=True)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {"records": []}
    records = [r for r in doc["records"] if r["label"] != args.label]
    records.append({
        "label": args.label,
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(),
                 "numpy": np.__version__},
        "runs": runs,
    })
    args.out.write_text(json.dumps({"records": records}, indent=1) + "\n")
    return 0 if all(r["exit_code"] == 0 and r["global_ok"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
