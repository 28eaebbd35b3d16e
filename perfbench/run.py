"""cvmesh benchmark. One op is `cvmesh.pipeline.run_pipeline(config, points=cloud)`
on a pre-generated cloud, the function behind `cvmesh run`; it writes every
artifact (json, vtk and, in 2D, svg) to a temporary directory.

    python3 perfbench/run.py --workload voronoi2d --seed 1 --seconds 30 --trace 0

Run it from the repository root. Set-up builds the run's clouds from --seed
and warms up, three times over; the op loop then runs ops one at a time,
cycling over the clouds, until --seconds have passed. Every time reported is
in reference seconds (see calibrate.py): each op, cloud and kernel batch is
timed between two short reference kernels that measure how fast the shared
host runs meanwhile; wall times go to the run record. Every op's mesh.json
is checked by `oracle.check_mesh` and hashed: an op fails when it raises,
exits with a code other than 0 or 3, fails the check, or gives another
digest than an earlier op on the same cloud.

--trace 0 reports the end-to-end metrics. --trace 1 is a separate run that
runs one traced and one untraced op on each of the first clouds, times two kernels
from outside, runs the workload's fixed known-defect panel, and reports the
per-layer metrics. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. Spans and a run record
are written under .perfbench_out/ in the repository root.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from statistics import median
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import calibrate
import oracle
import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

TRACED_CLOUDS = 12           # keeps a traced run near --seconds; counts cover these
SETUP_REPS = 3
WARMUP_N = 12
CLOUD_SEED_STRIDE = 1000     # cloud k of run seed s has seed s * stride + k
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    n: int
    clouds: int                # clouds per run, cycled over by the op loop
    config: dict               # further RunConfig fields of every op
    panel: tuple               # known-defect panel: RunConfig fields, default generator
    lattice_rings: int = 0     # > 0: jittered hexagonal lattice instead of generate_points


WORKLOADS = {w.name: w for w in (
    Workload(
        "voronoi2d", dim=2, n=400, clouds=12, config=dict(equal_radii=True),
        panel=(dict(dimension=2, n=1000, seed=1, equal_radii=True),),
    ),
    Workload(
        "voronoi3d", dim=3, n=60, clouds=24, config=dict(equal_radii=True),
        panel=(dict(dimension=3, n=200, seed=2, equal_radii=True),
               dict(dimension=3, n=100, seed=13, equal_radii=True),
               dict(dimension=3, n=100, seed=1, equal_radii=True)),
    ),
    Workload(
        "exact2d", dim=2, n=19, clouds=24, lattice_rings=2,
        config=dict(mode="exact-intersection", bounds_policy="clamp"),
        panel=tuple(dict(dimension=2, n=20, seed=s, mode="exact-intersection",
                         bounds_policy="clamp") for s in range(1, 9)),
    ),
)}


@dataclass
class Cloud:
    index: int                 # position in the run's cloud list; -1 on the panel
    config: object             # cvmesh.io.RunConfig
    points: object


@dataclass
class Op:
    cloud: int                 # Cloud.index
    seed: int                  # the cloud's RunConfig.seed
    wall_s: float
    factor: float              # reference seconds per wall second during the op
    trace_id: str = ""
    error: str = ""            # exception, or an exit code other than 0 or 3
    problems: list = field(default_factory=list)   # output-check failures
    digest: str = ""
    cells: int = 0             # validated cells; 0 unless the op succeeded
    n: int = 0
    residual: float = float("nan")
    clamped: int = 0
    simplices: int = 0
    artifact_bytes: int = 0    # every artifact except summary.json (it holds timings)

    @property
    def ok(self) -> bool:
        return not self.error and not self.problems

    @property
    def seconds(self) -> float:
        """Op time in reference seconds."""
        return self.wall_s * self.factor


# ---------------------------------------------------------------------------
# program and inputs


def load_program(root: Path = ROOT) -> SimpleNamespace:
    """Import cvmesh from the checkout's src/ and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import cvmesh
        from cvmesh import clipping, delaunay, geometry, io, mesh, pipeline, solver
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import cvmesh from {src}: {exc}")
    if not Path(cvmesh.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: cvmesh imported from {cvmesh.__file__}, not {src}")
    return SimpleNamespace(clipping=clipping, delaunay=delaunay, geometry=geometry,
                           io=io, mesh=mesh, pipeline=pipeline, solver=solver)


def hex_lattice(rings: int, seed: int, jitter: float = 0.10) -> np.ndarray:
    """Hexagonal patch of the unit triangular lattice (1 + 3R(R+1) points),
    jittered by up to `jitter` per coordinate except on the outer ring."""
    rows = []
    for r in range(-rings, rings + 1):
        for c in range(-rings, rings + 1):
            if abs(r + c) <= rings:
                rows.append((c + 0.5 * r, r * np.sqrt(3) / 2, max(abs(r), abs(c), abs(r + c))))
    rows = np.asarray(rows)
    pts, ring = rows[:, :2], rows[:, 2]
    jit = jitter * 2 * (np.random.default_rng(seed).random(pts.shape) - 0.5)
    jit[ring == rings] = 0.0
    return pts + jit


def make_cloud(cv, work: Workload, seed: int, k: int) -> Cloud:
    cloud_seed = seed * CLOUD_SEED_STRIDE + k
    if work.lattice_rings:
        pts = hex_lattice(work.lattice_rings, cloud_seed)
        cfg = cv.io.RunConfig(dimension=work.dim, n=len(pts), seed=cloud_seed, **work.config)
    else:
        cfg = cv.io.RunConfig(dimension=work.dim, n=work.n, seed=cloud_seed, **work.config)
        pts = cv.io.generate_points(cfg)
    return Cloud(k, cfg, pts)


def warm_up(cv, dim: int, scratch: Path):
    cfg = cv.io.RunConfig(dimension=dim, n=WARMUP_N, seed=0, equal_radii=True)
    pts = cv.io.generate_points(cfg)
    out = tempfile.mkdtemp(dir=scratch)
    try:
        cv.pipeline.run_pipeline(cfg.replace(out_dir=out), points=pts)
    finally:
        shutil.rmtree(out)


def set_up(cv, work: Workload, seed: int, scratch: Path, tracer=None, factors=None):
    """Generate the run's clouds, then one warm-up op, SETUP_REPS times.

    Returns the clouds and each repetition's time, in reference seconds and
    in wall seconds. Each step (one cloud, or the warm-up) is scaled by its
    own speed factor; with a tracer, each step is a trace id "setup<rep>.<k>"
    whose factor goes to `factors`.
    """
    times, walls = [], []
    for rep in range(SETUP_REPS):
        steps = [partial(make_cloud, cv, work, seed, k) for k in range(work.clouds)]
        steps.append(partial(warm_up, cv, work.dim, scratch))
        outs, total, wall = [], 0.0, 0.0
        for k, step in enumerate(steps):
            if tracer is not None:
                tracer.op = f"setup{rep}.{k}"
            with calibrate.bracket() as tm:
                outs.append(step())
            if tracer is not None:
                factors[tracer.op] = tm.factor
            total += tm.seconds
            wall += tm.wall_s
        times.append(total)
        walls.append(wall)
    return outs[:-1], times, walls


# ---------------------------------------------------------------------------
# ops


def run_op(cv, cloud: Cloud, scratch: Path) -> Op:
    out = tempfile.mkdtemp(dir=scratch)
    try:
        cfg = cloud.config.replace(out_dir=out)
        res, error = None, ""
        with calibrate.bracket() as tm:
            try:
                res = cv.pipeline.run_pipeline(cfg, points=cloud.points)
            except Exception as exc:  # a failed op is a result; keep measuring
                error = f"{type(exc).__name__}: {exc}"
        op = Op(cloud.index, cfg.seed, tm.wall_s, tm.factor, n=cfg.n, error=error)
        if res is None:
            return op
        op.residual = float(res.summary["residual"])
        op.clamped = int(res.summary["clamped_points"])
        op.simplices = int(res.summary["n_simplices"])
        if res.exit_code not in (0, 3):
            op.error = f"exit code {res.exit_code}"
            return op
        with open(res.artifacts["mesh.json"], "rb") as fh:
            raw = fh.read()
        op.digest = hashlib.sha256(raw).hexdigest()
        op.artifact_bytes = sum(os.path.getsize(path) for name, path in res.artifacts.items()
                                if name != "summary.json")
        op.problems = oracle.check_mesh(json.loads(raw), cfg.n, cfg.seed)
        if op.ok:
            op.cells = cfg.n
        return op
    finally:
        shutil.rmtree(out)


def fail_nondeterministic(ops: list[Op]):
    """Ops on one cloud must give one mesh.json; every op of a cloud that
    gave two fails."""
    seen: dict[int, set] = {}
    for op in ops:
        if op.digest:
            seen.setdefault(op.cloud, set()).add(op.digest)
    for op in ops:
        if len(seen.get(op.cloud, ())) > 1:
            op.problems.append("mesh.json differs between repeats on one cloud")
            op.cells = 0


def run_ops(cv, clouds: list[Cloud], seconds: float, scratch: Path) -> list[Op]:
    ops = []
    stop = perf_counter() + seconds
    while not ops or perf_counter() < stop:
        ops.append(run_op(cv, clouds[len(ops) % len(clouds)], scratch))
    return ops


def run_traced_ops(cv, clouds: list[Cloud], seconds: float, scratch: Path, tracer):
    """Whole passes over the first TRACED_CLOUDS clouds, each cloud once traced
    and once not. Another pass starts only if it should end within `seconds`."""
    traced, plain = [], []
    stop = perf_counter() + seconds
    rnd = 0
    while True:
        t_pass = perf_counter()
        for cloud in clouds[:TRACED_CLOUDS]:
            tracer.op = f"r{rnd}c{cloud.index}"
            with tracing.installed(tracer):
                op = run_op(cv, cloud, scratch)
            op.trace_id = tracer.op
            traced.append(op)
            plain.append(run_op(cv, cloud, scratch))
        rnd += 1
        now = perf_counter()
        if now + (now - t_pass) > stop:
            return traced, plain


def run_panel(cv, work: Workload, scratch: Path) -> list[Op]:
    ops = []
    for fields in work.panel:
        cfg = cv.io.RunConfig(**fields)
        ops.append(run_op(cv, Cloud(-1, cfg, cv.io.generate_points(cfg)), scratch))
    return ops


# ---------------------------------------------------------------------------
# kernels timed from outside


def per_call_us(fn, batches: int = 7, min_batch_s: float = 0.02) -> float:
    reps = 1
    while True:
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        if perf_counter() - t0 >= min_batch_s:
            break
        reps *= 2
    samples = []
    for _ in range(batches):
        with calibrate.bracket() as tm:
            for _ in range(reps):
                fn()
        samples.append(tm.seconds / reps)
    return median(samples) * 1e6


def kernel_us(cv, cloud: Cloud) -> dict[str, float]:
    """One objective evaluation on the cloud's triangulation, and one clip of
    the domain box by the power bisector between point 0 and its nearest
    neighbour (clip_polygon in 2D, clip_polyhedron in 3D)."""
    dim = cloud.config.dimension
    pts = cv.geometry.as_point_array(cloud.points, dim)
    tri = cv.delaunay.triangulate2(pts) if dim == 2 else cv.delaunay.tetrahedralize3(pts)
    nm = cv.delaunay.neighbor_map(tri)
    r = np.full(len(pts), 0.5 * float(np.min(cv.solver.max_radii(nm, pts))))
    systems = cv.solver.simplex_systems(tri)

    if dim == 2:
        domain, clip = cv.mesh.bounding_domain2(pts), cv.clipping.clip_polygon
        corners = domain.verts
    else:
        domain, clip = cv.mesh.bounding_domain3(pts), cv.clipping.clip_polyhedron
        corners = domain.vertices()
    eps = 1e-10 * float(np.linalg.norm(corners.max(axis=0) - corners.min(axis=0)))
    j = int(np.argsort(np.linalg.norm(pts - pts[0], axis=1))[1])
    normal = 2.0 * (pts[j] - pts[0])
    offset = float(pts[j] @ pts[j] - pts[0] @ pts[0])   # equal radii cancel
    return {
        "solver.objective_us": per_call_us(lambda: systems.objective(r)),
        "clipping.clip_us": per_call_us(lambda: clip(domain, normal, offset, j, eps)),
    }


# ---------------------------------------------------------------------------
# metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # Linux: KiB


def end_to_end(ops: list[Op], setup_times: list[float]) -> dict:
    ok = [op for op in ops if op.ok]
    cells_per_op = sum(op.cells for op in ok) / len(ops)
    return {
        "cells_per_s": (cells_per_op / median(op.seconds for op in ops), "cells/s"),
        "mesh_s_p50": (median(op.seconds for op in (ok or ops)), "s"),
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def op_layers(prof, factor: float) -> dict[str, float]:
    """Per-op layer times in reference seconds, from one op's span profile."""
    def incl(*names):
        return factor * sum(prof[name]["s"] for name in names)

    def own(*names):
        return factor * sum(prof[name]["self_s"] for name in names)

    return {
        "delaunay.triangulate_s": incl("triangulate2", "tetrahedralize3"),
        "delaunay.neighbor_map_s": incl("neighbor_map"),
        "solver.max_radii_s": incl("max_radii"),
        "solver.bounds_s": incl("bounds_arrays"),
        "solver.solve_s": incl("solve_radii"),
        "solver.classify_overlap_s": incl("classify_overlap"),
        "optimize.soft_selection_self_s": own("soft_selection_minimize"),
        "optimize.rosenbrock_self_s": own("rosenbrock_minimize"),
        "mesh.build_self_s": own("build_volumes2", "build_volumes3"),
        "mesh.validate_perpendicularity_s": incl("validate_perpendicularity"),
        "mesh.validate_global_s": incl("validate_global"),
        "io.write_json_s": incl("write_json"),
        "io.export_mesh_s": incl("export_mesh"),
        "svg.render_s": incl("render_svg"),
        "pipeline.self_s": own("run_pipeline"),
    }


def per_layer(tracer, setup_factors: dict, traced: list[Op], plain: list[Op],
              kernels: dict, panel: list[Op]) -> dict:
    """Times are medians over the traced ops that succeeded; counts are
    totals over the first traced pass, so they repeat exactly for a seed."""
    timed = [op for op in traced if op.ok] or traced
    profiles = {op.trace_id: tracer.profile(op.trace_id) for op in traced}
    rows = [op_layers(profiles[op.trace_id], op.factor) for op in timed]
    m = {name: (median(row[name] for row in rows), "s") for name in rows[0]}

    first = [op for op in traced if op.trace_id.startswith("r0c")]
    calls = lambda name: sum(profiles[op.trace_id][name]["calls"] for op in first)
    m["delaunay.insert_us"] = (m["delaunay.triangulate_s"][0] / timed[0].n * 1e6, "us")
    m["delaunay.simplices"] = (sum(op.simplices for op in first), "count")
    m["solver.clamped_frac"] = (sum(op.clamped for op in first) / sum(op.n for op in first), "1")
    m["solver.objective_calls"] = (calls(tracing.OBJECTIVE), "count")
    m["clipping.clip_calls"] = (calls("clip_polygon") + calls("clip_polyhedron"), "count")
    m["io.artifact_bytes"] = (sum(op.artifact_bytes for op in first), "bytes")

    ops_ok = [op for op in traced + plain if op.ok]
    m["solver.residual_p50"] = (median(op.residual for op in ops_ok) if ops_ok else 0.0, "1")
    evals = sum(profiles[op.trace_id][tracing.OBJECTIVE]["calls"] for op in timed)
    es_s = sum(profiles[op.trace_id]["soft_selection_minimize"]["s"] * op.factor for op in timed)
    m["optimize.evals_per_s"] = (evals / es_s if es_s else 0.0, "1/s")

    gen = [sum(sp.seconds * setup_factors[sp.op] for sp in tracer.spans
               if sp.op.startswith(f"setup{rep}.") and sp.name == "generate_points")
           for rep in range(SETUP_REPS)]
    m["io.generate_points_s"] = (median(gen), "s")
    m["trace.overhead_frac"] = (sum(op.seconds for op in traced)
                                / sum(op.seconds for op in plain) - 1.0, "1")
    m["pipeline.fail_frac"] = (sum(not op.ok for op in traced + plain)
                               / len(traced + plain), "1")
    m["defect_panel.fail_frac"] = (sum(not op.ok for op in panel) / len(panel), "1")
    for name, value in kernels.items():
        m[name] = (value, "us")
    return m


def environment(cvmesh_threads: str | None) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "CVMESH_THREADS": cvmesh_threads if cvmesh_threads is not None else "unset",
        **{var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# entry point


def run_workload(cv, work: Workload, seed: int, seconds: float, trace: bool,
                 scratch: Path) -> dict:
    """Set up, measure and check one workload; returns the run record."""
    if not trace:
        clouds, setup_times, setup_walls = set_up(cv, work, seed, scratch)
        ops = run_ops(cv, clouds, seconds, scratch)
        fail_nondeterministic(ops)
        metrics, checked, tracer = end_to_end(ops, setup_times), ops, None
    else:
        tracer, setup_factors = tracing.Tracer(), {}
        with tracing.installed(tracer):
            clouds, setup_times, setup_walls = set_up(cv, work, seed, scratch,
                                                      tracer, setup_factors)
        traced, plain = run_traced_ops(cv, clouds, seconds, scratch, tracer)
        ops = traced + plain
        fail_nondeterministic(ops)
        kernels = kernel_us(cv, clouds[0])
        panel = run_panel(cv, work, scratch)
        metrics = per_layer(tracer, setup_factors, traced, plain, kernels, panel)
        checked = ops + panel
    ok = [op for op in ops if op.ok] or ops
    return {
        "correct": not any(op.problems for op in checked),
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()},
        "digests": {f"{work.name}/{op.seed}": op.digest for op in ops if op.digest},
        "wall": {"mesh_s_p50": median(op.wall_s for op in ok), "setup_s": median(setup_walls)},
        "ops": [[op.seed, op.wall_s, op.factor, op.ok] for op in checked],
        "failures": [f"{'panel ' if op.cloud < 0 else ''}seed {op.seed}: "
                     f"{op.error or '; '.join(op.problems)}" for op in checked if not op.ok],
        "tracer": tracer,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cvmesh_threads = os.environ.pop("CVMESH_THREADS", None)   # one worker: nproc is small
    cv = load_program()
    scratch = OUT_DIR / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    rec = run_workload(cv, WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace), scratch)

    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = rec.pop("tracer")
    if tracer is not None:
        tracer.write(f"{stem}.spans.jsonl")
    result = {key: rec[key] for key in ("correct", "attempted", "failed", "metrics")}
    env = environment(cvmesh_threads)
    with open(f"{stem}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "env": env, **rec, **result},
                  fh, indent=1)
    print("env", json.dumps(env))
    print("digests", json.dumps(rec["digests"], sort_keys=True))
    print("wall seconds", json.dumps(rec["wall"]))
    for line in rec["failures"]:
        print("failed op", line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
