"""End-to-end pipeline: generate -> triangulate -> bounds/solve -> build ->
validate -> export/render, with stage-named failures, a machine-readable
summary, and the documented exit codes (0 ok, 2 validation failure, 3 solver
non-convergence, 4 input error).
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .delaunay import neighbor_map, tetrahedralize3, triangulate2
from .errors import CvMeshError, PipelineError
from .geometry import as_point_array
from .io import (
    PooledVertices,
    RunConfig,
    export_mesh,
    generate_points,
    points_doc,
    radii_doc,
    triangulation_doc,
    write_json,
    SCHEMA,
)
from .mesh import (
    GlobalReport,
    PerpendicularityReport,
    build_volumes2,
    build_volumes3,
    validate_global,
    validate_perpendicularity,
)
from .solver import SolveResult, VolumeMode, classify_overlap, solve_radii
from .svg import render_svg

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_INPUT = 4


def solver_exit(solve: SolveResult, residual_threshold: float) -> int:
    """EXIT_SOLVER when the solve did not converge, or left an
    exact-intersection residual at or above the threshold; else EXIT_OK."""
    ok = solve.converged and (
        solve.mode is not VolumeMode.EXACT_INTERSECTION or solve.objective < residual_threshold
    )
    return EXIT_OK if ok else EXIT_SOLVER


@dataclass
class PipelineResult:
    exit_code: int
    summary: dict
    artifacts: dict[str, str]
    mesh: object = None


def report_doc(perp: PerpendicularityReport, glob: GlobalReport) -> dict:
    return {
        "perpendicularity": {
            "tol": perp.tol,
            "checked": perp.checked,
            "violations": [[i, j, d] for i, j, d in perp.violations],
        },
        "global": {
            "shared_wall_mismatches": [list(v) for v in glob.shared_wall_mismatches],
            "overlaps": [list(v) for v in glob.overlaps],
            "owners_outside": list(glob.owners_outside),
            "foreign_points": [list(v) for v in glob.foreign_points],
            "total_measure": glob.total_measure,
            "domain_measure": glob.domain_measure,
        },
        "ok": perp.ok and glob.ok,
    }


def run_pipeline(config: RunConfig, points=None) -> PipelineResult:
    """Drive every stage for one configuration; artifacts land in config.out_dir.

    A pre-generated point set can be supplied to skip the gen stage.
    """
    os.makedirs(config.out_dir, exist_ok=True)
    timings: dict[str, float] = {}
    artifacts: dict[str, str] = {}

    def stage(name, fn):
        t0 = perf_counter()
        try:
            value = fn()
        except CvMeshError as exc:
            raise PipelineError(name, exc) from exc
        timings[name] = perf_counter() - t0
        return value

    def emit(name: str, doc: dict):
        t0 = perf_counter()
        path = os.path.join(config.out_dir, name)
        write_json(doc, path)
        artifacts[name] = path
        timings["emit"] = timings.get("emit", 0.0) + perf_counter() - t0

    if points is None:
        points = stage("gen", lambda: generate_points(config))
    pts = as_point_array(points, config.dimension)
    emit("points.json", points_doc(pts, config))

    if config.dimension == 2:
        tri = stage("tri", lambda: triangulate2(pts))
    else:
        tri = stage("tri", lambda: tetrahedralize3(pts))
    nm = stage("neighbors", lambda: neighbor_map(tri))
    emit("triangulation.json", triangulation_doc(tri))

    mode = VolumeMode(config.mode)
    solve = stage("solve", lambda: solve_radii(
        tri, nm, pts, mode=mode, seed=config.seed,
        params=config.optimizer,
        equal_radii=config.equal_radii,
        bounds_policy=config.bounds_policy,
    ))
    overlap = stage("overlap", lambda: classify_overlap(solve.radii, nm, pts))
    n_overlapping = int(np.count_nonzero(overlap.overlapping))
    rdoc = radii_doc(solve, config.dimension)
    rdoc["overlap"] = {
        "overlapping": n_overlapping,
        "non_overlapping": len(overlap.edges) - n_overlapping,
    }
    emit("radii.json", rdoc)

    build = build_volumes2 if config.dimension == 2 else build_volumes3
    mesh = stage("build", lambda: build(tri, nm, pts, solve.radii))
    mesh.mode = config.mode

    perp = stage("validate", lambda: validate_perpendicularity(mesh, tol=config.tol_perp))
    glob = stage("validate_global", lambda: validate_global(mesh))
    report = report_doc(perp, glob)
    mesh.diagnostics = report
    emit("report.json", {"schema": SCHEMA, "kind": "report", **report})

    def do_export():
        wanted = [fmt for fmt in ("json", "vtk") if fmt in config.formats]
        # one pool of the vertex rows, formatted once, serves both writers
        pooled = PooledVertices.of(mesh.cells.verts) if wanted else None
        for fmt in wanted:
            path = os.path.join(config.out_dir, f"mesh.{fmt}")
            export_mesh(mesh, path, fmt, validation=report, pooled=pooled)
            artifacts[f"mesh.{fmt}"] = path

    stage("export", do_export)

    if "svg" in config.formats and config.dimension == 2:
        def do_render():
            path = os.path.join(config.out_dir, "mesh.svg")
            with open(path, "w") as fh:
                fh.write(render_svg(mesh))
            artifacts["mesh.svg"] = path
        stage("render", do_render)

    if not report["ok"] and not config.allow_invalid:
        exit_code = EXIT_VALIDATION
    else:
        exit_code = solver_exit(solve, config.residual_threshold)

    summary = {
        "schema": SCHEMA,
        "kind": "summary",
        "config": config.to_doc(),
        "n_points": int(len(pts)),
        "n_simplices": int(len(tri.simplices)),
        "residual": solve.objective,
        "solver_status": solve.status,
        "solver_converged": solve.converged,
        "solver_n_eval": solve.n_eval,
        "solver_trace": solve.trace,
        "clamped_points": len(solve.clamped_points),
        "domain_clipped_cells": _domain_clipped_cells(mesh),
        "hull_slivers_dropped": tri.hull_slivers_dropped,
        "tri_exact_tests": tri.exact_tests,
        "tri_walk_steps": tri.walk_steps,
        "max_simplex_residual": solve.max_simplex_residual,
        **_residual_spread(solve.powers),
        "perpendicularity_violations": len(perp.violations),
        "overlapping_pairs": n_overlapping,
        "global_ok": glob.ok,
        "total_measure": glob.total_measure,
        "domain_measure": glob.domain_measure,
        "exit_code": exit_code,
        "timings": {k: round(v, 6) for k, v in timings.items()},
    }
    spath = os.path.join(config.out_dir, "summary.json")
    write_json(summary, spath)
    artifacts["summary.json"] = spath
    return PipelineResult(exit_code=exit_code, summary=summary, artifacts=artifacts, mesh=mesh)


def _residual_spread(powers: np.ndarray) -> dict:
    """The median and 99th percentile of |power| over the simplices, and the
    simplex with the largest (the first of equals; null with no simplex)."""
    size = np.abs(powers)
    if not len(size):
        return {"residual_p50": 0.0, "residual_p99": 0.0, "worst_simplex": None}
    p50, p99 = np.percentile(size, [50, 99]).tolist()
    return {"residual_p50": p50, "residual_p99": p99, "worst_simplex": int(np.argmax(size))}


def _domain_clipped_cells(mesh) -> int:
    """Cells with at least one wall on the domain boundary (tagged -1)."""
    stack = mesh.cells
    owner = stack.row_rings() if mesh.dim == 2 else stack.cells
    return len(np.unique(owner[stack.tags < 0]))

