"""Command-line driver.

Subcommands mirror the pipeline stages (gen, tri, solve, build, validate,
export, render) plus the composite `run`. Configuration comes from an optional
JSON file overridden by flags. Exit codes: 0 ok, 2 validation failure,
3 solver non-convergence, 4 input error.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .delaunay import Triangulation2, Triangulation3, _adjacency, neighbor_map, tetrahedralize3, \
    triangulate2
from .errors import CvMeshError, PipelineError
from .io import (
    RunConfig,
    export_mesh,
    generate_points,
    mesh_doc,
    mesh_from_doc,
    points_doc,
    radii_doc,
    read_json,
    triangulation_doc,
    write_json,
    SCHEMA,
)
from .mesh import build_volumes2, build_volumes3, validate_global, validate_perpendicularity
from .pipeline import EXIT_INPUT, EXIT_OK, EXIT_VALIDATION, report_doc, run_pipeline
from .solver import VolumeMode, solve_radii
from .svg import ALL_LAYERS, SvgOptions, render_svg


def _config_from_args(args) -> RunConfig:
    overrides = dict(
        dimension=args.dim,
        n=args.n,
        seed=args.seed,
        mode=args.mode,
        equal_radii=True if getattr(args, "equal_radii", False) else None,
        tol_perp=getattr(args, "tol_perp", None),
        out_dir=getattr(args, "out", None),
        allow_invalid=True if getattr(args, "allow_invalid", False) else None,
    )
    fmt = getattr(args, "format", None)
    if fmt:
        overrides["formats"] = tuple(fmt.split(","))
    if args.config:
        return RunConfig.from_file(args.config, **overrides)
    return RunConfig(**{k: v for k, v in overrides.items() if v is not None})


def _load_triangulation(path: str):
    doc = read_json(path)
    if doc.get("kind") != "triangulation":
        raise CvMeshError(f"{path} is not a triangulation artifact")
    pts = np.asarray(doc["points"], dtype=float)
    simplices = np.asarray(doc["simplices"], dtype=np.int64)
    if doc["dimension"] == 2:
        return Triangulation2(points=pts, triangles=simplices, adjacency=_adjacency(simplices))
    return Triangulation3(points=pts, tetrahedra=simplices, adjacency=_adjacency(simplices))


def cmd_gen(args) -> int:
    config = _config_from_args(args)
    pts = generate_points(config)
    write_json(points_doc(pts, config), args.out)
    print(f"wrote {len(pts)} points to {args.out}")
    return EXIT_OK


def cmd_tri(args) -> int:
    doc = read_json(args.points)
    pts = np.asarray(doc["points"], dtype=float)
    tri = triangulate2(pts) if doc["dimension"] == 2 else tetrahedralize3(pts)
    write_json(triangulation_doc(tri), args.out)
    print(f"wrote {len(tri.simplices)} simplices to {args.out}")
    return EXIT_OK


def cmd_solve(args) -> int:
    config = _config_from_args(args)
    tri = _load_triangulation(args.tri)
    nm = neighbor_map(tri)
    result = solve_radii(
        tri, nm, mode=VolumeMode(config.mode), seed=config.seed,
        params=config.optimizer, equal_radii=config.equal_radii,
        bounds_policy=config.bounds_policy,
    )
    write_json(radii_doc(result, tri.dim), args.out)
    print(f"solved radii: objective={result.objective:.3e} status={result.status}")
    if config.mode == "exact-intersection" and result.objective >= config.residual_threshold:
        return 3
    return EXIT_OK


def cmd_build(args) -> int:
    tri = _load_triangulation(args.tri)
    nm = neighbor_map(tri)
    rdoc = read_json(args.radii)
    radii = np.asarray(rdoc["radii"], dtype=float)
    build = build_volumes2 if tri.dim == 2 else build_volumes3
    mesh = build(tri, nm, None, radii)
    mesh.mode = rdoc.get("mode")
    write_json(mesh_doc(mesh), args.out)
    print(f"built {len(mesh.points)} cells into {args.out}")
    return EXIT_OK


def cmd_validate(args) -> int:
    mesh = mesh_from_doc(read_json(args.mesh))
    perp = validate_perpendicularity(mesh, tol=args.tol_perp)
    glob = validate_global(mesh, probes=args.probes)
    report = report_doc(perp, glob)
    if args.out:
        write_json({"schema": SCHEMA, "kind": "report", **report}, args.out)
    status = "ok" if report["ok"] else "INVALID"
    print(
        f"validation {status}: {len(perp.violations)} perpendicularity violations, "
        f"{len(glob.overlaps)} overlaps, {len(glob.shared_wall_mismatches)} wall mismatches"
    )
    return EXIT_OK if report["ok"] else EXIT_VALIDATION


def cmd_export(args) -> int:
    mesh = mesh_from_doc(read_json(args.mesh))
    export_mesh(mesh, args.out, args.format)
    print(f"wrote {args.format} mesh to {args.out}")
    return EXIT_OK


def cmd_render(args) -> int:
    mesh = mesh_from_doc(read_json(args.mesh))
    layers = tuple(args.layers.split(",")) if args.layers else ALL_LAYERS
    svg = render_svg(mesh, options=SvgOptions(layers=layers))
    with open(args.out, "w") as fh:
        fh.write(svg)
    print(f"rendered {args.out} with layers {','.join(layers)}")
    return EXIT_OK


def cmd_run(args) -> int:
    config = _config_from_args(args)
    if getattr(args, "render", False) and "svg" not in config.formats:
        config = config.replace(formats=tuple(config.formats) + ("svg",))
    result = run_pipeline(config)
    s = result.summary
    print(
        f"run finished: residual={s['residual']:.3e} "
        f"max simplex residual={s['max_simplex_residual']:.3e} "
        f"perp violations={s['perpendicularity_violations']} "
        f"global ok={s['global_ok']} exit={s['exit_code']}"
    )
    for name, path in sorted(result.artifacts.items()):
        print(f"  {name}: {path}")
    return result.exit_code


def _add_common(p: argparse.ArgumentParser, out_default=None):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--dim", type=int, dest="dim", help="dimension (2 or 3)")
    p.add_argument("--n", type=int, help="number of points")
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--mode", choices=["radical-center", "exact-intersection"],
                   help="vertex construction mode")
    if out_default is not None:
        p.add_argument("--out", default=out_default, help="output path")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cvmesh",
                                 description="cell-centered control-volume mesh generator")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded point cloud")
    _add_common(p, "points.json")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("tri", help="Delaunay-triangulate a point cloud")
    p.add_argument("--points", required=True)
    p.add_argument("--out", default="triangulation.json")
    p.set_defaults(fn=cmd_tri, config=None, dim=None, n=None, seed=None, mode=None)

    p = sub.add_parser("solve", help="solve control-volume radii")
    _add_common(p, "radii.json")
    p.add_argument("--tri", required=True)
    p.add_argument("--equal-radii", action="store_true", dest="equal_radii")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("build", help="assemble control volumes")
    p.add_argument("--tri", required=True)
    p.add_argument("--radii", required=True)
    p.add_argument("--out", default="mesh.json")
    p.set_defaults(fn=cmd_build, config=None, dim=None, n=None, seed=None, mode=None)

    p = sub.add_parser("validate", help="validate a built mesh")
    p.add_argument("--mesh", required=True)
    p.add_argument("--tol-perp", type=float, dest="tol_perp", default=1e-6)
    p.add_argument("--probes", type=int, default=10_000)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("export", help="convert a mesh artifact to another format")
    p.add_argument("--mesh", required=True)
    p.add_argument("--format", default="vtk", choices=["json", "vtk"])
    p.add_argument("--out", default="mesh.vtk")
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("render", help="render a 2D mesh to SVG")
    p.add_argument("--mesh", required=True)
    p.add_argument("--layers", default=None, help="comma list: points,delaunay,circles,cells")
    p.add_argument("--out", default="mesh.svg")
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("run", help="full pipeline: gen, tri, solve, build, validate, export")
    _add_common(p)
    p.add_argument("--equal-radii", action="store_true", dest="equal_radii")
    p.add_argument("--tol-perp", type=float, dest="tol_perp", default=None)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--format", default=None, help="comma list of json,vtk,svg")
    p.add_argument("--render", action="store_true",
                   help="force SVG rendering even with a restricted --format")
    p.add_argument("--allow-invalid", action="store_true", dest="allow_invalid")
    p.set_defaults(fn=cmd_run)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except PipelineError as exc:
        print(f"error in stage '{exc.stage}': {exc.cause}", file=sys.stderr)
        return EXIT_INPUT
    except (CvMeshError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
