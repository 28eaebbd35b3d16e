"""Run configuration, seeded point generation, and mesh serialization.

JSON is the canonical round-trip format. Numbers are emitted with 17
significant digits so doubles survive export -> import bit-exactly; the
writer is a small recursive emitter because the stdlib encoder cannot be
told how to format floats.
"""
from __future__ import annotations

import json
import math
from itertools import product
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .clipping import TaggedFace, TaggedPolygon, TaggedPolyhedron
from .errors import IoFailure, RejectionBudgetExceeded, UnsupportedFormat
from .mesh import CellFace, ControlVolume, ControlVolumeMesh
from .optimize import RosenbrockParams, SoftSelectionParams

SCHEMA = "cvmesh/1"
SCHEMA_MAJOR = 1


# ---------------------------------------------------------------------------
# deterministic JSON


def _fmt_number(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if not math.isfinite(v):
        return "null"
    return format(v, ".17g")


def dumps_json(obj, indent: int = 0) -> str:
    """Serialize dict/list/number/str/None with 17-significant-digit floats."""
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, np.bool_, int, np.integer, float, np.floating)):
        return _fmt_number(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ", ".join(dumps_json(v, indent) for v in obj)
        return f"[{inner}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = []
        for k, v in obj.items():
            rows.append(f'{pad}  {json.dumps(str(k))}: {dumps_json(v, indent + 2)}')
        body = ",\n".join(rows)
        return "{\n" + body + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def write_json(doc: dict, path: str):
    with open(path, "w") as fh:
        fh.write(dumps_json(doc))
        fh.write("\n")


def read_json(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    check_schema(doc)
    return doc


def check_schema(doc: dict):
    tag = doc.get("schema", "")
    try:
        name, major = tag.split("/")
        major = int(major)
    except ValueError:
        raise IoFailure(f"missing or malformed schema tag: {tag!r}")
    if name != "cvmesh" or major != SCHEMA_MAJOR:
        raise IoFailure(f"unsupported schema version: {tag!r} (reader supports {SCHEMA})")


# ---------------------------------------------------------------------------
# run configuration


@dataclass
class OptimizerConfig:
    mu: int = 20
    lam: int = 140
    generations: int = 200
    sigma0: float = 0.1
    sigma_decay: float = 0.99
    expansion: float = 3.0
    contraction: float = -0.5
    initial_step: float = 0.1
    tol_step: float = 1e-10
    tol_f: float = 1e-14
    max_evals: int = 0

    def soft_selection_params(self) -> SoftSelectionParams:
        return SoftSelectionParams(
            mu=self.mu, lam=self.lam, generations=self.generations,
            sigma0=self.sigma0, sigma_decay=self.sigma_decay,
            polish=RosenbrockParams(
                expansion=self.expansion, contraction=self.contraction,
                initial_step=self.initial_step, tol_step=self.tol_step,
                tol_f=self.tol_f, max_evals=self.max_evals,
            ),
        )


@dataclass
class RunConfig:
    dimension: int = 2
    n: int = 50
    seed: int = 1
    box: tuple | None = None             # (lo..., hi...); default unit box
    mode: str = "radical-center"         # or "exact-intersection"
    equal_radii: bool = False
    boundary: bool = True                # sample the domain border as well
    min_sep_factor: float = 0.75
    bounds_policy: str = "clamp"         # or "strict" (raise on empty intervals)
    tol_perp: float = 1e-6
    residual_threshold: float = 1e-8
    probes: int = 10_000
    allow_invalid: bool = False
    out_dir: str = "out"
    formats: tuple = ("json", "vtk", "svg")
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self):
        if self.dimension not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.dimension}")
        if self.n < self.dimension + 1:
            raise ValueError(f"need at least {self.dimension + 1} points, got {self.n}")
        if self.mode not in ("radical-center", "exact-intersection"):
            raise ValueError(f"unknown mode: {self.mode!r}")
        if self.bounds_policy not in ("clamp", "strict"):
            raise ValueError(f"unknown bounds_policy: {self.bounds_policy!r}")
        if self.box is None:
            self.box = tuple([0.0] * self.dimension + [1.0] * self.dimension)
        self.box = tuple(float(v) for v in self.box)
        if len(self.box) != 2 * self.dimension:
            raise ValueError(f"box needs {2 * self.dimension} numbers, got {len(self.box)}")
        lo, hi = self.box_bounds()
        if np.any(hi <= lo):
            raise ValueError("box upper corner must exceed lower corner")
        for name in ("tol_perp", "residual_threshold", "min_sep_factor"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if isinstance(self.optimizer, dict):
            self.optimizer = OptimizerConfig(**self.optimizer)

    def box_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        d = self.dimension
        return np.asarray(self.box[:d]), np.asarray(self.box[d:])

    @classmethod
    def from_file(cls, path: str, **overrides) -> "RunConfig":
        with open(path) as fh:
            raw = json.load(fh)
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        raw.update({k: v for k, v in overrides.items() if v is not None})
        if "box" in raw and raw["box"] is not None:
            raw["box"] = tuple(raw["box"])
        if "formats" in raw:
            raw["formats"] = tuple(raw["formats"])
        return cls(**raw)

    def replace(self, **overrides) -> "RunConfig":
        data = asdict(self)
        data.update({k: v for k, v in overrides.items() if v is not None})
        return RunConfig(**data)

    def to_doc(self) -> dict:
        doc = asdict(self)
        doc["box"] = list(self.box)
        doc["formats"] = list(self.formats)
        return doc


# ---------------------------------------------------------------------------
# point generation


def _border_samples(lo, hi, spacing: float, rng) -> list[np.ndarray]:
    """Corner + jittered edge (and face, in 3D) points on the box border."""
    d = len(lo)
    pts: list[np.ndarray] = []
    for corner in product(*zip(lo, hi)):
        pts.append(np.asarray(corner, dtype=float))

    def along(a, b):
        length = float(np.linalg.norm(b - a))
        k = int(round(length / spacing)) - 1
        if k < 1:
            return
        ts = (np.arange(1, k + 1) + 0.15 * (rng.random(k) - 0.5)) / (k + 1)
        for t in ts:
            pts.append(a + t * (b - a))

    if d == 2:
        c = np.array
        along(c([lo[0], lo[1]]), c([hi[0], lo[1]]))
        along(c([hi[0], lo[1]]), c([hi[0], hi[1]]))
        along(c([hi[0], hi[1]]), c([lo[0], hi[1]]))
        along(c([lo[0], hi[1]]), c([lo[0], lo[1]]))
        return pts

    # 3D: the 12 box edges, then a jittered grid per face
    for axis in range(3):
        u, v = (axis + 1) % 3, (axis + 2) % 3
        for cu in (lo[u], hi[u]):
            for cv in (lo[v], hi[v]):
                a = np.empty(3)
                b = np.empty(3)
                a[axis], b[axis] = lo[axis], hi[axis]
                a[u] = b[u] = cu
                a[v] = b[v] = cv
                along(a, b)
    for axis in range(3):
        u, v = (axis + 1) % 3, (axis + 2) % 3
        ku = max(1, int(round((hi[u] - lo[u]) / spacing)) - 1)
        kv = max(1, int(round((hi[v] - lo[v]) / spacing)) - 1)
        for w in (lo[axis], hi[axis]):
            for iu in range(1, ku + 1):
                for iv in range(1, kv + 1):
                    p = np.empty(3)
                    p[axis] = w
                    p[u] = lo[u] + (iu + 0.15 * (rng.random() - 0.5)) / (ku + 1) * (hi[u] - lo[u])
                    p[v] = lo[v] + (iv + 0.15 * (rng.random() - 0.5)) / (kv + 1) * (hi[v] - lo[v])
                    pts.append(p)
    return pts


def generate_points(config: RunConfig) -> np.ndarray:
    """N seeded points in the box as an (N, dim) array, thinned by rejection to
    a minimum pairwise separation of min_sep_factor * side / N^(1/dim).

    With boundary sampling on (the default), the box corners and a jittered
    border layer are placed first and the interior is filled by uniform
    rejection; the border layer keeps hull simplices well-shaped, which the
    radius bounds need. boundary=False gives the plain i.i.d.-uniform cloud.
    """
    d = config.dimension
    lo, hi = config.box_bounds()
    side = float((hi - lo).min())
    min_sep = config.min_sep_factor * side / config.n ** (1.0 / d)
    rng = np.random.default_rng(config.seed)

    pts = np.empty((config.n, d))
    k = 0                                # points placed so far, in pts[:k]
    if config.boundary:
        border = _border_samples(lo, hi, 1.25 * min_sep, rng)
        if len(border) < config.n:
            k = len(border)
            pts[:k] = border

    budget = 1000 + 500 * config.n
    attempts = 0
    while k < config.n:
        if attempts >= budget:
            raise RejectionBudgetExceeded(
                f"placed {k}/{config.n} points after {attempts} attempts "
                f"(min separation {min_sep:.3g})"
            )
        cand = lo + (hi - lo) * rng.random(d)
        attempts += 1
        if k and float(np.min(np.linalg.norm(pts[:k] - cand, axis=1))) < min_sep:
            continue
        pts[k] = cand
        k += 1
    return pts


# ---------------------------------------------------------------------------
# artifact documents


def points_doc(points: np.ndarray, config: RunConfig) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "points",
        "dimension": config.dimension,
        "seed": config.seed,
        "box": list(config.box),
        "points": np.asarray(points),
    }


def triangulation_doc(tri) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "triangulation",
        "dimension": tri.dim,
        "points": tri.points,
        "simplices": tri.simplices,
    }


def radii_doc(solve_result, dimension: int) -> dict:
    lo = [v if math.isfinite(v) else None for v in solve_result.lo.tolist()]
    hi = [v if math.isfinite(v) else None for v in solve_result.hi.tolist()]
    return {
        "schema": SCHEMA,
        "kind": "radii",
        "dimension": dimension,
        "mode": solve_result.radii.mode.value,
        "radii": solve_result.radii.r,
        "lo": lo,
        "hi": hi,
        "objective": solve_result.objective,
        "n_eval": solve_result.n_eval,
        "converged": solve_result.converged,
        "clamped_points": list(solve_result.clamped_points),
        "status": solve_result.status,
    }


def _pool_vertices(dim: int):
    pool: dict[tuple, int] = {}
    coords: list[list[float]] = []

    def vid(v) -> int:
        key = tuple(format(float(c), ".17g") for c in v)
        if key not in pool:
            pool[key] = len(coords)
            coords.append([float(c) for c in v])
        return pool[key]

    return vid, coords


def mesh_doc(mesh: ControlVolumeMesh, validation: dict | None = None) -> dict:
    vid, coords = _pool_vertices(mesh.dim)
    cells = []
    for cell in mesh.volumes:
        if mesh.dim == 2:
            cells.append({
                "owner": cell.owner,
                "closed": cell.closed,
                "loop": [vid(v) for v in (cell.verts if cell.verts is not None else [])],
                "edge_neighbors": [None if t is None else int(t) for t in (cell.edge_neighbors or [])],
                "vertex_simplices": [None if t is None else int(t) for t in (cell.vertex_simplices or [])],
            })
        else:
            cells.append({
                "owner": cell.owner,
                "closed": cell.closed,
                "faces": [
                    {
                        "loop": [vid(v) for v in f.verts],
                        "neighbor": None if f.neighbor is None else int(f.neighbor),
                        "vertex_simplices": [None if t is None else int(t) for t in f.vertex_simplices],
                    }
                    for f in (cell.faces or [])
                ],
            })
    if mesh.dim == 2:
        domain = {"vertices": mesh.domain.verts}
    else:
        domain = {"faces": [f.verts for f in mesh.domain.faces]}
    return {
        "schema": SCHEMA,
        "kind": "mesh",
        "dimension": mesh.dim,
        "mode": mesh.mode,
        "points": mesh.points,
        "radii": mesh.radii,
        "domain": domain,
        "vertices": coords,
        "cells": cells,
        "simplices": mesh.simplices,
        "simplex_vertices": mesh.simplex_vertices,
        "validation": validation,
    }


def mesh_from_doc(doc: dict) -> ControlVolumeMesh:
    check_schema(doc)
    if doc.get("kind") != "mesh":
        raise IoFailure(f"expected a mesh document, got kind={doc.get('kind')!r}")
    dim = int(doc["dimension"])
    verts = np.asarray(doc["vertices"], dtype=float) if doc["vertices"] else np.empty((0, dim))
    volumes = []
    for c in doc["cells"]:
        if dim == 2:
            loop = np.asarray([verts[k] for k in c["loop"]], dtype=float).reshape(-1, 2)
            volumes.append(ControlVolume(
                owner=int(c["owner"]), closed=bool(c["closed"]), verts=loop,
                edge_neighbors=[None if t is None else int(t) for t in c["edge_neighbors"]],
                vertex_simplices=[None if t is None else int(t) for t in c["vertex_simplices"]],
            ))
        else:
            faces = [
                CellFace(
                    verts=np.asarray([verts[k] for k in f["loop"]], dtype=float).reshape(-1, 3),
                    neighbor=None if f["neighbor"] is None else int(f["neighbor"]),
                    vertex_simplices=[None if t is None else int(t) for t in f["vertex_simplices"]],
                )
                for f in c["faces"]
            ]
            volumes.append(ControlVolume(owner=int(c["owner"]), closed=bool(c["closed"]), faces=faces))
    if dim == 2:
        domain = TaggedPolygon(
            verts=np.asarray(doc["domain"]["vertices"], dtype=float),
            tags=[None] * len(doc["domain"]["vertices"]),
        )
    else:
        domain = TaggedPolyhedron(faces=[
            TaggedFace(verts=np.asarray(f, dtype=float), tag=None) for f in doc["domain"]["faces"]
        ])
    return ControlVolumeMesh(
        dim=dim,
        points=np.asarray(doc["points"], dtype=float),
        radii=None if doc["radii"] is None else np.asarray(doc["radii"], dtype=float),
        volumes=volumes,
        domain=domain,
        simplices=None if doc["simplices"] is None else np.asarray(doc["simplices"], dtype=np.int64),
        simplex_vertices=None if doc["simplex_vertices"] is None
        else np.asarray(doc["simplex_vertices"], dtype=float),
        mode=doc["mode"],
    )


# ---------------------------------------------------------------------------
# VTK legacy ASCII


def _vtk_header(title: str, dataset: str) -> list[str]:
    return ["# vtk DataFile Version 3.0", title, "ASCII", f"DATASET {dataset}"]


def vtk_polydata(mesh: ControlVolumeMesh) -> str:
    vid, coords = _pool_vertices(2)
    loops = []
    for cell in mesh.volumes:
        if cell.empty:
            continue
        loops.append([vid(v) for v in cell.verts])
    lines = _vtk_header("cvmesh control volumes", "POLYDATA")
    lines.append(f"POINTS {len(coords)} double")
    for x, y in coords:
        lines.append(f"{format(x, '.17g')} {format(y, '.17g')} 0")
    size = sum(len(l) + 1 for l in loops)
    lines.append(f"POLYGONS {len(loops)} {size}")
    for l in loops:
        lines.append(" ".join([str(len(l))] + [str(k) for k in l]))
    return "\n".join(lines) + "\n"


def vtk_unstructured(mesh: ControlVolumeMesh) -> str:
    vid, coords = _pool_vertices(3)
    records = []
    for cell in mesh.volumes:
        if cell.empty:
            continue
        faces = [[vid(v) for v in f.verts] for f in cell.faces]
        stream = [len(faces)]
        for f in faces:
            stream.append(len(f))
            stream.extend(f)
        records.append(stream)
    lines = _vtk_header("cvmesh control volumes", "UNSTRUCTURED_GRID")
    lines.append(f"POINTS {len(coords)} double")
    for x, y, z in coords:
        lines.append(f"{format(x, '.17g')} {format(y, '.17g')} {format(z, '.17g')}")
    total = sum(len(s) + 1 for s in records)
    lines.append(f"CELLS {len(records)} {total}")
    for s in records:
        lines.append(" ".join(str(v) for v in [len(s)] + s))
    lines.append(f"CELL_TYPES {len(records)}")
    lines.extend(["42"] * len(records))
    return "\n".join(lines) + "\n"


def export_mesh(mesh: ControlVolumeMesh, path: str, fmt: str = "json",
                validation: dict | None = None):
    """Write the mesh as canonical JSON or legacy ASCII VTK."""
    if all(v.empty for v in mesh.volumes):
        raise IoFailure("refusing to export an empty mesh")
    if fmt == "json":
        write_json(mesh_doc(mesh, validation), path)
    elif fmt == "vtk":
        body = vtk_polydata(mesh) if mesh.dim == 2 else vtk_unstructured(mesh)
        try:
            with open(path, "w") as fh:
                fh.write(body)
        except OSError as exc:
            raise IoFailure(str(exc)) from exc
    else:
        raise UnsupportedFormat(f"unknown mesh format {fmt!r} (use 'json' or 'vtk')")
