"""Run configuration, seeded point generation, and mesh serialization.

JSON is the canonical round-trip format. Numbers are emitted with 17
significant digits so doubles survive export -> import bit-exactly; the
stdlib encoder cannot be told how to format floats, so `dumps_json` is an
emitter of its own that formats whole number arrays with one `%` template.
The mesh writers (`mesh_doc`, the VTK writers) read the mesh's cell stack
(`ControlVolumeMesh.cells`): they pool its vertex rows in one array pass and
write the cell blocks straight from the pooled ids, the stack's tags and its
simplex ids. `mesh_from_doc` builds that stack straight from the document
and rejects a document whose cells disagree with what the stack implies.
The domain is written as its vertices (2D) or face loops (3D) and read back
as the one-cell stack it was.
"""
from __future__ import annotations

import json
import math
from itertools import product
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .clipping import PolyStack, RingStack
from .errors import IoFailure, RejectionBudgetExceeded, UnsupportedFormat
from .mesh import ControlVolumeMesh
from .optimize import OptimizerParams

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


class RawJson(str):
    """JSON text that `dumps_json` emits as it is."""


def _dumps_array(a: np.ndarray) -> str:
    """A 1-D or 2-D int or float array as JSON lists, the bytes of dumping
    a.tolist(): one `%` call for all rows ("%.17g" % x is format(x, ".17g"));
    a row with a non-finite value goes number by number, so that value
    prints as null."""
    rows = a.reshape(-1, a.shape[-1])
    row = "[" + ", ".join(["%.17g" if a.dtype.kind == "f" else "%d"] * rows.shape[1]) + "]"
    if a.dtype.kind == "f" and not np.isfinite(rows).all():
        finite = np.isfinite(rows).all(axis=1).tolist()
        text = ", ".join(row % tuple(r) if ok else dumps_json(r)
                         for r, ok in zip(rows.tolist(), finite))
    else:
        text = ", ".join([row] * len(rows)) % tuple(rows.ravel().tolist())
    return text if a.ndim == 1 else "[" + text + "]"


def dumps_json(obj, indent: int = 0) -> str:
    """Serialize dict/list/number/str/None with 17-significant-digit floats."""
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, RawJson):
        return obj
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, np.bool_, int, np.integer, float, np.floating)):
        return _fmt_number(obj)
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "iuf" and obj.ndim in (1, 2) and obj.size:
            return _dumps_array(obj)
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
    optimizer: OptimizerParams = field(default_factory=OptimizerParams)

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
            unknown = set(self.optimizer) - {f.name for f in fields(OptimizerParams)}
            if unknown:
                raise ValueError(f"unknown optimizer config keys: {sorted(unknown)}")
            self.optimizer = OptimizerParams(**self.optimizer)

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


def _along(a, b, spacing: float, rng) -> np.ndarray:
    """Jittered points strictly inside the edge a -> b, about `spacing` apart."""
    length = float(np.linalg.norm(b - a))
    k = int(round(length / spacing)) - 1
    if k < 1:
        return np.empty((0, len(a)))
    ts = (np.arange(1, k + 1) + 0.15 * (rng.random(k) - 0.5)) / (k + 1)
    return a + ts[:, None] * (b - a)


def _border_samples(lo, hi, spacing: float, rng) -> np.ndarray:
    """Corner + jittered edge (and face, in 3D) points on the box border, as
    one (B, d) array. The draws are one rng.random(k) per edge and, per 3D
    face, two draws per grid point (u then v) in (iu, iv) order."""
    d = len(lo)
    parts = [np.array(list(product(*zip(lo, hi))), dtype=float)]
    if d == 2:
        c = np.array
        parts.append(_along(c([lo[0], lo[1]]), c([hi[0], lo[1]]), spacing, rng))
        parts.append(_along(c([hi[0], lo[1]]), c([hi[0], hi[1]]), spacing, rng))
        parts.append(_along(c([hi[0], hi[1]]), c([lo[0], hi[1]]), spacing, rng))
        parts.append(_along(c([lo[0], hi[1]]), c([lo[0], lo[1]]), spacing, rng))
        return np.concatenate(parts)

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
                parts.append(_along(a, b, spacing, rng))
    for axis in range(3):
        u, v = (axis + 1) % 3, (axis + 2) % 3
        ku = max(1, int(round((hi[u] - lo[u]) / spacing)) - 1)
        kv = max(1, int(round((hi[v] - lo[v]) / spacing)) - 1)
        iu, iv = (g.ravel() for g in np.meshgrid(
            np.arange(1, ku + 1), np.arange(1, kv + 1), indexing="ij"))
        for w in (lo[axis], hi[axis]):
            r = rng.random(2 * ku * kv).reshape(-1, 2)
            p = np.empty((ku * kv, 3))
            p[:, axis] = w
            p[:, u] = lo[u] + (iu + 0.15 * (r[:, 0] - 0.5)) / (ku + 1) * (hi[u] - lo[u])
            p[:, v] = lo[v] + (iv + 0.15 * (r[:, 1] - 0.5)) / (kv + 1) * (hi[v] - lo[v])
            parts.append(p)
    return np.concatenate(parts)


class _BackgroundGrid:
    """Uniform cells over the box, each side at least min_sep, so every point
    closer than min_sep to a query lies in the 3^d cells around the query's
    cell (Bridson 2007, "Fast Poisson disk sampling in arbitrary dimensions").

    The sides carry a margin of 1e-6 over min_sep: rounding in the cell
    coordinate is a few ulps times the cells per axis, so it cannot move two
    points closer than min_sep more than one cell apart. Long axes get wider
    cells until there are at most 4n + 64 of them, which keeps the grid O(n)
    whatever the box's aspect ratio.
    """

    def __init__(self, lo, hi, min_sep: float, n: int):
        extent = hi - lo
        shape = np.maximum(np.floor(extent / (min_sep * (1.0 + 1e-6))), 1.0)
        while np.prod(shape) > 4 * n + 64:
            i = int(np.argmax(shape))
            shape[i] = max(1.0, np.floor(shape[i] / 2.0))
        d = len(lo)
        self.lo = lo
        self.min_sep = min_sep
        self.width = extent / shape
        self.shape = shape.astype(np.int64)
        self.size = int(np.prod(self.shape))
        self.strides = np.cumprod(np.r_[1, self.shape[:-1]])
        self.offsets = np.array(list(product((-1, 0, 1), repeat=d)), dtype=np.int64)

    def cells(self, x: np.ndarray) -> np.ndarray:
        """Per-axis cell coordinates (m, d) of the points x (m, d)."""
        c = np.floor((x - self.lo) / self.width).astype(np.int64)
        return np.clip(c, 0, self.shape - 1)

    def flat(self, cells: np.ndarray) -> np.ndarray:
        return cells @ self.strides

    def conflicts(self, x, xcells, pts, pflat) -> tuple[np.ndarray, np.ndarray]:
        """(q, p) index pairs, ordered by q, with |pts[p] - x[q]| < min_sep:
        only the points p in the 3^d cells around x[q] are measured (x[q] in
        per-axis cells xcells[q], pts[p] in flat cell pflat[p]). The distance
        is the expression of a check against every point,
        np.linalg.norm(pts - x) (sqrt of the sum of squared differences), so
        every decision is the same to the last bit; squared distances would
        differ there."""
        order = np.argsort(pflat, kind="stable")
        count = np.bincount(pflat, minlength=self.size)
        start = np.cumsum(count) - count
        nb = xcells[:, None, :] + self.offsets
        q, o = np.nonzero(np.all((nb >= 0) & (nb < self.shape), axis=2))
        cell = self.flat(nb[q, o])
        c = count[cell]
        run = np.cumsum(c) - c
        q = np.repeat(q, c)
        p = order[np.arange(int(c.sum())) + np.repeat(start[cell] - run, c)]
        hit = np.linalg.norm(pts[p] - x[q], axis=1) < self.min_sep
        return q[hit], p[hit]


_MAX_BLOCK = 8192                        # candidates per block; bounds its memory


def generate_points(config: RunConfig) -> np.ndarray:
    """N seeded points in the box as an (N, dim) array, thinned by rejection to
    a minimum pairwise separation of min_sep_factor * side / N^(1/dim).

    With boundary sampling on (the default), the box corners and a jittered
    border layer are placed first and the interior is filled by uniform
    rejection; the border layer keeps hull simplices well-shaped, which the
    radius bounds need. boundary=False gives the plain i.i.d.-uniform cloud.

    The output is byte for byte that of drawing one candidate at a time with
    rng.random(dim) and accepting it when no placed point lies within the
    separation, but a candidate costs the same whatever N: candidates are
    drawn in blocks (the same stream), sized from the acceptance rate of the
    last block. A background grid checks a block against the placed points
    in the 3^dim cells around each candidate only, and a candidate that
    passes is accepted unless an earlier accepted candidate of its own block
    lies within the separation. Attempts count up to the candidate that
    places point N; after 1000 + 500 N of them without N points,
    RejectionBudgetExceeded is raised.
    """
    d = config.dimension
    n = config.n
    lo, hi = config.box_bounds()
    side = float((hi - lo).min())
    min_sep = config.min_sep_factor * side / n ** (1.0 / d)
    rng = np.random.default_rng(config.seed)

    pts = np.empty((n, d))
    k = 0                                # points placed so far, in pts[:k]
    if config.boundary:
        border = _border_samples(lo, hi, 1.25 * min_sep, rng)
        if len(border) < n:
            k = len(border)
            pts[:k] = border

    grid = _BackgroundGrid(lo, hi, min_sep, n)
    pflat = np.empty(n, dtype=np.int64)  # flat grid cell of each placed point
    pflat[:k] = grid.flat(grid.cells(pts[:k]))
    budget = 1000 + 500 * n
    attempts = 0
    # Conflicts inside a block grow as the square of its size over n and are
    # resolved in a Python loop; aiming at n/8 acceptances per block keeps
    # them few and the number of blocks small.
    per_block = max(16, n // 8)
    rate = 1.0                           # acceptance rate of the last block
    while k < n:
        if attempts >= budget:
            raise RejectionBudgetExceeded(
                f"placed {k}/{n} points after {attempts} attempts "
                f"(min separation {min_sep:.3g})"
            )
        m = math.ceil(1.25 * min(n - k, per_block) / rate)
        m = min(m, _MAX_BLOCK, budget - attempts)
        cand = lo + (hi - lo) * rng.random((m, d))
        ccells = grid.cells(cand)

        # candidates with no placed point within min_sep, in draw order
        rejected = np.zeros(m, dtype=bool)
        rejected[grid.conflicts(cand, ccells, pts, pflat[:k])[0]] = True
        live = np.flatnonzero(~rejected)
        # a live candidate is accepted unless an earlier accepted one of
        # this block is within min_sep
        q, p = grid.conflicts(cand[live], ccells[live], cand[live],
                              grid.flat(ccells[live]))
        earlier = p < q
        accepted = [True] * len(live)
        for i, j in zip(q[earlier].tolist(), p[earlier].tolist()):  # ordered by i
            if accepted[j]:
                accepted[i] = False
        placed = live[np.array(accepted, dtype=bool)][: n - k]

        rate = max(len(placed), 1) / m
        attempts += int(placed[-1]) + 1 if k + len(placed) == n else m
        pts[k:k + len(placed)] = cand[placed]
        pflat[k:k + len(placed)] = grid.flat(ccells[placed])
        k += len(placed)
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
        "mode": solve_result.mode.value,
        "radii": solve_result.radii,
        "lo": lo,
        "hi": hi,
        "objective": solve_result.objective,
        "n_eval": solve_result.n_eval,
        "converged": solve_result.converged,
        "clamped_points": list(solve_result.clamped_points),
        "status": solve_result.status,
    }


def _pool_vertices(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pool the (V, dim) vertex rows: (coords, ids).

    coords holds the distinct vertices in order of first appearance, ids the
    index into coords of every row in turn. Two vertices are one when their
    float64 bytes are: for finite doubles that is when their ".17g" texts are
    (so -0.0 and 0.0 stay apart), and every NaN is mapped to one NaN first,
    as all share the text "nan"."""
    key = np.where(np.isnan(verts), np.nan, verts)
    key = key.view(np.dtype((np.void, key.itemsize * verts.shape[1]))).ravel()
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return verts[first[order]], np.argsort(order)[inverse.ravel()]


def _runs(tokens: list[str], lengths: np.ndarray) -> list[str]:
    """", "-joined consecutive runs of tokens, one run per length."""
    cuts = np.cumsum(lengths).tolist()
    return [", ".join(tokens[a:b]) for a, b in zip([0] + cuts, cuts)]


def _ints(values: np.ndarray) -> list[str]:
    """JSON text of ids, null for -1, one per value."""
    return ["null" if t < 0 else str(t) for t in values.tolist()]


_CELL2 = ('{\n    "owner": %d,\n    "closed": %s,\n    "loop": [%s],\n'
          '    "edge_neighbors": [%s],\n    "vertex_simplices": [%s]\n  }')
_CELL3 = '{\n    "owner": %d,\n    "closed": %s,\n    "faces": [%s]\n  }'
_FACE3 = ('{\n      "loop": [%s],\n      "neighbor": %s,\n'
          '      "vertex_simplices": [%s]\n    }')


def _cells_json(mesh: ControlVolumeMesh) -> tuple[np.ndarray, RawJson]:
    """The pooled vertices and the JSON text of the "cells" list, as the
    recursive emitter would print one dict per cell (and face) at indent 2.
    Cell i's owner is i; it is closed when it has rows (2D) or faces (3D)."""
    stack = mesh.cells
    coords, ids = _pool_vertices(stack.verts)
    lens = stack.lengths()
    loops = _runs(list(map(str, ids.tolist())), lens)
    sids = _runs(_ints(stack.simplices), lens)
    if mesh.dim == 2:
        closed = np.where(lens > 0, "true", "false").tolist()
        text = [_CELL2 % row for row in zip(range(len(lens)), closed, loops,
                                            _runs(_ints(stack.tags), lens), sids)]
    else:
        faces = [_FACE3 % row for row in zip(loops, _ints(stack.tags), sids)]
        nfaces = np.bincount(stack.cells, minlength=len(mesh.points))
        closed = np.where(nfaces > 0, "true", "false").tolist()
        text = [_CELL3 % row for row in zip(range(len(nfaces)), closed, _runs(faces, nfaces))]
    return coords, RawJson("[" + ", ".join(text) + "]")


def mesh_doc(mesh: ControlVolumeMesh, validation: dict | None = None) -> dict:
    """The mesh.json document. Its "cells" entry is the finished JSON text
    of the cell list (a `RawJson`), laid out for the top level of the
    document: write it with `write_json`/`dumps_json`, and read a mesh back
    with `mesh_from_doc` on the parsed file."""
    coords, cells = _cells_json(mesh)
    d = mesh.domain
    domain = ({"vertices": d.verts} if mesh.dim == 2
              else {"faces": np.split(d.verts, d.starts[1:])})
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


def _gather(verts: np.ndarray, loop, where: str) -> np.ndarray:
    """verts[loop], after checking every index of the loop against verts."""
    idx = np.asarray(loop)
    if idx.size and (idx.dtype.kind not in "iu" or idx.min() < 0 or idx.max() >= len(verts)):
        raise IoFailure(f"{where}: loop holds a vertex index outside [0, {len(verts)})")
    return verts[idx.astype(np.int64)]


def _id_array(values) -> np.ndarray:
    """Neighbor or simplex ids with null as -1."""
    return np.array([-1 if t is None else int(t) for t in values], dtype=np.int64)


def mesh_from_doc(doc: dict) -> ControlVolumeMesh:
    """The mesh of a parsed mesh.json, its cell stack built straight from the
    "cells" list. Cell k must be point k's (one cell per point, owner k),
    closed exactly when it has rows (2D) or faces (3D), with one neighbor
    (2D) and one simplex id per loop index, and every loop (a closed ring,
    or a face) of three vertices or more; a document that breaks these
    rules, or whose loops index outside "vertices", raises IoFailure naming
    the cell (and the face)."""
    check_schema(doc)
    if doc.get("kind") != "mesh":
        raise IoFailure(f"expected a mesh document, got kind={doc.get('kind')!r}")
    dim = int(doc["dimension"])
    verts = np.asarray(doc["vertices"], dtype=float) if doc["vertices"] else np.empty((0, dim))
    points = np.asarray(doc["points"], dtype=float)
    cells = doc["cells"]
    if len(cells) != len(points):
        raise IoFailure(f"cell {min(len(cells), len(points))}: the document has "
                        f"{len(cells)} cells for {len(points)} points")
    loops, tags, sids, owner = [], [], [], []
    for k, c in enumerate(cells):
        if c["owner"] != k:
            raise IoFailure(f"cell {k}: owner {c['owner']!r} is not the cell's position")
        walls = [c] if dim == 2 else c["faces"]
        size = len(c["loop"]) if dim == 2 else len(walls)
        if bool(c["closed"]) != (size > 0):
            raise IoFailure(f"cell {k}: closed is {bool(c['closed'])} with {size} "
                            + ("vertices" if dim == 2 else "faces"))
        for m, w in enumerate(walls):
            where = f"cell {k}" if dim == 2 else f"cell {k}, face {m}"
            loop = _gather(verts, w["loop"], where)
            if len(loop) < 3 and (dim == 3 or len(loop)):
                raise IoFailure(f"{where}: a loop of {len(loop)} vertices, under three")
            nb = w["edge_neighbors"] if dim == 2 else [w["neighbor"]]
            if len(w["vertex_simplices"]) != len(loop) or (dim == 2 and len(nb) != len(loop)):
                raise IoFailure(f"{where}: loop, neighbors and vertex_simplices differ in length")
            loops.append(loop)
            tags += nb
            sids += w["vertex_simplices"]
            owner.append(k)
    lens = np.array([len(v) for v in loops], dtype=np.intp)
    rows = np.concatenate(loops) if loops else np.empty((0, dim))
    if dim == 2:
        stack = RingStack(rows, np.cumsum(lens) - lens, _id_array(tags), _id_array(sids))
    else:
        stack = PolyStack.from_loops(rows, np.cumsum(lens) - lens, _id_array(tags), owner,
                                     _id_array(sids))
    if dim == 2:
        box = np.asarray(doc["domain"]["vertices"], dtype=float)
        domain = RingStack.from_rings(box, [0], [-1] * len(box))
    else:
        faces = [np.asarray(f, dtype=float) for f in doc["domain"]["faces"]]
        lens = np.array([len(f) for f in faces], dtype=np.intp)
        domain = PolyStack.from_loops(np.concatenate(faces), np.cumsum(lens) - lens,
                                      [-1] * len(faces), [0] * len(faces))
    return ControlVolumeMesh(
        dim=dim,
        points=points,
        radii=None if doc["radii"] is None else np.asarray(doc["radii"], dtype=float),
        cells=stack,
        domain=domain,
        simplices=None if doc["simplices"] is None else np.asarray(doc["simplices"], dtype=np.int64),
        simplex_vertices=None if doc["simplex_vertices"] is None
        else np.asarray(doc["simplex_vertices"], dtype=float),
        mode=doc["mode"],
    )


# ---------------------------------------------------------------------------
# VTK legacy ASCII


def _vtk_header(title: str, dataset: str) -> str:
    return f"# vtk DataFile Version 3.0\n{title}\nASCII\nDATASET {dataset}\n"


def _text_lines(spec: str, values: np.ndarray, counts, head: str = "", tail: str = "") -> str:
    """One text line per entry of counts: head, then that many items joined
    by single spaces, then tail and a newline. Item k is spec % values[k] (a
    row of values, or one value); a single `%` call formats them all."""
    ends = np.cumsum(counts, dtype=np.int64)
    seps = np.full(int(ends[-1]) if len(ends) else 0, " ", dtype=object)
    seps[ends - 1] = tail + "\n" + head
    template = head + spec.join(["", *seps.tolist()])
    return template[:len(template) - len(head)] % tuple(np.ravel(values).tolist())


def _vtk_points(coords: np.ndarray, row: str) -> str:
    return f"POINTS {len(coords)} double\n" + (row * len(coords)) % tuple(coords.ravel().tolist())


def vtk_polydata(mesh: ControlVolumeMesh) -> str:
    """One polygon per ring that is not empty."""
    rings = mesh.cells
    full = ~mesh.empty_cells()
    coords, ids = _pool_vertices(rings.verts[full[rings.row_rings()]])
    k = rings.lengths()[full]
    stream = np.insert(ids, np.cumsum(k) - k, k)
    return (_vtk_header("cvmesh control volumes", "POLYDATA")
            + _vtk_points(coords, "%.17g %.17g 0\n")
            + f"POLYGONS {len(k)} {len(stream)}\n"
            + _text_lines("%d", stream, k + 1))


def vtk_unstructured(mesh: ControlVolumeMesh) -> str:
    """One polyhedron (VTK type 42) per cell with faces."""
    stack = mesh.cells
    coords, ids = _pool_vertices(stack.verts)
    k = stack.lengths()
    nfaces = np.bincount(stack.cells)
    nfaces = nfaces[nfaces > 0]
    first = np.cumsum(nfaces) - nfaces                 # each cell's first face
    size = np.add.reduceat(k + 1, first) + 1           # record length after its prefix
    # each face as (k, ids...), then (size, face count) before each cell's faces
    faces = np.insert(ids, np.cumsum(k) - k, k)
    start = (np.cumsum(k + 1) - (k + 1))[first]
    stream = np.insert(faces, np.repeat(start, 2), np.column_stack([size, nfaces]).ravel())
    return (_vtk_header("cvmesh control volumes", "UNSTRUCTURED_GRID")
            + _vtk_points(coords, "%.17g %.17g %.17g\n")
            + f"CELLS {len(nfaces)} {len(stream)}\n"
            + _text_lines("%d", stream, size + 1)
            + f"CELL_TYPES {len(nfaces)}\n"
            + "42\n" * len(nfaces))


def export_mesh(mesh: ControlVolumeMesh, path: str, fmt: str = "json",
                validation: dict | None = None):
    """Write the mesh as canonical JSON or legacy ASCII VTK."""
    if mesh.empty_cells().all():
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
