"""Independent checks of one op's `mesh.json`, in numpy only.

Nothing here calls into cvmesh. Every property is re-derived from the
artifact, so a defect in the program's own validators cannot pass a wrong
mesh. `check_mesh` returns a list of problems; an empty list means the mesh
passed.

- n cells, none empty;
- every tagged wall perpendicular to the segment joining its two generators;
- the cell measures sum to the domain measure;
- least-power oracle: at sampled points, the cell that contains the point
  belongs to the generator of least power (x - p_i)^2 - r_i^2.
"""
from __future__ import annotations

import math

import numpy as np

PERP_TOL = 1e-6          # rad; the pipeline's default RunConfig.tol_perp
MEASURE_RTOL = 1e-9      # |total - domain| <= MEASURE_RTOL * domain
INSIDE_RTOL = 1e-9       # containment slack, relative to the domain diagonal
TIE_RTOL = 1e-9          # skip samples whose two least powers lie this close
ORACLE_SAMPLES = 256


def _polygon_area(v: np.ndarray) -> float:
    return 0.5 * float(np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1]))


def _polyhedron_volume(faces: list[np.ndarray]) -> float:
    total = 0.0
    for v in faces:
        total += float(np.sum(np.einsum("j,kj->k", v[0], np.cross(v[1:-1], v[2:]))))
    return total / 6.0


def _newell(v: np.ndarray) -> np.ndarray:
    w = np.roll(v, -1, axis=0)
    return np.array([
        np.sum((v[:, 1] - w[:, 1]) * (v[:, 2] + w[:, 2])),
        np.sum((v[:, 2] - w[:, 2]) * (v[:, 0] + w[:, 0])),
        np.sum((v[:, 0] - w[:, 0]) * (v[:, 1] + w[:, 1])),
    ])


def _cells(doc: dict) -> list:
    """Per cell: (loop coords, edge neighbors) in 2D, [(face coords, neighbor)] in 3D."""
    dim = int(doc["dimension"])
    verts = np.asarray(doc["vertices"], dtype=float).reshape(-1, dim)
    out = []
    for c in doc["cells"]:
        if dim == 2:
            out.append((verts[np.asarray(c["loop"], dtype=np.int64)], c["edge_neighbors"]))
        else:
            out.append([(verts[np.asarray(f["loop"], dtype=np.int64)], f["neighbor"])
                        for f in c["faces"]])
    return out


def _halfspaces(dim: int, cell) -> tuple[np.ndarray, np.ndarray]:
    """Outward unit normals and offsets: x is inside when normals @ x <= offsets."""
    if dim == 2:
        v = cell[0]
        e = np.roll(v, -1, axis=0) - v
        sign = 1.0 if _polygon_area(v) >= 0.0 else -1.0
        normals = sign * np.stack([e[:, 1], -e[:, 0]], axis=1)
        anchors = v
    else:
        normals = np.array([_newell(f) for f, _ in cell])
        anchors = np.array([f.mean(axis=0) for f, _ in cell])
        if _polyhedron_volume([f for f, _ in cell]) < 0.0:
            normals = -normals
    length = np.linalg.norm(normals, axis=1)
    keep = length > 0.0
    normals = normals[keep] / length[keep, None]
    return normals, np.einsum("ij,ij->i", normals, anchors[keep])


def _wall_deviation(edges: np.ndarray, axis: np.ndarray, min_len: float) -> float:
    ln = np.linalg.norm(edges, axis=1)
    ln_ok = ln > min_len
    if not np.any(ln_ok):
        return 0.0
    cos = np.abs(edges[ln_ok] @ axis) / (ln[ln_ok] * float(np.linalg.norm(axis)))
    return math.asin(min(1.0, float(cos.max())))


def check_mesh(doc: dict, n_expected: int, sample_seed: int) -> list[str]:
    """Problems found in one mesh document; empty when every check passes."""
    problems: list[str] = []
    dim = int(doc["dimension"])
    pts = np.asarray(doc["points"], dtype=float).reshape(-1, dim)
    radii = np.asarray(doc["radii"], dtype=float)
    if dim == 2:
        dverts = np.asarray(doc["domain"]["vertices"], dtype=float)
        domain = abs(_polygon_area(dverts))
    else:
        dfaces = [np.asarray(f, dtype=float) for f in doc["domain"]["faces"]]
        dverts = np.vstack(dfaces)
        domain = abs(_polyhedron_volume(dfaces))
    lo, hi = dverts.min(axis=0), dverts.max(axis=0)
    scale = float(np.linalg.norm(hi - lo))

    cells = _cells(doc)
    if len(cells) != n_expected or len(pts) != n_expected:
        problems.append(f"{len(cells)} cells for {n_expected} points")
    empty = {i for i, c in enumerate(cells) if (len(c[0]) < 3 if dim == 2 else len(c) < 4)}
    if empty:
        problems.append(f"{len(empty)} empty cells, first {min(empty)}")

    total = 0.0
    worst = (0.0, None)
    for i, cell in enumerate(cells):
        if i in empty:
            continue
        if dim == 2:
            v, neighbors = cell
            total += abs(_polygon_area(v))
            edges = np.roll(v, -1, axis=0) - v
            walls = [(edges[k:k + 1], j) for k, j in enumerate(neighbors) if j is not None]
        else:
            total += abs(_polyhedron_volume([f for f, _ in cell]))
            walls = [(np.roll(f, -1, axis=0) - f, j) for f, j in cell if j is not None]
        for edges, j in walls:
            dev = _wall_deviation(edges, pts[j] - pts[i], 1e-12 * scale)
            if dev > worst[0]:
                worst = (dev, (i, j))
    if worst[0] > PERP_TOL:
        problems.append(f"wall {worst[1]} off perpendicular by {worst[0]:.3g} rad")
    if abs(total - domain) > MEASURE_RTOL * domain:
        problems.append(f"cell measures sum to {total!r}, domain is {domain!r}")
    if problems:
        return problems

    rng = np.random.default_rng(sample_seed)
    x = lo + (hi - lo) * rng.random((ORACLE_SAMPLES, dim))
    power = np.sum((x[:, None, :] - pts[None, :, :]) ** 2, axis=2) - radii[None, :] ** 2
    order = np.argsort(power, axis=1)[:, :2]
    best = power[np.arange(len(x)), order[:, 0]]
    gap = power[np.arange(len(x)), order[:, 1]] - best
    clear = gap > TIE_RTOL * scale * scale
    misplaced = 0
    for g in np.unique(order[clear, 0]):
        xs = x[clear & (order[:, 0] == g)]
        normals, offsets = _halfspaces(dim, cells[g])
        outside = np.any(xs @ normals.T - offsets > INSIDE_RTOL * scale, axis=1)
        misplaced += int(np.count_nonzero(outside))
    if misplaced:
        problems.append(f"{misplaced}/{int(clear.sum())} samples outside their least-power cell")
    return problems
