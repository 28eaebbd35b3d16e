"""Deterministic SVG rendering of 2D meshes.

Layers (each an svg group, toggled via options): generator points, Delaunay
edges, the per-point circles, and the control-volume polygons. Radius circles
are the only <circle> elements; point markers are small rects so element
counts stay meaningful.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .io import _text_lines
from .mesh import ControlVolumeMesh

ALL_LAYERS = ("points", "delaunay", "circles", "cells")


@dataclass(frozen=True)
class SvgOptions:
    layers: tuple = ALL_LAYERS
    size: int = 800
    point_size: float = 0.006      # marker half-width, fraction of the view span


def _fmt(v: float) -> str:
    return format(v, ".6f")


def render_svg(mesh: ControlVolumeMesh, pts: np.ndarray | None = None,
               radii: np.ndarray | None = None, options: SvgOptions | None = None) -> str:
    """Render a 2D mesh to an SVG string; byte-identical for identical input.

    Each layer's coordinates are computed as arrays, by the same float64
    operations as one element at a time, and the layer is formatted by one
    "%.6f" template ("%.6f" % x is format(x, ".6f")). Every coordinate,
    radius and stroke width is first multiplied by the power of two that
    brings the padded view span into [1, 2) (1.0 for a unit box), so six
    decimals keep the same digits at every scale, and a mesh scaled by a
    power of two renders the same bytes."""
    if mesh.dim != 2:
        raise DimensionMismatch("SVG rendering is 2D only; export 3D meshes to VTK")
    opt = options or SvgOptions()
    pts = np.asarray(mesh.points if pts is None else pts, dtype=float)
    radii = mesh.radii if radii is None else radii

    dv = mesh.domain.verts
    lo = dv.min(axis=0)
    hi = dv.max(axis=0)
    span = float(max(hi - lo))
    f = math.ldexp(1.0, 1 - math.frexp(span + 2 * (0.02 * span))[1])
    lo, hi, span, pts = lo * f, hi * f, span * f, pts * f
    pad = 0.02 * span
    x0, y0 = lo - pad
    w, h = (hi - lo) + 2 * pad
    flip = y0 + (y0 + h)  # y -> flip - y maps world up to svg up

    def xy(p: np.ndarray) -> np.ndarray:
        return np.column_stack([p[:, 0], flip - p[:, 1]])

    sw = _fmt(0.0015 * span)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{opt.size}" height="{opt.size}" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(w)} {_fmt(h)}">\n',
        f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(w)}" height="{_fmt(h)}" fill="white"/>\n',
    ]

    if "cells" in opt.layers:
        rings = mesh.cells
        full = ~mesh.empty_cells()
        v = rings.verts[full[rings.row_rings()]] * f
        out.append(f'<g id="cells" fill="none" stroke="#1a6faf" stroke-width="{sw}">\n')
        out.append(_text_lines("%.6f,%.6f", xy(v), rings.lengths()[full],
                               head='<polygon points="', tail='"/>'))
        out.append("</g>\n")

    if "delaunay" in opt.layers and mesh.simplices is not None:
        t = mesh.simplices
        e = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]).astype(np.int64)
        e.sort(axis=1)
        # one key i * n + j per edge (i < j < n): sorted keys are sorted rows
        n = int(e.max(initial=-1)) + 1
        e = np.column_stack(np.divmod(np.unique(e[:, 0] * n + e[:, 1]), n))
        out.append(f'<g id="delaunay" stroke="#bbbbbb" stroke-width="{sw}">\n')
        out.append(('<line x1="%.6f" y1="%.6f" x2="%.6f" y2="%.6f"/>\n' * len(e))
                   % tuple(np.hstack([xy(pts[e[:, 0]]), xy(pts[e[:, 1]])]).ravel().tolist()))
        out.append("</g>\n")

    if "circles" in opt.layers and radii is not None:
        r = np.asarray(radii, dtype=float) * f
        m = min(len(pts), len(r))
        out.append(f'<g id="circles" fill="none" stroke="#d88a2d" stroke-width="{sw}">\n')
        out.append(('<circle cx="%.6f" cy="%.6f" r="%.6f"/>\n' * m)
                   % tuple(np.column_stack([xy(pts[:m]), r[:m]]).ravel().tolist()))
        out.append("</g>\n")

    if "points" in opt.layers:
        s = opt.point_size * span
        size = _fmt(2 * s)
        out.append('<g id="points" fill="#c0392b">\n')
        out.append((f'<rect x="%.6f" y="%.6f" width="{size}" height="{size}"/>\n' * len(pts))
                   % tuple((xy(pts) - s).ravel().tolist()))
        out.append("</g>\n")

    out.append("</svg>\n")
    return "".join(out)
