"""Spans around cvmesh's public functions, recorded from outside the program.

`installed(tracer)` replaces each function in `TARGETS` at the module
attribute its callers look up (`cvmesh.pipeline.triangulate2`, ...) and
puts the originals back on exit, so the program itself runs unmodified.
Every call in between records one span: name, op id, parent, start, end.
The objective, called tens of thousands of times per optimisation, is a
counted leaf instead: its calls and time are charged to the op and to the
enclosing span, so self times stay exact without a span per evaluation.
Spans stay in memory until `write`.
"""
from __future__ import annotations

import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# (module, attribute) pairs whose calls become spans named after the attribute.
TARGETS = (
    ("cvmesh.pipeline", "run_pipeline"),
    ("cvmesh.pipeline", "triangulate2"),
    ("cvmesh.pipeline", "tetrahedralize3"),
    ("cvmesh.pipeline", "neighbor_map"),
    ("cvmesh.pipeline", "solve_radii"),
    ("cvmesh.pipeline", "classify_overlap"),
    ("cvmesh.pipeline", "build_volumes2"),
    ("cvmesh.pipeline", "build_volumes3"),
    ("cvmesh.pipeline", "validate_perpendicularity"),
    ("cvmesh.pipeline", "validate_global"),
    ("cvmesh.pipeline", "write_json"),
    ("cvmesh.pipeline", "export_mesh"),
    ("cvmesh.pipeline", "render_svg"),
    ("cvmesh.solver", "max_radii"),
    ("cvmesh.solver", "bounds_arrays"),
    ("cvmesh.solver", "soft_selection_minimize"),
    ("cvmesh.optimize", "rosenbrock_minimize"),
    ("cvmesh.mesh", "clip_polygon"),
    ("cvmesh.mesh", "clip_polyhedron"),
    ("cvmesh.io", "generate_points"),
)
OBJECTIVE = "objective"


@dataclass
class Span:
    name: str
    op: str
    parent: int           # index into Tracer.spans; -1 at the top level
    start: float
    end: float = 0.0
    child_s: float = 0.0  # time covered by child spans and counted leaf calls

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.leaves: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.op = "-"
        self._open: list[int] = []

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            span = Span(name, self.op, parent, perf_counter())
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._open.pop()
                if parent >= 0:
                    self.spans[parent].child_s += span.seconds
        return traced

    def leaf(self, name: str, fn):
        def counted(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                entry = self.leaves[(self.op, name)]
                entry[0] += 1
                entry[1] += dt
                if self._open:
                    self.spans[self._open[-1]].child_s += dt
        return counted

    def profile(self, op: str) -> dict:
        """Per span name for one op: {"s": inclusive, "self_s": self, "calls": n},
        plus the counted leaves under the same keys."""
        out: dict[str, dict] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for sp in self.spans:
            if sp.op == op:
                row = out[sp.name]
                row["s"] += sp.seconds
                row["self_s"] += sp.seconds - sp.child_s
                row["calls"] += 1
        for (leaf_op, name), (calls, secs) in self.leaves.items():
            if leaf_op == op:
                out[name] = {"s": secs, "self_s": secs, "calls": calls}
        return out

    def write(self, path: str):
        """One JSON object per line: every span, then every leaf counter."""
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps({"name": sp.name, "op": sp.op, "parent": sp.parent,
                                     "start": sp.start, "end": sp.end}) + "\n")
            for (op, name), (calls, secs) in self.leaves.items():
                fh.write(json.dumps({"leaf": name, "op": op, "calls": calls, "s": secs}) + "\n")


@contextmanager
def installed(tracer: Tracer):
    """Swap every target for its traced wrapper; restore the originals on exit."""
    saved = []
    try:
        for modname, attr in TARGETS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            if attr == "soft_selection_minimize":
                fn = _counting_objective(tracer, fn)
            setattr(mod, attr, tracer.span(attr, fn))
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def _counting_objective(tracer: Tracer, minimize):
    def minimize_counted(f, *args, **kwargs):
        return minimize(tracer.leaf(OBJECTIVE, f), *args, **kwargs)
    return minimize_counted
