"""Machine-speed calibration for a shared host.

On a host whose other tenants come and go, one op can take 60% longer from
one second to the next. So every piece of timed work runs between two short
reference kernels that do not touch cvmesh, and their mean duration k says
how fast the machine ran meanwhile. A wall time w is reported as
w * NOMINAL_S / k: seconds at the speed at which the kernel takes NOMINAL_S.
A change to cvmesh moves w but not k, so it shows in full; a slow spell on
the host moves both.

The kernel mixes interpreter work with small numpy calls, as cvmesh does.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

NOMINAL_S = 0.010            # reference-kernel time that defines a reference second
_PTS = np.random.default_rng(0).random((64, 2))


def _kernel() -> float:
    acc = 0.0
    table = {}
    for i in range(1600):
        a, b, c = _PTS[i % 64], _PTS[(i * 7) % 64], _PTS[(i * 13) % 64]
        m = np.array([[b[0] - a[0], b[1] - a[1]], [c[0] - a[0], c[1] - a[1]]])
        acc += float(np.linalg.det(m))
        table[i % 97] = acc
        acc += sum(x * x for x in (a[0], a[1], b[0]))
    return acc


def _kernel_s() -> float:
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


@dataclass
class Timing:
    wall_s: float = 0.0
    factor: float = 1.0      # reference seconds per wall second

    @property
    def seconds(self) -> float:
        return self.wall_s * self.factor


@contextmanager
def bracket():
    """Time the block between two reference kernels. The yielded Timing is
    filled in on exit, also when the block raises."""
    timing = Timing()
    before = _kernel_s()
    t0 = perf_counter()
    try:
        yield timing
    finally:
        timing.wall_s = perf_counter() - t0
        timing.factor = NOMINAL_S / (0.5 * (before + _kernel_s()))
