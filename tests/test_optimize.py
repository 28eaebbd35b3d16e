import numpy as np
import pytest

from cvmesh.optimize import (
    OptimizerParams,
    rosenbrock_minimize,
    soft_selection_minimize,
)


def quadratic_bowl(x):
    return (x[0] - 1.0) ** 2 + (x[1] - 2.0) ** 2


def banana(x):
    return 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2


def test_rosenbrock_quadratic_bowl():
    res = rosenbrock_minimize(quadratic_bowl, [0.0, 0.0], ([-5, -5], [5, 5]))
    assert res.converged
    assert np.allclose(res.x, [1.0, 2.0], atol=1e-6)


def test_rosenbrock_banana():
    res = rosenbrock_minimize(banana, [-1.2, 1.0], ([-5, -5], [5, 5]))
    assert res.converged
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-4)


def test_rosenbrock_never_leaves_box():
    lo = np.array([0.0, 0.0])
    hi = np.array([0.5, 0.5])  # true minimum (1, 2) lies outside
    calls = []

    def recording(x):
        calls.append(x.copy())
        return quadratic_bowl(x)

    res = rosenbrock_minimize(recording, [0.25, 0.25], (lo, hi))
    for x in calls:
        assert np.all(x > lo) and np.all(x < hi)
    assert np.all(res.x > lo) and np.all(res.x < hi)
    assert res.fun <= quadratic_bowl(np.array([0.25, 0.25]))


def test_rosenbrock_requires_interior_start():
    with pytest.raises(ValueError):
        rosenbrock_minimize(quadratic_bowl, [0.0, 0.0], ([0, -1], [1, 1]))


def test_rosenbrock_max_evals_flagged():
    res = rosenbrock_minimize(banana, [-1.2, 1.0], ([-5, -5], [5, 5]),
                              OptimizerParams(max_evals=50))
    assert not res.converged
    assert res.status == "max-evals"
    assert res.n_eval <= 50
    assert res.fun <= banana(np.array([-1.2, 1.0]))


def test_soft_selection_sphere_10d():
    def sphere(x):
        return np.sum(x * x, axis=-1)

    res = soft_selection_minimize(sphere, (np.full(10, -2.0), np.full(10, 3.0)), seed=1,
                                  params=OptimizerParams(generations=60))
    assert res.fun < 1e-6


def test_soft_selection_trace_monotone():
    def rastrigin(x):
        return 10 * x.shape[-1] + np.sum(x * x - 10 * np.cos(2 * np.pi * x), axis=-1)

    res = soft_selection_minimize(rastrigin, ([-5.12, -5.12], [5.12, 5.12]), seed=3,
                                  params=OptimizerParams(generations=50))
    trace = np.asarray(res.trace)
    assert len(trace) == 50
    assert np.all(np.diff(trace) <= 0.0)


def test_rosenbrock_polishes_exact_instance_radii():
    from cvmesh.solver import simplex_systems
    from conftest import exact_instance

    pts, tri, nm, r_star, lo, hi = exact_instance(5)
    rng = np.random.default_rng(4)
    width = hi - lo
    r0 = np.clip(r_star + 0.08 * width * (rng.random(5) * 2 - 1),
                 lo + 1e-6 * width, hi - 1e-6 * width)
    res = rosenbrock_minimize(simplex_systems(tri).objective, r0, (lo, hi))
    assert res.fun < 1e-10


def test_soft_selection_deterministic():
    def sphere(x):
        return np.sum(x * x, axis=-1)

    p = OptimizerParams(generations=20)
    a = soft_selection_minimize(sphere, ([-1, -1, -1], [2, 2, 2]), seed=7, params=p)
    b = soft_selection_minimize(sphere, ([-1, -1, -1], [2, 2, 2]), seed=7, params=p)
    assert np.array_equal(a.x, b.x)
    assert a.fun == b.fun
    assert a.trace == b.trace


def test_soft_selection_rejects_scalar_fitness_for_population():
    def flat_sum(x):
        return float(np.sum(x * x))   # one value for the whole (lam, n) batch

    with pytest.raises(ValueError, match="population"):
        soft_selection_minimize(flat_sum, ([-1, -1], [2, 2]), seed=0,
                                params=OptimizerParams(generations=2))
