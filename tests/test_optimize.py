import numpy as np
import pytest

import cvmesh.optimize
from cvmesh.optimize import (
    OptimizerParams,
    rosenbrock_minimize,
    soft_selection_minimize,
)
from oracles import rosenbrock_sequential


def quadratic_bowl(x):
    return (x[..., 0] - 1.0) ** 2 + (x[..., 1] - 2.0) ** 2


def banana(x):
    return 100.0 * (x[..., 1] - x[..., 0] ** 2) ** 2 + (1.0 - x[..., 0]) ** 2


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
    assert calls
    for stack in calls:
        assert stack.ndim == 2 and stack.shape[1] == 2
        assert np.all(stack > lo) and np.all(stack < hi)
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


def _exact_polish_case():
    """The objective of a 5-point exact instance and a start near its root."""
    from cvmesh.solver import simplex_systems
    from conftest import exact_instance

    pts, tri, nm, r_star, lo, hi = exact_instance(5)
    rng = np.random.default_rng(4)
    width = hi - lo
    r0 = np.clip(r_star + 0.08 * width * (rng.random(5) * 2 - 1),
                 lo + 1e-6 * width, hi - 1e-6 * width)
    return simplex_systems(tri).objective, r0, (lo, hi)


def test_rosenbrock_polishes_exact_instance_radii():
    res = rosenbrock_minimize(*_exact_polish_case())
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


def test_rosenbrock_rejects_scalar_value_for_stack():
    def flat_sum(x):
        return float(np.sum(x * x))   # one value for the whole (L, n) stack

    with pytest.raises(ValueError, match="stack"):
        rosenbrock_minimize(flat_sum, [0.5, 0.5], ([-1, -1], [2, 2]))


def _assert_same_run(a, b):
    assert np.array_equal(a.x, b.x)
    assert a.fun == b.fun
    assert a.n_eval == b.n_eval
    assert a.status == b.status
    assert a.converged == b.converged


@pytest.mark.parametrize("f, x0, box", [
    (quadratic_bowl, [0.0, 0.0], ([-5, -5], [5, 5])),
    (banana, [-1.2, 1.0], ([-5, -5], [5, 5])),
    (quadratic_bowl, [0.25, 0.25], ([0.0, 0.0], [0.5, 0.5])),   # rejects trials
    (banana, [0.1, 0.2], ([0.0, 0.0], [0.3, 0.3])),
], ids=["bowl", "banana", "box-bowl", "box-banana"])
def test_rosenbrock_matches_sequential_reference(f, x0, box):
    _assert_same_run(rosenbrock_minimize(f, x0, box), rosenbrock_sequential(f, x0, box))


def test_rosenbrock_box_case_rejects_trials():
    # The bowl's minimum (1, 2) lies beyond the box corner (0.5, 0.5): the
    # search ends against the box, where the steps outward are rejected.
    lo, hi = np.array([0.0, 0.0]), np.array([0.5, 0.5])
    res = rosenbrock_minimize(quadratic_bowl, [0.25, 0.25], (lo, hi))
    assert res.converged
    assert np.all(res.x < hi) and np.all(hi - res.x < 1e-2)


def test_rosenbrock_exact_instance_matches_sequential_reference(monkeypatch):
    f, r0, box = _exact_polish_case()
    rotate = cvmesh.optimize._gram_schmidt_rotation
    rotations = []

    def counted(dirs, lam):
        rotations.append(1)
        return rotate(dirs, lam)

    monkeypatch.setattr(cvmesh.optimize, "_gram_schmidt_rotation", counted)
    batched = rosenbrock_minimize(f, r0, box)
    assert rotations
    _assert_same_run(batched, rosenbrock_sequential(f, r0, box))


@pytest.mark.parametrize("max_evals", range(2, 61))
def test_rosenbrock_budget_matches_sequential_reference(max_evals):
    f, r0, box = _exact_polish_case()
    p = OptimizerParams(max_evals=max_evals)
    batched = rosenbrock_minimize(f, r0, box, p)
    _assert_same_run(batched, rosenbrock_sequential(f, r0, box, p))
    assert batched.n_eval <= max_evals
