import numpy as np
import pytest

import cvmesh.optimize
from cvmesh.optimize import (
    OptimizeResult,
    OptimizerParams,
    _column_sums,
    _normal_matrix,
    _rank_cdf,
    interior_box,
    levenberg_marquardt,
    rosenbrock_minimize,
    soft_selection_minimize,
)
from oracles import rosenbrock_sequential, soft_selection_choice


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


def _rows(jac):
    """A dense Jacobian as `levenberg_marquardt` takes it: every row's values,
    with column ids arange(n) per row."""
    return jac, np.tile(np.arange(jac.shape[1]), (len(jac), 1))


def bowl_residuals(x):
    return (x - np.array([1.0, 2.0]), *_rows(np.eye(2)))


def banana_residuals(x):
    """Residuals whose squared norm is `banana`, and their Jacobian rows."""
    s = np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])
    return (s, *_rows(np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])))


def test_lm_banana():
    res = levenberg_marquardt(banana_residuals, [-1.2, 1.0], ([-5, -5], [5, 5]))
    assert res.converged
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-6)
    assert res.fun == pytest.approx(banana(res.x), abs=1e-20)


def test_lm_ends_on_the_bound_the_minimum_lies_beyond():
    # The bowl's minimum (1, 2) lies beyond the corner (0.5, 0.5): the step
    # is clipped onto the corner, and there both coordinates stay frozen.
    res = levenberg_marquardt(bowl_residuals, [0.25, 0.25], ([0.0, 0.0], [0.5, 0.5]))
    assert res.converged
    assert np.array_equal(res.x, [0.5, 0.5])
    # The banana's minimum (1, 1) lies beyond x0 <= 0.5: the polish ends on
    # that bound, at the least value along it, x1 = 0.25.
    res = levenberg_marquardt(banana_residuals, [-1.2, 1.0], ([-5, -5], [0.5, 5]))
    assert res.converged
    assert res.x[0] == 0.5
    assert res.x[1] == pytest.approx(0.25, abs=1e-6)


def test_lm_steps_stay_in_the_box():
    lo, hi = np.array([-1.0, 0.0]), np.array([0.5, 0.3])
    seen = []

    def recording(x):
        seen.append(x.copy())
        return banana_residuals(x)

    res = levenberg_marquardt(recording, [-0.9, 0.1], (lo, hi))
    assert len(seen) == res.n_eval > 1
    for x in seen:
        assert np.all(x >= lo) and np.all(x <= hi)
    assert res.fun < float(banana(np.array([-0.9, 0.1])))


def test_lm_max_evals_flagged():
    res = levenberg_marquardt(banana_residuals, [-1.2, 1.0], ([-5, -5], [5, 5]),
                              OptimizerParams(max_evals=4))
    assert not res.converged
    assert res.status == "max-evals"
    assert res.n_eval <= 4
    assert res.fun <= banana(np.array([-1.2, 1.0]))


def test_lm_requires_finite_start():
    with pytest.raises(ValueError):
        levenberg_marquardt(lambda x: (np.full(2, np.nan), *_rows(np.eye(2))), [0.0, 0.0],
                            ([-1, -1], [1, 1]))


def _exact6_rows():
    """Residuals and Jacobian rows of the powers of `exact_instance(6)` in w."""
    from cvmesh.solver import simplex_systems
    from conftest import exact_instance

    pts, tri, nm, r_star, lo, hi = exact_instance(6)
    systems = simplex_systems(tri)
    return (*systems.powers_and_jacobian(lo + 0.62 * (hi - lo)), systems.indices)


@pytest.mark.parametrize("case", ["bowl", "banana", "exact6"])
def test_row_assembly_equals_dense_normal_equations(case):
    """J^T s and J^T J assembled from the Jacobian rows by np.bincount equal
    jac.T @ s and jac.T @ jac of the dense Jacobian to within 4 ulps of the
    magnitudes summed, on all coordinates and on a free subset of them."""
    if case == "exact6":
        s, jac, cols = _exact6_rows()
    else:
        s, jac, cols = (bowl_residuals if case == "bowl" else banana_residuals)(np.array([-1.2, 1.0]))
    n = int(cols.max()) + 1
    dense = np.zeros((len(s), n))
    np.add.at(dense, (np.arange(len(s))[:, None], cols), jac)
    bound = 4 * np.finfo(float).eps
    g = _column_sums(jac * s[:, None], cols, n)
    assert np.all(np.abs(g - dense.T @ s) <= bound * (np.abs(dense.T) @ np.abs(s)))
    gram, gram_abs = dense.T @ dense, np.abs(dense.T) @ np.abs(dense)
    for free in (np.ones(n, dtype=bool), np.arange(n) % 2 == 1):
        a = _normal_matrix(jac, cols, free)
        sub = np.ix_(free, free)
        assert a.shape == (free.sum(), free.sum())
        assert np.all(np.abs(a - gram[sub]) <= bound * gram_abs[sub])


def test_interior_box_is_the_evolution_strategy_box():
    lo, hi = np.array([0.0, 1.0]), np.array([1.0, 1.5])
    inner_lo, inner_hi = interior_box((lo, hi))
    assert np.all(lo < inner_lo) and np.all(inner_hi < hi)
    seen = []

    def recording(x):
        seen.append(x.copy())
        return quadratic_bowl(x)

    declined = OptimizeResult(x=lo, fun=np.inf, n_eval=0, converged=False, status="max-evals")
    res = soft_selection_minimize(recording, (lo, hi), seed=2, params=OptimizerParams(generations=5),
                                  polish=lambda x: declined)
    for pop in seen:
        assert np.all(inner_lo <= pop) and np.all(pop <= inner_hi)
    # the bowl's minimum (1, 2) lies beyond the top of the box: the clip reaches it
    assert np.any(np.vstack(seen) == inner_hi)
    assert np.all(inner_lo <= res.x) and np.all(res.x <= inner_hi)


def test_soft_selection_takes_a_polish():
    seen = []

    def polish(x):
        seen.append(x.copy())
        return OptimizeResult(x=np.array([1.0, 2.0]), fun=0.0, n_eval=3, converged=True,
                              status="f-tol")

    p = OptimizerParams(generations=5)
    res = soft_selection_minimize(quadratic_bowl, ([-5, -5], [5, 5]), seed=1, params=p, polish=polish)
    assert len(seen) == 1
    assert res.fun == 0.0 and np.array_equal(res.x, [1.0, 2.0])
    assert res.n_eval == 5 * p.lam + 3
    # a polish that ends higher than the best individual is dropped
    worse = soft_selection_minimize(
        quadratic_bowl, ([-5, -5], [5, 5]), seed=1, params=p,
        polish=lambda x: OptimizeResult(x=x + 1.0, fun=np.inf, n_eval=1, converged=False,
                                        status="max-evals"))
    assert np.array_equal(worse.x, seen[0])
    assert worse.fun == worse.trace[-1]


@pytest.mark.parametrize("lam, mu", [(140, 20), (7, 3), (1, 1)])
def test_rank_cdf_draws_as_rng_choice(lam, mu):
    """Over 500 generations the cumulative rank table, searched with one
    rng.random(mu) per draw, picks the parents rng.choice(order, size=mu,
    p=rank_w) picks, and leaves the generator in the same state; the
    integers and normals drawn between generations stay in step too."""
    rank_w = np.arange(lam, 0, -1, dtype=float)
    rank_w /= rank_w.sum()
    cdf = _rank_cdf(lam)
    a, b = np.random.default_rng(11), np.random.default_rng(11)
    orders = np.random.default_rng(12)
    for _ in range(500):
        order = orders.permutation(lam)
        assert np.array_equal(order[cdf.searchsorted(a.random(mu), side="right")],
                              b.choice(order, size=mu, p=rank_w))
        assert a.bit_generator.state == b.bit_generator.state
        assert np.array_equal(a.integers(0, mu, size=lam), b.integers(0, mu, size=lam))
        assert np.array_equal(a.standard_normal((lam, 3)), b.standard_normal((lam, 3)))


def _exact_es_case():
    from cvmesh.solver import simplex_systems
    from conftest import exact_instance

    pts, tri, nm, r_star, lo, hi = exact_instance(6)
    return simplex_systems(tri).objective, (lo, hi), lo + 0.62 * (hi - lo)


@pytest.mark.parametrize("case", ["sphere", "rastrigin", "exact6"])
def test_soft_selection_matches_rng_choice_reference(case):
    """The evolution strategy with its rank-table parent draws and in-place
    clamp runs bit for bit as the loop that drew by rng.choice and clamped
    by np.clip: same best point, value, evaluation count and trace."""
    declined = lambda x: OptimizeResult(x=x, fun=np.inf, n_eval=0, converged=False,
                                        status="max-evals")
    if case == "exact6":
        f, box, x0 = _exact_es_case()
        kw = dict(params=OptimizerParams(generations=60), x0=x0, polish=declined)
    elif case == "sphere":
        f, box = (lambda x: np.sum(x * x, axis=-1)), (np.full(6, -2.0), np.full(6, 3.0))
        kw = dict(params=OptimizerParams(generations=40, mu=5, lam=30), polish=declined)
    else:
        f = lambda x: 10 * x.shape[-1] + np.sum(x * x - 10 * np.cos(2 * np.pi * x), axis=-1)
        box = ([-5.12] * 3, [5.12] * 3)
        kw = dict(params=OptimizerParams(generations=30))
    for seed in (0, 3):
        got = soft_selection_minimize(f, box, seed=seed, **kw)
        want = soft_selection_choice(f, box, seed=seed, **kw)
        _assert_same_run(got, want)
        assert got.trace == want.trace
