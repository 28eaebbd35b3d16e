"""Box-constrained derivative-free minimizers: rotating-direction local search
and a (mu, lambda) evolutionary global stage with fitness-proportional
(soft) parent selection followed by a local polish.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "OptimizerParams",
    "OptimizeResult",
    "rosenbrock_minimize",
    "soft_selection_minimize",
]


@dataclass(frozen=True)
class OptimizerParams:
    """The evolution strategy of `soft_selection_minimize` (mu to
    sigma_decay) and the `rosenbrock_minimize` polish (expansion to
    max_evals); a run's config holds one under "optimizer"."""

    mu: int = 20
    lam: int = 140
    generations: int = 200
    sigma0: float = 0.1            # initial mutation scale, fraction of box width
    sigma_decay: float = 0.99
    expansion: float = 3.0
    contraction: float = -0.5
    initial_step: float = 0.1      # fraction of the box width per coordinate
    tol_step: float = 1e-10
    tol_f: float = 1e-14
    max_evals: int = 0             # 0 -> 10^5 * dimension


@dataclass
class OptimizeResult:
    x: np.ndarray
    fun: float
    n_eval: int
    converged: bool
    status: str                    # "step-tol" | "f-tol" | "max-evals" | "generations"
    trace: list[float] | None = None


def _as_bounds(bounds, n: int | None = None):
    lo, hi = bounds
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if n is not None and lo.size == 1:
        lo = np.full(n, lo[0])
        hi = np.full(n, hi[0])
    if np.any(hi <= lo):
        raise ValueError("empty bounds box: every hi must exceed its lo")
    return lo, hi


def rosenbrock_minimize(f, x0, bounds, params: OptimizerParams | None = None) -> OptimizeResult:
    """Rosenbrock's rotating-direction minimization of f inside a box.

    Trial points outside the box are rejected and count as failed steps, so
    iterates never leave the strict interior the start point occupies.
    Terminates when all step sizes drop below tol_step, when the improvement
    across one rotation stage falls below tol_f, or at max_evals (returning
    best-so-far flagged as non-converged).
    """
    p = params or OptimizerParams()
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    lo, hi = _as_bounds(bounds, n)
    if np.any(x <= lo) or np.any(x >= hi):
        raise ValueError("x0 must lie strictly inside the bounds box")
    max_evals = p.max_evals if p.max_evals > 0 else 100_000 * n

    width = hi - lo
    fx = float(f(x))
    n_eval = 1
    if not np.isfinite(fx):
        raise ValueError("objective is not finite at x0")

    dirs = np.eye(n)
    steps = p.initial_step * width.copy()
    lam = np.zeros(n)                      # successful displacement per direction
    succeeded = np.zeros(n, dtype=bool)
    failed_after = np.zeros(n, dtype=bool)
    f_stage = fx
    status = "max-evals"

    while n_eval < max_evals:
        for k in range(n):
            trial = x + steps[k] * dirs[k]
            if np.all(trial > lo) and np.all(trial < hi):
                ft = float(f(trial))
                n_eval += 1
            else:
                ft = np.inf
            if ft <= fx:
                x = trial
                fx = ft
                lam[k] += steps[k]
                steps[k] *= p.expansion
                succeeded[k] = True
            else:
                steps[k] *= p.contraction
                if succeeded[k]:
                    failed_after[k] = True
            if n_eval >= max_evals:
                break

        if np.all(np.abs(steps) < p.tol_step):
            status = "step-tol"
            break

        if succeeded.all() and failed_after.all():
            # Stage complete: rotate the direction set onto the overall move.
            if f_stage - fx < p.tol_f:
                status = "f-tol"
                break
            f_stage = fx
            dirs = _gram_schmidt_rotation(dirs, lam)
            steps = p.initial_step * width.copy()
            lam[:] = 0.0
            succeeded[:] = False
            failed_after[:] = False

    converged = status in ("step-tol", "f-tol")
    return OptimizeResult(x=x, fun=fx, n_eval=n_eval, converged=converged, status=status)


def _gram_schmidt_rotation(dirs: np.ndarray, lam: np.ndarray) -> np.ndarray:
    n = dirs.shape[0]
    a = np.empty_like(dirs)
    for k in range(n):
        a[k] = lam[k:] @ dirs[k:]
    out = np.empty_like(dirs)
    for k in range(n):
        b = a[k] - (out[:k] @ a[k]) @ out[:k] if k else a[k].copy()
        norm = np.linalg.norm(b)
        if norm < 1e-300:
            # Degenerate stage move: keep the old direction, re-orthogonalized.
            b = dirs[k] - (out[:k] @ dirs[k]) @ out[:k] if k else dirs[k].copy()
            norm = np.linalg.norm(b)
            if norm < 1e-300:
                b = dirs[k].copy()
                norm = np.linalg.norm(b)
        out[k] = b / norm
    return out


def soft_selection_minimize(
    f,
    bounds,
    seed: int = 0,
    params: OptimizerParams | None = None,
    x0=None,
) -> OptimizeResult:
    """Global minimization by a (mu, lambda) evolution strategy with soft selection.

    Parents are sampled with probability proportional to a linear rank weight,
    so inferior individuals survive with reduced (not zero) probability.
    Mutation is isotropic Gaussian, decayed per generation. The best individual
    found is polished with rosenbrock_minimize. Deterministic for a fixed seed.
    When x0 is given the initial population is a Gaussian cloud around it
    instead of a uniform spread over the box.

    f maps points of shape (..., n) to values of shape (...): each generation
    is evaluated by one call f(pop) on the (lam, n) population, which must
    return lam values (ValueError otherwise), and the polish calls f on single
    (n,) points. trace holds the best value after each generation.
    """
    p = params or OptimizerParams()
    rng = np.random.default_rng(seed)
    lo, hi = _as_bounds(bounds)
    n = lo.size
    width = hi - lo
    margin = 1e-12 * width  # keep individuals strictly interior

    if x0 is None:
        pop = lo + width * rng.random((p.lam, n))
    else:
        x0 = np.asarray(x0, dtype=float)
        pop = x0 + p.sigma0 * width * rng.standard_normal((p.lam, n))
        pop[0] = x0
    np.clip(pop, lo + margin, hi - margin, out=pop)

    sigma = p.sigma0
    best_x = None
    best_f = np.inf
    n_eval = 0
    trace: list[float] = []

    rank_w = np.arange(p.lam, 0, -1, dtype=float)
    rank_w /= rank_w.sum()

    for _ in range(p.generations):
        fitness = np.asarray(f(pop), dtype=float)
        if fitness.shape != (p.lam,):
            raise ValueError(
                f"f returned shape {fitness.shape} for a population of {p.lam}; "
                "it must map (lam, n) points to (lam,) values"
            )
        n_eval += p.lam
        order = np.argsort(fitness, kind="stable")
        if fitness[order[0]] < best_f:
            best_f = float(fitness[order[0]])
            best_x = pop[order[0]].copy()
        trace.append(best_f)

        parent_idx = rng.choice(order, size=p.mu, p=rank_w)
        parents = pop[parent_idx]
        picks = rng.integers(0, p.mu, size=p.lam)
        pop = parents[picks] + sigma * width * rng.standard_normal((p.lam, n))
        np.clip(pop, lo + margin, hi - margin, out=pop)
        sigma *= p.sigma_decay

    polish = rosenbrock_minimize(f, best_x, (lo, hi), p)
    if polish.fun <= best_f:
        best_x, best_f = polish.x, polish.fun
    return OptimizeResult(
        x=best_x,
        fun=best_f,
        n_eval=n_eval + polish.n_eval,
        converged=True,
        status="generations",
        trace=trace,
    )
