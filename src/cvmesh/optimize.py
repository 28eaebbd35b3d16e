"""Box-constrained minimizers: a (mu, lambda) evolutionary global stage with
fitness-proportional (soft) parent selection followed by a local polish,
either Levenberg-Marquardt on a least-squares residual with its Jacobian or
the derivative-free rotating-direction search of Rosenbrock.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "OptimizerParams",
    "OptimizeResult",
    "interior_box",
    "levenberg_marquardt",
    "rosenbrock_minimize",
    "soft_selection_minimize",
]


@dataclass(frozen=True)
class OptimizerParams:
    """The evolution strategy of `soft_selection_minimize` (mu to
    sigma_decay) and its polish; a run's config holds one under "optimizer".

    The `levenberg_marquardt` polish of exact-intersection mode reads tol_f
    and max_evals only, tol_f as relative: it stops when an accepted step
    gains less than tol_f times the objective before that step.
    `rosenbrock_minimize`, the default polish, reads expansion to max_evals,
    tol_f as an absolute gain over one rotation stage."""

    mu: int = 20
    lam: int = 140
    generations: int = 200
    sigma0: float = 0.1            # initial mutation scale, fraction of box width
    sigma_decay: float = 0.99
    expansion: float = 3.0
    contraction: float = -0.5
    initial_step: float = 0.1      # fraction of the box width per coordinate
    tol_step: float = 1e-10
    tol_f: float = 1e-10
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


def interior_box(bounds) -> tuple[np.ndarray, np.ndarray]:
    """The closed box the evolution strategy keeps its individuals in: the
    bounds moved inwards by 1e-12 of the box width, so every point of it lies
    strictly inside the bounds."""
    lo, hi = _as_bounds(bounds)
    margin = 1e-12 * (hi - lo)
    return lo + margin, hi - margin


def _values(f, pts: np.ndarray, what: str) -> np.ndarray:
    """f on a stack of points, checked to give one value per row."""
    vals = np.asarray(f(pts), dtype=float)
    if vals.shape != (len(pts),):
        raise ValueError(
            f"f returned shape {vals.shape} for a {what} of {len(pts)}; "
            "it must map (L, n) points to (L,) values"
        )
    return vals


def rosenbrock_minimize(f, x0, bounds, params: OptimizerParams | None = None) -> OptimizeResult:
    """Rosenbrock's rotating-direction minimization of f inside a box.

    Trial points outside the box are rejected and count as failed steps, so
    iterates never leave the strict interior the start point occupies.
    Terminates when all step sizes drop below tol_step, when the improvement
    across one rotation stage falls below tol_f, or at max_evals (returning
    best-so-far flagged as non-converged).

    f maps points of shape (L, n) to values of shape (L,), each row the
    value that point has alone (ValueError when the shape is wrong). A sweep
    tries the directions in order, each from where the earlier ones left x.
    From direction k on, it evaluates the in-box trials of k, k + 1, ... in
    one call, each as if the ones before it fail, and takes them in order up
    to the first success; the next call starts after it from the new x. No
    call goes past max_evals and n_eval counts only the trials taken, so the
    result is the one trying a point at a time gives.
    """
    p = params or OptimizerParams()
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    lo, hi = _as_bounds(bounds, n)
    if np.any(x <= lo) or np.any(x >= hi):
        raise ValueError("x0 must lie strictly inside the bounds box")
    max_evals = p.max_evals if p.max_evals > 0 else 100_000 * n

    width = hi - lo
    fx = float(_values(f, x[None], "stack")[0])
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
        k = 0
        while k < n:
            trials = x + steps[k:, None] * dirs[k:]
            inside = np.flatnonzero(np.all((trials > lo) & (trials < hi), axis=1))
            budget = max_evals - n_eval
            # Trials a run of failures takes: every one, or up to the last
            # evaluation the budget allows.
            taken = n - k if len(inside) < budget else int(inside[budget - 1]) + 1
            inside = inside[:budget]
            ft = np.full(n - k, np.inf)
            if len(inside):
                ft[inside] = _values(f, trials[inside], "stack")
            hits = np.flatnonzero(ft[:taken] <= fx)
            m = int(hits[0]) if len(hits) else taken    # failures before a success
            steps[k:k + m] *= p.contraction
            failed_after[k:k + m] |= succeeded[k:k + m]
            n_eval += int(np.searchsorted(inside, m + 1))   # the evaluated ones up to m
            if m == taken:
                break
            k += m
            x = trials[m]
            fx = float(ft[m])
            lam[k] += steps[k]
            steps[k] *= p.expansion
            succeeded[k] = True
            if n_eval >= max_evals:
                break
            k += 1

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


def _column_sums(values: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """(n,) sums of the entries values[i, j] per column id cols[i, j]: J^T v
    for values = jac * v[:, None]."""
    return np.bincount(cols.ravel(), weights=values.ravel(), minlength=n)


def _normal_matrix(jac: np.ndarray, cols: np.ndarray, free: np.ndarray) -> np.ndarray:
    """J^T J on the free coordinates, (f, f), from the Jacobian rows: one
    np.bincount over the products jac[i, a] * jac[i, b] of every two entries
    of a row, where a held column sends its products to a spare last slot."""
    nf = int(np.count_nonzero(free))
    pos = np.where(free, np.cumsum(free) - 1, nf)[cols]    # (m, k)
    key = pos[:, :, None] * (nf + 1) + pos[:, None, :]
    val = jac[:, :, None] * jac[:, None, :]
    a = np.bincount(key.ravel(), weights=val.ravel(), minlength=(nf + 1) ** 2)
    return a.reshape(nf + 1, nf + 1)[:nf, :nf]


def levenberg_marquardt(residuals, x0, bounds, params: OptimizerParams | None = None) -> OptimizeResult:
    """Levenberg-Marquardt minimization of |s(x)|^2 inside a closed box.

    residuals maps a point x of shape (n,) to (s, jac, cols): the residual
    vector (m,) and its Jacobian as rows, jac[i, j] the derivative of s_i in
    x[cols[i, j]], both (m, k); an entry whose column repeats in a row adds
    to it. g = J^T s and A = J^T J are assembled from those rows with
    np.bincount, A on the free coordinates only, and never from a dense
    (m, n) Jacobian. Each iteration solves the damped normal equations
    (A + lam diag(A)) dx = -g on the free coordinates: a coordinate sitting
    on a bound while its gradient points out of the box is frozen, and so is
    one that no residual depends on. The trial point x + dx is clipped to
    the box and taken only when it lowers |s|^2; lam grows x4 after a
    rejected trial and shrinks /3 after an accepted one. Stops when an
    accepted step gains less than tol_f times |s|^2 before it ("f-tol"),
    when no lam up to 1e12 gives a decrease or no coordinate is free
    ("step-tol"), or after max_evals calls of residuals ("max-evals", not
    converged). Returns the last accepted point with fun = |s|^2.
    """
    p = params or OptimizerParams()
    lo, hi = _as_bounds(bounds, np.size(x0))
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    n = x.size
    max_evals = p.max_evals if p.max_evals > 0 else 100_000 * n
    s, jac, cols = residuals(x)
    fx = float(s @ s)
    n_eval = 1
    if not np.isfinite(fx):
        raise ValueError("residuals are not finite at x0")

    lam = 1e-3
    status = "max-evals"
    while n_eval < max_evals:
        g = _column_sums(jac * s[:, None], cols, n)
        diag = _column_sums(jac * jac, cols, n)
        free = (diag > 0.0) & ~(((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0)))
        if not free.any():
            status = "step-tol"
            break
        a, step, diag = _normal_matrix(jac, cols, free), -g[free], diag[free]
        on_diag = np.arange(len(diag))
        while True:
            damped = a.copy()
            damped[on_diag, on_diag] += lam * diag
            trial = x.copy()
            trial[free] += np.linalg.solve(damped, step)
            _clamp(trial, lo, hi)
            s_t, jac_t, cols_t = residuals(trial)
            f_t = float(s_t @ s_t)
            n_eval += 1
            if f_t < fx or n_eval >= max_evals:
                break
            lam *= 4.0
            if lam > 1e12:
                break
        if not f_t < fx:
            if lam > 1e12:
                status = "step-tol"
            break
        gain = fx - f_t
        stop = gain < p.tol_f * fx
        x, s, jac, cols, fx = trial, s_t, jac_t, cols_t, f_t
        lam /= 3.0
        if stop:
            status = "f-tol"
            break

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


def _rank_cdf(lam: int) -> np.ndarray:
    """Cumulative linear rank weights lam, lam - 1, ..., 1, normalised: rank
    k of a generation is drawn as a parent with probability (lam - k) / sum.
    `searchsorted(rng.random(mu), side="right")` on it draws mu ranks exactly
    as `rng.choice(lam, size=mu, p=weights)` does, from the same stream."""
    rank_w = np.arange(lam, 0, -1, dtype=float)
    rank_w /= rank_w.sum()
    cdf = rank_w.cumsum()
    cdf /= cdf[-1]
    return cdf


def _clamp(x: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """np.clip(x, lo, hi, out=x), bit for bit, without its dispatch cost."""
    np.maximum(x, lo, out=x)
    np.minimum(x, hi, out=x)


def soft_selection_minimize(
    f,
    bounds,
    seed: int = 0,
    params: OptimizerParams | None = None,
    x0=None,
    polish=None,
) -> OptimizeResult:
    """Global minimization by a (mu, lambda) evolution strategy with soft selection.

    Parents are sampled with probability proportional to a linear rank weight,
    so inferior individuals survive with reduced (not zero) probability.
    Mutation is isotropic Gaussian, decayed per generation, and individuals
    stay in `interior_box(bounds)`. The best individual found goes to
    polish(x) -> OptimizeResult, by default rosenbrock_minimize on f inside
    the bounds; the polished point replaces it when its fun is no larger.
    Deterministic for a fixed seed. When x0 is given the initial population
    is a Gaussian cloud around it instead of a uniform spread over the box.

    f maps points of shape (L, n) to values of shape (L,): each generation
    is evaluated by one call f(pop) on the (lam, n) population, which must
    return lam values (ValueError otherwise), and the default polish calls f
    on stacks of trial points the same way. trace holds the best value after
    each generation.
    """
    p = params or OptimizerParams()
    rng = np.random.default_rng(seed)
    lo, hi = _as_bounds(bounds)
    n = lo.size
    width = hi - lo
    inner_lo, inner_hi = interior_box((lo, hi))

    if x0 is None:
        pop = lo + width * rng.random((p.lam, n))
    else:
        x0 = np.asarray(x0, dtype=float)
        pop = x0 + p.sigma0 * width * rng.standard_normal((p.lam, n))
        pop[0] = x0
    _clamp(pop, inner_lo, inner_hi)

    sigma = p.sigma0
    best_x = None
    best_f = np.inf
    n_eval = 0
    trace: list[float] = []

    cdf = _rank_cdf(p.lam)
    for _ in range(p.generations):
        fitness = _values(f, pop, "population")
        n_eval += p.lam
        order = np.argsort(fitness, kind="stable")
        if fitness[order[0]] < best_f:
            best_f = float(fitness[order[0]])
            best_x = pop[order[0]].copy()
        trace.append(best_f)

        parents = order[cdf.searchsorted(rng.random(p.mu), side="right")]
        picks = rng.integers(0, p.mu, size=p.lam)
        step = rng.standard_normal((p.lam, n))
        step *= sigma * width
        step += pop[parents[picks]]
        pop = step
        _clamp(pop, inner_lo, inner_hi)
        sigma *= p.sigma_decay

    if polish is None:
        polished = rosenbrock_minimize(f, best_x, (lo, hi), p)
    else:
        polished = polish(best_x)
    if polished.fun <= best_f:
        best_x, best_f = polished.x, polished.fun
    return OptimizeResult(
        x=best_x,
        fun=best_f,
        n_eval=n_eval + polished.n_eval,
        converged=True,
        status="generations",
        trace=trace,
    )
