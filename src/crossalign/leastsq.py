"""Damped Gauss-Newton least squares shared by the pose and keypoint refiners.

Both refiners use the same acceptance schedule: a trial step is accepted only
if it strictly decreases the objective, damping shrinks by 10x on acceptance
and grows by 10x on rejection. This guarantees a non-increasing objective
trace, which downstream invariants rely on.

The schedule is written once, over a batch of independent problems that each
keep their own damping; ``damped_least_squares`` is its one-problem case. A
problem's normal equations may be one dense system, ``JᵀJ`` (d, d), or a stack
of independent blocks, (..., d, d), as when its parameters separate into
groups that no residual couples: the solver is shape-generic over
(k, ..., d, d) and damps and solves every block of a problem at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

REL_TOL_DEFAULT = 1e-10
MU_INITIAL = 1e-3
MU_GROWTH = 10.0
MU_SHRINK = 0.1
MU_FLOOR = 1e-12
MU_CEILING = 1e15


@dataclass
class LeastSquaresResult:
    x: Any
    objective_trace: list[float]
    converged: bool
    iterations: int


def damped_least_squares(
    x0: Any,
    system: Callable[[Any], tuple[np.ndarray, np.ndarray]],
    apply_step: Callable[[Any, np.ndarray], Any],
    objective: Callable[[Any], float],
    *,
    max_iterations: int,
    rel_tol: float = REL_TOL_DEFAULT,
) -> LeastSquaresResult:
    """Minimize ``objective`` by damped Gauss-Newton steps.

    ``system(x)`` returns the Jacobian ``J`` (m, k) and residual ``r`` (m,) of
    the differentiable part of the objective at ``x``; ``apply_step(x, delta)``
    retracts a step ``delta`` (k,) onto the parameter space. The objective may
    include constant penalty terms not represented in the residuals.

    Stops when an accepted step's relative decrease falls below ``rel_tol``,
    when the objective reaches zero, or when no decreasing step exists at the
    damping ceiling (counted as converged: the achievable decrease is zero).
    Returns ``converged=False`` only if the iteration cap was hit while steps
    were still making progress.
    """

    def one(value):
        holder = np.empty(1, dtype=object)
        holder[0] = value
        return holder

    def normal_equations(x, rows):
        jac, res = system(x[0])
        return (jac.T @ jac)[None], (jac.T @ res)[None]

    return damped_least_squares_batch(
        one(x0),
        normal_equations,
        lambda x, delta, rows: one(apply_step(x[0], delta[0])),
        lambda x, rows: np.array([float(objective(x[0]))]),
        max_iterations=max_iterations,
        rel_tol=rel_tol,
    )[0]


def damped_least_squares_batch(
    x0: np.ndarray,
    system: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    apply_step: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    objective: Callable[[np.ndarray, np.ndarray], np.ndarray],
    *,
    max_iterations: int,
    rel_tol: float = REL_TOL_DEFAULT,
) -> list[LeastSquaresResult]:
    """Run the damped Gauss-Newton schedule on independent problems at once.

    ``x0`` stacks one parameter block per problem along axis 0. Every callback
    receives the parameters ``x`` of a subset of the problems and ``rows``,
    their indices into the batch: ``system(x, rows)`` returns the normal
    equations ``JᵀJ`` (k, ..., d, d) and ``Jᵀr`` (k, ..., d), where the
    middle axes, if any, stack independent blocks of one problem;
    ``apply_step(x, delta, rows)`` retracts the steps ``delta`` (k, ..., d),
    and ``objective(x, rows)`` returns (k,) values.

    Each problem follows the one-problem schedule exactly, with its own
    damping and stopping rule; a round re-linearizes only the problems whose
    last step was accepted. Returns one result per problem, in batch order.
    """
    x = x0.copy()
    count = len(x)
    f = np.asarray(objective(x, np.arange(count)), dtype=float)
    trace = np.full((count, max_iterations + 1), np.nan)
    trace[:, 0] = f
    accepted = np.zeros(count, dtype=int)
    iterations = np.zeros(count, dtype=int)
    mu = np.full(count, MU_INITIAL)
    converged = f == 0.0
    active = np.isfinite(f) & ~converged
    stale = np.ones(count, dtype=bool)  # needs a new linearization
    hess = grad = eye = None

    while True:
        relinearize = np.flatnonzero(active & stale)
        capped = iterations[relinearize] >= max_iterations
        active[relinearize[capped]] = False  # still improving at the cap
        relinearize = relinearize[~capped]
        if len(relinearize):
            iterations[relinearize] += 1
            h, g = system(x[relinearize], relinearize)
            if hess is None:
                hess, grad = np.zeros((count,) + h.shape[1:]), np.zeros((count,) + g.shape[1:])
                eye = np.eye(h.shape[-1])
            hess[relinearize], grad[relinearize] = h, g
            stale[relinearize] = False

        rows = np.flatnonzero(active)
        if not len(rows):
            break
        damping = mu[rows].reshape((-1,) + (1,) * (hess.ndim - 1)) * eye
        delta, solved = _solve(hess[rows] + damping, -grad[rows])
        trial = rows[solved]
        refused = [rows[~solved]]
        if len(trial):
            x_new = apply_step(x[trial], delta[solved], trial)
            f_new = np.asarray(objective(x_new, trial), dtype=float)
            better = f_new < f[trial]
            refused.append(trial[~better])
            took = trial[better]
            rel_decrease = (f[took] - f_new[better]) / f[took]
            x[took] = x_new[better]
            f[took] = f_new[better]
            accepted[took] += 1
            trace[took, accepted[took]] = f[took]
            mu[took] = np.maximum(mu[took] * MU_SHRINK, MU_FLOOR)
            stale[took] = True
            done = took[(f[took] == 0.0) | (rel_decrease < rel_tol)]
            converged[done] = True
            active[done] = False

        refused = np.concatenate(refused)
        mu[refused] *= MU_GROWTH
        # No strictly decreasing step exists: the relative decrease is zero,
        # which meets any positive tolerance.
        ceiling = refused[mu[refused] > MU_CEILING]
        converged[ceiling] = True
        active[ceiling] = False

    return [
        LeastSquaresResult(x[i], trace[i, : accepted[i] + 1].tolist(), bool(converged[i]),
                           int(iterations[i]))
        for i in range(count)
    ]


def _solve(matrices: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solutions (k, ..., d) of the systems (k, ..., d, d) and the mask (k,) of
    the problems whose systems were all solvable.

    A singular member makes a stacked solve raise, so a failing stack is
    bisected until each singular problem stands alone; every solution equals
    that problem's own ``np.linalg.solve``.
    """
    try:
        return np.linalg.solve(matrices, rhs[..., None])[..., 0], np.ones(len(rhs), dtype=bool)
    except np.linalg.LinAlgError:
        if len(rhs) == 1:
            return np.zeros_like(rhs), np.zeros(1, dtype=bool)
    half = len(rhs) // 2
    low, high = _solve(matrices[:half], rhs[:half]), _solve(matrices[half:], rhs[half:])
    return np.concatenate([low[0], high[0]]), np.concatenate([low[1], high[1]])
