import numpy as np
import pytest

from crossalign.leastsq import (
    MU_CEILING,
    REL_TOL,
    _solve,
    damped_least_squares,
    damped_least_squares_batch,
)


def rosenbrock(p):
    """Residuals and Jacobian of the Rosenbrock valley; damping shapes its path."""
    x, y = p
    return np.array([10.0 * (y - x * x), 1.0 - x]), np.array([[-20.0 * x, 10.0], [-1.0, 0.0]])


STARTS = np.array([[-1.2, 1.0], [2.0, -3.0], [0.5, 4.0], [1.0, 1.0], [np.nan, 0.0], [-3.0, -3.0]])


def solve_alone(start, max_iterations):
    return damped_least_squares(
        start,
        lambda p: rosenbrock(p)[::-1],
        lambda p, delta: p + delta,
        lambda p: float((rosenbrock(p)[0] ** 2).sum()),
        max_iterations=max_iterations,
    )


def solve_batch(starts, max_iterations):
    def system(x, rows):
        linear = [rosenbrock(p) for p in x]
        return np.stack([j.T @ j for _, j in linear]), np.stack([j.T @ r for r, j in linear])

    return damped_least_squares_batch(
        starts,
        system,
        lambda x, delta, rows: x + delta,
        lambda x, rows: np.array([(rosenbrock(p)[0] ** 2).sum() for p in x]),
        max_iterations=max_iterations,
    )


def test_batch_gives_each_problem_its_one_problem_result():
    # Starts that converge, start at the optimum, start non-finite, and one
    # that is still improving at the cap of 8 iterations.
    for max_iterations in (100, 8):
        batch = solve_batch(STARTS, max_iterations)
        outcomes = set()
        for start, fit in zip(STARTS, batch):
            alone = solve_alone(start, max_iterations)
            assert np.array_equal(fit.x, alone.x, equal_nan=True)
            assert fit.objective_trace == alone.objective_trace or np.isnan(start).any()
            assert (fit.converged, fit.iterations) == (alone.converged, alone.iterations)
            assert np.all(np.diff(fit.objective_trace) <= 0.0)
            outcomes.add((fit.converged, fit.iterations))
        assert {(True, 0), (False, 0)} <= outcomes  # at the optimum; non-finite start
        assert any(converged for converged, n in outcomes if n > 0)
        if max_iterations == 8:
            assert (False, 8) in outcomes


def one_by_one(matrices, rhs):
    """Each problem's own np.linalg.solve: the reference for the stacked solve."""
    out, solved = np.zeros_like(rhs), np.ones(len(rhs), dtype=bool)
    for k in range(len(rhs)):
        try:
            out[k] = np.linalg.solve(matrices[k], rhs[k][..., None])[..., 0]
        except np.linalg.LinAlgError:
            solved[k] = False
    return out, solved


@pytest.mark.parametrize("blocks", [(), (24,)])
@pytest.mark.parametrize("singular", [(5,), (0, 13)])
def test_solve_isolates_singular_members_by_bisection(monkeypatch, blocks, singular):
    # (k, d, d) dense systems and (k, b, d, d) block systems; a problem with
    # one singular block is unsolvable as a whole.
    rng = np.random.default_rng(len(blocks) + len(singular))
    count, d = 16, 3
    matrices = rng.normal(size=(count,) + blocks + (d, d)) + 4.0 * np.eye(d)
    rhs = rng.normal(size=(count,) + blocks + (d,))
    for k in singular:
        matrices[(k,) + (0,) * len(blocks)] = 0.0
    expected, expected_solved = one_by_one(matrices, rhs)

    real, calls = np.linalg.solve, []

    def counting(a, b):
        calls.append(len(a))
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    out, solved = _solve(matrices, rhs)
    assert np.array_equal(solved, expected_solved)
    assert set(np.flatnonzero(~solved)) == set(singular)
    assert np.array_equal(out[solved], expected[solved])
    # Only the stacks holding a singular member are split: at most two
    # halves per level for each, fewer solves than one per problem.
    assert len(calls) <= 1 + 2 * len(singular) * int(np.log2(count))
    assert len(calls) < 1 + count


def test_a_refused_step_with_no_predicted_decrease_ends_the_solve():
    # Residuals (1e8 (x - 1), 1): the first step lands exactly on the optimum
    # x = 1, where the gradient is zero, so the next step predicts no decrease
    # and its refusal ends the solve: the damping is not raised to its
    # ceiling one refusal at a time.
    calls = []

    def objective(p):
        calls.append(p.copy())
        return float(1e16 * (p[0] - 1.0) ** 2 + 1.0)

    fit = damped_least_squares(
        np.array([2.0]),
        lambda p: (np.array([[1e8], [0.0]]), np.array([1e8 * (p[0] - 1.0), 1.0])),
        lambda p, delta: p + delta,
        objective,
        max_iterations=100,
    )
    assert fit.converged
    assert fit.iterations == 2
    assert fit.objective_trace == [1e16 + 1.0, 1.0]
    assert len(calls) == 3  # the start, one accepted and one refused trial


def test_refusals_grow_the_damping_by_a_doubling_factor():
    # A fixed linear model (JᵀJ = 1, Jᵀr = 1) whose trials the objective
    # refuses twice, accepts once, then refuses from there on. Each trial's
    # damping follows from its step, delta = -1 / (1 + mu).
    values = iter([2.0, 2.0, 0.5])
    mus = []

    def apply_step(x, delta, rows):
        mus.append(-1.0 / delta[0, 0] - 1.0)
        return x + delta

    fit = damped_least_squares_batch(
        np.zeros((1, 1)),
        lambda x, rows: (np.ones((1, 1, 1)), np.ones((1, 1))),
        apply_step,
        lambda x, rows: np.array([next(values, 2.0) if mus else 1.0]),
        max_iterations=100,
    )[0]
    # A refusal whose model predicts a large decrease keeps the solve going:
    # the damping grows by nu = 2, then by 2 nu, and an accepted step resets
    # nu to 2. The refusals end once the predicted decrease,
    # -gᵀδ + mu‖δ‖² = (1 + 2 mu) / (1 + mu)², falls below REL_TOL times the
    # objective, long before MU_CEILING.
    assert mus[0] == pytest.approx(1e-3, rel=1e-9)
    ratios = [b / a for a, b in zip(mus, mus[1:])]
    assert ratios[:2] == pytest.approx([2.0, 4.0], rel=1e-9)
    growth = [2.0 ** k for k in range(1, len(ratios) - 2)]
    assert ratios[3:] == pytest.approx(growth, rel=1e-6)
    predicted = [(1.0 + 2.0 * mu) / (1.0 + mu) ** 2 for mu in mus[-2:]]
    assert predicted[1] <= REL_TOL * 0.5 < predicted[0]
    assert mus[-1] < MU_CEILING
    assert fit.converged and fit.iterations == 2
    assert fit.objective_trace == [1.0, 0.5]
