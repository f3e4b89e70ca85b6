import numpy as np

from crossalign.leastsq import damped_least_squares, damped_least_squares_batch


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
