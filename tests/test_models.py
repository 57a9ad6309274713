"""Right-hand sides and Jacobians of the benchmark ODE systems."""
import numpy as np
import pytest

from adaptive_mlmc.models import (OdeProblem, harmonic_oscillator, lorenz,
                                  two_body)


def central_fd_jacobian(rhs, u, t):
    """Independent finite-difference oracle for the analytic Jacobians of a
    one-row problem at one state u (d,)."""
    d = u.size
    J = np.empty((d, d))
    for j in range(d):
        h = 1e-6 * (1.0 + abs(u[j]))
        up, um = u.copy(), u.copy()
        up[j] += h
        um[j] -= h
        J[:, j] = (rhs(up[None], t)[0] - rhs(um[None], t)[0]) / (2.0 * h)
    return J


def sample_states(problem, rng, n):
    scale = np.maximum(np.abs(problem.initial[0]), 1.0)
    return problem.initial[0] + rng.standard_normal((n, problem.dim)) * scale


PROBLEMS = {
    "harmonic": harmonic_oscillator(50.0, 0.25),
    "lorenz": lorenz(1.0),
    "two_body": two_body(2.0),
}

# The same presets with three rows of parameters each.
ROW_PARAMETERS = {
    "harmonic": (harmonic_oscillator, ([50.0, 47.0, 53.0], [0.25, 0.23, 0.27])),
    "lorenz": (lorenz, ([1.0, 0.3, 1.7],)),
    "two_body": (two_body, ([2.0, 1.98, 1.99],)),
}


class TestRhsValues:
    def test_harmonic_hand_value(self):
        p = harmonic_oscillator(50.0, 0.25)
        # u1' = u2; u2' = -200 u1 - 4 u2 + 200 cos(10 t)
        out = p.rhs(np.array([[1.0, 2.0]]), 0.0)
        np.testing.assert_allclose(out, [[2.0, -200.0 - 8.0 + 200.0]])

    def test_lorenz_hand_value(self):
        p = lorenz(1.5)
        out = p.rhs(np.array([[1.0, 2.0, 3.0]]), 0.0)
        np.testing.assert_allclose(
            out, [[10.0 * (2 - 1), 28.0 * 1 - 2 - 1 * 3, 1 * 2 - (8 / 3) * 3]])

    def test_two_body_unit_circle(self):
        p = two_body(2.0)
        out = p.rhs(np.array([[1.0, 0.0, 0.0, 1.0]]), 0.0)
        np.testing.assert_allclose(out, [[0.0, 1.0, -1.0, 0.0]])

    def test_initial_conditions(self):
        np.testing.assert_allclose(PROBLEMS["harmonic"].initial, [[5.0, 0.0]])
        np.testing.assert_allclose(lorenz(0.7).initial, [[0.7, 0.0, 24.0]])
        np.testing.assert_allclose(two_body(1.99).initial, [[0.4, 0.0, 0.0, 1.99]])
        np.testing.assert_allclose(lorenz(np.array([0.7, 0.2])).initial,
                                   [[0.7, 0.0, 24.0], [0.2, 0.0, 24.0]])

    def test_horizons(self):
        assert PROBLEMS["harmonic"].horizon == 3.0
        assert PROBLEMS["lorenz"].horizon == 2.0
        assert PROBLEMS["two_body"].horizon == 10.0


class TestJacobians:
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_matches_central_differences(self, name):
        problem = PROBLEMS[name]
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 100:
            u = sample_states(problem, rng, 1)[0]
            t = rng.uniform(0.0, problem.horizon)
            J = problem.jacobian(u[None], t)[0]
            J_fd = central_fd_jacobian(problem.rhs, u, t)
            if not (np.isfinite(J).all() and np.isfinite(J_fd).all()):
                continue  # state too close to the two-body singularity
            np.testing.assert_allclose(J, J_fd, rtol=1e-5, atol=1e-5)
            checked += 1


class TestBatching:
    @pytest.mark.parametrize("name", sorted(ROW_PARAMETERS))
    def test_batched_matches_loop(self, name):
        """(M, K, d) states at K shared times: row m, point k equals the
        one-row problem of draw m at that one state and time."""
        make, columns = ROW_PARAMETERS[name]
        problem = make(*(np.array(c) for c in columns))
        singles = [make(*(c[m] for c in columns)) for m in range(3)]
        rng = np.random.default_rng(0)
        U = sample_states(singles[0], rng, 21).reshape(3, 7, -1)
        t = rng.uniform(0.0, problem.horizon, size=7)
        rhs_batch = problem.rhs(U, t)
        jac_batch = problem.jacobian(U, t)
        assert rhs_batch.shape == (3, 7, problem.dim)
        assert jac_batch.shape == (3, 7, problem.dim, problem.dim)
        for m, single in enumerate(singles):
            for k in range(7):
                np.testing.assert_allclose(rhs_batch[m, k],
                                           single.rhs(U[m, k][None], t[k])[0],
                                           rtol=1e-14)
                np.testing.assert_allclose(jac_batch[m, k],
                                           single.jacobian(U[m, k][None], t[k])[0],
                                           rtol=1e-14)

    @pytest.mark.parametrize("name", sorted(ROW_PARAMETERS))
    def test_one_time_per_row(self, name):
        """States (M, d) with times (M,): each row at its own time."""
        make, columns = ROW_PARAMETERS[name]
        problem = make(*(np.array(c) for c in columns))
        U = np.tile(problem.initial[:1], (3, 1)) + 0.1
        t = np.array([0.1, 0.7, 1.3])
        out = problem.rhs(U, t)
        for m in range(3):
            single = make(*(c[m] for c in columns))
            np.testing.assert_allclose(out[m], single.rhs(U[m:m + 1], t[m])[0],
                                       rtol=1e-14)


class TestFailures:
    def test_two_body_collision_is_nan_in_its_row(self):
        p = two_body(np.array([2.0, 1.99]))
        U = np.array([[0.0, 0.0, 1.0, 1.0], [1.0, 0.0, 0.0, 1.0]])
        rhs, J = p.rhs(U, 0.0), p.jacobian(U, 0.0)
        assert np.isnan(rhs[0]).any() and np.isnan(J[0]).any()
        np.testing.assert_allclose(rhs[1], [0.0, 1.0, -1.0, 0.0])
        assert np.isfinite(J[1]).all()

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError):
            harmonic_oscillator(50.0, 0.0)

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            OdeProblem(2, lambda u, t: u, lambda u, t: np.eye(2),
                       np.zeros((1, 3)), 1.0)
        with pytest.raises(ValueError):
            OdeProblem(2, lambda u, t: u, lambda u, t: np.eye(2),
                       np.zeros((1, 2)), 0.0)
        with pytest.raises(ValueError):
            OdeProblem(2, lambda u, t: u, lambda u, t: np.eye(2),
                       np.zeros(2), 1.0)
