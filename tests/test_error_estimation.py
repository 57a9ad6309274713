"""Adjoint-based error estimates: effectivity against fine references."""
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from adaptive_mlmc import error_estimation, solvers
from adaptive_mlmc.error_estimation import (ErrorDecomposition,
                                            estimate_event_time_error,
                                            estimate_standard_error)
from adaptive_mlmc.experiments import get_experiment
from adaptive_mlmc.meshes import subdivide, uniform_mesh
from adaptive_mlmc.models import (OdeProblem, harmonic_oscillator, lorenz)
from adaptive_mlmc.qoi import (NonstandardQoi, StandardQoi, eval_event_time,
                               eval_standard)
from adaptive_mlmc.sampling import sample_parameters
from adaptive_mlmc.solvers import (_GL01_X, Trajectory, _segment_quadrature,
                                   solve_forward_cg1)

import ode_reference
from synthetic_problems import counting_calls, exact_reciprocal, one_point_jacobian


def ivp_rhs(problem):
    """A one-row problem's rhs as scipy's f(t, y)."""
    return lambda t, y: problem.rhs(y[None], t)[0]


def reference_solution(problem):
    return solve_ivp(ivp_rhs(problem),
                     (0.0, problem.horizon), problem.initial[0],
                     rtol=1e-12, atol=1e-12, dense_output=True)


def reference_event_time(problem, psi, threshold, occurrence):
    event = lambda t, u: u @ psi - threshold
    event.direction = 0.0
    sol = solve_ivp(ivp_rhs(problem),
                    (0.0, problem.horizon), problem.initial[0],
                    rtol=1e-12, atol=1e-12, events=event, dense_output=True)
    times = sol.t_events[0]
    times = times[times > 1e-12]
    return float(times[occurrence - 1])


class TestErrorDecomposition:
    def test_total_scales_by_denominator(self):
        """An event-time total is its row's sum over its denominator, bit for
        bit; a standard one has denominator 1."""
        problem = harmonic_oscillator(50.0, 0.25)
        forward = solve_forward_cg1(problem, uniform_mesh(3.0, 36))
        q = NonstandardQoi(np.array([1.0, 0.0]), 0.0, occurrence=5)
        [t_c] = eval_event_time(forward, q)
        d = estimate_event_time_error(problem, forward, q, t_c)
        assert d.contributions.shape[0] == d.total.size == d.denominator.size == 1
        assert d.denominator[0] not in (0.0, 1.0)
        assert d.total[0] == d.contributions[0].sum() / d.denominator[0]
        d = estimate_standard_error(problem, forward, StandardQoi(q.psi, 3.0))
        assert d.total[0] == d.contributions[0].sum() and d.denominator[0] == 1.0

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            ErrorDecomposition(np.ones((2, 1)), [1.0, 0.0], [1.0, 0.0])

    def test_arrays_are_read_only(self):
        contributions = np.array([[1.0, 2.0], [3.0, np.nan]])
        d = ErrorDecomposition(contributions, [3.0, 3.0], [1.0, 1.0])
        for array in (d.contributions, d.total, d.denominator):
            assert array.dtype == float and not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
        assert np.array_equal(d.contributions, contributions, equal_nan=True)


class TestStandardEstimate:
    @pytest.mark.parametrize("n,window", [(27, 0.5), (54, 0.15), (108, 0.1)])
    def test_effectivity_near_one(self, n, window):
        problem = harmonic_oscillator(50.0, 0.25)
        q = StandardQoi(np.array([1.0, 0.0]), 3.0)
        forward = solve_forward_cg1(problem, uniform_mesh(3.0, n))
        decomp = estimate_standard_error(problem, forward, q)
        ref = reference_solution(problem)
        true_error = float(ref.sol(3.0) @ q.psi) - eval_standard(forward, q)[0]
        assert decomp.total[0] / true_error == pytest.approx(1.0, abs=window)

    def test_one_contribution_per_interval(self):
        problem = harmonic_oscillator(50.0, 0.25)
        forward = solve_forward_cg1(problem, uniform_mesh(3.0, 27))
        decomp = estimate_standard_error(problem, forward,
                                         StandardQoi(np.array([1.0, 0.0]), 3.0))
        assert decomp.contributions.shape == (1, 27)
        assert decomp.denominator.tolist() == [1.0]


    def test_working_set_is_bounded(self):
        """256 rows on 165 intervals: the whole-mesh kernels held (256, 1650,
        2, 2) arrays and peaked at 36 MB; the sliced ones stay under 6 MB."""
        experiment = get_experiment("harmonic-standard")
        problem = experiment.make_problem(
            sample_parameters(experiment.distributions, 0, 1, 0, 256))
        forward = solve_forward_cg1(problem, uniform_mesh(3.0, 165))
        tracemalloc.start()
        try:
            d = estimate_standard_error(problem, forward, experiment.qoi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.contributions.shape == (256, 165)
        assert np.isfinite(d.total).all()
        assert peak <= 6e6, f"estimate peaked at {peak / 1e6:.1f} MB"


class TestEventTimeEstimate:
    def test_constant_velocity_hand_value(self):
        """Constant velocity with a slowed trajectory: estimate is exact.

        True dynamics u' = c with u(0) = -1 cross zero at 1/c.  A trajectory
        with slope c(1 - gamma) crosses late at t_c = 1/(c(1 - gamma)).  The
        adjoint weight is constant (J = 0), the residual is the constant
        c*gamma, and the linearization denominator is c, so the estimate
        equals t_c - t_true exactly: the stored sign convention is
        computed-minus-true.
        """
        c, gamma = 2.0, 0.05
        problem = OdeProblem(1,
                             lambda u, t: np.full(np.shape(u), c),
                             lambda u, t: np.zeros(np.shape(u)[:-1] + (1, 1)),
                             np.array([[-1.0]]), 2.0)
        mesh = uniform_mesh(2.0, 8)
        slowed = Trajectory(mesh, (-1.0 + c * (1.0 - gamma) * mesh.nodes)[None, :, None])
        q = NonstandardQoi(np.array([1.0]), 0.0)
        [t_c] = eval_event_time(slowed, q)
        t_true = 1.0 / c
        assert t_c == pytest.approx(1.0 / (c * (1.0 - gamma)))
        decomp = estimate_event_time_error(problem, slowed, q, t_c)
        assert decomp.total[0] == pytest.approx(t_c - t_true, rel=1e-12)

    def test_oscillator_effectivity_improves(self):
        problem = harmonic_oscillator(50.0, 0.25)
        q = NonstandardQoi(np.array([1.0, 0.0]), 0.0, occurrence=5)
        t_true = reference_event_time(problem, q.psi, 0.0, 5)
        effs = []
        for n in (36, 144):
            forward = solve_forward_cg1(problem, uniform_mesh(3.0, n))
            [t_c] = eval_event_time(forward, q)
            decomp = estimate_event_time_error(problem, forward, q, t_c)
            effs.append(decomp.total[0] / (t_c - t_true))
        assert effs[-1] == pytest.approx(1.0, abs=0.1)
        assert abs(effs[-1] - 1.0) < abs(effs[0] - 1.0) + 1e-12

    def test_lorenz_effectivity(self):
        problem = lorenz(1.0)
        q = NonstandardQoi(np.array([1.0, 0.0, 0.0]), 3.0, occurrence=2)
        t_true = reference_event_time(problem, q.psi, 3.0, 2)
        forward = solve_forward_cg1(problem, uniform_mesh(2.0, 192))
        [t_c] = eval_event_time(forward, q)
        decomp = estimate_event_time_error(problem, forward, q, t_c)
        assert decomp.total[0] / (t_c - t_true) == pytest.approx(1.0, abs=0.15)

    def test_grazing_event_is_nan(self):
        """A crossing with zero approach velocity has no linearization: the
        estimate is NaN, which the driver records as a failed sample."""
        problem = OdeProblem(1,
                             lambda u, t: np.zeros(np.shape(u)),
                             lambda u, t: np.zeros(np.shape(u)[:-1] + (1, 1)),
                             np.array([[0.5]]), 1.0)
        flat = Trajectory(uniform_mesh(1.0, 4), np.full((1, 5, 1), 0.5))
        q = NonstandardQoi(np.array([1.0]), 0.5)
        decomp = estimate_event_time_error(problem, flat, q, 0.5)
        assert np.isnan(decomp.denominator).all() and np.isnan(decomp.total).all()
        assert_same_decomposition(
            decomp, ode_reference.two_solve_event_time_error(problem, flat, q, 0.5))


def event_rows(name, rows):
    """(one-row problem, one-row forward, QoI, crossing) of each of a preset's
    first `rows` level-1 draws of seed 0 that crosses, solved on its initial
    mesh refined by 2, as `OdeMlmcModel.evaluate` hands them to the estimate."""
    experiment = get_experiment(name)
    W = sample_parameters(experiment.distributions, 0, 1, 0, rows)
    forward = solve_forward_cg1(experiment.make_problem(W),
                                subdivide(experiment.initial_mesh(), 2))
    times = eval_event_time(forward, experiment.qoi)
    return [(experiment.make_problem(W[k:k + 1]),
             Trajectory(forward.mesh, forward.values[[k]]), experiment.qoi,
             float(times[k])) for k in np.flatnonzero(np.isfinite(times))]


def assert_same_decomposition(a, b):
    for name in ("contributions", "total", "denominator"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape
        assert np.array_equal(x.view(np.int64), y.view(np.int64)), name


class TestFusedEventTimeEstimate:
    """Both adjoint weights of an event-time estimate in one `solve_adjoint`
    and one `residual_pairing` call, with the bits of one call per weight
    (`ode_reference.two_solve_event_time_error`)."""

    @pytest.mark.parametrize("cells", [1, 3, 7, None],
                             ids=lambda c: f"cells{c or 'default'}")
    @pytest.mark.parametrize("name", ["lorenz", "two-body", "harmonic-nonstandard"])
    def test_presets(self, monkeypatch, name, cells):
        if cells is not None:
            monkeypatch.setattr(solvers, "SLICE_CELLS", cells)
        cases = event_rows(name, 3)
        assert len(cases) == 3
        for problem, forward, q, t_c in cases:
            d = estimate_event_time_error(problem, forward, q, t_c)
            assert np.isfinite(d.total).all()
            assert_same_decomposition(
                d, ode_reference.two_solve_event_time_error(problem, forward, q, t_c))

    def test_singular_step(self):
        """The singular first adjoint step of the solver tests'
        `test_singular_adjoint_step_is_a_sample_failure`: both weights'
        adjoints are NaN before t_c, and so is the estimate, as with one
        solve per weight."""
        mesh = uniform_mesh(1.0, 1)
        tq, wq = _segment_quadrature(subdivide(mesh, 2).nodes)
        problem = one_point_jacobian(
            lambda u, t: np.zeros_like(u), tq[0, 2],
            exact_reciprocal((wq * (1.0 - _GL01_X))[0, 2]))([1.0])
        forward = Trajectory(mesh, np.ones((1, 2, 1)))
        q = NonstandardQoi(np.array([1.0]), 0.5)
        d = estimate_event_time_error(problem, forward, q, 1.0)
        assert np.isnan(d.contributions).all() and np.isnan(d.total).all()
        assert_same_decomposition(
            d, ode_reference.two_solve_event_time_error(problem, forward, q, 1.0))

    @pytest.mark.parametrize("cells", [7, None], ids=lambda c: f"cells{c or 'default'}")
    def test_one_solve_and_one_pairing(self, monkeypatch, cells):
        """One `solve_adjoint` and one `residual_pairing` call per estimate; the
        adjoint makes half the oracle's `jacobian` calls (both make one more,
        for J(t_c))."""
        if cells is not None:
            monkeypatch.setattr(solvers, "SLICE_CELLS", cells)
        problem, forward, q, t_c = event_rows("lorenz", 1)[0]
        kernels = {"solve_adjoint": 0, "residual_pairing": 0}

        def counted(name):
            fn = getattr(error_estimation, name)

            def wrapped(*args):
                kernels[name] += 1
                return fn(*args)
            return wrapped

        for name in kernels:
            monkeypatch.setattr(error_estimation, name, counted(name))
        fused, oracle = {"rhs": 0, "jacobian": 0}, {"rhs": 0, "jacobian": 0}
        estimate_event_time_error(counting_calls(problem, fused), forward, q, t_c)
        ode_reference.two_solve_event_time_error(counting_calls(problem, oracle),
                                                 forward, q, t_c)
        assert kernels == {"solve_adjoint": 1, "residual_pairing": 1}
        slices = fused["jacobian"] - 1
        assert (slices == 1) if cells is None else (slices > 1)
        assert oracle["jacobian"] - 1 == 2 * slices

