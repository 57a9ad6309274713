"""Forward cG(1) solver, adjoint solver, and residual-pairing tests."""
import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from adaptive_mlmc import driver, solvers
from adaptive_mlmc.driver import MlmcRunConfig, run_adaptive_mlmc
from adaptive_mlmc.experiments import EXPERIMENT_NAMES, get_experiment
from adaptive_mlmc.meshes import Mesh1D, MeshError, subdivide, uniform_mesh
from adaptive_mlmc.models import OdeProblem, harmonic_oscillator, lorenz, two_body
from adaptive_mlmc.qoi import StandardQoi, eval_event_time
from adaptive_mlmc.sampling import sample_parameters
from adaptive_mlmc.solvers import (ADJOINT_REFINE_FACTOR, Trajectory, _GL01_W,
                                   _GL01_X, _segment_quadrature, residual_pairing,
                                   restrict_mesh, solve_adjoint,
                                   solve_forward_cg1)

import ode_reference
from artifact_digests import PRESET_EPSILON
from synthetic_problems import (blow_up, constant_rates, constant_weights,
                                counting_calls, exact_reciprocal,
                                exact_sum_reciprocal, one_point_jacobian)


def linear_decay(rate=1.0, linear=False):
    return OdeProblem(1,
                      lambda u, t: -rate * np.asarray(u, dtype=float),
                      lambda u, t: np.full(np.shape(u)[:-1] + (1, 1), -rate),
                      np.array([[1.0]]), 1.0, linear)


def ivp_rhs(problem):
    """A one-row problem's rhs as scipy's f(t, y)."""
    return lambda t, y: problem.rhs(y[None], t)[0]


class TestTrajectory:
    def test_interpolation_and_slope(self):
        mesh = Mesh1D(np.array([0.0, 1.0, 3.0]))
        traj = Trajectory(mesh, np.array([[0.0], [2.0], [4.0]]))
        assert traj(0.5)[0] == pytest.approx(1.0)
        assert traj(2.0)[0] == pytest.approx(3.0)
        np.testing.assert_allclose(traj(np.array([0.0, 3.0]))[:, 0], [0.0, 4.0])
        slopes = np.diff(traj.values[:, 0]) / mesh.lengths
        np.testing.assert_allclose(slopes, [2.0, 1.0])

    def test_shape_validation(self):
        mesh = uniform_mesh(1.0, 2)
        with pytest.raises(ValueError):
            Trajectory(mesh, np.zeros((2, 1)))


def assert_exact_decay_update(linear):
    """cG(1) on u' = -u gives U_{n+1}/U_n = (1 - h/2)/(1 + h/2) exactly."""
    n = 16
    mesh = uniform_mesh(1.0, n)
    traj = solve_forward_cg1(linear_decay(linear=linear), mesh)
    h = 1.0 / n
    expected = ((1.0 - h / 2.0) / (1.0 + h / 2.0)) ** np.arange(n + 1)
    np.testing.assert_allclose(traj.values[0, :, 0], expected, rtol=3e-15)


def assert_singular_first_step_fails_only_its_row():
    """u' = -u / 10 with a Jacobian that is c at one quadrature point of the
    first interval and 0 elsewhere, in the flagged row: 1 - w s c is exactly
    0 there.  The flagged row is NaN, and the other rows, with Jacobian 0,
    keep their one-row bits."""
    mesh = uniform_mesh(1.0, 2)
    tq, wq = _segment_quadrature(mesh.nodes)
    problem = one_point_jacobian(lambda u, t: -0.1 * u, tq[0, 2],
                                 exact_reciprocal((wq * _GL01_X)[0, 2]))
    traj = solve_forward_cg1(problem([0.0, 1.0, 0.0]), mesh)
    with pytest.raises(ode_reference.RowFailed):
        ode_reference.forward(problem([1.0]), mesh)
    assert np.isnan(traj.values[1]).all()
    alone = solve_forward_cg1(problem([0.0]), mesh)
    assert np.isfinite(alone.values).all()
    for k in (0, 2):
        assert np.array_equal(traj.values[k], alone.values[0])


class TestForwardSolver:
    def test_exact_update_for_linear_decay(self):
        assert_exact_decay_update(linear=False)

    def test_second_order_convergence(self):
        problem = harmonic_oscillator(50.0, 0.25)
        ref = solve_ivp(ivp_rhs(problem), (0.0, 3.0), problem.initial[0],
                        rtol=1e-12, atol=1e-12, dense_output=True)
        errors = []
        for n in (64, 128, 256):
            traj = solve_forward_cg1(problem, uniform_mesh(3.0, n))
            errors.append(abs(traj.values[0, -1, 0] - ref.sol(3.0)[0]))
        orders = np.log2(np.array(errors[:-1]) / errors[1:])
        assert np.all(orders > 1.8)

    def test_mesh_must_cover_horizon(self):
        with pytest.raises(MeshError):
            solve_forward_cg1(linear_decay(), uniform_mesh(0.5, 8))

    def test_divergence_fails_only_its_row(self):
        """u(0) = 2 blows up inside the horizon, u(0) = 0.5 does not: the
        first row is NaN, the second keeps the bits of its one-row march."""
        mesh = uniform_mesh(1.0, 4)
        traj = solve_forward_cg1(blow_up((2.0, 0.5)), mesh)
        with pytest.raises(ode_reference.RowFailed):
            ode_reference.forward(blow_up((2.0,)), mesh)
        assert np.isnan(traj.values[0]).all()
        alone = solve_forward_cg1(blow_up((0.5,)), mesh)
        assert np.array_equal(traj.values[1], alone.values[0])
        assert np.isfinite(alone.values).all()


class TestChunkMarch:
    """A chunk marches as one (M, d) array; each row keeps its one-row bits."""

    CASES = {"harmonic": (lambda w: harmonic_oscillator(w, 0.25), 3.0, 27,
                          [40.0, 50.0, 55.0, 60.0]),
             "lorenz": (lorenz, 2.0, 48, [0.0, 0.5, 1.0, 2.0]),
             "two_body": (two_body, 10.0, 80, [1.97, 1.98, 1.99, 2.0])}

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_rows_equal_their_one_row_march(self, name):
        make, horizon, n, params = self.CASES[name]
        mesh = uniform_mesh(horizon, n)
        chunk = solve_forward_cg1(make(np.array(params)), mesh)
        for k, w in enumerate(params):
            alone = solve_forward_cg1(make(np.array([w])), mesh)
            assert np.array_equal(chunk.values[k], alone.values[0])
            np.testing.assert_allclose(
                alone.values[0], ode_reference.forward(make(w), mesh), rtol=1e-12,
                atol=1e-12 * np.abs(alone.values).max())

    def test_singular_newton_matrix_fails_only_its_row(self):
        """The flagged row's Newton matrix 1 - w s c is exactly 0."""
        assert_singular_first_step_fails_only_its_row()


def two_body_energy(U):
    """H = |v|^2 / 2 - 1 / |x| of each state, and the l1 norm of its gradient."""
    x, y, vx, vy = np.moveaxis(U, -1, 0)
    r = np.sqrt(x ** 2 + y ** 2)
    gradient = (np.abs(x) + np.abs(y)) / r ** 3 + np.abs(vx) + np.abs(vy)
    return 0.5 * (vx ** 2 + vy ** 2) - 1.0 / r, gradient


class TestEnergy:
    """cG(1) conserves H for a canonical Hamiltonian system when its integrals
    are exact: U_{n+1} - U_n = J int grad H(U) dt, so H(U_{n+1}) - H(U_n) =
    gbar . (U_{n+1} - U_n) = 0, gbar the interval's mean gradient.  Newton
    stops with a residual r, |r|_inf <= NEWTON_TOL, so each step changes H by
    gbar . r plus the 5-point rule's error and rounding; two-body is
    canonical."""

    THETAS = np.array([1.97, 1.985, 2.0])

    def drift(self, n):
        forward = solve_forward_cg1(two_body(self.THETAS), uniform_mesh(10.0, n))
        H, _ = two_body_energy(forward.values)
        return forward, np.abs(H - H[:, :1]).max()

    def test_drift_within_the_newton_tolerance(self):
        """At 640 intervals the quadrature error is negligible, so over n
        steps |H - H_0| <= n max|grad H|_1 (NEWTON_TOL + 8 u max|U|), the
        rounding of each update and residual; plus 8 u max(|v|^2/2 + 1/|x|)
        for evaluating H twice.  The gradient's maximum is taken along the
        piecewise-linear trajectory, 8 points per interval."""
        n = 640
        forward, drift = self.drift(n)
        _, gradient = two_body_energy(forward(np.linspace(0.0, 10.0, 8 * n + 1)))
        u = np.finfo(float).eps
        x, y, vx, vy = np.moveaxis(forward.values, -1, 0)
        terms = 0.5 * (vx ** 2 + vy ** 2) + 1.0 / np.sqrt(x ** 2 + y ** 2)
        bound = n * gradient.max() * (solvers.NEWTON_TOL
                                      + 8 * u * np.abs(forward.values).max()) \
            + 8 * u * terms.max()
        assert drift <= bound

    def test_drift_falls_with_the_quadrature_error(self):
        """On coarse meshes the 5-point rule's error dominates and falls with h."""
        drifts = [self.drift(n)[1] for n in (40, 80, 160)]
        assert drifts[0] > drifts[1] > drifts[2]


class TestRestrictMesh:
    def test_cut_at_existing_node(self):
        mesh = uniform_mesh(1.0, 4)
        out = restrict_mesh(mesh, 0.5)
        np.testing.assert_allclose(out.nodes, [0.0, 0.25, 0.5])

    def test_cut_inside_interval(self):
        mesh = uniform_mesh(1.0, 4)
        out = restrict_mesh(mesh, 0.6)
        np.testing.assert_allclose(out.nodes, [0.0, 0.25, 0.5, 0.6])

    def test_full_domain(self):
        mesh = uniform_mesh(1.0, 4)
        np.testing.assert_allclose(restrict_mesh(mesh, 1.0).nodes, mesh.nodes)

    def test_out_of_range(self):
        mesh = uniform_mesh(1.0, 4)
        with pytest.raises(MeshError):
            restrict_mesh(mesh, 1.5)
        with pytest.raises(MeshError):
            restrict_mesh(mesh, 0.0)


class TestAdjoint:
    def test_matches_expm_for_harmonic(self):
        """Adjoint of the oscillator vs the matrix-exponential oracle.

        For -phi' = A^T phi with constant A, phi(t) = expm(A^T (t* - t)) psi.
        """
        problem = harmonic_oscillator(50.0, 0.25)
        A = problem.jacobian(problem.initial, 0.0)[0]
        psi = np.array([1.0, 0.0])
        t_star = 3.0
        errors = []
        for n in (16, 32, 64):
            forward = solve_forward_cg1(problem, uniform_mesh(3.0, n))
            phi = solve_adjoint(problem, forward, t_star, psi)
            exact = expm(A.T * t_star) @ psi  # value at t = 0
            errors.append(np.abs(phi.values[0, 0] - exact).max())
        # overall observed order across the 16 -> 64 span
        order = 0.5 * np.log2(errors[0] / errors[-1])
        assert order > 1.8
        # absolute scale set by the O(1) sup of phi over the window
        assert errors[-1] < 1e-2

    def test_terminal_value_and_mesh(self):
        problem = harmonic_oscillator(50.0, 0.25)
        forward = solve_forward_cg1(problem, uniform_mesh(3.0, 27))
        phi = solve_adjoint(problem, forward, 2.0, np.array([0.0, 1.0]))
        np.testing.assert_allclose(phi.values[0, -1], [0.0, 1.0])
        assert phi.mesh.length == pytest.approx(2.0)
        # restricted forward mesh (18 intervals up to t=2) refined by 2
        assert phi.mesh.n_intervals == 36


class TestResidualPairing:
    @pytest.mark.parametrize("meshes", [1, 4, "dwr", "meso"])
    @pytest.mark.parametrize("name", EXPERIMENT_NAMES)
    def test_galerkin_orthogonality(self, name, meshes):
        """The cG(1) residual is orthogonal to piecewise-constant weights:
        every interval's contribution vanishes for d + 1 constant weights,
        for 16 seed-0 draws of each ODE preset on its initial mesh, on that
        mesh split in four, and on every refined mesh of a seeded dwr or
        meso run."""
        model = get_experiment(name)
        meshes = adapted_meshes(name, meshes) if isinstance(meshes, str) \
            else [subdivide(model.initial_mesh(), meshes)]
        problem = model.make_problem(sample_parameters(model.distributions, 0, 0, 0, 16))
        rng = np.random.default_rng(3)
        weights = rng.standard_normal((problem.dim + 1, problem.dim))
        for mesh in meshes:
            forward = solve_forward_cg1(problem, mesh)
            contributions = np.stack([
                residual_pairing(problem, forward, constant_weights(mesh, w[None]),
                                 mesh.length)
                for w in weights])
            assert contributions.shape == (problem.dim + 1, 16, mesh.n_intervals)
            scale = np.abs(forward.values).max() * np.abs(weights).max()
            assert np.abs(contributions).max() <= 1e-10 * scale

    def test_pairing_estimates_terminal_error(self):
        problem = harmonic_oscillator(50.0, 0.25)
        psi = np.array([1.0, 0.0])
        ref = solve_ivp(ivp_rhs(problem), (0.0, 3.0), problem.initial[0],
                        rtol=1e-12, atol=1e-12, dense_output=True)
        forward = solve_forward_cg1(problem, uniform_mesh(3.0, 108))
        phi = solve_adjoint(problem, forward, 3.0, psi)
        estimate = residual_pairing(problem, forward, phi, 3.0).sum()
        true_error = ref.sol(3.0) @ psi - forward.values[0, -1] @ psi
        assert estimate / true_error == pytest.approx(1.0, abs=0.1)

    def test_adjoint_must_cover_window(self):
        problem = harmonic_oscillator(50.0, 0.25)
        forward = solve_forward_cg1(problem, uniform_mesh(3.0, 27))
        phi = solve_adjoint(problem, forward, 1.0, np.array([1.0, 0.0]))
        with pytest.raises(MeshError):
            residual_pairing(problem, forward, phi, 2.0)


def reference_adjoint(problem, forward, t_star, terminal_value):
    """Per-step adjoint loop for a one-row trajectory: one Jacobian call and
    one solve per sub-interval."""
    mesh = subdivide(restrict_mesh(forward.mesh, t_star), ADJOINT_REFINE_FACTOR)
    nodes = mesh.nodes
    eye = np.eye(problem.dim)
    phi = np.empty((nodes.size, problem.dim))
    phi[-1] = terminal_value
    for n in range(mesh.n_intervals - 1, -1, -1):
        a, b = nodes[n], nodes[n + 1]
        (tq,), (wq,) = _segment_quadrature(np.array([a, b]))
        sq = (tq - a) / (b - a)
        Jt = np.swapaxes(problem.jacobian(forward(tq), tq)[0], -1, -2)
        M0 = np.einsum("q,qij->ij", wq * (1.0 - sq), Jt)
        M1 = np.einsum("q,qij->ij", wq * sq, Jt)
        phi[n] = np.linalg.solve(eye - M0, phi[n + 1] + M1 @ phi[n + 1])
    return Trajectory(mesh, phi[None])


def reference_pairing(problem, forward, adjoint, t_star):
    """Per-sub-interval pairing for a one-row trajectory: one rhs call per
    adjoint sub-interval."""
    restricted = restrict_mesh(forward.mesh, t_star)
    contributions = np.zeros(restricted.n_intervals)
    nodes = adjoint.mesh.nodes
    for k in range(adjoint.mesh.n_intervals):
        a, b = nodes[k], nodes[k + 1]
        (tq,), (wq,) = _segment_quadrature(np.array([a, b]))
        i = forward.mesh.interval_of(0.5 * (a + b))
        slope = (forward.values[0, i + 1] - forward.values[0, i]) / (
            forward.mesh.nodes[i + 1] - forward.mesh.nodes[i])
        integrand = np.einsum("qi,qi->q", problem.rhs(forward(tq), tq)[0] - slope,
                              adjoint(tq)[0])
        contributions[restricted.interval_of(0.5 * (a + b))] += wq @ integrand
    return contributions[None]


def preset_case(name):
    """A preset at its centre parameters, solved on its initial mesh, with its t*."""
    experiment = get_experiment(name)
    w = np.array([[d.centre for d in experiment.distributions]])
    problem = experiment.make_problem(w)
    forward = solve_forward_cg1(problem, experiment.initial_mesh())
    q = experiment.qoi
    t_star = q.t_star if isinstance(q, StandardQoi) else eval_event_time(forward, q)[0]
    return problem, forward, t_star, q.psi


class TestWholeMeshKernels:
    """The batched adjoint and pairing against the per-step loops."""

    @pytest.mark.parametrize("name", ["harmonic-standard", "lorenz", "two-body"])
    def test_match_per_step_reference(self, name):
        problem, forward, t_star, psi = preset_case(name)
        phi = solve_adjoint(problem, forward, t_star, psi)
        ref_phi = reference_adjoint(problem, forward, t_star, psi)
        np.testing.assert_array_equal(phi.mesh.nodes, ref_phi.mesh.nodes)
        np.testing.assert_allclose(phi.values, ref_phi.values, rtol=1e-12)
        np.testing.assert_allclose(residual_pairing(problem, forward, phi, t_star),
                                   reference_pairing(problem, forward, phi, t_star),
                                   rtol=1e-12)

    @pytest.mark.parametrize("rows", [1, 300])
    @pytest.mark.parametrize("name", ["harmonic-standard", "lorenz", "two-body"])
    def test_within_1e12_of_gufunc_step_solves(self, name, rows):
        """The eliminated step matrices give the adjoint of the batched
        `np.linalg.solve` to 1e-12 of each row's largest |phi|."""
        problem, forward, t_star, psi = chunk_case(name, rows)
        phi = solve_adjoint(problem, forward, t_star, psi).values
        want = ode_reference.whole_mesh_adjoint(problem, forward, t_star, psi,
                                                gufunc=True).values
        scale = np.abs(want).max(axis=(1, 2))
        assert (np.abs(phi - want).max(axis=(1, 2)) <= 1e-12 * scale).all()

    def test_event_time_case_restricts_inside_an_interval(self):
        problem, forward, t_c, psi = preset_case("two-body")
        assert not np.any(np.isclose(forward.mesh.nodes, t_c, rtol=1e-6))
        contributions = residual_pairing(
            problem, forward, solve_adjoint(problem, forward, t_c, psi), t_c)
        assert contributions.size == restrict_mesh(forward.mesh, t_c).n_intervals
        assert contributions.size < forward.mesh.n_intervals

    def test_one_model_call_per_kernel(self):
        problem, forward, t_star, psi = preset_case("lorenz")
        calls = {"rhs": 0, "jacobian": 0}
        counted = counting_calls(problem, calls)
        phi = solve_adjoint(counted, forward, t_star, psi)
        assert calls == {"rhs": 0, "jacobian": 1}
        residual_pairing(counted, forward, phi, t_star)
        assert calls == {"rhs": 1, "jacobian": 1}

    @pytest.mark.parametrize("rows,cells", [(300, None), (1, 7), (2, 3)])
    @pytest.mark.parametrize("name", ["lorenz", "harmonic-standard"])
    def test_one_model_call_per_slice(self, monkeypatch, name, rows, cells):
        """With more than one slice, each makes one `rhs` call in the pairing
        and, for a nonlinear problem, one `jacobian` call in the adjoint.  A
        linear problem's adjoint makes one `jacobian` call per slice of
        SLICE_CELLS rows x distinct sub-interval lengths."""
        if cells is not None:
            monkeypatch.setattr(solvers, "SLICE_CELLS", cells)
        problem, forward, t_star, psi = chunk_case(name, rows)
        calls = {"rhs": 0, "jacobian": 0}
        counted = counting_calls(problem, calls)
        phi = solve_adjoint(counted, forward, t_star, psi)
        slices = math.ceil(phi.mesh.n_intervals / max(2, solvers.SLICE_CELLS // rows))
        jacobian = slices
        if problem.linear:
            lengths = np.unique(phi.mesh.lengths).size
            jacobian = math.ceil(lengths / max(1, solvers.SLICE_CELLS // rows))
            assert jacobian < slices
        assert slices > 1
        assert calls == {"rhs": 0, "jacobian": jacobian}
        residual_pairing(counted, forward, phi, t_star)
        assert calls == {"rhs": slices, "jacobian": jacobian}

    def test_singular_adjoint_step_is_a_sample_failure(self):
        """One forward interval of (0, 1) gives adjoint steps of h = 1/2.  In
        the flagged row the Jacobian is c at one quadrature point of the first
        step and 0 elsewhere, so I - M0 = 1 - w (1 - s) c is exactly 0: that
        row is NaN before t* and fails as a sample.  The other row keeps the bits of
        its one-row adjoint."""
        mesh = uniform_mesh(1.0, 1)
        tq, wq = _segment_quadrature(subdivide(mesh, 2).nodes)
        problem = one_point_jacobian(lambda u, t: np.zeros_like(u), tq[0, 2],
                                     exact_reciprocal((wq * (1.0 - _GL01_X))[0, 2]))
        forward = Trajectory(mesh, np.ones((2, 2, 1)))
        phi = solve_adjoint(problem([1.0, 0.0]), forward, 1.0, np.array([1.0]))
        with pytest.raises(ode_reference.RowFailed):
            ode_reference.adjoint(problem([1.0]), mesh, np.ones((2, 1)), 1.0,
                                  np.array([1.0]))
        assert np.isnan(phi.values[0, :-1]).all()
        alone = solve_adjoint(problem([0.0]), Trajectory(mesh, forward.values[[1]]),
                              1.0, np.array([1.0]))
        assert np.isfinite(alone.values).all()
        assert np.array_equal(phi.values[1], alone.values[0])


def chunk_case(name, rows):
    """A preset's first `rows` draws at level 1 of seed 0, solved on its initial
    mesh refined by 2, with its t* (an event-time preset: row 0's crossing)."""
    experiment = get_experiment(name)
    problem = experiment.make_problem(
        sample_parameters(experiment.distributions, 0, 1, 0, rows))
    forward = solve_forward_cg1(problem, subdivide(experiment.initial_mesh(), 2))
    q = experiment.qoi
    t_star = q.t_star if isinstance(q, StandardQoi) else eval_event_time(forward, q)[0]
    return problem, forward, t_star, q.psi


def assert_same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


def assert_kernels_match_whole_mesh(problem, forward, t_star, terminal_value):
    """The sliced adjoint and pairing have the bits of the whole-mesh ones."""
    phi = solve_adjoint(problem, forward, t_star, terminal_value)
    whole = ode_reference.whole_mesh_adjoint(problem, forward, t_star, terminal_value)
    assert_same_bits(phi.mesh.nodes, whole.mesh.nodes)
    assert_same_bits(phi.values, whole.values)
    assert_same_bits(residual_pairing(problem, forward, phi, t_star),
                     ode_reference.whole_mesh_pairing(problem, forward, whole, t_star))
    return phi


@pytest.fixture(params=[1, 2, 3, 7, None], ids=lambda c: f"cells{c or 'default'}")
def slice_cells(request, monkeypatch):
    """SLICE_CELLS at 1, 2 and 3 (2 sub-intervals a slice for every row count),
    7 (an odd step of 7 or 3 for one or two rows, so a forward interval's two
    sub-intervals fall in different slices) and the default."""
    if request.param is not None:
        monkeypatch.setattr(solvers, "SLICE_CELLS", request.param)
    return solvers.SLICE_CELLS


class TestSlicedKernels:
    """`solve_adjoint` and `residual_pairing` run in slices of SLICE_CELLS
    rows x sub-intervals, with the bits of the whole-mesh kernels."""

    @pytest.mark.parametrize("rows", [1, 2, 300])
    @pytest.mark.parametrize("name", ["harmonic-standard", "lorenz", "two-body"])
    def test_presets(self, slice_cells, name, rows):
        problem, forward, t_star, psi = chunk_case(name, rows)
        assert np.isfinite(forward.values).all()
        if name != "harmonic-standard":  # the event-time cut
            assert not np.any(forward.mesh.nodes == t_star)
        phi = assert_kernels_match_whole_mesh(problem, forward, t_star, psi)
        assert np.isfinite(phi.values).all()

    def test_t_star_at_an_interior_node(self, slice_cells):
        problem, forward, _, psi = chunk_case("lorenz", 2)
        t_star = forward.mesh.nodes[17]
        phi = assert_kernels_match_whole_mesh(problem, forward, t_star, psi)
        assert phi.mesh.length == t_star

    def test_per_row_terminal_values(self, slice_cells):
        problem, forward, t_star, _ = chunk_case("two-body", 3)
        terminal = np.arange(12.0).reshape(3, 4) - 5.0
        assert_kernels_match_whole_mesh(problem, forward, t_star, terminal)

    def test_nan_row(self, slice_cells):
        """A failed forward row (NaN at every node) gives a NaN adjoint before
        t* and NaN contributions; the other rows stay finite."""
        problem, forward, t_star, psi = chunk_case("lorenz", 3)
        values = forward.values.copy()
        values[1] = np.nan
        forward = Trajectory(forward.mesh, values)
        phi = assert_kernels_match_whole_mesh(problem, forward, t_star, psi)
        assert np.isnan(phi.values[1, :-1]).all()
        assert np.isfinite(phi.values[[0, 2]]).all()
        contributions = residual_pairing(problem, forward, phi, t_star)
        assert np.isnan(contributions[1]).all()
        assert np.isfinite(contributions[[0, 2]]).all()

    @pytest.mark.parametrize("name", ["lorenz", "two-body"])
    def test_one_row_forward_against_terminal_rows(self, slice_cells, name):
        """A one-row forward with K terminal rows gives K adjoints and K
        pairings, each with the bits of its own one-row call."""
        problem, forward, t_star, _ = chunk_case(name, 1)
        terminal = np.arange(3.0 * problem.dim).reshape(3, -1) - 4.0
        phi = solve_adjoint(problem, forward, t_star, terminal)
        paired = residual_pairing(problem, forward, phi, t_star)
        assert phi.values.shape[0] == paired.shape[0] == 3
        for k in range(3):
            alone = solve_adjoint(problem, forward, t_star, terminal[k])
            assert_same_bits(phi.values[k], alone.values[0])
            assert_same_bits(paired[k],
                             residual_pairing(problem, forward, alone, t_star)[0])

    @pytest.mark.parametrize("step", [1, 8, 13])
    def test_singular_step_in_a_later_slice(self, slice_cells, step):
        """As in `test_singular_adjoint_step_is_a_sample_failure`, on 8
        forward intervals: the flagged row's step `step` of 16 has I - M0 = 0
        exactly.  Slices after it in time were solved first, and the row is
        still NaN at every node before t*."""
        mesh = uniform_mesh(1.0, 8)
        tq, wq = _segment_quadrature(subdivide(mesh, 2).nodes)
        problem = one_point_jacobian(
            lambda u, t: np.zeros_like(u), tq[step, 2],
            exact_reciprocal((wq * (1.0 - _GL01_X))[step, 2]))([1.0, 0.0])
        forward = Trajectory(mesh, np.ones((2, 9, 1)))
        phi = assert_kernels_match_whole_mesh(problem, forward, 1.0, np.array([1.0]))
        assert np.isnan(phi.values[0, :-1]).all() and phi.values[0, -1] == 1.0
        assert np.isfinite(phi.values[1]).all()


def well_conditioned(rng, d, trailing):
    """(d, d, *trailing) matrices d I + 0.3 R with their rows permuted at
    random, so the elimination has to pivot."""
    A = d * np.eye(d)[:, :, None] + 0.3 * rng.standard_normal((d, d, np.prod(trailing)))
    for k in range(A.shape[-1]):
        A[:, :, k] = A[rng.permutation(d), :, k]
    return A.reshape((d, d) + trailing)


def gufunc_solve(A, B):
    """np.linalg.solve on component-major (d, d, ...) and (d, k, ...) arrays."""
    n = A.ndim - 2
    axes = tuple(range(2, 2 + n)) + (0, 1)
    back = (n, n + 1) + tuple(range(n))
    return np.linalg.solve(A.transpose(axes), B.transpose(axes)).transpose(back)


class TestEliminate:
    """The slice-wide d x d solves: component-major Gaussian elimination with
    partial pivoting on (d, d + k, ...) augmented matrices."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_gufunc(self, d):
        rng = np.random.default_rng(d)
        A, B = well_conditioned(rng, d, (6, 7)), rng.standard_normal((d, 3, 6, 7))
        X, singular = solvers._eliminate(np.concatenate([A, B], axis=1))
        want = gufunc_solve(A, B)
        assert not singular.any()
        scale = np.abs(want).max(axis=(0, 1))
        assert (np.abs(X - want).max(axis=(0, 1)) <= 1e-13 * scale).all()

    def test_zero_leading_entry_swaps_rows(self):
        """[[0, 1], [2, 3]] x = [1, 1] needs the row swap; x = [-1, 1]."""
        a = np.array([[0.0, 1.0, 1.0], [2.0, 3.0, 1.0]])[:, :, None]
        X, singular = solvers._eliminate(a)
        assert X[:, 0, 0].tolist() == [-1.0, 1.0] and not singular.any()

    def test_exact_zero_pivot_is_flagged(self):
        """A zero matrix, and [[1, 2], [2, 4]] whose second pivot is 4 - 2 * 2
        = 0 exactly, are flagged; the regular system beside them is not and
        keeps its one-system bits."""
        rng = np.random.default_rng(0)
        regular = np.concatenate([well_conditioned(rng, 2, (1,)),
                                  rng.standard_normal((2, 1, 1))], axis=1)
        a = np.concatenate([np.zeros((2, 3, 1)),
                            np.array([[1.0, 2.0, 1.0], [2.0, 4.0, 1.0]])[:, :, None],
                            regular], axis=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            X, singular = solvers._eliminate(a)
        assert singular.tolist() == [True, True, False]
        alone, _ = solvers._eliminate(regular.copy())
        assert_same_bits(X[..., 2], alone[..., 0])

    @pytest.mark.parametrize("d", [2, 3])
    def test_nan_system_stays_alone(self, d):
        """A system with one NaN entry is NaN throughout and not flagged; the
        systems beside it keep their one-system bits."""
        rng = np.random.default_rng(d)
        a = np.concatenate([well_conditioned(rng, d, (5,)),
                            rng.standard_normal((d, 2, 5))], axis=1)
        a[d - 1, 0, 2] = np.nan
        X, singular = solvers._eliminate(a.copy())
        assert np.isnan(X[..., 2]).all() and not singular.any()
        for k in (0, 1, 3, 4):
            assert_same_bits(X[..., k], solvers._eliminate(a[..., k:k + 1].copy())[0][..., 0])


def graded_mesh(horizon, n):
    """n intervals of (0, horizon] growing from the left."""
    return Mesh1D(horizon * np.linspace(0.0, 1.0, n + 1) ** 1.5)


@functools.cache
def adapted_meshes(name, strategy):
    """The refined meshes of a seed-0 run at the tolerance of the artifact
    digest matrix, which is looser than the preset's default.  Failed draws
    do not abort it (two-body dwr misses events on its level-1 mesh): the
    meshes are what is checked here."""
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(driver, "MAX_FAILURE_RATE", 1.0)
        run = run_adaptive_mlmc(get_experiment(name),
                                MlmcRunConfig(PRESET_EPSILON[name], strategy, 0))
    assert run.n_levels > 1
    return run.meshes[1:]


@functools.cache
def dwr_mesh():
    """The finest mesh of a seeded `harmonic-standard` dwr run (hs-dwr's seed 0)."""
    run = run_adaptive_mlmc(get_experiment("harmonic-standard"),
                            MlmcRunConfig(1e-3, "dwr", 0))
    return run.meshes[-1]


def one_ulp_mesh():
    """A uniform mesh of (0, 3] with two interval lengths one ulp apart whose
    first Gauss weights h W_0 round to the same float, while their weight
    columns differ: keying the step maps on w[0] would merge them."""
    return uniform_mesh(3.0, 79)


LINEAR_MESHES = {"uniform": lambda: uniform_mesh(3.0, 54),
                 "graded": lambda: graded_mesh(3.0, 165),
                 "dwr": dwr_mesh, "one-ulp": one_ulp_mesh}


def linear_case(name, rows):
    """A harmonic preset's first `rows` level-1 draws of seed 0."""
    experiment = get_experiment(name)
    problem = experiment.make_problem(
        sample_parameters(experiment.distributions, 0, 1, 0, rows))
    assert problem.linear
    return experiment, problem


def time_dependent_jacobian(a):
    """u' = J(t) u + g(t) with J(t) = [[0, 1 + t], [-(2 + a sin t), -0.1]] and
    g(t) = (cos 3t, a) on (0, 4], one row per a, marked linear although J
    depends on t."""
    def jacobian(u, t):
        t = np.broadcast_to(t, u.shape[:-1])
        J = np.zeros(u.shape + (2,))
        J[..., 0, 1] = 1.0 + t
        J[..., 1, 0] = -(2.0 + a.reshape((-1,) + (1,) * (u.ndim - 2)) * np.sin(t))
        J[..., 1, 1] = -0.1
        return J

    def rhs(u, t):
        g = np.stack(np.broadcast_arrays(
            np.cos(3.0 * np.asarray(t)), a.reshape((-1,) + (1,) * (u.ndim - 2))),
            axis=-1)
        return (jacobian(u, t) @ u[..., None])[..., 0] + g

    return OdeProblem(2, rhs, jacobian, np.ones((a.size, 2)), 4.0, linear=True)


class TestLinearMeshes:
    def test_graded_mesh_lengths_all_differ(self):
        mesh = graded_mesh(3.0, 165)
        assert np.unique(mesh.lengths).size == mesh.n_intervals

    def test_one_ulp_mesh_has_the_w0_collision(self):
        lengths = np.unique(one_ulp_mesh().lengths)
        pairs = [(a, b) for a, b in zip(lengths[:-1], lengths[1:])
                 if b == np.nextafter(a, np.inf) and a * _GL01_W[0] == b * _GL01_W[0]]
        assert pairs
        assert any((a * _GL01_W != b * _GL01_W).any() for a, b in pairs)


class TestAffineMarch:
    """Linear problems march as U_{n+1} = A_n U_n + c_n, with the Gauss sums
    M0, M1 built once per distinct interval length and the step maps in
    slices of SLICE_CELLS rows x intervals."""

    def test_exact_update_for_linear_decay(self):
        assert_exact_decay_update(linear=True)

    def test_exact_zero_pivot_fails_only_its_row(self):
        """u' = c u with c such that the computed M1 = sum_q w_q s_q c is
        exactly 1 on steps of h = 1/2: I - M1 is an exact zero pivot, and the
        flagged row is NaN at every node.  The other rows keep their one-row
        bits."""
        mesh = uniform_mesh(1.0, 2)
        _, wq = _segment_quadrature(mesh.nodes)
        c = exact_sum_reciprocal(wq[0] * _GL01_X)
        traj = solve_forward_cg1(constant_rates([-0.1, c, 0.5]), mesh)
        assert np.isnan(traj.values[1]).all()
        for k, rate in ((0, -0.1), (2, 0.5)):
            alone = solve_forward_cg1(constant_rates([rate]), mesh)
            assert np.isfinite(alone.values).all()
            assert_same_bits(traj.values[k], alone.values[0])

    @pytest.mark.parametrize("mesh", sorted(LINEAR_MESHES))
    @pytest.mark.parametrize("rows", [1, 2, 300])
    @pytest.mark.parametrize("name", ["harmonic-standard", "harmonic-nonstandard"])
    def test_bits_of_the_per_interval_march(self, slice_cells, name, rows, mesh):
        """The march has the bits of every interval's own step systems
        (`ode_reference.per_interval_march`) at every SLICE_CELLS."""
        _, problem = linear_case(name, rows)
        mesh = LINEAR_MESHES[mesh]()
        march = solve_forward_cg1(problem, mesh).values
        assert np.isfinite(march).all()
        assert_same_bits(march, ode_reference.per_interval_march(problem, mesh))

    @pytest.mark.parametrize("rows", [1, 2, 300])
    @pytest.mark.parametrize("name", ["harmonic-standard", "harmonic-nonstandard"])
    def test_slice_invariant_and_matches_newton(self, slice_cells, monkeypatch,
                                                name, rows):
        """The march has the bits of the one-slice march at every
        SLICE_CELLS, and stays within 1e-12 of the largest |U| of the Newton
        march, on a uniform and on a graded mesh."""
        experiment, problem = linear_case(name, rows)
        for mesh in (subdivide(experiment.initial_mesh(), 2), graded_mesh(3.0, 45)):
            sliced = solve_forward_cg1(problem, mesh)
            newton = ode_reference.newton_forward(problem, mesh)
            monkeypatch.setattr(solvers, "SLICE_CELLS", 10 ** 9)
            assert_same_bits(sliced.values, solve_forward_cg1(problem, mesh).values)
            monkeypatch.setattr(solvers, "SLICE_CELLS", slice_cells)
            assert np.isfinite(newton.values).all()
            scale = np.abs(newton.values).max()
            assert np.abs(sliced.values - newton.values).max() <= 1e-12 * scale

    def test_time_dependent_jacobian_raises(self, slice_cells):
        """A problem marked linear whose J depends on t breaks the contract
        that a step matrix depends on the step length alone: the march and
        the adjoint raise ValueError instead of reusing one interval's J."""
        problem = time_dependent_jacobian(np.array([0.5, 1.0, 2.0]))
        mesh = graded_mesh(4.0, 60)
        with pytest.raises(ValueError, match="constant in t"):
            solve_forward_cg1(problem, mesh)
        forward = ode_reference.newton_forward(problem, mesh)
        assert np.isfinite(forward.values).all()
        with pytest.raises(ValueError, match="constant in t"):
            solve_adjoint(problem, forward, 4.0, np.array([1.0, 0.0]))

    def test_nan_jacobian_row_is_nan(self, slice_cells):
        """A row whose J holds NaN (k = NaN) is NaN in the march and in the
        adjoint, not a broken contract: NaN counts as equal to NaN.  The other
        rows keep their one-row bits."""
        mesh = uniform_mesh(3.0, 27)
        k, m = np.array([50.0, np.nan, 52.0]), np.array([0.25, 0.25, 0.23])
        problem = harmonic_oscillator(k, m)
        traj = solve_forward_cg1(problem, mesh)
        phi = solve_adjoint(problem, traj, 3.0, np.array([1.0, 0.0]))
        assert np.isnan(traj.values[1]).all() and np.isnan(phi.values[1, :-1]).all()
        for row in (0, 2):
            one = harmonic_oscillator(k[row], m[row])
            alone = solve_forward_cg1(one, mesh)
            assert_same_bits(traj.values[row], alone.values[0])
            assert_same_bits(phi.values[row], solve_adjoint(
                one, alone, 3.0, np.array([1.0, 0.0])).values[0])

    def test_one_model_call_each_per_slice(self, monkeypatch):
        """One `rhs` call per slice of SLICE_CELLS rows x intervals and one
        `jacobian` call per slice of rows x distinct lengths (27 intervals of
        5 lengths, 2 rows), none per interval."""
        mesh = uniform_mesh(3.0, 27)
        assert np.unique(mesh.lengths).size == 5
        for cells, want in ((40, {"rhs": 2, "jacobian": 1}),  # 20 a slice
                            (4, {"rhs": 14, "jacobian": 3})):  # 2 a slice
            monkeypatch.setattr(solvers, "SLICE_CELLS", cells)
            calls = {"rhs": 0, "jacobian": 0}
            solve_forward_cg1(counting_calls(
                harmonic_oscillator([50.0, 49.0], [0.25, 0.26]), calls), mesh)
            assert calls == want

    def test_resonant_row_is_nan(self, slice_cells):
        """k = 50, m = -68/324 makes (I - M1) = I - (h/2) J singular in exact
        arithmetic at h = 1/9; its rounded pivot is tiny, the row's nodes
        overflow and the row is NaN at every node.  The other rows of the
        chunk keep their one-row bits."""
        mesh = uniform_mesh(3.0, 27)
        k, m = [50.0, 50.0, 52.0], [-68.0 / 324.0, 0.25, 0.23]
        traj = solve_forward_cg1(harmonic_oscillator(k, m), mesh)
        assert np.isnan(traj.values[0]).all()
        for row in (1, 2):
            alone = solve_forward_cg1(harmonic_oscillator(k[row], m[row]), mesh)
            assert np.isfinite(alone.values).all()
            assert_same_bits(traj.values[row], alone.values[0])


class TestLinearAdjoint:
    """A linear problem's adjoint runs the backward recurrence on the maps of
    the distinct sub-interval lengths, with the bits of the sliced path that
    evaluates J on the forward interpolant (`linear=False`)."""

    @pytest.mark.parametrize("mesh", sorted(LINEAR_MESHES))
    @pytest.mark.parametrize("rows", [1, 2, 300])
    @pytest.mark.parametrize("name", ["harmonic-standard", "harmonic-nonstandard"])
    def test_bits_of_the_generic_path(self, slice_cells, name, rows, mesh):
        experiment, problem = linear_case(name, rows)
        forward = solve_forward_cg1(problem, LINEAR_MESHES[mesh]())
        q = experiment.qoi
        t_star = q.t_star if isinstance(q, StandardQoi) else eval_event_time(forward, q)[0]
        generic = dataclasses.replace(problem, linear=False)
        phi = solve_adjoint(problem, forward, t_star, q.psi).values
        assert np.isfinite(phi).all()
        assert_same_bits(phi, solve_adjoint(generic, forward, t_star, q.psi).values)

    @pytest.mark.parametrize("name", ["harmonic-standard", "harmonic-nonstandard"])
    def test_terminal_rows_of_a_one_row_forward(self, slice_cells, name):
        """K = 2 terminal rows against a one-row forward, as an event-time
        estimate's psi and J(t_c)^T psi, on a dwr mesh cut inside an interval."""
        _, problem = linear_case(name, 1)
        forward = solve_forward_cg1(problem, dwr_mesh())
        t_star = 0.5 * (forward.mesh.nodes[40] + forward.mesh.nodes[41])
        terminal = np.array([[1.0, 0.0], [-3.0, 0.25]])
        phi = solve_adjoint(problem, forward, t_star, terminal).values
        generic = dataclasses.replace(problem, linear=False)
        assert phi.shape[0] == 2 and np.isfinite(phi).all()
        assert_same_bits(phi, solve_adjoint(generic, forward, t_star, terminal).values)

    def test_exact_zero_pivot_fails_only_its_row(self, slice_cells):
        """-phi' = c phi with c such that the computed M0 = sum_q w_q (1 -
        s_q) c is exactly 1 on the adjoint steps of h = 1/2: I - M0 is an
        exact zero pivot, and the flagged row is NaN before t*.  The other
        rows keep the bits of their one-row adjoints, and every row those of
        the generic path."""
        mesh = uniform_mesh(1.0, 1)
        _, wq = _segment_quadrature(subdivide(mesh, 2).nodes)
        c = exact_sum_reciprocal(wq[0] * (1.0 - _GL01_X))
        problem = constant_rates([-0.1, c, 0.5])
        forward = Trajectory(mesh, np.ones((3, 2, 1)))
        phi = solve_adjoint(problem, forward, 1.0, np.array([1.0])).values
        assert np.isnan(phi[1, :-1]).all() and phi[1, -1] == 1.0
        generic = dataclasses.replace(problem, linear=False)
        assert_same_bits(phi, solve_adjoint(generic, forward, 1.0, np.array([1.0])).values)
        for k, rate in ((0, -0.1), (2, 0.5)):
            alone = solve_adjoint(constant_rates([rate]), Trajectory(mesh, forward.values[[k]]),
                                  1.0, np.array([1.0])).values
            assert np.isfinite(alone).all()
            assert_same_bits(phi[k], alone[0])


# Values whose products and sums make the order of a sum show in its bits:
# signed zeros (a sum of -0.0 terms is +0.0 only when it starts at +0.0),
# subnormals and magnitudes that cancel, besides ordinary numbers.
SPECIAL_VALUES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                  1.0, -1.0, 0.1, 3.0, 1e16, -1e16])
VALUES = st.one_of(SPECIAL_VALUES, st.floats(-1e3, 1e3))


@st.composite
def linear_estimate_cases(draw):
    """A d = 1-4 problem du/dt = c * u + g with the constant Jacobian B of
    each row (neither has to match the other), a forward trajectory drawn
    node by node, optionally with a NaN row, and a terminal value shaped
    (d,), (M, d) or (K, d) against a one-row forward."""
    d = draw(st.integers(1, 4))
    terminal = draw(st.sampled_from(["shared", "per row", "K rows"]))
    M = 1 if terminal == "K rows" else draw(st.integers(1, 4))
    mesh = uniform_mesh(1.0, draw(st.integers(1, 6)))
    c, g = (draw(arrays(float, (M, d), elements=VALUES)) for _ in range(2))
    B = draw(arrays(float, (M, d, d), elements=VALUES))

    def per_row(a, u):
        return a.reshape(a.shape[:1] + (1,) * (u.ndim - 2) + a.shape[1:])

    def jacobian(u, t):
        J = np.empty(u.shape + (d,))
        J[...] = per_row(B, u)
        return J

    problem = OdeProblem(d, lambda u, t: per_row(c, u) * u + per_row(g, u),
                         jacobian, np.zeros((M, d)), 1.0)
    values = draw(arrays(float, (M, mesh.nodes.size, d), elements=VALUES))
    if M > 1 and draw(st.booleans()):
        values[draw(st.integers(0, M - 1))] = np.nan
    rows = ((draw(st.integers(2, 4)),) if terminal == "K rows"
            else {"shared": (), "per row": (M,)}[terminal])
    terminal_value = draw(arrays(float, rows + (d,), elements=VALUES))
    # the end, an interior node (if any) or inside an interval
    t_star = draw(st.sampled_from(sorted({1.0, mesh.nodes[-2], 0.61} - {0.0})))
    return problem, Trajectory(mesh, values), t_star, terminal_value


@given(linear_estimate_cases())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_signed_zeros_and_component_order(slice_cells, case):
    """The component-major adjoint and pairing add the d products of each
    point onto +0.0 in component order and the Gauss points in q order, as
    the whole-mesh kernels' sums over a last axis do: same bits on products
    of +-0.0, subnormals and cancelling magnitudes, and on a NaN row.  A
    reversed component or point order fails here.  A sum started at its
    first term instead of +0.0 differs only in the sign of a zero result,
    which the next sum, onto +0.0 again, erases, so no output shows it."""
    assert_kernels_match_whole_mesh(*case)
