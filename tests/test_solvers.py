"""Forward cG(1) solver, adjoint solver, and residual-pairing tests."""
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from adaptive_mlmc import solvers
from adaptive_mlmc.experiments import get_experiment
from adaptive_mlmc.meshes import Mesh1D, MeshError, subdivide, uniform_mesh
from adaptive_mlmc.models import OdeProblem, harmonic_oscillator, lorenz, two_body
from adaptive_mlmc.qoi import StandardQoi, eval_event_time
from adaptive_mlmc.sampling import sample_parameters
from adaptive_mlmc.solvers import (ADJOINT_REFINE_FACTOR, Trajectory, _GL01_X,
                                   _segment_quadrature, residual_pairing,
                                   restrict_mesh, solve_adjoint,
                                   solve_forward_cg1)

import ode_reference
from synthetic_problems import (PiecewiseConstant, blow_up, counting_calls,
                                exact_reciprocal, one_point_jacobian)


def linear_decay(rate=1.0):
    return OdeProblem(1,
                      lambda u, t: -rate * np.asarray(u, dtype=float),
                      lambda u, t: np.full(np.shape(u)[:-1] + (1, 1), -rate),
                      np.array([[1.0]]), 1.0)


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


class TestForwardSolver:
    def test_exact_update_for_linear_decay(self):
        # cG(1) on u' = -u gives U_{n+1}/U_n = (1 - h/2)/(1 + h/2) exactly
        n = 16
        mesh = uniform_mesh(1.0, n)
        traj = solve_forward_cg1(linear_decay(), mesh)
        h = 1.0 / n
        expected = ((1.0 - h / 2.0) / (1.0 + h / 2.0)) ** np.arange(n + 1)
        np.testing.assert_allclose(traj.values[0, :, 0], expected, rtol=3e-15)

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
        """u' = -u / 10 with a Jacobian that is c at one quadrature point of
        the first interval and 0 elsewhere, in the flagged row: its Newton
        matrix 1 - w c is exactly 0 there.  The other rows iterate with
        Jacobian 0 and keep their one-row bits."""
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
    def test_galerkin_orthogonality(self):
        """The cG(1) residual is orthogonal to piecewise-constant weights."""
        problem = harmonic_oscillator(50.0, 0.25)
        mesh = uniform_mesh(3.0, 27)
        forward = solve_forward_cg1(problem, mesh)
        rng = np.random.default_rng(3)
        weights = rng.standard_normal((mesh.n_intervals, problem.dim))
        contributions = residual_pairing(problem, forward,
                                         PiecewiseConstant(mesh, weights), 3.0)
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

    @pytest.mark.parametrize("rows,cells", [(300, None), (1, 7)])
    def test_one_model_call_per_slice(self, monkeypatch, rows, cells):
        """With more than one slice, each makes one `jacobian` call in the
        adjoint and one `rhs` call in the pairing."""
        if cells is not None:
            monkeypatch.setattr(solvers, "SLICE_CELLS", cells)
        problem, forward, t_star, psi = chunk_case("harmonic-standard", rows)
        calls = {"rhs": 0, "jacobian": 0}
        counted = counting_calls(problem, calls)
        phi = solve_adjoint(counted, forward, t_star, psi)
        slices = math.ceil(phi.mesh.n_intervals / max(2, solvers.SLICE_CELLS // rows))
        assert slices > 1
        assert calls == {"rhs": 0, "jacobian": slices}
        residual_pairing(counted, forward, phi, t_star)
        assert calls == {"rhs": slices, "jacobian": slices}

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
