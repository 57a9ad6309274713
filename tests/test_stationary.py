"""Stationary 1D advection-diffusion solver, adjoint, and MLMC tests."""
import numpy as np
import pytest

from adaptive_mlmc.driver import MlmcRunConfig
from adaptive_mlmc.meshes import SpatialMesh1D, uniform_mesh
from adaptive_mlmc.solvers import Trajectory, _segment_quadrature
from adaptive_mlmc.stationary import (BVP_DEFAULT_EPSILON, BvpMlmcModel,
                                      BvpProblem, bvp_error_decomposition,
                                      bvp_initial_mesh, bvp_refinement,
                                      qoi_value, run_bvp_mlmc, solve_bvp_adjoint,
                                      solve_bvp_p1)
from adaptive_mlmc.stationary import _solve_weak

PROBLEM = BvpProblem()


def integrate_against(g, traj, breaks=()):
    """(g, traj) with Gauss quadrature split at nodes and breakpoints."""
    nodes = traj.mesh.nodes
    pts = np.unique(np.concatenate([nodes,
                                    [b for b in breaks if 0 < b < nodes[-1]]]))
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        (xq,), (wq,) = _segment_quadrature(np.array([a, b]))
        total += wq @ (np.asarray(g(xq), dtype=float) * traj(xq)[:, 0])
    return total


class TestForwardSolve:
    def test_zero_source_zero_solution(self):
        mesh = uniform_mesh(3.0, 8, SpatialMesh1D)
        u = _solve_weak(mesh, 14.0, lambda x: np.zeros_like(np.asarray(x)), ())
        np.testing.assert_allclose(u.values, 0.0)

    def test_poisson_nodal_exactness(self):
        """b = 0, f = -2: u = x(L - x) is reproduced exactly at the nodes."""
        for n in (4, 16, 33):
            mesh = uniform_mesh(3.0, n, SpatialMesh1D)
            u = _solve_weak(mesh, 0.0,
                            lambda x: np.full_like(np.asarray(x, dtype=float),
                                                   -2.0), ())
            exact = mesh.nodes * (3.0 - mesh.nodes)
            assert np.abs(u.values[:, 0] - exact).max() <= 1e-10

    def test_manufactured_solution_second_order(self):
        """u = sin(pi x / 3) with advection: L2 convergence order 2."""
        b = 14.0
        k = np.pi / 3.0
        exact = lambda x: np.sin(k * x)
        source = lambda x: -k * k * np.sin(k * x) + b * k * np.cos(k * x)
        errors = []
        for n in (16, 32, 64):
            mesh = uniform_mesh(3.0, n, SpatialMesh1D)
            u = _solve_weak(mesh, b, source, ())
            xs = np.linspace(0.0, 3.0, 1200)
            err = u(xs)[:, 0] - exact(xs)
            errors.append(np.sqrt(np.trapezoid(err ** 2, xs)))
        orders = np.log2(np.array(errors[:-1]) / errors[1:])
        assert np.all(orders > 1.9)


class TestAdjoint:
    def test_zero_weight_zero_adjoint(self):
        mesh = uniform_mesh(3.0, 8, SpatialMesh1D)
        problem = BvpProblem(psi_support=(1.0, 1.5))
        phi = _solve_weak(mesh, -14.0, lambda x: np.zeros_like(np.asarray(x)),
                          ())
        np.testing.assert_allclose(phi.values, 0.0)

    def test_symmetric_case_duality(self):
        """b = 0: (f, phi[psi]) = (psi, u[f]) to rounding."""
        mesh = uniform_mesh(3.0, 16, SpatialMesh1D)
        u_f = _solve_weak(mesh, 0.0, PROBLEM.source, PROBLEM.source_breaks)
        phi_psi = _solve_weak(mesh, 0.0, PROBLEM.psi, PROBLEM.psi_support)
        lhs = integrate_against(PROBLEM.source, phi_psi, PROBLEM.source_breaks)
        rhs = integrate_against(PROBLEM.psi, u_f, PROBLEM.psi_support)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_continuous_duality_to_discretization_order(self):
        """(f, phi) approaches (psi, u) as both meshes refine, b != 0."""
        gaps = []
        for n in (64, 128, 256):
            mesh = uniform_mesh(3.0, n, SpatialMesh1D)
            u = solve_bvp_p1(PROBLEM, 14.0, mesh)
            phi = solve_bvp_adjoint(PROBLEM, 14.0, mesh)
            lhs = integrate_against(PROBLEM.source, phi, PROBLEM.source_breaks)
            rhs = integrate_against(PROBLEM.psi, u, PROBLEM.psi_support)
            gaps.append(abs(lhs - rhs))
        assert gaps[-1] < gaps[0]
        assert gaps[-1] <= 1e-4

    def test_adjoint_mesh_refined(self):
        mesh = uniform_mesh(3.0, 12, SpatialMesh1D)
        phi = solve_bvp_adjoint(PROBLEM, 14.0, mesh)
        assert phi.mesh.n_intervals > mesh.n_intervals


class TestErrorDecomposition:
    def test_exact_solution_total_zero(self):
        """Zero source: U = u = 0 exactly, so every contribution vanishes."""
        problem = BvpProblem(source=lambda x: np.zeros_like(np.asarray(x)),
                             source_breaks=())
        mesh = uniform_mesh(3.0, 12, SpatialMesh1D)
        u = solve_bvp_p1(problem, 14.0, mesh)
        phi = solve_bvp_adjoint(problem, 14.0, mesh)
        d = bvp_error_decomposition(problem, 14.0, u, phi)
        assert abs(d.total) <= 1e-12
        assert np.abs(d.contributions).max() <= 1e-12

    def test_contributions_sum_to_single_integral(self):
        """Additivity: the per-element split equals one global integral."""
        b = 13.0
        mesh = uniform_mesh(3.0, 13, SpatialMesh1D)
        u = solve_bvp_p1(PROBLEM, b, mesh)
        phi = solve_bvp_adjoint(PROBLEM, b, mesh)
        d = bvp_error_decomposition(PROBLEM, b, u, phi)
        # independent dense quadrature of f*phi + U'*phi' - b*U'*phi
        xs = np.linspace(0.0, 3.0, 3 * 13 * 8 * 40 + 1)
        mids = 0.5 * (xs[:-1] + xs[1:])
        widths = np.diff(xs)
        du = np.array([u.slope(u.mesh.interval_of(x))[0] for x in mids])
        dphi = np.array([phi.slope(phi.mesh.interval_of(x))[0] for x in mids])
        integrand = (PROBLEM.source(mids) * phi(mids)[:, 0] + du * dphi
                     - b * du * phi(mids)[:, 0])
        total = float(widths @ integrand)
        assert d.contributions.sum() == pytest.approx(total, abs=2e-5)
        assert d.contributions.shape == (13,)
        # exact-quadrature global sum: split only at mesh nodes and breaks
        pts = np.unique(np.concatenate([u.mesh.nodes, phi.mesh.nodes,
                                        np.array([1.0, 2.5])]))
        exact_total = 0.0
        for a, c in zip(pts[:-1], pts[1:]):
            (xq,), (wq,) = _segment_quadrature(np.array([a, c]))
            mid = 0.5 * (a + c)
            du_seg = float(u.slope(u.mesh.interval_of(mid))[0])
            dphi_seg = float(phi.slope(phi.mesh.interval_of(mid))[0])
            exact_total += wq @ (PROBLEM.source(xq) * phi(xq)[:, 0]
                                 + du_seg * dphi_seg
                                 - b * du_seg * phi(xq)[:, 0])
        assert d.contributions.sum() == pytest.approx(exact_total, abs=1e-13)

    @pytest.mark.parametrize("b", [12.0, 14.0, 16.0])
    def test_effectivity_against_fine_reference(self, b):
        ref_mesh = uniform_mesh(3.0, 10_000, SpatialMesh1D)
        q_ref = qoi_value(PROBLEM, solve_bvp_p1(PROBLEM, b, ref_mesh))
        for n in (64, 128):
            mesh = uniform_mesh(3.0, n, SpatialMesh1D)
            u = solve_bvp_p1(PROBLEM, b, mesh)
            phi = solve_bvp_adjoint(PROBLEM, b, mesh)
            d = bvp_error_decomposition(PROBLEM, b, u, phi)
            eff = d.total / (q_ref - qoi_value(PROBLEM, u))
            assert 0.85 <= eff <= 1.15

    def test_dwr_reduces_largest_contribution(self):
        from adaptive_mlmc.meshes import IntervalSet, refine_intervals
        from adaptive_mlmc.refinement import dwr_select
        mesh = uniform_mesh(3.0, 12, SpatialMesh1D)
        u = solve_bvp_p1(PROBLEM, 14.0, mesh)
        phi = solve_bvp_adjoint(PROBLEM, 14.0, mesh)
        d = bvp_error_decomposition(PROBLEM, 14.0, u, phi)
        refined = refine_intervals(mesh, dwr_select(d, 0.25), 2)
        u2 = solve_bvp_p1(PROBLEM, 14.0, refined)
        phi2 = solve_bvp_adjoint(PROBLEM, 14.0, refined)
        d2 = bvp_error_decomposition(PROBLEM, 14.0, u2, phi2)
        assert np.abs(d2.contributions).max() < np.abs(d.contributions).max()


class TestQoiValue:
    def test_exact_for_linear_function(self):
        mesh = uniform_mesh(3.0, 3, SpatialMesh1D)
        u = Trajectory(mesh, (2.0 * mesh.nodes)[:, None])
        # integral of 2x over [1, 1.5] = x^2 | = 2.25 - 1 = 1.25
        assert qoi_value(PROBLEM, u) == pytest.approx(1.25, abs=1e-14)


class TestBvpMlmc:
    def test_huge_epsilon_single_level(self):
        cfg = MlmcRunConfig(epsilon=1.0, initial_mesh=bvp_initial_mesh(),
                            refinement=bvp_refinement("uniform"))
        est = run_bvp_mlmc(cfg)
        assert est.n_levels == 1
        assert est.converged

    def test_dwr_cheaper_than_uniform(self):
        model = BvpMlmcModel()
        costs = {}
        for strategy in ("dwr", "uniform"):
            cfg = MlmcRunConfig(epsilon=BVP_DEFAULT_EPSILON,
                                initial_mesh=bvp_initial_mesh(),
                                refinement=bvp_refinement(strategy),
                                master_seed=0)
            est = run_bvp_mlmc(cfg, model)
            assert est.converged
            assert est.n_levels >= 2
            costs[strategy] = est.total_cost
        assert costs["dwr"] < costs["uniform"]

    def test_seed_stability(self):
        model = BvpMlmcModel()
        values = []
        for seed in (11, 12):
            cfg = MlmcRunConfig(epsilon=BVP_DEFAULT_EPSILON,
                                initial_mesh=bvp_initial_mesh(),
                                refinement=bvp_refinement("dwr"),
                                master_seed=seed)
            values.append(run_bvp_mlmc(cfg, model).value)
        assert abs(values[0] - values[1]) <= 3.0 * np.sqrt(BVP_DEFAULT_EPSILON)


class TestProblemValidation:
    def test_psi_support_inside_domain(self):
        with pytest.raises(ValueError):
            BvpProblem(psi_support=(0.0, 1.0))
        with pytest.raises(ValueError):
            BvpProblem(psi_support=(2.0, 3.5))
