"""Stationary 1D advection-diffusion solver, adjoint, and MLMC tests."""
import gc
import sys
import threading
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad
from scipy.linalg import solve_banded

from adaptive_mlmc import driver
from adaptive_mlmc.driver import CHUNK_SIZE, MlmcRunConfig, run_adaptive_mlmc
from adaptive_mlmc.meshes import Mesh1D, subdivide, uniform_mesh
from adaptive_mlmc.refinement import dwr_select
from adaptive_mlmc.solvers import Trajectory, _segment_quadrature
from adaptive_mlmc import stationary
from adaptive_mlmc.stationary import (ADJOINT_REFINE_FACTOR, PSI_SUPPORT,
                                      SOURCE_BREAKS, BvpMlmcModel, BvpPlan,
                                      bvp_error_decomposition, psi, qoi_value,
                                      solve_bvp_adjoint, solve_bvp_p1, source)
from adaptive_mlmc.stationary import _load_vector, _segment_bounds, _solve_assembled
from stationary_reference import (gauss_segment_decomposition, solve_weak,
                                  stacked_solve_banded)


def zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def solve_one(b, mesh):
    """Forward solution, adjoint solution and per-element contributions for
    one speed b."""
    w = np.array([b])
    plan = BvpPlan.build(mesh)
    U = solve_bvp_p1(plan, w)
    Phi = solve_bvp_adjoint(plan, w)
    c = bvp_error_decomposition(plan, w, U, Phi)
    return (Trajectory(mesh, U[0, :, None]),
            Trajectory(plan.adjoint_mesh, Phi[0, :, None]), c[0])


def slopes(traj):
    """Per-interval slopes of a one-component trajectory."""
    return np.diff(traj.values[:, 0]) / traj.mesh.lengths


def halve(mesh, selection):
    """Split the selected intervals in two."""
    counts = np.ones(mesh.n_intervals, dtype=int)
    counts[selection] = 2
    return subdivide(mesh, counts)


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
        mesh = uniform_mesh(3.0, 8)
        U = solve_weak(mesh, np.array([14.0, -3.0]), zero, ())
        assert U.shape == (2, 9)
        np.testing.assert_allclose(U, 0.0)

    def test_poisson_nodal_exactness(self):
        """b = 0, f = -2: u = x(L - x) is reproduced exactly at the nodes."""
        for n in (4, 16, 33):
            mesh = uniform_mesh(3.0, n)
            [U] = solve_weak(mesh, np.array([0.0]),
                              lambda x: np.full_like(np.asarray(x, dtype=float),
                                                     -2.0), ())
            exact = mesh.nodes * (3.0 - mesh.nodes)
            assert np.abs(U - exact).max() <= 1e-10

    def test_manufactured_solution_second_order(self):
        """u = sin(pi x / 3) with advection: L2 convergence order 2."""
        b = 14.0
        k = np.pi / 3.0
        exact = lambda x: np.sin(k * x)
        source = lambda x: -k * k * np.sin(k * x) + b * k * np.cos(k * x)
        errors = []
        for n in (16, 32, 64):
            mesh = uniform_mesh(3.0, n)
            [u] = solve_weak(mesh, np.array([b]), source, ())
            u = Trajectory(mesh, u[:, None])
            xs = np.linspace(0.0, 3.0, 1200)
            err = u(xs)[:, 0] - exact(xs)
            errors.append(np.sqrt(np.trapezoid(err ** 2, xs)))
        orders = np.log2(np.array(errors[:-1]) / errors[1:])
        assert np.all(orders > 1.9)

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=40),
           st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_never_singular(self, widths, speeds):
        """Any mesh, any real speeds: the stacked solve returns the solution."""
        mesh = Mesh1D(np.concatenate([[0.0], np.cumsum(widths)]))
        U = solve_weak(mesh, np.array(speeds), lambda x: np.ones_like(x), ())
        F = _load_vector(mesh, lambda x: np.ones_like(x), ())[1:-1]
        h = mesh.lengths
        for b, u in zip(speeds, U):
            x = u[1:-1]
            Ax = -(1 / h[:-1] + 1 / h[1:]) * x
            Ax[:-1] += (1 / h[1:-1] + 0.5 * b) * x[1:]
            Ax[1:] += (1 / h[1:-1] - 0.5 * b) * x[:-1]
            scale = np.abs(Ax).max() + np.abs(F).max()
            assert np.all(np.isfinite(u))
            assert np.abs(Ax - F).max() <= 1e-9 * scale


    @pytest.mark.parametrize("speeds", [[14.0], [12.0, -3.0, 16.0]])
    def test_one_unknown_per_system(self, speeds):
        """Two elements leave each system one interior unknown: one system,
        which solve_banded divides through, and several stacked, which it
        hands to LAPACK, give solve_banded's bits."""
        mesh = Mesh1D(np.array([0.0, 1.2, 3.0]))
        F, inv_h = _load_vector(mesh, source, SOURCE_BREAKS), 1.0 / mesh.lengths
        U = _solve_assembled(F, inv_h, np.array(speeds))
        assert U.shape == (len(speeds), 3) and np.all(U[:, 1] != 0.0)
        assert np.array_equal(U, stacked_solve_banded(F, inv_h, np.array(speeds)))

    @pytest.mark.parametrize("elements", [3, 13])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_speed_raises(self, elements, bad):
        """A non-finite speed raises solve_banded's ValueError.  (With two
        elements the speed enters no coefficient.)"""
        mesh = uniform_mesh(3.0, elements)
        F, inv_h = _load_vector(mesh, source, SOURCE_BREAKS), 1.0 / mesh.lengths
        for speeds in ([bad], [14.0, bad]):
            for solve in (_solve_assembled, stacked_solve_banded):
                with pytest.raises(ValueError,
                                   match="^array must not contain infs or NaNs$"):
                    solve(F, inv_h, np.array(speeds))

    @pytest.mark.parametrize("name", ["uniform-13", "dwr-refined", "ulp-below-break"])
    def test_stacked_solves_equal_solve_banded(self, name):
        """Forward and adjoint solves of 256 speeds give solve_banded's bits."""
        plan = BvpPlan.build(ORACLE_MESHES[name])
        w = TestBatchedOracle.SPEEDS[:256]
        for data, speeds in ((plan.forward, w), (plan.adjoint, -w)):
            assert np.array_equal(_solve_assembled(*data, speeds),
                                  stacked_solve_banded(*data, speeds))


class TestAdjoint:
    def test_zero_weight_zero_adjoint(self):
        mesh = uniform_mesh(3.0, 8)
        Phi = solve_weak(mesh, np.array([-14.0]), zero, ())
        np.testing.assert_allclose(Phi, 0.0)

    def test_symmetric_case_duality(self):
        """b = 0: (f, phi[psi]) = (psi, u[f]) to rounding."""
        mesh = uniform_mesh(3.0, 16)
        b = np.array([0.0])
        u_f = Trajectory(mesh, solve_weak(mesh, b, source, SOURCE_BREAKS)[0, :, None])
        phi_psi = Trajectory(mesh, solve_weak(mesh, b, psi, PSI_SUPPORT)[0, :, None])
        lhs = integrate_against(source, phi_psi, SOURCE_BREAKS)
        rhs = integrate_against(psi, u_f, PSI_SUPPORT)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_continuous_duality_to_discretization_order(self):
        """(f, phi) approaches (psi, u) as both meshes refine, b != 0."""
        gaps = []
        for n in (64, 128, 256):
            u, phi, _ = solve_one(14.0, uniform_mesh(3.0, n))
            lhs = integrate_against(source, phi, SOURCE_BREAKS)
            rhs = integrate_against(psi, u, PSI_SUPPORT)
            gaps.append(abs(lhs - rhs))
        assert gaps[-1] < gaps[0]
        assert gaps[-1] <= 1e-4

    def test_adjoint_mesh_refined(self):
        mesh = uniform_mesh(3.0, 12)
        plan = BvpPlan.build(mesh)
        Phi = solve_bvp_adjoint(plan, np.array([14.0, 12.0]))
        assert plan.adjoint_mesh.n_intervals > mesh.n_intervals
        assert Phi.shape == (2, plan.adjoint_mesh.nodes.size)


class TestErrorDecomposition:
    def test_exact_solution_total_zero(self, monkeypatch):
        """Zero source: U = u = 0 exactly, so every contribution vanishes."""
        monkeypatch.setattr(stationary, "source", zero)
        mesh = uniform_mesh(3.0, 12)
        _, _, d = solve_one(14.0, mesh)
        assert abs(d.sum()) <= 1e-12
        assert np.abs(d).max() <= 1e-12

    def test_contributions_sum_to_single_integral(self):
        """Additivity: the per-element split equals one global integral."""
        b = 13.0
        mesh = uniform_mesh(3.0, 13)
        u, phi, d = solve_one(b, mesh)
        # independent dense quadrature of f*phi + U'*phi' - b*U'*phi
        xs = np.linspace(0.0, 3.0, 3 * 13 * 8 * 40 + 1)
        mids = 0.5 * (xs[:-1] + xs[1:])
        widths = np.diff(xs)
        du = slopes(u)[u.mesh.interval_of(mids)]
        dphi = slopes(phi)[phi.mesh.interval_of(mids)]
        integrand = (source(mids) * phi(mids)[:, 0] + du * dphi
                     - b * du * phi(mids)[:, 0])
        total = float(widths @ integrand)
        assert d.sum() == pytest.approx(total, abs=2e-5)
        assert d.shape == (13,)
        # exact-quadrature global sum: split only at mesh nodes and breaks
        pts = np.unique(np.concatenate([u.mesh.nodes, phi.mesh.nodes,
                                        np.array([1.0, 2.5])]))
        exact_total = 0.0
        for a, c in zip(pts[:-1], pts[1:]):
            (xq,), (wq,) = _segment_quadrature(np.array([a, c]))
            mid = 0.5 * (a + c)
            du_seg = float(slopes(u)[u.mesh.interval_of(mid)])
            dphi_seg = float(slopes(phi)[phi.mesh.interval_of(mid)])
            exact_total += wq @ (source(xq) * phi(xq)[:, 0]
                                 + du_seg * dphi_seg
                                 - b * du_seg * phi(xq)[:, 0])
        assert d.sum() == pytest.approx(exact_total, abs=1e-13)

    @pytest.mark.parametrize("b", [12.0, 14.0, 16.0])
    def test_effectivity_against_fine_reference(self, b):
        ref_mesh = uniform_mesh(3.0, 10_000)
        ref_plan = BvpPlan.build(ref_mesh)
        [q_ref] = qoi_value(ref_plan, solve_bvp_p1(ref_plan, np.array([b])))
        for n in (64, 128):
            mesh = uniform_mesh(3.0, n)
            u, _, d = solve_one(b, mesh)
            [q] = qoi_value(BvpPlan.build(mesh), u.values.T)
            eff = d.sum() / (q_ref - q)
            assert 0.85 <= eff <= 1.15

    def test_dwr_reduces_largest_contribution(self):
        mesh = uniform_mesh(3.0, 12)
        _, _, d = solve_one(14.0, mesh)
        refined = halve(mesh, dwr_select(d[None], 0.25))
        _, _, d2 = solve_one(14.0, refined)
        assert np.abs(d2).max() < np.abs(d).max()


class TestQoiValue:
    def test_exact_for_linear_function(self):
        mesh = uniform_mesh(3.0, 3)
        U = np.array([2.0 * mesh.nodes, -mesh.nodes])
        # integral of 2x over [1, 1.5] = x^2 | = 2.25 - 1 = 1.25
        np.testing.assert_allclose(qoi_value(BvpPlan.build(mesh), U),
                                   [1.25, -0.625],
                                   atol=1e-14)


def reference_sample(b, mesh):
    """The per-sample path the batched functions replace, kept as the oracle:
    one `solve_banded` per solve, a `Trajectory`-based QoI loop and the
    Gauss-segment decomposition.  Returns (QoI, contributions, S_tau)."""
    def solve(mesh, advection, g, breaks):
        F = _load_vector(mesh, g, breaks)
        h = mesh.lengths
        ab = np.zeros((3, mesh.n_intervals - 1))
        ab[0, 1:] = 1.0 / h[1:-1] + 0.5 * advection
        ab[1, :] = -(1.0 / h[:-1] + 1.0 / h[1:])
        ab[2, :-1] = 1.0 / h[1:-1] - 0.5 * advection
        values = np.zeros((mesh.nodes.size, 1))
        values[1:-1, 0] = solve_banded((1, 1), ab, F[1:-1])
        return Trajectory(mesh, values)

    u = solve(mesh, float(b), source, SOURCE_BREAKS)
    phi = solve(subdivide(mesh, ADJOINT_REFINE_FACTOR), -float(b),
                psi, PSI_SUPPORT)
    lo, hi = PSI_SUPPORT
    q = 0.0
    pts = _segment_bounds(mesh.nodes, (lo, hi))
    for a, c in zip(pts[:-1], pts[1:]):
        mid = 0.5 * (a + c)
        if lo <= mid <= hi:
            q += (c - a) * float(u(mid)[0])
    [contributions], [magnitudes] = gauss_segment_decomposition(
        mesh, np.array([float(b)]), u.values.T, phi.values.T)
    return q, contributions, magnitudes


# How far the moment form may sit from the Gauss-segment oracle.  Both paths
# compute e_tau from the same U, Phi and Gauss points as sums of products whose
# magnitudes add up to S_tau, and a term that passes through N roundings
# carries a relative error of at most N u to first order in u (Higham,
# Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.1).  So
# |moment form - oracle| <= C u S_tau with C the two longest chains added up:
R = ADJOINT_REFINE_FACTOR
# segments one sum gathers: the R sub-elements of an element (two for a
# sub-hat), the two source breaks, and one segment an ulp wide whose midpoint
# rounds onto the node before it
ELEMENT_SEGMENTS, HAT_SEGMENTS = R + 3, 2 + 3
GAUSS_CHAIN = (2                       # phi_q = (1 - s) Phi_j + s Phi_j+1
               + 2                     # times b U', itself a product
               + 3                     # f phi + U' phi' - b U' phi, times w_q
               + 4                     # five points summed
               + ELEMENT_SEGMENTS - 1)  # segments summed onto their element
MOMENT_CHAIN = (2 + 4 + HAT_SEGMENTS - 1  # F_tk, H_tk: g w_q (1 - s), points, segments
                + 1 + R                 # times Phi_{r tau + k}, summed over k
                + 2 + 2)                # times w U', and the three terms summed
# U' phi': the oracle weighs U' dPhi_j / h_j by its rounded Gauss weights,
# while the moment form telescopes it, exactly; the weights of a segment add
# up to h_j within a rounding of the width, of each weight and of the Gauss
# rule's own weights (two), and h_j itself is rounded once more
DATA_ROUNDINGS = 1 + 1 + 2 + 1
C = GAUSS_CHAIN + MOMENT_CHAIN + DATA_ROUNDINGS
U_ROUND = 2.0 ** -53


def assert_within_rounding(d, ref):
    """Contributions and totals of `d` against the oracle's [(QoI,
    contributions, S_tau)]: each contribution within C u S_tau, and each total,
    a sum of n contributions on both sides, within (C + 2 (n - 1)) u sum S_tau."""
    contributions = np.array([r[1] for r in ref])
    magnitudes = np.array([r[2] for r in ref])
    assert np.all(np.abs(d.contributions - contributions)
                  <= C * U_ROUND * magnitudes)
    n = contributions.shape[1]
    assert np.all(np.abs(d.total - contributions.sum(axis=1))
                  <= (C + 2 * (n - 1)) * U_ROUND * magnitudes.sum(axis=1))


def _dwr_mesh():
    mesh = uniform_mesh(3.0, 12)
    for _ in range(2):
        _, contributions, _ = reference_sample(14.0, mesh)
        mesh = halve(mesh, dwr_select(contributions[None], 0.25))
    return mesh


ORACLE_MESHES = {
    "uniform-12": uniform_mesh(3.0, 12),
    "uniform-13": uniform_mesh(3.0, 13),  # breaks inside elements
    "dwr-refined": _dwr_mesh(),
    "node-on-break": Mesh1D(np.array(
        [0.0, 0.35, 0.8, 1.0, 1.3, 1.45, 1.9, 2.2, 2.5, 2.9, 3.0])),
    "uniform-200": uniform_mesh(3.0, 200),
    # the segment from this node to the break 1.0 is one ulp wide, so two of
    # its Gauss points round onto the node, which closes the element before it
    "ulp-below-break": Mesh1D(np.array(
        [0.0, 0.7, np.nextafter(1.0, 0.0), 2.0, 3.0])),
}


class TestBatchedOracle:
    """The batched path gives every sample the QoI bits of the per-sample path,
    and its error decomposition to rounding."""

    SPEEDS = np.random.default_rng(0).uniform(12.0, 16.0, 500)

    @pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
    def test_bitwise_equal_to_per_sample_path(self, name):
        mesh = ORACLE_MESHES[name]
        q, d = BvpMlmcModel().evaluate(self.SPEEDS[:, None], mesh, True)
        ref = [reference_sample(b, mesh) for b in self.SPEEDS]
        assert np.array_equal(q, [r[0] for r in ref])
        assert_within_rounding(d, ref)
        # each row's total is its own sum, bit for bit
        assert np.array_equal(d.total, d.contributions.sum(axis=1))
        assert np.array_equal(d.denominator, np.ones(len(q)))

    @pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
    def test_row_equals_its_own_chunk(self, name):
        """evaluate(W)[k] == evaluate(W[k:k+1]): chunking cannot move a bit."""
        mesh = ORACLE_MESHES[name]
        model = BvpMlmcModel()
        W = self.SPEEDS[:, None]
        q, d = model.evaluate(W, mesh, True)
        for k in range(len(W)):
            [qk], dk = model.evaluate(W[k:k + 1], mesh, True)
            assert qk == q[k]
            assert np.array_equal(dk.contributions, d.contributions[k:k + 1])
            assert np.array_equal(dk.total, d.total[k:k + 1])


class TestDecompositionTruth:
    """Each contribution against adaptive quadrature of its integrand, which
    shares no code with the moment form or the Gauss-segment oracle."""

    # quad stops once its error estimate is below EPSABS, and warns (an error
    # here) if it cannot; another EPSABS covers the rounding of both sides:
    # the decomposition's is within C u S_tau, under 7e-15 as S_tau < 1.5 on
    # these meshes, and quad's sums are no longer
    EPSABS = 1e-13

    @pytest.mark.parametrize("name", ["uniform-12", "uniform-13", "node-on-break",
                                      "ulp-below-break"])
    def test_contributions_match_quad(self, name):
        mesh = ORACLE_MESHES[name]
        plan, w = BvpPlan.build(mesh), np.array([12.5, 15.5])
        U, Phi = solve_bvp_p1(plan, w), solve_bvp_adjoint(plan, w)
        d = bvp_error_decomposition(plan, w, U, Phi)
        fine = plan.adjoint_mesh.nodes
        for row, b in enumerate(w):
            du = np.diff(U[row]) / mesh.lengths
            dphi = np.diff(Phi[row]) / np.diff(fine)
            for tau, (a, c) in enumerate(zip(mesh.nodes[:-1], mesh.nodes[1:])):
                subs = slice(R * tau, R * tau + R)  # the sub-elements of tau

                def integrand(x):
                    j = np.clip(np.searchsorted(fine, x) - 1, subs.start, subs.stop - 1)
                    phi = np.interp(x, fine, Phi[row])
                    return float(source(x)) * phi + du[tau] * (dphi[j] - b * phi)

                points = [p for p in (*fine[subs][1:], *SOURCE_BREAKS) if a < p < c]
                with warnings.catch_warnings():
                    warnings.simplefilter("error", IntegrationWarning)
                    value, _ = quad(integrand, a, c, points=sorted(points),
                                    epsabs=self.EPSABS, epsrel=0.0, limit=100)
                assert abs(d[row, tau] - value) <= 2 * self.EPSABS


BREAKS = (1.0, 1.5, 2.5)  # the source's breaks and the psi support's ends


@st.composite
def oracle_meshes(draw):
    """Meshes of (0, 3) with nodes anywhere and, at each break, no node, one
    on it, or one within an ulp or a nanometre of it."""
    near = [draw(st.sampled_from([(), (b,), (np.nextafter(b, 0.0),),
                                  (np.nextafter(b, 3.0),), (b - 1e-9,),
                                  (b + 1e-9,)])) for b in BREAKS]
    anywhere = draw(st.lists(st.floats(1e-3, 3.0 - 1e-3), max_size=30))
    nodes = np.unique(np.concatenate([[0.0, 3.0], anywhere, *near]))
    # two elements at least, and each wide enough to split in four
    assume(nodes.size > 2 and np.diff(nodes).min() > 1e-12)
    return Mesh1D(nodes)


def evaluate_bits(q, d):
    return q.tobytes(), d.contributions.tobytes(), d.total.tobytes()


class TestMeshPlans:
    """`BvpMlmcModel` keeps one `BvpPlan` per live mesh."""

    W = TestBatchedOracle.SPEEDS[:300, None]

    @given(oracle_meshes(), st.sampled_from([1, 2, 300]))
    @settings(max_examples=40, deadline=None)
    def test_bitwise_equal_to_per_sample_path(self, mesh, m):
        q, d = BvpMlmcModel().evaluate(self.W[:m], mesh, True)
        ref = [reference_sample(b, mesh) for b in self.W[:m, 0]]
        assert np.array_equal(q, [r[0] for r in ref])
        assert_within_rounding(d, ref)

    def test_cached_equals_uncached(self):
        """A plan reused from the cache and one built for a twin mesh with
        equal nodes give the same bits."""
        model, mesh = BvpMlmcModel(), ORACLE_MESHES["dwr-refined"]
        first = evaluate_bits(*model.evaluate(self.W, mesh, True))
        cached = evaluate_bits(*model.evaluate(self.W, mesh, True))
        assert len(model._plans) == 1
        twin = Mesh1D(mesh.nodes.copy())
        uncached = evaluate_bits(*model.evaluate(self.W, twin, True))
        assert len(model._plans) == 2
        assert first == cached == uncached

    def test_plan_released_with_its_mesh(self):
        model, mesh = BvpMlmcModel(), uniform_mesh(3.0, 12)
        model.evaluate(self.W[:2], mesh, True)
        plan = weakref.ref(model._plans[mesh])
        del mesh
        gc.collect()
        assert plan() is None
        assert len(model._plans) == 0

    def test_plan_is_read_only(self):
        plan = BvpPlan.build(uniform_mesh(3.0, 12))
        for moment in plan.moments:
            with pytest.raises(ValueError):
                moment[0, 0] = 1.0
        with pytest.raises(AttributeError):
            plan.lengths = plan.lengths.copy()

    def test_two_threads_missing_on_one_mesh(self, monkeypatch):
        """Both threads miss the cache and build a plan: each gets the bits
        of a single-threaded run, and one plan stays cached."""
        expected = evaluate_bits(*BvpMlmcModel().evaluate(
            self.W, ORACLE_MESHES["uniform-13"], True))
        model, mesh = BvpMlmcModel(), Mesh1D(ORACLE_MESHES["uniform-13"].nodes)
        both_missed = threading.Barrier(2)
        build = BvpPlan.build

        def build_after_both_missed(mesh):
            both_missed.wait(timeout=30)
            return build(mesh)

        monkeypatch.setattr(BvpPlan, "build", build_after_both_missed)
        with ThreadPoolExecutor(2) as pool:
            results = list(pool.map(
                lambda rows: evaluate_bits(*model.evaluate(rows, mesh, True)),
                [self.W, self.W]))
        assert results == [expected, expected]
        assert len(model._plans) == 1

    def test_threads_under_contention(self):
        """Four workers with a 1 us switch interval, three calls per mesh:
        every call gives the bits of a single-threaded model, and each live
        mesh keeps one plan."""
        meshes = [Mesh1D(ORACLE_MESHES[name].nodes) for name in sorted(ORACLE_MESHES)]
        expected = [evaluate_bits(*BvpMlmcModel().evaluate(self.W[:64], mesh, True))
                    for mesh in meshes]
        model, interval = BvpMlmcModel(), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(model.evaluate, self.W[:64], meshes[k], True)
                           for k in list(range(len(meshes))) * 3]
                results = [evaluate_bits(*f.result(timeout=60)) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == expected * 3
        assert len(model._plans) == len(meshes)


class TestBvpMlmc:
    def test_huge_epsilon_single_level(self):
        cfg = MlmcRunConfig(epsilon=1.0, refinement="uniform")
        est = run_adaptive_mlmc(BvpMlmcModel(), cfg)
        assert est.n_levels == 1
        assert est.converged

    def test_dwr_cheaper_than_uniform(self):
        model = BvpMlmcModel()
        costs = {}
        for strategy in ("dwr", "uniform"):
            cfg = MlmcRunConfig(epsilon=model.default_epsilon, refinement=strategy,
                                master_seed=0)
            est = run_adaptive_mlmc(model, cfg)
            assert est.converged
            assert est.n_levels >= 2
            costs[strategy] = est.total_cost
        assert costs["dwr"] < costs["uniform"]

    def test_seed_stability(self):
        model = BvpMlmcModel()
        values = []
        for seed in (11, 12):
            cfg = MlmcRunConfig(epsilon=model.default_epsilon,
                                refinement=model.default_refinement,
                                master_seed=seed)
            values.append(run_adaptive_mlmc(model, cfg).value)
        assert abs(values[0] - values[1]) <= 3.0 * np.sqrt(model.default_epsilon)

    def test_chunking_does_not_change_the_run(self, monkeypatch):
        runs = []
        for chunk_size in (CHUNK_SIZE, 7, 1):
            monkeypatch.setattr(driver, "CHUNK_SIZE", chunk_size)
            cfg = MlmcRunConfig(epsilon=BvpMlmcModel.default_epsilon,
                                refinement=BvpMlmcModel.default_refinement,
                                master_seed=4)
            runs.append(run_adaptive_mlmc(BvpMlmcModel(), cfg))
        assert runs[0].levels[0].n_samples > 2 * CHUNK_SIZE
        for run in runs[1:]:
            assert run.sample_log.tobytes() == runs[0].sample_log.tobytes()
            assert run.value == runs[0].value
            assert run.levels == runs[0].levels
