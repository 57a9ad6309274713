"""Experiment presets and the ODE model adapter."""
import dataclasses

import numpy as np
import pytest

import ode_reference
from adaptive_mlmc.error_estimation import (estimate_event_time_error,
                                            estimate_standard_error)
from adaptive_mlmc.experiments import (EXPERIMENT_NAMES, OdeMlmcModel,
                                       get_experiment)
from adaptive_mlmc.meshes import uniform_mesh
from adaptive_mlmc.models import two_body
from adaptive_mlmc.qoi import NonstandardQoi, StandardQoi, eval_event_time
from adaptive_mlmc.refinement import build_next_mesh
from adaptive_mlmc.sampling import normal, sample_parameters, uniform
from adaptive_mlmc.solvers import _GL01_X, _segment_quadrature, solve_forward_cg1
from synthetic_problems import blow_up, exact_reciprocal, one_point_jacobian

ODE_PRESETS = ("harmonic-standard", "harmonic-nonstandard", "lorenz", "two-body")


class TestPresets:
    def test_all_names_resolve(self):
        assert EXPERIMENT_NAMES == tuple(sorted(ODE_PRESETS))
        for name in EXPERIMENT_NAMES:
            exp = get_experiment(name)
            assert exp.name == name
            assert exp.default_epsilon > 0
            assert exp.initial_intervals >= 2

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_experiment("heat-equation")

    def test_harmonic_standard_setup(self):
        exp = get_experiment("harmonic-standard")
        assert isinstance(exp.qoi, StandardQoi)
        assert exp.qoi.t_star == 3.0
        kinds = [d.kind for d in exp.distributions]
        assert kinds == ["normal", "uniform"]
        mesh = exp.initial_mesh()
        assert mesh.n_intervals == 27
        assert mesh.length == pytest.approx(3.0)

    def test_event_time_presets(self):
        for name, occurrence in [("harmonic-nonstandard", 5), ("lorenz", 2),
                                 ("two-body", 3)]:
            exp = get_experiment(name)
            assert isinstance(exp.qoi, NonstandardQoi)
            assert exp.qoi.occurrence == occurrence

    def test_initial_mesh_covers_horizon(self):
        for name in ODE_PRESETS:
            exp = get_experiment(name)
            centre = np.array([[d.centre for d in exp.distributions]])
            assert exp.initial_mesh().length == pytest.approx(
                exp.make_problem(centre).horizon)

    def test_initial_meshes_unchanged(self):
        for name, (horizon, n) in {"harmonic-standard": (3.0, 27),
                                   "harmonic-nonstandard": (3.0, 18),
                                   "lorenz": (2.0, 24),
                                   "two-body": (10.0, 40)}.items():
            np.testing.assert_array_equal(get_experiment(name).initial_mesh().nodes,
                                          np.linspace(0.0, horizon, n + 1))

    def test_probe_row_is_the_distribution_centre(self):
        """normal(mean, stddev) is probed at its mean, uniform(a, b) at (a + b)/2."""
        assert normal(50.0, 2.0).centre == 50.0
        assert uniform(0.225, 0.275).centre == 0.5 * (0.225 + 0.275)
        expected = {"harmonic-standard": [[50.0, 0.25]],
                    "harmonic-nonstandard": [[50.0, 0.25]],
                    "lorenz": [[1.0]], "two-body": [[1.985]]}
        for name in ODE_PRESETS:
            exp = get_experiment(name)
            probes = []

            def recording(W, make=exp.make_problem):
                probes.append(np.array(W))
                return make(W)
            dataclasses.replace(exp, make_problem=recording).initial_mesh()
            [probe] = probes
            np.testing.assert_allclose(probe, expected[name], rtol=1e-15)


class TestOdeMlmcModel:
    def test_decomposition_only_on_request(self):
        model = get_experiment("harmonic-standard")
        W = np.array([[50.0, 0.25], [49.0, 0.26]])
        q1, d1 = model.evaluate(W, model.initial_mesh(), False)
        q2, d2 = model.evaluate(W, model.initial_mesh(), True)
        assert d1 is None
        assert d2.contributions.shape == (2, 27) and np.isfinite(d2.total).all()
        np.testing.assert_array_equal(q1, q2)

    def test_event_time_model(self):
        model = get_experiment("lorenz")
        [q], d = model.evaluate(np.array([[1.0]]), model.initial_mesh(), True)
        assert 0.0 < q < 2.0
        # the event-time linearization scalar, not a standard QoI's 1
        [denominator] = d.denominator
        assert np.isfinite(denominator) and denominator not in (0.0, 1.0)

    def test_missing_event_is_nan_in_its_row(self):
        model = get_experiment("lorenz")
        impossible = dataclasses.replace(model, qoi=NonstandardQoi(
            np.array([1.0, 0.0, 0.0]), 3.0, occurrence=500))
        forward = solve_forward_cg1(model.make_problem(np.array([[1.0]])),
                                    model.initial_mesh())
        assert np.isnan(eval_event_time(forward, impossible.qoi)).all()
        # the model gives a NaN QoI and an all-NaN decomposition row
        q, d = impossible.evaluate(np.array([[1.0], [0.5]]), model.initial_mesh(),
                                   True)
        assert np.isnan(q).all() and all_nan(d, [0, 1])
        # theta = 0 keeps x at 0, so the preset's crossing never happens
        q, d = model.evaluate(np.array([[0.0], [1.0]]), model.initial_mesh(),
                              True)
        [q_alone], d_alone = model.evaluate(np.array([[1.0]]),
                                            model.initial_mesh(), True)
        assert np.isnan(q[0]) and all_nan(d, [0])
        assert q[1] == q_alone and d.total[1] == d_alone.total[0]

    def test_finer_mesh_changes_qoi_less(self):
        """Successive refinements converge: |Q_4h - Q_2h| > |Q_2h - Q_h|."""
        model = get_experiment("harmonic-standard")
        W = np.array([[50.0, 0.25]])
        from adaptive_mlmc.meshes import uniform_mesh
        qs = [model.evaluate(W, uniform_mesh(3.0, n), False)[0][0]
              for n in (27, 54, 108, 216)]
        diffs = np.abs(np.diff(qs))
        assert diffs[2] < diffs[1] < diffs[0]


def all_nan(d, rows):
    """Rows `rows` of the decomposition carry no estimate: NaN contributions
    and totals (a standard QoI's denominator stays 1)."""
    return np.isnan(d.contributions[rows]).all() and np.isnan(d.total[rows]).all()


def chunk(name, rows=40, seed=3):
    exp = get_experiment(name)
    return exp, sample_parameters(exp.distributions, seed, 1, 0, rows)


def dwr_mesh(exp, W):
    """The DWR refinement of the initial mesh driven by the bias profile of
    the chunk's estimates."""
    mesh = exp.initial_mesh()
    _, d = exp.evaluate(W, mesh, True)
    ok = np.isfinite(d.total)
    profile = np.nansum(d.contributions[ok] / d.denominator[ok, None], axis=0)
    new_mesh, _ = build_next_mesh(mesh, None, profile, "dwr", exp.dwr_marking)
    return new_mesh


def assert_row_equal(q_alone, d_alone, q, d, k):
    """Bitwise equality of a one-row call with row k of the chunk's."""
    assert np.array_equal(q_alone, q[k:k + 1], equal_nan=True)
    for name in ("contributions", "total", "denominator"):
        assert np.array_equal(getattr(d_alone, name), getattr(d, name)[k:k + 1],
                              equal_nan=True)


class TestBatchedOracle:
    """A chunk of draws is solved as one problem; every row keeps the bits of a
    one-row call, and matches the per-row path the engine replaced."""

    @pytest.mark.parametrize("refined", [False, True], ids=["uniform", "dwr"])
    @pytest.mark.parametrize("name", ODE_PRESETS)
    def test_row_equals_its_own_chunk(self, name, refined):
        exp, W = chunk(name)
        mesh = dwr_mesh(exp, W) if refined else exp.initial_mesh()
        q, d = exp.evaluate(W, mesh, True)
        assert np.isfinite(q).sum() >= len(W) - 2
        for k in range(len(W)):
            assert_row_equal(*exp.evaluate(W[k:k + 1], mesh, True), q, d, k)
        q_plain, _ = exp.evaluate(W, mesh, False)
        assert np.array_equal(q_plain, q, equal_nan=True)

    @pytest.mark.parametrize("refined", [False, True], ids=["uniform", "dwr"])
    @pytest.mark.parametrize("name", ODE_PRESETS)
    def test_matches_per_row_reference(self, name, refined):
        exp, W = chunk(name)
        mesh = dwr_mesh(exp, W) if refined else exp.initial_mesh()
        q, d = exp.evaluate(W, mesh, True)
        for k, w in enumerate(W):
            try:
                value, contributions, denominator = ode_reference.sample(
                    exp.make_problem(w[None]), mesh, exp.qoi)
            except ode_reference.RowFailed:
                # a missing crossing is a NaN QoI, a grazing one a NaN estimate
                assert (np.isnan(q[k]) and all_nan(d, [k])) or np.isnan(d.total[k])
                continue
            np.testing.assert_allclose(q[k], value, rtol=1e-12)
            scale = np.abs(contributions).max()
            n = contributions.size  # an event-time row stops at its crossing
            np.testing.assert_allclose(d.contributions[k, :n], contributions,
                                       rtol=0.0, atol=1e-9 * scale)
            assert np.isnan(d.contributions[k, n:]).all()
            np.testing.assert_allclose(d.denominator[k], denominator, rtol=1e-9)

    @pytest.mark.parametrize("name", ODE_PRESETS)
    def test_rows_equal_one_row_estimates(self, name):
        """Each row of the chunk's decomposition is, bit for bit, the one-row
        estimate of that draw's own trajectory, NaN past its own end; a row
        without a QoI is NaN throughout."""
        exp, W = chunk(name)
        # theta = 0 never crosses (lorenz) or collides (two-body); m = 20
        # slows the oscillator below five crossings; m = -68/324 makes the
        # cG(1) step system of the initial mesh's h = 1/9 singular
        W[5] = {"lorenz": 0.0, "two-body": 0.0, "harmonic-nonstandard": (50.0, 20.0),
                "harmonic-standard": (50.0, -68.0 / 324.0)}[name]
        mesh = exp.initial_mesh()
        q, d = exp.evaluate(W, mesh, True)
        assert np.isnan(q[5]) and all_nan(d, [5])
        for k in np.flatnonzero(np.isfinite(q)):
            problem = exp.make_problem(W[k:k + 1])
            forward = solve_forward_cg1(problem, mesh)
            alone = estimate_standard_error(problem, forward, exp.qoi) \
                if isinstance(exp.qoi, StandardQoi) \
                else estimate_event_time_error(problem, forward, exp.qoi, q[k])
            n = alone.contributions.shape[1]
            assert np.array_equal(d.contributions[k, :n], alone.contributions[0])
            assert np.isnan(d.contributions[k, n:]).all()
            assert np.array_equal(d.total[k:k + 1], alone.total, equal_nan=True)
            assert np.array_equal(d.denominator[k:k + 1], alone.denominator,
                                  equal_nan=True)


def synthetic_experiment(make_problem):
    """A standard-QoI experiment at t* = 1 whose rows are built from W[:, 0]."""
    return OdeMlmcModel(name="synthetic", distributions=(uniform(0.0, 1.0),),
                        make_problem=lambda W: make_problem(W[:, 0]),
                        qoi=StandardQoi(np.array([1.0]), 1.0),
                        initial_intervals=2, default_epsilon=1.0)


class TestFailureIsolation:
    """A failing row comes back NaN; every other row keeps its one-row bits."""

    def assert_isolated(self, model, W, bad, mesh):
        q, d = model.evaluate(W, mesh, True)
        assert np.flatnonzero(np.isnan(q)).tolist() == [bad]
        assert all_nan(d, [bad])
        for k in range(len(W)):
            if k != bad:
                assert_row_equal(*model.evaluate(W[k:k + 1], mesh, True), q, d, k)

    def test_missing_fifth_crossing(self):
        """m = 20 slows the oscillator to fewer than five zero crossings."""
        exp = get_experiment("harmonic-nonstandard")
        W = np.array([[50.0, 0.25], [49.0, 0.24], [50.0, 20.0], [51.0, 0.26]])
        self.assert_isolated(exp, W, 2, exp.initial_mesh())

    def test_two_body_collision(self):
        """theta = 0 starts at rest and falls into the centre."""
        exp = get_experiment("two-body")
        W = np.array([[1.98], [0.0], [1.99]])
        self.assert_isolated(exp, W, 1, exp.initial_mesh())
        assert not np.isfinite(solve_forward_cg1(two_body(0.0),
                                                 exp.initial_mesh()).values).all()

    def test_singular_newton_matrix(self):
        mesh = uniform_mesh(1.0, 2)
        tq, wq = _segment_quadrature(mesh.nodes)
        problem = one_point_jacobian(lambda u, t: -0.1 * u, tq[0, 2],
                                     exact_reciprocal((wq * _GL01_X)[0, 2]))
        W = np.array([[0.0], [0.0], [1.0], [0.0]])
        self.assert_isolated(synthetic_experiment(problem), W, 2, mesh)

    def test_divergence(self):
        """u' = u^2 from u(0) = 2 blows up at t = 0.5; 0.5 and 0.3 do not."""
        W = np.array([[0.5], [2.0], [0.3]])
        self.assert_isolated(synthetic_experiment(blow_up), W, 1,
                             uniform_mesh(1.0, 8))
