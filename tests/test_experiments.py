"""Experiment presets and the ODE model adapter."""
import numpy as np
import pytest

from adaptive_mlmc.experiments import (EXPERIMENT_NAMES, OdeMlmcModel,
                                       get_experiment)
from adaptive_mlmc.models import SampleFailure
from adaptive_mlmc.qoi import NonstandardQoi, StandardQoi, eval_event_time
from adaptive_mlmc.solvers import solve_forward_cg1


class TestPresets:
    def test_all_names_resolve(self):
        for name in EXPERIMENT_NAMES:
            if name == "advection-diffusion-1d":
                continue
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
        for name in ("harmonic-standard", "harmonic-nonstandard", "lorenz",
                     "two-body"):
            exp = get_experiment(name)
            mid = np.array([0.5 * (d.a + d.b) for d in exp.distributions])
            assert exp.initial_mesh().length == pytest.approx(
                exp.make_problem(mid).horizon)


class TestOdeMlmcModel:
    def test_decomposition_only_on_request(self):
        exp = get_experiment("harmonic-standard")
        model = OdeMlmcModel(exp)
        W = np.array([[50.0, 0.25], [49.0, 0.26]])
        q1, d1 = model.evaluate(W, exp.initial_mesh(), False)
        q2, d2 = model.evaluate(W, exp.initial_mesh(), True)
        assert d1 == [None, None]
        assert all(d is not None for d in d2)
        np.testing.assert_array_equal(q1, q2)

    def test_event_time_model(self):
        exp = get_experiment("lorenz")
        model = OdeMlmcModel(exp)
        [q], [d] = model.evaluate(np.array([[1.0]]), exp.initial_mesh(), True)
        assert 0.0 < q < 2.0
        assert d.kind == "nonstandard"
        assert d.denominator != 0.0

    def test_missing_event_raises_sample_failure(self):
        exp = get_experiment("lorenz")
        model = OdeMlmcModel(exp)
        from dataclasses import replace
        impossible = replace(exp, qoi=NonstandardQoi(
            np.array([1.0, 0.0, 0.0]), 3.0, occurrence=500))
        forward = solve_forward_cg1(exp.make_problem(np.array([1.0])),
                                    exp.initial_mesh())
        with pytest.raises(SampleFailure):
            eval_event_time(forward, impossible.qoi)
        # the model turns it into a NaN QoI for that draw alone
        q, d = OdeMlmcModel(impossible).evaluate(np.array([[1.0], [0.5]]),
                                                 exp.initial_mesh(), True)
        assert np.isnan(q).all() and d == [None, None]
        # theta = 0 keeps x at 0, so the preset's crossing never happens
        q, d = model.evaluate(np.array([[0.0], [1.0]]), exp.initial_mesh(),
                              True)
        [q_alone], [d_alone] = model.evaluate(np.array([[1.0]]),
                                              exp.initial_mesh(), True)
        assert np.isnan(q[0]) and d[0] is None
        assert q[1] == q_alone and d[1].total == d_alone.total

    def test_finer_mesh_changes_qoi_less(self):
        """Successive refinements converge: |Q_4h - Q_2h| > |Q_2h - Q_h|."""
        exp = get_experiment("harmonic-standard")
        model = OdeMlmcModel(exp)
        W = np.array([[50.0, 0.25]])
        from adaptive_mlmc.meshes import uniform_mesh
        qs = [model.evaluate(W, uniform_mesh(3.0, n), False)[0][0]
              for n in (27, 54, 108, 216)]
        diffs = np.abs(np.diff(qs))
        assert diffs[2] < diffs[1] < diffs[0]
