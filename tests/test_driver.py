"""MLMC driver statistics, allocation, and adaptive-loop behavior."""
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_mlmc import driver
from adaptive_mlmc.cli import write_artifacts
from adaptive_mlmc.driver import (CHUNK_SIZE, SAMPLE_DTYPE, LevelState,
                                  MlmcError, MlmcRunConfig, _Runner,
                                  bias_and_error, level_variance,
                                  optimal_samples, run_adaptive_mlmc,
                                  take_sample)
from adaptive_mlmc.error_estimation import ErrorDecomposition
from adaptive_mlmc.experiments import get_experiment
from adaptive_mlmc.meshes import uniform_mesh
from adaptive_mlmc.sampling import sample_parameters, uniform


class TestLevelVariance:
    def test_hand_value(self):
        assert level_variance(np.array([0.0, 2.0])) == pytest.approx(2.0)

    def test_failed_samples_excluded(self):
        state = LevelState(0, uniform_mesh(1.0, 2), None, 1.0, None)
        state.samples = np.zeros(3, SAMPLE_DTYPE)
        state.samples["ok"] = [True, True, False]
        state.samples["y"] = [0.0, 2.0, 100.0]
        assert level_variance(state.ok("y")) == pytest.approx(2.0)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            level_variance(np.array([1.0]))

    @pytest.mark.filterwarnings("error")  # the overflow is reported once, as MlmcError
    def test_overflow_is_an_mlmc_error(self):
        with pytest.raises(MlmcError,
                           match=r"^the variance of 2 Y values overflows \(inf\)$"):
            level_variance(np.array([1e200, -1e200]))

    @staticmethod
    def two_pass(y):
        """The two-pass formula np.var evaluates: its mean, squares, pairwise
        sums and divisions, in that order."""
        n = y.size
        return ((y - y.sum() / n) ** 2).sum() / (n - 1)

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_matches_two_pass_formula(self, ys):
        y = np.array(ys)
        assert level_variance(y) == self.two_pass(y)

    @pytest.mark.parametrize("n", [2, 7, 8, 9, 127, 128, 129, 1000, 5413])
    def test_two_pass_bits_at_pairwise_block_edges(self, n):
        """Bit for bit the two-pass formula at the lengths where numpy's
        pairwise sum changes its blocking, on signed values of magnitude
        1e-8 to 1e5 (CI's oldest-deps job runs this on numpy 1.24)."""
        rng = np.random.default_rng(n)
        y = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8, 5, n)
        assert level_variance(y) == self.two_pass(y)


class TestBiasAndError:
    def test_negated_mean_and_its_standard_error(self):
        bias, se = bias_and_error(np.array([0.1, 0.3]))
        assert bias == pytest.approx(-0.2) and se == pytest.approx(0.1)

    def test_skips_samples_without_estimates(self):
        # NaN: a sample taken without an error estimate; one estimate has
        # a bias and no standard error
        bias, se = bias_and_error(np.array([0.4, np.nan]))
        assert bias == pytest.approx(-0.4) and math.isnan(se)

    def test_requires_an_estimate(self):
        with pytest.raises(ValueError):
            bias_and_error(np.array([np.nan]))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_mean_is_returned_without_warnings(self):
        """Totals near 1e308 overflow their sum: the bias comes back infinite,
        for the driver to report as MlmcError, and no warning fires."""
        assert bias_and_error(np.array([1e308, 1e308, np.nan]))[0] == -np.inf


class TestOptimalSamples:
    def test_hand_value(self):
        # N_l = ceil(2 * sqrt(V_l/C_l) * (sqrt(4*1) + sqrt(1*4)))
        assert optimal_samples([4.0, 1.0], [1.0, 4.0], 1.0) == [16, 4]

    def test_single_level(self):
        # N = ceil((2/eps) * V)
        assert optimal_samples([2.25], [1.0], 0.5) == [9]

    def test_validation(self):
        with pytest.raises(ValueError):
            optimal_samples([1.0], [1.0], 0.0)
        with pytest.raises(ValueError):
            optimal_samples([-1.0], [1.0], 1.0)
        with pytest.raises(ValueError):
            optimal_samples([1.0], [0.0], 1.0)

    @pytest.mark.parametrize("V,C,eps", [
        ((4.0, 1.0), (1.0, 4.0), 1.0),
        ((1.0, 0.25), (1.0, 3.0), 0.5),
        ((2.0, 2.0), (1.0, 5.0), 0.8),
        ((0.09, 0.01), (1.0, 2.5), 0.02),
    ])
    def test_exact_optimality_against_exhaustive_search(self, V, C, eps):
        """No equal-cost integer allocation achieves lower total variance.

        The proportions N_l ~ sqrt(V_l/C_l) minimize sum V_l/N_l for a fixed
        budget sum N_l C_l; the exhaustive search checks the integer version.
        """
        ours = optimal_samples(V, C, eps)
        budget = sum(n * c for n, c in zip(ours, C))
        our_var = sum(v / n for v, n in zip(V, ours))
        best = min(
            sum(v / n for v, n in zip(V, (n0, n1)))
            for n0 in range(1, int(budget / C[0]) + 1)
            for n1 in range(1, int((budget - n0 * C[0]) / C[1]) + 1)
            if n0 * C[0] + n1 * C[1] <= budget)
        # ceil rounding may cost at most the effect of one extra sample
        slack = max(v / (n * (n + 1)) for v, n in zip(V, ours))
        assert our_var <= best + slack + 1e-12

    @given(st.lists(st.tuples(st.floats(0.0, 1e6), st.floats(1e-3, 1e3)),
                    min_size=1, max_size=8),
           st.floats(1e-12, 1e3))
    @settings(max_examples=300, deadline=None)
    def test_variance_target_met(self, levels, eps):
        """The allocation meets sum V_l/N_l <= eps/2 for any variances and
        unequal costs."""
        V, C = zip(*levels)
        n = optimal_samples(V, C, eps)
        assert all(isinstance(k, int) for k in n)
        assert sum(v / max(k, 1) for v, k in zip(V, n)) <= 0.5 * eps * (1 + 1e-12)

    @pytest.mark.parametrize("eps", [1e-320, 5e-324])
    def test_overflowing_target_is_infinite(self, eps):
        """2/eps overflows: the target is inf, which `fill` refuses."""
        assert optimal_samples([1.0, 0.25], [1.0, 2.0], eps) == [float("inf")] * 2


class UnitModel:
    """What the driver reads of a model besides `evaluate`: one U(0, 1) input,
    a two-interval level-0 mesh of [0, 1] and the ODE presets' DWR marking."""

    distributions = (uniform(0.0, 1.0),)
    dwr_marking = (0.5, 3)

    def initial_mesh(self):
        return uniform_mesh(1.0, 2)


def fail_all(x):
    return np.ones(x.shape, dtype=bool)


def fail_below(x):
    return x < 0.05


class SyntheticModel(UnitModel):
    """Synthetic chunk model: Q scales with the mesh; chosen draws fail.

    `fail(x)` marks the draws that fail; like `OdeMlmcModel` on a failed
    row, the model reports each of them as a NaN QoI.
    """

    def __init__(self, fail=None, estimate=1e-9):
        self.fail = fail
        self.estimate = estimate
        self.chunks = []  # rows of each evaluate call, in call order
        self.estimated = []  # rows of each evaluate call with an estimate

    def evaluate(self, W, mesh, want_estimate):
        self.chunks.append(len(W))
        if want_estimate:
            self.estimated.append(len(W))
        x = W[:, 0]
        q = x * mesh.n_intervals
        if self.fail is not None:
            q = np.where(self.fail(x), np.nan, q)
        if not want_estimate:
            return q, None
        c = np.full((len(x), mesh.n_intervals), self.estimate / mesh.n_intervals)
        return q, ErrorDecomposition(c, c.sum(axis=1), np.ones(len(x)))


class ProfileModel(SyntheticModel):
    """Chunk model whose rows carry contributions of mixed magnitude and sign,
    a NaN tail past a draw-dependent interval and a denominator 1 + x, so a
    sum in another order or grouping changes the profile's bits."""

    def evaluate(self, W, mesh, want_estimate):
        q, _ = super().evaluate(W, mesh, False)
        if not want_estimate:
            return q, None
        x = W[:, 0]
        n = mesh.n_intervals
        c = np.sin(1e3 * x[:, None] * np.arange(1, n + 1)) * 10.0 ** (8 * x[:, None])
        c[np.arange(n) > (x * n)[:, None]] = np.nan
        return q, ErrorDecomposition(c, np.nansum(c, axis=1) / (1 + x), 1 + x)


class FuzzModel(UnitModel):
    """Chunk model whose draws below `rate` put `value` in one place: the fine
    QoI, the error totals, or some contributions (`columns` of the row).

    Otherwise Q = x + 1/n on an n-interval mesh and every contribution is
    1/n^2, so the bias estimate 1/n halves with each uniform level.
    """

    def __init__(self, rate, where, value, columns=slice(None)):
        self.rate, self.where, self.value, self.columns = rate, where, value, columns

    def evaluate(self, W, mesh, want_estimate):
        x = W[:, 0]
        n = mesh.n_intervals
        bad = x < self.rate
        q = x + 1.0 / n
        if self.where == "q_fine":
            with np.errstate(over="ignore"):  # the chosen overflow
                q = np.where(bad, self.value * x * n, q)  # fine and coarse differ
        if not want_estimate:
            return q, None
        c = np.full((len(x), n), 1.0 / n ** 2)
        total = c.sum(axis=1)
        if self.where == "total":
            total = np.where(bad, self.value, total)
        if self.where == "contributions":
            c[np.flatnonzero(bad)[:, None], np.arange(n)[self.columns]] = self.value
        return q, ErrorDecomposition(c, total, np.ones(len(x)))


def draw(level, index, seed=0):
    return sample_parameters(SyntheticModel.distributions, seed, level,
                             index, 1)[0, 0]


class TestTakeSample:
    def test_telescopes_fine_minus_coarse(self):
        model = SyntheticModel()
        state = LevelState(1, uniform_mesh(1.0, 4), uniform_mesh(1.0, 2),
                           3.0, [])
        [rec], contributions = take_sample(model, state, 0, 0, 1, want_estimate=False)
        assert rec["ok"] and rec["level"] == 1 and rec["index"] == 0
        assert rec["y"] == pytest.approx(rec["q_fine"] - rec["q_coarse"])
        assert rec["q_fine"] == pytest.approx(2.0 * rec["q_coarse"])
        assert np.isnan(rec["error_estimate"]) and np.isnan(rec["denominator"])
        assert contributions is None

    def test_level_zero_has_no_coarse_term(self):
        model = SyntheticModel()
        state = LevelState(0, uniform_mesh(1.0, 4), None, 1.0, [])
        [rec], contributions = take_sample(model, state, 0, 0, 1, want_estimate=True)
        assert rec["q_coarse"] == 0.0
        assert contributions.shape == (1, 4)
        assert rec["error_estimate"] == contributions.sum() == 1e-9
        assert rec["denominator"] == 1.0

    def test_failure_marks_record(self):
        model = SyntheticModel(fail=fail_all)
        state = LevelState(0, uniform_mesh(1.0, 4), None, 1.0, [])
        [rec], contributions = take_sample(model, state, 0, 0, 1, want_estimate=True)
        assert not rec["ok"] and contributions.shape == (0, 4)
        # a failed row carries no values
        assert all(np.isnan(rec[name]) for name in
                   ("q_fine", "q_coarse", "y", "error_estimate", "denominator"))

    def test_non_finite_error_estimate_marks_record(self):
        model = SyntheticModel(estimate=float("inf"))
        state = LevelState(0, uniform_mesh(1.0, 4), None, 1.0, [])
        [ok], _ = take_sample(model, state, 0, 0, 1, want_estimate=False)
        [failed], contributions = take_sample(model, state, 0, 0, 1,
                                              want_estimate=True)
        assert ok["ok"] and not failed["ok"] and contributions.shape == (0, 4)

    @pytest.mark.parametrize("value,columns,ok", [
        (np.nan, slice(None), False),  # no contribution at all
        (np.inf, slice(0, 1), False),
        (-np.inf, slice(-1, None), False),
        (np.nan, slice(-1, None), True),  # a NaN tail, as past an event
    ])
    def test_rows_with_no_or_an_infinite_contribution_fail(self, value, columns, ok):
        """A row whose total is finite fails when its contributions hold an
        infinite entry or no value at all; a NaN tail is a row's end."""
        model = FuzzModel(1.0, "contributions", value, columns)
        state = LevelState(0, uniform_mesh(1.0, 4), None, 1.0, [])
        rows, contributions = take_sample(model, state, 0, 0, 3, want_estimate=True)
        assert rows["ok"].tolist() == [ok] * 3
        assert contributions.shape == (3 if ok else 0, 4)

    def test_one_evaluate_call_per_mesh_and_chunk(self):
        model = SyntheticModel()
        state = LevelState(2, uniform_mesh(1.0, 4), uniform_mesh(1.0, 2),
                           3.0, [])
        rows, contributions = take_sample(model, state, 7, 5, 3,
                                          want_estimate=True)
        assert model.chunks == [3, 3]
        assert rows["index"].tolist() == [5, 6, 7] and len(contributions) == 3
        for r in rows:
            assert r["q_fine"] == 4.0 * draw(2, r["index"], seed=7)

    def test_one_draw_call_per_chunk(self, monkeypatch):
        import adaptive_mlmc.driver as driver
        calls = []

        def counting(spec, seed, level, start, count):
            calls.append((start, count))
            return sample_parameters(spec, seed, level, start, count)
        monkeypatch.setattr(driver, "sample_parameters", counting)
        state = LevelState(2, uniform_mesh(1.0, 4), uniform_mesh(1.0, 2),
                           3.0, [])
        take_sample(SyntheticModel(), state, 7, 5, 3, want_estimate=True)
        assert calls == [(5, 3)]

    def test_failed_draw_leaves_its_chunk_mates_untouched(self):
        """Failing rows fail alone; the others equal their single-draw row,
        bit for bit, and only their contributions are returned."""
        failing = [draw(1, i) < 0.05 for i in range(60)]
        assert 0 < sum(failing) < 60
        state = LevelState(1, uniform_mesh(1.0, 4), uniform_mesh(1.0, 2),
                           3.0, [])
        model = SyntheticModel(fail=fail_below)
        rows, contributions = take_sample(model, state, 0, 0, 60,
                                          want_estimate=True)
        assert rows["ok"].tolist() == [not f for f in failing]
        assert len(contributions) == 60 - sum(failing)
        for r, row in zip(rows[rows["ok"]], contributions):
            [alone], alone_contributions = take_sample(SyntheticModel(), state, 0,
                                                       int(r["index"]), 1, True)
            assert r.tobytes() == alone.tobytes()
            assert np.array_equal(row[None], alone_contributions)


class TestFill:
    @pytest.mark.parametrize("chunk_size,target", [
        (1, 10), (7, 10), (7, 600), (CHUNK_SIZE, 10), (CHUNK_SIZE, 600),
        (CHUNK_SIZE, CHUNK_SIZE + 1)])
    def test_chunks(self, chunk_size, target, monkeypatch):
        """The fewest chunks of at most CHUNK_SIZE draws, in index order."""
        monkeypatch.setattr(driver, "CHUNK_SIZE", chunk_size)
        model = SyntheticModel()
        runner = _Runner(model, MlmcRunConfig(epsilon=1.0))
        level = LevelState(0, uniform_mesh(1.0, 2), None, 1.0, [])
        runner.fill(level, target, top=False)
        assert sum(model.chunks) == target
        assert len(model.chunks) == -(-target // chunk_size)
        assert max(model.chunks) <= chunk_size
        assert level.samples["index"].tolist() == list(range(target))
        assert runner.sample_log.tobytes() == level.samples.tobytes()
        assert not level.profile.any()  # no estimate, no profile

    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("chunk_size", [1, 7, CHUNK_SIZE])
    def test_profile_sums_the_ok_rows(self, chunk_size, n, monkeypatch):
        """The bias profile is the ok rows' contributions over their
        denominators, NaN tails as 0, added one row at a time in draw order,
        so every chunk size gives its bits; failed rows add nothing."""
        monkeypatch.setattr(driver, "MAX_FAILURE_RATE", 0.5)
        monkeypatch.setattr(driver, "CHUNK_SIZE", chunk_size)
        model = ProfileModel(fail=fail_below)
        runner = _Runner(model, MlmcRunConfig(epsilon=1.0))
        level = LevelState(0, uniform_mesh(1.0, n), None, 1.0, None)
        runner.fill(level, 2 * CHUNK_SIZE + 5, top=True)
        assert not level.samples["ok"].all()
        estimated = level.samples["ok"] & ~np.isnan(level.samples["error_estimate"])
        assert np.count_nonzero(estimated) > 20
        W = sample_parameters(model.distributions, 0, 0, 0, len(level.samples))
        _, d = ProfileModel().evaluate(W[estimated], level.mesh, True)
        expected = np.zeros(n)
        for c, den in zip(d.contributions, d.denominator):
            expected = expected + np.where(np.isnan(c), 0.0, c / den)
        assert np.array_equal(level.profile, expected)

    @pytest.mark.parametrize("chunk_size", [7, CHUNK_SIZE])
    def test_log_in_rounds_aborts_as_a_recount(self, chunk_size, monkeypatch):
        """The runner keeps each round's rows and running counts: the
        failure-rate abort fires after the first round at whose end a
        recount of the whole log exceeds the rate, with that recount in its
        message, and the log is the rounds' rows in the order taken."""
        monkeypatch.setattr(driver, "CHUNK_SIZE", chunk_size)
        runners = []

        class Recording(_Runner):
            def __init__(self, *args):
                super().__init__(*args)
                runners.append(self)

        monkeypatch.setattr(driver, "_Runner", Recording)
        monkeypatch.setattr(driver, "MAX_FAILURE_RATE", 0.06)
        monkeypatch.setattr(driver, "N_SCHEDULE", (20,))
        monkeypatch.setattr(driver, "MAX_LEVELS", 4)
        model = SyntheticModel(fail=fail_below, estimate=5.0)  # builds every level
        with pytest.raises(MlmcError) as raised:
            run_adaptive_mlmc(model, MlmcRunConfig(0.1))
        runner, = runners
        ends = np.cumsum([len(rows) for rows in runner.rounds])
        log = runner.sample_log
        failed = [n - np.count_nonzero(log["ok"][:n]) for n in ends]
        fired = [f >= 5 and f > 0.06 * n for f, n in zip(failed, ends)]
        assert fired[-1] and not any(fired[:-1]) and len(ends) > 10
        assert str(raised.value) == (
            f"aborting: {failed[-1]} failed samples out of {ends[-1]} attempts "
            "exceeds the allowed rate 0.06")

        monkeypatch.setattr(driver, "MAX_FAILURE_RATE", 0.2)
        est = run_adaptive_mlmc(model, MlmcRunConfig(0.1))
        assert len(runners[-1].rounds) > 10 and est.n_levels == 4
        assert est.sample_log.tobytes() == b"".join(
            rows.tobytes() for rows in runners[-1].rounds)

    @pytest.mark.parametrize("target", [2 ** 62, 10 ** 30, 10 ** 14])
    def test_target_beyond_an_index_array(self, target):
        """A target whose rows no array can hold, or memory cannot (10**14
        rows of 57 B), fails before any draw."""
        model = SyntheticModel()
        cfg = MlmcRunConfig(epsilon=1.0)
        runner = _Runner(model, cfg)
        level = LevelState(0, uniform_mesh(1.0, 2), None, 1.0, None)
        with pytest.raises(MlmcError, match=re.escape(f"cannot take {target:.3g} ")):
            runner.fill(level, target, top=False)
        assert model.chunks == [] and len(level.samples) == 0


class TestEstimatePrefix:
    """Only the top level's draws below `estimate_below` carry an estimate;
    it starts at N_SCHEDULE[-1] and doubles while |bias| is within Z
    standard errors of sqrt(eps/2)."""

    def test_decided_hand_values(self):
        # bias -1, standard error 0: far from sqrt(eps/2) = 0.5, or on it
        assert driver.decided(np.array([1.0, 1.0, np.nan]), 0.5)
        assert not driver.decided(np.array([0.5, 0.5]), 0.5)
        # mean 1, se 1: undecided within 3 se of sqrt(eps/2) = 0.5 or 3,
        # decided 4 se from sqrt(eps/2) = 5
        assert driver.bias_and_error(np.array([0.0, 2.0])) == (-1.0, 1.0)
        assert not driver.decided(np.array([0.0, 2.0]), 0.5)
        assert not driver.decided(np.array([0.0, 2.0]), 18.0)
        assert driver.decided(np.array([0.0, 2.0]), 50.0)
        # fewer than two estimates, or an overflowed mean, decide nothing
        assert not driver.decided(np.array([5.0, np.nan]), 0.5)
        assert not driver.decided(np.array([1e308, 1e308]), 0.5)

    def test_far_bias_estimates_the_first_block(self, monkeypatch):
        """A constant estimate far from sqrt(eps/2) decides at the first
        boundary: the top level keeps exactly N_SCHEDULE[-1] estimates."""
        monkeypatch.setattr(driver, "MAX_LEVELS", 2)
        model = SyntheticModel(estimate=5.0)
        est = run_adaptive_mlmc(model, MlmcRunConfig(epsilon=0.01))
        top = est.sample_log[est.sample_log["level"] == 1]
        assert len(top) > driver.N_SCHEDULE[-1]
        estimated = ~np.isnan(top["error_estimate"])
        assert top["index"][estimated].tolist() == list(range(driver.N_SCHEDULE[-1]))

    @pytest.mark.parametrize("target", [19, 20, 21, 1000, 5000])
    def test_bias_at_the_threshold_estimates_every_draw(self, target):
        """|bias| = sqrt(eps/2) exactly with a zero standard error never
        decides, so every draw is estimated, the blocks double, and the cuts
        add at most log2(N / N_SCHEDULE[-1]) evaluate calls to the chunks."""
        model = SyntheticModel(estimate=0.5)
        runner = _Runner(model, MlmcRunConfig(epsilon=0.5))
        level = LevelState(0, uniform_mesh(1.0, 2), None, 1.0, None)
        runner.fill(level, target, top=True)
        assert not np.isnan(level.samples["error_estimate"]).any()
        assert sum(model.estimated) == target
        cuts = max(0, math.ceil(math.log2(target / driver.N_SCHEDULE[-1])))
        assert level.estimate_below == driver.N_SCHEDULE[-1] * 2 ** cuts
        assert len(model.estimated) <= -(-target // CHUNK_SIZE) + cuts

    @pytest.mark.parametrize("chunk_size", [1, 7, CHUNK_SIZE])
    def test_chunks_never_straddle_the_prefix(self, chunk_size, monkeypatch):
        """Every evaluate call on the top level is all estimated or all
        plain, at every chunk size."""
        monkeypatch.setattr(driver, "CHUNK_SIZE", chunk_size)
        model = SyntheticModel(estimate=5.0)
        runner = _Runner(model, MlmcRunConfig(epsilon=0.01))
        level = LevelState(0, uniform_mesh(1.0, 2), None, 1.0, None)
        runner.fill(level, 45, top=True)
        runner.fill(level, 300, top=True)
        estimated = ~np.isnan(level.samples["error_estimate"])
        assert level.samples["index"][estimated].tolist() == list(range(20))
        assert sum(model.estimated) == 20
        assert all(n <= chunk_size for n in model.chunks)

    @pytest.mark.parametrize("name,strategy", [
        ("harmonic-standard", "dwr"), ("two-body", "uniform")])
    def test_estimated_rows_are_the_lowest_indices(self, name, strategy):
        """On every level the ok rows with an estimate come before the ok
        rows without one."""
        experiment = get_experiment(name)
        est = run_adaptive_mlmc(experiment, MlmcRunConfig(
            epsilon=experiment.default_epsilon, refinement=strategy, master_seed=1))
        log = est.sample_log[est.sample_log["ok"]]
        for level in range(est.n_levels):
            rows = log[log["level"] == level]
            estimated = ~np.isnan(rows["error_estimate"])
            assert estimated.any()
            assert rows["index"][estimated].max() < rows["index"][~estimated].min(
                initial=np.iinfo(np.int64).max)


class TestRunConfigValidation:
    def test_epsilon_positive(self):
        with pytest.raises(ValueError):
            MlmcRunConfig(epsilon=0.0)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError,
                           match=r"^unknown refinement strategy 'bisection'$"):
            MlmcRunConfig(epsilon=1.0, refinement="bisection")

    def test_schedule_saturates(self, monkeypatch):
        """Level l warms up with N_SCHEDULE[l], and every level past the
        schedule's end with its last entry."""
        monkeypatch.setattr(driver, "MAX_LEVELS", 5)
        # a huge epsilon asks for no top-up; the bias never passes the test
        cfg = MlmcRunConfig(epsilon=1e6)
        est = run_adaptive_mlmc(SyntheticModel(estimate=1e4), cfg)
        assert not est.converged
        assert [lv.n_samples for lv in est.levels] == [100, 50, 20, 20, 20]


class TestAdaptiveRun:
    def _config(self, **kwargs):
        experiment = get_experiment("harmonic-standard")
        defaults = dict(epsilon=experiment.default_epsilon, refinement="uniform",
                        master_seed=0)
        defaults.update(kwargs)
        return experiment, MlmcRunConfig(**defaults)

    def test_huge_epsilon_single_level(self):
        model, cfg = self._config(epsilon=1e6)
        est = run_adaptive_mlmc(model, cfg)
        assert est.n_levels == 1
        assert est.converged
        assert est.levels[0].cost_per_sample == 1.0

    def test_mse_accounting(self):
        model, cfg = self._config(epsilon=1e6)
        est = run_adaptive_mlmc(model, cfg)
        assert est.mse == pytest.approx(est.total_variance + est.squared_bias)
        assert est.total_cost == pytest.approx(
            sum(lv.n_samples * lv.cost_per_sample for lv in est.levels))

    def test_adaptive_run_converges(self):
        model, cfg = self._config()
        est = run_adaptive_mlmc(model, cfg)
        assert est.converged
        assert est.squared_bias <= 0.5 * cfg.epsilon
        assert est.n_levels >= 2
        # element counts grow strictly up the hierarchy
        elems = [lv.elems for lv in est.levels]
        assert all(a < b for a, b in zip(elems, elems[1:]))
        # telescoped estimate is reproducible for the same seed
        again = run_adaptive_mlmc(*self._config())
        assert again.value == est.value

    def test_cost_model(self):
        model, cfg = self._config()
        est = run_adaptive_mlmc(model, cfg)
        elems = [lv.elems for lv in est.levels]
        for i, lv in enumerate(est.levels):
            expected = 1.0 if i == 0 else (elems[i] + elems[i - 1]) / elems[0]
            assert lv.cost_per_sample == pytest.approx(expected)

    def test_max_levels_stops_unconverged(self, monkeypatch):
        # the synthetic estimate never shrinks, so the bias test cannot pass
        monkeypatch.setattr(driver, "MAX_LEVELS", 3)
        monkeypatch.setattr(driver, "N_SCHEDULE", (8, 4))
        model = SyntheticModel(estimate=5.0)
        cfg = MlmcRunConfig(epsilon=1.0)
        est = run_adaptive_mlmc(model, cfg)
        assert not est.converged
        assert est.n_levels == 3
        assert est.squared_bias == pytest.approx(25.0)

    def test_persistent_failures_abort(self):
        cfg = MlmcRunConfig(epsilon=1.0)
        with pytest.raises(MlmcError):
            run_adaptive_mlmc(SyntheticModel(fail=fail_all), cfg)

    def test_nan_qoi_samples_are_redrawn(self, monkeypatch):
        monkeypatch.setattr(driver, "MAX_FAILURE_RATE", 0.2)
        cfg = MlmcRunConfig(epsilon=1.0)
        est = run_adaptive_mlmc(SyntheticModel(fail=fail_below), cfg)
        ok = est.sample_log["ok"]
        assert np.count_nonzero(~ok) > 0
        assert np.isfinite(est.value) and np.isfinite(est.total_variance)
        assert np.isfinite(est.sample_log["y"][ok]).all()

    @pytest.mark.parametrize("chunk_size", [1, 7, CHUNK_SIZE])
    def test_exactly_the_failing_draws_fail(self, chunk_size, monkeypatch):
        """Each failing draw is recorded failed, every other draw ok, and the
        level still reaches its sample count through redraws."""
        monkeypatch.setattr(driver, "MAX_FAILURE_RATE", 0.2)
        monkeypatch.setattr(driver, "N_SCHEDULE", (600,))
        monkeypatch.setattr(driver, "CHUNK_SIZE", chunk_size)
        cfg = MlmcRunConfig(epsilon=1.0)
        est = run_adaptive_mlmc(SyntheticModel(fail=fail_below), cfg)
        statuses = {(lv, i): ok for lv, i, ok in
                    est.sample_log[["level", "index", "ok"]].tolist()}
        assert len(statuses) == len(est.sample_log)
        assert all(ok == (draw(lv, i) >= 0.05) for (lv, i), ok in statuses.items())
        assert np.count_nonzero(~est.sample_log["ok"]) == \
            list(statuses.values()).count(False) > 0
        assert est.levels[0].n_samples >= 600

    def test_failure_rate_abort_with_partial_failures(self, monkeypatch):
        monkeypatch.setattr(driver, "MAX_FAILURE_RATE", 0.01)
        monkeypatch.setattr(driver, "N_SCHEDULE", (600,))
        cfg = MlmcRunConfig(epsilon=1.0)
        with pytest.raises(MlmcError, match="exceeds the allowed rate 0.01"):
            run_adaptive_mlmc(SyntheticModel(fail=fail_below), cfg)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_variance_is_named(self):
        """Finite QoIs whose Y variance overflows end the run with an error
        about the variance, not about an infinite sample target."""
        cfg = MlmcRunConfig(epsilon=1e-2)
        with pytest.raises(MlmcError, match=r"^the variance of 100 Y values overflows"):
            run_adaptive_mlmc(FuzzModel(0.02, "q_fine", 1e300), cfg)

    def test_overflowing_bias_square_is_an_mlmc_error(self):
        cfg = MlmcRunConfig(epsilon=1e-2)
        with pytest.raises(MlmcError,
                           match=r"^the bias estimate -1e\+300 overflows its square$"):
            run_adaptive_mlmc(FuzzModel(1.0, "total", 1e300), cfg)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_bias_mean_is_an_mlmc_error(self):
        """Error totals of 1e308 overflow the bias's mean: the run ends with
        the bias error and no warning."""
        cfg = MlmcRunConfig(epsilon=1e-2)
        with pytest.raises(MlmcError,
                           match=r"^the bias estimate -inf overflows its square$"):
            run_adaptive_mlmc(FuzzModel(1.0, "total", 1e308), cfg)

    def test_rows_without_contributions_are_redrawn(self, monkeypatch):
        """DWR draws whose contributions are all NaN under a finite total are
        failed and redrawn, and the run converges."""
        monkeypatch.setattr(driver, "MAX_FAILURE_RATE", 0.2)
        cfg = MlmcRunConfig(epsilon=1e-2, refinement="dwr")
        est = run_adaptive_mlmc(FuzzModel(0.02, "contributions", np.nan), cfg)
        assert est.converged and est.n_levels > 1
        assert np.count_nonzero(~est.sample_log["ok"]) > 0

    def test_sample_log_is_complete(self):
        model, cfg = self._config(epsilon=1e6)
        est = run_adaptive_mlmc(model, cfg)
        assert len(est.sample_log) == sum(lv.n_samples for lv in est.levels)
        assert set(est.sample_log["level"].tolist()) == {0}
        assert sorted(est.sample_log["index"].tolist()) == list(range(len(est.sample_log)))


class TestChunkDeterminism:
    @pytest.mark.parametrize("name,strategy", [
        ("harmonic-standard", "dwr"), ("two-body", "meso"), ("lorenz", "dwr")])
    def test_chunk_size_does_not_change_the_estimate(self, name, strategy,
                                                     monkeypatch):
        """The bias profile adds rows in draw order, so chunks of 256 and 7
        draws build the same meshes and sample logs, byte for byte, also
        where event-time rows carry NaN tails and denominators."""
        experiment = get_experiment(name)
        results = []
        for chunk_size in (CHUNK_SIZE, 7):
            monkeypatch.setattr(driver, "CHUNK_SIZE", chunk_size)
            cfg = MlmcRunConfig(epsilon=experiment.default_epsilon,
                                refinement=strategy, master_seed=1)
            results.append(run_adaptive_mlmc(experiment, cfg))
        assert results[0].n_levels > 1
        assert results[0].sample_log.tobytes() == results[1].sample_log.tobytes()
        assert [m.nodes.tobytes() for m in results[0].meshes] == \
               [m.nodes.tobytes() for m in results[1].meshes]
        assert results[0].value == results[1].value
        assert results[0].total_cost == results[1].total_cost
        assert [lv.variance for lv in results[0].levels] == \
               [lv.variance for lv in results[1].levels]


class TestSamplesCsv:
    def test_failed_estimated_and_plain_rows(self, tmp_path, monkeypatch):
        """A two-level run with failing draws: failed rows carry no values,
        a level's draws below N_SCHEDULE[-1] (taken while it was the top
        one) carry an error estimate and its denominator, and its later
        draws carry neither: a constant estimate far from sqrt(eps/2)
        settles the stop at the first decision, so level 0's draws past it
        are plain before level 1 exists and after."""
        monkeypatch.setattr(driver, "MAX_FAILURE_RATE", 0.2)
        monkeypatch.setattr(driver, "N_SCHEDULE", (20, 10))
        monkeypatch.setattr(driver, "MAX_LEVELS", 2)
        cfg = MlmcRunConfig(epsilon=0.01)
        est = run_adaptive_mlmc(SyntheticModel(fail=fail_below, estimate=5.0), cfg)
        write_artifacts(est, str(tmp_path))
        header, *lines = (tmp_path / "samples.csv").read_text().splitlines()
        assert header == ("level,index,status,q_fine,q_coarse,y,"
                          "error_estimate,denominator")
        rows = [line.split(",") for line in lines]
        assert all(len(r) == 8 for r in rows)
        failed = [line for line, r in zip(lines, rows) if r[2] == "failed"]
        assert failed and all(line == f"{r[0]},{r[1]},failed,,,,,"
                              for line, r in zip(lines, rows) if r[2] == "failed")
        ok = [r for r in rows if r[2] == "ok"]
        assert len(ok) + len(failed) == len(rows)
        assert [sum(r[0] == str(lv.level) for r in ok) for lv in est.levels] == \
            [lv.n_samples for lv in est.levels] and est.levels[0].n_samples > 20
        for r in ok:
            level, index = int(r[0]), int(r[1])
            fine = draw(level, index) * (2 if level == 0 else 4)
            coarse = 0.0 if level == 0 else draw(level, index) * 2
            assert [float(x) for x in r[3:6]] == [fine, coarse, fine - coarse]
        estimated = [r for r in ok if int(r[1]) < 10]
        plain = [r for r in ok if int(r[1]) >= 10]
        assert {r[0] for r in estimated} == {"0", "1"}
        assert all(float(r[6]) == pytest.approx(5.0) and r[7] == "1"
                   for r in estimated)
        assert all(r[6] == r[7] == "" for r in plain)
        # level 0 is the top level until the first level-1 row is taken
        top_until = next(k for k, r in enumerate(rows) if r[0] == "1")
        assert {k < top_until for k, r in enumerate(rows)
                if r[2] == "ok" and r[0] == "0" and int(r[1]) >= 10} == {True, False}
        # every draw index of a level appears once, in the order taken
        for lv in est.levels:
            indices = [int(r[1]) for r in rows if r[0] == str(lv.level)]
            assert indices == list(range(len(indices)))


class TestDriverFuzz:
    def test_overflowing_meso_error_allocates_without_warnings(self):
        """Contributions of 1e308 overflow meso's accumulated error to inf and
        a region's error to inf - inf = NaN: the regions whose error is not
        finite share the budget, no NaN is cast to a count, and no warning
        fires."""
        cfg = MlmcRunConfig(epsilon=1e-2, refinement="meso")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = run_adaptive_mlmc(FuzzModel(1.0, "contributions", 1e308), cfg)
        assert [lv.elems for lv in est.levels] == [2, 4, 8, 16]
        assert np.isfinite([est.value, est.total_variance, est.squared_bias]).all()

    @given(st.sampled_from([0.0, 0.004, 0.02, 0.3, 1.0]),
           st.sampled_from(["q_fine", "total", "contributions"]),
           st.sampled_from([np.nan, np.inf, -np.inf, 1e300, -1e300, 1e155, 1e308]),
           st.sampled_from([slice(None), slice(0, 1), slice(-1, None)]),
           st.sampled_from(["uniform", "dwr", "meso"]))
    @settings(max_examples=400, deadline=None)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_run_ends_finite_or_in_mlmc_error(self, rate, where, value, columns,
                                             strategy):
        """Whatever rows fail and whatever non-finite or overflowing values
        they carry, a run returns finite results or raises MlmcError, and no
        warning fires."""
        model = FuzzModel(rate, where, value, columns)
        cfg = MlmcRunConfig(epsilon=1e-2, refinement=strategy)
        try:
            est = run_adaptive_mlmc(model, cfg)
        except MlmcError:
            return
        assert np.isfinite([est.value, est.total_variance, est.squared_bias]).all()
