"""Reproducible counter-based parameter sampling tests."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_mlmc.sampling import (DistributionError, _words, normal,
                                    sample_parameters, uniform)

SPEC = (normal(50.0, 2.0, "k"), uniform(0.225, 0.275, "m"))


class TestDistributionValidation:
    def test_uniform_needs_ordered_bounds(self):
        with pytest.raises(DistributionError):
            uniform(1.0, 1.0)

    def test_normal_needs_positive_stddev(self):
        with pytest.raises(DistributionError):
            normal(0.0, 0.0)


class TestDeterminism:
    def test_bit_identical_repeat(self):
        a = sample_parameters(SPEC, 7, 2, 13)
        b = sample_parameters(SPEC, 7, 2, 13)
        np.testing.assert_array_equal(a.values, b.values)

    def test_independent_of_generation_order(self):
        forward = [sample_parameters(SPEC, 0, 1, i).values for i in range(10)]
        backward = [sample_parameters(SPEC, 0, 1, i).values
                    for i in reversed(range(10))]
        np.testing.assert_array_equal(np.array(forward),
                                      np.array(backward[::-1]))

    @given(st.integers(0, 2 ** 31), st.integers(0, 8), st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_streams_distinct_across_ids(self, seed, level, index):
        base = sample_parameters(SPEC, seed, level, index)
        other = sample_parameters(SPEC, seed, level, index + 1)
        assert not np.array_equal(base.values, other.values)

    def test_sample_identity_recorded(self):
        s = sample_parameters(SPEC, 3, 1, 4)
        assert s.sample_id == (1, 4)
        assert s.seed_path == (3, 1, 4)


class TestRawWords:
    @given(st.integers(0, 2 ** 63 - 1), st.integers(0, 30),
           st.integers(0, 10 ** 6), st.integers(1, 9))
    @settings(max_examples=300, deadline=None)
    def test_raw_words_match_full_range_integers(self, seed, level, index, n):
        """`random_raw` gives the words `Generator.integers` gives on the full
        uint64 range, so reading them raw changes no draw."""
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(level, index))
        gen = np.random.Generator(np.random.Philox(seed=seq))
        reference = gen.integers(0, 2 ** 64, size=n, dtype=np.uint64)
        words = _words(seed, level, index, n)
        assert words.dtype == np.uint64
        np.testing.assert_array_equal(words, reference)


class TestDistributionLaws:
    def test_uniform_support_open_closed(self):
        vals = np.array([sample_parameters((uniform(2.0, 3.0),), 0, 0, i)
                         .values[0] for i in range(2000)])
        assert np.all(vals > 2.0)
        assert np.all(vals <= 3.0)

    def test_uniform_moments(self):
        vals = np.array([sample_parameters((uniform(0.0, 1.0),), 1, 0, i)
                         .values[0] for i in range(20_000)])
        # mean 1/2 (sd of mean ~ 0.002), variance 1/12
        assert abs(vals.mean() - 0.5) < 0.01
        assert abs(vals.var() - 1.0 / 12.0) < 0.005

    def test_normal_moments(self):
        vals = np.array([sample_parameters((normal(5.0, 2.0),), 1, 0, i)
                         .values[0] for i in range(20_000)])
        assert abs(vals.mean() - 5.0) < 0.05
        assert abs(vals.std() - 2.0) < 0.05

    def test_normal_third_moment(self):
        vals = np.array([sample_parameters((normal(0.0, 1.0),), 2, 0, i)
                         .values[0] for i in range(20_000)])
        assert abs(np.mean(vals ** 3)) < 0.1


class TestMultiParameter:
    def test_components_uncorrelated(self):
        vals = np.array([sample_parameters(SPEC, 0, 0, i).values
                         for i in range(10_000)])
        k = (vals[:, 0] - vals[:, 0].mean()) / vals[:, 0].std()
        m = (vals[:, 1] - vals[:, 1].mean()) / vals[:, 1].std()
        assert abs(np.mean(k * m)) < 0.05

    def test_values_immutable(self):
        s = sample_parameters(SPEC, 0, 0, 0)
        with pytest.raises(ValueError):
            s.values[0] = 0.0
