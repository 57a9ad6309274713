"""Reproducible counter-based parameter sampling tests."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sampling_reference as ref
from adaptive_mlmc.sampling import (DistributionError, _unit_open_closed,
                                    _words, normal, sample_parameters, uniform)

SPEC = (normal(50.0, 2.0, "k"), uniform(0.225, 0.275, "m"))


def draw(spec, seed, level, index):
    """The values of one draw, shape (p,)."""
    return sample_parameters(spec, seed, level, [index])[0]


def draws(spec, seed, level, n):
    """Draws 0..n-1 in one call, shape (n, p)."""
    return sample_parameters(spec, seed, level, range(n))


def reference_draw(spec, seed, level, index):
    """One draw computed the scalar way, word by word and distribution by
    distribution, as the sampler did before it returned (M, p) arrays."""
    n_words = sum(2 if d.kind == "normal" else 1 for d in spec)
    u = _unit_open_closed(ref.words(seed, level, index, n_words))
    values = np.empty(len(spec))
    pos = 0
    for k, dist in enumerate(spec):
        if dist.kind == "uniform":
            values[k] = dist.a + (dist.b - dist.a) * u[pos]
            pos += 1
        else:
            u1, u2 = u[pos], u[pos + 1]
            z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
            values[k] = dist.a + dist.b * z
            pos += 2
    return values


class TestDistributionValidation:
    def test_uniform_needs_ordered_bounds(self):
        with pytest.raises(DistributionError):
            uniform(1.0, 1.0)

    def test_normal_needs_positive_stddev(self):
        with pytest.raises(DistributionError):
            normal(0.0, 0.0)


class TestDeterminism:
    def test_bit_identical_repeat(self):
        a = draw(SPEC, 7, 2, 13)
        b = draw(SPEC, 7, 2, 13)
        np.testing.assert_array_equal(a, b)

    def test_independent_of_generation_order(self):
        forward = sample_parameters(SPEC, 0, 1, range(10))
        backward = sample_parameters(SPEC, 0, 1, range(9, -1, -1))
        np.testing.assert_array_equal(forward, backward[::-1])

    @given(st.integers(0, 2 ** 31), st.integers(0, 8), st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_streams_distinct_across_ids(self, seed, level, index):
        base, other = sample_parameters(SPEC, seed, level, [index, index + 1])
        assert not np.array_equal(base, other)

    def test_sample_identity_recorded(self):
        """A row is identified by (seed, level, index) alone: the row of
        index 4 is the same wherever it sits in a call."""
        alone = draw(SPEC, 3, 1, 4)
        np.testing.assert_array_equal(draws(SPEC, 3, 1, 10)[4], alone)
        np.testing.assert_array_equal(
            sample_parameters(SPEC, 3, 1, [9, 4, 0])[1], alone)
        assert not np.array_equal(draw(SPEC, 3, 2, 4), alone)
        assert not np.array_equal(draw(SPEC, 4, 1, 4), alone)


MIXED = (uniform(-1.0, 3.0), normal(50.0, 2.0), normal(-0.5, 1e-3),
         uniform(0.225, 0.275))


class TestChunkedDraws:
    """The (M, p) rows equal, bit for bit, the scalar per-index draws."""

    @pytest.mark.parametrize("level", [0, 1, 2, 7])
    def test_rows_match_per_index_reference(self, level):
        indices = np.arange(0, 600)
        rows = sample_parameters(MIXED, 11, level, indices)
        assert rows.shape == (600, len(MIXED))
        reference = np.array([reference_draw(MIXED, 11, level, i)
                              for i in indices])
        assert np.array_equal(rows, reference)

    @pytest.mark.parametrize("start,size", [(0, 1), (1, 256), (517, 256),
                                            (1000, 3), (4093, 100)])
    def test_chunks_starting_mid_stream(self, start, size):
        indices = np.arange(start, start + size)
        for spec in (SPEC, MIXED, (uniform(12.0, 16.0, "b"),)):
            rows = sample_parameters(spec, 5, 3, indices)
            reference = np.array([reference_draw(spec, 5, 3, i)
                                  for i in indices])
            assert np.array_equal(rows, reference)

    @given(st.integers(0, 2 ** 32), st.integers(0, 9),
           st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_any_index_list(self, seed, level, indices):
        rows = sample_parameters(MIXED, seed, level, indices)
        for row, i in zip(rows, indices):
            assert np.array_equal(row, reference_draw(MIXED, seed, level, i))

    def test_empty_chunk(self):
        assert sample_parameters(MIXED, 0, 0, []).shape == (0, len(MIXED))


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
        words = ref.words(seed, level, index, n)
        assert words.dtype == np.uint64
        np.testing.assert_array_equal(words, reference)


class TestVectorizedWords:
    """`_words` gives, in one array pass per chunk, bit for bit the words of
    the per-index SeedSequence/Philox streams."""

    @given(st.integers(0, 2 ** 70), st.integers(0, 2 ** 33),
           st.lists(st.integers(0, 2 ** 32 - 1), max_size=12),
           st.integers(1, 9))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_index_streams(self, seed, level, indices, n):
        got = _words(seed, level, indices, n)
        assert got.dtype == np.uint64 and got.shape == (len(indices), n)
        for row, i in zip(got, indices):
            np.testing.assert_array_equal(row, ref.words(seed, level, i, n))

    @given(st.integers(0, 2 ** 70), st.integers(0, 2 ** 33),
           st.integers(0, 2 ** 32 - 40), st.integers(0, 39), st.integers(1, 9))
    @settings(max_examples=50, deadline=None)
    def test_chunk_offset_and_order(self, seed, level, start, size, n):
        indices = np.arange(start, start + size)[::-1]
        got = _words(seed, level, indices, n)
        np.testing.assert_array_equal(
            got, _words(seed, level, indices[::-1], n)[::-1])
        for row, i in zip(got, indices):
            np.testing.assert_array_equal(row, ref.words(seed, level, i, n))

    @pytest.mark.parametrize("seed,level", [(0, 0), (2 ** 32, 1), (2 ** 70, 2 ** 33),
                                            (2 ** 130, 5)])
    def test_edge_keys(self, seed, level):
        """Multi-word seeds and levels, the largest index and multi-block draws."""
        indices = [0, 1, 2 ** 31, 2 ** 32 - 1]
        for n in (1, 4, 5, 8, 9):
            got = _words(seed, level, indices, n)
            for row, i in zip(got, indices):
                np.testing.assert_array_equal(row, ref.words(seed, level, i, n))

    def test_empty_chunk(self):
        assert _words(3, 1, [], 5).shape == (0, 5)
        assert _words(3, 1, np.arange(0), 2).dtype == np.uint64

    @pytest.mark.parametrize("index", [2 ** 32, 2 ** 40, 2 ** 70, -1])
    def test_index_outside_one_word_rejected(self, index):
        """An index that SeedSequence would split into several words (or a
        negative one) is refused, not silently keyed differently."""
        with pytest.raises(ValueError, match="2\\*\\*32"):
            _words(0, 0, [5, index], 2)
        with pytest.raises(ValueError):
            sample_parameters(SPEC, 0, 0, [index])


class TestDistributionLaws:
    def test_uniform_support_open_closed(self):
        vals = draws((uniform(2.0, 3.0),), 0, 0, 2000)[:, 0]
        assert np.all(vals > 2.0)
        assert np.all(vals <= 3.0)

    def test_uniform_moments(self):
        vals = draws((uniform(0.0, 1.0),), 1, 0, 20_000)[:, 0]
        # mean 1/2 (sd of mean ~ 0.002), variance 1/12
        assert abs(vals.mean() - 0.5) < 0.01
        assert abs(vals.var() - 1.0 / 12.0) < 0.005

    def test_normal_moments(self):
        vals = draws((normal(5.0, 2.0),), 1, 0, 20_000)[:, 0]
        assert abs(vals.mean() - 5.0) < 0.05
        assert abs(vals.std() - 2.0) < 0.05

    def test_normal_third_moment(self):
        vals = draws((normal(0.0, 1.0),), 2, 0, 20_000)[:, 0]
        assert abs(np.mean(vals ** 3)) < 0.1


class TestMultiParameter:
    def test_components_uncorrelated(self):
        vals = draws(SPEC, 0, 0, 10_000)
        k = (vals[:, 0] - vals[:, 0].mean()) / vals[:, 0].std()
        m = (vals[:, 1] - vals[:, 1].mean()) / vals[:, 1].std()
        assert abs(np.mean(k * m)) < 0.05
