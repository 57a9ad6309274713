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
    return sample_parameters(spec, seed, level, index, 1)[0]


def draws(spec, seed, level, n):
    """Draws 0..n-1 in one call, shape (n, p)."""
    return sample_parameters(spec, seed, level, 0, n)


def reference_draw(spec, seed, level, index, words=ref.words):
    """One draw computed the scalar way, word by word and distribution by
    distribution, from the words `words` reads without a counter."""
    n_words = sum(2 if d.kind == "normal" else 1 for d in spec)
    u = _unit_open_closed(words(seed, level, index, n_words))
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
        forward = sample_parameters(SPEC, 0, 1, 0, 10)
        backward = [sample_parameters(SPEC, 0, 1, start, 1)
                    for start in range(9, -1, -1)]
        np.testing.assert_array_equal(forward, np.concatenate(backward[::-1]))

    @given(st.integers(0, 2 ** 31), st.integers(0, 8), st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_streams_distinct_across_ids(self, seed, level, index):
        base, other = sample_parameters(SPEC, seed, level, index, 2)
        assert not np.array_equal(base, other)

    def test_sample_identity_recorded(self):
        """A row is identified by (seed, level, index) alone: the row of
        index 4 is the same wherever it sits in a chunk."""
        alone = draw(SPEC, 3, 1, 4)
        np.testing.assert_array_equal(draws(SPEC, 3, 1, 10)[4], alone)
        np.testing.assert_array_equal(sample_parameters(SPEC, 3, 1, 3, 3)[1], alone)
        assert not np.array_equal(draw(SPEC, 3, 2, 4), alone)
        assert not np.array_equal(draw(SPEC, 4, 1, 4), alone)


MIXED = (uniform(-1.0, 3.0), normal(50.0, 2.0), normal(-0.5, 1e-3),
         uniform(0.225, 0.275))


class TestChunkedDraws:
    """The (M, p) rows equal, bit for bit, the scalar per-index draws."""

    @pytest.mark.parametrize("level", [0, 1, 2, 7])
    def test_rows_match_per_index_reference(self, level):
        rows = sample_parameters(MIXED, 11, level, 0, 600)
        assert rows.shape == (600, len(MIXED))
        reference = np.array([reference_draw(MIXED, 11, level, i)
                              for i in range(600)])
        assert np.array_equal(rows, reference)

    @pytest.mark.parametrize("start,size", [(0, 1), (1, 256), (517, 256),
                                            (1000, 3), (4093, 100)])
    def test_chunks_starting_mid_stream(self, start, size):
        for spec in (SPEC, MIXED, (uniform(12.0, 16.0, "b"),)):
            rows = sample_parameters(spec, 5, 3, start, size)
            reference = np.array([reference_draw(spec, 5, 3, i)
                                  for i in range(start, start + size)])
            assert np.array_equal(rows, reference)

    @given(st.integers(0, 2 ** 70), st.integers(0, 2 ** 33),
           st.integers(0, 2 ** 62),
           st.lists(st.integers(0, 30), min_size=1, max_size=8).filter(any))
    @settings(max_examples=100, deadline=None)
    def test_any_split_of_a_range(self, seed, level, start, sizes):
        """Chunks that split a range, far past 2**32 too, give the rows of
        one call over the whole range, and each row is its own draw."""
        whole = sample_parameters(MIXED, seed, level, start, sum(sizes))
        bounds = start + np.cumsum([0, *sizes])
        chunks = [sample_parameters(MIXED, seed, level, int(a), int(b - a))
                  for a, b in zip(bounds[:-1], bounds[1:])]
        assert np.array_equal(np.concatenate(chunks), whole)
        for k in (0, len(whole) - 1):
            assert np.array_equal(whole[k], reference_draw(
                MIXED, seed, level, start + k, words=ref.far_words))

    def test_empty_chunk(self):
        assert sample_parameters(MIXED, 0, 0, 7, 0).shape == (0, len(MIXED))


class TestRawWords:
    @given(st.integers(0, 2 ** 63 - 1), st.integers(0, 30), st.integers(1, 9))
    @settings(max_examples=300, deadline=None)
    def test_raw_words_match_full_range_integers(self, seed, level, n):
        """`random_raw` gives the words `Generator.integers` gives on the full
        uint64 range, so reading them raw changes no draw."""
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(level,))
        gen = np.random.Generator(np.random.Philox(seed=seq))
        reference = gen.integers(0, 2 ** 64, size=n, dtype=np.uint64)
        words = ref.words(seed, level, 0, n)
        assert words.dtype == np.uint64
        np.testing.assert_array_equal(words, reference)

    @given(st.integers(0, 2 ** 70), st.integers(0, 2 ** 33),
           st.integers(0, 300), st.integers(1, 9))
    @settings(max_examples=100, deadline=None)
    def test_advanced_stream_matches_sequential_read(self, seed, level, index, n):
        """The far-index reference agrees with reading from the stream's start."""
        np.testing.assert_array_equal(ref.far_words(seed, level, index, n),
                                      ref.words(seed, level, index, n))


class TestVectorizedWords:
    """`_words` reads a chunk's words at one counter, bit for bit the words
    each draw owns on the stream of (seed, level)."""

    @given(st.integers(0, 2 ** 70), st.integers(0, 2 ** 33),
           st.integers(0, 500), st.integers(0, 12), st.integers(1, 9))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_index_streams(self, seed, level, start, count, n):
        got = _words(seed, level, start, count, n)
        assert got.dtype == np.uint64 and got.shape == (count, n)
        for row, i in zip(got, range(start, start + count)):
            np.testing.assert_array_equal(row, ref.words(seed, level, i, n))

    @given(st.integers(0, 2 ** 70), st.integers(0, 2 ** 33),
           st.integers(2 ** 32 - 40, 2 ** 62), st.integers(0, 39), st.integers(1, 9))
    @settings(max_examples=50, deadline=None)
    def test_chunk_offset_and_order(self, seed, level, start, size, n):
        """Chunks from either side of 2**32 on: each row is its own draw
        whatever chunk it is read in."""
        got = _words(seed, level, start, size, n)
        for k, i in enumerate(range(start, start + size)):
            np.testing.assert_array_equal(got[k], _words(seed, level, i, 1, n)[0])
            np.testing.assert_array_equal(got[k], ref.far_words(seed, level, i, n))

    @pytest.mark.parametrize("seed,level", [(0, 0), (2 ** 32, 1), (2 ** 70, 2 ** 33),
                                            (2 ** 130, 5)])
    def test_edge_keys(self, seed, level):
        """Multi-word seeds and levels, indices past one word and multi-block
        draws."""
        for n in (1, 4, 5, 8, 9):
            for i in (0, 1, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 40, 2 ** 62):
                np.testing.assert_array_equal(_words(seed, level, i, 2, n),
                                              [ref.far_words(seed, level, j, n)
                                               for j in (i, i + 1)])

    def test_empty_chunk(self):
        assert _words(3, 1, 0, 0, 5).shape == (0, 5)
        assert _words(3, 1, 9, 0, 2).dtype == np.uint64


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
