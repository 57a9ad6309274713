"""New-level mesh creation: DWR selection, meso regions, and allocation."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mesh_reference
import meso_reference as ref
from adaptive_mlmc.meshes import Mesh1D, uniform_mesh
from adaptive_mlmc import refinement
from adaptive_mlmc.refinement import (allocate_meso, build_next_mesh,
                                      dwr_select, find_meso_regions,
                                      refine_meso)


def profile(*values):
    """A bias profile b_i as an (n,) array."""
    return np.array(values, dtype=float)


def pad(rows, n):
    """(M, n) matrix of ragged rows, NaN past each row's own end (an
    event-time row stops at its crossing)."""
    out = np.full((len(rows), n), np.nan)
    for k, r in enumerate(rows):
        out[k, :len(r)] = r
    return out


def accumulate(contributions):
    """The accumulated error profile E_k = |sum_{i<=k} e_i| meso splits."""
    return np.abs(np.cumsum(contributions))


class TestDwrSelect:
    def test_half_fraction_hand_case(self):
        # |b| = (3, 5, 1); ceil(0.5 * 3) = 2 -> indices {1, 0}
        assert dwr_select(profile(3.0, -5.0, 1.0), 0.5).tolist() == [0, 1]

    def test_fraction_one_selects_all(self):
        assert dwr_select(profile(1.0, 2.0, 3.0), 1.0).tolist() == [0, 1, 2]

    def test_ties_break_to_lower_index(self):
        assert dwr_select(profile(2.0, 2.0, 2.0), 0.5).tolist() == [0, 1]

    def test_ceil_of_fraction(self):
        # ceil(0.25 * 5) = 2
        assert len(dwr_select(profile(5, 4, 3, 2, 1), 0.25)) == 2

    def test_zeros_are_not_counted(self):
        """Intervals past every sample's crossing carry 0: N counts only the
        nonzero entries, and an all-zero profile still marks one interval."""
        assert dwr_select(profile(4.0, 0.0, 0.0, 0.0), 0.5).tolist() == [0]
        assert dwr_select(profile(0.0, -1.0, 3.0, 0.0), 0.5).tolist() == [2]
        assert dwr_select(profile(0.0, 0.0, 0.0), 0.5).tolist() == [0]

    def test_nan_ranks_last(self):
        """An overflowed entry (inf - inf) counts but is marked last."""
        assert dwr_select(profile(np.nan, 1.0, 0.0, 2.0), 0.5).tolist() == [1, 3]
        assert dwr_select(profile(np.nan, 1.0), 1.0).tolist() == [0, 1]

    @given(st.lists(st.sampled_from([0.0, -1.0, 1.0, 2.5, -2.5, 7.0]),
                    min_size=1, max_size=30),
           st.floats(0.05, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_sort_by_magnitude_then_index(self, values, fraction):
        """Heavy ties and zeros: the pick is the first ceil(fraction * N)
        indices in order of decreasing |b_i|, lower index first among equals,
        N the count of nonzero entries (at least 1)."""
        mags = np.abs(values)
        order = sorted(range(mags.size), key=lambda i: (-mags[i], i))
        n = max(1, np.count_nonzero(mags))
        expected = sorted(order[:int(np.ceil(fraction * n))])
        assert dwr_select(profile(*values), fraction).tolist() == expected

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=30),
           st.floats(0.05, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_selected_dominate_unselected(self, values, fraction):
        d = profile(*values)
        picked = set(dwr_select(d, fraction).tolist())
        mags = np.abs(d)
        if picked and len(picked) < mags.size:
            smallest_picked = min(mags[i] for i in picked)
            largest_left = max(mags[i] for i in range(mags.size)
                               if i not in picked)
            assert smallest_picked >= largest_left


def regions(*sizes_and_errors):
    """(sizes, errors) arrays from (interval count, accumulated error) pairs."""
    sizes, errors = zip(*sizes_and_errors)
    return np.array(sizes), np.array(errors, dtype=float)


def reference_regions(sizes, errors):
    """The same regions as a reference MesoRegion list."""
    ends = np.cumsum(sizes) - 1
    return [ref.MesoRegion(int(e - n + 1), int(e), float(err))
            for n, e, err in zip(sizes, ends, errors)]


class TestFindMesoRegions:
    def test_monotone_profile_single_region(self):
        ends, errors = find_meso_regions(np.array([1.0, 2.0, 3.0]))
        assert ends.tolist() == [2] and errors.tolist() == [3.0]

    def test_hand_profile(self):
        # E = (1, 0, 1, 0.5): the initial increasing run stops at index 0,
        # the global minimum of the remainder is at index 1 -> first region
        # [0, 1]; the rest repeats from index 2.
        ends, errors = find_meso_regions(np.array([1.0, 0.0, 1.0, 0.5]))
        assert ends.tolist() == [1, 3]
        assert errors.tolist() == [0.0, 0.5]

    def test_accumulated_errors_are_increments(self):
        E = np.array([2.0, 1.0, 3.0, 2.5, 4.0])
        ends, errors = find_meso_regions(E)
        np.testing.assert_allclose(np.cumsum(errors), E[ends])

    def test_regions_tile_profile(self):
        rng = np.random.default_rng(5)
        E = np.abs(np.cumsum(rng.standard_normal(40)))
        ends, _ = find_meso_regions(E)
        assert ends[-1] == 39
        assert np.all(np.diff(ends) >= 1)

    @given(st.lists(st.sampled_from([0.0, 1.0, -1.0, 0.5, -2.0, 3.0]),
                    min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_matches_object_reference(self, contributions):
        """Flat runs, returns to zero and ties in E, bitwise against the
        reference MesoRegion list."""
        E = accumulate(np.array(contributions))
        ends, errors = find_meso_regions(E)
        want = ref.find_meso_regions(E)
        assert ends.tolist() == [r.end_interval for r in want]
        assert np.array_equal(errors, [r.accumulated_error for r in want])


class TestAllocateMeso:
    def test_equal_regions_split_evenly(self):
        assert allocate_meso(*regions((5, 1.0), (5, 1.0)), 10, 1.0).tolist() \
            == [5, 5]

    def test_unbalanced_hand_case(self):
        # c = (|8| * 1, |1| * 1), q = 1: raw = 9 * (sqrt(8), 1)/(sqrt(8)+1)
        assert allocate_meso(*regions((1, 8.0), (1, 1.0)), 9, 1.0).tolist() \
            == [7, 2]

    def test_budget_too_small(self):
        with pytest.raises(ValueError):
            allocate_meso(*regions((1, 1.0), (1, 1.0)), 1, 2.0)

    def test_zero_error_regions_keep_density(self):
        counts = allocate_meso(*regions((4, 0.0), (4, 1.0)), 16, 2.0)
        assert counts[0] == 4  # unchanged interval count

    def test_all_zero_falls_back_to_doubling(self):
        assert allocate_meso(*regions((4, 0.0), (2, 0.0)), 12, 2.0).tolist() \
            == [8, 4]

    def test_non_finite_errors_share_the_budget(self):
        """An overflowed (inf) or inf - inf (NaN) region error takes an equal
        share of the budget; the finite regions keep their density, and no
        NaN is cast to a count."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = allocate_meso(np.array([2, 3, 1]),
                                   np.array([1.0, np.inf, np.nan]), 12, 2.0)
            assert counts.tolist() == [2, 6, 6]
            assert allocate_meso(np.array([2, 2]), np.array([np.inf, 1.0]),
                                 8, 2.0).tolist() == [8, 2]

    @given(st.lists(st.floats(0.01, 10), min_size=1, max_size=6),
           st.integers(2, 4))
    @settings(max_examples=60, deadline=None)
    def test_total_close_to_budget(self, errors, mult):
        sizes = np.full(len(errors), 3)
        n_hat = mult * sizes.sum()
        counts = allocate_meso(sizes, np.array(errors), n_hat, 2.0)
        assert all(c >= 1 for c in counts)
        # rounding keeps the total within one count per region of the budget
        assert abs(counts.sum() - n_hat) <= len(errors)

    @given(st.lists(st.tuples(st.integers(1, 30),
                              st.one_of(st.just(0.0), st.floats(1e-9, 50.0))),
                    min_size=1, max_size=8),
           st.booleans(),
           st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0]), st.floats(0.05, 6.0)),
           st.floats(0.2, 4.0))
    @settings(max_examples=300, deadline=None)
    def test_matches_object_reference(self, pairs, all_zero, q, multiplier):
        """Zero-error regions, the all-zero fallback and budgets below the
        region count, bitwise against the reference MesoRegion allocation."""
        sizes, errors = regions(*pairs)
        if all_zero:
            errors[:] = 0.0
        n_hat = math.ceil(multiplier * sizes.sum())
        try:
            want = ref.allocate_meso(reference_regions(sizes, errors), n_hat, q)
        except ValueError:
            with pytest.raises(ValueError):
                allocate_meso(sizes, errors, n_hat, q)
            return
        assert allocate_meso(sizes, errors, n_hat, q).tolist() == want


def reference_refine_meso(prev_mesh, prev_spans, profile, q, multiplier):
    """The object-based refine_meso on MesoRegion and RegionSpan lists; a
    NaN entry of the full-width profile counts as zero."""
    found = ref.find_meso_regions(accumulate(np.nan_to_num(profile, nan=0.0)))
    n_hat = math.ceil(multiplier * prev_mesh.n_intervals)
    counts = ref.allocate_meso(found, n_hat, q)
    tentative = [ref.RegionSpan(float(prev_mesh.nodes[r.start_interval]),
                                float(prev_mesh.nodes[r.end_interval + 1]), n)
                 for r, n in zip(found, counts)]
    merged = ref.common_mesoregion_refinement(prev_spans, tentative)
    return ref.mesh_from_region_spans(merged), merged


class TestRefineMeso:
    def test_flat_tail_event_profile(self):
        # a NaN entry of the full-width profile counts as zero, so regions
        # tile the domain
        mesh = uniform_mesh(4.0, 8)
        [d] = pad([[0.5, 0.5, 0.5, 0.5]], 8)  # NaN on 4 of 8 intervals
        out, (breaks, counts) = refine_meso(mesh, None, d)
        assert breaks[-1] == 4.0
        assert out.n_intervals >= 8
        zeroed, tiling = refine_meso(mesh, None, np.where(np.isnan(d), 0.0, d))
        assert np.array_equal(zeroed.nodes, out.nodes)
        assert np.array_equal(tiling[1], counts)

    def test_accumulate_absolute_partial_sums(self):
        """Regions split the accumulated |sum_{i<=k} e_i|: (1, -1, 1) and
        (-1, 1, -1) both give E = (1, 0, 1), split after interval 1, and only
        the last region carries error; a NaN tail counts as zero."""
        mesh = uniform_mesh(3.0, 3)
        for row in ([1.0, -1.0, 1.0], [-1.0, 1.0, -1.0]):
            _, (breaks, counts) = refine_meso(mesh, None, np.array(row))
            assert breaks.tolist() == [0.0, 2.0, 3.0] and counts.tolist() == [2, 6]
        # E = (1, 0, 0): no region carries error, so both are doubled
        _, (breaks, counts) = refine_meso(mesh, None, np.array([1.0, -1.0, np.nan]))
        assert breaks.tolist() == [0.0, 2.0, 3.0] and counts.tolist() == [4, 2]

    def test_never_unrefines(self):
        mesh = uniform_mesh(4.0, 8)
        rng = np.random.default_rng(0)
        d = rng.standard_normal(8)
        out, (breaks, counts) = refine_meso(mesh, None, d)
        # previous density was 2 per unit
        assert np.all(counts / np.diff(breaks) >= 2.0 - 1e-9)

    def test_idempotent_when_tentative_matches(self):
        prev = (np.array([0.0, 1.0, 3.0]), np.array([4, 4]))
        from adaptive_mlmc.meshes import common_mesoregion_refinement
        breaks, counts = common_mesoregion_refinement(prev, prev)
        np.testing.assert_array_equal(breaks, prev[0])
        np.testing.assert_array_equal(counts, prev[1])

    def test_none_is_the_whole_domain(self):
        mesh = Mesh1D(np.array([0.0, 0.3, 1.0, 1.1, 2.5]))
        d = np.array([1.0, -0.5, 2.0, 0.25])
        out, tiling = refine_meso(mesh, None, d)
        whole = (np.array([0.0, 2.5]), np.array([4]))
        out_whole, tiling_whole = refine_meso(mesh, whole, d)
        np.testing.assert_array_equal(out.nodes, out_whole.nodes)
        np.testing.assert_array_equal(tiling[1], tiling_whole[1])

    @given(st.lists(st.lists(st.sampled_from([0.0, 1.0, -1.0, 0.3, -2.0, 5.0]),
                             min_size=1, max_size=60),
                    min_size=1, max_size=3),
           st.sampled_from([6, 9, 27]),
           st.sampled_from([1.0, 2.0, 3.5]),
           st.sampled_from([1.5, 2.0, 3.0]))
    @settings(max_examples=100, deadline=None)
    def test_matches_object_reference(self, profiles, n0, q, multiplier):
        """Successive levels, each overlaid on the previous level's tiling:
        meshes and tilings bitwise equal to the object-based reference, with
        the meso constants swept by patching them."""
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(refinement, "MESO_Q", q)
            patched.setattr(refinement, "MESO_TARGET_MULTIPLIER", multiplier)
            mesh = want_mesh = uniform_mesh(3.0, n0)
            tiling, want_spans = None, [ref.RegionSpan(0.0, 3.0, n0)]
            for profile in profiles:
                # NaN past the given entries, as an overflowed inf - inf
                [d] = pad([profile[:mesh.n_intervals]], mesh.n_intervals)
                mesh, tiling = refine_meso(mesh, tiling, d)
                want_mesh, want_spans = reference_refine_meso(
                    want_mesh, want_spans, d, q, multiplier)
                assert np.array_equal(mesh.nodes, want_mesh.nodes)
                assert np.array_equal(tiling[0], ref.tiling(want_spans)[0])
                assert np.array_equal(tiling[1], ref.tiling(want_spans)[1])
                np.testing.assert_array_equal(
                    mesh_reference.mesh_from_tiling(*tiling).nodes, mesh.nodes)


class TestBuildNextMesh:
    def test_uniform_dispatch(self):
        mesh = uniform_mesh(3.0, 27)
        out, regions = build_next_mesh(mesh, None, np.zeros(27), "uniform", (0.5, 3))
        assert out.n_intervals == 54
        assert regions is None

    def test_dwr_dispatch(self):
        mesh = uniform_mesh(3.0, 4)
        out, regions = build_next_mesh(mesh, None, profile(1, -9, 1, 1), "dwr",
                                       (0.25, 2))
        assert out.nodes.tolist() == [0.0, 0.75, 1.125, 1.5, 2.25, 3.0]
        assert regions is None

    def test_meso_splits_the_profile(self):
        mesh = uniform_mesh(2.0, 4)
        b = profile(2.0, 0.0, 0.0, 2.0)
        out, regions = build_next_mesh(mesh, None, b, "meso", (0.5, 3))
        assert out.n_intervals >= 8  # target multiplier 2 on 4 intervals
        want, want_regions = refine_meso(mesh, None, b)
        assert np.array_equal(out.nodes, want.nodes)
        assert np.array_equal(regions[0], want_regions[0])
        assert np.array_equal(regions[1], want_regions[1])
