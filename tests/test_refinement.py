"""New-level mesh creation: DWR selection, meso regions, and allocation."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_mlmc.error_estimation import ErrorDecomposition
from adaptive_mlmc.meshes import (MesoRegion, RegionSpan, uniform_mesh,
                                  whole_domain_span)
from adaptive_mlmc.refinement import (RefinementConfig, allocate_meso,
                                      build_next_mesh, dwr_select,
                                      find_meso_regions,
                                      refine_dwr_multisample, refine_meso)


def decomp(*values):
    return ErrorDecomposition(np.array(values, dtype=float))


class TestConfigValidation:
    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            RefinementConfig(strategy="bisection")

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            RefinementConfig(dwr_fraction=0.0)
        with pytest.raises(ValueError):
            RefinementConfig(dwr_fraction=1.5)

    def test_factor_bounds(self):
        with pytest.raises(ValueError):
            RefinementConfig(dwr_factor=1)
        with pytest.raises(ValueError):
            RefinementConfig(meso_target_multiplier=1.0)


class TestDwrSelect:
    def test_half_fraction_hand_case(self):
        # |contributions| = (3, 5, 1); ceil(0.5 * 3) = 2 -> indices {1, 0}
        assert dwr_select(decomp(3.0, -5.0, 1.0), 0.5).tolist() == [0, 1]

    def test_fraction_one_selects_all(self):
        assert dwr_select(decomp(1.0, 2.0, 3.0), 1.0).tolist() == [0, 1, 2]

    def test_ties_break_to_lower_index(self):
        assert dwr_select(decomp(2.0, 2.0, 2.0), 0.5).tolist() == [0, 1]

    def test_ceil_of_fraction(self):
        # ceil(0.25 * 5) = 2
        assert len(dwr_select(decomp(5, 4, 3, 2, 1), 0.25)) == 2

    @given(st.lists(st.sampled_from([0.0, -1.0, 1.0, 2.5, -2.5, 7.0]),
                    min_size=1, max_size=30),
           st.floats(0.05, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_sort_by_magnitude_then_index(self, values, fraction):
        """Heavy ties: the pick is the first ceil(fraction * N) indices in
        order of decreasing |e_i|, lower index first among equals."""
        mags = np.abs(values)
        order = sorted(range(mags.size), key=lambda i: (-mags[i], i))
        expected = sorted(order[:int(np.ceil(fraction * mags.size))])
        assert dwr_select(decomp(*values), fraction).tolist() == expected

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=30),
           st.floats(0.05, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_selected_dominate_unselected(self, values, fraction):
        d = decomp(*values)
        picked = set(dwr_select(d, fraction).tolist())
        mags = np.abs(d.contributions)
        if picked and len(picked) < mags.size:
            smallest_picked = min(mags[i] for i in picked)
            largest_left = max(mags[i] for i in range(mags.size)
                               if i not in picked)
            assert smallest_picked >= largest_left


class TestDwrMultisample:
    def test_single_sample_matches_select(self):
        mesh = uniform_mesh(3.0, 3)
        cfg = RefinementConfig(strategy="dwr", dwr_fraction=0.5, dwr_factor=3)
        out = refine_dwr_multisample(mesh, [decomp(3.0, -5.0, 1.0)], cfg)
        # intervals 0 and 1 split in 3, interval 2 kept
        assert out.n_intervals == 3 + 2 * 2

    def test_union_over_samples(self):
        mesh = uniform_mesh(4.0, 4)
        cfg = RefinementConfig(strategy="dwr", dwr_fraction=0.25, dwr_factor=2)
        out = refine_dwr_multisample(
            mesh, [decomp(9, 0, 0, 0), decomp(0, 0, 0, 9)], cfg)
        assert out.n_intervals == 6

    def test_needs_a_decomposition(self):
        with pytest.raises(ValueError):
            refine_dwr_multisample(uniform_mesh(1.0, 2), [],
                                   RefinementConfig(strategy="dwr"))

    @given(st.lists(st.lists(st.floats(-5, 5), min_size=6, max_size=6),
                    min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_more_samples_never_coarser(self, profiles):
        mesh = uniform_mesh(3.0, 6)
        cfg = RefinementConfig(strategy="dwr", dwr_fraction=0.5, dwr_factor=2)
        decomps = [decomp(*p) for p in profiles]
        fewer = refine_dwr_multisample(mesh, decomps[:1], cfg)
        more = refine_dwr_multisample(mesh, decomps, cfg)
        assert set(fewer.nodes.tolist()) <= set(more.nodes.tolist())


class TestFindMesoRegions:
    def test_monotone_profile_single_region(self):
        regions = find_meso_regions(np.array([1.0, 2.0, 3.0]))
        assert regions == [MesoRegion(0, 2, 3.0)]

    def test_hand_profile(self):
        # E = (1, 0, 1, 0.5): the initial increasing run stops at index 0,
        # the global minimum of the remainder is at index 1 -> first region
        # [0, 1]; the rest repeats from index 2.
        regions = find_meso_regions(np.array([1.0, 0.0, 1.0, 0.5]))
        assert regions[0] == MesoRegion(0, 1, 0.0)
        assert regions[1] == MesoRegion(2, 3, 0.5)

    def test_accumulated_errors_are_increments(self):
        E = np.array([2.0, 1.0, 3.0, 2.5, 4.0])
        regions = find_meso_regions(E)
        totals = np.cumsum([r.accumulated_error for r in regions])
        ends = [r.end_interval for r in regions]
        np.testing.assert_allclose(totals, E[ends])

    def test_regions_tile_profile(self):
        rng = np.random.default_rng(5)
        E = np.abs(np.cumsum(rng.standard_normal(40)))
        regions = find_meso_regions(E)
        assert regions[0].start_interval == 0
        assert regions[-1].end_interval == 39
        for left, right in zip(regions, regions[1:]):
            assert right.start_interval == left.end_interval + 1


class TestAllocateMeso:
    def test_equal_regions_split_evenly(self):
        regions = [MesoRegion(0, 4, 1.0), MesoRegion(5, 9, 1.0)]
        assert allocate_meso(regions, 10, 1.0) == [5, 5]

    def test_unbalanced_hand_case(self):
        # c = (|8| * 1, |1| * 1), q = 1: raw = 9 * (sqrt(8), 1)/(sqrt(8)+1)
        regions = [MesoRegion(0, 0, 8.0), MesoRegion(1, 1, 1.0)]
        assert allocate_meso(regions, 9, 1.0) == [7, 2]

    def test_budget_too_small(self):
        with pytest.raises(ValueError):
            allocate_meso([MesoRegion(0, 0, 1.0), MesoRegion(1, 1, 1.0)], 1, 2.0)

    def test_zero_error_regions_keep_density(self):
        regions = [MesoRegion(0, 3, 0.0), MesoRegion(4, 7, 1.0)]
        counts = allocate_meso(regions, 16, 2.0)
        assert counts[0] == 4  # unchanged interval count

    def test_all_zero_falls_back_to_doubling(self):
        regions = [MesoRegion(0, 3, 0.0), MesoRegion(4, 5, 0.0)]
        assert allocate_meso(regions, 12, 2.0) == [8, 4]

    @given(st.lists(st.floats(0.01, 10), min_size=1, max_size=6),
           st.integers(2, 4))
    @settings(max_examples=60, deadline=None)
    def test_total_close_to_budget(self, errors, mult):
        start = 0
        regions = []
        for e in errors:
            regions.append(MesoRegion(start, start + 2, e))
            start += 3
        n_hat = mult * start
        counts = allocate_meso(regions, n_hat, 2.0)
        assert all(c >= 1 for c in counts)
        # rounding keeps the total within one count per region of the budget
        assert abs(sum(counts) - n_hat) <= len(regions)


class TestRefineMeso:
    def test_flat_tail_event_profile(self):
        # contributions shorter than the mesh (event-time samples) are
        # zero-padded so the regions still tile the domain
        mesh = uniform_mesh(4.0, 8)
        cfg = RefinementConfig(strategy="meso")
        d = decomp(0.5, 0.5, 0.5, 0.5)  # only 4 of 8 intervals
        out, spans = refine_meso(mesh, whole_domain_span(mesh), d, cfg)
        assert spans[-1].t_end == pytest.approx(4.0)
        assert out.n_intervals >= 8

    def test_never_unrefines(self):
        mesh = uniform_mesh(4.0, 8)
        cfg = RefinementConfig(strategy="meso")
        rng = np.random.default_rng(0)
        d = decomp(*rng.standard_normal(8))
        out, spans = refine_meso(mesh, whole_domain_span(mesh), d, cfg)
        for s in spans:
            assert s.density >= 2.0 - 1e-9  # previous density was 2 per unit

    def test_idempotent_when_tentative_matches(self):
        prev = [RegionSpan(0.0, 1.0, 4), RegionSpan(1.0, 3.0, 4)]
        from adaptive_mlmc.meshes import common_mesoregion_refinement
        merged = common_mesoregion_refinement(prev, prev)
        assert merged == prev


class TestBuildNextMesh:
    def test_uniform_dispatch(self):
        mesh = uniform_mesh(3.0, 27)
        cfg = RefinementConfig(strategy="uniform", uniform_factor=2)
        out, regions = build_next_mesh(mesh, whole_domain_span(mesh), [], cfg)
        assert out.n_intervals == 54
        assert regions is None

    def test_dwr_dispatch(self):
        mesh = uniform_mesh(3.0, 4)
        cfg = RefinementConfig(strategy="dwr", dwr_fraction=0.25, dwr_factor=2)
        out, regions = build_next_mesh(mesh, whole_domain_span(mesh),
                                       [decomp(1, 9, 1, 1)], cfg)
        assert out.n_intervals == 5
        assert regions is None

    def test_meso_uses_worst_total(self):
        mesh = uniform_mesh(2.0, 4)
        cfg = RefinementConfig(strategy="meso")
        mild = decomp(0.1, 0.1, 0.1, 0.1)
        harsh = decomp(2.0, 2.0, 2.0, 2.0)
        out, regions = build_next_mesh(mesh, whole_domain_span(mesh),
                                       [mild, harsh], cfg)
        assert regions is not None
        assert out.n_intervals >= 8  # target multiplier 2 on 4 intervals
