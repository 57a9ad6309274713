"""Mesh construction, refinement, and meso-region overlay tests."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_mlmc.meshes import (Mesh1D, MeshError, MesoRegion, RegionSpan,
                                  check_region_tiling,
                                  common_mesoregion_refinement,
                                  mesh_from_region_spans, refine_intervals,
                                  uniform_mesh, uniform_refine,
                                  whole_domain_span)


class TestMeshValidation:
    def test_needs_two_nodes(self):
        with pytest.raises(MeshError):
            Mesh1D(np.array([0.0]))

    def test_must_start_at_zero(self):
        with pytest.raises(MeshError):
            Mesh1D(np.array([0.5, 1.0]))

    def test_strictly_increasing(self):
        with pytest.raises(MeshError):
            Mesh1D(np.array([0.0, 1.0, 1.0]))

    def test_basic_properties(self):
        mesh = Mesh1D(np.array([0.0, 1.0, 3.0]))
        assert mesh.n_intervals == 2
        assert mesh.length == 3.0
        np.testing.assert_allclose(mesh.lengths, [1.0, 2.0])

    def test_nodes_immutable(self):
        mesh = uniform_mesh(1.0, 4)
        with pytest.raises(ValueError):
            mesh.nodes[0] = 5.0


class TestIntervalOf:
    def test_right_closed(self):
        mesh = uniform_mesh(1.0, 4)
        # intervals are (left, right]: an interior node belongs to the
        # interval ending there
        assert mesh.interval_of(0.25) == 0
        assert mesh.interval_of(0.26) == 1
        assert mesh.interval_of(1.0) == 3

    def test_left_endpoint_maps_to_first(self):
        mesh = uniform_mesh(1.0, 4)
        assert mesh.interval_of(0.0) == 0

    def test_out_of_range(self):
        mesh = uniform_mesh(1.0, 4)
        with pytest.raises(MeshError):
            mesh.interval_of(1.5)
        with pytest.raises(MeshError):
            mesh.interval_of(-0.1)


class TestUniformRefine:
    def test_factor_two(self):
        mesh = uniform_mesh(3.0, 2)
        fine = uniform_refine(mesh, 2)
        np.testing.assert_allclose(fine.nodes, [0.0, 0.75, 1.5, 2.25, 3.0])

    def test_factor_one_is_identity(self):
        mesh = uniform_mesh(3.0, 5)
        assert uniform_refine(mesh, 1) is mesh

    def test_original_nodes_survive_exactly(self):
        nodes = np.array([0.0, 0.1, 0.3, 0.7, 1.3])
        mesh = Mesh1D(nodes)
        fine = uniform_refine(mesh, 3)
        assert set(nodes.tolist()) <= set(fine.nodes.tolist())


class TestRefineIntervals:
    def test_selected_split_others_kept(self):
        mesh = uniform_mesh(4.0, 4)
        out = refine_intervals(mesh, np.array([1, 3]), 2)
        np.testing.assert_allclose(out.nodes, [0, 1, 1.5, 2, 3, 3.5, 4])

    def test_out_of_range_selection(self):
        mesh = uniform_mesh(4.0, 4)
        with pytest.raises(MeshError):
            refine_intervals(mesh, np.array([4]), 2)
        with pytest.raises(MeshError):
            refine_intervals(mesh, np.array([-1]), 2)

    def test_empty_selection_is_identity(self):
        mesh = uniform_mesh(4.0, 4)
        out = refine_intervals(mesh, np.array([], dtype=int), 2)
        np.testing.assert_array_equal(out.nodes, mesh.nodes)

    @given(st.sets(st.integers(0, 9)), st.integers(2, 4))
    @settings(max_examples=50, deadline=None)
    def test_never_removes_nodes(self, picked, factor):
        mesh = uniform_mesh(5.0, 10)
        out = refine_intervals(mesh, np.array(sorted(picked), dtype=int), factor)
        assert set(mesh.nodes.tolist()) <= set(out.nodes.tolist())
        assert out.n_intervals == 10 + (factor - 1) * len(picked)


class TestRegions:
    def test_tiling_check(self):
        regions = [MesoRegion(0, 2, 1.0), MesoRegion(3, 5, 0.5)]
        check_region_tiling(regions, 6)
        with pytest.raises(MeshError):
            check_region_tiling(regions, 7)
        with pytest.raises(MeshError):
            check_region_tiling([MesoRegion(1, 5, 1.0)], 6)

    def test_density(self):
        assert RegionSpan(0.0, 4.0, 8).density == 2.0

    def test_whole_domain_span(self):
        mesh = uniform_mesh(2.0, 10)
        assert whole_domain_span(mesh) == [RegionSpan(0.0, 2.0, 10)]


class TestMeshFromRegionSpans:
    def test_piecewise_uniform(self):
        spans = [RegionSpan(0.0, 1.0, 2), RegionSpan(1.0, 3.0, 1)]
        mesh = mesh_from_region_spans(spans)
        np.testing.assert_allclose(mesh.nodes, [0.0, 0.5, 1.0, 3.0])

    def test_gap_rejected(self):
        with pytest.raises(MeshError):
            mesh_from_region_spans([RegionSpan(0.0, 1.0, 1),
                                    RegionSpan(1.5, 3.0, 1)])


class TestCommonMesoRegionRefinement:
    def test_overlay_takes_max_density(self):
        prev = [RegionSpan(0.0, 4.0, 1), RegionSpan(4.0, 10.0, 5)]
        tentative = [RegionSpan(0.0, 0.8, 1), RegionSpan(0.8, 7.0, 6),
                     RegionSpan(7.0, 10.0, 1)]
        merged = common_mesoregion_refinement(prev, tentative)
        assert [s.n_intervals for s in merged] == [1, 4, 3, 3]
        assert [s.t_start for s in merged] == [0.0, 0.8, 4.0, 7.0]
        assert [s.t_end for s in merged] == [0.8, 4.0, 7.0, 10.0]

    def test_identical_tilings_unchanged(self):
        spans = [RegionSpan(0.0, 1.0, 4), RegionSpan(1.0, 3.0, 2)]
        merged = common_mesoregion_refinement(spans, spans)
        assert merged == spans

    def test_mismatched_domains_rejected(self):
        with pytest.raises(MeshError):
            common_mesoregion_refinement([RegionSpan(0.0, 1.0, 1)],
                                         [RegionSpan(0.0, 2.0, 1)])

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=4),
           st.lists(st.integers(1, 6), min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_never_below_either_parent_density(self, counts_a, counts_b):
        # random tilings of [0, 1] into equal-width regions
        prev = [RegionSpan(i / len(counts_a), (i + 1) / len(counts_a), c)
                for i, c in enumerate(counts_a)]
        tent = [RegionSpan(i / len(counts_b), (i + 1) / len(counts_b), c)
                for i, c in enumerate(counts_b)]
        merged = common_mesoregion_refinement(prev, tent)
        for piece in merged:
            mid = 0.5 * (piece.t_start + piece.t_end)
            for parents in (prev, tent):
                parent = next(s for s in parents
                              if s.t_start <= mid <= s.t_end)
                assert piece.density >= parent.density - 1e-9


class TestDump:
    def test_round_trip(self, tmp_path):
        mesh = Mesh1D(np.array([0.0, 1 / 3, 2 / 3, 1.1]))
        path = tmp_path / "grid.txt"
        mesh.dump(path)
        back = np.array([float(line) for line in path.read_text().split()])
        np.testing.assert_array_equal(back, mesh.nodes)
