"""Mesh construction, refinement, and meso-region overlay tests."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mesh_reference
import meso_reference as ref
from adaptive_mlmc.meshes import (REL_TOL, Mesh1D, MeshError,
                                  common_mesoregion_refinement, subdivide,
                                  uniform_mesh)
from adaptive_mlmc.refinement import refine_meso


def tiling(breaks, counts):
    """A (breaks, counts) tiling from plain lists."""
    return np.array(breaks, dtype=float), np.array(counts)


def tiling_mesh(breaks, counts):
    """The mesh of a (breaks, counts) tiling."""
    return subdivide(Mesh1D(breaks), counts)


def selection_counts(n, selection, factor):
    """Per-interval counts: `factor` on the selected intervals, 1 elsewhere."""
    counts = np.ones(n, dtype=int)
    counts[np.asarray(selection, dtype=int)] = factor
    return counts


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

    def test_equality_is_identity(self):
        """Meshes compare by identity: equal nodes make distinct meshes, and
        comparing never inspects the node arrays."""
        mesh, twin = uniform_mesh(3.0, 4), uniform_mesh(3.0, 4)
        assert mesh == mesh
        assert mesh != twin
        assert (mesh == twin) is False

    def test_hash_is_identity(self):
        """A mesh hashes, so it can key per-mesh data, twins as two keys."""
        mesh, twin = uniform_mesh(3.0, 4), uniform_mesh(3.0, 4)
        assert hash(mesh) == hash(mesh) == object.__hash__(mesh)
        assert len({mesh: 1, twin: 2, mesh: 3}) == 2


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
    """`subdivide` with one count for every interval."""

    def test_factor_two(self):
        mesh = uniform_mesh(3.0, 2)
        fine = subdivide(mesh, 2)
        np.testing.assert_allclose(fine.nodes, [0.0, 0.75, 1.5, 2.25, 3.0])

    def test_factor_one_is_identity(self):
        mesh = uniform_mesh(3.0, 5)
        np.testing.assert_array_equal(subdivide(mesh, 1).nodes, mesh.nodes)

    def test_original_nodes_survive_exactly(self):
        nodes = np.array([0.0, 0.1, 0.3, 0.7, 1.3])
        mesh = Mesh1D(nodes)
        fine = subdivide(mesh, 3)
        np.testing.assert_array_equal(fine.nodes[::3], nodes)

    def test_counts_below_one_rejected(self):
        mesh = uniform_mesh(4.0, 4)
        with pytest.raises(MeshError):
            subdivide(mesh, 0)
        with pytest.raises(MeshError):
            subdivide(mesh, [1, 2, -1, 1])


class TestRefineIntervals:
    """`subdivide` with a count of `factor` on selected intervals, 1 elsewhere."""

    def test_selected_split_others_kept(self):
        mesh = uniform_mesh(4.0, 4)
        out = subdivide(mesh, selection_counts(4, [1, 3], 2))
        np.testing.assert_allclose(out.nodes, [0, 1, 1.5, 2, 3, 3.5, 4])

    def test_out_of_range_selection(self):
        # counts for intervals the mesh does not have
        mesh = uniform_mesh(4.0, 4)
        with pytest.raises(ValueError):
            subdivide(mesh, selection_counts(5, [4], 2))
        with pytest.raises(ValueError):
            subdivide(mesh, [2, 2, 2])

    def test_empty_selection_is_identity(self):
        mesh = uniform_mesh(4.0, 4)
        out = subdivide(mesh, selection_counts(4, [], 2))
        np.testing.assert_array_equal(out.nodes, mesh.nodes)

    @given(st.sets(st.integers(0, 9)), st.integers(2, 4))
    @settings(max_examples=50, deadline=None)
    def test_never_removes_nodes(self, picked, factor):
        mesh = uniform_mesh(5.0, 10)
        out = subdivide(mesh, selection_counts(10, sorted(picked), factor))
        assert set(mesh.nodes.tolist()) <= set(out.nodes.tolist())
        assert out.n_intervals == 10 + (factor - 1) * len(picked)


@st.composite
def meshes(draw, max_intervals=12):
    """A mesh on [0, length] with random, uneven interval lengths."""
    length = draw(st.sampled_from([0.3, 1.0, 3.0, 10.0, 1e4]))
    gaps = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=1,
                                  max_size=max_intervals)))
    return Mesh1D(np.append(0.0, length * np.cumsum(gaps) / gaps.sum()))


def node_positions(counts):
    """Where the input nodes sit in the subdivided mesh."""
    return np.concatenate([[0], np.cumsum(counts)])


class TestSubdivideMatchesReference:
    """`subdivide` against the three routines it replaced, bitwise."""

    @given(meshes(), st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_uniform_factors(self, mesh, factor):
        got = subdivide(mesh, factor)
        want = mesh_reference.uniform_refine(mesh, factor)
        assert np.array_equal(got.nodes, want.nodes)
        assert np.array_equal(got.nodes[::factor], mesh.nodes)

    @given(meshes(), st.data(), st.integers(2, 4))
    @settings(max_examples=300, deadline=None)
    def test_selections(self, mesh, data, factor):
        n = mesh.n_intervals
        selection = data.draw(st.one_of(
            st.just([]), st.just(list(range(n))),
            st.lists(st.integers(0, n - 1), unique=True)), label="selection")
        counts = selection_counts(n, selection, factor)
        got = subdivide(mesh, counts)
        want = mesh_reference.refine_intervals(mesh, selection, factor)
        kept = node_positions(counts)
        assert np.array_equal(got.nodes[kept], mesh.nodes)
        new = np.setdiff1d(np.arange(got.nodes.size), kept)
        assert np.array_equal(got.nodes[new], want.nodes[new])
        # the reference's right endpoint of a split interval is a + (b - a);
        # the two agree wherever that rounds to b
        a, b = mesh.nodes[:-1], mesh.nodes[1:]
        right = np.where(counts > 1, a + (b - a), b)
        assert np.array_equal(want.nodes[kept[1:-1]], right[:-1])
        if np.array_equal(right, b):
            assert np.array_equal(got.nodes, want.nodes)

    @given(meshes(max_intervals=8), st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_tilings(self, regions, data):
        breaks = regions.nodes
        counts = np.array(data.draw(st.lists(
            st.integers(1, 9), min_size=breaks.size - 1, max_size=breaks.size - 1),
            label="counts"))
        got = tiling_mesh(breaks, counts)
        want = mesh_reference.mesh_from_tiling(breaks, counts)
        assert np.array_equal(got.nodes, want.nodes)
        assert np.array_equal(got.nodes[node_positions(counts)], breaks)


class TestRegions:
    def test_whole_domain_span(self):
        # one region over the whole domain reproduces a uniform mesh
        mesh = uniform_mesh(2.0, 10)
        np.testing.assert_allclose(
            tiling_mesh(*tiling([0.0, 2.0], [10])).nodes, mesh.nodes,
            rtol=0, atol=1e-15)


class TestMeshFromRegionSpans:
    def test_piecewise_uniform(self):
        mesh = tiling_mesh(*tiling([0.0, 1.0, 3.0], [2, 1]))
        np.testing.assert_allclose(mesh.nodes, [0.0, 0.5, 1.0, 3.0])


class TestCommonMesoRegionRefinement:
    def test_overlay_takes_max_density(self):
        prev = tiling([0.0, 4.0, 10.0], [1, 5])
        tentative = tiling([0.0, 0.8, 7.0, 10.0], [1, 6, 1])
        breaks, counts = common_mesoregion_refinement(prev, tentative)
        assert counts.tolist() == [1, 4, 3, 3]
        assert breaks.tolist() == [0.0, 0.8, 4.0, 7.0, 10.0]

    def test_identical_tilings_unchanged(self):
        regions = tiling([0.0, 1.0, 3.0], [4, 2])
        breaks, counts = common_mesoregion_refinement(regions, regions)
        np.testing.assert_array_equal(breaks, regions[0])
        np.testing.assert_array_equal(counts, regions[1])

    def test_mismatched_domains_rejected(self):
        with pytest.raises(MeshError):
            common_mesoregion_refinement(tiling([0.0, 1.0], [1]),
                                         tiling([0.0, 2.0], [1]))

    def test_close_breaks_stay_apart(self):
        # breaks are compared exactly: half of REL_TOL * length apart is two
        # breaks, and the sliver between them gets one interval
        near = 1.0 + 0.5 * REL_TOL * 3.0
        prev = tiling([0.0, 1.0, 3.0], [1, 1])
        tentative = tiling([0.0, near, 3.0], [2, 4])
        breaks, counts = common_mesoregion_refinement(prev, tentative)
        assert breaks.tolist() == [0.0, 1.0, near, 3.0]
        assert counts.tolist() == [2, 1, 4]

    def test_end_past_the_domain_rejected(self):
        with pytest.raises(MeshError):
            common_mesoregion_refinement(tiling([0.0, 1.0, 3.0], [1, 1]),
                                         tiling([0.0, 2.0, 3.0 * (1.0 + 1e-13)],
                                                [1, 1]))

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=4),
           st.lists(st.integers(1, 6), min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_never_below_either_parent_density(self, counts_a, counts_b):
        # random tilings of [0, 1] into equal-width regions
        prev = tiling(np.linspace(0.0, 1.0, len(counts_a) + 1), counts_a)
        tent = tiling(np.linspace(0.0, 1.0, len(counts_b) + 1), counts_b)
        breaks, counts = common_mesoregion_refinement(prev, tent)
        mid = 0.5 * (breaks[:-1] + breaks[1:])
        density = counts / np.diff(breaks)
        for parent_breaks, parent_counts in (prev, tent):
            i = Mesh1D(parent_breaks).interval_of(mid)
            assert np.all(density >= parent_counts[i] / np.diff(parent_breaks)[i] - 1e-9)


# Offsets of a tentative break from a previous one, in units of
# REL_TOL * max(length, 1), the tolerance within which the reference merges
# breaks: on the break or past the tolerance, where merging and exact
# comparison agree.
NEAR = (-3.0, 0.0, 1.5, 4.0)
# The tentative endpoints: mostly on the domain's, else past the tolerance.
NEAR_END = (0.0, 0.0, 0.0, 1.5)


@st.composite
def tiling_pairs(draw):
    """A previous tiling of [0, length] and a tentative one whose breaks are
    partly the previous breaks moved by NEAR tolerances, endpoints included."""
    length = draw(st.sampled_from([0.5, 1.0, 3.0, 10.0, 40.0]))
    tol = REL_TOL * max(length, 1.0)
    inner = st.lists(st.floats(0.001, 0.999), max_size=6)
    prev_breaks = np.unique(np.concatenate(
        [[0.0, length], length * np.array(draw(inner))]))
    moved = [prev_breaks[i] + tol * draw(st.sampled_from(NEAR))
             for i in draw(st.lists(st.integers(0, prev_breaks.size - 1),
                                    max_size=4))]
    ends = [tol * draw(st.sampled_from(NEAR_END)),
            length + tol * draw(st.sampled_from(NEAR_END))]
    tent_breaks = np.unique(np.concatenate(
        [ends, moved, length * np.array(draw(inner))]))
    tent_breaks = tent_breaks[(tent_breaks >= ends[0]) & (tent_breaks <= ends[1])]
    # two drawn breaks closer than the tolerance: the reference merges them
    assume(np.diff(np.unique(np.concatenate([prev_breaks, tent_breaks]))).min() > tol)
    counts = st.integers(1, 9)
    return ((prev_breaks, np.array([draw(counts) for _ in prev_breaks[1:]])),
            (tent_breaks, np.array([draw(counts) for _ in tent_breaks[1:]])))


def outcome(fn, *args):
    """fn's result, or the MeshError it raised."""
    try:
        return fn(*args)
    except MeshError:
        return MeshError


class TestMatchesObjectReference:
    """The array tilings against the RegionSpan lists they replaced, bitwise."""

    @given(tiling_pairs())
    @settings(max_examples=300, deadline=None)
    def test_overlay_and_mesh(self, pair):
        prev, tent = pair
        got = outcome(common_mesoregion_refinement, prev, tent)
        want = outcome(ref.common_mesoregion_refinement,
                       ref.spans(*prev), ref.spans(*tent))
        if want is MeshError:
            assert got is MeshError
            return
        want_breaks, want_counts = ref.tiling(want)
        assert np.array_equal(got[0], want_breaks)
        assert np.array_equal(got[1], want_counts)
        got_mesh = outcome(tiling_mesh, *got)
        want_mesh = outcome(ref.mesh_from_region_spans, want)
        if want_mesh is MeshError:
            assert got_mesh is MeshError
        else:
            assert np.array_equal(got_mesh.nodes, want_mesh.nodes)

    @given(tiling_pairs())
    @settings(max_examples=100, deadline=None)
    def test_mesh_of_a_tiling(self, pair):
        prev, _ = pair
        got = outcome(tiling_mesh, *prev)
        want = outcome(ref.mesh_from_region_spans, ref.spans(*prev))
        if want is MeshError:
            assert got is MeshError
        else:
            assert np.array_equal(got.nodes, want.nodes)


@st.composite
def program_tilings(draw):
    """A previous tiling as `refine_meso` returns it, after one to three
    levels from a uniform mesh, and a tentative tiling whose breaks are nodes
    of that tiling's mesh, as the next level's regions are."""
    length = draw(st.sampled_from([0.5, 1.0, 3.0, 10.0, 40.0]))
    mesh, prev = uniform_mesh(length, draw(st.sampled_from([3, 6, 9]))), None
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.lists(st.floats(-2.0, 2.0), min_size=mesh.n_intervals,
                            max_size=mesh.n_intervals))
        mesh, prev = refine_meso(mesh, prev, np.array(row))
    inner = draw(st.sets(st.integers(1, mesh.n_intervals - 1), max_size=8))
    tent_breaks = mesh.nodes[[0, *sorted(inner), mesh.n_intervals]]
    counts = st.lists(st.integers(1, 30), min_size=tent_breaks.size - 1,
                      max_size=tent_breaks.size - 1)
    return prev, (tent_breaks, np.array(draw(counts)))


class TestProgramShapedTilings:
    @given(program_tilings())
    @settings(max_examples=150, deadline=None)
    def test_overlay_matches_object_reference(self, pair):
        """The exact overlay of tilings the program makes equals the
        tolerant object reference, bitwise."""
        prev, tent = pair
        breaks, counts = common_mesoregion_refinement(prev, tent)
        want = ref.common_mesoregion_refinement(ref.spans(*prev), ref.spans(*tent))
        want_breaks, want_counts = ref.tiling(want)
        assert np.array_equal(breaks, want_breaks)
        assert np.array_equal(counts, want_counts)
        assert np.array_equal(tiling_mesh(breaks, counts).nodes,
                              ref.mesh_from_region_spans(want).nodes)
