"""Terminal-value and time-to-event quantity-of-interest tests."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ode_reference
from adaptive_mlmc.meshes import Mesh1D, MeshError, uniform_mesh
from adaptive_mlmc.qoi import (NonstandardQoi, StandardQoi, eval_event_time,
                               eval_standard)
from adaptive_mlmc.solvers import Trajectory


def traj_from(values, length=None):
    """A one-row trajectory through the given node values."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    length = float(length if length is not None else n - 1)
    return Trajectory(uniform_mesh(length, n - 1), values[None])


class TestStandardQoi:
    def test_terminal_dot_product(self):
        traj = traj_from([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]], length=1.0)
        q = StandardQoi(np.array([1.0, -1.0]), 1.0)
        [value] = eval_standard(traj, q)
        assert value == pytest.approx(4.0 - 5.0)

    def test_interior_t_star_interpolates(self):
        traj = traj_from([[0.0], [2.0]], length=1.0)
        q = StandardQoi(np.array([1.0]), 0.25)
        [value] = eval_standard(traj, q)
        assert value == pytest.approx(0.5)

    def test_t_star_beyond_mesh(self):
        traj = traj_from([[0.0], [1.0]], length=1.0)
        with pytest.raises(MeshError):
            eval_standard(traj, StandardQoi(np.array([1.0]), 2.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            StandardQoi(np.array([1.0]), 0.0)

    def test_one_value_per_row(self):
        mesh = uniform_mesh(1.0, 2)
        values = np.array([[[0.0], [1.0], [2.0]], [[0.0], [-1.0], [np.nan]]])
        q = StandardQoi(np.array([1.0]), 0.75)
        out = eval_standard(Trajectory(mesh, values), q)
        assert out[0] == pytest.approx(1.5) and np.isnan(out[1])


def crossing(traj, threshold, occurrence):
    """The k-th crossing of a one-row, one-component trajectory."""
    q = NonstandardQoi(np.array([1.0]), threshold, occurrence=occurrence)
    [t] = eval_event_time(traj, q)
    return t


class TestEventTimes:
    def test_linear_crossing_closed_form(self):
        # g = u - 1 goes 3 -> -1 on [0, 1]: root where 3 - 4t = 1, t = 0.5
        traj = traj_from([[3.0], [-1.0]], length=1.0)
        assert crossing(traj, 1.0, 1) == pytest.approx(0.5)

    def test_node_zero_counted_once(self):
        traj = traj_from([[1.0], [0.0], [-1.0]], length=2.0)
        assert crossing(traj, 0.0, 1) == 1.0
        assert np.isnan(crossing(traj, 0.0, 2))

    def test_zero_at_t0_not_counted(self):
        traj = traj_from([[0.0], [1.0], [-1.0]], length=2.0)
        assert crossing(traj, 0.0, 1) == pytest.approx(1.5)
        assert np.isnan(crossing(traj, 0.0, 2))

    def test_sine_like_crossings(self):
        ts = np.linspace(0.0, 2.5 * np.pi, 1001)
        traj = Trajectory(Mesh1D(ts), np.sin(ts)[None, :, None])
        assert crossing(traj, 0.0, 1) == pytest.approx(np.pi, rel=1e-5)
        assert crossing(traj, 0.0, 2) == pytest.approx(2.0 * np.pi, rel=1e-5)
        assert np.isnan(crossing(traj, 0.0, 3))

    def test_consecutive_node_zeros(self):
        """g = [1, 0, 0, 1]: each zero node counts once, and the interval
        between them is no sign change, so no root is divided out."""
        traj = traj_from([[1.0], [0.0], [0.0], [1.0]], length=3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            times = [crossing(traj, 0.0, k) for k in (1, 2, 3)]
            rows = eval_event_time(
                Trajectory(uniform_mesh(3.0, 3),
                           np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0],
                                     [1.0, -1.0, 0.0, 0.0]])[:, :, None]),
                NonstandardQoi(np.array([1.0]), 0.0, occurrence=2))
        assert times[:2] == [1.0, 2.0] and np.isnan(times[2])
        np.testing.assert_array_equal(rows, [2.0, 2.0, 2.0])

    def test_crossings_taken_in_interval_order(self):
        """Interval 0's computed root rounds one ulp past its right node and
        interval 1's root rounds onto that node: the running count takes them
        in interval order, where sorting the times would swap them."""
        mesh = Mesh1D(np.array([0.0, 0.17511107893000566, 8.309680768540726]))
        g0 = 825.5111545554435
        traj = Trajectory(mesh, np.array([g0, -5e-324, g0])[None, :, None])
        first, second = crossing(traj, 0.0, 1), crossing(traj, 0.0, 2)
        assert second == mesh.nodes[1] and first == np.nextafter(second, np.inf)

    def test_occurrence_selection(self):
        traj = traj_from([[1.0], [-1.0], [1.0], [-1.0]], length=3.0)
        q1 = NonstandardQoi(np.array([1.0]), 0.0, occurrence=1)
        q3 = NonstandardQoi(np.array([1.0]), 0.0, occurrence=3)
        np.testing.assert_allclose(eval_event_time(traj, q1), [0.5])
        np.testing.assert_allclose(eval_event_time(traj, q3), [2.5])

    def test_missing_occurrence_is_nan(self):
        traj = traj_from([[1.0], [-1.0]], length=1.0)
        out = eval_event_time(traj, NonstandardQoi(np.array([1.0]), 0.0,
                                                   occurrence=2))
        assert out.shape == (1,) and np.isnan(out[0])

    def test_no_crossing_is_nan(self):
        traj = traj_from([[1.0], [2.0]], length=1.0)
        assert np.isnan(eval_event_time(traj, NonstandardQoi(np.array([1.0]), 0.0))).all()

    def test_rows_are_independent(self):
        """A row without the crossing, a NaN row and a row with it: only the
        last gets a time, the same as alone."""
        mesh = uniform_mesh(3.0, 3)
        values = np.array([[1.0, 2.0, 3.0, 4.0], [1.0, np.nan, -1.0, 1.0],
                           [1.0, -1.0, 1.0, -1.0]])[:, :, None]
        q = NonstandardQoi(np.array([1.0]), 0.0, occurrence=2)
        out = eval_event_time(Trajectory(mesh, values), q)
        assert np.isnan(out[:2]).all()
        assert out[2] == eval_event_time(Trajectory(mesh, values[2:]), q)[0] == 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            NonstandardQoi(np.array([1.0]), 0.0, occurrence=0)


def per_interval_kth(mesh, values, q):
    """The k-th of `ode_reference.event_times` per row, NaN past the last."""
    times = [ode_reference.event_times(mesh, v, q) for v in values]
    return np.array([t[q.occurrence - 1] if t.size >= q.occurrence else np.nan
                     for t in times])


_rows = st.integers(2, 12).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3).map(float), min_size=n, max_size=n),
    min_size=1, max_size=6))
_widths = st.lists(st.floats(0.01, 10.0), min_size=11, max_size=11)


class TestVectorizedCrossings:
    @given(_rows, st.sampled_from([0.0, 1.0, -2.0]), _widths)
    @settings(max_examples=300, deadline=None)
    def test_equal_to_per_interval_loop(self, rows, threshold, widths):
        """On an integer lattice of node values, exact zeros and runs of
        them at nodes (t = 0 included) are common; the k-th crossing for k =
        1, 2, 3 has the bits of the per-interval loop's (tests/ode_reference.py),
        NaN where a row has fewer crossings, and no warning is raised.
        Integer g keeps every root strictly inside its interval, so the
        loop's sorted order is the interval order."""
        n = len(rows[0])
        mesh = Mesh1D(np.concatenate([[0.0], np.cumsum(widths[:n - 1])]))
        values = np.array(rows)[:, :, None]
        traj = Trajectory(mesh, values)
        for k in (1, 2, 3):
            q = NonstandardQoi(np.array([1.0]), threshold, occurrence=k)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = eval_event_time(traj, q)
            expected = per_interval_kth(mesh, values, q)
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    @given(st.integers(2, 12).flatmap(lambda n: st.lists(
               st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n),
               min_size=1, max_size=6)),
           st.sampled_from([0.0, 1.0, -2.0]), _widths, st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_real_values_within_ulps_of_the_loop(self, rows, threshold, widths, k):
        """With real node values a computed root can round a few ulps past
        its interval's right node, so the interval order and the loop's
        sorted order may pick different times, within ulps of that node; the
        rows that have a k-th crossing are the same."""
        n = len(rows[0])
        mesh = Mesh1D(np.concatenate([[0.0], np.cumsum(widths[:n - 1])]))
        values = np.array(rows)[:, :, None]
        q = NonstandardQoi(np.array([1.0]), threshold, occurrence=k)
        got = eval_event_time(Trajectory(mesh, values), q)
        expected = per_interval_kth(mesh, values, q)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(expected))
        found = ~np.isnan(expected)
        assert np.all(np.abs(got - expected)[found]
                      <= 4 * np.spacing(np.abs(expected[found])))
