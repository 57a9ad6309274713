"""Terminal-value and time-to-event quantity-of-interest tests."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ode_reference
from adaptive_mlmc.meshes import Mesh1D, MeshError, uniform_mesh
from adaptive_mlmc.qoi import (NonstandardQoi, StandardQoi, eval_event_time,
                               eval_standard, event_times)
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


class TestEventTimes:
    def test_linear_crossing_closed_form(self):
        # g = u - 1 goes 3 -> -1 on [0, 1]: root where 3 - 4t = 1, t = 0.5
        traj = traj_from([[3.0], [-1.0]], length=1.0)
        rows, times = event_times(traj, NonstandardQoi(np.array([1.0]), 1.0))
        np.testing.assert_array_equal(rows, [0])
        np.testing.assert_allclose(times, [0.5])

    def test_node_zero_counted_once(self):
        traj = traj_from([[1.0], [0.0], [-1.0]], length=2.0)
        _, times = event_times(traj, NonstandardQoi(np.array([1.0]), 0.0))
        np.testing.assert_allclose(times, [1.0])

    def test_zero_at_t0_not_counted(self):
        traj = traj_from([[0.0], [1.0], [-1.0]], length=2.0)
        _, times = event_times(traj, NonstandardQoi(np.array([1.0]), 0.0))
        np.testing.assert_allclose(times, [1.5])

    def test_sine_like_crossings(self):
        ts = np.linspace(0.0, 2.5 * np.pi, 1001)
        traj = Trajectory(Mesh1D(ts), np.sin(ts)[None, :, None])
        _, times = event_times(traj, NonstandardQoi(np.array([1.0]), 0.0))
        np.testing.assert_allclose(times, [np.pi, 2.0 * np.pi], rtol=1e-5)

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


# Node values on a coarse lattice hit the threshold exactly at some nodes.
_node_values = st.one_of(st.integers(-3, 3).map(float),
                         st.floats(-1e3, 1e3, allow_nan=False))


class TestVectorizedCrossings:
    @given(st.integers(2, 12).flatmap(lambda n: st.lists(
               st.lists(_node_values, min_size=n, max_size=n), min_size=1, max_size=6)),
           st.sampled_from([0.0, 1.0, -2.0]),
           st.lists(st.floats(0.01, 10.0), min_size=11, max_size=11))
    @settings(max_examples=300, deadline=None)
    def test_equal_to_per_interval_loop(self, rows, threshold, widths):
        """Every row's crossing times are np.array_equal to the per-interval
        loop's (tests/ode_reference.py), exact zeros at nodes (including
        t = 0) and tangential touches included."""
        n = len(rows[0])
        mesh = Mesh1D(np.concatenate([[0.0], np.cumsum(widths[:n - 1])]))
        values = np.array(rows)[:, :, None]
        q = NonstandardQoi(np.array([1.0]), threshold, occurrence=2)
        traj = Trajectory(mesh, values)
        expected = [ode_reference.event_times(mesh, v, q) for v in values]
        got_rows, got_times = event_times(traj, q)
        assert np.all(np.diff(got_rows) >= 0)
        assert all(np.array_equal(got_times[got_rows == k], e)
                   for k, e in enumerate(expected))
        kth = eval_event_time(traj, q)
        for e, t in zip(expected, kth):
            assert (np.isnan(t) and e.size < 2) or t == e[1]
