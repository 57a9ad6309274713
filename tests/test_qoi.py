"""Terminal-value and time-to-event quantity-of-interest tests."""
import numpy as np
import pytest

from adaptive_mlmc.meshes import Mesh1D, MeshError, uniform_mesh
from adaptive_mlmc.qoi import (EventNotFound, NonstandardQoi, StandardQoi,
                               eval_event_time, eval_standard, event_times)
from adaptive_mlmc.solvers import Trajectory


def traj_from(values, length=None):
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    length = float(length if length is not None else n - 1)
    return Trajectory(uniform_mesh(length, n - 1), values)


class TestStandardQoi:
    def test_terminal_dot_product(self):
        traj = traj_from([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]], length=1.0)
        q = StandardQoi(np.array([1.0, -1.0]), 1.0)
        assert eval_standard(traj, q) == pytest.approx(4.0 - 5.0)

    def test_interior_t_star_interpolates(self):
        traj = traj_from([[0.0], [2.0]], length=1.0)
        q = StandardQoi(np.array([1.0]), 0.25)
        assert eval_standard(traj, q) == pytest.approx(0.5)

    def test_t_star_beyond_mesh(self):
        traj = traj_from([[0.0], [1.0]], length=1.0)
        with pytest.raises(MeshError):
            eval_standard(traj, StandardQoi(np.array([1.0]), 2.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            StandardQoi(np.array([1.0]), 0.0)


class TestEventTimes:
    def test_linear_crossing_closed_form(self):
        # g = u - 1 goes 3 -> -1 on [0, 1]: root where 3 - 4t = 1, t = 0.5
        traj = traj_from([[3.0], [-1.0]], length=1.0)
        times = event_times(traj, NonstandardQoi(np.array([1.0]), 1.0))
        np.testing.assert_allclose(times, [0.5])

    def test_node_zero_counted_once(self):
        traj = traj_from([[1.0], [0.0], [-1.0]], length=2.0)
        times = event_times(traj, NonstandardQoi(np.array([1.0]), 0.0))
        np.testing.assert_allclose(times, [1.0])

    def test_zero_at_t0_not_counted(self):
        traj = traj_from([[0.0], [1.0], [-1.0]], length=2.0)
        times = event_times(traj, NonstandardQoi(np.array([1.0]), 0.0))
        np.testing.assert_allclose(times, [1.5])

    def test_sine_like_crossings(self):
        ts = np.linspace(0.0, 2.5 * np.pi, 1001)
        traj = Trajectory(Mesh1D(ts), np.sin(ts)[:, None])
        times = event_times(traj, NonstandardQoi(np.array([1.0]), 0.0))
        np.testing.assert_allclose(times, [np.pi, 2.0 * np.pi], rtol=1e-5)

    def test_occurrence_selection(self):
        traj = traj_from([[1.0], [-1.0], [1.0], [-1.0]], length=3.0)
        q1 = NonstandardQoi(np.array([1.0]), 0.0, occurrence=1)
        q3 = NonstandardQoi(np.array([1.0]), 0.0, occurrence=3)
        assert eval_event_time(traj, q1) == pytest.approx(0.5)
        assert eval_event_time(traj, q3) == pytest.approx(2.5)

    def test_missing_occurrence_raises(self):
        traj = traj_from([[1.0], [-1.0]], length=1.0)
        with pytest.raises(EventNotFound):
            eval_event_time(traj, NonstandardQoi(np.array([1.0]), 0.0,
                                                 occurrence=2))

    def test_no_crossing_raises(self):
        traj = traj_from([[1.0], [2.0]], length=1.0)
        with pytest.raises(EventNotFound):
            eval_event_time(traj, NonstandardQoi(np.array([1.0]), 0.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            NonstandardQoi(np.array([1.0]), 0.0, occurrence=0)
