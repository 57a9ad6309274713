"""Quantities of interest: terminal-time functionals and time-to-event.

Both act on every row of a trajectory at once and return one value per row;
a row whose event does not happen gets NaN.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .meshes import MeshError, REL_TOL
from .solvers import Trajectory


@dataclass(frozen=True)
class StandardQoi:
    """Q(u) = u(t_star) . psi."""

    psi: np.ndarray
    t_star: float

    def __post_init__(self):
        psi = np.ascontiguousarray(self.psi, dtype=float)
        psi.setflags(write=False)
        object.__setattr__(self, "psi", psi)
        if not self.t_star > 0:
            raise ValueError("t_star must be positive")


@dataclass(frozen=True)
class NonstandardQoi:
    """Q(u) = time of the k-th crossing of u(t) . psi through `threshold`."""

    psi: np.ndarray
    threshold: float
    occurrence: int = 1

    def __post_init__(self):
        psi = np.ascontiguousarray(self.psi, dtype=float)
        psi.setflags(write=False)
        object.__setattr__(self, "psi", psi)
        if self.occurrence < 1:
            raise ValueError("occurrence must be >= 1")


def eval_standard(traj: Trajectory, q: StandardQoi) -> np.ndarray:
    """u(t_star) . psi for every row of the trajectory, shape (M,)."""
    if q.t_star > traj.mesh.length * (1.0 + REL_TOL):
        raise MeshError("t_star beyond the trajectory mesh")
    return (traj(min(q.t_star, traj.mesh.length)) * q.psi).sum(axis=-1)


def event_times(traj: Trajectory, q: NonstandardQoi):
    """Row index and time of every crossing of U(t) . psi = threshold in
    (0, T], sorted by row and then by time.

    U . psi is piecewise linear, so each sign change across an interval
    yields one closed-form root, and an exact zero at a node t > 0 counts
    once.  A tangential touch inside an interval is invisible to the sign
    check, and a non-finite row has no crossings.
    """
    nodes = traj.mesh.nodes
    g = (traj.values * q.psi).sum(axis=-1) - q.threshold
    zero_row, zero_node = np.nonzero(g[:, 1:] == 0.0)
    row, i = np.nonzero(g[:, :-1] * g[:, 1:] < 0.0)
    g0, g1 = g[row, i], g[row, i + 1]
    rows = np.concatenate([zero_row, row])
    times = np.concatenate([nodes[zero_node + 1],
                            nodes[i] + (nodes[i + 1] - nodes[i]) * g0 / (g0 - g1)])
    order = np.lexsort((times, rows))
    return rows[order], times[order]


def eval_event_time(traj: Trajectory, q: NonstandardQoi) -> np.ndarray:
    """Time of the k-th crossing of every row, shape (M,); NaN in a row with
    fewer crossings."""
    rows, times = event_times(traj, q)
    counts = np.bincount(rows, minlength=traj.values.shape[0])
    found = counts >= q.occurrence
    out = np.full(counts.size, np.nan)
    out[found] = times[(np.cumsum(counts) - counts)[found] + q.occurrence - 1]
    return out
