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


def eval_event_time(traj: Trajectory, q: NonstandardQoi) -> np.ndarray:
    """Time of the k-th crossing of U(t) . psi = threshold in (0, T] of every
    row, shape (M,); NaN in a row with fewer crossings.  U . psi is piecewise
    linear, so an interval (t_i, t_{i+1}] holds at most one crossing: a sign
    change (its closed-form root, clamped into [t_i, t_{i+1}]) or an exact
    zero at t_{i+1}.  The k-th lies
    in the first interval where the running count of crossings reaches k.  A
    tangential touch inside an interval is invisible to the sign check."""
    nodes = traj.mesh.nodes
    g = (traj.values * q.psi).sum(axis=-1) - q.threshold
    at_node = g[:, 1:] == 0.0
    count = np.cumsum(at_node | (g[:, :-1] * g[:, 1:] < 0.0), axis=1)
    row = np.flatnonzero(count[:, -1] >= q.occurrence)
    i = np.argmax(count[row] >= q.occurrence, axis=1)
    out = np.full(len(g), np.nan)
    out[row] = nodes[i + 1]
    root = ~at_node[row, i]
    row, i = row[root], i[root]
    g0, g1 = g[row, i], g[row, i + 1]
    # a root that rounds past its interval's right node is clamped onto it,
    # so the times increase with k
    out[row] = np.clip(nodes[i] + (nodes[i + 1] - nodes[i]) * g0 / (g0 - g1),
                       nodes[i], nodes[i + 1])
    return out
