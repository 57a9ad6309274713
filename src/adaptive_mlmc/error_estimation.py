"""Adjoint-based a posteriori error estimates for both QoI kinds.

The standard estimate pairs the forward residual with one adjoint solution,
for all rows of a chunk at once.  The time-to-event estimate needs two
adjoints (terminal values psi and J(t_c)^T psi, solved and paired together)
on the mesh restricted to the row's own crossing t_c, so it treats one row;
the second adjoint supplies the linearization correction in the denominator.
Remainder terms of the event-time linearization are dropped.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import OdeProblem
from .qoi import NonstandardQoi, StandardQoi
from .solvers import Trajectory, residual_pairing, solve_adjoint


@dataclass(frozen=True)
class ErrorDecomposition:
    """Signed per-interval error contributions of M rows and each row's total.

    `contributions` (M, n) is NaN past a row's own end (an event-time row
    stops at its crossing) and in a row without an estimate.  `total` (M,)
    is each row's sum of contributions over its `denominator` (M,): 1 for
    standard QoIs, the event-time linearization scalar otherwise (NaN for a
    grazing event, which has no linearization).
    """

    contributions: np.ndarray
    total: np.ndarray
    denominator: np.ndarray

    def __post_init__(self):
        for name in ("contributions", "total", "denominator"):
            array = np.ascontiguousarray(getattr(self, name), dtype=float)
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        if np.any(self.denominator == 0.0):
            raise ValueError("decomposition needs nonzero denominators")


def estimate_standard_error(problem: OdeProblem, forward: Trajectory,
                            q: StandardQoi) -> ErrorDecomposition:
    """Estimate Q(u) - Q(U), true minus computed, for every row, decomposed
    per interval: one adjoint solve and one residual pairing for all rows,
    which share the restricted mesh.  A failed row's decomposition is NaN."""
    phi = solve_adjoint(problem, forward, q.t_star, q.psi)
    contributions = residual_pairing(problem, forward, phi, q.t_star)
    return ErrorDecomposition(contributions, contributions.sum(axis=1),
                              np.ones(len(contributions)))


def estimate_event_time_error(problem: OdeProblem, forward: Trajectory,
                              q: NonstandardQoi, t_c: float) -> ErrorDecomposition:
    """Linearized estimate of t_c - t, the computed crossing t_c of a one-row
    trajectory minus the true one t, as a one-row decomposition.

    Numerator contributions estimate e(t_c) . psi; the denominator is
    f(U(t_c), t_c) . psi plus the estimated e(t_c) . J(t_c)^T psi, with the
    Jacobian frozen at (U(t_c), t_c).  Each row crosses at its own t_c and so
    needs its own adjoint mesh, on which both weights are solved together.
    A grazing event gets a NaN denominator (it vanishes) and so a NaN total.
    """
    u_c = forward(t_c)
    jt_psi = (problem.jacobian(u_c, t_c) * q.psi[:, None]).sum(axis=-2)
    phi = solve_adjoint(problem, forward, t_c, np.concatenate([q.psi[None], jt_psi]))
    paired = residual_pairing(problem, forward, phi, t_c)
    contributions, correction = paired[:1], float(paired[1].sum())
    f_psi = float((problem.rhs(u_c, t_c) * q.psi).sum())
    denominator = f_psi + correction
    if abs(denominator) < 1e-10 * (1.0 + abs(f_psi)):
        denominator = np.nan
    return ErrorDecomposition(contributions, contributions.sum(axis=1) / denominator,
                              [denominator])
