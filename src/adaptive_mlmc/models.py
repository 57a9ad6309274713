"""ODE problem definitions for the benchmark experiments.

Right-hand sides and Jacobians are vectorized over a leading batch axis:
``rhs(u, t)`` accepts ``u`` of shape (d,) with scalar ``t`` or (m, d) with
``t`` of shape (m,), and returns the matching shape; Jacobians return
(d, d) or (m, d, d).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class SampleFailure(RuntimeError):
    """A single sample could not be completed (solver breakdown, missing event).

    `OdeMlmcModel.evaluate` catches this for the one draw that raised and
    reports a NaN QoI for it; the MLMC driver marks that sample failed and
    redraws.
    """


@dataclass(frozen=True)
class OdeProblem:
    """du/dt = rhs(u, t) on (0, horizon], u(0) = initial."""

    dim: int
    rhs: Callable
    jacobian: Callable
    initial: np.ndarray
    horizon: float

    def __post_init__(self):
        initial = np.ascontiguousarray(self.initial, dtype=float)
        initial.setflags(write=False)
        object.__setattr__(self, "initial", initial)
        if initial.shape != (self.dim,):
            raise ValueError("initial condition has wrong dimension")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")


def harmonic_oscillator(k: float, m: float) -> OdeProblem:
    """Forced, damped oscillator as a first-order system.

    u1'' = -(k/m) u1 - (1/m) u1' + (50/m) cos(10 t), u=(5,0) at t=0, on (0,3].
    """
    if m == 0:
        raise ValueError("mass must be nonzero")
    k = float(k)
    m = float(m)

    def rhs(u, t):
        u = np.asarray(u, dtype=float)
        t = np.asarray(t, dtype=float)
        out = np.empty_like(u)
        out[..., 0] = u[..., 1]
        out[..., 1] = -(k / m) * u[..., 0] - (1.0 / m) * u[..., 1] \
            + (50.0 / m) * np.cos(10.0 * t)
        return out

    jac_const = np.array([[0.0, 1.0], [-k / m, -1.0 / m]])

    def jacobian(u, t):
        u = np.asarray(u, dtype=float)
        if u.ndim == 1:
            return jac_const
        return np.broadcast_to(jac_const, u.shape[:-1] + (2, 2))

    return OdeProblem(2, rhs, jacobian, np.array([5.0, 0.0]), 3.0)


def lorenz(theta: float) -> OdeProblem:
    """Lorenz system with sigma=10, r=28, b=8/3, u(0)=(theta, 0, 24), on (0,2]."""
    sigma, r, b = 10.0, 28.0, 8.0 / 3.0

    def rhs(u, t):
        u = np.asarray(u, dtype=float)
        out = np.empty_like(u)
        out[..., 0] = sigma * (u[..., 1] - u[..., 0])
        out[..., 1] = r * u[..., 0] - u[..., 1] - u[..., 0] * u[..., 2]
        out[..., 2] = u[..., 0] * u[..., 1] - b * u[..., 2]
        return out

    def jacobian(u, t):
        u = np.asarray(u, dtype=float)
        J = np.zeros(u.shape[:-1] + (3, 3))
        J[..., 0, 0] = -sigma
        J[..., 0, 1] = sigma
        J[..., 1, 0] = r - u[..., 2]
        J[..., 1, 1] = -1.0
        J[..., 1, 2] = -u[..., 0]
        J[..., 2, 0] = u[..., 1]
        J[..., 2, 1] = u[..., 0]
        J[..., 2, 2] = -b
        return J

    return OdeProblem(3, rhs, jacobian, np.array([float(theta), 0.0, 24.0]), 2.0)


def two_body(theta: float) -> OdeProblem:
    """Planar Kepler orbit, u=(x, y, vx, vy), u(0)=(0.4, 0, 0, theta), on (0,10]."""

    def rhs(u, t):
        u = np.asarray(u, dtype=float)
        r2 = u[..., 0] ** 2 + u[..., 1] ** 2
        if np.any(r2 < 1e-12) or not np.all(np.isfinite(r2)):
            raise SampleFailure("two-body collision: trajectory reached r = 0")
        r3 = r2 ** 1.5
        out = np.empty_like(u)
        out[..., 0] = u[..., 2]
        out[..., 1] = u[..., 3]
        out[..., 2] = -u[..., 0] / r3
        out[..., 3] = -u[..., 1] / r3
        return out

    def jacobian(u, t):
        u = np.asarray(u, dtype=float)
        x, y = u[..., 0], u[..., 1]
        r2 = x ** 2 + y ** 2
        if np.any(r2 < 1e-12) or not np.all(np.isfinite(r2)):
            raise SampleFailure("two-body collision: trajectory reached r = 0")
        r5 = r2 ** 2.5
        J = np.zeros(u.shape[:-1] + (4, 4))
        J[..., 0, 2] = 1.0
        J[..., 1, 3] = 1.0
        J[..., 2, 0] = (2.0 * x ** 2 - y ** 2) / r5
        J[..., 2, 1] = 3.0 * x * y / r5
        J[..., 3, 0] = 3.0 * x * y / r5
        J[..., 3, 1] = (2.0 * y ** 2 - x ** 2) / r5
        return J

    return OdeProblem(4, rhs, jacobian, np.array([0.4, 0.0, 0.0, float(theta)]), 10.0)
