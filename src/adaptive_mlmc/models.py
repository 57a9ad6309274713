"""ODE problem definitions for the benchmark experiments.

One problem holds M rows, one per draw of its parameters, and every row is
integrated on the same mesh.  States carry the rows on their leading axis:
``rhs(u, t)`` accepts ``u`` of shape (M, ..., d), with ``t`` broadcasting
against ``u.shape[:-1]`` (a scalar, one time per row, or the (K,) times of
states shaped (M, K, d)), and returns the shape of ``u``; Jacobians return
(M, ..., d, d).  Row k of a result depends on row k of ``u`` and on the
parameters of draw k alone.  A state a model cannot evaluate (a two-body
collision) gives NaN in its own row instead of an exception, so one bad draw
never fails the rows it is batched with.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class OdeProblem:
    """du/dt = rhs(u, t) on (0, horizon], u(0) = initial of shape (M, d):
    M rows at once.  `linear` marks rhs = J u + rhs(0, t), J constant in t per row."""

    dim: int
    rhs: Callable
    jacobian: Callable
    initial: np.ndarray
    horizon: float
    linear: bool = False

    def __post_init__(self):
        initial = np.array(self.initial, dtype=float)
        initial.setflags(write=False)
        object.__setattr__(self, "initial", initial)
        if initial.ndim != 2 or initial.shape[1] != self.dim:
            raise ValueError("initial condition must have shape (rows, dim)")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")


def _components(u: np.ndarray):
    """The d components of states (M, ..., d), each flattened over all points
    row by row (flat arrays are the cheapest to compute on)."""
    return u.reshape(-1, u.shape[-1]).T


def _initial(rows: int, *columns) -> np.ndarray:
    """(rows, d) initial states from per-row columns and constants."""
    return np.column_stack([np.broadcast_to(np.asarray(c, dtype=float), (rows,))
                            for c in columns])


def harmonic_oscillator(k, m) -> OdeProblem:
    """Forced, damped oscillator as a first-order system, one row per (k, m).

    u1'' = -(k/m) u1 - (1/m) u1' + (50/m) cos(10 t), u=(5,0) at t=0, on (0,3].
    """
    k, m = np.broadcast_arrays(np.atleast_1d(np.asarray(k, dtype=float)),
                               np.atleast_1d(np.asarray(m, dtype=float)))
    if np.any(m == 0):
        raise ValueError("mass must be nonzero")
    coefficients = np.stack([-(k / m), 1.0 / m, 50.0 / m])
    jac = np.zeros(k.shape + (2, 2))
    jac[:, 0, 1] = 1.0
    jac[:, 1, 0] = coefficients[0]
    jac[:, 1, 1] = -coefficients[1]

    def rhs(u, t):
        points = u.shape[:-1]
        stiffness, damping = np.repeat(coefficients[:2], int(np.prod(points[1:])), 1)
        forcing = coefficients[2].reshape(points[:1] + (1,) * (len(points) - 1))
        x, y = _components(u)
        out = np.empty((x.size, 2))
        out[:, 0] = y
        # flattened row by row, so each row's points stay together
        out[:, 1] = ((stiffness * x - damping * y).reshape(points)
                     + forcing * np.cos(10.0 * t)).reshape(-1)
        return out.reshape(u.shape)

    def jacobian(u, t):
        J = np.empty(u.shape + (2,))
        J[...] = jac.reshape(jac.shape[:1] + (1,) * (u.ndim - 2) + (2, 2))
        return J

    return OdeProblem(2, rhs, jacobian, _initial(k.size, 5.0, 0.0), 3.0, linear=True)


def lorenz(theta) -> OdeProblem:
    """Lorenz system with sigma=10, r=28, b=8/3, u(0)=(theta, 0, 24), on (0,2]."""
    sigma, r, b = 10.0, 28.0, 8.0 / 3.0

    constant = np.zeros((3, 3))
    constant[0] = -sigma, sigma, 0.0
    constant[1, 1] = -1.0
    constant[2, 2] = -b

    def rhs(u, t):
        x, y, z = _components(u)
        out = np.empty((x.size, 3))
        out[:, 0] = sigma * (y - x)
        out[:, 1] = r * x - y - x * z
        out[:, 2] = x * y - b * z
        return out.reshape(u.shape)

    def jacobian(u, t):
        x, y, z = _components(u)
        J = np.empty((x.size, 3, 3))
        J[:] = constant
        J[:, 1, 0] = r - z
        J[:, 1, 2] = -x
        J[:, 2, 0] = y
        J[:, 2, 1] = x
        return J.reshape(u.shape + (3,))

    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    return OdeProblem(3, rhs, jacobian, _initial(theta.size, theta, 0.0, 24.0), 2.0)


def _collision_free(r2: np.ndarray) -> np.ndarray:
    """r^2, with NaN where the bodies meet (r^2 < 1e-12)."""
    return np.where(r2 >= 1e-12, r2, np.nan)


def two_body(theta) -> OdeProblem:
    """Planar Kepler orbit, u=(x, y, vx, vy), u(0)=(0.4, 0, 0, theta), on (0,10].

    A state with r = 0 gives NaN in its row.
    """

    def rhs(u, t):
        x, y, vx, vy = _components(u)
        r3 = _collision_free(x ** 2 + y ** 2) ** 1.5
        out = np.empty((x.size, 4))
        out[:, 0] = vx
        out[:, 1] = vy
        out[:, 2] = -x / r3
        out[:, 3] = -y / r3
        return out.reshape(u.shape)

    def jacobian(u, t):
        x, y = _components(u)[:2]
        r5 = _collision_free(x ** 2 + y ** 2) ** 2.5
        J = np.zeros((x.size, 4, 4))
        J[:, 0, 2] = 1.0
        J[:, 1, 3] = 1.0
        J[:, 2, 0] = (2.0 * x ** 2 - y ** 2) / r5
        J[:, 2, 1] = 3.0 * x * y / r5
        J[:, 3, 0] = 3.0 * x * y / r5
        J[:, 3, 1] = (2.0 * y ** 2 - x ** 2) / r5
        return J.reshape(u.shape + (4,))

    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    return OdeProblem(4, rhs, jacobian, _initial(theta.size, 0.4, 0.0, 0.0, theta),
                      10.0)
