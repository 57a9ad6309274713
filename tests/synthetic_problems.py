"""Small ODE problems with one row per draw that fail in chosen rows, a
piecewise-constant weight to pair residuals with, and a wrapper that counts a
problem's model calls."""
import dataclasses

import numpy as np

from adaptive_mlmc.models import OdeProblem


def blow_up(u0=(2.0,)):
    """u' = u^2 on (0, 1], one row per u(0); u(0) = 2 blows up at t = 0.5."""
    return OdeProblem(1,
                      lambda u, t: np.asarray(u, dtype=float) ** 2,
                      lambda u, t: 2.0 * np.asarray(u, dtype=float)[..., None],
                      np.array(u0)[:, None], 1.0)


def exact_reciprocal(w):
    """c with c * w == 1.0 exactly, so a quadrature sum whose only nonzero
    term is w * c is exactly 1 in any summation order."""
    c = 1.0 / w
    for _ in range(64):
        if c * w == 1.0:
            return c
        c = np.nextafter(c, np.inf if c * w < 1.0 else -np.inf)
    raise AssertionError(f"no exact reciprocal of {w}")


def one_point_jacobian(rhs, t_point, c):
    """d = 1 problems on (0, 1], u(0) = 1, one row per flag: the Jacobian is
    flag * c at t_point and 0 at every other time."""
    def problem(flags):
        flags = np.asarray(flags, dtype=float)

        def jacobian(u, t):
            row = flags.reshape((-1,) + (1,) * (u.ndim - 1))
            at_point = np.where(np.asarray(t) == t_point, c, 0.0)[..., None]
            return (row * at_point * np.ones(u.shape))[..., None]
        return OdeProblem(1, rhs, jacobian, np.ones((flags.size, 1)), 1.0)
    return problem


class PiecewiseConstant:
    """A weight constant on each interval of `mesh` (weights: (intervals, d)),
    usable as the adjoint of `residual_pairing`, which integrates on its mesh."""

    def __init__(self, mesh, weights):
        self.mesh, self.weights = mesh, weights

    def __call__(self, t):
        idx = np.clip(np.searchsorted(self.mesh.nodes, t, side="right") - 1,
                      0, self.mesh.n_intervals - 1)
        return self.weights[idx]


def counting_calls(problem, calls):
    """`problem` with its `rhs` and `jacobian` calls counted into `calls`."""
    def counting(name, fn):
        def wrapped(u, t):
            calls[name] += 1
            return fn(u, t)
        return wrapped

    return dataclasses.replace(problem, rhs=counting("rhs", problem.rhs),
                               jacobian=counting("jacobian", problem.jacobian))
