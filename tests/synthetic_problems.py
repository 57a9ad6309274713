"""Small ODE problems with one row per draw that fail in chosen rows, weights
constant in time to pair residuals with, and a wrapper that counts a
problem's model calls."""
import dataclasses

import numpy as np

from adaptive_mlmc.models import OdeProblem
from adaptive_mlmc.solvers import Trajectory


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


def exact_sum_reciprocal(terms):
    """c with sum_q terms[q] * c == 1.0 exactly when the products are added
    onto 0.0 in q order, as the kernels' Gauss sums add them."""
    c = 1.0 / sum(terms)
    for _ in range(64):
        total = 0.0
        for term in terms:
            total += term * c
        if total == 1.0:
            return c
        c = np.nextafter(c, np.inf if total < 1.0 else -np.inf)
    raise AssertionError(f"no exact reciprocal of the sum of {terms}")


def constant_rates(rates):
    """u' = a u on (0, 1], u(0) = 1, one row per rate a, marked linear."""
    a = np.asarray(rates, dtype=float)

    def per_row(u):
        return a.reshape((-1,) + (1,) * (u.ndim - 1))
    return OdeProblem(1, lambda u, t: per_row(u) * u,
                      lambda u, t: (per_row(u) * np.ones(u.shape))[..., None],
                      np.ones((a.size, 1)), 1.0, linear=True)


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


def constant_weights(mesh, weights):
    """K weights constant in time on `mesh`, row k at weights[k] (d,), as the
    adjoint of `residual_pairing`, which integrates on its mesh: per interval,
    row k pairs weights[k] with the interval's integral of the residual, so d
    independent rows that pair to zero on an interval make every constant
    weight on it pair to zero."""
    return Trajectory(mesh, np.repeat(weights[:, None], mesh.nodes.size, axis=1))


def counting_calls(problem, calls):
    """`problem` with its `rhs` and `jacobian` calls counted into `calls`."""
    def counting(name, fn):
        def wrapped(u, t):
            calls[name] += 1
            return fn(u, t)
        return wrapped

    return dataclasses.replace(problem, rhs=counting("rhs", problem.rhs),
                               jacobian=counting("jacobian", problem.jacobian))
