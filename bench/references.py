"""Reference expectations E[Q] for the benchmark workloads.

Derived without the package: each QoI is computed with scipy's `solve_ivp`
at tight tolerances, and the expectation over the random parameters with
tensor Gauss quadrature (Gauss-Hermite for normal inputs, Gauss-Legendre
for uniform ones).  Every value is computed at two quadrature orders and
the pair must agree to `AGREE_TOL`; the finer one is kept.

    python3 bench/references.py            # print the values
    python3 bench/references.py --write    # rewrite bench/references.json
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

RTOL = 1e-12
ATOL = 1e-13
AGREE_TOL = 1e-7
REFERENCES = Path(__file__).with_name("references.json")


def gauss_uniform(low, high, n):
    x, w = np.polynomial.legendre.leggauss(n)
    return low + 0.5 * (high - low) * (x + 1.0), 0.5 * w


def gauss_normal(mean, std, n):
    x, w = np.polynomial.hermite_e.hermegauss(n)
    return mean + std * x, w / math.sqrt(2.0 * math.pi)


def harmonic_terminal(k, m):
    """u1(3) of m u1'' + u1' + k u1 = 50 cos(10 t), u1(0) = 5, u1'(0) = 0."""
    def f(t, u):
        return [u[1], (-k * u[0] - u[1] + 50.0 * math.cos(10.0 * t)) / m]
    sol = solve_ivp(f, (0.0, 3.0), [5.0, 0.0], method="DOP853",
                    rtol=RTOL, atol=ATOL)
    return sol.y[0, -1]


def two_body_third_crossing(theta):
    """Third zero of x(t) for the Kepler orbit from (0.4, 0, 0, theta)."""
    def f(t, u):
        r3 = (u[0] ** 2 + u[1] ** 2) ** 1.5
        return [u[2], u[3], -u[0] / r3, -u[1] / r3]

    def crossing(t, u):
        return u[0]

    sol = solve_ivp(f, (0.0, 10.0), [0.4, 0.0, 0.0, theta], method="DOP853",
                    rtol=RTOL, atol=ATOL, events=crossing)
    times = sol.t_events[0]
    if times.size < 3:
        raise RuntimeError(f"theta={theta}: only {times.size} crossings")
    return times[2]


def advection_diffusion_qoi(b):
    """int_1^1.5 u dx for u'' + b u' = f on (0, 3), u(0) = u(3) = 0.

    f = 100 (x-1)^2 (2.5-x)^2 on [1, 2.5] and 0 elsewhere.  The problem is
    linear, so u = p + c h with p, h solving initial value problems from
    u(0) = 0 with slopes 0 and 1; a third state accumulates the integral.
    Each IVP is integrated piecewise between the kinks of f and psi.
    """
    def source(x):
        return 100.0 * (x - 1.0) ** 2 * (2.5 - x) ** 2 if 1.0 <= x <= 2.5 else 0.0

    def march(slope, forced):
        y = np.array([0.0, slope, 0.0])
        for a, c in ((0.0, 1.0), (1.0, 1.5), (1.5, 2.5), (2.5, 3.0)):
            weight = 1.0 if (a, c) == (1.0, 1.5) else 0.0
            mid_forced = forced and 1.0 <= 0.5 * (a + c) <= 2.5

            def f(x, u, weight=weight, mid_forced=mid_forced):
                fx = source(x) if mid_forced else 0.0
                return [u[1], fx - b * u[1], weight * u[0]]
            y = solve_ivp(f, (a, c), y, method="DOP853",
                          rtol=RTOL, atol=ATOL).y[:, -1]
        return y

    p = march(0.0, True)
    h = march(1.0, False)
    c = -p[0] / h[0]
    return p[2] + c * h[2]


def expectation(qoi, rules):
    """Tensor-product quadrature of qoi over the given (nodes, weights) rules."""
    grids = np.meshgrid(*[r[0] for r in rules], indexing="ij")
    weights = np.prod(np.meshgrid(*[r[1] for r in rules], indexing="ij"), axis=0)
    values = np.array([qoi(*point) for point in zip(*(g.ravel() for g in grids))])
    return float(weights.ravel() @ values)


def _harmonic(n):
    return expectation(harmonic_terminal,
                       [gauss_normal(50.0, 2.0, n), gauss_uniform(0.225, 0.275, n)])


def _two_body(n):
    return expectation(two_body_third_crossing, [gauss_uniform(1.97, 2.0, n)])


def _advection_diffusion(n):
    return expectation(advection_diffusion_qoi, [gauss_uniform(12.0, 16.0, n)])


# experiment name -> (expectation at quadrature order n, coarse n, fine n)
DERIVATIONS = {
    "harmonic-standard": (_harmonic, 16, 24),
    "two-body": (_two_body, 16, 32),
    "advection-diffusion-1d": (_advection_diffusion, 8, 16),
}


def derive() -> dict:
    out = {}
    for name, (fn, coarse, fine) in DERIVATIONS.items():
        lo, hi = fn(coarse), fn(fine)
        if abs(lo - hi) > AGREE_TOL * max(1.0, abs(hi)):
            raise RuntimeError(f"{name}: quadrature orders {coarse} and {fine} "
                               f"disagree ({lo!r} vs {hi!r})")
        out[name] = {"expectation": hi, "quadrature_points": fine,
                     "quadrature_change": abs(lo - hi)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"rewrite {REFERENCES.name}")
    args = parser.parse_args(argv)
    refs = derive()
    text = json.dumps(refs, indent=2, sort_keys=True) + "\n"
    if args.write:
        REFERENCES.write_text(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
