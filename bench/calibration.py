"""A fixed reference kernel that measures how fast this machine runs right now.

On a shared host the speed of a core drifts by tens of percent over minutes,
and a run's wall time drifts with it.  The worker times this kernel just
before and just after each `mlmc run`; the benchmark divides the run's wall
time by the mean of the two and multiplies by REFERENCE_S, which gives the
run's wall time on a machine that runs the kernel in REFERENCE_S seconds.

The kernel imitates the package's inner loops without calling the package,
so a change to `src/` never changes it: a cG(1)-like Newton step on 2-vectors
(outer products, an einsum, a 2x2 solve) and a P1-like assembly on a
65-node mesh (searchsorted, add.at, a tridiagonal solve).
"""
import time

ITERATIONS = 4000
# About the seconds the kernel takes on the reference machine: 2 shared
# vCPUs of an Intel Xeon at 2.0 GHz, Python 3.11.7, numpy 2.4.6, scipy
# 1.17.1, where it measured 0.5-0.9 s.  Only ratios to it matter.
REFERENCE_S = 0.6


def _kernel(iterations):
    # Imported here, so that the benchmark's parent process can read
    # REFERENCE_S without loading numpy into its resident size.
    import numpy as np
    from scipy.linalg import solve_banded

    eye = np.eye(2)
    sq = np.array([0.2113248654051871, 0.7886751345948129])
    wq = np.array([0.5, 0.5])
    jac = np.array([[[0.0, 1.0], [-1.0, 0.0]]] * 2)
    nodes = np.linspace(0.0, 3.0, 65)
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    ab = np.zeros((3, 63))
    ab[0, 1:], ab[1], ab[2, :-1] = -1.0, 2.0, -1.0
    un = np.array([1.0, 0.0])
    total = 0.0
    for i in range(iterations):
        x = un + 0.01 * (i % 7)
        for _ in range(2):
            uq = np.outer(1.0 - sq, un) + np.outer(sq, x)
            residual = x - un - 0.01 * (wq @ (uq @ jac[0]))
            j = eye - 0.01 * np.einsum("q,qij->ij", wq * sq, jac)
            x = x - np.linalg.solve(j, residual)
            total += float(np.max(np.abs(residual)))
        idx = np.clip(np.searchsorted(nodes, mids) - 1, 0, 63)
        load = np.zeros(nodes.size)
        np.add.at(load, idx, np.sin(mids * (1 + i % 5)))
        total += float(solve_banded((1, 1), ab, load[1:-1])[31])
    return total


def measure():
    """Seconds one pass of the kernel takes now."""
    start = time.perf_counter()
    _kernel(ITERATIONS)
    return time.perf_counter() - start


def warm_up():
    _kernel(ITERATIONS // 20)
