"""Per-layer timings of the ODE kernels on fixed shapes.

    PYTHONPATH=src python tests/kernel_timings.py

Each line is one shape: the preset, the rows of the estimate and the
intervals of the forward mesh it covers, then the best of REPEATS calls (after
one warm-up call) of `solve_forward_cg1`, `solve_adjoint` and `residual_pairing`,
each in microseconds per row and forward interval.  `harmonic-standard` runs
its first `rows` level-1 draws of seed 0 on uniform meshes of (0, 3] with
psi at t* = 3, as a standard estimate does.  `lorenz` and `two-body` run the
one-row event-time estimate of draw 0: its forward on the preset's initial
mesh subdivided by 4, then two adjoint rows (psi and J(U(t_c), t_c)^T psi)
on the mesh restricted to its crossing t_c, which the forward row is paired
with in one call.  The numbers are wall time on the machine that runs the
script and are for information: nothing here is asserted.  Pytest does not
collect this file.
"""
import time

import numpy as np

from adaptive_mlmc.experiments import get_experiment
from adaptive_mlmc.meshes import subdivide, uniform_mesh
from adaptive_mlmc.qoi import eval_event_time
from adaptive_mlmc.sampling import sample_parameters
from adaptive_mlmc.solvers import (residual_pairing, restrict_mesh, solve_adjoint,
                                   solve_forward_cg1)

HARMONIC_ROWS = (1, 20, 121, 256)
HARMONIC_INTERVALS = (27, 67, 165)
EVENT_TIME_PRESETS = ("lorenz", "two-body")
REPEATS = 9


def best_us(call):
    """Best wall time of REPEATS calls after one warm-up call, in us."""
    call()
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return 1e6 * best


def draws(experiment, rows):
    return sample_parameters(experiment.distributions, 0, 1, 0, rows)


def harmonic_case(rows, intervals):
    experiment = get_experiment("harmonic-standard")
    q = experiment.qoi
    problem = experiment.make_problem(draws(experiment, rows))
    mesh = uniform_mesh(problem.horizon, intervals)
    return problem, mesh, q.t_star, q.psi


def event_time_case(name):
    experiment = get_experiment(name)
    q = experiment.qoi
    problem = experiment.make_problem(draws(experiment, 1))
    mesh = subdivide(experiment.initial_mesh(), 4)
    forward = solve_forward_cg1(problem, mesh)
    t_c = float(eval_event_time(forward, q)[0])
    u_c = forward(t_c)
    jt_psi = (problem.jacobian(u_c, t_c) * q.psi[:, None]).sum(axis=-2)
    return problem, mesh, t_c, np.concatenate([q.psi[None], jt_psi])


def timing_line(name, problem, mesh, t_star, terminal_value):
    forward = solve_forward_cg1(problem, mesh)
    assert np.isfinite(forward.values).all()
    phi = solve_adjoint(problem, forward, t_star, terminal_value)
    rows = len(phi.values)
    covered = restrict_mesh(mesh, t_star).n_intervals
    us = {
        "forward": best_us(lambda: solve_forward_cg1(problem, mesh))
        / (len(forward.values) * mesh.n_intervals),
        "adjoint": best_us(lambda: solve_adjoint(problem, forward, t_star,
                                                 terminal_value)) / (rows * covered),
        "pairing": best_us(lambda: residual_pairing(problem, forward, phi, t_star))
        / (rows * covered),
    }
    return f"{name} rows={rows} intervals={covered} " + " ".join(
        f"{kernel}={value:.3f}" for kernel, value in us.items())


def main():
    print("us per row x forward interval, best of", REPEATS)
    for intervals in HARMONIC_INTERVALS:
        for rows in HARMONIC_ROWS:
            print(timing_line("harmonic-standard", *harmonic_case(rows, intervals)),
                  flush=True)
    for name in EVENT_TIME_PRESETS:
        print(timing_line(name, *event_time_case(name)), flush=True)


if __name__ == "__main__":
    main()
