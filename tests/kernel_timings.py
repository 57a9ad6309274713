"""Per-layer timings of the ODE and stationary kernels on fixed shapes.

    PYTHONPATH=src python tests/kernel_timings.py

Each line is one shape: the preset, the rows of the estimate and the
intervals of the forward mesh it covers, then the best of REPEATS calls (after
one warm-up call) of `solve_forward_cg1`, `solve_adjoint` and `residual_pairing`,
each in microseconds per row and forward interval.  `harmonic-standard` runs
its first `rows` level-1 draws of seed 0 on uniform meshes of (0, 3] with
psi at t* = 3, as a standard estimate does, and at 20 and 256 rows on the
graded mesh 3 (i / n)^1.5, whose interval lengths all differ: the worst case
for the linear kernels, which build one step matrix per row and distinct
length.
`lorenz`, `two-body` and `harmonic-nonstandard` run the one-row event-time
estimate of draw 0: its forward on the preset's initial mesh subdivided by
4, then two adjoint rows (psi and J(U(t_c), t_c)^T psi) on the mesh
restricted to its crossing t_c, which the forward row is paired with in one
call.  The `advection-diffusion-1d` lines time `solve_bvp_p1`,
`solve_bvp_adjoint` and `bvp_error_decomposition` in microseconds per row and
element, on uniform meshes of (0, 3) with the model's first `rows` level-1
draws of seed 0 and the mesh's `BvpPlan` built beforehand, as a run keeps it.
The `linear adjoint` line times `solve_adjoint` on the 20 first level-1
draws of seed 0 of `harmonic-standard`, on each level mesh of its dwr run at
eps 1e-3, seed 0 (as the `hs-dwr` benchmark workload builds them): in ms
per call, summed over the meshes, once through the distinct-map branch of a
problem marked linear and once as the sliced path of the same problem with
`linear=False`.
The `samples.csv` line times `cli.write_artifacts`, which writes grids.csv
and the other CSV files too, on the estimate of the
`advection-diffusion-1d` dwr run at eps 2e-6, seed 0 (5,523 sample rows,
5,413 of them on level 0, as the `adr-dwr` benchmark workload writes it), in
microseconds per sample row.  It is warm and in process: a fresh interpreter, as the
benchmark runs it, pays more for the Python objects the writer builds.
The numbers are wall time on the machine that runs the script and are for
information: nothing here is asserted.  Pytest does not collect this file.
"""
import dataclasses
import tempfile
import time

import numpy as np

from adaptive_mlmc.cli import write_artifacts
from adaptive_mlmc.driver import MlmcRunConfig, run_adaptive_mlmc
from adaptive_mlmc.experiments import get_experiment
from adaptive_mlmc.meshes import Mesh1D, subdivide, uniform_mesh
from adaptive_mlmc.qoi import eval_event_time
from adaptive_mlmc.sampling import sample_parameters
from adaptive_mlmc.solvers import (residual_pairing, restrict_mesh, solve_adjoint,
                                   solve_forward_cg1)
from adaptive_mlmc.stationary import (BvpMlmcModel, BvpPlan, bvp_error_decomposition,
                                      solve_bvp_adjoint, solve_bvp_p1)

HARMONIC_ROWS = (1, 20, 121, 256)
HARMONIC_INTERVALS = (27, 67, 165)
GRADED_ROWS = (20, 256)  # rows of the graded harmonic lines, on 165 intervals
EVENT_TIME_PRESETS = ("lorenz", "two-body", "harmonic-nonstandard")
STATIONARY_ROWS = (20, 256)
STATIONARY_ELEMENTS = (12, 33, 200)
SAMPLE_TABLE_RUN = MlmcRunConfig(epsilon=2e-6, refinement="dwr", master_seed=0)
LINEAR_ADJOINT_RUN = MlmcRunConfig(epsilon=1e-3, refinement="dwr", master_seed=0)
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


def harmonic_case(rows, intervals, graded=False):
    experiment = get_experiment("harmonic-standard")
    q = experiment.qoi
    problem = experiment.make_problem(draws(experiment, rows))
    mesh = (Mesh1D(problem.horizon * np.linspace(0.0, 1.0, intervals + 1) ** 1.5)
            if graded else uniform_mesh(problem.horizon, intervals))
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
        "pairing": best_us(lambda: residual_pairing(problem, forward, phi))
        / (rows * covered),
    }
    return f"{name} rows={rows} intervals={covered} " + " ".join(
        f"{kernel}={value:.3f}" for kernel, value in us.items())


def stationary_line(rows, elements):
    model = BvpMlmcModel()
    plan = BvpPlan.build(uniform_mesh(3.0, elements))
    w = draws(model, rows)[:, 0]
    U, Phi = solve_bvp_p1(plan, w), solve_bvp_adjoint(plan, w)
    us = {
        "forward": best_us(lambda: solve_bvp_p1(plan, w)),
        "adjoint": best_us(lambda: solve_bvp_adjoint(plan, w)),
        "decomposition": best_us(lambda: bvp_error_decomposition(plan, w, U, Phi)),
    }
    return f"{model.name} rows={rows} elements={elements} " + " ".join(
        f"{kernel}={value / (rows * elements):.3f}" for kernel, value in us.items())


def linear_adjoint_line(rows=20):
    cfg = LINEAR_ADJOINT_RUN
    experiment = get_experiment("harmonic-standard")
    meshes = run_adaptive_mlmc(experiment, cfg).meshes
    problem, q = experiment.make_problem(draws(experiment, rows)), experiment.qoi
    generic = dataclasses.replace(problem, linear=False)
    ms = {"distinct-maps": 0.0, "generic": 0.0}
    for mesh in meshes:
        forward = solve_forward_cg1(problem, mesh)
        ms["distinct-maps"] += best_us(
            lambda: solve_adjoint(problem, forward, q.t_star, q.psi)) / 1e3
        ms["generic"] += best_us(
            lambda: solve_adjoint(generic, forward, q.t_star, q.psi)) / 1e3
    return (f"linear adjoint {experiment.name} {cfg.refinement} eps={cfg.epsilon:g} "
            f"seed={cfg.master_seed} rows={rows} intervals="
            f"{','.join(str(mesh.n_intervals) for mesh in meshes)} " + " ".join(
                f"{path}={value:.3f}ms" for path, value in ms.items()))


def sample_table_line():
    cfg = SAMPLE_TABLE_RUN
    estimate = run_adaptive_mlmc(BvpMlmcModel(), cfg)
    rows = len(estimate.sample_log)
    level0 = np.count_nonzero(estimate.sample_log["level"] == 0)
    with tempfile.TemporaryDirectory() as out:
        us = best_us(lambda: write_artifacts(estimate, out))
    return (f"samples.csv {BvpMlmcModel.name} {cfg.refinement} eps={cfg.epsilon:g} "
            f"seed={cfg.master_seed} rows={rows} level0={level0} write={us / rows:.3f}")


def main():
    print("us per row x forward interval, best of", REPEATS)
    for intervals in HARMONIC_INTERVALS:
        for rows in HARMONIC_ROWS:
            print(timing_line("harmonic-standard", *harmonic_case(rows, intervals)),
                  flush=True)
    for rows in GRADED_ROWS:
        print(timing_line("harmonic-standard graded",
                          *harmonic_case(rows, 165, graded=True)), flush=True)
    for name in EVENT_TIME_PRESETS:
        print(timing_line(name, *event_time_case(name)), flush=True)
    print(linear_adjoint_line(), flush=True)
    print("us per row x element, best of", REPEATS)
    for elements in STATIONARY_ELEMENTS:
        for rows in STATIONARY_ROWS:
            print(stationary_line(rows, elements), flush=True)
    print("us per row of the sample table, best of", REPEATS)
    print(sample_table_line(), flush=True)


if __name__ == "__main__":
    main()
