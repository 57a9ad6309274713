"""Goal-oriented adaptivity for a stationary advection-diffusion problem.

Solves u'' + b u' = f on (0, 3) with homogeneous Dirichlet data, a
localized source, and a random advection speed b.  The quantity of
interest is Q(u) = (u, psi) with psi = 1 on [1, 1.5] and 0 elsewhere, i.e.
the integral of u over [1, 1.5].  The demo first shows the single-sample
DWR loop (estimate, mark, refine), then runs the full MLMC estimator with
DWR and uniform new-level meshes and compares the modeled costs.
"""
from dataclasses import replace

import numpy as np

from adaptive_mlmc import BvpMlmcModel, MlmcRunConfig, run_adaptive_mlmc
from adaptive_mlmc.meshes import subdivide, uniform_mesh
from adaptive_mlmc.refinement import dwr_select
from adaptive_mlmc.stationary import (BVP_DEFAULT_EPSILON, BVP_REFINEMENT,
                                      BvpPlan, BvpProblem,
                                      bvp_error_decomposition,
                                      bvp_initial_mesh, qoi_value,
                                      solve_bvp_adjoint, solve_bvp_p1)

ADVECTION = 14.0


def main():
    problem = BvpProblem()
    print(f"single-sample DWR loop at b = {ADVECTION:g}")
    mesh = uniform_mesh(problem.length, 12)
    w = np.array([ADVECTION])  # the solvers take a vector of speeds
    for sweep in range(4):
        plan = BvpPlan.build(problem, mesh)  # the mesh's draw-free arrays
        U = solve_bvp_p1(plan, w)
        Phi = solve_bvp_adjoint(plan, w)
        contributions = bvp_error_decomposition(plan, w, U, Phi)
        [q] = qoi_value(plan, U)
        print(f"  sweep {sweep}: {mesh.n_intervals:3d} elements, "
              f"QoI = {q:+.6f}, "
              f"estimated error = {contributions.sum():+.3e}")
        parts = np.ones(mesh.n_intervals, dtype=int)
        parts[dwr_select(contributions, 0.25)] = 2  # halve the marked elements
        mesh = subdivide(mesh, parts)

    print(f"\nMLMC over random b, epsilon = {BVP_DEFAULT_EPSILON:g}")
    model = BvpMlmcModel()
    for strategy in ("dwr", "uniform"):
        cfg = MlmcRunConfig(epsilon=BVP_DEFAULT_EPSILON,
                            initial_mesh=bvp_initial_mesh(),
                            refinement=replace(BVP_REFINEMENT, strategy=strategy),
                            master_seed=0)
        est = run_adaptive_mlmc(model, cfg)
        elems = [lv.elems for lv in est.levels]
        print(f"  {strategy:8s}: estimate = {est.value:+.5f}, "
              f"levels = {elems}, modeled cost = {est.total_cost:.1f}")
    print("\nDWR reaches the bias tolerance with a smaller fine-level mesh, "
          "so its per-sample cost (and total cost) is lower")


if __name__ == "__main__":
    main()
