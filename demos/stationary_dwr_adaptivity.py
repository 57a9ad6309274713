"""Goal-oriented adaptivity for a stationary advection-diffusion problem.

Solves u'' + b u' = f on (0, 3) with homogeneous Dirichlet data, a
localized source, and a random advection speed b.  The quantity of
interest is Q(u) = (u, psi) with psi = 1 on [1, 1.5] and 0 elsewhere, i.e.
the integral of u over [1, 1.5].  The demo first shows the single-sample
DWR loop (estimate, mark, refine), then runs the full MLMC estimator with
DWR and uniform new-level meshes and compares the modeled costs.
"""
import numpy as np

from adaptive_mlmc import BvpMlmcModel, MlmcRunConfig, run_adaptive_mlmc
from adaptive_mlmc.meshes import subdivide
from adaptive_mlmc.refinement import dwr_select
from adaptive_mlmc.stationary import (BvpPlan, bvp_error_decomposition,
                                      qoi_value, solve_bvp_adjoint,
                                      solve_bvp_p1)

ADVECTION = 14.0


def main():
    model = BvpMlmcModel()
    fraction, factor = model.dwr_marking
    print(f"single-sample DWR loop at b = {ADVECTION:g}")
    mesh = model.initial_mesh()
    w = np.array([ADVECTION])  # the solvers take a vector of speeds
    for sweep in range(4):
        plan = BvpPlan.build(mesh)  # the mesh's draw-free arrays
        U = solve_bvp_p1(plan, w)
        Phi = solve_bvp_adjoint(plan, w)
        [contributions] = bvp_error_decomposition(plan, w, U, Phi)
        [q] = qoi_value(plan, U)
        print(f"  sweep {sweep}: {mesh.n_intervals:3d} elements, "
              f"QoI = {q:+.6f}, "
              f"estimated error = {contributions.sum():+.3e}")
        parts = np.ones(mesh.n_intervals, dtype=int)
        parts[dwr_select(contributions, fraction)] = factor  # as the MLMC run marks
        mesh = subdivide(mesh, parts)

    print(f"\nMLMC over random b, epsilon = {model.default_epsilon:g}")
    for strategy in ("dwr", "uniform"):
        cfg = MlmcRunConfig(epsilon=model.default_epsilon, refinement=strategy,
                            master_seed=0)
        est = run_adaptive_mlmc(model, cfg)
        elems = [lv.elems for lv in est.levels]
        print(f"  {strategy:8s}: estimate = {est.value:+.5f}, "
              f"levels = {elems}, modeled cost = {est.total_cost:.1f}")
    print("\nDWR reaches the bias tolerance with a smaller fine-level mesh, "
          "so its per-sample cost (and total cost) is lower")


if __name__ == "__main__":
    main()
