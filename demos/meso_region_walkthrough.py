"""Step through meso-scale mesh creation on one oscillator sample.

The meso strategy looks at the single worst sample of the current level,
accumulates its error contributions along the time axis, splits the domain
at the minima of the accumulated profile, allocates the next level's
interval budget to equalize region errors, and finally merges with the
previous level's regions so that no region is ever unrefined.
"""
import numpy as np

from adaptive_mlmc.error_estimation import accumulate, estimate_standard_error
from adaptive_mlmc.meshes import RegionSpan, uniform_mesh
from adaptive_mlmc.models import harmonic_oscillator
from adaptive_mlmc.qoi import StandardQoi
from adaptive_mlmc.refinement import (RefinementConfig, allocate_meso,
                                      find_meso_regions, refine_meso)
from adaptive_mlmc.solvers import solve_forward_cg1

N0 = 27


def main():
    problem = harmonic_oscillator(52.0, 0.26)
    qoi = StandardQoi(np.array([1.0, 0.0]), problem.horizon)
    mesh = uniform_mesh(problem.horizon, N0)
    forward = solve_forward_cg1(problem, mesh)
    [decomp] = estimate_standard_error(problem, forward, qoi)
    print(f"level-0 mesh: {N0} intervals on [0, {problem.horizon:g}]")
    print(f"estimated QoI error of this sample: {decomp.total:+.3e}\n")

    regions = find_meso_regions(accumulate(decomp.contributions))
    print("accumulated |error| profile split at its minima:")
    for r in regions:
        t0 = mesh.nodes[r.start_interval]
        t1 = mesh.nodes[r.end_interval + 1]
        print(f"  intervals {r.start_interval:2d}-{r.end_interval:2d} "
              f"([{t0:.3f}, {t1:.3f}]): accumulated error "
              f"{r.accumulated_error:+.3e}")

    cfg = RefinementConfig(strategy="meso")
    n_hat = int(np.ceil(cfg.meso_target_multiplier * N0))
    counts = allocate_meso(regions, n_hat, cfg.meso_q)
    print(f"\nbudget of {n_hat} intervals allocated to equalize region errors:")
    for r, c in zip(regions, counts):
        print(f"  region {r.start_interval:2d}-{r.end_interval:2d}: "
              f"{r.interval_count:2d} -> {c:2d} intervals")

    prev_regions = [RegionSpan(0.0, mesh.length, N0)]
    new_mesh, merged = refine_meso(mesh, prev_regions, decomp, cfg)
    print(f"\nafter merging with the previous level "
          f"({len(merged)} regions, {new_mesh.n_intervals} intervals):")
    for span in merged:
        density = span.n_intervals / (span.t_end - span.t_start)
        print(f"  [{span.t_start:.3f}, {span.t_end:.3f}]: "
              f"{span.n_intervals:2d} intervals ({density:.1f} per unit time)")
    print("\nevery region is at least as dense as on the previous level")


if __name__ == "__main__":
    main()
