"""Step through meso-scale mesh creation on one oscillator sample.

The meso strategy reads the current level's bias profile, the sum over its
samples of their error contributions (here one sample's), accumulates it
along the time axis, splits the domain at the minima of the accumulated
profile, allocates the next level's interval budget to equalize region
errors, and finally merges with the previous level's regions so that no
region is ever unrefined.
"""
import numpy as np

from adaptive_mlmc.error_estimation import estimate_standard_error
from adaptive_mlmc.meshes import uniform_mesh
from adaptive_mlmc.models import harmonic_oscillator
from adaptive_mlmc.qoi import StandardQoi
from adaptive_mlmc.refinement import (MESO_Q, MESO_TARGET_MULTIPLIER,
                                      allocate_meso, find_meso_regions,
                                      refine_meso)
from adaptive_mlmc.solvers import solve_forward_cg1

N0 = 27


def main():
    problem = harmonic_oscillator(52.0, 0.26)
    qoi = StandardQoi(np.array([1.0, 0.0]), problem.horizon)
    mesh = uniform_mesh(problem.horizon, N0)
    forward = solve_forward_cg1(problem, mesh)
    decomp = estimate_standard_error(problem, forward, qoi)
    [contributions], [total] = decomp.contributions, decomp.total
    print(f"level-0 mesh: {N0} intervals on [0, {problem.horizon:g}]")
    print(f"estimated QoI error of this sample: {total:+.3e}\n")

    # regions end at interval indices `ends`; region i starts after ends[i-1]
    ends, errors = find_meso_regions(np.abs(np.cumsum(contributions)))
    starts = np.append(0, ends[:-1] + 1)
    print("accumulated |error| profile split at its minima:")
    for first, last, error in zip(starts, ends, errors):
        print(f"  intervals {first:2d}-{last:2d} "
              f"([{mesh.nodes[first]:.3f}, {mesh.nodes[last + 1]:.3f}]): "
              f"accumulated error {error:+.3e}")

    n_hat = int(np.ceil(MESO_TARGET_MULTIPLIER * N0))
    sizes = ends - starts + 1
    counts = allocate_meso(sizes, errors, n_hat, MESO_Q)
    print(f"\nbudget of {n_hat} intervals allocated to equalize region errors:")
    for first, last, size, count in zip(starts, ends, sizes, counts):
        print(f"  region {first:2d}-{last:2d}: {size:2d} -> {count:2d} intervals")

    # a tiling is (breaks, counts): region i spans breaks[i]..breaks[i+1]
    # with counts[i] uniform intervals; None stands for the whole domain
    new_mesh, (breaks, counts) = refine_meso(mesh, None, contributions)
    print(f"\nafter merging with the previous level "
          f"({counts.size} regions, {new_mesh.n_intervals} intervals):")
    for a, b, n in zip(breaks[:-1], breaks[1:], counts):
        print(f"  [{a:.3f}, {b:.3f}]: "
              f"{n:2d} intervals ({n / (b - a):.1f} per unit time)")
    print("\nevery region is at least as dense as on the previous level")


if __name__ == "__main__":
    main()
