"""Compare uniform, DWR, and meso-scale refinement on the harmonic oscillator.

Runs the adaptive MLMC estimator three times with the same master seed,
once per new-level mesh-creation strategy, and prints the resulting level
hierarchies side by side.  The quantity of interest is the first position
component at the final time; stiffness and mass are random.
"""
import numpy as np

from adaptive_mlmc import MlmcRunConfig, get_experiment, run_adaptive_mlmc

EPSILON = 1e-3
SEED = 0


def main():
    model = get_experiment("harmonic-standard")
    results = {}
    for strategy in ("uniform", "dwr", "meso"):
        cfg = MlmcRunConfig(epsilon=EPSILON, refinement=strategy, master_seed=SEED)
        results[strategy] = run_adaptive_mlmc(model, cfg)

    print(f"harmonic oscillator, standard QoI, epsilon = {EPSILON:g}, "
          f"seed = {SEED}\n")
    for strategy, est in results.items():
        print(f"--- {strategy} ---")
        print("  level  elems  cost/sample  samples    variance")
        for lv in est.levels:
            print(f"  {lv.level:5d}  {lv.elems:5d}  {lv.cost_per_sample:11.3f}"
                  f"  {lv.n_samples:7d}  {lv.variance:10.3e}")
        print(f"  estimate      = {est.value:+.5f}")
        print(f"  squared bias  = {est.squared_bias:.3e}")
        print(f"  total var     = {est.total_variance:.3e}")
        print(f"  modeled cost  = {est.total_cost:.1f}")
        print(f"  converged     = {est.converged}\n")

    costs = {s: r.total_cost for s, r in results.items()}
    cheapest = min(costs, key=costs.get)
    print(f"cheapest strategy on this seed: {cheapest} "
          f"({costs[cheapest]:.1f} level-0-solve units)")
    values = np.array([r.value for r in results.values()])
    print(f"estimates agree to {values.max() - values.min():.2e} "
          f"(all within the MSE tolerance)")


if __name__ == "__main__":
    main()
