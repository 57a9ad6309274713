"""Cost and realized error of the three refinement strategies, seeds 0-9.

    PYTHONPATH=src python tests/strategy_table.py

For each cell (preset and tolerance ε) and strategy, the table gives the
median modelled cost · ε, the mean realized (estimate − truth)² / ε with its
standard error in brackets, the mean number of levels and how many of the
runs converged (a run that ends in MlmcError counts as not converged and
enters no other column).  The truths are the quadrature expectations in
`bench/references.json`.  It is the strategy comparison at two tolerances
per preset that a change to refinement is judged by.  Like
`artifact_digests.py`, it imports `adaptive_mlmc` from the path, so one
copy of this script tabulates another checkout too.  Pytest does not collect
this file.
"""
import json
import statistics
from pathlib import Path

from adaptive_mlmc.driver import MlmcError, MlmcRunConfig, run_adaptive_mlmc
from adaptive_mlmc.experiments import get_experiment
from adaptive_mlmc.stationary import BvpMlmcModel

SEEDS = range(10)
STRATEGIES = ("uniform", "dwr", "meso")
CELLS = (("harmonic-standard", 1e-3), ("harmonic-standard", 3e-4),
         ("two-body", 1e-3),
         ("advection-diffusion-1d", 5e-6), ("advection-diffusion-1d", 2e-6))
REFERENCES = Path(__file__).resolve().parents[1] / "bench" / "references.json"


def model(name):
    return BvpMlmcModel() if name == BvpMlmcModel.name else get_experiment(name)


def row(name, epsilon, strategy, truth) -> str:
    runs = []
    for seed in SEEDS:
        try:
            runs.append(run_adaptive_mlmc(model(name),
                                          MlmcRunConfig(epsilon, strategy, seed)))
        except MlmcError:
            pass
    if not runs:
        return f"| {name} | {epsilon:g} | {strategy} | no run finished | | | 0/{len(SEEDS)} |"
    costs = [run.total_cost * epsilon for run in runs]
    errors = [(run.value - truth) ** 2 / epsilon for run in runs]
    se = statistics.stdev(errors) / len(errors) ** 0.5 if len(errors) > 1 else float("nan")
    converged = sum(run.converged for run in runs)
    return (f"| {name} | {epsilon:g} | {strategy} | {statistics.median(costs):.4g} "
            f"| {statistics.mean(errors):.2f} ({se:.2f}) "
            f"| {statistics.mean(run.n_levels for run in runs):.1f} "
            f"| {converged}/{len(SEEDS)} |")


if __name__ == "__main__":
    truths = json.loads(REFERENCES.read_text())
    print("| preset | ε | strategy | median cost·ε | mean MSE/ε (se) "
          "| mean levels | converged |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for name, epsilon in CELLS:
        for strategy in STRATEGIES:
            print(row(name, epsilon, strategy, truths[name]["expectation"]),
                  flush=True)
