"""Audit of the run artifacts: levels.csv and summary.csv re-derived from
samples.csv and the grid dumps alone.

Each config is a `mlmc run --dump-grids` from `artifact_digests.py`'s matrix.
The re-derivation uses numpy and the estimator's formulas, no package code:
a level's cost is its and the next coarser grid's interval counts over
level 0's, its variance the two-pass unbiased variance of its ok y values,
the estimate the sum of the level means, the bias the negated mean of the
top level's error estimates, and the total variance sum V_l / N_l.  `%.17g`
round-trips, so every field is compared as written, bit for bit.
"""
import contextlib
import io
from pathlib import Path

import numpy as np
import pytest

from adaptive_mlmc.cli import main
from artifact_digests import JOBS_PAIR, matrix

_FMT = "%.17g"

# (experiment, strategy, epsilon, seed, jobs), fixed before any was run: the
# benchmark's two workloads at seed 0, each strategy once on a preset of
# artifact_digests.PRESET_EPSILON at seed 1, and the --jobs pair.
CONFIGS = [
    ("harmonic-standard", "dwr", 1e-3, 0, 1),
    ("advection-diffusion-1d", "dwr", 2e-6, 0, 1),
    ("harmonic-standard", "uniform", 1e-2, 1, 1),
    ("two-body", "dwr", 1e-2, 1, 1),
    ("lorenz", "meso", 1e-3, 1, 1),
    *JOBS_PAIR,
]


def read_samples(path: Path) -> dict:
    """level -> (ok y values, ok error estimates), each in the order taken."""
    levels = {}
    lines = path.read_text().splitlines()
    assert lines[0] == "level,index,status,q_fine,q_coarse,y,error_estimate,denominator"
    for line in lines[1:]:
        level, _, status, _, _, y, error_estimate, _ = line.split(",")
        ys, estimates = levels.setdefault(int(level), ([], []))
        if status == "ok":
            ys.append(float(y))
            if error_estimate:
                estimates.append(float(error_estimate))
    return {level: (np.array(ys), np.array(estimates))
            for level, (ys, estimates) in levels.items()}


def rederive(out: Path, epsilon: float):
    """The lines of levels.csv and summary.csv from samples.csv and grids."""
    samples = read_samples(out / "samples.csv")
    n_levels = len(samples)
    elems = [len((out / f"grid_L{level}.txt").read_text().splitlines()) - 1
             for level in range(n_levels)]
    costs = [1.0] + [(elems[level] + elems[level - 1]) / elems[0]
                     for level in range(1, n_levels)]
    counts, variances, means = [], [], []
    for level in range(n_levels):
        y = samples[level][0]
        mean = y.sum() / y.size
        counts.append(y.size)
        variances.append(float(((y - mean) ** 2).sum() / (y.size - 1)))
        means.append(float(np.mean(y)))
    levels = ["level,elems,cost_per_sample,n_samples,variance"] + [
        f"{level},{elems[level]},{_FMT % costs[level]},{counts[level]},"
        f"{_FMT % variances[level]}" for level in range(n_levels)]
    total_variance = sum(v / n for v, n in zip(variances, counts))
    squared_bias = (-float(np.mean(samples[n_levels - 1][1]))) ** 2
    total_cost = sum(n * c for n, c in zip(counts, costs))
    converged = "true" if squared_bias <= 0.5 * epsilon else "false"
    summary = [
        "total_variance,squared_bias,mse,estimate,total_cost,n_levels,converged",
        ",".join([_FMT % total_variance, _FMT % squared_bias,
                  _FMT % (total_variance + squared_bias), _FMT % sum(means),
                  _FMT % total_cost, str(n_levels), converged])]
    return levels, summary


def test_configs_are_digest_configs():
    assert set(CONFIGS) <= set(matrix())


@pytest.mark.parametrize("experiment,strategy,epsilon,seed,jobs", CONFIGS)
def test_levels_and_summary_rederive_from_samples(tmp_path, experiment, strategy,
                                                   epsilon, seed, jobs):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", "--experiment", experiment, "--refinement", strategy,
                     "--epsilon", repr(epsilon), "--seed", str(seed),
                     "--jobs", str(jobs), "--dump-grids", "--output-dir", str(tmp_path)])
    assert code in (0, 2)
    levels, summary = rederive(tmp_path, epsilon)
    assert (tmp_path / "levels.csv").read_text().splitlines() == levels
    written = (tmp_path / "summary.csv").read_text().splitlines()
    assert written == summary
    fields = written[1].split(",")
    assert (fields[-1] == "true") == (float(fields[1]) <= epsilon / 2)
    assert code == (0 if fields[-1] == "true" else 2)
