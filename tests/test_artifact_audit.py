"""Audit of the run artifacts: levels.csv and summary.csv re-derived from
samples.csv and grids.csv alone, and the level meshes of grids.csv checked.

Each config is a `mlmc run` from `artifact_digests.py`'s matrix.
The re-derivation uses numpy and the estimator's formulas, no package code:
a level's cost is its and the next coarser mesh's interval counts over
level 0's, its variance the two-pass unbiased variance of its ok y values,
the estimate the sum of the level means, the bias the negated mean of the
top level's error estimates, and the total variance sum V_l / N_l.  `%.17g`
round-trips, so every field is compared as written, bit for bit.  The rule
that chose which draws carry an estimate is re-derived too: on every level
they are the lowest indices, and on the top level the prefix ends at the
first doubling boundary from 20 draws where |bias| lies more than Z
standard errors from sqrt(eps/2), or past the last draw if none decides.
Each level's mesh starts at 0, increases strictly and ends where level 0's
ends; uniform and dwr subdivide a level's intervals, which keeps their
nodes exactly, so each of their meshes holds every node of the one below.
Meso re-tiles the domain, so its meshes need not be nested.
"""
import contextlib
import io
from pathlib import Path

import numpy as np
import pytest

from adaptive_mlmc.cli import main
from artifact_digests import JOBS_PAIR, matrix

_FMT = "%.17g"
FIRST_BLOCK = 20  # draws estimated before the first decision
Z = 3.0  # standard errors between |bias| and sqrt(eps/2) that decide the stop

# (experiment, strategy, epsilon, seed, jobs), fixed before any was run: the
# benchmark's two workloads at seed 0, each strategy once on a preset of
# artifact_digests.PRESET_EPSILON at seed 1, and the --jobs pair, which
# checks that the accepted (and ignored) --jobs flag changes no artifact.
CONFIGS = [
    ("harmonic-standard", "dwr", 1e-3, 0, 1),
    ("advection-diffusion-1d", "dwr", 2e-6, 0, 1),
    ("harmonic-standard", "uniform", 1e-2, 1, 1),
    ("two-body", "dwr", 1e-2, 1, 1),
    ("lorenz", "meso", 1e-3, 1, 1),
    *JOBS_PAIR,
]


def read_samples(path: Path) -> dict:
    """level -> (ok indices, ok y values, ok error estimates with NaN for an
    empty field), each in the order taken."""
    levels = {}
    lines = path.read_text().splitlines()
    assert lines[0] == "level,index,status,q_fine,q_coarse,y,error_estimate,denominator"
    for line in lines[1:]:
        level, index, status, _, _, y, error_estimate, _ = line.split(",")
        if status == "ok":
            for values, value in zip(levels.setdefault(int(level), ([], [], [])),
                                     (int(index), float(y),
                                      float(error_estimate or "nan"))):
                values.append(value)
    return {level: tuple(np.array(values) for values in columns)
            for level, columns in levels.items()}


def read_grids(path: Path) -> list:
    """Each level's mesh nodes, in level order."""
    lines = path.read_text().splitlines()
    assert lines[0] == "level,node"
    grids = {}
    for line in lines[1:]:
        level, node = line.split(",")
        assert _FMT % float(node) == node
        grids.setdefault(int(level), []).append(float(node))
    assert list(grids) == list(range(len(grids)))
    return [np.array(nodes) for nodes in grids.values()]


def check_meshes(grids: list, nested: bool) -> None:
    for nodes in grids:
        assert nodes[0] == 0.0 and np.all(np.diff(nodes) > 0)
        assert nodes[-1] == grids[0][-1]
    if nested:
        for coarse, fine in zip(grids, grids[1:]):
            assert np.isin(coarse, fine).all()


def rederive(out: Path, epsilon: float):
    """The lines of levels.csv and summary.csv from samples.csv and grids.csv."""
    samples = read_samples(out / "samples.csv")
    n_levels = len(samples)
    grids = read_grids(out / "grids.csv")
    assert len(grids) == n_levels
    elems = [nodes.size - 1 for nodes in grids]
    costs = [1.0] + [(elems[level] + elems[level - 1]) / elems[0]
                     for level in range(1, n_levels)]
    counts, variances, means = [], [], []
    for level in range(n_levels):
        y = samples[level][1]
        mean = y.sum() / y.size
        counts.append(y.size)
        variances.append(float(((y - mean) ** 2).sum() / (y.size - 1)))
        means.append(float(np.mean(y)))
    levels = ["level,elems,cost_per_sample,n_samples,variance"] + [
        f"{level},{elems[level]},{_FMT % costs[level]},{counts[level]},"
        f"{_FMT % variances[level]}" for level in range(n_levels)]
    estimates = samples[n_levels - 1][2]
    total_variance = sum(v / n for v, n in zip(variances, counts))
    squared_bias = (-float(np.mean(estimates[~np.isnan(estimates)]))) ** 2
    total_cost = sum(n * c for n, c in zip(counts, costs))
    converged = "true" if squared_bias <= 0.5 * epsilon else "false"
    summary = [
        "total_variance,squared_bias,mse,estimate,total_cost,n_levels,converged",
        ",".join([_FMT % total_variance, _FMT % squared_bias,
                  _FMT % (total_variance + squared_bias), _FMT % sum(means),
                  _FMT % total_cost, str(n_levels), converged])]
    return levels, summary


def decided(estimates: np.ndarray, epsilon: float) -> bool:
    """|bias| more than Z standard errors from sqrt(eps/2)."""
    if estimates.size < 2:
        return False
    se = float(np.std(estimates, ddof=1) / np.sqrt(estimates.size))
    return abs(abs(float(np.mean(estimates))) - np.sqrt(0.5 * epsilon)) > Z * se


def check_estimate_prefix(out: Path, epsilon: float) -> None:
    """The estimated draws of each level are its lowest ok indices, and the
    top level's prefix ends where the doubling rule, replayed on its draws,
    ends it: at the first boundary that decides, or past its last draw."""
    samples = read_samples(out / "samples.csv")
    for _, _, estimates in samples.values():
        estimated = ~np.isnan(estimates)
        assert estimated[:np.count_nonzero(estimated)].all()
    index, _, estimates = samples[len(samples) - 1]
    boundary = FIRST_BLOCK
    while boundary <= index[-1] and not decided(estimates[index < boundary], epsilon):
        boundary *= 2
    assert (~np.isnan(estimates)).tolist() == (index < boundary).tolist()


def test_configs_are_digest_configs():
    assert set(CONFIGS) <= set(matrix())


@pytest.mark.parametrize("experiment,strategy,epsilon,seed,jobs", CONFIGS)
def test_levels_and_summary_rederive_from_samples(tmp_path, experiment, strategy,
                                                   epsilon, seed, jobs):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", "--experiment", experiment, "--refinement", strategy,
                     "--epsilon", repr(epsilon), "--seed", str(seed),
                     "--jobs", str(jobs), "--output-dir", str(tmp_path)])
    assert code in (0, 2)
    levels, summary = rederive(tmp_path, epsilon)
    assert (tmp_path / "levels.csv").read_text().splitlines() == levels
    written = (tmp_path / "summary.csv").read_text().splitlines()
    assert written == summary
    fields = written[1].split(",")
    assert (fields[-1] == "true") == (float(fields[1]) <= epsilon / 2)
    assert code == (0 if fields[-1] == "true" else 2)
    check_estimate_prefix(tmp_path, epsilon)
    check_meshes(read_grids(tmp_path / "grids.csv"), nested=strategy != "meso")
