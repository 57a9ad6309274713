"""Adaptive MLMC driver: level management, statistics, and the stopping rule.

The estimator telescopes Y_l = Q_l - Q_{l-1} over a growing mesh hierarchy.
Per-sample adjoint error estimates on the highest level supply the bias, the
bias-squared test decides when to stop, and that estimate's decomposition
over the newest level's intervals drives the creation of the next mesh.
Costs are modeled from element counts (one level-0 solve = 1 unit).

A model carries its `distributions`, its level-0 mesh `initial_mesh()` and
its DWR `dwr_marking`, and takes draws in chunks: `evaluate(W, mesh,
want_estimate)`, W of shape (M, p), returns M QoI values and one
`ErrorDecomposition` of M rows (or None).  A draw the model could not
complete shows as a non-finite QoI or error estimate; only that sample is
recorded failed and redrawn.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .meshes import Mesh1D
from .refinement import STRATEGIES, build_next_mesh
from .sampling import sample_parameters

# Most draws one model `evaluate` call stacks.  Bounds memory only.
CHUNK_SIZE = 256
MAX_FAILURE_RATE = 0.01  # a run aborts when more of its draws fail (and at least 5)
N_SCHEDULE = (100, 50, 20)  # warm-up draws per level; later levels take the last
MAX_LEVELS = 10  # a run that has not converged stops at this many levels


class MlmcError(RuntimeError):
    """The run cannot continue (for example a persistent sample-failure rate)."""


# One row per draw; NaN in a float field means "no value" (a failed draw has
# none, a draw evaluated without an estimate no error_estimate/denominator).
# error_estimate approximates Q(u) - Q(U), true minus computed, for
# terminal-value QoIs and the BVP, and t_c - t, computed minus true, for
# event-time QoIs; only bias^2 reads it.
SAMPLE_DTYPE = np.dtype([
    ("level", np.int64), ("index", np.int64), ("ok", bool), ("q_fine", float),
    ("q_coarse", float), ("y", float), ("error_estimate", float),
    ("denominator", float)])


@dataclass
class LevelState:
    level: int
    mesh: Mesh1D
    coarser_mesh: Optional[Mesh1D]
    cost_per_sample: float
    regions: Optional[tuple]  # meso tiling (breaks, counts), else None
    samples: np.ndarray = field(default_factory=lambda: np.zeros(0, SAMPLE_DTYPE))
    # per interval, the ok estimated rows' sum of contribution / denominator,
    # NaN as 0, in draw order (an overflow leaves inf or NaN for refinement)
    profile: np.ndarray = field(init=False)

    def __post_init__(self):
        self.profile = np.zeros(self.mesh.n_intervals)

    def ok(self, name: str) -> np.ndarray:
        """Field `name` of the ok rows."""
        return self.samples[name][self.samples["ok"]]


@dataclass(frozen=True)
class LevelSummary:
    level: int
    elems: int
    cost_per_sample: float
    n_samples: int
    variance: float


@dataclass(frozen=True)
class MlmcEstimate:
    value: float
    total_variance: float
    squared_bias: float
    mse: float
    levels: tuple
    total_cost: float
    converged: bool
    meshes: tuple
    sample_log: np.ndarray  # every SAMPLE_DTYPE row, in the order taken

    @property
    def n_levels(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class MlmcRunConfig:
    epsilon: float
    refinement: str = "uniform"  # one of refinement.STRATEGIES
    master_seed: int = 0

    def __post_init__(self):
        if self.refinement not in STRATEGIES:
            raise ValueError(f"unknown refinement strategy {self.refinement!r}")
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")


def level_variance(y: np.ndarray) -> float:
    """Unbiased two-pass sample variance of a level's ok Y values; one that
    overflows ends the run (MlmcError)."""
    if y.size < 2:
        raise ValueError("variance needs at least two ok samples")
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        mean = y.sum() / y.size
        variance = float(((y - mean) ** 2).sum() / (y.size - 1))
    if not math.isfinite(variance):
        raise MlmcError(f"the variance of {y.size} Y values overflows ({variance})")
    return variance


def level_bias(estimates: np.ndarray) -> float:
    """Negated mean of the highest level's error estimates (NaN: none); an
    overflowed mean is returned as it is, for the driver to report."""
    estimates = estimates[~np.isnan(estimates)]
    if not estimates.size:
        raise ValueError("bias needs at least one sample with an error estimate")
    with np.errstate(over="ignore", invalid="ignore"):
        return -float(np.mean(estimates))


def optimal_samples(variances: Sequence[float], costs: Sequence[float],
                    epsilon: float) -> list:
    """N_l = ceil((2/eps) * sqrt(V_l/C_l) * sum_k sqrt(V_k*C_k)): the least
    cost with sum V_l/N_l <= eps/2, rounded up (inf where 2/eps overflows)."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    V = np.asarray(variances, dtype=float)
    C = np.asarray(costs, dtype=float)
    if np.any(V < 0) or np.any(C <= 0):
        raise ValueError("variances must be >= 0 and costs > 0")
    n = np.ceil((2.0 / epsilon) * np.sqrt(V / C) * np.sqrt(V * C).sum())
    return [int(x) if x < math.inf else x for x in n]


def take_sample(model, level: LevelState, master_seed: int, start: int, count: int,
                want_estimate: bool):
    """One chunk of telescoped samples, draws start .. start+count-1: each
    draw on the fine and coarse mesh, one `evaluate` call per mesh.  Returns
    the chunk's SAMPLE_DTYPE rows and its ok rows' contributions (or None); a
    non-finite value fails only its row, as do contributions with an
    infinite entry or only NaN ones."""
    W = sample_parameters(model.distributions, master_seed, level.level, start, count)
    q_fine, decomp = model.evaluate(W, level.mesh, want_estimate)
    q_coarse = np.zeros(len(W)) if level.coarser_mesh is None \
        else model.evaluate(W, level.coarser_mesh, False)[0]
    ok = np.isfinite(q_fine) & np.isfinite(q_coarse)
    if decomp is not None:  # NaN contributions are a row's tail, after one value
        c = decomp.contributions
        ok &= np.isfinite(decomp.total) & ~np.isinf(c).any(1) & ~np.isnan(c).all(1)
    rows = np.zeros(len(W), SAMPLE_DTYPE)
    rows["level"], rows["index"], rows["ok"] = level.level, start + np.arange(count), ok
    for name, values in (("q_fine", q_fine), ("q_coarse", q_coarse),
                         ("error_estimate", getattr(decomp, "total", np.nan)),
                         ("denominator", getattr(decomp, "denominator", np.nan))):
        rows[name] = np.where(ok, values, np.nan)
    rows["y"] = rows["q_fine"] - rows["q_coarse"]
    return rows, None if decomp is None else decomp.contributions[ok]


class _Runner:
    """Chunked sample execution: failed draws are redrawn, too many failures
    run-wide abort the run, and `sample_log` holds every row in the order taken."""

    def __init__(self, model, cfg: MlmcRunConfig):
        self.model = model
        self.cfg = cfg
        self.sample_log = np.zeros(0, SAMPLE_DTYPE)

    def fill(self, level: LevelState, target: int, want_estimate: bool) -> None:
        """Take samples until the level holds `target` ok samples, in chunks
        of at most CHUNK_SIZE draws per round (or MlmcError)."""
        too_many = f"cannot take {target:.3g} samples on level {level.level}"
        if not target <= np.iinfo(np.intp).max // SAMPLE_DTYPE.itemsize:  # or inf
            raise MlmcError(too_many)
        while (need := target - np.count_nonzero(level.samples["ok"])) > 0:
            try:  # the round's rows, allocated before any draw
                new_rows = np.zeros(need, SAMPLE_DTYPE)
            except MemoryError:
                raise MlmcError(too_many) from None
            start = len(level.samples)
            for offset in range(0, need, CHUNK_SIZE):
                rows, contrib = take_sample(self.model, level, self.cfg.master_seed,
                                            start + offset,
                                            min(CHUNK_SIZE, need - offset), want_estimate)
                new_rows[offset:offset + CHUNK_SIZE] = rows
                if contrib is not None:  # row by row, so chunking keeps the bits
                    with np.errstate(over="ignore", invalid="ignore"):
                        terms = contrib / rows["denominator"][rows["ok"], None]
                        level.profile = np.add.accumulate(np.vstack(
                            [level.profile, np.where(np.isnan(terms), 0.0, terms)]))[-1]
            level.samples = np.concatenate([level.samples, new_rows])
            self.sample_log = np.concatenate([self.sample_log, new_rows])
            attempts = len(self.sample_log)
            failures = attempts - np.count_nonzero(self.sample_log["ok"])
            if failures >= 5 and failures > MAX_FAILURE_RATE * attempts:
                raise MlmcError(
                    f"aborting: {failures} failed samples out of {attempts} "
                    f"attempts exceeds the allowed rate {MAX_FAILURE_RATE}")


def run_adaptive_mlmc(model, cfg: MlmcRunConfig) -> MlmcEstimate:
    """Execute the adaptive driver loop until bias^2 <= epsilon/2 or MAX_LEVELS."""
    runner = _Runner(model, cfg)
    mesh0 = model.initial_mesh()
    elems0 = mesh0.n_intervals
    levels = [LevelState(0, mesh0, None, 1.0, None)]
    while True:
        highest = levels[-1]
        warm_up = N_SCHEDULE[min(highest.level, len(N_SCHEDULE) - 1)]
        runner.fill(highest, warm_up, want_estimate=True)
        variances = [level_variance(lv.ok("y")) for lv in levels]
        costs = [lv.cost_per_sample for lv in levels]
        n_opt = optimal_samples(variances, costs, cfg.epsilon)
        for lv, n in zip(levels, n_opt):
            if n > np.count_nonzero(lv.samples["ok"]):
                runner.fill(lv, n, want_estimate=(lv is highest))
        variances = [level_variance(lv.ok("y")) for lv in levels]
        bias = level_bias(highest.ok("error_estimate"))
        if not abs(bias) < 1e154:  # NaN too: bias ** 2 must stay finite
            raise MlmcError(f"the bias estimate {bias:.3g} overflows its square")
        if bias ** 2 <= 0.5 * cfg.epsilon or len(levels) >= MAX_LEVELS:
            break

        new_mesh, new_regions = build_next_mesh(
            highest.mesh, highest.regions, highest.profile, cfg.refinement,
            model.dwr_marking)
        cost = (new_mesh.n_intervals + highest.mesh.n_intervals) / elems0
        levels.append(LevelState(len(levels), new_mesh, highest.mesh, cost,
                                 new_regions))

    value = sum(float(np.mean(lv.ok("y"))) for lv in levels)
    counts = [np.count_nonzero(lv.samples["ok"]) for lv in levels]
    total_variance = sum(v / n for v, n in zip(variances, counts))
    squared_bias = bias ** 2
    total_cost = sum(n * lv.cost_per_sample for n, lv in zip(counts, levels))
    summaries = tuple(
        LevelSummary(lv.level, lv.mesh.n_intervals, lv.cost_per_sample,
                     counts[i], variances[i])
        for i, lv in enumerate(levels))
    return MlmcEstimate(
        value=value,
        total_variance=total_variance,
        squared_bias=squared_bias,
        mse=total_variance + squared_bias,
        levels=summaries,
        total_cost=total_cost,
        converged=squared_bias <= 0.5 * cfg.epsilon,
        meshes=tuple(lv.mesh for lv in levels),
        sample_log=runner.sample_log,
    )
