"""Adaptive MLMC driver: level management, statistics, and the stopping rule.

The estimator telescopes Y_l = Q_l - Q_{l-1} over a growing mesh hierarchy.
Per-sample adjoint error estimates on the highest level supply the bias, the
bias-squared test decides when to stop, and the retained error
decompositions of the newest level drive the creation of the next mesh.
Costs are modeled from element counts (one level-0 solve = 1 unit).

A model takes draws in chunks: `evaluate(W, mesh, want_estimate)`, W of
shape (M, p), returns M QoI values and a list of M decompositions (or None).
A draw the model could not complete shows as a non-finite QoI or error
estimate; only that sample is recorded failed and redrawn.
"""
from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .error_estimation import ErrorDecomposition
from .meshes import Mesh1D
from .refinement import CHUNK_SIZE, RefinementConfig, build_next_mesh
from .sampling import sample_parameters

log = logging.getLogger(__name__)


class MlmcError(RuntimeError):
    """The run cannot continue (for example a persistent sample-failure rate)."""


@dataclass
class SampleRecord:
    index: int
    y: float = 0.0
    q_fine: float = 0.0
    q_coarse: float = 0.0
    error_estimate: Optional[float] = None
    denominator: Optional[float] = None
    decomposition: Optional[ErrorDecomposition] = None
    status: str = "ok"


@dataclass
class LevelState:
    level: int
    mesh: Mesh1D
    coarser_mesh: Optional[Mesh1D]
    cost_per_sample: float
    regions: Optional[tuple]  # meso tiling (breaks, counts), else None
    samples: list = field(default_factory=list)
    next_index: int = 0

    def ok_samples(self) -> list:
        return [s for s in self.samples if s.status == "ok"]


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
    n_failures: int
    meshes: tuple
    sample_log: tuple

    @property
    def n_levels(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class MlmcRunConfig:
    epsilon: float
    initial_mesh: Mesh1D
    refinement: RefinementConfig = RefinementConfig()
    n_schedule: tuple = (100, 50, 20)
    master_seed: int = 0
    max_levels: int = 10
    max_failure_rate: float = 0.01
    jobs: int = 1

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        if not self.n_schedule or any(n < 2 for n in self.n_schedule):
            raise ValueError("n_schedule entries must be >= 2")
        if self.max_levels < 1:
            raise ValueError("max_levels must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")

    def schedule(self, level: int) -> int:
        return self.n_schedule[min(level, len(self.n_schedule) - 1)]


def level_variance(samples: Sequence[SampleRecord]) -> float:
    """Unbiased two-pass sample variance of Y over the ok samples."""
    y = np.array([s.y for s in samples if s.status == "ok"])
    if y.size < 2:
        raise ValueError("variance needs at least two ok samples")
    mean = y.sum() / y.size
    return float(((y - mean) ** 2).sum() / (y.size - 1))


def level_bias(samples: Sequence[SampleRecord]) -> float:
    """Negated mean of the per-sample error estimates on the highest level."""
    estimates = [s.error_estimate for s in samples
                 if s.status == "ok" and s.error_estimate is not None]
    if not estimates:
        raise ValueError("bias needs at least one sample with an error estimate")
    return -float(np.mean(estimates))


def optimal_samples(variances: Sequence[float], costs: Sequence[float],
                    epsilon: float) -> list:
    """N_l = ceil((2/eps) * sqrt(V_l/C_l) * sum_k sqrt(V_k/C_k))."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    V = np.asarray(variances, dtype=float)
    C = np.asarray(costs, dtype=float)
    if np.any(V < 0) or np.any(C <= 0):
        raise ValueError("variances must be >= 0 and costs > 0")
    ratios = np.sqrt(V / C)
    n = np.ceil((2.0 / epsilon) * ratios * ratios.sum())
    n_opt = [int(x) for x in n]
    achieved = sum(v / max(k, 1) for v, k in zip(V, n_opt))
    if achieved > 0.5 * epsilon * (1.0 + 1e-9) + V.sum() * 1e-12:
        log.warning("optimal allocation leaves total variance %.3g above eps/2=%.3g",
                    achieved, 0.5 * epsilon)
    return n_opt


def take_sample(model, level: LevelState, master_seed: int, indices: Sequence[int],
                want_estimate: bool) -> list:
    """One chunk of telescoped samples: each draw on the fine and coarse mesh,
    one `evaluate` call per mesh.  A non-finite row fails only its own record."""
    W = sample_parameters(model.distributions, master_seed, level.level, indices)
    q_fine, decomps = model.evaluate(W, level.mesh, want_estimate)
    q_coarse = np.zeros(len(W)) if level.coarser_mesh is None \
        else model.evaluate(W, level.coarser_mesh, False)[0]
    records = [SampleRecord(int(i)) for i in indices]
    for rec, qf, qc, decomp in zip(records, q_fine, q_coarse, decomps):
        total = None if decomp is None else decomp.total
        if not (math.isfinite(qf) and math.isfinite(qc)
                and (total is None or math.isfinite(total))):
            rec.status = "failed"
            log.debug("sample (level=%d, index=%d) failed: non-finite QoI or "
                      "error estimate", level.level, rec.index)
            continue
        rec.q_fine, rec.q_coarse, rec.y = qf, qc, qf - qc
        if decomp is not None:
            rec.decomposition = decomp
            rec.error_estimate, rec.denominator = total, decomp.denominator
    return records


class _Runner:
    """Chunked sample execution with failure redraws and a run-wide tally."""

    def __init__(self, model, cfg: MlmcRunConfig):
        self.model = model
        self.cfg = cfg
        self.attempts = 0
        self.failures = 0
        self.log_rows = []
        self.pool = ThreadPoolExecutor(cfg.jobs) if cfg.jobs > 1 else None

    def close(self):
        if self.pool is not None:
            self.pool.shutdown()

    def _check_failure_rate(self):
        if self.failures >= 5 and self.failures > self.cfg.max_failure_rate * self.attempts:
            raise MlmcError(
                f"aborting: {self.failures} failed samples out of {self.attempts} "
                f"attempts exceeds the allowed rate {self.cfg.max_failure_rate}")

    def fill(self, level: LevelState, target: int, want_estimate: bool) -> None:
        """Take samples until the level holds `target` ok samples, in at least
        `jobs` chunks of at most CHUNK_SIZE draws per round."""
        while len(level.ok_samples()) < target:
            need = target - len(level.ok_samples())
            n_chunks = max(self.cfg.jobs, -(-need // CHUNK_SIZE))
            chunks = [c for c in np.array_split(
                np.arange(level.next_index, level.next_index + need), n_chunks)
                if c.size]
            level.next_index += need
            worker = lambda idx: take_sample(self.model, level, self.cfg.master_seed,
                                             idx, want_estimate)
            batches = self.pool.map(worker, chunks) if self.pool \
                else map(worker, chunks)
            for rec in [rec for batch in batches for rec in batch]:
                self.attempts += 1
                if rec.status == "failed":
                    self.failures += 1
                level.samples.append(rec)
                self.log_rows.append((level.level, rec.index, rec.status, rec.q_fine,
                                      rec.q_coarse, rec.y, rec.error_estimate,
                                      rec.denominator))
            self._check_failure_rate()


def run_adaptive_mlmc(model, cfg: MlmcRunConfig) -> MlmcEstimate:
    """Execute the adaptive driver loop until bias^2 <= epsilon/2 or max_levels."""
    runner = _Runner(model, cfg)
    try:
        elems0 = cfg.initial_mesh.n_intervals
        levels = [LevelState(0, cfg.initial_mesh, None, 1.0, None)]
        while True:
            highest = levels[-1]
            runner.fill(highest, cfg.schedule(highest.level), want_estimate=True)
            variances = [level_variance(lv.samples) for lv in levels]
            costs = [lv.cost_per_sample for lv in levels]
            n_opt = optimal_samples(variances, costs, cfg.epsilon)
            for lv, n in zip(levels, n_opt):
                if n > len(lv.ok_samples()):
                    runner.fill(lv, n, want_estimate=(lv is highest))
            variances = [level_variance(lv.samples) for lv in levels]
            bias = level_bias(highest.samples)
            if bias ** 2 <= 0.5 * cfg.epsilon or len(levels) >= cfg.max_levels:
                break

            decomps = [s.decomposition for s in highest.ok_samples()
                       if s.decomposition is not None]
            try:
                new_mesh, new_regions = build_next_mesh(
                    highest.mesh, highest.regions, decomps, cfg.refinement)
            except OverflowError as exc:
                raise MlmcError(f"cannot build level {len(levels)}: {exc}") from exc
            for s in highest.samples:
                s.decomposition = None
            cost = (new_mesh.n_intervals + highest.mesh.n_intervals) / elems0
            levels.append(LevelState(len(levels), new_mesh, highest.mesh, cost,
                                     new_regions))

        converged = bias ** 2 <= 0.5 * cfg.epsilon
        if not converged:
            log.warning("max_levels=%d reached with bias^2=%.3g > eps/2=%.3g",
                        cfg.max_levels, bias ** 2, 0.5 * cfg.epsilon)

        value = sum(float(np.mean([s.y for s in lv.ok_samples()])) for lv in levels)
        counts = [len(lv.ok_samples()) for lv in levels]
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
            converged=converged,
            n_failures=runner.failures,
            meshes=tuple(lv.mesh for lv in levels),
            sample_log=tuple(runner.log_rows),
        )
    finally:
        runner.close()
