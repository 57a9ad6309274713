"""New-level mesh creation: uniform halving, multi-sample DWR, and meso-scale.

Both read the top level's error contributions as one (samples, intervals)
matrix.  DWR selects, per sample, the intervals carrying the largest
absolute contributions and refines the union of all selections.  Meso-scale
refinement partitions the domain at the minima of the accumulated error of
the single worst sample, allocates intervals to equalize region errors, and
merges with the previous level so no region is ever unrefined.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .meshes import Mesh1D, common_mesoregion_refinement, subdivide

log = logging.getLogger(__name__)

MESO_Q = 2.0  # the error model's rate: a region's error shrinks as N^-q
MESO_TARGET_MULTIPLIER = 2.0  # a meso level's interval budget per previous interval


@dataclass(frozen=True)
class RefinementConfig:
    strategy: str = "uniform"
    dwr_fraction: float = 0.5
    dwr_factor: int = 3

    def __post_init__(self):
        if self.strategy not in ("uniform", "dwr", "meso"):
            raise ValueError(f"unknown refinement strategy {self.strategy!r}")
        if not 0.0 < self.dwr_fraction <= 1.0:
            raise ValueError("dwr_fraction must be in (0, 1]")
        if self.dwr_factor < 2:
            raise ValueError("dwr_factor must be >= 2")


def dwr_select(contributions: np.ndarray, fraction: float) -> np.ndarray:
    """Sorted union over the rows of each one's ceil(fraction * N) largest
    |contribution|s, N its non-NaN count (an event-time row stops at its own
    crossing), ties toward the lower index.  One stable row-wise argsort;
    NaN sorts last."""
    neg = -np.abs(contributions)  # sorts the largest magnitude first
    n_pick = np.ceil(fraction * np.count_nonzero(~np.isnan(neg), axis=1))
    if not n_pick.size or n_pick.min() == 0:
        raise ValueError("need at least one row and no empty row")
    selected = np.zeros(neg.shape[1], dtype=bool)
    order = np.argsort(neg, axis=1, kind="stable")
    selected[order[np.arange(order.shape[1]) < n_pick[:, None]]] = True
    return np.flatnonzero(selected)


def find_meso_regions(E: np.ndarray):
    """Split intervals at the minima of the accumulated error profile E.

    From the current start, skip the initial strictly increasing run of E,
    then end the region at the global minimizer of E over the remaining
    indices; repeat from there.  Returns the regions' last interval indices
    and the error accumulated across each region (E at its end minus E at
    the previous region's end).
    """
    n = E.size
    if n == 0:
        raise ValueError("empty accumulated-error profile")
    ends = []
    start = 0
    while start < n:
        j = start
        while j + 1 < n and E[j + 1] > E[j]:
            j += 1
        end = n - 1 if j + 1 >= n else j + 1 + int(np.argmin(E[j + 1:]))
        ends.append(end)
        start = end + 1
    ends = np.array(ends)
    return ends, np.diff(E[ends], prepend=0.0)


def allocate_meso(sizes: np.ndarray, errors: np.ndarray, n_hat: int,
                  q: float) -> np.ndarray:
    """Interval counts per region minimizing total error for a fixed budget.

    `sizes` are the regions' current interval counts and `errors` their
    accumulated errors.  Solves c_i / N_i^(q+1) = K with
    c_i = |E_i| * Ntilde_i^q; counts are rounded half-up (clamped to >= 1)
    and the largest region absorbs the rounding residual.  Regions with
    zero accumulated error keep their current density; if every region is
    degenerate, fall back to uniform doubling.
    """
    if n_hat < sizes.size:
        raise ValueError("budget smaller than the region count")
    # libm pow per element: numpy's vectorized power may round differently
    c = np.abs(errors) * np.array([float(n) ** q for n in sizes])
    c = np.where(np.isfinite(c).all(), c, ~np.isfinite(c))  # overflowed c_i share n_hat
    if np.all(c == 0.0):
        log.warning("all meso-region errors vanish; falling back to uniform doubling")
        return 2 * sizes
    p = 1.0 / (q + 1.0)
    k_root = c ** p
    # K = [(1/n_hat) * sum c_i^(1/(q+1))]^(q+1); raw counts sum to n_hat exactly
    raw = n_hat * k_root / k_root.sum()
    allocated = c > 0
    counts = np.where(allocated, np.maximum(1, np.floor(raw + 0.5)), sizes).astype(int)
    residual = n_hat - counts[allocated].sum()
    biggest = np.flatnonzero(allocated)[np.argmax(counts[allocated])]
    counts[biggest] = max(1, counts[biggest] + residual)
    return counts


def refine_meso(prev_mesh: Mesh1D, prev_regions, contributions: np.ndarray):
    """Build the next level's mesh from the worst sample's error profile.

    Returns (mesh, tiling); the tiling (breaks, counts) is what the
    following level merges against, and `prev_regions=None` stands for the
    whole domain as one region.  Regions split the accumulated error
    |sum_{i<=k} e_i| of one row of contributions, whose NaN or missing tail
    (event-time QoIs stop at t_c) counts as zero.  The budget is
    MESO_TARGET_MULTIPLIER times the previous count, allocated at rate MESO_Q.
    """
    n_prev = prev_mesh.n_intervals
    padded = np.zeros(n_prev)
    padded[:contributions.size] = np.where(np.isnan(contributions), 0.0, contributions)
    n_hat = math.ceil(MESO_TARGET_MULTIPLIER * n_prev)
    with np.errstate(over="ignore", invalid="ignore"):  # allocate_meso takes inf, NaN
        ends, errors = find_meso_regions(np.abs(np.cumsum(padded)))
        counts = allocate_meso(np.diff(ends, prepend=-1), errors, n_hat, MESO_Q)
    tentative = (prev_mesh.nodes[np.append(0, ends + 1)], counts)
    if prev_regions is None:
        prev_regions = (prev_mesh.nodes[[0, -1]], np.array([n_prev]))
    breaks, counts = common_mesoregion_refinement(prev_regions, tentative)
    return subdivide(Mesh1D(breaks), counts), (breaks, counts)


def build_next_mesh(prev_mesh: Mesh1D, prev_regions, contributions: np.ndarray,
                    totals: np.ndarray, cfg: RefinementConfig):
    """Dispatch on the configured strategy; returns (mesh, tiling-or-None).
    Rows of `contributions` may end in NaN; meso follows the first largest |totals|."""
    if cfg.strategy == "uniform":
        return subdivide(prev_mesh, 2), None
    if cfg.strategy == "dwr":
        counts = np.ones(prev_mesh.n_intervals, dtype=int)
        counts[dwr_select(contributions, cfg.dwr_fraction)] = cfg.dwr_factor
        return subdivide(prev_mesh, counts), None
    worst = contributions[np.argmax(np.abs(totals))]
    return refine_meso(prev_mesh, prev_regions, worst)
