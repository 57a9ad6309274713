"""New-level mesh creation: uniform halving, DWR, and meso-scale.

Both adaptive strategies read the decomposition of the top level's bias
estimate: the profile b_i = sum_k c_ki / den_k over its estimated samples.
DWR refines the intervals carrying the largest |b_i|.  Meso-scale
refinement partitions the domain at the minima of the profile's accumulated
error, allocates intervals to equalize region errors, and merges with the
previous level so no region is ever unrefined.
"""
from __future__ import annotations

import logging
import math

import numpy as np

from .meshes import Mesh1D, common_mesoregion_refinement, subdivide

log = logging.getLogger(__name__)

MESO_Q = 2.0  # the error model's rate: a region's error shrinks as N^-q
MESO_TARGET_MULTIPLIER = 2.0  # a meso level's interval budget per previous interval
STRATEGIES = ("uniform", "dwr", "meso")


def dwr_select(profile: np.ndarray, fraction: float) -> np.ndarray:
    """Sorted indices of the ceil(fraction * N) largest |profile| entries, N
    the count of nonzero ones (at least 1), ties toward the lower index.  One
    stable argsort; NaN sorts last."""
    n_pick = math.ceil(fraction * max(1, np.count_nonzero(profile)))
    return np.sort(np.argsort(-np.abs(profile), kind="stable")[:n_pick])


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


def refine_meso(prev_mesh: Mesh1D, prev_regions, profile: np.ndarray):
    """Build the next level's mesh from the top level's bias profile, one
    entry per interval of `prev_mesh`.

    Returns (mesh, tiling); the tiling (breaks, counts) is what the
    following level merges against, and `prev_regions=None` stands for the
    whole domain as one region.  Regions split the accumulated error
    |sum_{i<=k} b_i| of the profile, whose NaN entries (an overflowed
    inf - inf) count as zero.  The budget is MESO_TARGET_MULTIPLIER times
    the previous count, allocated at rate MESO_Q.
    """
    n_prev = prev_mesh.n_intervals
    profile = np.where(np.isnan(profile), 0.0, profile)
    n_hat = math.ceil(MESO_TARGET_MULTIPLIER * n_prev)
    with np.errstate(over="ignore", invalid="ignore"):  # allocate_meso takes inf, NaN
        ends, errors = find_meso_regions(np.abs(np.cumsum(profile)))
        counts = allocate_meso(np.diff(ends, prepend=-1), errors, n_hat, MESO_Q)
    tentative = (prev_mesh.nodes[np.append(0, ends + 1)], counts)
    if prev_regions is None:
        prev_regions = (prev_mesh.nodes[[0, -1]], np.array([n_prev]))
    breaks, counts = common_mesoregion_refinement(prev_regions, tentative)
    return subdivide(Mesh1D(breaks), counts), (breaks, counts)


def build_next_mesh(prev_mesh: Mesh1D, prev_regions, profile: np.ndarray,
                    strategy: str, dwr_marking: tuple):
    """Dispatch on `strategy`; returns (mesh, tiling-or-None).  DWR splits the
    intervals `dwr_select` marks in the bias profile at the model's
    `dwr_marking` = (fraction, factor) into `factor` parts; meso splits the
    profile's accumulated error."""
    if strategy == "uniform":
        return subdivide(prev_mesh, 2), None
    if strategy == "dwr":
        fraction, factor = dwr_marking
        counts = np.ones(prev_mesh.n_intervals, dtype=int)
        counts[dwr_select(profile, fraction)] = factor
        return subdivide(prev_mesh, counts), None
    return refine_meso(prev_mesh, prev_regions, profile)
