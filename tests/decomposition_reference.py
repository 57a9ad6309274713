"""The per-row decomposition paths that the (M, n) contribution matrix
replaced, kept as test references.

A row was a one-dimensional array of its own length (an event-time row
stopped at its crossing).  DWR stacked rows of one length in blocks of at most
CHUNK_SIZE and sorted each block; meso followed the row of largest |total|,
picked with `max`.  `pad` turns such ragged rows into the NaN-padded matrix the
package reads now.
"""
import itertools
import math

import numpy as np

from adaptive_mlmc.refinement import CHUNK_SIZE


def pad(rows, n=None) -> np.ndarray:
    """(M, n) matrix of ragged rows, NaN past each row's own end."""
    rows = [np.asarray(r, dtype=float) for r in rows]
    out = np.full((len(rows), max([r.size for r in rows], default=0) if n is None
                   else n), np.nan)
    for k, r in enumerate(rows):
        out[k, :r.size] = r
    return out


def dwr_select(rows, fraction: float) -> np.ndarray:
    """Sorted union over the rows of each one's ceil(fraction * len) largest
    |contribution|s, ties toward the lower index, rows grouped by length."""
    rows = sorted((np.asarray(r, dtype=float) for r in rows), key=len)
    if not rows or rows[0].size == 0:
        raise ValueError("need at least one non-empty decomposition")
    selected = np.zeros(rows[-1].size, dtype=bool)
    for size, group in itertools.groupby(rows, key=len):
        group, n_pick = list(group), math.ceil(fraction * size)
        for start in range(0, len(group), CHUNK_SIZE):
            mags = np.abs(np.stack(group[start:start + CHUNK_SIZE]))
            selected[np.argsort(-mags, axis=1, kind="stable")[:, :n_pick]] = True
    return np.flatnonzero(selected)


def worst(rows, totals):
    """The row meso follows: the first of largest |total|."""
    return max(zip(rows, totals), key=lambda pair: abs(pair[1]))[0]
