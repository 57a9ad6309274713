"""One-dimensional meshes (temporal and spatial) and their refinement primitives.

Meshes store node coordinates rather than interval lengths so that merged
region boundaries stay exact under dyadic refinement.  All refinement
operations return new meshes; instances are immutable and safe to share
across concurrently running samples.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative tolerance for deciding that two boundary times coincide.
REL_TOL = 1e-12


class MeshError(ValueError):
    """Invalid mesh construction or an out-of-range refinement request."""


@dataclass(frozen=True, eq=False)
class Mesh1D:
    """Strictly increasing node coordinates starting at 0, compared and
    hashed by identity, so a mesh can key per-mesh data."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.ascontiguousarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise MeshError("mesh needs at least two nodes")
        if nodes[0] != 0.0:
            raise MeshError("first node must be 0")
        if not np.all(np.diff(nodes) > 0.0):
            raise MeshError("nodes must be strictly increasing")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @property
    def n_intervals(self) -> int:
        return self.nodes.size - 1

    @property
    def length(self) -> float:
        return float(self.nodes[-1])

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.nodes)

    def interval_of(self, t):
        """Index of the interval containing t, with intervals closed on the right.

        A scalar t gives an int, an array of times an index array.
        """
        t_arr = np.asarray(t, dtype=float)
        if t_arr.min() < self.nodes[0] or t_arr.max() > self.nodes[-1] * (1.0 + REL_TOL):
            raise MeshError(f"t={t} outside mesh [0, {self.length}]")
        i = np.clip(np.searchsorted(self.nodes, t_arr, side="left") - 1,
                    0, self.n_intervals - 1)
        return int(i) if i.ndim == 0 else i


def uniform_mesh(length: float, n_intervals: int) -> Mesh1D:
    if n_intervals < 1:
        raise MeshError("need at least one interval")
    return Mesh1D(np.linspace(0.0, length, n_intervals + 1))


def subdivide(mesh: Mesh1D, counts) -> Mesh1D:
    """Split interval i into counts[i] equal parts; a scalar count splits
    every interval.  Part j of [a, b] starts at a + (b - a) * (j / counts[i]),
    so j = 0 keeps every input node exactly."""
    counts = np.broadcast_to(np.asarray(counts, dtype=int), (mesh.n_intervals,))
    if counts.min() < 1:
        raise MeshError("every interval needs at least one part")
    parts = np.repeat(counts, counts)
    j = np.arange(parts.size) - np.repeat(np.cumsum(counts) - counts, counts)
    nodes = np.repeat(mesh.nodes[:-1], counts) \
        + np.repeat(mesh.lengths, counts) * (j / parts)
    return Mesh1D(np.append(nodes, mesh.nodes[-1]))


def _same_time(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL_TOL * max(scale, 1.0)


def _density_at(tiling, t: np.ndarray) -> np.ndarray:
    """Interval density of the first region whose closed span holds each t."""
    breaks, counts = tiling
    if t.min() < breaks[0] or t.max() > breaks[-1]:
        raise MeshError("overlay point not covered by regions")
    i = np.maximum(np.searchsorted(breaks, t) - 1, 0)
    return counts[i] / np.diff(breaks)[i]


def common_mesoregion_refinement(prev_regions, tentative_regions):
    """Overlay two region tilings of the same domain.

    A tiling is a pair of arrays (breaks, counts): region i spans
    breaks[i]..breaks[i+1] with counts[i] uniform intervals.  Breaks of the
    two tilings that coincide within REL_TOL become one overlay boundary.
    Each overlay piece gets the larger of the two parents' interval
    densities, scaled to the piece length and rounded up (minimum 1).
    Taking the max guarantees no piece is ever coarser than the
    previous-level grid.
    """
    prev_breaks, tentative_breaks = prev_regions[0], tentative_regions[0]
    t0, t1 = prev_breaks[0], prev_breaks[-1]
    if not (_same_time(tentative_breaks[0], t0, t1)
            and _same_time(tentative_breaks[-1], t1, t1)):
        raise MeshError("regions do not span the requested domain")
    boundaries = [t0]
    for t in np.unique(np.concatenate([prev_breaks, tentative_breaks])):
        if not _same_time(t, boundaries[-1], t1):
            boundaries.append(t)
    boundaries[-1] = t1
    breaks = np.array(boundaries)
    mid = 0.5 * (breaks[:-1] + breaks[1:])
    density = np.maximum(_density_at(prev_regions, mid),
                         _density_at(tentative_regions, mid))
    counts = np.maximum(1, np.ceil(density * np.diff(breaks) - 1e-9)).astype(int)
    return breaks, counts
