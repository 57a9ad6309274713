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


@dataclass(frozen=True)
class Mesh1D:
    """Strictly increasing node coordinates starting at 0."""

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

    def dump(self, path) -> None:
        """Write one node time per line with 17 significant digits."""
        with open(path, "w") as fh:
            for t in self.nodes:
                fh.write(f"{t:.17g}\n")


def uniform_mesh(length: float, n_intervals: int) -> Mesh1D:
    if n_intervals < 1:
        raise MeshError("need at least one interval")
    return Mesh1D(np.linspace(0.0, length, n_intervals + 1))


def uniform_refine(mesh: Mesh1D, factor: int) -> Mesh1D:
    """Split every interval into `factor` equal sub-intervals."""
    factor = int(factor)
    if factor < 1:
        raise MeshError("factor must be >= 1")
    if factor == 1:
        return mesh
    a = mesh.nodes[:-1]
    b = mesh.nodes[1:]
    frac = np.arange(factor) / factor
    # k = 0 reproduces the original left nodes exactly
    interior = a[:, None] + (b - a)[:, None] * frac[None, :]
    nodes = np.append(interior.ravel(), mesh.nodes[-1])
    return Mesh1D(nodes)


def refine_intervals(mesh: Mesh1D, selection, factor: int) -> Mesh1D:
    """Split the intervals whose indices are in `selection` into `factor`
    equal parts, leave the rest."""
    factor = int(factor)
    if factor < 2:
        raise MeshError("factor must be >= 2")
    chosen = {int(i) for i in selection}
    for i in chosen:
        if i < 0 or i >= mesh.n_intervals:
            raise MeshError(f"interval index {i} out of range for mesh "
                            f"with {mesh.n_intervals} intervals")
    pieces = [np.array([0.0])]
    for i in range(mesh.n_intervals):
        a, b = mesh.nodes[i], mesh.nodes[i + 1]
        if i in chosen:
            k = np.arange(1, factor + 1) / factor
            pieces.append(a + (b - a) * k)
        else:
            pieces.append(np.array([b]))
    nodes = np.concatenate(pieces)
    # right endpoints of unsplit intervals and k=factor endpoints are the
    # original nodes, so every input node survives exactly
    nodes[-1] = mesh.nodes[-1]
    return Mesh1D(nodes)


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


def mesh_from_tiling(breaks: np.ndarray, counts: np.ndarray) -> Mesh1D:
    """Build a mesh with counts[i] uniform intervals on breaks[i]..breaks[i+1]."""
    pieces = [breaks[:1]]
    for a, b, n in zip(breaks[:-1], breaks[1:], counts):
        piece = a + (b - a) * (np.arange(1, n + 1) / n)
        piece[-1] = b
        pieces.append(piece)
    return Mesh1D(np.concatenate(pieces))
