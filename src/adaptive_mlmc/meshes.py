"""One-dimensional meshes (temporal and spatial) and their refinement primitives.

Meshes store node coordinates rather than interval lengths so that merged
region boundaries stay exact under dyadic refinement.  All refinement
operations return new meshes; instances are immutable and safe to share
across concurrently running samples.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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


@dataclass(frozen=True)
class MesoRegion:
    """Contiguous run of mesh intervals with its accumulated signed error."""

    start_interval: int
    end_interval: int
    accumulated_error: float

    def __post_init__(self):
        if self.start_interval > self.end_interval:
            raise MeshError("region start must not exceed end")

    @property
    def interval_count(self) -> int:
        return self.end_interval - self.start_interval + 1


def check_region_tiling(regions: Sequence[MesoRegion], n_intervals: int) -> None:
    """Regions must tile interval indices 0..n_intervals-1 without gaps or overlap."""
    expected = 0
    for r in regions:
        if r.start_interval != expected:
            raise MeshError("regions do not tile the index range")
        expected = r.end_interval + 1
    if expected != n_intervals:
        raise MeshError("regions do not cover the whole mesh")


@dataclass(frozen=True)
class RegionSpan:
    """A time span carrying a uniform sub-grid with n_intervals intervals."""

    t_start: float
    t_end: float
    n_intervals: int

    def __post_init__(self):
        if not self.t_end > self.t_start:
            raise MeshError("empty region span")
        if self.n_intervals < 1:
            raise MeshError("region span needs at least one interval")

    @property
    def density(self) -> float:
        return self.n_intervals / (self.t_end - self.t_start)


def whole_domain_span(mesh: Mesh1D) -> list:
    """The trivial one-region tiling of a mesh (used for uniform initial grids)."""
    return [RegionSpan(0.0, mesh.length, mesh.n_intervals)]


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


def _check_tiles_domain(spans: Sequence[RegionSpan], t0: float, t1: float) -> None:
    if not spans:
        raise MeshError("empty region list")
    if not _same_time(spans[0].t_start, t0, t1) or not _same_time(spans[-1].t_end, t1, t1):
        raise MeshError("regions do not span the requested domain")
    for left, right in zip(spans, spans[1:]):
        if not _same_time(left.t_end, right.t_start, t1):
            raise MeshError("regions leave a gap or overlap")


def common_mesoregion_refinement(prev_regions: Sequence[RegionSpan],
                                 tentative_regions: Sequence[RegionSpan]) -> list:
    """Overlay two region tilings of the same domain.

    Each overlay piece gets the larger of the two parents' interval densities,
    scaled to the piece length and rounded up (minimum 1).  Taking the max
    guarantees no piece is ever coarser than the previous-level grid.
    """
    t0 = prev_regions[0].t_start if prev_regions else 0.0
    t1 = prev_regions[-1].t_end if prev_regions else 0.0
    _check_tiles_domain(prev_regions, t0, t1)
    _check_tiles_domain(tentative_regions, t0, t1)

    boundaries = [t0]
    for t in sorted({s.t_end for s in prev_regions} | {s.t_end for s in tentative_regions}
                    | {s.t_start for s in prev_regions} | {s.t_start for s in tentative_regions}):
        if not _same_time(t, boundaries[-1], t1):
            boundaries.append(t)
    if not _same_time(boundaries[-1], t1, t1):
        boundaries.append(t1)
    boundaries[-1] = t1
    boundaries[0] = t0

    def density_at(spans, t_mid):
        for s in spans:
            if s.t_start <= t_mid <= s.t_end:
                return s.density
        raise MeshError("overlay point not covered by regions")

    out = []
    for a, b in zip(boundaries, boundaries[1:]):
        mid = 0.5 * (a + b)
        dens = max(density_at(prev_regions, mid), density_at(tentative_regions, mid))
        n = max(1, math.ceil(dens * (b - a) - 1e-9))
        out.append(RegionSpan(a, b, n))
    return out


def mesh_from_region_spans(spans: Sequence[RegionSpan]) -> Mesh1D:
    """Build a mesh with a uniform sub-grid on each region span."""
    _check_tiles_domain(spans, spans[0].t_start, spans[-1].t_end)
    nodes = [spans[0].t_start]
    for s in spans:
        k = np.arange(1, s.n_intervals + 1) / s.n_intervals
        nodes.extend(s.t_start + (s.t_end - s.t_start) * k)
        nodes[-1] = s.t_end
    return Mesh1D(np.array(nodes))
