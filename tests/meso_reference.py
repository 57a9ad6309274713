"""The object-based meso-region path that the (breaks, counts) arrays
replaced, kept as a test reference.

Regions were `MesoRegion(start_interval, end_interval, accumulated_error)`
index runs and `RegionSpan(t_start, t_end, n_intervals)` time spans in
lists, with explicit gap and overlap checks.  `tiling(spans)` and
`spans(breaks, counts)` convert between the two formats.
"""
import math
from dataclasses import dataclass

import numpy as np

from adaptive_mlmc.meshes import REL_TOL, Mesh1D, MeshError


@dataclass(frozen=True)
class MesoRegion:
    start_interval: int
    end_interval: int
    accumulated_error: float

    @property
    def interval_count(self) -> int:
        return self.end_interval - self.start_interval + 1


@dataclass(frozen=True)
class RegionSpan:
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


def spans(breaks, counts) -> list:
    return [RegionSpan(float(a), float(b), int(n))
            for a, b, n in zip(breaks[:-1], breaks[1:], counts)]


def tiling(region_spans) -> tuple:
    breaks = np.array([region_spans[0].t_start] + [s.t_end for s in region_spans])
    return breaks, np.array([s.n_intervals for s in region_spans])


def find_meso_regions(E: np.ndarray) -> list:
    n = E.size
    regions = []
    start = 0
    prev_end_value = 0.0
    while start < n:
        j = start
        while j + 1 < n and E[j + 1] > E[j]:
            j += 1
        if j + 1 >= n:
            end = n - 1
        else:
            end = j + 1 + int(np.argmin(E[j + 1:]))
        regions.append(MesoRegion(start, end, float(E[end] - prev_end_value)))
        prev_end_value = float(E[end])
        start = end + 1
    return regions


def allocate_meso(regions, n_hat: int, q: float) -> list:
    if n_hat < len(regions):
        raise ValueError("budget smaller than the region count")
    c = np.array([abs(r.accumulated_error) * r.interval_count ** q for r in regions])
    if np.all(c == 0.0):
        return [2 * r.interval_count for r in regions]
    p = 1.0 / (q + 1.0)
    k_root = c ** p
    raw = n_hat * k_root / k_root.sum()
    counts = [max(1, math.floor(r + 0.5)) if c[i] > 0 else regions[i].interval_count
              for i, r in enumerate(raw)]
    allocated = [i for i in range(len(regions)) if c[i] > 0]
    residual = n_hat - sum(counts[i] for i in allocated)
    biggest = max(allocated, key=lambda i: counts[i])
    counts[biggest] = max(1, counts[biggest] + residual)
    return counts


def _same_time(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL_TOL * max(scale, 1.0)


def _check_tiles_domain(region_spans, t0: float, t1: float) -> None:
    if not region_spans:
        raise MeshError("empty region list")
    if not _same_time(region_spans[0].t_start, t0, t1) or \
            not _same_time(region_spans[-1].t_end, t1, t1):
        raise MeshError("regions do not span the requested domain")
    for left, right in zip(region_spans, region_spans[1:]):
        if not _same_time(left.t_end, right.t_start, t1):
            raise MeshError("regions leave a gap or overlap")


def common_mesoregion_refinement(prev_regions, tentative_regions) -> list:
    t0 = prev_regions[0].t_start if prev_regions else 0.0
    t1 = prev_regions[-1].t_end if prev_regions else 0.0
    _check_tiles_domain(prev_regions, t0, t1)
    _check_tiles_domain(tentative_regions, t0, t1)

    boundaries = [t0]
    for t in sorted({s.t_end for s in prev_regions} | {s.t_end for s in tentative_regions}
                    | {s.t_start for s in prev_regions}
                    | {s.t_start for s in tentative_regions}):
        if not _same_time(t, boundaries[-1], t1):
            boundaries.append(t)
    if not _same_time(boundaries[-1], t1, t1):
        boundaries.append(t1)
    boundaries[-1] = t1
    boundaries[0] = t0

    def density_at(region_spans, t_mid):
        for s in region_spans:
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


def mesh_from_region_spans(region_spans) -> Mesh1D:
    _check_tiles_domain(region_spans, region_spans[0].t_start, region_spans[-1].t_end)
    nodes = [region_spans[0].t_start]
    for s in region_spans:
        k = np.arange(1, s.n_intervals + 1) / s.n_intervals
        nodes.extend(s.t_start + (s.t_end - s.t_start) * k)
        nodes[-1] = s.t_end
    return Mesh1D(np.array(nodes))
