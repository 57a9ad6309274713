"""Reproducible random-parameter sampling on counter-based streams.

Every draw is a pure function of (master_seed, level, index): each
(master_seed, level) keys one Philox stream, and the index addresses the
draw's own blocks of that stream by counter.  Uniforms come from inverse-CDF
on 64-bit words and normals from Box-Muller on the same words.  Results are
therefore identical no matter in which chunks or in which order draws are
generated.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

_INV_2_53 = 2.0 ** -53


class DistributionError(ValueError):
    """Invalid distribution parameters."""


@dataclass(frozen=True)
class ParameterDistribution:
    """A scalar random input: uniform(a, b) or normal(mean, stddev)."""

    kind: str
    a: float
    b: float

    def __post_init__(self):
        if self.kind == "uniform":
            if not self.a < self.b:
                raise DistributionError("uniform needs a < b")
        elif self.kind == "normal":
            if not self.b > 0:
                raise DistributionError("normal needs stddev > 0")
        else:
            raise DistributionError(f"unknown distribution kind {self.kind!r}")

    @property
    def centre(self) -> float:
        """The mean: `a` of normal(a, b), the midpoint of uniform(a, b)."""
        return self.a if self.kind == "normal" else 0.5 * (self.a + self.b)


def uniform(low: float, high: float) -> ParameterDistribution:
    return ParameterDistribution("uniform", float(low), float(high))


def normal(mean: float, stddev: float) -> ParameterDistribution:
    return ParameterDistribution("normal", float(mean), float(stddev))


def _words(master_seed: int, level: int, start: int, count: int,
           n: int) -> np.ndarray:
    """(count, n) raw words of draws start .. start+count-1.  The Philox
    stream of (master_seed, level) gives draw i its ceil(n/4) blocks from
    block i*ceil(n/4) on, so one read at that counter serves a whole chunk."""
    n_blocks = -(-n // 4)
    key = np.random.SeedSequence(int(master_seed), spawn_key=(int(level),)) \
        .generate_state(2, np.uint64)
    raw = np.random.Philox(key=key, counter=int(start) * n_blocks) \
        .random_raw(count * 4 * n_blocks)
    return raw.reshape(count, 4 * n_blocks)[:, :n]


def _unit_open_closed(words: np.ndarray) -> np.ndarray:
    """Map 64-bit words to (0, 1]."""
    return ((words >> np.uint64(11)).astype(float) + 1.0) * _INV_2_53


def sample_parameters(spec: Sequence[ParameterDistribution], master_seed: int,
                      level: int, start: int, count: int) -> np.ndarray:
    """Draws start .. start+count-1, shape (count, p); row k is a function of
    (master_seed, level, start + k) alone."""
    n_words = sum(2 if d.kind == "normal" else 1 for d in spec)
    u = _unit_open_closed(_words(master_seed, level, start, count, n_words))
    values = np.empty((count, len(spec)))
    pos = 0
    for k, dist in enumerate(spec):
        if dist.kind == "uniform":
            values[:, k] = dist.a + (dist.b - dist.a) * u[:, pos]
            pos += 1
        else:
            u1, u2 = u[:, pos], u[:, pos + 1]
            z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
            values[:, k] = dist.a + dist.b * z
            pos += 2
    return values
