"""Reproducible random-parameter sampling on counter-based streams.

Every draw is a pure function of (master_seed, level, index): its stream is
keyed by all three, uniforms come from inverse-CDF on 64-bit words and
normals from Box-Muller on the same stream.  Results are therefore identical
no matter in which order, in which chunks, or on how many workers draws are
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
    target: str = ""

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


def uniform(low: float, high: float, target: str = "") -> ParameterDistribution:
    return ParameterDistribution("uniform", float(low), float(high), target)


def normal(mean: float, stddev: float, target: str = "") -> ParameterDistribution:
    return ParameterDistribution("normal", float(mean), float(stddev), target)


_MASK32 = 0xFFFFFFFF
_SHIFT16, _SHIFT32, _LO32 = np.uint32(16), np.uint64(32), np.uint64(_MASK32)
# Philox4x64-10 (Random123) on (lane, M, blocks) counter words, lane j for
# words 2j, 2j+1: round multipliers, their 32-bit halves and key increments
_PHILOX_MULT = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157],
                        dtype=np.uint64).reshape(2, 1, 1)
_PHILOX_HALVES = np.stack([_PHILOX_MULT & _LO32, _PHILOX_MULT >> _SHIFT32],
                          axis=1)[:, None]
_PHILOX_WEYL = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B],
                        dtype=np.uint64).reshape(2, 1, 1)


def _philox_keys(master_seed: int, level: int, index: np.ndarray) -> np.ndarray:
    """(2, M) key words of `Philox(seed=SeedSequence(entropy=master_seed,
    spawn_key=(level, i)))` for each i < 2**32, bit for bit.  The index is the
    last entropy word, so every row shares the pool of (seed, level) and only
    its four hashmixes, their mix and `generate_state(2, uint64)` run per row.
    """
    def hash_consts(init, mult, skip):  # init * mult**k mod 2**32 from k = skip
        return np.array([init * pow(mult, k, 1 << 32) & _MASK32
                         for k in range(skip, skip + 5)], dtype=np.uint32)

    # numpy/random/bit_generator.pyx: INIT_A, MULT_A, MIX_MULT_L/R, INIT_B, MULT_B.
    # Hashmixes before the index: 4 fill the pool, 12 cross it, 4 per later word.
    pool = np.random.SeedSequence(entropy=master_seed, spawn_key=(level,)).pool
    words = [max(1, -(-n.bit_length() // 32)) for n in (master_seed, level)]
    a = hash_consts(0x43b0d7e5, 0x931e8875, 4 + 12 + 4 * (max(4, words[0]) + words[1] - 4))
    value = (index.astype(np.uint32)[:, None] ^ a[:4]) * a[1:]
    value ^= value >> _SHIFT16
    mixed = np.uint32(0xca01f9dd) * pool - np.uint32(0x4973f715) * value
    b = hash_consts(0x8b51f9dd, 0x58f38ded, 0)
    state = ((mixed ^ (mixed >> _SHIFT16)) ^ b[:4]) * b[1:]
    state = (state ^ (state >> _SHIFT16)).astype(np.uint64)
    return (state[:, 0::2] | (state[:, 1::2] << _SHIFT32)).T


def _words(master_seed: int, level: int, indices, n: int) -> np.ndarray:
    """(M, n) raw words in one array pass: row k is what `random_raw(n)` (and
    so `Generator.integers` on the full uint64 range) gives on the Philox
    stream keyed by (master_seed, level, indices[k]).  Block b of a stream is
    ten rounds on the counter (b + 1, 0, 0, 0), whose words 0 and 2 are
    carried in `even` and 1 and 3 in `odd`."""
    index = np.asarray(indices)
    if index.size and not (index.min() >= 0 and index.max() <= _MASK32):
        raise ValueError("draw indices must lie in [0, 2**32)")
    keys = _philox_keys(int(master_seed), int(level), index)[:, :, None]
    n_blocks = -(-n // 4)
    even = np.zeros((2, len(index), n_blocks), dtype=np.uint64)
    even[0], odd = np.arange(1, n_blocks + 1, dtype=np.uint64), np.zeros_like(even)
    for _ in range(10):
        halves = np.stack([even & _LO32, even >> _SHIFT32], axis=1)
        p = halves[:, :, None] * _PHILOX_HALVES  # p[:, i, j] = a_half_i * b_half_j
        p_hi, p_lo = p >> _SHIFT32, p & _LO32
        mid = p_hi[:, 0, 0] + p_lo[:, 0, 1] + p_lo[:, 1, 0]
        hi = p[:, 1, 1] + p_hi[:, 0, 1] + p_hi[:, 1, 0] + (mid >> _SHIFT32)
        even, odd = hi[::-1] ^ odd ^ keys, (even * _PHILOX_MULT)[::-1]
        keys = keys + _PHILOX_WEYL
    blocks = np.stack([even[0], odd[0], even[1], odd[1]], axis=-1)
    return blocks.reshape(len(index), 4 * n_blocks)[:, :n]


def _unit_open_closed(words: np.ndarray) -> np.ndarray:
    """Map 64-bit words to (0, 1]."""
    return ((words >> np.uint64(11)).astype(float) + 1.0) * _INV_2_53


def sample_parameters(spec: Sequence[ParameterDistribution], master_seed: int,
                      level: int, indices: Sequence[int]) -> np.ndarray:
    """One row of values per index, shape (M, p); row k is a function of
    (master_seed, level, indices[k]) alone."""
    n_words = sum(2 if d.kind == "normal" else 1 for d in spec)
    u = _unit_open_closed(_words(master_seed, level, indices, n_words))
    values = np.empty((len(indices), len(spec)))
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
