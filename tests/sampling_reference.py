"""The per-index Philox path that the vectorized chunk pass replaced, kept
as a test reference.

Each draw builds its own `SeedSequence` keyed by (seed, level, index) and
its own `Philox`, and reads the stream's first n raw words.
"""
import numpy as np


def words(master_seed: int, level: int, index: int, n: int) -> np.ndarray:
    """n raw words of the Philox stream keyed by (seed, level, index): the
    words `Generator.integers` gives on the full uint64 range, minus its cost."""
    seq = np.random.SeedSequence(entropy=int(master_seed),
                                 spawn_key=(int(level), int(index)))
    return np.random.Philox(seed=seq).random_raw(n)
