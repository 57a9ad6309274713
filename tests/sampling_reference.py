"""Two reads of the Philox stream of (seed, level) that do not set its
counter, kept as test references for the counter-addressed chunk read.

Draw i of an n-word spec owns the stream's ceil(n/4) blocks from block
i*ceil(n/4) on, so its words are words [4*nb*i, 4*nb*i + n) of the stream.
"""
import numpy as np


def stream(master_seed: int, level: int) -> np.random.Philox:
    """The stream from its start, seeded the plain way."""
    return np.random.Philox(np.random.SeedSequence(int(master_seed),
                                                   spawn_key=(int(level),)))


def words(master_seed: int, level: int, index: int, n: int) -> np.ndarray:
    """n raw words of draw `index`, read sequentially from the stream's start."""
    offset = 4 * -(-n // 4) * int(index)
    return stream(master_seed, level).random_raw(offset + n)[offset:]


def far_words(master_seed: int, level: int, index: int, n: int) -> np.ndarray:
    """The same words for an index too far to read up to: the stream is
    advanced past the earlier draws' blocks instead."""
    bit_generator = stream(master_seed, level)
    bit_generator.advance(-(-n // 4) * int(index))
    return bit_generator.random_raw(n)
