"""numpy's SeedSequence, vectorized over rows of entropy words.

A replication of an experiment reads up to four ``derive_seed`` streams,
and each path stream up to three simulator substreams.  One
``SeedSequence`` costs about 10 µs of Python-level work, which is most
of the fixed cost of a replication.  This module computes the same
hashes for every row of a batch at once, in numpy uint32 arithmetic,
and builds each generator from its precomputed PCG64 seed state.

The port follows numpy's ``SeedSequence`` (numpy/random/bit_generator.pyx)
with the default pool of four words:

* entropy: every int becomes its little-endian 32-bit words (0 is one
  word, ``entropy_words``); a spawn key first pads the run entropy with
  zeros to four words, then appends its own words;
* ``mix_entropy``: each pool word hashes one entropy word (0 past the
  end, so a row of four words or fewer hashes like its zero-padded
  four-word form), every pool word is mixed into every other, and each
  entropy word past the fourth is mixed into every pool word;
* ``generate_state``: word i hashes pool word i mod 4 with a running
  multiplier; two consecutive words make one little-endian uint64.

So the entropy of a uint64 seed is the fixed-width row [lo, hi] even
when hi is 0, and with spawn key (i,) the row [lo, hi, 0, 0, i]
(``seed_rows``).  The hash multipliers depend only on the position of a
step, never on the data, so every row of one width runs the same steps:
``seed_states`` hashes one (rows, width) matrix at once.
``tests/test_seeding.py`` checks the port against numpy's own
``SeedSequence``.  numpy.random is imported where a generator is built,
not on import.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["entropy_words", "seed_rows", "seed_states", "generator"]

_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_XSHIFT = 16


def _int_words(value: int) -> list:
    """The little-endian 32-bit words of a non-negative int; 0 is one word."""
    value = int(value)
    if value < 0:
        raise ValueError(f"seed entropy must be non-negative, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def entropy_words(entropy: tuple) -> list:
    """The entropy words of SeedSequence(entropy): each int of entropy contributes its own words."""
    return [w for value in entropy for w in _int_words(value)]


def seed_rows(seeds, spawn_index=None) -> np.ndarray:
    """The entropy rows of SeedSequence(seed, spawn_key=(spawn_index,)) for each uint64 seed.

    [lo, hi] without a spawn index, [lo, hi, 0, 0, spawn_index] with one:
    a (len(seeds), width) uint32 matrix for ``seed_states``.
    """
    words = np.asarray(seeds, dtype="<u8").view("<u4").reshape(-1, 2)  # [lo, hi] per seed
    rows = np.zeros((len(words), 2 if spawn_index is None else _POOL_SIZE + 1), dtype=np.uint32)
    rows[:, :2] = words
    if spawn_index is not None:
        rows[:, -1] = spawn_index
    return rows


class _Hash:
    """numpy's hashmix with its running multiplier, applied to uint32 arrays."""

    def __init__(self, init: int, mult: int):
        self.const, self.mult = init, mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = (self.const * self.mult) & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> _XSHIFT)


def _pool(words: np.ndarray) -> list:
    """mix_entropy over the columns of a (rows, L) uint32 array: the four pool words of each row."""
    hashmix = _Hash(_INIT_A, _MULT_A)
    zero = np.zeros(len(words), dtype=np.uint32)
    pool = [hashmix(words[:, i] if i < words.shape[1] else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, words.shape[1]):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(words[:, src]))
    return pool


def _generate(pool: list, n_words: int) -> np.ndarray:
    """generate_state(n_words, np.uint64) of each row of the pool: a (rows, n_words) uint64 array."""
    hashmix = _Hash(_INIT_B, _MULT_B)
    halves = np.empty((len(pool[0]), 2 * n_words), dtype=np.uint64)
    for i in range(2 * n_words):
        halves[:, i] = hashmix(pool[i % _POOL_SIZE])
    return halves[:, 0::2] | (halves[:, 1::2] << np.uint64(32))


def seed_states(rows: np.ndarray, n_words: int) -> np.ndarray:
    """SeedSequence(...).generate_state(n_words, np.uint64) of every entropy row.

    rows is a (rows, width) uint32 matrix, one row of entropy words each
    (``entropy_words``, ``seed_rows``); the result is a (rows, n_words)
    uint64 array, row for row.
    """
    with np.errstate(over="ignore"):
        return _generate(_pool(rows), n_words)


@functools.cache
def _random_api():
    """(Generator, PCG64, the ISeedSequence that hands PCG64 a fixed state), built on first use."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class FixedState(ISeedSequence):
        """A seed sequence whose only state is a precomputed PCG64 seed state."""

        __slots__ = ("state",)

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"a fixed PCG64 state holds 4 uint64 words, not {n_words} {dtype}")
            return self.state

    return Generator, PCG64, FixedState


def generator(state: np.ndarray):
    """Generator(PCG64(SeedSequence(...))) from its precomputed 4 x uint64 seed state, same stream."""
    Generator, PCG64, FixedState = _random_api()
    return Generator(PCG64(FixedState(np.ascontiguousarray(state, dtype=np.uint64))))
