"""numpy's SeedSequence, vectorized over rows of entropy words.

A replication of an experiment seeds up to nine generators: four
``derive_seed`` hashes, the substreams its paths read, its augmentation
and its Gaussian-field draw.  One ``SeedSequence`` costs about 10 µs of
Python-level work, which is most of the fixed cost of a replication.
This module computes the same hashes for every row of a batch at once,
in numpy uint32 arithmetic, and builds each generator from its
precomputed PCG64 seed state.

The port follows numpy's ``SeedSequence`` (numpy/random/bit_generator.pyx)
with the default pool of four words:

* entropy: every int becomes its little-endian 32-bit words (0 is one
  word); a spawn key first pads the run entropy with zeros to four
  words, then appends its own words (``entropy_words``);
* ``mix_entropy``: each pool word hashes one entropy word (0 past the
  end, so a row of four words or fewer hashes like its zero-padded
  four-word form), every pool word is mixed into every other, and each
  entropy word past the fourth is mixed into every pool word;
* ``generate_state``: word i hashes pool word i mod 4 with a running
  multiplier; two consecutive words make one little-endian uint64.

The hash multipliers depend only on the position of a step, never on
the data, so every row of one length runs the same steps; rows are
grouped by length.  ``tests/test_seeding.py`` checks the port against
numpy's own ``SeedSequence``.  numpy.random is imported where a
generator is built, not on import.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["entropy_words", "seed_states", "generator"]

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


def _pad_run_entropy(words: list) -> list:
    """Run entropy zero-padded to the pool size, as numpy does before a spawn key."""
    return words + [0] * (_POOL_SIZE - len(words))


def entropy_words(entropy, spawn_key=()) -> list:
    """The entropy words of SeedSequence(entropy, spawn_key=spawn_key).

    entropy is an int or a sequence of ints, each contributing its own
    words; a non-empty spawn key pads the run entropy to the pool size
    first.
    """
    if isinstance(entropy, (int, np.integer)):
        words = _int_words(entropy)
    else:
        words = [w for value in entropy for w in _int_words(value)]
    if spawn_key:
        words = _pad_run_entropy(words) + [w for value in spawn_key for w in _int_words(value)]
    return words


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


def seed_states(rows, n_words: int) -> np.ndarray:
    """SeedSequence(...).generate_state(n_words, np.uint64) of every entropy row.

    rows holds lists of entropy words (``entropy_words``); the result is
    a (len(rows), n_words) uint64 array, row for row.  Rows of one length
    are hashed together.
    """
    out = np.empty((len(rows), n_words), dtype=np.uint64)
    by_length: dict = {}
    for k, row in enumerate(rows):
        by_length.setdefault(len(row), []).append(k)
    with np.errstate(over="ignore"):
        for index in by_length.values():
            words = np.array([rows[k] for k in index], dtype=np.uint32)
            out[index] = _generate(_pool(words), n_words)
    return out


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
