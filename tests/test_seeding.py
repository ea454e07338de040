"""The vectorized SeedSequence port against numpy's own SeedSequence, and the harness's per-n seeds."""

import dataclasses
import functools
import random

import numpy as np
import pytest

from uvstat.harness import _S_AUG, _S_FIELD, _S_PATH, _S_PATH2, ExperimentPlan, _RepSeeds, derive_seed
from uvstat.kernels import kernel_from_text
from uvstat.seeding import entropy_words, generator, seed_rows, seed_states
from uvstat.simulate import (
    AtomList,
    JumpModel,
    ModelConfig,
    VolatilityModel,
    simulate_path,
    simulate_truth,
)

# values of each magnitude class of an entropy int: 0, one word, two words, three words
MAGNITUDES = ((0, 0), (1, 2**32 - 1), (2**32, 2**64 - 1), (2**64, 2**96 - 1))


def entropy_cases(count: int, seed: int = 2015) -> list:
    """Seeded (entropy, spawn_key) pairs: ints or tuples of ints of every magnitude class,
    with and without spawn keys, and derive_seed-shaped tuples with a base seed >= 2**32."""
    rnd = random.Random(seed)

    def value():
        lo, hi = rnd.choice(MAGNITUDES)
        return rnd.randint(lo, hi)

    cases = []
    for k in range(count):
        if k % 10 == 0:  # derive_seed(base, stream, n, r) with a 5-word entropy
            entropy = (rnd.randint(2**32, 2**64 - 1), rnd.randint(0, 3), 8192, rnd.randint(0, 999))
        elif k % 10 == 1:
            entropy = value()
        else:
            entropy = tuple(value() for _ in range(rnd.randint(1, 3)))
        spawn_key = tuple(rnd.randint(0, 2**33) for _ in range(rnd.choice((0, 0, 1, 1, 2))))
        cases.append((entropy, spawn_key))
    return cases


CASES = entropy_cases(100_000)


def int_words(value: int) -> list:
    """numpy's word rule for one int: its little-endian 32-bit words, 0 being one word."""
    words = [value & 0xFFFFFFFF]
    while value >> 32:
        value >>= 32
        words.append(value & 0xFFFFFFFF)
    return words


def numpy_words(entropy, spawn_key=()) -> list:
    """The entropy words of SeedSequence(entropy, spawn_key=spawn_key), by numpy's documented rule:
    each int contributes its words; a spawn key zero-pads the run entropy to the pool's four
    words, then appends its own."""
    values = (entropy,) if isinstance(entropy, int) else entropy
    words = [w for value in values for w in int_words(value)]
    if spawn_key:
        words += [0] * (4 - len(words)) + [w for value in spawn_key for w in int_words(value)]
    return words


def hashed(rows: list, n_words: int) -> np.ndarray:
    """seed_states of word rows of any widths, one pass per width, row for row."""
    out = np.empty((len(rows), n_words), dtype=np.uint64)
    for width in {len(row) for row in rows}:
        index = [k for k, row in enumerate(rows) if len(row) == width]
        out[index] = seed_states(np.array([rows[k] for k in index], dtype=np.uint32), n_words)
    return out


@functools.cache
def numpy_states() -> tuple:
    """numpy's generate_state(1, uint64) and generate_state(4, uint64) of every case."""
    one, four = [], []
    for entropy, spawn_key in CASES:
        ss = np.random.SeedSequence(entropy, spawn_key=spawn_key)
        one.append(ss.generate_state(1, np.uint64))
        four.append(ss.generate_state(4, np.uint64))
    return np.array(one), np.array(four)


def test_cases_cover_every_word_rule():
    rows = [numpy_words(entropy, spawn_key) for entropy, spawn_key in CASES]
    assert set(range(1, 7)) <= {len(row) for row in rows}
    assert {bool(spawn_key) for _, spawn_key in CASES} == {False, True}
    ints = [v for entropy, _ in CASES for v in ((entropy,) if isinstance(entropy, int) else entropy)]
    assert {min(len(int_words(v)), 3) for v in ints} == {1, 2, 3}
    assert 0 in ints and any(v >= 2**64 for v in ints)
    # a spawn key pads a short run entropy to 4 words
    assert numpy_words(7, (1,)) == [7, 0, 0, 0, 1]
    assert numpy_words((2**32 + 5, 0), (2,)) == [5, 1, 0, 0, 2]
    # the library's words of a run entropy are the rule's
    assert all(
        entropy_words((entropy,) if isinstance(entropy, int) else entropy) == numpy_words(entropy)
        for entropy, _ in CASES
    )


def test_seed_pass_matches_numpy_seed_sequence():
    rows = [numpy_words(entropy, spawn_key) for entropy, spawn_key in CASES]
    one, four = numpy_states()
    assert np.array_equal(hashed(rows, 1), one)
    assert np.array_equal(hashed(rows, 4), four)


def test_seed_rows_match_numpy_seed_sequence():
    # [lo, hi] and [lo, hi, 0, 0, i] hash as numpy's words of the seed,
    # [lo] when hi is 0, zero-padded to four words before a spawn key
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    for spawn_index in (None, 0, 1, 2):
        spawn_key = () if spawn_index is None else (spawn_index,)
        rows = seed_rows(seeds, spawn_index)
        assert rows.dtype == np.uint32 and rows.shape == (5, 2 if spawn_index is None else 5)
        for n_words in (1, 4):
            expected = [
                np.random.SeedSequence(seed, spawn_key=spawn_key).generate_state(n_words, np.uint64)
                for seed in seeds
            ]
            assert np.array_equal(seed_states(rows, n_words), expected), (spawn_index, n_words)


def test_generators_on_precomputed_states_draw_as_numpy():
    cases = CASES[:2000]
    states = hashed([numpy_words(e, k) for e, k in cases], 4)
    for (entropy, spawn_key), state in zip(cases, states):
        ours = generator(state)
        theirs = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=spawn_key))
        assert ours.random() == theirs.random()
        assert ours.standard_normal() == theirs.standard_normal()
        assert ours.poisson(3.0) == theirs.poisson(3.0)
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_fixed_state_serves_only_a_pcg64_seed():
    state = seed_states(np.array([[1]], dtype=np.uint32), 4)[0]
    seq = generator(state).bit_generator.seed_seq
    assert np.array_equal(seq.generate_state(4, np.uint64), state)
    for n_words, dtype in ((8, np.uint64), (4, np.uint32)):
        with pytest.raises(ValueError, match="4 uint64 words"):
            seq.generate_state(n_words, dtype)


JUMPS = JumpModel(intensity=3.0, size_dist=AtomList(((1.0, 0.5), (-1.0, 0.5))), max_abs=3.0)
MODELS = {
    "constant": ModelConfig(0.0, VolatilityModel(kind="Constant", sigma0=1.0), JUMPS, 10.0),
    "itosm": ModelConfig(
        0.0, VolatilityModel(kind="ItoSM", sigma0=1.0, tilde_sigma=0.2, tilde_v=0.2), JUMPS, 10.0
    ),
}
KMIX = kernel_from_text("d=2 l=1 p=0.5 q=4.0 regime=MixedCLT L=one")


def field_bytes(path) -> tuple:
    """Every field of a GroundTruth or SamplePath, arrays as their bytes."""
    return tuple(
        (f.name, value.tobytes() if isinstance(value, np.ndarray) else value)
        for f in dataclasses.fields(path)
        for value in [getattr(path, f.name)]
    )


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("base_seed", [0, 42, 2**32 + 7, 2**64 + 3])
def test_rep_seeds_match_derive_seed(model, base_seed):
    cfg = MODELS[model]
    plan = ExperimentPlan("CLT_mixed", cfg, KMIX, 1.0, (16, 64), 7, base_seed=base_seed)
    for n in plan.n_list:
        seeds = _RepSeeds(plan, n)
        for r in range(plan.reps):
            for stream in (_S_PATH, _S_PATH2, _S_AUG, _S_FIELD):
                assert seeds.seed(stream, r) == derive_seed(base_seed, stream, n, r), (n, r, stream)
            # every state of every substream of both paths, and of both plain streams
            for stream in (_S_PATH, _S_PATH2):
                for index in range(3):  # jumps, W, V
                    ss = np.random.SeedSequence(seeds.seed(stream, r), spawn_key=(index,))
                    assert np.array_equal(
                        seeds._states[stream, index][r], ss.generate_state(4, np.uint64)
                    ), (n, r, stream, index)
            for stream in (_S_AUG, _S_FIELD):
                fresh = np.random.default_rng(np.random.SeedSequence(seeds.seed(stream, r)))
                assert seeds.rng(stream, r).bit_generator.state == fresh.bit_generator.state
            assert field_bytes(seeds.path(r)) == field_bytes(
                simulate_path(cfg, n, 1.0, seeds.seed(_S_PATH, r))
            )
            assert field_bytes(seeds.truth(r)) == field_bytes(
                simulate_truth(cfg, n, 1.0, seeds.seed(_S_PATH2, r))
            )
