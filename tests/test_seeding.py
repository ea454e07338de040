"""The vectorized SeedSequence port against numpy's own SeedSequence, and the harness's per-n seeds."""

import dataclasses
import functools
import random

import numpy as np
import pytest

from uvstat.harness import _S_AUG, _S_FIELD, _S_PATH, _S_PATH2, ExperimentPlan, _RepSeeds, derive_seed
from uvstat.kernels import kernel_from_text
from uvstat.seeding import entropy_words, generator, seed_states
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
    rows = [entropy_words(entropy, spawn_key) for entropy, spawn_key in CASES]
    assert set(range(1, 7)) <= {len(row) for row in rows}
    assert {bool(spawn_key) for _, spawn_key in CASES} == {False, True}
    ints = [v for entropy, _ in CASES for v in ((entropy,) if isinstance(entropy, int) else entropy)]
    assert {min(len(entropy_words(v)), 3) for v in ints} == {1, 2, 3}
    assert 0 in ints and any(v >= 2**64 for v in ints)
    # a spawn key pads a short run entropy to 4 words
    assert entropy_words(7, (1,)) == [7, 0, 0, 0, 1]
    assert entropy_words((2**32 + 5, 0), (2,)) == [5, 1, 0, 0, 2]


def test_seed_pass_matches_numpy_seed_sequence():
    rows = [entropy_words(entropy, spawn_key) for entropy, spawn_key in CASES]
    one, four = numpy_states()
    assert np.array_equal(seed_states(rows, 1), one)
    assert np.array_equal(seed_states(rows, 4), four)


def test_generators_on_precomputed_states_draw_as_numpy():
    cases = CASES[:2000]
    states = seed_states([entropy_words(e, k) for e, k in cases], 4)
    for (entropy, spawn_key), state in zip(cases, states):
        ours = generator(state)
        theirs = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=spawn_key))
        assert ours.random() == theirs.random()
        assert ours.standard_normal() == theirs.standard_normal()
        assert ours.poisson(3.0) == theirs.poisson(3.0)
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_fixed_state_serves_only_a_pcg64_seed():
    state = seed_states([[1]], 4)[0]
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
        seeds = _RepSeeds(plan, n, limit_law=True, plain=(_S_AUG, _S_FIELD))
        for r in range(plan.reps):
            for stream in (_S_PATH, _S_PATH2, _S_AUG, _S_FIELD):
                assert seeds.seed(stream, r) == derive_seed(base_seed, stream, n, r), (n, r, stream)
            for stream in (_S_AUG, _S_FIELD):
                fresh = np.random.default_rng(np.random.SeedSequence(seeds.seed(stream, r)))
                assert seeds.rng(stream, r).bit_generator.state == fresh.bit_generator.state
            assert field_bytes(seeds.path(r)) == field_bytes(
                simulate_path(cfg, n, 1.0, seeds.seed(_S_PATH, r))
            )
            assert field_bytes(seeds.truth(r)) == field_bytes(
                simulate_truth(cfg, n, 1.0, seeds.seed(_S_PATH2, r))
            )
