"""Metamorphic gates: for L = one, every output is homogeneous in the scale of X.

H(x, y) = prod |x_i|^{p_i} prod |y_k|^{q_k} is homogeneous of degree
s = sum p + sum q.  Doubling every scale parameter of a zero-drift model
on one seed doubles X, sigma and the jump sizes (the simulator's own
gate, ``test_simulate.test_doubling_every_scale_doubles_*``), so every
statistic, limit and limit draw scales by 2^s and every conditional
variance by 2^{2s}.  The relations run on every L = one kernel of
``random_kernels``, in each regime whose admissibility it passes; they
cannot see a defect that keeps the degree (a wrong n-normalization, the
p and q blocks swapped, a misplaced jump time).
"""

import math

from hypothesis import example, given, settings
from numpy.random import default_rng

from uvstat.kernels import ONE, REGIMES, KernelSpec
from uvstat.limits import Context, cond_var_jump, cond_var_mixed, jump_limit, mixed_limit
from uvstat.sampler import augment, sample_U_jump, sample_V_mixed
from uvstat.simulate import AtomList, JumpModel, ModelConfig, VolatilityModel, simulate_path
from uvstat.stats import u_stat, v_stat, y_stat

from random_kernels import random_kernels
from test_limits import field_gen
from test_simulate import _doubled, scalable_models

# fixed before the first run, about ten times the largest error (1.2e-13)
# of an earlier check; a draw is a signed sum, so it is held to its
# conditional standard deviation as well as to its own size
REL_TOL = 1e-12

L_ONE = sorted({(k.d, k.l, k.p, k.q) for k in random_kernels() if k.L == ONE})
KERNELS = [
    KernelSpec(d=d, l=l, p=p, q=q, L=ONE, regime=regime)
    for d, l, p, q in L_ONE
    for regime in REGIMES
    if KernelSpec(d=d, l=l, p=p, q=q, L=ONE, regime=regime)._admissibility.passed
]

# one ItoSM path with sigma clamps, shared intervals, jumps past the grid and repeated sizes
ITOSM_CASE = (
    ModelConfig(
        drift_b=0.0,
        vol=VolatilityModel(kind="ItoSM", sigma0=0.7, tilde_b=-0.5, tilde_sigma=0.2, tilde_v=1.0),
        jumps=JumpModel(intensity=60.0, size_dist=AtomList(((0.6, 0.5), (-1.3, 0.5))), max_abs=3.0),
        bound_A=5.0,
    ),
    64,
    1.37,
    11,
)


# Two Constant paths with few distinct jump sizes, where the field covariance
# over the jump-size tuples is singular: a field drawn by a jittered
# factorization of that matrix misses 2^s here by up to 1.3e-12 of its
# conditional standard deviation.
FIELD_CASES = [
    (
        ModelConfig(
            drift_b=0.0,
            vol=VolatilityModel(kind="Constant", sigma0=sigma0, floor_eps=0.5),
            jumps=JumpModel(intensity=intensity, size_dist=AtomList(atoms), max_abs=3.0),
            bound_A=5.0,
        ),
        n,
        T,
        0,
    )
    for sigma0, intensity, atoms, n, T in (
        (0.25, 60.0, ((2.0, 0.5), (3.0, 0.5)), 1, 1.0),
        (0.05, 3.0, ((2.0, 0.5), (1.5, 0.5)), 64, 1.37),
    )
]


def scaling_breaks(cfg, n, T, seed) -> list:
    """The (kernel, output, original, doubled) whose doubled value is not 2^s (2^{2s}) times."""
    a, b = simulate_path(cfg, n, T, seed), simulate_path(_doubled(cfg), n, T, seed)
    aug_a, aug_b = augment(a, default_rng(seed)), augment(b, default_rng(seed))
    broken = []

    def check(kernel, name, fn, degree, sd=0.0):
        x, y = fn(a, aug_a), fn(b, aug_b)
        want = 2.0**degree * x
        if not abs(y - want) <= REL_TOL * max(abs(want), 2.0**degree * sd):
            broken.append((kernel.text(), name, x, y))

    for kernel in KERNELS:
        s = sum(kernel.p) + sum(kernel.q)
        if a.window()[1] >= kernel.d:
            check(kernel, "u_stat", lambda p, _: u_stat(p, kernel).value, s)
        if kernel.regime.startswith("Jump"):
            check(kernel, "v_stat", lambda p, _: v_stat(p, kernel).value, s)
            check(kernel, "jump_limit", lambda p, _: jump_limit(Context(p, kernel)).value, s)
        if kernel.regime == "JumpCLT":
            cv = cond_var_jump(Context(a, kernel)).total
            check(kernel, "cond_var_jump", lambda p, _: cond_var_jump(Context(p, kernel)).total, 2 * s)
            check(kernel, "sample_U_jump", lambda p, g: sample_U_jump(Context(p, kernel), g), s, math.sqrt(cv))
        if kernel.regime.startswith("Mixed"):
            check(kernel, "y_stat", lambda p, _: y_stat(p, kernel).value, s)
            check(kernel, "mixed_limit", lambda p, _: mixed_limit(Context(p, kernel)).value, s)
        if kernel.regime == "MixedCLT" and 1 <= kernel.l < kernel.d:
            cv = cond_var_mixed(Context(a, kernel)).total
            check(kernel, "cond_var_mixed", lambda p, _: cond_var_mixed(Context(p, kernel)).total, 2 * s)
            check(
                kernel, "sample_V_mixed",
                lambda p, g: sample_V_mixed(Context(p, kernel), g, field_gen(seed)), s, math.sqrt(cv),
            )
    return broken


def test_the_kernels_cover_every_output():
    regimes = {k.regime for k in KERNELS}
    assert regimes == {"JumpLLN", "JumpCLT", "MixedLLN", "MixedCLT"}
    assert any(k.regime == "MixedCLT" and k.d - k.l == 2 for k in KERNELS)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=scalable_models())
@example(case=FIELD_CASES[0])
@example(case=FIELD_CASES[1])
def test_doubling_every_scale_scales_every_output_by_its_degree(case):
    assert scaling_breaks(*case) == []


def test_doubling_scales_every_output_on_an_itosm_path():
    path = simulate_path(*ITOSM_CASE)
    assert path.clamped and path.n_steps < path.intervals[-1]
    assert len(set(path.intervals.tolist())) < len(path.sizes)
    assert scaling_breaks(*ITOSM_CASE) == []
