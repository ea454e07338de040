"""Extension-space augmentation and limit-law draws."""

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.random import default_rng
from scipy.stats import kstest

from uvstat.kernels import Factor1D, GaussBump, KernelSpec
from uvstat.limits import Context, cond_var_jump, cond_var_mixed, cov_c_matrix, vbar, vtilde
from uvstat.sampler import SamplerError, augment, sample_U_jump, sample_V_mixed, truncated_Z
from uvstat.simulate import (
    AtomList,
    JumpModel,
    ModelConfig,
    Uniform,
    VolatilityModel,
    simulate_path,
    simulate_truth,
)

from test_limits import _fixed_jump_truths, field_gen, synthetic_path, K1, K22, KMIX


def test_augment_empty():
    path = synthetic_path([])
    aug = augment(path, default_rng(1))
    assert len(aug) == 0


def test_augment_deterministic():
    path = synthetic_path([1.0, -0.5])
    a = augment(path, default_rng(7))
    b = augment(path, default_rng(7))
    assert np.array_equal(a.kappa, b.kappa)
    assert np.array_equal(a.r, b.r)
    c = augment(path, default_rng(8))
    assert not np.array_equal(a.r, c.r)


def test_paths_and_augmentations_compare_and_hash_by_identity():
    # their fields are arrays: == and hash() on the fields would raise
    model = TRUTH_MODELS["const"]
    truth, twin = (simulate_truth(model, n=64, T=1.0, seed=5) for _ in range(2))
    path = simulate_path(model, n=64, T=1.0, seed=5)
    aug = augment(synthetic_path([1.0, -0.5]), default_rng(7))
    again = augment(synthetic_path([1.0, -0.5]), default_rng(7))
    for one, other in ((truth, twin), (path, simulate_path(model, n=64, T=1.0, seed=5)), (aug, again)):
        assert one == one and one != other
        assert one in [other, one] and other not in [one]
        assert len({one, other, one}) == 2
    assert np.array_equal(truth.sigma_grid, twin.sigma_grid) and np.array_equal(aug.r, again.r)


def test_augment_r_decomposition_exact():
    path = synthetic_path([1.0, -0.5, 2.0], sigma=1.4)
    aug = augment(path, default_rng(3))
    np.testing.assert_array_equal(aug.r, aug.r_minus + aug.r_plus)
    assert np.all((aug.kappa > 0) & (aug.kappa < 1))


def test_augment_kappa_mean_and_r_variance():
    path = synthetic_path([1.0], sigma=1.3)
    kappas = []
    rs = []
    for seed in range(10_000):
        aug = augment(path, default_rng(seed))
        kappas.append(aug.kappa[0])
        rs.append(aug.r[0])
    assert np.mean(kappas) == pytest.approx(0.5, abs=0.02)
    # E[kappa psi-^2 + (1-kappa) psi+^2] sigma^2 = sigma^2
    assert np.var(rs, ddof=1) == pytest.approx(1.3**2, rel=0.05)


# ---------------------------------------------------------------------------
# jump-case draws
# ---------------------------------------------------------------------------


def test_sample_u_jump_no_jumps():
    path = synthetic_path([])
    aug = augment(path, default_rng(1))
    assert sample_U_jump(Context(path, K1), aug) == 0.0


def test_sample_u_jump_single_jump_formula():
    z = -1.7
    path = synthetic_path([z])
    for seed in range(5):
        aug = augment(path, default_rng(seed))
        draw = sample_U_jump(Context(path, K1), aug)
        expected = 4 * math.copysign(1.0, z) * abs(z) ** 3 * aug.r[0]
        assert draw == pytest.approx(expected, rel=1e-12)


def test_sample_u_jump_centering_and_variance():
    path = synthetic_path([0.8, -1.2, 1.5], sigma=1.1)
    ctx = Context(path, K1)
    draws = np.array([sample_U_jump(ctx, augment(path, default_rng(s))) for s in range(10_000)])
    cv = cond_var_jump(ctx)
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean()) <= 3 * se
    assert draws.var(ddof=1) == pytest.approx(cv.total, rel=0.05)


def test_sample_u_jump_variance_match_d2():
    path = synthetic_path([0.9, -0.6], sigma=0.8)
    ctx = Context(path, K22)
    draws = np.array([sample_U_jump(ctx, augment(path, default_rng(s))) for s in range(10_000)])
    cv = cond_var_jump(ctx)
    assert draws.var(ddof=1) == pytest.approx(cv.total, rel=0.05)


def test_sample_u_jump_conditionally_gaussian():
    path = synthetic_path([1.0, -1.3, 0.6], sigma=1.2)
    ctx = Context(path, K1)
    cv = cond_var_jump(ctx)
    zs = np.array(
        [sample_U_jump(ctx, augment(path, default_rng(s))) for s in range(10_000)]
    ) / math.sqrt(cv.total)
    stat, p = kstest(zs, "norm")
    assert p > 0.01


# ---------------------------------------------------------------------------
# mixed-case draws
# ---------------------------------------------------------------------------


def test_sample_v_mixed_no_jumps():
    path = synthetic_path([])
    aug = augment(path, default_rng(1))
    assert sample_V_mixed(Context(path, KMIX), aug, field_gen(1)) == 0.0


def test_sample_v_mixed_breakdown_and_determinism():
    path = synthetic_path([1.0, -0.7], sigma=1.1)
    aug = augment(path, default_rng(11))
    ctx = Context(path, KMIX)
    d1 = sample_V_mixed(ctx, aug, field_gen(11))
    d2 = sample_V_mixed(ctx, aug, field_gen(11))
    assert d1 == d2
    # the draw is set by the path and the two generators alone: a fresh
    # context and the augmentation drawn again give the same draw, another
    # field generator another one
    d3 = sample_V_mixed(Context(path, KMIX), augment(path, default_rng(11)), field_gen(11))
    assert d3 == d1
    d4 = sample_V_mixed(ctx, aug, default_rng(12345))
    assert d4 != d1


def test_sample_v_mixed_variance_match():
    path = synthetic_path([1.0, -0.7], sigma=1.1)
    ctx = Context(path, KMIX)
    draws = np.array(
        [sample_V_mixed(ctx, augment(path, default_rng(s)), field_gen(s)) for s in range(10_000)]
    )
    cv = cond_var_mixed(ctx)
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean()) <= 3 * se
    assert draws.var(ddof=1) == pytest.approx(cv.total, rel=0.05)


def test_sample_v_mixed_field_switch():
    # with p = 0 the first-block factor is 1, so the field covariance P is
    # exactly 0 and a draw is its jump term alone
    kzero = KernelSpec(d=2, l=1, p=(0.0,), q=(4.0,), regime="MixedCLT")
    path = synthetic_path([1.0, -0.7], sigma=1.1)
    ctx = Context(path, kzero)
    cv = cond_var_mixed(ctx)
    assert cv.field_term == 0.0
    draws = np.array(
        [sample_V_mixed(ctx, augment(path, default_rng(s)), field_gen(s)) for s in range(10_000)]
    )
    assert draws.var(ddof=1) == pytest.approx(cv.jump_term, rel=0.05)


def test_sample_v_mixed_holds_a_material_field_to_the_total():
    # on the first path of the W-redraw gate (Constant sigma0 = 0.5, jumps of
    # +-2) the field is 42% of the conditional variance, so a draw that drops
    # or mis-scales it misses the total by far more than the 5% bound
    _, truth = _fixed_jump_truths(1)[0]
    ctx = Context(truth, KMIX)
    cv = cond_var_mixed(ctx)
    assert cv.field_term >= 0.4 * cv.total
    draws = np.array(
        [
            sample_V_mixed(ctx, augment(truth, default_rng(s)), field_gen(s))
            for s in range(52_000, 62_000)
        ]
    )
    assert draws.var(ddof=1) == pytest.approx(cv.total, rel=0.05)


def _twin_state(seed, normals):
    """The state of default_rng(seed) after it draws the given number of standard normals."""
    twin = default_rng(seed)
    twin.standard_normal(normals)
    return twin.bit_generator.state


def test_sample_v_mixed_reads_one_normal_of_the_field_generator():
    # a nonzero field takes exactly one standard normal from field_gen,
    # however many distinct jump tuples there are; a zero field takes none
    path = synthetic_path([1.0, -0.7, 0.4, 1.3], sigma=1.1)
    kzero = KernelSpec(d=2, l=1, p=(0.0,), q=(4.0,), regime="MixedCLT")
    kmix3 = KernelSpec(d=3, l=1, p=(0.5,), q=(4.0, 4.0), regime="MixedCLT")
    for kernel, normals in ((KMIX, 1), (kmix3, 1), (kzero, 0)):
        gen = default_rng(29)
        sample_V_mixed(Context(path, kernel), augment(path, default_rng(3)), gen)
        assert gen.bit_generator.state == _twin_state(29, normals), kernel.text()


def test_sample_v_mixed_on_many_distinct_sizes_is_finite():
    # 100 distinct sizes give 100^2 distinct jump tuples in the two
    # second-block slots; the field draw enumerates none of them
    sizes = np.linspace(0.5, 1.5, 100) * np.where(np.arange(100) % 2, -1.0, 1.0)
    path = synthetic_path(sizes, sigma=1.0, n=256)
    kmix3 = KernelSpec(d=3, l=1, p=(0.5,), q=(4.0, 4.0), regime="MixedCLT")
    ctx = Context(path, kmix3)
    assert len(set(ctx.sizes.tolist())) == 100
    assert cond_var_mixed(ctx).field_term > 0.0
    assert math.isfinite(sample_V_mixed(ctx, augment(path, default_rng(4)), field_gen(4)))


def test_one_moment_vector_per_distinct_factor(monkeypatch):
    # KMIX integrates |x|^0.5 and, in the field covariance, its square
    # |x|^1: each call evaluates one moment vector per distinct factor, on
    # a fresh kernel (a kernel keeps the moments of a constant grid)
    calls = []
    moment = Factor1D.gaussian_moment_vec

    def counted(self, sigmas):
        calls.append(self)
        return moment(self, sigmas)

    monkeypatch.setattr(Factor1D, "gaussian_moment_vec", counted)
    path = synthetic_path([1.0, -0.7], sigma=1.1)
    cond_var_mixed(Context(path, replace(KMIX)))
    assert sorted(f.power for f in calls) == [0.5, 1.0]
    calls.clear()
    sample_V_mixed(Context(path, replace(KMIX)), augment(path, default_rng(3)), field_gen(3))
    assert sorted(f.power for f in calls) == [0.5, 1.0]


def test_sample_v_mixed_repeated_sizes_share_field_value():
    # two jumps of identical size: only one distinct tuple, one field value
    path = synthetic_path([1.0, 1.0], sigma=1.0)
    ctx = Context(path, KMIX)
    cv = cond_var_mixed(ctx)
    draws = np.array(
        [sample_V_mixed(ctx, augment(path, default_rng(s)), field_gen(s)) for s in range(10_000)]
    )
    assert draws.var(ddof=1) == pytest.approx(cv.total, rel=0.05)


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------


def test_truncated_z_extremes():
    path = synthetic_path([0.5, -1.5, 1.0], sigma=1.0)
    aug = augment(path, default_rng(3))
    full = sample_U_jump(Context(path, K1), aug)
    assert truncated_Z(Context(path, K1), m=3, aug=aug) == pytest.approx(full, rel=1e-12)
    assert truncated_Z(Context(path, K1), m=10, aug=aug) == pytest.approx(full, rel=1e-12)
    assert truncated_Z(Context(path, K1), m=0, aug=aug) == 0.0
    with pytest.raises(SamplerError):
        truncated_Z(Context(path, K1), m=-1, aug=aug)


def test_truncated_z_median_gap_decreases():
    gen = np.random.default_rng(71)
    sizes = gen.uniform(0.5, 2.0, size=20) * np.where(gen.random(20) < 0.5, -1, 1)
    path = synthetic_path(sizes, sigma=1.0, n=256)
    ctx = Context(path, K1)
    gaps = {m: [] for m in (0, 5, 10, 15, 20)}
    for seed in range(500):
        aug = augment(path, default_rng(seed))
        zj = truncated_Z(ctx, m=20, aug=aug)
        for m in gaps:
            gaps[m].append(abs(truncated_Z(ctx, m=m, aug=aug) - zj))
    medians = [np.median(gaps[m]) for m in sorted(gaps)]
    assert all(b <= a for a, b in zip(medians, medians[1:]))
    assert medians[-1] == 0.0


# ---------------------------------------------------------------------------
# pinned bits across the limits and the sampler
# ---------------------------------------------------------------------------


def _layer_bits(path, kmix, kjump, t):
    """float.hex of every conditional variance, covariance, profile and draw."""
    sizes = path.sizes[: path.jump_count(path.window(t)[0])]
    aug = augment(path, default_rng(5))
    e = kmix.d - kmix.l
    ys = [[float(sizes[(i + j) % len(sizes)]) for j in range(e)] for i in range(3)]
    cv = cond_var_mixed(Context(path, kmix, t))
    cj = cond_var_jump(Context(path, kjump, t))
    out = {
        "cond_var_mixed": [cv.total, cv.jump_term, cv.field_term],
        "cov_c_matrix": list(np.ravel(cov_c_matrix(Context(path, kmix, t), ys))),
        "sample_V_mixed": [
            sample_V_mixed(Context(path, kmix, t), aug, field_gen(5)),
            sample_V_mixed(Context(path, kmix, t), aug, default_rng(9)),
        ],
        "vtilde": [vtilde(Context(path, kmix, t), k_idx=k, y=0.8) for k in range(kmix.l + 1, kmix.d + 1)],
        "cond_var_jump": [cj.total, cj.jump_term, cj.field_term],
        "vbar": [vbar(Context(path, kjump, t), k_idx=k, y=-0.6) for k in range(1, kjump.l + 1)],
        "truncated_Z": [truncated_Z(Context(path, kjump, t), m, aug) for m in (1, 3)]
        + [sample_U_jump(Context(path, kjump, t), aug)],
    }
    return {name: [float(v).hex() for v in vals] for name, vals in out.items()}


PINNED_ITOSM = {
    "cond_var_mixed": ["0x1.c467f266649cfp+1", "0x1.8eda99b841f44p+1", "0x1.ac6ac57115459p-2"],
    "cov_c_matrix": [
        "0x1.44be3e918be3dp-31",
        "0x1.ce3da7bd4a2e8p-19",
        "0x1.a5b4b36f94a82p-18",
        "0x1.ce3da7bd4a2e8p-19",
        "0x1.48fa53b61f8dap-6",
        "0x1.2c21068189bf5p-5",
        "0x1.a5b4b36f94a82p-18",
        "0x1.2c21068189bf5p-5",
        "0x1.11cf5bb02c130p-4",
    ],
    "sample_V_mixed": ["-0x1.be06ce4f52ecbp-1", "-0x1.7c52b10875d72p-1"],
    "vtilde": ["0x1.55bf062345039p-1"],
    "cond_var_jump": ["0x1.b835d4d879732p+5", "0x1.b835d4d879732p+5", "0x0.0p+0"],
    "vbar": ["-0x1.ba5e353f7ced8p-1"],
    "truncated_Z": ["-0x1.73d571ad959b9p+2", "0x1.6cc9c5362dba0p-2", "0x1.6d5486facebe0p-2"],
}
PINNED_CONST = {
    "cond_var_mixed": ["0x1.f8fb5461e9fc1p+9", "0x1.f54f65fc1505ap+9", "0x1.d5f732ea7b3a9p+2"],
    "cov_c_matrix": [
        "0x1.d34a8238f3a3cp-12",
        "0x1.e68f0c04486dap-10",
        "0x1.e68f0c04486dap-10",
        "0x1.e68f0c04486dbp-10",
        "0x1.fa9ef7b88b638p-8",
        "0x1.fa9ef7b88b638p-8",
        "0x1.e68f0c04486dbp-10",
        "0x1.fa9ef7b88b638p-8",
        "0x1.fa9ef7b88b638p-8",
    ],
    "sample_V_mixed": ["-0x1.6d12a57c190f0p+4", "-0x1.647889d5c9b79p+4"],
    "vtilde": ["0x1.3375e7efc5ec2p+2", "0x1.3375e7efc5ec2p+2"],
    "cond_var_jump": ["0x1.5eca3f4a03d1fp+14", "0x1.5eca3f4a03d1fp+14", "0x0.0p+0"],
    "vbar": ["-0x1.993132583c091p+2", "-0x1.993132583c091p+2", "-0x1.993132583c091p+2"],
    "truncated_Z": ["-0x1.03e161c070124p+4", "-0x1.821571a7eea1dp+5", "-0x1.7c86d12c762b6p+6"],
}


def test_limits_and_draws_pinned_bits():
    # an ItoSM path with continuous jump sizes, read up to a t off the grid,
    # and a d=3 mixed kernel on a Constant path with repeated sizes; every
    # value is pinned to the last bit
    itosm = simulate_path(
        ModelConfig(
            drift_b=0.1,
            vol=VolatilityModel(kind="ItoSM", sigma0=1.0, tilde_sigma=0.2, tilde_v=0.2),
            jumps=JumpModel(intensity=3.0, size_dist=Uniform(-1.5, 1.5), max_abs=3.0),
            bound_A=10.0,
        ),
        n=64,
        T=1.0,
        seed=4,
    )
    const = simulate_path(
        ModelConfig(
            drift_b=0.0,
            vol=VolatilityModel(kind="Constant", sigma0=1.1),
            jumps=JumpModel(
                intensity=3.0, size_dist=AtomList(((1.0, 0.5), (-0.7, 0.5))), max_abs=3.0
            ),
            bound_A=10.0,
        ),
        n=64,
        T=1.0,
        seed=11,
    )
    assert len(itosm.sizes[: itosm.jump_count(0.7)]) == 4
    assert len(const.sizes) == 5
    kmix2 = KernelSpec(d=2, l=1, p=(0.5,), q=(4.0,), L=GaussBump(0.6, 1), regime="MixedCLT")
    kjump2 = KernelSpec(d=2, l=1, p=(4.0,), q=(0.0,), L=GaussBump(0.8, 1), regime="JumpCLT")
    kmix3 = KernelSpec(d=3, l=1, p=(0.5,), q=(4.0, 4.0), regime="MixedCLT")
    kjump3 = KernelSpec(d=3, l=3, p=(4.0, 4.0, 4.0), regime="JumpCLT")
    assert _layer_bits(itosm, kmix2, kjump2, 0.7) == PINNED_ITOSM
    assert _layer_bits(const, kmix3, kjump3, None) == PINNED_CONST


TRUTH_MODELS = {
    "itosm": ModelConfig(
        drift_b=0.1,
        vol=VolatilityModel(kind="ItoSM", sigma0=1.0, tilde_sigma=0.2, tilde_v=0.2),
        jumps=JumpModel(intensity=3.0, size_dist=Uniform(-1.5, 1.5), max_abs=3.0),
        bound_A=10.0,
    ),
    "const": ModelConfig(
        drift_b=0.0,
        vol=VolatilityModel(kind="Constant", sigma0=1.1),
        jumps=JumpModel(intensity=3.0, size_dist=AtomList(((1.0, 0.5), (-0.7, 0.5))), max_abs=3.0),
        bound_A=10.0,
    ),
}


def test_limits_and_draws_on_the_ground_truth_alone_keep_their_pinned_bits():
    # the paths of test_limits_and_draws_pinned_bits, drawn as ground truth
    # alone: every limit, variance and draw reads the same bits
    itosm = simulate_truth(TRUTH_MODELS["itosm"], n=64, T=1.0, seed=4)
    const = simulate_truth(TRUTH_MODELS["const"], n=64, T=1.0, seed=11)
    kmix2 = KernelSpec(d=2, l=1, p=(0.5,), q=(4.0,), L=GaussBump(0.6, 1), regime="MixedCLT")
    kjump2 = KernelSpec(d=2, l=1, p=(4.0,), q=(0.0,), L=GaussBump(0.8, 1), regime="JumpCLT")
    kmix3 = KernelSpec(d=3, l=1, p=(0.5,), q=(4.0, 4.0), regime="MixedCLT")
    kjump3 = KernelSpec(d=3, l=3, p=(4.0, 4.0, 4.0), regime="JumpCLT")
    assert _layer_bits(itosm, kmix2, kjump2, 0.7) == PINNED_ITOSM
    assert _layer_bits(const, kmix3, kjump3, None) == PINNED_CONST
