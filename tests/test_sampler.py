"""Extension-space augmentation and limit-law draws."""

import math

import numpy as np
import pytest
from scipy.stats import kstest

from uvstat.kernels import KernelSpec
from uvstat.limits import cond_var_jump, cond_var_mixed
from uvstat.sampler import (
    SamplerError,
    augment,
    field_subseed,
    sample_U_jump,
    sample_V_mixed,
    truncated_Z,
)

from test_limits import synthetic_path, K1, K22, KMIX


def test_augment_empty():
    path = synthetic_path([])
    aug = augment(path, seed=1)
    assert len(aug) == 0


def test_augment_deterministic():
    path = synthetic_path([1.0, -0.5])
    a = augment(path, seed=7)
    b = augment(path, seed=7)
    assert np.array_equal(a.kappa, b.kappa)
    assert np.array_equal(a.r, b.r)
    c = augment(path, seed=8)
    assert not np.array_equal(a.r, c.r)


def test_augment_r_decomposition_exact():
    path = synthetic_path([1.0, -0.5, 2.0], sigma=1.4)
    aug = augment(path, seed=3)
    np.testing.assert_array_equal(aug.r, aug.r_minus + aug.r_plus)
    assert np.all((aug.kappa > 0) & (aug.kappa < 1))


def test_augment_kappa_mean_and_r_variance():
    path = synthetic_path([1.0], sigma=1.3)
    kappas = []
    rs = []
    for seed in range(10_000):
        aug = augment(path, seed=seed)
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
    aug = augment(path, seed=1)
    assert sample_U_jump(path, K1, aug) == 0.0


def test_sample_u_jump_single_jump_formula():
    z = -1.7
    path = synthetic_path([z])
    for seed in range(5):
        aug = augment(path, seed=seed)
        draw = sample_U_jump(path, K1, aug)
        expected = 4 * math.copysign(1.0, z) * abs(z) ** 3 * aug.r[0]
        assert draw == pytest.approx(expected, rel=1e-12)


def test_sample_u_jump_centering_and_variance():
    path = synthetic_path([0.8, -1.2, 1.5], sigma=1.1)
    draws = np.array([sample_U_jump(path, K1, augment(path, seed=s)) for s in range(10_000)])
    cv = cond_var_jump(path, K1)
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean()) <= 3 * se
    assert draws.var(ddof=1) == pytest.approx(cv.total, rel=0.05)


def test_sample_u_jump_variance_match_d2():
    path = synthetic_path([0.9, -0.6], sigma=0.8)
    draws = np.array([sample_U_jump(path, K22, augment(path, seed=s)) for s in range(10_000)])
    cv = cond_var_jump(path, K22)
    assert draws.var(ddof=1) == pytest.approx(cv.total, rel=0.05)


def test_sample_u_jump_conditionally_gaussian():
    path = synthetic_path([1.0, -1.3, 0.6], sigma=1.2)
    cv = cond_var_jump(path, K1)
    zs = np.array(
        [sample_U_jump(path, K1, augment(path, seed=s)) for s in range(10_000)]
    ) / math.sqrt(cv.total)
    stat, p = kstest(zs, "norm")
    assert p > 0.01


# ---------------------------------------------------------------------------
# mixed-case draws
# ---------------------------------------------------------------------------


def test_sample_v_mixed_no_jumps():
    path = synthetic_path([])
    aug = augment(path, seed=1)
    assert sample_V_mixed(path, KMIX, aug) == 0.0


def test_sample_v_mixed_breakdown_and_determinism():
    path = synthetic_path([1.0, -0.7], sigma=1.1)
    aug = augment(path, seed=11)
    d1 = sample_V_mixed(path, KMIX, aug)
    d2 = sample_V_mixed(path, KMIX, aug)
    assert d1 == d2
    # explicit seed overrides the derived field sub-seed
    d3 = sample_V_mixed(path, KMIX, aug, seed=field_subseed(aug.seed))
    assert d3 == d1
    d4 = sample_V_mixed(path, KMIX, aug, seed=12345)
    assert d4 != d1


def test_sample_v_mixed_variance_match():
    path = synthetic_path([1.0, -0.7], sigma=1.1)
    draws = np.array(
        [sample_V_mixed(path, KMIX, augment(path, seed=s)) for s in range(10_000)]
    )
    cv = cond_var_mixed(path, KMIX)
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean()) <= 3 * se
    assert draws.var(ddof=1) == pytest.approx(cv.total, rel=0.05)


def test_sample_v_mixed_field_switch():
    path = synthetic_path([1.0, -0.7], sigma=1.1)
    draws = np.array(
        [
            sample_V_mixed(path, KMIX, augment(path, seed=s), include_field=False)
            for s in range(10_000)
        ]
    )
    cv = cond_var_mixed(path, KMIX)
    assert draws.var(ddof=1) == pytest.approx(cv.jump_term, rel=0.05)


def test_sample_v_mixed_repeated_sizes_share_field_value():
    # two jumps of identical size: only one distinct tuple, one field value
    path = synthetic_path([1.0, 1.0], sigma=1.0)
    cv = cond_var_mixed(path, KMIX)
    draws = np.array(
        [sample_V_mixed(path, KMIX, augment(path, seed=s)) for s in range(10_000)]
    )
    assert draws.var(ddof=1) == pytest.approx(cv.total, rel=0.05)


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------


def test_truncated_z_extremes():
    path = synthetic_path([0.5, -1.5, 1.0], sigma=1.0)
    aug = augment(path, seed=3)
    full = sample_U_jump(path, K1, aug)
    assert truncated_Z(path, K1, m=3, aug=aug) == pytest.approx(full, rel=1e-12)
    assert truncated_Z(path, K1, m=10, aug=aug) == pytest.approx(full, rel=1e-12)
    assert truncated_Z(path, K1, m=0, aug=aug) == 0.0
    with pytest.raises(SamplerError):
        truncated_Z(path, K1, m=-1, aug=aug)


def test_truncated_z_median_gap_decreases():
    gen = np.random.default_rng(71)
    sizes = gen.uniform(0.5, 2.0, size=20) * np.where(gen.random(20) < 0.5, -1, 1)
    path = synthetic_path(sizes, sigma=1.0, n=256)
    gaps = {m: [] for m in (0, 5, 10, 15, 20)}
    for seed in range(500):
        aug = augment(path, seed=seed)
        zj = truncated_Z(path, K1, m=20, aug=aug)
        for m in gaps:
            gaps[m].append(abs(truncated_Z(path, K1, m=m, aug=aug) - zj))
    medians = [np.median(gaps[m]) for m in sorted(gaps)]
    assert all(b <= a for a, b in zip(medians, medians[1:]))
    assert medians[-1] == 0.0
