"""Limit functionals and conditional variances vs hand values and brute force."""

import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest
from numpy.random import default_rng

import uvstat.simulate
from uvstat.harness import derive_seed
from uvstat.kernels import (
    Factor1D,
    GaussBump,
    GridSin,
    KernelError,
    KernelSpec,
    abs_moment,
    kernel_from_text,
    rho,
    separable_terms,
)
from uvstat.limits import (
    Context,
    cond_var_jump,
    cond_var_mixed,
    cov_c,
    cov_c_matrix,
    jump_limit,
    mixed_limit,
    vbar,
    vtilde,
)
from uvstat.sampler import augment, sample_V_mixed
from uvstat.simulate import (
    AtomList,
    JumpModel,
    ModelConfig,
    SamplePath,
    VolatilityModel,
    simulate_path,
    simulate_truth,
)
from uvstat.stats import y_stat

from oracles import eval_h, partial_h
from test_kernels import catalog_kernels


def synthetic_path(sizes, sigma=1.0, n=64, T=1.0, drift=0.0):
    """A path whose ground truth is exactly the given jumps and constant sigma."""
    cfg = ModelConfig(
        drift_b=drift,
        vol=VolatilityModel(kind="Constant", sigma0=sigma),
        jumps=JumpModel(intensity=1.0, size_dist=AtomList(((1.0, 1.0),)), max_abs=10.0),
        bound_A=20.0,
    )
    sizes = np.array(sizes, dtype=float)
    J = len(sizes)
    N = int(round(n * T))
    times = np.array([(p + 1) * T / (J + 1) for p in range(J)])
    intervals = np.array([int(math.ceil(t * n - 1e-12)) for t in times], dtype=int)
    inc = np.zeros(N)
    for i, size in zip(intervals, sizes):
        inc[i - 1] += size
    x = np.zeros(N + 1)
    x[1:] = np.cumsum(inc)
    return SamplePath(
        T=float(T),
        n=n,
        x_grid=x,
        sigma_grid=np.full(N + 1, sigma),
        w_increments=np.zeros(N),
        times=times,
        sizes=sizes,
        sigma_pre=np.full(J, sigma),
        sigma_post=np.full(J, sigma),
        intervals=intervals,
        seed=0,
        config=cfg,
        w_before_jump=np.zeros(J),
    )


def field_gen(aug_seed: int):
    """The generator of a mixed draw's Gaussian field, keyed to its augmentation seed.

    The pinned draws and the draw gates were recorded with the field
    seeded by this rule: blake2s of f"{aug_seed}:field", its first 8 bytes
    read little-endian.
    """
    digest = hashlib.blake2s(f"{aug_seed}:field".encode()).digest()
    return default_rng(int.from_bytes(digest[:8], "little"))


K1 = KernelSpec(d=1, l=1, p=(4.0,), regime="JumpCLT")
K22 = KernelSpec(d=2, l=2, p=(4.0, 4.0), regime="JumpCLT")
KMIX = KernelSpec(d=2, l=1, p=(0.5,), q=(4.0,), regime="MixedCLT")


# ---------------------------------------------------------------------------
# jump limit
# ---------------------------------------------------------------------------


def test_jump_limit_hand_values():
    path = synthetic_path([1.0, -2.0])
    assert jump_limit(Context(path, K1)).value == pytest.approx(17.0)
    assert jump_limit(Context(path, K22)).value == pytest.approx(289.0)
    empty = synthetic_path([])
    assert jump_limit(Context(empty, K1)).value == 0.0


def test_jump_limit_zero_power_tail():
    # H = |x|^4 on the first coordinate only: limit t^{d-l} sum |z|^4
    k = KernelSpec(d=2, l=1, p=(4.0,), q=(0.0,), regime="JumpLLN")
    path = synthetic_path([1.0, -2.0])
    assert jump_limit(Context(path, k)).value == pytest.approx(17.0)
    # positive q kills the zeroed tail
    kq = KernelSpec(d=2, l=1, p=(4.0,), q=(4.0,), regime="JumpLLN")
    assert jump_limit(Context(path, kq)).value == 0.0


def test_jump_limit_homogeneity():
    path1 = synthetic_path([0.7, -1.1, 0.4])
    c = 1.9
    path2 = synthetic_path([c * 0.7, -c * 1.1, c * 0.4])
    v1 = jump_limit(Context(path1, K22)).value
    v2 = jump_limit(Context(path2, K22)).value
    assert v2 == pytest.approx(abs(c) ** 8 * v1, rel=1e-12)


def test_jump_limit_contribution_table():
    path = synthetic_path([0.5, 1.5, -0.25])
    lv = jump_limit(Context(path, K22))
    assert sum(v for _, v in lv.contributions) == pytest.approx(lv.value, rel=1e-12)
    brute = sum(
        abs(a) ** 4 * abs(b) ** 4 for a in path.sizes for b in path.sizes
    )
    assert lv.value == pytest.approx(brute, rel=1e-12)


# ---------------------------------------------------------------------------
# mixed limit
# ---------------------------------------------------------------------------


def test_mixed_limit_constant_sigma_closed_form():
    sigma = 1.4
    path = synthetic_path([0.8, -1.2], sigma=sigma)
    lv = mixed_limit(Context(path, KMIX))
    closed = 1.0 * abs_moment(0.5) * sigma**0.5 * sum(abs(z) ** 4 for z in (0.8, -1.2))
    assert lv.value == pytest.approx(closed, rel=1e-6)
    assert sum(v for _, v in lv.contributions) == pytest.approx(lv.value, rel=1e-12)


def test_mixed_limit_l0_is_jump_sum():
    path = synthetic_path([0.6, -0.9])
    k0 = KernelSpec(d=2, l=0, q=(4.0, 4.0), regime="JumpLLN")
    kj = KernelSpec(d=2, l=2, p=(4.0, 4.0), regime="JumpCLT")
    assert mixed_limit(Context(path, k0)).value == pytest.approx(
        jump_limit(Context(path, kj)).value, rel=1e-12
    )


def test_mixed_limit_power_variation_target():
    # d = l = 1, H = |x|^p: limit is int_0^t m_p |sigma_u|^p du
    sigma = 0.9
    path = synthetic_path([], sigma=sigma)
    for p in (0.5, 1.0, 1.5):
        k = KernelSpec(d=1, l=1, p=(p,), regime="MixedLLN")
        assert mixed_limit(Context(path, k)).value == pytest.approx(
            abs_moment(p) * sigma**p, rel=1e-12
        )


def test_mixed_limit_stochastic_sigma_riemann():
    # generic path against an independently coded Riemann sum of rho values;
    # KMIX's rho_H(sigma, z) = m_{1/2} sigma^{1/2} |z|^4 is written out from
    # abs_moment, so the sum shares no moment code with the limit
    cfg = ModelConfig(
        drift_b=0.0,
        vol=VolatilityModel(kind="ItoSM", sigma0=1.0, tilde_b=0.0, tilde_sigma=0.3, tilde_v=0.2),
        jumps=JumpModel(intensity=3.0, size_dist=AtomList(((1.0, 0.5), (-1.0, 0.5))), max_abs=2.0),
        bound_A=10.0,
    )
    path = simulate_path(cfg, n=128, T=1.0, seed=5)
    lv = mixed_limit(Context(path, KMIX))
    sizes = path.sizes
    direct = 0.0
    for z in sizes:
        acc = 0.0
        for i in range(path.n):
            acc += abs_moment(0.5) * path.sigma_grid[i] ** 0.5 * abs(z) ** 4 / path.n
        direct += acc
    assert lv.value == pytest.approx(direct, rel=1e-9)


def test_mixed_limit_grid_sin_itosm_pinned_bits():
    # every grid sigma of this path is one Gaussian-moment quadrature per
    # cos/sin factor; the value is pinned to the last bit
    cfg = ModelConfig(
        drift_b=0.0,
        vol=VolatilityModel(kind="ItoSM", sigma0=1.0, tilde_sigma=0.2, tilde_v=0.2),
        jumps=JumpModel(intensity=2.0, size_dist=AtomList(((1.0, 0.5), (-1.0, 0.5))), max_abs=3.0),
        bound_A=10.0,
    )
    k = kernel_from_text("d=2 l=1 p=0.5 q=4.0 regime=MixedLLN L=(grid_sin 1.0 0 1)")
    path = simulate_path(cfg, n=64, T=1.0, seed=4)
    assert len(path.sizes) == 5
    assert mixed_limit(Context(path, k)).value.hex() == "0x1.1ce5e760d4d94p+1"


def test_mixed_limit_gauss_bump_vs_quadrature():
    sigma = 1.1
    kg = KernelSpec(d=2, l=1, p=(0.5,), q=(4.0,), L=GaussBump(0.4, 0), regime="MixedCLT")
    path = synthetic_path([1.3], sigma=sigma)
    lv = mixed_limit(Context(path, kg))
    direct = rho(kg, [sigma], [1.3])  # constant sigma: time integral is t * rho
    assert lv.value == pytest.approx(direct, rel=1e-8)


# ---------------------------------------------------------------------------
# vbar and the jump-case conditional variance
# ---------------------------------------------------------------------------


def test_vbar_single_coordinate():
    path = synthetic_path([2.0])
    # d = l = 1: Vbar_1(y) = dH(y) = 4 sign(y) |y|^3
    assert vbar(Context(path, K1), k_idx=1, y=2.0) == pytest.approx(32.0)
    assert vbar(Context(path, K1), k_idx=1, y=-1.5) == pytest.approx(-4 * 1.5**3)


def test_vbar_against_partial_h_enumeration():
    path = synthetic_path([0.8, -1.3])
    sizes = path.sizes
    y = 0.65
    for k_idx in (1, 2):
        brute = 0.0
        for z in sizes:
            pt = [y, z] if k_idx == 1 else [z, y]
            brute += partial_h(K22, k_idx - 1, pt)
        assert vbar(Context(path, K22), k_idx=k_idx, y=y) == pytest.approx(brute, rel=1e-12)


def test_vbar_index_bounds():
    path = synthetic_path([1.0])
    with pytest.raises(KernelError):
        vbar(Context(path, K1), k_idx=2, y=1.0)


def test_cond_var_jump_hand_value():
    path = synthetic_path([2.0], sigma=1.0)
    cv = cond_var_jump(Context(path, K1))
    assert cv.total == pytest.approx(1024.0)
    assert cv.field_term == 0.0
    assert cv.jump_term == cv.total


def test_cond_var_jump_no_jumps():
    path = synthetic_path([])
    cv = cond_var_jump(Context(path, K1))
    assert cv.total == 0.0


def test_cond_var_jump_two_jumps_brute_force():
    sigma = 1.2
    path = synthetic_path([0.9, -1.4], sigma=sigma)
    sizes = path.sizes
    cv = cond_var_jump(Context(path, K22))
    brute = 0.0
    for z in sizes:
        w = 0.0
        for k_idx in (1, 2):
            for other in sizes:
                pt = [z, other] if k_idx == 1 else [other, z]
                w += partial_h(K22, k_idx - 1, pt)
        brute += 0.5 * w * w * (sigma**2 + sigma**2)
    assert cv.total == pytest.approx(brute, rel=1e-12)


# ---------------------------------------------------------------------------
# Gaussian field covariance
# ---------------------------------------------------------------------------


def test_cov_c_closed_form():
    sigma = 1.0
    path = synthetic_path([1.0], sigma=sigma)
    p, q = 0.5, 4.0
    y1, y2 = 1.3, -0.7
    expected = (abs_moment(2 * p) - abs_moment(p) ** 2) * abs(y1) ** q * abs(y2) ** q
    assert cov_c(Context(path, KMIX), [y1], [y2]) == pytest.approx(expected, rel=1e-6)


def test_cov_c_general_sigma_closed_form():
    sigma = 1.7
    path = synthetic_path([1.0], sigma=sigma)
    p, q = 0.5, 4.0
    y1, y2 = 0.9, 1.1
    expected = (
        (abs_moment(2 * p) - abs_moment(p) ** 2)
        * sigma ** (2 * p)
        * abs(y1) ** q
        * abs(y2) ** q
    )
    assert cov_c(Context(path, KMIX), [y1], [y2]) == pytest.approx(expected, rel=1e-6)


def test_cov_c_symmetry():
    path = synthetic_path([1.0], sigma=1.3)
    gen = np.random.default_rng(3)
    for _ in range(10):
        y1, y2 = gen.uniform(-2, 2, size=2)
        assert cov_c(Context(path, KMIX), [y1], [y2]) == pytest.approx(
            cov_c(Context(path, KMIX), [y2], [y1]), rel=1e-12
        )


def test_cov_c_zero_tuple():
    path = synthetic_path([1.0])
    assert cov_c(Context(path, KMIX), [0.0], [1.0]) == 0.0


def test_field_vector_exact_zero_factor_ends_the_term():
    # |y_1|^4 = 0 at y_1 = 0 and |y_2|^4 = inf at y_2 = 1e100: v(y) is 0, not NaN
    k = KernelSpec(d=3, l=1, p=(0.5,), q=(4.0, 4.0), regime="MixedCLT")
    ctx = Context(synthetic_path([1.0]), k)
    with np.errstate(over="ignore"):
        v = ctx.field_vector([0.0, 1e100])
    assert v.tolist() == [0.0] * len(v)


def test_cov_c_matrix_psd():
    path = synthetic_path([0.5, -1.0, 1.5, 2.0], sigma=1.1)
    ys = [[z] for z in path.sizes]
    M = cov_c_matrix(Context(path, KMIX), ys)
    assert np.allclose(M, M.T, rtol=1e-12)
    eig = np.linalg.eigvalsh(M)
    assert eig.min() >= -1e-8 * np.trace(M)


# ---------------------------------------------------------------------------
# vtilde and the mixed-case conditional variance
# ---------------------------------------------------------------------------


def test_vtilde_closed_form():
    sigma = 1.2
    path = synthetic_path([0.9], sigma=sigma)
    z = 0.9
    expected = abs_moment(0.5) * sigma**0.5 * 4 * abs(z) ** 3 * math.copysign(1.0, z)
    assert vtilde(Context(path, KMIX), k_idx=2, y=z) == pytest.approx(expected, rel=1e-9)
    with pytest.raises(KernelError):
        vtilde(Context(path, KMIX), k_idx=1, y=z)


def test_cond_var_mixed_closed_forms():
    sigma = 1.3
    z = 1.1
    path = synthetic_path([z], sigma=sigma)
    cv = cond_var_mixed(Context(path, KMIX))
    p, q = 0.5, 4.0
    jump_expected = (abs_moment(p) * sigma**p * q * abs(z) ** 3) ** 2 * sigma**2
    field_expected = (
        (abs_moment(2 * p) - abs_moment(p) ** 2) * sigma ** (2 * p) * abs(z) ** (2 * q)
    )
    assert cv.jump_term == pytest.approx(jump_expected, rel=1e-6)
    assert cv.field_term == pytest.approx(field_expected, rel=1e-6)
    assert cv.total == pytest.approx(cv.jump_term + cv.field_term, rel=1e-12)
    assert cv.total >= 0.0


def test_cond_var_mixed_no_jumps():
    path = synthetic_path([])
    cv = cond_var_mixed(Context(path, KMIX))
    assert cv.total == 0.0


def test_cond_var_mixed_field_term_matches_pairwise():
    path = synthetic_path([0.7, -1.2, 0.4], sigma=1.1)
    sizes = path.sizes
    cv = cond_var_mixed(Context(path, KMIX))
    pairwise = 0.0
    for a in sizes:
        for b in sizes:
            pairwise += cov_c(Context(path, KMIX), [a], [b])
    assert cv.field_term == pytest.approx(pairwise, rel=1e-9)


def test_cond_var_mixed_total_nonnegative_random():
    gen = np.random.default_rng(9)
    for trial in range(5):
        sizes = gen.uniform(0.3, 2.0, size=3) * np.where(gen.random(3) < 0.5, -1, 1)
        path = synthetic_path(sizes, sigma=float(gen.uniform(0.5, 2.0)))
        cv = cond_var_mixed(Context(path, KMIX))
        assert cv.total >= 0.0


def test_constant_sigma_closed_forms_across_catalog():
    # for constant sigma the time integral collapses: Y_t = t^l * sum over
    # jump tuples of rho_H(sigma, y); rho is the independent route here
    sigma = 1.2
    sizes = [0.8, -1.1]
    path = synthetic_path(sizes, sigma=sigma)
    for k in catalog_kernels():
        if k.regime not in ("MixedLLN", "MixedCLT") or k.l > 2:
            continue
        lv = mixed_limit(Context(path, k))
        direct = 0.0
        for combo in itertools.product(sizes, repeat=k.d - k.l):
            direct += rho(k, [sigma] * k.l, list(combo))
        assert lv.value == pytest.approx(direct, rel=1e-6), k.text()


# ---------------------------------------------------------------------------
# the factorized contractions against tuple enumeration, across the catalog
# ---------------------------------------------------------------------------


def test_jump_limit_against_eval_h_enumeration_across_catalog():
    sizes = [0.8, -1.3, 0.55]
    path = synthetic_path(sizes, T=0.75, n=64)
    t = 0.75
    for k in catalog_kernels():
        brute = 0.0
        for combo in itertools.product(sizes, repeat=k.l):
            brute += eval_h(k, list(combo) + [0.0] * (k.d - k.l))
        brute *= t ** (k.d - k.l)
        got = jump_limit(Context(path, k)).value
        assert got == pytest.approx(brute, rel=1e-10, abs=1e-12), k.text()


def test_vbar_against_partial_h_enumeration_across_catalog():
    sizes = [0.8, -1.3, 0.55]
    path = synthetic_path(sizes)
    y = -0.65
    checked = 0
    for k in catalog_kernels():
        for k_idx in range(1, k.l + 1):
            brute = 0.0
            for combo in itertools.product(sizes, repeat=k.l - 1):
                first = list(combo)
                first.insert(k_idx - 1, y)
                brute += partial_h(k, k_idx - 1, first + [0.0] * (k.d - k.l))
            got = vbar(Context(path, k), k_idx=k_idx, y=y)
            assert got == pytest.approx(brute, rel=1e-10, abs=1e-12), (k.text(), k_idx)
            checked += 1
    assert checked >= 15


def test_vbar_first_block_power_below_one():
    # d/dx |x|^0.5 = 0.5 sign(x) |x|^-0.5: finite away from 0, undefined at 0
    k = KernelSpec(d=1, l=1, p=(0.5,), regime="JumpCLT")
    path = synthetic_path([0.8, -1.3])
    assert vbar(Context(path, k), y=-0.65) == pytest.approx(partial_h(k, 0, [-0.65]), rel=1e-12)
    with pytest.raises(KernelError, match="not defined at 0"):
        vbar(Context(path, k), y=0.0)


def test_vbar_and_partial_h_agree_at_zero():
    # d/dx |x| = sign(x) has no value at 0: both refuse it; with power 0
    # only the smooth factor is differentiated, which both do at 0
    path = synthetic_path([0.8, -1.3])
    k1 = KernelSpec(d=1, l=1, p=(1.0,), regime="JumpCLT")
    with pytest.raises(KernelError, match="not defined"):
        partial_h(k1, 0, [0.0])
    with pytest.raises(KernelError, match="not defined at 0"):
        vbar(Context(path, k1), y=0.0)
    assert vbar(Context(path, k1), y=-0.65) == partial_h(k1, 0, [-0.65]) == -1.0
    k0 = KernelSpec(d=2, l=2, p=(0.0, 4.0), L=GridSin(1.3, 0, 1), regime="JumpCLT")
    brute = sum(partial_h(k0, 0, [0.0, z]) for z in path.sizes)
    assert brute != 0.0
    assert vbar(Context(path, k0), y=0.0) == pytest.approx(brute, rel=1e-12)


def test_cond_var_jump_power_below_one_brute_force():
    sigma = 0.9
    k = KernelSpec(d=2, l=2, p=(0.5, 1.5), regime="JumpCLT")
    path = synthetic_path([0.8, -1.3, 0.55], sigma=sigma)
    sizes = path.sizes
    brute = 0.0
    for z in sizes:
        w = 0.0
        for k_idx in (1, 2):
            for other in sizes:
                pt = [z, other] if k_idx == 1 else [other, z]
                w += partial_h(k, k_idx - 1, pt)
        brute += 0.5 * w * w * (sigma**2 + sigma**2)
    assert cond_var_jump(Context(path, k)).total == pytest.approx(brute, rel=1e-12)


def test_cond_var_mixed_field_term_pairwise_d3():
    k = next(k for k in catalog_kernels() if (k.d, k.l) == (3, 1))
    path = synthetic_path([0.7, -1.2, 0.4], sigma=1.1)
    tuples = [list(c) for c in itertools.product(path.sizes, repeat=2)]
    pairwise = sum(cov_c(Context(path, k), a, b) for a in tuples for b in tuples)
    assert cond_var_mixed(Context(path, k)).field_term == pytest.approx(pairwise, rel=1e-9)


# ---------------------------------------------------------------------------
# one moment evaluation per factor on a constant sigma grid
# ---------------------------------------------------------------------------


def _catalog_moment_factors():
    """Every factor whose Gaussian moment a limit, variance or draw asks for."""
    factors = set()
    for k in catalog_kernels():
        terms = separable_terms(k)
        for _, fs in terms:
            factors.update(fs)
            factors.update(f for f0 in fs for _, f in f0.derivative())
        first = [fs[i] for _, fs in terms for i in range(k.l)]
        factors.update(fa.mul(fb) for fa in first for fb in first)
    return sorted(factors, key=repr)


@pytest.mark.parametrize("length", [1, 2, 7, 8, 9, 17, 8193])
def test_constant_grid_moment_matches_full_grid_bitwise(length):
    factors = _catalog_moment_factors()
    assert len(factors) > 40
    for sigma in (0.3, 1.0, 1.1, 2.5):
        truth = Context(synthetic_path([], sigma=sigma, n=length), KMIX)
        sigmas, weights = truth.grid
        assert len(sigmas) == length and truth.constant_grid
        for f in factors:
            full = f.gaussian_moment_vec(sigmas)
            vec, integral = truth._evaluate(f)
            assert vec.dtype == full.dtype and vec.tobytes() == full.tobytes(), (f, sigma)
            assert integral.hex() == float(np.dot(weights, full)).hex(), (f, sigma)
            assert truth.integral(f) == integral


@pytest.mark.parametrize("length", [1, 7, 8193])
def test_constant_grid_cov_integral_matches_full_grid_bitwise(length):
    # the field covariance integral on a constant grid, from one value per
    # moment, against the full-grid vectors it stands for
    kernels = [k for k in catalog_kernels() if 1 <= k.l < k.d] + [KM2, KM3]
    for sigma in (0.3, 1.1):
        truth = Context(synthetic_path([], sigma=sigma, n=length), KMIX)
        sigmas, weights = truth.grid
        assert truth.constant_grid
        for k in kernels:
            view = k._compiled
            first = [view.terms[m][1][i] for m, i in view.pairs]
            for a, row in enumerate(view.products):
                for b, fab in enumerate(row, start=a):
                    fa, fb = first[a], first[b]
                    vab, va, vb = (f.gaussian_moment_vec(sigmas) for f in (fab, fa, fb))
                    expected = float(np.dot(weights, vab - va * vb)).hex()
                    assert truth.cov_integral(fa, fb, fab).hex() == expected, (k.text(), a, b)


def test_moment_sigmas_per_call_constant_vs_itosm(monkeypatch):
    # a Constant path evaluates each moment at one sigma, an ItoSM path at
    # every sigma of its grid; each call has a fresh kernel, as a kernel
    # keeps the moments of a constant grid
    lengths = []
    moment = Factor1D.gaussian_moment_vec

    def counted(self, sigmas):
        lengths.append(len(sigmas))
        return moment(self, sigmas)

    monkeypatch.setattr(Factor1D, "gaussian_moment_vec", counted)
    jumps = JumpModel(intensity=3.0, size_dist=AtomList(((1.0, 0.5), (-1.0, 0.5))), max_abs=3.0)
    for vol, expected in (
        (VolatilityModel(kind="Constant", sigma0=1.0), 1),
        (VolatilityModel(kind="ItoSM", sigma0=1.0, tilde_sigma=0.2, tilde_v=0.2), 512),
    ):
        path = simulate_path(ModelConfig(0.0, vol, jumps, 10.0), n=512, T=1.0, seed=2)
        assert len(path.sizes) > 0
        lengths.clear()
        mixed_limit(Context(path, dataclasses.replace(KMIX)))
        cond_var_mixed(Context(path, dataclasses.replace(KMIX)))
        sample_V_mixed(
            Context(path, dataclasses.replace(KMIX)), augment(path, default_rng(1)), field_gen(1)
        )
        assert len(lengths) == 5 and set(lengths) == {expected}, vol.kind


def test_mixed_limit_on_an_empty_grid():
    # t <= 1e-15 leaves no grid step, but a jump at 5e-17 is counted and
    # contributes an exact 0.0
    path = synthetic_path([1.0, -0.7], sigma=1.1)
    path = dataclasses.replace(
        path,
        **{name: np.r_[first, getattr(path, name)] for name, first in (
            ("times", 5e-17), ("sizes", 1.3), ("sigma_pre", 1.1), ("sigma_post", 1.1),
            ("intervals", 1), ("w_before_jump", 0.0))},
    )
    for t in (1e-16, 1e-15):
        truth = Context(path, KMIX, t)
        assert len(truth.grid[0]) == 0 and not truth.constant_grid
        lv = mixed_limit(Context(path, KMIX, t))
        assert lv.value.hex() == "0x0.0p+0" and lv.contributions == (("jump_0", 0.0),)
        cv = cond_var_mixed(Context(path, KMIX, t))
        assert (cv.total, cv.jump_term, cv.field_term) == (0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# one ground truth per path, one compiled view per kernel
# ---------------------------------------------------------------------------

_SHARED_JUMPS = JumpModel(
    intensity=6.0, size_dist=AtomList(((1.0, 0.4), (-0.7, 0.3), (0.5, 0.3))), max_abs=3.0
)
_SHARED_VOLS = (
    VolatilityModel(kind="Constant", sigma0=1.1),
    VolatilityModel(kind="ItoSM", sigma0=1.0, tilde_sigma=0.2, tilde_v=0.2),
)
KM2 = KernelSpec(d=2, l=1, p=(0.5,), q=(4.0,), L=GaussBump(0.6, 1), regime="MixedCLT")
KM3 = kernel_from_text(
    "d=3 l=1 p=0.5 q=4.0,4.0 regime=MixedCLT L=(sum (grid_sin 1.0 1 2) (gauss_bump 0.5 0))"
)
KJ2 = KernelSpec(d=2, l=1, p=(4.0,), q=(0.0,), L=GaussBump(0.8, 1), regime="JumpCLT")


def _shared_truth_paths():
    """(name, path) on Constant and ItoSM volatility: no jumps, jumps, two jumps in one interval."""
    out = []
    for vol in _SHARED_VOLS:
        none = simulate_path(
            ModelConfig(0.05, vol, dataclasses.replace(_SHARED_JUMPS, intensity=0.0), 10.0),
            n=64, T=1.0, seed=1,
        )
        apart = simulate_path(ModelConfig(0.05, vol, _SHARED_JUMPS, 10.0), n=512, T=1.0, seed=2)
        shared = simulate_path(ModelConfig(0.05, vol, _SHARED_JUMPS, 10.0), n=16, T=1.0, seed=0)
        intervals = apart.intervals.tolist()
        assert len(none.times) == 0 and len(apart.times) > 2 and len(set(intervals)) == len(intervals)
        assert shared.intervals.tolist() == [2, 3, 3, 6, 12, 15]
        out += [(f"{vol.kind}-none", none), (f"{vol.kind}-apart", apart), (f"{vol.kind}-shared", shared)]
    return out


def _limit_bits(lv):
    return [lv.value.hex()] + [(name, v.hex()) for name, v in lv.contributions]


def _var_bits(cv):
    return [cv.total.hex(), cv.jump_term.hex(), cv.field_term.hex()]


def test_shared_truth_matches_public_functions_bitwise():
    # run_clt reads each path through one Context: the limit and the
    # variance on it, in either order, give the floats they give on a
    # context of their own
    for name, path in _shared_truth_paths():
        for t in (None, 0.7):
            for k in (KM2, KM3):
                apart = (
                    _limit_bits(mixed_limit(Context(path, k, t))),
                    _var_bits(cond_var_mixed(Context(path, k, t))),
                )
                ctx = Context(path, k, t)
                assert (_limit_bits(mixed_limit(ctx)), _var_bits(cond_var_mixed(ctx))) == apart
                ctx = Context(path, k, t)
                var_first = _var_bits(cond_var_mixed(ctx))
                assert (_limit_bits(mixed_limit(ctx)), var_first) == apart, (name, t, k)
            apart = (
                _limit_bits(jump_limit(Context(path, KJ2, t))),
                _var_bits(cond_var_jump(Context(path, KJ2, t))),
            )
            ctx = Context(path, KJ2, t)
            assert (_limit_bits(jump_limit(ctx)), _var_bits(cond_var_jump(ctx))) == apart


# sample_V_mixed(Context(path, k, t), augment(path, default_rng(3)), default_rng(17)) on the two
# shared-interval paths, whose jumps take three sizes with repeats
PINNED_DRAWS = {
    "Constant": ["-0x1.a17b8edf12772p-2", "-0x1.370b040f9612ep+0", "-0x1.ae61249310017p+2",
                 "-0x1.80fad34b814e8p+2"],
    "ItoSM": ["-0x1.c58dc436f9e70p-4", "-0x1.f06acb0454c1fp-1", "-0x1.232eb52ca2ec4p+2",
              "-0x1.49cb5345c1cc1p+2"],
}


def test_sample_V_mixed_on_repeated_jump_sizes_pinned_bits():
    for name, path in _shared_truth_paths():
        if name.endswith("-shared"):
            assert sorted(set(path.sizes)) == [-0.7, 0.5, 1.0]
            aug = augment(path, default_rng(3))
            draws = [
                sample_V_mixed(Context(path, k, t), aug, default_rng(17))
                for k in (KM2, KM3)
                for t in (None, 0.7)
            ]
            assert [d.hex() for d in draws] == PINNED_DRAWS[name.split("-")[0]]


def test_compiled_view_matches_a_fresh_expansion():
    for k in catalog_kernels() + [KM2, KM3, KJ2]:
        view = k._compiled
        assert view is k._compiled
        fresh = separable_terms(k)
        assert view.terms == tuple((c, tuple(fs)) for c, fs in fresh)
        assert view.derivatives == tuple(tuple(f.derivative() for f in fs) for _, fs in fresh)
        assert view.vbar_slots == ("deriv",) * k.l + (0.0,) * (k.d - k.l)
        assert view.vtilde_slots == ("moment",) * k.l + ("deriv",) * (k.d - k.l)
        pairs = [(m, i) for m in range(len(fresh)) for i in range(k.l)]
        assert view.pairs == tuple(pairs)
        first = [fresh[m][1][i] for m, i in pairs]
        assert view.products == tuple(
            tuple(first[a].mul(first[b]) for b in range(a, len(first))) for a in range(len(first))
        )
        # an equal kernel compiles its own view, equal to this one
        twin = kernel_from_text(k.text())
        assert twin == k and twin._compiled is not view and twin._compiled.terms == view.terms


# ---------------------------------------------------------------------------
# the conditional law on fixed jumps
# ---------------------------------------------------------------------------

# KMIX's field term is about 0.18 k / sigma0^2 times its jump term on k jumps of
# +-2, so sigma0 = 0.5 makes the field material; sigma0 != 1 also lets a wrong
# degree of sigma move the variance
COND_LAW_MODEL = ModelConfig(
    drift_b=0.0,
    vol=VolatilityModel(kind="Constant", sigma0=0.5),
    jumps=JumpModel(intensity=5.0, size_dist=AtomList(((2.0, 0.5), (-2.0, 0.5))), max_abs=3.0),
    bound_A=20.0,
)
COND_LAW_N, COND_LAW_REDRAWS, COND_LAW_BASE_SEED = 8192, 1000, 4101
# 3 paths at 1,000 redraws: the pooled ratio's sampling sd is about sqrt(2 / 2997) = 0.026
COND_LAW_WINDOW = (0.9, 1.1)


def _fixed_jump_truths(count: int, min_jumps: int = 4) -> list:
    """(jump seed, ground truth) of the first count jump seeds whose paths hold min_jumps jumps."""
    found = []
    for k in itertools.count():
        seed = derive_seed(COND_LAW_BASE_SEED, 0, k)
        truth = simulate_truth(COND_LAW_MODEL, COND_LAW_N, 1.0, seed)
        if len(truth.times) >= min_jumps:
            found.append((seed, truth))
            if len(found) == count:
                return found


def _w_redraw(jump_seed: int, w_seed: int) -> SamplePath:
    """The path of jump_seed's jump substream with the W substream of w_seed."""

    def substream(index):
        return uvstat.simulate._substream(
            jump_seed if index == uvstat.simulate._JUMP_STREAM else w_seed, index
        )

    return uvstat.simulate._simulate(
        COND_LAW_MODEL, COND_LAW_N, 1.0, w_seed, observe=True, substream=substream
    )


def test_conditional_variance_matches_w_redraws_on_fixed_jumps():
    # The stable CLT is conditional on F: with Constant volatility that is the
    # jump substream.  Holding it fixed and redrawing W gives sqrt(n)(Y - limit)
    # a fixed mean (the bias) and the variance cond_var_mixed(...).total, of
    # which the Gaussian field is a material share here.
    ratios, detail = [], []
    for j, (jump_seed, truth) in enumerate(_fixed_jump_truths(3)):
        limit = mixed_limit(Context(truth, KMIX)).value
        cv = cond_var_mixed(Context(truth, KMIX))
        errors = []
        for r in range(COND_LAW_REDRAWS):
            path = _w_redraw(jump_seed, derive_seed(COND_LAW_BASE_SEED, 1 + j, r))
            assert np.array_equal(path.times, truth.times) and np.array_equal(path.sizes, truth.sizes)
            errors.append(math.sqrt(COND_LAW_N) * (y_stat(path, KMIX).value - limit))
        ratios.append(float(np.var(errors, ddof=1)) / cv.total)
        detail.append(
            f"{len(truth.times)} jumps, field share {cv.field_term / cv.total:.2f}, "
            f"var / total {ratios[-1]:.3f}"
        )
    pooled = float(np.mean(ratios))
    lo, hi = COND_LAW_WINDOW
    assert lo <= pooled <= hi, f"pooled var / total {pooled:.3f}: " + "; ".join(detail)
