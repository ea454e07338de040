"""Kernel evaluation, derivatives, Gaussian moments, admissibility."""

import collections
import hashlib
import itertools
import math
import re
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from uvstat.kernels import (
    Factor1D,
    GaussBump,
    GridSin,
    KernelError,
    KernelSpec,
    ONE,
    One,
    PolyEven,
    Product,
    QuadratureError,
    Sum,
    abs_moment,
    check_admissibility,
    grid_test_kernel,
    kernel_from_text,
    kernel_to_text,
    rho,
    separable_terms,
    _exponents,
    _qagie,
)

from oracles import eval_h, moment_integrand, partial_h, rho_mc, val_scalar
from random_kernels import random_kernels


def catalog_kernels():
    """Representative kernels across every regime, used by the property tests."""
    return [
        KernelSpec(d=1, l=1, p=(4.0,), regime="JumpCLT"),
        KernelSpec(d=2, l=2, p=(4.0, 4.0), regime="JumpCLT"),
        KernelSpec(d=2, l=1, p=(4.0,), q=(0.0,), regime="JumpLLN"),
        KernelSpec(d=2, l=1, p=(4.0,), q=(0.0,), L=GaussBump(0.8, 1), regime="JumpCLT"),
        grid_test_kernel(1.0),
        grid_test_kernel(0.7),
        KernelSpec(d=2, l=1, p=(0.5,), q=(4.0,), regime="MixedCLT"),
        KernelSpec(d=2, l=1, p=(0.5,), q=(4.0,), L=GaussBump(0.6, 1), regime="MixedCLT"),
        KernelSpec(d=2, l=1, p=(1.5,), q=(4.0,), regime="MixedLLN"),
        KernelSpec(
            d=2,
            l=1,
            p=(0.5,),
            q=(4.0,),
            L=Sum((ONE, Product((GaussBump(0.5, 0), PolyEven(1, (1.0, 0.25)))))),
            regime="MixedCLT",
        ),
        KernelSpec(d=3, l=3, p=(4.0, 4.0, 4.0), regime="JumpCLT"),
        KernelSpec(d=3, l=1, p=(0.5,), q=(4.0, 4.0), regime="MixedCLT"),
        KernelSpec(d=2, l=2, p=(4.0, 4.0), L=GridSin(1.3, 0, 1), regime="JumpCLT"),
        KernelSpec(
            d=3, l=3, p=(4.0, 4.0, 4.0), L=Product((GridSin(1.0, 0, 1), GridSin(0.8, 1, 2))),
            regime="JumpCLT",
        ),
    ]


# ---------------------------------------------------------------------------
# absolute moments
# ---------------------------------------------------------------------------


def numeric_abs_moment(p):
    val, err = quad(
        lambda x: abs(x) ** p * math.exp(-x * x / 2) / math.sqrt(2 * math.pi),
        -np.inf,
        np.inf,
        epsabs=1e-13,
        epsrel=1e-12,
    )
    assert err < 1e-10
    return val


def test_abs_moment_trivial():
    assert abs_moment(2.0) == pytest.approx(1.0, abs=1e-14)
    assert abs_moment(0.0) == pytest.approx(1.0, abs=1e-14)


def test_abs_moment_against_quadrature():
    # frozen from the quadrature oracle (epsabs 1e-13)
    assert abs_moment(4.0) == pytest.approx(3.0, abs=1e-10)
    assert abs_moment(1.0) == pytest.approx(0.7978845608028654, abs=1e-10)
    assert abs_moment(0.5) == pytest.approx(0.8221789586624589, abs=1e-10)
    for p in [0.3, 1.7, 2.5, 5.0, 7.3]:
        assert abs_moment(p) == pytest.approx(numeric_abs_moment(p), abs=1e-10)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_h_power_kernel():
    k = KernelSpec(d=2, l=2, p=(4.0, 4.0), regime="JumpCLT")
    assert eval_h(k, [1.0, -2.0]) == pytest.approx(16.0)


def test_eval_h_grid_test_kernel():
    gt = grid_test_kernel(1.0)
    # difference on the unit lattice: sin^2(pi * (-1)) = 0
    assert eval_h(gt, [0.5, 1.5]) == pytest.approx(0.0, abs=1e-25)
    # off lattice: sin^2(-pi/2) = 1
    assert eval_h(gt, [0.5, 1.0]) == pytest.approx(0.0625)


def test_eval_h_zero_power_convention():
    # 0^0 = 1 only when the exponent is exactly zero
    k = KernelSpec(d=2, l=1, p=(4.0,), q=(0.0,), regime="JumpLLN")
    assert eval_h(k, [2.0, 0.0]) == pytest.approx(16.0)
    k2 = KernelSpec(d=2, l=1, p=(4.0,), q=(2.5,), regime="MixedLLN")
    assert eval_h(k2, [2.0, 0.0]) == 0.0


def test_eval_h_batch_matches_scalar():
    gen = np.random.default_rng(7)
    for k in catalog_kernels():
        pts = gen.normal(size=(40, k.d))
        batch = eval_h(k, pts)
        for i in range(40):
            assert batch[i] == pytest.approx(eval_h(k, pts[i]), rel=1e-12)


def test_block_symmetry_under_permutation():
    # symmetric kernels are invariant under within-block coordinate swaps
    gen = np.random.default_rng(11)
    k = KernelSpec(d=2, l=2, p=(4.0, 4.0), L=GridSin(1.0, 0, 1), regime="JumpCLT")
    for _ in range(25):
        x = gen.normal(size=2)
        assert eval_h(k, x) == pytest.approx(eval_h(k, x[::-1]), rel=1e-12, abs=1e-15)
    k3 = KernelSpec(d=3, l=3, p=(4.0, 4.0, 4.0), regime="JumpCLT")
    for _ in range(25):
        x = gen.normal(size=3)
        assert eval_h(k3, x) == pytest.approx(eval_h(k3, x[[2, 0, 1]]), rel=1e-12)


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------


def central_diff(k, j, pt, h=1e-5):
    up = np.array(pt, dtype=float)
    dn = np.array(pt, dtype=float)
    up[j] += h
    dn[j] -= h
    return (eval_h(k, up) - eval_h(k, dn)) / (2 * h)


def test_partial_h_simple_values():
    k = KernelSpec(d=1, l=1, p=(4.0,), regime="JumpCLT")
    assert partial_h(k, 0, [2.0]) == pytest.approx(32.0)
    k2 = KernelSpec(d=2, l=0, q=(4.0, 4.0), regime="JumpLLN")
    assert partial_h(k2, 0, [1.0, 1.0]) == pytest.approx(4.0)


def partial_h_kernels():
    """The catalog plus one kernel per smooth-factor shape on two coordinates."""
    exprs = [
        GridSin(1.2, 0, 1),
        GaussBump(0.7, 0),
        PolyEven(1, (1.0, -0.5, 0.25)),
        Sum((GaussBump(0.7, 0), PolyEven(1, (1.0, 0.3)))),
        Product((GaussBump(0.7, 0), GridSin(0.9, 0, 1))),
    ]
    return catalog_kernels() + [
        KernelSpec(d=2, l=1, p=(0.5,), q=(4.0,), L=L, regime="MixedCLT") for L in exprs
    ]


def test_partial_h_matches_finite_differences():
    gen = np.random.default_rng(23)
    for k in partial_h_kernels():
        for _ in range(100):
            pt = gen.uniform(0.3, 1.8, size=k.d) * np.where(gen.random(k.d) < 0.5, -1, 1)
            j = int(gen.integers(k.d))
            exact = partial_h(k, j, pt)
            approx = central_diff(k, j, pt)
            assert exact == pytest.approx(approx, rel=1e-6, abs=1e-7)


def test_partial_h_at_zero():
    k = KernelSpec(d=1, l=1, p=(4.0,), regime="JumpCLT")
    assert partial_h(k, 0, [0.0]) == 0.0
    k_low = KernelSpec(d=1, l=1, p=(0.5,), regime="MixedCLT")
    with pytest.raises(KernelError):
        partial_h(k_low, 0, [0.0])


def test_partial_h_at_zero_with_smooth_factor_on_the_coordinate():
    # power > 1 at x_j = 0: exactly 0, also when a bump or grid_sin sits on x_j
    bump_and_sin = Product((GaussBump(0.3, 0), GridSin(1.3, 1, 0)))
    for L in (GaussBump(0.7, 0), GridSin(0.9, 0, 1), bump_and_sin):
        k = KernelSpec(d=2, l=2, p=(1.5, 4.0), L=L, regime="JumpCLT")
        for y in (-0.8, 0.35, 1.7):
            assert partial_h(k, 0, [0.0, y]) == 0.0
        pts = np.array([[0.0, 0.4], [0.0, -1.2]])
        assert np.all(partial_h(k, 0, pts) == 0.0)


# ---------------------------------------------------------------------------
# separable expansion
# ---------------------------------------------------------------------------


def test_separable_expansion_is_exact():
    gen = np.random.default_rng(31)
    for k in catalog_kernels():
        terms = separable_terms(k)
        pts = gen.normal(size=(30, k.d))
        direct = eval_h(k, pts)
        via_terms = np.zeros(30)
        for coeff, factors in terms:
            prod = np.full(30, coeff)
            for i, f in enumerate(factors):
                prod = prod * f.val(pts[:, i])
            via_terms += prod
        np.testing.assert_allclose(via_terms, direct, rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    beta=st.floats(0.3, 3.0),
    a=st.floats(-2.0, 2.0),
    b=st.floats(-2.0, 2.0),
)
def test_gridsin_rank3_identity(beta, a, b):
    # sin^2(pi(a-b)/beta) = 1/2 - cos cos / 2 - sin sin / 2, exactly
    c = 2 * math.pi / beta
    lhs = math.sin(math.pi * (a - b) / beta) ** 2
    rhs = 0.5 - 0.5 * (math.cos(c * a) * math.cos(c * b) + math.sin(c * a) * math.sin(c * b))
    assert lhs == pytest.approx(rhs, abs=1e-12)


# ---------------------------------------------------------------------------
# rho
# ---------------------------------------------------------------------------


def test_rho_trivial_cases():
    k = KernelSpec(d=1, l=1, p=(2.0,), regime="MixedLLN")
    assert rho(k, [1.0], []) == pytest.approx(1.0, abs=1e-12)
    k0 = KernelSpec(d=2, l=0, q=(4.0, 4.0), regime="JumpLLN")
    assert rho(k0, [], [2.0, 3.0]) == pytest.approx(eval_h(k0, [2.0, 3.0]))


def test_rho_closed_form_vs_quadrature():
    k = KernelSpec(d=2, l=1, p=(0.5,), q=(4.0,), regime="MixedCLT")
    closed = abs_moment(0.5) * 2.0**0.5 * 81.0
    assert rho(k, [2.0], [3.0]) == pytest.approx(closed, rel=1e-8)

    # quadrature route exercised through a smooth factor on the x block
    kq = KernelSpec(d=2, l=1, p=(0.5,), q=(4.0,), L=GaussBump(0.3, 0), regime="MixedCLT")
    sigma, y = 1.3, 2.0
    direct, err = quad(
        lambda u: abs(sigma * u) ** 0.5
        * math.exp(-0.3 * (sigma * u) ** 2)
        * math.exp(-u * u / 2)
        / math.sqrt(2 * math.pi),
        -np.inf,
        np.inf,
        epsabs=1e-13,
    )
    assert rho(kq, [sigma], [y]) == pytest.approx(direct * y**4, rel=1e-8)


def test_rho_scaling_in_sigma():
    k = KernelSpec(d=2, l=2, p=(0.5, 0.7), regime="MixedLLN")
    base = rho(k, [1.0, 1.0], [])
    s = 1.7
    assert rho(k, [s, s], []) == pytest.approx(s ** (0.5 + 0.7) * base, rel=1e-12)


def test_rho_quadrature_vs_monte_carlo():
    for k in [
        KernelSpec(d=2, l=1, p=(0.5,), q=(4.0,), L=GaussBump(0.6, 0), regime="MixedCLT"),
        KernelSpec(d=2, l=2, p=(0.5, 0.5), L=GridSin(1.1, 0, 1), regime="MixedLLN"),
    ]:
        sig = [1.2] * k.l
        y = [1.5] * (k.d - k.l)
        exact = rho(k, sig, y)
        est, se = rho_mc(k, sig, y, n_nodes=150_000)
        assert abs(est - exact) <= 3 * se


def test_rho_exact_zero_second_block_factor_ends_the_term():
    # |y_1|^4 = 0 at y_1 = 0 and |y_2|^4 = inf at y_2 = 1e100: the term is 0, not NaN
    k = KernelSpec(d=3, l=1, p=(0.5,), q=(4.0, 4.0), regime="MixedCLT")
    with np.errstate(over="ignore"):
        assert rho(k, [1.0], [0.0, 1e100]) == 0.0


def test_rho_rejects_bad_sigma():
    k = KernelSpec(d=1, l=1, p=(0.5,), regime="MixedCLT")
    with pytest.raises(KernelError):
        rho(k, [-1.0], [])


# ---------------------------------------------------------------------------
# Gaussian-moment quadrature
# ---------------------------------------------------------------------------

TWO_PI = 2.0 * math.pi
QUAD_SIGMAS = (0.05, 0.3, 1.0, 2.5)
# float.hex of Factor1D._moment_quad at QUAD_SIGMAS, as the integrand built
# from val on 0-d arrays gave them; the generated float copy of val keeps them.
QUAD_PINS = [
    (
        Factor1D(cos_args=(TWO_PI,)),
        ("0x1.e758dba2b5b96p-1", "0x1.5a92659d24385p-3", "0x1.6fb054aa0a8d8p-29", "0x1.35e0000000000p-55"),
    ),
    (
        Factor1D(power=0.5, cos_args=(TWO_PI,)),
        ("0x1.5d6e88baf86f4p-3", "-0x1.483e1868d5c56p-5", "-0x1.11e431a78531cp-5", "-0x1.a35360040c5a3p-7"),
    ),
    (
        Factor1D(power=4.0, sign_pow=1, sin_args=(TWO_PI / 0.7,)),
        ("0x1.e9104efaa9cf8p-17", "-0x1.dd7e495099864p-9", "0x1.a68f9b4de2788p-12", "0x1.1c251beffe000p-13"),
    ),
    (
        Factor1D(power=-0.5, sign_pow=1, sin_args=(TWO_PI,)),
        ("0x1.208a9fc6dced5p+0", "0x1.5b1938b93dba3p+0", "0x1.9ca3a742b176ap-2", "0x1.47508fa96fc03p-3"),
    ),
    (
        Factor1D(power=1.5, cos_args=(TWO_PI,), gauss_args=(0.5,)),
        ("0x1.14d7e0b43b1fep-7", "-0x1.82889403e2474p-5", "-0x1.55b66ec5484cbp-7", "-0x1.cd0fc7b43f380p-9"),
    ),
    (
        Factor1D(power=4.0, cos_args=(TWO_PI / 1.3,), poly2=(1.0, 0.25)),
        ("0x1.0ef92f174e716p-16", "-0x1.0885cd4c12d4cp-6", "-0x1.12c4e0f7a72c0p-7", "-0x1.2000000000000p-45"),
    ),
]


def test_moment_quad_pinned_bits():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # full_output: QUADPACK's notes never warn
        for f, pins in QUAD_PINS:
            got = tuple(f._moment_quad(s).hex() for s in QUAD_SIGMAS)
            assert got == pins, repr(f)


def test_moment_vec_runs_one_quadrature_per_distinct_sigma(monkeypatch):
    # a volatility clamped at its floor repeats a sigma on the grid
    f = QUAD_PINS[1][0]
    sigmas = np.array([[0.3, 1e-3, 1.0], [1e-3, 0.3, 1e-3]])
    expected = [f._moment_quad(s).hex() for s in sigmas.ravel()]
    calls = []
    quad_one = Factor1D._moment_quad

    def counted(self, sigma):
        calls.append(sigma)
        return quad_one(self, sigma)

    monkeypatch.setattr(Factor1D, "_moment_quad", counted)
    got = f.gaussian_moment_vec(sigmas)
    assert sorted(calls) == [1e-3, 0.3, 1.0]
    assert got.shape == sigmas.shape
    assert [v.hex() for v in got.ravel().tolist()] == expected


def _catalog_factors():
    out = set()
    for k in catalog_kernels():
        for _, factors in separable_terms(k):
            for f in factors:
                out.add(f)
                out.update(d for _, d in f.derivative())
    return sorted(out, key=repr)


def test_val_scalar_matches_val_bitwise():
    # plus the pinned factors, a three-coefficient polynomial (Horner's
    # order) and |x|^-0.5, which val sends to inf at +-0 where ** raises
    factors = _catalog_factors() + [f for f, _ in QUAD_PINS]
    factors.append(Factor1D(power=2.0, cos_args=(TWO_PI,), poly2=(1.0, -0.5, 0.125)))
    factors.append(Factor1D(power=-0.5))
    assert len(factors) >= 40
    tiny = (5e-324, 2.2250738585072014e-308, 1e-300, 1e-160, 1e-20)
    special = [0.0, -0.0] + [s * t for t in tiny for s in (1.0, -1.0)]
    # 10^5 normal points across scales 0.05..50, dealt out over the factors:
    # val on a 0-d array costs ~5 us, too slow for every factor at every point
    gen = np.random.default_rng(20151)
    per = -(-100_000 // len(factors))
    scales = np.exp(gen.uniform(math.log(0.05), math.log(50.0), size=(len(factors), per)))
    points = scales * gen.standard_normal((len(factors), per))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # val's 0 ** -0.5 = inf
        for f, row in zip(factors, points):
            for x in special + row.tolist():
                assert f._val_scalar(x).hex() == f.val(x).hex(), (repr(f), x)


# the bare sign (val's leading 1.0 makes it a float), then constants with no
# short literal: a subnormal frequency, -0.0 polynomial coefficients, 1e308
# and a zero Gaussian exponent whose negation is -0.0
ODD_CONSTANT_FACTORS = [
    Factor1D(sign_pow=1),
    Factor1D(cos_args=(5e-324,)),
    Factor1D(power=1.5, sin_args=(2.2250738585072014e-308, 1.0)),
    Factor1D(poly2=(-0.0, 1.0)),
    Factor1D(power=2.0, sign_pow=1, poly2=(1.0, -0.0, 0.5)),
    Factor1D(gauss_args=(1e308,)),
    Factor1D(power=3.0, cos_args=(1e308,), poly2=(1e308, 1e308)),
    Factor1D(power=-0.5, sign_pow=1, cos_args=(1e-300,), gauss_args=(0.0,)),
]


def _outcome(fn, *args):
    """float.hex of fn(*args), or the name of the exception it raises."""
    try:
        return fn(*args).hex()
    except (ArithmeticError, ValueError) as exc:  # pow's overflow, cos of inf
        return type(exc).__name__


def test_generated_steps_match_the_loop_oracle_bitwise():
    factors = _catalog_factors() + [f for f, _ in QUAD_PINS] + ODD_CONSTANT_FACTORS
    tiny = (5e-324, 2.2250738585072014e-308, 1e-300, 1e-160)
    points = [0.0, -0.0] + [s * t for t in tiny + (0.3, 2.0, 40.0, 1e200) for s in (1.0, -1.0)]
    sigmas = (5e-324, 0.05, 0.93, 2.5)
    us = (0.0, 1e-300, 0.2, 1.7, 6.0, 40.0, 1e10)
    for f in factors:
        for x in points:
            got = _outcome(f._val_scalar, x)
            assert got == _outcome(val_scalar, f, x), (repr(f), x)
            # the rest are the test above's; math.cos raises where np.cos gives nan
            if abs(x) <= 40.0 and f in ODD_CONSTANT_FACTORS and got != "ValueError":
                with np.errstate(all="ignore"):  # val's 0 ** -0.5 = inf
                    assert got == _outcome(f.val, x), (repr(f), x)
        for sigma in sigmas:
            integrand, oracle = f._steps["_integrand"](sigma), moment_integrand(f, sigma)
            for u in us:
                assert _outcome(integrand, u) == _outcome(oracle, u), (repr(f), sigma, u)


def test_compiled_steps_leave_equality_and_hash_alone(monkeypatch):
    # a Context's moment table keys on factors: a compiled factor must find its twin's entry
    f, twin = Factor1D(power=0.5, cos_args=(TWO_PI,)), Factor1D(power=0.5, cos_args=(TWO_PI,))
    before = (hash(f), repr(f))
    table = {twin: "moment"}
    sources = []
    step_source = Factor1D._step_source

    def counted(self):
        sources.append(self)
        return step_source(self)

    monkeypatch.setattr(Factor1D, "_step_source", counted)
    f._val_scalar(0.3)
    for sigma in QUAD_SIGMAS:
        f._moment_quad(sigma)
    assert len(sources) == 1 and sources[0] is f  # compiled once, on first use
    assert "_steps" in vars(f) and "_steps" not in vars(twin)
    assert (hash(f), repr(f)) == before
    assert f == twin and hash(f) == hash(twin)
    assert table[f] == "moment"


def test_moment_quad_failure_is_a_clean_quadrature_error():
    f = Factor1D(power=4.0, cos_args=(50.0,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError) as info:
            f._moment_quad(5.0)
    assert info.value.achieved > 1e-8
    text = str(info.value)
    assert "\n" not in text
    assert "cos_args=(50.0,)" in text
    assert re.search(r"at sigma=5\.0 \(\w.+\)$", text)  # QUADPACK's own note


def test_moment_quad_overflowing_frequency_is_a_quadrature_error():
    # c sigma u overflows to inf inside QUADPACK, where math.cos raises
    f = Factor1D(power=4.0, cos_args=(6.28e305,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError) as info:
            f._moment_quad(1.0)
    assert not isinstance(info.value, ValueError)
    text = str(info.value)
    assert "\n" not in text
    assert "cos_args=(6.28e+305,)" in text and text.endswith("(math domain error)")


def _quad_reference(f, sigma):
    """scipy.integrate.quad on the factor's moment integrand with _moment_quad's tolerances."""
    return quad(
        f._steps["_integrand"](sigma), 0.0, np.inf,
        epsabs=1e-13, epsrel=1e-11, limit=400, full_output=1,
    )


# the factor shapes of the oracle grid, at power p and cos/sin frequency c
ORACLE_SHAPES = (
    lambda p, c: Factor1D(power=p, cos_args=(c,)),
    lambda p, c: Factor1D(power=p, sign_pow=1, sin_args=(c,)),
    lambda p, c: Factor1D(power=p, cos_args=(c,), gauss_args=(0.5,)),
    lambda p, c: Factor1D(power=p, cos_args=(c,), poly2=(1.0, 0.25)),
    lambda p, c: Factor1D(power=p, cos_args=(c, c), sin_args=(c,), poly2=(0.5, -0.25, 1.0)),
)


def test_loaded_qagie_matches_scipy_quad_bit_for_bit():
    # _qagie is QUADPACK's QAGIE from scipy's extension, called as quad calls it
    rng = np.random.default_rng(20281)
    qagie = _qagie()
    for _ in range(60):
        shape = ORACLE_SHAPES[rng.integers(len(ORACLE_SHAPES))]
        power = float(rng.choice([-0.5, 0.0, 0.5, 1.0, 2.5, 4.0]))
        f = shape(power, float(rng.uniform(0.1, 4.0 * math.pi)))
        sigma = float(np.exp(rng.uniform(math.log(0.05), math.log(3.0))))
        val, err, _, ier = qagie(f._steps["_integrand"](sigma), 0.0, 1, (), 1, 1e-13, 1e-11, 400)
        ref = _quad_reference(f, sigma)
        assert (val.hex(), err.hex()) == (ref[0].hex(), ref[1].hex()), (f, sigma)
        assert (ier == 0) == (len(ref) == 3), (f, sigma, ier)


def test_missing_quadpack_extension_is_an_import_error_naming_the_directory(monkeypatch, tmp_path):
    import scipy

    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    _qagie.cache_clear()
    try:
        with pytest.raises(ImportError, match=re.escape(str(tmp_path / "integrate"))):
            _qagie()
    finally:
        _qagie.cache_clear()


@pytest.mark.parametrize(
    "factor",
    [Factor1D(power=4.0, cos_args=(50.0,)), Factor1D(power=0.5, cos_args=(TWO_PI / 0.125,))],
    ids=["cos50", "grid_sin_0.125"],
)
def test_moment_quad_failure_carries_the_note_of_scipy_quad(factor):
    # the two factors whose quadrature fails at sigma = 5: the (grid_sin 0.125 0 1)
    # factor is |x|^0.5 cos(16 pi x)
    with pytest.raises(QuadratureError) as info:
        factor._moment_quad(5.0)
    *_, note = _quad_reference(factor, 5.0)
    assert str(info.value).endswith(f" ({' '.join(note.split())})")


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


def test_admissibility_jump_clt_power_kernel():
    k = KernelSpec(d=1, l=1, p=(4.0,), regime="JumpCLT")
    assert check_admissibility(k).passed


def test_admissibility_grid_test():
    # l = d means any C^{d+1} smooth factor qualifies
    assert check_admissibility(grid_test_kernel(1.0)).passed


def test_admissibility_mixed_clt_power_too_big():
    k = KernelSpec(d=1, l=1, p=(1.5,), regime="MixedCLT")
    rep = check_admissibility(k)
    assert not rep.passed
    assert any("(0, 1)" in it.detail for it in rep.items if not it.passed)


def test_admissibility_jump_clt_rejects_small_powers():
    k = KernelSpec(d=2, l=2, p=(2.0, 4.0), regime="JumpCLT")
    assert not check_admissibility(k).passed


def test_admissibility_alln_numeric():
    good = KernelSpec(d=2, l=1, p=(4.0,), q=(0.0,), regime="JumpLLN")
    assert check_admissibility(good).passed
    # p = 2 exactly violates the small-x condition
    bad = KernelSpec(d=2, l=1, p=(2.0,), q=(0.0,), regime="JumpLLN")
    assert not check_admissibility(bad).passed


def test_admissibility_smooth_class_y_dependence():
    # gaussian bump on a zero-power y coordinate: derivative vanishes at y=0
    ok = KernelSpec(d=2, l=1, p=(4.0,), q=(0.0,), L=GaussBump(0.8, 1), regime="JumpCLT")
    assert check_admissibility(ok).passed
    # grid_sin spanning the block split: d_y sin^2(pi(x-y)/beta) does not vanish
    bad = KernelSpec(d=2, l=1, p=(4.0,), q=(0.0,), L=GridSin(1.0, 0, 1), regime="JumpCLT")
    assert not check_admissibility(bad).passed


def test_admissibility_mixed_clt_evenness():
    bad = KernelSpec(d=2, l=1, p=(0.5,), q=(4.0,), L=GridSin(1.0, 0, 1), regime="MixedCLT")
    rep = check_admissibility(bad)
    assert any(it.name == "even_in_scaled_block" and not it.passed for it in rep.items)


def test_admissibility_growth_exponent():
    # an even polynomial on the scaled block, with no Gaussian bump, is unbounded
    bad = KernelSpec(
        d=2, l=1, p=(0.5,), q=(4.0,), L=PolyEven(0, (1.0, 1.0)), regime="MixedCLT"
    )
    rep = check_admissibility(bad)
    assert not rep.passed
    # on the jump block it is harmless
    ok = KernelSpec(d=2, l=1, p=(0.5,), q=(4.0,), L=PolyEven(1, (1.0, 1.0)), regime="MixedCLT")
    assert check_admissibility(ok).passed


def test_admissibility_composition_flagged():
    k = KernelSpec(
        d=2,
        l=1,
        p=(0.5,),
        q=(4.0,),
        L=Product((GaussBump(0.5, 0), GaussBump(0.5, 1))),
        regime="MixedCLT",
    )
    assert check_admissibility(k).passed


_JUMP_ITEMS = ("powers_p", "powers_q", "smooth_class_membership")
_MIXED_CLT_ITEMS = ("powers_p", "powers_q", "even_in_scaled_block", "smooth_factor_bounded")
_REGIME_ITEMS = {
    "JumpLLN": ("lln_small_x_condition",),
    "JumpCLT": _JUMP_ITEMS,
    "GridTest": _JUMP_ITEMS + ("grid_test_shape",),
    "MixedLLN": ("powers_p", "powers_q", "smooth_factor_bounded"),
    "MixedCLT": _MIXED_CLT_ITEMS,
}


def test_admissibility_catalog_items_pinned():
    # every catalog kernel passes every item of its regime
    for k in catalog_kernels():
        rep = check_admissibility(k)
        assert [(it.name, it.passed) for it in rep.items] == [
            (n, True) for n in _REGIME_ITEMS[k.regime]
        ]


_NESTED_VERDICTS = [
    # grid_sin across the block split inside a product
    (
        "d=2 l=1 p=0.5 q=4.0 regime=MixedCLT L=(product (grid_sin 1.0 0 1) (gauss_bump 0.5 1))",
        {"even_in_scaled_block"},
    ),
    (
        "d=2 l=1 p=4.0 q=0.0 regime=JumpCLT L=(product (gauss_bump 0.5 0) (grid_sin 1.0 1 0))",
        {"smooth_class_membership"},
    ),
    (
        "d=3 l=2 p=1.5,1.5 q=4.0 regime=MixedLLN "
        "L=(product (grid_sin 0.7 0 2) (poly_even 2 1.0 0.5))",
        set(),
    ),
    # poly_even on the scaled block times gauss_bump: bounded on that coordinate
    ("d=2 l=1 p=0.5 q=4.0 regime=MixedCLT L=(product (poly_even 0 1.0 0.5) (gauss_bump 0.5 0))", set()),
    (
        "d=2 l=1 p=1.5 q=4.0 regime=MixedLLN "
        "L=(product (gauss_bump 0.5 0) (poly_even 0 0.0 0.0 2.0))",
        set(),
    ),
    # ... but not when the bump sits on another coordinate
    (
        "d=2 l=1 p=0.5 q=4.0 regime=MixedCLT "
        "L=(sum one (product (poly_even 0 1.0 1.0) (gauss_bump 0.3 1)))",
        {"smooth_factor_bounded"},
    ),
    # sums of grid_sins
    ("d=3 l=3 p=4.0,4.0,4.0 q=- regime=JumpCLT L=(sum (grid_sin 1.0 0 1) (grid_sin 0.7 1 2))", set()),
    ("d=2 l=2 p=4.0,4.0 q=- regime=GridTest L=(sum (grid_sin 1.0 0 1) (grid_sin 0.5 1 0))", set()),
    ("d=3 l=1 p=0.5 q=4.0,4.0 regime=MixedCLT L=(sum (grid_sin 1.0 1 2) (grid_sin 0.8 2 1))", set()),
    (
        "d=3 l=1 p=0.5 q=4.0,4.0 regime=MixedCLT L=(sum (grid_sin 1.0 1 2) (grid_sin 0.8 0 2))",
        {"even_in_scaled_block"},
    ),
]
@pytest.mark.parametrize("text, failing", _NESTED_VERDICTS, ids=range(len(_NESTED_VERDICTS)))
def test_admissibility_nested_items_pinned(text, failing):
    k = kernel_from_text(text)
    rep = check_admissibility(k)
    expected = [(n, n not in failing) for n in _REGIME_ITEMS[k.regime]]
    assert [(it.name, it.passed) for it in rep.items] == expected
    assert rep.passed == (not failing)


def test_admissibility_zero_polynomial_is_bounded():
    # the all-zero polynomial makes L = 0 on the scaled block: bounded, no growth
    k = kernel_from_text(
        "d=2 l=1 p=0.5 q=4.0 regime=MixedCLT L=(product (poly_even 0 0.0) (poly_even 0 1.0 1.0))"
    )
    rep = check_admissibility(k)
    assert rep.passed
    assert [it.name for it in rep.items] == list(_MIXED_CLT_ITEMS)


def test_admissibility_gaussian_bounded_polynomial():
    # (1 + x^2/2) exp(-x^2/2) on the scaled coordinate is bounded with bounded
    # derivatives; a bump with c = 0, or one on the other coordinate, bounds nothing
    def bounded(L):
        k = kernel_from_text(f"d=2 l=1 p=0.5 q=4.0 regime=MixedCLT L={L}")
        return {it.name: it.passed for it in check_admissibility(k).items}["smooth_factor_bounded"]

    assert bounded("(product (poly_even 0 1.0 0.5) (gauss_bump 0.5 0))")
    assert bounded("(product (gauss_bump 0.0 0) (poly_even 0 1.0 0.5) (gauss_bump 1e-3 0))")
    assert not bounded("(product (poly_even 0 1.0 0.5) (gauss_bump 0.0 0))")
    assert not bounded("(product (poly_even 0 1.0 0.5) (gauss_bump 0.5 1))")
    assert not bounded("(sum (gauss_bump 0.5 0) (poly_even 0 1.0 0.5))")


def test_admissibility_alln_margin_below_the_old_probe_resolution():
    # |x|^2.05 / |x|^2 -> 0 however slowly; p = 2 leaves the ratio at 1
    def alln(p):
        k = kernel_from_text(f"d=1 l=1 p={p} q=- regime=JumpLLN L=one")
        return check_admissibility(k).items[0]

    assert alln(2.05).passed and alln(2.0001).passed
    assert not alln(2.0).passed
    assert alln(2.0).detail.endswith("= 0: x^(0,) does not vanish")


@pytest.mark.parametrize(
    "text, alpha",
    [
        # L = x^2 in two spellings: H / x^2 = 1 at p = 0
        ("d=1 l=1 p=0.0 q=- regime=JumpLLN L=(poly_even 0 0.0 1.0)", (2,)),
        ("d=1 l=1 p=0.0 q=- regime=JumpLLN L=(sum one (poly_even 0 -1.0 1.0))", (2,)),
        # x_2^2 survives 1 + (-1 + x_2^2 + x_2^4 / 2), and 2 <= 2l - sum(p) = 3.5
        (
            "d=3 l=3 p=1.5,0.5,0.5 q=- regime=JumpLLN "
            "L=(sum one (grid_sin 0.5 0 1) (poly_even 2 -1.0 1.0 0.5))",
            (0, 0, 2),
        ),
    ],
)
def test_admissibility_alln_sees_through_cancelling_spellings(text, alpha):
    item = check_admissibility(kernel_from_text(text)).items[0]
    assert item.name == "lln_small_x_condition"
    assert not item.passed
    assert item.detail.endswith(f": x^{alpha} does not vanish")


def test_admissibility_alln_reads_the_order_of_l_at_zero():
    # x^2 exp(-0.3 x^2) has no term of degree <= 2l - sum(p) = 1.5
    ok = kernel_from_text(
        "d=1 l=1 p=0.5 q=- regime=JumpLLN L=(product (poly_even 0 0.0 1.0) (gauss_bump 0.3 0))"
    )
    assert check_admissibility(ok).passed
    # across the split, sin^2(pi (x - y)) keeps the constant term sin^2(pi y)
    bad = kernel_from_text("d=2 l=1 p=0.5 q=0.0 regime=JumpLLN L=(grid_sin 1.0 0 1)")
    assert not check_admissibility(bad).passed
    # on x alone, grid_sin's constant and linear terms cancel exactly
    # (1/2 - 1/2 * 1 * 1 - 1/2 * 0 * 0 = 0): pi^2 (x_0 - x_1)^2 is the first
    two = kernel_from_text("d=2 l=2 p=0.0,0.0 q=- regime=JumpLLN L=(grid_sin 1.0 0 1)")
    assert not check_admissibility(two).passed
    four = kernel_from_text("d=2 l=2 p=1.0,1.5 q=- regime=JumpLLN L=(grid_sin 1.0 0 1)")
    assert check_admissibility(four).passed


def test_admissibility_smooth_class_reads_degree_one_in_y():
    def smooth(q, L):
        k = kernel_from_text(f"d=2 l=1 p=4.0 q={q} regime=JumpCLT L={L}")
        return {it.name: it.passed for it in check_admissibility(k).items}["smooth_class_membership"]

    # an even factor in y has no linear term; |y|^q with q in (0, 1) blows up
    assert smooth(0.0, "(poly_even 1 1.0 2.0)")
    assert not smooth(0.5, "one")
    assert smooth(0.5, "(poly_even 1 0.0 1.0)")
    # a linear term in y, through grid_sin across the split, matters only for sum(q) <= 0
    assert not smooth(0.0, "(grid_sin 1.0 0 1)")
    assert smooth(2.0, "(grid_sin 1.0 0 1)")
    # ... and not at all when it cancels: s + s - 2 s for s = sin^2(pi (x - y))
    twice = "(product (grid_sin 1.0 0 1) (poly_even 0 -2.0))"
    assert smooth(0.0, f"(sum (grid_sin 1.0 0 1) (grid_sin 1.0 1 0) {twice})")


def test_admissibility_verdicts_ignore_the_spelling_of_one():
    # 1 + (-1) and exp(-0 x^2) are ones; no item may tell them from nothing
    for k in random_kernels():
        expected = [(it.name, it.passed) for it in check_admissibility(k).items]
        for i in range(k.d):
            for L in (Sum((k.L, ONE, PolyEven(i, (-1.0,)))), Product((k.L, GaussBump(0.0, i)))):
                respelled = check_admissibility(replace(k, L=L))
                assert [(it.name, it.passed) for it in respelled.items] == expected, (k.text(), L)


# sha256 over "<kernel text> -> <item>=ok|FAIL ..." lines of random_kernels()
_RANDOM_VERDICTS_SHA256 = "a21947a7a012e83ef4cacac3b154af48b43412d42fb86eba37db4265c1e8f114"
_RANDOM_VERDICT_COUNTS = {
    ("lln_small_x_condition", True): 287,
    ("lln_small_x_condition", False): 129,
    ("smooth_class_membership", True): 703,
    ("smooth_class_membership", False): 119,
    ("report", True): 417,
    ("report", False): 1583,
}


def test_admissibility_random_kernel_verdicts_pinned():
    lines = []
    counts = collections.Counter()
    for k in random_kernels():
        rep = check_admissibility(k)
        verdicts = " ".join(f"{it.name}={'ok' if it.passed else 'FAIL'}" for it in rep.items)
        lines.append(f"{k.text()} -> {verdicts}")
        for it in rep.items:
            if it.name in ("lln_small_x_condition", "smooth_class_membership"):
                counts[it.name, it.passed] += 1
        counts["report", rep.passed] += 1
    assert dict(counts) == _RANDOM_VERDICT_COUNTS
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == _RANDOM_VERDICTS_SHA256


def test_admissibility_alln_stops_at_the_lowest_nonvanishing_coefficient():
    # degree <= 2l - sum(p) = 24 in 12 coordinates is a box of 25^12 exponents;
    # the walk reads the constant term first, and it does not vanish
    k = kernel_from_text("d=12 l=12 p=0,0,0,0,0,0,0,0,0,0,0,0 q=- regime=JumpLLN L=one")
    item = check_admissibility(k).items[0]
    assert not item.passed
    assert item.detail.endswith(": x^(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0) does not vanish")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exponents_walk_by_degree_then_in_increasing_order(n):
    box = [alpha for alpha in itertools.product(range(6), repeat=n) if sum(alpha) <= 5]
    assert list(_exponents([range(6)] * n, 5)) == sorted(box, key=lambda alpha: (sum(alpha), alpha))
    # each coordinate restricted to its own degrees, the order kept
    degrees = [[0, 2, 3], [1, 4], [0, 5], [2]][:n]
    kept = [alpha for alpha in box if all(k in ds for k, ds in zip(alpha, degrees))]
    assert list(_exponents(degrees, 5)) == sorted(kept, key=lambda alpha: (sum(alpha), alpha))


def test_admissibility_walks_only_the_degrees_each_coordinate_carries():
    # each x_i^2 is the one degree coordinate i carries: one alpha, not the box of 19^9
    factors = " ".join(f"(poly_even {i} 0.0 1.0)" for i in range(9))
    k = kernel_from_text(f"d=9 l=9 p={','.join(['0'] * 9)} q=- regime=JumpLLN L=(product {factors})")
    start = time.perf_counter()
    item = check_admissibility(k).items[0]
    assert time.perf_counter() - start < 1.0
    assert item.detail.endswith(": x^(2, 2, 2, 2, 2, 2, 2, 2, 2) does not vanish")


def test_admissibility_reads_zero_times_inf_as_not_vanishing():
    # x_1^6 carries no degree <= 4, but exp(-1e200 x_0^2)'s entries overflow, and
    # the x^(2, 0) coefficient 0 x inf = nan reads "does not vanish" as it always has
    L = "(product (gauss_bump 1e200 0) (poly_even 1 0.0 0.0 0.0 1.0))"
    item = check_admissibility(kernel_from_text(f"d=2 l=2 p=0,0 q=- regime=JumpLLN L={L}")).items[0]
    assert item.detail.endswith(": x^(2, 0) does not vanish")


# sha256 over the "\n"-joined summaries of random_kernels(5000, 7), random_kernels()
# and catalog_kernels(): 7,014 kernels, from before the walk skipped any degree
_CORPUS_SUMMARIES_SHA256 = "1869e80e92281152dd11b4c674ba697dcf0c156a4576409c7fa6cca9738f4060"


def test_admissibility_summaries_of_the_corpus_pinned():
    kernels = random_kernels(5000, 7) + random_kernels() + catalog_kernels()
    text = "\n".join(check_admissibility(k).summary() for k in kernels)
    assert len(kernels) == 7014
    assert hashlib.sha256(text.encode()).hexdigest() == _CORPUS_SUMMARIES_SHA256


@pytest.mark.parametrize(
    "text",
    [
        "d=1 l=1 p=4.0 q=- regime=JumpCLT L=one",
        "d=2 l=2 p=4.0,4.0 q=- regime=GridTest L=(grid_sin 1.0 0 1)",
        "d=2 l=1 p=0.5 q=4.0 regime=MixedCLT L=one",
        "d=3 l=1 p=0.5 q=4.0,4.0 regime=MixedCLT L=(sum (grid_sin 1.0 1 2) (gauss_bump 0.5 0))",
        "d=2 l=1 p=1.5 q=4.0 regime=MixedLLN L=(product (poly_even 1 1.0 0.5) (gauss_bump 0.3 0))",
        "d=2 l=1 p=1.0 q=0.0 regime=JumpLLN L=(sum one (grid_sin 0.5 0 1))",
    ],
)
def test_kernel_expands_l_once(monkeypatch, text):
    # the depth of every expansion of an L node while the kernel is parsed,
    # checked and compiled; a node expanding its children is not at depth 0
    depths, depth = [], [0]

    def counted(expand):
        def wrapper(node):
            depths.append(depth[0])
            depth[0] += 1
            try:
                return expand(node)
            finally:
                depth[0] -= 1
        return wrapper

    for cls in (One, GridSin, GaussBump, PolyEven, Sum, Product):
        monkeypatch.setattr(cls, "sep_terms", counted(cls.sep_terms))
    kernel = kernel_from_text(text)
    check_admissibility(kernel)
    assert kernel._compiled.terms
    assert depths.count(0) == 1


def test_kernel_past_the_expansion_budget_is_refused_unexpanded(monkeypatch):
    # the count read off the tree is the length of the expansion it stands for
    assert all(k.L.n_terms() == len(k.L.sep_terms()) for k in random_kernels())
    monkeypatch.setattr(Sum, "sep_terms", lambda node: pytest.fail("expanded"))
    two = Sum((GaussBump(0.5, 0), GaussBump(0.25, 0)))
    with pytest.raises(KernelError, match=r"^L expands into 16384 separable terms, past the budget of 10000$"):
        KernelSpec(d=1, l=1, p=(4.0,), L=Product((two,) * 14), regime="JumpCLT")


def test_grid_sin_rejects_an_overflowing_frequency():
    with pytest.raises(KernelError, match=r"frequency 2\*pi/beta, got 1e-310$"):
        GridSin(1e-310, 0, 1)
    assert GridSin(1e-306, 0, 1).sep_terms()[1][1][0].cos_args[0] == pytest.approx(2 * math.pi / 1e-306)


def test_nested_l_out_of_range_coordinate_rejected():
    nested = Sum((ONE, Product((GaussBump(0.5, 0), GridSin(1.0, 1, 2)))))
    with pytest.raises(KernelError, match=r"coordinates \[2\] outside 0\.\.1"):
        KernelSpec(d=2, l=1, p=(0.5,), q=(4.0,), L=nested, regime="MixedCLT")
    with pytest.raises(KernelError, match=r"coordinates \[-1\] outside 0\.\.1"):
        KernelSpec(d=2, l=2, p=(4.0, 4.0), L=Product((ONE, PolyEven(-1, (1.0,)))), regime="JumpCLT")


# ---------------------------------------------------------------------------
# textual serialization
# ---------------------------------------------------------------------------


def test_kernel_text_round_trip():
    for k in catalog_kernels():
        text = kernel_to_text(k)
        back = kernel_from_text(text)
        assert back == k
        assert kernel_to_text(back) == text


@pytest.mark.parametrize(
    "ltext, message",
    [
        ("(product one", "unexpected end of L expression"),
        ("(product one 1.0)", "unexpected token '1.0' in L expression"),
        ("(cosine 0)", "unknown L atom 'cosine'"),
        ("(gauss_bump 0.5 0 1)", "expected ')' after gauss_bump, got '1'"),
        ("one one", "trailing tokens in L expression: ['one']"),
    ],
)
def test_l_parse_errors_name_their_cause(ltext, message):
    with pytest.raises(KernelError) as caught:
        kernel_from_text("d=2 l=1 p=0.5 q=4.0 regime=MixedCLT L=" + ltext)
    assert str(caught.value) == message


def test_kernel_text_parse_errors():
    with pytest.raises(KernelError):
        kernel_from_text("d=2 l=1 p=0.5 q=4.0 regime=Bogus L=one")
    with pytest.raises(KernelError):
        kernel_from_text("d=2 l=1 p=0.5 q=4.0 regime=MixedCLT L=(grid_sin 1.0 0)")
    with pytest.raises(KernelError):
        kernel_from_text("l=1 p=0.5 q=4.0 regime=MixedCLT L=one")
