"""Statistic evaluation: hand values, brute-force oracles, invariants."""

import io
import math

import numpy as np
import pytest

from uvstat.kernels import GaussBump, GridSin, KernelError, KernelSpec, abs_moment, grid_test_kernel
from uvstat.simulate import (
    AtomList,
    JumpModel,
    ModelConfig,
    SimulationError,
    VolatilityModel,
    increments,
    simulate_path,
)
from uvstat.stats import (
    load_increments_csv,
    power_variation,
    realized_qv,
    u_stat,
    v_stat,
    y_stat,
)

from oracles import nested_u_stat, nested_v_stat, nested_y_stat
from test_kernels import catalog_kernels


def brownian_path(seed=1, n=256, intensity=0.0, sigma0=1.0, drift=0.0):
    cfg = ModelConfig(
        drift_b=drift,
        vol=VolatilityModel(kind="Constant", sigma0=sigma0),
        jumps=JumpModel(
            intensity=intensity, size_dist=AtomList(((1.0, 0.5), (-1.0, 0.5))), max_abs=2.0
        ),
        bound_A=10.0,
    )
    return simulate_path(cfg, n=n, T=1.0, seed=seed)


# ---------------------------------------------------------------------------
# v_stat
# ---------------------------------------------------------------------------


def test_v_stat_hand_values():
    data = np.array([1.0, -2.0])
    k22 = KernelSpec(d=2, l=2, p=(4.0, 4.0), regime="JumpCLT")
    assert v_stat(data, k22, t=1.0).value == pytest.approx((1 + 16.0) ** 2)
    k21 = KernelSpec(d=2, l=1, p=(4.0,), q=(0.0,), regime="JumpLLN")
    assert v_stat(data, k21, t=1.0).value == pytest.approx(17.0)


def test_v_stat_gridsin_factorized_vs_nested():
    data = np.array([0.5, 1.5])
    gt = grid_test_kernel(1.0)
    fac = v_stat(data, gt, t=1.0).value
    nst = nested_v_stat(data, gt)
    assert abs(fac - nst) <= 1e-12 * (1 + abs(nst))


def test_nested_guard():
    k = KernelSpec(d=2, l=2, p=(4.0, 4.0), regime="JumpCLT")
    with pytest.raises(KernelError, match="separable"):
        nested_v_stat(np.ones(20001), k)


# ---------------------------------------------------------------------------
# y_stat
# ---------------------------------------------------------------------------


def test_y_stat_l0_equals_v_stat_full_jump_block():
    # Y_t^n(H, X, 0) = sum H(Delta X) = V with l = d
    data = np.array([0.4, -0.8, 1.1])
    k = KernelSpec(d=2, l=0, q=(4.0, 4.0), regime="JumpLLN")
    kv = KernelSpec(d=2, l=2, p=(4.0, 4.0), regime="JumpCLT")
    y = y_stat(data, k, t=1.0).value
    v = v_stat(data, kv, t=1.0).value
    assert y == pytest.approx(v, rel=1e-12)


def test_y_stat_power_two_is_qv():
    path = brownian_path(seed=3)
    k = KernelSpec(d=1, l=1, p=(2.0,), regime="MixedLLN")
    y = y_stat(path, k).value
    qv = realized_qv(path).value
    assert y == pytest.approx(qv, rel=1e-12)


def test_y_stat_hand_double_sum():
    data = np.array([0.7, -1.2])
    n = 2
    k = KernelSpec(d=2, l=1, p=(0.5,), q=(4.0,), regime="MixedCLT")
    direct = 0.0
    for i in range(2):
        for j in range(2):
            direct += abs(math.sqrt(n) * data[i]) ** 0.5 * abs(data[j]) ** 4
    direct /= n
    assert y_stat(data, k, t=1.0).value == pytest.approx(direct, rel=1e-12)


def test_y_stat_scaling_identity():
    # Y with l = d on data z equals n^{-d} sum H(sqrt(n) z)
    data = np.array([0.3, -0.6, 0.9, 0.2])
    n = 4
    k = KernelSpec(d=2, l=2, p=(0.5, 0.5), regime="MixedLLN")
    y = y_stat(data, k, t=1.0).value
    direct = 0.0
    for i in range(4):
        for j in range(4):
            direct += abs(2 * data[i]) ** 0.5 * abs(2 * data[j]) ** 0.5
    assert y == pytest.approx(direct / n**2, rel=1e-12)


# ---------------------------------------------------------------------------
# u_stat
# ---------------------------------------------------------------------------


def test_u_stat_d1_matches_y_stat():
    path = brownian_path(seed=5, n=128)
    k = KernelSpec(d=1, l=1, p=(0.5,), regime="MixedCLT")
    u = u_stat(path, k).value
    y = y_stat(path, k).value
    count = 128
    assert u * count / 128 == pytest.approx(y * 128 / 128, rel=1e-12)
    assert u == pytest.approx(y * 128 / count, rel=1e-12)


def test_u_stat_d2_hand_value():
    data = np.array([0.3, -0.5])
    n = 2
    k = KernelSpec(d=2, l=2, p=(1.0, 1.0), regime="MixedLLN")
    expected = abs(math.sqrt(2) * 0.3) * abs(math.sqrt(2) * (-0.5))
    assert u_stat(data, k, t=1.0).value == pytest.approx(expected, rel=1e-12)


def test_u_stat_prefix_vs_brute_force():
    gen = np.random.default_rng(17)
    data = gen.normal(size=64) * 0.1
    for k in [
        KernelSpec(d=2, l=2, p=(0.5, 0.5), regime="MixedLLN"),
        KernelSpec(d=2, l=2, p=(4.0, 4.0), L=GridSin(1.0, 0, 1), regime="JumpCLT"),
        KernelSpec(d=3, l=3, p=(1.0, 1.0, 1.0), regime="MixedLLN"),
    ]:
        fac = u_stat(data, k, t=1.0).value
        brute = nested_u_stat(data, k)
        assert abs(fac - brute) <= 1e-12 * (1 + abs(brute))


# ---------------------------------------------------------------------------
# realized quadratic variation and power variation
# ---------------------------------------------------------------------------


def test_realized_qv_hand_values():
    assert realized_qv(np.zeros(8), t=1.0).value == 0.0
    assert realized_qv(np.array([1.0, -2.0]), t=1.0).value == pytest.approx(5.0)


def test_power_variation_p2_scaled_is_qv():
    path = brownian_path(seed=7)
    pv = power_variation(path, p=2.0, scaled=True).value
    qv = realized_qv(path).value
    assert pv == pytest.approx(qv, rel=1e-12)


def test_power_variation_pure_jump_unscaled():
    cfg = ModelConfig(
        drift_b=0.0,
        vol=VolatilityModel(kind="Constant", sigma0=1e-12),
        jumps=JumpModel(intensity=4.0, size_dist=AtomList(((1.5, 1.0),)), max_abs=2.0),
        bound_A=10.0,
    )
    path = simulate_path(cfg, n=512, T=1.0, seed=11)
    pv = power_variation(path, p=4.0, scaled=False).value
    expected = sum(abs(size) ** 4 for size in path.sizes.tolist())
    # only jump intervals contribute materially; the 1e-12 diffusion is noise
    assert pv == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("p", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
def test_power_variation_rejects_bad_power(p):
    with pytest.raises(KernelError, match=f"power p >= 0, got {p}$"):
        power_variation(np.array([1.0, -2.0]), p=p)


def test_power_variation_scaled_monte_carlo():
    vals = []
    for seed in range(100):
        path = brownian_path(seed=seed, n=1024)
        vals.append(power_variation(path, p=1.0, scaled=True).value)
    assert np.median(vals) == pytest.approx(abs_moment(1.0), abs=0.02)


# ---------------------------------------------------------------------------
# factorized vs nested across the catalog (the dual-route contract)
# ---------------------------------------------------------------------------


def test_factorized_equals_nested_across_catalog():
    gen = np.random.default_rng(19)
    data = gen.normal(size=64) * 0.5
    for k in catalog_kernels():
        if k.d > 3:
            continue
        fac = v_stat(data, k, t=1.0).value
        nst = nested_v_stat(data, k)
        assert abs(fac - nst) <= 1e-12 * (1 + abs(nst)), k.text()
        fac = y_stat(data, k, t=1.0).value
        nst = nested_y_stat(data, k)
        assert abs(fac - nst) <= 1e-12 * (1 + abs(nst)), k.text()


def test_window_monotonicity():
    path = brownian_path(seed=23, n=256, intensity=3.0)
    k = KernelSpec(d=2, l=2, p=(4.0, 4.0), regime="JumpCLT")
    vals = [v_stat(path, k, t=t).value for t in (0.25, 0.5, 0.75, 1.0)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_permutation_invariance_of_blocks():
    # swapping the two jump-block coordinates leaves the tuple sum unchanged
    gen = np.random.default_rng(29)
    data = gen.normal(size=32)
    k = KernelSpec(d=2, l=2, p=(4.0, 6.0), regime="JumpCLT")
    ks = KernelSpec(d=2, l=2, p=(6.0, 4.0), regime="JumpCLT")
    assert v_stat(data, k, t=1.0).value == pytest.approx(
        v_stat(data, ks, t=1.0).value, rel=1e-12
    )


def test_performance_contract_large_n():
    import time

    gen = np.random.default_rng(31)
    data = gen.normal(size=200_000) * 0.01
    gt = grid_test_kernel(1.0)
    start = time.perf_counter()
    v_stat(data, gt, t=1.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0


def test_simulate_performance_contract_large_n():
    # one vector Brownian draw per path: 65536 steps take a few ms (the
    # per-step scalar loop took about 0.1 s)
    import time

    start = time.perf_counter()
    path = brownian_path(seed=31, n=65536, intensity=5.0)
    elapsed = time.perf_counter() - start
    assert path.n_steps == 65536
    assert elapsed < 0.25


# ---------------------------------------------------------------------------
# CSV input
# ---------------------------------------------------------------------------


def test_load_increments_csv_with_header():
    buf = io.StringIO("increment\n0.5\n-0.25\n1.0\n")
    np.testing.assert_allclose(load_increments_csv(buf), [0.5, -0.25, 1.0])


def test_load_increments_csv_plain():
    buf = io.StringIO("0.5\n-0.25\n")
    np.testing.assert_allclose(load_increments_csv(buf), [0.5, -0.25])


def test_load_increments_csv_rejects_garbage():
    from uvstat.simulate import SimulationError

    buf = io.StringIO("0.5\nnot-a-number\n")
    with pytest.raises(SimulationError):
        load_increments_csv(buf)


def test_load_increments_csv_rejects_non_finite():
    from uvstat.simulate import SimulationError

    with pytest.raises(SimulationError, match="line 3"):
        load_increments_csv(io.StringIO("x\n0.1\nnan\ninf\n"))
    with pytest.raises(SimulationError, match="line 2"):
        load_increments_csv(io.StringIO("0.1\n-inf\n"))


def test_stat_on_raw_increments_matches_path():
    path = brownian_path(seed=37, n=128, intensity=2.0)
    inc = increments(path)
    k = KernelSpec(d=2, l=2, p=(4.0, 4.0), regime="JumpCLT")
    a = v_stat(path, k).value
    b = v_stat(inc, k, n=128, t=1.0).value
    assert a == pytest.approx(b, rel=1e-13)


K_RAW = KernelSpec(d=2, l=1, p=(2.0,), q=(4.0,), regime="MixedLLN")
RAW_STATS = {
    "v_stat": lambda data, **kw: v_stat(data, K_RAW, **kw),
    "y_stat": lambda data, **kw: y_stat(data, K_RAW, **kw),
    "u_stat": lambda data, **kw: u_stat(data, K_RAW, **kw),
    "realized_qv": realized_qv,
    "power_variation": lambda data, **kw: power_variation(data, 2.0, **kw),
}


@pytest.mark.parametrize("name", sorted(RAW_STATS))
def test_bad_raw_sample_is_a_simulation_error(name):
    for data in (np.array([]), [], np.zeros(0)):
        with pytest.raises(SimulationError, match="empty sample"):
            RAW_STATS[name](data)
    for n in (0, -4):
        with pytest.raises(SimulationError, match="n must be >= 1"):
            RAW_STATS[name](np.ones(4), n=n)
