"""Path simulation: determinism, reconstruction, jump ground truth."""

import itertools
import json
import math
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chisquare, ks_2samp, norm, poisson

from uvstat.simulate import (
    AtomList,
    JumpModel,
    JumpRecord,
    ModelConfig,
    SamplePath,
    SimulationError,
    TruncNormal,
    Uniform,
    VolatilityModel,
    first_order_increments,
    increments,
    jump_neighborhood,
    path_from_binary,
    path_from_json,
    path_to_binary,
    path_to_json,
    simulate_path,
)
from uvstat.simulate import _count


def make_config(
    drift=0.0,
    sigma0=1.0,
    vol_kind="Constant",
    intensity=0.0,
    size_dist=None,
    tilde=(0.0, 0.0, 0.0),
):
    if size_dist is None:
        size_dist = AtomList(((1.0, 1.0),))
    vol = VolatilityModel(
        kind=vol_kind,
        sigma0=sigma0,
        tilde_b=tilde[0],
        tilde_sigma=tilde[1],
        tilde_v=tilde[2],
    )
    return ModelConfig(
        drift_b=drift,
        vol=vol,
        jumps=JumpModel(intensity=intensity, size_dist=size_dist, max_abs=5.0),
        bound_A=10.0,
    )


ZERO_SIGMA = 1e-12  # "sigma = 0" limit for degenerate tests (sigma0 must be > 0)


def near_zero_vol_config(drift=0.0, intensity=0.0, size_dist=None):
    cfg = make_config(drift=drift, sigma0=ZERO_SIGMA, intensity=intensity, size_dist=size_dist)
    return cfg


def test_degenerate_zero_path():
    cfg = near_zero_vol_config()
    path = simulate_path(cfg, n=16, T=1.0, seed=1)
    np.testing.assert_allclose(path.x_grid, 0.0, atol=1e-10)
    assert len(path.x_grid) == 17
    assert path.jumps == ()


def test_pure_counting_process():
    cfg = near_zero_vol_config(intensity=3.0, size_dist=AtomList(((1.0, 1.0),)))
    path = simulate_path(cfg, n=64, T=1.0, seed=7)
    total = sum(r.size for r in path.jumps)
    assert path.x_grid[-1] == pytest.approx(len(path.jumps) * 1.0, abs=1e-9)
    assert path.x_grid[-1] == pytest.approx(total, abs=1e-9)


def test_determinism_bit_identical():
    cfg = make_config(drift=0.1, vol_kind="ItoSM", intensity=4.0, tilde=(0.05, 0.2, 0.3),
                      size_dist=Uniform(-1.0, 1.0))
    a = simulate_path(cfg, n=256, T=1.0, seed=42)
    b = simulate_path(cfg, n=256, T=1.0, seed=42)
    assert np.array_equal(a.x_grid, b.x_grid)
    assert np.array_equal(a.sigma_grid, b.sigma_grid)
    assert np.array_equal(a.w_increments, b.w_increments)
    assert a.jumps == b.jumps
    c = simulate_path(cfg, n=256, T=1.0, seed=43)
    assert not np.array_equal(a.x_grid, c.x_grid)


def test_reconstruction_identity():
    # X_{i/n} rebuilt from drift + sigma dW + jumps in the simulator's own
    # accumulation order is bit-identical
    cfg = make_config(drift=0.3, vol_kind="ItoSM", intensity=5.0, tilde=(0.1, 0.2, 0.25),
                      size_dist=Uniform(-1.0, 1.0))
    path = simulate_path(cfg, n=512, T=1.0, seed=9)
    n = path.n
    inc = cfg.drift_b / n + path.sigma_grid[:-1] * path.w_increments
    inc = inc.copy()
    for r in path.jumps:
        inc[r.interval_index - 1] += r.size
    rebuilt = np.empty(len(path.x_grid))
    rebuilt[0] = 0.0
    np.cumsum(inc, out=rebuilt[1:])
    assert np.array_equal(rebuilt, path.x_grid)


def test_jump_records_consistent():
    cfg = make_config(intensity=6.0, size_dist=Uniform(0.5, 1.5))
    path = simulate_path(cfg, n=128, T=1.0, seed=3)
    for r in path.jumps:
        assert 0.0 < r.time <= 1.0
        assert (r.interval_index - 1) / path.n < r.time <= r.interval_index / path.n
        assert r.size != 0.0
        assert r.sigma_pre > 0 and r.sigma_post > 0


def test_increments_directly():
    cfg = make_config()
    path = simulate_path(cfg, n=2, T=1.0, seed=5)
    object.__setattr__(path, "x_grid", np.array([0.0, 1.0, 3.0]))
    np.testing.assert_allclose(increments(path, t=1.0), [1.0, 2.0])
    with pytest.raises(SimulationError):
        increments(path, t=2.0)


def test_increments_constant_path_zero():
    cfg = near_zero_vol_config()
    path = simulate_path(cfg, n=32, T=1.0, seed=2)
    np.testing.assert_allclose(increments(path), 0.0, atol=1e-10)


def test_first_order_increments_sigma_one():
    cfg = make_config()
    path = simulate_path(cfg, n=64, T=1.0, seed=11)
    alpha = first_order_increments(path)
    np.testing.assert_allclose(alpha, math.sqrt(64) * path.w_increments, rtol=1e-15)


def test_first_order_increments_drift_gap():
    # no jumps, constant sigma: sqrt(n) Delta X - alpha = sqrt(n) b / n exactly
    cfg = make_config(drift=0.7)
    path = simulate_path(cfg, n=128, T=1.0, seed=13)
    gap = math.sqrt(path.n) * increments(path) - first_order_increments(path)
    np.testing.assert_allclose(gap, math.sqrt(128) * 0.7 / 128, rtol=1e-9)


def test_quadratic_variation_monte_carlo():
    # mean of sum (Delta X)^2 estimates integral of sigma^2 = 1
    cfg = make_config()
    vals = []
    for seed in range(300):
        path = simulate_path(cfg, n=1024, T=1.0, seed=seed)
        vals.append(float(np.sum(increments(path) ** 2)))
    assert np.mean(vals) == pytest.approx(1.0, abs=0.01)


def test_jump_count_is_poisson():
    cfg = make_config(intensity=3.0, size_dist=Uniform(0.5, 1.5))
    counts = [len(simulate_path(cfg, n=32, T=1.0, seed=s).jumps) for s in range(600)]
    edges = list(range(8))
    observed = np.array([sum(1 for c in counts if c == e) for e in edges] +
                        [sum(1 for c in counts if c >= 8)])
    probs = np.array([poisson.pmf(e, 3.0) for e in edges] + [poisson.sf(7, 3.0)])
    stat, p = chisquare(observed, probs * len(counts))
    assert p > 0.01


def test_jump_neighborhood_pure_jump():
    cfg = near_zero_vol_config(intensity=4.0, size_dist=AtomList(((1.0, 1.0),)))
    path = simulate_path(cfg, n=64, T=1.0, seed=17)
    assert path.jumps
    for p in range(len(path.jumps)):
        nb = jump_neighborhood(path, p)
        if not nb.shared_interval:
            assert nb.r_minus == pytest.approx(0.0, abs=1e-6)
            assert nb.r_plus == pytest.approx(0.0, abs=1e-6)


def test_jump_neighborhood_drift_only():
    cfg = ModelConfig(
        drift_b=1.0,
        vol=VolatilityModel(kind="Constant", sigma0=ZERO_SIGMA),
        jumps=JumpModel(intensity=2.0, size_dist=AtomList(((1.0, 1.0),)), max_abs=5.0),
        bound_A=10.0,
    )
    n = 64
    path = simulate_path(cfg, n=n, T=1.0, seed=23)
    assert path.jumps
    for p in range(len(path.jumps)):
        nb = jump_neighborhood(path, p)
        if not nb.shared_interval:
            assert nb.r == pytest.approx(1.0 / math.sqrt(n), abs=1e-6)


def test_jump_neighborhood_limit_law():
    # R(n,p) for sigma=1 vs the extension-space law sqrt(kappa) psi- +
    # sqrt(1-kappa) psi+ (which is standard normal here)
    cfg = make_config(intensity=1.0, size_dist=AtomList(((1.0, 1.0),)))
    rs = []
    gen = np.random.default_rng(99)
    seed = 0
    while len(rs) < 600:
        path = simulate_path(cfg, n=2048, T=1.0, seed=seed)
        seed += 1
        for p in range(len(path.jumps)):
            nb = jump_neighborhood(path, p)
            if not nb.shared_interval:
                rs.append(nb.r)
                break
    kappa = gen.random(600)
    ref = np.sqrt(kappa) * gen.standard_normal(600) + np.sqrt(1 - kappa) * gen.standard_normal(600)
    stat, p = ks_2samp(np.array(rs), ref)
    assert p > 0.01


def test_shared_interval_flagged():
    cfg = make_config(intensity=40.0, size_dist=Uniform(0.5, 1.5))
    path = simulate_path(cfg, n=8, T=1.0, seed=1)
    flags = [jump_neighborhood(path, p).shared_interval for p in range(len(path.jumps))]
    assert any(flags)


def test_sigma_clamp_budget():
    vol = VolatilityModel(kind="ItoSM", sigma0=0.01, tilde_b=-2.0, tilde_sigma=0.0, tilde_v=0.0)
    cfg = ModelConfig(
        drift_b=0.0,
        vol=vol,
        jumps=JumpModel(intensity=0.0, size_dist=AtomList(((1.0, 1.0),)), max_abs=5.0),
        bound_A=10.0,
    )
    path = simulate_path(cfg, n=256, T=1.0, seed=1, clamp_budget=100000)
    assert path.n_sigma_clamps > 0
    assert path.clamped
    assert np.min(path.sigma_grid) >= vol.floor_eps
    with pytest.raises(SimulationError):
        simulate_path(cfg, n=256, T=1.0, seed=1, clamp_budget=1)


def test_config_validation():
    with pytest.raises(SimulationError):
        VolatilityModel(kind="Constant", sigma0=-1.0)
    with pytest.raises(SimulationError):
        VolatilityModel(kind="Constant", sigma0=1.0, tilde_b=0.5)
    with pytest.raises(SimulationError):
        AtomList(((0.0, 1.0),))
    with pytest.raises(SimulationError):
        AtomList(((1.0, 0.5), (2.0, 0.2)))
    with pytest.raises(SimulationError):
        Uniform(2.0, 1.0)
    with pytest.raises(SimulationError, match="atom 0 value must be finite"):
        AtomList(((math.nan, 0.5), (1.0, 0.5)))
    with pytest.raises(SimulationError, match="atom 0 must be a"):
        AtomList(((1.0,),))
    with pytest.raises(SimulationError, match="atom 1 prob must be >= 0"):
        AtomList(((1.0, 1.5), (2.0, -0.5)))
    for bad in ({"mu": math.nan}, {"s": math.inf}, {"min_abs": math.nan}):
        with pytest.raises(SimulationError, match="must be finite"):
            TruncNormal(**{"mu": 0.0, "s": 1.0, "min_abs": 0.5, **bad})
    # P(|Z| >= 50) underflows: draw() could never fill, so construction refuses
    with pytest.raises(SimulationError, match="tail mass"):
        TruncNormal(mu=0.0, s=1.0, min_abs=50.0)
    TruncNormal(mu=0.0, s=1.0, min_abs=4.8)  # tail mass 1.6e-6 is still accepted
    with pytest.raises(SimulationError):
        JumpModel(intensity=-1.0, size_dist=AtomList(((1.0, 1.0),)), max_abs=5.0)
    with pytest.raises(SimulationError):
        # atom support outside max_abs
        JumpModel(intensity=1.0, size_dist=AtomList(((7.0, 1.0),)), max_abs=5.0)
    with pytest.raises(SimulationError):
        ModelConfig(
            drift_b=20.0,
            vol=VolatilityModel(kind="Constant", sigma0=1.0),
            jumps=JumpModel(intensity=0.0, size_dist=AtomList(((1.0, 1.0),)), max_abs=5.0),
            bound_A=10.0,
        )


def test_reject_bound_excursions():
    cfg = ModelConfig(
        drift_b=0.0,
        vol=VolatilityModel(kind="Constant", sigma0=2.0),
        jumps=JumpModel(intensity=0.0, size_dist=AtomList(((1.0, 1.0),)), max_abs=2.5),
        bound_A=2.5,
        reject_bound_excursions=True,
    )
    raised = False
    for seed in range(50):
        try:
            simulate_path(cfg, n=512, T=1.0, seed=seed)
        except SimulationError:
            raised = True
            break
    assert raised


def test_truncnormal_sizes():
    dist = TruncNormal(mu=0.0, s=1.0, min_abs=0.4)
    gen = np.random.default_rng(5)
    draws = dist.draw(gen, 500)
    assert np.all(np.abs(draws) >= 0.4)
    assert dist.second_moment() > 0.4**2


def test_truncnormal_second_moment_against_quadrature():
    for mu, s, a in itertools.product((-2.0, -0.3, 0.0, 0.7, 3.0), (0.2, 1.0, 2.5), (0.05, 0.4, 1.5)):
        mass = norm.sf(a, mu, s) + norm.cdf(-a, mu, s)
        if mass < 1e-6:
            continue  # refused by TruncNormal itself
        dist = TruncNormal(mu=mu, s=s, min_abs=a)
        integrand = lambda z: z * z * norm.pdf(z, mu, s)
        oracle = (quad(integrand, -np.inf, -a)[0] + quad(integrand, a, np.inf)[0]) / mass
        assert dist.second_moment() == pytest.approx(oracle, rel=1e-9), (mu, s, a)


def test_json_round_trip():
    cfg = make_config(drift=0.2, vol_kind="ItoSM", intensity=3.0, tilde=(0.1, 0.2, 0.1),
                      size_dist=Uniform(-1.0, 1.0))
    path = simulate_path(cfg, n=64, T=1.0, seed=31)
    back = path_from_json(path_to_json(path))
    assert np.array_equal(back.x_grid, path.x_grid)
    assert np.array_equal(back.sigma_grid, path.sigma_grid)
    assert np.array_equal(back.w_increments, path.w_increments)
    assert back.jumps == path.jumps
    assert back.seed == path.seed
    assert back.config == path.config


def test_binary_round_trip():
    cfg = make_config(drift=0.2, intensity=4.0, size_dist=TruncNormal(0.0, 1.0, 0.3))
    path = simulate_path(cfg, n=64, T=1.0, seed=37)
    back = path_from_binary(path_to_binary(path))
    assert np.array_equal(back.x_grid, path.x_grid)
    assert back.jumps == path.jumps
    np.testing.assert_array_equal(back.w_before_jump, path.w_before_jump)
    with pytest.raises(SimulationError):
        path_from_binary(b"NOTMAGIC" + b"\x00" * 64)


def test_path_from_json_is_strict_about_the_model_block():
    path = simulate_path(make_config(), n=16, T=1.0, seed=3)
    doc = json.loads(path_to_json(path))
    doc["model"]["vol"]["sigma"] = 1.0
    with pytest.raises(SimulationError, match=r"unknown key\(s\) \['sigma'\] in model.vol"):
        path_from_json(json.dumps(doc))


# ---------------------------------------------------------------------------
# scalar oracle: one normal draw per grid segment, a per-step Euler loop
# ---------------------------------------------------------------------------


def _simulate_path_scalar(cfg, n, T, seed, clamp_budget=1000):
    """simulate_path written as scalar loops; the vector code must match it bit for bit."""
    if n < 1:
        raise SimulationError(f"n must be >= 1, got {n}")
    if not T > 0:
        raise SimulationError(f"T must be > 0, got {T}")
    N = _count(n, T)
    if N < 1:
        raise SimulationError(f"grid {{0, 1/n, ...}} has no step for n={n}, T={T}")

    root = np.random.SeedSequence(seed)
    jump_ss, w_ss, v_ss = root.spawn(3)
    jump_gen = np.random.default_rng(jump_ss)
    w_gen = np.random.default_rng(w_ss)
    v_gen = np.random.default_rng(v_ss)

    # jumps: count, sorted times on (0, T], then sizes in time order
    n_jumps = int(jump_gen.poisson(cfg.jumps.intensity * T)) if cfg.jumps.intensity > 0 else 0
    if n_jumps > 0:
        times = np.sort(T * (1.0 - jump_gen.random(n_jumps)))
        sizes = cfg.jumps.draw_sizes(jump_gen, n_jumps)
    else:
        times = np.zeros(0)
        sizes = np.zeros(0)
    intervals = np.ceil(times * n - 1e-12).astype(int)
    intervals = np.maximum(intervals, 1)

    # Brownian increments, split at jump times inside each interval
    w_inc = np.empty(N)
    w_before = np.full(n_jumps, np.nan)
    jumps_by_interval: dict = {}
    for p, idx in enumerate(intervals):
        if idx <= N:
            jumps_by_interval.setdefault(int(idx), []).append(p)
    for i in range(1, N + 1):
        t_left = (i - 1) / n
        t_right = i / n
        here = jumps_by_interval.get(i, ())
        if not here:
            w_inc[i - 1] = w_gen.normal(0.0, math.sqrt(1.0 / n))
            continue
        cuts = [t_left] + [times[p] for p in here] + [t_right]
        acc = 0.0
        for seg, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
            dt = b - a
            dw = w_gen.normal(0.0, math.sqrt(dt)) if dt > 0 else 0.0
            acc += dw
            if seg < len(here):
                w_before[here[seg]] = acc
        w_inc[i - 1] = acc

    # volatility on the grid (Euler, clamped at floor_eps)
    vol = cfg.vol
    sigma = np.empty(N + 1)
    sigma[0] = vol.sigma0
    n_clamps = 0
    first_clamp = -1
    if vol.kind == "Constant":
        sigma[:] = vol.sigma0
    else:
        v_inc = v_gen.normal(0.0, math.sqrt(1.0 / n), size=N)
        for i in range(N):
            nxt = sigma[i] + vol.tilde_b / n + vol.tilde_sigma * w_inc[i] + vol.tilde_v * v_inc[i]
            if nxt < vol.floor_eps:
                nxt = vol.floor_eps
                n_clamps += 1
                if first_clamp < 0:
                    first_clamp = i + 1
            sigma[i + 1] = nxt
    if n_clamps > clamp_budget:
        raise SimulationError(
            f"volatility clamped {n_clamps} times (> budget {clamp_budget}); "
            f"first offending interval {first_clamp}"
        )

    # spot volatility at jump times: left grid state plus deterministic
    # partial Euler drift step (continuous volatility, so pre = post)
    records = []
    for p in range(n_jumps):
        idx = int(intervals[p])
        left = sigma[min(idx - 1, N)]
        if vol.kind == "ItoSM":
            pre = max(left + vol.tilde_b * (times[p] - (idx - 1) / n), vol.floor_eps)
        else:
            pre = left
        records.append(
            JumpRecord(
                time=float(times[p]),
                size=float(sizes[p]),
                sigma_pre=float(pre),
                sigma_post=float(pre),
                interval_index=idx,
            )
        )

    # X increments and grid values
    inc = cfg.drift_b / n + sigma[:N] * w_inc
    for i, here in jumps_by_interval.items():
        inc[i - 1] += sizes[here].sum()
    x_grid = np.empty(N + 1)
    x_grid[0] = 0.0
    np.cumsum(inc, out=x_grid[1:])

    if cfg.reject_bound_excursions and np.max(np.abs(x_grid)) > cfg.bound_A:
        raise SimulationError(
            f"path exceeded bound_A={cfg.bound_A} (max |X| = {np.max(np.abs(x_grid)):.6g})"
        )

    return SamplePath(
        T=float(T),
        n=int(n),
        x_grid=x_grid,
        sigma_grid=sigma,
        w_increments=w_inc,
        jumps=tuple(records),
        seed=int(seed),
        config=cfg,
        w_before_jump=w_before,
        n_sigma_clamps=n_clamps,
    )


ORACLE_MODELS = {
    "constant": make_config(drift=0.1, intensity=1.5, size_dist=AtomList(((1.0, 0.5), (-1.0, 0.5)))),
    "itosm": make_config(drift=0.1, vol_kind="ItoSM", intensity=4.0, tilde=(0.05, 0.2, 0.3),
                         size_dist=Uniform(-1.0, 1.0)),
    # high tilde_v and a negative tilde_b: most paths clamp at floor_eps
    "itosm_clamping": make_config(sigma0=0.3, vol_kind="ItoSM", intensity=4.0,
                                  tilde=(-2.0, 0.5, 3.0), size_dist=Uniform(-1.0, 1.0)),
    # about 200 jumps: many intervals hold several
    "constant_dense": make_config(intensity=200.0, size_dist=Uniform(-1.0, 1.0)),
    "itosm_dense": make_config(vol_kind="ItoSM", intensity=200.0, tilde=(-0.5, 0.2, 1.0),
                               size_dist=Uniform(-1.0, 1.0)),
}
# (n, T); a non-integer nT leaves jumps past the last grid interval
ORACLE_GRIDS = ((1, 1.0), (1, 2.5), (7, 1.0), (64, 1.37), (257, 1.0))


def assert_same_path(a, b):
    # bytes, not values: a sign-of-zero or NaN-payload change fails too
    for name in ("x_grid", "sigma_grid", "w_increments", "w_before_jump"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name
    assert np.array_equal(np.isnan(a.w_before_jump), np.isnan(b.w_before_jump))
    assert a.jumps == b.jumps
    assert a.n_sigma_clamps == b.n_sigma_clamps


@pytest.mark.parametrize("model", sorted(ORACLE_MODELS))
def test_simulate_path_matches_scalar_oracle(model):
    cfg = ORACLE_MODELS[model]
    clamped = shared = past_grid = 0
    for seed in range(300):
        n, T = ORACLE_GRIDS[seed % len(ORACLE_GRIDS)]
        path = simulate_path(cfg, n, T, seed)
        assert_same_path(path, _simulate_path_scalar(cfg, n, T, seed))
        clamped += path.clamped
        intervals = [r.interval_index for r in path.jumps]
        shared += len(intervals) > len(set(intervals))
        past_grid += any(i > path.n_steps for i in intervals)
    assert past_grid > 0
    if "dense" in model:
        assert shared > 0
    if "clamping" in model:
        assert clamped > 100


@pytest.mark.parametrize("model", ["constant", "constant_dense"])
def test_simulate_path_matches_scalar_oracle_at_benchmark_size(model):
    # the clt_mixed grid, n = 8192; the dense model puts several jumps in
    # one interval
    cfg = ORACLE_MODELS[model]
    shared = 0
    for seed in range(3):
        path = simulate_path(cfg, 8192, 1.0, seed)
        assert_same_path(path, _simulate_path_scalar(cfg, 8192, 1.0, seed))
        intervals = [r.interval_index for r in path.jumps]
        shared += len(intervals) > len(set(intervals))
    if "dense" in model:
        assert shared > 0


def test_simulate_path_matches_scalar_oracle_over_the_clamp_budget():
    cfg = ORACLE_MODELS["itosm_clamping"]
    for seed in range(20):
        for budget in (0, 3, 1000):
            try:
                expected = _simulate_path_scalar(cfg, 257, 1.0, seed, clamp_budget=budget)
            except SimulationError as exc:
                with pytest.raises(SimulationError, match=re.escape(str(exc))):
                    simulate_path(cfg, 257, 1.0, seed, clamp_budget=budget)
            else:
                assert_same_path(simulate_path(cfg, 257, 1.0, seed, clamp_budget=budget), expected)
