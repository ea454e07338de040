"""Path simulation: determinism, reconstruction, jump ground truth."""

import dataclasses
import itertools
import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.stats import chisquare, ks_2samp, norm, poisson

import uvstat.simulate
from uvstat.config import config_from_dict
from uvstat.simulate import (
    AtomList,
    GroundTruth,
    JumpModel,
    ModelConfig,
    SimulationError,
    TruncNormal,
    Uniform,
    VolatilityModel,
    increments,
    jump_neighborhood,
    path_to_json,
    simulate_path,
    simulate_truth,
)
from uvstat.simulate import _brownian, _count, _jump_runs


JUMP_COLUMNS = ("times", "sizes", "sigma_pre", "sigma_post", "intervals")


def jump_columns(path):
    """The jump table as one list per column: equal exactly when every entry is."""
    return [getattr(path, name).tolist() for name in JUMP_COLUMNS]


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
    assert jump_columns(path) == [[]] * 5


def test_pure_counting_process():
    cfg = near_zero_vol_config(intensity=3.0, size_dist=AtomList(((1.0, 1.0),)))
    path = simulate_path(cfg, n=64, T=1.0, seed=7)
    total = sum(path.sizes.tolist())
    assert path.x_grid[-1] == pytest.approx(len(path.times) * 1.0, abs=1e-9)
    assert path.x_grid[-1] == pytest.approx(total, abs=1e-9)


def test_determinism_bit_identical():
    cfg = make_config(drift=0.1, vol_kind="ItoSM", intensity=4.0, tilde=(0.05, 0.2, 0.3),
                      size_dist=Uniform(-1.0, 1.0))
    a = simulate_path(cfg, n=256, T=1.0, seed=42)
    b = simulate_path(cfg, n=256, T=1.0, seed=42)
    assert np.array_equal(a.x_grid, b.x_grid)
    assert np.array_equal(a.sigma_grid, b.sigma_grid)
    assert np.array_equal(a.w_increments, b.w_increments)
    assert jump_columns(a) == jump_columns(b)
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
    for i, size in zip(path.intervals.tolist(), path.sizes.tolist()):
        inc[i - 1] += size
    rebuilt = np.empty(len(path.x_grid))
    rebuilt[0] = 0.0
    np.cumsum(inc, out=rebuilt[1:])
    assert np.array_equal(rebuilt, path.x_grid)


def test_jump_records_consistent():
    cfg = make_config(intensity=6.0, size_dist=Uniform(0.5, 1.5))
    path = simulate_path(cfg, n=128, T=1.0, seed=3)
    for time, size, sigma_pre, sigma_post, i in zip(*jump_columns(path)):
        assert 0.0 < time <= 1.0
        assert (i - 1) / path.n < time <= i / path.n
        assert size != 0.0
        assert sigma_pre > 0 and sigma_post > 0


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
    counts = [len(simulate_path(cfg, n=32, T=1.0, seed=s).times) for s in range(600)]
    edges = list(range(8))
    observed = np.array([sum(1 for c in counts if c == e) for e in edges] +
                        [sum(1 for c in counts if c >= 8)])
    probs = np.array([poisson.pmf(e, 3.0) for e in edges] + [poisson.sf(7, 3.0)])
    stat, p = chisquare(observed, probs * len(counts))
    assert p > 0.01


def test_jump_neighborhood_pure_jump():
    cfg = near_zero_vol_config(intensity=4.0, size_dist=AtomList(((1.0, 1.0),)))
    path = simulate_path(cfg, n=64, T=1.0, seed=17)
    assert len(path.times)
    for p in range(len(path.times)):
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
    assert len(path.times)
    for p in range(len(path.times)):
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
        for p in range(len(path.times)):
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
    flags = [jump_neighborhood(path, p).shared_interval for p in range(len(path.times))]
    assert any(flags)


def test_sigma_clamp_budget(monkeypatch):
    vol = VolatilityModel(kind="ItoSM", sigma0=0.01, tilde_b=-2.0, tilde_sigma=0.0, tilde_v=0.0)
    cfg = ModelConfig(
        drift_b=0.0,
        vol=vol,
        jumps=JumpModel(intensity=0.0, size_dist=AtomList(((1.0, 1.0),)), max_abs=5.0),
        bound_A=10.0,
    )
    monkeypatch.setattr(uvstat.simulate, "_CLAMP_BUDGET", 100000)
    path = simulate_path(cfg, n=256, T=1.0, seed=1)
    assert path.n_sigma_clamps > 0
    assert path.clamped
    assert np.min(path.sigma_grid) >= vol.floor_eps
    monkeypatch.setattr(uvstat.simulate, "_CLAMP_BUDGET", 1)
    with pytest.raises(SimulationError):
        simulate_path(cfg, n=256, T=1.0, seed=1)


def atom_sets(count: int, seed: int = 7):
    """Seeded AtomLists of 1-9 atoms: some probabilities zero, some float sums not exactly 1."""
    rng = np.random.default_rng(seed)
    sets = [AtomList(tuple((float(k + 1), 0.1) for k in range(10)))]  # sums to 0.9999999999999999
    while len(sets) < count:
        size = int(rng.integers(1, 10))
        probs = rng.random(size) * (rng.random(size) > 0.25)
        if probs.sum() == 0.0:
            continue
        probs /= probs.sum()
        values = rng.choice([-1.0, 1.0], size) * rng.uniform(0.1, 3.0, size)
        sets.append(AtomList(tuple(zip(values.tolist(), probs.tolist()))))
    return sets


def test_atom_draws_match_generator_choice_bitwise():
    # draw() searches a cdf built once; Generator.choice(p=...) builds the
    # same cdf per call and draws the same uniforms
    sets = atom_sets(3000)
    assert sum(p == 0.0 for atoms in sets for _, p in atoms.atoms) > 100
    assert sum(sum(p for _, p in atoms.atoms) != 1.0 for atoms in sets) > 100
    for k, atoms in enumerate(sets):
        values = np.array([v for v, _ in atoms.atoms])
        probs = np.array([p for _, p in atoms.atoms])
        count = k % 17
        ours, theirs = np.random.default_rng(k), np.random.default_rng(k)
        drawn = atoms.draw(ours, count)
        expected = values[theirs.choice(len(values), size=count, p=probs)]
        assert drawn.tobytes() == expected.tobytes(), k
        assert ours.random() == theirs.random(), k


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


# (config, n, T, seed) of the paths the writer test reads: an ItoSM path, a
# dense path on a grid that leaves jumps past its last full interval (and
# shares intervals), and a seed above 2^63
WRITTEN_PATHS = (
    (make_config(drift=0.2, vol_kind="ItoSM", intensity=3.0, tilde=(0.1, 0.2, 0.1),
                 size_dist=Uniform(-1.0, 1.0)), 64, 1.0, 31),
    (make_config(intensity=200.0, size_dist=Uniform(-1.0, 1.0)), 64, 1.37, 5),
    (make_config(drift=0.2, intensity=4.0, size_dist=TruncNormal(0.0, 1.0, 0.3)), 64, 1.0, 2**63 + 1),
)
# the path.json key of each jump-table column
JUMP_FIELDS = dict(zip(("time", "size", "sigma_pre", "sigma_post", "interval_index"), JUMP_COLUMNS))
PATH_HEAD = ("T", "n", "seed", "n_sigma_clamps")


def exact(values):
    """A list compared entry by entry exactly: NaN equals NaN, 0.0 differs from -0.0 and 1 from 1.0."""
    return [repr(v) for v in values]


def test_path_json_holds_every_array_and_the_model_exactly():
    itosm = past = shared = 0
    for cfg, n, T, seed in WRITTEN_PATHS:
        path = simulate_path(cfg, n, T, seed)
        doc = json.loads(path_to_json(path))
        assert (doc.pop("format"), doc.pop("version")) == ("uvstat.sample_path", 1)
        assert config_from_dict(doc.pop("model")) == path.config
        rows = doc.pop("jumps")
        assert all(row.keys() == JUMP_FIELDS.keys() for row in rows)
        for field, name in JUMP_FIELDS.items():
            assert exact(row[field] for row in rows) == exact(getattr(path, name).tolist()), name
        assert [doc.pop(name) for name in PATH_HEAD] == [getattr(path, name) for name in PATH_HEAD]
        assert sorted(doc) == ["sigma_grid", "w_before_jump", "w_increments", "x_grid"]
        for name, values in doc.items():
            assert exact(values) == exact(getattr(path, name).tolist()), name
        itosm += cfg.vol.kind == "ItoSM"
        past += bool((path.intervals > path.n_steps).any())
        shared += len(set(path.intervals.tolist())) < len(path.intervals)
    assert itosm and past and shared and path.seed == 2**63 + 1


def test_every_array_of_a_path_is_read_only():
    cfg = make_config(intensity=3.0)
    for draw, count in ((simulate_path, 9), (simulate_truth, 6)):
        path = draw(cfg, 64, 1.0, 5)
        arrays = [getattr(path, f.name) for f in dataclasses.fields(path)]
        arrays = [a for a in arrays if isinstance(a, np.ndarray)]
        assert len(arrays) == count and not any(a.flags.writeable for a in arrays)


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
    pres = []
    for p in range(n_jumps):
        idx = int(intervals[p])
        left = sigma[min(idx - 1, N)]
        if vol.kind == "ItoSM":
            pre = max(left + vol.tilde_b * (times[p] - (idx - 1) / n), vol.floor_eps)
        else:
            pre = left
        pres.append(float(pre))

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

    # the fields assert_same_path compares
    return SimpleNamespace(
        T=float(T),
        n=int(n),
        x_grid=x_grid,
        sigma_grid=sigma,
        w_increments=w_inc,
        times=times,
        sizes=sizes,
        sigma_pre=np.array(pres),
        sigma_post=np.array(pres),
        intervals=intervals,
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
    assert jump_columns(a) == jump_columns(b)
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
        intervals = path.intervals.tolist()
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
        intervals = path.intervals.tolist()
        shared += len(intervals) > len(set(intervals))
    if "dense" in model:
        assert shared > 0


def test_simulate_path_matches_scalar_oracle_over_the_clamp_budget(monkeypatch):
    cfg = ORACLE_MODELS["itosm_clamping"]
    for seed in range(20):
        for budget in (0, 3, 1000):
            monkeypatch.setattr(uvstat.simulate, "_CLAMP_BUDGET", budget)
            try:
                expected = _simulate_path_scalar(cfg, 257, 1.0, seed, clamp_budget=budget)
            except SimulationError as exc:
                with pytest.raises(SimulationError, match=re.escape(str(exc))):
                    simulate_path(cfg, 257, 1.0, seed)
            else:
                assert_same_path(simulate_path(cfg, 257, 1.0, seed), expected)


def _brownian_scalar(gen, n, N, times, intervals):
    """The scalar loop's Brownian fill: one normal draw per grid segment, W summed per interval."""
    w_inc = np.empty(N)
    w_before = np.full(len(times), np.nan)
    for i in range(1, N + 1):
        here = [p for p in range(len(times)) if intervals[p] == i]
        if not here:
            w_inc[i - 1] = gen.normal(0.0, math.sqrt(1.0 / n))
            continue
        cuts = [(i - 1) / n] + [times[p] for p in here] + [i / n]
        acc = 0.0
        for seg, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
            dt = b - a
            acc += gen.normal(0.0, math.sqrt(dt)) if dt > 0 else 0.0
            if seg < len(here):
                w_before[here[seg]] = acc
        w_inc[i - 1] = acc
    return w_inc, w_before


# (n, T, jump times) that random draws almost never produce
HAND_BUILT_SPLITS = {
    "on_grid_points": (8, 1.0, [0.25, 0.5, 0.5, 1.0]),
    "four_in_one_interval": (8, 1.0, [0.05, 0.4, 0.41, 0.45, 0.49, 0.9]),
    "past_the_last_interval": (4, 1.1, [0.3, 1.0, 1.05, 1.09]),
    "first_instant_and_fuzz": (8, 1.0, [1e-300, (3 + 5e-13) / 8, 0.7]),
    "no_jump_inside": (4, 1.1, [1.02]),
    "every_interval": (4, 1.0, [0.1, 0.2, 0.3, 0.6, 0.7, 0.8, 0.95, 1.0]),
}


@pytest.mark.parametrize("case", sorted(HAND_BUILT_SPLITS))
def test_brownian_split_matches_a_scalar_loop_on_hand_built_jumps(case):
    n, T, times = HAND_BUILT_SPLITS[case]
    times = np.array(times)
    N = _count(n, T)
    intervals = np.maximum(np.ceil(times * n - 1e-12).astype(int), 1)
    runs = _jump_runs(intervals, N)
    gen, ref_gen = np.random.default_rng(11), np.random.default_rng(11)
    w_inc, w_before = _brownian(gen, n, N, times, runs)
    ref_inc, ref_before = _brownian_scalar(ref_gen, n, N, times, intervals)
    assert (w_inc.tobytes(), w_before.tobytes()) == (ref_inc.tobytes(), ref_before.tobytes())
    assert gen.random() == ref_gen.random()  # the same number of draws
    inside = intervals[intervals <= N].tolist()
    expected = [(i, inside.index(i), len(inside) - inside[::-1].index(i)) for i in sorted(set(inside))]
    assert runs == expected


def test_hand_built_splits_cover_the_edge_cases():
    dts_zero = many = past = 0
    for n, T, times in HAND_BUILT_SPLITS.values():
        intervals = np.maximum(np.ceil(np.array(times) * n - 1e-12).astype(int), 1)
        counts = np.bincount(intervals)
        many += counts.max() >= 3
        past += (intervals > _count(n, T)).any()
        dts_zero += any(t * n == round(t * n) for t in times)
    assert dts_zero and many and past


def test_jump_neighborhood_matches_a_scan_of_every_jump():
    cfg = ORACLE_MODELS["constant_dense"]
    checked = shared = refused = 0
    for seed, (n, T) in enumerate([(64, 1.0), (64, 1.37), (257, 1.0), (7, 1.0)]):
        path = simulate_path(cfg, n, T, seed)
        times, sizes, intervals = path.times.tolist(), path.sizes.tolist(), path.intervals.tolist()
        for p, i in enumerate(intervals):
            if i > path.n_steps:
                with pytest.raises(SimulationError, match="past the last full grid interval"):
                    jump_neighborhood(path, p)
                refused += 1
                continue
            others = [q for q, other in enumerate(intervals) if other == i and q != p]
            earlier = 0.0
            for q in others:
                if q < p:
                    earlier += sizes[q]
            pre = (
                path.config.drift_b * (times[p] - (i - 1) / n)
                + path.sigma_grid[i - 1] * path.w_before_jump[p]
                + earlier
            )
            r_minus = math.sqrt(n) * pre
            r_plus = math.sqrt(n) * (path.x_grid[i] - path.x_grid[i - 1] - pre - sizes[p])
            nb = jump_neighborhood(path, p)
            assert nb.shared_interval == bool(others)
            assert (nb.r_minus, nb.r_plus, nb.r) == (r_minus, r_plus, r_minus + r_plus)
            checked += 1
            shared += bool(others)
    assert checked > 300 and shared > 100 and refused > 0


# ---------------------------------------------------------------------------
# the ground-truth stage alone
# ---------------------------------------------------------------------------


def _truth_bytes(p):
    """Every ground-truth field, floats as bytes so that -0.0 and NaN payloads count."""
    *columns, intervals = jump_columns(p)
    return (
        p.T, p.n, p.seed, p.config, p.n_sigma_clamps, p.n_steps,
        p.sigma_grid.dtype, p.sigma_grid.shape, p.sigma_grid.tobytes(),
        np.array(columns, dtype=float).tobytes(),
        intervals,
    )


@pytest.mark.parametrize("model", sorted(ORACLE_MODELS))
def test_ground_truth_alone_matches_simulate_path(model):
    cfg = ORACLE_MODELS[model]
    no_jumps = shared = past_grid = 0
    for seed in range(60):
        n, T = ORACLE_GRIDS[seed % len(ORACLE_GRIDS)]
        truth, path = simulate_truth(cfg, n, T, seed), simulate_path(cfg, n, T, seed)
        assert type(truth) is GroundTruth and isinstance(path, GroundTruth)
        assert _truth_bytes(truth) == _truth_bytes(path)
        assert jump_columns(truth) == jump_columns(path)
        assert truth.window() == path.window() and truth.clamped == path.clamped
        intervals = truth.intervals.tolist()
        no_jumps += not intervals
        shared += len(intervals) > len(set(intervals))
        past_grid += any(i > truth.n_steps for i in intervals)
    assert past_grid > 0
    if "dense" in model:
        assert shared > 0
    else:
        assert no_jumps > 0


def test_ground_truth_over_the_clamp_budget_raises_as_simulate_path(monkeypatch):
    # simulate_truth runs the ground-truth stage at the same clamp budget
    # as simulate_path, and raises where it does
    monkeypatch.setattr(uvstat.simulate, "_CLAMP_BUDGET", 3)
    cfg = ORACLE_MODELS["itosm_clamping"]
    raised = 0
    for seed in range(20):
        try:
            path = simulate_path(cfg, 257, 1.0, seed)
        except SimulationError as exc:
            raised += 1
            with pytest.raises(SimulationError, match=re.escape(str(exc))):
                simulate_truth(cfg, 257, 1.0, seed)
        else:
            assert _truth_bytes(simulate_truth(cfg, 257, 1.0, seed)) == _truth_bytes(path)
    assert raised > 0


@pytest.mark.parametrize(
    "model, observe, opened",
    [
        ("constant", False, [0]),
        ("constant", True, [0, 1]),
        ("itosm", False, [0, 1, 2]),
        ("itosm", True, [0, 1, 2]),
    ],
)
def test_each_stage_opens_only_the_substreams_it_reads(monkeypatch, model, observe, opened):
    # substreams: 0 jumps, 1 W, 2 V; an ItoSM sigma reads W, and the
    # observation reuses those draws
    seen = []
    substream = uvstat.simulate._substream

    def spy(seed, index):
        seen.append(index)
        return substream(seed, index)

    monkeypatch.setattr(uvstat.simulate, "_substream", spy)
    draw = simulate_path if observe else simulate_truth
    draw(ORACLE_MODELS[model], 64, 1.0, 5)
    assert sorted(seen) == opened


def test_substream_spawn_key_equals_spawn():
    wide = np.random.SeedSequence(2015).generate_state(500, np.uint64)
    seeds = list(range(500)) + [int(s) for s in wide]  # small ints and derive_seed-like 64-bit
    for seed in seeds:
        children = np.random.SeedSequence(seed).spawn(3)
        for i, child in enumerate(children):
            direct = np.random.SeedSequence(seed, spawn_key=(i,))
            assert np.array_equal(direct.generate_state(8), child.generate_state(8)), (seed, i)


def test_observation_readers_refuse_a_ground_truth():
    truth = simulate_truth(make_config(intensity=3.0), n=64, T=1.0, seed=5)
    assert len(truth.times)
    for reader in (lambda: jump_neighborhood(truth, 0), lambda: increments(truth),
                   lambda: path_to_json(truth)):
        with pytest.raises(AttributeError):
            reader()


# ---------------------------------------------------------------------------
# metamorphic: every scale parameter doubled on the same seed
# ---------------------------------------------------------------------------


def _doubled(cfg):
    """cfg with every scale doubled: sigma0, the ItoSM coefficients, floor_eps, the jump sizes,
    max_abs and bound_A."""
    vol, jumps = cfg.vol, cfg.jumps
    dist = jumps.size_dist
    if isinstance(dist, AtomList):
        dist = AtomList(tuple((2.0 * v, p) for v, p in dist.atoms))
    else:
        dist = Uniform(2.0 * dist.a, 2.0 * dist.b)
    return dataclasses.replace(
        cfg,
        vol=dataclasses.replace(
            vol,
            sigma0=2.0 * vol.sigma0,
            tilde_b=2.0 * vol.tilde_b,
            tilde_sigma=2.0 * vol.tilde_sigma,
            tilde_v=2.0 * vol.tilde_v,
            floor_eps=2.0 * vol.floor_eps,
        ),
        jumps=dataclasses.replace(jumps, size_dist=dist, max_abs=2.0 * jumps.max_abs),
        bound_A=2.0 * cfg.bound_A,
    )


def assert_doubles(cfg, n, T, seed):
    """X, sigma and the jump sizes and sigmas double bit for bit; times, intervals and W stay."""
    a, b = simulate_path(cfg, n, T, seed), simulate_path(_doubled(cfg), n, T, seed)
    for name in ("x_grid", "sigma_grid", "sizes", "sigma_pre", "sigma_post"):
        assert (2.0 * getattr(a, name)).tobytes() == getattr(b, name).tobytes(), name
    for name in ("times", "intervals", "w_increments", "w_before_jump"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a.n_sigma_clamps == b.n_sigma_clamps
    return a


@st.composite
def scalable_models(draw):
    """A zero-drift model, Constant or ItoSM, with AtomList jumps; and a grid and seed."""
    itosm = draw(st.booleans())
    coef = st.floats(-2.0, 2.0, allow_nan=False)
    vol = VolatilityModel(
        kind="ItoSM" if itosm else "Constant",
        sigma0=draw(st.floats(0.05, 3.0)),
        tilde_b=draw(coef) if itosm else 0.0,
        tilde_sigma=draw(coef) if itosm else 0.0,
        tilde_v=draw(coef) if itosm else 0.0,
        floor_eps=draw(st.floats(1e-4, 0.5)),
    )
    values = draw(st.lists(st.floats(0.01, 3.0) | st.floats(-3.0, -0.01), min_size=1, max_size=3))
    atoms = tuple((v, 1.0 / len(values)) for v in values)
    jumps = JumpModel(intensity=draw(st.sampled_from([0.0, 3.0, 60.0])),
                      size_dist=AtomList(atoms), max_abs=3.0)
    n, T = draw(st.sampled_from(ORACLE_GRIDS))
    return ModelConfig(0.0, vol, jumps, bound_A=5.0), n, T, draw(st.integers(0, 2**64 - 1))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=scalable_models())
def test_doubling_every_scale_doubles_the_path_bit_for_bit(case):
    assert_doubles(*case)


@pytest.mark.parametrize("model", ["constant_dense", "itosm_clamping", "itosm_dense"])
def test_doubling_every_scale_doubles_the_oracle_models(model):
    # the drift-free oracle models: shared intervals, past-grid jumps, clamps
    paths = [assert_doubles(ORACLE_MODELS[model], *ORACLE_GRIDS[s % 5], s) for s in range(10)]
    if model == "itosm_clamping":
        assert sum(p.clamped for p in paths) > 5
