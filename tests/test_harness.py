"""Experiment harness: seeding, plan validation, reproducibility."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import ks_2samp

import uvstat.harness
import uvstat.kernels
import uvstat.limits
import uvstat.seeding
import uvstat.simulate

from uvstat.harness import (
    _S_PATH,
    _S_PATH2,
    ExperimentPlan,
    HarnessError,
    _find_path_with_jumps,
    _order_stats,
    derive_seed,
    grid_scan,
    run_clt,
    run_lln,
    run_plan,
    run_rnp_check,
    run_ztrunc,
)
from uvstat.kernels import Factor1D, KernelSpec, Sum, grid_test_kernel, kernel_from_text
from uvstat.simulate import (
    AtomList,
    JumpModel,
    ModelConfig,
    SimulationError,
    Uniform,
    VolatilityModel,
    simulate_path,
    simulate_truth,
)

from test_limits import synthetic_path
from test_simulate import jump_columns

K1 = KernelSpec(d=1, l=1, p=(4.0,), regime="JumpCLT")
KMIX = KernelSpec(d=2, l=1, p=(0.5,), q=(4.0,), regime="MixedCLT")


def model(intensity=5.0, sigma0=1.0, sizes=((1.0, 0.5), (-1.0, 0.5))):
    return ModelConfig(
        drift_b=0.0,
        vol=VolatilityModel(kind="Constant", sigma0=sigma0),
        jumps=JumpModel(intensity=intensity, size_dist=AtomList(sizes), max_abs=3.0),
        bound_A=10.0,
    )


def pure_jump_model(intensity=5.0):
    return ModelConfig(
        drift_b=0.0,
        vol=VolatilityModel(kind="Constant", sigma0=1e-12),
        jumps=JumpModel(
            intensity=intensity, size_dist=AtomList(((1.0, 0.5), (-1.0, 0.5))), max_abs=3.0
        ),
        bound_A=10.0,
    )


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------


def test_derive_seed_no_collisions():
    seen = set()
    for stream in range(4):
        for n in (512, 1024):
            for r in range(500):
                seen.add(derive_seed(123, stream, n, r))
    assert len(seen) == 4 * 2 * 500


# ---------------------------------------------------------------------------
# plan validation
# ---------------------------------------------------------------------------


def test_plan_rejects_bad_inputs():
    with pytest.raises(HarnessError):
        ExperimentPlan("LLN", model(), K1, 1.0, (512, 256), 10, 1)
    with pytest.raises(HarnessError):
        ExperimentPlan("LLN", model(), K1, 1.0, (512,), 0, 1)
    with pytest.raises(HarnessError):
        ExperimentPlan("BOGUS", model(), K1, 1.0, (512,), 10, 1)
    with pytest.raises(HarnessError):
        ExperimentPlan("GRID", model(), grid_test_kernel(1.0), 1.0, (512,), 10, 1)
    with pytest.raises(HarnessError, match=r"n_list entry 1 has no grid step at t = 0.5"):
        ExperimentPlan("LLN", model(), K1, 0.5, (1, 4), 10, 1)
    with pytest.raises(HarnessError, match="^n_list must not be empty$"):
        ExperimentPlan("LLN", model(), K1, 1.0, (), 10, 1)
    with pytest.raises(HarnessError, match="^CLT_mixed experiments need a kernel$"):
        ExperimentPlan("CLT_mixed", model(), None, 1.0, (512,), 10, 1)


def test_plan_rejects_inadmissible_kernel():
    bad = KernelSpec(d=1, l=1, p=(2.5,), regime="JumpCLT")
    with pytest.raises(HarnessError, match="admissibility"):
        ExperimentPlan("CLT_jump", model(), bad, 1.0, (512,), 10, 1)


def test_plan_rejects_regime_kind_mismatch():
    with pytest.raises(HarnessError, match="regime"):
        ExperimentPlan("CLT_mixed", model(), K1, 1.0, (512,), 10, 1)


# ---------------------------------------------------------------------------
# LLN
# ---------------------------------------------------------------------------


def test_run_lln_pure_jump_exact():
    # sigma ~ 0: the statistic telescopes to the jump sum whenever each
    # interval holds at most one jump
    plan = ExperimentPlan("LLN", pure_jump_model(), K1, 1.0, (256,), 30, base_seed=11)
    rep = run_lln(plan)
    for row in rep.rows:
        if row["n_collisions"] == 0:
            assert abs(row["error"]) < 1e-9


def test_collision_count_reads_only_the_grid_intervals():
    # n t = 87.68: the jumps past the last full interval share index 88,
    # which no statistic reads, so they are no collision
    cfg = ModelConfig(
        drift_b=0.0,
        vol=VolatilityModel(kind="Constant", sigma0=1.0),
        jumps=JumpModel(intensity=200.0, size_dist=Uniform(-1.0, 1.0), max_abs=3.0),
        bound_A=1e9,
    )
    path = simulate_path(cfg, 64, 1.37, 4)
    grid = [i for i in path.intervals.tolist() if i <= path.n_steps]
    shared = sum(1 for i in set(grid) if grid.count(i) > 1)
    assert (path.n_steps, shared) == (87, 73)
    assert np.count_nonzero(path.intervals > path.n_steps) > 1
    assert uvstat.harness._collision_count(path) == shared


def test_run_lln_errors_decrease():
    plan = ExperimentPlan(
        "LLN", model(), KernelSpec(d=2, l=2, p=(4.0, 4.0), regime="JumpCLT"),
        1.0, (128, 512, 2048), 60, base_seed=13,
    )
    rep = run_lln(plan)
    med = [rep.tables["per_n"][str(n)]["abs_error"]["median"] for n in plan.n_list]
    assert med[2] < med[0]
    assert -0.9 < rep.tables["log_log_slope"] < -0.2


# ---------------------------------------------------------------------------
# CLT
# ---------------------------------------------------------------------------


def test_run_clt_jump_small():
    plan = ExperimentPlan("CLT_jump", model(), K1, 1.0, (1024,), 200, base_seed=17)
    rep = run_clt(plan)
    table = rep.tables["per_n"]["1024"]
    assert table["ks_pvalue"] > 0.01
    assert 0.7 < table["z_var"] < 1.3
    assert table["two_sample_ks_pvalue"] > 0.01


def test_run_clt_degenerate_no_jumps():
    plan = ExperimentPlan("CLT_jump", model(intensity=0.0), K1, 1.0, (256,), 20, base_seed=19)
    rep = run_clt(plan)
    table = rep.tables["per_n"]["256"]
    assert table["excluded"] == 20
    assert table["degenerate"] == "no-jump degenerate"


def test_run_clt_draws_drop_their_own_atom_at_zero():
    # H = x^4 (3 - 2 x^2) has H'(1) = H'(-1) = 0: a path whose jumps are all +-1
    # has conditional variance 0, so both samples drop it, the draws by value
    kernel = kernel_from_text("d=1 l=1 p=4.0 q=- regime=JumpCLT L=(poly_even 0 3.0 -2.0)")
    sizes = ((1.0, 0.4), (-1.0, 0.4), (2.0, 0.2))
    plan = ExperimentPlan("CLT_jump", model(2.0, sizes=sizes), kernel, 1.0, (4096,), 400, base_seed=5)
    report = run_clt(plan)
    table = report.tables["per_n"]["4096"]
    assert [row["limit_draw"] for row in report.rows if not row["draw_excluded"]].count(0.0) == 0
    assert table["draw_excluded"] == [row["limit_draw"] for row in report.rows].count(0.0)
    assert table["two_sample_ks_pvalue"] > 0.01


def test_run_clt_mixed_small():
    # lower jump intensity: the scaled block sees each jump interval at an
    # n^{-1/4} rate, which is the bias floor of the mixed-case CLT
    plan = ExperimentPlan("CLT_mixed", model(intensity=2.0), KMIX, 1.0, (2048,), 120, base_seed=23)
    rep = run_clt(plan)
    table = rep.tables["per_n"]["2048"]
    assert table["ks_pvalue"] > 0.01
    assert 0.7 < table["z_var"] < 1.3
    assert table["two_sample_ks_pvalue"] > 0.01


# ---------------------------------------------------------------------------
# RNP
# ---------------------------------------------------------------------------


def test_run_rnp_check():
    plan = ExperimentPlan("RNP", model(intensity=2.0), None, 1.0, (1024,), 400, base_seed=29)
    rep = run_rnp_check(plan)
    table = rep.tables["per_n"]["1024"]
    assert table["ks_pvalue"] > 0.01


def test_run_rnp_degenerate_zero_sigma_drift():
    # sigma ~ 0, b = 0: both samples are (numerically) zero
    plan = ExperimentPlan("RNP", pure_jump_model(2.0), None, 1.0, (256,), 50, base_seed=31)
    rep = run_rnp_check(plan)
    a = [r["r_discrete"] for r in rep.rows if r["r_discrete"] is not None]
    b = [r["r_limit"] for r in rep.rows if r["r_limit"] is not None]
    assert max(abs(v) for v in a) < 1e-6
    assert max(abs(v) for v in b) < 1e-6


# ---------------------------------------------------------------------------
# grid scan
# ---------------------------------------------------------------------------


def test_grid_scan_lattice_ground_truth():
    # jumps on 0.5 + 1.0 Z: the exact limit vanishes at beta = 1
    path = synthetic_path([0.5, 1.5, 2.5, -0.5], n=512)
    rep = grid_scan(path, beta_grid=(0.7, 1.0), t=1.0)
    by_beta = {row["beta"]: row for row in rep.rows}
    assert by_beta[1.0]["limit"] == pytest.approx(0.0, abs=1e-20)
    assert by_beta[0.7]["limit"] > 0.0
    # direct evaluation of the limit sum at beta = 0.7
    direct = sum(
        abs(a) ** 4 * abs(b) ** 4 * math.sin(math.pi * (a - b) / 0.7) ** 2
        for a in (0.5, 1.5, 2.5, -0.5)
        for b in (0.5, 1.5, 2.5, -0.5)
    )
    assert by_beta[0.7]["limit"] == pytest.approx(direct, rel=1e-12)


def test_grid_scan_brownian_statistic_shrinks():
    from uvstat.simulate import simulate_path

    vals = {}
    for n in (256, 2048):
        path = simulate_path(model(intensity=0.0), n, 1.0, seed=3)
        rep = grid_scan(path, beta_grid=(1.0,), t=1.0)
        vals[n] = rep.rows[0]["statistic"]
    assert vals[2048] < vals[256]


def test_grid_scan_normalized_is_scale_free():
    # doubling the data and beta multiplies the power-4 statistic by 2^8, and
    # the envelope (sum |Delta X|^4)^2 / 2 by the same factor
    data = 0.3 * np.random.default_rng(7).standard_normal(40)
    betas = (0.5, 0.75, 1.0)
    rep = grid_scan(data, beta_grid=betas)
    rep2 = grid_scan(2.0 * data, beta_grid=tuple(2.0 * b for b in betas))
    for row, row2 in zip(rep.rows, rep2.rows):
        assert row2["statistic"] == pytest.approx(256.0 * row["statistic"], rel=1e-12)
        assert row2["normalized"] == pytest.approx(row["normalized"], rel=1e-12)
    assert rep2.tables["beta_min_normalized"] == 2.0 * rep.tables["beta_min_normalized"]


def test_grid_scan_rejects_bad_beta():
    path = synthetic_path([0.5])
    with pytest.raises(HarnessError):
        grid_scan(path, beta_grid=(0.0, 1.0))


def grid_plan(cfg, require_jumps, base_seed=5):
    return ExperimentPlan(
        "GRID", cfg, None, 1.0, (64,), 1, base_seed=base_seed, beta_grid=(1.0,),
        require_jumps=require_jumps,
    )


def test_find_path_with_jumps_matches_a_simulated_search():
    # the jump-count rejection picks the seed a search over simulated paths picks
    cfg = model(intensity=3.0)
    for require_jumps in (None, 1, 4, 9):
        for base_seed in (5, 91):
            plan = grid_plan(cfg, require_jumps, base_seed)
            k = 0
            while True:
                expected = simulate_path(cfg, 64, 1.0, derive_seed(base_seed, _S_PATH, 64, k))
                if require_jumps is None or len(expected.times) == require_jumps:
                    break
                k += 1
            path = _find_path_with_jumps(plan, 64)
            assert path.seed == expected.seed
            assert np.array_equal(path.x_grid, expected.x_grid)
            assert jump_columns(path) == jump_columns(expected)


def test_find_path_with_jumps_gives_up_after_10000_seeds():
    with pytest.raises(HarnessError, match="no path with exactly 1 jumps found in 10000 seeds"):
        _find_path_with_jumps(grid_plan(model(intensity=0.0), 1), 64)


# ---------------------------------------------------------------------------
# order statistics
# ---------------------------------------------------------------------------


def numpy_order_stats(values) -> dict:
    x = np.array(values, dtype=float)
    with np.errstate(all="ignore"):  # a sum of two middle values may overflow
        return {
            "median": float(np.median(x)),
            "q25": float(np.quantile(x, 0.25)),
            "q75": float(np.quantile(x, 0.75)),
        }


def as_hex(stats: dict) -> dict:
    """Each value by float.hex, so bits are compared and NaN equals NaN."""
    return {key: float.hex(value) for key, value in stats.items()}


# +0.0, subnormals, the smallest normal, values whose pairwise sum overflows, +inf
EDGE_VALUES = (0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 1e308, 1.7976931348623157e308, math.inf)
# the helper reads absolute values only, whose zeros are all +0.0
ABS_FLOATS = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(min_value=0.0), st.floats(0.0, 4.0))


@st.composite
def order_stat_inputs(draw):
    """1 to 64 non-negative floats with ties, edge values and, one time in ten, a NaN."""
    pool = draw(st.lists(ABS_FLOATS, min_size=1, max_size=6))
    values = draw(st.lists(st.sampled_from(pool) | ABS_FLOATS, min_size=1, max_size=64))
    if draw(st.integers(0, 9)) == 0:
        values[draw(st.integers(0, len(values) - 1))] = math.nan
    return values


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(values=order_stat_inputs())
def test_order_stats_match_numpy_bit_for_bit(values):
    assert as_hex(_order_stats(values)) == as_hex(numpy_order_stats(values))


# every size the helper meets in a plan of up to 64 reps, odd n and
# n = 1 (mod 4), where a quartile falls on a value, among them
@pytest.mark.parametrize("n", range(1, 65))
def test_order_stats_match_numpy_at_every_size(n):
    rng = np.random.default_rng(n)
    pool = np.concatenate([EDGE_VALUES, rng.exponential(size=4)])
    for values in (rng.choice(pool, n), rng.exponential(size=n), np.full(n, math.inf)):
        assert list(_order_stats(values)) == ["median", "q25", "q75"]
        assert as_hex(_order_stats(values)) == as_hex(numpy_order_stats(values))
    with_nan = rng.exponential(size=n)
    with_nan[rng.integers(n)] = math.nan
    assert as_hex(_order_stats(with_nan)) == {"median": "nan", "q25": "nan", "q75": "nan"}
    assert as_hex(numpy_order_stats(with_nan)) == {"median": "nan", "q25": "nan", "q75": "nan"}


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------


def test_run_ztrunc_monotone():
    plan = ExperimentPlan(
        "ZTRUNC",
        model(intensity=10.0, sizes=None) if False else ModelConfig(
            drift_b=0.0,
            vol=VolatilityModel(kind="Constant", sigma0=1.0),
            jumps=JumpModel(intensity=10.0, size_dist=Uniform(0.5, 2.0), max_abs=2.5),
            bound_A=10.0,
        ),
        K1,
        1.0,
        (256,),
        200,
        base_seed=37,
        m_list=(0, 2, 5, 8, 12),
        require_jumps=12,
    )
    rep = run_ztrunc(plan)
    assert rep.tables["n_jumps"] == 12
    assert rep.tables["nonincreasing"]
    assert rep.tables["median_gap"]["12"] == 0.0


def test_run_ztrunc_on_a_first_path_without_jumps_fails():
    # with require_jumps null the plan takes the first seed's path, here jump-free
    plan = ExperimentPlan("ZTRUNC", model(intensity=0.001), K1, 1.0, (64,), 3, base_seed=1)
    with pytest.raises(HarnessError, match="^truncation experiment needs a path with jumps$"):
        run_ztrunc(plan)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_lln_report_reproducible():
    plan = ExperimentPlan("LLN", model(), K1, 1.0, (128, 256), 15, base_seed=43)
    a = run_plan(plan).to_json()
    b = run_plan(plan).to_json()
    assert a == b


def test_rate_sanity_log_log_slope():
    # CLT-valid jump regime: LLN errors shrink at the sqrt(n) rate
    plan = ExperimentPlan("LLN", model(), K1, 1.0, (512, 2048, 8192), 200, base_seed=72)
    rep = run_lln(plan)
    assert -0.65 < rep.tables["log_log_slope"] < -0.35


def test_rnp_distance_decreases_with_n():
    # with drift and stochastic volatility R(n,p) only approaches the
    # extension-space law as n grows; at b=0 and constant sigma the two
    # laws coincide exactly for every n
    m = ModelConfig(
        drift_b=2.0,
        vol=VolatilityModel(kind="ItoSM", sigma0=1.0, tilde_sigma=0.5, tilde_v=0.5),
        jumps=JumpModel(
            intensity=2.0, size_dist=AtomList(((1.0, 0.5), (-1.0, 0.5))), max_abs=3.0
        ),
        bound_A=10.0,
    )
    medians = {}
    for n in (16, 4096):
        plan = ExperimentPlan("RNP", m, None, 1.0, (n,), 1500, base_seed=53)
        rows = run_rnp_check(plan).rows
        a = np.array([r["r_discrete"] for r in rows if r["r_discrete"] is not None])
        b = np.array([r["r_limit"] for r in rows if r["r_limit"] is not None])
        medians[n] = np.median(
            [ks_2samp(a[k::5], b[k::5], method="asymp").statistic for k in range(5)]
        )
    assert medians[4096] < medians[16]


def itosm_model():
    return ModelConfig(
        drift_b=0.0,
        vol=VolatilityModel(kind="ItoSM", sigma0=1.0, tilde_sigma=0.2, tilde_v=0.2),
        jumps=JumpModel(intensity=3.0, size_dist=AtomList(((1.0, 0.5), (-1.0, 0.5))), max_abs=3.0),
        bound_A=10.0,
    )


@pytest.mark.parametrize(
    "kind, kernel, vol, fills_per_rep",
    [
        ("CLT_mixed", KMIX, "Constant", 1),
        ("CLT_jump", K1, "Constant", 1),
        ("RNP", None, "Constant", 1),
        # an ItoSM sigma reads W, so the limit-law path draws it too; the
        # observed path's observation reuses its own stage's draws
        ("CLT_mixed", KMIX, "ItoSM", 2),
        ("RNP", None, "ItoSM", 2),
    ],
)
def test_limit_law_path_draws_no_brownian_fill(monkeypatch, kind, kernel, vol, fills_per_rep):
    # each fill is identified by the fresh state of the W generator it reads
    fills = []
    brownian = uvstat.simulate._brownian

    def spy(w_gen, *args):
        fills.append(w_gen.bit_generator.state["state"]["state"])
        return brownian(w_gen, *args)

    monkeypatch.setattr(uvstat.simulate, "_brownian", spy)
    m = model(intensity=3.0) if vol == "Constant" else itosm_model()
    plan = ExperimentPlan(kind, m, kernel, 1.0, (32, 64), 3, base_seed=9)
    run_plan(plan)
    assert len(fills) == fills_per_rep * 2 * 3
    observed = {
        np.random.PCG64(np.random.SeedSequence(derive_seed(9, _S_PATH, n, r), spawn_key=(1,)))
        .state["state"]["state"]
        for n in (32, 64)
        for r in range(3)
    }
    assert observed <= set(fills)


@pytest.mark.parametrize("vol", ["Constant", "ItoSM"])
@pytest.mark.parametrize(
    "kind, kernel", [("LLN", K1), ("CLT_jump", K1), ("CLT_mixed", KMIX), ("RNP", None)]
)
def test_each_n_costs_three_seed_passes_and_no_seed_sequence(monkeypatch, kind, kernel, vol):
    # the seed table of one n: the derive_seed rows of all four streams,
    # the substream states of both paths, the augmentation and field states;
    # a rep hashes nothing
    passes, sequences = [], []
    seed_states = uvstat.seeding.seed_states

    def counted_states(rows, n_words):
        passes.append(rows.shape)
        return seed_states(rows, n_words)

    class CountedSequence(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            sequences.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(uvstat.seeding, "seed_states", counted_states)
    m = model(intensity=3.0) if vol == "Constant" else itosm_model()
    plan = ExperimentPlan(kind, m, kernel, 1.0, (32, 64), 3, base_seed=5)
    monkeypatch.setattr(np.random, "SeedSequence", CountedSequence)
    run_plan(plan)
    assert passes == [(4 * 3, 4), (2 * 3 * 3, 5), (2 * 3, 2)] * 2
    assert sequences == []


def bounded_model():
    return ModelConfig(
        drift_b=0.0,
        vol=VolatilityModel(kind="Constant", sigma0=1.0),
        jumps=JumpModel(intensity=3.0, size_dist=AtomList(((1.0, 0.5), (-1.0, 0.5))), max_abs=2.0),
        bound_A=3.0,
        reject_bound_excursions=True,
    )


def _breaks_bound(cfg, n, seed):
    try:
        simulate_path(cfg, n, 1.0, seed)
    except SimulationError:
        return True
    return False


@pytest.mark.parametrize("kind, kernel", [("CLT_mixed", KMIX), ("CLT_jump", K1), ("RNP", None)])
def test_bound_excursions_are_checked_on_the_observed_path_only(kind, kernel):
    # the limit-law path is drawn as ground truth alone, with no X grid:
    # at base seed 33 every observed path keeps |X| <= bound_A, three
    # limit-law paths would not, and the plan still runs
    cfg = bounded_model()
    keys = [(n, r) for n in (32, 64) for r in range(3)]
    assert not any(_breaks_bound(cfg, n, derive_seed(33, _S_PATH, n, r)) for n, r in keys)
    assert sum(_breaks_bound(cfg, n, derive_seed(33, _S_PATH2, n, r)) for n, r in keys) == 3
    report = run_plan(ExperimentPlan(kind, cfg, kernel, 1.0, (32, 64), 3, base_seed=33))
    assert [(row["n"], row["rep"]) for row in report.rows] == keys
    # an observed path out of bounds still stops the plan
    assert any(_breaks_bound(cfg, n, derive_seed(2, _S_PATH, n, r)) for n, r in keys)
    with pytest.raises(SimulationError, match="bound_A"):
        run_plan(ExperimentPlan(kind, cfg, kernel, 1.0, (32, 64), 3, base_seed=2))


def test_clt_mixed_plan_expands_once_and_reads_each_path_once(monkeypatch):
    calls = {"sep_terms": 0, "separable_terms": 0, "truths": 0, "paths": 0, "ground_truths": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # the kernel's top-level L node (a Sum), the expansion, the path contexts,
    # the observed paths and the limit-law paths drawn as ground truth alone,
    # counted from the kernel's construction on
    monkeypatch.setattr(Sum, "sep_terms", counted("sep_terms", Sum.sep_terms))
    monkeypatch.setattr(
        uvstat.kernels, "separable_terms", counted("separable_terms", uvstat.kernels.separable_terms)
    )
    monkeypatch.setattr(
        uvstat.limits.Context, "__init__", counted("truths", uvstat.limits.Context.__init__)
    )
    monkeypatch.setattr(
        uvstat.harness._RepSeeds, "path", counted("paths", uvstat.harness._RepSeeds.path)
    )
    monkeypatch.setattr(
        uvstat.harness._RepSeeds, "truth", counted("ground_truths", uvstat.harness._RepSeeds.truth)
    )
    kernel = kernel_from_text(
        "d=3 l=1 p=0.5 q=4.0,4.0 regime=MixedCLT L=(sum (grid_sin 1.0 1 2) (gauss_bump 0.5 0))"
    )
    plan = ExperimentPlan(
        kind="CLT_mixed", model=model(intensity=3.0), kernel=kernel, t=1.0,
        n_list=(32, 64), reps=4, base_seed=3,
    )
    first = run_plan(plan)
    assert calls == {
        "sep_terms": 1, "separable_terms": 1, "truths": 16, "paths": 8, "ground_truths": 8
    }
    # the compiled view stays with the kernel: a second run expands nothing
    again = run_plan(plan)
    assert calls == {
        "sep_terms": 1, "separable_terms": 1, "truths": 32, "paths": 16, "ground_truths": 16
    }
    assert again.to_json() == first.to_json()


@pytest.mark.parametrize("vol", ["Constant", "ItoSM"])
def test_constant_grid_moments_are_evaluated_once_per_factor_per_n(monkeypatch, vol):
    # KMIX integrates |x|^0.5 and, in the field covariance, its square |x|^1.
    # On a constant grid every path of one n shares them, observed or drawn
    # from the limit law; an ItoSM grid evaluates them per path, at every sigma
    calls = []
    moment = Factor1D.gaussian_moment_vec

    def counted(self, sigmas):
        calls.append((self.power, len(sigmas)))
        return moment(self, sigmas)

    monkeypatch.setattr(Factor1D, "gaussian_moment_vec", counted)
    cfg = model(intensity=3.0) if vol == "Constant" else itosm_model()
    # a fresh kernel: the kernel keeps the constant-grid moments it evaluates
    plan = ExperimentPlan("CLT_mixed", cfg, replace(KMIX), 1.0, (32, 64), 4, base_seed=3)
    run_plan(plan)
    if vol == "Constant":
        assert calls == [(0.5, 1), (1.0, 1), (0.5, 1), (1.0, 1)]
        return
    with_jumps = [
        n
        for n in plan.n_list
        for r in range(plan.reps)
        for path in (
            simulate_path(cfg, n, 1.0, derive_seed(3, _S_PATH, n, r)),
            simulate_truth(cfg, n, 1.0, derive_seed(3, _S_PATH2, n, r)),
        )
        if len(path.times)
    ]
    assert len(with_jumps) > 8
    assert sorted(calls) == sorted((p, n) for n in with_jumps for p in (0.5, 1.0))


def test_a_second_plan_run_on_one_kernel_evaluates_no_constant_grid_moment(monkeypatch):
    # the kernel keeps the weights of each grid and, per constant sigma, the
    # moments and the field, so a second run reads every one of them from it
    calls = []
    moment = Factor1D.gaussian_moment_vec

    def counted(self, sigmas):
        calls.append((self.power, len(sigmas)))
        return moment(self, sigmas)

    monkeypatch.setattr(Factor1D, "gaussian_moment_vec", counted)
    plan = ExperimentPlan(
        "CLT_mixed", model(intensity=3.0), replace(KMIX), 1.0, (32, 64), 4, base_seed=3
    )
    first = run_plan(plan).to_json()
    assert calls == [(0.5, 1), (1.0, 1), (0.5, 1), (1.0, 1)]
    assert run_plan(plan).to_json() == first
    assert len(calls) == 4
