"""Experiment harness: seeding, plan validation, reproducibility."""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

import uvstat.harness
import uvstat.kernels
import uvstat.limits

from uvstat.harness import (
    _S_PATH,
    ExperimentPlan,
    HarnessError,
    _find_path_with_jumps,
    derive_seed,
    grid_scan,
    run_clt,
    run_lln,
    run_plan,
    run_rnp_check,
    run_ztrunc,
)
from uvstat.kernels import KernelSpec, Sum, grid_test_kernel, kernel_from_text
from uvstat.simulate import (
    AtomList,
    JumpModel,
    ModelConfig,
    Uniform,
    VolatilityModel,
    simulate_path,
)

from test_limits import synthetic_path

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
                if require_jumps is None or len(expected.jumps) == require_jumps:
                    break
                k += 1
            path = _find_path_with_jumps(plan, 64)
            assert path.seed == expected.seed
            assert np.array_equal(path.x_grid, expected.x_grid)
            assert path.jumps == expected.jumps


def test_find_path_with_jumps_gives_up_after_10000_seeds():
    with pytest.raises(HarnessError, match="no path with exactly 1 jumps found in 10000 seeds"):
        _find_path_with_jumps(grid_plan(model(intensity=0.0), 1), 64)


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


def test_clt_mixed_plan_expands_once_and_reads_each_path_once(monkeypatch):
    kernel = kernel_from_text(
        "d=3 l=1 p=0.5 q=4.0,4.0 regime=MixedCLT L=(sum (grid_sin 1.0 1 2) (gauss_bump 0.5 0))"
    )
    plan = ExperimentPlan(
        kind="CLT_mixed", model=model(intensity=3.0), kernel=kernel, t=1.0,
        n_list=(32, 64), reps=4, base_seed=3,
    )
    calls = {"sep_terms": 0, "separable_terms": 0, "truths": 0, "paths": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # the kernel's top-level L node (a Sum), the expansion, the path contexts, the paths
    monkeypatch.setattr(Sum, "sep_terms", counted("sep_terms", Sum.sep_terms))
    monkeypatch.setattr(
        uvstat.kernels, "separable_terms", counted("separable_terms", uvstat.kernels.separable_terms)
    )
    monkeypatch.setattr(
        uvstat.limits._Truth, "__init__", counted("truths", uvstat.limits._Truth.__init__)
    )
    monkeypatch.setattr(
        uvstat.harness, "simulate_path", counted("paths", uvstat.harness.simulate_path)
    )
    first = run_plan(plan)
    assert calls == {"sep_terms": 1, "separable_terms": 1, "truths": 16, "paths": 16}
    # the compiled view stays with the kernel: a second run expands nothing
    again = run_plan(plan)
    assert calls == {"sep_terms": 1, "separable_terms": 1, "truths": 32, "paths": 32}
    assert again.to_json() == first.to_json()
