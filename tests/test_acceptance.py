"""Acceptance suite: limit-theorem verification at desk scale.

One test per criterion, each printing a PASS/FAIL line.  Every plan runs
at a fixed base seed, so the whole suite is deterministic; heavy
experiment reports are shared through module-scoped fixtures.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from uvstat.harness import (
    ExperimentPlan,
    derive_seed,
    grid_scan,
    run_clt,
    run_grid,
    run_lln,
    run_plan,
    run_rnp_check,
    run_ztrunc,
    _find_path_with_jumps,
)
from uvstat.kernels import Factor1D, KernelSpec, abs_moment
from uvstat.limits import cond_var_mixed, cov_c, cov_c_matrix
from uvstat.sampler import augment, sample_V_mixed
from uvstat.simulate import (
    AtomList,
    JumpModel,
    ModelConfig,
    Uniform,
    VolatilityModel,
    simulate_path,
)
from uvstat.stats import power_variation, realized_qv, u_stat, v_stat, y_stat

from oracles import nested_u_stat, nested_v_stat, nested_y_stat
from test_kernels import catalog_kernels

K1 = KernelSpec(d=1, l=1, p=(4.0,), regime="JumpCLT")
K22 = KernelSpec(d=2, l=2, p=(4.0, 4.0), regime="JumpCLT")
KMIX = KernelSpec(d=2, l=1, p=(0.5,), q=(4.0,), regime="MixedCLT")


def model(intensity, size_dist=None, sigma0=1.0, max_abs=3.0):
    size_dist = size_dist or AtomList(((1.0, 0.5), (-1.0, 0.5)))
    return ModelConfig(
        drift_b=0.0,
        vol=VolatilityModel(kind="Constant", sigma0=sigma0),
        jumps=JumpModel(intensity=intensity, size_dist=size_dist, max_abs=max_abs),
        bound_A=10.0,
    )


def check(num, desc, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {desc}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared heavy runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def clt_jump_d1():
    # low intensity keeps two-jumps-per-interval collisions (which carry
    # O(sqrt(n))-sized standardized outliers) out of the variance estimate
    plan = ExperimentPlan("CLT_jump", model(1.0), K1, 1.0, (4096,), 1000, base_seed=13)
    return run_clt(plan).tables["per_n"]["4096"]


@pytest.fixture(scope="module")
def clt_jump_d2():
    plan = ExperimentPlan("CLT_jump", model(1.0), K22, 1.0, (4096,), 500, base_seed=21)
    return run_clt(plan).tables["per_n"]["4096"]


@pytest.fixture(scope="module")
def clt_jump_marginal():
    plan = ExperimentPlan("CLT_jump", model(5.0), K1, 1.0, (4096,), 1000, base_seed=35)
    return run_clt(plan).tables["per_n"]["4096"]


@pytest.fixture(scope="module")
def clt_mixed():
    plan = ExperimentPlan("CLT_mixed", model(1.5), KMIX, 1.0, (8192,), 500, base_seed=42)
    return run_clt(plan).tables["per_n"]["8192"]


# ---------------------------------------------------------------------------
# 1. quadratic variation
# ---------------------------------------------------------------------------


def test_criterion_01_quadratic_variation():
    cfg = model(0.0)
    vals = [
        realized_qv(simulate_path(cfg, 4096, 1.0, derive_seed(202, 0, 4096, r))).value
        for r in range(500)
    ]
    mean_nj = float(np.mean(vals))
    ok1 = 0.99 <= mean_nj <= 1.01
    cfg_j = model(5.0, AtomList(((0.2, 0.5), (-0.2, 0.5))), max_abs=1.0)
    target = 1.0 + 5.0 * cfg_j.jumps.size_dist.second_moment()  # compound-Poisson mean
    vals_j = [
        realized_qv(simulate_path(cfg_j, 4096, 1.0, derive_seed(202, 1, 4096, r))).value
        for r in range(500)
    ]
    mean_j = float(np.mean(vals_j))
    ok2 = abs(mean_j - target) <= 0.01 * target
    check(
        1,
        "realized quadratic variation",
        ok1 and ok2,
        f"no-jump mean {mean_nj:.4f} in [0.99, 1.01]; "
        f"jump mean {mean_j:.4f} vs target {target:.4f} (within 1%)",
    )


# ---------------------------------------------------------------------------
# 2. scaled power variation
# ---------------------------------------------------------------------------


def test_criterion_02_scaled_power_variation():
    m1 = abs_moment(1.0)
    oracle, err = quad(
        lambda x: abs(x) * math.exp(-x * x / 2) / math.sqrt(2 * math.pi),
        -np.inf,
        np.inf,
        epsabs=1e-13,
    )
    ok_m1 = abs(m1 - oracle) <= 1e-10
    cfg = model(0.0)
    devs = [
        abs(
            power_variation(
                simulate_path(cfg, 4096, 1.0, derive_seed(303, 0, 4096, r)), p=1.0, scaled=True
            ).value
            - m1
        )
        for r in range(200)
    ]
    med = float(np.median(devs))
    check(
        2,
        "scaled power variation p=1",
        ok_m1 and med < 0.01,
        f"median |PV - m1| = {med:.5f} < 0.01; |m1 - quadrature oracle| = {abs(m1 - oracle):.2e}",
    )


# ---------------------------------------------------------------------------
# 3. jump LLN
# ---------------------------------------------------------------------------


def test_criterion_03_jump_lln():
    plan = ExperimentPlan("LLN", model(5.0), K22, 1.0, (512, 2048, 8192), 200, base_seed=71)
    rep = run_lln(plan)
    med = [rep.tables["per_n"][str(n)]["rel_error"]["median"] for n in plan.n_list]
    ok = med[0] > med[1] > med[2] and med[2] < 0.05
    check(
        3,
        "jump LLN d=2 l=2",
        ok,
        f"median relative errors {[round(m, 4) for m in med]} strictly decreasing, final < 5%",
    )


# ---------------------------------------------------------------------------
# 4. jump CLT
# ---------------------------------------------------------------------------


def test_criterion_04_jump_clt(clt_jump_d1, clt_jump_d2):
    ok = (
        clt_jump_d1["ks_pvalue"] > 0.01
        and 0.85 <= clt_jump_d1["z_var"] <= 1.15
        and clt_jump_d2["ks_pvalue"] > 0.01
        and 0.85 <= clt_jump_d2["z_var"] <= 1.15
    )
    check(
        4,
        "jump CLT standardization",
        ok,
        f"d=1: KS p={clt_jump_d1['ks_pvalue']:.3f}, var={clt_jump_d1['z_var']:.3f}; "
        f"d=2: KS p={clt_jump_d2['ks_pvalue']:.3f}, var={clt_jump_d2['z_var']:.3f}",
    )


# ---------------------------------------------------------------------------
# 5. limit-law sampler consistency
# ---------------------------------------------------------------------------


def test_criterion_05_sampler_marginal_law(clt_jump_marginal):
    p = clt_jump_marginal["two_sample_ks_pvalue"]
    check(
        5,
        "two-sample law match vs sampled limit",
        p > 0.01,
        f"KS p = {p:.3f} over ~1000-vs-1000 draws at n=4096",
    )


# ---------------------------------------------------------------------------
# 6. mixed LLN
# ---------------------------------------------------------------------------


def test_criterion_06_mixed_lln():
    cfg = model(5.0)
    sigma = cfg.vol.sigma0
    rels = []
    for r in range(200):
        path = simulate_path(cfg, 8192, 1.0, derive_seed(81, 0, 8192, r))
        s4 = float(np.sum(np.abs(path.sizes) ** 4))
        closed = abs_moment(0.5) * sigma**0.5 * s4  # t * m_{1/2} sigma^{1/2} sum |dX|^4
        stat = y_stat(path, KMIX).value
        rels.append(abs(stat - closed) / max(abs(closed), 1e-300))
    med = float(np.median(rels))
    check(6, "mixed LLN vs closed-form limit", med < 0.05, f"median relative error {med:.4f} < 5%")


# ---------------------------------------------------------------------------
# 7. mixed CLT
# ---------------------------------------------------------------------------


def test_criterion_07_mixed_clt(clt_mixed):
    # the z_var window of criterion 4 and the two-sample gate of criterion 5
    ok_law = (
        clt_mixed["ks_pvalue"] > 0.01
        and 0.85 <= clt_mixed["z_var"] <= 1.15
        and clt_mixed["two_sample_ks_pvalue"] > 0.01
    )
    cfg = model(2.0)
    path = None
    for k in range(10_000):
        cand = simulate_path(cfg, 512, 1.0, derive_seed(404, 0, 512, k))
        if len(cand.jumps) == 2:
            path = cand
            break
    draws = np.array(
        [
            sample_V_mixed(path, KMIX, augment(path, derive_seed(404, 1, 0, s)))
            for s in range(10_000)
        ]
    )
    cv = cond_var_mixed(path, KMIX)
    rel = abs(draws.var(ddof=1) - cv.total) / cv.total
    check(
        7,
        "mixed CLT",
        ok_law and rel < 0.05,
        f"KS p = {clt_mixed['ks_pvalue']:.3f}, var = {clt_mixed['z_var']:.3f}, "
        f"two-sample KS p = {clt_mixed['two_sample_ks_pvalue']:.3f}; "
        f"sampler variance off by {rel:.3%} "
        f"on a fixed 2-jump path (1e4 draws)",
    )


# ---------------------------------------------------------------------------
# 8. rho and C closed forms
# ---------------------------------------------------------------------------


RHO_QUAD_TOL = 1e-8


def rho_quadrature_worst() -> float:
    """Worst relative error of the quadrature route against the m_p sigma^p closed form."""
    worst = 0.0
    for p in (0.5, 1.0, 1.7, 4.0):
        for sigma in (0.5, 1.0, 1.9):
            closed = abs_moment(p) * sigma**p
            viaquad = Factor1D(power=p)._moment_quad(sigma)
            worst = max(worst, abs(viaquad - closed) / closed)
    return worst


def test_criterion_08_rho_and_c_closed_forms():
    worst = rho_quadrature_worst()
    ok_rho = worst <= RHO_QUAD_TOL

    from test_limits import synthetic_path

    pth = synthetic_path([1.0], sigma=1.0)
    pq, qq = 0.5, 4.0
    y1, y2 = 1.3, 0.7
    closed_c = (abs_moment(2 * pq) - abs_moment(pq) ** 2) * abs(y1) ** qq * abs(y2) ** qq
    got_c = cov_c(pth, KMIX, [y1], [y2])
    ok_c = abs(got_c - closed_c) / abs(closed_c) <= 1e-6

    pth2 = synthetic_path([0.5, -1.0, 1.5, 2.0], sigma=1.1)
    M = cov_c_matrix(pth2, KMIX, [[z] for z in pth2.sizes])
    eig_min = float(np.linalg.eigvalsh(M).min())
    ok_psd = np.allclose(M, M.T) and eig_min >= -1e-8 * np.trace(M)
    check(
        8,
        "rho/C closed forms and PSD",
        ok_rho and ok_c and ok_psd,
        f"rho quadrature worst rel {worst:.2e} <= 1e-8; "
        f"C rel {abs(got_c - closed_c) / abs(closed_c):.2e} <= 1e-6; min eig {eig_min:.2e}",
    )


# ---------------------------------------------------------------------------
# 9. grid test
# ---------------------------------------------------------------------------


def test_criterion_09_grid_test():
    lattice = AtomList(((0.5, 0.4), (1.5, 0.3), (-0.5, 0.2), (2.5, 0.1)))
    cfg = model(5.0, lattice, sigma0=0.25)
    grid = tuple(round(0.5 + 0.01 * k, 2) for k in range(151))
    plan = ExperimentPlan(
        "GRID", cfg, None, 1.0, (8192,), 1, base_seed=91, beta_grid=grid, require_jumps=5
    )
    rep = run_grid(plan)
    rows = {row["beta"]: row for row in rep.rows}
    path = _find_path_with_jumps(plan, 8192)
    stat_037 = grid_scan(path, (0.37,), t=1.0).rows[0]["statistic"]
    limit_1 = rows[1.0]["limit"]
    # exact zero at double precision: the residue is pure rounding of sin(pi k)
    ok_limit = abs(limit_1) <= 1e-20 * (1.0 + stat_037)
    ratio = rows[1.0]["statistic"] / stat_037
    ok_ratio = ratio < 0.01
    best = rep.tables["beta_min_normalized"]
    ok_min = min(abs(best - 1.0), abs(best - 0.5)) <= 0.01 + 1e-12
    check(
        9,
        "jump-size lattice test",
        ok_limit and ok_ratio and ok_min,
        f"L(1) = {limit_1:.2e}; stat(1)/stat(0.37) = {ratio:.4f} < 1%; minimizer beta = {best}",
    )


# ---------------------------------------------------------------------------
# 10. brute-force equivalence
# ---------------------------------------------------------------------------


def test_criterion_10_brute_force_equivalence():
    gen = np.random.default_rng(1010)
    data = gen.normal(size=64) * 0.5
    worst = 0.0
    pairs = ((v_stat, nested_v_stat), (y_stat, nested_y_stat), (u_stat, nested_u_stat))
    for k in catalog_kernels():
        if k.d > 3:
            continue
        for fn, oracle in pairs:
            fac = fn(data, k, t=1.0).value
            nst = oracle(data, k)
            worst = max(worst, abs(fac - nst) / (1 + abs(nst)))
    check(
        10,
        "factorized vs nested oracles",
        worst <= 1e-12,
        f"worst relative deviation {worst:.2e} across the kernel catalog (V/Y/U, n=64)",
    )


# ---------------------------------------------------------------------------
# 11. R(n,p) convergence
# ---------------------------------------------------------------------------


def test_criterion_11_rnp_convergence():
    plan = ExperimentPlan("RNP", model(2.0), None, 1.0, (4096,), 2400, base_seed=51)
    table = run_rnp_check(plan).tables["per_n"]["4096"]
    ok = (
        table["ks_pvalue"] > 0.01
        and table["n_discrete"] >= 2000
        and table["n_limit"] >= 2000
    )
    check(
        11,
        "R(n,p) vs extension-space law",
        ok,
        f"KS p = {table['ks_pvalue']:.3f} with {table['n_discrete']}/{table['n_limit']} draws",
    )


# ---------------------------------------------------------------------------
# 12. truncated limit sums
# ---------------------------------------------------------------------------


def test_criterion_12_truncation():
    cfg = model(20.0, Uniform(0.5, 2.0), max_abs=2.5)
    plan = ExperimentPlan(
        "ZTRUNC", cfg, K1, 1.0, (2048,), 500, base_seed=61, require_jumps=20
    )
    rep = run_ztrunc(plan)
    ok = rep.tables["nonincreasing"] and rep.tables["median_gap"]["20"] == 0.0
    med = [round(rep.tables["median_gap"][str(m)], 2) for m in (0, 5, 10, 15, 20)]
    check(
        12,
        "Z(m) truncation",
        ok,
        f"median |Z(m)-Z(J)| nonincreasing over m=0..20 (500 seeds); e.g. {med} at m=0,5,10,15,20",
    )


# ---------------------------------------------------------------------------
# 13. determinism
# ---------------------------------------------------------------------------


def test_criterion_13_determinism():
    plan = ExperimentPlan("CLT_jump", model(5.0), K1, 1.0, (512,), 50, base_seed=77)
    rep1 = run_plan(plan)
    rep2 = run_plan(plan)
    ok = rep1.to_json() == rep2.to_json() and rep1.rows_csv() == rep2.rows_csv()
    check(
        13,
        "byte-identical reports",
        ok,
        "report.json and errors.csv identical across re-runs",
    )
