"""Monte Carlo experiments that verify the limit theorems at desk scale.

Six experiment kinds:

* LLN       -- statistic vs. exact per-path limit across a grid of n;
               reports median errors and the fitted log-log rate.
* CLT_jump  -- standardized sqrt(n)(V^n - V)/sqrt(cond. variance) tested
               against N(0,1), plus a two-sample comparison with draws
               from the sampled limit law on independent paths (asymptotic
               KS tests, ported from scipy onto math and numpy by uvstat.ks).
* CLT_mixed -- same for the Y-statistic and its mixed limit law.
* RNP       -- two-sample comparison of the discrete jump neighborhoods
               R(n,p) with the extension-space R_k draws.
* GRID      -- the jump-size lattice scan of the grid-test kernel (power 4).
* ZTRUNC    -- truncated limit sums Z(m) vs. the full Z(J).

The kernel's regime picks the route of an LLN or CLT plan
(kernels.JUMP_REGIMES): the V-statistic and the jump limit, variance and
draw where the first block is the jump block, the Y-statistic and the
mixed ones otherwise.  Each sample of the CLT two-sample comparison drops
its own degenerate atom at 0: the observed reps whose conditional
variance is 0, and the draws that are exactly 0.0 (draw_excluded).

Replication r of an experiment uses seeds derived by hashing
(base_seed, stream, n, r) through numpy's SeedSequence (``derive_seed``),
so streams never overlap and any plan re-runs bit-identically from its
manifest.  Replications run one after another and reduce in rep order.
The independent second path of a CLT or RNP replication feeds only the
limit law, so it is drawn as ground truth alone (``simulate_truth``):
no Brownian increments or X grid where nothing reads them.

The LLN, CLT and RNP plans run one per-n rep loop (``_run_reps``) over
their own per-rep and per-n functions.  It seeds every rep of one n at
once (``_RepSeeds``): three vectorized SeedSequence passes
(``uvstat.seeding``) hash every seed and PCG64 state a rep of any kind
can read, so a rep builds no SeedSequence; the streams and every report
byte are those of the public functions called with derive_seed.  The
harness opens the ground-truth context of every path it reads
(``limits.Context``) and passes it to the limits, the conditional
variances and the draws; the contexts of one kernel share its
constant-grid moments and Gaussian field through the kernel.

A report holds the plan block and the tables; its rows are errors.csv,
one per rep, so each CLT rep's z, scaled_error and limit_draw are there.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from uvstat import seeding
from uvstat.kernels import _GRID_POWER, CLT_REGIMES, JUMP_REGIMES, KernelSpec, grid_test_kernel, kernel_to_text
from uvstat.ks import ks_2samp_asymp, kstest_norm_asymp
from uvstat.limits import Context, cond_var_jump, cond_var_mixed, jump_limit, mixed_limit
from uvstat.sampler import augment, sample_U_jump, sample_V_mixed, truncated_Z
from uvstat.simulate import (
    _SUBSTREAMS,
    GroundTruth,
    ModelConfig,
    SamplePath,
    _count,
    _jump_stream,
    _seed_substreams,
    _simulate,
    jump_neighborhood,
    simulate_path,
)
from uvstat.simulate import config_to_dict
from uvstat.stats import power_variation, v_stat, y_stat

__all__ = [
    "ExperimentPlan",
    "ExperimentReport",
    "HarnessError",
    "NonFiniteError",
    "finite_json",
    "derive_seed",
    "run_lln",
    "run_clt",
    "run_rnp_check",
    "run_ztrunc",
    "grid_scan",
    "run_plan",
    "EXPERIMENT_KINDS",
]

EXPERIMENT_KINDS = ("LLN", "CLT_jump", "CLT_mixed", "RNP", "GRID", "ZTRUNC")

_KIND_REGIMES = {
    "CLT_jump": tuple(r for r in CLT_REGIMES if r in JUMP_REGIMES),
    "CLT_mixed": tuple(r for r in CLT_REGIMES if r not in JUMP_REGIMES),
    "GRID": ("GridTest",),
}
_KIND_REGIMES["ZTRUNC"] = _KIND_REGIMES["CLT_jump"]
# the plan fields that only some kinds read; another kind refuses a non-default value
_KIND_FIELDS = {
    "beta_grid": ("GRID",),
    "m_list": ("ZTRUNC",),
    "require_jumps": ("GRID", "ZTRUNC"),
}


class HarnessError(ValueError):
    """Invalid experiment plan or refused run."""


class NonFiniteError(ArithmeticError):
    """A result holds NaN or an infinity, which its JSON output refuses."""


def _non_finite_key(node, path):
    """Key path of the first NaN or infinity in a JSON document, or None."""
    if isinstance(node, float):
        return None if math.isfinite(node) else path
    children = enumerate(node) if isinstance(node, list) else node.items() if isinstance(node, dict) else ()
    found = (_non_finite_key(child, f"{path}.{key}") for key, child in children)
    return next((key for key in found if key), None)


def finite_json(doc: dict, what: str) -> str:
    """``doc`` as sorted, indented JSON; a NaN or an infinity in it raises NonFiniteError."""
    try:
        return json.dumps(doc, sort_keys=True, indent=1, allow_nan=False)
    except ValueError:
        raise NonFiniteError(
            f"{what} holds a non-finite number at {_non_finite_key(doc, what)}; nothing written"
        ) from None


def derive_seed(base_seed: int, *indices: int) -> int:
    """Counter-based seed derivation: hash of (base_seed, *indices).

    SeedSequence mixes the entropy tuple through a hash with avalanche
    properties, so distinct index tuples give independent streams by
    construction.  The result is SeedSequence(entropy).generate_state(1,
    np.uint64)[0]; the rep loop computes the same value for every rep of
    one n in one seed table (``_RepSeeds``, ``uvstat.seeding``).
    """
    ss = np.random.SeedSequence((int(base_seed),) + tuple(int(i) for i in indices))
    return int(ss.generate_state(1, np.uint64)[0])


# streams, the two path streams first
_STREAMS = _S_PATH, _S_PATH2, _S_AUG, _S_FIELD = (0, 1, 2, 3)


class _RepSeeds:
    """Every seed a rep of one n can read, hashed in three fixed-width passes.

    seed(stream, r) is derive_seed(plan.base_seed, stream, n, r) for each
    of the four streams: the observed path (_S_PATH), the limit-law path
    (_S_PATH2), the augmentation (_S_AUG) and the field draw (_S_FIELD).
    A path seed is expanded into the PCG64 states of all three simulator
    substreams (simulate._SUBSTREAMS), an augmentation or field seed into
    the state of SeedSequence(seed).  uvstat.seeding hashes them in one
    pass per row width: the derive_seed rows (the words of (base_seed,
    stream, n) and the rep index as the last column), the substream rows
    [lo, hi, 0, 0, i] and the augmentation and field rows [lo, hi].  Each
    generator is built from its state where it is read: the draws that
    simulate_path and simulate_truth make from the same seeds, and those
    of np.random.default_rng(seed), which augment and sample_V_mixed are
    given.
    """

    def __init__(self, plan: ExperimentPlan, n: int):
        self.model, self.n, self.t = plan.model, n, plan.t
        heads = [seeding.entropy_words((plan.base_seed, s, n, 0)) for s in _STREAMS]
        rows = np.repeat(np.array(heads, dtype=np.uint32), plan.reps, axis=0)
        rows[:, -1] = np.tile(np.arange(plan.reps), len(_STREAMS))  # rep r is one word, 0 in heads
        seeds = seeding.seed_states(rows, 1).reshape(len(_STREAMS), plan.reps)
        self._seeds = seeds.tolist()
        paths, draws = [_S_PATH, _S_PATH2], [_S_AUG, _S_FIELD]
        path_seeds = seeds[paths].ravel()
        path_rows = np.concatenate([seeding.seed_rows(path_seeds, i) for i in _SUBSTREAMS])
        states = np.concatenate([
            seeding.seed_states(path_rows, 4),
            seeding.seed_states(seeding.seed_rows(seeds[draws].ravel()), 4),
        ])
        keys = [(s, i) for i in _SUBSTREAMS for s in paths] + [(s, None) for s in draws]
        self._states = dict(zip(keys, states.reshape(len(keys), plan.reps, 4)))

    def seed(self, stream: int, r: int) -> int:
        return self._seeds[stream][r]

    def rng(self, stream: int, r: int):
        """The generator of SeedSequence(seed(stream, r)), for _S_AUG or _S_FIELD."""
        return seeding.generator(self._states[stream, None][r])

    def _draw_path(self, stream: int, r: int, observe: bool):
        states = self._states
        return _simulate(
            self.model, self.n, self.t, self.seed(stream, r), observe,
            lambda index: seeding.generator(states[stream, index][r]),
        )

    def path(self, r: int) -> SamplePath:
        """simulate_path(model, n, t, seed(_S_PATH, r))."""
        return self._draw_path(_S_PATH, r, observe=True)

    def truth(self, r: int) -> GroundTruth:
        """simulate_truth(model, n, t, seed(_S_PATH2, r))."""
        return self._draw_path(_S_PATH2, r, observe=False)


# ---------------------------------------------------------------------------
# Plans and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentPlan:
    kind: str
    model: ModelConfig
    kernel: Optional[KernelSpec]
    t: float
    n_list: tuple
    reps: int
    base_seed: int
    beta_grid: tuple = ()
    m_list: tuple = ()
    require_jumps: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        object.__setattr__(self, "beta_grid", tuple(float(b) for b in self.beta_grid))
        object.__setattr__(self, "m_list", tuple(int(m) for m in self.m_list))
        if self.kind not in EXPERIMENT_KINDS:
            raise HarnessError(f"unknown experiment kind {self.kind!r}")
        if self.base_seed < 0:
            raise HarnessError(f"base_seed must be >= 0, got {self.base_seed}")
        if self.reps < 1:
            raise HarnessError(f"reps must be >= 1, got {self.reps}")
        if not self.n_list:
            raise HarnessError("n_list must not be empty")
        if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise HarnessError(f"n_list must be strictly increasing, got {self.n_list}")
        if not self.t > 0:
            raise HarnessError(f"t must be > 0, got {self.t}")
        if _count(self.n_list[0], self.t) < 1:  # the smallest n has the fewest steps
            raise HarnessError(f"n_list entry {self.n_list[0]} has no grid step at t = {self.t!r}")
        defaults = {f.name: f.default for f in fields(self)}
        for name, kinds in _KIND_FIELDS.items():
            value = getattr(self, name)
            if self.kind not in kinds and value != defaults[name]:
                raise HarnessError(
                    f"{name} = {value!r} is read only by {' and '.join(kinds)} experiments, "
                    f"not by {self.kind}"
                )
        if self.kind == "GRID" and not self.beta_grid:
            raise HarnessError("GRID experiments need a beta_grid")
        if any(b <= 0 for b in self.beta_grid):
            raise HarnessError(f"beta_grid values must be > 0, got {self.beta_grid}")
        if self.kind != "RNP" and self.kernel is None and self.kind != "GRID":
            raise HarnessError(f"{self.kind} experiments need a kernel")
        if self.kernel is not None:
            allowed = _KIND_REGIMES.get(self.kind)
            if allowed and self.kernel.regime not in allowed:
                raise HarnessError(
                    f"{self.kind} needs a kernel in regime {allowed}, got {self.kernel.regime}"
                )
            report = self.kernel._admissibility
            if not report.passed:
                raise HarnessError(
                    "kernel fails admissibility for its declared regime:\n" + report.summary()
                )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "model": config_to_dict(self.model),
            "kernel": kernel_to_text(self.kernel) if self.kernel is not None else None,
            "t": self.t,
            "n_list": list(self.n_list),
            "reps": self.reps,
            "base_seed": self.base_seed,
            "beta_grid": list(self.beta_grid),
            "m_list": list(self.m_list),
            "require_jumps": self.require_jumps,
            "collect_samples": False,  # a format constant, kept in every plan block until a re-pin
        }


@dataclass
class ExperimentReport:
    kind: str
    plan: dict
    tables: dict
    rows: list = field(default_factory=list)

    def to_json(self) -> str:
        doc = {"kind": self.kind, "plan": self.plan, "tables": self.tables}
        return finite_json(doc, "report") + "\n"

    def rows_csv(self) -> str:
        if not self.rows:
            return ""
        cols = list(self.rows[0].keys())
        lines = [",".join(cols)]
        for row in self.rows:
            lines.append(",".join(_csv_cell(row[c]) for c in cols))
        return "\n".join(lines) + "\n"


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _stat_and_limit(ctx: Context):
    """The statistic of the context's path and its limit, read off that ground truth."""
    path, kernel, t = ctx.path, ctx.kernel, ctx.t
    if kernel.regime in JUMP_REGIMES:
        stat = v_stat(path, kernel, t=t).value
        lim = jump_limit(ctx).value
    else:
        stat = y_stat(path, kernel, t=t).value
        lim = mixed_limit(ctx).value
    return stat, lim


def _collision_count(path: SamplePath) -> int:
    """The number of grid intervals (index <= n_steps) holding more than one jump."""
    values, counts = np.unique(path.intervals, return_counts=True)
    return int(np.count_nonzero((counts > 1) & (values <= path.n_steps)))


def _order_stats(values) -> dict:
    """The median and the linear quartiles of one or more values, from one sort.

    On the non-negative values the tables give it, they are numpy 2.4.6's
    median and its default quantile at 0.25 and 0.75 bit for bit, without
    numpy's NaN check, which imports numpy.ma (with both signed zeros,
    numpy's partition and this sort may pick different ones).  The median
    is the middle value or (a + b) / 2 of the two middle ones; a quartile
    interpolates between the order statistics i = floor(v) and i + 1 at
    v = (n - 1) q as numpy's _lerp does; a NaN anywhere makes all three
    NaN.  Like uvstat.ks for scipy, this pins those bits rather than
    following later numpy releases.
    """
    x = np.sort(np.asarray(values, dtype=float))
    if math.isnan(x[-1]):  # np.sort puts NaN last
        return dict.fromkeys(("median", "q25", "q75"), math.nan)
    h = len(x) // 2
    median = float(x[h]) if len(x) % 2 else (float(x[h - 1]) + float(x[h])) / 2
    return {"median": median, "q25": _linear_quantile(x, 0.25), "q75": _linear_quantile(x, 0.75)}


def _linear_quantile(x: np.ndarray, q: float) -> float:
    """numpy's quantile (method "linear") at 0 <= q < 1 of sorted, NaN-free x."""
    v = (len(x) - 1) * q
    i = math.floor(v)
    g = v - i
    a, b = float(x[i]), float(x[min(i + 1, len(x) - 1)])
    d = b - a
    return a + d * g if g < 0.5 else b - d * (1.0 - g)


def _run_reps(plan: ExperimentPlan, rep, tabulate):
    """The report of an LLN, CLT or RNP plan, its reps run n by n and in rep order.

    Each n takes one seed table; rep r adds rep(seeds, r, path) to a row
    keyed n, rep and its observed path's seed, and tabulate(rows of n) is
    per_n[str(n)].
    """
    rows, per_n = [], {}
    for n in plan.n_list:
        seeds = _RepSeeds(plan, n)
        results = []
        for r in range(plan.reps):
            path = seeds.path(r)
            results.append({"n": n, "rep": r, "seed": path.seed, **rep(seeds, r, path)})
        rows.extend(results)
        per_n[str(n)] = tabulate(results)
    return ExperimentReport(kind=plan.kind, plan=plan.to_dict(), tables={"per_n": per_n}, rows=rows)


# ---------------------------------------------------------------------------
# LLN
# ---------------------------------------------------------------------------


def run_lln(plan: ExperimentPlan) -> ExperimentReport:
    """Median statistic-vs-limit errors per n, plus the fitted log-log rate."""
    if plan.kind != "LLN":
        raise HarnessError(f"run_lln got plan of kind {plan.kind}")

    def rep(seeds, r, path):
        stat, lim = _stat_and_limit(Context(path, plan.kernel, plan.t))
        return {
            "stat": stat,
            "limit": lim,
            "error": stat - lim,
            "n_jumps": len(path.sizes),
            "n_collisions": _collision_count(path),
        }

    def tabulate(results):
        abs_err = np.array([abs(r["error"]) for r in results])
        denom = np.array([max(abs(r["limit"]), 1e-300) for r in results])
        return {
            "abs_error": _order_stats(abs_err),
            "rel_error": _order_stats(abs_err / denom),
            "collision_reps": int(sum(1 for r in results if r["n_collisions"] > 0)),
        }

    report = _run_reps(plan, rep, tabulate)
    med = [report.tables["per_n"][str(n)]["abs_error"]["median"] for n in plan.n_list]
    slope = None
    if len(plan.n_list) >= 2 and all(m > 0 for m in med):
        slope = float(
            np.polyfit(np.log(np.array(plan.n_list, dtype=float)), np.log(med), 1)[0]
        )
    report.tables["log_log_slope"] = slope
    return report


# ---------------------------------------------------------------------------
# CLT
# ---------------------------------------------------------------------------


def run_clt(plan: ExperimentPlan) -> ExperimentReport:
    """Standardized CLT errors vs N(0,1), plus the limit-law two-sample check.

    Z_r = sqrt(n) (statistic - limit) / sqrt(ground-truth conditional
    variance); reps whose conditional variance is zero (no jump, or none
    where dH is not 0) are excluded from Z and counted.  The marginal-law
    comparison pits sqrt(n)(statistic - limit) against limit draws on
    independent paths, of which only the ground truth is drawn; a draw of
    exactly 0.0 is excluded and counted (draw_excluded), as is, on the
    mixed route, one on a clamped path.  The kernel's regime picks the
    route (kernels.JUMP_REGIMES).  Each path's ground truth is
    read once: the limit and the conditional variance share one context.
    A model's reject_bound_excursions checks |X| on the observed path
    only; the limit-law path has no X grid to check.
    """
    if plan.kind not in ("CLT_jump", "CLT_mixed"):
        raise HarnessError(f"run_clt got plan of kind {plan.kind}")
    kernel = plan.kernel
    mixed = kernel.regime not in JUMP_REGIMES

    def rep(seeds, r, path):
        ctx = Context(path, kernel, plan.t)
        stat, lim = _stat_and_limit(ctx)
        cv = cond_var_mixed(ctx) if mixed else cond_var_jump(ctx)
        raw = math.sqrt(seeds.n) * (stat - lim)
        excluded = cv.total <= 0.0 or (mixed and path.clamped)
        z = raw / math.sqrt(cv.total) if not excluded else None

        path2 = seeds.truth(r)
        aug = augment(path2, seeds.rng(_S_AUG, r))
        ctx2 = Context(path2, kernel, plan.t)
        if mixed:
            draw = sample_V_mixed(ctx2, aug, seeds.rng(_S_FIELD, r))
        else:
            draw = sample_U_jump(ctx2, aug)
        draw_excluded = draw == 0.0 or (mixed and path2.clamped)
        return {
            "scaled_error": raw,
            "cond_var": cv.total,
            "z": z,
            "excluded": excluded,
            "limit_draw": draw,
            "draw_excluded": draw_excluded,
        }

    def tabulate(results):
        zs = np.array([r["z"] for r in results if not r["excluded"]])
        n_excluded = sum(1 for r in results if r["excluded"])
        table = {"reps": plan.reps, "excluded": int(n_excluded)}
        if len(zs) >= 10:
            ks_stat, ks_pvalue = kstest_norm_asymp(zs)
            table.update(
                {
                    "ks_stat": ks_stat,
                    "ks_pvalue": ks_pvalue,
                    "z_mean": float(np.mean(zs)),
                    "z_var": float(np.var(zs, ddof=1)),
                }
            )
        else:
            table["degenerate"] = "no-jump degenerate"
        # marginal-law comparison conditioned on the F-measurable event
        # "conditional variance > 0" (stable convergence survives it): each
        # sample drops its own degenerate atom at 0, the observed one by its
        # conditional variance, the draws by value, since R and the field
        # normal are continuous and a draw is 0.0 a.s. only when its path's
        # conditional variance is 0
        raws = np.array([r["scaled_error"] for r in results if not r["excluded"]])
        draws = np.array([r["limit_draw"] for r in results if not r["draw_excluded"]])
        table["draw_excluded"] = int(sum(1 for r in results if r["draw_excluded"]))
        if len(raws) >= 10 and len(draws) >= 10:
            table["two_sample_ks_stat"], table["two_sample_ks_pvalue"] = ks_2samp_asymp(raws, draws)
        return table

    return _run_reps(plan, rep, tabulate)


# ---------------------------------------------------------------------------
# R(n,p) convergence
# ---------------------------------------------------------------------------


def run_rnp_check(plan: ExperimentPlan) -> ExperimentReport:
    """Two-sample KS between discrete R(n,p) draws and extension-space R draws.

    One draw per replication and side: the first jump that sits alone in
    a full grid interval (discrete side) vs. the first jump's R_k
    (extension side), on independent paths; the extension side draws
    only its path's ground truth.  A model's reject_bound_excursions
    checks |X| on the discrete side's path only.
    """
    if plan.kind != "RNP":
        raise HarnessError(f"run_rnp_check got plan of kind {plan.kind}")

    def rep(seeds, r, path):
        # the first jump alone in a full grid interval, or None; a jump past
        # the last full interval (t not on the grid) has no neighborhood
        values, first, counts = np.unique(path.intervals, return_index=True, return_counts=True)
        lone = first[(counts == 1) & (values <= path.n_steps)]
        discrete = jump_neighborhood(path, int(lone[0])).r if len(lone) else None
        path2 = seeds.truth(r)
        limit_r = None
        if len(path2.sizes):
            aug = augment(path2, seeds.rng(_S_AUG, r))
            limit_r = float(aug.r[0])
        return {"r_discrete": discrete, "r_limit": limit_r}

    def tabulate(results):
        a = np.array([r["r_discrete"] for r in results if r["r_discrete"] is not None])
        b = np.array([r["r_limit"] for r in results if r["r_limit"] is not None])
        table = {"n_discrete": int(len(a)), "n_limit": int(len(b))}
        if len(a) >= 10 and len(b) >= 10:
            ks_stat, ks_pvalue = ks_2samp_asymp(a, b)
            table.update({"ks_stat": ks_stat, "ks_pvalue": ks_pvalue})
        return table

    return _run_reps(plan, rep, tabulate)


# ---------------------------------------------------------------------------
# grid test
# ---------------------------------------------------------------------------


def grid_scan(data, beta_grid, t: Optional[float] = None) -> ExperimentReport:
    """Scan the lattice-test statistic over beta.

    For each beta the d = l = 2 grid-test statistic with the fixed power
    4 is computed (no n-normalization), normalized by its beta-independent
    envelope (sum |Delta X|^4)^2 / 2, and, when the data is a simulated
    path with ground truth, accompanied by the exact limit L(beta) and the
    studentized value using the jump-case conditional variance.
    """
    beta_grid = tuple(float(b) for b in beta_grid)
    if not beta_grid:
        raise HarnessError("beta_grid must not be empty")
    if any(b <= 0 for b in beta_grid):
        raise HarnessError(f"beta values must be > 0, got {beta_grid}")
    is_path = isinstance(data, SamplePath)
    # beta-independent bound: sin^2 <= 1 replaced by its mean 1/2
    pv = power_variation(data, p=_GRID_POWER, scaled=False, t=t).value
    envelope = 0.5 * pv * pv
    if not (math.isfinite(envelope) and envelope > 0):
        raise HarnessError(
            f"grid scan envelope (sum |Delta X|^{_GRID_POWER!r})^2 / 2 = {envelope!r} "
            "is not a positive finite number; the increments are all zero or too large"
        )
    rows = []
    for beta in beta_grid:
        kernel = grid_test_kernel(beta)
        sv = v_stat(data, kernel, t=t)
        row = {"beta": beta, "statistic": sv.value, "normalized": sv.value / envelope}
        if is_path:
            ctx = Context(data, kernel, t)
            lim = jump_limit(ctx).value
            cv = cond_var_jump(ctx).total
            row["limit"] = lim
            row["cond_var"] = cv
            nn = data.n
            row["studentized"] = (
                math.sqrt(nn) * (sv.value - lim) / math.sqrt(cv) if cv > 0 else None
            )
        rows.append(row)
    best = min(rows, key=lambda r: r["normalized"])
    tables = {
        "envelope": envelope,
        "beta_min_normalized": best["beta"],
        "min_normalized": best["normalized"],
    }
    plan = {
        "kind": "GRID",
        "beta_grid": list(beta_grid),
        "power": _GRID_POWER,
        "input": "sample_path" if is_path else "increments",
    }
    return ExperimentReport(kind="GRID", plan=plan, tables=tables, rows=rows)


def _find_path_with_jumps(plan: ExperimentPlan, n: int) -> SamplePath:
    """The path of the first seed whose Poisson jump count is plan.require_jumps.

    Seeds are rejected on the count alone (the first draw of their jump
    substream); only the accepted seed is simulated.
    """
    tries = 10_000
    for k in range(tries):
        seed = derive_seed(plan.base_seed, _S_PATH, n, k)
        n_jumps = _jump_stream(plan.model, plan.t, _seed_substreams(seed))[0]
        if plan.require_jumps is None or n_jumps == plan.require_jumps:
            return simulate_path(plan.model, n, plan.t, seed)
    raise HarnessError(
        f"no path with exactly {plan.require_jumps} jumps found in {tries} seeds"
    )


def run_grid(plan: ExperimentPlan) -> ExperimentReport:
    """Grid scan on a freshly simulated path (ground truth available)."""
    if plan.kind != "GRID":
        raise HarnessError(f"run_grid got plan of kind {plan.kind}")
    n = plan.n_list[-1]
    path = _find_path_with_jumps(plan, n)
    report = grid_scan(path, plan.beta_grid, t=plan.t)
    report.plan = plan.to_dict()
    return report


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------


def run_ztrunc(plan: ExperimentPlan) -> ExperimentReport:
    """Median |Z(m) - Z(J)| across augmentation seeds, per truncation level m."""
    if plan.kind != "ZTRUNC":
        raise HarnessError(f"run_ztrunc got plan of kind {plan.kind}")
    kernel = plan.kernel
    n = plan.n_list[-1]
    path = _find_path_with_jumps(plan, n)
    J = len(path.sizes)
    if J == 0:
        raise HarnessError("truncation experiment needs a path with jumps")
    m_list = plan.m_list if plan.m_list else tuple(range(J + 1))

    ctx = Context(path, kernel, plan.t)
    rows = []
    for r in range(plan.reps):
        aug = augment(path, np.random.default_rng(derive_seed(plan.base_seed, _S_AUG, n, r)))
        zj = truncated_Z(ctx, J, aug)
        row = {"rep": r, "n": n}
        for m in m_list:
            row[f"gap_m{m}"] = abs(truncated_Z(ctx, m, aug) - zj)
        rows.append(row)
    medians = {
        str(m): _order_stats([row[f"gap_m{m}"] for row in rows])["median"] for m in m_list
    }
    ordered = [medians[str(m)] for m in sorted(m_list)]
    tables = {
        "n_jumps": J,
        "median_gap": medians,
        "nonincreasing": bool(all(b <= a + 1e-15 for a, b in zip(ordered, ordered[1:]))),
    }
    return ExperimentReport(kind="ZTRUNC", plan=plan.to_dict(), tables=tables, rows=rows)


_RUNNERS = {
    "LLN": run_lln,
    "CLT_jump": run_clt,
    "CLT_mixed": run_clt,
    "RNP": run_rnp_check,
    "GRID": run_grid,
    "ZTRUNC": run_ztrunc,
}


def run_plan(plan: ExperimentPlan) -> ExperimentReport:
    return _RUNNERS[plan.kind](plan)
