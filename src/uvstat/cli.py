"""Command-line entry point.

Subcommands: simulate, stat, limits, verify-lln, verify-clt, rnp-check,
grid-test, ztrunc.  stat computes V, Y or U (on the config's kernel) or
the power variation PV; PV at --power 2 is the realized quadratic
variation.  limits prints a path's limit on the route its kernel's regime
picks (kernels.JUMP_REGIMES: jump or mixed) and, for a regime with a
stable CLT (kernels.CLT_REGIMES), its conditional variance.  All are
driven by a config file (see config module); --seed overrides the
config's base seed.  --threads is accepted and ignored, so existing
command lines still parse.

Exit codes: 0 success, 1 validation error (bad config/usage, or --input
CSV content with a non-numeric line after the header, a non-finite value,
no increments or bytes that are not UTF-8), 2 runtime error during
execution (a missing --input file among them).

Each experiment run writes report.json, errors.csv and manifest.json
into the output directory; errors.csv has one row per rep (a CLT rep's z,
scaled_error and limit_draw among its columns).  The manifest carries
the canonical config plus library versions (but not wall time, so
reports stay byte-identical across re-runs); timing is printed to stdout.
scipy's version is read from its version file without importing scipy,
so importing this module loads numpy and no scipy module.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib.util
import json
import runpy
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

import uvstat
from uvstat.config import ConfigError, RunConfig, parse_beta_grid, parse_config
from uvstat.harness import ExperimentReport, HarnessError, finite_json, grid_scan, run_plan
from uvstat.kernels import CLT_REGIMES, JUMP_REGIMES, KernelError, kernel_to_text
from uvstat.limits import Context, cond_var_jump, cond_var_mixed, jump_limit, mixed_limit
from uvstat.simulate import SimulationError, path_to_json, simulate_path
from uvstat.stats import load_increments_csv, power_variation, u_stat, v_stat, y_stat

__all__ = ["main", "entrypoint"]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="uvstat",
        description="Simulate jump diffusions, compute U-/V-statistics, verify their limit theorems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, needs_config=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to the JSON run configuration", required=False)
        p.add_argument("--seed", type=int, default=None, help="override the config base_seed")
        p.add_argument(
            "--threads", type=int, default=1, help="ignored; kept so existing command lines parse"
        )
        p.add_argument("--output", default=None, help="override the config output directory")
        return p

    add("simulate", "simulate one path and write it to path.json")
    p_stat = add("stat", "compute one statistic on simulated or CSV data")
    p_stat.add_argument("--stat", choices=("V", "Y", "U", "PV"), default="V", dest="stat_kind")
    p_stat.add_argument("--power", type=float, default=2.0, help="power for PV (2: realized QV)")
    p_stat.add_argument("--scaled", action="store_true", help="scaled power variation")
    p_stat.add_argument("--input", default=None, help="CSV of increments (one per line)")
    add("limits", "exact limit functionals and conditional variances of one path")
    add("verify-lln", "law-of-large-numbers experiment")
    add("verify-clt", "central-limit-theorem experiment")
    add("rnp-check", "jump-neighborhood R(n,p) convergence check")
    p_grid = add("grid-test", "jump-size lattice scan")
    p_grid.add_argument("--input", default=None, help="CSV of increments (one per line)")
    p_grid.add_argument("--beta", default=None, help="beta grid as start:stop:step")
    add("ztrunc", "truncated limit-sum experiment")
    return parser


def _load_config(args) -> RunConfig:
    if not args.config:
        raise ConfigError("missing --config (path to the JSON run configuration)")
    path = Path(args.config)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text ({exc})") from None
    cfg = parse_config(text)
    if args.seed is not None:
        plan = dataclasses.replace(cfg.plan, base_seed=int(args.seed))
        cfg = dataclasses.replace(cfg, plan=plan)
    if args.output is not None:
        cfg = dataclasses.replace(cfg, output_dir=args.output)
    return cfg


@functools.cache
def _scipy_version() -> str:
    """scipy's version, run from the file scipy/__init__ takes __version__ from.

    find_spec locates the package without importing it, so writing a
    manifest loads no scipy module.
    """
    package = Path(importlib.util.find_spec("scipy").origin).parent
    return runpy.run_path(str(package / "version.py"))["version"]


def _manifest(cfg: RunConfig) -> dict:
    return {
        "config": cfg.canonical_dict(),
        "versions": {
            "uvstat": uvstat.__version__,
            "numpy": np.__version__,
            "scipy": _scipy_version(),
            "python": sys.version.split()[0],
        },
    }


def _write_report(report: ExperimentReport, cfg: Optional[RunConfig], outdir: Path) -> list:
    """Write report.json, errors.csv and, given cfg, manifest.json."""
    text = report.to_json()  # refuses a non-finite number before anything is written
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    (outdir / "report.json").write_text(text, encoding="utf-8")
    written.append(outdir / "report.json")
    (outdir / "errors.csv").write_text(report.rows_csv(), encoding="utf-8")
    written.append(outdir / "errors.csv")
    if cfg is not None:
        manifest = json.dumps(_manifest(cfg), sort_keys=True, indent=1) + "\n"
        (outdir / "manifest.json").write_text(manifest, encoding="utf-8")
        written.append(outdir / "manifest.json")
    return written


def _read_increments(path) -> np.ndarray:
    """The increments of a CSV file, whose bad content is a validation error.

    A non-numeric line after the header, a non-finite value, no increments
    at all or bytes that are not UTF-8 exit 1, like any other bad input; a
    file that cannot be opened stays an OSError (exit 2).
    """
    try:
        return load_increments_csv(path)
    except SimulationError as exc:
        raise ConfigError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"CSV input is not UTF-8 text ({exc})") from None


def _cmd_simulate(args, cfg: RunConfig) -> int:
    plan = cfg.plan
    n = plan.n_list[-1]
    path = simulate_path(plan.model, n, plan.t, plan.base_seed)
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    target = outdir / "path.json"
    target.write_text(path_to_json(path), encoding="utf-8")
    print(f"simulated path: n={n}, T={plan.t}, jumps={len(path.sizes)}")
    print(f"wrote {target}")
    return 0


def _cmd_stat(args, cfg: RunConfig) -> int:
    plan = cfg.plan
    input_csv = args.input or cfg.input_csv
    if input_csv:
        data = _read_increments(input_csv)
        n = len(data)
        source = f"csv:{input_csv}"
    else:
        n = plan.n_list[-1]
        data = simulate_path(plan.model, n, plan.t, plan.base_seed)
        source = f"simulated(seed={plan.base_seed})"
    kind = args.stat_kind
    t = plan.t if input_csv is None else None
    if kind == "PV":
        sv = power_variation(data, p=args.power, scaled=args.scaled, t=t)
        kernel_text = None
    else:
        if plan.kernel is None:
            raise ConfigError(f"statistic kind {kind} needs a kernel in the config")
        fn = {"V": v_stat, "Y": y_stat, "U": u_stat}[kind]
        sv = fn(data, plan.kernel, t=t)
        kernel_text = kernel_to_text(plan.kernel)
    doc = {
        "kind": sv.kind,
        "value": sv.value,
        "window": dataclasses.asdict(sv.window),
        "kernel": kernel_text,
        "source": source,
    }
    print(finite_json(doc, "stat"))
    return 0


def _cmd_limits(args, cfg: RunConfig) -> int:
    plan = cfg.plan
    if plan.kernel is None:
        raise ConfigError("the limits command needs a kernel in the config")
    n = plan.n_list[-1]
    path = simulate_path(plan.model, n, plan.t, plan.base_seed)
    kernel = plan.kernel
    if kernel.regime in JUMP_REGIMES:
        limit, cond_var = jump_limit, cond_var_jump
    else:
        limit, cond_var = mixed_limit, cond_var_mixed
    ctx = Context(path, kernel, plan.t)
    lv = limit(ctx)
    doc = {
        "n": n,
        "seed": plan.base_seed,
        "n_jumps": len(path.sizes),
        "limit": lv.value,
        "contributions": list(lv.contributions),
    }
    if kernel.regime in CLT_REGIMES:
        doc["cond_variance"] = dataclasses.asdict(cond_var(ctx))
    print(finite_json(doc, "limits"))
    return 0


def _cmd_experiment(args, cfg: RunConfig, expected_kinds) -> int:
    plan = cfg.plan
    if plan.kind not in expected_kinds:
        raise ConfigError(
            f"config experiment.kind is {plan.kind!r}; this subcommand runs {expected_kinds}"
        )
    start = time.perf_counter()
    report = run_plan(plan)
    elapsed = time.perf_counter() - start
    written = _write_report(report, cfg, Path(cfg.output_dir))
    print(f"{plan.kind} finished in {elapsed:.2f}s ({plan.reps} reps)")
    for item in written:
        print(f"wrote {item}")
    return 0


def _cmd_grid_csv(args) -> int:
    data = _read_increments(args.input)
    beta_grid = parse_beta_grid(args.beta)
    if not beta_grid:
        raise ConfigError("grid-test on CSV input needs --beta start:stop:step")
    report = grid_scan(data, beta_grid)
    # no manifest: the run has no config to record
    written = _write_report(report, None, Path(args.output or "out"))
    best = report.tables["beta_min_normalized"]
    print(f"grid scan over {len(beta_grid)} beta values; minimizer beta = {best}")
    for item in written:
        print(f"wrote {item}")
    return 0


def _cmd_grid(args, cfg: RunConfig) -> int:
    if args.beta:
        plan = dataclasses.replace(cfg.plan, beta_grid=parse_beta_grid(args.beta))
        cfg = dataclasses.replace(cfg, plan=plan)
    return _cmd_experiment(args, cfg, ("GRID",))


# subcommand -> handler(args, cfg); grid-test on --input data reads no config
_COMMANDS = {
    "simulate": _cmd_simulate,
    "stat": _cmd_stat,
    "limits": _cmd_limits,
    "verify-lln": functools.partial(_cmd_experiment, expected_kinds=("LLN",)),
    "verify-clt": functools.partial(_cmd_experiment, expected_kinds=("CLT_jump", "CLT_mixed")),
    "rnp-check": functools.partial(_cmd_experiment, expected_kinds=("RNP",)),
    "grid-test": _cmd_grid,
    "ztrunc": functools.partial(_cmd_experiment, expected_kinds=("ZTRUNC",)),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        # an overflow ends as a non-finite number that finite_json refuses,
        # so numpy's warnings would only print ahead of that one error line
        with np.errstate(all="ignore"):
            if args.command == "grid-test" and args.input:
                return _cmd_grid_csv(args)
            return _COMMANDS[args.command](args, _load_config(args))
    except (ConfigError, KernelError, HarnessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"usage: see `uvstat {args.command} --help`", file=sys.stderr)
        return 1
    except (SimulationError, OSError, ArithmeticError, RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"runtime error: out of memory{detail}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
