"""uvstat benchmark: whole experiment plans through the public CLI.

Each workload is one experiment plan (a config under bench/workloads/)
run by ``uvstat.cli.main`` in this process, from config parsing through
``harness.run_plan`` to the written report files, as a closed loop: the
next plan run starts when the previous one has finished.  Run from the
root of a source checkout:

    python3 bench/run.py --workload clt_mixed --seed 0 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seconds 45 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from spans recorded around calls into each module (see
tracing.py), with traced and untraced plan runs alternating.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Full results (environment, every plan
run, spans) go to .bench_out/.  See bench/workloads/README.md for the
workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    config: Path
    command: str
    threads: int

    def reps_total(self) -> int:
        """reps x |n_list| of the workload's plan."""
        experiment = json.loads(self.config.read_text(encoding="utf-8"))["experiment"]
        return experiment["reps"] * len(experiment["n_list"])


WORKLOADS = {
    w.name: w
    for w in (
        Workload("clt_jump", HERE / "workloads" / "clt_jump.cfg", "verify-clt", threads=1),
        Workload("clt_mixed", HERE / "workloads" / "clt_mixed.cfg", "verify-clt", threads=2),
        Workload(
            "mixed_trig_lln", HERE / "workloads" / "mixed_trig_lln.cfg", "verify-lln", threads=1
        ),
    )
}

# A run at benchmark seed s gives plan run k the CLI seed s*PLAN_SEEDS + k
# (k mod PLAN_SEEDS), so each plan run sees new inputs.  The work of a plan
# depends on its seed (a mixed_trig_lln path without jumps skips its
# quadrature; the quadrature cost follows the volatility path), so the
# reported times average over the plan seeds of a run: a trimmed mean,
# which also drops the plan runs a noisy host slowed most.
PLAN_SEEDS = 64
DEFAULT_SEED = 0
TRIM = 0.1
# sha256 of report.json for each plan seed of DEFAULT_SEED, per workload
PINNED = json.loads((HERE / "workloads" / "digests.json").read_text(encoding="utf-8"))


def trimmed_mean(values) -> float:
    """Mean after dropping the TRIM share of values at each end."""
    xs = sorted(values)
    cut = int(len(xs) * TRIM)
    xs = xs[cut : len(xs) - cut]
    return sum(xs) / len(xs)


def plan_seed(seed: int, k: int) -> int:
    return seed * PLAN_SEEDS + k % PLAN_SEEDS


END_TO_END_UNITS = {
    "wall_s": "s",
    "reps_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "simulate.calls": "count",
    "simulate.busy_s": "s",
    "simulate.ms_per_path": "ms",
    "simulate.steps_per_s": "1/s",
    "simulate.share": "fraction",
    "kernels.moment.calls": "count",
    "kernels.moment.sigmas": "count",
    "kernels.moment.busy_s": "s",
    "kernels.moment.share": "fraction",
    "kernels.separable_terms.calls": "count",
    "kernels.separable_terms.busy_s": "s",
    "kernels.admissibility_s": "s",
    "config.parse_s": "s",
    "stats.calls": "count",
    "stats.busy_s": "s",
    "limits.calls": "count",
    "limits.self_s": "s",
    "sampler.calls": "count",
    "sampler.self_s": "s",
    "harness.self_s": "s",
    "harness.worker_util": "fraction",
    "harness.excluded_frac": "fraction",
    "cli.write_s": "s",
    "trace.overhead_frac": "fraction",
}


# ---------------------------------------------------------------------------
# host readings (read-only)
# ---------------------------------------------------------------------------


def _read(path: str) -> Optional[str]:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return None


def steal_ticks() -> Optional[int]:
    """Host steal time of all CPUs so far, in clock ticks, from /proc/stat."""
    text = _read("/proc/stat")
    if not text:
        return None
    fields = text.splitlines()[0].split()
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def environment() -> dict:
    import numpy
    import scipy

    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(str(index / "level"))
        kind = _read(str(index / "type"))
        size = _read(str(index / "size"))
        if level and kind and size:
            caches[f"L{level.strip()} {kind.strip()}"] = size.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def cpu_seconds() -> float:
    """CPU time of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


# ---------------------------------------------------------------------------
# plan runs
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class PlanRun:
    seed: int
    threads: int
    traced: bool
    wall_s: float
    cpu_s: float
    digest: Optional[str]
    error: Optional[str]
    load_1m: float
    steal_ticks: Optional[int]
    ok: bool = False


def run_plan_once(w: Workload, seed: int, threads: int, outdir: Path, traced=False) -> PlanRun:
    """One plan run through uvstat.cli.main; its report.json is hashed afterwards."""
    from uvstat.cli import main

    report = outdir / "report.json"
    report.unlink(missing_ok=True)
    argv = [
        w.command, "--config", str(w.config), "--seed", str(seed),
        "--threads", str(threads), "--output", str(outdir),
    ]
    captured = io.StringIO()
    error = None
    load = os.getloadavg()[0]
    steal0 = steal_ticks()
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = main(argv)
        if code != 0:
            error = f"exit code {code}: {captured.getvalue().strip()}"
    except Exception:  # a raising plan run is a counted failure, not a crash
        error = traceback.format_exc()
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    steal1 = steal_ticks()
    digest = None
    if error is None:
        try:
            digest = hashlib.sha256(report.read_bytes()).hexdigest()
        except OSError as exc:
            error = f"report.json not readable: {exc}"
    steal = steal1 - steal0 if steal0 is not None and steal1 is not None else None
    return PlanRun(seed, threads, traced, wall, cpu, digest, error, load, steal)


def check_digests(runs, pinned: Optional[dict]) -> None:
    """Mark each run ok or failed.

    A run fails if it raised or exited non-zero, or if its report digest
    differs from the pinned one for its plan seed (when pinned is given)
    or from the first digest seen for its plan seed.
    """
    expected = dict(pinned or {})
    for run in runs:
        if run.error is None and pinned is None:
            expected.setdefault(run.seed, run.digest)
        want = expected.get(run.seed)
        run.ok = run.error is None and run.digest == want
        if run.error is None and not run.ok:
            run.error = f"report digest {run.digest} != expected {want} at plan seed {run.seed}"


def pin_digests(name: str) -> list:
    """Report digests of the plan seeds of DEFAULT_SEED, as digests.json lists them."""
    w = WORKLOADS[name]
    outdir = OUT / name / "pin"
    outdir.mkdir(parents=True, exist_ok=True)
    return [
        run_plan_once(w, plan_seed(DEFAULT_SEED, k), w.threads, outdir).digest
        for k in range(PLAN_SEEDS)
    ]


def excluded_frac(report_path: Path, reps_total: int) -> float:
    """Reps the report excludes from its CLT statistic, as a share of all reps."""
    tables = json.loads(report_path.read_text(encoding="utf-8"))["tables"]
    excluded = sum(int(t.get("excluded", 0)) for t in tables.get("per_n", {}).values())
    return excluded / reps_total


def measure(w: Workload, seed: int, seconds: float, trace: bool, outdir: Path, spans_path: Path):
    """A warm-up plan run, then plan runs for `seconds`.

    Untraced, plan run i uses plan seed k = i.  Traced, plan runs alternate
    untraced and traced, both at plan seed k = i // 2, so each traced report
    is checked against an untraced one.  Returns (runs, per-layer figures
    of each traced run); runs[0] is the warm-up.
    """
    from tracing import Tracer, layer_metrics

    reps_total = w.reps_total()
    # the warm-up runs on one thread, so its report checks that the
    # workload's thread count leaves the bytes unchanged
    runs = [run_plan_once(w, plan_seed(seed, 0), 1, outdir)]
    tracer = Tracer()
    layer_runs = []
    span_rows = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < 2 or time.perf_counter() < deadline:
        traced = trace and i % 2 == 1
        ps = plan_seed(seed, i // 2 if trace else i)
        if traced:
            with tracer:
                run = run_plan_once(w, ps, w.threads, outdir, traced=True)
            spans = tracer.take()
            if run.error is None:
                layers = layer_metrics(spans, w.threads)
                layers["harness.excluded_frac"] = excluded_frac(outdir / "report.json", reps_total)
                layer_runs.append(layers)
            span_rows.extend(dict(dataclasses.asdict(s), run=len(runs)) for s in spans)
        else:
            run = run_plan_once(w, ps, w.threads, outdir)
        runs.append(run)
        i += 1
    if trace:
        spans_path.write_text("".join(json.dumps(r) + "\n" for r in span_rows), encoding="utf-8")
    return runs, layer_runs


def setup_seconds(w: Workload) -> list:
    """Fresh interpreter to a parsed, admissibility-checked plan, SETUP_PROBES times."""
    probe = (
        "import sys; sys.path.insert(0, 'src'); import uvstat.cli; "
        "from uvstat.config import parse_config; "
        "parse_config(open(sys.argv[1], encoding='utf-8').read())"
    )
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", probe, str(w.config)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return times


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(runs, reps_total: int, peak_mb: float, setup: list) -> dict:
    measured = [r for r in runs[1:] if r.ok] or runs[1:]
    wall = trimmed_mean(r.wall_s for r in measured)
    return {
        "wall_s": wall,
        "reps_per_s": reps_total / wall,
        "cpu_s": trimmed_mean(r.cpu_s for r in measured),
        "peak_rss_mb": peak_mb,
        "setup_s": statistics.median(setup),
    }


def per_layer(runs, layer_runs) -> dict:
    out = {
        name: trimmed_mean(lr[name] for lr in layer_runs) if layer_runs else 0.0
        for name in PER_LAYER_UNITS
        if name != "trace.overhead_frac"
    }
    plain = [r.wall_s for r in runs[1:] if r.ok and not r.traced]
    traced = [r.wall_s for r in runs[1:] if r.ok and r.traced]
    overhead = 0.0
    if plain and traced:
        base = trimmed_mean(plain)
        overhead = (trimmed_mean(traced) - base) / base
    out["trace.overhead_frac"] = overhead
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    outdir = OUT / w.name / "run"
    outdir.mkdir(parents=True, exist_ok=True)
    tag = f"{w.name}-seed{seed}-trace{int(trace)}"
    runs, layer_runs = measure(w, seed, seconds, trace, outdir, OUT / f"{tag}-spans.jsonl")
    pinned = None
    if seed == DEFAULT_SEED:
        pinned = {plan_seed(seed, k): d for k, d in enumerate(PINNED[w.name])}
    check_digests(runs, pinned)
    reps_total = w.reps_total()
    if trace:
        metrics, units, setup = per_layer(runs, layer_runs), PER_LAYER_UNITS, []
    else:
        peak = peak_rss_mb()  # before the setup probes, which are children too
        setup = setup_seconds(w)
        metrics, units = end_to_end(runs, reps_total, peak, setup), END_TO_END_UNITS
    failed = sum(1 for r in runs if not r.ok)
    record = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "digests_pinned": pinned is not None,
        "runs": [dataclasses.asdict(r) for r in runs],
        "setup_s_samples": setup,
        "metrics": metrics,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    measured = runs[1:]
    print(f"workload {w.name}: seed {seed}, {len(measured)} measured plan runs over "
          f"{len({r.seed for r in measured})} plan seeds (+1 warm-up at "
          f"threads=1), threads={w.threads}, reps x |n_list| = {reps_total} per plan run")
    if not trace:
        walls = [r.wall_s for r in measured]
        print(f"  plan wall: trimmed mean {trimmed_mean(walls):.6g} s, median "
              f"{statistics.median(walls):.6g} s, {len(walls)} samples; setup_s median of "
              f"{len(setup)} fresh interpreters")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    print(f"  {'failed_frac':32s} {failed / len(runs):.6g} ({failed} of {len(runs)} plan runs)")
    for r in runs:
        if not r.ok:
            print(f"failed plan run: {r.error}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process; metrics are prefixed with the workload name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        *lines, last = proc.stdout.strip().splitlines()
        print("\n".join(lines))
        child = json.loads(last)
        combined["correct"] = combined["correct"] and child["correct"]
        combined["attempted"] += child["attempted"]
        combined["failed"] += child["failed"]
        for metric, entry in child["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="benchmark seed >= 0; plan seeds are seed*%d + k" % PLAN_SEEDS)
    parser.add_argument("--seconds", type=float, default=45.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "uvstat" / "__init__.py").is_file():
        print(f"error: no uvstat source tree at {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
