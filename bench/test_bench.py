"""Self-tests of the benchmark: span arithmetic, wrapper removal, digest gate.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import Span, Tracer, layer_metrics, self_times, wrapped_sites  # noqa: E402

import uvstat.cli  # noqa: E402,F401  (loads every uvstat module the CLI uses)
import uvstat.config  # noqa: E402
import uvstat.harness  # noqa: E402
import uvstat.kernels  # noqa: E402
import uvstat.limits  # noqa: E402
import uvstat.simulate  # noqa: E402

MAIN, WORKER = 1, 2

TINY_CONFIG = {
    "model": {
        "drift_b": 0.0,
        "vol": {"kind": "Constant", "sigma0": 1.0},
        "jumps": {
            "intensity": 3.0,
            "size_dist": {"type": "AtomList", "atoms": [[1.0, 0.5], [-1.0, 0.5]]},
            "max_abs": 3.0,
        },
        "bound_A": 10.0,
    },
    "kernel": "d=2 l=2 p=4.0,4.0 q=- regime=JumpCLT L=one",
    "experiment": {"kind": "LLN", "n_list": [64, 128], "reps": 3, "t": 1.0},
    "base_seed": 1,
}


def _synthetic_spans():
    # cli.main [0, 10] on the main thread
    #   harness.run_plan [1, 9]
    #     simulate.path [2, 4]
    #     limits.mixed_limit [5, 8]
    #       kernels.moment [6, 7.5]
    #   worker thread, adopted by run_plan: simulate.path [3, 6]
    return [
        Span(1, "cli.main", 0.0, 10.0, None, MAIN),
        Span(2, "harness.run_plan", 1.0, 9.0, 1, MAIN),
        Span(3, "simulate.path", 2.0, 4.0, 2, MAIN, count=100),
        Span(4, "limits.mixed_limit", 5.0, 8.0, 2, MAIN),
        Span(5, "kernels.moment", 6.0, 7.5, 4, MAIN, count=7),
        Span(6, "simulate.path", 3.0, 6.0, 2, WORKER, count=100),
    ]


def test_self_time_is_span_minus_covered_children():
    selfs = self_times(_synthetic_spans())
    assert selfs[1] == 10.0 - 8.0
    # children of run_plan cover [2, 8] once overlaps are merged
    assert selfs[2] == 8.0 - 6.0
    assert selfs[3] == 2.0
    assert selfs[4] == 3.0 - 1.5
    assert selfs[5] == 1.5
    assert selfs[6] == 3.0


def test_layer_metrics_on_synthetic_plan():
    m = layer_metrics(_synthetic_spans(), threads=2)
    assert m["simulate.calls"] == 2
    assert m["simulate.busy_s"] == 5.0
    assert m["simulate.ms_per_path"] == 2500.0
    assert m["simulate.steps_per_s"] == 200 / 5.0
    assert m["simulate.share"] == 5.0 / (10.0 * 2)
    assert m["kernels.moment.calls"] == 1
    assert m["kernels.moment.sigmas"] == 7
    assert m["kernels.moment.busy_s"] == 1.5
    assert m["limits.calls"] == 1
    assert m["limits.self_s"] == 1.5
    assert m["harness.self_s"] == 2.0
    assert m["harness.worker_util"] == (2.0 + 3.0 + 3.0) / (8.0 * 2)
    assert m["sampler.calls"] == 0


def test_wrappers_cover_every_lookup_site_and_are_removed():
    originals = {
        "simulate_path": uvstat.simulate.simulate_path,
        "separable_terms": uvstat.kernels.separable_terms,
        "moment": uvstat.kernels.Factor1D.__dict__["gaussian_moment_vec"],
        "run_plan": uvstat.harness.run_plan,
    }
    tracer = Tracer()
    with tracer:
        assert uvstat.harness.simulate_path.__bench_traced__ == "simulate.path"
        assert uvstat.simulate.simulate_path.__bench_traced__ == "simulate.path"
        assert uvstat.limits.separable_terms.__bench_traced__ == "kernels.separable_terms"
        assert uvstat.kernels.Factor1D.gaussian_moment_vec.__bench_traced__ == "kernels.moment"
        assert uvstat.cli.run_plan.__bench_traced__ == "harness.run_plan"
        assert len(wrapped_sites()) == tracer.patch_sites
        model = uvstat.config.parse_config(json.dumps(TINY_CONFIG)).plan.model
        path = uvstat.harness.simulate_path(model, 32, 1.0, 5)
    spans = tracer.take()
    assert [s.name for s in spans] == ["kernels.admissibility", "config.parse", "simulate.path"]
    assert [s.count for s in spans if s.name == "simulate.path"] == [path.n_steps]
    assert wrapped_sites() == []
    assert uvstat.simulate.simulate_path is originals["simulate_path"]
    assert uvstat.harness.simulate_path is originals["simulate_path"]
    assert uvstat.limits.separable_terms is originals["separable_terms"]
    assert uvstat.kernels.Factor1D.__dict__["gaussian_moment_vec"] is originals["moment"]
    assert uvstat.cli.run_plan is originals["run_plan"]


def _tiny_workload(tmp_path, command="verify-lln"):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    return run.Workload("tiny", cfg, command, threads=2)


def test_wrong_digest_counts_toward_failed(tmp_path):
    w = _tiny_workload(tmp_path)
    runs, _ = run.measure(w, 3, 0.0, False, tmp_path / "out", tmp_path / "spans.jsonl")
    run.check_digests(runs, None)
    assert all(r.ok for r in runs)
    assert [r.seed for r in runs] == [192, 192, 193] and runs[0].digest == runs[1].digest
    pinned = {r.seed: r.digest for r in runs}
    run.check_digests(runs, pinned)
    assert all(r.ok for r in runs)
    wrong = {**pinned, runs[0].seed: "0" * 64}
    run.check_digests(runs, wrong)
    failed = [r for r in runs if not r.ok]
    assert failed and all(r.seed == runs[0].seed for r in failed)
    assert "digest" in failed[0].error


def test_traced_runs_match_untraced_digests(tmp_path):
    w = _tiny_workload(tmp_path)
    runs, layer_runs = run.measure(w, 3, 0.0, True, tmp_path / "out", tmp_path / "spans.jsonl")
    run.check_digests(runs, None)
    assert [r.traced for r in runs] == [False, False, True]
    assert all(r.ok for r in runs) and runs[1].digest == runs[2].digest
    assert len(layer_runs) == 1 and layer_runs[0]["stats.calls"] == 2 * 3
    assert wrapped_sites() == []


def test_failing_plan_run_counts_toward_failed(tmp_path):
    w = _tiny_workload(tmp_path, command="verify-clt")  # an LLN plan: exit code 1
    r = run.run_plan_once(w, 0, 1, tmp_path / "out")
    run.check_digests([r], None)
    assert not r.ok and r.error.startswith("exit code 1")


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
