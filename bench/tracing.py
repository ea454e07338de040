"""Span tracing of uvstat from outside the package.

Wrappers are installed on chosen functions at every place their name is
looked up (the defining module, every module that imported the name, the
package namespace, or the owning class for a method), and removed again
afterwards.  Each call records a span (id, name, start, end, parent,
thread) in memory; the package itself is not modified.

A span's parent is the innermost open span on its own thread.  A span
opened on a thread with no open span (a pool worker) is adopted by the
open ``harness.run_plan`` span, so worker time is attributed to the plan
that started it.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Optional

# span name -> (module, attribute path); a span's layer is its name's first
# dotted component
TRACED = {
    "cli.main": ("uvstat.cli", "main"),
    "cli.write": ("uvstat.cli", "_write_report"),
    "config.parse": ("uvstat.config", "parse_config"),
    "harness.run_plan": ("uvstat.harness", "run_plan"),
    "simulate.path": ("uvstat.simulate", "simulate_path"),
    "kernels.admissibility": ("uvstat.kernels", "check_admissibility"),
    "kernels.separable_terms": ("uvstat.kernels", "separable_terms"),
    "kernels.moment": ("uvstat.kernels", "Factor1D.gaussian_moment_vec"),
    "stats.v_stat": ("uvstat.stats", "v_stat"),
    "stats.y_stat": ("uvstat.stats", "y_stat"),
    "stats.u_stat": ("uvstat.stats", "u_stat"),
    "limits.jump_limit": ("uvstat.limits", "jump_limit"),
    "limits.mixed_limit": ("uvstat.limits", "mixed_limit"),
    "limits.cond_var_jump": ("uvstat.limits", "cond_var_jump"),
    "limits.cond_var_mixed": ("uvstat.limits", "cond_var_mixed"),
    "sampler.augment": ("uvstat.sampler", "augment"),
    "sampler.sample_U_jump": ("uvstat.sampler", "sample_U_jump"),
    "sampler.sample_V_mixed": ("uvstat.sampler", "sample_V_mixed"),
}

ADOPTING_SPAN = "harness.run_plan"


# span name -> function of the call's result giving the span's work count:
# sigma values evaluated, grid steps simulated
COUNTERS = {
    "kernels.moment": lambda result: int(result.size),
    "simulate.path": lambda result: int(result.n_steps),
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    count: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around the TRACED functions while installed."""

    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._adopter: Optional[int] = None
        self._patches: list = []  # (owner, attribute, original)

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        counter = COUNTERS.get(name)
        adopts = name == ADOPTING_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else tracer._adopter
            previous_adopter = tracer._adopter
            if adopts:
                tracer._adopter = span_id
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if adopts:
                    tracer._adopter = previous_adopter
                count = counter(result) if counter and result is not None else 0
                tracer.spans.append(
                    Span(span_id, name, start, end, parent, threading.get_ident(), count)
                )

        traced.__bench_traced__ = name
        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Replace each traced function wherever a uvstat namespace holds it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        namespaces = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "uvstat"]
        for name, (module_name, attr_path) in TRACED.items():
            owner = sys.modules[module_name]
            *class_path, attr = attr_path.split(".")
            for part in class_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if class_path else getattr(owner, attr)
            if getattr(original, "__bench_traced__", None):
                raise RuntimeError(f"{module_name}.{attr_path} is already wrapped")
            wrapper = self._wrap(name, original)
            if class_path:
                self._patch(owner, attr, original, wrapper)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        """Put every original function back, in reverse order of patching."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    @property
    def patch_sites(self) -> int:
        return len(self._patches)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def take(self) -> list:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def wrapped_sites() -> list:
    """Every (namespace, name) in loaded uvstat modules that holds a wrapper."""
    found = []
    classes = {}
    for module_name, module in sorted(sys.modules.items()):
        if module_name.split(".")[0] != "uvstat":
            continue
        for key, value in vars(module).items():
            if getattr(value, "__bench_traced__", None):
                found.append((module_name, key))
            if isinstance(value, type):
                classes[f"{value.__module__}.{value.__qualname__}"] = value
    for class_name, cls in sorted(classes.items()):
        for attr, member in vars(cls).items():
            if getattr(member, "__bench_traced__", None):
                found.append((class_name, attr))
    return found


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def children_of(spans) -> dict:
    kids: dict = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    return kids


def self_times(spans) -> dict:
    """span id -> duration minus the part of it that child spans cover."""
    kids = children_of(spans)
    return {
        s.id: s.duration - covered([(c.start, c.end) for c in kids.get(s.id, ())], s.start, s.end)
        for s in spans
    }


def outermost(spans, prefix: str) -> list:
    """Spans whose name starts with prefix and that have no such ancestor."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        if not s.name.startswith(prefix):
            continue
        p = by_id.get(s.parent)
        while p is not None and not p.name.startswith(prefix):
            p = by_id.get(p.parent)
        if p is None:
            out.append(s)
    return out


def layer_metrics(spans, threads: int) -> dict:
    """Per-layer figures for the spans of one plan run.

    busy_s sums the durations of a layer's outermost spans (over threads,
    so it can exceed wall time when threads > 1); self_s sums the layer's
    span self times; share divides busy_s by the plan's thread-time,
    cli.main wall x threads.
    """
    selfs = self_times(spans)
    kids = children_of(spans)

    def busy(prefix):
        return sum(s.duration for s in outermost(spans, prefix))

    def calls(prefix):
        return sum(1 for s in spans if s.name.startswith(prefix))

    def self_s(prefix):
        return sum(selfs[s.id] for s in spans if s.name.startswith(prefix))

    plan_wall = sum(s.duration for s in spans if s.name == "cli.main")
    thread_time = plan_wall * threads
    runs = [s for s in spans if s.name == "harness.run_plan"]
    run_time = sum(s.duration for s in runs) * threads
    child_busy = sum(c.duration for r in runs for c in kids.get(r.id, ()))

    paths = outermost(spans, "simulate.")
    sim_busy = sum(s.duration for s in paths)
    moments = [s for s in spans if s.name == "kernels.moment"]
    moment_busy = busy("kernels.moment")

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    return {
        "simulate.calls": calls("simulate."),
        "simulate.busy_s": sim_busy,
        "simulate.ms_per_path": 1e3 * ratio(sim_busy, len(paths)),
        "simulate.steps_per_s": ratio(sum(s.count for s in paths), sim_busy),
        "simulate.share": ratio(sim_busy, thread_time),
        "kernels.moment.calls": len(moments),
        "kernels.moment.sigmas": sum(s.count for s in moments),
        "kernels.moment.busy_s": moment_busy,
        "kernels.moment.share": ratio(moment_busy, thread_time),
        "kernels.separable_terms.calls": calls("kernels.separable_terms"),
        "kernels.separable_terms.busy_s": busy("kernels.separable_terms"),
        "kernels.admissibility_s": busy("kernels.admissibility"),
        "config.parse_s": self_s("config."),
        "stats.calls": calls("stats."),
        "stats.busy_s": busy("stats."),
        "limits.calls": calls("limits."),
        "limits.self_s": self_s("limits."),
        "sampler.calls": calls("sampler."),
        "sampler.self_s": self_s("sampler."),
        "harness.self_s": self_s("harness."),
        "harness.worker_util": ratio(child_busy, run_time),
        "cli.write_s": busy("cli.write"),
    }
