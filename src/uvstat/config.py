"""Run configuration: a strict JSON document with nested blocks.

A config fully determines a run: model block, textual kernel, experiment
block, io block, base seed.  Parsing is strict (unknown keys are
rejected, every message names the offending key and the violated
constraint) and canonicalization is exact: parse -> canonical_text is a
fixed point, so configs round-trip byte-identically and manifests can
re-run any plan.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

from uvstat.harness import EXPERIMENT_KINDS, ExperimentPlan, HarnessError
from uvstat.kernels import KernelError, KernelSpec, kernel_from_text, kernel_to_text
from uvstat.simulate import (
    JumpModel,
    ModelConfig,
    SimulationError,
    VolatilityModel,
    size_dist_from_dict,
)

__all__ = ["ConfigError", "RunConfig", "parse_config", "canonical_text", "parse_beta_grid"]


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


@dataclass(frozen=True)
class RunConfig:
    plan: ExperimentPlan
    input_csv: Optional[str]
    output_dir: str

    def canonical_dict(self) -> dict:
        plan = self.plan
        doc = {
            "model": plan.to_dict()["model"],
            "kernel": kernel_to_text(plan.kernel) if plan.kernel is not None else None,
            "experiment": {
                "kind": plan.kind,
                "n_list": list(plan.n_list),
                "reps": plan.reps,
                "t": plan.t,
                "beta_grid": list(plan.beta_grid),
                "m_list": list(plan.m_list),
                "require_jumps": plan.require_jumps,
                "collect_samples": plan.collect_samples,
            },
            "io": {"input_csv": self.input_csv, "output_dir": self.output_dir},
            "base_seed": plan.base_seed,
        }
        return doc


def canonical_text(cfg: RunConfig) -> str:
    return json.dumps(cfg.canonical_dict(), sort_keys=True, indent=1) + "\n"


def _require(block: dict, where: str, allowed: dict):
    """Reject unknown keys; return values with defaults applied."""
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}")
    out = {}
    for key, default in allowed.items():
        if default is _REQUIRED and key not in block:
            raise ConfigError(f"missing required key {key!r} in {where}")
        out[key] = block.get(key, default)
    return out


_REQUIRED = object()


def _number(value, where, lo=None, hi=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    if lo is not None and v < lo:
        raise ConfigError(f"{where} must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        raise ConfigError(f"{where} must be <= {hi}, got {v}")
    return v


def _integer(value, where, lo=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"{where} must be >= {lo}, got {value}")
    return value


def parse_beta_grid(spec) -> tuple:
    """A beta grid: a list of numbers or a 'start:stop:step' range (inclusive)."""
    if spec is None:
        return ()
    if isinstance(spec, str):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(
                f"beta_grid range must be 'start:stop:step', got {spec!r}"
            )
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"non-numeric beta_grid range {spec!r}")
        if step <= 0 or stop < start:
            raise ConfigError(f"beta_grid range needs step > 0 and stop >= start, got {spec!r}")
        out = []
        k = 0
        while True:
            v = start + k * step
            if v > stop + 1e-12:
                break
            out.append(round(v, 12))
            k += 1
        return tuple(out)
    if isinstance(spec, (list, tuple)):
        return tuple(_number(v, "experiment.beta_grid entry", lo=None) for v in spec)
    raise ConfigError(f"beta_grid must be a list or 'start:stop:step' string, got {spec!r}")


def _build_model(block: dict) -> ModelConfig:
    vals = _require(
        block,
        "model",
        {
            "drift_b": _REQUIRED,
            "vol": _REQUIRED,
            "jumps": _REQUIRED,
            "bound_A": _REQUIRED,
            "reject_bound_excursions": False,
        },
    )
    volb = _require(
        vals["vol"],
        "model.vol",
        {
            "kind": _REQUIRED,
            "sigma0": _REQUIRED,
            "tilde_b": 0.0,
            "tilde_sigma": 0.0,
            "tilde_v": 0.0,
            "floor_eps": 1e-4,
        },
    )
    jumpb = _require(
        vals["jumps"],
        "model.jumps",
        {"intensity": _REQUIRED, "size_dist": _REQUIRED, "max_abs": _REQUIRED},
    )
    try:
        vol = VolatilityModel(
            kind=volb["kind"],
            sigma0=_number(volb["sigma0"], "model.vol.sigma0"),
            tilde_b=_number(volb["tilde_b"], "model.vol.tilde_b"),
            tilde_sigma=_number(volb["tilde_sigma"], "model.vol.tilde_sigma"),
            tilde_v=_number(volb["tilde_v"], "model.vol.tilde_v"),
            floor_eps=_number(volb["floor_eps"], "model.vol.floor_eps"),
        )
        jumps = JumpModel(
            intensity=_number(jumpb["intensity"], "model.jumps.intensity", lo=0.0),
            size_dist=size_dist_from_dict(jumpb["size_dist"]),
            max_abs=_number(jumpb["max_abs"], "model.jumps.max_abs"),
        )
        return ModelConfig(
            drift_b=_number(vals["drift_b"], "model.drift_b"),
            vol=vol,
            jumps=jumps,
            bound_A=_number(vals["bound_A"], "model.bound_A"),
            reject_bound_excursions=bool(vals["reject_bound_excursions"]),
        )
    except SimulationError as exc:
        raise ConfigError(f"invalid model block: {exc}") from exc


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a config document.

    Kernel/regime coherence is delegated to the admissibility checker via
    plan construction; failures surface here as ConfigError with the
    per-hypothesis report.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    top = _require(
        doc,
        "config",
        {
            "model": _REQUIRED,
            "kernel": None,
            "experiment": _REQUIRED,
            "io": {},
            "base_seed": _REQUIRED,
        },
    )
    model = _build_model(top["model"])
    kernel = None
    if top["kernel"] is not None:
        try:
            kernel = kernel_from_text(top["kernel"])
        except KernelError as exc:
            raise ConfigError(f"invalid kernel text: {exc}") from exc
    expb = _require(
        top["experiment"],
        "experiment",
        {
            "kind": _REQUIRED,
            "n_list": _REQUIRED,
            "reps": _REQUIRED,
            "t": 1.0,
            "beta_grid": None,
            "m_list": (),
            "require_jumps": None,
            "collect_samples": False,
        },
    )
    kind = expb["kind"]
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(
            f"experiment.kind must be one of {EXPERIMENT_KINDS}, got {kind!r}"
        )
    if not isinstance(expb["n_list"], (list, tuple)) or not expb["n_list"]:
        raise ConfigError("experiment.n_list must be a nonempty list of integers")
    n_list = tuple(_integer(n, "experiment.n_list entry", lo=1) for n in expb["n_list"])
    reps = _integer(expb["reps"], "experiment.reps", lo=1)
    t = _number(expb["t"], "experiment.t")
    beta_grid = parse_beta_grid(expb["beta_grid"])
    if any(b <= 0 for b in beta_grid):
        raise ConfigError(f"experiment.beta_grid must be > 0 everywhere, got {beta_grid}")
    m_list = tuple(
        _integer(m, "experiment.m_list entry", lo=0) for m in (expb["m_list"] or ())
    )
    require_jumps = expb["require_jumps"]
    if require_jumps is not None:
        require_jumps = _integer(require_jumps, "experiment.require_jumps", lo=1)
    iob = _require(top["io"], "io", {"input_csv": None, "output_dir": "out"})
    base_seed = _integer(top["base_seed"], "base_seed")
    try:
        plan = ExperimentPlan(
            kind=kind,
            model=model,
            kernel=kernel,
            t=t,
            n_list=n_list,
            reps=reps,
            base_seed=base_seed,
            beta_grid=beta_grid,
            m_list=m_list,
            require_jumps=require_jumps,
            collect_samples=bool(expb["collect_samples"]),
        )
    except (HarnessError, KernelError) as exc:
        raise ConfigError(f"invalid experiment plan: {exc}") from exc
    return RunConfig(plan=plan, input_csv=iob["input_csv"], output_dir=iob["output_dir"])
