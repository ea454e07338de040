"""Run configuration: a strict JSON document with nested blocks.

A config fully determines a run: model block, textual kernel, experiment
block, io block, base seed.  Parsing is strict: every block must be a
JSON object, unknown keys are rejected, and every message names the
offending key and the violated constraint.  This module decodes every
block, the model block included: config_from_dict builds it, jump-size
distribution and all, from the fields of the model dataclasses, so they
alone hold its field names, defaults and checks.
Canonicalization is exact: parse -> canonical_text is a fixed point, so
configs round-trip byte-identically and manifests can re-run any plan.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import MISSING, dataclass, fields
from typing import Optional

from uvstat.harness import EXPERIMENT_KINDS, ExperimentPlan, HarnessError
from uvstat.kernels import KernelError, kernel_from_text
from uvstat.simulate import (
    AtomList,
    JumpModel,
    ModelConfig,
    SimulationError,
    TruncNormal,
    Uniform,
    VolatilityModel,
    _number,
)

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config",
    "canonical_text",
    "parse_beta_grid",
    "config_from_dict",
]

# largest number of entries a 'start:stop:step' beta range may expand to
_MAX_BETA_GRID = 10_000
# largest floor(n t) grid steps of one path, and largest expected jump
# count intensity * t: a path holds a few float arrays of each length, so
# these keep one path to some hundred megabytes
_MAX_GRID_STEPS = 2**22
_MAX_EXPECTED_JUMPS = 200_000


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


@dataclass(frozen=True)
class RunConfig:
    plan: ExperimentPlan
    input_csv: Optional[str]
    output_dir: str

    def canonical_dict(self) -> dict:
        experiment = self.plan.to_dict()
        return {
            "model": experiment.pop("model"),
            "kernel": experiment.pop("kernel"),
            "base_seed": experiment.pop("base_seed"),
            "experiment": experiment,
            "io": {"input_csv": self.input_csv, "output_dir": self.output_dir},
        }


def canonical_text(cfg: RunConfig) -> str:
    return json.dumps(cfg.canonical_dict(), sort_keys=True, indent=1) + "\n"


@contextlib.contextmanager
def _config_errors():
    """Report a failed shared check (a SimulationError) as a ConfigError, exit code 1."""
    try:
        yield
    except SimulationError as exc:
        raise ConfigError(str(exc)) from exc


_REQUIRED = object()


def _require(block, where: str, allowed: dict) -> dict:
    """Reject a non-object block and unknown or missing keys; apply defaults."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object, got {block!r}")
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}")
    out = {}
    for key, default in allowed.items():
        if default is _REQUIRED and key not in block:
            raise ConfigError(f"missing required key {key!r} in {where}")
        out[key] = block.get(key, default)
    return out


def _integer(value, where, lo=None) -> int:
    """An integer, not a bool, and at least lo when given."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"{where} must be >= {lo}, got {value}")
    return value


def _boolean(value, where) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false, got {value!r}")
    return value


def _string(value, where, null=False):
    if not (isinstance(value, str) or (null and value is None)):
        raise ConfigError(f"{where} must be a string{' or null' if null else ''}, got {value!r}")
    return value


def _array(value, where) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where} must be an array, got {value!r}")
    return tuple(value)


_SIZE_DISTS = {cls.__name__: cls for cls in (AtomList, Uniform, TruncNormal)}


def _size_dist(block, where):
    """A tagged size distribution: "type" names the class, the other keys are its fields."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object, got {block!r}")
    rest = dict(block)
    kind = rest.pop("type", None)
    cls = _SIZE_DISTS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"{where}.type must be one of {sorted(_SIZE_DISTS)}, got {kind!r}")
    return _decode(cls, rest, where)


# decoder of a model dataclass field, keyed by its annotation; "object" is
# JumpModel.size_dist
_FIELD_DECODERS = {
    "float": _number,
    "bool": _boolean,
    "str": _string,
    "tuple": _array,
    "object": _size_dist,
    "VolatilityModel": lambda value, where: _decode(VolatilityModel, value, where),
    "JumpModel": lambda value, where: _decode(JumpModel, value, where),
}


def _decode(cls, block, where: str):
    """Build the dataclass cls from a JSON object; field names and defaults come from cls."""
    allowed = {f.name: _REQUIRED if f.default is MISSING else f.default for f in fields(cls)}
    vals = _require(block, where, allowed)
    kwargs = {f.name: _FIELD_DECODERS[f.type](vals[f.name], f"{where}.{f.name}") for f in fields(cls)}
    try:
        return cls(**kwargs)
    except SimulationError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@_config_errors()
def config_from_dict(d) -> ModelConfig:
    """Decode a model block (the inverse of simulate.config_to_dict).

    It is strict: every block must be a JSON object, unknown and missing
    keys are rejected (fields with a dataclass default may be omitted),
    float fields must be finite numbers, and booleans must be true/false.
    Every error is a ConfigError naming its key path, e.g.
    model.jumps.size_dist.mu.
    """
    return _decode(ModelConfig, d, "model")


@_config_errors()
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
        # start + k step carries rounding of about 1e-16 of the values: pad
        # stop and round each value to 12 significant digits, both relative
        # to the values, so a grid of 1e-300s keeps its entries
        slack = 1e-12 * max(abs(start), abs(stop))
        span = (stop - start + slack) / step
        if not span < _MAX_BETA_GRID:
            raise ConfigError(f"beta_grid range {spec!r} has more than {_MAX_BETA_GRID} entries")
        out = []
        # one spare step: the float test below decides whether stop is included
        for k in range(int(span) + 2):
            v = start + k * step
            if v > stop + slack:
                break
            out.append(float(f"{v:.12g}"))
        return tuple(out)
    if isinstance(spec, (list, tuple)):
        return tuple(_number(v, "experiment.beta_grid entry", lo=None) for v in spec)
    raise ConfigError(f"beta_grid must be a list or 'start:stop:step' string, got {spec!r}")


def _check_size_budgets(model, n: int, t: float) -> None:
    """Refuse a path whose grid or expected jump count exceeds its budget.

    n is the largest of experiment.n_list; floor(n t) is tested as the
    float n t + 1e-12, so an overflowing product is refused too.
    """
    if n * t + 1e-12 >= _MAX_GRID_STEPS + 1:
        raise ConfigError(
            f"experiment.n_list entry {n} with experiment.t = {t!r} gives floor(n t) "
            f"grid steps per path above the budget {_MAX_GRID_STEPS}"
        )
    expected = model.jumps.intensity * t
    if expected > _MAX_EXPECTED_JUMPS:
        raise ConfigError(
            f"model.jumps.intensity = {model.jumps.intensity!r} with experiment.t = {t!r} "
            f"expects {expected:.6g} jumps per path, above the budget {_MAX_EXPECTED_JUMPS}"
        )


@_config_errors()
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
    model = config_from_dict(top["model"])
    kernel_text = _string(top["kernel"], "kernel", null=True)
    kernel = None
    if kernel_text is not None:
        try:
            kernel = kernel_from_text(kernel_text)
        except KernelError as exc:
            raise ConfigError(f"invalid kernel text: {exc}") from exc
    exp = _require(
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
    if exp["kind"] not in EXPERIMENT_KINDS:
        raise ConfigError(
            f"experiment.kind must be one of {EXPERIMENT_KINDS}, got {exp['kind']!r}"
        )
    if not isinstance(exp["n_list"], (list, tuple)) or not exp["n_list"]:
        raise ConfigError("experiment.n_list must be a nonempty list of integers")
    exp["n_list"] = tuple(_integer(n, "experiment.n_list entry", lo=1) for n in exp["n_list"])
    exp["reps"] = _integer(exp["reps"], "experiment.reps", lo=1)
    exp["t"] = _number(exp["t"], "experiment.t")
    _check_size_budgets(model, max(exp["n_list"]), exp["t"])
    exp["beta_grid"] = parse_beta_grid(exp["beta_grid"])
    exp["m_list"] = tuple(
        _integer(m, "experiment.m_list entry", lo=0)
        for m in _array(exp["m_list"], "experiment.m_list")
    )
    if exp["require_jumps"] is not None:
        exp["require_jumps"] = _integer(exp["require_jumps"], "experiment.require_jumps", lo=1)
    exp["collect_samples"] = _boolean(exp["collect_samples"], "experiment.collect_samples")
    iob = _require(top["io"], "io", {"input_csv": None, "output_dir": "out"})
    base_seed = _integer(top["base_seed"], "base_seed")
    try:
        plan = ExperimentPlan(model=model, kernel=kernel, base_seed=base_seed, **exp)
    except (HarnessError, KernelError) as exc:
        raise ConfigError(f"invalid experiment plan: {exc}") from exc
    return RunConfig(
        plan=plan,
        input_csv=_string(iob["input_csv"], "io.input_csv", null=True),
        output_dir=_string(iob["output_dir"], "io.output_dir"),
    )
