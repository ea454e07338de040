"""Simulation of a one-dimensional Ito semimartingale with jumps.

    X_t = X_0 + b t + int_0^t sigma_s dW_s + sum_{S_p <= t} Z_p

observed on the grid {0, 1/n, ..., floor(nT)/n}.  The volatility is
either constant or itself a continuous Ito semimartingale driven by W
and an independent Brownian motion V (Euler scheme, clamped away from
zero).  Jumps come from a finite-activity compound Poisson process with
exact times, so the path carries all the ground truth the limit
formulas need: jump times/sizes, one-sided spot volatilities, and the
Brownian increment accumulated up to each jump inside its grid interval.

Everything is a deterministic function of (config, n, T, seed): the seed
is expanded into three independent substreams (jumps, W, V) so the
Brownian draws do not depend on how many jumps were placed.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Optional

import numpy as np

__all__ = [
    "SimulationError",
    "VolatilityModel",
    "AtomList",
    "Uniform",
    "TruncNormal",
    "JumpModel",
    "ModelConfig",
    "JumpRecord",
    "SamplePath",
    "simulate_path",
    "increments",
    "first_order_increments",
    "jump_neighborhood",
    "JumpNeighborhood",
    "path_to_json",
    "path_from_json",
    "path_to_binary",
    "path_from_binary",
]


class SimulationError(ValueError):
    """Invalid model configuration or simulation failure."""


_REQUIRED = object()


def _require(block, where: str, allowed: dict) -> dict:
    """Reject a non-object block and unknown or missing keys; apply defaults."""
    if not isinstance(block, dict):
        raise SimulationError(f"{where} must be an object, got {block!r}")
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise SimulationError(f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}")
    out = {}
    for key, default in allowed.items():
        if default is _REQUIRED and key not in block:
            raise SimulationError(f"missing required key {key!r} in {where}")
        out[key] = block.get(key, default)
    return out


def _number(value, where, lo=None) -> float:
    """A finite number, as float, and at least lo when given."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SimulationError(f"{where} must be a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise SimulationError(f"{where} must be finite, got {value!r}")
    if lo is not None and v < lo:
        raise SimulationError(f"{where} must be >= {lo}, got {v}")
    return v


# ---------------------------------------------------------------------------
# Model configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VolatilityModel:
    """Spot volatility: constant, or a continuous Ito semimartingale.

    For kind="ItoSM" the volatility follows
    sigma_t = sigma0 + int tilde_b ds + int tilde_sigma dW + int tilde_v dV
    on the grid (Euler).  Values are clamped at floor_eps > 0; clamps are
    counted on the path so mixed-regime experiments can exclude clamped
    paths.
    """

    kind: str
    sigma0: float
    tilde_b: float = 0.0
    tilde_sigma: float = 0.0
    tilde_v: float = 0.0
    floor_eps: float = 1e-4

    def __post_init__(self):
        if self.kind not in ("Constant", "ItoSM"):
            raise SimulationError(f"unknown volatility kind {self.kind!r}")
        if not self.sigma0 > 0:
            raise SimulationError(f"sigma0 must be > 0, got {self.sigma0}")
        if not self.floor_eps > 0:
            raise SimulationError(f"floor_eps must be > 0, got {self.floor_eps}")
        if self.kind == "Constant" and (self.tilde_b or self.tilde_sigma or self.tilde_v):
            raise SimulationError("Constant volatility requires tilde_b = tilde_sigma = tilde_v = 0")


@dataclass(frozen=True)
class AtomList:
    """Discrete jump sizes: ((value, prob), ...)."""

    atoms: tuple

    def __post_init__(self):
        atoms = []
        for i, atom in enumerate(self.atoms):
            if not isinstance(atom, (list, tuple)) or len(atom) != 2:
                raise SimulationError(f"AtomList atom {i} must be a (value, prob) pair, got {atom!r}")
            v, p = atom
            atoms.append(
                (_number(v, f"AtomList atom {i} value"), _number(p, f"AtomList atom {i} prob", lo=0.0))
            )
        atoms = tuple(atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise SimulationError("AtomList needs at least one atom")
        if any(v == 0.0 for v, _ in atoms):
            raise SimulationError("jump sizes must be nonzero")
        if not math.isclose(sum(p for _, p in atoms), 1.0, rel_tol=1e-9):
            raise SimulationError("atom probabilities must sum to 1")

    @functools.cached_property
    def _table(self) -> tuple:
        """(values, probabilities) as arrays, built once per distribution."""
        return np.array([v for v, _ in self.atoms]), np.array([p for _, p in self.atoms])

    def draw(self, gen: np.random.Generator, count: int) -> np.ndarray:
        values, probs = self._table
        idx = gen.choice(len(values), size=count, p=probs)
        return values[idx]

    def max_abs_support(self) -> float:
        return max(abs(v) for v, _ in self.atoms)

    def second_moment(self) -> float:
        return sum(p * v * v for v, p in self.atoms)


@dataclass(frozen=True)
class Uniform:
    """Uniform jump sizes on [a, b]."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise SimulationError(f"Uniform requires a < b, got [{self.a}, {self.b}]")

    def draw(self, gen: np.random.Generator, count: int) -> np.ndarray:
        return gen.uniform(self.a, self.b, size=count)

    def max_abs_support(self) -> float:
        return max(abs(self.a), abs(self.b))

    def second_moment(self) -> float:
        return (self.a ** 2 + self.a * self.b + self.b ** 2) / 3.0


# draw() rejects a candidate with probability 1 - P(|Z| >= min_abs); below
# this acceptance rate it would effectively never fill
_MIN_TAIL_MASS = 1e-6


@dataclass(frozen=True)
class TruncNormal:
    """Normal(mu, s^2) conditioned on |z| >= min_abs (rejection sampling)."""

    mu: float
    s: float
    min_abs: float

    def __post_init__(self):
        for name in ("mu", "s", "min_abs"):
            _number(getattr(self, name), f"TruncNormal {name}")
        if not self.s > 0:
            raise SimulationError(f"TruncNormal scale must be > 0, got {self.s}")
        if not self.min_abs > 0:
            raise SimulationError(f"TruncNormal min_abs must be > 0, got {self.min_abs}")
        mass = self._tail_mass()
        if mass < _MIN_TAIL_MASS:
            raise SimulationError(
                f"TruncNormal tail mass P(|Z| >= min_abs) = {mass:.3g} is below {_MIN_TAIL_MASS:g}"
            )

    def draw(self, gen: np.random.Generator, count: int) -> np.ndarray:
        out = np.empty(count)
        filled = 0
        while filled < count:
            cand = gen.normal(self.mu, self.s, size=max(count - filled, 16))
            keep = cand[np.abs(cand) >= self.min_abs]
            take = min(len(keep), count - filled)
            out[filled : filled + take] = keep[:take]
            filled += take
        return out

    def max_abs_support(self) -> float:
        # unbounded support; the model-level bound comes from max_abs below
        return math.inf

    def _tail_mass(self) -> float:
        """P(|Z| >= min_abs) = Q(alpha) + Phi(beta), alpha = (a - mu)/s, beta = (-a - mu)/s."""
        scale = self.s * math.sqrt(2.0)
        return 0.5 * (
            math.erfc((self.min_abs - self.mu) / scale) + math.erfc((self.min_abs + self.mu) / scale)
        )

    def second_moment(self) -> float:
        """E[Z^2 | |Z| >= a] in closed form, with Q = 1 - Phi:

        E[Z^2; |Z| >= a] = (mu^2 + s^2)(Q(alpha) + Phi(beta))
                           + s (a + mu) phi(alpha) - s (mu - a) phi(beta).
        """
        mu, s, a = self.mu, self.s, self.min_abs
        alpha, beta = (a - mu) / s, (-a - mu) / s
        mass = self._tail_mass()
        pdf_alpha = math.exp(-0.5 * alpha * alpha) / math.sqrt(2.0 * math.pi)
        pdf_beta = math.exp(-0.5 * beta * beta) / math.sqrt(2.0 * math.pi)
        tail = (mu * mu + s * s) * mass + s * (a + mu) * pdf_alpha - s * (mu - a) * pdf_beta
        return tail / mass


@dataclass(frozen=True)
class JumpModel:
    """Compound Poisson jumps: rate per unit time plus a size distribution."""

    intensity: float
    size_dist: object
    max_abs: float

    def __post_init__(self):
        if self.intensity < 0:
            raise SimulationError(f"jump intensity must be >= 0, got {self.intensity}")
        if not self.max_abs > 0:
            raise SimulationError(f"max_abs must be > 0, got {self.max_abs}")
        support = self.size_dist.max_abs_support()
        if math.isfinite(support) and support > self.max_abs * (1 + 1e-12):
            raise SimulationError(
                f"size distribution support {support} exceeds max_abs={self.max_abs}"
            )

    def draw_sizes(self, gen: np.random.Generator, count: int) -> np.ndarray:
        sizes = self.size_dist.draw(gen, count)
        return np.clip(sizes, -self.max_abs, self.max_abs)


@dataclass(frozen=True)
class ModelConfig:
    """Full data-generating model, with the localization bound used by checks."""

    drift_b: float
    vol: VolatilityModel
    jumps: JumpModel
    bound_A: float
    reject_bound_excursions: bool = False

    def __post_init__(self):
        if not self.bound_A > 0:
            raise SimulationError(f"bound_A must be > 0, got {self.bound_A}")
        if abs(self.drift_b) > self.bound_A:
            raise SimulationError(f"|drift_b|={abs(self.drift_b)} exceeds bound_A={self.bound_A}")
        if self.vol.sigma0 > self.bound_A:
            raise SimulationError(f"sigma0={self.vol.sigma0} exceeds bound_A={self.bound_A}")
        if self.jumps.max_abs > self.bound_A:
            raise SimulationError(
                f"jump bound max_abs={self.jumps.max_abs} exceeds bound_A={self.bound_A}"
            )


# ---------------------------------------------------------------------------
# Sample paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JumpRecord:
    """Ground truth for one jump: exact time, size, one-sided volatilities."""

    time: float
    size: float
    sigma_pre: float
    sigma_post: float
    interval_index: int  # 1-based: (i-1)/n < S_p <= i/n


@dataclass(frozen=True)
class SamplePath:
    """A simulated path on the grid, immutable, with exact jump ground truth.

    w_before_jump[p] is W_{S_p} - W_{(i-1)/n} for the interval containing
    jump p (NaN when the jump falls past the last full grid interval);
    together with the drift and the left grid volatility it reconstructs
    the pre-jump state X_{S_p-} exactly as the simulator built it.
    """

    T: float
    n: int
    x_grid: np.ndarray
    sigma_grid: np.ndarray
    w_increments: np.ndarray
    jumps: tuple
    seed: int
    config: ModelConfig
    w_before_jump: np.ndarray
    n_sigma_clamps: int = 0

    def __post_init__(self):
        for arr in (self.x_grid, self.sigma_grid, self.w_increments, self.w_before_jump):
            arr.setflags(write=False)

    @property
    def n_steps(self) -> int:
        return len(self.w_increments)

    @property
    def clamped(self) -> bool:
        return self.n_sigma_clamps > 0

    def jump_sizes(self, t: Optional[float] = None) -> np.ndarray:
        if t is None:
            return np.array([r.size for r in self.jumps])
        return np.array([r.size for r in self.jumps if r.time <= t])

    def jumps_until(self, t: Optional[float] = None) -> tuple:
        if t is None:
            return self.jumps
        return tuple(r for r in self.jumps if r.time <= t)

    def window(self, t: Optional[float] = None) -> tuple:
        """(t, count): t in (0, T] (T by default) and its grid steps min(floor(n t), n_steps)."""
        t = self.T if t is None else float(t)
        if not 0 < t <= self.T + 1e-12:
            raise SimulationError(f"t={t} outside (0, T={self.T}]")
        return t, min(_count(self.n, t), self.n_steps)


def _count(n: int, t: float) -> int:
    return int(math.floor(n * t + 1e-12))


def _streams(cfg: ModelConfig, T: float, seed: int):
    """Expand a path seed into its jump, W and V substreams; draw the jump count.

    Returns (n_jumps, jump_gen, w_ss, v_ss): the Poisson number of jumps on
    (0, T] is the first draw of the jump generator, so callers that only
    need the count (harness._find_path_with_jumps) read it without
    simulating the path.
    """
    jump_ss, w_ss, v_ss = np.random.SeedSequence(seed).spawn(3)
    jump_gen = np.random.default_rng(jump_ss)
    n_jumps = int(jump_gen.poisson(cfg.jumps.intensity * T)) if cfg.jumps.intensity > 0 else 0
    return n_jumps, jump_gen, w_ss, v_ss


def simulate_path(
    cfg: ModelConfig, n: int, T: float, seed: int, clamp_budget: int = 1000
) -> SamplePath:
    """Simulate X on {0, 1/n, ..., floor(nT)/n} with exact jump placement.

    Jump times are uniform on (0, T]; the Brownian increment of an
    interval containing jumps is drawn as the sum of the sub-increments
    between consecutive jump times, so W is known exactly at every jump.
    The X increment over interval i is b/n + sigma_{(i-1)/n} Delta_i W
    plus the sizes of the jumps it contains (Euler with left-frozen
    volatility).

    The Brownian draws are one standard-normal fill, scaled in place, in
    the order of a per-interval scalar loop: sqrt(1/n) for an interval
    without jumps, sqrt(dt) for each sub-segment of one with jumps (a
    segment with dt <= 0 draws nothing), so the random stream and every
    bit (0.0 + scale * z, as numpy's normal forms it) are those of one
    scalar draw per segment.  An ItoSM volatility is one sequential
    running sum of sigma0, b~/n, s~ Delta W_i, v~ Delta V_i, ... (the
    Euler step's own order of additions) up to the first value below
    floor_eps; from there on a scalar loop clamps and counts.
    """
    if n < 1:
        raise SimulationError(f"n must be >= 1, got {n}")
    if not T > 0:
        raise SimulationError(f"T must be > 0, got {T}")
    N = _count(n, T)
    if N < 1:
        raise SimulationError(f"grid {{0, 1/n, ...}} has no step for n={n}, T={T}")

    n_jumps, jump_gen, w_ss, v_ss = _streams(cfg, T, seed)
    w_gen = np.random.default_rng(w_ss)

    # jumps: sorted times on (0, T], then sizes in time order
    if n_jumps > 0:
        times = np.sort(T * (1.0 - jump_gen.random(n_jumps)))
        sizes = cfg.jumps.draw_sizes(jump_gen, n_jumps)
    else:
        times = np.zeros(0)
        sizes = np.zeros(0)
    intervals = np.ceil(times * n - 1e-12).astype(int)
    intervals = np.maximum(intervals, 1)

    # Brownian increments, split at jump times inside each interval; one
    # draw that runs interval by interval, and within an interval holding
    # jumps over its sub-segments in time order
    jumps_by_interval: dict = {}
    for p, idx in enumerate(intervals):
        if idx <= N:
            jumps_by_interval.setdefault(int(idx), []).append(p)
    step = math.sqrt(1.0 / n)
    segments = {}  # sub-segment lengths of each interval holding jumps
    seg_draws, seg_dts = [], []  # draw index and length of each drawn sub-segment
    draws = prev = 0  # draws so far; intervals prev+1 .. i-1 hold no jump
    for i, here in jumps_by_interval.items():
        cuts = [(i - 1) / n] + [times[p] for p in here] + [i / n]
        segments[i] = [b - a for a, b in zip(cuts[:-1], cuts[1:])]
        draws += i - 1 - prev
        for dt in segments[i]:
            if dt > 0:
                seg_draws.append(draws)
                seg_dts.append(dt)
                draws += 1
        prev = i
    draws += N - prev
    # numpy's normal(0.0, scale) is 0.0 + scale * z, element by element:
    # every draw scaled by sqrt(1/n), then the sub-segment draws rescaled
    # from their standard normals by sqrt(dt)
    dw = w_gen.standard_normal(draws)
    z = dw[seg_draws]
    dw *= step
    dw[seg_draws] = z * np.sqrt(seg_dts)
    dw += 0.0

    w_inc = np.empty(N)
    w_before = np.full(n_jumps, np.nan)
    k = prev = 0  # next unread draw; intervals done
    for i, dts in segments.items():
        w_inc[prev : i - 1] = dw[k : k + i - 1 - prev]
        k += i - 1 - prev
        here = jumps_by_interval[i]
        acc = 0.0
        for seg, dt in enumerate(dts):
            if dt > 0:
                acc += dw[k]
                k += 1
            if seg < len(here):
                w_before[here[seg]] = acc
        w_inc[i - 1] = acc
        prev = i
    w_inc[prev:] = dw[k:]

    # volatility on the grid (Euler, clamped at floor_eps)
    vol = cfg.vol
    n_clamps = 0
    first_clamp = -1
    if vol.kind == "Constant":
        sigma = np.full(N + 1, vol.sigma0)
    else:
        v_inc = np.random.default_rng(v_ss).normal(0.0, step, size=N)
        terms = np.empty(3 * N + 1)
        terms[0] = vol.sigma0
        terms[1::3] = vol.tilde_b / n
        terms[2::3] = vol.tilde_sigma * w_inc
        terms[3::3] = vol.tilde_v * v_inc
        sigma = np.add.accumulate(terms)[::3].copy()
        low = np.flatnonzero(sigma[1:] < vol.floor_eps)
        for i in range(low[0] if len(low) else N, N):
            nxt = sigma[i] + vol.tilde_b / n + vol.tilde_sigma * w_inc[i] + vol.tilde_v * v_inc[i]
            if nxt < vol.floor_eps:
                nxt = vol.floor_eps
                n_clamps += 1
                if first_clamp < 0:
                    first_clamp = i + 1
            sigma[i + 1] = nxt
    if n_clamps > clamp_budget:
        raise SimulationError(
            f"volatility clamped {n_clamps} times (> budget {clamp_budget}); "
            f"first offending interval {first_clamp}"
        )

    # spot volatility at jump times: left grid state plus deterministic
    # partial Euler drift step (continuous volatility, so pre = post)
    records = []
    for p in range(n_jumps):
        idx = int(intervals[p])
        left = sigma[min(idx - 1, N)]
        if vol.kind == "ItoSM":
            pre = max(left + vol.tilde_b * (times[p] - (idx - 1) / n), vol.floor_eps)
        else:
            pre = left
        records.append(
            JumpRecord(
                time=float(times[p]),
                size=float(sizes[p]),
                sigma_pre=float(pre),
                sigma_post=float(pre),
                interval_index=idx,
            )
        )

    # X increments and grid values
    inc = sigma[:N] * w_inc
    inc += cfg.drift_b / n
    for i, here in jumps_by_interval.items():
        inc[i - 1] += sizes[here].sum()
    x_grid = np.empty(N + 1)
    x_grid[0] = 0.0
    np.cumsum(inc, out=x_grid[1:])

    if cfg.reject_bound_excursions and np.max(np.abs(x_grid)) > cfg.bound_A:
        raise SimulationError(
            f"path exceeded bound_A={cfg.bound_A} (max |X| = {np.max(np.abs(x_grid)):.6g})"
        )

    return SamplePath(
        T=float(T),
        n=int(n),
        x_grid=x_grid,
        sigma_grid=sigma,
        w_increments=w_inc,
        jumps=tuple(records),
        seed=int(seed),
        config=cfg,
        w_before_jump=w_before,
        n_sigma_clamps=n_clamps,
    )


# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------


def increments(path: SamplePath, t: Optional[float] = None) -> np.ndarray:
    """Observed increments Delta_i X = X_{i/n} - X_{(i-1)/n}, i = 1..floor(nt)."""
    m = path.window(t)[1]
    return np.diff(path.x_grid[: m + 1])


def first_order_increments(path: SamplePath, t: Optional[float] = None) -> np.ndarray:
    """First-order approximation sqrt(n) sigma_{(i-1)/n} Delta_i W of the scaled increments."""
    m = path.window(t)[1]
    return math.sqrt(path.n) * path.sigma_grid[:m] * path.w_increments[:m]


@dataclass(frozen=True)
class JumpNeighborhood:
    """R_-(n,p), R_+(n,p) and R = R_- + R_+ around one jump."""

    r_minus: float
    r_plus: float
    r: float
    shared_interval: bool


def jump_neighborhood(path: SamplePath, p: int) -> JumpNeighborhood:
    """The scaled pre/post-jump displacements inside jump p's grid interval.

    R_- = sqrt(n) (X_{S_p-} - X_{(i-1)/n}), R_+ = sqrt(n) (X_{i/n} - X_{S_p});
    X_{S_p-} is reconstructed exactly from the stored Brownian sub-increment
    and any earlier jumps in the same interval.  A jump sharing its
    interval with another one is flagged (it degrades CLT-quality
    diagnostics only).
    """
    if not 0 <= p < len(path.jumps):
        raise SimulationError(f"jump index {p} outside 0..{len(path.jumps) - 1}")
    rec = path.jumps[p]
    i = rec.interval_index
    if i > path.n_steps:
        raise SimulationError(
            f"jump {p} at time {rec.time} falls past the last full grid interval"
        )
    n = path.n
    sqn = math.sqrt(n)
    delta = rec.time - (i - 1) / n
    sigma_left = path.sigma_grid[i - 1]
    cont = path.config.drift_b * delta + sigma_left * path.w_before_jump[p]
    earlier = 0.0
    shared = False
    for q, other in enumerate(path.jumps):
        if other.interval_index == i and q != p:
            shared = True
            if q < p:
                earlier += other.size
    pre_displacement = cont + earlier
    inc_i = path.x_grid[i] - path.x_grid[i - 1]
    r_minus = sqn * pre_displacement
    r_plus = sqn * (inc_i - pre_displacement - rec.size)
    return JumpNeighborhood(
        r_minus=float(r_minus),
        r_plus=float(r_plus),
        r=float(r_minus + r_plus),
        shared_interval=shared,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def config_to_dict(cfg: ModelConfig) -> dict:
    """The model block: the dataclass fields, the size distribution tagged with its "type"."""
    doc = asdict(cfg)
    doc["jumps"]["size_dist"]["type"] = type(cfg.jumps.size_dist).__name__
    return doc


_SIZE_DISTS = {cls.__name__: cls for cls in (AtomList, Uniform, TruncNormal)}


def _boolean(value, where) -> bool:
    if not isinstance(value, bool):
        raise SimulationError(f"{where} must be true or false, got {value!r}")
    return value


def _string(value, where, null=False):
    if not (isinstance(value, str) or (null and value is None)):
        raise SimulationError(f"{where} must be a string{' or null' if null else ''}, got {value!r}")
    return value


def _array(value, where) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise SimulationError(f"{where} must be an array, got {value!r}")
    return tuple(value)


def _size_dist(block, where):
    """A tagged size distribution: "type" names the class, the other keys are its fields."""
    if not isinstance(block, dict):
        raise SimulationError(f"{where} must be an object, got {block!r}")
    rest = dict(block)
    kind = rest.pop("type", None)
    cls = _SIZE_DISTS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise SimulationError(f"{where}.type must be one of {sorted(_SIZE_DISTS)}, got {kind!r}")
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
        raise SimulationError(f"{where}: {exc}") from exc


def config_from_dict(d) -> ModelConfig:
    """Decode a model block (the inverse of config_to_dict).

    This is the one decoder behind run configs and both path formats.  It
    is strict: every block must be a JSON object, unknown and missing keys
    are rejected (fields with a dataclass default may be omitted), float
    fields must be finite numbers, and booleans must be true/false.  Every
    error is a SimulationError naming its key path, e.g.
    model.jumps.size_dist.mu.
    """
    return _decode(ModelConfig, d, "model")


_MAGIC = b"UVSTATP1"
# the scalar head of a path (binary layout _HEAD_FORMAT), its grid arrays
# and the columns of its jump records, in the order both formats use
_PATH_HEAD = ("T", "n", "seed", "n_sigma_clamps")
_HEAD_FORMAT = "<dqqq"
_PATH_ARRAYS = ("x_grid", "sigma_grid", "w_increments", "w_before_jump")
_JUMP_FIELDS = tuple(f.name for f in fields(JumpRecord))


def _assemble_path(head, model, arrays, jump_rows) -> SamplePath:
    jumps = tuple(
        JumpRecord(*map(float, row[:-1]), interval_index=int(row[-1])) for row in jump_rows
    )
    return SamplePath(
        **dict(zip(_PATH_HEAD, head)),
        **{name: np.asarray(arr, dtype=float) for name, arr in zip(_PATH_ARRAYS, arrays)},
        jumps=jumps,
        config=config_from_dict(model),
    )


def path_to_json(path: SamplePath) -> str:
    doc = {
        "format": "uvstat.sample_path",
        "version": 1,
        "model": config_to_dict(path.config),
        "jumps": [asdict(r) for r in path.jumps],
        **{name: getattr(path, name) for name in _PATH_HEAD},
        **{name: getattr(path, name).tolist() for name in _PATH_ARRAYS},
    }
    return json.dumps(doc, sort_keys=True, indent=1)


def path_from_json(text: str) -> SamplePath:
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != "uvstat.sample_path":
        raise SimulationError("not a sample path document")
    return _assemble_path(
        [doc[name] for name in _PATH_HEAD],
        doc["model"],
        [doc[name] for name in _PATH_ARRAYS],
        [[j[name] for name in _JUMP_FIELDS] for j in doc["jumps"]],
    )


def _pack_array(arr: np.ndarray) -> bytes:
    data = np.asarray(arr, dtype="<f8").tobytes()
    return struct.pack("<Q", len(arr)) + data


def _unpack_array(buf: bytes, offset: int):
    (length,) = struct.unpack_from("<Q", buf, offset)
    offset += 8
    arr = np.frombuffer(buf, dtype="<f8", count=length, offset=offset).copy()
    return arr, offset + 8 * length


def path_to_binary(path: SamplePath) -> bytes:
    """Compact dump: little-endian float64 arrays with length prefixes.

    The model configuration rides along as a length-prefixed JSON blob so
    the dump stays self-contained.
    """
    cfg_blob = json.dumps(config_to_dict(path.config), sort_keys=True).encode()
    head = _MAGIC + struct.pack(_HEAD_FORMAT, *(getattr(path, name) for name in _PATH_HEAD))
    columns = [getattr(path, name) for name in _PATH_ARRAYS] + [
        np.array([float(getattr(r, name)) for r in path.jumps]) for name in _JUMP_FIELDS
    ]
    body = b"".join([struct.pack("<Q", len(cfg_blob)), cfg_blob] + [_pack_array(c) for c in columns])
    return head + body


def path_from_binary(buf: bytes) -> SamplePath:
    if buf[: len(_MAGIC)] != _MAGIC:
        raise SimulationError("bad magic in binary path dump")
    offset = len(_MAGIC)
    head = struct.unpack_from(_HEAD_FORMAT, buf, offset)
    offset += struct.calcsize(_HEAD_FORMAT)
    (blob_len,) = struct.unpack_from("<Q", buf, offset)
    offset += 8
    model = json.loads(buf[offset : offset + blob_len].decode())
    offset += blob_len
    columns = []
    for _ in range(len(_PATH_ARRAYS) + len(_JUMP_FIELDS)):
        column, offset = _unpack_array(buf, offset)
        columns.append(column)
    arrays, jump_columns = columns[: len(_PATH_ARRAYS)], columns[len(_PATH_ARRAYS) :]
    return _assemble_path(head, model, arrays, zip(*jump_columns))
