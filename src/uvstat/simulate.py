"""Simulation of a one-dimensional Ito semimartingale with jumps.

    X_t = X_0 + b t + int_0^t sigma_s dW_s + sum_{S_p <= t} Z_p

observed on the grid {0, 1/n, ..., floor(nT)/n}.  The volatility is
either constant or itself a continuous Ito semimartingale driven by W
and an independent Brownian motion V (Euler scheme, clamped away from
zero).  Jumps come from a finite-activity compound Poisson process with
exact times, so the path carries all the ground truth the limit
formulas need: the jump table (five arrays of a GroundTruth, see there),
and the Brownian increment accumulated up to each jump inside its grid
interval.  The arrays are the table's one form; only path.json spells it
out as rows.  The Python loops left are bounded: the simulator's over
the grid intervals that hold jumps, jump_neighborhood's over the earlier
jumps of one interval.

Everything is a deterministic function of (config, n, T, seed): the seed
is expanded into three independent substreams (``_SUBSTREAMS``), jumps,
W and V, so the Brownian draws do not depend on how many jumps were
placed.  Substream i is SeedSequence(seed, spawn_key=(i,)), equal bit for
bit to SeedSequence(seed).spawn(3)[i], and each generator is built only
where it is read.  simulate_path and simulate_truth build each from its
SeedSequence; the harness hands ``_simulate`` generators on the same
PCG64 states, hashed for every rep of one n in one vectorized pass
(``uvstat.seeding``), so both routes draw the same stream.

A path is drawn in two stages.  The ground-truth stage
(``simulate_truth``, a ``GroundTruth``) reads the jump substream for the
jump count, times and sizes, and builds the sigma grid and the one-sided
spot volatilities: a Constant volatility reads no other substream, an
ItoSM one reads W and V.  The observation stage, which only
``simulate_path`` runs (a ``SamplePath``, which extends ``GroundTruth``),
adds the Brownian increments, W at each jump and the X grid; it reuses
the W draws of an ItoSM ground truth and otherwise draws them from the W
substream itself.  A draw from a limit law reads the ground truth only.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import asdict, dataclass
from typing import ClassVar, Optional

import numpy as np

__all__ = [
    "SimulationError",
    "VolatilityModel",
    "AtomList",
    "Uniform",
    "TruncNormal",
    "JumpModel",
    "ModelConfig",
    "GroundTruth",
    "SamplePath",
    "simulate_truth",
    "simulate_path",
    "increments",
    "jump_neighborhood",
    "JumpNeighborhood",
    "path_to_json",
]


class SimulationError(ValueError):
    """Invalid model configuration or simulation failure."""


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
        """(values, normalized cdf) as arrays, built once per distribution.

        The cdf is the cumulative sum of the probabilities divided by its
        last entry, as Generator.choice(p=...) builds it on every call.
        """
        cdf = np.array([p for _, p in self.atoms]).cumsum()
        cdf /= cdf[-1]
        return np.array([v for v, _ in self.atoms]), cdf

    def draw(self, gen: np.random.Generator, count: int) -> np.ndarray:
        """count sizes: gen.choice(len(atoms), size=count, p=probs), the same draws and stream."""
        values, cdf = self._table
        return values[cdf.searchsorted(gen.random(count), side="right")]

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
    # checked on the X grid, so only by simulate_path: a ground truth drawn
    # alone (simulate_truth) has no X to check
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


# the GroundTruth array of each field of a path.json jump row
_JUMP_COLUMNS = {
    "time": "times",
    "size": "sizes",
    "sigma_pre": "sigma_pre",
    "sigma_post": "sigma_post",
    "interval_index": "intervals",
}


@dataclass(frozen=True)
class GroundTruth:
    """The ground truth of a simulated path, immutable: all a limit law reads.

    The jump table, one entry per jump in time order: times S_p, sizes,
    the spot volatility just before and at S_p, and the 1-based grid
    interval i of S_p (int; n_steps + 1 past the last full interval);
    len(times) is the jump count.  Beside it, the volatility on the grid
    {0, 1/n, ..., floor(nT)/n} with its clamp count.  The limits,
    conditional variances and limit-law draws accept a GroundTruth; the
    statistics, jump_neighborhood and serialization need the observation
    that SamplePath adds.
    """

    T: float
    n: int
    sigma_grid: np.ndarray
    times: np.ndarray
    sizes: np.ndarray
    sigma_pre: np.ndarray
    sigma_post: np.ndarray
    intervals: np.ndarray
    seed: int
    config: ModelConfig
    n_sigma_clamps: int = 0
    _arrays: ClassVar[tuple] = ("sigma_grid", *_JUMP_COLUMNS.values())  # frozen on construction

    def __post_init__(self):
        for name in self._arrays:
            getattr(self, name).setflags(write=False)

    @property
    def n_steps(self) -> int:
        """floor(nT), the steps of the sigma grid."""
        return len(self.sigma_grid) - 1

    @property
    def clamped(self) -> bool:
        return self.n_sigma_clamps > 0

    def jump_count(self, t: float) -> int:
        """The number of jumps at or before t."""
        return int(self.times.searchsorted(t, side="right"))

    def window(self, t: Optional[float] = None) -> tuple:
        """(t, count): t in (0, T] (T by default) and its grid steps min(floor(n t), n_steps)."""
        t = self.T if t is None else float(t)
        if not 0 < t <= self.T + 1e-12:
            raise SimulationError(f"t={t} outside (0, T={self.T}]")
        return t, min(_count(self.n, t), self.n_steps)


@dataclass(frozen=True, kw_only=True)
class SamplePath(GroundTruth):
    """A simulated path: its ground truth plus the observation on the grid.

    w_before_jump[p] is W_{S_p} - W_{(i-1)/n} for the interval containing
    jump p (NaN when the jump falls past the last full grid interval);
    together with the drift and the left grid volatility it reconstructs
    the pre-jump state X_{S_p-} exactly as the simulator built it.
    """

    x_grid: np.ndarray
    w_increments: np.ndarray
    w_before_jump: np.ndarray
    _arrays: ClassVar[tuple] = GroundTruth._arrays + ("x_grid", "w_increments", "w_before_jump")


def _count(n: int, t: float) -> int:
    return int(math.floor(n * t + 1e-12))


def _grid_intervals(times: np.ndarray, n: int) -> np.ndarray:
    """The 1-based grid interval i of each time, (i-1)/n < t <= i/n up to 1e-12/n."""
    return np.maximum(np.ceil(times * n - 1e-12).astype(int), 1)


# the substream index i of each source: SeedSequence(seed, spawn_key=(i,)),
# which is SeedSequence(seed).spawn(3)[i] bit for bit
_JUMP_STREAM, _W_STREAM, _V_STREAM = 0, 1, 2
_SUBSTREAMS = (_JUMP_STREAM, _W_STREAM, _V_STREAM)


# the most volatility clamps a path may take
_CLAMP_BUDGET = 1000


def _substream(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _seed_substreams(seed: int):
    """The substreams of a path seed as a function of their index, each built when called."""
    return functools.partial(_substream, seed)


def _jump_stream(cfg: ModelConfig, T: float, substream):
    """The jump substream, opened by substream(index), after its first draw, the jump count.

    Returns (n_jumps, jump_gen): the Poisson number of jumps on (0, T] is
    the first draw of the jump generator, so callers that only need the
    count (harness._find_path_with_jumps) read it without simulating the
    path.
    """
    jump_gen = substream(_JUMP_STREAM)
    n_jumps = int(jump_gen.poisson(cfg.jumps.intensity * T)) if cfg.jumps.intensity > 0 else 0
    return n_jumps, jump_gen


def _jump_runs(intervals: np.ndarray, N: int) -> list:
    """(i, lo, hi) for each grid interval i in 1..N holding jumps: jumps lo..hi-1, in time order."""
    runs, lo = [], 0
    for i, group in itertools.groupby(intervals[: intervals.searchsorted(N, side="right")].tolist()):
        hi = lo + len(list(group))
        runs.append((i, lo, hi))
        lo = hi
    return runs


def _brownian(w_gen, n: int, N: int, times: np.ndarray, runs: list):
    """(w_increments, w_before_jump): the Brownian fill from the W substream w_gen.

    The Brownian increment of an interval containing jumps is the sum of
    the sub-increments between consecutive jump times, so W is known
    exactly at every jump.  The draws are one standard-normal fill,
    scaled in place, in the order of a per-interval scalar loop: sqrt(1/n)
    for an interval without jumps, sqrt(dt) for each sub-segment of one
    with jumps (a segment with dt <= 0 draws nothing), so the random
    stream and every bit (0.0 + scale * z, as numpy's normal forms it)
    are those of one scalar draw per segment.  runs lists the intervals
    holding jumps (_jump_runs).
    """
    step = math.sqrt(1.0 / n)
    segments = []  # sub-segment lengths of each interval holding jumps
    seg_draws, seg_dts = [], []  # draw index and length of each drawn sub-segment
    draws = prev = 0  # draws so far; intervals prev+1 .. i-1 hold no jump
    for i, lo, hi in runs:
        cuts = [(i - 1) / n] + times[lo:hi].tolist() + [i / n]
        segments.append([b - a for a, b in zip(cuts[:-1], cuts[1:])])
        draws += i - 1 - prev
        for dt in segments[-1]:
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
    w_before = np.full(len(times), np.nan)
    k = prev = 0  # next unread draw; intervals done
    for (i, lo, hi), dts in zip(runs, segments):
        w_inc[prev : i - 1] = dw[k : k + i - 1 - prev]
        k += i - 1 - prev
        acc = 0.0
        for seg, dt in enumerate(dts):
            if dt > 0:
                acc += dw[k]
                k += 1
            if seg < hi - lo:
                w_before[lo + seg] = acc
        w_inc[i - 1] = acc
        prev = i
    w_inc[prev:] = dw[k:]
    return w_inc, w_before


def simulate_truth(cfg: ModelConfig, n: int, T: float, seed: int) -> GroundTruth:
    """The ground-truth stage of simulate_path alone: its GroundTruth, bit for bit.

    Reads the jump substream and, for an ItoSM volatility, the W and V
    substreams; a Constant volatility opens neither, so no Brownian
    increment is drawn.  This is all a draw from the limit law reads.  With
    no X grid, a model's reject_bound_excursions is not checked here.
    """
    return _simulate(cfg, n, T, seed, observe=False)


def simulate_path(cfg: ModelConfig, n: int, T: float, seed: int) -> SamplePath:
    """Simulate X on {0, 1/n, ..., floor(nT)/n} with exact jump placement.

    Two stages, each substream built only where it is read.  The ground
    truth (simulate_truth): the jump count, then the jump times, uniform
    on (0, T], and their sizes from the jump substream; the sigma grid
    (constant, or an ItoSM Euler scheme that reads the W and V
    substreams); the one-sided spot volatility at each jump.  The
    observation: the Brownian increments and W at each jump from the W
    substream (the draws the ItoSM stage made, or a fresh fill for a
    Constant volatility), then the X grid.  The X increment over interval
    i is b/n + sigma_{(i-1)/n} Delta_i W plus the sizes of the jumps it
    contains (Euler with left-frozen volatility).

    An ItoSM volatility is one sequential running sum of sigma0, b~/n,
    s~ Delta W_i, v~ Delta V_i, ... (the Euler step's own order of
    additions) up to the first value below floor_eps; from there on a
    scalar loop clamps and counts; more than _CLAMP_BUDGET clamps raise
    SimulationError.  With reject_bound_excursions, a path whose |X|
    exceeds bound_A raises SimulationError.
    """
    return _simulate(cfg, n, T, seed, observe=True)


def _simulate(cfg: ModelConfig, n: int, T: float, seed: int, observe: bool, substream=None):
    """simulate_path (observe) or simulate_truth; substream(i) opens substream i of the seed.

    By default substream i is SeedSequence(seed, spawn_key=(i,)); the
    harness passes generators on the same states (uvstat.seeding).  A
    stage opens only the substreams it reads: the jumps always, W for the
    observation or an ItoSM sigma, V for an ItoSM sigma.
    """
    substream = substream or _seed_substreams(seed)
    if n < 1:
        raise SimulationError(f"n must be >= 1, got {n}")
    if not T > 0:
        raise SimulationError(f"T must be > 0, got {T}")
    N = _count(n, T)
    if N < 1:
        raise SimulationError(f"grid {{0, 1/n, ...}} has no step for n={n}, T={T}")

    # jumps: sorted times on (0, T], then sizes in time order
    n_jumps, jump_gen = _jump_stream(cfg, T, substream)
    times = np.sort(T * (1.0 - jump_gen.random(n_jumps)))
    sizes = cfg.jumps.draw_sizes(jump_gen, n_jumps)
    intervals = _grid_intervals(times, n)

    # volatility on the grid (Euler, clamped at floor_eps); an ItoSM
    # volatility reads W, and the observation reuses those draws
    vol = cfg.vol
    if observe or vol.kind == "ItoSM":
        runs = _jump_runs(intervals, N)
        brownian = _brownian(substream(_W_STREAM), n, N, times, runs)
    n_clamps = 0
    first_clamp = -1
    if vol.kind == "Constant":
        sigma = np.full(N + 1, vol.sigma0)
    else:
        w_inc = brownian[0]
        v_inc = substream(_V_STREAM).normal(0.0, math.sqrt(1.0 / n), size=N)
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
    if n_clamps > _CLAMP_BUDGET:
        raise SimulationError(
            f"volatility clamped {n_clamps} times (> budget {_CLAMP_BUDGET}); "
            f"first offending interval {first_clamp}"
        )

    # spot volatility at jump times: left grid state plus deterministic
    # partial Euler drift step (continuous volatility, so pre = post)
    pre = sigma[np.minimum(intervals - 1, N)]
    if vol.kind == "ItoSM":
        pre = np.maximum(pre + vol.tilde_b * (times - (intervals - 1) / n), vol.floor_eps)
    truth = dict(
        T=float(T),
        n=int(n),
        sigma_grid=sigma,
        times=times,
        sizes=sizes,
        sigma_pre=pre,
        sigma_post=pre,
        intervals=intervals,
        seed=int(seed),
        config=cfg,
        n_sigma_clamps=n_clamps,
    )
    if not observe:
        return GroundTruth(**truth)

    # the observation: X increments and grid values
    w_inc, w_before = brownian
    inc = sigma[:N] * w_inc
    inc += cfg.drift_b / n
    for i, lo, hi in runs:
        inc[i - 1] += sizes[lo:hi].sum()
    x_grid = np.empty(N + 1)
    x_grid[0] = 0.0
    np.cumsum(inc, out=x_grid[1:])

    if cfg.reject_bound_excursions and np.max(np.abs(x_grid)) > cfg.bound_A:
        raise SimulationError(
            f"path exceeded bound_A={cfg.bound_A} (max |X| = {np.max(np.abs(x_grid)):.6g})"
        )
    return SamplePath(**truth, x_grid=x_grid, w_increments=w_inc, w_before_jump=w_before)


# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------


def increments(path: SamplePath, t: Optional[float] = None) -> np.ndarray:
    """Observed increments Delta_i X = X_{i/n} - X_{(i-1)/n}, i = 1..floor(nt)."""
    m = path.window(t)[1]
    return np.diff(path.x_grid[: m + 1])


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
    and any earlier jumps in the same interval, which the sorted interval
    column locates by bisection.  A jump sharing its interval with
    another one is flagged (it degrades CLT-quality diagnostics only).
    """
    if not 0 <= p < len(path.times):
        raise SimulationError(f"jump index {p} outside 0..{len(path.times) - 1}")
    time = float(path.times[p])
    i = int(path.intervals[p])
    if i > path.n_steps:
        raise SimulationError(
            f"jump {p} at time {time} falls past the last full grid interval"
        )
    n = path.n
    sqn = math.sqrt(n)
    delta = time - (i - 1) / n
    sigma_left = path.sigma_grid[i - 1]
    cont = path.config.drift_b * delta + sigma_left * path.w_before_jump[p]
    lo, hi = path.intervals.searchsorted((i, i + 1)).tolist()  # the jumps of interval i
    earlier = 0.0
    for size in path.sizes[lo:p].tolist():
        earlier += size
    pre_displacement = cont + earlier
    inc_i = path.x_grid[i] - path.x_grid[i - 1]
    r_minus = sqn * pre_displacement
    r_plus = sqn * (inc_i - pre_displacement - path.sizes[p])
    return JumpNeighborhood(
        r_minus=float(r_minus),
        r_plus=float(r_plus),
        r=float(r_minus + r_plus),
        shared_interval=hi - lo > 1,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def config_to_dict(cfg: ModelConfig) -> dict:
    """The model block: the dataclass fields, the size distribution tagged with its "type"."""
    doc = asdict(cfg)
    doc["jumps"]["size_dist"]["type"] = type(cfg.jumps.size_dist).__name__
    return doc


# the scalar head of a path.json document and its grid arrays
_PATH_HEAD = ("T", "n", "seed", "n_sigma_clamps")
_PATH_ARRAYS = ("x_grid", "sigma_grid", "w_increments", "w_before_jump")


def path_to_json(path: SamplePath) -> str:
    """The path.json document of path: its head, model block and grid arrays, one row per jump."""
    columns = [getattr(path, name).tolist() for name in _JUMP_COLUMNS.values()]
    doc = {
        "format": "uvstat.sample_path",
        "version": 1,
        "model": config_to_dict(path.config),
        "jumps": [dict(zip(_JUMP_COLUMNS, row)) for row in zip(*columns)],
        **{name: getattr(path, name) for name in _PATH_HEAD},
        **{name: getattr(path, name).tolist() for name in _PATH_ARRAYS},
    }
    return json.dumps(doc, sort_keys=True, indent=1)
