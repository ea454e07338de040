"""Discrete statistics of an observed path: V, Y, U, power variations.

The d-fold sums

    V(H, X, l)_t^n = n^{-(d-l)} sum_{i in B^n_t(d)} H(Delta_i X)
    Y_t^n(H, X, l) = n^{-l} sum_{i, j} H(sqrt(n) Delta_i X, Delta_j X)
    U(X, H)_t^n    = C(n', d)^{-1} sum_{i_1 < ... < i_d} H(sqrt(n) Delta X)

are evaluated through the kernel's exact separable expansion: each term
factorizes into per-coordinate sums, so the cost is O(n) regardless of
d (for U-statistics an O(n d) prefix-sum recursion handles the ordering
constraint).  A brute-force nested evaluation over all index tuples is
kept as the independent oracle; both strategies agree to 1e-12 relative
wherever the oracle is allowed to run.

Per-coordinate sums go through numpy's pairwise summation; the nested
oracle accumulates naively, which is what the 1e-12 tolerance accounts
for.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np
from scipy.stats import norm

from uvstat.kernels import KernelSpec, KernelError, eval_h
from uvstat.simulate import SamplePath, SimulationError, _count, first_order_increments, increments

__all__ = [
    "IndexWindow",
    "StatValue",
    "v_stat",
    "y_stat",
    "u_stat",
    "realized_qv",
    "power_variation",
    "EmpiricalProcess",
    "empirical_process",
    "phi_bar",
    "load_increments_csv",
    "NESTED_MAX_COUNT",
]

NESTED_MAX_COUNT = 10_000
_NESTED_MAX_TUPLES = 1 << 26
_NESTED_CHUNK = 1 << 16


@dataclass(frozen=True)
class IndexWindow:
    """Observation window: the first count = floor(n t) increments."""

    n: int
    t: float
    count: int


@dataclass(frozen=True)
class StatValue:
    """A computed statistic plus the metadata needed to reproduce it."""

    kind: str
    value: float
    window: IndexWindow
    kernel_id: Optional[str]
    strategy: str


def _resolve(data: Union[SamplePath, np.ndarray], t, n):
    """Return (unscaled increments, n, t, window)."""
    if isinstance(data, SamplePath):
        n = data.n
        t = data.T if t is None else float(t)
        inc = increments(data, scaled=False, t=t)
    else:
        inc = np.asarray(data, dtype=float).ravel()
        n = len(inc) if n is None else int(n)
        t = (len(inc) / n) if t is None else float(t)
        count = _count(n, t)
        if not 1 <= count <= len(inc):
            raise SimulationError(
                f"window floor(n t) = {count} outside 1..{len(inc)} available increments"
            )
        inc = inc[:count]
    window = IndexWindow(n=n, t=t, count=len(inc))
    return inc, n, t, window


def _factorized_value(kernel: KernelSpec, coord_data) -> float:
    """sum over full index tuples of prod_k f_k(z^{(k)}_{i_k}), term by term.

    coord_data[k] is the array the k-th coordinate ranges over.
    """
    sums: dict = {}
    total = 0.0
    for coeff, factors in kernel._compiled.terms:
        prod = coeff
        for k, f in enumerate(factors):
            if prod == 0.0:
                break
            key = (k, f)
            if key not in sums:
                sums[key] = float(np.sum(f.val(coord_data[k])))
            prod *= sums[key]
        total += prod
    return total


def _check_nested_size(d: int, count: int) -> None:
    if d > 3 or count > NESTED_MAX_COUNT or count**d > _NESTED_MAX_TUPLES:
        raise KernelError(
            f"nested evaluation guard exceeded (d={d}, count={count}); "
            "use the factorized strategy with a separable kernel"
        )


def _nested_value(kernel: KernelSpec, coord_data) -> float:
    """Brute force over all index tuples, chunked; the oracle path."""
    d = kernel.d
    count = len(coord_data[0])
    _check_nested_size(d, count)
    total = 0.0
    n_tuples = count**d
    for start in range(0, n_tuples, _NESTED_CHUNK):
        stop = min(start + _NESTED_CHUNK, n_tuples)
        flat = np.arange(start, stop)
        pts = np.empty((stop - start, d))
        rem = flat
        for k in range(d - 1, -1, -1):
            pts[:, k] = coord_data[k][rem % count]
            rem = rem // count
        total += float(np.sum(eval_h(kernel, pts)))
    return total


def _full_sum(kernel: KernelSpec, coord_data, strategy: str) -> float:
    """Sum of H over all index tuples by the chosen strategy."""
    if strategy == "factorized":
        return _factorized_value(kernel, coord_data)
    if strategy == "nested":
        return _nested_value(kernel, coord_data)
    raise KernelError(f"unknown strategy {strategy!r}")


def v_stat(
    data,
    kernel: KernelSpec,
    t: Optional[float] = None,
    n: Optional[int] = None,
    strategy: str = "factorized",
) -> StatValue:
    """V(H, X, l)_t^n = n^{-(d-l)} sum over all index tuples of H(Delta X)."""
    inc, n, t, window = _resolve(data, t, n)
    raw = _full_sum(kernel, [inc] * kernel.d, strategy)
    value = raw * float(n) ** (-(kernel.d - kernel.l))
    return StatValue("V", value, window, kernel.text(), strategy)


def y_stat(
    data,
    kernel: KernelSpec,
    t: Optional[float] = None,
    n: Optional[int] = None,
    strategy: str = "factorized",
) -> StatValue:
    """Y_t^n(H, X, l) = n^{-l} sum of H(sqrt(n) Delta_i X, Delta_j X).

    The first l coordinates see sqrt(n)-scaled increments, the rest see
    raw increments.
    """
    inc, n, t, window = _resolve(data, t, n)
    l = kernel.l
    coord_data = [math.sqrt(n) * inc] * l + [inc] * (kernel.d - l)
    raw = _full_sum(kernel, coord_data, strategy)
    value = raw * float(n) ** (-l)
    return StatValue("Y", value, window, kernel.text(), strategy)


def u_stat(
    data,
    kernel: KernelSpec,
    t: Optional[float] = None,
    n: Optional[int] = None,
    strategy: str = "factorized",
) -> StatValue:
    """U(X, H)_t^n: binomially normalized sum over strictly increasing tuples.

    All coordinates are sqrt(n)-scaled.  For separable kernels the ordered
    sum follows from the prefix recursion
    D_k(j) = D_k(j-1) + f_k(z_j) D_{k-1}(j-1) in O(n) per coordinate.
    """
    inc, n, t, window = _resolve(data, t, n)
    d = kernel.d
    count = len(inc)
    if count < d:
        raise KernelError(f"need at least d={d} increments, got {count}")
    z = math.sqrt(n) * inc
    if strategy == "factorized":
        total = 0.0
        for coeff, factors in kernel._compiled.terms:
            prev = np.ones(count + 1)
            for f in factors:
                vals = f.val(z)
                cur = np.zeros(count + 1)
                cur[1:] = np.cumsum(vals * prev[:-1])
                prev = cur
            total += coeff * prev[count]
    elif strategy == "nested":
        _check_nested_size(d, count)
        total = 0.0
        for combo in itertools.combinations(range(count), d):
            total += eval_h(kernel, z[list(combo)])
    else:
        raise KernelError(f"unknown strategy {strategy!r}")
    value = total / math.comb(count, d)
    return StatValue("U", value, window, kernel.text(), strategy)


def realized_qv(data, t: Optional[float] = None, n: Optional[int] = None) -> StatValue:
    """Realized quadratic variation sum_{i <= floor(nt)} (Delta_i X)^2."""
    inc, n, t, window = _resolve(data, t, n)
    return StatValue("QV", float(np.sum(inc * inc)), window, None, "factorized")


def power_variation(
    data, p: float, scaled: bool = False, t: Optional[float] = None, n: Optional[int] = None
) -> StatValue:
    """Power variation of order p.

    scaled:   n^{-1} sum |sqrt(n) Delta_i X|^p (continuous-part target
              m_p int |sigma|^p ds);
    unscaled: sum |Delta_i X|^p (jump target sum |Delta X_s|^p).
    """
    if p < 0:
        raise KernelError(f"power variation needs p >= 0, got {p}")
    inc, n, t, window = _resolve(data, t, n)
    if scaled:
        value = float(np.sum(np.abs(math.sqrt(n) * inc) ** p)) / n
    else:
        value = float(np.sum(np.abs(inc) ** p))
    return StatValue("PV", value, window, None, "factorized")


class EmpiricalProcess(NamedTuple):
    f_n: float
    f_bar: float
    g_n: float


def phi_bar(z: float, x: float) -> float:
    """E[V 1{zV <= x}] for V ~ N(0,1): -phi(x/z) for z > 0, in closed form."""
    if z <= 0:
        raise KernelError(f"phi_bar needs z > 0, got {z}")
    return -float(norm.pdf(x / z))


def empirical_process(path: SamplePath, t: float, x: float) -> EmpiricalProcess:
    """Empirical distribution diagnostics of the first-order increments.

    F_n(t, x)    = n^{-1} sum_{i <= floor(nt)} 1{alpha_i <= x}
    F_bar(t, x)  = n^{-1} sum Phi_{sigma_{(i-1)/n}}(x)   (the compensator)
    G_n(t, x)    = sqrt(n) (F_n - F_bar)
    """
    alpha = first_order_increments(path, t)
    m = len(alpha)
    n = path.n
    sig = path.sigma_grid[:m]
    f_n = float(np.sum(alpha <= x)) / n
    f_bar = float(np.sum(norm.cdf(x / sig))) / n
    g_n = math.sqrt(n) * (f_n - f_bar)
    return EmpiricalProcess(f_n=f_n, f_bar=f_bar, g_n=g_n)


def load_increments_csv(path_or_file) -> np.ndarray:
    """One increment per line; a single non-numeric header line is allowed."""
    if hasattr(path_or_file, "read"):
        lines = path_or_file.read().splitlines()
    else:
        with open(path_or_file, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    values = []
    for i, line in enumerate(lines):
        text = line.strip()
        if not text:
            continue
        try:
            value = float(text)
        except ValueError:
            if i == 0:
                continue
            raise SimulationError(f"non-numeric increment on line {i + 1}: {text!r}")
        if not math.isfinite(value):
            raise SimulationError(f"non-finite increment on line {i + 1}: {text!r}")
        values.append(value)
    if not values:
        raise SimulationError("no increments found in CSV input")
    return np.array(values)
