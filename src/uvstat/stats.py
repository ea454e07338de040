"""Discrete statistics of an observed path: V, Y, U, power variations.

The d-fold sums

    V(H, X, l)_t^n = n^{-(d-l)} sum_{i in B^n_t(d)} H(Delta_i X)
    Y_t^n(H, X, l) = n^{-l} sum_{i, j} H(sqrt(n) Delta_i X, Delta_j X)
    U(X, H)_t^n    = C(n', d)^{-1} sum_{i_1 < ... < i_d} H(sqrt(n) Delta X)

are evaluated through the kernel's exact separable expansion: each term
factorizes into per-coordinate sums, so the cost is O(n) regardless of
d (for U-statistics an O(n d) prefix-sum recursion handles the ordering
constraint).  Per-coordinate sums go through numpy's pairwise summation.
The independent brute-force oracles over all index tuples live with the
tests (``tests/oracles.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from uvstat.kernels import KernelSpec, KernelError
from uvstat.simulate import SamplePath, SimulationError, _count, increments

__all__ = [
    "IndexWindow",
    "StatValue",
    "v_stat",
    "y_stat",
    "u_stat",
    "realized_qv",
    "power_variation",
    "load_increments_csv",
]


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


def _resolve(data: Union[SamplePath, np.ndarray], t, n):
    """Return (unscaled increments, n, t, window)."""
    if isinstance(data, SamplePath):
        n, t = data.n, data.window(t)[0]
        inc = increments(data, t=t)
    else:
        inc = np.asarray(data, dtype=float).ravel()
        if inc.size == 0:
            raise SimulationError("empty sample: no increments to evaluate a statistic on")
        n = len(inc) if n is None else int(n)
        if n < 1:
            raise SimulationError(f"n must be >= 1, got {n}")
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
    total = 0.0
    for coeff, factors in kernel._compiled.terms:
        prod = coeff
        for f, z in zip(factors, coord_data):
            if prod == 0.0:
                break
            prod *= float(np.sum(f.val(z)))
        total += prod
    return total


def v_stat(
    data,
    kernel: KernelSpec,
    t: Optional[float] = None,
    n: Optional[int] = None,
) -> StatValue:
    """V(H, X, l)_t^n = n^{-(d-l)} sum over all index tuples of H(Delta X)."""
    inc, n, t, window = _resolve(data, t, n)
    raw = _factorized_value(kernel, [inc] * kernel.d)
    value = raw * float(n) ** (-(kernel.d - kernel.l))
    return StatValue("V", value, window, kernel.text())


def y_stat(
    data,
    kernel: KernelSpec,
    t: Optional[float] = None,
    n: Optional[int] = None,
) -> StatValue:
    """Y_t^n(H, X, l) = n^{-l} sum of H(sqrt(n) Delta_i X, Delta_j X).

    The first l coordinates see sqrt(n)-scaled increments, the rest see
    raw increments.
    """
    inc, n, t, window = _resolve(data, t, n)
    l = kernel.l
    coord_data = [math.sqrt(n) * inc] * l + [inc] * (kernel.d - l)
    raw = _factorized_value(kernel, coord_data)
    value = raw * float(n) ** (-l)
    return StatValue("Y", value, window, kernel.text())


def u_stat(
    data,
    kernel: KernelSpec,
    t: Optional[float] = None,
    n: Optional[int] = None,
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
    total = 0.0
    for coeff, factors in kernel._compiled.terms:
        prev = np.ones(count + 1)
        for f in factors:
            vals = f.val(z)
            cur = np.zeros(count + 1)
            cur[1:] = np.cumsum(vals * prev[:-1])
            prev = cur
        total += coeff * prev[count]
    value = total / math.comb(count, d)
    return StatValue("U", value, window, kernel.text())


def realized_qv(data, t: Optional[float] = None, n: Optional[int] = None) -> StatValue:
    """Realized quadratic variation sum_{i <= floor(nt)} (Delta_i X)^2."""
    inc, n, t, window = _resolve(data, t, n)
    return StatValue("QV", float(np.sum(inc * inc)), window, None)


def power_variation(
    data, p: float, scaled: bool = False, t: Optional[float] = None, n: Optional[int] = None
) -> StatValue:
    """Power variation of order p.

    scaled:   n^{-1} sum |sqrt(n) Delta_i X|^p (continuous-part target
              m_p int |sigma|^p ds);
    unscaled: sum |Delta_i X|^p (jump target sum |Delta X_s|^p).
    """
    if not (math.isfinite(p) and p >= 0):
        raise KernelError(f"power variation needs a finite power p >= 0, got {p}")
    inc, n, t, window = _resolve(data, t, n)
    if scaled:
        value = float(np.sum(np.abs(math.sqrt(n) * inc) ** p)) / n
    else:
        value = float(np.sum(np.abs(inc) ** p))
    return StatValue("PV", value, window, None)


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
