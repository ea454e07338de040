"""Exact limit functionals and conditional variances from path ground truth.

Jump-dominated statistics converge to

    V(H, X, l)_t = t^{d-l} sum over l-tuples of jumps of H(Delta X, 0),

mixed statistics to

    Y_t(H, X, l) = sum over (d-l)-tuples of jumps of
                   int_{[0,t]^l} rho_H(sigma_u, Delta X) du,

and the associated stable CLTs have F-conditionally Gaussian limits whose
variances are finite sums/integrals over the same ground truth:

* jump case:   1/2 t^{2(d-l)} sum_s (sum_k Vbar_k(Delta X_s))^2
               (sigma_{s-}^2 + sigma_s^2),
* mixed case:  sum_s (sum_{k>l} Vtilde_k(Delta X_s))^2 sigma_s^2
               + sum over tuple pairs of C(Delta X_s1, Delta X_s2),

with Vbar_k the partial-derivative sums over (l-1)-tuples of jumps,
Vtilde_k their Gaussian-smoothed time-integrated mixed analogues, and C
the covariance of the limiting Gaussian field.

All time integrals use the simulation grid itself (left Riemann plus the
partial last step, exact for constant volatility); the induced
O(n^{-1/2}) discretization error matches the Euler scheme's accuracy and
is the bias floor of the CLT experiments.

Every function reads the block split l from the kernel (``kernel.l``).
The limits carry the per-jump contribution table that ``uvstat limits``
prints; the conditional variances return only their total and its jump
and field terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from uvstat.kernels import Factor1D, KernelError, KernelSpec, separable_terms
from uvstat.simulate import SamplePath

__all__ = [
    "LimitValue",
    "CondVariance",
    "LimitError",
    "jump_limit",
    "mixed_limit",
    "vbar",
    "cond_var_jump",
    "cov_c",
    "cov_c_matrix",
    "vtilde",
    "cond_var_mixed",
]


class LimitError(ValueError):
    """Limit evaluation outside its guarded domain."""


@dataclass(frozen=True)
class LimitValue:
    """An exact limit functional with its per-jump contribution table."""

    value: float
    contributions: tuple

    def table_total(self) -> float:
        return float(sum(v for _, v in self.contributions))


@dataclass(frozen=True)
class CondVariance:
    """F-conditional variance of a limit law, split into its two sources."""

    total: float
    jump_term: float
    field_term: float


def _jump_data(path: SamplePath, t: float):
    recs = path.jumps_until(t)
    sizes = np.array([r.size for r in recs])
    pre = np.array([r.sigma_pre for r in recs])
    post = np.array([r.sigma_post for r in recs])
    return sizes, pre, post


def _resolve_t(path: SamplePath, t) -> float:
    t = path.T if t is None else float(t)
    if not 0 < t <= path.T + 1e-12:
        raise LimitError(f"t={t} outside (0, T={path.T}]")
    return t


def _time_weights(path: SamplePath, t: float):
    """Left-Riemann weights on the sigma grid, exact for constant sigma."""
    n = path.n
    count = min(int(math.floor(n * t + 1e-12)), len(path.sigma_grid) - 1)
    sigmas = path.sigma_grid[: count + 1]
    weights = np.full(count + 1, 1.0 / n)
    weights[-1] = t - count / n
    if weights[-1] <= 1e-15:
        return path.sigma_grid[:count], np.full(count, 1.0 / n)
    return sigmas, weights


def _time_integrated_moment(factor: Factor1D, sigmas, weights) -> float:
    """int_0^t E[f(sigma_u U)] du on the grid."""
    return float(np.dot(weights, factor.gaussian_moment_vec(sigmas)))


_JUMP_SLOTS = ("sum", "free", "deriv")


def _vbar_slots(kernel: KernelSpec) -> tuple:
    """Slot layout of sum_k Vbar_k: first block differentiated, second at 0."""
    return ("deriv",) * kernel.l + (0.0,) * (kernel.d - kernel.l)


def _vtilde_slots(kernel: KernelSpec) -> tuple:
    """Slot layout of sum_{k>l} Vtilde_k: first block integrated, second differentiated."""
    return ("moment",) * kernel.l + ("deriv",) * (kernel.d - kernel.l)


def _contract(terms, slots, sizes, points=None, grid=None):
    """Contract the separable terms of H slot by slot against the ground truth.

    slots[j] says what becomes of the j-th factor f of every term:

    * None: dropped (the slot is handled by the caller);
    * a number x: the fixed scalar f(x) (x = 0 on the jump route);
    * "moment": the fixed scalar int_0^t E[f(sigma_u U)] du on grid =
      (sigmas, weights), the mixed route;
    * "sum": summed over the jump sizes;
    * "free": evaluated at points;
    * "deriv": f' (from Factor1D.derivative) evaluated at points; for
      f = |x|^p ... with 0 < p <= 1 the derivative is not defined at a
      zero point, which raises KernelError (as partial_h does).

    Several free/deriv slots take the free role in turn, the others being
    summed over the jumps; the result adds up those choices.  Terms are
    taken in order, the coefficient is multiplied by the fixed scalars
    left to right, and a term (or a choice of free slot) is skipped once
    its fixed part or the product of its slot sums is exactly 0.
    """
    jump = [j for j, s in enumerate(slots) if s in _JUMP_SLOTS]
    free = [j for j in jump if slots[j] != "sum"]
    total = np.zeros(np.shape(points)) if free else 0.0
    for coeff, factors in terms:
        fixed = coeff
        for f, s in zip(factors, slots):
            if fixed == 0.0:
                break
            if s == "moment":
                fixed *= _time_integrated_moment(f, *grid)
            elif isinstance(s, float):
                fixed *= f.val(s)
        if fixed == 0.0:
            continue
        sums = {j: float(np.sum(factors[j].val(sizes))) for j in jump if free != [j]}
        for k in free or [None]:
            rest = 1.0
            for j in jump:
                if j != k:
                    rest *= sums[j]
            if rest == 0.0:
                continue
            if k is None:
                total += fixed * rest
            elif slots[k] == "free":
                total += fixed * rest * factors[k].val(points)
            else:
                if 0.0 < factors[k].power <= 1.0 and np.any(np.asarray(points) == 0.0):
                    raise KernelError(
                        f"derivative of |x|^{factors[k].power!r} is not defined at 0"
                    )
                dvals = np.zeros(np.shape(points))
                for dcoef, dfac in factors[k].derivative():
                    dvals += dcoef * dfac.val(points)
                total += fixed * rest * dvals
    return total if np.ndim(total) else float(total)


def _limit_from_contributions(contrib) -> LimitValue:
    """The limit as the sum of its per-jump contributions, with their table."""
    table = tuple((f"jump_{p}", float(v)) for p, v in enumerate(contrib))
    return LimitValue(float(np.sum(contrib)), table)


# ---------------------------------------------------------------------------
# Laws of large numbers
# ---------------------------------------------------------------------------


def jump_limit(path: SamplePath, kernel: KernelSpec, t: Optional[float] = None) -> LimitValue:
    """V(H, X, l)_t = t^{d-l} sum_{s in (0,t]^l} H(Delta X_s, 0).

    The sum runs over all l-tuples (with repetition) of recorded jumps;
    the factorized form collapses it to per-jump sums.  Contribution p of
    the table aggregates every tuple whose first slot is jump p.
    """
    t = _resolve_t(path, t)
    d, l = kernel.d, kernel.l
    sizes, _, _ = _jump_data(path, t)
    scale = t ** (d - l)
    terms = separable_terms(kernel)
    if l == 0:
        value = _contract(terms, (0.0,) * d, sizes) * scale
        return LimitValue(value, (("deterministic", value),))
    if len(sizes) == 0:
        return LimitValue(0.0, ())
    slots = ("free",) + ("sum",) * (l - 1) + (0.0,) * (d - l)
    return _limit_from_contributions(_contract(terms, slots, sizes, sizes) * scale)


def mixed_limit(path: SamplePath, kernel: KernelSpec, t: Optional[float] = None) -> LimitValue:
    """Y_t(H, X, l) = sum over jump tuples of int_{[0,t]^l} rho_H(sigma_u, Delta X) du."""
    t = _resolve_t(path, t)
    d, l = kernel.d, kernel.l
    sizes, _, _ = _jump_data(path, t)
    grid = _time_weights(path, t)
    terms = separable_terms(kernel)
    if d == l:
        value = _contract(terms, ("moment",) * l, sizes, grid=grid)
        return LimitValue(value, (("time_integral", value),))
    if len(sizes) == 0:
        return LimitValue(0.0, ())
    slots = ("moment",) * l + ("free",) + ("sum",) * (d - l - 1)
    return _limit_from_contributions(_contract(terms, slots, sizes, sizes, grid))


# ---------------------------------------------------------------------------
# Jump-case CLT machinery
# ---------------------------------------------------------------------------


def vbar(
    path: SamplePath,
    kernel: KernelSpec,
    k_idx: int = 1,
    y: float = 0.0,
    t: Optional[float] = None,
) -> float:
    """Vbar_k(H, X, l, y): partial_k H summed over (l-1)-tuples of jumps.

    k_idx is 1-based within the first block (1 <= k_idx <= l).  With every
    first-block slot marked "deriv", _contract gives sum_k Vbar_k at each
    point: the profile that the jump-case variance and draw use.
    """
    t = _resolve_t(path, t)
    l = kernel.l
    if not 1 <= k_idx <= l:
        raise KernelError(f"k_idx={k_idx} outside 1..l={l}")
    sizes, _, _ = _jump_data(path, t)
    slots = ["sum"] * l + [0.0] * (kernel.d - l)
    slots[k_idx - 1] = "deriv"
    return _contract(separable_terms(kernel), slots, sizes, y)


def cond_var_jump(path: SamplePath, kernel: KernelSpec, t: Optional[float] = None) -> CondVariance:
    """E[U(H,X,l)_t^2 | F] = 1/2 t^{2(d-l)} sum_s (sum_k Vbar_k(DX_s))^2 (s-^2 + s^2)."""
    t = _resolve_t(path, t)
    if kernel.l < 1:
        raise KernelError("jump-case conditional variance needs l >= 1")
    sizes, pre, post = _jump_data(path, t)
    if len(sizes) == 0:
        return CondVariance(0.0, 0.0, 0.0)
    slots = _vbar_slots(kernel)
    w = _contract(separable_terms(kernel), slots, sizes, sizes)
    scale = 0.5 * t ** (2 * (kernel.d - kernel.l))
    total = float(np.sum(scale * w * w * (pre * pre + post * post)))
    return CondVariance(total=total, jump_term=total, field_term=0.0)


# ---------------------------------------------------------------------------
# Mixed-case CLT machinery
# ---------------------------------------------------------------------------


class _CovStructure:
    """Precomputed pieces of the Gaussian-field covariance C(y, y').

    With the separable expansion H = sum_m c_m prod_k f_{m,k}, the
    smoothing functions collapse to f_i(u, y) = sum_m g_{m,i}(u) *
    [c_m A_{m,i} Y_m(y)], so C(y, y') = v(y)^T P v(y') where v ranges over
    the (m, i) pairs, A_{m,i} collects the time-integrated moments of the
    other first-block slots, Y_m(y) the second-block factor values, and

        P[(m,i),(m',j)] = int_0^t Cov_s( g_{m,i}(U_s), g_{m',j}(U_s) ) ds

    is an integral of Gram matrices, hence positive semidefinite.
    """

    def __init__(self, path: SamplePath, kernel: KernelSpec, t: float):
        self.kernel = kernel
        self.l = kernel.l
        self.d = kernel.d
        if self.l < 1:
            raise KernelError("the Gaussian field needs a nonempty scaled block (l >= 1)")
        self.terms = separable_terms(kernel)
        sigmas, weights = _time_weights(path, t)
        self.pairs = [(m, i) for m in range(len(self.terms)) for i in range(self.l)]
        # E[f(sigma U)] on the grid for every first-block factor, and its time integral
        single = {}
        for m, i in self.pairs:
            f = self.terms[m][1][i]
            if f not in single:
                single[f] = f.gaussian_moment_vec(sigmas)
        tmom = [
            [float(np.dot(weights, single[factors[i]])) for i in range(self.l)]
            for _, factors in self.terms
        ]
        self.base_weight = np.array(
            [
                self.terms[m][0]
                * math.prod(tmom[m][i2] for i2 in range(self.l) if i2 != i)
                for (m, i) in self.pairs
            ]
        )
        npairs = len(self.pairs)
        self.P = np.zeros((npairs, npairs))
        for a in range(npairs):
            m, i = self.pairs[a]
            fa = self.terms[m][1][i]
            for b in range(a, npairs):
                m2, j = self.pairs[b]
                fb = self.terms[m2][1][j]
                prod_mom = fa.mul(fb).gaussian_moment_vec(sigmas)
                cov_s = prod_mom - single[fa] * single[fb]
                val = float(np.dot(weights, cov_s))
                self.P[a, b] = val
                self.P[b, a] = val

    def _weighted(self, yslots, sizes=None) -> np.ndarray:
        """base_weight times the second-block part Y_m, one entry per (m, i) pair."""
        ypart = [
            _contract(((1.0, factors),), (None,) * self.l + yslots, sizes)
            for _, factors in self.terms
        ]
        return self.base_weight * np.array([ypart[m] for m, _ in self.pairs])

    def y_vector(self, y: Sequence[float]) -> np.ndarray:
        y = np.asarray(y, dtype=float).ravel()
        if y.size != self.d - self.l:
            raise KernelError(f"expected {self.d - self.l} y-coordinates, got {y.size}")
        return self._weighted(tuple(float(v) for v in y))

    def tuple_sum_vector(self, sizes: np.ndarray) -> np.ndarray:
        """sum over all (d-l)-tuples of jumps of y_vector(tuple)."""
        return self._weighted(("sum",) * (self.d - self.l), sizes)

    def cov(self, y1, y2) -> float:
        v1 = self.y_vector(y1)
        v2 = self.y_vector(y2)
        return float(v1 @ self.P @ v2)

    def cov_matrix(self, y_list) -> np.ndarray:
        V = np.stack([self.y_vector(y) for y in y_list])
        return V @ self.P @ V.T


def cov_c(
    path: SamplePath,
    kernel: KernelSpec,
    y,
    y2,
    t: Optional[float] = None,
) -> float:
    """Covariance C(y, y') of the limiting Gaussian field at two tuple points."""
    t = _resolve_t(path, t)
    return _CovStructure(path, kernel, t).cov(y, y2)


def cov_c_matrix(path: SamplePath, kernel: KernelSpec, y_list, t: Optional[float] = None):
    """The matrix [C(y_a, y_b)] over a list of tuple points (symmetric PSD)."""
    t = _resolve_t(path, t)
    return _CovStructure(path, kernel, t).cov_matrix(y_list)


def vtilde(
    path: SamplePath,
    kernel: KernelSpec,
    k_idx: int = 0,
    y: float = 0.0,
    t: Optional[float] = None,
) -> float:
    """Vtilde_k(H, X, l, y): rho_{partial_k H} integrated in time, summed
    over (d-l-1)-tuples of jumps in the other second-block slots.

    k_idx is the 1-based global coordinate, l < k_idx <= d.  With every
    second-block slot marked "deriv", _contract gives sum_{k>l} Vtilde_k
    at each point.
    """
    t = _resolve_t(path, t)
    d, l = kernel.d, kernel.l
    if not l < k_idx <= d:
        raise KernelError(f"k_idx={k_idx} outside l+1..d={d}")
    sizes, _, _ = _jump_data(path, t)
    slots = ["moment"] * l + ["sum"] * (d - l)
    slots[k_idx - 1] = "deriv"
    return _contract(separable_terms(kernel), slots, sizes, y, _time_weights(path, t))


def cond_var_mixed(path: SamplePath, kernel: KernelSpec, t: Optional[float] = None) -> CondVariance:
    """Conditional variance of the mixed-case limit: jump term plus field term.

    jump term:  sum_s (sum_{k>l} Vtilde_k(Delta X_s))^2 sigma_s^2
    field term: sum over pairs of jump tuples of C(Delta X_s1, Delta X_s2),
                computed in factorized form (no tuple enumeration).
    """
    t = _resolve_t(path, t)
    if not 1 <= kernel.l < kernel.d:
        raise KernelError("mixed-case conditional variance needs 1 <= l < d")
    sizes, _, post = _jump_data(path, t)
    if len(sizes) == 0:
        return CondVariance(0.0, 0.0, 0.0)
    slots = _vtilde_slots(kernel)
    prof = _contract(separable_terms(kernel), slots, sizes, sizes, _time_weights(path, t))
    jump_term = float(np.sum(prof * prof * post * post))
    struct = _CovStructure(path, kernel, t)
    svec = struct.tuple_sum_vector(sizes)
    field_term = float(svec @ struct.P @ svec)
    return CondVariance(total=jump_term + field_term, jump_term=jump_term, field_term=field_term)
