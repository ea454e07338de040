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

Two things are read once and shared.  The kernel's separable terms,
their derivatives, the Gaussian-field factor products and the slot
layouts are compiled once per kernel (``KernelSpec._compiled``, built on
first use and held by the kernel).  A path's ground truth up to t is one
context, ``Context(path, kernel, t=None)``: it takes t and its grid
steps from the path (``GroundTruth.window``), reads the jump sizes and
the one-sided spot volatilities once, builds the sigma grid on first
use and evaluates the Gaussian moment vector of each distinct factor
once, whether a limit, a variance profile or the field covariance asks
for it.  The Gaussian field is part of that context: its covariance
C(y, y') = v(y)^T P v(y') is held as the weights w and the matrix P
(``Context.field``, built on first use), from which the field vector
v(y), its sum over the jump tuples and the matrix V P V^T are read.
Every time integral is the left-Riemann weights dotted with a moment
vector (on a constant grid, one value repeated).  What depends only on
the kernel, the grid and sigma is kept on the kernel's compiled view
(``grids``), so every context of that kernel shares it: the weights,
built once per grid key (n, t, count), and, on a constant grid (a
Constant volatility path), the moments and the field per sigma, which
cost one moment evaluation per factor for all the paths of one n.
Every function here and in :mod:`uvstat.sampler` takes a context as its
first argument and opens none of its own, so a caller that reads one
path several times, as ``harness.run_clt`` does, opens one context per
path and passes it to each.

A context reads only the path's ground truth, so it accepts a
``GroundTruth`` (a ``SamplePath`` is one), and every function reads the
block split l from the context's kernel (``kernel.l``).
The limits carry the per-jump contribution table that ``uvstat limits``
prints; the conditional variances return only their total and its jump
and field terms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from uvstat.kernels import Factor1D, KernelError, KernelSpec, separable_terms
from uvstat.simulate import GroundTruth

# separable_terms stays importable from this module, where the benchmark's
# tracer test (bench/test_bench.py) looks it up; the limits themselves read
# the kernel's compiled view
__all__ = [
    "separable_terms",
    "LimitValue",
    "CondVariance",
    "Context",
    "jump_limit",
    "mixed_limit",
    "vbar",
    "cond_var_jump",
    "cov_c",
    "cov_c_matrix",
    "vtilde",
    "cond_var_mixed",
]


@dataclass(frozen=True)
class LimitValue:
    """An exact limit functional with its per-jump contribution table."""

    value: float
    contributions: tuple


@dataclass(frozen=True)
class CondVariance:
    """F-conditional variance of a limit law, split into its two sources."""

    total: float
    jump_term: float
    field_term: float


_JUMP_SLOTS = ("sum", "free", "deriv")


class _GridMoments:
    """Per distinct factor, (moment vector, time integral) on one grid, and the field (w, P)."""

    __slots__ = ("moments", "field")

    def __init__(self):
        self.moments: dict = {}
        self.field: Optional[tuple] = None


class Context:
    """The ground truth of one path up to t, read once per path.

    t and its grid steps come from the path (``GroundTruth.window``, which
    rejects t outside (0, T]).  Holds the jump sizes and one-sided spot
    volatilities up to t, the kernel's compiled view, the left-Riemann
    sigma grid (built on first use), per distinct factor f, E[f(sigma U)]
    on that grid with its time integral (computed on first use), and the
    Gaussian-field covariance (w, P) (``field``, built on first use).  A
    constant grid costs one moment evaluation per factor.

    On a constant grid the moments, their integrals and (w, P) depend on
    the kernel, the grid key (n, t, count) and sigma alone, so they are
    kept per sigma on the kernel's compiled view (``grids``), beside the
    weights of the grid key, for every context of the kernel; any other
    grid keeps its own.
    """

    def __init__(self, path: GroundTruth, kernel: KernelSpec, t: Optional[float] = None):
        self.path, self.kernel = path, kernel
        self.t, count = path.window(t)
        self._grid_key = (path.n, self.t, count)
        J = path.jump_count(self.t)
        self.sizes = path.sizes[:J]
        self.pre = path.sigma_pre[:J]
        self.post = path.sigma_post[:J]
        self.compiled = kernel._compiled
        self.terms = self.compiled.terms

    @functools.cached_property
    def _grid_memo(self) -> tuple:
        """(weights, {sigma: _GridMoments}) of the grid key, kept by the kernel's compiled view.

        The weights are 1/n per step up to t and the partial last step,
        read-only.
        """
        memo = self.compiled.grids.get(self._grid_key)
        if memo is None:
            n, t, count = self._grid_key
            weights = np.full(count + 1, 1.0 / n)
            weights[-1] = t - count / n
            if weights[-1] <= 1e-15:
                weights = weights[:count]
            weights.setflags(write=False)
            memo = self.compiled.grids[self._grid_key] = (weights, {})
        return memo

    @functools.cached_property
    def grid(self):
        """(sigmas, weights) of the left Riemann sum up to t, exact for constant sigma."""
        weights = self._grid_memo[0]
        return self.path.sigma_grid[: len(weights)], weights

    @functools.cached_property
    def constant_grid(self) -> bool:
        """Whether the grid holds one sigma value, repeated (an empty grid does not)."""
        sigmas = self.grid[0]
        return len(sigmas) > 0 and bool((sigmas == sigmas[0]).all())

    @functools.cached_property
    def _memo(self) -> _GridMoments:
        """This path's moments and field: the kernel's, per sigma, on a constant grid."""
        if not self.constant_grid:
            return _GridMoments()
        per_sigma, sigma = self._grid_memo[1], float(self.grid[0][0])
        memo = per_sigma.get(sigma)
        if memo is None:
            memo = per_sigma[sigma] = _GridMoments()
        return memo

    def _evaluate(self, factor: Factor1D) -> tuple:
        """(E[f(sigma_u U)] on the grid, int_0^t E[f(sigma_u U)] du), once per factor.

        The integral is the weights dotted with the moment vector.  On a
        constant grid that vector is one moment, evaluated at the first
        sigma and repeated, which is the full-grid vector bit for bit.
        """
        found = self._memo.moments.get(factor)
        if found is None:
            sigmas, weights = self.grid
            if self.constant_grid:
                vec = np.full(len(sigmas), factor.gaussian_moment_vec(sigmas[:1])[0])
            else:
                vec = factor.gaussian_moment_vec(sigmas)
            found = self._memo.moments[factor] = (vec, float(np.dot(weights, vec)))
        return found

    def integral(self, factor: Factor1D) -> float:
        """int_0^t E[f(sigma_u U)] du on the grid."""
        return self._evaluate(factor)[1]

    def cov_integral(self, fa: Factor1D, fb: Factor1D, fab: Factor1D) -> float:
        """int_0^t Cov(fa(sigma_u U), fb(sigma_u U)) du on the grid; fab is fa fb.

        The covariance E[fab] - E[fa] E[fb] is taken on the grid's moment
        vectors and dotted with the weights, as the moments are.
        """
        (ab, _), (a, _), (b, _) = (self._evaluate(f) for f in (fab, fa, fb))
        return float(np.dot(self.grid[1], ab - a * b))

    @property
    def field(self) -> tuple:
        """(w, P): the covariance of the limiting Gaussian field is C(y, y') = v(y)^T P v(y').

        Built on first use and kept with the moments (``_GridMoments``).
        """
        memo = self._memo
        if memo.field is None:
            memo.field = self._build_field()
        return memo.field

    def _build_field(self) -> tuple:
        """(w, P) from the separable expansion.

        With the separable expansion H = sum_m c_m prod_k f_{m,k}, the
        smoothing functions collapse to f_i(u, y) = sum_m g_{m,i}(u) *
        [w_{m,i} Y_m(y)], so v ranges over the (m, i) pairs of the
        kernel's compiled view: w_{m,i} = c_m times the time-integrated
        moments of the other first-block slots, Y_m(y) the second-block
        factor values, and

            P[(m,i),(m',j)] = int_0^t Cov_s( g_{m,i}(U_s), g_{m',j}(U_s) ) ds

        is an integral of Gram matrices, hence positive semidefinite.
        """
        l = self.kernel.l
        if l < 1:
            raise KernelError("the Gaussian field needs a nonempty scaled block (l >= 1)")
        pairs = self.compiled.pairs
        tmom = [[self.integral(f) for f in factors[:l]] for _, factors in self.terms]
        w = np.array(
            [
                self.terms[m][0] * math.prod(tmom[m][i2] for i2 in range(l) if i2 != i)
                for (m, i) in pairs
            ]
        )
        P = np.zeros((len(pairs), len(pairs)))
        for a, row in enumerate(self.compiled.products):
            m, i = pairs[a]
            fa = self.terms[m][1][i]
            for b, fab in enumerate(row, start=a):
                m2, j = pairs[b]
                val = self.cov_integral(fa, self.terms[m2][1][j], fab)
                P[a, b] = val
                P[b, a] = val
        return w, P

    def _field_weighted(self, ypart) -> np.ndarray:
        """w times the second-block parts Y_m (one per term), one entry per (m, i) pair."""
        return self.field[0] * np.array([ypart[m] for m, _ in self.compiled.pairs])

    def field_vector(self, y: Sequence[float]) -> np.ndarray:
        """v(y) at a (d-l)-tuple point y."""
        l, d = self.kernel.l, self.kernel.d
        y = np.asarray(y, dtype=float).ravel()
        if y.size != d - l:
            raise KernelError(f"expected {d - l} y-coordinates, got {y.size}")
        ys = [float(v) for v in y]
        ypart = []
        for _, factors in self.terms:
            # the second-block factors at y, left to right, stopping at an exact 0
            # (which counts as +0.0)
            value = 1.0
            for f, v in zip(factors[l:], ys):
                if value == 0.0:
                    break
                value *= f.val(v)
            ypart.append(value or 0.0)
        return self._field_weighted(ypart)

    def field_tuple_sum(self) -> np.ndarray:
        """The sum of v over all (d-l)-tuples of jumps."""
        l = self.kernel.l
        # per term, the product of its second-block factors' sums over the jumps
        # (an exact 0 counts as +0.0)
        ypart = [
            math.prod([float(np.sum(f.val(self.sizes))) for f in factors[l:]]) or 0.0
            for _, factors in self.terms
        ]
        return self._field_weighted(ypart)

    def contract(self, slots, points=None, sizes=None):
        """Contract the separable terms of H slot by slot against the ground truth.

        slots[j] says what becomes of the j-th factor f of every term:

        * a number x: the fixed scalar f(x) (x = 0 on the jump route);
        * "moment": the fixed scalar int_0^t E[f(sigma_u U)] du, the mixed
          route;
        * "sum": summed over the jump sizes;
        * "free": evaluated at points;
        * "deriv": f' (from Factor1D.derivative) evaluated at points; for
          f = |x|^p ... with 0 < p <= 1 the derivative is not defined at a
          zero point, which raises KernelError.

        sizes (the jumps up to t by default) may be replaced.  Several
        free/deriv slots take the free role in turn, the others being
        summed over the jumps; the result adds up those choices.  The
        kernel's compiled terms are taken in order, the
        coefficient is multiplied by the fixed scalars left to right, and a
        term (or a choice of free slot) is skipped once its fixed part or
        the product of its slot sums is exactly 0.
        """
        sizes = self.sizes if sizes is None else sizes
        jump = [j for j, s in enumerate(slots) if s in _JUMP_SLOTS]
        free = [j for j in jump if slots[j] != "sum"]
        total = np.zeros(np.shape(points)) if free else 0.0
        for (coeff, factors), derivs in zip(self.terms, self.compiled.derivatives):
            fixed = coeff
            for f, s in zip(factors, slots):
                if fixed == 0.0:
                    break
                if s == "moment":
                    fixed *= self.integral(f)
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
                    for dcoef, dfac in derivs[k]:
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


def jump_limit(ctx: Context) -> LimitValue:
    """V(H, X, l)_t = t^{d-l} sum_{s in (0,t]^l} H(Delta X_s, 0).

    The sum runs over all l-tuples (with repetition) of recorded jumps;
    the factorized form collapses it to per-jump sums.  Contribution p of
    the table aggregates every tuple whose first slot is jump p.
    """
    d, l = ctx.kernel.d, ctx.kernel.l
    scale = ctx.t ** (d - l)
    if l == 0:
        value = ctx.contract((0.0,) * d) * scale
        return LimitValue(value, (("deterministic", value),))
    if len(ctx.sizes) == 0:
        return LimitValue(0.0, ())
    slots = ("free",) + ("sum",) * (l - 1) + (0.0,) * (d - l)
    return _limit_from_contributions(ctx.contract(slots, ctx.sizes) * scale)


def mixed_limit(ctx: Context) -> LimitValue:
    """Y_t(H, X, l) = sum over jump tuples of int_{[0,t]^l} rho_H(sigma_u, Delta X) du."""
    d, l = ctx.kernel.d, ctx.kernel.l
    if d == l:
        value = ctx.contract(("moment",) * l)
        return LimitValue(value, (("time_integral", value),))
    if len(ctx.sizes) == 0:
        return LimitValue(0.0, ())
    slots = ("moment",) * l + ("free",) + ("sum",) * (d - l - 1)
    return _limit_from_contributions(ctx.contract(slots, ctx.sizes))


# ---------------------------------------------------------------------------
# Jump-case CLT machinery
# ---------------------------------------------------------------------------


def vbar(ctx: Context, k_idx: int = 1, y: float = 0.0) -> float:
    """Vbar_k(H, X, l, y): partial_k H summed over (l-1)-tuples of jumps.

    k_idx is 1-based within the first block (1 <= k_idx <= l).  With every
    first-block slot marked "deriv", Context.contract gives sum_k Vbar_k at
    each point: the profile that the jump-case variance and draw use.
    """
    d, l = ctx.kernel.d, ctx.kernel.l
    if not 1 <= k_idx <= l:
        raise KernelError(f"k_idx={k_idx} outside 1..l={l}")
    slots = ["sum"] * l + [0.0] * (d - l)
    slots[k_idx - 1] = "deriv"
    return ctx.contract(slots, y)


def cond_var_jump(ctx: Context) -> CondVariance:
    """E[U(H,X,l)_t^2 | F] = 1/2 t^{2(d-l)} sum_s (sum_k Vbar_k(DX_s))^2 (s-^2 + s^2)."""
    kernel = ctx.kernel
    if kernel.l < 1:
        raise KernelError("jump-case conditional variance needs l >= 1")
    if len(ctx.sizes) == 0:
        return CondVariance(0.0, 0.0, 0.0)
    w = ctx.contract(ctx.compiled.vbar_slots, ctx.sizes)
    scale = 0.5 * ctx.t ** (2 * (kernel.d - kernel.l))
    pre, post = ctx.pre, ctx.post
    total = float(np.sum(scale * w * w * (pre * pre + post * post)))
    return CondVariance(total=total, jump_term=total, field_term=0.0)


# ---------------------------------------------------------------------------
# Mixed-case CLT machinery
# ---------------------------------------------------------------------------


def cov_c(ctx: Context, y, y2) -> float:
    """Covariance C(y, y') of the limiting Gaussian field at two tuple points."""
    return float(ctx.field_vector(y) @ ctx.field[1] @ ctx.field_vector(y2))


def cov_c_matrix(ctx: Context, y_list) -> np.ndarray:
    """The matrix [C(y_a, y_b)] = V P V^T over a list of tuple points (symmetric PSD)."""
    V = np.stack([ctx.field_vector(y) for y in y_list])
    return V @ ctx.field[1] @ V.T


def vtilde(ctx: Context, k_idx: int, y: float = 0.0) -> float:
    """Vtilde_k(H, X, l, y): rho_{partial_k H} integrated in time, summed
    over (d-l-1)-tuples of jumps in the other second-block slots.

    k_idx is the 1-based global coordinate, l < k_idx <= d.  With every
    second-block slot marked "deriv", Context.contract gives
    sum_{k>l} Vtilde_k at each point.
    """
    d, l = ctx.kernel.d, ctx.kernel.l
    if not l < k_idx <= d:
        raise KernelError(f"k_idx={k_idx} outside l+1..d={d}")
    slots = ["moment"] * l + ["sum"] * (d - l)
    slots[k_idx - 1] = "deriv"
    return ctx.contract(slots, y)


def cond_var_mixed(ctx: Context) -> CondVariance:
    """Conditional variance of the mixed-case limit: jump term plus field term.

    jump term:  sum_s (sum_{k>l} Vtilde_k(Delta X_s))^2 sigma_s^2
    field term: sum over pairs of jump tuples of C(Delta X_s1, Delta X_s2),
                computed in factorized form (no tuple enumeration).
    """
    kernel = ctx.kernel
    if not 1 <= kernel.l < kernel.d:
        raise KernelError("mixed-case conditional variance needs 1 <= l < d")
    if len(ctx.sizes) == 0:
        return CondVariance(0.0, 0.0, 0.0)
    prof = ctx.contract(ctx.compiled.vtilde_slots, ctx.sizes)
    jump_term = float(np.sum(prof * prof * ctx.post * ctx.post))
    svec = ctx.field_tuple_sum()
    field_term = float(svec @ ctx.field[1] @ svec)
    return CondVariance(total=jump_term + field_term, jump_term=jump_term, field_term=field_term)
