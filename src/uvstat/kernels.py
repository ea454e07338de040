"""Product-power kernels with a smooth factor, and their exact calculus.

A kernel is

    H(x_1, ..., x_l, y_1, ..., y_{d-l})
        = |x_1|^{p_1} ... |x_l|^{p_l} * |y_1|^{q_1} ... |y_{d-l}|^{q_{d-l}}
          * L(x, y),

where L is built from a small catalog of smooth atoms (constant one,
sin^2 of a scaled coordinate difference, Gaussian bumps, even
polynomials) closed under sums and products.  Restricting L to this
catalog makes H an exact finite sum of *separable* terms (products of
one-dimensional factors), which is what makes O(n) evaluation of the
d-fold statistics possible.

The one exact calculus is :class:`Factor1D`: products, derivatives and
Gaussian moments E[f(sigma U)] of the one-dimensional factors (closed
form, or quadrature over a bit-identical float copy of Factor1D.val
when cos/sin are present).  Partial derivatives of H, rho_H and
everything else in the package (statistics, limit functionals,
conditional variances, limit draws) are written against the separable
terms, which each kernel expands once, on first use, into its compiled
view (``KernelSpec._compiled``: the terms, their derivatives, the
Gaussian-field factor products and the slot layouts of the limits).
The structural questions the admissibility checker asks (which
coordinates L touches, and its evenness and boundedness in the scaled
block) are answered on the separable terms of L.  The :class:`LExpr`
tree only parses, prints, expands into separable terms and evaluates L
directly; :func:`eval_h` keeps that direct evaluation as the oracle
independent of the factorization.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import quad

__all__ = [
    "Factor1D",
    "LExpr",
    "One",
    "GridSin",
    "GaussBump",
    "PolyEven",
    "Sum",
    "Product",
    "ONE",
    "KernelSpec",
    "KernelError",
    "QuadratureError",
    "REGIMES",
    "abs_moment",
    "eval_h",
    "partial_h",
    "rho",
    "rho_mc",
    "separable_terms",
    "check_admissibility",
    "AdmissibilityReport",
    "AdmissibilityItem",
    "kernel_to_text",
    "kernel_from_text",
    "grid_test_kernel",
]

REGIMES = ("JumpLLN", "JumpCLT", "MixedLLN", "MixedCLT", "GridTest")

_SQRT_PI = math.sqrt(math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


class KernelError(ValueError):
    """Invalid kernel construction or evaluation request."""


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message, achieved):
        super().__init__(message)
        self.achieved = achieved


def abs_moment(p: float) -> float:
    """p-th absolute moment of a standard normal, m_p = 2^{p/2} Gamma((p+1)/2) / sqrt(pi).

    m_0 = 1, m_1 = sqrt(2/pi), m_2 = 1, m_4 = 3.
    """
    if p < 0:
        raise ValueError(f"abs_moment requires p >= 0, got {p}")
    return 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / _SQRT_PI


# ---------------------------------------------------------------------------
# One-dimensional factors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Factor1D:
    """A one-dimensional factor |x|^power * sign(x)^sign_pow * smooth part.

    The smooth part is a product of cos(c x), sin(c x), exp(-c x^2) and an
    even polynomial sum_k poly2[k] * x^{2k}.  This is the package's one
    exact calculus: the class is closed under multiplication (:meth:`mul`)
    and differentiation (:meth:`derivative`), and knows its own Gaussian
    moments E[f(sigma U)] with U ~ N(0, 1) (:meth:`gaussian_moment_vec`;
    closed form where available, split adaptive quadrature otherwise,
    over the scalar copy :meth:`_val_scalar` of :meth:`val`).

    The power may be negative: the derivative of |x|^p with p < 1 carries
    |x|^{p-1}, which is finite only away from x = 0.
    """

    power: float = 0.0
    sign_pow: int = 0
    cos_args: tuple = ()
    sin_args: tuple = ()
    gauss_args: tuple = ()
    poly2: tuple = ()  # () means polynomial factor 1

    def val(self, x):
        """Evaluate at a scalar or ndarray; 0^0 is treated as 1."""
        x = np.asarray(x, dtype=float)
        if self.power == 0.0:
            out = np.ones_like(x)
        else:
            out = np.abs(x) ** self.power
        if self.sign_pow:
            out = out * np.sign(x)
        for c in self.cos_args:
            out = out * np.cos(c * x)
        for c in self.sin_args:
            out = out * np.sin(c * x)
        for c in self.gauss_args:
            out = out * np.exp(-c * x * x)
        if self.poly2:
            out = out * np.polynomial.polynomial.polyval(x * x, self.poly2)
        return out if out.ndim else float(out)

    def _val_scalar(self, x: float) -> float:
        """:meth:`val` on a Python float, bit for bit (the quadrature integrand).

        Step for step as val on a 0-d array: ``**`` is C pow like numpy's
        scalar power (with val's inf at 0 for a negative power), np.sign's
        values (0 at +-0), math.cos/sin (equal to numpy's), numpy's exp
        (math.exp is not its AVX-512 exp) and polyval's Horner order.
        """
        p = self.power
        out = 1.0 if p == 0.0 else abs(x) ** p if x or p > 0.0 else math.inf
        if self.sign_pow:
            out *= (x > 0.0) - (x < 0.0)
        for c in self.cos_args:
            out *= math.cos(c * x)
        for c in self.sin_args:
            out *= math.sin(c * x)
        for c in self.gauss_args:
            out *= float(np.exp(-c * x * x))
        if self.poly2:
            xx = x * x
            acc = self.poly2[-1] + xx * 0.0
            for a in self.poly2[-2::-1]:
                acc = a + acc * xx
            out *= acc
        return out

    def mul(self, other: "Factor1D") -> "Factor1D":
        if self.poly2 and other.poly2:
            poly = tuple(np.polynomial.polynomial.polymul(self.poly2, other.poly2))
        else:
            poly = self.poly2 or other.poly2
        return Factor1D(
            power=self.power + other.power,
            sign_pow=(self.sign_pow + other.sign_pow) % 2,
            cos_args=tuple(sorted(self.cos_args + other.cos_args)),
            sin_args=tuple(sorted(self.sin_args + other.sin_args)),
            gauss_args=tuple(sorted(self.gauss_args + other.gauss_args)),
            poly2=tuple(poly),
        )

    def derivative(self) -> tuple:
        """d/dx as a list of (coefficient, Factor1D) terms.

        Valid away from x = 0 whenever power <= 1 (the |x|^p factor is not
        differentiable there, and for power < 1 the first term has a
        negative power); callers guard that case.
        """
        terms = []
        if self.power != 0.0:
            terms.append(
                (
                    self.power,
                    replace(self, power=self.power - 1.0, sign_pow=(self.sign_pow + 1) % 2),
                )
            )
        for i, c in enumerate(self.cos_args):
            rest = self.cos_args[:i] + self.cos_args[i + 1 :]
            terms.append(
                (-c, replace(self, cos_args=tuple(sorted(rest)), sin_args=tuple(sorted(self.sin_args + (c,)))))
            )
        for i, c in enumerate(self.sin_args):
            rest = self.sin_args[:i] + self.sin_args[i + 1 :]
            terms.append(
                (c, replace(self, sin_args=tuple(sorted(rest)), cos_args=tuple(sorted(self.cos_args + (c,)))))
            )
        for c in self.gauss_args:
            terms.append(
                (-2.0 * c, replace(self, power=self.power + 1.0, sign_pow=(self.sign_pow + 1) % 2))
            )
        if len(self.poly2) > 1:
            dp = tuple(k * a for k, a in enumerate(self.poly2))[1:]
            terms.append(
                (2.0, replace(self, power=self.power + 1.0, sign_pow=(self.sign_pow + 1) % 2, poly2=dp))
            )
        return tuple(terms)

    # -- Gaussian moments ---------------------------------------------------

    def _moment_parity_odd(self) -> bool:
        return (self.sign_pow + len(self.sin_args)) % 2 == 1

    def _moment_quad(self, sigma: float) -> float:
        # integrand is even here, so integrate the positive half axis twice;
        # splitting at 0 keeps the |x|^p cusp off the panel interior.  The
        # integrand has val's bits; full_output hands back QUADPACK's note
        # for the error instead of warning.
        def integrand(u):
            return self._val_scalar(sigma * u) * (math.exp(-0.5 * u * u) / _SQRT_2PI)

        val, err, _, *msg = quad(
            integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-11, limit=400, full_output=1
        )
        val, err = 2.0 * val, 2.0 * err
        if err > 1e-8 * (1.0 + abs(val)):
            note = f" ({' '.join(msg[0].split())})" if msg else ""
            raise QuadratureError(
                f"gaussian moment quadrature achieved tolerance {err:.3e} "
                f"for factor {self} at sigma={sigma}{note}",
                achieved=err,
            )
        return val

    def gaussian_moment_vec(self, sigmas: np.ndarray) -> np.ndarray:
        """Vectorized E[f(sigma U)] over an array of sigma values."""
        sigmas = np.asarray(sigmas, dtype=float)
        if self._moment_parity_odd():
            return np.zeros_like(sigmas)
        if not self.cos_args and not self.sin_args:
            a = sum(self.gauss_args)
            scale = 1.0 + 2.0 * a * sigmas * sigmas
            if not self.poly2:
                return abs_moment(self.power) * sigmas ** self.power * scale ** (-(self.power + 1.0) / 2.0)
            total = np.zeros_like(sigmas)
            for k, coef in enumerate(self.poly2):
                pw = self.power + 2 * k
                total += coef * abs_moment(pw) * sigmas ** pw * scale ** (-(pw + 1.0) / 2.0)
            return total
        # quadrature per distinct sigma; constant-volatility paths hit the
        # cache with a single entry
        cache: dict = {}
        out = np.empty_like(sigmas)
        for i, s in enumerate(sigmas.ravel()):
            key = float(s)
            if key not in cache:
                cache[key] = self._moment_quad(key)
            out.ravel()[i] = cache[key]
        return out

    def to_tokens(self) -> str:
        parts = [f"|x|^{self.power!r}"]
        if self.sign_pow:
            parts.append("sign")
        parts += [f"cos({c!r}x)" for c in self.cos_args]
        parts += [f"sin({c!r}x)" for c in self.sin_args]
        parts += [f"exp(-{c!r}x^2)" for c in self.gauss_args]
        if self.poly2:
            parts.append(f"poly2{self.poly2!r}")
        return "*".join(parts)


_F_ONE = Factor1D()


def _pow_factor(p: float) -> Factor1D:
    return Factor1D(power=float(p))


# ---------------------------------------------------------------------------
# Smooth factor expression trees
# ---------------------------------------------------------------------------


class LExpr:
    """Base class for the smooth-factor expression tree.

    Nodes parse and print (:meth:`to_text`), expand into separable terms
    (:meth:`sep_terms`) and evaluate L directly (:meth:`value`, the
    oracle behind :func:`eval_h`).  Every structural question (which
    coordinates L touches, evenness, boundedness) and every
    derivative is answered on the separable terms, not on the tree.
    """

    def value(self, pt):
        raise NotImplementedError

    def sep_terms(self) -> tuple:
        """Expansion into ((coeff, {coord: Factor1D}), ...). Exact."""
        raise NotImplementedError

    def to_text(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class One(LExpr):
    def value(self, pt):
        pt = np.asarray(pt, dtype=float)
        out = np.ones(pt.shape[:-1])
        return out if out.ndim else float(out)

    def sep_terms(self):
        return ((1.0, {}),)

    def to_text(self):
        return "one"


ONE = One()


@dataclass(frozen=True)
class GridSin(LExpr):
    """sin^2(pi (x_i - x_j) / beta) on two named coordinates."""

    beta: float
    i: int
    j: int

    def __post_init__(self):
        if not 0.0 < self.beta < math.inf:
            raise KernelError(f"grid_sin requires a finite beta > 0, got {self.beta}")
        if self.i == self.j:
            raise KernelError("grid_sin coordinates must differ")

    def _u(self, pt):
        pt = np.asarray(pt, dtype=float)
        return pt[..., self.i] - pt[..., self.j]

    def value(self, pt):
        s = np.sin(math.pi * self._u(pt) / self.beta)
        out = s * s
        return out if out.ndim else float(out)

    def sep_terms(self):
        # sin^2(pi(a-b)/beta) = 1/2 - 1/2 cos(2pi a/b)cos(2pi b/b)
        #                           - 1/2 sin(2pi a/b)sin(2pi b/b)
        c = 2.0 * math.pi / self.beta
        return (
            (0.5, {}),
            (-0.5, {self.i: Factor1D(cos_args=(c,)), self.j: Factor1D(cos_args=(c,))}),
            (-0.5, {self.i: Factor1D(sin_args=(c,)), self.j: Factor1D(sin_args=(c,))}),
        )

    def to_text(self):
        return f"(grid_sin {self.beta!r} {self.i} {self.j})"


@dataclass(frozen=True)
class GaussBump(LExpr):
    """exp(-c x_i^2)."""

    c: float
    i: int

    def __post_init__(self):
        if not 0.0 <= self.c < math.inf:
            raise KernelError(f"gauss_bump requires a finite c >= 0, got {self.c}")

    def value(self, pt):
        pt = np.asarray(pt, dtype=float)
        x = pt[..., self.i]
        out = np.exp(-self.c * x * x)
        return out if out.ndim else float(out)

    def sep_terms(self):
        return ((1.0, {self.i: Factor1D(gauss_args=(self.c,))}),)

    def to_text(self):
        return f"(gauss_bump {self.c!r} {self.i})"


@dataclass(frozen=True)
class PolyEven(LExpr):
    """Polynomial in x_i^2: sum_k coeffs[k] x_i^{2k}."""

    i: int
    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise KernelError("poly_even needs at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        bad = [c for c in self.coeffs if not math.isfinite(c)]
        if bad:
            raise KernelError(f"poly_even coefficients must be finite, got {bad[0]}")

    def value(self, pt):
        pt = np.asarray(pt, dtype=float)
        x = pt[..., self.i]
        out = np.polynomial.polynomial.polyval(x * x, self.coeffs)
        return out if np.ndim(out) else float(out)

    def sep_terms(self):
        return ((1.0, {self.i: Factor1D(poly2=self.coeffs)}),)

    def to_text(self):
        return "(poly_even %d %s)" % (self.i, " ".join(repr(c) for c in self.coeffs))


@dataclass(frozen=True)
class Sum(LExpr):
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise KernelError("empty sum")

    def value(self, pt):
        out = self.terms[0].value(pt)
        for t in self.terms[1:]:
            out = out + t.value(pt)
        return out

    def sep_terms(self):
        out = []
        for t in self.terms:
            out.extend(t.sep_terms())
        return tuple(out)

    def to_text(self):
        return "(sum %s)" % " ".join(t.to_text() for t in self.terms)


@dataclass(frozen=True)
class Product(LExpr):
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise KernelError("empty product")

    def value(self, pt):
        out = self.factors[0].value(pt)
        for t in self.factors[1:]:
            out = out * t.value(pt)
        return out

    def sep_terms(self):
        out = [(1.0, {})]
        for t in self.factors:
            new = []
            for c1, d1 in out:
                for c2, d2 in t.sep_terms():
                    merged = dict(d1)
                    for coord, f in d2.items():
                        merged[coord] = merged[coord].mul(f) if coord in merged else f
                    new.append((c1 * c2, merged))
            out = new
        return tuple(out)

    def to_text(self):
        return "(product %s)" % " ".join(t.to_text() for t in self.factors)


def _l_factors(L: LExpr) -> list:
    """(coord, Factor1D) for every factor of every separable term of L."""
    return [(c, f) for _, fdict in L.sep_terms() for c, f in fdict.items()]


# ---------------------------------------------------------------------------
# Kernel specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelSpec:
    """Shape of a statistic kernel: block split (d, l), powers, smooth factor.

    The first block of l coordinates carries powers ``p``; the remaining
    d - l coordinates carry powers ``q``.  Whether the first block is the
    jump block (V-statistics) or the scaled continuous block
    (Y-statistics) is decided by the regime tag; the admissibility checker
    knows the hypotheses of each regime.
    """

    d: int
    l: int
    p: tuple = ()
    q: tuple = ()
    L: LExpr = ONE
    regime: str = "JumpLLN"

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(float(v) for v in self.p))
        object.__setattr__(self, "q", tuple(float(v) for v in self.q))
        if self.d < 1:
            raise KernelError(f"kernel dimension d must be >= 1, got {self.d}")
        if not 0 <= self.l <= self.d:
            raise KernelError(f"block split l={self.l} outside 0..d={self.d}")
        if len(self.p) != self.l:
            raise KernelError(f"len(p)={len(self.p)} != l={self.l}")
        if len(self.q) != self.d - self.l:
            raise KernelError(f"len(q)={len(self.q)} != d-l={self.d - self.l}")
        bad = [v for v in self.p + self.q if not 0.0 <= v < math.inf]
        if bad:
            raise KernelError(f"powers must be finite and nonnegative, got {bad[0]}")
        if self.regime not in REGIMES:
            raise KernelError(f"unknown regime {self.regime!r}; choose from {REGIMES}")
        bad = sorted({c for c, _ in _l_factors(self.L)} - set(range(self.d)))
        if bad:
            raise KernelError(f"L references coordinates {bad} outside 0..{self.d - 1}")

    @property
    def powers(self) -> tuple:
        return self.p + self.q

    def text(self) -> str:
        return kernel_to_text(self)

    @functools.cached_property
    def _compiled(self) -> "_CompiledKernel":
        """The separable expansion in the shapes its readers use, built on first use."""
        return _CompiledKernel(self)


def eval_h(kernel: KernelSpec, point) -> float:
    """Evaluate H at a point (or batch of points, last axis = coordinate)."""
    pt = np.asarray(point, dtype=float)
    if pt.shape[-1] != kernel.d:
        raise KernelError(f"point has {pt.shape[-1]} coordinates, kernel has d={kernel.d}")
    out = np.ones(pt.shape[:-1])
    for i, pw in enumerate(kernel.powers):
        if pw != 0.0:
            out = out * np.abs(pt[..., i]) ** pw
    out = out * kernel.L.value(pt)
    return out if np.ndim(out) else float(out)


def partial_h(kernel: KernelSpec, j: int, point) -> float:
    """Exact partial derivative of H in coordinate j.

    Computed on the separable terms, where only the j-th factor
    differentiates, through :meth:`Factor1D.derivative` (whose power
    term carries the negative power p - 1 when p < 1).  No cancellation
    occurs near x_j = 0: for power > 1 the value there is exactly the
    true limit 0, while 0 < power <= 1 at x_j = 0 is a domain error
    (power 0 leaves only the smooth factor to differentiate).
    """
    if not 0 <= j < kernel.d:
        raise KernelError(f"coordinate {j} outside 0..{kernel.d - 1}")
    pt = np.asarray(point, dtype=float)
    pj = kernel.powers[j]
    xj = pt[..., j]
    if np.any(xj == 0.0) and 0.0 < pj <= 1.0:
        raise KernelError(
            f"partial_h at x_{j} = 0 with power 0 < {pj} <= 1 is not defined"
        )
    compiled = kernel._compiled
    out = np.zeros(pt.shape[:-1])
    for (coeff, factors), derivs in zip(compiled.terms, compiled.derivatives):
        term = np.zeros(xj.shape)
        for dcoef, dfac in derivs[j]:
            term = term + dcoef * dfac.val(xj)
        term = coeff * term
        for i, f in enumerate(factors):
            if i != j:
                term = term * f.val(pt[..., i])
        out = out + term
    return out if np.ndim(out) else float(out)


# ---------------------------------------------------------------------------
# Separable expansion
# ---------------------------------------------------------------------------


def separable_terms(kernel: KernelSpec) -> tuple:
    """Exact expansion of H into ((coeff, [Factor1D] * d), ...).

    Every catalog smooth factor admits one: single-coordinate atoms stay
    put and GridSin splits into its rank-3 trigonometric identity
    sin^2(pi(a-b)/beta) = 1/2 - 1/2 cos cos - 1/2 sin sin (an identity,
    not an approximation).
    """
    powers = kernel.powers
    out = []
    for coeff, fdict in kernel.L.sep_terms():
        factors = []
        for i in range(kernel.d):
            f = _pow_factor(powers[i]) if powers[i] != 0.0 else _F_ONE
            if i in fdict:
                f = f.mul(fdict[i])
            factors.append(f)
        out.append((coeff, factors))
    return tuple(out)


class _CompiledKernel:
    """One kernel's separable expansion, compiled once for every reader.

    Held by the kernel (:attr:`KernelSpec._compiled`), so it lives as long
    as the kernel and no longer.  The statistics, limits, conditional
    variances and limit draws read the terms here instead of expanding
    the kernel per call:

    * ``terms``: :func:`separable_terms` as ((coeff, (Factor1D,) * d), ...);
    * ``derivatives[m][j]``: ``terms[m][1][j].derivative()``;
    * ``vbar_slots``/``vtilde_slots``: the slot layouts of sum_k Vbar_k
      (first block differentiated, second at 0) and sum_{k>l} Vtilde_k
      (first block integrated, second differentiated);
    * ``pairs`` and ``products``: the (term, scaled slot) pairs (m, i) of
      the Gaussian-field covariance and, for pairs a <= b,
      ``products[a][b - a]``, the product of their factors.

    The derivatives and the products are built on first use.
    """

    def __init__(self, kernel: KernelSpec):
        l, d = kernel.l, kernel.d
        self.terms = tuple((coeff, tuple(factors)) for coeff, factors in separable_terms(kernel))
        self.vbar_slots = ("deriv",) * l + (0.0,) * (d - l)
        self.vtilde_slots = ("moment",) * l + ("deriv",) * (d - l)
        self.pairs = tuple((m, i) for m in range(len(self.terms)) for i in range(l))

    @functools.cached_property
    def derivatives(self) -> tuple:
        return tuple(tuple(f.derivative() for f in factors) for _, factors in self.terms)

    @functools.cached_property
    def products(self) -> tuple:
        pair_factors = [self.terms[m][1][i] for m, i in self.pairs]
        return tuple(
            tuple(fa.mul(fb) for fb in pair_factors[a:]) for a, fa in enumerate(pair_factors)
        )


# ---------------------------------------------------------------------------
# Gaussian smoothing rho_H
# ---------------------------------------------------------------------------


def rho(kernel: KernelSpec, sigmas, y) -> float:
    """rho_H(sigma, y) = E[H(sigma_1 U_1, ..., sigma_l U_l, y)], U ~ N(0, I_l).

    Computed on the separable terms: each first-block factor contributes
    its :meth:`Factor1D.gaussian_moment_vec` at sigma_i (closed form, or
    one-dimensional adaptive quadrature split at the origin when cos/sin
    are present), each second-block factor its value at y.
    """
    sigmas = np.asarray(sigmas, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    l = kernel.l
    if sigmas.size != l:
        raise KernelError(f"expected {l} sigmas, got {sigmas.size}")
    if y.size != kernel.d - l:
        raise KernelError(f"expected {kernel.d - l} y-coordinates, got {y.size}")
    if np.any(sigmas <= 0.0):
        raise KernelError("sigmas must be positive")
    total = 0.0
    for coeff, factors in kernel._compiled.terms:
        v = coeff
        for i in range(l):
            if v == 0.0:
                break
            v *= float(factors[i].gaussian_moment_vec(sigmas[i]))
        for j in range(l, kernel.d):
            if v == 0.0:
                break
            v *= factors[j].val(y[j - l])
        total += v
    return float(total)


def rho_mc(kernel: KernelSpec, sigmas, y, n_nodes: int = 200_000, seed: int = 0x5EED_0001):
    """Monte Carlo version of :func:`rho` with a fixed sub-seed.

    Returns (estimate, standard_error).  Kept only as the independent
    Monte Carlo cross-check of :func:`rho`.
    """
    if n_nodes < 100_000:
        raise KernelError("rho_mc requires at least 1e5 nodes")
    sigmas = np.asarray(sigmas, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    l = kernel.l
    gen = np.random.default_rng(np.random.SeedSequence((seed, kernel.d, l)))
    u = gen.standard_normal((n_nodes, l))
    pts = np.empty((n_nodes, kernel.d))
    pts[:, :l] = u * sigmas
    pts[:, l:] = y
    vals = eval_h(kernel, pts)
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(n_nodes))
    return est, se


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibilityItem:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class AdmissibilityReport:
    regime: str
    items: tuple

    @property
    def passed(self) -> bool:
        return all(it.passed for it in self.items)

    def summary(self) -> str:
        lines = [f"regime {self.regime}: {'PASS' if self.passed else 'FAIL'}"]
        for it in self.items:
            lines.append(f"  [{'ok' if it.passed else 'FAIL'}] {it.name}: {it.detail}")
        return "\n".join(lines)

    def failures(self) -> tuple:
        return tuple(it for it in self.items if not it.passed)


def _sample_points(gen, count, dim, lo=0.2, hi=1.5):
    """Random points with all coordinates bounded away from 0."""
    mags = gen.uniform(lo, hi, size=(count, dim))
    signs = np.where(gen.random((count, dim)) < 0.5, -1.0, 1.0)
    return mags * signs


def _check_alln(kernel: KernelSpec) -> AdmissibilityItem:
    """Numeric check of H(x, y) / prod |x_i|^2 -> 0 along shrinking x.

    The ratio is assembled as prod |x_i|^{p_i - 2} |y|^q |L(x, y)| so no
    catastrophic cancellation occurs; margins below ~2^{-0.07} per halving
    are beyond the resolution of the check.
    """
    d, l = kernel.d, kernel.l
    if l == 0:
        return AdmissibilityItem("lln_small_x_condition", True, "no jump block (l=0)")
    gen = np.random.default_rng(0xA11)
    xs = _sample_points(gen, 5, l)
    ys = _sample_points(gen, 5, d - l) if d > l else np.zeros((5, 0))
    r_first = 0.0
    r_last = 0.0
    exps = [0, 10, 20, 40, 70, 100]
    for x0, y0 in zip(xs, ys):
        for pos, j in enumerate(exps):
            eps = 2.0 ** (-j)
            x = eps * x0
            ratio = 1.0
            for i in range(l):
                ratio *= abs(x[i]) ** (kernel.p[i] - 2.0)
            for jj in range(d - l):
                ratio *= abs(y0[jj]) ** kernel.q[jj]
            pt = np.concatenate([x, y0])
            ratio *= abs(kernel.L.value(pt))
            if pos == 0:
                r_first = max(r_first, ratio)
            if pos == len(exps) - 1:
                r_last = max(r_last, ratio)
    ok = r_last <= 1e-2 * (r_first + 1e-300)
    return AdmissibilityItem(
        "lln_small_x_condition",
        ok,
        f"H/prod|x_i|^2 ratio shrank from {r_first:.3e} to {r_last:.3e} over 100 halvings",
    )


def _check_kernel_class(kernel: KernelSpec) -> AdmissibilityItem:
    """d_k of (|y|^q L) -> 0 as y -> 0 for every coordinate k past the block split."""
    d, l = kernel.d, kernel.l
    if l == d:
        return AdmissibilityItem(
            "smooth_class_membership", True, "l = d: any C^{d+1} smooth factor qualifies"
        )
    aux = KernelSpec(d=d, l=l, p=(0.0,) * l, q=kernel.q, L=kernel.L, regime=kernel.regime)
    gen = np.random.default_rng(0xADA)
    xs = _sample_points(gen, 6, l) if l else np.zeros((6, 0))
    y0s = _sample_points(gen, 3, d - l)
    d_first = 0.0
    d_last = 0.0
    exps = [0, 5, 10, 20, 40]
    for x in xs:
        for y0 in y0s:
            for pos, j in enumerate(exps):
                y = 2.0 ** (-j) * y0
                pt = np.concatenate([x, y])
                worst = max(abs(partial_h(aux, k, pt)) for k in range(l, d))
                if pos == 0:
                    d_first = max(d_first, worst)
                if pos == len(exps) - 1:
                    d_last = max(d_last, worst)
    ok = d_last <= max(1e-9, 1e-3 * d_first)
    return AdmissibilityItem(
        "smooth_class_membership",
        ok,
        f"max |d_k(|y|^q L)| shrank from {d_first:.3e} to {d_last:.3e} as y -> 0",
    )


def _check_bounded_in_first_block(kernel: KernelSpec) -> AdmissibilityItem:
    """Whether L and its derivatives are bounded in the scaled block.

    Read off the separable terms: a factor sum_k poly2[k] x^{2k} times
    cos/sin/exp(-c x^2) is bounded, and so are its derivatives (which keep
    that form), when its polynomial has degree 0 (the last nonzero
    poly2[k] is k = 0, so a zero polynomial qualifies) or its Gaussian
    exponents sum to more than 0.
    """
    bad = sorted(
        {
            c
            for c, f in _l_factors(kernel.L)
            if c < kernel.l
            and any(a != 0.0 for a in f.poly2[1:])
            and not sum(f.gauss_args) > 0.0
        }
    )
    ok = not bad
    detail = "smooth factor bounded in the scaled block" if ok else (
        f"smooth factor unbounded in scaled coordinates {bad}"
    )
    return AdmissibilityItem("smooth_factor_bounded", ok, detail)


def _check_even(kernel: KernelSpec) -> AdmissibilityItem:
    bad = sorted({c for c, f in _l_factors(kernel.L) if c < kernel.l and f._moment_parity_odd()})
    ok = not bad
    detail = (
        "kernel even in every scaled-block coordinate"
        if ok
        else f"smooth factor not even in scaled coordinates {bad}"
    )
    return AdmissibilityItem("even_in_scaled_block", ok, detail)


def _power_item(name, values, ok_fn, requirement) -> AdmissibilityItem:
    bad = [v for v in values if not ok_fn(v)]
    ok = not bad
    detail = f"{name} = {list(values)}; requires {requirement}"
    return AdmissibilityItem(f"powers_{name}", ok, detail)


def check_admissibility(kernel: KernelSpec) -> AdmissibilityReport:
    """Check the declared regime's hypotheses, item by item.

    Structural items (evenness and boundedness in the scaled block, the
    grid test's grid_sin factor) are read off the separable expansion
    ``kernel.L.sep_terms()``; the small-x and
    smooth-class items are numeric, on :meth:`LExpr.value` and
    :func:`partial_h`.  Report-only: construction of out-of-regime
    kernels is allowed, the harness refuses to run plans whose kernel
    fails here.
    """
    items = []
    regime = kernel.regime
    if regime == "JumpLLN":
        items.append(_check_alln(kernel))
    elif regime in ("JumpCLT", "GridTest"):
        if kernel.l == 0:
            items.append(AdmissibilityItem("jump_block", False, "jump regime requires l >= 1"))
        items.append(_power_item("p", kernel.p, lambda v: v > 3.0, "all > 3"))
        qok = lambda v: v == 0.0 or (v == int(v) and int(v) % 2 == 0) or v > kernel.d + 1
        items.append(
            _power_item("q", kernel.q, qok, "0, an even integer, or > d+1 (smoothness of |y|^q)")
        )
        items.append(_check_kernel_class(kernel))
        if regime == "GridTest":
            has_gridsin = any(f.sin_args for _, f in _l_factors(kernel.L))
            items.append(
                AdmissibilityItem(
                    "grid_test_shape",
                    kernel.d == 2 and kernel.l == 2 and has_gridsin,
                    "grid test kernel needs d = l = 2 and a grid_sin factor",
                )
            )
    elif regime == "MixedLLN":
        items.append(_power_item("p", kernel.p, lambda v: v < 2.0, "all < 2"))
        items.append(_power_item("q", kernel.q, lambda v: v > 2.0, "all > 2"))
        items.append(_check_bounded_in_first_block(kernel))
    elif regime == "MixedCLT":
        items.append(_power_item("p", kernel.p, lambda v: 0.0 < v < 1.0, "all in (0, 1)"))
        items.append(_power_item("q", kernel.q, lambda v: v > 3.0, "all > 3"))
        items.append(_check_even(kernel))
        items.append(_check_bounded_in_first_block(kernel))
    return AdmissibilityReport(regime=regime, items=tuple(items))


# ---------------------------------------------------------------------------
# Textual serialization
# ---------------------------------------------------------------------------


def _fmt_list(values) -> str:
    return ",".join(repr(float(v)) for v in values) if values else "-"


def kernel_to_text(kernel: KernelSpec) -> str:
    return (
        f"d={kernel.d} l={kernel.l} p={_fmt_list(kernel.p)} "
        f"q={_fmt_list(kernel.q)} regime={kernel.regime} L={kernel.L.to_text()}"
    )


def _parse_list(text: str) -> tuple:
    if text == "-" or text == "":
        return ()
    return tuple(float(v) for v in text.split(","))


class _LTokens:
    def __init__(self, text: str):
        self.tokens = text.replace("(", " ( ").replace(")", " ) ").split()
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.tokens):
            raise KernelError("unexpected end of L expression")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None


def _parse_lexpr(toks: _LTokens) -> LExpr:
    tok = toks.next()
    if tok == "one":
        return ONE
    if tok != "(":
        raise KernelError(f"unexpected token {tok!r} in L expression")
    head = toks.next()
    if head == "grid_sin":
        beta = float(toks.next())
        i = int(toks.next())
        j = int(toks.next())
        node = GridSin(beta, i, j)
    elif head == "gauss_bump":
        c = float(toks.next())
        i = int(toks.next())
        node = GaussBump(c, i)
    elif head == "poly_even":
        i = int(toks.next())
        coeffs = []
        while toks.peek() != ")":
            coeffs.append(float(toks.next()))
        node = PolyEven(i, tuple(coeffs))
    elif head in ("sum", "product"):
        children = []
        while toks.peek() != ")":
            children.append(_parse_lexpr(toks))
        node = Sum(tuple(children)) if head == "sum" else Product(tuple(children))
    else:
        raise KernelError(f"unknown L atom {head!r}")
    closing = toks.next()
    if closing != ")":
        raise KernelError(f"expected ')' after {head}, got {closing!r}")
    return node


def kernel_from_text(text: str) -> KernelSpec:
    """Parse the textual kernel serialization produced by :func:`kernel_to_text`."""
    text = text.strip()
    fields = {}
    rest = text
    for key in ("d", "l", "p", "q", "regime"):
        if not rest.startswith(f"{key}="):
            raise KernelError(f"kernel text missing '{key}=' (got {rest[:30]!r})")
        rest = rest[len(key) + 1 :]
        val, _, rest = rest.partition(" ")
        fields[key] = val
        rest = rest.lstrip()
    if not rest.startswith("L="):
        raise KernelError("kernel text missing 'L='")
    ltext = rest[2:]
    toks = _LTokens(ltext)
    try:
        L = _parse_lexpr(toks)
        if toks.peek() is not None:
            raise KernelError(f"trailing tokens in L expression: {toks.tokens[toks.pos:]}")
        return KernelSpec(
            d=int(fields["d"]),
            l=int(fields["l"]),
            p=_parse_list(fields["p"]),
            q=_parse_list(fields["q"]),
            L=L,
            regime=fields["regime"],
        )
    except KernelError:
        raise
    except (ValueError, TypeError) as exc:
        raise KernelError(f"malformed kernel text {text!r}: {exc}") from exc


def grid_test_kernel(beta: float, power: float = 4.0) -> KernelSpec:
    """The lattice test kernel |x|^power |y|^power sin^2(pi (x - y) / beta)."""
    return KernelSpec(
        d=2, l=2, p=(power, power), q=(), L=GridSin(beta, 0, 1), regime="GridTest"
    )
