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
form, or, when cos/sin are present, quadrature over an integrand that
each factor generates once from val's steps: one straight-line Python
function per factor, with val's bits).  rho_H and everything else in
the package (statistics, limit functionals, conditional variances,
limit draws) are written against the separable terms.  Each kernel
expands L once, on construction (``KernelSpec._expansion``), and every
structural question reads that expansion: the coordinates L touches, the
compiled view (``KernelSpec._compiled``: the terms, their derivatives,
the Gaussian-field factor products, the slot layouts of the limits and
the memo of their per-grid quantities) and every admissibility item past
the power bounds.  The Taylor read of L at 0 stops at the lowest
coefficient that does not vanish; deciding that a sum of coefficients
vanishes is the one place a tolerance enters, 1e-12 of the sum of the
magnitudes, for rounding only.  An L that would expand past
:data:`_MAX_TERMS` terms (k two-term sums multiply into 2^k) is refused
before it is expanded.
The :class:`LExpr` tree only parses, prints and expands into separable
terms.  The direct evaluation of L and H, the oracle independent of the
factorization, lives with the tests in ``tests/oracles.py``.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, replace

import numpy as np

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
    "JUMP_REGIMES",
    "CLT_REGIMES",
    "abs_moment",
    "rho",
    "separable_terms",
    "check_admissibility",
    "AdmissibilityReport",
    "AdmissibilityItem",
    "kernel_to_text",
    "kernel_from_text",
    "grid_test_kernel",
]

REGIMES = ("JumpLLN", "JumpCLT", "MixedLLN", "MixedCLT", "GridTest")
# the regimes whose first block is the jump block (V-statistics); the rest are mixed (Y)
JUMP_REGIMES = ("JumpLLN", "JumpCLT", "GridTest")
# the regimes with a stable CLT: a conditional variance and a limit draw
CLT_REGIMES = ("JumpCLT", "MixedCLT", "GridTest")

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


@functools.cache
def _qagie():
    """QUADPACK's QAGIE, ``_qagie`` of scipy's ``_quadpack`` extension, loaded alone.

    The extension is found and run from its file in scipy's integrate
    directory, so the scipy.integrate package (scipy.linalg, scipy.sparse,
    scipy.special and a second OpenBLAS) is never imported;
    importlib.util.find_spec would import it.
    """
    import scipy

    where = os.path.join(scipy.__path__[0], "integrate")
    finder = importlib.machinery.FileFinder(
        where, (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    )
    spec = finder.find_spec("scipy.integrate._quadpack")
    if spec is None:
        raise ImportError(f"QUADPACK extension _quadpack not found in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._qagie


# QUADPACK's note for each exit code ier of QAGIE that leaves a result, as
# scipy 1.17.1's quad words it for limit=400, its whitespace folded
_QUADPACK_NOTES = {
    1: "The maximum number of subdivisions (400) has been achieved. If increasing the limit "
    "yields no improvement it is advised to analyze the integrand in order to determine the "
    "difficulties. If the position of a local difficulty can be determined (singularity, "
    "discontinuity) one will probably gain from splitting up the interval and calling the "
    "integrator on the subranges. Perhaps a special-purpose integrator should be used.",
    2: "The occurrence of roundoff error is detected, which prevents the requested tolerance "
    "from being achieved. The error may be underestimated.",
    3: "Extremely bad integrand behavior occurs at some points of the integration interval.",
    4: "The algorithm does not converge. Roundoff error is detected in the extrapolation table. "
    "It is assumed that the requested tolerance cannot be achieved, and that the returned "
    "result (if full_output = 1) is the best which can be obtained.",
    5: "The integral is probably divergent, or slowly convergent.",
}


@dataclass(frozen=True)
class Factor1D:
    """A one-dimensional factor |x|^power * sign(x)^sign_pow * smooth part.

    The smooth part is a product of cos(c x), sin(c x), exp(-c x^2) and an
    even polynomial sum_k poly2[k] * x^{2k}.  This is the package's one
    exact calculus: the class is closed under multiplication (:meth:`mul`)
    and differentiation (:meth:`derivative`), and knows its own Gaussian
    moments E[f(sigma U)] with U ~ N(0, 1) (:meth:`gaussian_moment_vec`;
    closed form where available, split adaptive quadrature otherwise).
    The quadrature integrand and the float copy :meth:`_val_scalar` of
    :meth:`val` are generated together, once per factor, as straight-line
    Python from val's steps (:meth:`_step_source`, compiled by
    :attr:`_steps`), so a call runs no loop or branch over the fields.

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

    # -- the float copy of val ----------------------------------------------

    def _step_source(self) -> tuple:
        """Source of ``_val_scalar(x)`` and ``_integrand(sigma)``, and the names it reads.

        Both return one product whose factors are val's steps on a 0-d
        array, in val's order: ``**`` is C pow like numpy's scalar power
        (with val's inf at 0 for a negative power), np.sign's values (0 at
        +-0), math.cos/sin (equal to numpy's), numpy's exp (math.exp is not
        its AVX-512 exp) and polyval's Horner order.  val's leading 1.0 is
        kept only where the product would not be a float without it.  The
        factor's own numbers are bound by name in the returned namespace,
        never printed into the source, so -0.0 and subnormals keep their
        bits.  ``_integrand(sigma)`` is the quadrature integrand
        u -> f(sigma u) phi(u).
        """
        names = {
            "inf": math.inf,
            "cos": math.cos,
            "sin": math.sin,
            "exp": math.exp,
            "np_exp": np.exp,
            "_SQRT_2PI": _SQRT_2PI,
        }
        steps = []
        if self.power != 0.0:
            names["p"] = self.power
            steps.append("abs(x) ** p" if self.power > 0.0 else "(abs(x) ** p if x else inf)")
        if self.sign_pow:
            steps.append("((x > 0.0) - (x < 0.0))")
        for prefix, fn, args in (("c", "cos", self.cos_args), ("s", "sin", self.sin_args)):
            for i, c in enumerate(args):
                names[f"{prefix}{i}"] = c
                steps.append(f"{fn}({prefix}{i} * x)")
        for i, c in enumerate(self.gauss_args):
            names[f"g{i}"] = -c  # val's -c * x * x is (-c * x) * x
            steps.append(f"float(np_exp(g{i} * x * x))")
        if self.poly2:
            names.update((f"a{k}", a) for k, a in enumerate(self.poly2))
            acc = f"(a{len(self.poly2) - 1} + xx * 0.0)"
            for k in range(len(self.poly2) - 2, -1, -1):
                acc = f"(a{k} + {acc} * xx)"
            steps.append(acc)
        if self.power == 0.0 and (self.sign_pow or not steps):
            steps.insert(0, "1.0")
        product = " * ".join(steps)
        xx = "xx = x * x; " if self.poly2 else ""
        source = (
            "def _val_scalar(x):\n"
            f"    {xx}return {product}\n"
            "def _integrand(sigma):\n"
            "    def integrand(u):\n"
            f"        x = sigma * u; {xx}return {product} * (exp(-0.5 * u * u) / _SQRT_2PI)\n"
            "    return integrand\n"
        )
        return source, names

    @functools.cached_property
    def _steps(self) -> dict:
        """The step compiler: ``_step_source`` run once per factor, kept on the instance.

        The dataclass's == and hash read the fields only, so the cache does
        not change how factors key a dict.
        """
        source, names = self._step_source()
        exec(compile(source, f"<Factor1D steps {self!r}>", "exec"), names)
        return names

    def _val_scalar(self, x: float) -> float:
        """:meth:`val` on a Python float, bit for bit (see :meth:`_step_source`)."""
        return self._steps["_val_scalar"](x)

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
        # QUADPACK's QAGIE is called straight from scipy's _quadpack
        # extension (_qagie): importing the scipy.integrate package around it
        # costs about 45 MB and 0.5 s.  The arguments are the ones
        # quad(integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-11, limit=400,
        # full_output=1) passes, so the value and error keep quad's bits.
        #
        # integrand is even here, so integrate the positive half axis twice;
        # splitting at 0 keeps the |x|^p cusp off the panel interior.  The
        # integrand has val's bits; an unmet tolerance carries QUADPACK's
        # note for its exit code.  A c sigma u that overflows makes
        # math.cos/math.sin raise on inf: that quadrature fails too.
        integrand = self._steps["_integrand"](sigma)
        try:
            val, err, _, ier = _qagie()(integrand, 0.0, 1, (), 1, 1e-13, 1e-11, 400)
        except ValueError as exc:
            raise QuadratureError(
                f"gaussian moment quadrature failed for factor {self} at sigma={sigma}: "
                f"the integrand raised ({exc})",
                achieved=math.inf,
            ) from None
        val, err = 2.0 * val, 2.0 * err
        if err > 1e-8 * (1.0 + abs(val)):
            note = f" ({_QUADPACK_NOTES[ier]})" if ier in _QUADPACK_NOTES else ""
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
        # one quadrature per distinct sigma (a volatility clamped at its
        # floor repeats one)
        distinct, inverse = np.unique(sigmas, return_inverse=True)
        values = np.array([self._moment_quad(float(s)) for s in distinct])
        return values[inverse].reshape(sigmas.shape)


_F_ONE = Factor1D()


def _pow_factor(p: float) -> Factor1D:
    return Factor1D(power=float(p))


# ---------------------------------------------------------------------------
# Smooth factor expression trees
# ---------------------------------------------------------------------------


class LExpr:
    """Base class for the smooth-factor expression tree.

    Nodes parse and print (:meth:`to_text`), count their separable terms
    (:meth:`n_terms`) and expand into them (:meth:`sep_terms`).  Every
    structural question (which coordinates L touches, evenness,
    boundedness, Taylor coefficients at 0) and every derivative is
    answered on the kernel's one expansion, not on the tree.
    """

    def sep_terms(self) -> tuple:
        """Expansion into ((coeff, {coord: Factor1D}), ...). Exact."""
        raise NotImplementedError

    def n_terms(self) -> int:
        """len(self.sep_terms()), counted without expanding: one for an atom."""
        return 1

    def to_text(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class One(LExpr):
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
        if not (0.0 < self.beta < math.inf and math.isfinite(2.0 * math.pi / self.beta)):
            raise KernelError(
                f"grid_sin requires a finite beta > 0 and frequency 2*pi/beta, got {self.beta}"
            )
        if self.i == self.j:
            raise KernelError("grid_sin coordinates must differ")

    def sep_terms(self):
        # sin^2(pi(a-b)/beta) = 1/2 - 1/2 cos(2pi a/b)cos(2pi b/b)
        #                           - 1/2 sin(2pi a/b)sin(2pi b/b)
        c = 2.0 * math.pi / self.beta
        return (
            (0.5, {}),
            (-0.5, {self.i: Factor1D(cos_args=(c,)), self.j: Factor1D(cos_args=(c,))}),
            (-0.5, {self.i: Factor1D(sin_args=(c,)), self.j: Factor1D(sin_args=(c,))}),
        )

    def n_terms(self):
        return 3

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

    def sep_terms(self):
        out = []
        for t in self.terms:
            out.extend(t.sep_terms())
        return tuple(out)

    def n_terms(self):
        return sum(t.n_terms() for t in self.terms)

    def to_text(self):
        return "(sum %s)" % " ".join(t.to_text() for t in self.terms)


@dataclass(frozen=True)
class Product(LExpr):
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise KernelError("empty product")

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

    def n_terms(self):
        return math.prod(t.n_terms() for t in self.factors)

    def to_text(self):
        return "(product %s)" % " ".join(t.to_text() for t in self.factors)


# The most separable terms an L may expand into; past it the kernel is refused
# before it is expanded.
_MAX_TERMS = 10_000


# ---------------------------------------------------------------------------
# Kernel specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelSpec:
    """Shape of a statistic kernel: block split (d, l), powers, smooth factor.

    The first block of l coordinates carries powers ``p``; the remaining
    d - l coordinates carry powers ``q``.  Whether the first block is the jump
    block (V-statistics) or the scaled continuous block (Y-statistics) is decided
    by the regime tag (:data:`JUMP_REGIMES`), as is a stable CLT (:data:`CLT_REGIMES`);
    the admissibility checker knows the hypotheses of each regime.
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
        count = self.L.n_terms()
        if count > _MAX_TERMS:
            raise KernelError(f"L expands into {count} separable terms, past the budget of {_MAX_TERMS}")
        bad = sorted({c for _, fdict in self._expansion for c in fdict} - set(range(self.d)))
        if bad:
            raise KernelError(f"L references coordinates {bad} outside 0..{self.d - 1}")

    @property
    def powers(self) -> tuple:
        return self.p + self.q

    def text(self) -> str:
        return kernel_to_text(self)

    @functools.cached_property
    def _expansion(self) -> tuple:
        """``L.sep_terms()``, the one expansion of L, built on construction."""
        return self.L.sep_terms()

    @functools.cached_property
    def _compiled(self) -> "_CompiledKernel":
        """The separable expansion in the shapes its readers use, built on first use."""
        return _CompiledKernel(self)

    @functools.cached_property
    def _admissibility(self) -> "AdmissibilityReport":
        """:func:`check_admissibility` of this kernel, run once, on first use."""
        return check_admissibility(self)


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
    for coeff, fdict in kernel._expansion:
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
      ``products[a][b - a]``, the product of their factors;
    * ``grids``: per grid key (n, t, count), what the ground truth of
      every path on that grid shares, filled by :class:`uvstat.limits.Context`
      on first use: the left-Riemann weights and, per constant sigma, the
      Gaussian moment vectors, their integrals and the field (w, P).  Each
      is a function of the kernel, the grid and sigma alone.

    The derivatives and the products are built on first use.
    """

    def __init__(self, kernel: KernelSpec):
        l, d = kernel.l, kernel.d
        self.terms = tuple((coeff, tuple(factors)) for coeff, factors in separable_terms(kernel))
        self.vbar_slots = ("deriv",) * l + (0.0,) * (d - l)
        self.vtilde_slots = ("moment",) * l + ("deriv",) * (d - l)
        self.pairs = tuple((m, i) for m in range(len(self.terms)) for i in range(l))
        self.grids: dict = {}

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


# A sum of Taylor coefficients is zero when it is within this share of the
# sum of its contributions' magnitudes: room for rounding, nothing more.
_VANISH_RTOL = 1e-12


def _taylor(f: Factor1D, kmax: int) -> list:
    """[(f^(k)(0) / k!, the sum of its contributions' magnitudes)] for k <= kmax.

    Exact for L's factors: their power is an integer of sign_pow's parity,
    so every derivative is a polynomial times cos/sin/exp, whose val(0.0)
    has no cusp to meet.
    """
    terms, out = {f: (1.0, 1.0)}, []
    for k in range(kmax + 1):
        at0 = [(c, a, g.val(0.0)) for g, (c, a) in terms.items()]
        kf = math.factorial(k)
        out.append((sum(c * v for c, _, v in at0) / kf, sum(a * abs(v) for _, a, v in at0) / kf))
        nxt = {}
        for g, (c, a) in terms.items():
            for dc, dg in g.derivative():
                c0, a0 = nxt.get(dg, (0.0, 0.0))
                nxt[dg] = (c0 + c * dc, a0 + a * abs(dc))
        terms = nxt
    return out


def _canonical(f: Factor1D):
    """(scale, f) with a constant polynomial and exp(-0 x^2) folded into the scale."""
    poly = f.poly2
    while len(poly) > 1 and poly[-1] == 0.0:
        poly = poly[:-1]
    scale, poly = (poly[0], ()) if len(poly) == 1 else (1.0, poly)
    return scale, replace(f, poly2=poly, gauss_args=tuple(c for c in f.gauss_args if c))


def _exponents(degrees: list, max_degree: int):
    """The alpha with each alpha_i in degrees[i] and |alpha| <= max_degree.

    They come by degree, then in increasing order; ``degrees[i]`` is increasing.
    A coordinate takes a degree only where the rest can still make up the
    total, so the walk visits no dead branch.
    """
    reach = [{0}]  # reach[j]: the totals the last j coordinates can make
    for options in reversed(degrees):
        reach.append({a + s for a in options for s in reach[-1] if a + s <= max_degree})

    def walk(i, rest):
        if i == len(degrees):
            yield ()
            return
        for a in degrees[i]:
            if rest - a in reach[len(degrees) - i - 1]:
                for tail in walk(i + 1, rest - a):
                    yield (a, *tail)

    for degree in sorted(reach[-1]):
        yield from walk(0, degree)


def _first_nonvanishing(kernel: KernelSpec, block, others, max_degree: int, keep=lambda alpha: True):
    """The lowest alpha (by degree, then order) that ``keep`` admits whose x^alpha coefficient in L is not 0.

    x ranges over the coordinates in ``block``, |alpha| <= max_degree, and None
    means every coefficient vanishes.  In a term c * prod f_i the coefficient is
    c * prod_i f_i^(alpha_i)(0) / alpha_i! times the term's factors on ``others``;
    it is zero when the sum over the terms with the same such factors is, for each
    of them (to :data:`_VANISH_RTOL`).  Distinct factor tuples can still be linearly
    dependent (cos^2 + sin^2 = 1), so the read errs only toward "not zero".

    alpha_i walks only the degrees where some term's Taylor entry in x_i is not
    exactly 0: any other alpha has a coefficient of exactly 0.  That holds while
    no product of a term's entries can be non-finite, for 0 x inf reads as "not
    zero"; a term whose entries could reach one makes every degree present.
    """
    terms = []
    for coeff, fdict in kernel._expansion:
        value, key = coeff, []
        for j in others:
            s, f = _canonical(fdict.get(j, _F_ONE))
            value *= s
            key.append(f)
        terms.append((value, tuple(key), [_taylor(fdict.get(i, _F_ONE), max_degree) for i in block]))
    every = range(max_degree + 1)
    degrees = [
        [k for k in every if any(taylors[i][k] != (0.0, 0.0) for _, _, taylors in terms)]
        for i in range(len(block))
    ]
    for value, _, taylors in terms:
        # bounds every partial product the walk below forms; a NaN or inf stays
        bound = abs(value)
        for series in taylors:
            bound *= 1.0 + sum(abs(x) for entry in series for x in entry)
        if not bound < math.inf:
            degrees = [every] * len(block)
            break
    for alpha in filter(keep, _exponents(degrees, max_degree)):
        groups = {}
        for value, key, taylors in terms:
            v, a = value, abs(value)
            for series, k in zip(taylors, alpha):
                v, a = v * series[k][0], a * series[k][1]
            group = groups.setdefault(key, [0.0, 0.0])
            group[0] += v
            group[1] += a
        if any(not abs(v) <= _VANISH_RTOL * a < math.inf for v, a in groups.values()):
            return alpha
    return None


def _check_alln(kernel: KernelSpec) -> AdmissibilityItem:
    """H(x, y) / prod |x_i|^2 -> 0 as x -> 0, read off L's Taylor expansion in x.

    Along x = eps x0 the x^alpha part of L contributes eps^(sum p - 2l + |alpha|)
    to the ratio, so the ratio vanishes iff every coefficient of degree
    |alpha| <= 2l - sum p vanishes in y.
    """
    d, l = kernel.d, kernel.l
    if l == 0:
        return AdmissibilityItem("lln_small_x_condition", True, "no jump block (l=0)")
    margin = 2 * l - math.fsum(kernel.p)
    bad = _first_nonvanishing(kernel, range(l), range(l, d), math.floor(margin))
    detail = f"x^alpha coefficients of L with |alpha| <= 2l - sum(p) = {margin:g}: "
    detail += "all vanish" if bad is None else f"x^{bad} does not vanish"
    return AdmissibilityItem("lln_small_x_condition", bad is None, detail)


def _check_kernel_class(kernel: KernelSpec) -> AdmissibilityItem:
    """d_k(|y|^q L) -> 0 as y -> 0 for every k >= l, read off L's Taylor expansion in y.

    d_k(|y|^q y^alpha) = (q_k + alpha_k) |y|^q y^alpha / y_k is of order
    eps^(sum q + |alpha| - 1) along y = eps y0.  So the item fails iff some
    alpha with |alpha| <= 1 - sum q has a coefficient that does not vanish
    in x and q_k + alpha_k != 0 for some k >= l.
    """
    d, l = kernel.d, kernel.l
    if l == d:
        return AdmissibilityItem(
            "smooth_class_membership", True, "l = d: any C^{d+1} smooth factor qualifies"
        )
    margin = 1.0 - math.fsum(kernel.q)
    survives = lambda alpha: any(q + k != 0.0 for q, k in zip(kernel.q, alpha))
    bad = _first_nonvanishing(kernel, range(l, d), range(l), math.floor(margin), survives)
    detail = f"y^alpha coefficients of L with |alpha| <= 1 - sum(q) = {margin:g}: "
    detail += "none survives" if bad is None else f"y^{bad} does not vanish, nor does its d_k(|y|^q y^alpha)"
    return AdmissibilityItem("smooth_class_membership", bad is None, detail)


def _scaled_block_item(kernel: KernelSpec, name: str, fails, ok: str, failed: str) -> AdmissibilityItem:
    """Whether no factor of L on a scaled-block coordinate ``fails``; ``failed`` lists those that do."""
    bad = sorted({c for _, fdict in kernel._expansion for c, f in fdict.items() if c < kernel.l and fails(f)})
    return AdmissibilityItem(name, not bad, f"{failed} {bad}" if bad else ok)


def _check_bounded_in_first_block(kernel: KernelSpec) -> AdmissibilityItem:
    """Whether L and its derivatives are bounded in the scaled block.

    Read off the separable terms: a factor sum_k poly2[k] x^{2k} times
    cos/sin/exp(-c x^2) is bounded, and so are its derivatives (which keep
    that form), when its polynomial has degree 0 (the last nonzero
    poly2[k] is k = 0, so a zero polynomial qualifies) or its Gaussian
    exponents sum to more than 0.
    """
    unbounded = lambda f: any(a != 0.0 for a in f.poly2[1:]) and not sum(f.gauss_args) > 0.0
    return _scaled_block_item(
        kernel, "smooth_factor_bounded", unbounded,
        "smooth factor bounded in the scaled block", "smooth factor unbounded in scaled coordinates",
    )


def _check_even(kernel: KernelSpec) -> AdmissibilityItem:
    return _scaled_block_item(
        kernel, "even_in_scaled_block", Factor1D._moment_parity_odd,
        "kernel even in every scaled-block coordinate", "smooth factor not even in scaled coordinates",
    )


def _power_item(name, values, ok_fn, requirement) -> AdmissibilityItem:
    bad = [v for v in values if not ok_fn(v)]
    ok = not bad
    detail = f"{name} = {list(values)}; requires {requirement}"
    return AdmissibilityItem(f"powers_{name}", ok, detail)


def check_admissibility(kernel: KernelSpec) -> AdmissibilityReport:
    """Check the declared regime's hypotheses, item by item.

    Every item is structural: the powers are compared with the regime's
    bounds, and the rest is read off the kernel's one separable expansion
    ``kernel._expansion`` (evenness and boundedness in the scaled
    block, the grid test's grid_sin factor, and the Taylor coefficients
    of L at 0 that decide the small-x and smooth-class items).  The one
    tolerance is :data:`_VANISH_RTOL`, the rounding allowed when a sum of
    Taylor coefficients is taken for zero; a read can err only toward
    FAIL.  Report-only: construction of out-of-regime kernels is allowed,
    the harness refuses to run plans whose kernel fails here.
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
            has_gridsin = any(f.sin_args for _, fdict in kernel._expansion for f in fdict.values())
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
    except RecursionError:
        raise KernelError("L expression nests too deeply to parse") from None


_GRID_POWER = 4.0


def grid_test_kernel(beta: float) -> KernelSpec:
    """The lattice test kernel |x|^4 |y|^4 sin^2(pi (x - y) / beta)."""
    return KernelSpec(
        d=2, l=2, p=(_GRID_POWER, _GRID_POWER), q=(), L=GridSin(beta, 0, 1), regime="GridTest"
    )
