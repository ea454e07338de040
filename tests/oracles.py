"""Test oracles, independent of the kernels' separable factorization.

The package evaluates kernels, statistics and rho_H only through the
separable expansion.  The oracles here evaluate the same quantities
directly, on the :class:`LExpr` tree and over index tuples, so the tests
can compare the two:

* :func:`eval_l`: the smooth factor L at a point, straight from its tree;
* :func:`eval_h`: H at a point, from the powers and :func:`eval_l`;
* :func:`partial_h`: a partial derivative of H, term by term on the
  compiled expansion, so the one oracle here that reads it (a pointwise
  reference for the limits' derivative slots);
* :func:`nested_v_stat`, :func:`nested_y_stat`, :func:`nested_u_stat`:
  brute force over all (for U, all strictly increasing) index tuples,
  with the statistics' normalizations applied here;
* :func:`rho_mc`: a Monte Carlo estimate of rho_H at a fixed sub-seed.

The nested sums accumulate naively in chunks of tuples, where the
package sums each coordinate pairwise; that is what the 1e-12 relative
tolerance of the comparisons accounts for.
"""

import itertools
import math

import numpy as np

from uvstat.kernels import GaussBump, GridSin, KernelError, KernelSpec, One, PolyEven, Product, Sum

NESTED_MAX_COUNT = 10_000
_NESTED_MAX_TUPLES = 1 << 26
_NESTED_CHUNK = 1 << 16


def eval_l(L, pt):
    """Evaluate the smooth factor tree L at a point (or batch, last axis = coordinate)."""
    pt = np.asarray(pt, dtype=float)
    if isinstance(L, One):
        return np.ones(pt.shape[:-1])
    if isinstance(L, GridSin):
        s = np.sin(math.pi * (pt[..., L.i] - pt[..., L.j]) / L.beta)
        return s * s
    if isinstance(L, GaussBump):
        x = pt[..., L.i]
        return np.exp(-L.c * x * x)
    if isinstance(L, PolyEven):
        x = pt[..., L.i]
        return np.polynomial.polynomial.polyval(x * x, L.coeffs)
    if isinstance(L, Sum):
        out = eval_l(L.terms[0], pt)
        for t in L.terms[1:]:
            out = out + eval_l(t, pt)
        return out
    if isinstance(L, Product):
        out = eval_l(L.factors[0], pt)
        for t in L.factors[1:]:
            out = out * eval_l(t, pt)
        return out
    raise TypeError(f"not a smooth-factor node: {L!r}")


def eval_h(kernel: KernelSpec, point) -> float:
    """Evaluate H at a point (or batch of points, last axis = coordinate)."""
    pt = np.asarray(point, dtype=float)
    if pt.shape[-1] != kernel.d:
        raise KernelError(f"point has {pt.shape[-1]} coordinates, kernel has d={kernel.d}")
    out = np.ones(pt.shape[:-1])
    for i, pw in enumerate(kernel.powers):
        if pw != 0.0:
            out = out * np.abs(pt[..., i]) ** pw
    out = out * eval_l(kernel.L, pt)
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


def rho_mc(kernel: KernelSpec, sigmas, y, n_nodes: int = 200_000, seed: int = 0x5EED_0001):
    """Monte Carlo version of :func:`uvstat.kernels.rho` with a fixed sub-seed.

    Returns (estimate, standard_error).
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


def _check_nested_size(d: int, count: int) -> None:
    if d > 3 or count > NESTED_MAX_COUNT or count**d > _NESTED_MAX_TUPLES:
        raise KernelError(
            f"nested evaluation guard exceeded (d={d}, count={count}); "
            "use the factorized statistics with a separable kernel"
        )


def _nested_value(kernel: KernelSpec, coord_data) -> float:
    """Brute force over all index tuples, chunked."""
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


def nested_v_stat(inc, kernel: KernelSpec, n=None) -> float:
    """V(H, X, l)_t^n over the increments ``inc`` of the window; n defaults to len(inc)."""
    inc = np.asarray(inc, dtype=float)
    n = len(inc) if n is None else n
    return _nested_value(kernel, [inc] * kernel.d) * float(n) ** (-(kernel.d - kernel.l))


def nested_y_stat(inc, kernel: KernelSpec, n=None) -> float:
    """Y_t^n(H, X, l): the first l coordinates see sqrt(n)-scaled increments."""
    inc = np.asarray(inc, dtype=float)
    n = len(inc) if n is None else n
    l = kernel.l
    coord_data = [math.sqrt(n) * inc] * l + [inc] * (kernel.d - l)
    return _nested_value(kernel, coord_data) * float(n) ** (-l)


def nested_u_stat(inc, kernel: KernelSpec, n=None) -> float:
    """U(X, H)_t^n over strictly increasing tuples of sqrt(n)-scaled increments."""
    inc = np.asarray(inc, dtype=float)
    n = len(inc) if n is None else n
    d = kernel.d
    count = len(inc)
    if count < d:
        raise KernelError(f"need at least d={d} increments, got {count}")
    z = math.sqrt(n) * inc
    _check_nested_size(d, count)
    total = 0.0
    for combo in itertools.combinations(range(count), d):
        total += eval_h(kernel, z[list(combo)])
    return total / math.comb(count, d)
