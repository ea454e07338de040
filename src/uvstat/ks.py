"""Asymptotic Kolmogorov-Smirnov tests without scipy.stats.

``kstest_norm_asymp(z)`` returns, bit for bit, the statistic and p-value
of scipy's ``kstest(z, "norm", method="asymp")``, and
``ks_2samp_asymp(a, b)`` those of ``ks_2samp(a, b, method="asymp")``,
for 1-D float64 samples.  Loading ``scipy.stats`` for these two numbers
would cost about 45 MB of resident memory and most of a second of cold
start, and ``scipy.special`` about 18 MB more, so the CLT and RNP checks
compute them here.

The one-sample test needs the normal cdf ``ndtr`` and the limiting
Kolmogorov tail ``kolmogorov(D sqrt(N))``.  Both are scalar ports, on
``math`` alone, of scipy 1.17.1's ``xsf/cephes/ndtr.h`` (``ndtr`` with
its ``erf``, ``erfc`` and ``polevl``) and
``xsf/cephes/kolmogorov.h`` (the two unrolled series with the 0.82
cutover).  They use libm through ``math.exp`` and ``math.pow``, as the
compiled ufuncs do, never numpy's vectorized ``exp``, which may round
differently; so they return scipy.special's values to the last bit.  The
cephes routines are from the Cephes Math Library, Copyright 1984, 1987,
1988, 1992, 2000 by Stephen L. Moshier, distributed with scipy under the
BSD license below.

The two-sample p-value is ``kstwo.sf(d, round(en))``, the finite-n
two-sided distribution that has no ``scipy.special`` ufunc.  It is
computed by a port of the survival route of ``_kolmogn`` (Simard &
L'Ecuyer 2011, J. Stat. Softw. 39(11)) and the routines it calls from
scipy 1.17.1, ``scipy/stats/_ksstats.py``: Ruben-Gambino, ``smirnov``,
the Durbin matrix (Marsaglia-Tsang-Wang), Pomeranz and Pelz-Good.  The
port keeps scipy's arithmetic, including the longdouble rescaling, and
casts to float64 where scipy does, so the p-values match to the last
bit.  Only the ``smirnov`` routes call ``scipy.special``, which is
imported there.  All these values follow scipy 1.17.1, not later
releases.

The ported code carries scipy's license:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["kstest_norm_asymp", "ks_2samp_asymp"]


def kstest_norm_asymp(z) -> tuple:
    """(D, p) of the two-sided KS test of the sample z against N(0, 1)."""
    x = np.sort(np.asarray(z, dtype=float))
    n = len(x)
    cdfvals = np.array([_ndtr(v) for v in x.tolist()])
    d_plus = (np.arange(1.0, n + 1) / n - cdfvals).max()
    d_minus = (cdfvals - np.arange(0.0, n) / n).max()
    d = d_plus if d_plus > d_minus else d_minus
    return float(d), _kolmogorov(float(d) * math.sqrt(n))


def ks_2samp_asymp(a, b) -> tuple:
    """(d, p) of the two-sided two-sample KS test, p from the finite-n law of D."""
    a = np.sort(a)
    b = np.sort(b)
    both = np.concatenate([a, b])
    # searchsorted on the right makes ties count once on each side
    cddiffs = np.searchsorted(a, both, side="right") / len(a) - np.searchsorted(
        b, both, side="right"
    ) / len(b)
    min_s = np.clip(-cddiffs.min(), 0, 1)
    max_s = cddiffs.max()
    d = min_s if min_s > max_s else max_s
    # the sizes as floats, larger first, as scipy forms en
    m, n = sorted([float(len(a)), float(len(b))], reverse=True)
    en = m * n / (m + n)
    return float(d), float(np.clip(_kstwo_sf(float(d), round(en)), 0, 1))


# ---------------------------------------------------------------------------
# ndtr and kolmogorov: scalar ports of scipy.special's cephes routines
# ---------------------------------------------------------------------------

_SQRTH = 7.07106781186547524401E-1  # sqrt(1/2)
_MAXLOG = 7.09782712893383996843E2  # log(DBL_MAX)

# erfc(x) = exp(-x^2) P(x)/Q(x) for 1 <= x < 8, R(x)/S(x) for x >= 8, and
# erf(x) = x T(x^2)/U(x^2) for |x| <= 1; Q, S and U lead with the 1 that cephes'
# p1evl leaves implicit, which changes no bit as 1 * x == x
_NDTR_P = (
    2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
    4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
    9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2,
)
_NDTR_Q = (
    1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
    9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
    1.65666309194161350182E3, 5.57535340817727675546E2,
)
_NDTR_R = (
    5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
    6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0,
)
_NDTR_S = (
    1.0, 2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
    1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0,
)
_NDTR_T = (
    9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
    7.00332514112805075473E3, 5.55923013010394962768E4,
)
_NDTR_U = (
    1.0, 3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
    2.26290000613890934246E4, 4.92673942608635921086E4,
)


def _polevl(x: float, coef) -> float:
    """coef[0] x^N + ... + coef[N] by Horner's rule."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


# erf and erfc are restricted to the arguments ndtr passes them, which drops
# cephes' branches for negative and out-of-range ones
def _erf(x: float) -> float:
    """erf(x) for |x| < 1."""
    z = x * x
    return x * _polevl(z, _NDTR_T) / _polevl(z, _NDTR_U)


def _erfc(a: float) -> float:
    """erfc(a) for a >= sqrt(1/2)."""
    if a < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z < -_MAXLOG:  # exp(z) underflows
        return 0.0
    p, q = (_NDTR_P, _NDTR_Q) if a < 8.0 else (_NDTR_R, _NDTR_S)
    return math.exp(z) * _polevl(a, p) / _polevl(a, q)


def _ndtr(a: float) -> float:
    """The standard normal cdf at a, as scipy.special.ndtr."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRTH
    z = abs(x)
    if z < _SQRTH:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


_KOLMOG_CUTOVER = 0.82
# below this x, exp(-pi^2/(8x^2)) is under exp(-746) and the tail is 1
_KOLMOG_ONE = math.pi / math.sqrt(746 * 8)
_SQRT_2PI = math.sqrt(2 * math.pi)


def _kolmogorov(x: float) -> float:
    """Pr(K > x) for the Kolmogorov limit law, as scipy.special.kolmogorov."""
    if math.isnan(x):
        return math.nan
    if x <= _KOLMOG_ONE:
        return 1.0
    if x <= _KOLMOG_CUTOVER:
        # 1 - (sqrt(2pi)/x) u (1 + u^8 + u^24 + u^48), u = exp(-pi^2/(8x^2))
        w = _SQRT_2PI / x
        logu8 = -math.pi * math.pi / (x * x)
        u = math.exp(logu8 / 8)
        if u == 0:  # w u, by logs
            cdf = math.exp(logu8 / 8 + math.log(w))
        else:
            u8 = math.exp(logu8)
            cdf = w * u * (1 + u8 * (1 + u8 * u8 * (1 + math.pow(u8, 3))))
        # both series stay in [0, 1] on their ranges, so scipy's clip to [0, 1] never binds
        return 1 - cdf
    # 2 v (1 - v^3 (1 - v^5 (1 - v^7))), v = exp(-2x^2)
    v = math.exp(-2 * x * x)
    v3 = math.pow(v, 3)
    return 2 * v * (1 - v3 * (1 - v3 * (v * v) * (1 - v3 * v3 * v)))


# ---------------------------------------------------------------------------
# kstwo.sf: the survival route of scipy's _kolmogn
# ---------------------------------------------------------------------------

_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi**2
_PI_FOUR = np.pi**4
_PI_SIX = np.pi**6

# B_{2j}/(2j)/(2j-1) for the Bernoulli numbers B_m, j = 8, ..., 1
_STIRLING_COEFFS = [
    -2.955065359477124183e-2, 6.4102564102564102564e-3,
    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
    -5.952380952380952381e-4, 7.9365079365079365079e-4,
    -2.7777777777777777778e-3, 8.3333333333333333333e-2,
]


def _kstwo_sf(d: float, n: int) -> float:
    """Pr(D_n >= d), as scipy's kstwo.sf(d, n) returns it."""
    # rv_continuous.sf: 1 at or below the support's lower end 0.5/n, 0 at or above 1
    if d <= 0.5 / n:
        return 1.0
    if d >= 1.0:
        return 0.0
    # the 0-d float64 array that kolmogn's nditer hands over; its float64
    # output operand is where a longdouble result is rounded
    return float(np.float64(_kolmogn_sf(n, np.array(d, dtype=np.float64))))


def _clip_prob(p):
    return np.clip(p, 0.0, 1.0)


def _kolmogn_sf(n: int, x):
    """Pr(D_n >= x) for 0.5/n < x < 1 (Simard & L'Ecuyer 2011)."""
    t = n * x
    if t <= 1.0:  # Ruben-Gambino: 1/2n <= x <= 1/n
        if t <= 0.5:
            return 1.0
        if n <= 140:
            prob = np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1))
        else:
            prob = np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2 * t - 1))
        return _clip_prob(1.0 - prob)
    if t >= n - 1:  # Ruben-Gambino
        return _clip_prob(2 * (1.0 - x) ** n)
    if x >= 0.5:  # exact: 2 * smirnov
        return _twice_smirnov(n, x)

    nxsquared = t * x
    if n <= 140:
        if nxsquared <= 0.754693:
            prob = _kolmogn_DMTW(n, x)
            return _clip_prob(1.0 - prob)
        if nxsquared <= 4:
            prob = _kolmogn_Pomeranz(n, x)
            return _clip_prob(1.0 - prob)
        # Miller approximation of 2 * smirnov
        return _twice_smirnov(n, x)

    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        return _twice_smirnov(n, x)
    if n <= 100000 and n * x**1.5 <= 1.4:
        cdfprob = _kolmogn_DMTW(n, x)
    else:
        cdfprob = _kolmogn_PelzGood(n, x)
    return _clip_prob(1.0 - cdfprob)


def _twice_smirnov(n, x):
    # the one scipy.special call of the KS tests, imported only where a route needs it
    from scipy.special import smirnov

    return _clip_prob(2 * smirnov(n, x))


def _log_nfactorial_div_n_pow_n(n):
    # log(n!/n^n) by Stirling, with n log(n) removed up front against cancellation
    rn = 1.0 / n
    return np.log(n) / 2 - n + _LOG_2PI / 2 + rn * np.polyval(_STIRLING_COEFFS, rn / n)


def _kolmogn_DMTW(n, d):
    """Pr(D_n <= d) by the Durbin matrix algorithm as Marsaglia, Tsang & Wang compute it."""
    # d = (k-h)/n with integer k > 0 and 0 <= h < 1; the k-th row of
    # (n!/n^n) H^n for the m x m matrix H, m = 2k-1, rescaling as it goes
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1

    H = np.zeros([m, m])

    # v is the first column (and reversed last row) of H, w[j] = 1/j!
    intm = np.arange(1, m + 1)
    v = 1.0 - h**intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # may underflow, harmlessly
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0) ** m - 2 * h**m
    v[-1] = (1.0 + tt) * fac

    for i in range(1, m):
        H[i - 1:, i] = w[: m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(np.shape(H)[0])
    nn = n
    expnt = 0  # scaling of Hpwr
    Hexpnt = 0  # scaling of H
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2

    p = Hpwr[k - 1, k - 1]

    # multiply by n!/n^n; a rescale turns p into a longdouble, as in scipy
    for i in range(1, n + 1):
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128

    if expnt != 0:
        p = np.ldexp(p, expnt)

    return _clip_prob(p)


def _pomeranz_compute_j1j2(i, n, ll, ceilf, roundf):
    """The endpoints of the interval for row i."""
    if i == 0:
        j1, j2 = -ll - ceilf - 1, ll + ceilf - 1
    else:
        # i + 1 = 2*ip1div2 + ip1mod2
        ip1div2, ip1mod2 = divmod(i + 1, 2)
        if ip1mod2 == 0:  # i is odd
            if ip1div2 == n + 1:
                j1, j2 = n - ll - ceilf - 1, n + ll + ceilf - 1
            else:
                j1, j2 = ip1div2 - 1 - ll - roundf - 1, ip1div2 + ll - 1 + ceilf - 1
        else:
            j1, j2 = ip1div2 - 1 - ll - 1, ip1div2 + ll + roundf - 1

    return max(j1 + 2, 0), min(j2, n)


def _kolmogn_Pomeranz(n, x):
    """Pr(D_n <= x) by the Pomeranz (1974) recursion."""
    # Row i of the n x (2n+2) matrix V convolves row i-1 with one of three
    # near-Poisson weight sequences; the answer is n! V[n-1, 2n+1].  Two rows
    # are kept, each as a short window starting at V0s/V1s, rescaled as needed.
    t = n * x
    ll = int(np.floor(t))
    f = 1.0 * (t - ll)  # fractional part of t
    g = min(f, 1.0 - f)
    ceilf = 1 if f > 0 else 0
    roundf = 1 if f > 0.5 else 0
    npwrs = 2 * (ll + 1)  # most powers a convolution needs
    gpower = np.empty(npwrs)  # (g/n)^m/m!
    twogpower = np.empty(npwrs)  # (2g/n)^m/m!
    onem2gpower = np.empty(npwrs)  # ((1-2g)/n)^m/m!

    gpower[0] = 1.0
    twogpower[0] = 1.0
    onem2gpower[0] = 1.0
    expnt = 0
    g_over_n, two_g_over_n, one_minus_two_g_over_n = g / n, 2 * g / n, (1 - 2 * g) / n
    for m in range(1, npwrs):
        gpower[m] = gpower[m - 1] * g_over_n / m
        twogpower[m] = twogpower[m - 1] * two_g_over_n / m
        onem2gpower[m] = onem2gpower[m - 1] * one_minus_two_g_over_n / m

    V0 = np.zeros([npwrs])
    V1 = np.zeros([npwrs])
    V1[0] = 1  # first row
    V0s, V1s = 0, 0  # start indices of the two rows

    j1, j2 = _pomeranz_compute_j1j2(0, n, ll, ceilf, roundf)
    for i in range(1, 2 * n + 2):
        # keep j1, V1, V1s, V0s of the last iteration
        k1 = j1
        V0, V1 = V1, V0
        V0s, V1s = V1s, V0s
        V1.fill(0.0)
        j1, j2 = _pomeranz_compute_j1j2(i, n, ll, ceilf, roundf)
        if i == 1 or i == 2 * n + 1:
            pwrs = gpower
        else:
            pwrs = twogpower if i % 2 else onem2gpower
        ln2 = j2 - k1 + 1
        if ln2 > 0:
            conv = np.convolve(V0[k1 - V0s:k1 - V0s + ln2], pwrs[:ln2])
            conv_start = j1 - k1  # first entry of conv to use
            conv_len = j2 - j1 + 1  # entries of conv to use
            V1[:conv_len] = conv[conv_start:conv_start + conv_len]
            # rescale against underflow
            if 0 < np.max(V1) < _EM128:
                V1 *= _EP128
                expnt -= _E128
            V1s = V0s + j1 - k1

    # multiply by n!; a rescale turns ans into a longdouble, as in scipy
    ans = V1[n - V1s]
    for m in range(1, n + 1):
        if np.abs(ans) > _EP128:
            ans *= _EM128
            expnt += _E128
        ans *= m

    if expnt != 0:
        ans = np.ldexp(ans, expnt)
    return _clip_prob(ans)


def _kolmogn_PelzGood(n, x):
    """The Pelz-Good (1976) approximation to Pr(D_n <= x), 0 < x < 1."""
    # The Li-Chien/Korolyuk expansion K0(z) + K1(z)/sqrt(n) + K2(z)/n +
    # K3(z)/n^1.5 at z = x sqrt(n), each K transformed by Jacobi theta
    # functions into a form suited to small z.
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z ~ 0.041743441416853426
        return 0.0

    q = np.exp(qlog)

    # coefficients of the terms of the sums for K1, K2 and K3
    k1a = -zsquared
    k1b = _PI_SQUARED / 4

    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16

    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    K0to3 = np.zeros(4)
    # Horner scheme for sum c_i q^(i^2), a sum over odd integers
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([
            1.0,
            k1a + k1b * msquared,
            k2a + k2b * msquared + k2c * mfour,
            k3a + k3b * msquared + k3c * mfour + k3d * msix,
        ])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    # z**10 > 0 as z > 0.04
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # the sums over all integers k, computed directly:
    # K_2: (pi^2 k^2) q^(k^2), K_3: (3pi^2 k^2 z^2 - pi^4 k^4) q^(k^2)
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks**2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q**ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI / (-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI / (216 * zsix)
    K0to3[3] += k3extra
    powers_of_n = np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    K0to3 /= powers_of_n

    return sum(K0to3)
