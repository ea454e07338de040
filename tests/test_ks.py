"""uvstat.ks against scipy.stats, bit for bit.

The harness computes its KS statistics and p-values with uvstat.ks so
that scipy.stats is never loaded; scipy.stats stays the oracle here.
"""

import math

import numpy as np
from scipy.stats import ks_2samp, kstest, kstwo

from uvstat.ks import _kstwo_sf, ks_2samp_asymp, kstest_norm_asymp

# equal odd sizes put en at k + 1/2, where round-half-even decides n
FIXED_SIZES = [(10, 10), (11, 11), (13, 13), (10, 11), (5, 700), (600, 600), (599, 601), (700, 613)]


def sample_pairs(count=240, seed=20260):
    """Seeded (a, b) pairs: unequal sizes from 5 to 700, shifted and scaled, every third rounded to ties."""
    rng = np.random.default_rng(seed)
    sizes = FIXED_SIZES + [tuple(rng.integers(5, 701, size=2)) for _ in range(count)]
    for i, (m, n) in enumerate(sizes):
        a = rng.standard_normal(m)
        b = rng.standard_normal(n) * rng.uniform(0.5, 2.0) + rng.uniform(-0.5, 0.5)
        if i % 3 == 0:
            a, b = np.round(a, 1), np.round(b, 1)
        yield a, b


def hexes(*values) -> tuple:
    return tuple(float(v).hex() for v in values)


def test_sample_pairs_cover_ties_unequal_sizes_and_non_integer_en():
    pairs = list(sample_pairs())
    ens = [len(a) * len(b) / (len(a) + len(b)) for a, b in pairs]
    assert any(len(a) != len(b) for a, b in pairs)
    assert any(len(np.unique(np.concatenate([a, b]))) < len(a) + len(b) for a, b in pairs)
    assert any(en % 1 == 0.5 for en in ens) and any(0 < en % 1 != 0.5 for en in ens)
    assert max(min(len(a), len(b)) for a, b in pairs) >= 600


def test_ks_tests_match_scipy_bit_for_bit():
    mismatched = []
    for k, (a, b) in enumerate(sample_pairs()):
        want = kstest(a, "norm", method="asymp")
        if hexes(*kstest_norm_asymp(a)) != hexes(want.statistic, want.pvalue):
            mismatched.append(f"pair {k}: kstest")
        want = ks_2samp(a, b, method="asymp")
        if hexes(*ks_2samp_asymp(a, b)) != hexes(want.statistic, want.pvalue):
            mismatched.append(f"pair {k}: ks_2samp ({len(a)}, {len(b)})")
    assert mismatched == []


def sf_branch(d: float, n: int) -> str:
    """Which route of kstwo.sf computes Pr(D_n >= d) (Simard & L'Ecuyer 2011)."""
    if d <= 0.5 / n:
        return "support: 1"
    if d >= 1.0:
        return "support: 0"
    t = n * d
    if t <= 1.0:
        return "Ruben-Gambino low"
    if t >= n - 1:
        return "Ruben-Gambino high"
    if d >= 0.5:
        return "x >= 0.5: smirnov"
    nxsquared = t * d
    if n <= 140:
        if nxsquared <= 0.754693:
            return "n <= 140: DMTW"
        return "n <= 140: Pomeranz" if nxsquared <= 4 else "n <= 140: Miller"
    if nxsquared >= 370.0:
        return "n > 140: 0"
    if nxsquared >= 2.2:
        return "n > 140: smirnov"
    return "n > 140: DMTW" if n <= 100000 and n * d**1.5 <= 1.4 else "n > 140: Pelz-Good"


SF_BRANCHES = {
    "support: 1", "support: 0", "Ruben-Gambino low", "Ruben-Gambino high", "x >= 0.5: smirnov",
    "n <= 140: DMTW", "n <= 140: Pomeranz", "n <= 140: Miller",
    "n > 140: 0", "n > 140: smirnov", "n > 140: DMTW", "n > 140: Pelz-Good",
}
SF_NS = (1, 2, 3, 5, 10, 37, 100, 139, 140, 141, 300, 600, 1000, 2000)


def sf_grid():
    for n in SF_NS:
        ends = [0.5 / n, math.nextafter(0.5 / n, 1.0), 1.0 / n, (n - 1) / n, 0.5, 1.0]
        for d in np.concatenate([np.linspace(0.0, 1.05, 106), np.geomspace(0.3 / n, 0.5, 80), ends]):
            yield float(d), n


def test_sf_grid_reaches_every_branch():
    assert {sf_branch(d, n) for d, n in sf_grid()} == SF_BRANCHES


def test_kstwo_sf_matches_scipy_bit_for_bit():
    mismatched = [
        (d, n) for d, n in sf_grid() if _kstwo_sf(d, n).hex() != float(kstwo.sf(d, n)).hex()
    ]
    assert mismatched == []
