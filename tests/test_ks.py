"""uvstat.ks against scipy.stats and scipy.special, bit for bit.

The harness computes its KS statistics and p-values with uvstat.ks so
that scipy.stats, and scipy.special off the smirnov routes, are never
loaded; scipy stays the oracle here.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.special import kolmogorov, ndtr
from scipy.stats import ks_2samp, kstest, kstwo

from uvstat.ks import _kolmogorov, _kstwo_sf, _ndtr, ks_2samp_asymp, kstest_norm_asymp

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


def ndtr_branch(a: float) -> str:
    """Which route of cephes' ndtr computes the normal cdf at a."""
    if math.isnan(a):
        return "nan"
    z = abs(a) * math.sqrt(0.5)
    if z < math.sqrt(0.5):
        return "erf"
    if z < 1.0:
        return "1 - erf"
    if z * z > math.log(sys.float_info.max):
        return "erfc underflow"
    return "erfc P/Q" if z < 8.0 else "erfc R/S"


def neighbours(x: float) -> list:
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


def ndtr_grid():
    edges = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324]
    for x in (1.0, math.sqrt(2), 8 * math.sqrt(2), math.sqrt(2 * math.log(sys.float_info.max))):
        edges += neighbours(x) + neighbours(-x)
    grid = np.random.default_rng(20261).uniform(-40.0, 40.0, 200_000)
    return [*edges, *grid.tolist()]


def test_ndtr_grid_reaches_every_branch():
    branches = {ndtr_branch(a) for a in ndtr_grid()}
    assert branches == {"nan", "erf", "1 - erf", "erfc P/Q", "erfc R/S", "erfc underflow"}
    assert {ndtr_branch(a) for a in ndtr_grid() if a < 0} == branches - {"nan"}


def test_ndtr_matches_scipy_bit_for_bit():
    grid = ndtr_grid()
    want = ndtr(np.array(grid))
    mismatched = [a for a, w in zip(grid, want.tolist()) if _ndtr(a).hex() != w.hex()]
    assert mismatched == []


KOLMOG_CUTOVER = 0.82
KOLMOG_ONE = math.pi / math.sqrt(8 * 746)  # exp(-pi^2/(8x^2)) < exp(-746) below it


def kolmogorov_branch(x: float) -> str:
    """Which route of xsf's kolmogorov computes the tail at x."""
    if math.isnan(x):
        return "nan"
    if x <= 0:
        return "x <= 0"
    if x <= KOLMOG_ONE:
        return "tail 1"
    if x <= KOLMOG_CUTOVER:
        return "small x, by logs" if math.exp(-math.pi**2 / x**2 / 8) == 0 else "small x"
    return "large x: 0" if math.exp(-2 * x * x) == 0 else "large x"


def kolmogorov_grid():
    edges = [math.nan, math.inf, -math.inf, -1.0, 0.0, -0.0, 5e-324, 40.0]
    edges += neighbours(KOLMOG_CUTOVER) + neighbours(KOLMOG_ONE)
    rng = np.random.default_rng(20262)
    grid = np.concatenate([
        rng.uniform(0.0, 3.0, 100_000),
        rng.uniform(KOLMOG_ONE, 0.0407, 200),  # exp(-pi^2/(8x^2)) underflows to 0 up to 0.04069
        rng.uniform(3.0, 25.0, 2_000),  # exp(-2x^2) underflows to 0 from 19.31
    ])
    return [*edges, *grid.tolist()]


def test_kolmogorov_grid_reaches_every_branch():
    assert {kolmogorov_branch(x) for x in kolmogorov_grid()} == {
        "nan", "x <= 0", "tail 1", "small x, by logs", "small x", "large x", "large x: 0"
    }


def test_kolmogorov_matches_scipy_bit_for_bit():
    grid = kolmogorov_grid()
    want = kolmogorov(np.array(grid))
    mismatched = [x for x, w in zip(grid, want.tolist()) if _kolmogorov(x).hex() != w.hex()]
    assert mismatched == []


# run in a fresh interpreter: ks_2samp_asymp on each (a, b) given as JSON,
# with whether scipy.special was loaded after each
LAZY_SMIRNOV_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from uvstat.ks import ks_2samp_asymp
out = []
for a, b in json.loads(sys.argv[2]):
    out.append([*ks_2samp_asymp(a, b), "scipy.special" in sys.modules])
print(json.dumps(out))
"""


def test_scipy_special_loads_only_on_a_smirnov_route():
    rng = np.random.default_rng(20263)
    pomeranz = (rng.standard_normal(40), rng.standard_normal(40))
    pelz_good = (rng.standard_normal(300), rng.standard_normal(300) + 0.05)
    smirnov = (rng.standard_normal(30), rng.standard_normal(30) + 2.0)
    dmtw = (rng.standard_normal(100), rng.standard_normal(100))
    pairs = [pomeranz, dmtw, pelz_good, smirnov]
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_SMIRNOV_PROBE, str(src),
         json.dumps([[a.tolist(), b.tolist()] for a, b in pairs])],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    routes, loaded = [], []
    for (a, b), (d, p, special) in zip(pairs, json.loads(proc.stdout)):
        want = ks_2samp(a, b, method="asymp")
        assert hexes(d, p) == hexes(want.statistic, want.pvalue)
        routes.append(sf_branch(d, round(len(a) * len(b) / (len(a) + len(b)))))
        loaded.append(special)
    assert routes == [
        "n <= 140: Pomeranz", "n <= 140: DMTW", "n > 140: Pelz-Good", "x >= 0.5: smirnov"
    ]
    assert loaded == [False, False, False, True]
