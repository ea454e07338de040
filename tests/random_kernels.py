"""A seeded generator of random kernels across every regime.

The admissibility tests run the checker over these kernels: its verdicts
are pinned, and spellings of the same L must get the same verdict.  The
kernels have d <= 3 and smooth factors nested up to depth 3; the powers
sit on and around the regimes' thresholds (p = 2.05 is 0.05 past the
jump LLN's p = 2).  Python's own ``random.Random`` draws them, so the
stream does not depend on numpy.
"""

import random

from uvstat.kernels import (
    ONE,
    REGIMES,
    GaussBump,
    GridSin,
    KernelSpec,
    PolyEven,
    Product,
    Sum,
)

P_VALUES = (0.0, 0.5, 1.0, 1.5, 2.0, 2.05, 3.0, 3.5, 4.0)
Q_VALUES = (0.0, 0.5, 1.0, 2.0, 4.0, 4.5)
BETAS = (0.5, 0.7, 1.0, 1.3)
BUMPS = (0.0, 0.3, 0.8)
POLY_COEFFS = (-1.0, 0.0, 0.5, 1.0)
MAX_DEPTH = 3


def random_l(gen: random.Random, d: int, depth: int = 1):
    """A random smooth factor on coordinates 0..d-1, nested at most MAX_DEPTH deep."""
    kinds = ["one", "gauss_bump", "poly_even"] + ["grid_sin"] * (d >= 2)
    if depth < MAX_DEPTH:
        kinds += ["sum", "product"] * 2
    kind = gen.choice(kinds)
    if kind == "one":
        return ONE
    if kind == "gauss_bump":
        return GaussBump(gen.choice(BUMPS), gen.randrange(d))
    if kind == "poly_even":
        coeffs = tuple(gen.choice(POLY_COEFFS) for _ in range(gen.randint(1, 3)))
        return PolyEven(gen.randrange(d), coeffs)
    if kind == "grid_sin":
        i, j = gen.sample(range(d), 2)
        return GridSin(gen.choice(BETAS), i, j)
    children = tuple(random_l(gen, d, depth + 1) for _ in range(gen.randint(2, 3)))
    return Sum(children) if kind == "sum" else Product(children)


def random_kernels(count: int = 2000, seed: int = 20151):
    """``count`` random kernels, the same ones for the same seed."""
    gen = random.Random(seed)
    out = []
    for _ in range(count):
        d = gen.randint(1, 3)
        l = gen.randint(0, d)
        out.append(
            KernelSpec(
                d=d,
                l=l,
                p=tuple(gen.choice(P_VALUES) for _ in range(l)),
                q=tuple(gen.choice(Q_VALUES) for _ in range(d - l)),
                L=random_l(gen, d),
                regime=gen.choice(REGIMES),
            )
        )
    return out
