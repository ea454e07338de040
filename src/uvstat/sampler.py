"""Draws from the F-conditional limit laws on the extension space.

Each recorded jump k gets independent extension variables

    kappa_k ~ U(0,1),  psi_{k-}, psi_{k+} ~ N(0,1),
    R_k = sqrt(kappa_k) sigma_{T_k-} psi_{k-}
          + sqrt(1 - kappa_k) sigma_{T_k} psi_{k+}.

The jump-case limit draw contracts the per-jump derivative sums against
R; the mixed-case draw adds the conditionally Gaussian field U_t(H, .)
summed over every (d-l)-tuple of jumps.  With v(y) the field vector at a
tuple point and P its covariance core (``Context.field``), that sum is
N(0, svec^T P svec) for svec = sum_y v(y) (``Context.field_tuple_sum``),
so one standard normal times its standard deviation draws it.  A draw
is a plain float and a deterministic function of the path and the
generators it is given: ``augment`` draws R from one, and
``sample_V_mixed`` draws the field from another, so the two terms stay
reproducible independently.  The block split l is read from the kernel.

A draw reads only the path's ground truth, through the ground-truth
context of :mod:`uvstat.limits` (``Context``) that the caller opens and
passes in, as the limits do: the window t from the path, the jump sizes
up to t and one Gaussian moment vector per distinct factor, shared by
the jump-term coefficients and the field covariance core.  ``augment``
reads the path itself (a ``GroundTruth``; a ``SamplePath`` is one).  The
kernel's separable terms, their derivatives, the field-factor products
and the slot layouts come from the kernel's compiled view, built once
per kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from uvstat.kernels import KernelError
from uvstat.limits import Context
from uvstat.simulate import GroundTruth

__all__ = [
    "JumpAugmentation",
    "SamplerError",
    "augment",
    "sample_U_jump",
    "sample_V_mixed",
    "truncated_Z",
]

_EPS = 2.0**-53


class SamplerError(RuntimeError):
    """Limit-law sampling failure (an augmentation of another path, a negative truncation level)."""


@dataclass(frozen=True, eq=False)
class JumpAugmentation:
    """Extension-space randomness attached to each recorded jump."""

    kappa: np.ndarray
    psi_minus: np.ndarray
    psi_plus: np.ndarray
    r_minus: np.ndarray
    r_plus: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        for arr in (self.kappa, self.psi_minus, self.psi_plus, self.r_minus, self.r_plus, self.r):
            arr.setflags(write=False)

    def __len__(self):
        return len(self.kappa)


def augment(path: GroundTruth, gen) -> JumpAugmentation:
    """Draw (kappa, psi-, psi+) per recorded jump from the generator gen.

    With gen = np.random.default_rng(seed) the draw is deterministic in
    (path, seed).
    """
    J = len(path.sizes)
    kappa = np.clip(gen.random(J), _EPS, 1.0 - _EPS)
    psi_minus = gen.standard_normal(J)
    psi_plus = gen.standard_normal(J)
    r_minus = np.sqrt(kappa) * path.sigma_pre * psi_minus
    r_plus = np.sqrt(1.0 - kappa) * path.sigma_post * psi_plus
    return JumpAugmentation(
        kappa=kappa,
        psi_minus=psi_minus,
        psi_plus=psi_plus,
        r_minus=r_minus,
        r_plus=r_plus,
        r=r_minus + r_plus,
    )


def sample_U_jump(ctx: Context, aug: JumpAugmentation) -> float:
    """Jump-case limit draw: t^{d-l} sum over l-tuples of partial_j H * R.

    Regrouped by which jump carries the R factor, the draw is
    sum_q [t^{d-l} sum_k Vbar_k(Delta X_q)] R_q: the truncated draw
    :func:`truncated_Z` with every jump kept.
    """
    return truncated_Z(ctx, len(ctx.path.sizes), aug)


def sample_V_mixed(ctx: Context, aug: JumpAugmentation, field_gen) -> float:
    """Mixed-case limit draw: R-contracted drift-of-jump term plus Gaussian field.

    The field U_t(H, .) enters summed over every (d-l)-tuple of jumps, a
    centred normal of variance svec^T P svec (the field term of
    ``limits.cond_var_mixed``, computed here on its own).  It is drawn
    as one standard normal from the generator field_gen, which is read
    only when that variance is not zero.
    """
    d, l = ctx.kernel.d, ctx.kernel.l
    if not 1 <= l < d:
        raise KernelError("mixed-case sampling needs 1 <= l < d")
    if len(aug) != len(ctx.path.sizes):
        raise SamplerError("augmentation does not match the path's jump count")
    sizes = ctx.sizes
    J = len(sizes)
    if J == 0:
        return 0.0
    coeff = ctx.contract(ctx.compiled.vtilde_slots, sizes)
    jump_term = float(np.sum(coeff * aug.r[:J]))
    svec = ctx.field_tuple_sum()
    field_var = float(svec @ ctx.field[1] @ svec)
    field_term = math.sqrt(field_var) * field_gen.standard_normal() if field_var > 0 else 0.0
    return jump_term + field_term


def truncated_Z(ctx: Context, m: int, aug: JumpAugmentation) -> float:
    """Jump-case limit draw restricted to the m largest jumps (by |size|).

    Z(J), with J the full jump count, is the full draw; the truncation
    reuses the same augmentation values, aligned by jump index.
    """
    if m < 0:
        raise SamplerError(f"truncation level must be >= 0, got {m}")
    if len(aug) != len(ctx.path.sizes):
        raise SamplerError("augmentation does not match the path's jump count")
    sizes = ctx.sizes
    J = len(sizes)
    if J == 0 or m == 0:
        return 0.0
    order = np.argsort(-np.abs(sizes), kind="stable")
    keep = np.sort(order[: min(m, J)])
    sub_sizes = sizes[keep]
    kernel = ctx.kernel
    coeff = ctx.t ** (kernel.d - kernel.l) * ctx.contract(
        ctx.compiled.vbar_slots, sub_sizes, sizes=sub_sizes
    )
    return float(np.sum(coeff * aug.r[keep]))
