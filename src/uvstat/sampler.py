"""Draws from the F-conditional limit laws on the extension space.

Each recorded jump k gets independent extension variables

    kappa_k ~ U(0,1),  psi_{k-}, psi_{k+} ~ N(0,1),
    R_k = sqrt(kappa_k) sigma_{T_k-} psi_{k-}
          + sqrt(1 - kappa_k) sigma_{T_k} psi_{k+}.

The jump-case limit draw contracts the per-jump derivative sums against
R; the mixed-case draw adds a conditionally Gaussian field evaluated at
the distinct jump-size tuples, sampled by Cholesky factorization of the
exact covariance matrix (with escalating diagonal jitter).  A draw is a
plain float and a deterministic function of (path, seed); the field uses
a sub-seed derived by hashing so the two terms stay reproducible
independently.  The block split l is read from the kernel.

A draw reads only the path's ground truth, so every function here
accepts a ``GroundTruth`` (a ``SamplePath`` is one).  Each draw reads the
path through one ground-truth context of
:mod:`uvstat.limits` (``_Truth``), as the limits do: the window t from
the path, the jump sizes up to t and one Gaussian moment vector per
distinct factor, shared by the jump-term coefficients and the field
covariance matrix V P V^T, which the context also holds.  The kernel's
separable terms, their derivatives, the field-factor products and the
slot layouts come from the kernel's compiled view, built once per
kernel.  The distinct jump sizes of the field are an exact tally of the
(finite, nonzero) sizes, in increasing order.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from uvstat.kernels import KernelError, KernelSpec
from uvstat.limits import _Truth
from uvstat.simulate import GroundTruth

__all__ = [
    "JumpAugmentation",
    "SamplerError",
    "augment",
    "sample_U_jump",
    "sample_V_mixed",
    "truncated_Z",
    "field_subseed",
    "FIELD_TUPLE_BUDGET",
]

FIELD_TUPLE_BUDGET = 4096

_EPS = 2.0**-53


class SamplerError(RuntimeError):
    """Limit-law sampling failure (covariance factorization, budgets)."""


@dataclass(frozen=True)
class JumpAugmentation:
    """Extension-space randomness attached to each recorded jump."""

    kappa: np.ndarray
    psi_minus: np.ndarray
    psi_plus: np.ndarray
    r_minus: np.ndarray
    r_plus: np.ndarray
    r: np.ndarray
    seed: int

    def __post_init__(self):
        for arr in (self.kappa, self.psi_minus, self.psi_plus, self.r_minus, self.r_plus, self.r):
            arr.setflags(write=False)

    def __len__(self):
        return len(self.kappa)


def _seeded(seed: int):
    return np.random.default_rng(np.random.SeedSequence(seed))


def augment(path: GroundTruth, seed: int) -> JumpAugmentation:
    """Draw (kappa, psi-, psi+) per recorded jump; deterministic in (path, seed)."""
    return _augment(path, seed, _seeded(seed))


def _augment(path: GroundTruth, seed: int, gen) -> JumpAugmentation:
    """augment with its generator given: gen is SeedSequence(seed)'s, or one on its precomputed state."""
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
        seed=int(seed),
    )


def field_subseed(aug_seed: int) -> int:
    """Sub-seed for the Gaussian-field draw: stable hash of (aug seed, 'field')."""
    digest = hashlib.blake2s(f"{aug_seed}:field".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def sample_U_jump(
    path: GroundTruth,
    kernel: KernelSpec,
    aug: JumpAugmentation,
    t: Optional[float] = None,
) -> float:
    """Jump-case limit draw: t^{d-l} sum over l-tuples of partial_j H * R.

    Regrouped by which jump carries the R factor, the draw is
    sum_q [t^{d-l} sum_k Vbar_k(Delta X_q)] R_q: the truncated draw
    :func:`truncated_Z` with every jump kept.
    """
    return truncated_Z(path, kernel, len(path.sizes), aug, t)


def _cholesky_with_jitter(M: np.ndarray):
    trace = float(np.trace(M))
    if trace <= 0.0:
        return None  # identically zero field
    for decade in range(4):
        jitter = 1e-10 * trace * 10.0**decade
        try:
            return np.linalg.cholesky(M + jitter * np.eye(len(M)))
        except np.linalg.LinAlgError:
            continue
    eigmin = float(np.linalg.eigvalsh(M).min())
    raise SamplerError(
        f"covariance Cholesky failed after jitter escalation; smallest eigenvalue {eigmin:.3e}"
    )


def sample_V_mixed(
    path: GroundTruth,
    kernel: KernelSpec,
    aug: JumpAugmentation,
    seed: Optional[int] = None,
    t: Optional[float] = None,
) -> float:
    """Mixed-case limit draw: R-contracted drift-of-jump term plus Gaussian field.

    The field U_t(H, .) is a single realization evaluated at each distinct
    (d-l)-tuple of jump sizes; index tuples with equal size vectors reuse
    the same field value.
    """
    truth = _Truth(path, kernel, t)
    return _sample_V_mixed(
        truth, aug, lambda: _seeded(field_subseed(aug.seed) if seed is None else int(seed))
    )


def _sample_V_mixed(truth: _Truth, aug: JumpAugmentation, field_gen) -> float:
    """sample_V_mixed on a ground-truth context; field_gen() builds the field's generator.

    The generator is built only when the field is drawn (a non-zero
    covariance).
    """
    d, l = truth.kernel.d, truth.kernel.l
    if not 1 <= l < d:
        raise KernelError("mixed-case sampling needs 1 <= l < d")
    if len(aug) != len(truth.path.sizes):
        raise SamplerError("augmentation does not match the path's jump count")
    sizes = truth.sizes
    J = len(sizes)
    if J == 0:
        return 0.0
    coeff = truth.contract(truth.compiled.vtilde_slots, sizes)
    jump_term = float(np.sum(coeff * aug.r[:J]))

    # distinct jump sizes in increasing order, with their counts (the sizes
    # are finite and nonzero, so a float tally sorts and counts them exactly)
    tally: dict = {}
    for size in sizes.tolist():
        tally[size] = tally.get(size, 0) + 1
    uniq = sorted(tally)
    counts = [tally[size] for size in uniq]
    K = len(uniq)
    n_tuples = K ** (d - l)
    if n_tuples > FIELD_TUPLE_BUDGET:
        raise SamplerError(
            f"{n_tuples} distinct jump tuples exceed the field budget {FIELD_TUPLE_BUDGET}"
        )
    combos = list(itertools.product(range(K), repeat=d - l))
    y_list = [[uniq[i] for i in combo] for combo in combos]
    weights = np.array([math.prod(counts[i] for i in combo) for combo in combos], dtype=float)
    chol = _cholesky_with_jitter(truth.field_cov(y_list))
    field_term = 0.0
    if chol is not None:
        g = chol @ field_gen().standard_normal(len(y_list))
        field_term = float(np.dot(weights, g))
    return jump_term + field_term


def truncated_Z(
    path: GroundTruth,
    kernel: KernelSpec,
    m: int,
    aug: JumpAugmentation,
    t: Optional[float] = None,
) -> float:
    """Jump-case limit draw restricted to the m largest jumps (by |size|).

    Z(J), with J the full jump count, is the full draw; the truncation
    reuses the same augmentation values, aligned by jump index.
    """
    truth = _Truth(path, kernel, t)
    if m < 0:
        raise SamplerError(f"truncation level must be >= 0, got {m}")
    if len(aug) != len(path.sizes):
        raise SamplerError("augmentation does not match the path's jump count")
    sizes = truth.sizes
    J = len(sizes)
    if J == 0 or m == 0:
        return 0.0
    order = np.argsort(-np.abs(sizes), kind="stable")
    keep = np.sort(order[: min(m, J)])
    sub_sizes = sizes[keep]
    coeff = truth.t ** (kernel.d - kernel.l) * truth.contract(
        truth.compiled.vbar_slots, sub_sizes, sizes=sub_sizes
    )
    return float(np.sum(coeff * aug.r[keep]))
