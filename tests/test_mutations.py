"""Mutation checks: seeded defects that a named gate must catch.

The test asserts which gate catches which defect, so a gate that stops
catching one fails here.

Quadrature defects are patched into the source that
``Factor1D._step_source`` hands to the step compiler, so every factor
built afterwards computes with it; factors compiled before the patch
keep their functions, which is why their gates run on fresh factors.
The Gaussian-moment integrand is u -> f(sigma u) phi(u):

    defect                        criterion 8 (rho vs m_p)   QUAD_PINS bits
    weight exp(-u*u)              caught                     caught
    1/sqrt(2 pi) dropped          caught                     caught
    cos step dropped              missed (no cos factor)     caught

Simulator-stream defects move a substream index of ``uvstat.simulate``
(substream i of a path seed is SeedSequence(seed, spawn_key=(i,)): 0
jumps, 1 W, 2 V).  The gates are the limit and draw bits pinned on an
ItoSM and a Constant path (``test_limits_and_draws_pinned_bits``) and
the report digest of the shipped ``lln_jump.cfg`` (Constant volatility,
statistics read off X):

    defect                                   limit/draw pins   lln_jump.cfg digest
    W drawn from the V substream (2,)        caught (ItoSM)    caught
    jumps drawn from the W substream (1,)    caught            caught
    V drawn from the W substream (1,)        caught (ItoSM)    missed (V unread)

Two-sample KS defects are patched into ``uvstat.ks``, whose
``ks_2samp_asymp`` computes the p-value as kstwo.sf(d, round(en)).  The
gates are the oracle against scipy.stats (``test_ks``) and the report
digests of the ``clt_mixed`` benchmark plan at seeds 0-3:

    defect                                      scipy oracle   clt_mixed digests
    p = kolmogorov(sqrt(en) d), the limit tail  caught         caught
    round(en) replaced by int(en)               caught         caught
"""

import math
import re
from dataclasses import replace
from pathlib import Path

import pytest
from scipy.special import kolmogorov

import uvstat.ks
import uvstat.simulate
from uvstat.kernels import Factor1D, QuadratureError

import test_cli
import test_ks
import test_sampler
from test_acceptance import RHO_QUAD_TOL, rho_quadrature_worst
from test_kernels import QUAD_PINS, QUAD_SIGMAS

DEFECTS = {
    "none": lambda src: src,
    "weight_exp_u2": lambda src: src.replace("exp(-0.5 * u * u)", "exp(-u * u)"),
    "no_inv_sqrt_2pi": lambda src: src.replace(" / _SQRT_2PI", ""),
    "no_cos_step": lambda src: re.sub(r"cos\(c\d+ \* x\)", "1.0", src),
}

# defect -> (criterion 8's rho check fails, a QUAD_PINS bit pattern moves)
CAUGHT = {
    "none": (False, False),
    "weight_exp_u2": (True, True),
    "no_inv_sqrt_2pi": (True, True),
    "no_cos_step": (False, True),
}


def _criterion_08_fails() -> bool:
    return not rho_quadrature_worst() <= RHO_QUAD_TOL


def _quad_pins_fail() -> bool:
    for f, pins in QUAD_PINS:
        fresh = replace(f)  # an equal factor with nothing compiled yet
        try:
            got = tuple(fresh._moment_quad(s).hex() for s in QUAD_SIGMAS)
        except QuadratureError:
            return True
        if got != pins:
            return True
    return False


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_quadrature_defect_caught_by_its_gates(monkeypatch, defect):
    step_source = Factor1D._step_source

    def mutated(self):
        source, names = step_source(self)
        return DEFECTS[defect](source), names

    monkeypatch.setattr(Factor1D, "_step_source", mutated)
    assert (_criterion_08_fails(), _quad_pins_fail()) == CAUGHT[defect]


# defect -> (module constant, substream index it is given)
STREAM_DEFECTS = {
    "none": None,
    "w_from_v_substream": ("_W_STREAM", 2),
    "jumps_from_w_substream": ("_JUMP_STREAM", 1),
    "v_from_w_substream": ("_V_STREAM", 1),
}

# defect -> (a limit/draw pin moves, the lln_jump.cfg digest moves)
STREAM_CAUGHT = {
    "none": (False, False),
    "w_from_v_substream": (True, True),
    "jumps_from_w_substream": (True, True),
    "v_from_w_substream": (True, False),
}

LLN_JUMP = Path(__file__).resolve().parent.parent / "configs" / "lln_jump.cfg"


def _fails(gate, *args) -> bool:
    try:
        gate(*args)
    except AssertionError:
        return True
    return False


@pytest.mark.parametrize("defect", sorted(STREAM_DEFECTS))
def test_simulator_stream_defect_caught_by_its_gates(monkeypatch, tmp_path, capsys, defect):
    if STREAM_DEFECTS[defect] is not None:
        monkeypatch.setattr(uvstat.simulate, *STREAM_DEFECTS[defect])
    caught = (
        _fails(test_sampler.test_limits_and_draws_pinned_bits),
        _fails(test_cli.test_shipped_config_reports_byte_identical, LLN_JUMP, tmp_path, capsys),
    )
    assert caught == STREAM_CAUGHT[defect]


def _limiting_tail(d, en):
    return kolmogorov(math.sqrt(en) * d)


# defect -> module attributes of uvstat.ks it replaces
KS_DEFECTS = {
    "none": {},
    # en passed on unrounded, to the limiting Kolmogorov tail
    "limiting_tail": {"round": lambda en: en, "_kstwo_sf": _limiting_tail},
    "int_en": {"round": int},
}

# defect -> (the scipy oracle fails, a clt_mixed benchmark digest moves)
KS_CAUGHT = {
    "none": (False, False),
    "limiting_tail": (True, True),
    "int_en": (True, True),
}


@pytest.mark.parametrize("defect", sorted(KS_DEFECTS))
def test_two_sample_ks_defect_caught_by_its_gates(monkeypatch, tmp_path, capsys, defect):
    for name, value in KS_DEFECTS[defect].items():
        monkeypatch.setattr(uvstat.ks, name, value, raising=False)
    caught = (
        _fails(test_ks.test_ks_tests_match_scipy_bit_for_bit),
        _fails(
            test_cli.test_benchmark_plans_match_pinned_digests,
            "clt_mixed", "verify-clt", tmp_path, capsys,
        ),
    )
    assert caught == KS_CAUGHT[defect]
