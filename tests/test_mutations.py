"""Mutation checks: seeded defects that a named gate must catch.

Each defect is patched into the source that ``Factor1D._step_source``
hands to the step compiler, so every factor built afterwards computes
with it; factors compiled before the patch keep their functions, which
is why the gates below run on fresh factors.  The test asserts which
gate catches which defect, so a gate that stops catching one fails here.

Quadrature defects (the Gaussian-moment integrand u -> f(sigma u) phi(u)):

    defect                        criterion 8 (rho vs m_p)   QUAD_PINS bits
    weight exp(-u*u)              caught                     caught
    1/sqrt(2 pi) dropped          caught                     caught
    cos step dropped              missed (no cos factor)     caught
"""

import re
from dataclasses import replace

import pytest

from uvstat.kernels import Factor1D, QuadratureError

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
