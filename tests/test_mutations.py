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
ItoSM and a Constant path (``test_limits_and_draws_pinned_bits``), the
report digest of the shipped ``lln_jump.cfg`` (Constant volatility,
statistics read off X) and, as the oracle that no re-pin rewrites, the
scalar simulator (``test_simulate_path_matches_scalar_oracle``, one run
per model of ``ORACLE_MODELS``), which spawns its own three substreams:

    defect                                   limit/draw pins   lln_jump.cfg digest   scalar oracle
    W drawn from the V substream (2,)        caught (ItoSM)    caught                all 5 models
    jumps drawn from the W substream (1,)    caught            caught                all 5 models
    V drawn from the W substream (1,)        caught (ItoSM)    missed (V unread)     the 3 ItoSM models

Two-sample KS defects are patched into ``uvstat.ks``, whose
``ks_2samp_asymp`` computes the p-value as kstwo.sf(d, round(en)).  The
gates are the oracle against scipy.stats (``test_ks``) and the report
digests of the ``clt_mixed`` benchmark plan at seeds 0-3:

    defect                                      scipy oracle   clt_mixed digests
    p = kolmogorov(sqrt(en) d), the limit tail  caught         caught
    round(en) replaced by int(en)               caught         caught

Seed-pass defects are patched into ``uvstat.seeding``, the vectorized
port of numpy's SeedSequence and its fixed-width row builder
``seed_rows``, and into ``harness._RepSeeds``, which lays out the seed
table of every rep of one n.  The gates are the port's oracle against
numpy's SeedSequence on rows built by the test's own word rule
(``test_seed_pass_matches_numpy_seed_sequence``), the row rule against
numpy (``test_seed_rows_match_numpy_seed_sequence``), the per-n seeds
against derive_seed, numpy, simulate_path and simulate_truth
(``test_rep_seeds_match_derive_seed``, Constant volatility, base seed
2**32 + 7) and the report digests of the ``clt_mixed`` benchmark plan at
seeds 0-3:

    defect                                   port oracle  row rule  per-n seeds  clt_mixed digests
    spawn key appended to an unpadded row    missed       caught    caught       caught
    a seed's high word dropped from its row  missed       caught    caught       caught
    generate_state multiplier off by one     caught       caught    caught       caught
    rep column of the table shifted by one   missed       missed    caught       caught

Limit-law defects are compiled from the source of the function they
change, or wrap it, and replace it in every module that imports it.  A
kernel keeps the moments of a constant grid, so each row also gives the
test modules fresh kernels (``_fresh_kernels``): its gates evaluate
their moments under the defect, and none outlives the row.  The
gates are the homogeneity relations (``test_homogeneity``: every scale
of the model doubled on one seed, on ``ITOSM_CASE``), the pinned bits of
the mixed limit on an ItoSM path (``test_limits``'s grid_sin pin), the
pinned bits of the conditional variances and limit-law draws on an ItoSM
and a Constant path (``test_sampler``'s layer pins), the conditional law
on fixed jumps (``test_limits``' W-redraw gate: the variance of
sqrt(n)(Y - limit) over 1,000 W redraws on each of three paths with their
jumps held, Constant sigma0 = 0.5, pooled over cond_var_mixed's total and
held to [0.9, 1.1]) and the acceptance criteria that read the changed
code, run at their own seeds:

    defect                                   homogeneity  limit pin  layer pins  W redraws  acceptance
    sigma^{2p} for sigma^p in a moment       caught       caught     caught      caught     missed by 7 and 8
    R drawn with sigma^2 for sigma           caught       missed     caught      missed     missed by 5 and 11
    H for dH in the jump cond. variance      caught       missed     caught      missed     caught by 4 (z_var 16.9, 63.4)
    mixed cond. variance x 1.25              missed       missed     caught      caught     caught by 7 (z_var 0.837)
    field term dropped from the mixed var.   missed       missed     caught      caught     missed by 7 (z_var 1.069)
    mixed limit + sd / sqrt(n)               missed       caught     missed      missed     caught by 7
    Riemann sigma one grid step late         missed       caught     caught      missed     none run
    sigma_pre one grid interval late         missed       missed     caught      missed     none run
    field variance for its sd in the draw    caught       missed     caught      missed     missed by 7 (var off 1.1%)
    field term dropped from the draw         missed       missed     caught      missed     missed by 7 (var off 2.1%)

Every acceptance plan that reads a moment or an R draw has sigma = 1,
where sigma^{2p} = sigma^p and sigma^2 = sigma; among the end-to-end
gates only the homogeneity relations see those two defects.  Criterion 7
also compares 1e4 limit draws with the conditional variance on one path:
x 1.25 moves that by 20%, the dropped field by 2.3%, inside its 5%
bound, and the two draw defects by 1.1% and 2.1%, as the field is that
small a share there.  The W-redraw gate, where the field is 42-59% of
the variance, reads a pooled ratio of 1.04 on clean code, 2.08 with sigma^{2p}, 0.83
with x 1.25 and 2.04 with the field dropped; a shifted limit moves only
the mean of its errors, and it draws no R.  The Riemann and sigma_pre
defects change only what a varying sigma reads, and every acceptance
plan has Constant volatility, so no criterion is run for them; they
keep every degree of homogeneity, so among these columns only the ItoSM
pins see them, and the oracle column below catches both.  The shifted
limit adds sqrt(total / n) where a conditional variance exists
(1 <= l < d), which keeps every degree as well.  The field's variance
in the draw where its standard deviation belongs scales by 2^{2s}
where the draw scales by 2^s, so the homogeneity relations see it; the
W redraws read no draw.

The oracle column runs, on every row, loop forms and tolerance gates
that a re-pin leaves standing: the mixed limit against an independent
Riemann sum of rho values on an ItoSM path (``test_limits``, rel 1e-9,
rho written out as m_{1/2} sigma^{1/2} |z|^4 from ``abs_moment``),
the scalar simulator on the three ItoSM models and over the clamp budget
(``test_simulate``), and seven sampler tests that hold 10,000 draws to the
kappa mean and R variance, to the conditional variance or to N(0, 1)
(``test_sampler``: one for the augmentation, three for U_jump, three for
V_mixed, the third on the first path of the W redraws, where the field
is 42% of the variance):

    defect                                   Riemann sum  scalar simulator   sampler tests
    sigma^{2p} for sigma^p in a moment       caught       missed             missed
    R drawn with sigma^2 for sigma           missed       missed             all seven
    H for dH in the jump cond. variance      missed       missed             the three U_jump
    mixed cond. variance x 1.25              missed       missed             the three V_mixed
    field term dropped from the mixed var.   missed       missed             the third V_mixed
    mixed limit + sd / sqrt(n)               caught       missed             missed
    Riemann sigma one grid step late         caught       missed             missed
    sigma_pre one grid interval late         missed       all four           missed
    field variance for its sd in the draw    missed       missed             the third V_mixed
    field term dropped from the draw         missed       missed             the third V_mixed

The Riemann sum takes no moment from the code it checks, so it sees a
sigma^{2p} moment where sigma varies; the sampler tests compare draws
with a conditional variance built from the same moments as the draws,
so they do not.  On the first two V_mixed tests' path the field is 1.3%
of the variance, inside their 5% bound, so a dropped field passes them.
On the third it is 42%: its var / total reads 0.999 on clean code, 1.72
with the field dropped from the variance, 0.58 with it dropped from the
draw and about 107 with its variance for its standard deviation.

The homogeneity relations see only a defect that changes a degree of
homogeneity: a wrong n-normalization, the p and q blocks swapped or a
misplaced jump time keeps every degree.  The shifted limit, the two
late sigmas and the field dropped from the draw are such defects, and
the pins catch each of them.
"""

import inspect
import math
import re
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import kolmogorov

import uvstat.harness
import uvstat.ks
import uvstat.limits
import uvstat.sampler
import uvstat.seeding
import uvstat.simulate
from uvstat.kernels import Factor1D, KernelSpec, QuadratureError
from uvstat.limits import CondVariance

import test_acceptance
import test_cli
import test_homogeneity
import test_ks
import test_limits
import test_sampler
import test_seeding
import test_simulate
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


# defect -> the models of the scalar simulator oracle whose paths stop matching
STREAM_ORACLE_CAUGHT = {
    "none": set(),
    "w_from_v_substream": set(test_simulate.ORACLE_MODELS),
    "jumps_from_w_substream": set(test_simulate.ORACLE_MODELS),
    "v_from_w_substream": {"itosm", "itosm_clamping", "itosm_dense"},
}


def _scalar_oracle_fails(model) -> bool:
    return _fails(test_simulate.test_simulate_path_matches_scalar_oracle, model)


@pytest.mark.parametrize("defect", sorted(STREAM_DEFECTS))
def test_simulator_stream_defect_caught_by_the_scalar_oracle(monkeypatch, defect):
    if STREAM_DEFECTS[defect] is not None:
        monkeypatch.setattr(uvstat.simulate, *STREAM_DEFECTS[defect])
    caught = {m for m in test_simulate.ORACLE_MODELS if _scalar_oracle_fails(m)}
    assert caught == STREAM_ORACLE_CAUGHT[defect]


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


_seed_rows = uvstat.seeding.seed_rows


def _unpadded_rows(seeds, spawn_index=None):
    """seed_rows with the spawn index right after the seed: [lo, hi, i]."""
    rows = _seed_rows(seeds, spawn_index)
    return rows if spawn_index is None else np.delete(rows, [2, 3], axis=1)


def _high_word_dropped(seeds, spawn_index=None):
    rows = _seed_rows(seeds, spawn_index)
    rows[:, 1] = 0
    return rows


# defect -> (owner, attribute, a builder of the replacement)
SEED_DEFECTS = {
    "none": None,
    "unpadded_spawn_key": (uvstat.seeding, "seed_rows", lambda: _unpadded_rows),
    "high_word_dropped": (uvstat.seeding, "seed_rows", lambda: _high_word_dropped),
    "generate_state_multiplier": (
        uvstat.seeding, "_MULT_B", lambda: uvstat.seeding._MULT_B + 1
    ),
    "reps_shifted": (uvstat.harness._RepSeeds, "__init__", lambda: _mutated(
        uvstat.harness._RepSeeds.__init__,
        ("np.arange(plan.reps)", "np.arange(1, plan.reps + 1)"),
    )),
}

# defect -> (the port oracle fails, the row rule fails, the per-n seeds fail,
# a clt_mixed benchmark digest moves)
SEED_CAUGHT = {
    "none": (False, False, False, False),
    "unpadded_spawn_key": (False, True, True, True),
    "high_word_dropped": (False, True, True, True),
    "generate_state_multiplier": (True, True, True, True),
    "reps_shifted": (False, False, True, True),
}


@pytest.mark.parametrize("defect", sorted(SEED_DEFECTS))
def test_seed_pass_defect_caught_by_its_gates(monkeypatch, tmp_path, capsys, defect):
    if SEED_DEFECTS[defect] is not None:
        owner, name, build = SEED_DEFECTS[defect]
        original, replacement = getattr(owner, name), build()
        monkeypatch.setattr(owner, name, replacement)
        if getattr(test_seeding, name, None) is original:  # the tests' own import
            monkeypatch.setattr(test_seeding, name, replacement)
    caught = (
        _fails(test_seeding.test_seed_pass_matches_numpy_seed_sequence),
        _fails(test_seeding.test_seed_rows_match_numpy_seed_sequence),
        _fails(test_seeding.test_rep_seeds_match_derive_seed, "constant", 2**32 + 7),
        _fails(
            test_cli.test_benchmark_plans_match_pinned_digests,
            "clt_mixed", "verify-clt", tmp_path, capsys,
        ),
    )
    assert caught == SEED_CAUGHT[defect]


def _mutated(fn, *edits):
    """fn compiled again from its source with each (old, new) edit made once.

    It is compiled in fn's own module namespace, so it reads the module's
    names as a gate patches them (``_CLAMP_BUDGET`` in ``uvstat.simulate``);
    the module keeps its own binding of the name.
    """
    source = textwrap.dedent(inspect.getsource(fn))
    for old, new in edits:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    namespace, name = fn.__globals__, fn.__name__
    missing = object()
    kept = namespace.get(name, missing)
    exec(compile(source, f"<mutated {fn.__qualname__}>", "exec"), namespace)
    mutated = namespace.pop(name)
    if kept is not missing:
        namespace[name] = kept
    return mutated


def _scaled_cond_var(factor, field):
    """cond_var_mixed with its total times factor and its field term times field."""
    cond_var_mixed = uvstat.limits.cond_var_mixed

    def defect(ctx):
        cv = cond_var_mixed(ctx)
        jump, fld = factor * cv.jump_term, factor * field * cv.field_term
        return CondVariance(total=jump + fld, jump_term=jump, field_term=fld)

    return defect


def _shifted_mixed_limit():
    """mixed_limit plus one conditional standard deviation over sqrt(n), for every kernel
    that has a conditional variance (1 <= l < d)."""
    mixed_limit, cond_var_mixed = uvstat.limits.mixed_limit, uvstat.limits.cond_var_mixed

    def defect(ctx):
        lv = mixed_limit(ctx)
        if not 1 <= ctx.kernel.l < ctx.kernel.d:
            return lv
        return replace(lv, value=lv.value + math.sqrt(cond_var_mixed(ctx).total / ctx.path.n))

    return defect


def _mutated_property(cls, name, *edits):
    """The cached property cls.name compiled again from its source with the edits made."""
    prop = _mutated(getattr(cls, name).func, *edits)
    prop.__set_name__(cls, name)
    return prop


# defect -> (owner, name, a builder of the replacement), which replaces the
# name in every module that binds it
LIMIT_DEFECTS = {
    "none": None,
    "moment_sigma_2p": (Factor1D, "gaussian_moment_vec", lambda: _mutated(
        Factor1D.gaussian_moment_vec,
        ("sigmas ** self.power * scale", "sigmas ** (2 * self.power) * scale"),
    )),
    "r_sigma_squared": (uvstat.sampler, "augment", lambda: _mutated(
        uvstat.sampler.augment,
        ("path.sigma_pre * psi_minus", "path.sigma_pre ** 2 * psi_minus"),
        ("path.sigma_post * psi_plus", "path.sigma_post ** 2 * psi_plus"),
    )),
    # H summed like the jump limit's terms, where the variance sums dH
    "cond_var_jump_h_for_dh": (uvstat.limits, "cond_var_jump", lambda: _mutated(
        uvstat.limits.cond_var_jump,
        ("ctx.compiled.vbar_slots",
         '("free",) + ("sum",) * (kernel.l - 1) + (0.0,) * (kernel.d - kernel.l)'),
    )),
    "cond_var_mixed_x1_25": (uvstat.limits, "cond_var_mixed", lambda: _scaled_cond_var(1.25, 1.0)),
    "field_term_dropped": (uvstat.limits, "cond_var_mixed", lambda: _scaled_cond_var(1.0, 0.0)),
    "mixed_limit_shifted": (uvstat.limits, "mixed_limit", _shifted_mixed_limit),
    # each left-Riemann weight paired with the grid sigma one step later (the
    # partial last weight dropped where no later sigma is left)
    "riemann_one_step_late": (uvstat.limits.Context, "grid", lambda: _mutated_property(
        uvstat.limits.Context, "grid",
        ("return self.path.sigma_grid[: len(weights)], weights",
         "sigmas = self.path.sigma_grid[1 : len(weights) + 1]\n    return sigmas, weights[: len(sigmas)]"),
    )),
    "sigma_pre_one_interval_late": (uvstat.simulate, "_simulate", lambda: _mutated(
        uvstat.simulate._simulate,
        ("sigma[np.minimum(intervals - 1, N)]", "sigma[np.minimum(intervals, N)]"),
    )),
    # the field's variance where its standard deviation belongs
    "field_sd_for_var": (uvstat.sampler, "sample_V_mixed", lambda: _mutated(
        uvstat.sampler.sample_V_mixed, ("math.sqrt(field_var) *", "field_var *"),
    )),
    "field_draw_dropped": (uvstat.sampler, "sample_V_mixed", lambda: _mutated(
        uvstat.sampler.sample_V_mixed, ("return jump_term + field_term", "return jump_term"),
    )),
}


def _homogeneity_fails():
    return test_homogeneity.scaling_breaks(*test_homogeneity.ITOSM_CASE) != []


def _pins_fail():
    """(the ItoSM mixed-limit pin moves, a layer pin of an ItoSM or Constant path moves)."""
    return (
        _fails(test_limits.test_mixed_limit_grid_sin_itosm_pinned_bits),
        _fails(test_sampler.test_limits_and_draws_pinned_bits),
    )


def _conditional_law_fails():
    return _fails(test_limits.test_conditional_variance_matches_w_redraws_on_fixed_jumps)


def _fixture(name):
    """A module fixture of the acceptance suite, computed afresh."""
    return getattr(test_acceptance, name).__wrapped__()


ACCEPTANCE_GATES = {
    4: lambda: _fails(
        test_acceptance.test_criterion_04_jump_clt, _fixture("clt_jump_d1"), _fixture("clt_jump_d2")
    ),
    5: lambda: _fails(
        test_acceptance.test_criterion_05_sampler_marginal_law, _fixture("clt_jump_marginal")
    ),
    7: lambda: _fails(test_acceptance.test_criterion_07_mixed_clt, _fixture("clt_mixed")),
    8: lambda: _fails(test_acceptance.test_criterion_08_rho_and_c_closed_forms),
    11: lambda: _fails(test_acceptance.test_criterion_11_rnp_convergence),
}

# defect -> (the homogeneity relations fail, the mixed-limit pin moves, a
# layer pin moves, the conditional law on fixed jumps fails, {acceptance
# criterion: it fails})
LIMIT_CAUGHT = {
    "none": (False, False, False, False, {}),
    "moment_sigma_2p": (True, True, True, True, {7: False, 8: False}),
    "r_sigma_squared": (True, False, True, False, {5: False, 11: False}),
    "cond_var_jump_h_for_dh": (True, False, True, False, {4: True}),
    "cond_var_mixed_x1_25": (False, False, True, True, {7: True}),
    "field_term_dropped": (False, False, True, True, {7: False}),
    "mixed_limit_shifted": (False, True, False, False, {7: True}),
    "riemann_one_step_late": (False, True, True, False, {}),
    "sigma_pre_one_interval_late": (False, False, True, False, {}),
    "field_sd_for_var": (True, False, True, False, {7: False}),
    "field_draw_dropped": (False, False, True, False, {7: False}),
}


def _fresh_kernels(monkeypatch):
    """Every kernel of a test module's globals replaced by an equal one, built afresh.

    A kernel keeps the moments of a constant grid on its compiled view, so
    a gate that read a kernel used before the defect would miss a moment
    or grid defect, and the defect's moments would outlive its row.
    """
    for key, module in list(sys.modules.items()):
        if key.startswith("test_"):
            for name, value in list(vars(module).items()):
                if isinstance(value, KernelSpec):
                    monkeypatch.setattr(module, name, replace(value))


def _apply_limit_defect(monkeypatch, defect):
    _fresh_kernels(monkeypatch)
    if LIMIT_DEFECTS[defect] is not None:
        owner, name, build = LIMIT_DEFECTS[defect]
        original, replacement = getattr(owner, name), build()
        monkeypatch.setattr(owner, name, replacement)
        # the package's callers and the gates' own imports
        for key, module in list(sys.modules.items()):
            if key.split(".")[0] == "uvstat" or key.startswith("test_"):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, replacement)


@pytest.mark.parametrize("defect", sorted(LIMIT_DEFECTS))
def test_limit_law_defect_caught_by_its_gates(monkeypatch, defect):
    _apply_limit_defect(monkeypatch, defect)
    *_, criteria = LIMIT_CAUGHT[defect]
    caught = (
        _homogeneity_fails(),
        *_pins_fail(),
        _conditional_law_fails(),
        {c: ACCEPTANCE_GATES[c]() for c in criteria},
    )
    assert caught == LIMIT_CAUGHT[defect]


def _clamp_budget_oracle_fails() -> bool:
    with pytest.MonkeyPatch.context() as mp:
        return _fails(
            test_simulate.test_simulate_path_matches_scalar_oracle_over_the_clamp_budget, mp
        )


# the oracle column: loop forms and tolerance gates, none of them a bit pin
LIMIT_ORACLES = {
    "riemann_sum": lambda: _fails(test_limits.test_mixed_limit_stochastic_sigma_riemann),
    "scalar_sim[itosm]": lambda: _scalar_oracle_fails("itosm"),
    "scalar_sim[itosm_clamping]": lambda: _scalar_oracle_fails("itosm_clamping"),
    "scalar_sim[itosm_dense]": lambda: _scalar_oracle_fails("itosm_dense"),
    "clamp_budget": _clamp_budget_oracle_fails,
    "kappa_r_var": lambda: _fails(test_sampler.test_augment_kappa_mean_and_r_variance),
    "u_jump_var": lambda: _fails(test_sampler.test_sample_u_jump_centering_and_variance),
    "u_jump_var_d2": lambda: _fails(test_sampler.test_sample_u_jump_variance_match_d2),
    "u_jump_gauss": lambda: _fails(test_sampler.test_sample_u_jump_conditionally_gaussian),
    "v_mixed_var": lambda: _fails(test_sampler.test_sample_v_mixed_variance_match),
    "v_mixed_field": lambda: _fails(test_sampler.test_sample_v_mixed_field_switch),
    "v_mixed_field_var": lambda: _fails(
        test_sampler.test_sample_v_mixed_holds_a_material_field_to_the_total
    ),
}

_U_JUMP_DRAWS = {"u_jump_var", "u_jump_var_d2", "u_jump_gauss"}
_V_MIXED_DRAWS = {"v_mixed_var", "v_mixed_field", "v_mixed_field_var"}

# defect -> the oracles that fail
LIMIT_ORACLE_CAUGHT = {
    "none": set(),
    "moment_sigma_2p": {"riemann_sum"},
    "r_sigma_squared": {"kappa_r_var"} | _U_JUMP_DRAWS | _V_MIXED_DRAWS,
    "cond_var_jump_h_for_dh": _U_JUMP_DRAWS,
    "cond_var_mixed_x1_25": _V_MIXED_DRAWS,
    "field_term_dropped": {"v_mixed_field_var"},
    "mixed_limit_shifted": {"riemann_sum"},
    "riemann_one_step_late": {"riemann_sum"},
    "sigma_pre_one_interval_late": {
        "scalar_sim[itosm]", "scalar_sim[itosm_clamping]", "scalar_sim[itosm_dense]",
        "clamp_budget",
    },
    "field_sd_for_var": {"v_mixed_field_var"},
    "field_draw_dropped": {"v_mixed_field_var"},
}


@pytest.mark.parametrize("defect", sorted(LIMIT_DEFECTS))
def test_limit_law_defect_caught_by_its_oracles(monkeypatch, defect):
    _apply_limit_defect(monkeypatch, defect)
    caught = {name for name, fails in LIMIT_ORACLES.items() if fails()}
    assert caught == LIMIT_ORACLE_CAUGHT[defect]
