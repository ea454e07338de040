"""Config parsing, canonical round-trips, and the CLI surface."""

import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from uvstat.cli import main
from uvstat.config import ConfigError, canonical_text, parse_beta_grid, parse_config
from uvstat.simulate import path_from_binary, path_from_json

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))


def config_doc(**overrides):
    doc = {
        "model": {
            "drift_b": 0.0,
            "vol": {"kind": "Constant", "sigma0": 1.0},
            "jumps": {
                "intensity": 0.0,
                "size_dist": {"type": "AtomList", "atoms": [[1.0, 1.0]]},
                "max_abs": 2.0,
            },
            "bound_A": 10.0,
        },
        "kernel": None,
        "experiment": {"kind": "RNP", "n_list": [64], "reps": 3},
        "io": {"output_dir": "out"},
        "base_seed": 7,
    }
    doc.update(overrides)
    return doc


def jump_clt_doc(reps=5, n=256, intensity=5.0, kind="CLT_jump", kernel="d=1 l=1 p=4.0 q=- regime=JumpCLT L=one"):
    doc = config_doc()
    doc["model"]["jumps"]["intensity"] = intensity
    doc["kernel"] = kernel
    doc["experiment"] = {"kind": kind, "n_list": [n], "reps": reps}
    return doc


# ---------------------------------------------------------------------------
# parsing and canonicalization
# ---------------------------------------------------------------------------


def test_minimal_config_round_trip():
    text = json.dumps(config_doc())
    cfg = parse_config(text)
    canon = canonical_text(cfg)
    again = canonical_text(parse_config(canon))
    assert canon == again


@pytest.mark.parametrize("cfgfile", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_canonical_fixed_point(cfgfile):
    cfg = parse_config(cfgfile.read_text(encoding="utf-8"))
    canon = canonical_text(cfg)
    again = parse_config(canon)
    assert again == cfg
    assert canonical_text(again) == canon


def test_rejects_unknown_keys():
    doc = config_doc()
    doc["bogus"] = 1
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(json.dumps(doc))
    doc = config_doc()
    doc["model"]["vol"]["sigma"] = 2.0
    with pytest.raises(ConfigError, match="sigma"):
        parse_config(json.dumps(doc))


def test_rejects_mixed_clt_power_constraint():
    doc = jump_clt_doc(
        kind="CLT_mixed", kernel="d=2 l=1 p=1.5 q=4.0 regime=MixedCLT L=one"
    )
    with pytest.raises(ConfigError, match=r"\(0, 1\)"):
        parse_config(json.dumps(doc))


def test_rejects_zero_beta():
    doc = config_doc()
    doc["experiment"] = {
        "kind": "GRID",
        "n_list": [256],
        "reps": 1,
        "beta_grid": [0.0, 1.0],
    }
    with pytest.raises(ConfigError, match="beta"):
        parse_config(json.dumps(doc))


def test_rejects_malformed_json():
    with pytest.raises(ConfigError, match="JSON"):
        parse_config("{not json")


def test_parse_beta_grid_range():
    grid = parse_beta_grid("0.5:2.0:0.5")
    assert grid == (0.5, 1.0, 1.5, 2.0)
    with pytest.raises(ConfigError):
        parse_beta_grid("0.5:2.0")
    with pytest.raises(ConfigError):
        parse_beta_grid("2.0:0.5:0.1")
    grid = parse_beta_grid("0.5:2.0:0.01")
    assert len(grid) == 151 and grid[0] == 0.5 and grid[-1] == 2.0
    assert len(parse_beta_grid("0.0001:1.0:0.0001")) == 10_000
    with pytest.raises(ConfigError, match="more than 10000 entries"):
        parse_beta_grid("0:1.0:0.0001")


def test_seed_and_reps_validation():
    doc = config_doc()
    doc["experiment"]["reps"] = 0
    with pytest.raises(ConfigError, match="reps"):
        parse_config(json.dumps(doc))
    doc = config_doc()
    doc["base_seed"] = "abc"
    with pytest.raises(ConfigError, match="base_seed"):
        parse_config(json.dumps(doc))


# ---------------------------------------------------------------------------
# CLI behaviour
# ---------------------------------------------------------------------------


def write_config(tmp_path, doc, name="run.cfg"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_missing_config_exits_1(tmp_path, capsys):
    rc = main(["verify-lln", "--config", str(tmp_path / "nope.cfg")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "usage" in captured.err


def test_verify_lln_writes_reports(tmp_path, capsys):
    doc = jump_clt_doc(kind="LLN", reps=4, n=128)
    doc["io"] = {"output_dir": str(tmp_path / "out")}
    cfgfile = write_config(tmp_path, doc)
    rc = main(["verify-lln", "--config", str(cfgfile)])
    assert rc == 0
    out = tmp_path / "out"
    assert (out / "report.json").exists()
    assert (out / "errors.csv").exists()
    assert (out / "manifest.json").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["kind"] == "LLN"
    manifest = json.loads((out / "manifest.json").read_text())
    assert "versions" in manifest and "config" in manifest


def test_verify_clt_threads_byte_identical(tmp_path):
    doc = jump_clt_doc(reps=12, n=128)
    doc["io"] = {"output_dir": str(tmp_path / "a")}
    cfgfile = write_config(tmp_path, doc)
    names = ("report.json", "errors.csv", "manifest.json")
    assert main(["verify-clt", "--config", str(cfgfile), "--threads", "1"]) == 0
    first = {name: (tmp_path / "a" / name).read_bytes() for name in names}
    assert main(["verify-clt", "--config", str(cfgfile), "--threads", "4"]) == 0
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == first[name], name


def test_seed_override_changes_rows(tmp_path):
    doc = jump_clt_doc(kind="LLN", reps=3, n=128)
    doc["io"] = {"output_dir": str(tmp_path / "a")}
    cfgfile = write_config(tmp_path, doc)
    assert main(["verify-lln", "--config", str(cfgfile)]) == 0
    assert (
        main(
            ["verify-lln", "--config", str(cfgfile), "--seed", "999", "--output", str(tmp_path / "b")]
        )
        == 0
    )
    a = (tmp_path / "a" / "errors.csv").read_text()
    b = (tmp_path / "b" / "errors.csv").read_text()
    assert a != b


def test_grid_test_on_csv(tmp_path, capsys):
    ticks = tmp_path / "ticks.csv"
    ticks.write_text("increment\n0.5\n1.5\n-0.5\n2.5\n", encoding="utf-8")
    rc = main(
        [
            "grid-test",
            "--input",
            str(ticks),
            "--beta",
            "0.5:2.0:0.5",
            "--output",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert len(report["tables"]) >= 1
    rows = (tmp_path / "out" / "errors.csv").read_text().splitlines()
    assert rows[0].startswith("beta,")
    assert len(rows) == 5


def test_grid_test_on_zero_increments_exits_1(tmp_path, capsys):
    zeros = tmp_path / "zeros.csv"
    zeros.write_text("0.0\n0.0\n0.0\n", encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["grid-test", "--input", str(zeros), "--beta", "0.5:1.0:0.5", "--output", str(out)])
    assert rc == 1
    assert "envelope" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_and_stat_commands(tmp_path, capsys):
    doc = jump_clt_doc(kind="LLN", reps=2, n=128)
    doc["io"] = {"output_dir": str(tmp_path / "out")}
    cfgfile = write_config(tmp_path, doc)
    assert main(["simulate", "--config", str(cfgfile)]) == 0
    assert (tmp_path / "out" / "path.json").exists()
    capsys.readouterr()
    assert main(["stat", "--config", str(cfgfile), "--stat", "V"]) == 0
    doc_out = json.loads(capsys.readouterr().out)
    assert doc_out["kind"] == "V"
    assert main(["limits", "--config", str(cfgfile)]) == 0
    doc_out = json.loads(capsys.readouterr().out)
    assert "limit" in doc_out and "cond_variance" in doc_out


def test_stat_on_csv_input(tmp_path, capsys):
    ticks = tmp_path / "ticks.csv"
    ticks.write_text("1.0\n-2.0\n", encoding="utf-8")
    doc = jump_clt_doc(kind="LLN", kernel="d=2 l=2 p=4.0,4.0 q=- regime=JumpCLT L=one")
    cfgfile = write_config(tmp_path, doc)
    assert main(["stat", "--config", str(cfgfile), "--stat", "V", "--input", str(ticks)]) == 0
    doc_out = json.loads(capsys.readouterr().out)
    assert doc_out["value"] == pytest.approx(289.0)


def test_quadrature_failure_exits_2_with_one_line(tmp_path, capsys):
    doc = config_doc(
        kernel="d=2 l=1 p=0.5 q=4.0 regime=MixedLLN L=(grid_sin 0.125 0 1)",
        experiment={"kind": "LLN", "n_list": [32], "reps": 2, "t": 1.0},
        io={"output_dir": str(tmp_path / "out")},
    )
    doc["model"]["vol"]["sigma0"] = 5.0
    doc["model"]["jumps"]["intensity"] = 2.0
    cfgfile = write_config(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no IntegrationWarning ahead of the error line
        rc = main(["verify-lln", "--config", str(cfgfile)])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("runtime error: gaussian moment quadrature achieved tolerance")
    assert "for factor Factor1D(power=0.5" in err and "at sigma=5.0" in err
    assert not (tmp_path / "out").exists()


def test_wrong_kind_for_subcommand(tmp_path, capsys):
    doc = jump_clt_doc(kind="CLT_jump", reps=3, n=128)
    cfgfile = write_config(tmp_path, doc)
    rc = main(["verify-lln", "--config", str(cfgfile)])
    assert rc == 1
    assert "kind" in capsys.readouterr().err


def test_runtime_error_exits_2(tmp_path, capsys):
    doc = jump_clt_doc(kind="LLN", reps=2, n=64)
    cfgfile = write_config(tmp_path, doc)
    rc = main(["stat", "--config", str(cfgfile), "--input", str(tmp_path / "missing.csv")])
    assert rc == 2
    assert "runtime error" in capsys.readouterr().err


def test_non_finite_numbers_exit_1(tmp_path, capsys):
    # json accepts Infinity/NaN; they must fail validation, not reach the sampler
    doc = jump_clt_doc(reps=2, n=64, intensity=float("inf"))
    rc = main(["verify-clt", "--config", str(write_config(tmp_path, doc))])
    assert rc == 1
    assert "model.jumps.intensity must be finite" in capsys.readouterr().err
    doc = jump_clt_doc(reps=2, n=64)
    doc["model"]["drift_b"] = float("nan")
    rc = main(["verify-clt", "--config", str(write_config(tmp_path, doc))])
    assert rc == 1
    assert "model.drift_b must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kernel, value",
    [
        ("d=1 l=1 p=inf q=- regime=JumpCLT L=one", "inf"),
        ("d=1 l=1 p=4.0 q=- regime=JumpCLT L=(gauss_bump nan 0)", "nan"),
        ("d=1 l=1 p=4.0 q=- regime=JumpCLT L=(gauss_bump inf 0)", "inf"),
        ("d=2 l=2 p=4.0,4.0 q=- regime=JumpCLT L=(grid_sin nan 0 1)", "nan"),
        ("d=1 l=1 p=4.0 q=- regime=JumpCLT L=(poly_even 0 nan)", "nan"),
    ],
    ids=["power_inf", "gauss_nan", "gauss_inf", "grid_sin_nan", "poly_nan"],
)
def test_non_finite_kernel_numbers_exit_1(tmp_path, capsys, kernel, value):
    doc = jump_clt_doc(reps=2, n=64, kernel=kernel)
    doc["io"] = {"output_dir": str(tmp_path / "out")}
    rc = main(["verify-clt", "--config", str(write_config(tmp_path, doc))])
    assert rc == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert "finite" in errors[0] and errors[0].endswith(f"got {value}")
    assert not (tmp_path / "out").exists()


def test_manifest_suffices_to_rerun(tmp_path):
    from uvstat.config import parse_config

    doc = jump_clt_doc(kind="LLN", reps=3, n=128)
    doc["io"] = {"output_dir": str(tmp_path / "a")}
    cfgfile = write_config(tmp_path, doc)
    assert main(["verify-lln", "--config", str(cfgfile)]) == 0
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    # the embedded canonical config reparses to the identical plan
    cfg2 = parse_config(json.dumps(manifest["config"]))
    cfg1 = parse_config(cfgfile.read_text())
    assert cfg1.plan == cfg2.plan


NAN = float("nan")


@pytest.mark.parametrize(
    "size_dist, expected",
    [
        ({"type": "AtomList", "atoms": [[NAN, 0.5], [1.0, 0.5]]},
         "model.jumps.size_dist: AtomList atom 0 value must be finite"),
        ({"type": "AtomList", "atoms": [[1.0]]},
         "model.jumps.size_dist: AtomList atom 0 must be a (value, prob) pair"),
        ("AtomList", "model.jumps.size_dist must be an object"),
        ({"type": "AtomList"}, "missing required key 'atoms' in model.jumps.size_dist"),
        ({"type": "AtomList", "atoms": [[1.0, 1.0]], "probs": [1.0]},
         "unknown key(s) ['probs'] in model.jumps.size_dist"),
        ({"type": "Gamma", "shape": 2.0}, "model.jumps.size_dist.type must be one of"),
        ({"type": "TruncNormal", "mu": NAN, "s": 1.0, "min_abs": 0.5},
         "model.jumps.size_dist.mu must be finite"),
        ({"type": "TruncNormal", "mu": 0.0, "s": 1.0, "min_abs": 50.0},
         "model.jumps.size_dist: TruncNormal tail mass P(|Z| >= min_abs) = 0 is below 1e-06"),
    ],
    ids=["nan_atom", "short_atom", "non_object", "missing_atoms", "unknown_key",
         "unknown_type", "nan_mu", "tail_mass"],
)
def test_malformed_size_dist_exits_1(tmp_path, capsys, size_dist, expected):
    # zero intensity: no jump size is ever drawn, whatever the distribution
    doc = jump_clt_doc(reps=2, n=64, intensity=0.0)
    doc["model"]["jumps"]["size_dist"] = size_dist
    doc["io"] = {"output_dir": str(tmp_path / "out")}
    rc = main(["verify-clt", "--config", str(write_config(tmp_path, doc))])
    assert rc == 1
    assert expected in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "block, key, value, expected",
    [
        (None, "kernel", 5, "kernel must be a string or null, got 5"),
        ("experiment", "m_list", 5, "experiment.m_list must be an array, got 5"),
        ("experiment", "collect_samples", "no",
         "experiment.collect_samples must be true or false, got 'no'"),
        ("io", "input_csv", 5, "io.input_csv must be a string or null, got 5"),
        ("io", "output_dir", 5, "io.output_dir must be a string, got 5"),
        ("io", "output_dir", None, "io.output_dir must be a string, got None"),
    ],
    ids=["kernel_number", "m_list_number", "collect_samples_string", "input_csv_number",
         "output_dir_number", "output_dir_null"],
)
def test_config_field_types_exit_1(tmp_path, monkeypatch, capsys, block, key, value, expected):
    doc = jump_clt_doc(kind="LLN", reps=2, n=64)
    doc["io"] = {"output_dir": "out"}
    (doc if block is None else doc[block])[key] = value
    cfgfile = write_config(tmp_path, doc)
    monkeypatch.chdir(tmp_path)
    rc = main(["verify-lln", "--config", str(cfgfile)])
    assert rc == 1
    assert expected in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [cfgfile.name]


@pytest.mark.parametrize(
    "command, config_seed, seed_args",
    [
        ("verify-lln", -1, []),
        ("simulate", -1, []),
        ("verify-lln", 7, ["--seed", "-1"]),
        ("simulate", 7, ["--seed", "-1"]),
    ],
    ids=["verify_lln_config", "simulate_config", "verify_lln_override", "simulate_override"],
)
def test_negative_seed_exits_1(tmp_path, monkeypatch, capsys, command, config_seed, seed_args):
    doc = jump_clt_doc(kind="LLN", reps=2, n=64)
    doc["io"] = {"output_dir": "out"}
    doc["base_seed"] = config_seed
    cfgfile = write_config(tmp_path, doc)
    monkeypatch.chdir(tmp_path)
    rc = main([command, "--config", str(cfgfile), *seed_args])
    assert rc == 1
    assert "base_seed must be >= 0, got -1" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [cfgfile.name]


def test_limits_on_more_than_1e4_jumps_exits_0(tmp_path, capsys):
    # J^2 > 1e8 jump pairs: the limit contracts jump by jump, it enumerates no tuples
    kernel = "d=2 l=2 p=4.0,4.0 q=- regime=JumpCLT L=one"
    doc = jump_clt_doc(kind="LLN", n=64, intensity=20000.0, kernel=kernel)
    doc["model"]["jumps"]["size_dist"] = {"type": "AtomList", "atoms": [[1.0, 0.5], [-1.0, 0.5]]}
    rc = main(["limits", "--config", str(write_config(tmp_path, doc))])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n_jumps"] > 10**4
    assert out["limit"] == float(out["n_jumps"]) ** 2


def test_oversized_beta_range_exits_1(tmp_path, capsys):
    doc = config_doc()
    doc["experiment"] = {"kind": "GRID", "n_list": [64], "reps": 1, "beta_grid": "0.5:2.5:0.0001"}
    doc["io"] = {"output_dir": str(tmp_path / "out")}
    rc = main(["grid-test", "--config", str(write_config(tmp_path, doc))])
    assert rc == 1
    assert "beta_grid range '0.5:2.5:0.0001' has more than 10000 entries" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "n, t, intensity, expected",
    [
        (
            2**22 + 1, 1.0, 1.0,
            "experiment.n_list entry 4194305 with experiment.t = 1.0 gives floor(n t) grid steps "
            "per path above the budget 4194304",
        ),
        (2**20, 4.5, 1.0, "experiment.n_list entry 1048576 with experiment.t = 4.5 gives"),
        (2, 1e308, 0.0, "experiment.n_list entry 2 with experiment.t = 1e+308 gives"),
        (
            64, 1.0, 200001.0,
            "model.jumps.intensity = 200001.0 with experiment.t = 1.0 expects 200001 jumps per "
            "path, above the budget 200000",
        ),
        (64, 2.5, 1e5, "model.jumps.intensity = 100000.0 with experiment.t = 2.5 expects 250000"),
    ],
)
def test_size_budgets_exit_1(tmp_path, capsys, n, t, intensity, expected):
    doc = jump_clt_doc(kind="LLN", n=n, intensity=intensity)
    doc["experiment"]["t"] = t
    doc["io"] = {"output_dir": str(tmp_path / "out")}
    rc = main(["verify-lln", "--config", str(write_config(tmp_path, doc))])
    first = capsys.readouterr().err.splitlines()[0]
    assert rc == 1
    assert first.startswith("error: ") and expected in first
    assert not (tmp_path / "out").exists()


def test_gaussian_bounded_polynomial_kernel_passes_verify_clt(tmp_path):
    # (1 + x^2/2) exp(-x^2/2) on the scaled coordinate is admissible under MixedCLT
    kernel = (
        "d=2 l=1 p=0.5 q=4.0 regime=MixedCLT L=(product (poly_even 0 1.0 0.5) (gauss_bump 0.5 0))"
    )
    doc = jump_clt_doc(kind="CLT_mixed", reps=3, n=64, kernel=kernel)
    doc["io"] = {"output_dir": str(tmp_path / "out")}
    assert main(["verify-clt", "--config", str(write_config(tmp_path, doc))]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["kind"] == "CLT_mixed" and report["tables"]["per_n"]["64"]["reps"] == 3


def test_size_budgets_admit_their_bounds():
    # parsed only: a path at either bound is allowed, nothing is simulated
    doc = jump_clt_doc(kind="LLN", n=2**22, intensity=200000.0)
    assert parse_config(json.dumps(doc)).plan.n_list == (2**22,)
    doc["experiment"].update(n_list=[2**21], t=2.0)
    doc["model"]["jumps"]["intensity"] = 100000.0
    assert parse_config(json.dumps(doc)).plan.t == 2.0


def test_memory_error_exits_2_with_one_line(tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 763. MiB for an array with shape (100000000,)")

    monkeypatch.setattr("uvstat.cli.run_plan", exhausted)
    doc = jump_clt_doc(kind="LLN", reps=2, n=64)
    doc["io"] = {"output_dir": str(tmp_path / "out")}
    cfgfile = write_config(tmp_path, doc)
    assert main(["verify-lln", "--config", str(cfgfile)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "runtime error: out of memory (Unable to allocate 763. MiB for an array with shape "
        "(100000000,))"
    ]
    assert not (tmp_path / "out").exists()

    def bare(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("uvstat.cli.simulate_path", bare)
    assert main(["simulate", "--config", str(cfgfile)]) == 2
    assert capsys.readouterr().err.splitlines() == ["runtime error: out of memory"]
    assert not (tmp_path / "out").exists()


def test_simulate_binary_matches_json(tmp_path):
    doc = jump_clt_doc(kind="LLN", reps=2, n=128)
    doc["io"] = {"output_dir": str(tmp_path / "out")}
    cfgfile = write_config(tmp_path, doc)
    assert main(["simulate", "--config", str(cfgfile), "--format", "binary"]) == 0
    assert main(["simulate", "--config", str(cfgfile), "--format", "json"]) == 0
    back = path_from_binary((tmp_path / "out" / "path.bin").read_bytes())
    ref = path_from_json((tmp_path / "out" / "path.json").read_text(encoding="utf-8"))
    assert back.n == 128 and back.seed == 7
    assert back.config == ref.config == parse_config(cfgfile.read_text()).plan.model
    assert back.jumps == ref.jumps and len(back.jumps) > 0
    for name in ("x_grid", "sigma_grid", "w_increments", "w_before_jump"):
        np.testing.assert_array_equal(getattr(back, name), getattr(ref, name))


# sha256 of report.json and errors.csv for each shipped config at its own seed
SHIPPED_DIGESTS = {
    "clt_jump.cfg": (
        "f35d79447e46cc159413d1834e4f0f86aa129a5e6bf273a252d9b704fc3a09fa",
        "f667f1b9522219e2cfc34f9cd8bb584b8a3101b93262db57d0d319fa4308591d",
    ),
    "clt_mixed.cfg": (
        "7a56d1ea30c304c1e862fbd9dbe5fc77b4f567cfbef1bfde86bd4d62f501b153",
        "9aa0f4c01225b369c85823190f3962457495fa670f3f1c1d5e1bb06517365e4a",
    ),
    "grid_test.cfg": (
        "888f54dc8ec7d6e6387f48562ffabf7a371245b59c18b4c801e3a79cdaf38952",
        "8e5ab6fc055561dd29997819946b996b1a4c28990eb0fe4ac6e6aca1ee74a969",
    ),
    "lln_jump.cfg": (
        "a5217ac49943e48ad591eb7489f4c8e083e139274bc60788ab1d2b782129bd41",
        "772447cf6b736defa7c0e5851f487573bdf27d4543e31dfd576e8cd43a6d172e",
    ),
}
SUBCOMMAND = {"CLT_jump": "verify-clt", "CLT_mixed": "verify-clt", "GRID": "grid-test", "LLN": "verify-lln"}


@pytest.mark.parametrize("cfgfile", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_reports_byte_identical(cfgfile, tmp_path, capsys):
    kind = json.loads(cfgfile.read_text(encoding="utf-8"))["experiment"]["kind"]
    rc = main([SUBCOMMAND[kind], "--config", str(cfgfile), "--output", str(tmp_path)])
    assert rc == 0
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("report.json", "errors.csv")
    )
    assert digests == SHIPPED_DIGESTS[cfgfile.name]
