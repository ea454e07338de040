"""Config parsing, canonical round-trips, and the CLI surface."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import uvstat.kernels
from uvstat.cli import main
from uvstat.config import ConfigError, canonical_text, config_from_dict, parse_beta_grid, parse_config

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


ITOSM_VOL = {
    "kind": "ItoSM", "sigma0": 0.8, "tilde_b": -0.1, "tilde_sigma": 0.25, "tilde_v": 0.5,
    "floor_eps": 0.001,
}
UNIFORM_JUMPS = {"intensity": 3.0, "size_dist": {"type": "Uniform", "a": -1.5, "b": 0.5}, "max_abs": 2.0}
TRUNCNORMAL_JUMPS = {
    "intensity": 3.0,
    "size_dist": {"type": "TruncNormal", "mu": 0.25, "s": 1.0, "min_abs": 0.5},
    "max_abs": 2.0,
}


@pytest.mark.parametrize(
    "model",
    [
        {},
        {"vol": ITOSM_VOL, "reject_bound_excursions": True},
        {"jumps": UNIFORM_JUMPS, "reject_bound_excursions": False},
        {"vol": ITOSM_VOL, "jumps": TRUNCNORMAL_JUMPS, "reject_bound_excursions": True},
    ],
    ids=["atoms_constant", "atoms_itosm_reject", "uniform_constant_keep", "truncnormal_itosm_reject"],
)
def test_minimal_config_round_trip(model):
    doc = config_doc()
    doc["model"].update(model)
    cfg = parse_config(json.dumps(doc))
    canon = canonical_text(cfg)
    # every field given is decoded, not replaced by its default
    assert all(json.loads(canon)["model"][key] == value for key, value in model.items())
    assert parse_config(canon) == cfg
    assert canonical_text(parse_config(canon)) == canon


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


LLN_JUMP_CFG = Path(__file__).resolve().parent.parent / "configs" / "lln_jump.cfg"


def _small_lln_doc(tmp_path):
    """configs/lln_jump.cfg shrunk to n_list [16, 32] and 2 reps, writing under tmp_path."""
    doc = json.loads(LLN_JUMP_CFG.read_text(encoding="utf-8"))
    doc["experiment"].update(n_list=[16, 32], reps=2)
    doc["io"] = {"output_dir": str(tmp_path / "out")}
    return doc


@pytest.mark.parametrize(
    "name, value, readers",
    [
        ("require_jumps", 3, "GRID and ZTRUNC"),
        ("m_list", [0, 1], "ZTRUNC"),
        ("beta_grid", [0.5, 1.0], "GRID"),
        ("collect_samples", True, "CLT_jump and CLT_mixed"),
    ],
    ids=["require_jumps", "m_list", "beta_grid", "collect_samples"],
)
def test_plan_field_the_kind_never_reads_exits_1(tmp_path, capsys, name, value, readers):
    doc = _small_lln_doc(tmp_path)
    doc["experiment"][name] = value
    rc = main(["verify-lln", "--config", str(write_config(tmp_path, doc))])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"error: invalid experiment plan: {name} = " in err
    assert f"is read only by {readers} experiments, not by LLN" in err
    assert not (tmp_path / "out").exists()


def test_grid_test_beta_on_a_non_grid_config_exits_1(tmp_path, capsys):
    cfgfile = write_config(tmp_path, _small_lln_doc(tmp_path))
    rc = main(["grid-test", "--config", str(cfgfile), "--beta", "0.5:1.0:0.5"])
    assert rc == 1
    assert "beta_grid = (0.5, 1.0) is read only by GRID experiments, not by LLN" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    # the grid_test.cfg grid: 151 decimal values, bit for bit
    assert [v.hex() for v in grid] == [round(0.5 + 0.01 * k, 2).hex() for k in range(151)]
    assert len(parse_beta_grid("0.0001:1.0:0.0001")) == 10_000
    with pytest.raises(ConfigError, match="more than 10000 entries"):
        parse_beta_grid("0:1.0:0.0001")
    # stop's pad and the rounding are relative to the values: tiny betas keep their grid
    assert parse_beta_grid("1e-306:1e-306:1") == (1e-306,)
    assert parse_beta_grid("1e-300:2e-300:1e-300") == (1e-300, 2e-300)
    assert parse_beta_grid("1e-300:5e-300:1e-300") == (1e-300, 2e-300, 3e-300, 4e-300, 5e-300)


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


def test_seed_override_checks_admissibility_once(tmp_path, monkeypatch):
    # --seed rebuilds the plan around the same kernel, whose report is kept
    built = []
    report_cls = uvstat.kernels.AdmissibilityReport

    def counted(*args, **kwargs):
        built.append(report_cls(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr("uvstat.kernels.AdmissibilityReport", counted)
    doc = jump_clt_doc(reps=2, n=64)
    doc["io"] = {"output_dir": str(tmp_path / "out")}
    assert main(["verify-clt", "--config", str(write_config(tmp_path, doc)), "--seed", "3"]) == 0
    assert len(built) == 1 and built[0].passed


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


# sha256 of report.json and errors.csv that grid-test writes for GRID_CSV_TEXT
GRID_CSV_TEXT = "increment\n" + "".join(f"{((k * 37) % 101 - 50) / 40}\n" for k in range(200))
GRID_CSV_DIGESTS = (
    "c06d2652fa4f39ac3171b40f2b28d17fb695ff511373c1687d06eee802d6e9db",
    "711dfc2964d9faea857f16eaa4e1e1a38477b468dc8b6115882c23461a0ca054",
)


def test_grid_test_on_csv_bytes_pinned_and_no_manifest(tmp_path, capsys):
    ticks = tmp_path / "ticks.csv"
    ticks.write_text(GRID_CSV_TEXT, encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["grid-test", "--input", str(ticks), "--beta", "0.25:3.0:0.25", "--output", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == [
        "grid scan over 12 beta values; minimizer beta = 2.25",
        f"wrote {out / 'report.json'}",
        f"wrote {out / 'errors.csv'}",
    ]
    assert sorted(p.name for p in out.iterdir()) == ["errors.csv", "report.json"]
    digests = tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("report.json", "errors.csv")
    )
    assert digests == GRID_CSV_DIGESTS


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


@pytest.mark.parametrize("power", ["-1", "nan", "inf"])
def test_stat_pv_bad_power_exits_1(tmp_path, capsys, power):
    cfgfile = write_config(tmp_path, jump_clt_doc(kind="LLN", reps=2, n=64))
    rc = main(["stat", "--config", str(cfgfile), "--stat", "PV", "--power", power])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].endswith(f"got {float(power)}")


def test_stat_on_csv_input(tmp_path, capsys):
    ticks = tmp_path / "ticks.csv"
    ticks.write_text("1.0\n-2.0\n", encoding="utf-8")
    doc = jump_clt_doc(kind="LLN", kernel="d=2 l=2 p=4.0,4.0 q=- regime=JumpCLT L=one")
    cfgfile = write_config(tmp_path, doc)
    assert main(["stat", "--config", str(cfgfile), "--stat", "V", "--input", str(ticks)]) == 0
    doc_out = json.loads(capsys.readouterr().out)
    assert set(doc_out) == {"kind", "value", "window", "kernel", "source"}
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


@pytest.mark.parametrize("command", ["stat", "limits", "grid-test"])
def test_grid_sin_frequency_overflow_exits_1(tmp_path, capsys, command):
    # 2 pi / 1e-310 is inf: the kernel cannot be expanded, so it is refused
    kernel = "d=2 l=2 p=4.0,4.0 q=- regime=GridTest L=(grid_sin 1e-310 0 1)"
    doc = jump_clt_doc(kind="GRID", kernel=kernel)
    doc["experiment"]["beta_grid"] = [0.5, 1.0]
    doc["io"] = {"output_dir": str(tmp_path / "out")}
    rc = main([command, "--config", str(write_config(tmp_path, doc))])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [
        "error: invalid kernel text: grid_sin requires a finite beta > 0 and frequency 2*pi/beta, got 1e-310"
    ]
    assert not (tmp_path / "out").exists()


def _overflow_doc(tmp_path, kind, kernel):
    """Jumps of size 100 under a grid_sin frequency near the float maximum: cos/sin of inf."""
    doc = jump_clt_doc(kind=kind, reps=1, n=64, kernel=kernel)
    doc["model"]["jumps"]["size_dist"]["atoms"] = [[100.0, 1.0]]
    doc["model"]["jumps"]["max_abs"] = 200.0
    doc["model"]["bound_A"] = 1000.0
    doc["io"] = {"output_dir": str(tmp_path / "out")}
    return doc


@pytest.mark.parametrize(
    "argv, key",
    [
        (["stat", "--stat", "V", "--input", "data.csv"], "stat.value"),
        (["limits"], "limits.limit"),
        (["grid-test"], "report.tables.min_normalized"),
    ],
    ids=["stat", "limits", "grid-test"],
)
def test_non_finite_output_exits_2(tmp_path, capsys, monkeypatch, argv, key):
    # the frequency is finite but overflows on the data: NaN is refused, not printed
    monkeypatch.chdir(tmp_path)
    Path("data.csv").write_text("100.0\n", encoding="utf-8")
    if argv[0] == "grid-test":
        doc = _overflow_doc(tmp_path, "GRID", None)
        doc["experiment"]["beta_grid"] = [1e-306, 0.5]
    else:
        kernel = "d=2 l=2 p=4.0,4.0 q=- regime=JumpLLN L=(grid_sin 1e-306 0 1)"
        doc = _overflow_doc(tmp_path, "LLN", kernel)
    rc = main(argv + ["--config", str(write_config(tmp_path, doc))])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"runtime error: {key.split('.')[0]} holds a non-finite number at {key}; nothing written"
    ]
    assert not (tmp_path / "out").exists()


def test_limits_overflowing_quadrature_exits_2(tmp_path, capsys):
    # grid_sin at beta = 1e-305 on ItoSM paths: c sigma u overflows inside the
    # Gaussian-moment quadrature, which fails with one line
    doc = json.loads((BENCH_WORKLOADS / "mixed_trig_lln.cfg").read_text(encoding="utf-8"))
    doc["kernel"] = "d=2 l=1 p=0.5 q=4.0 regime=MixedLLN L=(grid_sin 1e-305 0 1)"
    doc["io"] = {"output_dir": str(tmp_path / "out")}
    rc = main(["limits", "--config", str(write_config(tmp_path, doc))])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("runtime error: gaussian moment quadrature failed for factor ")
    assert lines[0].endswith("(math domain error)")


def test_non_finite_output_prints_no_numpy_warning(tmp_path):
    # a fresh interpreter, warnings shown: numpy's overflow in cos/sin stays silent
    (tmp_path / "data.csv").write_text("100.0\n", encoding="utf-8")
    kernel = "d=2 l=2 p=4.0,4.0 q=- regime=JumpLLN L=(grid_sin 1e-306 0 1)"
    config = write_config(tmp_path, _overflow_doc(tmp_path, "LLN", kernel))
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from uvstat.cli import main; sys.exit(main(sys.argv[2:]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(src), "stat", "--stat", "V", "--input", "data.csv",
         "--config", str(config)],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
        env={**os.environ, "PYTHONWARNINGS": "default"},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "runtime error: stat holds a non-finite number at stat.value; nothing written"
    ]


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


@pytest.mark.parametrize(
    "command", [["verify-lln"], ["simulate"], ["stat", "--stat", "V"], ["limits"]], ids=lambda c: c[0]
)
def test_n_list_entry_without_a_grid_step_exits_1(tmp_path, capsys, command):
    # floor(1 * 0.5) = 0: the first n has no grid step, though the last has two
    doc = jump_clt_doc(kind="LLN", kernel="d=1 l=1 p=4.0 q=- regime=JumpLLN L=one")
    doc["experiment"].update(n_list=[1, 4], t=0.5)
    doc["io"] = {"output_dir": str(tmp_path / "out")}
    rc = main([command[0], "--config", str(write_config(tmp_path, doc)), *command[1:]])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert [line for line in err if line.startswith("error")] == [
        "error: invalid experiment plan: n_list entry 1 has no grid step at t = 0.5"
    ]
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


def test_simulate_writes_the_last_n_at_the_seed_given(tmp_path, capsys):
    # the plan's model at its last n_list entry, the seed exactly as given on
    # the command line (2^63 included); path.json is the one format
    doc = jump_clt_doc(kind="LLN", reps=2, n=128)
    doc["experiment"]["n_list"] = [64, 128]
    doc["io"] = {"output_dir": str(tmp_path / "out")}
    cfgfile = write_config(tmp_path, doc)
    assert main(["simulate", "--config", str(cfgfile), "--seed", str(2**63)]) == 0
    written = json.loads((tmp_path / "out" / "path.json").read_text(encoding="utf-8"))
    assert (written["n"], written["seed"]) == (128, 2**63)
    assert config_from_dict(written["model"]) == parse_config(cfgfile.read_text()).plan.model
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfgfile), "--format", "binary"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: uvstat") and "unrecognized arguments: --format binary" in err


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
        "b662d6003626888fc12146151dd6761aaecc276d1c1f912d2e65052bb2ecf8d8",
        "83ac292655ed9e8e2f0cbe9fd46f4bd04abed1a40ba821241537ec94103ede11",
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


# sha256 of the path.json that simulate writes for clt_mixed.cfg at its own seed
SHIPPED_PATH_DIGEST = "38f198738f24b85242cde479e4ca21a7400846b8fb19385df52d5dc43efad911"


def test_shipped_config_path_json_byte_identical(tmp_path, capsys):
    cfgfile = next(c for c in CONFIGS if c.name == "clt_mixed.cfg")
    assert main(["simulate", "--config", str(cfgfile), "--output", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "path.json").read_bytes()).hexdigest() == SHIPPED_PATH_DIGEST


# run in a fresh interpreter; prints whether importing uvstat.cli loaded
# numpy.random, the scipy submodules loaded after the numpy-only routes, then
# after the command given on the command line
COLD_START_PROBE = """
import contextlib, io, json, sys
from pathlib import Path
root, out, last = Path(sys.argv[1]), sys.argv[2], sys.argv[3:]
sys.path.insert(0, str(root / "src"))
import uvstat, uvstat.cli
random_on_import = "numpy.random" in sys.modules
from uvstat.config import parse_config
for cfg in sorted(root.glob("configs/*.cfg")) + sorted(root.glob("bench/workloads/*.cfg")):
    parse_config(cfg.read_text(encoding="utf-8"))
heavy = ("scipy.stats", "scipy.integrate", "scipy.special")
def loaded():
    return [m for m in heavy if m in sys.modules]
def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert uvstat.cli.main([*argv, "--output", out]) == 0, argv
clt_mixed = str(root / "configs" / "clt_mixed.cfg")
run("simulate", "--config", clt_mixed)
run("stat", "--config", clt_mixed, "--stat", "Y")
run("limits", "--config", clt_mixed)
run("verify-lln", "--config", str(root / "configs" / "lln_jump.cfg"))
numpy_only = loaded()
run(*last)
print(json.dumps([random_on_import, numpy_only, loaded()]))
"""


def _cold_start(tmp_path, *command) -> list:
    """The heavy scipy submodules loaded by the command after the numpy-only routes.

    Importing uvstat.cli loads no numpy.random: the generators are built
    where a path or a draw is seeded.
    """
    root = Path(__file__).resolve().parent.parent
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START_PROBE, str(root), str(out), *command],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    random_on_import, numpy_only, after = json.loads(proc.stdout)
    assert not random_on_import
    assert numpy_only == []
    return after


def _ks_ran(tmp_path) -> bool:
    """Whether every per-n table of the probe's last report holds a KS p-value."""
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    return all("ks_pvalue" in table for table in report["tables"]["per_n"].values())


# the KS tests of verify-clt and rnp-check run on math and numpy (uvstat.ks);
# scipy.special loads only where a two-sample p-value takes a smirnov route.
# The KS tests ran, so an empty list shows that they loaded no scipy submodule
def test_cold_start_loads_scipy_submodules_only_where_they_run(tmp_path):
    clt_jump = Path(__file__).resolve().parent.parent / "configs" / "clt_jump.cfg"
    assert _cold_start(tmp_path, "verify-clt", "--config", str(clt_jump)) == []
    assert _ks_ran(tmp_path)


def test_cold_start_of_the_clt_mixed_workload_loads_no_scipy_submodule(tmp_path):
    clt_mixed = Path(__file__).resolve().parent.parent / "bench" / "workloads" / "clt_mixed.cfg"
    assert _cold_start(tmp_path, "verify-clt", "--config", str(clt_mixed)) == []
    assert _ks_ran(tmp_path)


def test_cold_start_of_rnp_check_loads_no_scipy_submodule(tmp_path):
    doc = config_doc()
    doc["model"]["jumps"]["intensity"] = 3.0
    doc["experiment"] = {"kind": "RNP", "n_list": [256], "reps": 20}
    cfgfile = tmp_path / "rnp.cfg"
    cfgfile.write_text(json.dumps(doc), encoding="utf-8")
    assert _cold_start(tmp_path, "rnp-check", "--config", str(cfgfile)) == []
    assert _ks_ran(tmp_path)


# the grid_sin kernel's Gaussian moments run one QUADPACK QAGIE per grid
# sigma, called from scipy's _quadpack extension without scipy.integrate
def test_cold_start_of_the_mixed_trig_lln_workload_loads_no_scipy_submodule(tmp_path):
    cfgfile = Path(__file__).resolve().parent.parent / "bench" / "workloads" / "mixed_trig_lln.cfg"
    assert "grid_sin" in json.loads(cfgfile.read_text(encoding="utf-8"))["kernel"]
    assert _cold_start(tmp_path, "verify-lln", "--config", str(cfgfile)) == []


BENCH_WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads"


@pytest.mark.parametrize(
    "workload, command",
    [("clt_mixed", "verify-clt"), ("mixed_trig_lln", "verify-lln"), ("clt_jump", "verify-clt")],
)
def test_benchmark_plans_match_pinned_digests(workload, command, tmp_path, capsys):
    # entry k of digests.json is the report.json sha256 at CLI seed k
    pinned = json.loads((BENCH_WORKLOADS / "digests.json").read_text(encoding="utf-8"))
    cfgfile = BENCH_WORKLOADS / f"{workload}.cfg"
    for seed in range(4):
        argv = [command, "--config", str(cfgfile), "--seed", str(seed), "--output", str(tmp_path)]
        assert main(argv) == 0
        digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
        assert digest == pinned[workload][seed], f"{workload} at plan seed {seed}"


# ---------------------------------------------------------------------------
# fuzzed exit-code contract
# ---------------------------------------------------------------------------


def _tiny(cfgfile):
    """A shipped config shrunk to a fast run: n up to 32, at most 3 reps."""
    doc = json.loads(cfgfile.read_text(encoding="utf-8"))
    exp = doc["experiment"]
    exp["n_list"] = [32 >> k for k in reversed(range(len(exp["n_list"])))]
    exp["reps"] = min(exp["reps"], 3)
    if "beta_grid" in exp:
        exp["beta_grid"] = "0.5:2.0:0.25"
    return doc


FUZZ_BASES = [_tiny(p) for p in CONFIGS]
_DELETE = object()
# replacement values for one field; 1e300 only where it cannot size a run
FIELD_VALUES = (
    None, True, "x", [], {}, -1, 0, 1, 2, 3, 0.25, 0.5, 1.5, 2.5, 4.0, 1e300,
    float("nan"), float("inf"), _DELETE,
)
SIZE_KEYS = {"n_list", "reps", "t", "intensity", "beta_grid", "require_jumps", "m_list"}
KERNEL_TOKENS = (
    "0", "-1", "0.5", "4.0", "1e300", "nan", "inf", "-", "", "x", "(", ")",
    "d=1", "d=2", "d=3", "l=0", "l=1", "l=2", "p=0.5", "p=4.0", "p=4.0,4.0", "q=-", "q=4.0",
    "q=4.0,4.0", "regime=JumpLLN", "regime=JumpCLT", "regime=MixedLLN", "regime=MixedCLT",
    "regime=GridTest", "L=one", "one", "grid_sin", "gauss_bump", "poly_even", "sum", "product",
    "(grid_sin 1.0 0 1)", "(gauss_bump 0.5 0)", "(poly_even 0 1.0 0.5)",
)
_TOKEN = re.compile(r"[()]|[^\s()]+")


def _field_paths(node, prefix=()):
    """Every key or index path into a config document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _field_paths(child, prefix + (key,))


@st.composite
def mutated_configs(draw):
    """(command, config document) with one field or one kernel token changed."""
    base = draw(st.sampled_from(FUZZ_BASES))
    doc = json.loads(json.dumps(base))
    own = SUBCOMMAND[doc["experiment"]["kind"]]
    command = draw(st.sampled_from((own, own, "stat", "limits", "simulate")))
    if doc["kernel"] is not None and draw(st.booleans()):
        text = doc["kernel"]
        start, stop = draw(st.sampled_from([m.span() for m in _TOKEN.finditer(text)]))
        doc["kernel"] = text[:start] + draw(st.sampled_from(KERNEL_TOKENS)) + text[stop:]
        return command, doc
    path = draw(st.sampled_from(sorted(_field_paths(doc), key=repr)))
    value = draw(st.sampled_from(FIELD_VALUES))
    if value == 1e300 and SIZE_KEYS.intersection(path):
        value = 3  # keeps every run inside the parse-time size budgets
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return command, doc


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=mutated_configs())
def test_fuzzed_configs_keep_the_exit_code_contract(case):
    command, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            Path("run.cfg").write_text(json.dumps(doc), encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main([command, "--config", "run.cfg"])
            left = sorted(p.relative_to(tmp).as_posix() for p in Path(tmp).rglob("*"))
            reports = [Path(tmp, name).read_text() for name in left if name.endswith("report.json")]
        finally:
            os.chdir(cwd)
    assert rc in (0, 1, 2)
    if rc != 0:
        assert sum("error:" in line for line in err.getvalue().splitlines()) == 1, err.getvalue()
    if rc == 1:
        assert left == ["run.cfg"]
    if rc == 0:
        assert not any("NaN" in text or "Infinity" in text for text in reports + [out.getvalue()])
