import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import taylorzeros
from taylorzeros.cli import ConfigError, main, parse_config_file, parse_slow_spec
from taylorzeros.coeffs import Constant, LogLog, LogPower

TINY = """\
# comment line
gamma = 1.0
q = 0.5          # inline comment
n_min = 1
n_max = 2
trials = 5
master_seed = 7
"""


@pytest.fixture()
def tiny_cfg(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text(TINY)
    return p


# ------------------------------------------------------------- config file


def test_parse_config_file(tiny_cfg):
    cfg = parse_config_file(tiny_cfg)
    assert cfg.gamma == 1.0 and cfg.q == 0.5
    assert cfg.n_min == 1 and cfg.n_max == 2
    assert cfg.trials == 5 and cfg.master_seed == 7
    assert cfg.eta == 0.02  # default fills in


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("q = abc", "q"),
        ("wavelength = 3", "unknown key"),
        ("gamma 2.0", "key = value"),
        ("law = cauchy", "law"),
        ("slow = logpow:nan", "slow"),
    ],
)
def test_parse_config_file_line_errors(tmp_path, line, fragment):
    p = tmp_path / "bad.cfg"
    p.write_text(f"gamma = 1.0\n{line}\n")
    with pytest.raises(ConfigError) as exc:
        parse_config_file(p)
    assert ":2:" in str(exc.value)
    assert fragment in str(exc.value)


def test_parse_config_requires_gamma(tmp_path):
    p = tmp_path / "no_gamma.cfg"
    p.write_text("q = 0.5\n")
    with pytest.raises(ConfigError, match="gamma"):
        parse_config_file(p)


def test_parse_config_duplicate_key(tmp_path):
    p = tmp_path / "dup.cfg"
    p.write_text("gamma = 1.0\ngamma = 2.0\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_file(p)


def test_parse_slow_spec():
    assert parse_slow_spec("const") == Constant()
    assert parse_slow_spec("const:2.5") == Constant(2.5)
    assert parse_slow_spec("logpow:-0.5") == LogPower(-0.5)
    assert parse_slow_spec("loglog") == LogLog()
    for bad in ("quadratic", "logpow", "loglog:3", "const:x"):
        with pytest.raises(ValueError):
            parse_slow_spec(bad)


# --------------------------------------------------------------- simulate


def test_simulate_writes_artifacts(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["simulate", "--config", str(tiny_cfg), "--out", str(out)])
    assert code == 0
    for name in ("intervals.csv", "cumulative.csv", "report.json", "manifest.json"):
        assert (out / name).exists()
    stdout = capsys.readouterr().out
    assert "target=0.11032" in stdout
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert manifest["resolved_config"]["master_seed"] == 7


def test_simulate_rerun_is_byte_identical(tiny_cfg, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", "--config", str(tiny_cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(tiny_cfg), "--out", str(out2)]) == 0
    for name in ("intervals.csv", "cumulative.csv", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_seed_flag_overrides_config(tiny_cfg, tmp_path):
    out = tmp_path / "seeded"
    code = main(
        ["simulate", "--config", str(tiny_cfg), "--out", str(out), "--seed", "777"]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved_config"]["master_seed"] == 777


def test_simulate_validation_failure_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("gamma = 1.0\nq = 1.5\n")
    code = main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "q" in capsys.readouterr().err


@pytest.mark.parametrize("flags, seed", [([], 77), (["--seed", "5"], 5)])
def test_simulate_past_the_degree_cap_exits_1_naming_its_seed(tmp_path, capsys, flags, seed):
    # the preset at n_max = 23: tile 22 needs K = 2^27 terms, so the scan stops
    # while it is planned, before any weight vector is drawn
    p = tmp_path / "deep.cfg"
    p.write_text("gamma = 1.0\nn_max = 23\ntrials = 2\nmaster_seed = 77\n")
    code = main(["simulate", "--config", str(p), "--out", str(tmp_path / "o"), *flags])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("runtime failure: truncation_degree exceeded 134217728 terms")
    assert err.rstrip().endswith(f"(replay with --seed {seed})")


def test_simulate_missing_config_file_exits_2(tmp_path):
    code = main(["simulate", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2


def test_out_dir_env_override(tiny_cfg, tmp_path, monkeypatch):
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("TAYLORZEROS_OUT", str(env_dir))
    assert main(["simulate", "--config", str(tiny_cfg)]) == 0
    assert (env_dir / "intervals.csv").exists()
    # explicit flag wins over the environment
    flag_dir = tmp_path / "from-flag"
    assert main(["simulate", "--config", str(tiny_cfg), "--out", str(flag_dir)]) == 0
    assert (flag_dir / "intervals.csv").exists()


def test_simulate_rejects_jobs_flag(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "j"
    code = main(["simulate", "--config", str(tiny_cfg), "--out", str(out), "--jobs", "2"])
    assert code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------ gauss-oracle


def test_gauss_oracle_prints_target(capsys):
    code = main(["gauss-oracle", "--gamma", "1", "--a", "1", "--b", "535.4916",
                 "-M", "200", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "target=1.00000" in out


def test_gauss_oracle_writes_valid_report(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    from taylorzeros.reports import load_schema

    out = tmp_path / "go"
    code = main(["gauss-oracle", "--gamma", "2", "--a", "1", "--b", "20",
                 "-M", "50", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    jsonschema.validate(report, load_schema())
    assert report["kind"] == "gauss-oracle"
    assert (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["gauss-oracle", "--gamma", "1", "--a", "3", "--b", "2"],
        ["gauss-oracle", "--gamma", "1", "--a", "2", "--b", "2"],
        ["gauss-oracle", "--gamma", "0", "--a", "1", "--b", "2"],
        ["gauss-oracle", "--gamma", "1", "--a", "1", "--b", "2", "-M", "0"],
        ["gauss-oracle", "--gamma", "1", "--a", "1", "--b", "100", "-M", "50", "--eta", "-1"],
        ["gauss-oracle", "--gamma", "1", "--a", "1", "--b", "100", "-M", "50", "--eta", "0"],
        ["gauss-oracle", "--gamma", "inf", "--a", "1", "--b", "2", "-M", "5"],
        ["gauss-oracle", "--gamma", "1", "--a", "1", "--b", "inf", "-M", "5"],
    ],
)
def test_gauss_oracle_validation_exits_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_gauss_oracle_failed_factorization_exits_1(monkeypatch, capsys):
    # lags above 1 make the covariance indefinite
    monkeypatch.setattr(taylorzeros.gauss, "cov_y", lambda tau, gamma: 1.0 + np.abs(tau))
    code = main(["gauss-oracle", "--gamma", "1", "--a", "1", "--b", "20", "-M", "5",
                 "--seed", "7"])
    assert code == 1
    err = capsys.readouterr().err
    assert "jitter 1e-12" in err and "(replay with --seed 7)" in err


def test_gauss_oracle_grid_cap_is_runtime_failure(capsys):
    # valid input; the 690.776-wide window at this eta needs 1.1e6 grid points
    code = main(["gauss-oracle", "--gamma", "1", "--a", "1", "--b", "1e300",
                 "--eta", "0.0001", "-M", "5"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("runtime failure: u-grid [0, 690.776] at step 0.000628319: "
                          "over 10000 points")


def test_gauss_oracle_wide_window_has_finite_target(capsys):
    # b / a overflows here; log(b) - log(a) = 600 log(10) does not
    code = main(["gauss-oracle", "--gamma", "1", "--a", "1e-300", "--b", "1e300",
                 "--eta", "0.5", "-M", "5"])
    assert code == 0
    target = float(capsys.readouterr().out.split("target=")[1].split()[0])
    assert target == pytest.approx(600.0 * math.log(10.0) / (2.0 * math.pi), abs=1e-5)


# ------------------------------------------------------------ diagnostics


def test_diagnostics_default_window(capsys):
    code = main(["diagnostics", "--gamma", "1", "--q", "0.5",
                 "--n-min", "1", "--n-max", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "largest-weight bound holds from n0=2" in out


@pytest.mark.parametrize("n", ["26", "1100"])
def test_diagnostics_skipped_rows_still_exit_0(n, capsys):
    code = main(["diagnostics", "--gamma", "1", "--q", "0.5", "--n-min", n, "--n-max", n])
    assert code == 0
    assert "skipped" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["diagnostics", "--q", "1.5"],
        ["diagnostics", "--gamma", "-2"],
        ["diagnostics", "--n-min", "4", "--n-max", "2"],
        ["diagnostics", "--slow", "quadratic"],
    ],
)
def test_diagnostics_validation_exits_2(argv):
    assert main(argv) == 2


def test_diagnostics_undersized_K_is_runtime_failure(capsys):
    # valid input; the fixed K(n) = ceil(40 n q^-n) leaves too much tail at gamma=60
    assert main(["diagnostics", "--gamma", "60", "--n-min", "1", "--n-max", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("runtime failure: K=80 keeps tail mass")


def test_diagnostics_large_gamma_exits_0(capsys):
    # c_k^2 overflows a float at gamma=150, n=6, 7; the weights do not, so
    # the exact invariants hold (exit 0) and no row reads inf or nan
    assert main(["diagnostics", "--gamma", "150", "--n-min", "5", "--n-max", "7"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:5]
    assert len(rows) == 3 and not any("inf" in r or "nan" in r for r in rows)


# -------------------------------------------------------------- abel-check


def test_abel_check_default_list(capsys):
    assert main(["abel-check", "--gamma", "1"]) == 0
    out = capsys.readouterr().out
    assert "nonincreasing" in out


def test_abel_check_single_point(capsys):
    assert main(["abel-check", "--gamma", "2", "--a-list", "1e-3"]) == 0
    assert "trend check skipped" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["abel-check", "--gamma", "-1"],
        ["abel-check", "--gamma", "200", "--a-list", "0.1"],  # Gamma(200) overflows
        ["abel-check", "--gamma", "1", "--a-list", "0.1,wat"],
        ["abel-check", "--gamma", "1", "--a-list", "2.0"],
        ["abel-check", "--gamma", "1", "--slow", "const:inf"],
        ["abel-check", "--gamma", "1", "--slow", "logpow:inf"],
        ["abel-check", "--gamma", "1", "--slow", "logpow:nan"],
    ],
)
def test_abel_check_validation_exits_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_abel_check_large_gamma_gives_finite_ratios(capsys):
    # k^149 overflows a float past k ~ 1e2; the terms c_k^2 x^(2k) do not
    assert main(["abel-check", "--gamma", "150", "--a-list", "0.1,0.01"]) == 0
    ratios = [float(s.split()[0]) for s in capsys.readouterr().out.split("ratio=")[1:]]
    assert len(ratios) == 2 and all(math.isfinite(r) and r > 0.0 for r in ratios)


@pytest.mark.parametrize(
    "argv",
    [
        ["abel-check", "--gamma", "150"],  # v(1-a) overflows from a = 1e-3 on
        ["diagnostics", "--gamma", "150", "--n-min", "8", "--n-max", "8"],
    ],
)
def test_overflowing_variance_is_runtime_failure(argv):
    # a fresh interpreter shows what a user sees: the exit code, no traceback,
    # and no numpy RuntimeWarning (which -W error turns into a traceback).
    # abel-check works with log v, so it gets through; diagnostics needs v itself
    src = str(Path(taylorzeros.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "taylorzeros", *argv],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert "Traceback" not in proc.stderr
    if argv[0] == "abel-check":
        assert proc.returncode == 0, proc.stderr
        ratios = [float(s.split()[0]) for s in proc.stdout.split("ratio=")[1:]]
        assert len(ratios) == 4 and all(math.isfinite(r) and r > 0.0 for r in ratios)
    else:
        assert proc.returncode == 1
        assert proc.stderr.startswith("runtime failure: v(x) overflows a float")


# ---------------------------------------------------- extreme slow factors

# L = (1 + log t)^(+-400) leaves float range from t ~ 134 on, while log L does
# not; every command exits 0 or 1, never 2, and no warning is raised


@pytest.mark.filterwarnings("error")
def test_simulate_logpow_400_is_runtime_failure(tmp_path, capsys):
    preset = Path(__file__).parents[1] / "presets" / "gamma1_q05_rademacher.cfg"
    text = preset.read_text().replace("trials = 2000", "trials = 20")
    p = tmp_path / "logpow.cfg"
    p.write_text(text.replace("slow = const", "slow = logpow:400"))
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(
        "runtime failure: v(x) overflows a float at x=0.9375")


@pytest.mark.filterwarnings("error")
def test_abel_check_logpow_400_exits_0(capsys):
    assert main(["abel-check", "--gamma", "1", "--slow", "logpow:400"]) == 0
    ratios = [float(s.split()[0]) for s in capsys.readouterr().out.split("ratio=")[1:]]
    assert len(ratios) == 4 and all(math.isfinite(r) and r > 0.0 for r in ratios)


@pytest.mark.filterwarnings("error")
def test_diagnostics_logpow_minus_400_exits_0(capsys):
    args = ["diagnostics", "--gamma", "1", "--slow", "logpow:-400", "--n-max", "4"]
    assert main(args) == 0
    rows = capsys.readouterr().out.splitlines()[2:6]
    assert len(rows) == 4 and not any("inf" in r or "nan" in r for r in rows)


@pytest.mark.filterwarnings("error")
def test_abel_check_ratio_past_float_range_names_a(capsys):
    # at a = 1e-3 log v(1-a) exceeds the log asymptote by about 821
    assert main(["abel-check", "--gamma", "1", "--slow", "logpow:-400"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("runtime failure: the ratio overflows a float at a=0.001: log ratio 8")


# ------------------------------------------------------------------ shell


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
