import json

import pytest

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
        ["abel-check", "--gamma", "1", "--a-list", "0.1,wat"],
        ["abel-check", "--gamma", "1", "--a-list", "2.0"],
    ],
)
def test_abel_check_validation_exits_2(argv):
    assert main(argv) == 2


# ------------------------------------------------------------------ shell


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
