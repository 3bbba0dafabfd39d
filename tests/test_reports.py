import csv
import io
import json
import math

import pytest

from taylorzeros.experiments import (
    ExperimentConfig,
    run_cumulative,
    run_gaussian_oracle,
    run_interval_experiment,
)
from taylorzeros.reports import (
    CUMULATIVE_CSV_COLUMNS,
    INTERVAL_CSV_COLUMNS,
    build_report,
    cumulative_csv_text,
    interval_csv_text,
    load_schema,
    manifest_json_text,
    report_json_text,
)


@pytest.fixture(scope="module")
def cfg():
    return ExperimentConfig(gamma=1.0, n_min=4, n_max=5, trials=12, master_seed=31)


@pytest.fixture(scope="module")
def estimates(cfg):
    return run_interval_experiment(cfg)


def test_interval_csv_schema_and_roundtrip(cfg, estimates):
    text = interval_csv_text(cfg, estimates)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == INTERVAL_CSV_COLUMNS
    assert rows[0] == [
        "n", "q", "gamma", "law", "M", "mean", "sd", "stderr",
        "ci_lo", "ci_hi", "unstable_frac", "target",
    ]
    assert len(rows) == 1 + len(estimates)
    first = rows[1]
    assert int(first[0]) == 4 and first[3] == "rademacher"
    # repr round-trips floats exactly
    assert float(first[5]) == estimates[0].mean_count
    assert float(first[7]) == estimates[0].stderr


def test_interval_csv_is_pure_function_of_results(cfg, estimates):
    assert interval_csv_text(cfg, estimates) == interval_csv_text(cfg, estimates)


def test_cumulative_csv(cfg):
    rep = run_cumulative(cfg, [0.5, 0.75])
    text = cumulative_csv_text(rep)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == CUMULATIVE_CSV_COLUMNS
    assert len(rows) == 3
    assert float(rows[1][0]) == 0.5
    assert float(rows[2][1]) == pytest.approx(2 * math.log(2))


def test_build_report_rejects_unknown_kind(cfg):
    for kind in ("frobnicate", "universality"):  # nothing writes a universality report
        with pytest.raises(ValueError):
            build_report(kind, cfg.to_dict())


def test_report_json_handles_nan_without_bare_tokens(cfg):
    est = run_interval_experiment(ExperimentConfig(
        gamma=1.0, n_min=4, n_max=4, trials=1, master_seed=3))
    report = build_report("simulate", cfg.to_dict(), intervals=est)
    text = report_json_text(report)
    # bare NaN/Infinity tokens are not JSON; they must arrive as strings
    parsed = json.loads(
        text, parse_constant=lambda s: pytest.fail(f"bare {s} token in output")
    )
    assert parsed["intervals"][0]["sd"] == "nan"
    assert text.endswith("\n")


def test_report_json_is_sorted_and_deterministic(cfg, estimates):
    rep = build_report("simulate", cfg.to_dict(), intervals=estimates)
    t1, t2 = report_json_text(rep), report_json_text(rep)
    assert t1 == t2
    parsed = json.loads(t1)
    assert parsed["schema_version"] == 1
    assert parsed["kind"] == "simulate"
    assert parsed["config"]["master_seed"] == 31


def test_reports_validate_against_shipped_schema(cfg, estimates):
    jsonschema = pytest.importorskip("jsonschema")
    schema = load_schema()
    slope = run_cumulative(cfg, [0.5, 0.75, 0.875, 0.9375])
    sim = build_report("simulate", cfg.to_dict(), intervals=estimates, slope=slope)
    jsonschema.validate(json.loads(report_json_text(sim)), schema)

    oracle = run_gaussian_oracle(1.0, 1.0, 10.0, trials=50, seed=4)
    go = build_report(
        "gauss-oracle",
        {"gamma": 1.0, "a": 1.0, "b": 10.0, "trials": 50, "eta": 0.01, "seed": 4},
        oracle=oracle,
    )
    jsonschema.validate(json.loads(report_json_text(go)), schema)


def test_schema_rejects_extra_top_level_keys(cfg):
    jsonschema = pytest.importorskip("jsonschema")
    schema = load_schema()
    bad = build_report("simulate", cfg.to_dict())
    bad["surprise"] = 1
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad, schema)


def test_manifest_carries_reproduction_info(cfg):
    text = manifest_json_text("simulate", "presets/x.cfg", cfg.to_dict(), "outdir")
    parsed = json.loads(text)
    assert set(parsed) == {
        "subcommand", "config_path", "resolved_config", "out_dir", "version", "created_utc"
    }
    assert parsed["subcommand"] == "simulate"
    assert parsed["resolved_config"]["master_seed"] == 31
    assert parsed["resolved_config"]["law"] == "rademacher"
    assert parsed["version"]
    # ISO 8601 UTC timestamp
    assert "T" in parsed["created_utc"] and parsed["created_utc"].endswith("+00:00")
