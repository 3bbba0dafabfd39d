"""Serialization of experiment results: CSV tables, JSON reports, manifests.

Byte-stability contract: CSV and JSON report files are pure functions of the
results they serialize (floats via repr, keys sorted, newline-terminated), so
a rerun with the same config produces identical bytes. The run manifest is
the one artifact that is allowed to differ between reruns: it carries a
timestamp alongside everything needed to reproduce the run (subcommand,
resolved config, seed), and nothing else does.
"""

from __future__ import annotations

import csv
import io
import json
from datetime import datetime, timezone
from importlib import resources

from . import __version__

__all__ = [
    "SCHEMA_VERSION",
    "INTERVAL_CSV_COLUMNS",
    "CUMULATIVE_CSV_COLUMNS",
    "interval_csv_text",
    "cumulative_csv_text",
    "build_report",
    "report_json_text",
    "load_schema",
    "manifest_json_text",
]

SCHEMA_VERSION = 1

INTERVAL_CSV_COLUMNS = [
    "n",
    "q",
    "gamma",
    "law",
    "M",
    "mean",
    "sd",
    "stderr",
    "ci_lo",
    "ci_hi",
    "unstable_frac",
    "target",
]

CUMULATIVE_CSV_COLUMNS = ["r", "u", "cum_mean", "cum_stderr"]

_REPORT_KINDS = ("simulate", "gauss-oracle")


def _cell(v) -> str:
    # repr gives the shortest round-trip float form, stable across runs
    return repr(float(v)) if isinstance(v, float) else str(v)


def _csv_text(columns, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    for row in rows:
        w.writerow([_cell(v) for v in row])
    return buf.getvalue()


def interval_csv_text(config, estimates) -> str:
    """One row per (n, law) from a list of IntervalEstimate."""
    rows = [
        (
            e.n,
            config.q,
            config.gamma,
            e.law,
            e.trials,
            e.mean_count,
            e.sd,
            e.stderr,
            e.ci_lo,
            e.ci_hi,
            e.unstable_fraction,
            e.target,
        )
        for e in estimates
    ]
    return _csv_text(INTERVAL_CSV_COLUMNS, rows)


def cumulative_csv_text(slope_report) -> str:
    """Plot-ready cumulative growth data: r, u = -log(1-r), mean, stderr."""
    rows = zip(
        slope_report.r_values,
        slope_report.u_values,
        slope_report.cumulative_means,
        slope_report.cumulative_stderrs,
    )
    return _csv_text(CUMULATIVE_CSV_COLUMNS, rows)


def build_report(
    kind: str,
    config: dict,
    intervals=None,
    slope=None,
    oracle=None,
) -> dict:
    """Assemble the versioned JSON report mirroring config and results."""
    if kind not in _REPORT_KINDS:
        raise ValueError(f"kind must be one of {_REPORT_KINDS}, got {kind!r}")
    report = {"schema_version": SCHEMA_VERSION, "kind": kind, "config": dict(config)}
    if intervals is not None:
        report["intervals"] = [e.to_dict() for e in intervals]
    if slope is not None:
        report["slope"] = slope.to_dict()
    if oracle is not None:
        report["oracle"] = oracle.to_dict()
    return report


def _sanitize(obj):
    """NaN/inf have no JSON spelling; encode them as strings."""
    if isinstance(obj, float):
        if obj != obj:
            return "nan"
        if obj in (float("inf"), float("-inf")):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def report_json_text(report: dict) -> str:
    return json.dumps(_sanitize(report), sort_keys=True, indent=2) + "\n"


def load_schema() -> dict:
    """The shipped JSON schema for report files."""
    text = resources.files("taylorzeros").joinpath("report_schema.json").read_text()
    return json.loads(text)


def manifest_json_text(
    subcommand: str, config_path: str | None, resolved_config: dict, out_dir: str
) -> str:
    """The run manifest: what reproduces the run, stamped with the package
    version and the UTC time of writing."""
    d = {
        "subcommand": subcommand,
        "config_path": config_path,
        "resolved_config": _sanitize(resolved_config),
        "out_dir": out_dir,
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    return json.dumps(d, sort_keys=True, indent=2) + "\n"
