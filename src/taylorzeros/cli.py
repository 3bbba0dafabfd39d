"""Command-line front end.

Subcommands:

- `simulate --config FILE`: interval experiment plus cumulative growth fit;
  writes intervals.csv, cumulative.csv, report.json, and manifest.json.
- `gauss-oracle --gamma G --a A --b B`: zero counts of exact limit-process
  paths against the closed-form expected count.
- `diagnostics --gamma G --q Q --n-min N --n-max M`: weight-array inequality
  table; exit 0 iff the exact per-row invariants hold on every tested row.
- `abel-check --gamma G --a-list 1e-1,1e-2,...`: variance-asymptote ratios;
  exit 0 iff |ratio - 1| is nonincreasing along the list.

Exit codes: 0 success, 1 runtime failure (message includes the seed needed
to replay), including a value that overflows a float, a grid past its
point cap, and a scan tile whose value buffer would outgrow one evaluation
block, 2 usage or validation error. The output directory is taken from
--out, else the TAYLORZEROS_OUT environment variable, else ./taylorzeros-out.

Config files are flat `key = value` text; `#` starts a comment. The keys are
the ExperimentConfig fields, gamma required; each parses as its default
does. Law is one of rademacher, gaussian, uniform. Slow-variation specs:
`const`, `const:C`, `logpow:B`, `loglog`.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from .coeffs import CoefficientSequence, Constant, LogLog, LogPower
from .diagnostics import check_weight_inequalities
# run_interval_experiment and run_cumulative are unused: bench/tracing.py wraps them here
from .experiments import (
    ExperimentConfig,
    _simulate,
    run_cumulative,
    run_gaussian_oracle,
    run_interval_experiment,
)
from .reports import (
    build_report,
    cumulative_csv_text,
    interval_csv_text,
    manifest_json_text,
    report_json_text,
)

__all__ = ["main", "parse_config_file", "parse_slow_spec", "ConfigError"]

_OUT_ENV = "TAYLORZEROS_OUT"
_DEFAULT_OUT = "taylorzeros-out"


class ConfigError(ValueError):
    """Config file problem with a line-precise message."""


def parse_slow_spec(spec: str):
    """'const', 'const:C', 'logpow:B', or 'loglog' -> a slow-variation value."""
    name, _, arg = spec.strip().partition(":")
    try:
        if name == "const":
            return Constant(float(arg)) if arg else Constant()
        if name == "logpow":
            if not arg:
                raise ValueError("logpow needs an exponent, e.g. logpow:1.0")
            return LogPower(float(arg))
        if name == "loglog":
            if arg:
                raise ValueError("loglog takes no argument")
            return LogLog()
    except ValueError as exc:
        raise ValueError(f"bad slow-variation spec {spec!r}: {exc}") from None
    raise ValueError(
        f"bad slow-variation spec {spec!r}: expected const[:C], logpow:B, or loglog"
    )


# each key parses as its field's default does; gamma has none, slow reads its label
_CONFIG_PARSERS = {f.name: type(f.default) for f in fields(ExperimentConfig)} | {
    "gamma": float,
    "slow": parse_slow_spec,
}


def parse_config_file(path) -> ExperimentConfig:
    """Parse a flat key=value config file into a validated ExperimentConfig."""
    kw = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (s.strip() for s in line.partition("="))
        if not eq or not key:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if key not in _CONFIG_PARSERS:
            known = ", ".join(sorted(_CONFIG_PARSERS))
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} (known: {known})")
        if key in kw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            kw[key] = _CONFIG_PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(
                f"{path}:{lineno}: invalid value for {key!r}: {exc}"
            ) from None
    if "gamma" not in kw:
        raise ConfigError(f"{path}: missing required key 'gamma'")
    try:
        return ExperimentConfig(**kw)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _resolve_out(flag_value) -> Path:
    path = Path(flag_value or os.environ.get(_OUT_ENV) or _DEFAULT_OUT)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_simulate(args) -> int:
    config = parse_config_file(args.config)
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    args.seed = config.master_seed
    out_dir = _resolve_out(args.out)
    estimates, slope = _simulate(config)
    (out_dir / "intervals.csv").write_text(interval_csv_text(config, estimates))
    (out_dir / "cumulative.csv").write_text(cumulative_csv_text(slope))
    report = build_report("simulate", config.to_dict(), intervals=estimates, slope=slope)
    (out_dir / "report.json").write_text(report_json_text(report))
    manifest = manifest_json_text("simulate", str(args.config), config.to_dict(), str(out_dir))
    (out_dir / "manifest.json").write_text(manifest)
    print(f"interval counts (law={config.law.value}, q={config.q}, "
          f"gamma={config.gamma}, trials={config.trials}):")
    for e in estimates:
        print(f"  n={e.n:2d}  mean={e.mean_count:.5f}  stderr={e.stderr:.5f}  "
              f"target={e.target:.5f}")
    print(f"growth slope: fitted={slope.fitted_slope:.5f}  "
          f"target={slope.target_slope:.5f}  "
          f"relative gap={slope.relative_gap:+.3f}")
    print(f"wrote intervals.csv cumulative.csv report.json manifest.json -> {out_dir}")
    return 0


def _cmd_gauss_oracle(args) -> int:
    summary = run_gaussian_oracle(
        args.gamma, args.a, args.b, trials=args.trials, eta=args.eta, seed=args.seed
    )
    print(f"limit-process zeros on [{args.a:g}, {args.b:g}], gamma={args.gamma:g}, "
          f"trials={args.trials}:")
    print(f"  mean={summary.mean_count:.5f}  stderr={summary.stderr:.5f}  "
          f"ci95=[{summary.ci_lo:.5f}, {summary.ci_hi:.5f}]")
    print(f"  target={summary.target:.5f} (expected count by the Rice formula)")
    if args.out is not None:
        out_dir = _resolve_out(args.out)
        flags = {k: getattr(args, k) for k in ("gamma", "a", "b", "trials", "eta", "seed")}
        report = build_report("gauss-oracle", flags, oracle=summary)
        (out_dir / "report.json").write_text(report_json_text(report))
        manifest = manifest_json_text("gauss-oracle", None, flags, str(out_dir))
        (out_dir / "manifest.json").write_text(manifest)
        print(f"wrote report.json manifest.json -> {out_dir}")
    return 0


def _cmd_diagnostics(args) -> int:
    if not (1 <= args.n_min <= args.n_max):
        raise ConfigError(f"need 1 <= n-min <= n-max, got {args.n_min}..{args.n_max}")
    seq = CoefficientSequence(args.gamma, parse_slow_spec(args.slow))
    report = check_weight_inequalities(seq, args.q, range(args.n_min, args.n_max + 1))
    print(f"weight-array checks, gamma={args.gamma:g}, q={args.q:g}:")
    print(report.format_table())
    n0 = report.n0_largest_weight()
    print(f"largest-weight bound holds from n0={n0}" if n0 is not None
          else "largest-weight bound fails through the tested range")
    if not report.exact_invariants_hold():
        print("exact invariants violated", file=sys.stderr)
        return 1
    return 0


def _cmd_abel_check(args) -> int:
    seq = CoefficientSequence(args.gamma, parse_slow_spec(args.slow))
    try:
        a_list = [float(s) for s in args.a_list.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"--a-list must be comma-separated floats, got {args.a_list!r}")
    if not a_list or any(not (0 < a < 1) for a in a_list):
        raise ConfigError("--a-list needs values in (0, 1)")
    print(f"variance vs asymptote, gamma={args.gamma:g}, slow={args.slow}:")
    gaps = []
    for a in a_list:
        ratio = math.exp(seq.log_variance_v(1.0 - a) - seq.log_abel_asymptote(a))
        gaps.append(abs(ratio - 1.0))
        print(f"  a={a:<10g} ratio={ratio:.8f}  |ratio-1|={gaps[-1]:.3e}")
    if len(a_list) == 1:
        print("single point: trend check skipped")
        return 0
    ok = all(g2 <= g1 * (1 + 1e-12) for g1, g2 in zip(gaps, gaps[1:]))
    print("gap trend:", "nonincreasing" if ok else "NOT nonincreasing")
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taylorzeros",
        description="Zero-count experiments for random Taylor series with "
        "regularly varying coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="interval + cumulative experiments")
    p_sim.add_argument("--config", required=True, help="key=value config file")
    p_sim.add_argument("--out", default=None, help="output directory")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override master_seed from the config")
    p_sim.set_defaults(func=_cmd_simulate)

    p_go = sub.add_parser("gauss-oracle", help="limit-process zero counts vs Rice")
    p_go.add_argument("--gamma", type=float, required=True)
    p_go.add_argument("--a", type=float, required=True)
    p_go.add_argument("--b", type=float, required=True)
    p_go.add_argument("--trials", "-M", type=int, default=5000)
    p_go.add_argument("--eta", type=float, default=0.01)
    p_go.add_argument("--seed", type=int, default=2026)
    p_go.add_argument("--out", default=None)
    p_go.set_defaults(func=_cmd_gauss_oracle)

    p_diag = sub.add_parser("diagnostics", help="weight-array inequality table")
    p_diag.add_argument("--gamma", type=float, default=1.0)
    p_diag.add_argument("--q", type=float, default=0.5)
    p_diag.add_argument("--n-min", type=int, default=1)
    p_diag.add_argument("--n-max", type=int, default=10)
    p_diag.add_argument("--slow", default="const")
    p_diag.set_defaults(func=_cmd_diagnostics)

    p_abel = sub.add_parser("abel-check", help="variance asymptote ratios")
    p_abel.add_argument("--gamma", type=float, required=True)
    p_abel.add_argument("--slow", default="const")
    p_abel.add_argument("--a-list", default="1e-1,1e-2,1e-3,1e-4")
    p_abel.set_defaults(func=_cmd_abel_check)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError, or validation below the CLI layer
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, MemoryError, OSError, OverflowError) as exc:
        seed = getattr(args, "seed", None)
        seed_note = f" (replay with --seed {seed})" if seed is not None else ""
        print(f"runtime failure: {exc}{seed_note}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
