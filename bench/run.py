"""taylorzeros benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload simulate_preset --seed 2026 --seconds 20 --trace 0

Run from the repository root (or anywhere: paths are taken from this
file). Each workload run happens in its own fresh child process with BLAS
pinned to one thread; children run one after another until `--seconds`
have passed. Every child uses the same seed, so their output digests must
agree.

`--trace 0` prints the end-to-end metrics (medians over the children).
`--trace 1` alternates untraced and traced children and prints the
per-layer metrics from the traced ones (see tracing.py); count metrics
must repeat exactly between traced children. Outputs are checked in every
child; the number of checks made and failed goes into the result.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The lines before it hold the full record: environment, per-metric
median/min/max with the sample count, failed checks and output digests.
`--smoke` shrinks every workload for a quick self-test (test_smoke.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("simulate_preset", "interval_shallow", "oracles")
BLAS_THREADS = "1"
CHILD_TIMEOUT_S = 150
MIN_CHILDREN = 2
SETUP_SAMPLES = 31  # set-up is short and noisy: measure it in extra children

END_TO_END = [
    ("wall_s", "s"),
    ("trials_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("check_pass_frac", "ratio"),
]


# (name, unit, kind). kind "count" must repeat exactly between traced runs
# of one seed; "time" is a median over traced runs; "parent" is filled in
# from untraced and traced walls together. tracing.Tracer.layer_metrics
# computes the rest.
LAYER_METRICS = [
    ("sampling.truncation_degree.calls", "count", "count"),
    ("sampling.truncation_degree.self_s", "s", "time"),
    ("sampling.K_total", "count", "count"),
    ("sampling.K_overshoot", "ratio", "count"),
    ("sampling.draw_sample.calls", "count", "count"),
    ("sampling.draw_sample.self_s", "s", "time"),
    ("sampling.draw_sample.variates", "count", "count"),
    ("sampling.evaluate_many.calls", "count", "count"),
    ("sampling.evaluate_many.self_s", "s", "time"),
    ("sampling.evaluate_many.points", "count", "count"),
    ("sampling.evaluate_many.terms", "count", "count"),
    ("sampling.evaluate_many.calls_per_trial", "ratio", "count"),
    ("roots.count_zeros.calls", "count", "count"),
    ("roots.count_zeros.self_s", "s", "time"),
    ("roots.count_zeros.zeros", "count", "count"),
    ("roots.count_zeros.unstable", "count", "count"),
    ("roots.bisect.evals", "count", "count"),
    ("roots.bisect.s", "s", "time"),
    ("roots.bisect.evals_per_zero", "ratio", "count"),
    ("roots.exact_count_small.calls", "count", "count"),
    ("roots.exact_count_small.self_s", "s", "time"),
    ("roots.exact_count_small.degree_total", "count", "count"),
    ("experiments.trials_run", "count", "count"),
    ("experiments.trials_distinct", "count", "count"),
    ("experiments.run_interval_experiment.self_s", "s", "time"),
    ("experiments.run_cumulative.self_s", "s", "time"),
    ("experiments.run_gaussian_oracle.self_s", "s", "time"),
    ("experiments.jobs2_speedup", "ratio", "time"),
    ("gauss.PathSampler.init_s", "s", "time"),
    ("gauss.PathSampler.points", "count", "count"),
    ("gauss.PathSampler.jitter", "ratio", "count"),
    ("gauss.PathSampler.draw.calls", "count", "count"),
    ("gauss.PathSampler.draw.self_s", "s", "time"),
    ("gauss.PathSampler.draw.flops", "count", "count"),
    ("gauss.path_zero_counts.self_s", "s", "time"),
    ("diagnostics.check_weight_inequalities.self_s", "s", "time"),
    ("diagnostics.weights.self_s", "s", "time"),
    ("diagnostics.elements", "count", "count"),
    ("coeffs.variance_v.calls", "count", "count"),
    ("coeffs.variance_v.self_s", "s", "time"),
    ("reports.self_s", "s", "time"),
    ("reports.bytes", "count", "count"),
    ("cli.main.self_s", "s", "time"),
    ("trace.overhead_s", "s", "parent"),
    ("trace.coverage", "ratio", "time"),
]


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _run_child(args, workdir: Path, env: dict, mode: str) -> dict:
    """One child; mode is "setup" (set-up only), "plain" or "traced"."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    result = workdir.parent / f"{workdir.name}.json"
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(mode == "traced")),
           "--workdir", str(workdir), "--result", str(result)]
    if mode == "setup":
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload child exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(result.read_text())
    out["setup_s"] = out.pop("ready") - spawned
    return out


def _summary(values) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def _git(*argv):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *argv], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    """Machine, toolchain and code identity for the result record."""
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "git_sha": sha.strip() if sha else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "src_sha256": src.hexdigest(),
        "workload_seed": seed,
    }


def measure(args) -> tuple[dict, dict]:
    """Run children for args.seconds; return (final result, full record)."""
    env = _child_env()
    work = ROOT / ".bench_out" / args.workload
    # warm the file cache and byte-code cache so the first child is typical
    subprocess.run([sys.executable, "-c", "import numpy, taylorzeros, jsonschema"],
                   cwd=ROOT, env=env, check=True, timeout=CHILD_TIMEOUT_S)
    plain, traced, setups = [], [], []
    deadline = time.monotonic() + args.seconds
    try:
        while len(plain) < MIN_CHILDREN or time.monotonic() < deadline:
            plain.append(_run_child(args, work / "run", env, "plain"))
            if args.trace:
                traced.append(_run_child(args, work / "run", env, "traced"))
        if not args.trace:
            while len(plain) + len(setups) < SETUP_SAMPLES:
                setups.append(_run_child(args, work / "run", env, "setup")["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # not empty: another workload is running
            pass

    children = plain + traced
    failed = [name + (f" ({detail})" if detail else "")
              for c in children for name, ok, detail in c["checks"] if not ok]
    attempted = sum(len(c["checks"]) for c in children)
    # same seed, same outputs: every child's digests must match the first's
    for c in children[1:]:
        attempted += 1
        if c["digests"] != children[0]["digests"]:
            failed.append("output digests differ between runs of one seed")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(args.seed),
              "digests": children[0]["digests"]}
    if not args.trace:
        series = {
            "wall_s": [c["wall_s"] for c in plain],
            "cpu_s": [c["cpu_s"] for c in plain],
            "trials_per_s": [c["trials"] / c["wall_s"] for c in plain],
            "setup_s": [c["setup_s"] for c in plain] + setups,
            "peak_rss_mb": [c["peak_rss_mb"] for c in plain],
        }
        values = {k: statistics.median(v) for k, v in series.items()}
        values["check_pass_frac"] = 1.0 - len(failed) / attempted
        record["summary"] = {k: _summary(v) for k, v in series.items()}
        units = dict(END_TO_END)
    else:
        first = traced[0]["layers"]
        values = {}
        for name, unit, kind in LAYER_METRICS:
            if kind == "count":
                values[name] = first[name]
            elif kind == "time":
                values[name] = statistics.median(c["layers"][name] for c in traced)
        values["trace.overhead_s"] = (statistics.median(c["wall_s"] for c in traced)
                                      - statistics.median(c["wall_s"] for c in plain))
        counts = [n for n, _, kind in LAYER_METRICS if kind == "count"]
        for c in traced:
            attempted += 2
            if c["wrappers_left"]:
                failed.append(f"{c['wrappers_left']} wrappers left installed")
            if c is not traced[0] and any(c["layers"][n] != first[n] for n in counts):
                failed.append("count metrics differ between traced runs")
        record["summary"] = {
            "traced_wall_s": _summary([c["wall_s"] for c in traced]),
            "untraced_wall_s": _summary([c["wall_s"] for c in plain]),
        }
        distinct = first["experiments.trials_distinct"]
        spans = traced[0]["spans"]
        record["spans"] = spans
        record["seed_facts"] = {
            "trials_run/trials_distinct": (first["experiments.trials_run"] / distinct
                                           if distinct else None),
            "largest_self_time": max(spans, key=lambda n: spans[n]["self_s"], default=None),
        }
        units = {name: unit for name, unit, _ in LAYER_METRICS}
    record["failed_checks"] = failed
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = ap.parse_args(argv)
    for needed in (ROOT / "src" / "taylorzeros" / "__init__.py",
                   ROOT / "presets" / "gamma1_q05_rademacher.cfg"):
        if not needed.is_file():
            print(f"error: {needed} not found; run from a taylorzeros checkout",
                  file=sys.stderr)
            return 2
    try:
        result, record = measure(args)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
