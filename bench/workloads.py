"""The three benchmark workloads, run through the public taylorzeros API.

Each workload has `setup()` (build the inputs: parse the config, plan the
corpora), `run()` (the measured work) and `check()` (correctness checks and
digests of the deterministic outputs, outside the measured time). Sizes are
set so that one run takes a few seconds on one core; `smoke=True` shrinks
every size for the smoke test.

Why these three: `simulate_preset` is the product path and is bound by
series evaluation at n=10; `interval_shallow` is bound by per-trial fixed
costs (seeding, Philox setup, Python overhead in the counter, bisection),
so an evaluation-kernel gain should leave it almost unchanged; `oracles`
holds the verification layers (Cholesky and path draws, the Fraction Sturm
chain, the diagnostics sort and prefix sums), none of which runs in the
two series workloads.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from taylorzeros import cli, diagnostics, experiments, reports, roots, sampling
from taylorzeros.coeffs import CoefficientSequence
from taylorzeros.roots import ScanGrid
from taylorzeros.sampling import CoefficientLaw, TruncationPolicy

PRESET = Path("presets") / "gamma1_q05_rademacher.cfg"
BAND = 0.2  # acceptance criterion 3: |mean(n_max) - target| < 20% of target


def _sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _band_check(n: int, mean: float, stderr: float, target: float):
    """Criterion-3 band at the deepest n, widened by 3 stderr at this M."""
    gap = abs(mean - target)
    tol = BAND * target + 3.0 * stderr
    return ("criterion-3 band at n_max", gap < tol,
            f"n={n} |mean-target|={gap:.5f} tol={tol:.5f}")


class SimulatePreset:
    """`taylorzeros simulate` on the gamma=1 Rademacher preset, n=4..10."""

    name = "simulate_preset"

    def __init__(self, root: Path, seed: int, smoke: bool, workdir: Path):
        self.root, self.seed, self.workdir = root, seed, workdir
        self.trials = 30 if smoke else 500

    def setup(self):
        base = cli.parse_config_file(self.root / PRESET)
        self.config = replace(base, trials=self.trials, master_seed=self.seed)
        lines = [f"{k} = {v}" for k, v in self.config.to_dict().items()]
        self.cfg_path = self.workdir / "bench.cfg"
        self.cfg_path.write_text("\n".join(lines) + "\n")
        self.out = self.workdir / "out"
        self.out.mkdir()
        self.argv = ["simulate", "--config", str(self.cfg_path), "--out", str(self.out),
                     "--seed", str(self.seed)]

    def trial_count(self) -> int:
        # interval experiment: n_min..n_max; cumulative: full tiles 0..n_max
        c = self.config
        return c.trials * ((c.n_max - c.n_min + 1) + (c.n_max + 1))

    def run(self):
        self.exit_code = cli.main(self.argv)

    def check(self):
        import jsonschema

        checks = [("cli exit code 0", self.exit_code == 0, str(self.exit_code))]
        names = ("intervals.csv", "cumulative.csv", "report.json")
        texts = {n: (self.out / n).read_text() for n in names}
        report = json.loads(texts["report.json"])
        try:
            jsonschema.validate(report, reports.load_schema())
            checks.append(("report.json matches schema", True, ""))
        except jsonschema.ValidationError as exc:
            checks.append(("report.json matches schema", False, exc.message))
        e = report["intervals"][-1]
        checks.append(_band_check(e["n"], e["mean_count"], e["stderr"], e["target"]))
        checks.append(("manifest.json written", (self.out / "manifest.json").is_file(), ""))
        return checks, {n: _sha256(t) for n, t in texts.items()}

    def jobs2_speedup(self) -> float:
        """jobs=1 wall / jobs=2 wall on the n=n_max interval, untraced."""
        c = replace(self.config, n_min=self.config.n_max)
        walls = []
        for jobs in (1, 2):
            t0 = time.perf_counter()
            experiments.run_interval_experiment(c, jobs=jobs)
            walls.append(time.perf_counter() - t0)
        return walls[0] / walls[1]


class IntervalShallow:
    """run_interval_experiment at gamma=2, Gaussian law, n=0..5, no files."""

    name = "interval_shallow"

    def __init__(self, root: Path, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.trials = 20 if smoke else 4000

    def setup(self):
        self.config = experiments.ExperimentConfig(
            gamma=2.0, q=0.5, law=CoefficientLaw.GAUSSIAN, n_min=0, n_max=5,
            trials=self.trials, master_seed=self.seed,
        )

    def trial_count(self) -> int:
        return self.config.trials * (self.config.n_max - self.config.n_min + 1)

    def run(self):
        self.estimates = experiments.run_interval_experiment(self.config)

    def check(self):
        e = self.estimates[-1]
        checks = [
            ("one estimate per n", len(self.estimates) == 6, str(len(self.estimates))),
            _band_check(e.n, e.mean_count, e.stderr, e.target),
        ]
        report = reports.build_report("simulate", self.config.to_dict(),
                                      intervals=self.estimates)
        return checks, {"report.json": _sha256(reports.report_json_text(report))}


class Oracles:
    """Gaussian path oracle, exact Sturm audit of real samples, diagnostics."""

    name = "oracles"

    def __init__(self, root: Path, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.paths = 50 if smoke else 1000
        self.audit_per_n = 2 if smoke else 25
        self.u_span = 4.0 * math.pi if smoke else 40.0 * math.pi
        self.diag_n = range(1, 9) if smoke else range(1, 15)

    def setup(self):
        # oracle window [1, e^{40 pi}]: 20 expected zeros; eta = 0.005 puts
        # 4001 points on it. Audit: real samples at n=0, 1, where the
        # certified truncation gives K=32, 64, the Sturm oracle's range.
        self.eta = 0.005
        self.b = math.exp(self.u_span)
        self.seq = CoefficientSequence(1.0)
        self.law = CoefficientLaw.RADEMACHER
        self.audit_grids = [
            ScanGrid(1.0 - 0.5**n, 1.0 - 0.5 ** (n + 1), 0.02, 1.0) for n in (0, 1)
        ]
        self.audit_seeds = [
            [np.random.SeedSequence(self.seed, spawn_key=(n, t))
             for t in range(self.audit_per_n)]
            for n in (0, 1)
        ]

    def trial_count(self) -> int:
        return self.paths + 2 * self.audit_per_n

    def run(self):
        self.oracle = experiments.run_gaussian_oracle(
            1.0, 1.0, self.b, trials=self.paths, eta=self.eta, seed=self.seed
        )
        self.audit = []
        for grid, seeds in zip(self.audit_grids, self.audit_seeds):
            policy = TruncationPolicy(grid.b, 1e-6)
            K = sampling.truncation_degree(self.seq, policy)
            for ss in seeds:
                sample = sampling.draw_sample(self.seq, self.law, ss, K, policy)
                got = roots.count_zeros(sample.evaluate_many, grid, vectorized=True)
                exact = roots.exact_count_small(sample.weights, (grid.a, grid.b))
                self.audit.append((K, got.count, exact))
        self.diag = diagnostics.check_weight_inequalities(self.seq, 0.5, self.diag_n)

    def check(self):
        o = self.oracle
        tol = 3.0 * o.stderr + 0.02 * o.target
        agree = sum(got == exact for _, got, exact in self.audit) / len(self.audit)
        checks = [
            ("oracle mean within 3 stderr + 2% of Rice", abs(o.mean_count - o.target) < tol,
             f"mean={o.mean_count:.4f} target={o.target:.4f} tol={tol:.4f}"),
            ("grid counter agrees with exact on >=99%", agree >= 0.99, f"{agree:.3f}"),
            ("diagnostics exact invariants hold", self.diag.exact_invariants_hold(), ""),
        ]
        digests = {
            "oracle_hist": _sha256(json.dumps(o.count_hist, sort_keys=True)),
            "audit_counts": _sha256(json.dumps(self.audit)),
            "diagnostics_table": _sha256(self.diag.format_table()),
        }
        return checks, digests


WORKLOADS = {w.name: w for w in (SimulatePreset, IntervalShallow, Oracles)}
