"""Monte Carlo experiments on zero counts of random Taylor series.

Four runners, one per question:

- `run_interval_experiment`: zero counts on the dyadic intervals
  [1-q^n, 1-q^(n+1)), whose means converge to sqrt(gamma) log(1/q) / (2 pi);
- `run_cumulative`: counts on [0, r) assembled by tiling, with a least
  squares slope of the cumulative mean against -log(1-r) over the last half
  of the points (the growth constant, target sqrt(gamma)/(2 pi));
- `run_gaussian_oracle`: the same counting applied to exact samples of the
  stationary limit process, so the Monte Carlo machinery can be validated
  against the closed-form Rice count;
- `run_universality`: the interval experiment repeated across coefficient
  laws, reporting pairwise mean differences (which should vanish within
  noise: the limit does not feel the law).

`run_interval_experiment` ignores its `jobs` argument; it is kept only because
the benchmark's `SimulatePreset.jobs2_speedup` (bench/workloads.py) passes it.

Reproducibility contract: trial t of interval n draws its generator from
`trial_rng(master_seed, n, t)`, the one seed derivation. The trials run
in one process, one after another, and each trial's values depend only on
its own draw (one vector-matrix product per table block, never a product
over several trials), so trial t gets the same values whatever M is. Trial
seeds do not depend on the law, so rerunning with the identical law gives
bitwise identical results (and cross-law comparisons are seed-coupled).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .coeffs import CoefficientSequence, Constant, LogLog, LogPower, _check_gamma
from .gauss import _MAX_PATH_GRID, PathSampler, expected_zeros_rice
# count_zeros and draw_sample are unused: bench/tracing.py wraps them on this module
from .roots import ScanGrid, _check_eta, _finite, _u_grid, count_zeros, path_zero_counts
from .sampling import (
    CoefficientLaw,
    TruncationPolicy,
    _PowerTable,
    draw_sample,
    trial_rng,
    truncation_degree,
)

__all__ = [
    "ExperimentConfig",
    "IntervalEstimate",
    "SlopeReport",
    "GaussianOracleSummary",
    "UniversalityReport",
    "interval_target",
    "run_interval_experiment",
    "run_cumulative",
    "run_gaussian_oracle",
    "run_universality",
]

_Z95 = 1.959963984540054  # two-sided 95% normal quantile
_ORACLE_CHUNK = 2048


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a zero-count experiment needs, in one picklable value."""

    gamma: float
    q: float = 0.5
    law: CoefficientLaw = CoefficientLaw.RADEMACHER
    slow: Constant | LogPower | LogLog = field(default_factory=Constant)
    n_min: int = 4
    n_max: int = 10
    trials: int = 2000
    delta: float = 1e-6
    eta: float = 0.02
    master_seed: int = 2026

    def __post_init__(self):
        _check_gamma(self.gamma)
        if not (0.0 < self.q < 1.0):
            raise ValueError(f"q must be in (0, 1), got {self.q}")
        if not isinstance(self.law, CoefficientLaw):
            raise ValueError(f"law must be a CoefficientLaw, got {self.law!r}")
        for name in ("n_min", "n_max", "trials", "master_seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not (0 <= self.n_min <= self.n_max):
            raise ValueError(
                f"need 0 <= n_min <= n_max, got {self.n_min}..{self.n_max}"
            )
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        _check_eta(self.eta)
        if not (0 <= self.master_seed < 2**64):
            raise ValueError(f"master_seed must be in [0, 2**64), got {self.master_seed}")

    @property
    def seq(self) -> CoefficientSequence:
        return CoefficientSequence(self.gamma, self.slow)

    def to_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "q": self.q,
            "law": self.law.value,
            "slow": self.slow.label(),
            "n_min": self.n_min,
            "n_max": self.n_max,
            "trials": self.trials,
            "delta": self.delta,
            "eta": self.eta,
            "master_seed": int(self.master_seed),
        }


def interval_target(gamma: float, q: float) -> float:
    """Limit of E#zeros on [1-q^n, 1-q^(n+1)): sqrt(gamma) log(1/q) / (2 pi)."""
    return math.sqrt(gamma) * math.log(1.0 / q) / (2.0 * math.pi)


@dataclass
class CountSummary:
    """Per-trial zero counts reduced to mean, spread, 95% CI and histogram,
    next to the expected count they estimate."""

    trials: int
    mean_count: float
    sd: float
    stderr: float
    ci_lo: float
    ci_hi: float
    target: float
    count_hist: dict

    @classmethod
    def from_counts(cls, counts: np.ndarray, target: float, **fields):
        """Summarize `counts`; `fields` fill the subclass's own fields."""
        m = counts.size
        mean = float(counts.mean())
        if m > 1:
            sd = float(counts.std(ddof=1))
            stderr = sd / math.sqrt(m)
            ci_lo, ci_hi = mean - _Z95 * stderr, mean + _Z95 * stderr
        else:
            sd = stderr = ci_lo = ci_hi = math.nan  # degenerate single-trial run
        hist = {int(k): int(v) for k, v in enumerate(np.bincount(counts)) if v}
        return cls(m, mean, sd, stderr, ci_lo, ci_hi, target, hist, **fields)

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["count_hist"] = {str(k): v for k, v in self.count_hist.items()}
        return d


@dataclass
class IntervalEstimate(CountSummary):
    n: int
    a: float
    b: float
    law: str
    unstable_fraction: float


@dataclass
class SlopeReport:
    r_values: list
    u_values: list
    cumulative_means: list
    cumulative_stderrs: list
    fitted_slope: float
    target_slope: float
    relative_gap: float
    points_fitted: int

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class GaussianOracleSummary(CountSummary):
    gamma: float
    a: float
    b: float
    eta: float


@dataclass
class UniversalityReport:
    laws: list
    estimates: dict  # law value -> list[IntervalEstimate]
    pairs: list  # dicts: law_a, law_b, n, mean_diff, combined_stderr

    def to_dict(self) -> dict:
        return {
            "laws": self.laws,
            "estimates": {
                law: [e.to_dict() for e in ests] for law, ests in self.estimates.items()
            },
            "pairs": self.pairs,
        }


def _interval_values(config: ExperimentConfig, n: int, a: float, b: float):
    """Trial values on the halved grid of [a, b), shape (points, M); n enters
    only through the seed key. The grid, the c_k and the power table are
    built once; a trial is one draw and one weighted sum, the arithmetic of
    `draw_sample(...).evaluate_many(points)`, so the values match it bit for
    bit. A non-finite value raises EvaluationError at its point."""
    K = truncation_degree(config.seq, TruncationPolicy(b, config.delta))
    pts = ScanGrid(a, b, config.eta, config.gamma)._points(2)
    c = config.seq.coeff(np.arange(K + 1))
    table = _PowerTable(pts, K)
    vals = np.empty((pts.size, config.trials))
    for t in range(config.trials):
        rng = trial_rng(config.master_seed, n, t)
        vals[:, t] = table.weighted_sum(config.law.draw(rng, K + 1) * c)
    return _finite(pts, vals)


def _estimate_interval(
    config: ExperimentConfig, n: int, b_override: float | None = None
) -> IntervalEstimate:
    """One interval's estimate; b_override scans the partial tile [a, r)."""
    a = 1.0 - config.q**n
    b = 1.0 - config.q ** (n + 1) if b_override is None else b_override
    vals = _interval_values(config, n, a, b)
    counts = path_zero_counts(vals[::2])  # the grid's own points; vals is halved
    return IntervalEstimate.from_counts(
        counts,
        interval_target(config.gamma, config.q),
        n=n,
        a=a,
        b=b,
        law=config.law.value,
        unstable_fraction=float(np.mean(path_zero_counts(vals) != counts)),
    )


# jobs is ignored; bench/workloads.py SimulatePreset.jobs2_speedup passes it
def run_interval_experiment(config: ExperimentConfig, jobs: int = 1):
    """Per-interval zero-count estimates for n = n_min..n_max."""
    return [_estimate_interval(config, n) for n in range(config.n_min, config.n_max + 1)]


def _tiles_for(q: float, r: float):
    """Number of full dyadic tiles below r, and the partial remainder."""
    v = math.log1p(-r) / math.log(q)
    m = round(v)
    if abs(v - m) < 1e-9:
        return int(m), None
    return int(math.floor(v)), r


def run_cumulative(config: ExperimentConfig, r_list, *, known=()) -> SlopeReport:
    """Cumulative counts on [0, r) for each r, plus the fitted growth slope.

    Tiles [0, r) dyadically, estimates each tile once, and sums the means;
    the config's n_min/n_max are ignored in favor of the tiling r_list
    requires. The slope is least squares over the last ceil(half) points of
    cumulative mean against -log(1-r).

    `known`: estimates `run_interval_experiment(config)` already made; their
    full tiles are not scanned again. One whose a, b, law, trials or target
    differ from its tile raises ValueError; an estimate does not record
    master_seed, slow, delta or eta, so these go unchecked.
    """
    target = math.sqrt(config.gamma) / (2.0 * math.pi)
    rs = sorted(float(r) for r in r_list)
    if any(not (0.0 < r < 1.0) for r in rs):
        raise ValueError("every r must be in (0, 1)")
    known = {e.n: e for e in known}
    per_tile = (config.law.value, config.trials, interval_target(config.gamma, config.q))
    for n, e in known.items():
        tile = (1.0 - config.q**n, 1.0 - config.q ** (n + 1), *per_tile)
        if (e.a, e.b, e.law, e.trials, e.target) != tile:
            raise ValueError(f"known estimate for n={n} does not match its tile")
    if not rs:
        return SlopeReport([], [], [], [], math.nan, target, math.nan, 0)
    plans = {r: _tiles_for(config.q, r) for r in rs}
    deepest = max(m for m, _ in plans.values())
    full = {
        n: known[n] if n in known else _estimate_interval(config, n)
        for n in range(deepest)
    }
    partial = {
        r: _estimate_interval(config, m, b_override=rp)
        for r, (m, rp) in plans.items()
        if rp is not None
    }
    means, stderrs, us = [], [], []
    for r in rs:
        m, rp = plans[r]
        ests = [full[n] for n in range(m)]
        if rp is not None:
            ests.append(partial[r])
        means.append(float(sum(e.mean_count for e in ests)))
        stderrs.append(float(math.sqrt(sum(e.stderr**2 for e in ests))))
        us.append(-math.log1p(-r))
    n_fit = math.ceil(len(rs) / 2)
    if len(rs) >= 2 and n_fit >= 2:
        slope = float(np.polyfit(us[-n_fit:], means[-n_fit:], 1)[0])
    else:
        slope, n_fit = math.nan, 0
    gap = slope / target - 1.0 if math.isfinite(slope) else math.nan
    return SlopeReport(
        r_values=rs,
        u_values=us,
        cumulative_means=means,
        cumulative_stderrs=stderrs,
        fitted_slope=slope,
        target_slope=target,
        relative_gap=gap,
        points_fitted=n_fit,
    )


def run_gaussian_oracle(
    gamma: float,
    a: float,
    b: float,
    trials: int = 5000,
    eta: float = 0.01,
    seed: int = 2026,
) -> GaussianOracleSummary:
    """Zero counts of exact limit-process paths on [a, b] in the t coordinate.

    Needs 0 < a < b < inf. The grid in u = log t comes from `roots._u_grid`,
    the rule series scans use (u-step at most eta * 2 pi / sqrt(gamma)),
    capped at the sampler's `_MAX_PATH_GRID` points before it is allocated.
    """
    target = expected_zeros_rice(a, b, gamma)  # checks gamma and the domain
    if not (isinstance(trials, numbers.Integral) and trials >= 1):
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    _check_eta(eta)
    rng = trial_rng(seed)
    grid = _u_grid(math.log(a), math.log(b), eta, gamma, cap=_MAX_PATH_GRID)
    sampler = PathSampler(grid, gamma)
    counts = np.empty(trials, dtype=np.int64)
    done = 0
    while done < trials:
        m = min(_ORACLE_CHUNK, trials - done)
        counts[done : done + m] = path_zero_counts(sampler.draw(rng, m), axis=0)
        done += m
    return GaussianOracleSummary.from_counts(counts, target, gamma=gamma, a=a, b=b, eta=eta)


def run_universality(config: ExperimentConfig, laws):
    """The interval experiment across several laws, with pairwise gaps."""
    laws = list(laws)
    if len(laws) < 2:
        raise ValueError("universality needs at least two laws")
    estimates = {}
    for law in laws:
        estimates[law.value] = run_interval_experiment(replace(config, law=law))
    pairs = []
    for i, la in enumerate(laws):
        for lb in laws[i + 1 :]:
            for ea, eb in zip(estimates[la.value], estimates[lb.value]):
                pairs.append(
                    {
                        "law_a": la.value,
                        "law_b": lb.value,
                        "n": ea.n,
                        "mean_diff": ea.mean_count - eb.mean_count,
                        "combined_stderr": math.hypot(ea.stderr, eb.stderr),
                    }
                )
    return UniversalityReport(laws=[l.value for l in laws], estimates=estimates, pairs=pairs)
