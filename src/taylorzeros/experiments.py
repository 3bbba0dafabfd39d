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

Reproducibility contract: trial t of interval n draws its generator from
SeedSequence(master_seed, spawn_key=(n, t)) via `trial_rng`. Results land in
arrays indexed by t, so the aggregate is a pure function of the config no
matter how many workers ran the trials or in what order they finished. Trial
seeds do not depend on the law, so rerunning with the identical law gives
bitwise identical results (and cross-law comparisons are seed-coupled).
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .coeffs import CoefficientSequence, Constant, LogLog, LogPower
from .gauss import PathSampler, expected_zeros_rice
from .roots import ScanGrid, count_zeros, path_zero_counts
from .sampling import (
    CoefficientLaw,
    TruncationPolicy,
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
_MAX_ORACLE_GRID = 10_000
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
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
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
        if not (self.delta > 0.0):
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not (self.eta > 0.0):
            raise ValueError(f"eta must be positive, got {self.eta}")
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


def _interval_trials(
    config: ExperimentConfig, n: int, K: int, a: float, b: float, lo: int, hi: int
):
    """Run trials lo..hi-1 on [a, b); n enters only through the seed key."""
    seq = config.seq
    policy = TruncationPolicy(b, config.delta)
    grid = ScanGrid(a, b, config.eta, config.gamma)
    counts = np.empty(hi - lo, dtype=np.int64)
    unstable = np.empty(hi - lo, dtype=bool)
    for t in range(lo, hi):
        ss = np.random.SeedSequence(config.master_seed, spawn_key=(n, t))
        sample = draw_sample(seq, config.law, ss, K, policy=policy)
        zc = count_zeros(sample.evaluate_many, grid)
        counts[t - lo] = zc.count
        unstable[t - lo] = not zc.stable
    return lo, counts, unstable


def _scan_interval(
    config: ExperimentConfig, n: int, K: int, a: float, b: float, jobs: int
):
    m = config.trials
    counts = np.empty(m, dtype=np.int64)
    unstable = np.empty(m, dtype=bool)
    if jobs <= 1 or m < 4:
        _, counts[:], unstable[:] = _interval_trials(config, n, K, a, b, 0, m)
    else:
        bounds = np.linspace(0, m, min(4 * jobs, m) + 1).astype(int)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futs = [
                pool.submit(_interval_trials, config, n, K, a, b, int(lo), int(hi))
                for lo, hi in zip(bounds[:-1], bounds[1:])
                if hi > lo
            ]
            for fut in futs:
                lo, c, u = fut.result()
                counts[lo : lo + c.size] = c
                unstable[lo : lo + u.size] = u
    return counts, unstable


def _estimate_interval(
    config: ExperimentConfig, n: int, jobs: int, b_override: float | None = None
) -> IntervalEstimate:
    """One interval's estimate; b_override scans the partial tile [a, r)."""
    a = 1.0 - config.q**n
    b = 1.0 - config.q ** (n + 1) if b_override is None else b_override
    K = truncation_degree(config.seq, TruncationPolicy(b, config.delta))
    counts, unstable = _scan_interval(config, n, K, a, b, jobs)
    return IntervalEstimate.from_counts(
        counts,
        interval_target(config.gamma, config.q),
        n=n,
        a=a,
        b=b,
        law=config.law.value,
        unstable_fraction=float(unstable.mean()),
    )


def run_interval_experiment(config: ExperimentConfig, jobs: int = 1):
    """Per-interval zero-count estimates for n = n_min..n_max."""
    return [
        _estimate_interval(config, n, jobs)
        for n in range(config.n_min, config.n_max + 1)
    ]


def _tiles_for(q: float, r: float):
    """Number of full dyadic tiles below r, and the partial remainder."""
    v = math.log1p(-r) / math.log(q)
    m = round(v)
    if abs(v - m) < 1e-9:
        return int(m), None
    return int(math.floor(v)), r


def run_cumulative(config: ExperimentConfig, r_list, jobs: int = 1) -> SlopeReport:
    """Cumulative counts on [0, r) for each r, plus the fitted growth slope.

    Tiles [0, r) dyadically, estimates each tile once, and sums the means;
    the config's n_min/n_max are ignored in favor of the tiling r_list
    requires. The slope is least squares over the last ceil(half) points of
    cumulative mean against -log(1-r).
    """
    target = math.sqrt(config.gamma) / (2.0 * math.pi)
    rs = sorted(float(r) for r in r_list)
    if any(not (0.0 < r < 1.0) for r in rs):
        raise ValueError("every r must be in (0, 1)")
    if not rs:
        return SlopeReport([], [], [], [], math.nan, target, math.nan, 0)
    plans = {r: _tiles_for(config.q, r) for r in rs}
    deepest = max(m for m, _ in plans.values())
    full = {
        n: _estimate_interval(config, n, jobs) for n in range(0, deepest)
    }
    partial = {
        r: _estimate_interval(config, m, jobs, b_override=rp)
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

    a == b returns the exact empty-interval summary. The u-grid step is
    eta * 2 pi / sqrt(gamma), as for series scans.
    """
    if not (gamma > 0):
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not (0.0 < a <= b):
        raise ValueError(f"need 0 < a <= b, got a={a}, b={b}")
    if not (isinstance(trials, numbers.Integral) and trials >= 1):
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    rng = trial_rng(seed)
    if a == b:
        return GaussianOracleSummary(
            trials, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, {0: trials}, gamma, a, b, eta
        )
    u_lo, u_hi = math.log(a), math.log(b)
    step = eta * 2.0 * math.pi / math.sqrt(gamma)
    gaps = max(1, math.ceil((u_hi - u_lo) / step))
    if gaps + 1 > _MAX_ORACLE_GRID:
        raise ValueError(
            f"{gaps + 1} grid points exceed the {_MAX_ORACLE_GRID} sampler cap"
        )
    sampler = PathSampler(np.linspace(u_lo, u_hi, gaps + 1), gamma)
    counts = np.empty(trials, dtype=np.int64)
    done = 0
    while done < trials:
        m = min(_ORACLE_CHUNK, trials - done)
        counts[done : done + m] = path_zero_counts(sampler.draw(rng, m), axis=0)
        done += m
    return GaussianOracleSummary.from_counts(
        counts, expected_zeros_rice(a, b, gamma), gamma=gamma, a=a, b=b, eta=eta
    )


def run_universality(config: ExperimentConfig, laws, jobs: int = 1):
    """The interval experiment across several laws, with pairwise gaps."""
    laws = list(laws)
    if len(laws) < 2:
        raise ValueError("universality needs at least two laws")
    estimates = {}
    for law in laws:
        estimates[law.value] = run_interval_experiment(replace(config, law=law), jobs)
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
