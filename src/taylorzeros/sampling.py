"""Truncated random Taylor series: drawing, truncation, and evaluation.

A sample is f(x) = sum_{k=0}^K xi_k c_k x^k with iid coefficients xi from a
mean-zero unit-variance law. The truncation degree K is chosen so that the
discarded variance mass sum_{k>K} c_k^2 r^{2k} stays below delta^2 * v(r) up
to the largest radius r that will ever be evaluated; relative to the series
scale sqrt(v(x)) the truncation then perturbs values by O(delta) at most.

Evaluation has one path: `SeriesSample.evaluate_many` sums a `_PowerTable`
(which the experiments build once per scan), one block of powers reused past
its end. The tests pin it against a compensated Horner reference
(tests/horner_reference.py) on every family they use, also at 4096-float blocks.

Reproducibility: generators are counter-based (Philox) and every consumer
in the package gets them from `trial_rng`, the one seed derivation, so a
sample is a pure function of (sequence, law, seed, K) and the first K+1
draws of a longer stream match the shorter one.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .coeffs import CoefficientSequence

__all__ = [
    "CoefficientLaw",
    "TruncationPolicy",
    "SeriesSample",
    "trial_rng",
    "truncation_degree",
    "draw_sample",
]

_EVAL_BLOCK = 1 << 24  # floats per power table, the one block it keeps
_K_CAP = 1 << 27  # K <= 2^26: a weight vector and a draw are K+1 floats each

_SQRT3 = math.sqrt(3.0)


class CoefficientLaw(enum.Enum):
    """Mean-zero, unit-variance coefficient distributions."""

    RADEMACHER = "rademacher"
    GAUSSIAN = "gaussian"
    UNIFORM = "uniform"

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self is CoefficientLaw.RADEMACHER:
            return 2.0 * rng.integers(0, 2, size=size).astype(float) - 1.0
        if self is CoefficientLaw.GAUSSIAN:
            return rng.standard_normal(size)
        return rng.uniform(-_SQRT3, _SQRT3, size=size)


def trial_rng(seed, *key: int) -> np.random.Generator:
    """Counter-based generator for (seed, key).

    `seed` is a nonnegative int, or a numpy SeedSequence when no key is given
    (callers running trial grids pass pre-derived sequences). Distinct keys
    give statistically independent streams; the derivation is a pure
    function of its arguments, so any worker layout reproduces the same
    per-trial draws.
    """
    if isinstance(seed, np.random.SeedSequence):
        if key:
            raise ValueError("a SeedSequence seed takes no key")
    elif isinstance(seed, numbers.Integral) and seed >= 0:
        seed = np.random.SeedSequence(seed, spawn_key=key)
    else:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    return np.random.Generator(np.random.Philox(seed))


def _check_delta(delta: float):
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta}")


@dataclass(frozen=True)
class TruncationPolicy:
    """Truncate so that tail variance <= delta^2 * v(r_max)."""

    r_max: float
    delta: float = 1e-6

    def __post_init__(self):
        if not (0.0 < self.r_max < 1.0):
            raise ValueError(f"r_max must be in (0, 1), got {self.r_max}")
        _check_delta(self.delta)


def truncation_degree(seq: CoefficientSequence, policy: TruncationPolicy) -> int:
    """Smallest K (up to a factor of 2, by doubling) with certified tail
    mass sum_{k>K} c_k^2 r_max^{2k} <= delta^2 * v(r_max)."""
    target = policy.delta**2 * seq.variance_v(policy.r_max, rel_tol=1e-13)
    K = 1
    while K < _K_CAP:
        if seq.tail_bound(policy.r_max, K) <= target:
            return K
        K *= 2
    raise RuntimeError(
        f"truncation_degree exceeded {_K_CAP} terms for r_max={policy.r_max}"
    )


@dataclass(eq=False)
class SeriesSample:
    """One realized truncated series, with its evaluation weights cached."""

    seq: CoefficientSequence
    xi: np.ndarray
    policy: TruncationPolicy | None = None
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.xi = np.asarray(self.xi, dtype=float)
        if self.xi.ndim != 1 or self.xi.size < 1:
            raise ValueError("xi must be a nonempty 1-d array")
        self.weights = self.xi * self.seq.coeff(np.arange(self.xi.size))

    @property
    def K(self) -> int:
        return self.xi.size - 1

    def evaluate_many(self, xs) -> np.ndarray:
        """f at an array of points, via a `_PowerTable`.

        Each block of powers is summed by a BLAS vector-matrix product whose
        summation order depends on the number of points, so f at a point can
        differ in the last bits with the other points in the same call.
        """
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        if np.any(xs < 0.0):
            raise ValueError("evaluation points must be >= 0")
        if self.policy is None and np.any(xs >= 1.0):
            raise ValueError("series diverges at x >= 1")
        if self.policy is not None and np.any(xs > self.policy.r_max):
            raise ValueError(f"evaluation past truncation radius r_max={self.policy.r_max}")
        return _PowerTable(xs, self.K).weighted_sum(self.weights)


class _PowerTable:
    """Rows xs^1..xs^m, m = min(K, _EVAL_BLOCK // points) and one row at
    least, built once and kept, so memory stays at one block. A sum past row
    m reuses the block: rows lo..lo+m-1 are xs^(lo-1) times rows 1..m."""

    def __init__(self, xs: np.ndarray, K: int):
        self.xs, self.K = xs, K
        P = np.tile(xs, (max(1, min(K, _EVAL_BLOCK // max(1, xs.size))), 1))
        self.P = np.cumprod(P, axis=0, out=P)

    def weighted_sum(self, w: np.ndarray) -> np.ndarray:
        """sum_{k=0}^K w_k xs^k, one vector-matrix product per block of rows."""
        P, K, m = self.P, self.K, len(self.P)
        out = w[1 : m + 1] @ P[:K]  # no rows at K = 0
        out += w[0]
        base = P[-1]  # xs^(lo-1)
        for lo in range(m + 1, K + 1, m):
            out += base * (w[lo : lo + m] @ P[: K + 1 - lo])
            base = base * P[-1]
        return out


def draw_sample(
    seq: CoefficientSequence,
    law: CoefficientLaw,
    seed,
    K: int,
    policy: TruncationPolicy | None = None,
) -> SeriesSample:
    """Draw xi_0..xi_K from `law`; deterministic in (law, seed, K).

    `seed` is anything `trial_rng` takes without a key. The same seed with a
    larger K extends the sample: the first K+1 variates agree.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    xi = law.draw(trial_rng(seed), K + 1)
    return SeriesSample(seq=seq, xi=xi, policy=policy)
