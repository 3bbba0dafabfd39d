"""Truncated random Taylor series: drawing, truncation, and evaluation.

A sample is f(x) = sum_{k=0}^K xi_k c_k x^k with iid coefficients xi from a
mean-zero unit-variance law. The truncation degree K is chosen so that the
discarded variance mass sum_{k>K} c_k^2 r^{2k} stays below delta^2 * v(r) up
to the largest radius r that will ever be evaluated; relative to the series
scale sqrt(v(x)) the truncation then perturbs values by O(delta) at most.

Evaluation has one path: a `_PowerTable` sums `_ROWS` weight vectors per
product, one block of powers reused past its end (`evaluate_many` puts its
one in row 0 of zeros). The tests pin it against a compensated Horner reference
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
_BLOCK_ROWS = 1 << 14  # powers per kept block at most: a block of weights is small
_ROWS = 8  # weight vectors per matrix product, whatever the number of trials
_K_CAP = 1 << 27  # K <= 2^26: the scan's coefficient vector is K+1 floats

_SQRT3 = math.sqrt(3.0)


class CoefficientLaw(enum.Enum):
    """Mean-zero, unit-variance coefficient distributions."""

    RADEMACHER = "rademacher"
    GAUSSIAN = "gaussian"
    UNIFORM = "uniform"

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """`size` variates; draws concatenate: draw(g, a) then draw(g, b) give
        the values of draw(g', a + b), g' a fresh generator of g's seed."""
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
        """f at an array of points: row 0 of a `_PowerTable` sum, as the scan.

        Each block of powers is summed by a BLAS matrix product whose
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
        table, out = _PowerTable(xs, self.K), np.empty((_ROWS, xs.size))
        for lo, hi in table.spans():
            table.add(out, lo, np.vstack((self.weights[lo:hi], np.zeros((_ROWS - 1, hi - lo)))))
        return out[0]


class _PowerTable:
    """Rows xs^1..xs^m, m = `rows(K, points)`, built once and kept: the table
    holds m * points floats whatever K. Sums go one block of weights at a time:
    w_0..w_m, then m at a time, rows lo..lo+m-1 being xs^(lo-1) times rows
    1..m. Each block is one product of `_ROWS` weight rows, so a row's bits
    depend on neither its position nor the other rows."""

    def __init__(self, xs: np.ndarray, K: int):
        self.xs, self.K = xs, K
        P = np.tile(xs, (self.rows(K, xs.size), 1))
        self.P = np.cumprod(P, axis=0, out=P)

    @staticmethod
    def rows(K: int, points: int) -> int:
        """Powers kept for K terms on `points` points: one block, one row at least."""
        return max(1, min(K, _BLOCK_ROWS, _EVAL_BLOCK // max(1, points)))

    def spans(self) -> list:
        """[lo, hi) of each block of weights, in the order `add` takes them."""
        K, m = self.K, len(self.P)
        return [(0, min(K, m) + 1)] + [(lo, min(lo + m, K + 1)) for lo in range(m + 1, K + 1, m)]

    def add(self, out: np.ndarray, lo: int, W: np.ndarray):
        """Sum w[:, k] xs^k, k = lo..min(K, lo + len - 1), into `out` (_ROWS by
        points), W = w[:, lo:]: the block at lo = 0 sets `out`, later ones add."""
        P, n = self.P, min(W.shape[1], self.K + 1 - lo)
        if lo == 0:
            out[:] = W[:, 1:n] @ P[: n - 1] + W[:, :1]
        elif n > 0:
            out += self.xs ** (lo - 1) * (W[:, :n] @ P[:n])


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
