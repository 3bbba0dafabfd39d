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

Reproducibility: generators are counter-based (Philox). Trial t of a seed
reads numpy's `Philox(seed)` from counter block (0, 0, t, 0), that is
`Philox(seed).jumped(t)`: one key per seed, the trial in counter word 2, the
position in word 0. `trial_rng(seed, t)` builds that generator; the scan
reads the key once and `_seek`s a few generators from trial to trial.
Rademacher sign k is bit k % 64 of the stream's (k // 64)-th 64-bit word and
uniform variate k is read from word k, so a block of either is read from its
own position; Gaussian draws continue the stream. So a sample is a pure
function of (sequence, law, seed, t, K) and the first K+1 draws of a longer
stream match the shorter one. Under the bounded laws the series scan draws
and sums trial t's sample bit for bit; under the Gaussian law it reads the
trial's first P normals z and takes R^T z, R a factor of the grid values'
covariance (`experiments._grid_factor`): the same law, not the same bits.
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
_BYTE_SHIFTS = np.arange(0, 64, 8, dtype=np.uint64)


class CoefficientLaw(enum.Enum):
    """Mean-zero, unit-variance coefficient distributions."""

    RADEMACHER = "rademacher"
    GAUSSIAN = "gaussian"
    UNIFORM = "uniform"

    def draw(self, rng: np.random.Generator, lo: int, hi: int) -> np.ndarray:
        """Variates lo..hi-1 of the stream of `rng`, a `trial_rng` generator.
        Rademacher variate k is 1 - 2*bit, bit k % 64 of the stream's (k // 64)-th
        64-bit word, and uniform variate k is numpy's uniform on word k, each read
        from its own position. Gaussian draws continue `rng`, so they run from
        lo = 0, each from the last hi; one from lo > 0 on a generator that has
        drawn nothing raises ValueError. Draws concatenate: draw(g, 0, a) then
        draw(g, a, b) give draw(g', 0, b), g' a fresh generator of g's stream."""
        if not isinstance(rng.bit_generator, np.random.Philox):
            raise TypeError(f"coefficient draws need a Philox generator, got {rng.bit_generator!r}")
        if self is CoefficientLaw.GAUSSIAN:
            if lo > 0:  # only then: a draw from 0 pays nothing for the check
                s = rng.bit_generator.state
                if not any(s["state"]["counter"][:2]) and s["buffer_pos"] == 4:
                    raise ValueError(f"Gaussian variates run in stream order: variate {lo} "
                                     "needs the ones before it drawn first")
            return rng.standard_normal(hi - lo)
        if self is CoefficientLaw.UNIFORM:
            _seek_word(rng, lo)
            return rng.uniform(-_SQRT3, _SQRT3, size=hi - lo)
        w = lo // 64  # the word holding bit lo
        _seek_word(rng, w)
        words = rng.bit_generator.random_raw((hi + 63) // 64 - w)
        bytes_ = (words[:, None] >> _BYTE_SHIFTS).astype(np.uint8)  # low byte first
        bits = np.unpackbits(bytes_, bitorder="little")[lo - 64 * w : hi - 64 * w]
        return (1 - 2 * bits.view(np.int8)).astype(float)


def _is_int(x) -> bool:
    """An integer, and not a bool: True is no count, seed or key."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _seek(gen: np.random.Generator, key, t: int, block: int = 0) -> None:
    """Point `gen`, a Philox generator, at trial t's stream under `key` (the key
    of `trial_rng(seed)`) from 64-bit word 4 * block on: counter (block, 0, t, 0),
    nothing buffered and no half word held over. At block 0 it is a fresh
    `trial_rng(seed, t)`."""
    gen.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": (block, 0, t, 0), "key": key},
                               "buffer": (0,) * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _seek_word(rng: np.random.Generator, k: int) -> None:
    """Point `rng`, a `trial_rng` generator, at 64-bit word k of its trial's stream."""
    s = rng.bit_generator.state["state"]
    _seek(rng, s["key"], s["counter"][2], k // 4)
    rng.bit_generator.random_raw(k % 4)


def trial_rng(seed, t: int = 0) -> np.random.Generator:
    """Trial t's generator: numpy's Philox keyed by `seed`, a nonnegative int or
    a numpy SeedSequence, from counter block (0, 0, t, 0), which is
    `Philox(seed).jumped(t)`; `trial_rng(seed)` is `Philox(seed)`.

    Trials share the seed's key and split its counter: trial t owns the 2^128
    blocks whose word 2 is t, so distinct t < 2^64 read disjoint streams
    (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11). A
    stream is a pure function of (seed, t), so any worker layout or trial
    order reproduces the same per-trial draws.
    """
    if not (isinstance(seed, np.random.SeedSequence) or _is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be a nonnegative integer or a SeedSequence, got {seed!r}")
    if not (_is_int(t) and 0 <= t < 2**64):
        raise ValueError(f"trial index must be an integer in [0, 2**64), got {t!r}")
    # counter (0, 0, t, 0) as one int: numpy casts a list's t >= 2**63 through a float
    return np.random.Generator(np.random.Philox(seed, counter=int(t) << 128))


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
    t: int = 0,
) -> SeriesSample:
    """Draw xi_0..xi_K from `law`; deterministic in (law, seed, K, t).

    `seed` is a `trial_rng` seed, and the draw is trial t's stream, as the scan
    reads it under a bounded law; a Gaussian-law scan's trial t is R^T z on
    the same stream, equal to this sample's values in law only. A larger K
    extends the sample: the first K+1 variates agree.
    """
    if not (_is_int(K) and K >= 0):
        raise ValueError(f"K must be a nonnegative integer, got {K!r}")
    xi = law.draw(trial_rng(seed, t), 0, K + 1)
    return SeriesSample(seq=seq, xi=xi, policy=policy)
