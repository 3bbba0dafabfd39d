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

Reproducibility: generators are counter-based (Philox), and every Philox
key in the package is numpy's `SeedSequence` hash of (seed, key), computed
by `_philox_keys`: `trial_rng` builds one generator from it, and the scan
hashes a chunk of trial indices at once with `trial_keys` and re-keys a few
generators with `_rekey`, each then a fresh `trial_rng(seed, t)`. So a
sample is a pure function of (sequence, law, seed, K) and the first K+1
draws of a longer stream match the shorter one.
"""

from __future__ import annotations

import enum
import itertools
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
    "trial_keys",
    "truncation_degree",
    "draw_sample",
]

_EVAL_BLOCK = 1 << 24  # floats per power table, the one block it keeps
_BLOCK_ROWS = 1 << 14  # powers per kept block at most: a block of weights is small
_ROWS = 8  # weight vectors per matrix product, whatever the number of trials
_K_CAP = 1 << 27  # K <= 2^26: the scan's coefficient vector is K+1 floats

_SQRT3 = math.sqrt(3.0)

_MASK32 = 0xFFFFFFFF


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


def _is_int(x) -> bool:
    """An integer, and not a bool: True is no count, seed or key."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _words(n, name: str) -> list:
    """The uint32 words of n, least significant first, as `SeedSequence` reads
    an int; n must be a nonnegative integer."""
    if not (_is_int(n) and n >= 0):
        raise ValueError(f"{name} must be a nonnegative integer, got {n!r}")
    n, words = int(n), []
    while n or not words:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hashmix(h: int, mult: int):
    """numpy's SeedSequence hashmix on uint32 arrays; each call moves the hash
    constant h on by `mult`, as numpy does."""
    def hashmix(v):
        nonlocal h
        v = v ^ np.uint32(h)
        h = h * mult & _MASK32
        v = v * np.uint32(h)
        return v ^ (v >> np.uint32(16))
    return hashmix


def _mix(x, y):
    """numpy's SeedSequence mix of pool word x with hashed word y."""
    r = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
    return r ^ (r >> np.uint32(16))


def _philox_keys(seed, spawn: np.ndarray) -> np.ndarray:
    """(rows, 2) uint64 Philox keys: row i is what
    `SeedSequence(seed, spawn_key=spawn[i]).generate_state(2, np.uint64)`
    gives, spawn being (rows, words) uint32. This is numpy's hash (O'Neill's
    seed_seq, pool size 4) on arrays: the seed's words, zero-padded to the
    pool, then the spawn words, mixed into the pool. The hash constants move
    alike for every row, so nothing branches per row, and the seed's words
    are one row, broadcast against the spawn words."""
    words = _words(seed, "seed")
    entropy = [np.array([w], dtype=np.uint32) for w in words + [0] * (4 - len(words))]
    entropy += list(spawn.T)
    hashmix = _hashmix(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(v) for v in entropy[:4]]
    for i, j in itertools.permutations(range(4), 2):  # late words reach early ones
        pool[j] = _mix(pool[j], hashmix(pool[i]))
    for v in entropy[4:]:
        for j in range(4):
            pool[j] = _mix(pool[j], hashmix(v))
    state = list(map(_hashmix(0x8B51F9DD, 0x58F38DED), pool))  # generate_state's words
    lo, hi = np.array(state[0::2], np.uint64), np.array(state[1::2], np.uint64)
    return (lo | hi << np.uint64(32)).T  # each pair of words read as one little-endian uint64


def trial_keys(seed, ts) -> np.ndarray:
    """The Philox keys of `trial_rng(seed, t)` for the trial indices t in `ts`,
    each in [0, 2^32), as a (len(ts), 2) uint64 array, hashed all at once."""
    ts = np.asarray(ts)
    if ts.ndim != 1 or ts.dtype.kind not in "iu" or (
        ts.size and not 0 <= ts.min() <= ts.max() <= _MASK32
    ):
        raise ValueError("trial indices must be a 1-d integer array in [0, 2**32)")
    return _philox_keys(seed, ts.astype(np.uint32)[:, None])


def _rekey(gen: np.random.Generator, key) -> None:
    """Restart `gen`, a Philox generator, as a fresh stream of `key` (a row of
    `trial_keys`): counter 0, nothing buffered, no half word held over."""
    gen.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": (0,) * 4, "key": key},
                               "buffer": (0,) * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def trial_rng(seed, *key: int) -> np.random.Generator:
    """Counter-based generator for (seed, key): Philox keyed by
    `SeedSequence(seed, spawn_key=key)`.

    `seed` is a nonnegative int, or a numpy SeedSequence when no key is given
    (callers running trial grids pass pre-derived sequences). Distinct keys
    give statistically independent streams; the derivation is a pure
    function of its arguments, so any worker layout reproduces the same
    per-trial draws.
    """
    if isinstance(seed, np.random.SeedSequence):
        if key:
            raise ValueError("a SeedSequence seed takes no key")
        return np.random.Generator(np.random.Philox(seed))
    spawn = np.array([[w for k in key for w in _words(k, "key")]], dtype=np.uint32)
    lo, hi = _philox_keys(seed, spawn)[0]
    return np.random.Generator(np.random.Philox(key=int(lo) | int(hi) << 64))


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
