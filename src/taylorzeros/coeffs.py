"""Regularly varying coefficient sequences for random Taylor series.

A sequence is defined by an index gamma > 0 and a slowly varying factor L:

    c_k^2 = k^(gamma-1) * L(k) / Gamma(gamma),   k >= 1,

with c_0 = 0 by convention (a nonzero constant term never changes the zero
count asymptotics, and dropping it makes every normalization below exact).
The variance function of the associated series sum_k xi_k c_k x^k with iid
unit-variance xi is

    v(x) = sum_k c_k^2 x^{2k},

and as a -> 0+ it obeys the Abelian asymptotics v(1-a) ~ (2a)^(-gamma) L(1/a).

All tail estimates here are certified: past any index K where the termwise
ratio c_{k+1}^2 x^2 / c_k^2 is provably below a fixed rho < 1, the remaining
mass is bounded by a geometric series. Every shipped L family has a
nonincreasing ratio cap, which is what makes the certificate valid for all
k >= K at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Constant",
    "LogPower",
    "LogLog",
    "CoefficientSequence",
]

_BLOCK = 1 << 16
_MAX_TERMS = 1 << 28
_LOG_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class Constant:
    """L(t) = c for a fixed c > 0."""

    c: float = 1.0

    def __post_init__(self):
        if not 0 < self.c < math.inf:
            raise ValueError(f"constant slow variation needs 0 < c < inf, got {self.c}")

    def __call__(self, t):
        return self.c * np.ones_like(np.asarray(t, dtype=float))

    def ratio_cap(self, k: int) -> float:
        return 1.0

    def label(self) -> str:
        return f"const:{float(self.c)!r}"


@dataclass(frozen=True)
class LogPower:
    """L(t) = (1 + log t)^beta, defined for t >= 1."""

    beta: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.beta):
            raise ValueError(f"log-power slow variation needs finite beta, got {self.beta}")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return (1.0 + np.log(t)) ** self.beta

    def ratio_cap(self, k: int) -> float:
        # (1+log(k+1))/(1+log k) >= 1 and decreases in k, so this caps all
        # later ratios as well; for beta < 0 the ratio is below 1.
        if self.beta <= 0:
            return 1.0
        return float((1.0 + math.log(k + 1)) / (1.0 + math.log(k))) ** self.beta

    def label(self) -> str:
        return f"logpow:{float(self.beta)!r}"


@dataclass(frozen=True)
class LogLog:
    """L(t) = log(e + log t), a slowly varying factor that grows without bound."""

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.log(math.e + np.log(t))

    def ratio_cap(self, k: int) -> float:
        return float(
            math.log(math.e + math.log(k + 1)) / math.log(math.e + math.log(k))
        )

    def label(self) -> str:
        return "loglog"


def _check_gamma(gamma: float):
    # Gamma(gamma), the divisor in c_k^2, overflows a float past gamma ~ 171.6
    if not (gamma > 0.0 and math.lgamma(gamma) < _LOG_MAX):
        raise ValueError(f"gamma must be positive with Gamma(gamma) finite, got {gamma}")


@dataclass(frozen=True)
class CoefficientSequence:
    """c_k^2 = k^(gamma-1) L(k) / Gamma(gamma) for k >= 1, and c_0 = 0.

    Every c_k^2 comes from its logarithm, `_log_csq`, so a term c_k^2 x^{2k}
    that fits in a float is finite even where k^(gamma-1) is not.
    """

    gamma: float
    slow: Constant | LogPower | LogLog = field(default_factory=Constant)

    def __post_init__(self):
        _check_gamma(self.gamma)
        if not isinstance(self.slow, (Constant, LogPower, LogLog)):
            raise ValueError(f"slow must be a Constant, LogPower or LogLog, got {self.slow!r}")

    def _log_csq(self, k):
        """(gamma-1) log k + log L(k) - log Gamma(gamma), k >= 1, in one array."""
        g = self.gamma
        out = np.log(self.slow(k))
        out += (g - 1.0) * np.log(k)
        out -= math.lgamma(g)
        return out

    def csq(self, k):
        """c_k^2 for scalar or array k (integer indices, k >= 0)."""
        scalar = np.ndim(k) == 0
        k = np.atleast_1d(np.asarray(k, dtype=float))
        if np.any(k < 0):
            raise ValueError("coefficient index must be >= 0")
        out = self._log_csq(np.maximum(k, 1.0))
        np.exp(out, out=out)
        out[k < 1] = 0.0
        return float(out[0]) if scalar else out

    def coeff(self, k):
        """c_k = sqrt(c_k^2)."""
        c2 = self.csq(k)
        return math.sqrt(c2) if np.ndim(k) == 0 else np.sqrt(c2)

    def ratio_cap(self, k: int) -> float:
        """Upper bound for c_{j+1}^2 / c_j^2 valid for every j >= k >= 1.

        Both factors of the true ratio, ((j+1)/j)^(gamma-1) and L(j+1)/L(j),
        are bounded by nonincreasing-in-j caps, so evaluating at j = k caps
        the whole tail.
        """
        if k < 1:
            raise ValueError("ratio cap needs k >= 1")
        g = self.gamma
        poly = ((k + 1.0) / k) ** (g - 1.0) if g > 1 else 1.0
        return poly * self.slow.ratio_cap(k)

    def tail_bound(self, x: float, K: int) -> float:
        """Certified upper bound for sum_{k > K} c_k^2 x^{2k}.

        Returns inf when the geometric certificate is not yet valid at K
        (ratio cap times x^2 still too close to 1); callers double K until it
        is. Requires 0 <= x < 1 and K >= 1.
        """
        if not (0.0 <= x < 1.0):
            raise ValueError(f"x must be in [0, 1), got {x}")
        if K < 1:
            raise ValueError("tail bound needs K >= 1")
        return self._scaled_tail_bound(x, K, 0.0)

    def _scaled_tail_bound(self, x: float, K: int, log_scale: float) -> float:
        """tail_bound(x, K) times e^(-log_scale), finite wherever that fits a float."""
        rho = self.ratio_cap(K) * x * x
        if rho > 0.5 * (1.0 + x * x):
            return math.inf
        # c_K^2 e^(-log_scale) = 2^j e^r: x^(2K) keeps the accuracy of pow, and
        # no factor overflows
        j, r = divmod(float(self._log_csq(float(K))) - log_scale, math.log(2.0))
        t_K = float(np.ldexp(math.exp(r) * x ** (2.0 * K), int(j)))
        return t_K * rho / (1.0 - rho)

    def log_variance_v(self, x: float, rel_tol: float = 1e-12) -> float:
        """log v(x), v(x) = sum_k c_k^2 x^{2k}, with certified relative
        truncation error; -inf at x = 0.

        Sums in blocks of 64 terms doubling up to _BLOCK, each scaled by the
        largest log term so far, so the sum stays finite where v(x) does not
        fit in a float; stops once the geometric tail bound is below rel_tol
        times the partial sum. Requires 0 <= x < 1.
        """
        if not (0.0 <= x < 1.0):
            raise ValueError(f"variance_v needs x in [0, 1), got {x}")
        if not (rel_tol > 0):
            raise ValueError("rel_tol must be positive")
        if x == 0.0:
            return -math.inf
        total, scale, log_x2 = 0.0, -math.inf, 2.0 * math.log(x)
        lo, size = 1, 64
        while lo < _MAX_TERMS:
            hi = lo + size
            k = np.arange(lo, hi, dtype=float)
            t = self._log_csq(k)
            t += log_x2 * k
            top = max(scale, float(t.max()))
            t -= top
            total = total * math.exp(scale - top) + float(np.sum(np.exp(t, out=t)))
            scale, lo, size = top, hi, min(2 * size, _BLOCK)
            if self._scaled_tail_bound(x, hi - 1, scale) <= rel_tol * total:
                return scale + math.log(total)
        raise RuntimeError(f"variance_v did not converge at x={x}")

    def variance_v(self, x: float, rel_tol: float = 1e-12) -> float:
        """v(x) = exp(log_variance_v(x, rel_tol)); raises OverflowError when v(x)
        does not fit in a float."""
        try:
            return math.exp(self.log_variance_v(x, rel_tol))
        except OverflowError:
            msg = f"v(x) overflows a float at x={x}, gamma={self.gamma}"
            raise OverflowError(msg) from None

    def log_abel_asymptote(self, a: float) -> float:
        """log of (2a)^(-gamma) L(1/a), the leading term of v(1-a) as a -> 0+."""
        if not (0.0 < a < 1.0):
            raise ValueError(f"the Abel asymptote needs a in (0, 1), got {a}")
        return -self.gamma * math.log(2.0 * a) + math.log(float(self.slow(1.0 / a)))

    def max_share(self, n: int) -> float:
        """max_{k <= n} c_k^2 / sum_{k <= n} c_k^2, the top weight share.

        Tends to 0 as n grows for every regularly varying sequence; this is
        the quantity that drives the Lindeberg-type normality of the
        normalized series at a fixed point.
        """
        if n < 1:
            raise ValueError("max_share needs n >= 1")
        t = self._log_csq(np.arange(1.0, n + 1))
        return float(1.0 / np.sum(np.exp(t - t.max())))
