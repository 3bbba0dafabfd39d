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
    "PRESETS",
]

_BLOCK = 1 << 16
_MAX_TERMS = 1 << 28


@dataclass(frozen=True)
class Constant:
    """L(t) = c for a fixed c > 0."""

    c: float = 1.0

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError(f"constant slow variation needs c > 0, got {self.c}")

    def __call__(self, t):
        return self.c * np.ones_like(np.asarray(t, dtype=float))

    def ratio_cap(self, k: int) -> float:
        return 1.0

    def label(self) -> str:
        return f"const:{self.c!r}"


@dataclass(frozen=True)
class LogPower:
    """L(t) = (1 + log t)^beta, defined for t >= 1."""

    beta: float = 1.0

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
        return f"logpow:{self.beta!r}"


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


def _scalar_ok(x) -> bool:
    return np.ndim(x) == 0


def _check_gamma(gamma: float):
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")


@dataclass(frozen=True)
class CoefficientSequence:
    """c_k^2 = k^(gamma-1) L(k) / Gamma(gamma), with c_0 = 0 by default.

    With ``c0_zero=False`` the k = 0 coefficient takes the k -> 0+ limit of
    the same formula: 0 for gamma > 1 and L(1) for gamma = 1 (so gamma = 1,
    L = 1 gives the plain geometric-series coefficients c_k = 1 for all k);
    gamma < 1 has no finite limit and is rejected.
    """

    gamma: float
    slow: Constant | LogPower | LogLog = field(default_factory=Constant)
    c0_zero: bool = True

    def __post_init__(self):
        _check_gamma(self.gamma)
        if not self.c0_zero and self.gamma < 1:
            raise ValueError("c0_zero=False needs gamma >= 1 (k -> 0 limit diverges)")

    @property
    def _c0sq(self) -> float:
        if self.c0_zero or self.gamma > 1:
            return 0.0
        return float(self.slow(1.0))  # gamma == 1, Gamma(1) == 1

    def csq(self, k):
        """c_k^2 for scalar or array k (integer indices, k >= 0)."""
        scalar = _scalar_ok(k)
        k = np.atleast_1d(np.asarray(k, dtype=float))
        if np.any(k < 0):
            raise ValueError("coefficient index must be >= 0")
        out = np.empty_like(k)
        pos = k >= 1
        kp = k[pos]
        g = self.gamma
        out[pos] = kp ** (g - 1.0) * self.slow(kp) / math.gamma(g)
        out[~pos] = self._c0sq
        return float(out[0]) if scalar else out

    def coeff(self, k):
        """c_k = sqrt(c_k^2)."""
        c2 = self.csq(k)
        return math.sqrt(c2) if _scalar_ok(k) else np.sqrt(c2)

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
        rho = self.ratio_cap(K) * x * x
        if rho > 0.5 * (1.0 + x * x):
            return math.inf
        t_K = self.csq(K) * x ** (2.0 * K)
        return t_K * rho / (1.0 - rho)

    def variance_v(self, x: float, rel_tol: float = 1e-12) -> float:
        """v(x) = sum_k c_k^2 x^{2k} with certified relative truncation error.

        Sums in blocks of 64 terms doubling up to _BLOCK, and stops once the
        geometric tail bound is below rel_tol times the partial sum; 0 <= x < 1.
        """
        if not (0.0 <= x < 1.0):
            raise ValueError(f"variance_v needs x in [0, 1), got {x}")
        if not (rel_tol > 0):
            raise ValueError("rel_tol must be positive")
        if x == 0.0:
            return self._c0sq
        total = self._c0sq
        lo, size = 1, 64
        while lo < _MAX_TERMS:
            hi = lo + size
            k = np.arange(lo, hi, dtype=float)
            total += float(np.sum(self.csq(k) * np.exp((2.0 * math.log(x)) * k)))
            lo, size = hi, min(2 * size, _BLOCK)
            if self.tail_bound(x, hi - 1) <= rel_tol * total:
                return total
        raise RuntimeError(f"variance_v did not converge at x={x}")

    def abel_asymptote(self, a: float) -> float:
        """(2a)^(-gamma) L(1/a), the leading term of v(1-a) as a -> 0+."""
        if not (0.0 < a < 1.0):
            raise ValueError(f"abel_asymptote needs a in (0, 1), got {a}")
        return (2.0 * a) ** (-self.gamma) * float(self.slow(1.0 / a))

    def max_share(self, n: int) -> float:
        """max_{k <= n} c_k^2 / sum_{k <= n} c_k^2, the top weight share.

        Tends to 0 as n grows for every regularly varying sequence; this is
        the quantity that drives the Lindeberg-type normality of the
        normalized series at a fixed point.
        """
        if n < 1:
            raise ValueError("max_share needs n >= 1")
        w = self.csq(np.arange(0, n + 1))
        return float(np.max(w) / np.sum(w))

    def label(self) -> str:
        return f"gamma={self.gamma!r},L={self.slow.label()}"


#: Coefficient families exercised throughout the test suite.
PRESETS = (
    CoefficientSequence(0.5),
    CoefficientSequence(1.0),
    CoefficientSequence(2.0),
    CoefficientSequence(1.0, LogPower(1.0)),
    CoefficientSequence(2.0, LogPower(-0.5)),
    CoefficientSequence(1.0, LogLog()),
)
