"""Weight-array diagnostics for the per-interval normal approximation.

At scale n the normalized series restricted to x = 1 - q^n has weight array

    a_{n,k}^2 = c_k^2 (1-q^n)^{2k} / v(1-q^n),    sum_k a_{n,k}^2 = 1,

and the distributional analysis of per-interval zero counts runs through
tail functionals of this array: the natural tails Ftilde_{n,k} = sum_{j>=k}
a_{n,j}^2 and the tails F_{n,k} of the nonincreasing rearrangement b_{n,k}.
This module tabulates, per n,

  (i)   a uniform bound on the largest weight, b_{n,0}^2 <= q^{n/2 * min(1,gamma)},
        reporting the smallest n from which it holds;
  (ii)  rearrangement domination F <= Ftilde (exact up to 1e-12 summation
        noise; checked through extended-precision prefix sums, since plain
        float64 cumulative sums carry ~1e-9 noise at K ~ 1e7);
  (iii) a shifted-tail corridor F_{n,k} >= Ftilde_{n,k+s}, s = floor(sqrt(n)
        q^{-n}), for k up to K/2;
  (iv)  boundedness of C_hat(n) = max_{k >= n q^{-n}} Ftilde_{n,k} e^{k q^n}
        (the exponential-tail envelope constant), computed in log space;
  (v)   a lower envelope ratio Ftilde_{n, floor(n q^{-n})} / (q^{n/2}
        n^{gamma-1.25} e^{-2n}), which should stay bounded away from zero.

Array length follows K(n) = ceil(40 n q^{-n}); rows whose K exceeds the
element budget are reported as skipped rather than computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coeffs import CoefficientSequence

__all__ = [
    "TruncationError",
    "WeightArray",
    "TailPair",
    "DiagnosticsRow",
    "DiagnosticsReport",
    "weights",
    "rearrange",
    "tail_pair",
    "check_weight_inequalities",
]

_TAIL_CEILING = 1e-10
_EXACT_TOL = 1e-12
_NORM_TOL = 1e-9  # tail mass is capped at 1e-10, so the gap must sit below this
_CORRIDOR_RTOL = 1e-9
_BUDGET = 50_000_000
_LD_BLOCK = 1 << 20


class TruncationError(ValueError):
    """The requested K leaves more than the allowed tail mass uncaptured."""


@dataclass
class WeightArray:
    """Squared weights a_{n,k}^2 for k = 0..K plus certified tail mass."""

    a_sq: np.ndarray = field(repr=False)
    tail_mass: float


@dataclass
class TailPair:
    """Ftilde (natural-order tails) and F (rearranged tails), k = 0..K."""

    tilde: np.ndarray
    sorted: np.ndarray


def _check_q(q: float):
    if not (0.0 < q < 1.0):
        raise ValueError(f"q must be in (0, 1), got {q}")


def _validate_nq(n: int, q: float):
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    _check_q(q)


def weights(seq: CoefficientSequence, n: int, q: float, K: int) -> WeightArray:
    """Weight array at scale n for k = 0..K.

    Raises TruncationError when K leaves tail mass above 1e-10. Each weight
    is exp(log c_k^2 + 2k log x) / v(x), so it is finite wherever v(x) is,
    even where c_k^2 alone overflows.
    """
    _validate_nq(n, q)
    if K < 1:
        raise ValueError("K must be >= 1")
    x = 1.0 - q**n
    v = seq.variance_v(x, rel_tol=1e-13)
    tail_mass = seq.tail_bound(x, K) / v
    if not (tail_mass <= _TAIL_CEILING):
        raise TruncationError(
            f"K={K} keeps tail mass {tail_mass:.3e} > {_TAIL_CEILING} at n={n}"
        )
    k = np.arange(K + 1, dtype=float)
    k[0] = 1.0  # c_0 = 0; a_sq[0] is set below
    a_sq = seq._log_csq(k)
    a_sq += (2.0 * math.log1p(-(q**n))) * k
    np.exp(a_sq, out=a_sq)
    a_sq /= v
    a_sq[0] = 0.0
    return WeightArray(a_sq=a_sq, tail_mass=tail_mass)


def rearrange(w: WeightArray) -> np.ndarray:
    """Nonincreasing rearrangement b_{n,k}^2 of the squared weights."""
    return np.sort(w.a_sq)[::-1]


def _reverse_cumsum(arr: np.ndarray) -> np.ndarray:
    # summed from the small end, so each entry has small *relative* error
    return np.cumsum(arr[::-1])[::-1]


def tail_pair(w: WeightArray) -> TailPair:
    return TailPair(
        tilde=_reverse_cumsum(w.a_sq), sorted=_reverse_cumsum(rearrange(w))
    )


def _min_prefix_gap(b_sq: np.ndarray, a_sq: np.ndarray) -> float:
    """min_k sum_{j<k} (b_j - a_j) in extended precision.

    Equals -max_k (F_k - Ftilde_k); mathematically >= 0, and the extended
    precision keeps the numerical verdict meaningful at the 1e-12 level.
    """
    carry = np.longdouble(0.0)
    best = np.longdouble(0.0)  # empty prefix
    for lo in range(0, b_sq.size, _LD_BLOCK):
        hi = min(b_sq.size, lo + _LD_BLOCK)
        d = b_sq[lo:hi].astype(np.longdouble) - a_sq[lo:hi].astype(np.longdouble)
        np.cumsum(d, out=d)
        best = min(best, carry + d.min())
        carry = carry + d[-1]
    return float(best)


@dataclass
class DiagnosticsRow:
    n: int
    K: int | None  # None on a skipped row whose K is too large to form
    skipped: bool = False
    note: str = ""
    b0_sq: float = math.nan
    b0_bound: float = math.nan
    b0_ok: bool = False
    norm_gap: float = math.nan  # |1 - sum of weights|, certified <= tail mass
    norm_ok: bool = False
    max_sorted_excess: float = math.nan  # max_k (F - Ftilde), should be <= ~0
    sorted_dominated: bool = False
    shift: int = 0
    corridor_ok: bool = False
    chat: float = math.nan
    lower_ratio: float = math.nan


@dataclass
class DiagnosticsReport:
    q: float
    gamma: float
    rows: list

    def _first_n_from_which(self, flag: str):
        tested = [r for r in self.rows if not r.skipped]
        n0 = None
        for r in tested:
            if getattr(r, flag):
                if n0 is None:
                    n0 = r.n
            else:
                n0 = None
        return n0

    def n0_largest_weight(self):
        """Smallest tested n from which the b0 bound holds through the range."""
        return self._first_n_from_which("b0_ok")

    def n0_corridor(self):
        return self._first_n_from_which("corridor_ok")

    def exact_invariants_hold(self) -> bool:
        """Rearrangement domination and unit normalization on every tested n."""
        return all(r.sorted_dominated and r.norm_ok for r in self.rows if not r.skipped)

    def chat_values(self):
        return [(r.n, r.chat) for r in self.rows if not r.skipped]

    def format_table(self) -> str:
        lines = [
            "  n        K  b0^2<=q^(n/2*g1)   norm   F<=Ftilde   corridor"
            "        C_hat   lower_ratio"
        ]
        for r in self.rows:
            if r.skipped:
                lines.append(f"{r.n:3d} {r.K or '-':>8}  skipped: {r.note}")
                continue
            lines.append(
                f"{r.n:3d} {r.K:>8d}  {'ok' if r.b0_ok else 'VIOLATED':>16s} "
                f"{'ok' if r.norm_ok else 'VIOLATED':>6s} "
                f"{'ok' if r.sorted_dominated else 'VIOLATED':>11s} "
                f"{'ok' if r.corridor_ok else 'VIOLATED':>10s} {r.chat:12.5g} "
                f"{r.lower_ratio:12.5g}"
            )
        return "\n".join(lines)


def check_weight_inequalities(
    seq: CoefficientSequence, q: float, n_range
) -> DiagnosticsReport:
    """Tabulate the five weight-array checks over n in n_range.

    K(n) = ceil(40 n q^{-n}); rows over `_BUDGET` elements are skipped with
    a notice instead of raising. A K far past it is judged by its logarithm
    and left as None, since q^{-n} may not fit in a float.
    """
    rows = []
    for n in n_range:
        _validate_nq(n, q)
        log_k = math.log(40.0 * n) - n * math.log(q)
        K = math.ceil(40.0 * n * q**-n) if log_k < math.log(_BUDGET) + 1.0 else None
        if K is None or K + 1 > _BUDGET:
            size = K if K is not None else f"~1e{log_k / math.log(10.0):.0f}"
            rows.append(
                DiagnosticsRow(
                    n=n, K=K, skipped=True,
                    note=f"K={size} exceeds the {_BUDGET}-element budget",
                )
            )
            continue
        w = weights(seq, n, q, K)
        b_sq = rearrange(w)
        pair = TailPair(
            tilde=_reverse_cumsum(w.a_sq), sorted=_reverse_cumsum(b_sq)
        )
        qn = q**n

        b0_sq = float(b_sq[0])
        b0_bound = q ** (0.5 * n * min(1.0, seq.gamma))
        norm_gap = abs(1.0 - float(w.a_sq.sum()))
        min_gap = _min_prefix_gap(b_sq, w.a_sq)

        shift = math.floor(math.sqrt(n) * q**-n)
        half = K // 2
        f_hi = pair.sorted[: half + 1]
        idx = np.arange(half + 1) + shift
        # beyond the array the tail is at most the certified tail mass;
        # using the upper bound keeps the comparison conservative
        ft_shifted = np.where(idx <= K, pair.tilde[np.minimum(idx, K)], w.tail_mass)
        corridor_ok = bool(
            np.all(f_hi * (1.0 + _CORRIDOR_RTOL) + 1e-300 >= ft_shifted)
        )

        k0 = math.ceil(n * q**-n)
        ks = np.arange(k0, K + 1, dtype=float)
        ft = pair.tilde[k0:]
        with np.errstate(divide="ignore"):
            log_env = np.where(ft > 0.0, np.log(ft) + ks * qn, -np.inf)
        chat = float(np.exp(np.max(log_env)))

        j = math.floor(n * q**-n)
        envelope = q ** (0.5 * n) * n ** (seq.gamma - 1.25) * math.exp(-2.0 * n)
        lower_ratio = float(pair.tilde[j] / envelope) if j <= K else math.nan

        rows.append(
            DiagnosticsRow(
                n=n,
                K=K,
                b0_sq=b0_sq,
                b0_bound=b0_bound,
                b0_ok=bool(b0_sq <= b0_bound),
                norm_gap=norm_gap,
                norm_ok=bool(norm_gap <= _NORM_TOL),
                max_sorted_excess=-min_gap,
                sorted_dominated=bool(min_gap >= -_EXACT_TOL),
                shift=shift,
                corridor_ok=corridor_ok,
                chat=chat,
                lower_ratio=lower_ratio,
            )
        )
    return DiagnosticsReport(q=q, gamma=seq.gamma, rows=rows)
