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
element budget are reported as skipped rather than computed. A row holds two
arrays of K+1 floats, the weights and their sorted copy, each turned into its
tails in place; everything else runs in blocks of `_LD_BLOCK` elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coeffs import CoefficientSequence

__all__ = [
    "TruncationError",
    "WeightArray",
    "DiagnosticsRow",
    "DiagnosticsReport",
    "weights",
    "rearrange",
    "check_weight_inequalities",
]

_TAIL_CEILING = 1e-10
_EXACT_TOL = 1e-12
_NORM_TOL = 1e-9  # tail mass is capped at 1e-10, so the gap must sit below this
_CORRIDOR_RTOL = 1e-9
_BUDGET = 50_000_000
_LD_BLOCK = 1 << 20


class TruncationError(RuntimeError):
    """The requested K leaves more than the allowed tail mass uncaptured: a
    runtime limit on valid input (the fixed K(n) rule falls short)."""


@dataclass
class WeightArray:
    """Squared weights a_{n,k}^2 for k = 0..K plus certified tail mass."""

    a_sq: np.ndarray = field(repr=False)
    tail_mass: float


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
    log_x2 = 2.0 * math.log1p(-(q**n))
    a_sq = np.zeros(K + 1)  # c_0 = 0; k >= 1 is filled block by block
    for lo in range(1, K + 1, _LD_BLOCK):
        k = np.arange(lo, min(K + 1, lo + _LD_BLOCK), dtype=float)
        blk = seq._log_csq(k)
        blk += log_x2 * k
        np.divide(np.exp(blk, out=blk), v, out=a_sq[lo : lo + k.size])
    return WeightArray(a_sq=a_sq, tail_mass=tail_mass)


def rearrange(w: WeightArray) -> np.ndarray:
    """Nonincreasing rearrangement b_{n,k}^2 of the squared weights."""
    return np.sort(w.a_sq)[::-1]


def _tails(arr: np.ndarray) -> np.ndarray:
    """arr_k -> sum_{j>=k} arr_j, in place; summed from the small end, so each
    entry has small *relative* error."""
    np.cumsum(arr[::-1], out=arr[::-1])
    return arr


def _min_prefix_gap(b_sq: np.ndarray, a_sq: np.ndarray) -> float:
    """min_k sum_{j<k} (b_j - a_j) in extended precision.

    Equals -max_k (F_k - Ftilde_k); mathematically >= 0, and the extended
    precision keeps the numerical verdict meaningful at the 1e-12 level.
    """
    carry = np.longdouble(0.0)
    best = np.longdouble(0.0)  # empty prefix
    for lo in range(0, b_sq.size, _LD_BLOCK):
        hi = min(b_sq.size, lo + _LD_BLOCK)
        d = np.subtract(b_sq[lo:hi], a_sq[lo:hi], dtype=np.longdouble)
        np.cumsum(d, out=d)
        best = min(best, carry + d.min())
        carry = carry + d[-1]
    return float(best)


def _corridor_ok(F, tilde, shift: int, half: int, tail_mass: float) -> bool:
    """F_k >= Ftilde_{k+shift} (relative slack _CORRIDOR_RTOL) for k <= half;
    past K, Ftilde is replaced by its upper bound, the certified tail mass."""
    for lo in range(0, half + 1, _LD_BLOCK):
        f = F[lo : min(half + 1, lo + _LD_BLOCK)] * (1.0 + _CORRIDOR_RTOL) + 1e-300
        ft = tilde[lo + shift : lo + shift + f.size]  # short or empty past K
        if not (np.all(f[: ft.size] >= ft) and np.all(f[ft.size :] >= tail_mass)):
            return False
    return True


def _log_chat(tilde, k0: int, qn: float) -> float:
    """max_{k >= k0} log Ftilde_k + k q^n; a zero tail gives -inf."""
    best = -math.inf
    with np.errstate(divide="ignore"):
        for lo in range(k0, tilde.size, _LD_BLOCK):
            env = np.log(tilde[lo : lo + _LD_BLOCK])
            env += np.arange(lo, lo + env.size, dtype=float) * qn
            best = max(best, env.max())
    return best


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
        a_sq, b_sq = w.a_sq, rearrange(w)

        b0_sq = float(b_sq[0])
        b0_bound = q ** (0.5 * n * min(1.0, seq.gamma))
        norm_gap = abs(1.0 - float(a_sq.sum()))
        min_gap = _min_prefix_gap(b_sq, a_sq)
        # both arrays become their tails: Ftilde (natural) and F (rearranged)
        tilde, F = _tails(a_sq), _tails(b_sq)

        shift = math.floor(math.sqrt(n) * q**-n)
        corridor_ok = _corridor_ok(F, tilde, shift, K // 2, w.tail_mass)
        chat = float(np.exp(_log_chat(tilde, math.ceil(n * q**-n), q**n)))

        j = math.floor(n * q**-n)
        envelope = q ** (0.5 * n) * n ** (seq.gamma - 1.25) * math.exp(-2.0 * n)
        lower_ratio = float(tilde[j] / envelope) if j <= K else math.nan

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
