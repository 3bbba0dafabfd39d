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
        noise; checked through float64 prefix sums within runs of 256 terms
        whose totals are carried in extended precision, off by at most about
        6e-14 at K ~ 1e7, where one float64 cumulative sum carries ~1e-9);
  (iii) a shifted-tail corridor F_{n,k} >= Ftilde_{n,k+s}, s = floor(sqrt(n)
        q^{-n}), for k up to K/2;
  (iv)  boundedness of C_hat(n) = max_{k >= n q^{-n}} Ftilde_{n,k} e^{k q^n}
        (the exponential-tail envelope constant), computed in log space;
  (v)   a lower envelope ratio Ftilde_{n, floor(n q^{-n})} / (q^{n/2}
        n^{gamma-1.25} e^{-2n}), which should stay bounded away from zero.

Array length follows K(n) = ceil(40 n q^{-n}); rows whose arrays would pass
the byte budget are reported as skipped rather than computed. The weights
underflow to +0.0 long before k reaches K, so a row holds the K+1 weights and
the sorted copy of their support [0, s), s one past the last nonzero weight;
the rearrangement is that copy followed by zeros that are never stored. One
backward sweep over [0, s) turns both into their tails in place and checks
(iii) and (iv) as it goes; every pass runs in blocks of `_BLOCK` elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coeffs import CoefficientSequence
from .sampling import _is_int

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
_BUDGET = 320_000_000  # bytes of a row's two float64 arrays of K+1
_BLOCK = 1 << 14  # floats per block of every pass over a row: 128 KB
_RUN = 256  # float64 prefix-sum run of _min_prefix_gap; divides _BLOCK
_EXP_ZERO = -746.0  # exp(t) < 2^-1076 for t below it, which rounds to +0.0


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
    if not (_is_int(n) and n >= 1):
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
    for lo in range(1, K + 1, _BLOCK):
        k = np.arange(lo, min(K + 1, lo + _BLOCK), dtype=float)
        blk = seq._log_csq(k)
        blk += log_x2 * k
        if blk.max() >= _EXP_ZERO:  # else the block's weights are the +0.0 already there
            np.divide(np.exp(blk, out=blk), v, out=a_sq[lo : lo + k.size])
    return WeightArray(a_sq=a_sq, tail_mass=tail_mass)


def rearrange(w: WeightArray) -> np.ndarray:
    """Nonincreasing rearrangement b_{n,k}^2 of the squared weights."""
    return np.sort(w.a_sq)[::-1]


def _sorted_support(a_sq: np.ndarray) -> np.ndarray:
    """The weights a_0..a_{s-1} sorted nondecreasing, s one past the last
    nonzero weight. Reversed and followed by K+1-s zeros it is `rearrange`'s
    array, value for value: the weights hold no -0.0. The stable sort is a
    merge of runs, O(s) on these unimodal rows."""
    s = a_sq.size
    while not a_sq[max(0, s - _BLOCK) : s].any():  # sum_k a_k ~ 1, so s > 0
        s -= _BLOCK
    s -= np.argmax(a_sq[max(0, s - _BLOCK) : s][::-1] > 0.0)
    return np.sort(a_sq[:s], kind="stable")


def _min_prefix_gap(b_sq: np.ndarray, a_sq: np.ndarray) -> float:
    """min_k sum_{j<k} (b_j - a_j), blocked.

    Equals -max_k (F_k - Ftilde_k), mathematically >= 0. The differences are
    summed in float64 within runs of `_RUN` and the run totals are carried in
    extended precision. With both arrays summing to 1, every prefix is off by
    at most 2 (_RUN - 1) 2^-53 + 2 (K/_RUN) 2^-64, about 6e-14 at K = 9.2e6:
    well inside the 1e-12 tolerance at any K the byte budget admits. Past
    the last nonzero of both arrays every prefix repeats, so a caller may
    pass [0, s) only.
    """
    carry = np.longdouble(0.0)
    best = np.longdouble(0.0)  # empty prefix
    buf = np.empty(_BLOCK)
    for lo in range(0, b_sq.size, _BLOCK):
        m = min(b_sq.size - lo, _BLOCK)
        d = buf[: -(-m // _RUN) * _RUN]
        d[m:] = 0.0  # zero padding repeats a prefix
        np.subtract(b_sq[lo : lo + m], a_sq[lo : lo + m], out=d[:m])
        runs = d.reshape(-1, _RUN)
        np.cumsum(runs, axis=1, out=runs)
        starts = np.cumsum(np.concatenate(([carry], runs[:, -1])))
        best = min(best, (starts[:-1] + runs.min(axis=1)).min())
        carry = starts[-1]
    return float(best)


def _sweep(a_sq, b_up, shift: int, half: int, k0: int, qn: float, tail_mass: float):
    """One backward pass over [0, s), s = b_up.size, with a_sq the K+1
    weights (zero from s on) and b_up their sorted support (nondecreasing).

    Block by block from the top, it turns a_sq into Ftilde and b_up into F
    (read backwards) in place, summed from the small end as one long cumsum
    would, bit for bit: each block's carry is folded into its first summand.
    It returns whether F_k >= Ftilde_{k+shift} (relative slack
    _CORRIDOR_RTOL) for k <= half, where past K Ftilde is replaced by its
    upper bound, the certified tail mass; and max_{k >= k0} log Ftilde_k +
    k q^n, or -inf if the support ends by k0.
    """
    s, K = b_up.size, a_sq.size - 1
    # past s, F_k = 0 and f = 1e-300, against Ftilde = 0 up to K and the tail mass past it
    ok = half < s or half + shift <= K or 1e-300 >= tail_mass
    best, ca, cb = -math.inf, 0.0, 0.0
    for hi in range(s, 0, -_BLOCK):
        lo = max(0, hi - _BLOCK)
        for t, c in ((a_sq[lo:hi][::-1], ca), (b_up[s - hi : s - lo], cb)):
            t[0] += c
            np.cumsum(t, out=t)
        ca, cb = a_sq[lo], b_up[s - lo - 1]
        if ok and lo <= half:
            f = b_up[s - min(hi, half + 1) : s - lo][::-1] * (1.0 + _CORRIDOR_RTOL) + 1e-300
            ft = a_sq[lo + shift : lo + shift + f.size]  # short or empty past K
            ok = bool(np.all(f[: ft.size] >= ft) and np.all(f[ft.size :] >= tail_mass))
        c = max(lo, k0)
        if c < hi:
            env = np.log(a_sq[c:hi])
            env += np.arange(c, hi, dtype=float) * qn
            best = max(best, env.max())
    return ok, best


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

    K(n) = ceil(40 n q^{-n}); a row whose two arrays of K+1 floats would
    pass `_BUDGET` bytes is skipped with a notice, before anything is
    allocated, instead of raising. A K far past it is judged by its logarithm
    and left as None, since q^{-n} may not fit in a float.
    """
    rows = []
    for n in n_range:
        _validate_nq(n, q)
        log_k = math.log(40.0 * n) - n * math.log(q)
        K = math.ceil(40.0 * n * q**-n) if log_k < math.log(_BUDGET / 16) + 1.0 else None
        if K is None or 16 * (K + 1) > _BUDGET:
            lk = log_k / math.log(10.0)  # log10 K, where q^{-n} may not fit in a float
            size = K if K is not None else f"~1e{lk:.0f}"
            mb = f"{16e-6 * (K + 1):.0f}" if K is not None else f"~1e{lk + math.log10(16e-6):.0f}"
            note = f"K={size} needs {mb} MB, over the {_BUDGET // 10**6} MB budget"
            rows.append(DiagnosticsRow(n=n, K=K, skipped=True, note=note))
            continue
        w = weights(seq, n, q, K)
        a_sq = w.a_sq
        b_up = _sorted_support(a_sq)  # b_k = b_up[s-1-k]; zero from k = s on

        b0_sq = float(b_up[-1])
        b0_bound = q ** (0.5 * n * min(1.0, seq.gamma))
        # over the whole row: numpy's pairwise summation order depends on the length
        norm_gap = abs(1.0 - float(a_sq.sum()))
        min_gap = _min_prefix_gap(b_up[::-1], a_sq[: b_up.size])

        shift = math.floor(math.sqrt(n) * q**-n)
        # a_sq becomes Ftilde and b_up the tails F, backwards
        corridor_ok, log_chat = _sweep(
            a_sq, b_up, shift, K // 2, math.ceil(n * q**-n), q**n, w.tail_mass
        )
        chat = float(np.exp(log_chat))

        j = math.floor(n * q**-n)
        envelope = q ** (0.5 * n) * n ** (seq.gamma - 1.25) * math.exp(-2.0 * n)
        lower_ratio = float(a_sq[j] / envelope) if j <= K else math.nan

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
        del w, a_sq, b_up  # else they stay alive while the next row is built
    return DiagnosticsReport(q=q, gamma=seq.gamma, rows=rows)
