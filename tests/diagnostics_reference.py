"""Reference weight-array diagnostics for the tests: the full-array form.

`check_weight_inequalities` here has the contract of
`taylorzeros.diagnostics.check_weight_inequalities` and the same arithmetic,
element by element, but holds its intermediates as whole arrays of K+1
floats: the weights and their index array, both tail arrays beside the
weights, and the corridor's and envelope's index, `arange` and `np.where`
arrays (about eight arrays per row, 274 MB at n=13). It is kept only to pin
the rows of the blocked package version, bit for bit. `tail_pair` gives both
tail arrays of one weight array, for the tests of the tails themselves.
"""

import math
from dataclasses import dataclass

import numpy as np

from taylorzeros.coeffs import CoefficientSequence
from taylorzeros.diagnostics import (
    _BUDGET,
    _CORRIDOR_RTOL,
    _EXACT_TOL,
    _LD_BLOCK,
    _NORM_TOL,
    _TAIL_CEILING,
    DiagnosticsReport,
    DiagnosticsRow,
    TruncationError,
    WeightArray,
    _validate_nq,
)


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


@dataclass
class TailPair:
    """Ftilde (natural-order tails) and F (rearranged tails), k = 0..K."""

    tilde: np.ndarray
    sorted: np.ndarray


def tail_pair(w: WeightArray) -> TailPair:
    return TailPair(tilde=_reverse_cumsum(w.a_sq), sorted=_reverse_cumsum(rearrange(w)))


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
