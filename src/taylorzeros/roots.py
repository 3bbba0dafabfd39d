"""Zero counting on (0,1) with log-scale grids, plus exact polynomial oracles.

Scanning happens in the coordinate u = -log(1-x), where the zero set of the
series becomes asymptotically stationary: the expected number of zeros per
unit u tends to sqrt(gamma)/(2*pi), so a grid step of eta * 2*pi/sqrt(gamma)
places ~1/eta points per expected zero and missed same-cell pairs are rare.
`count_zeros` counts sign changes from one evaluation on the grid with every
gap halved (stable if both agree); `locate_zeros` brackets zeros by bisection.

The counting rule lives here, in `_zero_gaps`, and every count in the
package uses it (`count_zeros` for series scans, `path_zero_counts` for
limit-process paths). It is half-open on [a, b): a sign change is a gap whose
endpoint values have opposite `np.sign` (signs, not products, so values near
underflow still count), an exact zero sitting on a grid point is counted once
and attributed to the gap on its right, and a zero at the final grid point is
not counted. Tiling [0, r) by consecutive intervals therefore sums exactly to
the count over the union grid.

`exact_count_small` is a test oracle: a Sturm chain over exact rationals
(square-free reduction first), counting distinct real roots in a closed
interval for degrees up to 64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "EvaluationError",
    "ScanGrid",
    "ZeroCount",
    "count_zeros",
    "exact_count_small",
    "locate_zeros",
    "path_zero_counts",
    "rice_density",
]

_MAX_GRID = 100_000_000


class EvaluationError(RuntimeError):
    """A scanned function returned a non-finite value."""

    def __init__(self, x: float, value: float):
        super().__init__(f"non-finite evaluation {value!r} at x={x!r}")
        self.x = x
        self.value = value


@dataclass(frozen=True)
class ScanGrid:
    """Arithmetic grid in u = -log(1-x) over [a, b], 0 <= a < b < 1.

    The step in u is eta * 2*pi/sqrt(gamma), a fixed fraction of the mean
    zero spacing of the limit process.
    """

    a: float
    b: float
    eta: float = 0.02
    gamma: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.a < self.b < 1.0):
            raise ValueError(f"need 0 <= a < b < 1, got [{self.a}, {self.b}]")
        if not (self.eta > 0.0):
            raise ValueError(f"eta must be positive, got {self.eta}")
        if not (self.gamma > 0.0):
            raise ValueError(f"gamma must be positive, got {self.gamma}")

    @property
    def u_step(self) -> float:
        return self.eta * 2.0 * math.pi / math.sqrt(self.gamma)

    def points(self) -> np.ndarray:
        return self._points(1)

    def _points(self, split: int) -> np.ndarray:
        """`points()` with each gap cut in `split`; every split-th point is bitwise."""
        u_lo = -math.log1p(-self.a)
        u_hi = -math.log1p(-self.b)
        gaps = max(1, math.ceil((u_hi - u_lo) / self.u_step)) * split
        if gaps > _MAX_GRID:
            raise ValueError(f"grid of {gaps} gaps exceeds the {_MAX_GRID} cap")
        u = np.linspace(u_lo, u_hi, gaps + 1)
        x = -np.expm1(-u)
        x[0], x[-1] = self.a, self.b
        return x


@dataclass
class ZeroCount:
    """Zeros counted on [a, b), and whether the half-gap grid agrees."""

    count: int
    stable: bool


def _values(fn, pts: np.ndarray) -> np.ndarray:
    vals = np.asarray(fn(pts), dtype=float)
    if vals.shape != pts.shape:
        raise ValueError(f"fn returned shape {vals.shape} for {pts.shape} points")
    bad = ~np.isfinite(vals)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise EvaluationError(float(pts[i]), float(vals[i]))
    return vals


def _zero_gaps(v: np.ndarray) -> np.ndarray:
    """Half-open zero events along axis 0, one per gap [i, i+1): a sign
    change across the gap, or an exact zero at its left grid point."""
    s = np.sign(v)
    return (s[:-1] * s[1:] < 0.0) | (s[:-1] == 0.0)


def path_zero_counts(values, axis: int = 0) -> np.ndarray:
    """Half-open zero counts along `axis`: sign changes plus exact zeros at
    every grid point but the last. Works on (npoints,) or (npoints, m)."""
    v = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    return np.sum(_zero_gaps(v), axis=0)


def _refine(fn, lo: float, hi: float, lo_positive: bool, tol: float):
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        fm = float(_values(fn, np.array([mid]))[0])
        if fm == 0.0:
            return mid, mid
        if (fm > 0.0) == lo_positive:
            lo = mid
        else:
            hi = mid
    return lo, hi


def count_zeros(fn, grid: ScanGrid, *, vectorized: bool = True) -> ZeroCount:
    """Count zeros of `fn` on [grid.a, grid.b) by sign changes.

    `fn` takes an ndarray of points and is called once, on the grid with
    every gap halved. The count comes from the grid's own points (the even
    indices); `stable` records whether all points give the same count.
    `vectorized` is ignored, and accepted for callers that still pass it.
    """
    fine = _values(fn, grid._points(2))
    n = int(np.count_nonzero(_zero_gaps(fine[::2])))
    return ZeroCount(count=n, stable=bool(np.count_nonzero(_zero_gaps(fine)) == n))


def locate_zeros(fn, grid: ScanGrid) -> np.ndarray:
    """Brackets (lo, hi), shape (count, 2), of the zeros `count_zeros` counts
    on the grid, each refined by bisection to width 1e-12 * (b - a). An exact
    zero at a grid point gets the degenerate bracket (x, x).
    """
    pts = grid.points()
    vals = _values(fn, pts)
    gaps = np.flatnonzero(_zero_gaps(vals))
    tol = 1e-12 * (grid.b - grid.a)
    locs = np.empty((gaps.size, 2))
    for j, i in enumerate(gaps):
        if vals[i] == 0.0:
            locs[j] = pts[i], pts[i]
        else:
            locs[j] = _refine(fn, float(pts[i]), float(pts[i + 1]), vals[i] > 0.0, tol)
    return locs


def rice_density(x, gamma: float):
    """Expected zeros per unit x for the limit process: sqrt(gamma)/(2 pi (1-x)).

    Integrating from 0 to r gives (sqrt(gamma)/2 pi) * log(1/(1-r)), the
    leading-order expected count on [0, r]. Accepts 0 <= x < 1.
    """
    if not (gamma > 0.0):
        raise ValueError(f"gamma must be positive, got {gamma}")
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0) or np.any(xa >= 1.0):
        raise ValueError("rice_density needs 0 <= x < 1")
    out = math.sqrt(gamma) / (2.0 * math.pi * (1.0 - xa))
    return float(out) if np.ndim(x) == 0 else out


# ---------------------------------------------------------------------------
# exact small-degree oracle: Sturm chains over Fraction coefficients


def _fstrip(p: list) -> list:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _fdiff(p: list) -> list:
    return [k * p[k] for k in range(1, len(p))]


def _fdivmod(p: list, q: list) -> tuple[list, list]:
    # q nonzero, both stripped ascending-coefficient lists
    r = list(p)
    dq, lq = len(q) - 1, q[-1]
    quot = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    while len(r) >= len(q) and _fstrip(r):
        r = _fstrip(r)
        if len(r) < len(q):
            break
        shift = len(r) - len(q)
        f = r[-1] / lq
        quot[shift] = f
        for i in range(len(q)):
            r[shift + i] -= f * q[i]
        r = r[:-1]
    return quot, _fstrip(r)


def _fmonic(p: list) -> list:
    lead = p[-1]
    return [c / lead for c in p] if lead != 1 else p


def _fposcale(p: list) -> list:
    # scale by a positive constant only: Sturm sign structure must survive
    lead = abs(p[-1])
    return [c / lead for c in p]


def _fgcd(p: list, q: list) -> list:
    a, b = _fstrip(p), _fstrip(q)
    while b:
        a, b = b, _fdivmod(a, b)[1]
        if b:
            b = _fmonic(b)  # positive rescale, gcd is up to units anyway
    return _fmonic(a)


def _feval(p: list, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _fshift_root_out(p: list, r: Fraction) -> list:
    # exact synthetic division by (x - r); valid only when p(r) == 0
    out = [Fraction(0)] * (len(p) - 1)
    carry = Fraction(0)
    for k in range(len(p) - 1, 0, -1):
        carry = p[k] + carry * r
        out[k - 1] = carry
    return _fstrip(out)


def _variations(signs: list) -> int:
    nz = [s for s in signs if s != 0]
    return sum(1 for s1, s2 in zip(nz, nz[1:]) if s1 * s2 < 0)


def exact_count_small(coeffs, interval) -> int:
    """Distinct real roots of sum coeffs[k] x^k in the closed interval.

    Exact: coefficients are converted to rationals and a Sturm chain of the
    square-free part is evaluated at the endpoints. Degree must be <= 64; a
    multiple root counts once. Test oracle, not a performance path.
    """
    a, b = interval
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    p = _fstrip([Fraction(c) for c in coeffs])
    if not p:
        raise ValueError("zero polynomial has no well-defined root count")
    if len(p) - 1 > 64:
        raise ValueError(f"degree {len(p) - 1} > 64 is unsupported")
    if len(p) == 1:
        return 0
    fa, fb = Fraction(a), Fraction(b)
    sf = _fdivmod(p, _fgcd(p, _fstrip(_fdiff(p))))[0]
    extra = 0
    for end in (fa, fb):
        if _feval(sf, end) == 0:
            sf = _fshift_root_out(sf, end)
            extra += 1
            if len(sf) == 1:
                return extra
    chain = [sf, _fstrip(_fdiff(sf))]
    while chain[-1]:
        rem = _fdivmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(_fposcale([-c for c in rem]))

    def sgn(v):
        return (v > 0) - (v < 0)

    va = _variations([sgn(_feval(f, fa)) for f in chain])
    vb = _variations([sgn(_feval(f, fb)) for f in chain])
    return va - vb + extra
