"""Zero counting on (0,1) with log-scale grids, plus exact polynomial oracles.

Scanning happens in the coordinate u = -log(1-x), where the zero set of the
series becomes asymptotically stationary: the expected number of zeros per
unit u tends to sqrt(gamma)/(2*pi), so a grid step of eta * 2*pi/sqrt(gamma)
places ~1/eta points per expected zero and missed same-cell pairs are rare.
That grid rule lives here, in `_u_grid` (ceil(span/step) equal gaps, and a
point cap checked before the grid is allocated); `ScanGrid` and the
limit-process oracle (in u = log t) both build their grids with it.
`count_zeros` and the experiments' scan count sign changes on the grid with
every gap halved (stable if both agree); `locate_zeros` brackets by bisection.

The counting rule lives here, in `_zero_gaps`, and every count in the
package uses it (`_halved_counts` for series scans, `path_zero_counts` for
limit-process paths). It is half-open on [a, b): a sign change is a gap whose
endpoint values have opposite `np.sign` (signs, not products, so values near
underflow still count), an exact zero sitting on a grid point is counted once
and attributed to the gap on its right, and a zero at the final grid point is
not counted. Tiling [0, r) by consecutive intervals therefore sums exactly to
the count over the union grid.

`exact_count_small` is the exact oracle: distinct real roots in a closed
interval for degrees up to 1024, by Descartes bisection in integers.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .coeffs import _check_gamma

__all__ = [
    "EvaluationError",
    "ScanGrid",
    "ZeroCount",
    "count_zeros",
    "exact_count_small",
    "locate_zeros",
    "path_zero_counts",
]

_MAX_GRID = 100_000_000


class EvaluationError(RuntimeError):
    """A scanned function returned a non-finite value."""

    def __init__(self, x: float, value: float):
        super().__init__(f"non-finite evaluation {value!r} at x={x!r}")
        self.x = x
        self.value = value


def _check_eta(eta: float):
    # a subnormal eta carries fewer significant bits and its step can underflow
    if not (eta >= sys.float_info.min and math.isfinite(eta)):
        raise ValueError(f"eta must be a positive, finite, normal float, got {eta}")


def _u_grid(u_lo, u_hi, eta, gamma, split=1, cap=_MAX_GRID) -> np.ndarray:
    """The u-grid of every scan: ceil(span / step) equal gaps, step =
    eta * 2*pi/sqrt(gamma), each cut in `split`. More than `cap` points raise
    MemoryError (a runtime limit on valid input) before any allocation."""
    step = eta * 2.0 * math.pi / math.sqrt(gamma)
    big = not step > 0.0 or (u_hi - u_lo) / step >= cap  # step may underflow to 0
    points = cap + 1 if big else max(1, math.ceil((u_hi - u_lo) / step)) * split + 1
    if points > cap:
        raise MemoryError(f"u-grid [{u_lo:g}, {u_hi:g}] at step {step:g}: over {cap} points")
    return np.linspace(u_lo, u_hi, points)


@dataclass(frozen=True)
class ScanGrid:
    """Arithmetic grid in u = -log(1-x) over [a, b], 0 <= a < b < 1, built
    by `_u_grid`: the u-step is at most eta * 2*pi/sqrt(gamma), a fixed
    fraction of the mean zero spacing of the limit process.
    """

    a: float
    b: float
    eta: float = 0.02
    gamma: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.a < self.b < 1.0):
            raise ValueError(f"need 0 <= a < b < 1, got [{self.a}, {self.b}]")
        _check_eta(self.eta)
        _check_gamma(self.gamma)

    def points(self) -> np.ndarray:
        return self._points(1)

    def _points(self, split: int, cap: int = _MAX_GRID) -> np.ndarray:
        """`points()` with each gap cut in `split`; every split-th point is bitwise.
        More than `cap` points raise MemoryError unallocated, as in `_u_grid`."""
        u_lo, u_hi = -math.log1p(-self.a), -math.log1p(-self.b)
        x = -np.expm1(-_u_grid(u_lo, u_hi, self.eta, self.gamma, split, cap))
        x[0], x[-1] = self.a, self.b
        return x


@dataclass
class ZeroCount:
    """Zeros counted on [a, b), and whether the half-gap grid agrees."""

    count: int
    stable: bool


def _finite(pts: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """`vals`, else EvaluationError at the first non-finite one (columns in order)."""
    bad = ~np.isfinite(vals)
    if np.any(bad):
        at = tuple(np.argwhere(bad.T)[0])  # (point,) or (path, point)
        raise EvaluationError(float(pts[at[-1]]), float(vals.T[at]))
    return vals


def _values(fn, pts: np.ndarray) -> np.ndarray:
    vals = np.asarray(fn(pts), dtype=float)
    if vals.shape != pts.shape:
        raise ValueError(f"fn returned shape {vals.shape} for {pts.shape} points")
    return _finite(pts, vals)


def _zero_gaps(v: np.ndarray) -> np.ndarray:
    """Half-open zero events along axis 0, one per gap [i, i+1): a sign
    change across the gap, or an exact zero at its left grid point."""
    s = np.sign(v)
    return (s[:-1] * s[1:] < 0.0) | (s[:-1] == 0.0)


def path_zero_counts(values) -> np.ndarray:
    """Half-open zero counts along axis 0: sign changes plus exact zeros at
    every grid point but the last. Works on (npoints,) or (npoints, m)."""
    return np.sum(_zero_gaps(np.asarray(values, dtype=float)), axis=0)


def _halved_counts(fine: np.ndarray):
    """Counts along axis 0 of values on a halved grid: the zeros on the grid's
    own points (the even rows), and the mask where all points count the same."""
    n = path_zero_counts(fine[::2])
    return n, path_zero_counts(fine) == n


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
    `vectorized` is ignored; the `oracles` audit in bench/workloads.py passes it.
    """
    n, stable = _halved_counts(_values(fn, grid._points(2)))
    return ZeroCount(count=int(n), stable=bool(stable))


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


# ---------------------------------------------------------------------------
# exact oracle: Descartes' rule of signs and bisection over Python ints
# (Collins and Akritas, 1976; Rouillier and Zimmermann, 2004)

_MAX_EXACT_DEGREE = 1024
_PRIME = (1 << 61) - 1  # modulus of the square-free certificate


def _ratio(c) -> tuple[int, int]:
    return (int(c), 1) if isinstance(c, numbers.Integral) else c.as_integer_ratio()


def _strip(p: list) -> list:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _primitive(p: list) -> list:
    g = math.gcd(*p) or 1
    return [c // g for c in p]


def _shift1(p: list) -> list:
    """p(t + 1): Horner's Taylor shift, one running sum per degree."""
    r = p[::-1]
    for m in range(len(r), 1, -1):
        r[:m] = accumulate(r[:m])
    return r[::-1]


def _gcd(a: list, b: list, reduce) -> list:
    """Last nonzero remainder of Euclid's algorithm on a and b, by
    pseudo-division with every step passed through `reduce`."""
    while b:
        while len(a) >= len(b):
            f, s = a[-1], len(a) - len(b)
            a = reduce([c * b[-1] for c in a[:s]] + [c * b[-1] - f * y for c, y in zip(a[s:], b)])
        a, b = b, a
    return a


def _squarefree(p: list) -> list:
    """p / gcd(p, p'). The exact gcd is skipped when gcd(p, p') modulo a
    prime not dividing p's leading coefficient is a constant: a common
    factor over Z would survive the reduction with its degree."""
    dp = [k * c for k, c in enumerate(p)][1:]
    if p[-1] % _PRIME and len(_gcd(p, dp, lambda r: _strip([c % _PRIME for c in r]))) == 1:
        return p
    g, h, r = _primitive(_gcd(p, dp, lambda r: _primitive(_strip(r)))), [], p
    for s in range(len(p) - len(g), -1, -1):  # exact in Z: g is primitive (Gauss)
        h.append(r[s + len(g) - 1] // g[-1])
        r = r[:s] + [c - h[-1] * y for c, y in zip(r[s:], g)]
    return h[::-1]


def _onto_unit(p: list, a, b) -> list:
    """q(t) = C^d p((A + B t) / C), where (A + B t) / C maps [0, 1] onto
    [a, b]: scale by A, shift by 1, rescale by B / A (exact division)."""
    (na, da), (nb, db) = _ratio(a), _ratio(b)
    g, d = math.gcd(na * db, nb * da, da * db), len(p) - 1
    A, B, C = na * db // g, (nb * da - na * db) // g, da * db // g
    pa, pb, pc = (list(accumulate([1] + [x] * d, operator.mul)) for x in (A or 1, B, C))
    r = [c * pa[k] * pc[d - k] for k, c in enumerate(p)]
    return [c * pb[k] // pa[k] for k, c in enumerate(_shift1(r) if A else r)]


def exact_count_small(coeffs, interval) -> int:
    """Distinct real roots of sum coeffs[k] x^k in the closed interval.

    Exact, in Python ints: the coefficients and endpoints (rationals; floats
    are dyadic) are scaled to integers, the square-free part is mapped onto
    [0, 1], roots at t = 0 and 1 are divided out, and (0, 1) is bisected
    until Descartes' rule decides each piece. Degree must be <= 1024.
    """
    a, b = interval
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    ratios = [_ratio(c) for c in coeffs]
    den = math.lcm(*(d for _, d in ratios))
    p = _strip([n * (den // d) for n, d in ratios])
    if not p:
        raise ValueError("zero polynomial has no well-defined root count")
    if len(p) - 1 > _MAX_EXACT_DEGREE:
        raise ValueError(f"degree {len(p) - 1} > {_MAX_EXACT_DEGREE} is unsupported")
    q = _onto_unit(_squarefree(_primitive(p)), a, b)
    count = 0
    if q[0] == 0:  # root at a
        count, q = 1, q[1:]
    if sum(q) == 0:  # root at b: divide by t - 1
        count, q = count + 1, list(accumulate(q[::-1]))[-2::-1]
    stack = [q]
    while stack:
        q = stack.pop()
        # Descartes: variations of (1+z)^d q(1/(1+z)) = roots in (0, 1) + an even number
        s = [c > 0 for c in _shift1(q[::-1]) if c]
        v = sum(x != y for x, y in zip(s, s[1:]))
        if v < 2:
            count += v
            continue
        left = [c << (len(q) - 1 - k) for k, c in enumerate(q)]  # 2^d q(t/2)
        right = _shift1(left)  # 2^d q((t+1)/2)
        if right[0] == 0:  # a root at the midpoint
            count, right = count + 1, right[1:]
        stack += (left, right)
    return count
