"""Zero brackets by bisection, for the tests of `count_zeros`.

`locate_zeros` finds the same sign-change gaps that `count_zeros` counts on
the grid's own points, through the package's counting rule
(`roots._zero_gaps`), and bisects each to width 1e-12 * (b - a).
"""

import numpy as np

from taylorzeros.roots import ScanGrid, _values, _zero_gaps


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
