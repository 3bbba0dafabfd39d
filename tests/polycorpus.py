"""Test corpora: polynomials with planted well-separated roots, random
coefficients for cross-checking the grid counter against the exact oracle,
and the coefficient families (`PRESETS`) the suite runs its checks on."""

import numpy as np

from taylorzeros.coeffs import CoefficientSequence, LogLog, LogPower

PRESETS = (
    CoefficientSequence(0.5),
    CoefficientSequence(1.0),
    CoefficientSequence(2.0),
    CoefficientSequence(1.0, LogPower(1.0)),
    CoefficientSequence(2.0, LogPower(-0.5)),
    CoefficientSequence(1.0, LogLog()),
)

SCAN_INTERVAL = (0.1, 0.9)
PLANT_LO, PLANT_HI = 0.12, 0.88  # keep a margin from the scan endpoints
MIN_SEP = 0.02


def planted_poly(rng, degree=10, max_inside=4):
    """Monic degree-`degree` polynomial with a known number of simple roots
    inside the scan interval, all separated by at least MIN_SEP; remaining
    roots are planted outside [0, 1]."""
    m = int(rng.integers(0, max_inside + 1))
    while True:
        inside = np.sort(rng.uniform(PLANT_LO, PLANT_HI, size=m))
        if m < 2 or float(np.min(np.diff(inside))) >= MIN_SEP:
            break
    signs = rng.choice([-1.0, 1.0], size=degree - m)
    outside = rng.uniform(1.5, 3.0, size=degree - m) * signs
    coef_desc = np.poly(np.concatenate([inside, outside]))
    return coef_desc[::-1].copy(), m


def planted_corpus(n, seed):
    rng = np.random.default_rng(seed)
    return [planted_poly(rng) for _ in range(n)]


def random_corpus(n, degree, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(degree + 1) for _ in range(n)]


def poly_fn(coeffs_ascending):
    desc = np.asarray(coeffs_ascending)[::-1]
    return lambda x: np.polyval(desc, x)


def real_roots_inside(coeffs_ascending, interval, imag_tol=1e-9):
    roots = np.roots(np.asarray(coeffs_ascending)[::-1])
    real = np.sort(roots[np.abs(roots.imag) < imag_tol].real)
    a, b = interval
    return real[(real >= a) & (real <= b)]


def mismatch_attributable(coeffs_ascending, interval, eta):
    """True when a count disagreement is explained by roots the grid cannot
    separate: a pair within one u-step of each other, or a root within one
    u-step of an interval endpoint."""
    inside = real_roots_inside(coeffs_ascending, interval)
    if inside.size == 0:
        return False
    u = -np.log1p(-inside)
    step = eta * 2.0 * np.pi
    if inside.size >= 2 and float(np.min(np.diff(u))) < step:
        return True
    ua, ub = (-np.log1p(-interval[0]), -np.log1p(-interval[1]))
    return bool(np.min(np.abs(u - ua)) < step or np.min(np.abs(u - ub)) < step)
