"""
Counting real zeros on a log-scale grid
=======================================

Zeros are counted by sign changes on a grid that is uniform in
u = -log(1-x), so resolution automatically concentrates near x = 1 where
the zeros do.  `count_zeros` evaluates once, on the grid with every gap
halved, and flags a count the halved grid does not reproduce as unstable.
`bracket` below refines each counted zero's bracket by bisection.
`exact_count_small` gives exact counts for polynomials of degree up to 1024
(Descartes' rule of signs with bisection, in integer arithmetic).
"""

import numpy as np

from taylorzeros import (
    CoefficientLaw,
    CoefficientSequence,
    ScanGrid,
    TruncationPolicy,
    count_zeros,
    draw_sample,
    exact_count_small,
    truncation_degree,
)


def bracket(fn, grid):
    """A bracket of width 1e-12 around each sign change on the grid's points."""
    x = grid.points()
    s = np.sign(fn(x))
    out = []
    for i in np.flatnonzero(s[:-1] * s[1:] < 0.0):
        lo, hi = x[i], x[i + 1]
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if np.sign(fn(np.array([mid]))[0]) == s[i] else (lo, mid)
        out.append((lo, hi))
    return out


# a cubic with roots 0.3 and 0.6 inside the scan window
poly = lambda x: (x - 0.3) * (x - 0.6) * (x + 2.0)
grid = ScanGrid(0.0, 0.95, eta=0.02)
zc = count_zeros(poly, grid)
print(f"cubic on [0, 0.95): count={zc.count} stable={zc.stable}")
for lo, hi in bracket(poly, grid):
    print(f"  zero in [{lo:.12f}, {hi:.12f}]")

# the exact count agrees; ascending coefficients of the expanded cubic
# (x-0.3)(x-0.6)(x+2) = x^3 + 1.1 x^2 - 1.62 x + 0.36
coeffs = [0.36, -1.62, 1.1, 1.0]
print(f"exact oracle on [0, 0.95]: {exact_count_small(coeffs, (0.0, 0.95))}")

# now a random series: count zeros on the dyadic interval [1-2^-6, 1-2^-7)
seq = CoefficientSequence(1.0)
a, b = 1 - 2.0**-6, 1 - 2.0**-7
policy = TruncationPolicy(b, 1e-6)
K = truncation_degree(seq, policy)
grid = ScanGrid(a, b, eta=0.02)
hits = 0
print()
print(f"series zeros on [{a:.6f}, {b:.6f}), K={K}:")
for seed in range(40):
    sample = draw_sample(seq, CoefficientLaw.RADEMACHER, seed, K, policy=policy)
    zc = count_zeros(sample.evaluate_many, grid)
    if zc.count:
        hits += 1
        locs = bracket(sample.evaluate_many, grid)
        mids = ", ".join(f"{(lo + hi) / 2:.8f}" for lo, hi in locs)
        print(f"  seed {seed:2d}: {zc.count} zero(s) near {mids}")
print(f"{hits}/40 samples had a zero here; the limit mean is "
      f"sqrt(1)*log(2)/(2 pi) = 0.1103")
