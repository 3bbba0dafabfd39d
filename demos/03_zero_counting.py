"""
Counting real zeros on a log-scale grid
=======================================

Zeros are counted by sign changes on a grid that is uniform in
u = -log(1-x), so resolution automatically concentrates near x = 1 where
the zeros do.  `count_zeros` evaluates once, on the grid with every gap
halved, and flags a count the halved grid does not reproduce as unstable.
`locate_zeros` refines each counted zero's bracket by bisection.
`exact_count_small` gives exact counts for polynomials of degree up to 1024
(Descartes' rule of signs with bisection, in integer arithmetic).
"""

from taylorzeros import (
    CoefficientLaw,
    CoefficientSequence,
    ScanGrid,
    TruncationPolicy,
    count_zeros,
    draw_sample,
    exact_count_small,
    locate_zeros,
    truncation_degree,
)

# a cubic with roots 0.3 and 0.6 inside the scan window
poly = lambda x: (x - 0.3) * (x - 0.6) * (x + 2.0)
grid = ScanGrid(0.0, 0.95, eta=0.02)
zc = count_zeros(poly, grid)
print(f"cubic on [0, 0.95): count={zc.count} stable={zc.stable}")
for lo, hi in locate_zeros(poly, grid):
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
        locs = locate_zeros(sample.evaluate_many, grid)
        mids = ", ".join(f"{(lo + hi) / 2:.8f}" for lo, hi in locs)
        print(f"  seed {seed:2d}: {zc.count} zero(s) near {mids}")
print(f"{hits}/40 samples had a zero here; the limit mean is "
      f"sqrt(1)*log(2)/(2 pi) = 0.1103")
