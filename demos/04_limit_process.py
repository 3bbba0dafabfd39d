"""
The limit Gaussian process and its zero counts
==============================================

Near x = 1 the normalized series converges to a Gaussian analytic function Z
with cov(t, s) = 2^gamma (ts)^(gamma/2) / (t+s)^gamma.  The time change
Y(u) = Z(e^u) is stationary with correlation 1/cosh(u/2)^gamma, and the Rice
formula gives exactly sqrt(gamma)/(2 pi) expected zeros per unit of u.
"""

import math

from taylorzeros import cov_y, expected_zeros_rice, run_gaussian_oracle

print("stationary correlation rho(tau) = cosh(tau/2)^(-gamma), gamma=1:")
for tau in (0.0, 1.0, 2.0, 5.0, 10.0):
    print(f"  rho({tau:4.1f}) = {cov_y(tau, 1.0):.8f}")

# the curvature at zero, rho''(0) = -gamma/4, sets the Rice zero density;
# a central difference of rho at step 1e-3 agrees to about 1e-7
print()
h = 1e-3
for g in (0.5, 1.0, 2.0, 4.0):
    fd = (cov_y(h, g) - 2.0 + cov_y(-h, g)) / (h * h)
    print(f"gamma={g}: rho''(0) = {-g / 4.0:+.6f}  (finite difference {fd:+.6f})")

# sample exact paths from the Toeplitz covariance's Cholesky factor and count
# sign changes; compare with the closed-form expected count on [a, b]:
# sqrt(gamma)/(2 pi) * log(b/a)
print()
print("Monte Carlo zero counts of Y vs the Rice formula (M=4000 paths):")
print(f"{'gamma':>6} {'interval':>22} {'mean':>8} {'stderr':>8} {'target':>8}")
for g in (0.5, 1.0, 2.0):
    b = math.exp(2.0 * math.pi)
    s = run_gaussian_oracle(g, 1.0, b, trials=4000, eta=0.01, seed=7)
    print(f"{g:6.1f} {'[1, e^(2 pi)]':>22} {s.mean_count:8.4f} "
          f"{s.stderr:8.4f} {s.target:8.4f}")

# consistency across gamma: the count on [1, e^(2 pi / sqrt(gamma))] is
# always one expected zero
print()
for g in (0.25, 1.0, 4.0):
    b = math.exp(2.0 * math.pi / math.sqrt(g))
    print(f"gamma={g:<5} E zeros on [1, e^(2 pi/sqrt(gamma))] = "
          f"{expected_zeros_rice(1.0, b, g):.6f}")
