"""
Coefficient sequences and the variance asymptote
================================================

The model: c_k^2 = k^(gamma-1) L(k) / Gamma(gamma), and the variance of the
series at x is v(x) = sum c_k^2 x^(2k).  As x -> 1 with a = 1 - x, v(1-a)
behaves like (2a)^(-gamma) L(1/a).
"""

import math

import numpy as np

from taylorzeros import CoefficientSequence, Constant, LogPower, LogLog

seq = CoefficientSequence(1.0)  # flat: c_k = 1 for k >= 1
print("flat sequence, first coefficients:", seq.coeff(np.arange(6)))

# for gamma = 1, L = 1 the variance has a closed form x^2/(1-x^2)
for x in (0.5, 0.9, 0.99):
    v = seq.variance_v(x)
    exact = x * x / (1.0 - x * x)
    print(f"v({x}) = {v:.10f}   closed form {exact:.10f}")

print()
print("Abelian ratio v(1-a) / ((2a)^-gamma L(1/a)) as a -> 0:")
families = [
    ("gamma=0.5, L=1", CoefficientSequence(0.5)),
    ("gamma=1,   L=1", CoefficientSequence(1.0)),
    ("gamma=2,   L=1", CoefficientSequence(2.0)),
    ("gamma=1,   L=(1+log n)", CoefficientSequence(1.0, LogPower(1.0))),
    ("gamma=2,   L=log(e+log n)", CoefficientSequence(2.0, LogLog())),
]
a_grid = (1e-1, 1e-2, 1e-3, 1e-4)
header = "  ".join(f"a={a:<8g}" for a in a_grid)
print(f"{'family':28s}  {header}")
for name, s in families:
    ratios = [math.exp(s.log_variance_v(1.0 - a) - s.log_abel_asymptote(a))
              for a in a_grid]
    print(f"{name:28s}  " + "  ".join(f"{r:<10.6f}" for r in ratios))

# the largest single weight share c_n^2 x^(2n) / v(x) at x = 1 - 1/n decays,
# which is what makes the normalized series asymptotically Gaussian
print()
print("max share of one term in v at x = 1 - 1/n:")
for n in (10, 100, 1000, 10000):
    print(f"  n={n:<6d} share={CoefficientSequence(1.0).max_share(n):.5f}")
