"""
Drawing and evaluating truncated series samples
===============================================

A sample is f(x) = sum_k xi_k c_k x^k with iid xi.  The truncation degree is
chosen so the dropped tail is below delta * sqrt(v(r_max)) everywhere on
[0, r_max], using a certified geometric tail bound.
"""

import math

import numpy as np

from taylorzeros import (
    CoefficientLaw,
    CoefficientSequence,
    TruncationPolicy,
    draw_sample,
    truncation_degree,
)

seq = CoefficientSequence(1.0)

# truncation degree grows like log(1/delta) / (1 - r_max)
print("truncation degree K for delta = 1e-6:")
for r_max in (0.5, 0.9, 0.99, 0.999):
    K = truncation_degree(seq, TruncationPolicy(r_max, 1e-6))
    print(f"  r_max={r_max:<7} K={K}")

policy = TruncationPolicy(0.99, 1e-6)
K = truncation_degree(seq, policy)
sample = draw_sample(seq, CoefficientLaw.RADEMACHER, 42, K, policy=policy)
xs = np.linspace(0.0, 0.99, 12)
print()
print(f"one Rademacher sample (seed 42, K={K}):")
for x, val in zip(xs, sample.evaluate_many(xs)):
    bar = "#" * int(20 * min(abs(val), 3.0) / 3.0)
    print(f"  f({x:5.3f}) = {val:+9.5f}  {bar}")

# at fixed x the normalized value f(x)/sqrt(v(x)) is close to standard
# normal once no single term dominates; check the first two moments
x = 0.97
vals = np.array([
    draw_sample(seq, CoefficientLaw.RADEMACHER, (1000 + i), K, policy=policy)
    .evaluate_many(x)[0]
    for i in range(2000)
]) / math.sqrt(seq.variance_v(x))
print()
print(f"normalized value at x={x} over 2000 seeds:")
print(f"  mean {vals.mean():+.4f} (expect ~0),  var {vals.var():.4f} (expect ~1)")
print(f"  P(|value| > 1.96) = {(np.abs(vals) > 1.96).mean():.4f} (normal: 0.05)")
