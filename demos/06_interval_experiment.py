"""
A small end-to-end zero-count experiment
========================================

Counts zeros of random series samples on the dyadic intervals
[1-q^n, 1-q^(n+1)) and compares the means with the limit value
sqrt(gamma) log(1/q) / (2 pi), then fits the cumulative growth constant.
Uses a reduced trial budget so it finishes in about half a minute; the
shipped presets run the full M=2000.
"""

from taylorzeros import (
    CoefficientLaw,
    ExperimentConfig,
    run_cumulative,
    run_interval_experiment,
    run_universality,
)

config = ExperimentConfig(
    gamma=1.0, q=0.5, law=CoefficientLaw.RADEMACHER,
    n_min=4, n_max=8, trials=300, master_seed=1,
)

print(f"per-interval means, gamma=1, q=0.5, M={config.trials}:")
estimates = run_interval_experiment(config)
for e in estimates:
    print(f"  n={e.n}  mean={e.mean_count:.4f} +- {e.stderr:.4f}   "
          f"target {e.target:.4f}   counts {e.count_hist}")

# cumulative counts N[0, r) grow like (sqrt(gamma)/2 pi) log(1/(1-r))
rs = [1 - 2.0**-n for n in range(4, 9)]
slope = run_cumulative(config, rs)
print()
print("cumulative growth:")
for r, u, m in zip(slope.r_values, slope.u_values, slope.cumulative_means):
    print(f"  r={r:.6f}  -log(1-r)={u:.3f}  mean count={m:.3f}")
print(f"fitted slope {slope.fitted_slope:.4f} vs target {slope.target_slope:.4f} "
      f"(relative gap {slope.relative_gap:+.1%})")

# the limit does not depend on the coefficient law
print()
rep = run_universality(
    ExperimentConfig(gamma=1.0, n_min=8, n_max=8, trials=300, master_seed=1),
    [CoefficientLaw.RADEMACHER, CoefficientLaw.GAUSSIAN, CoefficientLaw.UNIFORM],
)
print("pairwise mean differences at n=8 across laws:")
for p in rep.pairs:
    print(f"  {p['law_a']:>10} vs {p['law_b']:<10} diff {p['mean_diff']:+.4f} "
          f"(combined stderr {p['combined_stderr']:.4f})")
