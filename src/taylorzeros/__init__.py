"""Simulation and verification toolkit for real zeros of random Taylor series
with regularly varying coefficients.

The package covers the full pipeline: coefficient sequences and their
variance asymptotics (`coeffs`), truncated series sampling and evaluation
(`sampling`), zero counting on log-scale grids with exact small-degree
oracles (`roots`), the limit Gaussian analytic function and its stationary
form (`gauss`), weight-array inequality diagnostics (`diagnostics`), and
reproducible Monte Carlo experiments with CSV/JSON reporting
(`experiments`, `reports`). A thin CLI (`taylorzeros ...` or
`python -m taylorzeros`) fronts the experiment runners.
"""

__version__ = "0.1.0"

from .coeffs import Constant, LogPower, LogLog, CoefficientSequence, PRESETS
from .sampling import (
    CoefficientLaw,
    TruncationPolicy,
    SeriesSample,
    draw_sample,
    trial_rng,
    truncation_degree,
)
from .roots import (
    ScanGrid,
    ZeroCount,
    count_zeros,
    exact_count_small,
    locate_zeros,
    path_zero_counts,
    rice_density,
)
from .gauss import (
    PathSampler,
    cov_y,
    cov_z,
    expected_zeros_rice,
    rho_second_derivative,
    sample_path,
)
from .diagnostics import (
    DiagnosticsReport,
    check_weight_inequalities,
    rearrange,
    tail_pair,
    weights,
)
from .experiments import (
    ExperimentConfig,
    GaussianOracleSummary,
    IntervalEstimate,
    SlopeReport,
    UniversalityReport,
    interval_target,
    run_cumulative,
    run_gaussian_oracle,
    run_interval_experiment,
    run_universality,
)

__all__ = [
    "__version__",
    "Constant",
    "LogPower",
    "LogLog",
    "CoefficientSequence",
    "PRESETS",
    "CoefficientLaw",
    "TruncationPolicy",
    "SeriesSample",
    "draw_sample",
    "trial_rng",
    "truncation_degree",
    "ScanGrid",
    "ZeroCount",
    "count_zeros",
    "exact_count_small",
    "locate_zeros",
    "rice_density",
    "PathSampler",
    "cov_y",
    "cov_z",
    "expected_zeros_rice",
    "path_zero_counts",
    "rho_second_derivative",
    "sample_path",
    "DiagnosticsReport",
    "check_weight_inequalities",
    "rearrange",
    "tail_pair",
    "weights",
    "ExperimentConfig",
    "GaussianOracleSummary",
    "IntervalEstimate",
    "SlopeReport",
    "UniversalityReport",
    "interval_target",
    "run_cumulative",
    "run_gaussian_oracle",
    "run_interval_experiment",
    "run_universality",
]
