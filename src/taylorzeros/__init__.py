"""Simulation and verification toolkit for real zeros of random Taylor series
with regularly varying coefficients.

The package covers the full pipeline: coefficient sequences and their
variance asymptotics (`coeffs`), truncated series sampling and evaluation
(`sampling`), zero counting on log-scale grids with exact small-degree
oracles (`roots`), the limit Gaussian analytic function and its stationary
form (`gauss`), weight-array inequality diagnostics (`diagnostics`), and
reproducible Monte Carlo experiments with CSV/JSON reporting
(`experiments`, `reports`). A thin CLI (`taylorzeros ...` or
`python -m taylorzeros`) fronts the experiment runners. The package exports
the public names of the six modules from `coeffs` to `experiments`,
exceptions included; each module's `__all__` is their one list.
"""

__version__ = "0.1.0"

from . import coeffs, diagnostics, experiments, gauss, roots, sampling
from .coeffs import *
from .sampling import *
from .roots import *
from .gauss import *
from .diagnostics import *
from .experiments import *

__all__ = ["__version__"] + [
    name for mod in (coeffs, sampling, roots, gauss, diagnostics, experiments)
    for name in mod.__all__
]
