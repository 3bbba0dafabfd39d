"""Closed forms of the limit process that the tests check the package against.

`cov_z` is the covariance of Z in the t coordinate, and the two curvatures
are rho''(0) for rho = `taylorzeros.gauss.cov_y`: the closed form, and a
finite difference of the package's own correlation. The package samples
only the stationary form, so these live here.
"""

import math

import numpy as np

from taylorzeros.coeffs import _check_gamma
from taylorzeros.gauss import cov_y


def cov_z(t, s, gamma: float):
    """E[Z(t) Z(s)] = 2^gamma (ts)^(gamma/2) / (t+s)^gamma for t, s > 0.

    Evaluated through the ratio r = max/min so that cov_z(t, t) == 1.0
    exactly and the result is bit-symmetric in its arguments.
    """
    _check_gamma(gamma)
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(t <= 0.0) or np.any(s <= 0.0):
        raise ValueError("cov_z needs strictly positive arguments")
    r = np.maximum(t, s) / np.minimum(t, s)
    out = np.exp(gamma * (math.log(2.0) + 0.5 * np.log(r) - np.log1p(r)))
    return float(out) if out.ndim == 0 else out


def rho_second_derivative(gamma: float) -> float:
    """rho''(0) = -gamma/4 for rho(tau) = cosh(tau/2)^(-gamma)."""
    _check_gamma(gamma)
    return -gamma / 4.0


def rho_second_derivative_fd(gamma: float) -> float:
    """Central finite difference of rho at step 1e-3, a companion oracle for
    rho_second_derivative (agreement ~1e-7)."""
    _check_gamma(gamma)
    h = 1e-3
    return (cov_y(h, gamma) - 2.0 + cov_y(-h, gamma)) / (h * h)
