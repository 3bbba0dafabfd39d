"""The limit Gaussian process of normalized series values, and Rice counts.

Near the radius of convergence the normalized series converges to a Gaussian
analytic function Z with covariance

    E[Z(t) Z(s)] = 2^gamma (t s)^(gamma/2) / (t + s)^gamma,    t, s > 0.

The time change t = e^u makes it stationary: Y(u) = Z(e^u) has correlation
rho(tau) = cosh(tau/2)^(-gamma). Since rho''(0) = -gamma/4, the Rice formula
for a stationary unit-variance Gaussian process gives

    E #zeros of Y per unit u = sqrt(-rho''(0)) / pi = sqrt(gamma) / (2 pi),

so the expected count on [a, b] in the t coordinate is
(sqrt(gamma)/2 pi) log(b/a). Path sampling is dense Cholesky with a small
diagonal jitter ladder on at most `_MAX_PATH_GRID` (1e4) points; the oracle's
grid comes from `roots._u_grid`, the series grid rule, under that cap. Sampled
paths are counted by `roots.path_zero_counts`, the same half-open rule.
"""

from __future__ import annotations

import math

import numpy as np

from .coeffs import _check_gamma

__all__ = [
    "CovarianceConditioningError",
    "PathSampler",
    "cov_z",
    "cov_y",
    "rho_second_derivative",
    "rho_second_derivative_fd",
    "expected_zeros_rice",
]

_MAX_PATH_GRID = 10_000
_JITTERS = (0.0, 1e-12, 1e-10, 1e-8)


class CovarianceConditioningError(RuntimeError):
    """Covariance stayed non-factorizable through the whole jitter ladder."""


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


def cov_y(tau, gamma: float):
    """Stationary correlation rho(tau) = cosh(tau/2)^(-gamma).

    Computed in log space, so arbitrarily large lags underflow cleanly to 0
    instead of overflowing cosh.
    """
    _check_gamma(gamma)
    tau = np.abs(np.asarray(tau, dtype=float))
    log_cosh = 0.5 * tau + np.log1p(np.exp(-tau)) - math.log(2.0)
    out = np.exp(-gamma * log_cosh)
    return float(out) if out.ndim == 0 else out


def rho_second_derivative(gamma: float) -> float:
    """rho''(0) = -gamma/4 for rho(tau) = cosh(tau/2)^(-gamma)."""
    _check_gamma(gamma)
    return -gamma / 4.0


def rho_second_derivative_fd(gamma: float, h: float = 1e-3) -> float:
    """Central finite-difference check of rho''(0); companion oracle for
    rho_second_derivative (agreement ~1e-7 at the default h)."""
    _check_gamma(gamma)
    if not (h > 0.0):
        raise ValueError("h must be positive")
    return (cov_y(h, gamma) - 2.0 + cov_y(-h, gamma)) / (h * h)


def expected_zeros_rice(a: float, b: float, gamma: float) -> float:
    """Expected zeros of Z on [a, b]: (sqrt(gamma)/2 pi) log(b/a), 0 < a < b < inf."""
    _check_gamma(gamma)
    if not (0.0 < a < b < math.inf):
        raise ValueError(f"need 0 < a < b < inf, got a={a}, b={b}")
    return math.sqrt(gamma) / (2.0 * math.pi) * math.log(b / a)


class PathSampler:
    """Exact sampler for Y on a fixed u-grid via dense Cholesky.

    The factorization is attempted with diagonal jitter 0, then 1e-12
    escalating a hundredfold at most twice (the covariance has unit
    diagonal, so the jitter is already relative). Failure past 1e-8 raises
    CovarianceConditioningError.
    """

    def __init__(self, u, gamma: float):
        _check_gamma(gamma)
        u = np.asarray(u, dtype=float)
        if u.ndim != 1 or u.size < 1:
            raise ValueError("grid must be a nonempty 1-d array")
        if u.size > _MAX_PATH_GRID:
            raise ValueError(f"grid of {u.size} points exceeds {_MAX_PATH_GRID}")
        if u.size > 1 and not np.all(np.diff(u) > 0.0):
            raise ValueError("grid must be strictly increasing")
        self.u = u
        self.gamma = gamma
        cov = cov_y(u[:, None] - u[None, :], gamma)
        cov = np.atleast_2d(cov)
        for jitter in _JITTERS:
            try:
                self._chol = np.linalg.cholesky(cov + jitter * np.eye(u.size))
                self.jitter = jitter
                break
            except np.linalg.LinAlgError:
                continue
        else:
            raise CovarianceConditioningError(
                f"Cholesky failed at jitter {_JITTERS[-1]} on {u.size} points"
            )

    def draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """(npoints, m) array of independent paths, drawn from `rng`;
        `draw(sampling.trial_rng(seed), m)` is deterministic in (grid, gamma, seed, m)."""
        if m < 1:
            raise ValueError("m must be >= 1")
        return self._chol @ rng.standard_normal((self.u.size, m))

