"""The limit Gaussian process of normalized series values, and Rice counts.

Near the radius of convergence the normalized series converges to a Gaussian
analytic function Z with covariance

    E[Z(t) Z(s)] = 2^gamma (t s)^(gamma/2) / (t + s)^gamma,    t, s > 0.

The time change t = e^u makes it stationary: Y(u) = Z(e^u) has correlation
rho(tau) = cosh(tau/2)^(-gamma). Since rho''(0) = -gamma/4, the Rice formula
for a stationary unit-variance Gaussian process gives

    E #zeros of Y per unit u = sqrt(-rho''(0)) / pi = sqrt(gamma) / (2 pi),

so the expected count on [a, b] in the t coordinate is
(sqrt(gamma)/2 pi) log(b/a). Paths come from one Cholesky, with diagonal
jitter `_JITTER` (1e-12), of the Toeplitz covariance of an equally spaced grid
of at most `_MAX_PATH_GRID` (1e4) points, read from its n lags with no n x n
copy; L z is formed block by block below the diagonal. The oracle's grid
has `roots._u_grid_size` points, the series grid rule, under that cap;
`roots.path_zero_counts` counts the paths by the same half-open rule.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
_JITTER = 1e-12
_DRAW_BLOCK = 256


class CovarianceConditioningError(RuntimeError):
    """Covariance plus the diagonal jitter is not numerically positive definite."""


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


def rho_second_derivative_fd(gamma: float) -> float:
    """Central finite difference of rho at step 1e-3, a companion oracle for
    rho_second_derivative (agreement ~1e-7)."""
    _check_gamma(gamma)
    h = 1e-3
    return (cov_y(h, gamma) - 2.0 + cov_y(-h, gamma)) / (h * h)


def expected_zeros_rice(a: float, b: float, gamma: float) -> float:
    """Expected zeros of Z on [a, b]: (sqrt(gamma)/2 pi) log(b/a), 0 < a < b < inf."""
    _check_gamma(gamma)
    if not (0.0 < a < b < math.inf):
        raise ValueError(f"need 0 < a < b < inf, got a={a}, b={b}")
    return math.sqrt(gamma) / (2.0 * math.pi) * (math.log(b) - math.log(a))


class PathSampler:
    """Exact sampler for Y on an equally spaced u-grid via Cholesky.

    Any other grid raises ValueError. The covariance is a read-only Toeplitz
    view of the lags rho(u_k - u_0); `_JITTER` is added to the lag-0 value,
    the unit diagonal (so it is relative), before the one factorization,
    which at the oracle's grid steps nearly always fails without it;
    `self.jitter` records it. A failure raises CovarianceConditioningError.
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
        h = (u[-1] - u[0]) / max(u.size - 1, 1)
        if not np.allclose(u, u[0] + h * np.arange(u.size), rtol=1e-14, atol=1e-9 * h):
            raise ValueError("grid must be equally spaced")
        self.u = u
        self.gamma = gamma
        r = cov_y(u - u[0], gamma)
        r[0] += _JITTER
        # row i of the reversed windows is r_{|j - i|}, j = 0..n-1
        cov = sliding_window_view(np.concatenate((r[:0:-1], r)), u.size)[::-1]
        try:
            self._chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise CovarianceConditioningError(
                f"Cholesky failed at jitter {_JITTER} on {u.size} points"
            ) from None
        self.jitter = _JITTER

    def draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """(npoints, m) array of independent paths from `rng`, path j taking
        the next npoints normals, so split calls continue one path sequence.
        L z goes by row blocks of `_DRAW_BLOCK`, each block against the columns
        up to its last row: half the flops of the dense product."""
        if m < 1:
            raise ValueError("m must be >= 1")
        z = rng.standard_normal((m, self.u.size)).T
        out = np.empty((self.u.size, m))
        for lo in range(0, self.u.size, _DRAW_BLOCK):
            hi = min(self.u.size, lo + _DRAW_BLOCK)
            np.matmul(self._chol[lo:hi, :hi], z[:hi], out=out[lo:hi])
        return out
