"""The limit Gaussian process of normalized series values, and Rice counts.

Near the radius of convergence the normalized series converges to a Gaussian
analytic function Z with covariance

    E[Z(t) Z(s)] = 2^gamma (t s)^(gamma/2) / (t + s)^gamma,    t, s > 0.

The time change t = e^u makes it stationary: Y(u) = Z(e^u) has correlation
rho(tau) = cosh(tau/2)^(-gamma). Since rho''(0) = -gamma/4, the Rice formula
for a stationary unit-variance Gaussian process gives

    E #zeros of Y per unit u = sqrt(-rho''(0)) / pi = sqrt(gamma) / (2 pi),

so the expected count on [a, b] in the t coordinate is
(sqrt(gamma)/2 pi) log(b/a). Paths are L z, L the Cholesky factor of the
Toeplitz covariance of an equally spaced grid of at most `_MAX_PATH_GRID` (1e4)
points plus diagonal jitter `_JITTER` (1e-12), built from the n lags by the
Schur algorithm in O(n^2) flops as the row blocks U[lo:hi, lo:] of U = L^T
that it writes, and drawn as z U with z's rows the paths: n^2/2 + 128 n
floats, 410 MB at the cap against 800 MB dense. The oracle's grid has
`roots._u_grid_size` points under the cap, and `roots.path_zero_counts`
counts by the series' half-open rule.
"""

from __future__ import annotations

import math

import numpy as np

from .coeffs import _check_gamma
from .sampling import _is_int

__all__ = [
    "CovarianceConditioningError",
    "PathSampler",
    "cov_y",
    "expected_zeros_rice",
]

_MAX_PATH_GRID = 10_000
_JITTER = 1e-12
_DRAW_BLOCK = 256


class CovarianceConditioningError(RuntimeError):
    """Covariance plus the diagonal jitter is not numerically positive definite."""


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


def expected_zeros_rice(a: float, b: float, gamma: float) -> float:
    """Expected zeros of Z on [a, b]: (sqrt(gamma)/2 pi) log(b/a), 0 < a < b < inf."""
    _check_gamma(gamma)
    if not (0.0 < a < b < math.inf):
        raise ValueError(f"need 0 < a < b < inf, got a={a}, b={b}")
    return math.sqrt(gamma) / (2.0 * math.pi) * (math.log(b) - math.log(a))


def _toeplitz_cholesky(r: np.ndarray) -> list:
    """Upper Cholesky factor U = L^T of the symmetric Toeplitz matrix with
    first row r, as the C-order row blocks U[lo:hi, lo:], lo a multiple of
    `_DRAW_BLOCK`, that `PathSampler.draw` multiplies: n^2/2 + 128 n floats.

    The Schur algorithm: the generator (g1, g2) of T - Z T Z^T, Z the shift,
    loses one column per step to a hyperbolic rotation, applied in the mixed
    form that is backward stable on positive definite input (Bojanczyk,
    Brent, de Hoog and Sweet, SIAM J. Matrix Anal. Appl. 16, 1995). O(n^2)
    flops. Step k writes g1, row k of U from its diagonal on, into its block.
    A rotation with |rho| >= 1, or NaN, means T is not numerically positive
    definite.
    """
    n, B = r.size, _DRAW_BLOCK
    blocks = [np.empty((min(B, n - lo), n - lo)) for lo in range(0, n, B)]
    g1 = r / math.sqrt(r[0])
    g2 = g1.copy()
    g2[0] = 0.0
    for k in range(n):
        if k:
            g1, g2 = g1[:-1], g2[1:]  # shift g1 down one place; drop g2's zero
            rho = g2[0] / g1[0]
            if not abs(rho) < 1.0:
                raise CovarianceConditioningError(
                    f"Cholesky failed at jitter {_JITTER} on {n} points"
                )
            s = math.sqrt((1.0 - rho) * (1.0 + rho))
            g1 = (g1 - rho * g2) / s
            g2 *= s
            g2 -= rho * g1
        b, j = divmod(k, B)
        blocks[b][j, :j], blocks[b][j, j:] = 0.0, g1  # row k of U
    return blocks


class PathSampler:
    """Exact sampler for Y on an equally spaced u-grid via a Toeplitz Cholesky.

    Any other grid raises ValueError. The covariance is Toeplitz, given by the
    lags rho(u_k - u_0); `_JITTER` is added to the lag-0 value, the unit
    diagonal (so it is relative), before the one factorization, which at the
    oracle's grid steps nearly always fails without it (a failure raises
    CovarianceConditioningError); `self.jitter` records it. The sampler keeps
    the upper factor's row blocks from `_toeplitz_cholesky` and no n x n array.
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
        self._blocks = _toeplitz_cholesky(r)
        self.jitter = _JITTER

    def draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """(npoints, m) array of independent paths from `rng`, path j taking
        the next npoints normals, so split calls continue one path sequence.
        With paths as the rows of z, z U goes by the factor's row blocks, each
        against its own columns of z: half the flops of the dense product."""
        if not (_is_int(m) and m >= 1):
            raise ValueError(f"m must be an integer >= 1, got {m!r}")
        n = self.u.size
        z = rng.standard_normal((m, n))
        out = z[:, :_DRAW_BLOCK] @ self._blocks[0]
        for blk in self._blocks[1:]:
            lo = n - blk.shape[1]
            out[:, lo:] += z[:, lo : lo + blk.shape[0]] @ blk
        return out.T
