import math
import tracemalloc

import numpy as np
import pytest

from dense_factor import dense_factor
from limit_covariance import cov_z, rho_second_derivative, rho_second_derivative_fd
from taylorzeros import experiments, gauss
from taylorzeros.gauss import (
    _DRAW_BLOCK,
    _MAX_PATH_GRID,
    CovarianceConditioningError,
    PathSampler,
    _toeplitz_cholesky,
    cov_y,
    expected_zeros_rice,
)
from taylorzeros.roots import _u_grid_size, path_zero_counts
from taylorzeros.sampling import trial_rng

TWO_PI = 2.0 * math.pi


class TestCovariance:
    def test_unit_diagonal_exact(self):
        for t in (1e-6, 0.5, 1.0, 3.0, 1e8):
            for gamma in (0.5, 1.0, 2.0):
                assert cov_z(t, t, gamma) == 1.0

    def test_frozen_value(self):
        assert cov_z(1.0, 3.0, 1.0) == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-14)

    def test_symmetry_bitwise(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            t, s = np.exp(rng.uniform(-10, 10, size=2))
            g = float(rng.uniform(0.1, 5.0))
            assert cov_z(t, s, g) == cov_z(s, t, g)

    def test_cov_y_values(self):
        assert cov_y(0.0, 1.0) == 1.0
        assert cov_y(2.0 * math.log(3.0), 1.0) == pytest.approx(0.6, rel=1e-14)
        assert cov_y(5000.0, 1.0) == 0.0  # clean underflow, no overflow

    def test_log_time_change_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            u, v = rng.uniform(-8, 8, size=2)
            g = float(rng.uniform(0.2, 4.0))
            lhs = cov_y(u - v, g)
            rhs = cov_z(math.exp(u), math.exp(v), g)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_positive_and_bounded(self):
        taus = np.linspace(-30, 30, 101)
        vals = cov_y(taus, 2.5)
        assert np.all(vals > 0) and np.all(vals <= 1.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            cov_z(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            cov_z(1.0, 1.0, 0.0)


class TestCurvature:
    def test_closed_form(self):
        assert rho_second_derivative(1.0) == -0.25
        assert rho_second_derivative(2.0) == -0.5

    def test_finite_difference_agrees(self):
        for gamma in (0.5, 1.0, 2.0, 4.0):
            fd = rho_second_derivative_fd(gamma)
            assert abs(fd - rho_second_derivative(gamma)) < 1e-6


class TestRiceCount:
    def test_one_zero_per_natural_period(self):
        assert expected_zeros_rice(1.0, math.exp(TWO_PI), 1.0) == pytest.approx(
            1.0, rel=1e-14
        )

    def test_scaling(self):
        assert expected_zeros_rice(1.0, 2.0, 4.0) == pytest.approx(
            2.0 * expected_zeros_rice(1.0, 2.0, 1.0)
        )

    def test_domain(self):
        for a, b in ((1.0, 1.0), (2.0, 1.0), (0.0, 1.0), (-1.0, 2.0), (1.0, math.inf)):
            with pytest.raises(ValueError):
                expected_zeros_rice(a, b, 1.0)


class TestPathSampler:
    def test_deterministic(self):
        s = PathSampler(np.linspace(0.0, TWO_PI, 101), 1.0)
        p1 = s.draw(trial_rng(42), 1)
        assert p1.shape == (101, 1)
        assert np.array_equal(p1, PathSampler(s.u, 1.0).draw(trial_rng(42), 1))
        assert not np.array_equal(p1, s.draw(trial_rng(43), 1))

    def test_pointwise_variance(self):
        s = PathSampler(np.array([0.0]), 1.0)
        vals = s.draw(trial_rng(7), 100_000)[0]
        stderr = math.sqrt(2.0 / vals.size)  # var of chi2 mean
        assert abs(np.mean(vals**2) - 1.0) < 4.0 * stderr

    def test_two_point_correlation(self):
        # distance 2 log 3 has correlation 0.6
        s = PathSampler(np.array([0.0, 2.0 * math.log(3.0)]), 1.0)
        x, y = s.draw(trial_rng(11), 100_000)
        rho = np.corrcoef(x, y)[0, 1]
        stderr = (1.0 - 0.6**2) / math.sqrt(x.size)
        assert abs(rho - 0.6) < 4.0 * stderr

    def test_empirical_covariance_matrix(self):
        u = np.linspace(0.0, 3.0, 8)
        s = PathSampler(u, 2.0)
        m = 20_000
        paths = s.draw(trial_rng(5), m)
        emp = paths @ paths.T / m
        want = cov_y(u[:, None] - u[None, :], 2.0)
        stderr = np.sqrt((1.0 + want**2) / m)
        assert np.all(np.abs(emp - want) < 5.0 * stderr + s.jitter)

    def test_near_duplicates_factorize_at_the_fixed_jitter(self):
        # 51 points within 1e-9: every entry of the covariance is 1 to ~1e-19
        for gamma in (0.5, 1.0, 4.0):
            s = PathSampler(np.linspace(0.0, 1e-9, 51), gamma)
            assert s.jitter == 1e-12
            assert np.all(np.isfinite(s.draw(trial_rng(0), 1)))

    @pytest.mark.parametrize(
        "u",
        [
            np.concatenate([np.linspace(0.0, 1.0, 50), [1.0 + 1e-9]]),
            np.array([0.0, 1.0, 3.0]),
            np.log(np.linspace(1.0, 10.0, 20)),
        ],
    )
    def test_unequally_spaced_grid_raises(self, u):
        with pytest.raises(ValueError, match="equally spaced"):
            PathSampler(u, 1.0)

    def test_one_factorization_per_sampler(self, monkeypatch):
        sizes = []

        def spy(r):
            sizes.append(r.size)
            return _toeplitz_cholesky(r)

        monkeypatch.setattr(gauss, "_toeplitz_cholesky", spy)
        PathSampler(np.linspace(0.0, TWO_PI, 101), 1.0)
        PathSampler(np.array([0.0]), 2.0)
        assert sizes == [101, 1]

    def test_oracle_grids_factorize_at_the_fixed_jitter(self, monkeypatch):
        # the grids run_gaussian_oracle builds; without the jitter the
        # factorization fails on nearly all of them. The factor built from
        # the lags, assembled from its row blocks, reproduces the dense
        # covariance of all pairwise differences, plus the jitter, to within
        # 1e-12.
        built, gaps = [], []

        class Recording(PathSampler):
            def __init__(self, u, gamma):
                super().__init__(u, gamma)
                built.append(self)

        def spy(r):
            u, gamma = spy.grid
            dense = cov_y(u[:, None] - u[None, :], gamma)
            dense.flat[:: u.size + 1] += 1e-12
            blocks = _toeplitz_cholesky(r)
            chol = dense_factor(blocks)
            gaps.append(np.max(np.abs(chol @ chol.T - dense)))
            return blocks

        monkeypatch.setattr(experiments, "PathSampler", Recording)
        monkeypatch.setattr(gauss, "_toeplitz_cholesky", spy)
        windows = [(g, eta, 1) for g in (0.5, 1.0, 2.0, 4.0) for eta in (0.02, 0.01)]
        windows += [(g, 0.02, 20) for g in (0.5, 1.0, 2.0)]
        for gamma, eta, periods in windows:
            b = math.exp(periods * TWO_PI)
            size = _u_grid_size(0.0, math.log(b), eta, gamma, cap=_MAX_PATH_GRID)
            spy.grid = (np.linspace(0.0, math.log(b), size), gamma)
            experiments.run_gaussian_oracle(gamma, 1.0, b, trials=1, eta=eta)
            assert np.array_equal(built[-1].u, spy.grid[0])
        assert len(built) == len(windows) == len(gaps)
        assert all(s.jitter == 1e-12 for s in built)
        assert max(s.u.size for s in built) == 1416
        assert max(gaps) <= 1e-12

    def test_toeplitz_factor_matches_lapack(self):
        # a well-conditioned grid: [0, 20 pi] at eta = 0.1, 101 points, whose
        # smallest eigenvalue is 6e-6. At eta = 0.02 it is the jitter, and
        # the two factors, both backward stable, differ by 1e-5.
        u = np.linspace(0.0, 10.0 * TWO_PI, _u_grid_size(0.0, 10.0 * TWO_PI, 0.1, 1.0))
        assert u.size == 101
        r = cov_y(u - u[0], 1.0)
        r[0] += 1e-12
        dense = cov_y(u[:, None] - u[None, :], 1.0)
        dense.flat[:: u.size + 1] += 1e-12
        chol = dense_factor(_toeplitz_cholesky(r))
        assert chol.shape == (101, 101) and np.array_equal(chol, np.tril(chol))
        assert np.max(np.abs(chol - np.linalg.cholesky(dense))) <= 1e-10

    def test_blocked_draw_matches_the_dense_product(self):
        # 1001 points: three full row blocks of 256 and a partial one
        s = PathSampler(np.linspace(0.0, 20.0 * math.pi, 1001), 1.0)
        got = s.draw(trial_rng(3), 50)
        want = dense_factor(s._blocks) @ trial_rng(3).standard_normal((50, s.u.size)).T
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.array_equal(path_zero_counts(got), path_zero_counts(want))

    @pytest.mark.parametrize("npts", [257, 1001])
    @pytest.mark.parametrize("m", [1, 3, 7, 256])
    def test_draw_is_the_dense_row_block_product_bit_for_bit(self, npts, m):
        # the factor is the C-order row blocks U[lo:hi, lo:] of U = L^T, lo a
        # multiple of the block size, and a draw is z U with paths as the
        # rows of z: the first block's product, then each later block's added
        # to columns lo on, bit for bit what the same rows of the dense U
        # give; a transposed (Fortran-order) block changes the m = 1, 3 and 7
        # draws in the last bits
        s = PathSampler(np.linspace(0.0, 20.0 * math.pi, npts), 1.0)
        upper = dense_factor(s._blocks).T
        los = list(range(0, npts, _DRAW_BLOCK))
        his = los[1:] + [npts]
        assert [b.shape for b in s._blocks] == [(hi - lo, npts - lo) for lo, hi in zip(los, his)]
        assert all(b.flags.c_contiguous for b in s._blocks)
        got = s.draw(trial_rng(3), m)
        z = trial_rng(3).standard_normal((m, npts))
        want = z[:, : his[0]] @ upper[: his[0]]
        for lo, hi in zip(los[1:], his[1:]):
            want[:, lo:] += z[:, lo:hi] @ upper[lo:hi, lo:]
        assert np.array_equal(got, want.T)

    def test_split_draws_continue_one_sequence_of_paths(self):
        # path j takes the next n normals of the stream, so 3 paths then 4
        # are the 7 paths of one call; values agree to rounding only, as
        # BLAS sums in an order set by the column count
        s = PathSampler(np.linspace(0.0, 20.0 * math.pi, 1001), 1.0)
        rng = trial_rng(3)
        split = np.hstack([s.draw(rng, 3), s.draw(rng, 4)])
        whole = s.draw(trial_rng(3), 7)
        assert np.max(np.abs(split - whole)) <= 1e-13 * np.max(np.abs(whole))
        assert np.array_equal(path_zero_counts(split), path_zero_counts(whole))

    def test_sampler_builds_no_dense_covariance(self):
        # the benchmark's oracle grid, [0, 40 pi] at eta=0.005: 4001 points.
        # The factor's row blocks hold n^2/2 + 128 n floats (0.532 of 8 n^2
        # bytes here) and the Schur steps O(n) more, 0.533 in all; a 256 x n
        # scratch band read 0.597, the dense n x n factor 1.0, the dense
        # covariance built from pairwise differences 4.0 and LAPACK's copy of
        # the lag view 2.0.
        u = np.linspace(0.0, 40.0 * math.pi,
                        _u_grid_size(0.0, 40.0 * math.pi, 0.005, 1.0, cap=_MAX_PATH_GRID))
        assert u.size == 4001
        tracemalloc.start()
        try:
            s = PathSampler(u, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(b.size for b in s._blocks) <= u.size**2 / 2 + 128 * u.size
        assert peak <= 0.55 * 8 * u.size**2

    def test_benchmark_grid_factor_reproduces_the_covariance(self):
        # the 4001-point grid above, every 40th row of L L^T against the
        # Toeplitz covariance with its jitter, L assembled from the blocks
        u = np.linspace(0.0, 40.0 * math.pi, 4001)
        chol = dense_factor(PathSampler(u, 1.0)._blocks)
        i = np.arange(0, u.size, 40)
        dense = cov_y(u[i, None] - u[None, :], 1.0)
        dense[np.arange(i.size), i] += 1e-12
        assert np.max(np.abs(chol[i] @ chol.T - dense)) <= 1e-12

    def test_failed_factorization_names_the_jitter(self, monkeypatch):
        # lags above 1: the 2 x 2 leading minor is negative, so the
        # covariance is indefinite
        monkeypatch.setattr(gauss, "cov_y", lambda tau, gamma: 1.0 + np.abs(tau))
        with pytest.raises(CovarianceConditioningError, match="1e-12 on 11 points"):
            PathSampler(np.linspace(0.0, 1.0, 11), 1.0)

    @pytest.mark.parametrize("m", [0, -1, 2.5, True, np.float64(3.0), "4"])
    def test_draw_rejects_a_bad_path_count(self, m):
        s = PathSampler(np.linspace(0.0, 1.0, 11), 1.0)
        with pytest.raises(ValueError, match="m must be an integer >= 1"):
            s.draw(trial_rng(0), m)

    def test_validation(self):
        with pytest.raises(ValueError):
            PathSampler(np.array([0.0, 0.0, 1.0]), 1.0)  # not strictly increasing
        with pytest.raises(ValueError):
            PathSampler(np.linspace(0, 1, 10_001), 1.0)
        with pytest.raises(ValueError):
            PathSampler(np.array([[0.0, 1.0]]), 1.0)


class TestPathZeroCounts:
    def test_hand_counted(self):
        vals = np.array([1.0, -1.0, -2.0, 0.5, 0.0, 2.0, 0.0])
        # changes at gaps 0-1 and 2-3; exact zero at index 4; trailing zero excluded
        assert path_zero_counts(vals) == 3

    def test_batch_shape(self):
        vals = np.ones((11, 5))
        vals[3, 2] = -1.0
        out = path_zero_counts(vals)
        assert out.shape == (5,)
        assert out[2] == 2 and out.sum() == 2

    def test_mean_counts_match_rice_formula(self):
        # (sqrt(gamma)/2 pi) * T zeros on [0, T], within MC + discretization slack
        m = 4000
        for gamma in (0.5, 1.0, 2.0):
            for T in (TWO_PI, 2 * TWO_PI):
                step = 0.02 * TWO_PI / math.sqrt(gamma)
                npts = int(math.ceil(T / step)) + 1
                sampler = PathSampler(np.linspace(0.0, T, npts), gamma)
                counts = path_zero_counts(sampler.draw(trial_rng(31), m))
                want = math.sqrt(gamma) / TWO_PI * T
                stderr = counts.std(ddof=1) / math.sqrt(m)
                assert abs(counts.mean() - want) < 3.0 * stderr + 0.02 * want, (
                    gamma,
                    T,
                    counts.mean(),
                    want,
                )

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.5])
    def test_oracle_mean_matches_the_grid_sheppard_count(self, gamma):
        # the exact expected count of the oracle's own grid: each of the
        # n - 1 gaps of step h changes sign with probability
        # arccos(rho(h))/pi (Sheppard), so no discretization slack and no
        # pin on the factor's rounding
        b = math.exp(2.0 * TWO_PI)
        s = experiments.run_gaussian_oracle(gamma, 1.0, b, trials=20_000, eta=0.1,
                                            seed=31337)
        n = _u_grid_size(0.0, math.log(b), 0.1, gamma)
        h = math.log(b) / (n - 1)
        want = (n - 1) * math.acos(cov_y(h, gamma)) / math.pi
        assert abs(s.mean_count - want) < 3.0 * s.stderr, (gamma, s.mean_count, want)
