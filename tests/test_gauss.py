import math

import numpy as np
import pytest

from taylorzeros.gauss import (
    PathSampler,
    cov_y,
    cov_z,
    expected_zeros_rice,
    rho_second_derivative,
    rho_second_derivative_fd,
)
from taylorzeros.roots import path_zero_counts
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
            fd = rho_second_derivative_fd(gamma, h=1e-3)
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

    def test_jitter_ladder_handles_near_duplicates(self):
        u = np.concatenate([np.linspace(0.0, 1.0, 50), [1.0 + 1e-9]])
        s = PathSampler(u, 1.0)
        assert s.jitter in (0.0, 1e-12, 1e-10, 1e-8)
        assert np.all(np.isfinite(s.draw(trial_rng(0), 1)))

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
        out = path_zero_counts(vals, axis=0)
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
                counts = path_zero_counts(sampler.draw(trial_rng(31), m), axis=0)
                want = math.sqrt(gamma) / TWO_PI * T
                stderr = counts.std(ddof=1) / math.sqrt(m)
                assert abs(counts.mean() - want) < 3.0 * stderr + 0.02 * want, (
                    gamma,
                    T,
                    counts.mean(),
                    want,
                )
