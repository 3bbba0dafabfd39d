import math

import numpy as np
import pytest

from polycorpus import PRESETS
from taylorzeros.coeffs import (
    Constant,
    LogPower,
    LogLog,
    CoefficientSequence,
)


def geometric_v(x):
    # closed form of sum_{k>=1} x^{2k}, the gamma=1, L=1, c0=0 variance
    return x * x / (1.0 - x * x)


def brute_tail(seq, x, K, extra=200000):
    k = np.arange(K + 1, K + 1 + extra, dtype=float)
    return float(np.sum(seq.csq(k) * np.exp(2.0 * math.log(x) * k)))


class TestCoeff:
    def test_flat_family_is_one(self):
        seq = CoefficientSequence(1.0)
        assert seq.coeff(7) == 1.0
        assert seq.coeff(0) == 0.0

    def test_gamma_two(self):
        # c_4^2 = 4^1 / Gamma(2) = 4
        assert CoefficientSequence(2.0).coeff(4) == 2.0

    def test_vectorized_matches_scalar(self):
        for seq in PRESETS:
            ks = np.arange(0, 40)
            vec = seq.coeff(ks)
            assert vec.shape == ks.shape
            for k in (0, 1, 2, 17, 39):
                assert vec[k] == seq.coeff(k)

    def test_large_gamma_csq_is_finite(self):
        # 200^149 overflows a float; c_200^2 itself is about 1.9e82
        want = math.exp(149.0 * math.log(200.0) - math.lgamma(150.0))
        assert CoefficientSequence(150.0).csq(200) == pytest.approx(want, rel=1e-12)

    def test_slow_variation_validation(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                Constant(bad)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                LogPower(bad)
        for bad in ("const", 2.0, None, lambda t: 1.0):
            with pytest.raises(ValueError, match="slow must be"):
                CoefficientSequence(1.0, bad)

    def test_gamma_validation(self):
        # gamma = 171.7 and up: Gamma(gamma), the divisor in c_k^2, overflows
        assert CoefficientSequence(171.6).csq(1) > 0.0
        for bad in (0.0, -1.0, math.nan, math.inf, 171.7, 400.0):
            with pytest.raises(ValueError):
                CoefficientSequence(bad)
        with pytest.raises(ValueError):
            CoefficientSequence(1.0).coeff(-3)


class TestVariance:
    def test_half(self):
        assert CoefficientSequence(1.0).variance_v(0.5) == pytest.approx(
            1.0 / 3.0, rel=1e-12
        )

    def test_at_zero(self):
        assert CoefficientSequence(1.0).variance_v(0.0) == 0.0

    def test_overflow_raises(self):
        # v(1-2^-9) ~ 2^(8*150) does not fit in a float; no numpy warning escapes.
        # Its logarithm does, and matches a brute-force log-sum-exp
        seq, x = CoefficientSequence(150.0), 1.0 - 2.0**-9
        with pytest.raises(OverflowError, match=r"x=0\.998046875, gamma=150\.0"):
            seq.variance_v(x)
        k = np.arange(1.0, 400_000.0)
        brute = float(np.logaddexp.reduce(seq._log_csq(k) + 2.0 * math.log(x) * k))
        assert seq.log_variance_v(x) == pytest.approx(brute, rel=1e-13)

    def test_geometric_closed_form(self):
        seq = CoefficientSequence(1.0)
        for x in (0.1, 0.5, 0.9, 0.99, 0.999, 1.0 - 1e-3):
            assert seq.variance_v(x) == pytest.approx(geometric_v(x), rel=1e-12)

    def test_gamma_two_closed_form(self):
        # sum_{k>=1} k x^{2k} = x^2 / (1-x^2)^2
        seq = CoefficientSequence(2.0)
        for x in (0.3, 0.9, 0.999):
            want = x * x / (1.0 - x * x) ** 2
            assert seq.variance_v(x) == pytest.approx(want, rel=1e-12)

    def test_half_integer_against_polylog(self):
        mp = pytest.importorskip("mpmath")
        seq = CoefficientSequence(0.5)
        for x in (0.5, 0.9, 0.99):
            want = float(mp.polylog(mp.mpf("0.5"), mp.mpf(repr(x)) ** 2)) / math.sqrt(
                math.pi
            )
            assert seq.variance_v(x) == pytest.approx(want, rel=1e-11)

    def test_domain(self):
        seq = CoefficientSequence(1.0)
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                seq.variance_v(bad)
        with pytest.raises(ValueError):
            seq.variance_v(0.5, rel_tol=0.0)

    def test_tail_bound_dominates_brute_force(self):
        rng = np.random.default_rng(7)
        for seq in PRESETS:
            for _ in range(5):
                x = float(rng.uniform(0.2, 0.98))
                K = int(rng.integers(50, 2000))
                bound = seq.tail_bound(x, K)
                assert bound >= brute_tail(seq, x, K)


class TestAbel:
    def test_frozen_values(self):
        assert CoefficientSequence(1.0).log_abel_asymptote(1e-3) == pytest.approx(
            math.log(500.0), rel=1e-12
        )
        assert CoefficientSequence(2.0).log_abel_asymptote(1e-2) == pytest.approx(
            math.log(2500.0), rel=1e-12
        )
        got = CoefficientSequence(1.0, LogPower(1.0)).log_abel_asymptote(1e-4)
        assert got == pytest.approx(math.log(5000.0 * (1.0 + math.log(1e4))), rel=1e-12)

    def test_ratio_near_one_and_monotone(self):
        # v(1-a) / ((2a)^(-gamma) L(1/a)) must approach 1 from one side as
        # a shrinks, and sit within 2% by a = 1e-4
        for gamma in (0.5, 1.0, 2.0):
            seq = CoefficientSequence(gamma)
            gaps = []
            for a in (1e-1, 1e-2, 1e-3, 1e-4):
                ratio = math.exp(seq.log_variance_v(1.0 - a) - seq.log_abel_asymptote(a))
                gaps.append(abs(ratio - 1.0))
            assert gaps[-1] < 0.02, f"gamma={gamma}: ratio gap {gaps[-1]}"
            assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:])), (gamma, gaps)

    def test_domain(self):
        seq = CoefficientSequence(1.0)
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                seq.log_abel_asymptote(bad)


class TestMaxShare:
    def test_flat_values(self):
        seq = CoefficientSequence(1.0)
        assert seq.max_share(10) == pytest.approx(0.1, rel=1e-14)
        assert seq.max_share(1) == 1.0

    def test_decreasing_gamma_three(self):
        seq = CoefficientSequence(3.0)
        shares = [seq.max_share(n) for n in (10, 100, 1000)]
        assert shares[0] > shares[1] > shares[2]

    def test_presets_vanish(self):
        for seq in PRESETS:
            shares = [seq.max_share(n) for n in (10**3, 10**4, 10**5, 10**6)]
            assert shares[-1] < 1e-2, seq
            assert all(s1 > s2 for s1, s2 in zip(shares, shares[1:])), seq

    def test_finite_where_csq_overflows(self):
        # at gamma=150, c_k^2 overflows a float for large k; the share does not
        share = CoefficientSequence(150.0).max_share(2**20)
        assert math.isfinite(share) and 0.0 < share <= 1.0

    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    @pytest.mark.parametrize("n", [10, 1000])
    def test_matches_the_direct_ratio(self, gamma, n):
        w = CoefficientSequence(gamma).csq(np.arange(n + 1))
        assert CoefficientSequence(gamma).max_share(n) == pytest.approx(
            np.max(w) / np.sum(w), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            CoefficientSequence(1.0).max_share(0)


class TestSlowVariation:
    def test_slowly_varying_ratio(self):
        for slow in (LogPower(1.0), LogPower(-0.5), LogLog()):
            t = 1e8
            assert abs(float(slow(2 * t)) / float(slow(t)) - 1.0) < 0.05

    def test_ratio_cap_dominates_and_decreases(self):
        for seq in PRESETS:
            caps = [seq.ratio_cap(k) for k in (1, 2, 5, 20, 100)]
            assert all(c1 >= c2 for c1, c2 in zip(caps, caps[1:]))
            for k in (1, 2, 5, 20, 100):
                true = seq.csq(k + 1) / seq.csq(k)
                assert seq.ratio_cap(k) >= true * (1.0 - 1e-12)

    def test_constant_validation(self):
        with pytest.raises(ValueError):
            Constant(0.0)
