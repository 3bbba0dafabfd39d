import math

import numpy as np
import pytest

from horner_reference import evaluate, evaluate_normalized
from polycorpus import PRESETS
from taylorzeros.coeffs import CoefficientSequence
from taylorzeros.sampling import (
    CoefficientLaw,
    SeriesSample,
    TruncationPolicy,
    draw_sample,
    trial_rng,
    truncation_degree,
)

FLAT = CoefficientSequence(1.0)
LAWS = list(CoefficientLaw)


class TestLaws:
    def test_support(self):
        rng = np.random.default_rng(0)
        rad = CoefficientLaw.RADEMACHER.draw(rng, 1000)
        assert set(np.unique(rad)) == {-1.0, 1.0}
        uni = CoefficientLaw.UNIFORM.draw(rng, 1000)
        assert np.all(np.abs(uni) <= math.sqrt(3.0))

    def test_mean_zero_unit_variance(self):
        # 4-sigma bands at n = 1e5
        for law in LAWS:
            x = law.draw(np.random.default_rng(1), 100_000)
            assert abs(x.mean()) < 4.0 / math.sqrt(len(x))
            kurt_margin = 4.0 * math.sqrt(np.mean(x**4)) / math.sqrt(len(x))
            assert abs(x.var() - 1.0) < kurt_margin, law


class TestTruncation:
    def test_doubling_brackets_minimal(self):
        # brute-force minimal K: exact geometric tail x^(2K+2)/(1-x^2)
        got = truncation_degree(FLAT, TruncationPolicy(0.5, 1e-6))
        assert got == 32
        x, v = 0.5, 1.0 / 3.0
        k_min = next(
            K for K in range(1, 200) if x ** (2 * K + 2) / (1 - x * x) <= 1e-12 * v
        )
        assert k_min == 20
        assert k_min <= got <= 2 * k_min

    def test_overflowing_variance_raises(self):
        # an infinite v(r) would certify K=1 for any tail
        policy = TruncationPolicy(1.0 - 2.0**-9, 1e-6)
        with pytest.raises(OverflowError):
            truncation_degree(CoefficientSequence(150.0), policy)

    def test_tiny_radius(self):
        assert truncation_degree(FLAT, TruncationPolicy(1e-7, 1e-6)) == 1

    def test_invariant_holds_across_presets(self):
        rng = np.random.default_rng(3)
        for gamma in (0.5, 1.0, 2.0):
            seq = CoefficientSequence(gamma)
            for _ in range(3):
                r = float(rng.uniform(0.3, 0.97))
                pol = TruncationPolicy(r, 1e-6)
                K = truncation_degree(seq, pol)
                ks = np.arange(K + 1, K + 200_000, dtype=float)
                tail = float(np.sum(seq.csq(ks) * np.exp(2 * math.log(r) * ks)))
                assert tail <= pol.delta**2 * seq.variance_v(r)

    def test_policy_validation(self):
        bad = ((0.0, 1e-6), (1.0, 1e-6), (0.5, 0.0), (0.5, -1.0), (0.5, 1.0), (0.5, math.inf))
        for r, d in bad:
            with pytest.raises(ValueError):
                TruncationPolicy(r, d)


class TestDrawing:
    def test_deterministic(self):
        a = draw_sample(FLAT, CoefficientLaw.GAUSSIAN, 42, 500)
        b = draw_sample(FLAT, CoefficientLaw.GAUSSIAN, 42, 500)
        assert np.array_equal(a.xi, b.xi)

    def test_prefix_stability(self):
        # same seed, doubled K: the sample extends, it does not reshuffle
        for law in LAWS:
            short = draw_sample(FLAT, law, 7, 300)
            long = draw_sample(FLAT, law, 7, 600)
            assert np.array_equal(long.xi[:301], short.xi)

    def test_distinct_trial_streams(self):
        r1 = trial_rng(9, 0, 1).standard_normal(8)
        r2 = trial_rng(9, 0, 2).standard_normal(8)
        r1b = trial_rng(9, 0, 1).standard_normal(8)
        assert np.array_equal(r1, r1b)
        assert not np.array_equal(r1, r2)

    def test_seed_sequence_matches_int_seed(self):
        want = trial_rng(9, 0, 1).standard_normal(8)
        ss = np.random.SeedSequence(9, spawn_key=(0, 1))
        assert np.array_equal(trial_rng(ss).standard_normal(8), want)

    def test_bad_seeds_raise_value_error(self):
        for bad in (5.7, -1, "3", None):
            with pytest.raises(ValueError):
                trial_rng(bad)
        with pytest.raises(ValueError):
            trial_rng(np.random.SeedSequence(9), 0)


class TestEvaluate:
    def test_all_ones_geometric(self):
        s = SeriesSample(FLAT, np.ones(61))
        # sum_{k>=1} 0.5^k = 1 up to the 1e-18 tail
        assert s.evaluate_many(0.5)[0] == pytest.approx(1.0, rel=1e-12)
        assert evaluate(s, 0.5) == pytest.approx(1.0, rel=1e-12)

    def test_at_zero(self):
        s = draw_sample(FLAT, CoefficientLaw.GAUSSIAN, 0, 50)
        assert s.evaluate_many(0.0)[0] == 0.0
        assert evaluate(s, 0.0) == 0.0

    def test_matches_naive_summation(self):
        # pins the reference itself
        rng = np.random.default_rng(11)
        for law in LAWS:
            s = draw_sample(CoefficientSequence(2.0), law, 13, 2000)
            for x in rng.uniform(0.1, 0.99, size=4):
                naive = 0.0
                for k in range(s.K + 1):
                    naive += s.weights[k] * x**k
                assert evaluate(s, float(x)) == pytest.approx(naive, rel=1e-10)

    def test_grid_matches_scalar(self):
        # the power-table sums against compensated Horner on every family
        xs = np.linspace(0.01, 0.999, 13)
        for seq in PRESETS:
            s = draw_sample(seq, CoefficientLaw.GAUSSIAN, 5, 30_000)
            vals = s.evaluate_many(xs)
            scale = math.sqrt(seq.variance_v(0.999))
            for x, v in zip(xs, vals):
                want = evaluate(s, float(x))
                assert v == pytest.approx(want, rel=1e-11, abs=1e-11 * scale), (seq, x)

    def test_blocked_grid_path(self, monkeypatch):
        import taylorzeros.sampling as mod

        s = draw_sample(FLAT, CoefficientLaw.UNIFORM, 2, 500)
        xs = np.linspace(0.0, 0.9, 64)
        whole = s.evaluate_many(xs)
        monkeypatch.setattr(mod, "_EVAL_BLOCK", 128)
        blocked = s.evaluate_many(xs)
        assert np.allclose(whole, blocked, rtol=1e-12, atol=1e-14)

    def test_domain_errors(self):
        s = draw_sample(FLAT, CoefficientLaw.GAUSSIAN, 0, 50)
        with pytest.raises(ValueError):
            s.evaluate_many([0.5, 1.0])
        with pytest.raises(ValueError):
            s.evaluate_many(-0.1)
        pol = TruncationPolicy(0.7, 1e-6)
        s2 = draw_sample(FLAT, CoefficientLaw.GAUSSIAN, 0, 50, policy=pol)
        assert math.isfinite(s2.evaluate_many(0.7)[0])  # boundary is allowed
        with pytest.raises(ValueError):
            s2.evaluate_many(0.75)


class TestNormalized:
    def test_unit_variance_monte_carlo(self):
        # E[f(x)^2] = v(x): 1e4 trials, 4-sigma band
        x, m = 0.9, 10_000
        K = truncation_degree(FLAT, TruncationPolicy(x, 1e-6))
        vals = np.empty(m)
        for i in range(m):
            s = draw_sample(FLAT, CoefficientLaw.RADEMACHER, (1000 + i), K)
            vals[i] = evaluate_normalized(s, x)
        second = vals**2
        stderr = second.std(ddof=1) / math.sqrt(m)
        assert abs(second.mean() - 1.0) < 4.0 * stderr

    def test_normalized_value_is_asymptotically_gaussian(self):
        # near the radius of convergence no single term dominates, so the
        # normalized value should pass an omnibus normality test at 1%
        stats = pytest.importorskip("scipy.stats")
        x, m = 0.99, 10_000
        K = truncation_degree(FLAT, TruncationPolicy(x, 1e-6))
        c = FLAT.coeff(np.arange(K + 1))
        root_v = math.sqrt(FLAT.variance_v(x))
        pw = x ** np.arange(K + 1, dtype=float)
        rng = trial_rng(2024, 0)
        vals = np.empty(m)
        for i in range(m):
            xi = CoefficientLaw.RADEMACHER.draw(rng, K + 1)
            vals[i] = float(np.dot(xi * c, pw)) / root_v
        assert stats.normaltest(vals).pvalue > 0.01
