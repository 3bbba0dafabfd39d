import math

import numpy as np
import pytest

from horner_reference import evaluate, evaluate_normalized
from polycorpus import PRESETS
import taylorzeros.sampling as sampling_mod
from taylorzeros.coeffs import CoefficientSequence
from taylorzeros.sampling import (
    CoefficientLaw,
    SeriesSample,
    TruncationPolicy,
    _seek,
    draw_sample,
    trial_rng,
    truncation_degree,
)

FLAT = CoefficientSequence(1.0)
LAWS = list(CoefficientLaw)


class TestLaws:
    def test_support(self):
        rng = trial_rng(0)
        rad = CoefficientLaw.RADEMACHER.draw(rng, 0, 1000)
        assert set(np.unique(rad)) == {-1.0, 1.0}
        uni = CoefficientLaw.UNIFORM.draw(rng, 0, 1000)
        assert np.all(np.abs(uni) <= math.sqrt(3.0))

    @pytest.mark.parametrize("law", LAWS)
    def test_draws_need_a_philox_generator(self, law):
        # the sign rule reads Philox words, and every generator the package
        # makes is one; another bit generator is refused by name
        with pytest.raises(TypeError, match="Philox"):
            law.draw(np.random.default_rng(0), 0, 5)

    def test_mean_zero_unit_variance(self):
        # 4-sigma bands at n = 1e5
        for law in LAWS:
            x = law.draw(trial_rng(1), 0, 100_000)
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

    def test_degree_is_capped_at_2_to_the_26(self):
        # a weight vector and a draw hold K+1 floats each: 2^26 runs, 2^27 raises
        assert truncation_degree(FLAT, TruncationPolicy(1 - 2**-22, 1e-6)) == 2**26
        with pytest.raises(RuntimeError, match="exceeded 134217728 terms"):
            truncation_degree(FLAT, TruncationPolicy(1 - 2**-23, 1e-6))

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

    @pytest.mark.parametrize("law", LAWS)
    def test_trial_index_picks_the_trials_stream(self, law):
        # t = 0 is the default; trial t reads trial_rng(seed, t), as the scan does
        assert np.array_equal(draw_sample(FLAT, law, 42, 300, t=0).xi,
                              draw_sample(FLAT, law, 42, 300).xi)
        s = draw_sample(FLAT, law, 42, 300, t=5)
        assert np.array_equal(s.xi, law.draw(trial_rng(42, 5), 0, 301))
        assert not np.array_equal(s.xi, draw_sample(FLAT, law, 42, 300, t=4).xi)

    def test_degree_must_be_a_nonnegative_integer(self):
        # True would draw two variates and 2.5 fail inside numpy
        for K in (2.5, True, -1, "3"):
            with pytest.raises(ValueError, match="K must be a nonnegative integer"):
                draw_sample(FLAT, CoefficientLaw.GAUSSIAN, 42, K)
        assert draw_sample(FLAT, CoefficientLaw.GAUSSIAN, 42, np.int64(3)).xi.size == 4

    def test_prefix_stability(self):
        # same seed, doubled K: the sample extends, it does not reshuffle
        for law in LAWS:
            short = draw_sample(FLAT, law, 7, 300)
            long = draw_sample(FLAT, law, 7, 600)
            assert np.array_equal(long.xi[:301], short.xi)

    @pytest.mark.parametrize("law", LAWS)
    @pytest.mark.parametrize("a", [1, 2, 7, 8, 63, 64, 65, 16385])
    def test_draws_concatenate(self, law, a):
        # the scan draws a series one table block at a time from one
        # generator; a Rademacher block reads its signs from the 64-bit word
        # holding bit a, which the last block read part of unless 64 divides
        # a (the scan's blocks start at 16385, 32769, ...)
        g = trial_rng(3, 1)
        parts = np.concatenate([law.draw(g, 0, a), law.draw(g, a, a + 13)])
        assert np.array_equal(parts, law.draw(trial_rng(3, 1), 0, a + 13))

    @pytest.mark.parametrize("law", LAWS)
    def test_draws_out_of_stream_order(self, law):
        # a Rademacher or uniform block is read from its own position, so a
        # fresh generator's draw from 5 gives variates 5..9; a Gaussian draw
        # continues its stream, so from 5 on a fresh generator it refuses
        if law is CoefficientLaw.GAUSSIAN:
            with pytest.raises(ValueError, match="stream order"):
                law.draw(trial_rng(1), 5, 10)
        else:
            assert np.array_equal(law.draw(trial_rng(1), 5, 10), law.draw(trial_rng(1), 0, 10)[5:])

    def test_rademacher_signs_are_packed_philox_bits(self):
        # variate k is 1 - 2*bit, bit k % 64 of the stream's (k // 64)-th
        # 64-bit word, here read with Python ints whatever the byte order;
        # any window of it is read from its own position, wherever the
        # generator stands
        raw = trial_rng(3, 1).bit_generator.random_raw(600)
        want = np.array([1 - 2 * (int(raw[k // 64]) >> (k % 64) & 1) for k in range(600 * 64)])
        g = trial_rng(3, 1)
        assert np.array_equal(CoefficientLaw.RADEMACHER.draw(g, 0, want.size), want)
        for lo, hi in [(16385, 32769), (5, 700), (63, 65), (256, 257), (9000, 9000), (0, 1)]:
            assert np.array_equal(CoefficientLaw.RADEMACHER.draw(g, lo, hi), want[lo:hi])

    def test_rademacher_signs_are_balanced_and_uncorrelated(self):
        # 2^20 signs: mean and the lag-1 and lag-64 (word boundary)
        # autocorrelations within 5/sqrt(n)
        x = CoefficientLaw.RADEMACHER.draw(trial_rng(2026, 7), 0, 1 << 20)
        for lag in (0, 1, 64):
            stat = x.mean() if lag == 0 else np.mean(x[:-lag] * x[lag:])
            assert abs(stat) < 5.0 / math.sqrt(x.size - lag), lag

    def test_distinct_trial_streams(self):
        r1 = trial_rng(9, 1).standard_normal(8)
        r2 = trial_rng(9, 2).standard_normal(8)
        r1b = trial_rng(9, 1).standard_normal(8)
        assert np.array_equal(r1, r1b)
        assert not np.array_equal(r1, r2)

    def test_seed_sequence_matches_int_seed(self):
        want = trial_rng(9, 1).standard_normal(8)
        ss = np.random.SeedSequence(9)
        assert np.array_equal(trial_rng(ss, 1).standard_normal(8), want)

    def test_bad_seeds_raise_value_error(self):
        for bad in (5.7, -1, "3", None, True, False, np.True_):
            with pytest.raises(ValueError):
                trial_rng(bad)
            with pytest.raises(ValueError):
                trial_rng(3, bad)
            with pytest.raises(ValueError):
                trial_rng(np.random.SeedSequence(9), bad)
        with pytest.raises(ValueError):  # past counter word 2
            trial_rng(3, 2**64)


def _listed(state: dict) -> dict:
    """A bit generator's state with its arrays as lists, so == compares it."""
    return {k: _listed(v) if isinstance(v, dict) else np.asarray(v).tolist()
            for k, v in state.items()}


SEEDS = [0, 1, 2026, 2**32 - 1, 2**32, 2**63, 2**64 - 1]  # one and two entropy words
TRIALS = [0, 1, 255, 256, 2**32 - 1]


class TestSeedHash:
    # a seed's Philox key is numpy's own SeedSequence hash of it, and trial t
    # reads counter block (0, 0, t, 0) under that key, so numpy's public
    # Philox(seed).jumped(t) is the reference, from an int or a SeedSequence

    @pytest.mark.parametrize("seed", SEEDS)
    def test_trial_keys_match_seed_sequence(self, seed):
        # every trial has the seed's key; only counter word 2 tells trials apart
        key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
        for t in TRIALS + [2**63, 2**64 - 1]:
            for s in (seed, np.random.SeedSequence(seed)):
                state = trial_rng(s, t).bit_generator.state
                assert np.array_equal(state["state"]["key"], key)
                assert state["state"]["counter"].tolist() == [0, 0, t, 0]
                assert state["buffer_pos"] == 4

    @pytest.mark.parametrize("seed", SEEDS + [2**130 + 7])  # and five entropy words
    @pytest.mark.parametrize("key", [(), *((t,) for t in TRIALS)])
    def test_trial_rng_matches_seed_sequence(self, seed, key):
        # trial_rng(seed) is numpy's Philox(seed), and trial_rng(seed, t) is
        # its jumped(t), from an int seed and from its SeedSequence
        for s in (seed, np.random.SeedSequence(seed)):
            bg = np.random.Philox(s)
            want = np.random.Generator(bg.jumped(*key) if key else bg)
            got = trial_rng(s, *key)
            assert np.array_equal(got.integers(0, 2**63, size=9), want.integers(0, 2**63, size=9))

    @pytest.mark.parametrize("law", LAWS)
    @pytest.mark.parametrize("used", [7, 1, 0])
    def test_rekeyed_generator_is_a_fresh_trial_rng(self, law, used):
        # an odd-length 32-bit draw holds half a 64-bit word over in
        # has_uint32, and a Gaussian draw or a Rademacher block leaves
        # Philox's buffer part read: a seek must set key and counter and clear
        # both, or the next trial starts on stale bits
        for seed in (2026, np.random.SeedSequence(7, spawn_key=(1,))):
            key = trial_rng(seed).bit_generator.state["state"]["key"]
            g = trial_rng(5, 9)
            g.integers(0, 2, size=used)
            for each in LAWS:
                each.draw(g, 0, used)
            for t in (3, 4, 2**32 - 1):
                _seek(g, key, t)
                want = trial_rng(seed, t)
                assert _listed(g.bit_generator.state) == _listed(want.bit_generator.state)
                assert np.array_equal(law.draw(g, 0, 9), law.draw(want, 0, 9))
                assert np.array_equal(g.standard_normal(5), want.standard_normal(5))

    @pytest.mark.parametrize("law", [CoefficientLaw.GAUSSIAN, CoefficientLaw.RADEMACHER])
    def test_neighbouring_trials_are_uncorrelated(self, law):
        # trials split one key's counter; the lag-1 correlation of trial t's
        # and trial t+1's first variate over 10^4 trials is within 5/sqrt(n)
        x = np.array([law.draw(trial_rng(2026, t), 0, 1)[0] for t in range(10_000)])
        z = (x - x.mean()) / x.std()
        assert abs(np.mean(z[:-1] * z[1:])) < 5.0 / math.sqrt(x.size - 1)


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

    @pytest.mark.parametrize("block", [None, 4096])
    def test_grid_matches_scalar(self, monkeypatch, block):
        # the power-table sums against compensated Horner on every family; a
        # 4096-float block holds 315 powers of the 13 points, so K=30000 sums
        # 96 blocks through the kept one
        if block:
            monkeypatch.setattr(sampling_mod, "_EVAL_BLOCK", block)
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
        for i in range(m):  # sample i is variates i(K+1)..(i+1)(K+1)-1 of one stream
            xi = CoefficientLaw.RADEMACHER.draw(rng, i * (K + 1), (i + 1) * (K + 1))
            vals[i] = float(np.dot(xi * c, pw)) / root_v
        assert stats.normaltest(vals).pvalue > 0.01
