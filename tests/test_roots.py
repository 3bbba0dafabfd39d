import math

import numpy as np
import pytest

import taylorzeros.roots as tzroots
from taylorzeros import sampling
from taylorzeros.coeffs import CoefficientSequence
from taylorzeros.roots import (
    EvaluationError,
    ScanGrid,
    count_zeros,
    exact_count_small,
    path_zero_counts,
)
from bisection import locate_zeros
from polycorpus import (
    SCAN_INTERVAL,
    mismatch_attributable,
    planted_corpus,
    poly_fn,
    random_corpus,
)
from sturm_reference import sturm_count


class TestScanGrid:
    def test_endpoints_exact_and_increasing(self):
        g = ScanGrid(0.2, 0.8, eta=0.05, gamma=1.0)
        pts = g.points()
        assert pts[0] == 0.2 and pts[-1] == 0.8
        assert np.all(np.diff(pts) > 0)

    def test_step_scales_with_gamma(self):
        # ceil(span / step) equal u-gaps, step = eta * 2 pi / sqrt(gamma)
        for gamma in (1.0, 4.0):
            u = -np.log1p(-ScanGrid(0.1, 0.9, 0.02, gamma).points())
            step = 0.02 * 2.0 * math.pi / math.sqrt(gamma)
            assert (u.size - 2) * step < u[-1] - u[0] <= (u.size - 1) * step

    def test_validation(self):
        for a, b in ((-0.1, 0.5), (0.5, 0.5), (0.6, 0.4), (0.5, 1.0)):
            with pytest.raises(ValueError):
                ScanGrid(a, b)
        for eta in (0.0, math.inf):
            with pytest.raises(ValueError):
                ScanGrid(0.1, 0.9, eta=eta)
        for gamma in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                ScanGrid(0.1, 0.9, gamma=gamma)

    def test_zero_left_endpoint_allowed(self):
        pts = ScanGrid(0.0, 0.5).points()
        assert pts[0] == 0.0


class TestCountZeros:
    @pytest.mark.parametrize(
        "grid",
        [ScanGrid(0.1, 0.9), ScanGrid(0.2, 0.8, 0.05), ScanGrid(1 - 2**-6, 1 - 2**-7)],
    )
    def test_one_call_on_the_halved_grid(self, grid):
        # the count must come from the grid's own points, bit for bit, and
        # the stability recount must cost no second evaluation
        seen = []

        def fn(x):
            seen.append(x.copy())
            return np.sin(200.0 * x)

        zc = count_zeros(fn, grid)
        assert len(seen) == 1
        fine, pts = seen[0], grid.points()
        assert fine.size == 2 * pts.size - 1
        assert np.array_equal(fine[::2], pts)
        assert zc.count == path_zero_counts(fn(pts))

    def test_two_planted_roots(self):
        g = ScanGrid(0.0, 0.95, eta=0.05)
        fn = lambda x: (x - 0.3) * (x - 0.6)
        zc = count_zeros(fn, g)
        assert zc.count == 2
        assert zc.stable
        locs = locate_zeros(fn, g)
        mids = locs.mean(axis=1)
        assert mids[0] == pytest.approx(0.3, abs=1e-10)
        assert mids[1] == pytest.approx(0.6, abs=1e-10)
        for lo, hi in locs:
            assert (lo - 0.3) * (lo - 0.6) * ((hi - 0.3) * (hi - 0.6)) <= 0.0

    def test_no_zeros(self):
        zc = count_zeros(lambda x: np.ones_like(x), ScanGrid(0.1, 0.9))
        assert zc.count == 0 and zc.stable
        assert locate_zeros(lambda x: np.ones_like(x), ScanGrid(0.1, 0.9)).shape == (0, 2)

    def test_exact_zero_on_grid_point(self):
        g = ScanGrid(0.1, 0.9, eta=0.05)
        target = float(g.points()[3])
        assert count_zeros(lambda x: x - target, g).count == 1
        lo, hi = locate_zeros(lambda x: x - target, g)[0]
        assert lo == hi == target

    def test_zero_at_right_endpoint_excluded(self):
        g = ScanGrid(0.1, 0.9, eta=0.05)
        assert count_zeros(lambda x: x - 0.9, g).count == 0

    def test_zero_at_left_endpoint_included(self):
        g = ScanGrid(0.1, 0.9, eta=0.05)
        assert count_zeros(lambda x: x - 0.1, g).count == 1

    def test_tiny_values_still_count(self):
        # 1e-200 * 1e-200 underflows to 0: the rule must compare signs
        fn = lambda x: 1e-200 * (x - 0.5)
        zc = count_zeros(fn, ScanGrid(0.1, 0.9))
        assert zc.count == 1 and zc.stable
        locs = locate_zeros(fn, ScanGrid(0.1, 0.9))
        assert locs.shape == (1, 2)
        assert locs[0].mean() == pytest.approx(0.5, abs=1e-10)

    def test_matches_path_zero_counts_on_planted_zeros(self):
        # value arrays with exact zeros (ends included) and near-underflow
        # magnitudes, scanned through their piecewise-linear interpolant
        g = ScanGrid(0.1, 0.9, eta=0.05)
        pts = g.points()
        rng = np.random.default_rng(5)
        for trial in range(60):
            vals = rng.choice([-2.0, -1e-200, 1e-200, 3.0], size=pts.size)
            vals[rng.random(pts.size) < 0.15] = 0.0
            if trial % 2:
                vals[[0, -1]] = 0.0
            zc = count_zeros(lambda x: np.interp(x, pts, vals), g)
            assert zc.count == path_zero_counts(vals)

    def test_nonfinite_eval_raises_with_location(self):
        bad = 0.437

        def fn(x):
            return np.where(np.abs(x - bad) < 0.05, math.nan, 1.0)

        with pytest.raises(EvaluationError) as err:
            count_zeros(fn, ScanGrid(0.1, 0.9, eta=0.01))
        assert abs(err.value.x - bad) < 0.05

    def test_tiling_sums_to_direct_count(self):
        # half-open tiles: zero exactly at a tile boundary counted once
        for fn, want in ((poly_fn(planted_corpus(1, 11)[0][0]), None),
                         (lambda x: x - 0.5, 1)):
            tiles = [(0.1, 0.5), (0.5, 0.7), (0.7, 0.9)]
            total = sum(
                count_zeros(fn, ScanGrid(a, b, eta=0.003)).count for a, b in tiles
            )
            direct = count_zeros(fn, ScanGrid(0.1, 0.9, eta=0.003)).count
            assert total == direct
            if want is not None:
                assert total == want

    def test_planted_corpus_all_match(self):
        # u-step small enough that 0.02-separated roots cannot share a cell
        g = ScanGrid(*SCAN_INTERVAL, eta=0.003)
        for coeffs, m in planted_corpus(200, seed=20240501):
            zc = count_zeros(poly_fn(coeffs), g)
            assert zc.count == m == path_zero_counts(poly_fn(coeffs)(g.points()))
            assert zc.stable
            assert len(locate_zeros(poly_fn(coeffs), g)) == zc.count


class TestExactCount:
    def test_double_root_counts_once(self):
        assert exact_count_small([0.25, -1.0, 1.0], (0.0, 1.0)) == 1

    def test_constant(self):
        assert exact_count_small([1.0], (0.0, 1.0)) == 0

    def test_endpoint_roots(self):
        # x(x-0.5)(x-1): all three roots in the closed interval
        assert exact_count_small([0.0, 0.5, -1.5, 1.0], (0.0, 1.0)) == 3

    def test_double_plus_simple(self):
        # (x-1/4)^2 (x-3/4): dyadic roots, so the float coefficients are
        # exact and the double root is a true double root
        c = [-3.0 / 64.0, 7.0 / 16.0, -1.25, 1.0]
        assert exact_count_small(c, (0.0, 1.0)) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            exact_count_small([0.0, 0.0], (0.0, 1.0))
        with pytest.raises(ValueError):
            exact_count_small([1.0, 2.0], (1.0, 1.0))
        with pytest.raises(ValueError):
            exact_count_small([1.0] * 1026, (0.0, 1.0))

    def test_degree_cap_is_1024(self):
        # 1 + x + ... + x^1024 is positive on [0, 1]; x^1024 - 1/2 has one root there
        assert exact_count_small([1.0] * 1025, (0.0, 1.0)) == 0
        assert exact_count_small([-0.5] + [0.0] * 1023 + [1.0], (0.0, 1.0)) == 1

    def test_against_companion_roots(self):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(100):
            deg = int(rng.integers(2, 13))
            c = rng.standard_normal(deg + 1)
            roots = np.roots(c[::-1])
            real = roots[np.abs(roots.imag) < 1e-10].real
            # skip ambiguous cases the float oracle cannot adjudicate
            if np.any(np.abs(real - 0.1) < 1e-6) or np.any(np.abs(real - 0.9) < 1e-6):
                continue
            if real.size >= 2 and np.min(np.diff(np.sort(real))) < 1e-6:
                continue
            want = int(np.sum((real > 0.1) & (real < 0.9)))
            assert exact_count_small(c, (0.1, 0.9)) == want
            checked += 1
        assert checked > 80

    def test_grid_counter_agreement_on_random_polys(self):
        # smaller rehearsal of the 500-poly acceptance corpus
        eta = 0.01
        g = ScanGrid(*SCAN_INTERVAL, eta=eta)
        agree = 0
        polys = random_corpus(120, 20, seed=77)
        for c in polys:
            exact = exact_count_small(c, SCAN_INTERVAL)
            got = count_zeros(poly_fn(c), g).count
            assert got == path_zero_counts(poly_fn(c)(g.points()))
            if got == exact:
                agree += 1
            else:
                assert mismatch_attributable(c, SCAN_INTERVAL, eta)
        assert agree / len(polys) >= 0.99


def _times(p: list, q: list) -> list:
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _planted(factors, extra=(1,)) -> list:
    """Integer coefficients of extra * prod (den x - num)^m over
    (num, den, m) in `factors`, as floats (exact below 2^53)."""
    p = list(extra)
    for num, den, m in factors:
        for _ in range(m):
            p = _times(p, [-num, den])
    return [float(c) for c in p]


class TestExactCountAgainstSturm:
    """The integer Descartes counter against the Fraction Sturm chain in
    tests/sturm_reference.py, which reaches the same count another way."""

    def test_random_corpus_degrees_2_to_20(self):
        for degree in range(2, 21):
            for c in random_corpus(4, degree, seed=1000 + degree):
                for interval in (SCAN_INTERVAL, (-2.0, 2.0)):
                    assert exact_count_small(c, interval) == sturm_count(c, interval)

    def test_planted_multiple_roots_take_the_exact_gcd(self, monkeypatch):
        # dyadic double and triple roots: gcd(p, p') is not a constant mod
        # any prime, so the certificate must fail and the integer gcd run
        calls = []
        gcd = tzroots._gcd
        monkeypatch.setattr(tzroots, "_gcd", lambda a, b, reduce: calls.append(1) or gcd(a, b, reduce))
        cases = [
            ([(1, 4, 2)], 1),
            ([(1, 4, 3), (3, 4, 1)], 2),
            ([(3, 8, 2), (5, 8, 3), (1, 2, 1)], 3),
            ([(1, 2, 2), (5, 4, 3)], 1),  # the triple root 5/4 is outside
            ([(13, 16, 3), (-1, 2, 2)], 1),
        ]
        for factors, want in cases:
            c = _planted(factors, extra=(1, 0, 1))  # times x^2 + 1: no real roots
            calls.clear()
            assert exact_count_small(c, (0.0, 1.0)) == want == sturm_count(c, (0.0, 1.0))
            assert len(calls) == 2  # the modular gcd, then the exact one
        calls.clear()
        assert exact_count_small(_planted([(1, 4, 1), (3, 4, 1)]), (0.0, 1.0)) == 2
        assert len(calls) == 1  # square-free: the certificate holds

    def test_roots_at_dyadic_endpoints(self):
        # roots 1/4 (double), 1/2, 3/4 (triple): every closed interval below
        # has some of them exactly at an endpoint
        c = _planted([(1, 4, 2), (1, 2, 1), (3, 4, 3)])
        for interval, want in [
            ((0.25, 0.75), 3), ((0.25, 0.5), 2), ((0.5, 0.75), 2), ((0.25, 0.375), 1),
            ((0.625, 0.75), 1), ((0.0, 0.25), 1), ((0.75, 1.0), 1), ((0.3125, 0.4375), 0),
        ]:
            assert exact_count_small(c, interval) == want == sturm_count(c, interval)

    def test_planted_factors_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        factor = st.tuples(st.integers(-12, 12), st.sampled_from([1, 2, 4, 8]), st.integers(1, 3))
        dyadic = st.builds(lambda m, e: m / 2**e, st.integers(-24, 24), st.integers(0, 3))

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @hypothesis.given(
            st.lists(factor, min_size=1, max_size=4),
            st.lists(st.integers(-4, 4), min_size=1, max_size=4).filter(lambda e: e[-1] != 0),
            dyadic,
            dyadic,
        )
        def check(factors, extra, x, y):
            hypothesis.assume(x != y)
            c, interval = _planted(factors, extra), (min(x, y), max(x, y))
            assert exact_count_small(c, interval) == sturm_count(c, interval)

        check()


class TestExactCountRealSamples:
    """The grid counter on real series samples at the raised degree cap,
    audited exactly. Tiles n >= 1 only: tile n=0 starts at the zero f(0) = 0
    that the half-open grid rule attributes to its first gap."""

    def test_grid_count_matches_exact_at_k_128_and_256(self):
        seq, agree, total = CoefficientSequence(1.0), 0, 0
        for n, want_K in ((2, 128), (3, 256)):
            grid = ScanGrid(1.0 - 0.5**n, 1.0 - 0.5 ** (n + 1), 0.02, 1.0)
            policy = sampling.TruncationPolicy(grid.b, 1e-6)
            K = sampling.truncation_degree(seq, policy)
            assert K == want_K
            for law in (sampling.CoefficientLaw.RADEMACHER, sampling.CoefficientLaw.GAUSSIAN):
                for t in range(25):
                    sample = sampling.draw_sample(seq, law, 2026, K, policy, t=t)
                    w = sample.weights
                    got = count_zeros(sample.evaluate_many, grid).count
                    exact = exact_count_small(w, (grid.a, grid.b))
                    total += 1
                    if got == exact:
                        agree += 1
                    else:
                        assert mismatch_attributable(w, (grid.a, grid.b), 0.02), (law, n, t)
        assert total == 100 and agree >= 99
