import math

import numpy as np
import pytest

from taylorzeros.roots import (
    EvaluationError,
    ScanGrid,
    count_zeros,
    exact_count_small,
    locate_zeros,
    path_zero_counts,
    rice_density,
)
from polycorpus import (
    SCAN_INTERVAL,
    mismatch_attributable,
    planted_corpus,
    poly_fn,
    random_corpus,
)


class TestScanGrid:
    def test_endpoints_exact_and_increasing(self):
        g = ScanGrid(0.2, 0.8, eta=0.05, gamma=1.0)
        pts = g.points()
        assert pts[0] == 0.2 and pts[-1] == 0.8
        assert np.all(np.diff(pts) > 0)

    def test_step_scales_with_gamma(self):
        assert ScanGrid(0.1, 0.9, 0.02, 4.0).u_step == pytest.approx(
            ScanGrid(0.1, 0.9, 0.02, 1.0).u_step / 2.0
        )

    def test_validation(self):
        for a, b in ((-0.1, 0.5), (0.5, 0.5), (0.6, 0.4), (0.5, 1.0)):
            with pytest.raises(ValueError):
                ScanGrid(a, b)
        with pytest.raises(ValueError):
            ScanGrid(0.1, 0.9, eta=0.0)
        with pytest.raises(ValueError):
            ScanGrid(0.1, 0.9, gamma=-1.0)

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
            exact_count_small([1.0] * 66, (0.0, 1.0))

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


class TestRiceDensity:
    def test_frozen_values(self):
        assert rice_density(0.0, 1.0) == pytest.approx(1.0 / (2 * math.pi), rel=1e-14)
        assert rice_density(0.5, 1.0) == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_sqrt_gamma_scaling(self):
        for x in (0.0, 0.3, 0.99):
            assert rice_density(x, 4.0) == pytest.approx(2 * rice_density(x, 1.0))

    def test_integral_matches_log_law(self):
        quad = pytest.importorskip("scipy.integrate").quad
        r = 1.0 - 2.0**-10
        got, err = quad(lambda x: rice_density(x, 1.0), 0.0, r)
        want = 10.0 * math.log(2.0) / (2.0 * math.pi)
        assert want == pytest.approx(1.1032, abs=5e-5)
        assert got == pytest.approx(want, rel=1e-9)

    def test_vectorized(self):
        xs = np.array([0.0, 0.5, 0.9])
        out = rice_density(xs, 2.0)
        assert out.shape == xs.shape

    def test_domain(self):
        for bad in (-0.1, 1.0):
            with pytest.raises(ValueError):
                rice_density(bad, 1.0)
        with pytest.raises(ValueError):
            rice_density(0.5, 0.0)
