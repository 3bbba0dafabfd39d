import dataclasses
import math
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

import diagnostics_reference
from diagnostics_reference import tail_pair
from polycorpus import PRESETS
from taylorzeros import diagnostics
from taylorzeros.coeffs import CoefficientSequence
from taylorzeros.diagnostics import (
    TruncationError,
    _min_prefix_gap,
    _sorted_support,
    check_weight_inequalities,
    rearrange,
    weights,
)

FLAT = CoefficientSequence(1.0)


def K_for(n, q=0.5):
    """The K that check_weight_inequalities uses at scale n."""
    return math.ceil(40 * n * q**-n)


class TestWeights:
    def test_first_scale_frozen_value(self):
        w = weights(FLAT, 1, 0.5, K_for(1))
        assert w.a_sq[0] == 0.0
        assert w.a_sq[1] == pytest.approx(0.75, rel=1e-12)

    def test_normalization_with_tail(self):
        for seq in (FLAT, CoefficientSequence(0.5), CoefficientSequence(2.0)):
            for n in (1, 4, 8):
                w = weights(seq, n, 0.5, K_for(n))
                assert abs(float(np.sum(w.a_sq)) + w.tail_mass - 1.0) <= 1e-10

    def test_large_gamma_weights_stay_finite(self):
        # at gamma=150, c_k^2 overflows a float past k = 6571, inside K(6) = 15360,
        # while v(1-2^-n) is still finite for n <= 7 (about 4.7e270 at n=7)
        seq = CoefficientSequence(150.0)
        for n in (6, 7):
            w = weights(seq, n, 0.5, K_for(n))
            assert np.all(np.isfinite(w.a_sq))
            assert abs(float(np.sum(w.a_sq)) + w.tail_mass - 1.0) <= 1e-10

    def test_undersized_K_rejected(self):
        with pytest.raises(TruncationError):
            weights(FLAT, 6, 0.5, K=3)

    def test_validation(self):
        with pytest.raises(ValueError):
            weights(FLAT, 0, 0.5, 10)
        with pytest.raises(ValueError):
            weights(FLAT, 2, 1.0, 10)
        with pytest.raises(ValueError):
            weights(FLAT, 2, 0.5, K=0)

    @pytest.mark.parametrize("n", [True, np.True_])
    def test_bool_scale_is_rejected(self, n):
        # True is no scale: it read as n = 1, and a report row had n = True
        with pytest.raises(ValueError, match="n must be an integer"):
            weights(FLAT, n, 0.5, 64)
        with pytest.raises(ValueError, match="n must be an integer"):
            check_weight_inequalities(FLAT, 0.5, [n])


class TestRearrange:
    def test_sorted_and_same_multiset(self):
        w = weights(CoefficientSequence(3.0), 5, 0.5, K_for(5))
        b = rearrange(w)
        assert np.all(np.diff(b) <= 0.0)
        assert np.array_equal(np.sort(b), np.sort(w.a_sq))
        assert b[0] == np.max(w.a_sq)

    def test_tail_pair_shapes(self):
        w = weights(FLAT, 4, 0.5, K_for(4))
        pair = tail_pair(w)
        for tails in (pair.tilde, pair.sorted):
            assert tails.shape == w.a_sq.shape
            assert np.all(np.diff(tails) <= 1e-18)
            assert tails[0] == pytest.approx(1.0, abs=1e-10)
            assert tails[-1] < 1e-6
        # rearranged tails never exceed natural tails
        assert np.all(pair.sorted <= pair.tilde + 1e-12)


class TestInequalityReport:
    def test_flat_family(self):
        rep = check_weight_inequalities(FLAT, 0.5, range(1, 11))
        assert rep.exact_invariants_hold()
        assert rep.n0_largest_weight() == 2  # n=1 genuinely violates the bound
        assert not rep.rows[0].b0_ok
        assert rep.n0_corridor() == 1
        chats = [c for _, c in rep.chat_values()]
        assert all(c1 > c2 for c1, c2 in zip(chats, chats[1:]))
        ratios = [r.lower_ratio for r in rep.rows]
        assert all(r > 0 for r in ratios)

    def test_other_indices(self):
        for gamma in (0.5, 2.0):
            rep = check_weight_inequalities(
                CoefficientSequence(gamma), 0.5, range(1, 9)
            )
            assert rep.n0_largest_weight() == 1
            assert rep.exact_invariants_hold()
            assert rep.n0_corridor() == 1

    def test_budget_skip(self):
        rep = check_weight_inequalities(FLAT, 0.5, [2, 30])
        assert not rep.rows[0].skipped
        assert rep.rows[1].skipped
        assert "budget" in rep.rows[1].note
        assert rep.n0_largest_weight() == 2
        table = rep.format_table()
        assert "skipped" in table

    def test_budget_is_in_bytes_and_checked_before_allocating(self):
        # n=16 at q=0.5: two arrays of K+1 = 41,943,041 floats are 671 MB,
        # over the 320 MB budget; the row is skipped before any array is made
        tracemalloc.start()
        try:
            rep = check_weight_inequalities(FLAT, 0.5, [16])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        row = rep.rows[0]
        assert row.skipped and row.K == K_for(16) == 41_943_040
        assert row.note == "K=41943040 needs 671 MB, over the 320 MB budget"
        assert peak < 1_000_000

    def test_largest_weight_bound_values(self):
        rep = check_weight_inequalities(FLAT, 0.5, [4])
        row = rep.rows[0]
        assert row.b0_bound == pytest.approx(0.5**2.0)
        w = weights(FLAT, 4, 0.5, K_for(4))
        assert row.b0_sq == pytest.approx(w.a_sq[1], rel=1e-12)
        assert row.max_sorted_excess <= 1e-12


def _fields(report):
    # repr round-trips a float exactly and tells -0.0 and nan apart
    return [[repr(v) for v in dataclasses.astuple(r)] for r in report.rows]


@pytest.mark.parametrize("seq", PRESETS, ids=range(len(PRESETS)))
@pytest.mark.parametrize("q", [0.5, 0.7])
def test_rows_match_the_full_array_reference_bitwise(q, seq):
    # n = 11, 12 at q=0.5 (K = 0.9M, 2.0M) span 55 and 122 blocks of _BLOCK; at
    # q=0.7 the rows run to n = 20, where more than half of the weights are
    # +0.0 and the support ends before K/2 (see the next test)
    n_range = range(1, {0.5: 13, 0.7: 21}[q])
    got = check_weight_inequalities(seq, q, n_range)
    want = diagnostics_reference.check_weight_inequalities(seq, q, n_range)
    assert _fields(got) == _fields(want)


@pytest.mark.parametrize("seq", PRESETS, ids=range(len(PRESETS)))
def test_sorted_support_then_zeros_is_the_rearrangement(seq):
    # at q=0.7, n = 19 and 20 the support [0, s) ends before K/2, so the
    # corridor checks the F = 0 stretch [s, K/2] without any array
    for n in (19, 20):
        w = weights(seq, n, 0.7, K_for(n, 0.7))
        b_up = _sorted_support(w.a_sq)
        s = b_up.size
        assert w.a_sq[s - 1] > 0.0 and not w.a_sq[s:].any()
        assert s <= K_for(n, 0.7) // 2
        full = np.concatenate((b_up[::-1], np.zeros(w.a_sq.size - s)))
        want = rearrange(w)
        assert np.array_equal(full, want)
        assert np.array_equal(np.signbit(full), np.signbit(want))


def test_sweep_matches_the_whole_array_arithmetic(monkeypatch):
    # random weights on [0, s) and zeros to K, in blocks of 256: the tails
    # bit for bit, and the corridor and log C_hat at every cut where they turn
    monkeypatch.setattr(diagnostics, "_BLOCK", 256)
    rng = np.random.default_rng(3)
    K, s, qn = 5000, 3001, 1e-3
    a_sq = np.zeros(K + 1)
    a_sq[1:s] = rng.random(s - 1)
    a_sq /= a_sq.sum()
    b_up = np.sort(a_sq[:s], kind="stable")
    tilde = np.cumsum(a_sq[::-1])[::-1]
    F = np.cumsum(np.sort(a_sq))[::-1]
    k = np.arange(K + 1)
    log_env = np.log(tilde[:s]) + k[:s] * qn

    def sweep(shift, half, k0, tail_mass):
        a, b = a_sq.copy(), b_up.copy()
        got = diagnostics._sweep(a, b, shift, half, k0, qn, tail_mass)
        assert np.array_equal(a, tilde) and np.array_equal(b[::-1], F[:s])
        return got

    def corridor(shift, tail_mass):
        idx = k + shift
        ft = np.where(idx <= K, tilde[np.minimum(idx, K)], tail_mass)
        return F * (1.0 + diagnostics._CORRIDOR_RTOL) + 1e-300 >= ft

    for shift in (41, 701):
        cond = corridor(shift, 1e-10)
        first = int(np.argmin(cond))
        assert 0 < first < s and not cond[first]
        assert corridor(shift + 1, 1e-10)[: first + 1].all()  # the cut is sharp
        for half in (first - 1, first):
            assert sweep(shift, half, 0, 1e-10)[0] == cond[: half + 1].all() == (half < first)
    # F is 0 from s - 1 on (a_0 = 0): at shift 1900 it meets Ftilde = 0 up to
    # k = K - shift, past s, and only then the tail mass, which decides alone
    assert corridor(1900, 1e-10)[: K - 1900 + 1].all()
    for tail_mass in (0.0, 1e-10):
        want = corridor(1900, tail_mass).all()
        assert sweep(1900, K, 0, tail_mass)[0] == want == (tail_mass == 0.0)
    for k0 in (0, 255, 256, 2999, 3000):
        assert sweep(1, 0, k0, 0.0)[1] == log_env[k0:].max()
    assert sweep(1, 0, s, 0.0)[1] == -math.inf  # the support ends by k0


def test_skipped_weight_blocks_are_what_exp_gives():
    # `weights` leaves a block at +0.0 when every exponent is below _EXP_ZERO
    t = np.concatenate((
        np.linspace(-800.0, diagnostics._EXP_ZERO, 1_000_001),
        [np.nextafter(diagnostics._EXP_ZERO, -np.inf), -1e300, -np.inf],
    ))
    t = t[t < diagnostics._EXP_ZERO]
    e = np.exp(t)
    assert t.size == 1_000_003
    assert not e.any() and not np.signbit(e).any()
    assert all(math.exp(x) == 0.0 for x in t[::1000])


def _exact_min_prefix_gap(b_sq, a_sq) -> Fraction:
    # every float is an integer multiple of 2^-1074, so the prefix sums of
    # those integers are exact
    def ulps(arr):
        return [n * (1 << 1074) // d for n, d in map(float.as_integer_ratio, arr.tolist())]

    diffs = map(int.__sub__, ulps(b_sq), ulps(a_sq))
    return Fraction(min(accumulate(diffs, initial=0)), 1 << 1074)


def test_min_prefix_gap_matches_exact_prefix_sums(monkeypatch):
    # 10^5 weights summing to 1: against a random permutation and an already
    # sorted copy the exact gap is 0; with the pair reversed it is about -1/4.
    # The run totals are carried across 7 blocks of _BLOCK and 98 of 2^10.
    rng = np.random.default_rng(17)
    w = rng.random(100_003)
    w /= w.sum()
    perm = rng.permutation(w)
    b_sq = np.sort(w)[::-1]
    for pair, want in (((b_sq, perm), 0.0), ((b_sq, b_sq.copy()), 0.0), ((perm, b_sq), -0.25)):
        exact = _exact_min_prefix_gap(*pair)
        assert float(exact) == pytest.approx(want, abs=0.01)
        for block in (diagnostics._BLOCK, 1 << 10):
            assert block % diagnostics._RUN == 0
            monkeypatch.setattr(diagnostics, "_BLOCK", block)
            assert abs(Fraction(_min_prefix_gap(*pair)) - exact) <= 1e-13


def test_row_memory_is_two_arrays_plus_blocks():
    # n=13: K = 4.26M, of which s = 3.02M weights are nonzero. The row holds
    # the K+1 weights and the sorted copy of their support, each turned into
    # its tails in place, plus blocks of _BLOCK: measured 58.75 MB, 0.5 MiB
    # over the two arrays (85.0 MB when the sorted copy was K+1 floats and the
    # blocks 2^20). The full-array reference peaks at about eight arrays of K+1
    tracemalloc.start()
    try:
        row = check_weight_inequalities(FLAT, 0.5, [13]).rows[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    s = _sorted_support(weights(FLAT, 13, 0.5, row.K).a_sq).size
    assert row.sorted_dominated and row.corridor_ok
    assert s == 3_017_813
    assert peak <= 8 * (row.K + 1) + 8 * s + 4 * 2**20


def test_rows_are_freed_before_the_next_is_built():
    # rows 1..13 peak where row 13 alone does: each row's weights and sorted
    # support are dropped before the next row's are built (measured 1.0002 of
    # row 13 alone; 1.20 when row 12's arrays were still alive during row 13)
    peaks = []
    for ns in (range(1, 14), [13]):
        tracemalloc.start()
        try:
            check_weight_inequalities(FLAT, 0.5, ns)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 1.1 * peaks[1]
