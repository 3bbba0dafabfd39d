import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import diagnostics_reference
from diagnostics_reference import tail_pair
from polycorpus import PRESETS
from taylorzeros.coeffs import CoefficientSequence
from taylorzeros.diagnostics import (
    TruncationError,
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
    # n = 11, 12 at q=0.5 (K = 0.9M, 2.0M) span one and two blocks of _LD_BLOCK
    got = check_weight_inequalities(seq, q, range(1, 13))
    want = diagnostics_reference.check_weight_inequalities(seq, q, range(1, 13))
    assert _fields(got) == _fields(want)


def test_row_memory_is_two_arrays_plus_blocks():
    # n=13: K = 4.26M. The row holds the weights and their sorted copy, each
    # turned into its tails in place, plus blocks of _LD_BLOCK; the
    # full-array reference peaks at about eight arrays of K+1 floats
    tracemalloc.start()
    try:
        row = check_weight_inequalities(FLAT, 0.5, [13]).rows[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row.sorted_dominated and row.corridor_ok
    assert peak <= 2 * 8 * (row.K + 1) + 64 * 2**20
