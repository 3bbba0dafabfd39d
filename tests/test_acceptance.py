"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Statistical criteria run at full scale (M as stated) with the shipped default
master seed, so this module is the slow part of the suite (about 20 s on
2 cores; criterion 7's 500 exact counts take under half a second).
"""

import math

import numpy as np
import pytest

from polycorpus import (
    SCAN_INTERVAL,
    mismatch_attributable,
    planted_corpus,
    poly_fn,
    random_corpus,
)
from diagnostics_reference import tail_pair
from limit_covariance import cov_z, rho_second_derivative, rho_second_derivative_fd
from taylorzeros.coeffs import CoefficientSequence
from taylorzeros.diagnostics import check_weight_inequalities, rearrange, weights
from taylorzeros.experiments import (
    ExperimentConfig,
    run_cumulative,
    run_gaussian_oracle,
    run_interval_experiment,
    run_universality,
)
from taylorzeros.gauss import cov_y
from taylorzeros.reports import interval_csv_text, report_json_text, build_report
from taylorzeros.roots import ScanGrid, count_zeros, exact_count_small
from taylorzeros.sampling import CoefficientLaw

MASTER = 2026


def _criterion(num: int, ok: bool, detail: str) -> str:
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


@pytest.fixture(scope="module")
def interval_g1():
    cfg = ExperimentConfig(
        gamma=1.0, q=0.5, law=CoefficientLaw.RADEMACHER,
        n_min=4, n_max=10, trials=2000, master_seed=MASTER,
    )
    return run_interval_experiment(cfg)


@pytest.fixture(scope="module")
def diagnostics_g1():
    return check_weight_inequalities(CoefficientSequence(1.0), 0.5, range(1, 15))


def test_criterion_1_gaussian_rice_oracle_sharp():
    details, ok = [], True
    for gamma in (0.5, 1.0, 2.0):
        target = math.sqrt(gamma)
        s = run_gaussian_oracle(
            gamma, 1.0, math.exp(2.0 * math.pi), trials=5000, eta=0.01, seed=MASTER
        )
        tol = 3.0 * s.stderr + 0.02 * target
        good = abs(s.mean_count - target) < tol
        ok &= good
        details.append(
            f"gamma={gamma}: mean={s.mean_count:.4f} target={target:.4f} tol={tol:.4f}"
        )
    line = _criterion(1, ok, "; ".join(details))
    assert ok, line


def test_criterion_2_stationary_curvature():
    errs = {
        g: abs(rho_second_derivative_fd(g) - rho_second_derivative(g))
        for g in (0.5, 1.0, 2.0, 4.0)
    }
    ok = all(e < 1e-6 for e in errs.values())
    line = _criterion(2, ok, f"max |fd - (-gamma/4)| = {max(errs.values()):.2e}")
    assert ok, line


def test_criterion_3_per_interval_limit_trend(interval_g1):
    # every tile's mean within 3 stderr of the limit: from n=4 on the finite-n
    # gap (below 0.0026) is a third of the stderr at M=2000 (about 0.0074), so
    # a least-squares slope of |mean - target| against n was decided by noise
    target = interval_g1[0].target
    zs = [(e.mean_count - target) / e.stderr for e in interval_g1]
    final = interval_g1[-1]
    gap = abs(final.mean_count - target)
    band_ok = gap < 0.2 * target
    z_ok = all(abs(z) < 3.0 for z in zs)
    ok = band_ok and z_ok
    line = _criterion(
        3,
        ok,
        f"mean(10)={final.mean_count:.5f} vs 0.11032 (gap {gap:.5f}, "
        f"20% band {0.2 * target:.5f}); worst |mean-target|/stderr over "
        f"n={interval_g1[0].n}..{final.n} is {max(abs(z) for z in zs):.2f} (< 3)",
    )
    assert ok, line


def test_criterion_4_universality_across_laws():
    cfg = ExperimentConfig(
        gamma=1.0, q=0.5, n_min=10, n_max=10, trials=2000, master_seed=MASTER
    )
    rep = run_universality(cfg, [CoefficientLaw.RADEMACHER, CoefficientLaw.GAUSSIAN])
    (pair,) = rep.pairs
    ok = abs(pair["mean_diff"]) < 3.0 * pair["combined_stderr"]
    line = _criterion(
        4,
        ok,
        f"|mean diff|={abs(pair['mean_diff']):.5f} at n=10, "
        f"3*combined stderr={3 * pair['combined_stderr']:.5f}",
    )
    assert ok, line


def test_criterion_5_cumulative_growth_slope():
    rs = [1.0 - 2.0**-n for n in range(5, 11)]
    details, ok = [], True
    for gamma in (1.0, 2.0):
        cfg = ExperimentConfig(gamma=gamma, q=0.5, trials=2000, master_seed=MASTER)
        rep = run_cumulative(cfg, rs)
        lo, hi = 0.8 * rep.target_slope, 1.2 * rep.target_slope
        good = lo <= rep.fitted_slope <= hi
        ok &= good
        details.append(
            f"gamma={gamma}: slope={rep.fitted_slope:.5f} in [{lo:.5f}, {hi:.5f}]"
        )
    line = _criterion(5, ok, "; ".join(details))
    assert ok, line


def test_criterion_6_abelian_variance_ratio():
    details, ok = [], True
    for gamma in (0.5, 1.0, 2.0):
        seq = CoefficientSequence(gamma)
        gaps = [
            abs(math.exp(seq.log_variance_v(1.0 - a) - seq.log_abel_asymptote(a)) - 1.0)
            for a in (1e-1, 1e-2, 1e-3, 1e-4)
        ]
        good = gaps[-1] < 0.02 and all(g2 <= g1 for g1, g2 in zip(gaps, gaps[1:]))
        ok &= good
        details.append(f"gamma={gamma}: final gap {gaps[-1]:.2e}, monotone={good}")
    line = _criterion(6, ok, "; ".join(details))
    assert ok, line


def test_criterion_7_root_counter_oracles():
    planted_bad = 0
    for coeffs, m in planted_corpus(200, seed=20260815):
        zc = count_zeros(poly_fn(coeffs), ScanGrid(*SCAN_INTERVAL, eta=0.003))
        planted_bad += zc.count != m
    mismatches = []
    agree = 0
    for i, coeffs in enumerate(random_corpus(500, 20, seed=777)):
        zc = count_zeros(poly_fn(coeffs), ScanGrid(*SCAN_INTERVAL, eta=0.01))
        exact = exact_count_small(coeffs, SCAN_INTERVAL)
        if zc.count == exact:
            agree += 1
        else:
            attributable = mismatch_attributable(coeffs, SCAN_INTERVAL, eta=0.01)
            mismatches.append((i, zc.count, exact, attributable))
    for i, got, want, attributable in mismatches:
        print(
            f"  polynomial {i}: grid={got} exact={want} "
            f"sub-grid-pair attributable={attributable}"
        )
    rate = agree / 500.0
    ok = (
        planted_bad == 0
        and rate >= 0.99
        and all(attributable for *_, attributable in mismatches)
    )
    line = _criterion(
        7,
        ok,
        f"planted 200/200 exact={planted_bad == 0}; random agreement {rate:.1%} "
        f"with {len(mismatches)} attributable mismatches",
    )
    assert ok, line


def test_criterion_8_exact_invariant_suite(diagnostics_g1):
    problems = []
    rng = np.random.default_rng(8)
    # weight normalization and rearrangement, across gamma and scale
    for gamma in (0.5, 1.0, 2.0):
        seq = CoefficientSequence(gamma)
        for n in (2, 6):
            w = weights(seq, n, 0.5, math.ceil(40 * n * 2**n))
            if abs(w.a_sq.sum() - 1.0) > 1e-10:
                problems.append(f"normalization gamma={gamma} n={n}")
            b_sq = rearrange(w)
            if not np.array_equal(np.sort(w.a_sq), np.sort(b_sq)):
                problems.append(f"rearrangement multiset gamma={gamma} n={n}")
            pair = tail_pair(w)
            if np.max(pair.sorted - pair.tilde) > 1e-12:
                problems.append(f"tail domination gamma={gamma} n={n}")
    if not all(r.sorted_dominated and r.norm_ok for r in diagnostics_g1.rows):
        problems.append("diagnostics exact flags")
    # covariance identities
    ts = rng.uniform(0.05, 20.0, size=64)
    ss = rng.uniform(0.05, 20.0, size=64)
    if any(cov_z(t, t, 1.5) != 1.0 for t in ts):
        problems.append("unit diagonal")
    if any(
        abs(cov_y(math.log(t) - math.log(s), 2.0) - cov_z(t, s, 2.0)) > 1e-12
        for t, s in zip(ts, ss)
    ):
        problems.append("log time-change identity")
    # byte-identical artifacts on a rerun
    cfg = ExperimentConfig(gamma=1.0, n_min=4, n_max=5, trials=40, master_seed=5)
    first = run_interval_experiment(cfg)
    second = run_interval_experiment(cfg)
    if interval_csv_text(cfg, first) != interval_csv_text(cfg, second):
        problems.append("rerun CSV bytes")
    r1 = report_json_text(build_report("simulate", cfg.to_dict(), intervals=first))
    r2 = report_json_text(build_report("simulate", cfg.to_dict(), intervals=second))
    if r1 != r2:
        problems.append("rerun JSON bytes")
    ok = not problems
    line = _criterion(8, ok, "all exact invariants hold" if ok else str(problems))
    assert ok, line


def test_criterion_9_weight_bound_tabulation(diagnostics_g1):
    n0 = diagnostics_g1.n0_largest_weight()
    chats = [r.chat for r in diagnostics_g1.rows if 8 <= r.n <= 14 and not r.skipped]
    n0_ok = n0 is not None and n0 <= 20
    chat_ok = (
        len(chats) == 7
        and all(math.isfinite(c) and c > 0 for c in chats)
        and all(c2 <= c1 for c1, c2 in zip(chats, chats[1:]))
    )
    ok = n0_ok and chat_ok
    line = _criterion(
        9,
        ok,
        f"largest-weight bound n0={n0} (<=20); C_hat over n=8..14 positive and "
        f"nonincreasing: {chats[0]:.3e} -> {chats[-1]:.3e}",
    )
    assert ok, line
