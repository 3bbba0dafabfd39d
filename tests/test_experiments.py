import math

import numpy as np
import pytest

from taylorzeros.experiments import (
    ExperimentConfig,
    _tiles_for,
    interval_target,
    run_cumulative,
    run_gaussian_oracle,
    run_interval_experiment,
    run_universality,
)
from taylorzeros.sampling import CoefficientLaw


def small_config(**kw):
    base = dict(gamma=1.0, n_min=5, n_max=6, trials=40, master_seed=99)
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------- config


@pytest.mark.parametrize(
    "kw",
    [
        dict(gamma=0.0),
        dict(gamma=-1.0),
        dict(q=0.0),
        dict(q=1.0),
        dict(n_min=-1),
        dict(n_min=8, n_max=5),
        dict(trials=0),
        dict(delta=0.0),
        dict(eta=0.0),
        dict(law="rademacher"),
        dict(master_seed=5.7),
        dict(master_seed=-1),
        dict(trials=2.5),
        dict(n_min=1.5, n_max=2),
        dict(n_max=6.5),
    ],
)
def test_config_rejects_bad_fields(kw):
    with pytest.raises(ValueError):
        small_config(**kw)


def test_config_round_trips_to_dict():
    cfg = small_config()
    d = cfg.to_dict()
    assert d["law"] == "rademacher"
    assert d["gamma"] == 1.0 and d["trials"] == 40
    assert d["slow"] == "const:1.0"


def test_interval_target_values():
    assert interval_target(1.0, 0.5) == pytest.approx(0.1103178, abs=1e-6)
    assert interval_target(4.0, 0.5) == pytest.approx(2 * 0.1103178, abs=2e-6)
    # log(1/q) scaling
    assert interval_target(1.0, 0.25) == pytest.approx(2 * interval_target(1.0, 0.5))


# ------------------------------------------------------- interval runner


def test_interval_estimates_fields_and_hist():
    cfg = small_config()
    ests = run_interval_experiment(cfg)
    assert [e.n for e in ests] == [5, 6]
    for e in ests:
        assert e.a == 1 - 0.5**e.n and e.b == 1 - 0.5 ** (e.n + 1)
        assert e.law == "rademacher" and e.trials == 40
        assert sum(e.count_hist.values()) == 40
        recon = sum(k * v for k, v in e.count_hist.items()) / 40
        assert e.mean_count == recon
        assert 0.0 <= e.unstable_fraction <= 1.0
        assert e.ci_lo <= e.mean_count <= e.ci_hi
        assert e.target == pytest.approx(0.1103178, abs=1e-6)


def test_interval_run_is_deterministic():
    a = run_interval_experiment(small_config())
    b = run_interval_experiment(small_config())
    assert [e.__dict__ for e in a] == [e.__dict__ for e in b]


def test_worker_count_does_not_change_results():
    serial = run_interval_experiment(small_config(), jobs=1)
    pooled = run_interval_experiment(small_config(), jobs=3)
    assert [e.__dict__ for e in serial] == [e.__dict__ for e in pooled]


def test_single_trial_gives_nan_spread_without_crashing():
    e = run_interval_experiment(small_config(trials=1))[0]
    assert math.isfinite(e.mean_count)
    assert math.isnan(e.sd) and math.isnan(e.stderr)
    assert math.isnan(e.ci_lo) and math.isnan(e.ci_hi)


def test_deep_interval_mean_approaches_limit():
    cfg = ExperimentConfig(gamma=1.0, n_min=10, n_max=10, trials=600, master_seed=2026)
    e = run_interval_experiment(cfg)[0]
    assert abs(e.mean_count - e.target) < 4 * e.stderr + 1e-12
    assert e.unstable_fraction < 0.01


# ------------------------------------------------------------ cumulative


def test_tile_planner_detects_exact_boundaries():
    assert _tiles_for(0.5, 1 - 2.0**-5) == (5, None)
    assert _tiles_for(0.5, 0.5) == (1, None)
    m, rp = _tiles_for(0.5, 0.7)
    assert m == 1 and rp == 0.7


def test_cumulative_empty_r_list():
    rep = run_cumulative(small_config(), [])
    assert rep.r_values == [] and rep.points_fitted == 0
    assert math.isnan(rep.fitted_slope) and math.isnan(rep.relative_gap)
    assert rep.target_slope == pytest.approx(1 / (2 * math.pi))


def test_cumulative_rejects_bad_r():
    with pytest.raises(ValueError):
        run_cumulative(small_config(), [0.5, 1.0])
    with pytest.raises(ValueError):
        run_cumulative(small_config(), [-0.1])


def test_cumulative_matches_interval_sums_on_dyadic_grid():
    # same master seed and tiling: the tile estimates must agree exactly
    cfg = ExperimentConfig(gamma=1.0, n_min=0, n_max=3, trials=50, master_seed=17)
    rs = [1 - 2.0**-k for k in range(1, 5)]
    rep = run_cumulative(cfg, rs)
    ests = run_interval_experiment(cfg)
    partial_sums = np.cumsum([e.mean_count for e in ests])
    assert rep.cumulative_means == pytest.approx(list(partial_sums), abs=0)
    assert rep.u_values == pytest.approx([k * math.log(2) for k in range(1, 5)])
    assert all(
        s == pytest.approx(math.sqrt(sum(e.stderr**2 for e in ests[:j + 1])), abs=0)
        for j, s in enumerate(rep.cumulative_stderrs)
    )


def test_cumulative_handles_partial_tiles():
    cfg = ExperimentConfig(gamma=1.0, trials=30, master_seed=23)
    rep = run_cumulative(cfg, [0.3, 0.5, 0.7])
    assert len(rep.cumulative_means) == 3
    assert all(math.isfinite(m) for m in rep.cumulative_means)
    # counting starts at the origin where every sample vanishes
    assert rep.cumulative_means[0] >= 1.0
    assert rep.cumulative_means == sorted(rep.cumulative_means)


def test_cumulative_single_point_has_no_fit():
    rep = run_cumulative(small_config(trials=10), [0.5])
    assert len(rep.cumulative_means) == 1 and rep.points_fitted == 0
    assert math.isnan(rep.fitted_slope)


def test_tiling_matches_direct_count_on_fixed_samples():
    # one truncated sample, counted once on [0, b) and once tile by tile:
    # the half-open dyadic tiles must partition the count exactly
    from taylorzeros.coeffs import CoefficientSequence
    from taylorzeros.roots import ScanGrid, count_zeros
    from taylorzeros.sampling import TruncationPolicy, draw_sample, truncation_degree

    seq = CoefficientSequence(1.0)
    b_full = 1 - 0.5**4
    policy = TruncationPolicy(b_full, 1e-6)
    K = truncation_degree(seq, policy)
    for seed in range(12):
        s = draw_sample(seq, CoefficientLaw.RADEMACHER, seed, K, policy=policy)
        direct = count_zeros(s.evaluate_many, ScanGrid(0.0, b_full))
        tiled = sum(
            count_zeros(s.evaluate_many, ScanGrid(1 - 0.5**n, 1 - 0.5 ** (n + 1))).count
            for n in range(4)
        )
        assert direct.count == tiled


def test_cumulative_slope_tracks_growth_constant():
    cfg = ExperimentConfig(gamma=1.0, trials=300, master_seed=2026)
    rs = [1 - 2.0**-n for n in range(5, 11)]
    rep = run_cumulative(cfg, rs)
    assert rep.points_fitted == 3
    assert 0.5 / (2 * math.pi) < rep.fitted_slope < 2.0 / (2 * math.pi)


# -------------------------------------------------------- gaussian oracle


def test_oracle_degenerate_interval_is_exact():
    g = run_gaussian_oracle(1.0, 2.0, 2.0, trials=7)
    assert g.mean_count == 0.0 and g.sd == 0.0 and g.stderr == 0.0
    assert g.count_hist == {0: 7}


@pytest.mark.parametrize(
    "args",
    [(0.0, 1.0, 2.0, 5), (1.0, 0.0, 2.0, 5), (1.0, 3.0, 2.0, 5), (1.0, 1.0, 2.0, 2.5)],
)
def test_oracle_rejects_bad_domain(args):
    gamma, a, b, trials = args
    with pytest.raises(ValueError):
        run_gaussian_oracle(gamma, a, b, trials=trials)


def test_oracle_rejects_non_integer_seed():
    with pytest.raises(ValueError):
        run_gaussian_oracle(1.0, 1.0, 2.0, trials=5, seed=5.7)


def test_oracle_grid_cap():
    with pytest.raises(ValueError):
        run_gaussian_oracle(1.0, 1.0, 1e30, trials=5, eta=1e-4)


def test_oracle_matches_rice_count():
    g = run_gaussian_oracle(1.0, 1.0, math.exp(math.pi), trials=2000, eta=0.01, seed=5)
    assert g.target == pytest.approx(0.5)
    assert abs(g.mean_count - 0.5) < 4 * g.stderr
    assert sum(g.count_hist.values()) == 2000


def test_oracle_deterministic():
    g1 = run_gaussian_oracle(2.0, 1.0, 20.0, trials=64, seed=11)
    g2 = run_gaussian_oracle(2.0, 1.0, 20.0, trials=64, seed=11)
    assert g1.__dict__ == g2.__dict__


# ---------------------------------------------------------- universality


def test_universality_needs_two_laws():
    with pytest.raises(ValueError):
        run_universality(small_config(), [CoefficientLaw.RADEMACHER])


def test_universality_same_law_coupling_is_exact():
    rep = run_universality(
        small_config(), [CoefficientLaw.RADEMACHER, CoefficientLaw.RADEMACHER]
    )
    assert all(p["mean_diff"] == 0.0 for p in rep.pairs)


def test_universality_pair_structure():
    laws = [CoefficientLaw.RADEMACHER, CoefficientLaw.GAUSSIAN, CoefficientLaw.UNIFORM]
    rep = run_universality(small_config(n_min=6, n_max=6, trials=20), laws)
    assert rep.laws == ["rademacher", "gaussian", "uniform"]
    assert len(rep.pairs) == 3  # 3 choose 2 pairs, one interval each
    for p in rep.pairs:
        assert p["n"] == 6
        assert math.isfinite(p["mean_diff"]) and p["combined_stderr"] > 0
    d = rep.to_dict()
    assert set(d["estimates"]) == {"rademacher", "gaussian", "uniform"}
