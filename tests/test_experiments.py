import math

import numpy as np
import pytest

import taylorzeros.experiments as experiments_mod
import taylorzeros.sampling as sampling_mod
from taylorzeros.experiments import (
    ExperimentConfig,
    _interval_values,
    _tiles_for,
    interval_target,
    run_cumulative,
    run_gaussian_oracle,
    run_interval_experiment,
    run_universality,
)
from taylorzeros.roots import EvaluationError, ScanGrid, path_zero_counts
from taylorzeros.sampling import (
    CoefficientLaw,
    TruncationPolicy,
    draw_sample,
    truncation_degree,
)


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
        dict(gamma=400.0),  # Gamma(400) overflows a float
        dict(q=0.0),
        dict(q=1.0),
        dict(n_min=-1),
        dict(n_min=8, n_max=5),
        dict(trials=0),
        dict(delta=0.0),
        dict(delta=1.0),
        dict(delta=math.inf),
        dict(eta=0.0),
        dict(eta=math.inf),
        dict(eta=math.nan),
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


def _tile(cfg, n):
    return 1 - cfg.q**n, 1 - cfg.q ** (n + 1)


def _evaluate_many_columns(cfg, n, a, b):
    """Trial values the slow way: one draw_sample and evaluate_many each."""
    policy = TruncationPolicy(b, cfg.delta)
    K = truncation_degree(cfg.seq, policy)
    pts = ScanGrid(a, b, cfg.eta, cfg.gamma)._points(2)
    cols = []
    for t in range(cfg.trials):
        ss = np.random.SeedSequence(cfg.master_seed, spawn_key=(n, t))
        cols.append(draw_sample(cfg.seq, cfg.law, ss, K, policy).evaluate_many(pts))
    return np.column_stack(cols)


@pytest.mark.parametrize("law", list(CoefficientLaw))
@pytest.mark.parametrize("n", [0, 4, 10])
def test_engine_matches_evaluate_many_bitwise(law, n):
    cfg = small_config(law=law, trials=6)
    a, b = _tile(cfg, n)
    assert np.array_equal(_interval_values(cfg, n, a, b), _evaluate_many_columns(cfg, n, a, b))


def test_engine_matches_evaluate_many_across_table_blocks(monkeypatch):
    # 13 points and 64-element blocks: 4 powers per block, 128 blocks at K=512
    monkeypatch.setattr(sampling_mod, "_EVAL_BLOCK", 64)
    cfg = small_config(law=CoefficientLaw.GAUSSIAN, trials=5)
    a, b = _tile(cfg, 4)
    vals = _interval_values(cfg, 4, a, b)
    assert vals.shape == (13, 5)
    assert np.array_equal(vals, _evaluate_many_columns(cfg, 4, a, b))


@pytest.mark.parametrize("m", [1, 2, 7])
def test_trial_values_do_not_depend_on_trial_count(m):
    # trial t's values are a function of t alone, so M=m is a prefix of M=14;
    # one matrix product over stacked trials fails this at m=1 and m=2
    a, b = _tile(small_config(), 10)
    short = _interval_values(small_config(trials=m), 10, a, b)
    long = _interval_values(small_config(trials=14), 10, a, b)
    assert np.array_equal(long[:, :m], short)
    assert np.array_equal(path_zero_counts(long[::2])[:m], path_zero_counts(short[::2]))


def test_nonfinite_draw_raises_evaluation_error(monkeypatch):
    draw = CoefficientLaw.draw
    calls = []

    def nan_on_third_trial(self, rng, size):
        xi = draw(self, rng, size)
        calls.append(size)
        if len(calls) == 3:
            xi[1] = np.nan
        return xi

    monkeypatch.setattr(CoefficientLaw, "draw", nan_on_third_trial)
    cfg = small_config(n_min=5, n_max=5, trials=4)
    with pytest.raises(EvaluationError) as err:
        run_interval_experiment(cfg)
    assert err.value.x == _tile(cfg, 5)[0] and math.isnan(err.value.value)


def test_single_trial_gives_nan_spread_without_crashing():
    e = run_interval_experiment(small_config(trials=1))[0]
    assert math.isfinite(e.mean_count)
    assert math.isnan(e.sd) and math.isnan(e.stderr)
    assert math.isnan(e.ci_lo) and math.isnan(e.ci_hi)


def test_interval_with_overflowing_variance_raises():
    # v(1-2^-9) overflows at gamma=150; a silent K=1 gave mean 0 against 1.351
    with pytest.raises(OverflowError):
        run_interval_experiment(ExperimentConfig(gamma=150.0, n_min=8, n_max=8, trials=50))


def test_deep_interval_mean_approaches_limit():
    cfg = ExperimentConfig(gamma=1.0, n_min=10, n_max=10, trials=600, master_seed=2026)
    e = run_interval_experiment(cfg)[0]
    assert abs(e.mean_count - e.target) < 4 * e.stderr + 1e-12
    assert e.unstable_fraction < 0.01


# ------------------------------------------------------------ cumulative


def test_tile_planner_detects_exact_boundaries():
    assert _tiles_for(0.5, 1 - 2.0**-5) == 5
    assert _tiles_for(0.5, 0.5) == 1
    assert _tiles_for(0.25, 0.9375) == 2
    for q, r in [(0.5, 0.7), (0.5, 0.75 + 1e-6), (0.25, 0.5), (0.5, 1e-12)]:
        with pytest.raises(ValueError, match=f"r={r} .* q={q}"):
            _tiles_for(q, r)


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


def test_cumulative_reuses_known_tiles(monkeypatch):
    cfg = small_config(n_min=2, n_max=4, trials=20)
    rs = [1 - 0.5 ** (n + 1) for n in range(2, 5)]
    ests = run_interval_experiment(cfg)
    scanned = []
    estimate = experiments_mod._estimate_interval

    def counting(config, n):
        scanned.append(n)
        return estimate(config, n)

    monkeypatch.setattr(experiments_mod, "_estimate_interval", counting)
    reused = run_cumulative(cfg, rs, known=ests)
    assert scanned == [0, 1]  # tiles 2..4 come from the known estimates
    assert reused.to_dict() == run_cumulative(cfg, rs).to_dict()


@pytest.mark.parametrize(
    "other",
    [dict(trials=21), dict(law=CoefficientLaw.GAUSSIAN), dict(q=0.25), dict(gamma=2.0)],
)
def test_cumulative_rejects_known_tiles_whose_fields_differ(other):
    # an estimate records its tile, law, trials and target, not the seed,
    # slow, delta or eta, so only the recorded fields can be checked
    base = dict(n_min=2, n_max=3, trials=20)
    ests = run_interval_experiment(small_config(**{**base, **other}))
    with pytest.raises(ValueError, match="known estimate for n=2"):
        run_cumulative(small_config(**base), [0.875], known=ests)


def test_cumulative_rejects_partial_tiles():
    cfg = ExperimentConfig(gamma=1.0, trials=30, master_seed=23)
    with pytest.raises(ValueError, match="r=0.7 is not a tile boundary"):
        run_cumulative(cfg, [0.5, 0.7])
    rep = run_cumulative(cfg, [0.5, 0.75, 0.875])
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


@pytest.mark.parametrize(
    "args",
    [
        (0.0, 1.0, 2.0, 5, 0.01),
        (1.0, 0.0, 2.0, 5, 0.01),
        (1.0, 3.0, 2.0, 5, 0.01),
        (1.0, 1.0, 2.0, 2.5, 0.01),
        (1.0, 1.0, 100.0, 5, -1.0),
        (1.0, 1.0, 100.0, 5, 0.0),
        (1.0, 1.0, 100.0, 5, math.nan),
        (1.0, 1.0, 100.0, 5, math.inf),
        (1.0, 2.0, 2.0, 5, -1.0),
        (1.0, 2.0, 2.0, 5, 0.01),
        (math.inf, 1.0, 2.0, 5, 0.01),
        (1.0, 1.0, math.inf, 5, 0.01),
        (1.0, 1.0, 2.0, 5, 1e-320),
    ],
)
def test_oracle_rejects_bad_domain(args):
    gamma, a, b, trials, eta = args
    with pytest.raises(ValueError):
        run_gaussian_oracle(gamma, a, b, trials=trials, eta=eta)


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
