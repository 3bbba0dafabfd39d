import json
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

import taylorzeros.experiments as experiments_mod
import taylorzeros.sampling as sampling_mod
from taylorzeros import cli
from taylorzeros.coeffs import Constant, LogLog, LogPower
from taylorzeros.experiments import (
    ExperimentConfig,
    _group_values,
    _scan,
    _simulate,
    _table_groups,
    _tiles_for,
    interval_target,
    run_cumulative,
    run_gaussian_oracle,
    run_interval_experiment,
    run_universality,
)
from taylorzeros.reports import build_report, report_json_text
from taylorzeros.roots import EvaluationError, ScanGrid, count_zeros, path_zero_counts
from taylorzeros.sampling import (
    CoefficientLaw,
    TruncationPolicy,
    _PowerTable,
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
        dict(trials=True),  # bools are ints to Python, never counts or seeds here
        dict(master_seed=True),
        dict(n_min=False),
        dict(n_min=0, n_max=True),
        dict(trials=2**32 + 1),  # a trial index is one 32-bit spawn word
        dict(n_min=1.5, n_max=2),
        dict(n_max=6.5),
        dict(slow="const"),  # a label, not a slow-variation object
        dict(slow=2.0),
        dict(slow=None),
    ],
)
def test_config_rejects_bad_fields(kw):
    with pytest.raises(ValueError):
        small_config(**kw)


def test_config_round_trips_to_dict(tmp_path):
    cfg = small_config()
    d = cfg.to_dict()
    assert d["law"] == "rademacher"
    assert d["gamma"] == 1.0 and d["trials"] == 40
    assert d["slow"] == "const:1.0"
    # to_dict written as `key = value` lines, as bench/workloads.py writes it,
    # parses back to the same config; the parser's keys are the fields
    assert set(cli._CONFIG_PARSERS) == {f.name for f in fields(ExperimentConfig)}
    i64 = np.int64  # numpy integers, which json cannot write, become ints
    configs = [small_config(law=law) for law in CoefficientLaw] + [
        small_config(slow=slow, q=0.3, delta=2.5e-7, eta=0.015)
        for slow in (Constant(2.5), LogPower(-0.5), LogLog())
    ] + [ExperimentConfig(gamma=1.0, n_min=i64(1), n_max=i64(2), trials=i64(5),
                         master_seed=i64(7))]
    for cfg in configs:
        path = tmp_path / "round.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.to_dict().items()))
        assert cli.parse_config_file(path) == cfg
    estimates, slope = _simulate(configs[-1])
    report = build_report("simulate", configs[-1].to_dict(), intervals=estimates, slope=slope)
    assert json.loads(report_json_text(report))["config"]["trials"] == 5


def test_config_from_numpy_scalars_holds_builtin_numbers(tmp_path):
    # float32 tile edges, a numpy label and numpy integers all once reached
    # report.json, where json.dumps raised TypeError or the label did not parse
    scalars = dict(gamma=np.float64(1.0), q=np.float32(0.3), n_min=np.int64(1),
                   n_max=np.int64(2), trials=np.int64(5), delta=np.float32(2.5e-7),
                   eta=np.float64(0.015), master_seed=np.int64(7))
    builtin = {k: float(v) if isinstance(v, np.floating) else int(v)
               for k, v in scalars.items()}
    texts = []
    for kw, beta in ((scalars, np.float64(-0.5)), (builtin, -0.5)):
        cfg = ExperimentConfig(slow=LogPower(beta), **kw)
        assert all(type(getattr(cfg, k)) is type(v) for k, v in builtin.items())
        path = tmp_path / "round.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.to_dict().items()))
        assert cli.parse_config_file(path) == cfg
        estimates, slope = _simulate(cfg)
        assert type(estimates[0].a) is float
        texts.append(report_json_text(
            build_report("simulate", cfg.to_dict(), intervals=estimates, slope=slope)))
    assert texts[0] == texts[1]


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


def _reference_values(cfg, n):
    """Tile n's trial values the slow way: one draw_sample at tile n's own K
    and one evaluate_many per trial, on trial t's stream
    SeedSequence(master_seed, spawn_key=(t,)); at x = 0 on tile 0, where every
    path vanishes, the engine's value c_1 xi_1."""
    a, b = _tile(cfg, n)
    policy = TruncationPolicy(b, cfg.delta)
    K = truncation_degree(cfg.seq, policy)
    pts = ScanGrid(a, b, cfg.eta, cfg.gamma)._points(2)
    samples = [
        draw_sample(cfg.seq, cfg.law, np.random.SeedSequence(cfg.master_seed, spawn_key=(t,)),
                    K, policy)
        for t in range(cfg.trials)
    ]
    ref = np.column_stack([s.evaluate_many(pts) for s in samples])
    if n == 0:  # f(0) = 0 on every path; the engine holds c_1 xi_1 there
        assert not ref[0].any()
        ref[0] = [s.weights[1] for s in samples]
    return ref


def _engine_values(cfg, tiles):
    """{n: tile n's values, shape (points, M)} from the grouped engine, the
    chunks joined (each chunk copied: the next one overwrites its buffer)."""
    out = {}
    for group in _table_groups(cfg, tiles):
        chunks = [[v.copy() for v in vals] for _, vals in _group_values(cfg, group)]
        for i, (_, n, *_) in enumerate(group):
            out[n] = np.hstack([c[i] for c in chunks])
    return out


@pytest.mark.parametrize("law", list(CoefficientLaw))
@pytest.mark.parametrize("n", [0, 4, 10])
def test_engine_matches_evaluate_many_bitwise(law, n):
    # a scan of tiles 0..n: tiles in one table group share one draw per trial,
    # at the group's largest K, and each must still match its own draw; 9
    # trials fill rows 0..7 of one product and row 0 of a second, zero-padded
    cfg = small_config(law=law, trials=9)
    assert n == 0 or len(_table_groups(cfg, range(n + 1))[0]) > 1
    vals = _engine_values(cfg, range(n + 1))
    _, counts = _scan(cfg, range(n + 1))
    for m in range(n + 1):
        ref = _reference_values(cfg, m)
        assert np.array_equal(vals[m], ref)
        # counts on the grid's own points, plus the known zero at 0 on tile 0
        assert np.array_equal(counts[m], path_zero_counts(ref[::2]) + (m == 0))


@pytest.mark.parametrize("seed, chunk, trials", [(2**32, None, 9), (2**64 - 1, None, 9),
                                                  (99, 16, 19)])
def test_engine_matches_evaluate_many_at_seed_edges(monkeypatch, seed, chunk, trials):
    # the scan hashes its trial keys itself; two-word seeds, the largest seed,
    # and a chunk boundary (keys of trials 16..18 hashed in a second pass)
    # must still give every trial numpy's SeedSequence stream
    if chunk:
        monkeypatch.setattr(experiments_mod, "_CHUNK", chunk)
    cfg = small_config(law=CoefficientLaw.RADEMACHER, trials=trials, master_seed=seed)
    vals = _engine_values(cfg, range(5))
    for n in range(5):
        assert np.array_equal(vals[n], _reference_values(cfg, n))


def test_engine_matches_evaluate_many_across_table_blocks(monkeypatch):
    # 13 points and 64-element blocks: 4 powers per block, 128 blocks at K=512;
    # tiles 0..3 share a draw at K=256
    monkeypatch.setattr(sampling_mod, "_EVAL_BLOCK", 64)
    cfg = small_config(law=CoefficientLaw.GAUSSIAN, trials=5)
    vals = _engine_values(cfg, range(5))
    assert vals[4].shape == (13, 5)
    for n in range(5):
        assert np.array_equal(vals[n], _reference_values(cfg, n))


@pytest.mark.parametrize("m", [1, 2, 7, 8, 9, 17])
def test_trial_values_do_not_depend_on_trial_count(m):
    # trial t's values are a function of t alone, so M=m is a prefix of M=20;
    # a product as wide as the trial count fails this at m=1 and m=2 (1, 2 and
    # 3+ rows sum differently), so every product has _ROWS rows, zero-padded
    short = _engine_values(small_config(trials=m), range(11))
    long = _engine_values(small_config(trials=20), range(11))
    for n in range(11):
        assert np.array_equal(long[n][:, :m], short[n])
        assert np.array_equal(path_zero_counts(long[n][::2])[:m],
                              path_zero_counts(short[n][::2]))


def test_group_tables_must_share_block_boundaries(monkeypatch):
    # a scan's tiles all span log(1/q) in u, so a group's halved grids have one
    # size and its tables one block length; a group without it would sum a
    # tile in other blocks than evaluate_many does, so the scan refuses it
    monkeypatch.setattr(sampling_mod, "_EVAL_BLOCK", 64)
    cfg = small_config(trials=3)
    (row, n, grid, K, _), *rest = _table_groups(cfg, range(5))[0]
    finer = replace(grid, eta=grid.eta / 2)
    with pytest.raises(RuntimeError, match="share block boundaries"):
        list(_group_values(cfg, [(row, n, finer, K, finer._size(2))] + rest))


def test_trial_chunks_do_not_change_values_or_counts(monkeypatch):
    # M=7 in chunks of 3, 3 and 1, against one chunk of 7: the buffers are
    # reused across chunks and the last chunk fills only its first column
    cfg = small_config(law=CoefficientLaw.GAUSSIAN, trials=7)
    vals = _engine_values(cfg, range(7))
    ests, counts = _scan(cfg, range(7))
    monkeypatch.setattr(experiments_mod, "_CHUNK", 3)
    chunked = _engine_values(cfg, range(7))
    chunked_ests, chunked_counts = _scan(cfg, range(7))
    assert all(np.array_equal(chunked[n], vals[n]) for n in range(7))
    assert np.array_equal(chunked_counts, counts)
    assert [e.__dict__ for e in chunked_ests] == [e.__dict__ for e in ests]


def test_table_grouping_moves_no_bit(monkeypatch):
    # a smaller planner block splits tiles 0..10 into several groups (the
    # tables keep their own block); each trial then draws its series once per
    # group, and every value, count and estimate matches the one-group scan
    cfg = small_config(law=CoefficientLaw.GAUSSIAN, trials=20)
    assert len(_table_groups(cfg, range(11))) == 1
    vals, (ests, counts) = _engine_values(cfg, range(11)), _scan(cfg, range(11))
    monkeypatch.setattr(experiments_mod, "_EVAL_BLOCK", 1 << 16)
    assert len(_table_groups(cfg, range(11))) >= 4
    split, (split_ests, split_counts) = _engine_values(cfg, range(11)), _scan(cfg, range(11))
    assert all(np.array_equal(split[n], vals[n]) for n in range(11))
    assert np.array_equal(split_counts, counts)
    assert [e.__dict__ for e in split_ests] == [e.__dict__ for e in ests]


def test_simulate_draws_once_per_trial_per_table_group(monkeypatch):
    # the preset's scan of tiles 0..10 is one group: M trial streams (one
    # per tile and trial is 11M), each drawing exactly K(10)+1 variates, one
    # table block at a time; K and the grid are worked out once per tile;
    # planning sizes the grids without building them. A stream starts where
    # the scan re-keys one of its generators to a trial's key
    draw, rekey, degree, points = (CoefficientLaw.draw, experiments_mod._rekey,
                                   experiments_mod.truncation_degree, ScanGrid._points)
    streams, current, degrees, grids = [], {}, [], []

    def counting_rekey(g, key):
        rekey(g, key)
        streams.append([])
        current[g] = streams[-1]

    def counting_draw(self, g, size):
        current[g].append(size)
        return draw(self, g, size)

    def counting_degree(seq, policy):
        degrees.append(degree(seq, policy))
        return degrees[-1]

    def counting_points(self, *args):
        grids.append(self)
        return points(self, *args)

    monkeypatch.setattr(experiments_mod, "_rekey", counting_rekey)
    monkeypatch.setattr(CoefficientLaw, "draw", counting_draw)
    monkeypatch.setattr(experiments_mod, "truncation_degree", counting_degree)
    monkeypatch.setattr(ScanGrid, "_points", counting_points)
    _simulate(ExperimentConfig(gamma=1.0, trials=5))
    assert len(degrees) == 11
    assert len(grids) == len(set(grids)) == 11
    assert len(streams) == 5
    assert [sum(v) for v in streams] == [degrees[10] + 1] * 5
    assert all(max(v) <= sampling_mod._BLOCK_ROWS + 1 for v in streams)


@pytest.mark.parametrize("block", [None, 4096])
@pytest.mark.parametrize("q", [0.25, 0.5, 0.75])
def test_table_groups_fit_in_the_largest_table(monkeypatch, q, block):
    # the largest table keeps one block, so a group's tables, in the floats
    # they keep, fit in one block; block=4096 lowers the planner's block only,
    # so the deep tiles' tables are each over it
    if block:
        monkeypatch.setattr(experiments_mod, "_EVAL_BLOCK", block)
    cfg = ExperimentConfig(gamma=1.0, q=q, trials=1)
    groups = _table_groups(cfg, range(8))
    plans = [p for g in groups for p in g]
    assert [p[:2] for p in plans] == list(enumerate(range(8)))  # each tile once, in order
    for _, n, grid, K, size in plans:
        a, b = _tile(cfg, n)
        assert grid == ScanGrid(a, b, cfg.eta, cfg.gamma)
        assert K == truncation_degree(cfg.seq, TruncationPolicy(b, cfg.delta))
        pts = ScanGrid(a, b, cfg.eta, cfg.gamma)._points(2)
        assert np.array_equal(grid._points(2), pts) and size == pts.size
    sizes = [[_PowerTable(grid._points(2), K).P.size for _, _, grid, K, _ in g] for g in groups]
    budget = block or sampling_mod._EVAL_BLOCK
    assert all(sum(s) <= budget or len(s) == 1 for s in sizes)
    assert all(len(s) == 1 for s in sizes if max(s) > budget)  # over a block: alone
    # a group is closed only when the next tile's table would not fit in it
    assert all(sum(s) + nxt[0] > budget for s, nxt in zip(sizes, sizes[1:]))
    assert block or len(groups) == 1  # at the real block, one draw per trial


def test_table_groups_hold_no_grids():
    # plans describe their grids: at eta=2e-7 each preset tile's halved grid
    # has 1.1M points (8.8 MB), and planning sizes them all without building one
    cfg = ExperimentConfig(gamma=1.0, trials=1, eta=2e-7, n_min=0, n_max=10)
    grid_bytes = 8 * ScanGrid(*_tile(cfg, 10), cfg.eta, cfg.gamma)._points(2).size
    tracemalloc.start()
    try:
        groups = _table_groups(cfg, range(11))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    plans = [p for g in groups for p in g]
    assert len(plans) == 11
    assert not any(isinstance(x, np.ndarray) for p in plans for x in p)
    assert peak < 3 * grid_bytes
    assert peak < 1_000_000


def test_simulate_peak_memory_stays_near_one_table():
    # the preset's tiles are one group, whose tables together keep under one
    # block of floats; the peak reads about 1.33x those tables (the rest is the
    # 8-row weight block, c and one block's draw)
    cfg = ExperimentConfig(gamma=1.0, trials=50)
    (group,) = _table_groups(cfg, range(11))
    table_bytes = sum(_PowerTable(grid._points(2), K).P.nbytes for _, _, grid, K, _ in group)
    tracemalloc.start()
    try:
        _simulate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.4 * table_bytes


def test_simulate_builds_each_power_table_once(monkeypatch):
    # a 4096-float block puts tiles 5..10 past one block; each table's powers
    # are still built once per scan, not once per block and trial
    for mod in (sampling_mod, experiments_mod):
        monkeypatch.setattr(mod, "_EVAL_BLOCK", 4096)
    cumprod, calls = np.cumprod, []
    monkeypatch.setattr(np, "cumprod", lambda *a, **kw: calls.append(1) or cumprod(*a, **kw))
    _simulate(ExperimentConfig(gamma=1.0, trials=20))
    assert len(calls) == 11


def test_deep_group_peak_memory_per_term(monkeypatch):
    # the coefficient vector is filled one table block at a time and the
    # weights are drawn one block at a time: c and the blocks stay under 14
    # bytes per term (whole draws and weight vectors peak at 25, building c
    # in one piece at 40)
    for mod in (sampling_mod, experiments_mod):
        monkeypatch.setattr(mod, "_EVAL_BLOCK", 4096)
    cfg = ExperimentConfig(gamma=1.0, trials=2)
    group = next(g for g in _table_groups(cfg, range(11)) if g[-1][1] == 10)
    K = max(K for *_, K, _ in group)
    list(_group_values(cfg, group))  # warm-up
    tracemalloc.start()
    try:
        list(_group_values(cfg, group))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14 * (K + 1)


def test_scan_grid_past_its_bound_raises_before_allocating(monkeypatch):
    # a tile's value buffer, halved grid by max(_ROWS, min(_CHUNK, M)) floats
    # (one trial is still summed in an 8-row product), must fit one
    # _EVAL_BLOCK; at 16 points eta=0.005's 47-point tiles raise MemoryError
    # before any grid, power table or buffer is built
    for trials in (256, 1):
        width = max(sampling_mod._ROWS, min(experiments_mod._CHUNK, trials))
        monkeypatch.setattr(experiments_mod, "_EVAL_BLOCK", 16 * width)
        cfg = small_config(n_min=0, n_max=3, trials=trials, eta=0.005)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError, match="over 16 points"):
                run_interval_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 256 * 8  # under one 64-point buffer


def test_tile_rows_do_not_depend_on_which_tiles_run():
    cfg = small_config(trials=30)
    all_ests, all_counts = _scan(cfg, range(0, 7))
    ests, counts = _scan(cfg, range(4, 7))
    assert np.array_equal(all_counts[4:], counts)
    assert [e.__dict__ for e in all_ests[4:]] == [e.__dict__ for e in ests]


def test_tile_zero_counts_the_zero_at_the_origin_once():
    # gamma=1: c_k = 1, so |c_1 xi_1| = 1 > sum_{k>=2} x^(k-1) on [0, 1/2), and
    # f/x keeps its sign there: the zero at 0 is the only one
    (e,) = run_interval_experiment(small_config(n_min=0, n_max=0, trials=200))
    assert e.count_hist == {1: 200}
    # Gaussian law, gamma=1: E N[0, 1/2) = 1 + log(3)/(2 pi) exactly (the
    # density of the zeros of f/x is 1/(pi (1-x^2)))
    cfg = small_config(law=CoefficientLaw.GAUSSIAN, n_min=0, n_max=0, trials=4000)
    (e,) = run_interval_experiment(cfg)
    assert abs(e.mean_count - (1 + math.log(3) / (2 * math.pi))) < 3 * e.stderr


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


def test_scan_stability_matches_count_zeros():
    # at a coarse eta some trials count differently on the halved grid; the
    # scan's unstable_fraction and counts are count_zeros' on each trial's
    # own draw_sample (tile 0 differs at x = 0, where f vanishes)
    cfg = small_config(law=CoefficientLaw.GAUSSIAN, eta=0.5, trials=40, master_seed=5)
    ests, counts = _scan(cfg, range(7))
    assert any(e.unstable_fraction > 0 for e in ests[1:])
    for n in range(1, 7):
        a, b = _tile(cfg, n)
        policy = TruncationPolicy(b, cfg.delta)
        K = truncation_degree(cfg.seq, policy)
        zcs = [count_zeros(draw_sample(cfg.seq, cfg.law, np.random.SeedSequence(
            cfg.master_seed, spawn_key=(t,)), K, policy).evaluate_many,
            ScanGrid(a, b, cfg.eta, cfg.gamma)) for t in range(cfg.trials)]
        assert counts[n].tolist() == [z.count for z in zcs]
        assert ests[n].unstable_fraction == sum(not z.stable for z in zcs) / cfg.trials


# ------------------------------------------------------------ cumulative


def test_tile_planner_detects_exact_boundaries():
    assert _tiles_for(0.5, 1 - 2.0**-5) == 5
    assert _tiles_for(0.5, 0.5) == 1
    assert _tiles_for(0.25, 0.9375) == 2
    for q, r in [(0.5, 0.7), (0.5, 0.75 + 1e-6), (0.25, 0.5), (0.5, 1e-12)]:
        with pytest.raises(ValueError, match=f"r={r} .* q={q}"):
            _tiles_for(q, r)
    # at q=0.9, log1p(-r) / log(q) strays past 1e-9 from m from m=139 on; from
    # m=331 on several m round to one r, and any of them names it
    rs = [1 - 0.9**m for m in range(1, 400) if 1 - 0.9**m < 1]
    for m, r in enumerate(rs, 1):
        assert _tiles_for(0.9, r) == m or rs.count(r) > 1
        assert 1 - 0.9 ** _tiles_for(0.9, r) == r


def test_simulate_names_deep_cumulative_points_by_tile_count(monkeypatch):
    # at q=0.9 and n ~ 138, log1p(-r) / log(q) strays more than 1e-9 from m,
    # so r = 1-q^m cannot be mapped back to m; the counts are not needed here
    monkeypatch.setattr(experiments_mod, "_scan", lambda config, tiles: (
        [None] * len(tiles), np.zeros((len(tiles), config.trials), dtype=int)))
    monkeypatch.setattr(experiments_mod, "_tiles_for", None)  # not on this path
    cfg = ExperimentConfig(gamma=1.0, q=0.9, n_min=130, n_max=138, trials=2)
    _, rep = _simulate(cfg)
    assert rep.r_values == [1 - 0.9**m for m in range(131, 140)]
    assert rep.cumulative_means == [0.0] * 9


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


def test_cumulative_matches_interval_sums_on_dyadic_grid(monkeypatch):
    # one series per trial across the tiles: the cumulative mean is the sum of
    # the tile means, and the stderr is that of each trial's summed count;
    # each r is mapped to its tile count once
    cfg = ExperimentConfig(gamma=1.0, n_min=0, n_max=3, trials=50, master_seed=17)
    rs = [1 - 2.0**-k for k in range(1, 5)]
    tiles_for, mapped = experiments_mod._tiles_for, []
    monkeypatch.setattr(experiments_mod, "_tiles_for",
                        lambda q, r: mapped.append(r) or tiles_for(q, r))
    rep = run_cumulative(cfg, rs)
    assert mapped == rs
    ests = run_interval_experiment(cfg)
    partial_sums = np.cumsum([e.mean_count for e in ests])
    assert rep.cumulative_means == pytest.approx(list(partial_sums), rel=1e-12)
    assert rep.u_values == pytest.approx([k * math.log(2) for k in range(1, 5)])
    _, counts = _scan(cfg, range(4))
    sums = np.cumsum(counts, axis=0)  # row m-1: each trial's count on [0, 1-2^-m)
    assert rep.cumulative_means == [float(s.mean()) for s in sums]
    assert rep.cumulative_stderrs == [float(s.std(ddof=1)) / math.sqrt(50) for s in sums]


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
    # valid input whose grid passes the cap: a runtime limit, raised before
    # the grid is allocated (eta=1e-300 is normal, its grid far too fine)
    for b, eta in [(1e30, 1e-4), (2.0, 1e-300)]:
        with pytest.raises(MemoryError, match="over 10000 points"):
            run_gaussian_oracle(1.0, 1.0, b, trials=5, eta=eta)


def test_oracle_matches_rice_count():
    g = run_gaussian_oracle(1.0, 1.0, math.exp(math.pi), trials=2000, eta=0.01, seed=5)
    assert g.target == pytest.approx(0.5)
    assert abs(g.mean_count - 0.5) < 4 * g.stderr
    assert sum(g.count_hist.values()) == 2000


def test_oracle_paths_do_not_depend_on_the_chunk(monkeypatch):
    # path t is the t-th block of normals of one stream: 10 paths in chunks
    # of 3, 3, 3 and 1 are the 10 paths of one chunk
    args = (1.0, 1.0, math.exp(4.0 * math.pi))
    whole = run_gaussian_oracle(*args, trials=10, seed=4)
    monkeypatch.setattr(experiments_mod, "_CHUNK", 3)
    assert run_gaussian_oracle(*args, trials=10, seed=4).__dict__ == whole.__dict__


def test_oracle_memory_is_set_by_the_grid_not_the_trial_count():
    # 1001 points, M=3000: the factor is one n x n array; the chunk's normals
    # and paths stay far below it (the 2048-path chunks made 7.5x)
    b = math.exp(10.0 * math.pi)
    tracemalloc.start()
    try:
        run_gaussian_oracle(1.0, 1.0, b, trials=3000, eta=0.005, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * 1001**2


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
    assert set(rep.estimates) == {"rademacher", "gaussian", "uniform"}
