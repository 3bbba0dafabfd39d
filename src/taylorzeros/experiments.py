"""Monte Carlo experiments on zero counts of random Taylor series.

Four runners, one per question:

- `run_interval_experiment`: zero counts on the dyadic intervals
  [1-q^n, 1-q^(n+1)), whose means converge to sqrt(gamma) log(1/q) / (2 pi);
- `run_cumulative`: counts on [0, r), r = 1-q^m, as per-trial sums over the
  dyadic tiles below r, with a least squares slope of the cumulative mean
  against -log(1-r) over the last half of the points (the growth constant,
  target sqrt(gamma)/(2 pi));
- `run_gaussian_oracle`: the same counting applied to exact samples of the
  stationary limit process, so the Monte Carlo machinery can be validated
  against the closed-form Rice count;
- `run_universality`: the interval experiment repeated across coefficient
  laws, reporting pairwise mean differences (which should vanish within
  noise: the limit does not feel the law).

Reproducibility contract, for both loops: series trial t draws the stream of
`trial_rng(master_seed, t)`, counter block (0, 0, t, 0) of `Philox(master_seed)`,
from one of `_ROWS` generators `_seek`ed to it, `_ROWS` trials per product of
that fixed width, in the scan's one trial loop (`_tile_values`): one pass per
table group under a bounded law (Rademacher, uniform; `_table_groups`: tiles
whose tables keep one block of floats at most; at the CLI's grids, all), one
under the Gaussian law. A bounded-law trial draws once per pass, a table block
at a time, and tile n sums a prefix of its weights, so a trial's tiles are one
series whatever the other trials. A Gaussian-law trial's values on every
halved-grid point of tiles 0..max(n_max, the last tile asked) are R^T z_t, R
the scan's one `_grid_factor` of their covariance and z_t the first P normals
of the stream: equal in law to `draw_sample` plus `evaluate_many`, not bit for
bit, and the same bits whichever of tiles 0..n_max a scan asks for. Oracle path
t is the t-th block of npoints normals of `trial_rng(seed)`. So values depend
on neither M, `_CHUNK` nor the grouping, and reruns are bitwise identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .coeffs import CoefficientSequence, Constant, LogLog, LogPower
from .diagnostics import _check_q
from .gauss import _MAX_PATH_GRID, PathSampler, expected_zeros_rice
# count_zeros and draw_sample are unused: bench/tracing.py wraps them on this module
from .roots import (ScanGrid, _check_eta, _finite, _halved_counts, _u_grid_size, count_zeros,
                    path_zero_counts)
from .sampling import (
    CoefficientLaw,
    TruncationPolicy,
    _EVAL_BLOCK,
    _PowerTable,
    _ROWS,
    _check_delta,
    _is_int,
    _seek,
    draw_sample,
    trial_rng,
    truncation_degree,
)

__all__ = [
    "ExperimentConfig",
    "IntervalEstimate",
    "SlopeReport",
    "GaussianOracleSummary",
    "UniversalityReport",
    "interval_target",
    "run_interval_experiment",
    "run_cumulative",
    "run_gaussian_oracle",
    "run_universality",
]

_Z95 = 1.959963984540054  # two-sided 95% normal quantile
_CHUNK = 256  # trials, or oracle paths, per value buffer: sets memory, not results


def _check_trials(trials: int):
    # any trial t < 2**64 has a stream (`trial_rng`); 2**32, the earlier seed
    # rule's cap, stays so that no config's validity changed with the rule
    if not (_is_int(trials) and 1 <= trials <= 2**32):
        raise ValueError(f"trials must be an integer in [1, 2**32], got {trials!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a zero-count experiment needs, in one picklable value."""

    gamma: float
    q: float = 0.5
    law: CoefficientLaw = CoefficientLaw.RADEMACHER
    slow: Constant | LogPower | LogLog = field(default_factory=Constant)
    n_min: int = 4
    n_max: int = 10
    trials: int = 2000
    delta: float = 1e-6
    eta: float = 0.02
    master_seed: int = 2026

    def __post_init__(self):
        self.seq  # checks gamma and slow
        _check_q(self.q)
        if not isinstance(self.law, CoefficientLaw):
            raise ValueError(f"law must be a CoefficientLaw, got {self.law!r}")
        for name in ("n_min", "n_max", "master_seed"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not (0 <= self.n_min <= self.n_max):
            raise ValueError(
                f"need 0 <= n_min <= n_max, got {self.n_min}..{self.n_max}"
            )
        _check_trials(self.trials)
        _check_delta(self.delta)
        _check_eta(self.eta)
        if not (0 <= self.master_seed < 2**64):
            raise ValueError(f"master_seed must be in [0, 2**64), got {self.master_seed}")
        kinds = {"int": int, "float": float}  # json cannot write numpy scalars
        for f in (f for f in fields(self) if f.type in kinds):
            object.__setattr__(self, f.name, kinds[f.type](getattr(self, f.name)))

    @property
    def seq(self) -> CoefficientSequence:
        return CoefficientSequence(self.gamma, self.slow)

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        return d | {"law": self.law.value, "slow": self.slow.label()}


def interval_target(gamma: float, q: float) -> float:
    """Limit of E#zeros on [1-q^n, 1-q^(n+1)): sqrt(gamma) log(1/q) / (2 pi)."""
    return math.sqrt(gamma) * math.log(1.0 / q) / (2.0 * math.pi)


@dataclass
class CountSummary:
    """Per-trial zero counts reduced to mean, spread, 95% CI and histogram,
    next to the expected count they estimate."""

    trials: int
    mean_count: float
    sd: float
    stderr: float
    ci_lo: float
    ci_hi: float
    target: float
    count_hist: dict

    @classmethod
    def from_counts(cls, counts: np.ndarray, target: float, **fields):
        """Summarize `counts`; `fields` fill the subclass's own fields."""
        m = counts.size
        mean = float(counts.mean())
        if m > 1:
            sd = float(counts.std(ddof=1))
            stderr = sd / math.sqrt(m)
            ci_lo, ci_hi = mean - _Z95 * stderr, mean + _Z95 * stderr
        else:
            sd = stderr = ci_lo = ci_hi = math.nan  # degenerate single-trial run
        hist = {int(k): int(v) for k, v in enumerate(np.bincount(counts)) if v}
        return cls(m, mean, sd, stderr, ci_lo, ci_hi, target, hist, **fields)

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["count_hist"] = {str(k): v for k, v in self.count_hist.items()}
        return d


@dataclass
class IntervalEstimate(CountSummary):
    n: int
    a: float
    b: float
    law: str
    unstable_fraction: float


@dataclass
class SlopeReport:
    r_values: list
    u_values: list
    cumulative_means: list
    cumulative_stderrs: list
    fitted_slope: float
    target_slope: float
    relative_gap: float
    points_fitted: int

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class GaussianOracleSummary(CountSummary):
    gamma: float
    a: float
    b: float
    eta: float


@dataclass
class UniversalityReport:
    laws: list
    estimates: dict  # law value -> list[IntervalEstimate]
    pairs: list  # dicts: law_a, law_b, n, mean_diff, combined_stderr


def _plans(config: ExperimentConfig, tiles: range) -> list:
    """The tiles as plans of integers (n, ScanGrid, K, halved-grid points).
    Builds no grid: a tile's rows of its pass's value buffer and product
    scratch, halved grid by max(_ROWS, min(_CHUNK, trials)) floats, over one
    _EVAL_BLOCK raise MemoryError."""
    cap = _EVAL_BLOCK // max(_ROWS, min(_CHUNK, config.trials))
    plans = []
    for n in tiles:
        grid = ScanGrid(1.0 - config.q**n, 1.0 - config.q ** (n + 1), config.eta, config.gamma)
        K = truncation_degree(config.seq, TruncationPolicy(grid.b, config.delta))
        plans.append((n, grid, K, grid._size(2, cap)))
    return plans


def _table_groups(config: ExperimentConfig, tiles: range) -> list:
    """The tiles' `_plans` in runs of consecutive tiles whose power tables, in
    the floats `_PowerTable.rows` keeps, fit together in one _EVAL_BLOCK."""
    groups, used = [], 0
    for plan in _plans(config, tiles):
        *_, K, size = plan
        floats = _PowerTable.rows(K, size) * size
        if not groups or used + floats > _EVAL_BLOCK:
            groups.append([])
            used = 0
        groups[-1].append(plan)
        used += floats
    return groups


def _grid_factor(seq: CoefficientSequence, xs: list, Ks: list) -> np.ndarray:
    """R, P x P and upper triangular, with R^T R = W^T W, W[k, i] = c_k x_i^k
    for x_i the points of `xs` in order (one array per tile, P in all) and
    k <= Ks[j], x_i on tile j, but c_1 e_1 at x = 0 (the scan reads c_1 xi_1
    there). So R^T z, z P iid normals, is one trial's values on every tile in
    law. The Gram matrix is numerically singular, so it is never formed: the
    rows of W are folded in a block at a time, by the QR of [R; block]. Rows
    K'+1..K, K' < K consecutive values of Ks, reach only the columns whose K
    is K or more: the block spans the columns from the first of them (with K
    growing with the tile, just those), and only that corner of R changes.
    A block holds at most `_PowerTable.rows` rows."""
    x = np.concatenate(xs)
    Kx = np.repeat(Ks, [v.size for v in xs])
    starts = np.cumsum([0] + [v.size for v in xs])
    P = x.size
    log_x = np.log(x, out=np.full(P, -np.inf), where=x > 0.0)
    R = np.zeros((P, P))
    lo = 1  # row 0 of W is zero: c_0 = 0
    for K in sorted(set(Ks)):
        c0 = next(s for s, Kj in zip(starts, Ks) if Kj >= K)
        step = _PowerTable.rows(K + 1 - lo, P - c0)
        for a in range(lo, K + 1, step):
            k = np.arange(a, min(a + step, K + 1), dtype=float)
            S = np.empty((P - c0 + k.size, P - c0))
            S[: P - c0] = R[c0:, c0:]
            block = S[P - c0 :]  # c_k x^k from logs, as `csq` forms c_k^2
            np.multiply.outer(k, log_x[c0:], out=block)
            block += 0.5 * seq._log_csq(k)[:, None]
            np.exp(block, out=block)
            block[:, Kx[c0:] < K] = 0.0
            if a == 1 and x[0] == 0.0:
                block[0, 0] = seq.coeff(1)
            R[c0:, c0:] = np.linalg.qr(S, mode="r")
        lo = K + 1
    return R


def _series_stack(config: ExperimentConfig, plans: list, xs: list, at):
    """A bounded law's `stack(rngs, out)`: out[i, at[j]:at[j+1]] is then tile
    plans[j] on xs[j] for rngs[i]'s trial, the prefix to K(n) of its weights
    xi_k c_k, drawn a table block at a time and summed as `evaluate_many` sums
    them, bit for bit, but c_1 xi_1 at x = 0 (the sign of f(x)/x as x -> 0+)."""
    tables = [_PowerTable(x, K) for x, (*_, K, _) in zip(xs, plans)]
    spans = tables[-1].spans()  # the group's largest K
    if any(t.spans() != [(a, min(b, t.K + 1)) for a, b in spans if a <= t.K] for t in tables):
        raise RuntimeError("the power tables of a table group must share block boundaries")
    c = np.empty(spans[-1][1])
    for a, b in spans:  # c_k is elementwise: slabs give its bits
        c[a:b] = config.seq.coeff(np.arange(a, b))
    W = np.zeros((_ROWS, spans[0][1]))

    def stack(rngs, out):
        W[len(rngs) :] = 0.0  # a short stack's zero rows
        for a, b in spans:
            for row, rng in zip(W, rngs):
                row[: b - a] = config.law.draw(rng, a, b) * c[a:b]
            for table, i in zip(tables, at):
                table.add(out[:, i : i + table.xs.size], a, W[:, : b - a])
                if a == 0 and table.xs[0] == 0.0:
                    out[:, i] = W[:, 1]  # later blocks add exact zeros at x = 0
    return stack


def _normal_stack(config: ExperimentConfig, plans: list, xs: list):
    """The Gaussian law's `stack(rngs, out)`: out[i] is then z^T R, R the
    `_grid_factor` of the plans on xs, z the first P normals of rngs[i]'s trial."""
    R = _grid_factor(config.seq, xs, [K for *_, K, _ in plans])
    Z = np.zeros((_ROWS, len(R)))

    def stack(rngs, out):
        Z[len(rngs) :] = 0.0  # a short stack's zero rows
        for z, rng in zip(Z, rngs):
            z[:] = config.law.draw(rng, 0, len(R))
        np.matmul(Z, R, out=out)
    return stack


def _tile_values(config: ExperimentConfig, tiles: range):
    """(plans, lo, values) per pass and chunk of trials: values[i] is tile
    plans[i] on its halved grid for the trials from lo, in a buffer the next
    chunk overwrites. A bounded law makes one pass per `_table_groups` group,
    the Gaussian law one over tiles 0..max(n_max, tiles[-1]), whose factor of
    P^2 floats, P their points, over one _EVAL_BLOCK raises MemoryError before
    anything is built. A pass holds one value buffer and one _ROWS-row scratch
    for all its tiles: the law's `stack` fills the scratch a product at a time,
    and one transposed copy moves it into the buffer. A non-finite value raises
    EvaluationError."""
    if not tiles:
        return
    gaussian = config.law is CoefficientLaw.GAUSSIAN
    if not gaussian:
        passes = _table_groups(config, tiles)
    else:
        passes = [_plans(config, range(max(config.n_max, tiles[-1]) + 1))]
        P = sum(size for *_, size in passes[0])
        if P * P > _EVAL_BLOCK:
            raise MemoryError(f"Gaussian grid factor of tiles 0..{len(passes[0]) - 1}: {P} points, "
                              f"over {math.isqrt(_EVAL_BLOCK)}")
    gens = [trial_rng(config.master_seed) for _ in range(_ROWS)]  # seeked to each trial
    key = gens[0].bit_generator.state["state"]["key"]
    for plans in passes:
        xs = [grid._points(2) for _, grid, _, _ in plans]
        at = np.cumsum([0] + [x.size for x in xs])  # tile plans[i]'s points at[i]:at[i+1]
        stack = (_normal_stack(config, plans, xs) if gaussian
                 else _series_stack(config, plans, xs, at))
        V, out = np.empty((at[-1], min(_CHUNK, config.trials))), np.empty((_ROWS, at[-1]))
        asked = [i for i, (n, *_) in enumerate(plans) if n in tiles]
        for lo in range(0, config.trials, _CHUNK):
            m = min(_CHUNK, config.trials - lo)
            for s in range(0, m, _ROWS):
                rngs = gens[: min(_ROWS, m - s)]
                for t, rng in enumerate(rngs, lo + s):
                    _seek(rng, key, t)
                stack(rngs, out)
                V[:, s : s + len(rngs)] = out[: len(rngs)].T
            yield ([plans[i] for i in asked], lo,
                   [_finite(xs[i], V[at[i] : at[i + 1], :m]) for i in asked])
        del V, out, stack  # freed before the next pass builds its power tables


def _scan(config: ExperimentConfig, tiles: range):
    """Each tile's estimate, and counts[i, t]: trial t's zeros on tile tiles[i]
    from the grid's own points, plus on tile 0 the zero at x = 0 that every path
    has. One draw per trial per `_tile_values` pass; the CLI's grids make one."""
    target = interval_target(config.gamma, config.q)
    counts = np.empty((len(tiles), config.trials), dtype=int)
    unstable = np.zeros(len(tiles), dtype=int)
    grids = {}
    for plans, lo, vals in _tile_values(config, tiles):
        for (n, grid, *_), v in zip(plans, vals):
            own, stable = _halved_counts(v)
            counts[n - tiles.start, lo : lo + own.size] = own + (grid.a == 0.0)
            unstable[n - tiles.start] += np.count_nonzero(~stable)
            grids[n] = grid
        del vals, v  # freed before the next pass's grids and power tables are built
    return [IntervalEstimate.from_counts(
        counts[i], target, n=n, a=grids[n].a, b=grids[n].b, law=config.law.value,
        unstable_fraction=float(unstable[i] / config.trials),
    ) for i, n in enumerate(tiles)], counts


# jobs is ignored; bench/workloads.py SimulatePreset.jobs2_speedup passes it
def run_interval_experiment(config: ExperimentConfig, jobs: int = 1):
    """Per-interval zero-count estimates for n = n_min..n_max."""
    return _scan(config, range(config.n_min, config.n_max + 1))[0]


def _tiles_for(q: float, r: float) -> int:
    """The m >= 1 with r = 1-q^m (to 1e-9 in m, or exactly); any other r raises
    ValueError. Where several m round to the same r, this is one of them."""
    v = math.log1p(-r) / math.log(q)
    m = round(v)
    if m < 1 or not (abs(v - m) < 1e-9 or 1.0 - q**m == r):
        raise ValueError(f"r={r} is not a tile boundary 1-q^m for q={q}")
    return m


def _slope_report(config: ExperimentConfig, rs, ms, counts) -> SlopeReport:
    """Per-trial sums of rows 0..m-1 of `counts` for each r = 1-q^m in `rs`,
    m in `ms` (the counts on [0, r)), and the slope fitted to their means."""
    target = math.sqrt(config.gamma) / (2.0 * math.pi)
    sums = [CountSummary.from_counts(counts[:m].sum(axis=0), math.nan) for m in ms]
    means = [s.mean_count for s in sums]
    us = [-math.log1p(-r) for r in rs]
    n_fit = math.ceil(len(rs) / 2)
    if n_fit >= 2:
        slope = float(np.polyfit(us[-n_fit:], means[-n_fit:], 1)[0])
    else:
        slope, n_fit = math.nan, 0
    gap = slope / target - 1.0 if math.isfinite(slope) else math.nan
    return SlopeReport(rs, us, means, [s.stderr for s in sums], slope, target, gap, n_fit)


def run_cumulative(config: ExperimentConfig, r_list) -> SlopeReport:
    """Cumulative counts on [0, r) for each r, plus the fitted growth slope.

    Each r must be a tile boundary 1-q^m with m >= 1, each m once; any
    other r raises ValueError. [0, r) is the union of tiles 0..m-1, and trial t scans them
    all on one series, so its count on [0, r) is the sum of its tile counts.
    The report gives the mean and sd(ddof=1)/sqrt(M) of these per-trial
    sums. The tiles r_list requires replace the config's n_min..n_max, but
    under the Gaussian law the factor still covers tiles 0..n_max at least,
    so each tile keeps the bits of every other scan of the config. The slope
    is least squares over the last ceil(half) points of cumulative mean
    against -log(1-r).
    """
    rs = sorted(float(r) for r in r_list)
    if any(not (0.0 < r < 1.0) for r in rs):
        raise ValueError("every r must be in (0, 1)")
    ms = [_tiles_for(config.q, r) for r in rs]
    if len(set(ms)) < len(ms):
        raise ValueError(f"every r must be a distinct tile boundary, got tile counts {ms}")
    _, counts = _scan(config, range(max(ms, default=0)))
    return _slope_report(config, rs, ms, counts)


def _simulate(config: ExperimentConfig):
    """`run_interval_experiment(config)`, and `run_cumulative` at r = 1-q^(n+1)
    for n = n_min..n_max, from one scan of tiles 0..n_max."""
    estimates, counts = _scan(config, range(config.n_max + 1))
    ms = range(config.n_min + 1, config.n_max + 2)
    rs = [1.0 - config.q**m for m in ms]
    return estimates[config.n_min :], _slope_report(config, rs, ms, counts)


def run_gaussian_oracle(
    gamma: float,
    a: float,
    b: float,
    trials: int = 5000,
    eta: float = 0.01,
    seed: int = 2026,
) -> GaussianOracleSummary:
    """Zero counts of exact limit-process paths on [a, b] in the t coordinate.

    Needs 0 < a < b < inf. The grid in u = log t has `roots._u_grid_size`
    points, the rule series scans use (u-step at most eta * 2 pi / sqrt(gamma));
    past the sampler's `_MAX_PATH_GRID` points it raises MemoryError unallocated.
    """
    target = expected_zeros_rice(a, b, gamma)  # checks gamma and the domain
    _check_trials(trials)
    _check_eta(eta)
    rng = trial_rng(seed)
    u = math.log(a), math.log(b)
    sampler = PathSampler(np.linspace(*u, _u_grid_size(*u, eta, gamma, cap=_MAX_PATH_GRID)), gamma)
    counts = np.concatenate([
        path_zero_counts(sampler.draw(rng, min(_CHUNK, trials - lo)))
        for lo in range(0, trials, _CHUNK)
    ])
    return GaussianOracleSummary.from_counts(counts, target, gamma=gamma, a=a, b=b, eta=eta)


def run_universality(config: ExperimentConfig, laws):
    """The interval experiment across several laws, with pairwise gaps."""
    laws = list(laws)
    if len(laws) < 2:
        raise ValueError("universality needs at least two laws")
    estimates = {}
    for law in laws:
        estimates[law.value] = run_interval_experiment(replace(config, law=law))
    pairs = []
    for i, la in enumerate(laws):
        for lb in laws[i + 1 :]:
            for ea, eb in zip(estimates[la.value], estimates[lb.value]):
                pairs.append(
                    {
                        "law_a": la.value,
                        "law_b": lb.value,
                        "n": ea.n,
                        "mean_diff": ea.mean_count - eb.mean_count,
                        "combined_stderr": math.hypot(ea.stderr, eb.stderr),
                    }
                )
    return UniversalityReport(laws=[l.value for l in laws], estimates=estimates, pairs=pairs)
