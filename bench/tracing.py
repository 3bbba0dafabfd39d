"""Per-layer tracing of taylorzeros from outside the package.

`Tracer.install()` replaces the public functions of each module with
wrappers, on the names as callers look them up (for example
`taylorzeros.experiments.draw_sample`, the name the trial loop calls, and
`SeriesSample.evaluate_many` on the class). Each wrapper records a span
(name, start, end, parent span) and the counts of work done at that
boundary. Spans stay in memory until the run ends; then `layer_metrics`
and `span_table` reduce them.
`Tracer.remove()` puts every original back.

A span's self time is its duration minus the durations of its direct child
spans; calls are sequential in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

from taylorzeros import (
    cli,
    coeffs,
    diagnostics,
    experiments,
    gauss,
    roots,
    sampling,
)

_REPORT_FUNCTIONS = (
    "interval_csv_text",
    "cumulative_csv_text",
    "build_report",
    "report_json_text",
    "manifest_json_text",
)


class Tracer:
    """Wrappers, spans and counters for one traced workload run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        self.counts = Counter()
        self.spawn_keys = set()
        self.truncations = []  # (seq, policy, K) per truncation_degree call
        self.jitter = 0.0

    def _wrap(self, owner, attr, name, observe=None):
        original = owner.__dict__[attr]
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(span, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> "Tracer":
        c = self.counts

        def on_truncation(span, args, K):
            seq, policy = args[0], args[1]
            self.truncations.append((seq, policy, K))
            c["K_total"] += K

        def on_draw(span, args, sample):
            c["variates"] += sample.xi.size

        def on_trial_draw(span, args, sample):
            on_draw(span, args, sample)
            c["trials_run"] += 1
            seed = args[2]
            self.spawn_keys.add((seed.entropy, seed.spawn_key))

        def on_evaluate(span, args, out):
            c["points"] += out.size
            c["terms"] += out.size * args[0].K
            parent = span[3]
            if out.size == 1 and parent >= 0 and self.spans[parent][0] == "roots.count_zeros":
                c["bisect_evals"] += 1
                c["bisect_s"] += span[2] - span[1]

        def on_count(span, args, zc):
            c["zeros"] += zc.count
            c["unstable"] += not zc.stable

        def on_exact(span, args, result):
            c["degree_total"] += len(args[0]) - 1

        def on_sampler(span, args, result):
            sampler = args[0]
            c["path_points"] += sampler.u.size
            self.jitter = max(self.jitter, float(sampler.jitter))

        def on_path_draw(span, args, values):
            n, m = values.shape
            c["flops"] += 2 * n * n * m

        def on_weights(span, args, w):
            c["elements"] += w.a_sq.size

        def on_report(span, args, result):
            if isinstance(result, str):
                c["report_bytes"] += len(result.encode())

        w = self._wrap
        w(cli, "main", "cli.main")
        for fn in _REPORT_FUNCTIONS:
            w(cli, fn, "reports", on_report)
        for site in (cli, experiments):
            w(site, "run_interval_experiment", "experiments.run_interval_experiment")
        w(cli, "run_cumulative", "experiments.run_cumulative")
        w(experiments, "run_gaussian_oracle", "experiments.run_gaussian_oracle")
        for site in (experiments, sampling):
            w(site, "truncation_degree", "sampling.truncation_degree", on_truncation)
        w(experiments, "draw_sample", "sampling.draw_sample", on_trial_draw)
        w(sampling, "draw_sample", "sampling.draw_sample", on_draw)
        w(sampling.SeriesSample, "evaluate_many", "sampling.evaluate_many", on_evaluate)
        for site in (experiments, roots):
            w(site, "count_zeros", "roots.count_zeros", on_count)
        w(roots, "exact_count_small", "roots.exact_count_small", on_exact)
        w(gauss.PathSampler, "__init__", "gauss.PathSampler.init", on_sampler)
        w(gauss.PathSampler, "draw", "gauss.PathSampler.draw", on_path_draw)
        w(experiments, "path_zero_counts", "gauss.path_zero_counts")
        w(diagnostics, "check_weight_inequalities", "diagnostics.check_weight_inequalities")
        w(diagnostics, "weights", "diagnostics.weights", on_weights)
        w(coeffs.CoefficientSequence, "variance_v", "coeffs.variance_v")
        return self

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def patched(self) -> list:
        """(owner, attribute) pairs still holding a wrapper."""
        return [
            (owner, attr)
            for owner, attr, original in self._patches
            if owner.__dict__[attr] is not original
        ]

    def _self_times(self):
        calls, total, child = Counter(), defaultdict(float), defaultdict(float)
        root_s = 0.0
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
            else:
                root_s += end - start
        self_s = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
        return calls, total, self_s, root_s

    def span_table(self) -> dict:
        """Calls, total and self seconds per span name: the spans written out."""
        calls, total, self_s, _ = self._self_times()
        return {name: {"calls": calls[name], "total_s": total[name], "self_s": self_s[name]}
                for name in calls}

    def layer_metrics(self, traced_wall_s: float) -> dict:
        """Per-layer metrics for this run; call after `remove()`."""
        calls, total, self_s, root_s = self._self_times()
        c = self.counts
        draws = calls["sampling.draw_sample"]
        targets = {}
        K_min = sum(_certified_minimum(*t, targets) for t in self.truncations)
        return {
            "sampling.truncation_degree.calls": calls["sampling.truncation_degree"],
            "sampling.truncation_degree.self_s": self_s["sampling.truncation_degree"],
            "sampling.K_total": c["K_total"],
            "sampling.K_overshoot": c["K_total"] / K_min if K_min else 0.0,
            "sampling.draw_sample.calls": draws,
            "sampling.draw_sample.self_s": self_s["sampling.draw_sample"],
            "sampling.draw_sample.variates": c["variates"],
            "sampling.evaluate_many.calls": calls["sampling.evaluate_many"],
            "sampling.evaluate_many.self_s": self_s["sampling.evaluate_many"],
            "sampling.evaluate_many.points": c["points"],
            "sampling.evaluate_many.terms": c["terms"],
            "sampling.evaluate_many.calls_per_trial": (
                calls["sampling.evaluate_many"] / draws if draws else 0.0
            ),
            "roots.count_zeros.calls": calls["roots.count_zeros"],
            "roots.count_zeros.self_s": self_s["roots.count_zeros"],
            "roots.count_zeros.zeros": c["zeros"],
            "roots.count_zeros.unstable": c["unstable"],
            "roots.bisect.evals": c["bisect_evals"],
            "roots.bisect.s": c["bisect_s"],
            "roots.bisect.evals_per_zero": (
                c["bisect_evals"] / c["zeros"] if c["zeros"] else 0.0
            ),
            "roots.exact_count_small.calls": calls["roots.exact_count_small"],
            "roots.exact_count_small.self_s": self_s["roots.exact_count_small"],
            "roots.exact_count_small.degree_total": c["degree_total"],
            "experiments.trials_run": c["trials_run"],
            "experiments.trials_distinct": len(self.spawn_keys),
            "experiments.run_interval_experiment.self_s": self_s[
                "experiments.run_interval_experiment"
            ],
            "experiments.run_cumulative.self_s": self_s["experiments.run_cumulative"],
            "experiments.run_gaussian_oracle.self_s": self_s[
                "experiments.run_gaussian_oracle"
            ],
            "gauss.PathSampler.init_s": total["gauss.PathSampler.init"],
            "gauss.PathSampler.points": c["path_points"],
            "gauss.PathSampler.jitter": self.jitter,
            "gauss.PathSampler.draw.calls": calls["gauss.PathSampler.draw"],
            "gauss.PathSampler.draw.self_s": self_s["gauss.PathSampler.draw"],
            "gauss.PathSampler.draw.flops": c["flops"],
            "gauss.path_zero_counts.self_s": self_s["gauss.path_zero_counts"],
            "diagnostics.check_weight_inequalities.self_s": self_s[
                "diagnostics.check_weight_inequalities"
            ],
            "diagnostics.weights.self_s": self_s["diagnostics.weights"],
            "diagnostics.elements": c["elements"],
            "coeffs.variance_v.calls": calls["coeffs.variance_v"],
            "coeffs.variance_v.self_s": self_s["coeffs.variance_v"],
            "reports.self_s": self_s["reports"],
            "reports.bytes": c["report_bytes"],
            "cli.main.self_s": self_s["cli.main"],
            "trace.coverage": root_s / traced_wall_s,
        }


def _certified_minimum(seq, policy, K: int, targets: dict) -> int:
    """Smallest K' with a certified tail, found by bisecting on tail_bound.

    truncation_degree doubles K, so the answer lies in (K/2, K]; the tail
    bound is infinite below the certificate's start and decreasing after.
    """
    key = (seq, policy.r_max, policy.delta)
    if key not in targets:
        targets[key] = policy.delta**2 * seq.variance_v(policy.r_max, rel_tol=1e-13)
    target = targets[key]
    lo, hi = max(1, K // 2), K  # tail_bound(hi) <= target
    if lo == hi or seq.tail_bound(policy.r_max, lo) <= target:
        return lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if seq.tail_bound(policy.r_max, mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi
