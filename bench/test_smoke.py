"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_smoke.py

Not part of the tier-1 suite (pytest's testpaths is `tests`).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(root: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_reported_and_checks_pass(workload, trace, kind):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in SPEC[kind]}


def test_wrappers_removed_after_traced_run(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import taylorzeros
    from taylorzeros.coeffs import CoefficientSequence
    from taylorzeros.gauss import PathSampler
    from taylorzeros.sampling import SeriesSample
    from tracing import Tracer
    from workloads import WORKLOADS as classes

    owners = [getattr(taylorzeros, m) for m in
              ("cli", "coeffs", "diagnostics", "experiments", "gauss", "reports",
               "roots", "sampling")] + [CoefficientSequence, PathSampler, SeriesSample]
    before = [dict(vars(o)) for o in owners]
    for name in WORKLOADS:
        workload = classes[name](ROOT, 7, True, tmp_path / name)
        (tmp_path / name).mkdir()
        workload.setup()
        tracer = Tracer().install()
        try:
            assert tracer.patched()
            workload.run()
        finally:
            tracer.remove()
        assert tracer.spans and not tracer.patched()
        for owner, attrs in zip(owners, before):
            assert all(vars(owner)[k] is v for k, v in attrs.items()), owner


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
