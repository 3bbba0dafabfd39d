"""One workload run in a fresh interpreter; started by run.py, not by hand.

Imports taylorzeros, builds the workload's inputs, runs it once (traced or
not), checks the outputs, and writes a JSON result file. Set-up time is
measured by the parent from process start to the `ready` stamp, so it
covers interpreter start, imports and input building.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    root = Path(__file__).resolve().parent.parent

    import taylorzeros
    from workloads import WORKLOADS

    src = (root / "src").resolve()
    if src not in Path(taylorzeros.__file__).resolve().parents:
        print(f"taylorzeros imported from {taylorzeros.__file__}, not {src}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](root, args.seed, args.smoke, Path(args.workdir))
    workload.setup()
    ready = time.monotonic()
    if args.setup_only:
        Path(args.result).write_text(json.dumps({"ready": ready}))
        return 0
    cpu0 = time.process_time()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer().install()
    try:
        workload.run()
    finally:
        if tracer is not None:
            tracer.remove()
    done = time.monotonic()
    cpu_s = time.process_time() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks, digests = workload.check()
    result = {
        "ready": ready,
        "wall_s": done - ready,
        "cpu_s": cpu_s,
        "trials": workload.trial_count(),
        "peak_rss_mb": rss_mb,
        "checks": checks,
        "digests": digests,
    }
    if tracer is not None:
        layers = tracer.layer_metrics(done - ready)
        speedup = getattr(workload, "jobs2_speedup", None)
        layers["experiments.jobs2_speedup"] = speedup() if speedup else 0.0
        result["layers"] = layers
        result["spans"] = tracer.span_table()
        result["wrappers_left"] = len(tracer.patched())
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
