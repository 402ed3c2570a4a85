"""One workload in one fresh process (started by run.py).

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--trace] [--setup-only]

Prints one JSON object on its last stdout line.  With --setup-only it
stops after set-up (import kobex, build the inputs) and reports when set-up
ended.  Otherwise it runs passes of the workload in a closed loop, one
operation at a time: untraced until --seconds is spent (at least the
workload's minimum number of passes), or, with --trace, one untraced pass
followed by one traced pass.  Then it runs the workload's known-defect
probes, if it has any, once and untraced.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"


def setup(workload, seed, tracer_factory=None):
    """Import kobex and build the workload; returns (workload, import_s, tracer)."""
    t0 = time.perf_counter()
    import kobex
    import kobex.cli
    import kobex.scenarios
    import_s = time.perf_counter() - t0
    src = (ROOT / "src").resolve()
    if src not in Path(kobex.__file__).resolve().parents:
        raise SystemExit("kobex imported from %s, not from %s" % (kobex.__file__, src))
    import workloads

    tracer = None
    if tracer_factory is not None:
        tracer = tracer_factory()
        tracer.install()
    if workload == "scenarios":
        w = workloads.Scenarios(kobex, seed)
    elif workload == "point-queries":
        OUT_DIR.mkdir(exist_ok=True)
        w = workloads.PointQueries(kobex, seed, OUT_DIR)
        w.build()
    else:
        w = workloads.BatchSweep(kobex, seed)
        w.build()
    return w, import_s, tracer


def measure(w, seconds):
    """Closed loop: whole passes until the next one would end past the
    deadline, never fewer than the workload's minimum."""
    passes = []
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(w.run_pass())
        last = time.perf_counter() - t0
        if len(passes) >= w.min_passes and time.perf_counter() - begin + last > seconds:
            return passes


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["scenarios", "point-queries", "batch-sweep"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    factory = None
    if args.trace:
        from spans import Tracer
        factory = Tracer
    w, import_s, tracer = setup(args.workload, args.seed, factory)
    ready = time.time()
    result = {"ready": ready, "import_s": import_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if tracer is None:
        passes = measure(w, args.seconds)
    else:
        tracer.uninstall()
        untraced = w.run_pass()
        untraced_scenario_s = dict(getattr(w, "last_pass", {}))
        tracer.install()
        traced = w.run_pass(tracer=tracer)
        tracer.uninstall()
        program_s = [sum(op.latency for op in ops) for ops in (untraced, traced)]
        if hasattr(w, "trace_gates"):
            traced += w.trace_gates(tracer)
        passes = [untraced, traced]
        import layers
        result["layers"] = layers.per_layer(tracer, import_s, *program_s,
                                            untraced_scenario_s)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(str(OUT_DIR / ("spans-%s-seed%d.json" % (args.workload, args.seed))))

    result["probes"] = w.run_probes() if hasattr(w, "run_probes") else []
    import numpy
    import scipy
    result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    result["describe"] = w.describe()
    result["passes"] = [[op.__dict__ for op in ops] for ops in passes]
    result["rss_peak_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
