"""kobex benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload scenarios|point-queries|batch-sweep \\
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds src/kobex.  The workload runs
in a fresh worker process with the OpenMP/OpenBLAS/MKL thread counts pinned
to 1; set-up is repeated in further fresh processes and its median is
reported.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones (see README.md).
The line before it records the run: seed, commit, versions, machine, the
workload's input sizes, the uncalibrated wall times and the known-defect
probes.  Times in the metrics are calibrated to a nominal machine speed
(calibration.py).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
END_TO_END_UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
SETUP_RUNS = 5           # fresh processes timed for setup_s, the worker included
SETUP_REFERENCES = 5     # reference-work runs before each set-up, for its calibration
WINDOW_S = 1.0           # an operation's reference time is the median over the
#                          operations within WINDOW_S of it, in kobex time
DEADLINE_S = 170.0       # the whole run, set-up processes included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class RunError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(args, deadline):
    """Run the worker to completion; returns (spawn time, the median
    reference time just before it, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    reference = statistics.median(calibration.reference_s() for _ in range(SETUP_REFERENCES))
    started = time.time()
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=str(ROOT), stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError("worker %s timed out" % " ".join(args))
    lines = proc.stdout.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError("worker %s exited with code %d" % (" ".join(args), proc.returncode))
    return started, reference, json.loads(lines[-1])


def percentile(values, q):
    """Linear interpolation between the closest ranks (numpy's default)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_commit():
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), env=env,
                             timeout=10, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.decode().strip() if out.returncode == 0 else "unknown"


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def cache(level):
        try:
            size = (Path("/sys/devices/system/cpu/cpu0/cache") / ("index%d" % level)
                    / "size").read_text().strip()
        except OSError:
            return "unknown"
        return size
    return {"nproc": os.cpu_count(), "cpu": model, "l2": cache(2), "l3": cache(3)}


def calibrate(passes):
    """Each operation's latency, calibrated with the median reference time
    of the operations whose midpoints lie within WINDOW_S of its own, on
    the clock of summed latencies (failed operations have none).  A long
    operation is calibrated by its own reference time alone; a short one
    by those of its neighbours too, which evens out the reference's noise."""
    mids, clock = [], 0.0
    for p in passes:
        for op in p:
            mids.append((clock + 0.5 * op["latency"], op["reference"]))
            clock += op["latency"]
    out, k = [], 0
    for p in passes:
        row = []
        for op in p:
            mid = mids[k][0]
            k += 1
            near = [ref for m, ref in mids if ref > 0 and abs(m - mid) <= WINDOW_S]
            row.append(calibration.calibrated(op["latency"], statistics.median(near))
                       if op["reference"] > 0 else 0.0)
        out.append(row)
    return out


def end_to_end(result, setup_samples):
    passes = result["passes"]
    ops = [op for p in passes for op in p]
    # Every pass runs the same operations, so each operation's latency is
    # its median over the passes (a slow spell of the machine during one
    # pass does not move it), and a pass takes the sum of those.
    def medians(rows):
        return [statistics.median(r[i] for r in rows) for i in range(len(rows[0]))]
    latencies = [t for t in medians(calibrate(passes)) if t > 0]
    pass_s = sum(latencies)
    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    values = {
        "setup_s": statistics.median(
            calibration.calibrated(s, ref) for s, ref in setup_samples),
        "pass_s": pass_s,
        "query_p50_ms": 1e3 * percentile(latencies, 50),
        "query_p90_ms": 1e3 * percentile(latencies, 90),
        "rows_per_s": sum(op["rows"] for op in passes[0]) / pass_s,
        "ok_frac": 1.0 - failed / attempted,
        "rss_peak_mb": result["rss_peak_mb"],
    }
    p90 = values["query_p90_ms"] / 1e3
    walls = [[op["latency"] for op in p] for p in passes]
    samples = {"passes": len(passes), "operations": len(latencies),
               "beyond_p90": sum(1 for x in latencies if x > p90),
               "setup_wall_s": [s for s, _ in setup_samples],
               "setup_reference_s": [ref for _, ref in setup_samples],
               "pass_wall_s": sum(medians(walls)),
               "reference_median_s": statistics.median(op["reference"] for op in ops)}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, samples


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "kobex" / "__init__.py").is_file():
        print("error: no kobex sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    setup_samples = []
    for _ in range(SETUP_REFERENCES):      # warm-up of the reference work
        calibration.reference_s()
    for _ in range(SETUP_RUNS - 1):
        started, reference, res = spawn(common + ["--setup-only"], deadline)
        setup_samples.append((res["ready"] - started, reference))
    started, reference, result = spawn(common + (["--trace"] if args.trace else []), deadline)
    setup_samples.append((result["ready"] - started, reference))

    ops = [op for p in result["passes"] for op in p]
    failed_ops = [op for op in ops if op["failed"]]
    for op in failed_ops:
        print("FAILED %s: %s" % (op["kind"], op["detail"]), file=sys.stderr)
    probes = {}
    for defect, outcome, detail in result["probes"]:
        counts = probes.setdefault(defect, {"probes": 0, "reproduced": 0, "fixed": 0,
                                            "unexpected": 0})
        counts["probes"] += 1
        counts[outcome] += 1
        if outcome != "fixed":
            print("%s probe (%s): %s" % (defect, outcome, detail), file=sys.stderr)
    unexpected = sum(c["unexpected"] for c in probes.values())
    if args.trace:
        metrics = {k: {"value": v, "unit": layers.METRICS[k]}
                   for k, v in result["layers"].items()}
        samples = {"passes": len(result["passes"])}
    else:
        metrics, samples = end_to_end(result, setup_samples)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "commit": git_commit(), "python": platform.python_version(),
              "numpy": result["versions"]["numpy"], "scipy": result["versions"]["scipy"],
              **machine(), "inputs": result["describe"], **samples,
              "known_defect_probes": probes}
    print(json.dumps({"run": record}))
    print(json.dumps({"correct": not failed_ops and not unexpected,
                      "attempted": sum(op["attempted"] for op in ops),
                      "failed": sum(op["failed"] for op in ops),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RunError as exc:
        print("error: %s" % exc, file=sys.stderr)
        sys.exit(1)
