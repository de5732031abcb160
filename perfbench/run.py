"""Benchmark launcher for softrt.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout.  Each repetition is a fresh interpreter
(perfbench/worker.py) with BLAS and OpenMP pinned to one thread, so lazy
imports land where a command-line user pays them.  Repetitions run until
--seconds have passed.  With --trace 0 the result carries the end-to-end
metrics of untraced repetitions.  With --trace 1 untraced and traced
repetitions alternate; the result carries the per-layer metrics of the
traced ones and the tracing overhead.  Every repetition checks its outputs.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracer import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("reserve_longrun", "overload_trace", "sweep_batch", "verdict_battery")
SIM_WORKLOADS = ("reserve_longrun", "overload_trace")

# (metric, unit, better)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "frac", "higher"),
]
# a run never starts a repetition that could end past this many seconds
RUN_LIMIT_S = 170.0
# setup_s is the median of at least this many set-ups
SETUP_SAMPLES = 9
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}


def tail(values):
    """Highest order statistic with at least ten samples beyond it."""
    xs = sorted(values)
    if len(xs) < 11:
        return None, None
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


def spawn(workload, seed, workdir, spans, timeout, setup_only=False):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PINNED_THREADS, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", workdir]
    if spans:
        cmd += ["--spans", spans]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("worker exited with code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description="softrt benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "softrt", "__init__.py")):
        print("run.py: no package source at %s; run from the root of a full checkout"
              % os.path.join(ROOT, "src", "softrt"), file=sys.stderr)
        return 2

    out_dir = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(out_dir, "work-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(os.path.join(out_dir, "spans"), exist_ok=True)
    reps = []  # (traced, result)
    setups = []  # setup_s of the set-up-only processes
    longest = 0.0
    start = time.perf_counter()
    try:
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            spans = None
            if traced:
                spans = os.path.join(out_dir, "spans", "%s-s%d-%d.json"
                                     % (args.workload, args.seed, len(reps)))
            t0 = time.perf_counter()
            reps.append((traced, spawn(args.workload, args.seed, workdir, spans,
                                       RUN_LIMIT_S - (t0 - start))))
            longest = max(longest, time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            # stop when the next repetition would end more than half of one
            # past --seconds, so a run lasts --seconds give or take half a rep
            enough = elapsed + elapsed / len(reps) / 2 >= args.seconds
            if (enough and (not args.trace or len(reps) >= 2)) \
                    or elapsed + 2 * longest > RUN_LIMIT_S:
                break
        # a workload with long repetitions gets its set-up samples topped up
        # by processes that stop after set-up
        if not args.trace:
            for _ in range(SETUP_SAMPLES - len(reps)):
                left = RUN_LIMIT_S - (time.perf_counter() - start)
                if left < 5:
                    break
                setups.append(spawn(args.workload, args.seed, workdir, None, left,
                                    setup_only=True)["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace and len(reps) < 2:
        print("run.py: no time left for a traced repetition", file=sys.stderr)
        return 1

    report(args, reps, setups)
    return 0


def report(args, reps, setups):
    plain = [r for traced, r in reps if not traced]
    traced = [r for t, r in reps if t]
    everything = [r for _, r in reps]
    med = lambda rs, key: statistics.median(r[key] for r in rs)

    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    degraded = sum(r["degraded"] for r in everything)
    digests = {r["digest"] for r in everything}
    notes = []
    for r in everything:
        notes += [n for n in r["notes"] if n not in notes]
    if len(digests) > 1:
        notes.append("outputs differ between repetitions of one seed: %s" % sorted(digests))
    correct = failed == 0 and len(digests) == 1

    run_times = [r["run_s"] for r in plain]
    e2e = {
        "setup_s": statistics.median([r["setup_s"] for r in plain] + setups),
        "run_s": statistics.median(run_times),
        "peak_rss_mb": med(plain, "peak_rss_mb"),
        "ok_frac": (attempted - failed - degraded) / attempted,
    }
    env = everything[0]["env"]
    print("softrt benchmark: workload %s, seed %d, %d repetitions (%d traced), "
          "%d set-up-only" % (args.workload, args.seed, len(reps), len(traced), len(setups)))
    print("environment: python %s, numpy %s, scipy %s, %s, nproc %s (affinity %s), %s"
          % (env["python"], env["numpy"], env["scipy"], env["machine"], env["nproc"],
             env["affinity"], " ".join("%s=%s" % kv for kv in env["threads"].items())))
    print("output checks: %s; %d of %d operations failed, %d degraded"
          % ("pass" if correct else "FAIL", failed, attempted, degraded))
    for n in notes:
        print("  note: " + n)
    units = {name: unit for name, unit, _ in END_TO_END}
    for name in ("setup_s", "run_s", "peak_rss_mb"):
        print("%-22s %12.6g %s" % (name, e2e[name], units[name]))
    print("%-22s %12.6g s" % ("cpu_s", med(plain, "cpu_s")))
    value, pct = tail(run_times)
    print("%-22s %s (n=%d)" % ("run_s tail", "n/a, fewer than 11 samples" if value is None
                               else "p%.0f %.6g s" % (pct, value), len(run_times)))
    ticks = everything[0]["ticks"]
    if args.workload in SIM_WORKLOADS:
        print("%-22s %12.6g 1/s" % ("ticks_per_s", ticks / e2e["run_s"]))
    print("%-22s %12.6g frac" % ("failed_frac", (failed + degraded) / attempted))
    print("%-22s %12.6g frac" % ("ok_frac", e2e["ok_frac"]))
    info = everything[0]["info"]
    if "sweep_csv_digest" in info:
        print("sweep CSV digest %s (information only)" % info["sweep_csv_digest"])
        for message in info["synth_failed_log"]:
            print("  degraded: " + message)
    if "mc_agreement" in info:
        print("%-22s %12.6g frac (%d tested cases)"
              % ("mc_agreement", info["mc_agreement"], info["tested"]))

    if args.trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["ticks_per_s"] = ticks / e2e["run_s"]
        layers["trace_overhead_frac"] = med(traced, "run_s") / e2e["run_s"] - 1.0
        missing = set(traced[0]["missing"])
        if args.workload not in SIM_WORKLOADS:
            missing.add("ticks_per_s")
        print("per-layer metrics (median of %d traced repetitions):" % len(traced))
        for name, unit, _ in LAYER_METRICS:
            shown = "missing" if name in missing else "%.6g %s" % (layers[name], unit)
            print("  %-34s %s" % (name, shown))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in LAYER_METRICS}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit, _ in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    sys.exit(main())
