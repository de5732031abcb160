"""Record a point of the performance trajectory.

    python3 perfbench/record.py --label NAME [--seeds 1-10] [--workloads a,b]

For each workload, runs the launcher once per seed with --trace 0 and once
(first seed) with --trace 1, then writes perfbench/trajectory/NAME.json:
per end-to-end metric the ten values, their median, quartiles and the
quartile spread as a share of the median (the figure the benchmark gate
bounds), plus the traced per-layer metrics.  It prints the spread table.
A later change quotes its delta against the file of its parent commit.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def launch(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                           workload, "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)], cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit("run.py failed for %s seed %d:\n%s" % (workload, seed, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=list(range(1, 11)))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    doc = {"label": args.label, "run_seconds": seconds, "seeds": args.seeds,
           "cpu_model": cpu_model(), "workloads": {}}
    for workload in args.workloads.split(","):
        values, correct, report = {}, True, None
        for seed in args.seeds:
            result, report = launch(workload, seed, seconds, 0)
            correct &= result["correct"] and result["failed"] == 0
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())),
                flush=True)
        entry = {"correct": correct, "environment": report[1], "end_to_end": {}}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            spread = (q3 - q1) / med if med else 0.0
            entry["end_to_end"][name] = {"median": med, "q1": q1, "q3": q3, "n": len(vals),
                                         "spread": spread, "values": vals}
            print("  %-12s median %-10.5g spread %.4f (bound %.2f, target < %.4f)"
                  % (name, med, spread, bounds[name], bounds[name] / 3), flush=True)
        traced, _ = launch(workload, args.seeds[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        doc["workloads"][workload] = entry

    out_dir = os.path.join(HERE, "trajectory")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, args.label + ".json"), "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
