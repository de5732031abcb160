"""Record the per-operation output digests that the benchmark checks against.

    python3 perfbench/make_golden.py

Runs reserve_longrun and overload_trace for seeds 0..GOLDEN_SEEDS-1 and writes
perfbench/golden.json.  The package's traces are meant to stay
byte-identical across performance work, so these digests are recorded once
and a run whose trace differs counts the operation as failed.  Rerun this
only for a documented change to the traces, never to make a run pass.
"""

import contextlib
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RECORDED = ("reserve_longrun", "overload_trace")
GOLDEN_SEEDS = 100


def main():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads

    workdir = os.path.join(ROOT, ".perfbench", "golden-work")
    os.makedirs(workdir, exist_ok=True)
    golden = {name: {} for name in RECORDED}
    try:
        for seed in range(GOLDEN_SEEDS):
            for name in RECORDED:
                build, run, check = workloads.WORKLOADS[name]
                inputs = build(seed, workdir)
                checked = check(seed, inputs, run(inputs, contextlib.nullcontext), {})
                if checked.failed:
                    print("%s seed %d fails its checks: %s" % (name, seed, checked.notes))
                golden[name][str(seed)] = checked.op_digests
            print("seed", seed, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # one line per seed keeps the file diffable
    blocks = []
    for name in RECORDED:
        rows = ",\n".join("  %s: %s" % (json.dumps(seed), json.dumps(d))
                          for seed, d in golden[name].items())
        blocks.append(" %s: {\n%s\n }" % (json.dumps(name), rows))
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    main()
