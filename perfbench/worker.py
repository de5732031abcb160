"""One repetition of one workload, in a fresh interpreter.

Started by run.py, never imported.  Times ``import softrt`` plus the input
build (set-up), then the workload body (the timed region), reads the
process's peak resident set, checks the outputs and prints one JSON line.
With --setup-only it stops after set-up.
With --spans the timed region runs under the tracer and the spans are
written to that path at the end.
"""

import argparse
import contextlib
import functools
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="trace the timed region, write spans here")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up and print only setup_s")
    args = ap.parse_args()

    sys.path[:0] = [SRC, HERE]
    t0 = time.perf_counter()
    import softrt
    if os.path.dirname(os.path.abspath(softrt.__file__)) != os.path.join(SRC, "softrt"):
        sys.exit("worker: imported softrt from %s, not from %s" % (softrt.__file__, SRC))

    import numpy
    import scipy

    import tracer as tracing
    import workloads

    build, run, check = workloads.WORKLOADS[args.workload]
    inputs = build(args.seed, args.workdir)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    tr = None
    op_span = contextlib.nullcontext
    if args.spans:
        tr = tracing.Tracer()
        tr.install()
        op_span = functools.partial(tr.span, "bench." + args.workload)
        tr.active = True
    t1, c1 = time.perf_counter(), time.process_time()
    outputs = run(inputs, op_span)
    run_s, cpu_s = time.perf_counter() - t1, time.process_time() - c1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tr is not None:
        tr.active = False

    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)
    checked = check(args.seed, inputs, outputs, golden)
    result = {
        "setup_s": setup_s, "run_s": run_s, "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb, "attempted": checked.attempted,
        "failed": checked.failed, "degraded": checked.degraded,
        "ticks": checked.ticks, "digest": checked.output_digest, "notes": checked.notes,
        "info": checked.info,
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "scipy": scipy.__version__, "machine": platform.machine(),
                "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                "threads": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS")}},
    }
    if tr is not None:
        layers, missing = tracing.layer_metrics(tr, checked.info)
        result.update(layers=layers, missing=missing, missing_spans=tr.missing())
        tr.dump(args.spans, {"workload": args.workload, "seed": args.seed,
                             "layers": layers, "missing_metrics": missing})
    print(json.dumps(result))


if __name__ == "__main__":
    main()
