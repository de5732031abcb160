"""Self-test of the benchmark's own checks and tracer.

    python3 perfbench/selftest.py

Feeds each workload's output check a clean output and a corrupted one and
requires the corruption to be counted as failed operations; checks that
the tracer's self times subtract child spans and that a wrapped name that
never fires is reported missing; and checks that BENCHMARK.json lists the
metrics the launcher prints.  Exits non-zero on the first broken check.
"""

import contextlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402
from softrt.simcore import Event  # noqa: E402


def expect(cond, what):
    if not cond:
        sys.exit("selftest FAIL: " + what)
    print("ok   " + what)


def golden():
    with open(os.path.join(HERE, "golden.json")) as fh:
        return json.load(fh)


def check_reserve(workdir):
    cases = wl.build_reserve(0, workdir)
    out = wl.run_reserve(cases, contextlib.nullcontext)
    expect(wl.check_reserve(0, cases, out, golden()).failed == 0,
           "reserve_longrun: clean output passes")
    tr = out[0]
    tr.events.append(Event(tr.horizon, "deadline_miss", 1, {"job": 0}))
    expect(wl.check_reserve(0, cases, out, golden()).failed >= 1,
           "reserve_longrun: an extra miss event fails the digest")
    tr.events.extend(Event(tr.horizon, "deadline_miss", 1, {"job": 0}) for _ in range(500))
    got = wl.check_reserve(0, cases, out, {})
    expect(got.failed == 1 and any("criterion-6 law" in n for n in got.notes),
           "reserve_longrun: 500 extra misses break criterion 6's law without digests")
    out[0] = wl.OpError("boom")
    expect(wl.check_reserve(0, cases, out, {}).failed >= 1,
           "reserve_longrun: a raised operation counts as failed")


def check_overload(workdir):
    cases = wl.build_overload(0, workdir)
    out = wl.run_overload(cases, contextlib.nullcontext)
    expect(wl.check_overload(0, cases, out, golden()).failed == 0,
           "overload_trace: clean output passes")
    with open(cases[3].trace_path) as fh:
        lines = fh.read().splitlines(keepends=True)
    with open(cases[3].trace_path, "w") as fh:
        fh.writelines(lines[:1] + lines[2:])
    got = wl.check_overload(0, cases, out, golden())
    expect(got.failed == 1, "overload_trace: a dropped trace row fails one operation")
    out[5] = (3, None)
    expect(wl.check_overload(0, cases, out, {}).failed == 1,
           "overload_trace: a non-zero CLI exit counts as failed")


def check_sweep():
    config = wl.SweepConfig(n_systems=4, seed=0, grid=(0.4, 1.0))
    messages = ["system 2: synthesis failed, counted unstabilized (x)"]

    def rows(fraction=0.5, hard_full=0.75):
        return [{"bandwidth": b, "moc": m,
                 "fraction_stabilized": (hard_full if b == 1.0 else 0.0)
                 if m == "tt_hard" else fraction}
                for b in config.grid for m in config.mocs]

    clean = wl.check_sweep(0, config, [(rows(), messages)], {})
    expect(clean.failed == 0 and clean.degraded == 1,
           "sweep_batch: consistent rows pass, the synthesis failure is degraded")
    expect(wl.check_sweep(0, config, [(rows(fraction=1.5), messages)], {}).failed
           == config.n_systems, "sweep_batch: a fraction above 1 fails the batch")
    expect(wl.check_sweep(0, config, [(rows(hard_full=1.0), messages)], {}).failed
           == config.n_systems, "sweep_batch: tt_hard off its closed form fails")
    expect(wl.check_sweep(0, config, [(rows()[1:], messages)], {}).failed
           == config.n_systems, "sweep_batch: a missing row fails the batch")


def check_verdict():
    cases = [wl.VerdictCase(i, [], None, (0, 0)) for i in range(3)]

    def case(analytic, mc, rho=0.5):
        return {"redraws": 0, "rho": rho, "analytic": analytic, "mc": mc,
                "cs_analytic": "stable", "cs_mc": "stable", "chain_steady": [0.5, 0.5]}

    clean = [case("stable", "stable"), case("unstable", "inconclusive", 2.0),
             case("unstable", "unstable", 2.0)]
    got = wl.check_verdict(0, cases, clean, {})
    expect(got.failed == 0 and got.info["mc_agreement"] == 2 / 3,
           "verdict_battery: agreeing verdicts pass, inconclusive lowers agreement")
    bad = clean[:2] + [case("unstable", "stable", 2.0)]
    expect(wl.check_verdict(0, cases, bad, {}).failed == 1,
           "verdict_battery: a tt_maxb contradiction outside the band fails")


def check_tracer():
    tr = tracer.Tracer()
    inner = tr.wrap("inner", lambda: time.sleep(0.02), hot=True)

    def body():
        inner()
        time.sleep(0.01)

    outer = tr.wrap("outer", body, hot=False)
    tr.wrapped.update({"inner", "outer", "never"})
    tr.active = True
    outer()
    outer()
    tr.active = False
    expect(tr.calls("inner") == 2 and tr.agg[("inner", "outer")][0] == 2,
           "tracer: hot calls aggregate per (name, parent)")
    expect(abs(tr.self_time("outer") - (tr.total("outer") - tr.total("inner"))) < 1e-9,
           "tracer: self time is duration minus child spans")
    expect(len(tr.spans) == 2, "tracer: only non-hot calls keep individual spans")
    expect(tr.missing() == ["never"], "tracer: a wrapped name that never fired is missing")


def check_manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    listed = lambda key: [(m["name"], m["unit"], m["better"]) for m in doc[key]]
    expect(listed("end_to_end") == run.END_TO_END,
           "BENCHMARK.json end_to_end matches the launcher")
    expect(listed("per_layer") == tracer.LAYER_METRICS,
           "BENCHMARK.json per_layer matches the tracer")
    expect({w["name"] for w in doc["workloads"]} <= set(run.WORKLOADS),
           "BENCHMARK.json workloads are launcher workloads")


def main():
    workdir = os.path.join(ROOT, ".perfbench", "selftest")
    os.makedirs(workdir, exist_ok=True)
    check_manifest()
    check_tracer()
    check_sweep()
    check_verdict()
    check_reserve(workdir)
    check_overload(workdir)
    print("selftest PASS")


if __name__ == "__main__":
    main()
