"""Command-line surface.

Subcommands: simulate, analyze, control-synth, chain, cosim, sweep, render.
Exit codes: 0 success, 2 configuration error (diagnostic names the field),
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import config as cfg
from .analysis import check_mn, miss_pattern, tardiness
from .controlcore import (build_modes, c2d, dlqr, kalman_gain, lqg_assemble,
                          spectral_radius, stability_matrix)
from .errors import ConfigError, NumericalError
from .moc import build_delay_chain, cosimulate
from .render import render_trace
from .simcore import Trace, simulate
from .sweep import bandwidth_sweep, sweep_to_csv


def _write(text: str, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_trace(path: str, horizon=None) -> Trace:
    try:
        with open(path) as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigError("trace: file %r not found" % path)
    if text.startswith("tick,kind"):
        return Trace.from_csv(text, horizon)
    return Trace.from_jsonl(text, horizon)


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    return x


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=_jsonable) + "\n"


def cmd_simulate(args) -> int:
    doc = cfg.load_config(args.config)
    tasks = cfg.parse_tasks(doc)
    scheduler = cfg.parse_scheduler(doc)
    trace = simulate(tasks, scheduler, seed=args.seed)
    _write(trace.to_csv() if args.format == "csv" else trace.to_jsonl(), args.out)
    return 0


def cmd_analyze(args) -> int:
    trace = _read_trace(args.trace)
    constraints = cfg.parse_constraints(cfg.load_config(args.config)) \
        if args.config else {}
    report = {}
    for tid in trace.task_ids:
        pattern = miss_pattern(trace, tid)
        entry = {
            "instances": len(pattern),
            "misses": int(sum(pattern)),
            "miss_events": trace.miss_count(tid),
            "tardiness": tardiness(trace, tid),
        }
        if tid in constraints:
            res = check_mn(trace, tid, constraints[tid])
            entry["constraint"] = {
                "ok": res.ok,
                "violation": res.violation,
                "indeterminate": res.indeterminate,
            }
        report[str(tid)] = entry
    if args.format == "csv":
        lines = ["task,instances,misses,tardiness"]
        for tid in trace.task_ids:
            e = report[str(tid)]
            lines.append("%d,%d,%d,%d" % (tid, e["instances"], e["misses"],
                                          e["tardiness"]))
        _write("\n".join(lines) + "\n", args.out)
    else:
        _write(_dump_json({"tasks": report}), args.out)
    return 0


def _synthesize(doc):
    plant = cfg.parse_plant(doc)
    ctl = cfg.parse_control(doc)
    Ts = ctl["sample_seconds"] if ctl["sample_seconds"] is not None else 1.0
    d = c2d(plant, Ts)
    n, p = d.A.shape[0], d.B.shape[1]
    Qx = ctl["Qx"] if ctl["Qx"] is not None else np.eye(n)
    Ru = ctl["Ru"] if ctl["Ru"] is not None else np.eye(p)
    K, P = dlqr(d.A, d.B, Qx, Ru)
    L = controller = None
    if ctl["feedback"] == "lqg":
        L = kalman_gain(d.A, d.C)
        controller = lqg_assemble(d, K, L)
    return plant, d, K, P, L, controller


def cmd_control_synth(args) -> int:
    _, d, K, P, L, controller = _synthesize(cfg.load_config(args.config))
    modes = build_modes(d, controller if controller is not None else K)
    if args.format == "csv":
        lines = ["mu,rho"]
        for k in range(21):
            mu = k / 20
            rho = spectral_radius(stability_matrix(
                modes.with_probabilities([1 - mu, mu])))
            lines.append("%.2f,%.9f" % (mu, rho))
        _write("\n".join(lines) + "\n", args.out)
    else:
        report = {
            "discrete": {"A": d.A, "B": d.B, "C": d.C, "D": d.D,
                         "sample_period": d.sample_period},
            "K": K, "P": P,
            "modes": {"labels": modes.labels, "matrices": modes.matrices},
        }
        if L is not None:
            report["L"] = L
            report["controller"] = {"E": controller.E, "F": controller.F,
                                    "G": controller.G}
        _write(_dump_json(report), args.out)
    return 0


def cmd_chain(args) -> int:
    p = cfg.parse_chain(cfg.load_config(args.config))
    chain = build_delay_chain(p["exec_model"], p["Q"], p["R"], p["T"], p["d_max"])
    if args.format == "csv":
        n = chain.n_states
        lines = ["state,steady," + ",".join("to_%d" % j for j in range(n))]
        for d in range(n):
            lines.append("%d,%.12f," % (d, chain.steady[d]) +
                         ",".join("%.12f" % x for x in chain.transition[d]))
        _write("\n".join(lines) + "\n", args.out)
    else:
        _write(_dump_json({"transition": chain.transition,
                           "steady": chain.steady}), args.out)
    return 0


def cmd_cosim(args) -> int:
    doc = cfg.load_config(args.config)
    m = cfg.parse_moc(doc)
    plant = cfg.parse_plant(doc)
    ctl = cfg.parse_control(doc)
    nominal = (m["T"] if m["T"] is not None else m["R"]) * m["tick_seconds"]
    Ts = ctl["sample_seconds"] if ctl["sample_seconds"] is not None else nominal
    d = c2d(plant, Ts)
    n, p = d.A.shape[0], d.B.shape[1]
    Qx = ctl["Qx"] if ctl["Qx"] is not None else np.eye(n)
    Ru = ctl["Ru"] if ctl["Ru"] is not None else np.eye(p)
    K, _ = dlqr(d.A, d.B, Qx, Ru)
    res = cosimulate(plant, K, m["moc"], m["exec_model"], m["Q"], m["R"], m["T"],
                     tick_seconds=m["tick_seconds"], horizon=m["horizon"],
                     n_traj=m["n_traj"], seed=args.seed)
    if args.format == "csv":
        lines = ["step,second_moment"]
        for k, v in enumerate(res.estimates):
            lines.append("%d,%.9g" % (k, v))
        _write("\n".join(lines) + "\n", args.out)
    else:
        _write(_dump_json({"verdict": res.verdict, "n_traj": res.n_traj,
                           "estimates": res.estimates}), args.out)
    return 0


def cmd_sweep(args) -> int:
    doc = cfg.load_config(args.config) if args.config else {}
    sweep = cfg.parse_sweep(doc, seed=args.seed)
    rows = bandwidth_sweep(sweep)
    if args.format == "json":
        _write(_dump_json(rows), args.out)
    else:
        _write(sweep_to_csv(rows), args.out)
    return 0


def cmd_render(args) -> int:
    trace = _read_trace(args.trace, args.horizon)
    _write(render_trace(trace, args.format), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="softrt",
                                 description="Reservation scheduling simulator "
                                             "and control co-design toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, fmt_choices=("csv", "json"), fmt_default="csv", seed=False):
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=fmt_choices, default=fmt_default)
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("simulate", help="run a task set and emit the trace")
    p.add_argument("--config", required=True)
    common(p, seed=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="metrics report over a trace file")
    p.add_argument("trace")
    p.add_argument("--config", help="optional constraints section")
    common(p, fmt_default="json")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("control-synth", help="discretize and synthesize gains")
    p.add_argument("--config", required=True)
    common(p, fmt_default="json")
    p.set_defaults(func=cmd_control_synth)

    p = sub.add_parser("chain", help="delay Markov chain and steady state")
    p.add_argument("--config", required=True)
    common(p)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("cosim", help="Monte Carlo second-moment run")
    p.add_argument("--config", required=True)
    common(p, seed=True)
    p.set_defaults(func=cmd_cosim)

    p = sub.add_parser("sweep", help="bandwidth vs stabilized-fraction table")
    p.add_argument("--config")
    common(p, seed=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("render", help="ASCII or SVG schedule timeline")
    p.add_argument("trace")
    p.add_argument("--horizon", type=int, help="override when the trace file "
                                               "does not extend to the horizon")
    common(p, fmt_choices=("ascii", "svg"), fmt_default="ascii")
    p.set_defaults(func=cmd_render)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except NumericalError as exc:
        print("numerical error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
