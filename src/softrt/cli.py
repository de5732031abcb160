"""Command-line surface.

Subcommands: simulate, analyze, control-synth, chain, cosim, sweep, render.
Exit codes: 0 success, 2 configuration error (diagnostic names the field),
3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import sys

import numpy as np

from . import config as cfg
from .analysis import check_mn, miss_pattern, tardiness
from .controlcore import (ControllerLti, _half_kron, c2d, dlqr, kalman_gain, lqg_assemble,
                          spectral_radius)
from .errors import ConfigError, NumericalError
from .moc import MocKind, _discretiser, _mode_table, build_delay_chain, cosimulate
from .render import render_trace
from .simcore import Trace, simulate
from .sweep import bandwidth_sweep, sweep_to_csv

log = logging.getLogger(__name__)


def _write(text: str, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_trace(path: str, horizon=None) -> Trace:
    text = cfg._read_text(path, "trace")
    if text.startswith("tick,kind"):
        return Trace.from_csv(text, horizon)
    return Trace.from_jsonl(text, horizon)


def _jsonable(x):
    return x.tolist() if isinstance(x, (np.ndarray, np.generic)) else x


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
    trace = _read_trace(args.trace, args.horizon)
    constraints = cfg.parse_constraints(cfg.load_config(args.config)) \
        if args.config else {}
    for tid in constraints:
        if tid not in trace.task_ids:
            raise ConfigError("constraints[%d]: no such task in the trace" % tid)
    report = {}
    for tid in trace.task_ids:
        pattern = miss_pattern(trace, tid)
        entry = {
            "instances": len(pattern),
            "misses": int(sum(pattern)),
            "miss_events": trace.miss_count(tid),
            "tardiness": tardiness(trace, tid),
        }
        if tid in constraints:  # the result's fields: ok, violation, indeterminate
            entry["constraint"] = vars(check_mn(trace, tid, constraints[tid]))
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


def _lqr(doc, default_seconds: float):
    """The plant, its discretisation, the LQR gain K with its Riccati
    solution P, and the feedback control.feedback asks for: K (lqr) or the
    observer-based controller built on it (lqg)."""
    plant = cfg.parse_plant(doc)
    ctl = cfg.parse_control(doc)
    Ts = ctl["sample_seconds"] if ctl["sample_seconds"] is not None else default_seconds
    d = c2d(plant, Ts)
    n, p = d.A.shape[0], d.B.shape[1]
    Qx = ctl["Qx"] if ctl["Qx"] is not None else np.eye(n)
    Ru = ctl["Ru"] if ctl["Ru"] is not None else np.eye(p)
    with cfg._at({"weights": "control.weights"}):
        K, P = dlqr(d.A, d.B, Qx, Ru)
    feedback = K if ctl["feedback"] == "lqr" else lqg_assemble(d, K, kalman_gain(d.A, d.C))
    return plant, d, K, P, feedback


def cmd_control_synth(args) -> int:
    _, d, K, P, feedback = _lqr(cfg.load_config(args.config), 1.0)
    # tt_maxb's rows at the plant's own interval: a fresh command, or a drop
    labels, _, matrix = _mode_table(d, feedback, MocKind("tt_maxb"), 1, 1,
                                    _discretiser(d, d.sample_period))
    matrices = [matrix(0), matrix(1)]
    if args.format == "csv":
        # the second-moment operator at drop odds mu, (1 - mu) H_0 + mu H_1
        H0, H1 = map(_half_kron, matrices)
        lines = ["mu,rho"]
        for k in range(21):
            mu = k / 20
            lines.append("%.2f,%.9f" % (mu, spectral_radius((1 - mu) * H0 + mu * H1)))
        _write("\n".join(lines) + "\n", args.out)
    else:
        report = {
            "discrete": {"A": d.A, "B": d.B, "C": d.C, "D": d.D,
                         "sample_period": d.sample_period},
            "K": K, "P": P,
            "modes": {"labels": labels, "matrices": matrices},
        }
        if isinstance(feedback, ControllerLti):
            report["L"] = feedback.F
            report["controller"] = {"E": feedback.E, "F": feedback.F, "G": feedback.G}
        _write(_dump_json(report), args.out)
    return 0


def cmd_chain(args) -> int:
    p = cfg.parse_chain(cfg.load_config(args.config))
    with cfg._at_section("chain"):
        chain = build_delay_chain(**p)
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
    nominal = (m["T"] if m["T"] is not None else m["R"]) * m["tick_seconds"]
    plant, d, _, _, feedback = _lqr(doc, nominal)
    if not math.isclose(d.sample_period, nominal, rel_tol=1e-9):
        log.warning("cosim: the controller is designed for control.sample_seconds = %g s "
                    "but runs every (moc.T or moc.R) * moc.tick_seconds = %g s",
                    d.sample_period, nominal)
    with cfg._at_section("moc"), cfg._at({"K": "control.feedback"}):
        res = cosimulate(plant, feedback, seed=args.seed, **m)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``softrt`` parser, built once per process.

    Reusing it is safe: ``parse_args`` reads the parser without changing
    it and returns a fresh namespace filled from the defaults each call.
    """
    ap = argparse.ArgumentParser(prog="softrt",
                                 description="Reservation scheduling simulator "
                                             "and control co-design toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, fmt_choices=("csv", "json"), fmt_default="csv", seed=False):
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=fmt_choices, default=fmt_default)
        if seed:
            p.add_argument("--seed", type=int, default=0)

    def trace_file(p):
        p.add_argument("trace")
        p.add_argument("--horizon", type=int, help="override when the trace file "
                                                   "does not extend to the horizon")

    p = sub.add_parser("simulate", help="run a task set and emit the trace")
    p.add_argument("--config", required=True)
    common(p, seed=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="metrics report over a trace file")
    trace_file(p)
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
    p.add_argument("--seed", type=int, help="overrides sweep.seed (default 0)")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("render", help="ASCII or SVG schedule timeline")
    trace_file(p)
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
