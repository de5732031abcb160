"""The four benchmark workloads: seeded inputs, timed bodies, output checks.

Each workload has three functions:

* ``build(seed, workdir)`` makes the inputs from the seed (part of set-up);
* ``run(inputs, op_span)`` drives the package through its public functions
  and returns the raw outputs, one per operation (the timed region);
* ``check(seed, inputs, outputs, golden)`` validates the outputs and counts
  the failed operations; it runs after the timed region.

Inputs are drawn from the benchmark's own random streams, keyed by the
workload seed, so a change to the package's seeding helpers cannot change
what the package is asked to do.  The two control workloads pin the plants
that expose a known synthesis failure (see README.md): a Riccati failure
costs seconds, so letting the seed decide how many of them a repetition
holds would make the run time a lottery across seeds.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import statistics
import traceback
from dataclasses import dataclass, field

import numpy as np

import softrt
import softrt.cli
from softrt.analysis import dropout_probability
from softrt.controlcore import ContinuousLti
from softrt.errors import NumericalError
from softrt.moc import MocKind
from softrt.simcore import SchedulerConfig, Trace
from softrt.sweep import SweepConfig, random_system, sweep_to_csv
from softrt.taskmodel import Empirical, ReservationSpec, TaskSpec, derived_seed


def _rng(*parts):
    key = "/".join(str(p) for p in ("perfbench",) + parts).encode()
    return np.random.default_rng(int.from_bytes(hashlib.sha256(key).digest()[:8], "big"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class OpError:
    """An operation that raised; the traceback goes to the report."""

    text: str


def _guard(fn, *args):
    try:
        return fn(*args)
    except Exception:  # an operation boundary: record, count, carry on
        return OpError(traceback.format_exc())


@dataclass
class Checked:
    attempted: int
    failed: int = 0
    # operations the package completed but reported as degraded; today only
    # plants whose synthesis failed and were counted unstabilized
    degraded: int = 0
    ticks: int = 0
    op_digests: list = field(default_factory=list)  # None where an op failed
    notes: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def fail(self, n, note):
        self.failed = min(self.attempted, self.failed + n)
        self.notes.append(note)

    @property
    def output_digest(self):
        """One digest of every operation's output, to compare repetitions."""
        return digest(",".join(str(d) for d in self.op_digests))


def _golden_digests(golden, workload, seed, checked):
    """Compare per-operation digests with the ones recorded for this seed."""
    got = checked.op_digests
    want = golden.get(workload, {}).get(str(seed))
    if want is None:
        checked.notes.append("no recorded digests for seed %s; determinism "
                             "across repetitions is still checked" % seed)
        return
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if g is not None and g != w]
    if len(got) != len(want):
        checked.fail(checked.attempted, "digest count %d != recorded %d"
                     % (len(got), len(want)))
    elif bad:
        checked.fail(len(bad), "trace digest differs from the recorded one "
                               "for operations %s" % bad)


# ---------------------------------------------------------------------------
# reserve_longrun: criterion-6 shape, long horizons, sparse events

# every (Q, R, F) the criterion-6 battery can draw: budget Q per server
# period R, task period T = F * R <= 4; all shapes in every repetition keep
# the work per repetition independent of the seed
RESERVE_SHAPES = ((1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (2, 2, 1),
                  (2, 2, 2), (2, 3, 1), (3, 3, 1), (3, 4, 1))
RESERVE_JOBS = 4000
# criterion 6's law is a 3-SE test; split its two-sided false-alarm rate
# over the configs (Bonferroni) so a seed's batch fails it as rarely as one
# 3-SE test would
RESERVE_Z = statistics.NormalDist().inv_cdf(
    1 - 2 * statistics.NormalDist().cdf(-3.0) / 2 / len(RESERVE_SHAPES))


@dataclass
class ReserveCase:
    tasks: list
    scheduler: SchedulerConfig
    sim_seed: int


def build_reserve(seed, workdir):
    cases = []
    for i, (Q, R, F) in enumerate(RESERVE_SHAPES):
        rng = _rng("reserve", seed, i)
        T = F * R
        vals = tuple(int(v) for v in
                     rng.integers(1, Q * F + 3, size=int(rng.integers(2, 7))))
        task = TaskSpec(id=1, wcet=max(vals), rel_deadline=T, period=T,
                        miss_policy="abort", exec_model=Empirical(vals))
        scheduler = SchedulerConfig(
            kind="cbs_edf", horizon=RESERVE_JOBS * T,
            reservations={1: ReservationSpec(budget=Q, period=R,
                                             variant="hard_suspend")},
            collect=frozenset({"deadline_miss"}))
        cases.append(ReserveCase([task], scheduler, 16 * seed + i))
    return cases


def run_reserve(cases, op_span):
    out = []
    for c in cases:
        with op_span():
            out.append(_guard(softrt.simcore.simulate, c.tasks, c.scheduler, c.sim_seed))
    return out


def check_reserve(seed, cases, outputs, golden):
    ch = Checked(attempted=len(cases), ticks=sum(c.scheduler.horizon for c in cases))
    for i, (c, tr) in enumerate(zip(cases, outputs)):
        if isinstance(tr, OpError):
            ch.fail(1, "operation %d raised:\n%s" % (i, tr.text))
            ch.op_digests.append(None)
            continue
        ch.op_digests.append(digest(tr.to_csv()))
        # criterion-6 law: each job drops independently with probability
        # mu, so the config's miss count lies within RESERVE_Z SE of its mean
        task, res = c.tasks[0], c.scheduler.reservations[1]
        mu = float(dropout_probability(task.exec_model, res.budget, res.period, task.period))
        misses = sum(e.kind == "deadline_miss" for e in tr.events)
        se = math.sqrt(RESERVE_JOBS * mu * (1 - mu))
        if abs(misses - RESERVE_JOBS * mu) > RESERVE_Z * se + 1e-9:
            ch.fail(1, "operation %d: criterion-6 law: %d misses, expected %.1f +- %.1f"
                    % (i, misses, RESERVE_JOBS * mu, RESERVE_Z * se))
    _golden_digests(golden, "reserve_longrun", seed, ch)
    return ch


# ---------------------------------------------------------------------------
# overload_trace: dense task sets through the CLI, full trace, analysis

OVERLOAD_KINDS = ("edf", "fixed_priority", "cbs_soft", "cbs_hard", "cbs_grub")
# seeded permutations of fixed period sets keep the job count per
# repetition independent of the seed
OVERLOAD_PERIODS = ((4, 6, 10), (5, 6, 8, 12))
OVERLOAD_UTIL = 1.2  # nominal load: a transient overload throughout
OVERLOAD_HORIZON = 2400


def _exec_model(rng, mean):
    w = float(rng.uniform(0.3, 0.8))
    lo, hi = mean * (1 - w), mean * (1 + w)
    kind = ("uniform", "beta", "empirical")[int(rng.integers(0, 3))]
    if kind == "uniform":
        return {"kind": "uniform", "lo": lo, "hi": hi}, hi
    if kind == "beta":
        return {"kind": "beta", "alpha": 2.0, "beta": 2.0, "lo": lo, "hi": hi}, hi
    vals = [int(v) for v in rng.integers(max(1, round(lo)), round(hi) + 1, size=5)]
    return {"kind": "empirical", "values": vals}, max(vals)


@dataclass
class OverloadCase:
    config_path: str
    trace_path: str
    report_path: str
    sim_seed: int
    task_ids: list


def build_overload(seed, workdir):
    cases = []
    for i, kind in enumerate(OVERLOAD_KINDS):
        for j, periods in enumerate(OVERLOAD_PERIODS):
            rng = _rng("overload", seed, i, j)
            periods = [int(p) for p in rng.permutation(periods)]
            tasks, constraints = [], {}
            for tid, p in enumerate(periods, start=1):
                model, worst = _exec_model(rng, OVERLOAD_UTIL / len(periods) * p)
                tasks.append({"id": tid, "wcet": max(1, math.ceil(worst)),
                              "rel_deadline": p, "period": p, "exec_model": model,
                              "miss_policy": ("continue", "abort", "skip_late")[
                                  int(rng.integers(0, 3))]})
                constraints[str(tid)] = {"m": int(rng.integers(1, 4)), "n": 10,
                                         "conjunction": [[1, 2]]}
            doc = {"tasks": tasks, "constraints": constraints,
                   "scheduler": {"kind": "cbs_edf" if kind.startswith("cbs") else kind,
                                 "horizon": OVERLOAD_HORIZON}}
            if kind == "fixed_priority":  # rate monotonic
                doc["scheduler"]["priorities"] = {
                    str(t["id"]): rank for rank, t in
                    enumerate(sorted(tasks, key=lambda t: (t["period"], t["id"])))}
            if kind.startswith("cbs"):
                doc["reservations"] = {
                    str(t["id"]): {
                        "budget": max(1, int(0.9 / len(tasks) * t["period"])),
                        "period": t["period"],
                        "variant": "hard_suspend" if kind == "cbs_hard" else "soft_postpone",
                        "reclaiming": "grub" if kind == "cbs_grub" else "none"}
                    for t in tasks}
            stem = os.path.join(workdir, "overload-%d-%d" % (i, j))
            with open(stem + ".json", "w") as fh:
                json.dump(doc, fh)
            cases.append(OverloadCase(stem + ".json", stem + ".csv", stem + "-report.json",
                                      16 * seed + 2 * i + j, [t["id"] for t in tasks]))
    return cases


def _overload_op(c):
    rc = softrt.cli.main(["simulate", "--config", c.config_path, "--seed", str(c.sim_seed),
                          "--out", c.trace_path])
    if rc != 0:
        return rc, None
    return rc, softrt.cli.main(["analyze", c.trace_path, "--config", c.config_path,
                                "--format", "json", "--out", c.report_path])


def run_overload(cases, op_span):
    out = []
    for c in cases:
        with op_span():
            out.append(_guard(_overload_op, c))
    return out


def check_overload(seed, cases, outputs, golden):
    ch = Checked(attempted=len(cases), ticks=OVERLOAD_HORIZON * len(cases))
    for i, (c, res) in enumerate(zip(cases, outputs)):
        ch.op_digests.append(None)
        if isinstance(res, OpError):
            ch.fail(1, "operation %d raised:\n%s" % (i, res.text))
            continue
        if res != (0, 0):
            ch.fail(1, "operation %d: CLI exit codes %s" % (i, res))
            continue
        with open(c.trace_path) as fh:
            text = fh.read()
        ch.op_digests[-1] = digest(text)
        if Trace.from_csv(text).to_csv() != text:
            ch.fail(1, "operation %d: trace CSV does not round-trip" % i)
            continue
        with open(c.report_path) as fh:
            report = json.load(fh)["tasks"]
        if sorted(report) != sorted(str(t) for t in c.task_ids):
            ch.fail(1, "operation %d: report covers tasks %s" % (i, sorted(report)))
    _golden_digests(golden, "overload_trace", seed, ch)
    return ch


# ---------------------------------------------------------------------------
# sweep_batch: bandwidth_sweep over the first 15 plants of sweep seed 0

# sweep seed 0 is pinned so system 14, whose value-iteration dlqr exhausts
# its step limit, is in every repetition; the seed picks the bandwidths
SWEEP_SYSTEMS = 15
LOW_GRID = (0.1, 0.2, 0.3, 0.4, 0.5)
HIGH_GRID = (0.6, 0.7, 0.8, 0.9, 1.0)


def build_sweep(seed, workdir):
    rng = _rng("sweep", seed)
    # four low and four high bandwidths keep the cs mode count, which grows
    # as the budget shrinks, the same for every seed, and give tt_sort more
    # work than the one failed dlqr
    grid = sorted(float(b) for half in (LOW_GRID, HIGH_GRID)
                  for b in rng.choice(half, size=4, replace=False))
    return SweepConfig(n_systems=SWEEP_SYSTEMS, seed=0, grid=tuple(grid))


class _Capture(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.records = []

    def emit(self, record):
        self.records.append(record)


def _sweep_op(config):
    logger = logging.getLogger("softrt.sweep")
    cap = _Capture()
    logger.addHandler(cap)
    try:
        rows = softrt.sweep.bandwidth_sweep(config)
    finally:
        logger.removeHandler(cap)
    return rows, [r.getMessage() for r in cap.records]


def run_sweep(config, op_span):
    with op_span():
        return [_guard(_sweep_op, config)]


def check_sweep(seed, config, outputs, golden):
    ch = Checked(attempted=config.n_systems)
    res = outputs[0]
    if isinstance(res, OpError):
        ch.fail(ch.attempted, "bandwidth_sweep raised:\n" + res.text)
        return ch
    rows, messages = res
    synth_failed = sum("synthesis failed" in m for m in messages)
    ch.degraded = synth_failed
    ch.info["sweep_cells"] = ((config.n_systems - synth_failed)
                              * len(config.grid) * len(config.mocs))
    ch.info["synth_failed_log"] = messages
    want = [(b, m) for b in config.grid for m in config.mocs]
    if sorted((r["bandwidth"], r["moc"]) for r in rows) != sorted(want):
        ch.fail(ch.attempted, "sweep rows do not cover grid x mocs once each")
        return ch
    F = config.T // config.R
    wcet = config.T  # the demand model's upper limit is the task period
    for r in rows:
        f = r["fraction_stabilized"]
        if not 0.0 <= f <= 1.0:
            ch.fail(ch.attempted, "fraction %r out of [0, 1] at %s" % (f, r))
        if r["moc"] == "tt_hard":
            Q = int(round(r["bandwidth"] * config.R))
            closed = (config.n_systems - synth_failed) / config.n_systems \
                if Q * F >= wcet else 0.0
            if abs(f - closed) > 1e-12:
                ch.fail(ch.attempted, "tt_hard at b=%g is %r, closed form %r"
                        % (r["bandwidth"], f, closed))
    # information only: a documented correctness fix may change the table
    ch.info["sweep_csv_digest"] = digest(sweep_to_csv(rows))
    ch.op_digests.append(ch.info["sweep_csv_digest"])
    return ch


# ---------------------------------------------------------------------------
# verdict_battery: criterion-8 cases, analytic vs Monte Carlo verdicts

VERDICT_CASES = 20
T_PHYS = 0.2
EXPENSIVE_RU = 100.0
CS_MAX_DELAY = 2
CHAIN_D_MAX = 2
MC_HORIZON = 500
MC_TRAJ = 200
BAND = (0.95, 1.05)  # rho band the criterion-8 law leaves untested


@dataclass
class VerdictCase:
    index: int
    candidates: list  # plants to try in order until synthesis succeeds
    model: Empirical
    mc_seeds: tuple


def build_verdict(seed, workdir):
    # the plants, growth rates and drop probabilities are criterion 8's own
    # battery (seed 0), which holds one draw whose dlqr fails; the workload
    # seed drives the Monte Carlo streams
    rng = np.random.default_rng(derived_seed(0, "battery"))
    cases = []
    for i in range(VERDICT_CASES):
        if rng.integers(0, 2):
            g, mu = rng.uniform(0.03, 0.10), rng.uniform(0.05, 0.35)
        else:
            g, mu = rng.uniform(0.25, 0.50), rng.uniform(0.80, 0.95)
        k = int(round(mu * 100))
        candidates = []
        for r in range(20):
            base = random_system(2, derived_seed(0, "sys", i, r))
            alpha = max(np.real(np.linalg.eigvals(base.A)))
            candidates.append(ContinuousLti.from_ab(
                base.A + (g / T_PHYS - alpha) * np.eye(2), base.B))
        mc = _rng("verdict", seed, i)
        cases.append(VerdictCase(i, candidates, Empirical((1,) * (100 - k) + (2,) * k),
                                 tuple(int(s) for s in mc.integers(0, 2**62, size=2))))
    return cases


def _verdict_op(c):
    cc, moc = softrt.controlcore, softrt.moc
    out = {"redraws": 0}
    for plant in c.candidates:
        d = cc.c2d(plant, T_PHYS)
        try:
            K, _ = cc.dlqr(d.A, d.B, np.eye(2), EXPENSIVE_RU * np.eye(1))
            break
        except NumericalError:
            out["redraws"] += 1
    else:
        raise NumericalError("no synthesizable draw for case %d" % c.index)
    modes = moc.tt_maxb_modes(d, K, c.model, 1, 1, 1)
    out["rho"] = cc.spectral_radius(cc.stability_matrix(modes))
    if not BAND[0] <= out["rho"] <= BAND[1]:
        out["analytic"] = "stable" if cc.second_moment_stable(modes) else "unstable"
        out["mc"] = moc.cosimulate(plant, K, MocKind("tt_maxb"), c.model, 1, 1, 1,
                                   tick_seconds=T_PHYS, horizon=MC_HORIZON,
                                   n_traj=MC_TRAJ, seed=c.mc_seeds[0]).verdict
        cs = moc.cs_modes(plant, K, c.model, 1, 1, CS_MAX_DELAY, T_PHYS)
        out["cs_analytic"] = "stable" if cc.second_moment_stable(cs) else "unstable"
        out["cs_mc"] = moc.cosimulate(plant, K, MocKind("cs", CS_MAX_DELAY), c.model,
                                      1, 1, tick_seconds=T_PHYS, horizon=MC_HORIZON,
                                      n_traj=MC_TRAJ, seed=c.mc_seeds[1]).verdict
    out["chain_steady"] = moc.build_delay_chain(c.model, 1, 1, 1, CHAIN_D_MAX).steady
    return out


def run_verdict(cases, op_span):
    out = []
    for c in cases:
        with op_span():
            out.append(_guard(_verdict_op, c))
    return out


def check_verdict(seed, cases, outputs, golden):
    ch = Checked(attempted=len(cases))
    matches = tested = cs_contra = redraws = 0
    for c, res in zip(cases, outputs):
        if isinstance(res, OpError):
            ch.fail(1, "case %d raised:\n%s" % (c.index, res.text))
            ch.op_digests.append(None)
            continue
        redraws += res["redraws"]
        steady = np.asarray(res["chain_steady"])
        if steady.min() < 0 or abs(steady.sum() - 1.0) > 1e-9:
            ch.fail(1, "case %d: delay-chain steady state is not a distribution"
                    % c.index)
        ch.op_digests.append(digest("%r:%s:%s:%s:%s" % (
            res["rho"], res.get("analytic"), res.get("mc"), res.get("cs_analytic"),
            res.get("cs_mc"))))
        if "analytic" not in res:
            continue
        tested += 1
        # criterion-8 law: outside the band Monte Carlo may be inconclusive
        # but never contradicts the analytic verdict
        if res["mc"] == res["analytic"]:
            matches += 1
        elif res["mc"] != "inconclusive":
            ch.fail(1, "case %d: tt_maxb Monte Carlo says %s, analytic %s (rho %.4f)"
                    % (c.index, res["mc"], res["analytic"], res["rho"]))
        if res["cs_mc"] not in (res["cs_analytic"], "inconclusive"):
            cs_contra += 1  # recorded, not a failure: cs has no such law
    if tested == 0:
        ch.fail(ch.attempted, "no case outside the rho band was tested")
    ch.info.update(mc_agreement=matches / tested if tested else 0.0,
                   cs_contradictions=cs_contra, dlqr_redraws=redraws, tested=tested)
    return ch


WORKLOADS = {
    "reserve_longrun": (build_reserve, run_reserve, check_reserve),
    "overload_trace": (build_overload, run_overload, check_overload),
    "sweep_batch": (build_sweep, run_sweep, check_sweep),
    "verdict_battery": (build_verdict, run_verdict, check_verdict),
}
