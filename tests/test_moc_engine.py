"""The mechanism timing model against the scheduling engine, job by job.

All of moc rests on one abstraction: a job of c ticks under a hard budget-Q
reservation occupies s = ceil(c/Q) reservation periods.  Here simcore runs
a single task under a hard_suspend CBS with scripted demands, and each job's
fate in the trace is compared with the mechanism recursions fed the same
demands.

tt_maxb (miss_policy abort) must agree exactly: a job is aborted iff its
demand exceeds the Q * (T // R) ticks the reservation grants per task
period.  tt_sort (miss_policy continue, no cancellation) carries its
backlog in whole reservation periods, d' = max(d + s - F, 0), so it never
latches a command earlier than the engine completes the job; when Q > 1 it
can latch later, because a short job may finish on the budget a previous
job left over in its last period.  That period-granular recursion is the
documented, conservative model the delay chain (criterion 10) pins.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from softrt.controlcore import c2d, dlqr
from softrt.moc import MocKind, _backlog_step, service_periods, verdicts
from softrt.sweep import SweepConfig, random_system
from softrt.simcore import SchedulerConfig, simulate
from softrt.taskmodel import Deterministic, ReservationSpec, Scripted, TaskSpec, derived_seed


def _run(demands, Q, R, T, policy, horizon):
    """Per-job records of one task with these demands under a hard (Q, R) server."""
    task = TaskSpec(id=1, wcet=max(demands), rel_deadline=T, period=T,
                    exec_model=Scripted(tuple(demands), Deterministic(1)),
                    miss_policy=policy)
    res = {1: ReservationSpec(budget=Q, period=R, variant="hard_suspend")}
    trace = simulate([task], SchedulerConfig(kind="cbs_edf", horizon=horizon,
                                             reservations=res))
    return trace.records[1][:len(demands)]


def _sort_latches(demands, Q, R, T):
    """Reservation period in which the tt_sort recursion latches each job."""
    F, d, out = T // R, 0, []
    for j, c in enumerate(demands):
        fin = d + service_periods(c, Q, R)
        out.append(j * F + fin)
        _, d = _backlog_step(fin, F, math.inf)  # no cancellation
    return out


@st.composite
def reservations(draw):
    R = draw(st.integers(1, 4))
    Q = draw(st.integers(1, R))
    F = draw(st.integers(1, 3))
    demands = draw(st.lists(st.integers(1, Q * F + 2 * Q), min_size=1, max_size=12))
    return demands, Q, R, F * R


@settings(max_examples=150, deadline=None)
@given(reservations())
def test_tt_maxb_aborts_exactly_the_overrunning_jobs(case):
    demands, Q, R, T = case
    jobs = _run(demands, Q, R, T, "abort", (len(demands) + 1) * T)
    aborted = {job.index for job in jobs if job.outcome == "aborted"}
    assert aborted == {j for j, c in enumerate(demands) if c > Q * (T // R)}
    assert all(job.outcome in ("met", "aborted") for job in jobs)


@settings(max_examples=150, deadline=None)
@given(reservations())
def test_tt_sort_recursion_never_latches_before_the_engine_completes(case):
    demands, Q, R, T = case
    horizon = len(demands) * T + R * sum(service_periods(c, Q, R) for c in demands) + R
    jobs = _run(demands, Q, R, T, "continue", horizon)
    for job, latch in zip(jobs, _sort_latches(demands, Q, R, T)):
        assert job.completion is not None, job
        assert latch >= math.ceil(job.completion / R), (job, latch)


def test_tt_sort_recursion_is_conservative_on_leftover_budget():
    # job 0 (3 ticks) ends at tick 5 with one tick of period [4, 8) unused;
    # job 1 (1 tick) runs on it and completes at tick 6, in period 2, while
    # the recursion still carries backlog 1 and latches it in period 3
    demands, Q, R, T = (3, 1, 1, 1), 2, 4, 4
    jobs = _run(demands, Q, R, T, "continue", 40)
    engine = [math.ceil(job.completion / R) for job in jobs]
    assert [job.completion for job in jobs[:2]] == [5, 6]
    assert engine[:2] == [2, 2]
    assert _sort_latches(demands, Q, R, T) == [2, 3, 4, 5]


def test_tt_sort_backlog_never_drains_at_one_period_per_task_period():
    # F = 1: every job occupies s >= 1 periods, so d' = d + s - 1 >= d; only
    # a cancellation lowers the backlog
    for max_delay in range(1, 7):
        for d in range(max_delay + 1):
            for s in range(1, max_delay + 4):
                fire, d_next = _backlog_step(d + s, 1, max_delay)
                assert d_next >= d if fire else d_next == 0, (max_delay, d, s)


def test_tt_sort_verdicts_are_not_monotone_in_the_budget_at_one_period():
    # seed-0 sweep plants at R = T = 20: stable at Q = 18 and 20, not at 19,
    # the period-granular model's cycle of cancellations that the engine,
    # which latches every such job within two periods, never makes
    cfg = SweepConfig(R=20, T=20)
    budgets = list(range(1, 21))
    for system in (5, 25, 49):
        plant = random_system(cfg.state_dim, derived_seed(cfg.seed, "sys", system))
        d = c2d(plant, cfg.T * cfg.tick_seconds)
        K, _ = dlqr(d.A, d.B, np.eye(cfg.state_dim), np.eye(1))
        ok = verdicts(plant, K, MocKind("tt_sort", cfg.max_delay), cfg.exec_model,
                      budgets, cfg.R, cfg.T, tick_seconds=cfg.tick_seconds)
        assert [Q for Q, v in zip(budgets, ok) if v] == list(range(7, 19)) + [20], system
