import dataclasses
import logging
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softrt.errors import ConfigError
from softrt.render import execution_segments
from softrt.simcore import (
    EVENT_KINDS,
    SchedulerConfig,
    ServerState,
    Trace,
    cbs_on_arrival,
    cbs_on_exhaustion,
    cbs_wake,
    grub_tick,
    simulate,
)
from softrt.taskmodel import (
    Deterministic,
    Empirical,
    ReservationSpec,
    Scripted,
    TaskSpec,
)

from conftest import make_overload_reservations, make_overload_tasks

GOLDEN = Path(__file__).parent / "golden" / "edf_overload_trace.csv"


def timeline(trace):
    """Execution segments as (task, start, end) in chronological order."""
    segs = [(t, a, b) for t, a, b, _ in execution_segments(trace)]
    return sorted(segs, key=lambda s: (s[1], s[0]))


def misses(trace, task=None):
    return [(e.task, e.tick) for e in trace.of_kind("deadline_miss", task)]


def completions(trace, task):
    return [e.tick for e in trace.of_kind("completion", task)]


# ---------------------------------------------------------------------------
# EDF under transient overload


def test_edf_overload_timeline(overload_tasks):
    trace = simulate(overload_tasks, SchedulerConfig(kind="edf", horizon=20))
    assert timeline(trace) == [
        (1, 0, 2), (2, 2, 4), (3, 4, 6), (1, 6, 8), (2, 8, 10), (3, 10, 12),
        (1, 12, 14), (2, 14, 16), (1, 16, 17), (3, 17, 19), (2, 19, 20),
    ]
    assert misses(trace) == [
        (1, 12), (2, 15), (1, 16), (3, 18), (1, 20), (2, 20),
    ]
    # the overrun cascades: every task misses at least once
    for tid in (1, 2, 3):
        assert trace.miss_count(tid) >= 1
    # the job of task 1 released at 8 does not finish until 14
    recs = {r.index: r for r in trace.job_records()[1]}
    assert recs[2].arrival == 8 and recs[2].completion == 14


def test_edf_overload_matches_golden_file(overload_tasks):
    trace = simulate(overload_tasks, SchedulerConfig(kind="edf", horizon=20))
    assert trace.to_csv() == GOLDEN.read_text()


def test_edf_ties_break_by_arrival_order(overload_tasks):
    # at tick 10 both the job of task 3 released at 6 and the job of task 1
    # released at 8 have absolute deadline 12; the earlier arrival runs first
    trace = simulate(overload_tasks, SchedulerConfig(kind="edf", horizon=20))
    segs = timeline(trace)
    assert (3, 10, 12) in segs and (1, 12, 14) in segs


def test_single_task_trivial_completions():
    t = TaskSpec(id=1, wcet=1, rel_deadline=4, period=4)
    trace = simulate([t], SchedulerConfig(kind="edf", horizon=12))
    assert completions(trace, 1) == [1, 5, 9]
    assert trace.miss_count() == 0


def test_fixed_priority_order():
    t1 = TaskSpec(id=1, wcet=3, rel_deadline=10, period=10)
    t2 = TaskSpec(id=2, wcet=1, rel_deadline=4, period=4)
    cfg = SchedulerConfig(kind="fixed_priority", horizon=10,
                          priorities={1: 1, 2: 2})
    trace = simulate([t1, t2], cfg)
    # task 1 hogs the start despite task 2's earlier deadline
    assert timeline(trace) == [(1, 0, 3), (2, 3, 4), (2, 4, 5), (2, 8, 9)]
    assert trace.miss_count() == 0


def test_duplicate_ids_rejected():
    t = TaskSpec(id=1, wcet=1, rel_deadline=4, period=4)
    with pytest.raises(ConfigError):
        simulate([t, t], SchedulerConfig(kind="edf", horizon=8))


def test_scheduler_config_validation():
    with pytest.raises(ConfigError):
        SchedulerConfig(kind="rate_monotonic", horizon=8)
    with pytest.raises(ConfigError):
        SchedulerConfig(kind="edf", horizon=0)
    with pytest.raises(ConfigError):
        SchedulerConfig(kind="fixed_priority", horizon=8)
    with pytest.raises(ConfigError):
        SchedulerConfig(kind="cbs_edf", horizon=8)
    with pytest.raises(ConfigError):
        SchedulerConfig(kind="edf", horizon=8, miss_detection="poll")
    with pytest.raises(ConfigError, match="arival"):
        SchedulerConfig(kind="edf", horizon=8, collect=frozenset({"arival"}))


# ---------------------------------------------------------------------------
# reservation state machine units


def test_cbs_admission_reset_and_keep():
    spec = ReservationSpec(budget=2, period=5)
    stale = ServerState(1, 1, 4)
    s = cbs_on_arrival(stale, now=4, spec=spec)
    assert (s.remaining_budget, s.current_deadline, s.status) == (2, 9, "active")
    healthy = ServerState(1, 2, 10)
    s = cbs_on_arrival(healthy, now=4, spec=spec)  # 2*5 < (10-4)*2 keeps state
    assert (s.remaining_budget, s.current_deadline, s.status) == (2, 10, "active")
    boundary = ServerState(1, 2, 9)  # 2*5 == (9-4)*2 resets
    s = cbs_on_arrival(boundary, now=4, spec=spec)
    assert (s.remaining_budget, s.current_deadline) == (2, 9)


def test_cbs_exhaustion_soft_and_hard():
    soft = ReservationSpec(budget=2, period=5)
    s = cbs_on_exhaustion(ServerState(1, 0, 8, "active"), now=6, spec=soft)
    assert (s.remaining_budget, s.current_deadline, s.status) == (2, 13, "active")
    hard = ReservationSpec(budget=2, period=5, variant="hard_suspend")
    s = cbs_on_exhaustion(ServerState(1, 0, 8, "active"), now=6, spec=hard)
    assert (s.status, s.suspended_until) == ("suspended", 8)
    woke = cbs_wake(s, hard)
    assert (woke.remaining_budget, woke.current_deadline, woke.status) == \
        (2, 13, "active")
    assert woke.suspended_until is None


def test_grub_drain():
    plain = ReservationSpec(budget=1, period=4)
    grub = ReservationSpec(budget=1, period=4, reclaiming="grub")
    other = ReservationSpec(budget=2, period=5)
    assert grub_tick([plain, other], plain) == 1
    assert grub_tick([grub, other], grub) == Fraction(1, 4) + Fraction(2, 5)
    assert grub_tick([grub], grub) == Fraction(1, 4)
    fat = ReservationSpec(budget=9, period=10, reclaiming="grub")
    assert grub_tick([fat, other], fat) == 1  # capped at the full processor


# ---------------------------------------------------------------------------
# CBS scheduling


def test_cbs_isolates_well_behaved_tasks(overload_tasks, overload_reservations):
    cfg = SchedulerConfig(kind="cbs_edf", horizon=20,
                          reservations=overload_reservations)
    trace = simulate(overload_tasks, cfg)
    # the overrunning task now pays for its own overruns
    assert [(a, b) for t, a, b, _ in execution_segments(trace) if t == 1] == \
        [(0, 1), (5, 6), (8, 9), (13, 14), (16, 17), (19, 20)]
    assert misses(trace, 1) == [(1, 4), (1, 8), (1, 12), (1, 16), (1, 20)]
    assert trace.miss_count(2) == 0 and trace.miss_count(3) == 0
    assert completions(trace, 2) == [3, 8, 13, 19]
    assert completions(trace, 3) == [5, 11, 16]


def test_cbs_tighter_third_budget_keeps_second_isolated(overload_tasks):
    res = {1: ReservationSpec(1, 4), 2: ReservationSpec(2, 5),
           3: ReservationSpec(1, 3)}
    cfg = SchedulerConfig(kind="cbs_edf", horizon=20, reservations=res)
    trace = simulate(overload_tasks, cfg)
    assert trace.miss_count(2) == 0
    assert trace.miss_count(1) >= 1


def test_cbs_hard_suspends_until_deadline():
    t = TaskSpec(id=1, wcet=3, rel_deadline=9, period=12)
    res = {1: ReservationSpec(budget=1, period=3, variant="hard_suspend")}
    cfg = SchedulerConfig(kind="cbs_edf", horizon=12, reservations=res)
    trace = simulate([t], cfg)
    assert timeline(trace) == [(1, 0, 1), (1, 3, 4), (1, 6, 7)]
    assert completions(trace, 1) == [7]
    assert [e.tick for e in trace.of_kind("budget_exhausted")] == [1, 4]
    assert trace.miss_count() == 0


def test_grub_reclaims_idle_bandwidth():
    t1 = TaskSpec(id=1, wcet=2, rel_deadline=10, period=10)
    t2 = TaskSpec(id=2, wcet=2, rel_deadline=10, period=10)
    base = {1: ReservationSpec(1, 5), 2: ReservationSpec(2, 5)}
    claimed = {1: ReservationSpec(1, 5, reclaiming="grub"),
               2: ReservationSpec(2, 5)}
    plain = simulate([t1, t2], SchedulerConfig(
        kind="cbs_edf", horizon=10, reservations=base))
    grub = simulate([t1, t2], SchedulerConfig(
        kind="cbs_edf", horizon=10, reservations=claimed))
    # spare bandwidth (3/5 in use) stretches the first budget enough to
    # finish in one go instead of being throttled after each tick
    assert completions(plain, 1) == [4]
    assert completions(grub, 1) == [2]
    assert len(plain.of_kind("budget_exhausted", 1)) > \
        len(grub.of_kind("budget_exhausted", 1))


def test_soft_postpone_keeps_single_task_running():
    t = TaskSpec(id=1, wcet=6, rel_deadline=12, period=12)
    res = {1: ReservationSpec(budget=1, period=2)}
    cfg = SchedulerConfig(kind="cbs_edf", horizon=12, reservations=res)
    trace = simulate([t], cfg)
    assert completions(trace, 1) == [6]
    # each exhaustion closes a segment, but the task never actually yields
    busy = set()
    for _, a, b in timeline(trace):
        busy.update(range(a, b))
    assert busy == set(range(6))
    assert [e.tick for e in trace.of_kind("budget_exhausted")] == [1, 2, 3, 4, 5]


# ---------------------------------------------------------------------------
# miss policies and detection modes


def test_abort_policy_discards_at_deadline():
    t = TaskSpec(id=1, wcet=3, rel_deadline=4, period=6,
                 exec_model=Scripted((10,), fallback=Deterministic(2)),
                 miss_policy="abort")
    trace = simulate([t], SchedulerConfig(kind="edf", horizon=12))
    assert misses(trace) == [(1, 4)]
    aborted = trace.of_kind("job_aborted")
    assert len(aborted) == 1
    assert aborted[0].tick == 4
    assert aborted[0].payload == {"job": 0, "remaining": 6}
    assert completions(trace, 1) == [8]
    recs = trace.job_records()[1]
    assert recs[0].outcome == "aborted" and recs[1].outcome == "met"


def test_skip_late_drops_jobs_overtaken_by_a_late_one():
    t = TaskSpec(id=1, wcet=1, rel_deadline=4, period=4,
                 exec_model=Scripted((9,), fallback=Deterministic(1)),
                 miss_policy="skip_late")
    trace = simulate([t], SchedulerConfig(kind="edf", horizon=16))
    assert [(e.tick, e.payload["job"]) for e in trace.of_kind("job_skipped")] == \
        [(9, 1), (9, 2)]
    assert completions(trace, 1) == [9, 13]
    assert misses(trace) == [(1, 4), (1, 8)]
    recs = {r.index: r.outcome for r in trace.job_records()[1]}
    assert recs == {0: "late", 1: "skipped", 2: "skipped", 3: "met"}


def test_completion_detection_reports_miss_when_job_ends():
    t = TaskSpec(id=1, wcet=3, rel_deadline=4, period=8,
                 exec_model=Scripted((6,), fallback=Deterministic(1)))
    cfg = SchedulerConfig(kind="edf", horizon=8, miss_detection="completion")
    trace = simulate([t], cfg)
    assert misses(trace) == [(1, 6)]  # flagged at completion, not at tick 4
    comp = trace.of_kind("completion", 1)[0]
    assert comp.tick == 6 and comp.payload["late"] is True


def test_completion_detection_makes_abort_a_no_op():
    t = TaskSpec(id=1, wcet=3, rel_deadline=4, period=8,
                 exec_model=Scripted((6,), fallback=Deterministic(1)),
                 miss_policy="abort")
    cfg = SchedulerConfig(kind="edf", horizon=8, miss_detection="completion")
    trace = simulate([t], cfg)
    assert not trace.of_kind("job_aborted")
    assert completions(trace, 1) == [6]


# ---------------------------------------------------------------------------
# trace serialization


def test_trace_round_trips(overload_tasks):
    trace = simulate(overload_tasks, SchedulerConfig(kind="edf", horizon=20))
    again = Trace.from_csv(trace.to_csv(), horizon=20)
    assert again.events == trace.events
    assert again.task_ids == trace.task_ids
    assert Trace.from_jsonl(trace.to_jsonl(), horizon=20).events == trace.events
    # horizon inference falls back to the last recorded tick
    assert Trace.from_csv(trace.to_csv()).horizon == 20


def test_job_records_rebuild(overload_tasks):
    trace = simulate(overload_tasks, SchedulerConfig(kind="edf", horizon=20))
    recs = trace.job_records()[1]
    assert [(r.index, r.arrival, r.abs_deadline, r.completion) for r in recs] == [
        (0, 0, 4, 2), (1, 4, 8, 8), (2, 8, 12, 14), (3, 12, 16, 17),
        (4, 16, 20, None),
    ]
    assert [r.outcome for r in recs] == ["met", "met", "late", "late", None]
    assert all(r.exec_demand == 2 for r in recs[:3])


def test_collect_filter_keeps_a_subsequence(overload_tasks):
    full = simulate(overload_tasks, SchedulerConfig(kind="edf", horizon=20))
    only = simulate(overload_tasks, SchedulerConfig(
        kind="edf", horizon=20, collect=frozenset({"completion"})))
    assert only.events == full.of_kind("completion")


def _simulate_counted(tasks, scheduler):
    """simulate with the debug line on: (trace, emitted, collected)."""
    logger = logging.getLogger("softrt.simcore")
    lines = []
    handler = logging.Handler()
    handler.emit = lambda record: lines.append(record.getMessage())
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        trace = simulate(tasks, scheduler, seed=3)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    m = re.search(r"emitted (\d+) events, collected (\d+)", lines[0])
    return trace, int(m.group(1)), int(m.group(2))


def _collect_systems():
    """Overloaded sets that between them emit every event kind."""
    tasks = make_overload_tasks()
    noisy = [dataclasses.replace(t, exec_model=Empirical((1, 2, 3, 4)), miss_policy=p)
             for t, p in zip(tasks, ("abort", "skip_late", "continue"))]
    hard = {tid: dataclasses.replace(r, variant="hard_suspend")
            for tid, r in make_overload_reservations().items()}
    grub = {tid: dataclasses.replace(r, reclaiming="grub")
            for tid, r in make_overload_reservations().items()}
    return [
        (tasks, dict(kind="edf")),
        (noisy, dict(kind="fixed_priority", priorities={1: 2, 2: 1, 3: 0},
                     miss_detection="completion")),
        (noisy, dict(kind="cbs_edf", reservations=make_overload_reservations())),
        (noisy, dict(kind="cbs_edf", reservations=hard)),
        (noisy, dict(kind="cbs_edf", reservations=grub, miss_detection="completion")),
    ]


@given(st.sampled_from(range(5)), st.frozensets(st.sampled_from(EVENT_KINDS)))
@settings(max_examples=60, deadline=None)
def test_collect_filter_builds_only_the_collected_kinds(which, kinds):
    tasks, kw = _collect_systems()[which]
    full = simulate(tasks, SchedulerConfig(horizon=40, **kw), seed=3)
    only = simulate(tasks, SchedulerConfig(horizon=40, collect=kinds, **kw), seed=3)
    assert only.events == [e for e in full.events if e.kind in kinds]
    # with the debug line on, the same trace, and the dropped events counted
    counted, emitted, collected = _simulate_counted(
        tasks, SchedulerConfig(horizon=40, collect=kinds, **kw))
    assert counted.events == only.events
    assert emitted == len(full.events)
    assert collected == len(only.events)


def test_collect_systems_emit_every_kind():
    seen = set()
    for tasks, kw in _collect_systems():
        seen.update(e.kind for e in simulate(tasks, SchedulerConfig(horizon=40, **kw),
                                             seed=3).events)
    assert seen == set(EVENT_KINDS)


# ---------------------------------------------------------------------------
# engine invariants


task_sets = st.lists(
    st.tuples(st.integers(1, 3), st.integers(4, 9), st.integers(1, 9)),
    min_size=1, max_size=4,
).map(lambda rows: [
    TaskSpec(id=i + 1, wcet=w, rel_deadline=max(w, d), period=p)
    for i, (w, p, d) in enumerate(rows)
])


@given(task_sets, st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_edf_trace_invariants(tasks, seed):
    cfg = SchedulerConfig(kind="edf", horizon=30)
    trace = simulate(tasks, cfg, seed=seed)
    assert simulate(tasks, cfg, seed=seed).events == trace.events

    keys = [e.sort_key() for e in trace.events]
    assert keys == sorted(keys)

    segs = timeline(trace)
    for (_, a0, b0), (_, a1, _) in zip(segs, segs[1:]):
        assert b0 <= a1  # one processor: no overlapping execution
    assert all(0 <= a < b <= 30 for _, a, b in segs)

    # work conservation: the processor never idles while a job is pending
    busy = set()
    for _, a, b in segs:
        busy.update(range(a, b))
    pending = set()
    for recs in trace.job_records().values():
        for r in recs:
            end = r.completion if r.completion is not None else 30
            pending.update(range(r.arrival, end))
    assert pending <= busy


def test_engine_skips_event_free_ticks(caplog):
    # one CBS task whose job finishes long before the next arrival: the
    # engine visits the event ticks only and says so on its debug logger
    t = TaskSpec(id=1, wcet=2, rel_deadline=50, period=50)
    cfg = SchedulerConfig(kind="cbs_edf", horizon=200,
                          reservations={1: ReservationSpec(budget=5, period=10)})
    with caplog.at_level(logging.DEBUG, logger="softrt.simcore"):
        trace = simulate([t], cfg)
    lines = [r.getMessage() for r in caplog.records if r.name == "softrt.simcore"]
    assert len(lines) == 1
    m = re.search(r"visited (\d+) of (\d+) ticks; emitted (\d+) events, "
                  r"collected (\d+)", lines[0])
    visited, ticks, emitted, collected = map(int, m.groups())
    assert ticks == 201 and visited < ticks // 10
    assert emitted == collected == len(trace.events)
