"""Reference tick engine: the per-tick simulation loop softrt shipped before
its event-driven rewrite, kept as the oracle for the differential test in
test_simcore_differential.py.  Like the package, it records a miss only at
the job's deadline.

It visits every tick from 0 to the horizon, rebuilds the ready set by
sorting at each one, keeps server state in frozen records updated through
``dataclasses.replace`` and drains budgets through exact rationals.  Only the
output types (Event, Trace), the scheduler config and the error type come
from the package; the reservation rules are private copies, so a change to
``softrt.simcore`` cannot leak into the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from softrt.errors import ConfigError
from softrt.simcore import Event, SchedulerConfig, Trace
from softrt.taskmodel import ReservationSpec, TaskSpec


@dataclass(frozen=True)
class ServerState:
    task_id: int
    remaining_budget: object  # int, or Fraction under reclaiming
    current_deadline: int
    status: str = "idle"  # idle | active | suspended
    suspended_until: Optional[int] = None


def cbs_on_arrival(server: ServerState, now: int, spec: ReservationSpec) -> ServerState:
    """Admission test when a job reaches an idle server.

    The pair (budget, deadline) is kept only if serving the leftover budget by
    the current deadline stays within the reserved bandwidth, i.e. if
    q * P < (d - now) * Q evaluated exactly; otherwise the server is reset to
    a full budget with deadline now + P.  A stale deadline (d <= now) always
    fails the test and resets.
    """
    q, d = server.remaining_budget, server.current_deadline
    if q * spec.period >= (d - now) * spec.budget:
        return replace(server, remaining_budget=spec.budget,
                       current_deadline=now + spec.period, status="active")
    return replace(server, status="active")


def cbs_on_exhaustion(server: ServerState, now: int, spec: ReservationSpec) -> ServerState:
    """Budget ran out with work still pending.

    Soft servers immediately recharge and postpone the deadline by one server
    period, staying ready (at lower EDF priority).  Hard servers suspend until
    the current deadline; the recharge happens at wake-up via cbs_wake.
    """
    if spec.variant == "soft_postpone":
        return replace(server, remaining_budget=spec.budget,
                       current_deadline=server.current_deadline + spec.period,
                       status="active")
    return replace(server, status="suspended",
                   suspended_until=server.current_deadline)


def cbs_wake(server: ServerState, spec: ReservationSpec) -> ServerState:
    """End of a hard suspension: full budget, deadline moved one period on."""
    return replace(server, remaining_budget=spec.budget,
                   current_deadline=server.current_deadline + spec.period,
                   status="active", suspended_until=None)


def grub_tick(active: Sequence[ReservationSpec], executing: ReservationSpec) -> Fraction:
    """Budget drain for one executing tick under bandwidth reclaiming.

    The executing server pays only the total bandwidth of currently active
    servers (a server is active while it has pending work), so spare
    bandwidth stretches the budget.  Without reclaiming the drain is 1.
    """
    if executing.reclaiming != "grub":
        return Fraction(1)
    u_act = sum((s.bandwidth for s in active), Fraction(0))
    return min(u_act, Fraction(1)) if u_act > 0 else Fraction(1)


class _Job:
    __slots__ = ("task", "index", "arrival", "deadline", "demand", "executed",
                 "completion", "outcome", "miss_logged")

    def __init__(self, task_id, index, arrival, deadline, demand):
        self.task = task_id
        self.index = index
        self.arrival = arrival
        self.deadline = deadline
        self.demand = demand
        self.executed = 0
        self.completion = None
        self.outcome = None
        self.miss_logged = False

    @property
    def open(self):
        return self.completion is None and self.outcome is None


def simulate(tasks: Sequence[TaskSpec], scheduler: SchedulerConfig, seed=0) -> Trace:
    """Run the task set to the horizon and return the sorted event trace.

    Deterministic: the same (tasks, scheduler, seed) triple always yields a
    byte-identical trace.  Per-job demand and arrival-gap draws are keyed by
    (seed, task id, job index), so one task's stochastic model never perturbs
    another task's samples.
    """
    ids = [t.id for t in tasks]
    if len(set(ids)) != len(ids):
        raise ConfigError("tasks: duplicate task id")
    tasks = sorted(tasks, key=lambda t: t.id)
    if scheduler.kind == "fixed_priority":
        missing = [t.id for t in tasks if t.id not in scheduler.priorities]
        if missing:
            raise ConfigError("scheduler.priorities: missing task id %s" % missing[0])
    if scheduler.kind == "cbs_edf":
        missing = [t.id for t in tasks if t.id not in scheduler.reservations]
        if missing:
            raise ConfigError("scheduler.reservations: missing task id %s" % missing[0])

    horizon = scheduler.horizon
    events: List[Event] = []
    collect = scheduler.collect

    def emit(tick, kind, task, payload):
        if collect is None or kind in collect:
            events.append(Event(tick, kind, task, payload))

    # precomputed arrivals and demands, keyed independently per (task, job)
    schedule = {}
    for t in tasks:
        arr = t.arrivals(horizon, seed)
        schedule[t.id] = [(a, j, t.demand(j, seed)) for j, a in enumerate(arr)]

    by_id = {t.id: t for t in tasks}
    queues: Dict[int, List[_Job]] = {t.id: [] for t in tasks}
    open_jobs: Dict[int, List[_Job]] = {t.id: [] for t in tasks}
    next_arrival = {t.id: 0 for t in tasks}

    servers: Dict[int, ServerState] = {}
    if scheduler.kind == "cbs_edf":
        for t in tasks:
            servers[t.id] = ServerState(t.id, 0, 0, "idle")

    last_runner: Optional[_Job] = None
    stopped_now: set = set()

    def resolve_completion(job, t):
        job.completion = t
        late = t > job.deadline
        job.outcome = "late" if late else "met"
        emit(t, "completion", job.task, {"job": job.index, "late": late})
        stopped_now.add(id(job))
        q = queues[job.task]
        q.remove(job)
        if late and by_id[job.task].miss_policy == "skip_late":
            for stale in [x for x in q if x.arrival < t]:
                stale.outcome = "skipped"
                emit(t, "job_skipped", job.task, {"job": stale.index})
                q.remove(stale)

    for t in range(horizon + 1):
        stopped_now = set()

        # 1. completion of work executed in [t-1, t)
        if last_runner is not None and last_runner.executed == last_runner.demand:
            resolve_completion(last_runner, t)
            last_runner = None

        # 2. hard-server wake-ups due now
        for tid in sorted(servers):
            s = servers[tid]
            if s.status == "suspended" and s.suspended_until <= t:
                s = cbs_wake(s, scheduler.reservations[tid])
                if not queues[tid]:
                    s = replace(s, status="idle")
                servers[tid] = s
                emit(t, "server_recharge", tid, {"budget": scheduler.reservations[tid].budget})
                emit(t, "deadline_postponed", tid, {"deadline": s.current_deadline})

        # 3. deadline checks and miss policies
        for tid in sorted(open_jobs):
            for job in list(open_jobs[tid]):
                if not job.open:
                    open_jobs[tid].remove(job)
                    continue
                if job.deadline != t or job.miss_logged:
                    continue
                job.miss_logged = True
                emit(t, "deadline_miss", tid, {"job": job.index})
                if by_id[tid].miss_policy == "abort":
                    job.outcome = "aborted"
                    emit(t, "job_aborted", tid,
                         {"job": job.index, "remaining": job.demand - job.executed})
                    stopped_now.add(id(job))
                    if job in queues[tid]:
                        queues[tid].remove(job)

        if t == horizon:
            break

        # a server whose queue drained this tick goes idle, keeping (q, d)
        # for the admission test of any arrival later in the same tick
        if scheduler.kind == "cbs_edf":
            for tid in sorted(servers):
                if servers[tid].status == "active" and not queues[tid]:
                    servers[tid] = replace(servers[tid], status="idle")

        # 4. arrivals at t
        for task in tasks:
            sched = schedule[task.id]
            i = next_arrival[task.id]
            while i < len(sched) and sched[i][0] == t:
                a, j, demand = sched[i]
                job = _Job(task.id, j, a, a + task.rel_deadline, demand)
                emit(t, "arrival", task.id,
                     {"job": j, "deadline": job.deadline, "demand": demand})
                was_empty = not queues[task.id]
                queues[task.id].append(job)
                open_jobs[task.id].append(job)
                i += 1
                if scheduler.kind == "cbs_edf" and was_empty:
                    s = servers[task.id]
                    if s.status == "idle":
                        spec = scheduler.reservations[task.id]
                        new = cbs_on_arrival(s, t, spec)
                        if (new.remaining_budget, new.current_deadline) != \
                                (s.remaining_budget, s.current_deadline):
                            emit(t, "server_recharge", task.id,
                                 {"budget": spec.budget, "deadline": new.current_deadline})
                        servers[task.id] = new
            next_arrival[task.id] = i

        # 5. budget exhaustion sweep: pending work but no budget left
        if scheduler.kind == "cbs_edf":
            for tid in sorted(servers):
                s = servers[tid]
                if s.status != "active" or not queues[tid] or s.remaining_budget > 0:
                    continue
                spec = scheduler.reservations[tid]
                emit(t, "budget_exhausted", tid, {"job": queues[tid][0].index})
                stopped_now.add(id(queues[tid][0]))
                s = cbs_on_exhaustion(s, t, spec)
                if s.status == "suspended" and s.suspended_until <= t:
                    s = cbs_wake(s, spec)
                servers[tid] = s
                if s.status != "suspended":
                    emit(t, "server_recharge", tid, {"budget": spec.budget})
                    emit(t, "deadline_postponed", tid, {"deadline": s.current_deadline})

        # 6. dispatch for [t, t+1)
        ready = []
        if scheduler.kind == "cbs_edf":
            for tid in sorted(queues):
                if queues[tid] and servers[tid].status == "active":
                    ready.append(((servers[tid].current_deadline, tid), queues[tid][0]))
        elif scheduler.kind == "edf":
            for tid in sorted(queues):
                if queues[tid]:
                    head = queues[tid][0]
                    ready.append(((head.deadline, head.arrival, tid), head))
        else:
            for tid in sorted(queues):
                if queues[tid]:
                    ready.append(((scheduler.priorities[tid], tid), queues[tid][0]))

        pick = min(ready, key=lambda kv: kv[0])[1] if ready else None

        if last_runner is not None and last_runner is not pick and \
                last_runner.open and id(last_runner) not in stopped_now:
            emit(t, "preemption", last_runner.task, {"job": last_runner.index})
            stopped_now.add(id(last_runner))

        if pick is not None:
            if pick is not last_runner or id(pick) in stopped_now:
                emit(t, "job_start", pick.task,
                     {"job": pick.index, "resumed": pick.executed > 0})
            pick.executed += 1
            if scheduler.kind == "cbs_edf":
                spec = scheduler.reservations[pick.task]
                active = [scheduler.reservations[tid] for tid in sorted(queues)
                          if queues[tid]]
                drain = grub_tick(active, spec)
                s = servers[pick.task]
                servers[pick.task] = replace(
                    s, remaining_budget=s.remaining_budget - drain)
        last_runner = pick

    events.sort(key=Event.sort_key)
    return Trace(events, horizon, [t.id for t in tasks])
