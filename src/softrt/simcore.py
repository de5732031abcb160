"""Event-driven single-processor scheduling engine with tick semantics.

Supports plain EDF, fixed priorities, and constant-bandwidth reservations
(soft deadline-postponing and hard suspending variants) layered on EDF, with
optional bandwidth reclaiming.

Time is discrete: the processor is dispatched for whole ticks and the trace
is exactly what re-dispatching at every tick boundary would give.  The engine
only visits the ticks where that decision can change: arrivals, job
deadlines, completions, budget exhaustions and hard-server wake-ups.  Between
two such ticks the running job and its budget drain are constant, so the
next completion is at ``now + demand - executed`` and the next exhaustion at
``now + ceil(budget / drain)``; deadlines and wake-ups wait in heaps.

All quantities are integers.  The one exception is the budget of a server
with ``reclaiming="grub"``, which drains by the active bandwidth and is kept
as an exact ``Fraction``.

Tie-breaking is documented and total: EDF orders ready jobs by
(absolute deadline, arrival tick, task id); reservation scheduling orders
servers by (server deadline, task id); fixed priority orders by
(priority value, task id) with smaller values running first.
"""

from __future__ import annotations

import csv
import io
import json
import logging
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from heapq import heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import ConfigError
from .taskmodel import JobRecord, ReservationSpec, TaskSpec, _is_int

log = logging.getLogger(__name__)

EVENT_KINDS = (
    "arrival",
    "job_start",
    "preemption",
    "completion",
    "deadline_miss",
    "budget_exhausted",
    "deadline_postponed",
    "server_recharge",
    "job_aborted",
    "job_skipped",
)

# Within one tick, everything that ends or accounts for the previous tick's
# execution sorts before the job_start of the next dispatch, so a stop and a
# restart of the same task in one tick read in causal order.
_SORT_RANK = {
    "arrival": 0,
    "preemption": 1,
    "completion": 2,
    "deadline_miss": 3,
    "budget_exhausted": 4,
    "deadline_postponed": 5,
    "server_recharge": 6,
    "job_aborted": 7,
    "job_skipped": 8,
    "job_start": 9,
}

# kinds that terminate an execution segment of the running job
STOP_KINDS = ("preemption", "completion", "job_aborted", "budget_exhausted")


@dataclass(frozen=True, slots=True, init=False)
class Event:
    """One trace event, immutable.

    ``__init__`` stores each field through its slot descriptor; the
    generated frozen ``__init__`` calls ``object.__setattr__`` per field and
    takes about 1.6 times as long.
    """

    tick: int
    kind: str
    task: int
    payload: dict

    def __init__(self, tick: int, kind: str, task: int, payload: dict):
        _set_tick(self, tick)
        _set_kind(self, kind)
        _set_task(self, task)
        _set_payload(self, payload)

    def sort_key(self):
        return (self.tick, _SORT_RANK[self.kind], self.task)


_set_tick, _set_kind, _set_task, _set_payload = (
    getattr(Event, name).__set__ for name in ("tick", "kind", "task", "payload"))


_CSV_HEADER = "tick,kind,task,payload\n"
# event kinds csv.writer writes without quotes
_PLAIN_KINDS = frozenset(EVENT_KINDS)
_encode_payload = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@dataclass(frozen=True)
class Trace:
    """Ordered event log of one simulation run.

    A trace is immutable.  What is derived from its events, the per-task job
    records and miss-event counts, is computed once, on first use, and kept;
    events appended to ``events`` in place after that are not seen by them.
    """

    events: List[Event]
    horizon: int
    task_ids: List[int]

    def __iter__(self):
        return iter(self.events)

    def of_kind(self, kind: str, task: Optional[int] = None) -> List[Event]:
        return [e for e in self.events
                if e.kind == kind and (task is None or e.task == task)]

    @cached_property
    def _miss_counts(self) -> Counter:
        return Counter(e.task for e in self.events if e.kind == "deadline_miss")

    def miss_count(self, task: Optional[int] = None) -> int:
        counts = self._miss_counts
        return counts.total() if task is None else counts[task]

    @cached_property
    def records(self) -> Dict[int, List[JobRecord]]:
        """``job_records()``, built on first use and kept; shared, so read-only."""
        return self.job_records()

    def job_records(self) -> Dict[int, List[JobRecord]]:
        """Rebuild per-task job records from arrival/completion/outcome events.

        Every job an outcome event names needs its arrival event; a trace
        recorded with a ``collect`` filter that drops arrivals is rejected.
        Each call builds the records afresh; ``records`` keeps one build.
        """
        records: Dict[int, Dict[int, JobRecord]] = {t: {} for t in self.task_ids}
        for e in self.events:
            jobs = records.setdefault(e.task, {})
            j = e.payload.get("job")
            if e.kind == "arrival":
                jobs[j] = JobRecord(e.task, j, e.tick, e.payload["deadline"],
                                    e.payload["demand"])
                continue
            if e.kind not in ("completion", "job_aborted", "job_skipped"):
                continue
            if j not in jobs:
                raise ConfigError(
                    "trace: %s of task %d job %s at tick %d has no arrival event "
                    "(was the trace recorded with a scheduler.collect filter "
                    "that drops 'arrival'?)" % (e.kind, e.task, j, e.tick))
            if e.kind == "completion":
                jobs[j].completion = e.tick
                jobs[j].outcome = "late" if e.payload["late"] else "met"
            elif e.kind == "job_aborted":
                jobs[j].outcome = "aborted"
            else:
                jobs[j].outcome = "skipped"
        return {t: [jobs[k] for k in sorted(jobs)] for t, jobs in records.items()}

    def to_csv(self) -> str:
        """The trace as CSV: header ``tick,kind,task,payload``, one row per
        event, the payload as compact sorted-key JSON.

        The bytes are those ``csv.writer`` (minimal quoting, ``\\n`` line
        ends) writes for these rows.  All payloads are encoded by one JSON
        call; a row whose tick or task is not an ``int`` or whose kind is not
        one of ``EVENT_KINDS`` is written by ``csv.writer`` itself.
        """
        events = self.events
        fields = _payload_fields([e.payload for e in events])
        if fields is None:
            return _CSV_HEADER + "".join(map(_csv_row, events))
        return _CSV_HEADER + "".join([
            f"{e.tick},{e.kind},{e.task},{field}\n"
            if type(e.tick) is int and type(e.task) is int
            and type(e.kind) is str and e.kind in _PLAIN_KINDS
            else _csv_row(e)
            for e, field in zip(events, fields)])

    def to_jsonl(self) -> str:
        return "\n".join(_encode_payload({"tick": e.tick, "kind": e.kind, "task": e.task,
                                          "payload": e.payload}) for e in self.events) + "\n"

    @classmethod
    def from_csv(cls, text: str, horizon: Optional[int] = None) -> "Trace":
        """Read ``to_csv`` output.

        A malformed row (not four fields, a tick or task that is not an
        integer, a payload that is not one JSON object) is a ``ConfigError``
        naming its line.
        """
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader, None)
        except csv.Error:
            header = None
        if header != ["tick", "kind", "task", "payload"]:
            raise ConfigError("trace: expected header tick,kind,task,payload")
        columns = _bulk_columns(reader)
        if columns is None:
            return cls._from_events(_checked_events(text), horizon)
        ticks, kinds, tasks, payloads = columns
        if horizon is None:
            horizon = max(ticks, default=0)
        return cls(list(map(Event, ticks, kinds, tasks, payloads)), horizon,
                   sorted(set(tasks)))

    @classmethod
    def from_jsonl(cls, text: str, horizon: Optional[int] = None) -> "Trace":
        """Read ``to_jsonl`` output: one JSON object per line with an integer
        ``tick`` and ``task``, a string ``kind`` and an object ``payload``;
        blank lines are skipped.  Anything else is a ``ConfigError`` naming
        the line."""
        events = []
        for n, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                d = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise ConfigError("trace: line %d: not JSON (%s)" % (n, exc))
            if type(d) is not dict:
                raise ConfigError("trace: line %d: expected a JSON object" % n)
            missing = [k for k in ("tick", "kind", "task", "payload") if k not in d]
            if missing:
                raise ConfigError("trace: line %d: missing key %r" % (n, missing[0]))
            if type(d["tick"]) is not int or type(d["task"]) is not int:
                raise ConfigError("trace: line %d: tick and task must be integers" % n)
            if type(d["kind"]) is not str:
                raise ConfigError("trace: line %d: kind must be a string" % n)
            if type(d["payload"]) is not dict:
                raise ConfigError("trace: line %d: payload must be a JSON object" % n)
            events.append(Event(d["tick"], d["kind"], d["task"], d["payload"]))
        return cls._from_events(events, horizon)

    @classmethod
    def _from_events(cls, events, horizon):
        if horizon is None:
            horizon = max((e.tick for e in events), default=0)
        return cls(events, horizon, sorted({e.task for e in events}))


def _csv_row(e: Event) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(
        [e.tick, e.kind, e.task, _encode_payload(e.payload)])
    return buf.getvalue()


def _payload_fields(payloads: List[object]) -> Optional[List[str]]:
    """Each payload's JSON as a quoted CSV field, from one JSON call.

    The payloads are encoded as one list and split back at ``},{``.  That
    is exact when every payload is a dict and no encoded dict holds ``},{``
    itself; otherwise the split yields more parts than payloads and the
    result is None.  A non-empty dict's JSON holds quotes and is quoted,
    ``{}`` is not.
    """
    if any(type(p) is not dict for p in payloads):
        return None
    parts = _encode_payload(payloads)[2:-2].replace('"', '""').split("},{")
    if len(parts) != len(payloads):
        return None
    return ['"{%s}"' % p if p else "{}" for p in parts]


def _bulk_columns(rows: Iterable[List[str]]) -> Optional[Tuple[list, list, list, list]]:
    """The tick, kind, task and payload columns of CSV rows, ticks and tasks
    as ints and every payload decoded by one ``json.loads``.

    Returns None unless every row has four fields and integer tick and task
    and the payloads pass the check below; ``_checked_events`` reads the rest.

    The n payloads are joined by ",\\n" and decoded as one JSON array.  The
    join must hold n - 1 newlines, so no payload holds one, and n "{", one
    at the start of every payload, and it must decode to n objects.  Each
    object then owns one "{", so none is nested or in a string, and object
    i opens at payload i's start.  It closes before object i + 1 opens, and
    what follows it in payload i can only be whitespace, since anything else
    would be a further array element.  So each object is what ``json.loads``
    of its payload alone reads.
    """
    ticks, kinds, tasks, payloads = [], [], [], []
    try:
        for tick, kind, task, payload in rows:
            ticks.append(tick)
            kinds.append(kind)
            tasks.append(task)
            payloads.append(payload)
        ticks = list(map(int, ticks))
        tasks = list(map(int, tasks))
        n = len(payloads)
        joined = ",\n".join(payloads)
        if joined.count("\n") != n - 1 or joined.count("{") != n \
                or ("\n" + joined).count("\n{") != n:
            return None
        values = json.loads("[%s]" % joined)
    except (ValueError, RecursionError, csv.Error):
        return None
    if len(values) != n or set(map(type, values)) != {dict}:
        return None
    return ticks, kinds, tasks, values


def _checked_events(text: str) -> List[Event]:
    """Events of a CSV trace, row by row, naming the line of a malformed one."""
    reader = csv.reader(io.StringIO(text))
    next(reader)
    events = []
    while True:
        where = "trace: line %d: " % (reader.line_num + 1)  # where the row starts
        try:
            row = next(reader, None)
        except csv.Error as exc:
            raise ConfigError(where + str(exc))
        if row is None:
            return events
        if len(row) != 4:
            raise ConfigError(where + "expected 4 fields tick,kind,task,payload, "
                              "got %d" % len(row))
        try:
            tick, task = int(row[0]), int(row[2])
        except ValueError:
            raise ConfigError(where + "tick and task must be integers, got %r and %r"
                              % (row[0], row[2]))
        try:
            payload = json.loads(row[3])
        except (ValueError, RecursionError):
            payload = None
        if type(payload) is not dict:
            raise ConfigError(where + "payload must be one JSON object, got %r" % row[3])
        events.append(Event(tick, row[1], task, payload))


# ---------------------------------------------------------------------------
# reservation state machine

Budget = Union[int, Fraction]  # Fraction only under grub reclaiming


@dataclass(slots=True)
class ServerState:
    """Mutable per-run state of one reservation server.

    The ``cbs_*`` rules below update it in place and return it.
    """

    task_id: int
    remaining_budget: Budget
    current_deadline: int
    status: str = "idle"  # idle | active | suspended
    suspended_until: Optional[int] = None


def cbs_on_arrival(server: ServerState, now: int, spec: ReservationSpec) -> ServerState:
    """Admission test when a job reaches an idle server.

    The pair (budget, deadline) is kept only if serving the leftover budget by
    the current deadline stays within the reserved bandwidth, i.e. if
    q * P < (d - now) * Q evaluated exactly; otherwise the server is reset to
    a full budget with deadline now + P.  A stale deadline (d <= now) with a
    non-negative leftover always fails the test and resets.
    """
    if server.remaining_budget * spec.period >= \
            (server.current_deadline - now) * spec.budget:
        server.remaining_budget = spec.budget
        server.current_deadline = now + spec.period
    server.status = "active"
    return server


def cbs_on_exhaustion(server: ServerState, now: int, spec: ReservationSpec) -> ServerState:
    """Budget ran out with work still pending.

    Soft servers immediately recharge and postpone the deadline by one server
    period, staying ready (at lower EDF priority).  Hard servers suspend until
    the current deadline; the recharge happens at wake-up via cbs_wake.
    """
    if spec.variant == "soft_postpone":
        server.remaining_budget = spec.budget
        server.current_deadline += spec.period
        server.status = "active"
    else:
        server.status = "suspended"
        server.suspended_until = server.current_deadline
    return server


def cbs_wake(server: ServerState, spec: ReservationSpec) -> ServerState:
    """End of a hard suspension: full budget, deadline moved one period on."""
    server.remaining_budget = spec.budget
    server.current_deadline += spec.period
    server.status = "active"
    server.suspended_until = None
    return server


def grub_tick(active: Iterable[ReservationSpec], executing: ReservationSpec) -> Budget:
    """Budget drain for one executing tick under bandwidth reclaiming.

    The executing server pays only the total bandwidth of currently active
    servers (a server is active while it has pending work), so spare
    bandwidth stretches the budget.  Without reclaiming the drain is the
    integer 1 and ``active`` is not read, so plain budgets stay integers.
    """
    if executing.reclaiming != "grub":
        return 1
    u_act = sum((s.bandwidth for s in active), Fraction(0))
    return min(u_act, Fraction(1)) if u_act > 0 else Fraction(1)


# ---------------------------------------------------------------------------
# simulation


@dataclass(frozen=True)
class SchedulerConfig:
    kind: str  # edf | fixed_priority | cbs_edf
    horizon: int
    priorities: Optional[Dict[int, int]] = None  # fixed_priority: lower runs first
    reservations: Optional[Dict[int, ReservationSpec]] = None  # cbs_edf: per task id
    miss_detection: str = "deadline"  # deadline | completion
    collect: Optional[frozenset] = None  # record only these kinds when set

    def __post_init__(self):
        if self.kind not in ("edf", "fixed_priority", "cbs_edf"):
            raise ConfigError("scheduler.kind: must be edf, fixed_priority or cbs_edf")
        if not _is_int(self.horizon) or self.horizon < 1:
            raise ConfigError("scheduler.horizon: must be a positive integer")
        if self.kind == "fixed_priority" and not self.priorities:
            raise ConfigError("scheduler.priorities: required for fixed_priority")
        for tid, prio in (self.priorities or {}).items():
            if not _is_int(prio):
                raise ConfigError("scheduler.priorities[%s]: must be an integer, got %r"
                                  % (tid, prio))
        if self.kind == "cbs_edf" and not self.reservations:
            raise ConfigError("scheduler.reservations: required for cbs_edf")
        if self.miss_detection not in ("deadline", "completion"):
            raise ConfigError("scheduler.miss_detection: must be deadline or completion")
        if self.collect is not None:
            unknown = sorted(set(self.collect) - set(EVENT_KINDS))
            if unknown:
                raise ConfigError("scheduler.collect: unknown event kind %r (expected "
                                  "some of %s)" % (unknown[0], ", ".join(EVENT_KINDS)))


class _Job:
    __slots__ = ("task", "index", "arrival", "deadline", "demand", "executed",
                 "outcome")

    def __init__(self, task_id, index, arrival, deadline, demand):
        self.task = task_id
        self.index = index
        self.arrival = arrival
        self.deadline = deadline
        self.demand = demand
        self.executed = 0
        self.outcome = None  # met | late | aborted | skipped; None while open


def simulate(tasks: Sequence[TaskSpec], scheduler: SchedulerConfig, seed=0) -> Trace:
    """Run the task set to the horizon and return the sorted event trace.

    Deterministic: the same (tasks, scheduler, seed) triple always yields a
    byte-identical trace.  Per-job demand and arrival-gap draws are keyed by
    (seed, task id, job index), so one task's stochastic model never perturbs
    another task's samples.

    Each visited tick runs the per-tick steps in a fixed order: completion of
    the previous tick's work, hard-server wake-ups, deadline checks, arrivals,
    budget exhaustion, dispatch.  A debug line on the ``softrt.simcore``
    logger reports the ticks visited and the events emitted and collected.
    """
    tasks = sorted(tasks, key=lambda t: t.id)
    ids = [t.id for t in tasks]
    if len(set(ids)) != len(ids):
        raise ConfigError("tasks: duplicate task id")
    if scheduler.kind == "fixed_priority":
        missing = [t.id for t in tasks if t.id not in scheduler.priorities]
        if missing:
            raise ConfigError("scheduler.priorities: missing task id %s" % missing[0])
    if scheduler.kind == "cbs_edf":
        missing = [t.id for t in tasks if t.id not in scheduler.reservations]
        if missing:
            raise ConfigError("scheduler.reservations: missing task id %s" % missing[0])

    horizon = scheduler.horizon
    cbs = scheduler.kind == "cbs_edf"
    edf = scheduler.kind == "edf"
    reservations = scheduler.reservations
    priorities = scheduler.priorities
    on_deadline = scheduler.miss_detection == "deadline"
    policy = {t.id: t.miss_policy for t in tasks}
    collect = scheduler.collect
    # An event is built only for a recorded kind: every site tests its
    # kind's flag (unpacked in EVENT_KINDS order) first.  With the debug
    # line on, every kind is recorded, so that the line can count what a
    # collect filter drops.
    debug = log.isEnabledFor(logging.DEBUG)
    keep = EVENT_KINDS if collect is None or debug else collect
    (rec_arrival, rec_start, rec_preempt, rec_completion, rec_miss, rec_exhausted,
     rec_postponed, rec_recharge, rec_aborted, rec_skipped) = \
        (kind in keep for kind in EVENT_KINDS)
    events: List[Event] = []
    add = events.append

    # every job's (arrival, task id, index, demand, deadline) in visiting
    # order; the draws are keyed independently per (task, job)
    arrivals = []
    for t in tasks:
        arrivals.extend((a, t.id, j, t.demand(j, seed), a + t.rel_deadline)
                        for j, a in enumerate(t.arrivals(horizon, seed)))
    arrivals.sort()
    arrivals.append((horizon, -1, 0, 0, 0))  # sentinel past the last arrival
    next_arrival = 0

    queues: Dict[int, deque] = {i: deque() for i in ids}  # open jobs, arrival order
    servers: Dict[int, ServerState] = \
        {i: ServerState(i, 0, 0, "idle") for i in ids} if cbs else {}
    deadlines: list = []  # heap of (deadline, task id, job index, job), deadline mode only
    wakes: list = []  # heap of (wake tick, task id) of suspended hard servers

    def drop(job, q):
        """Take a resolved job off its queue; an emptied active server goes
        idle, keeping (q, d) for the admission test of a later arrival."""
        q.remove(job)
        if cbs and not q and servers[job.task].status == "active":
            servers[job.task].status = "idle"

    def resolve_completion(job, t):
        late = t > job.deadline
        job.outcome = "late" if late else "met"
        if late and rec_miss and not on_deadline:
            add(Event(t, "deadline_miss", job.task, {"job": job.index}))
        if rec_completion:
            add(Event(t, "completion", job.task, {"job": job.index, "late": late}))
        q = queues[job.task]
        drop(job, q)
        if late and policy[job.task] == "skip_late":
            while q and q[0].arrival < t:
                stale = q[0]
                stale.outcome = "skipped"
                if rec_skipped:
                    add(Event(t, "job_skipped", job.task, {"job": stale.index}))
                drop(stale, q)

    def exhaust(tid, t):
        """Budget exhaustion, for a server tid whose budget is spent: if it
        has pending work, returns the job whose execution segment this
        closes, else None."""
        s = servers[tid]
        q = queues[tid]
        if s.status != "active" or not q:
            return None
        spec = reservations[tid]
        job = q[0]
        if rec_exhausted:
            add(Event(t, "budget_exhausted", tid, {"job": job.index}))
        cbs_on_exhaustion(s, t, spec)
        if s.status == "suspended":
            if s.suspended_until > t:
                heappush(wakes, (s.suspended_until, tid))
                return job
            cbs_wake(s, spec)
        if rec_recharge:
            add(Event(t, "server_recharge", tid, {"budget": spec.budget}))
        if rec_postponed:
            add(Event(t, "deadline_postponed", tid, {"deadline": s.current_deadline}))
        return job

    runner: Optional[_Job] = None  # job that executed in the tick before t
    visited = 0
    t = 0
    while True:
        visited += 1
        ran = runner  # its server may have run out of budget at t

        # 1. completion of work executed up to t
        if runner is not None and runner.executed == runner.demand:
            resolve_completion(runner, t)
            runner = None

        # 2. hard-server wake-ups due now, in task id order
        while wakes and wakes[0][0] <= t:
            tid = heappop(wakes)[1]
            spec = reservations[tid]
            s = cbs_wake(servers[tid], spec)
            if not queues[tid]:
                s.status = "idle"
            if rec_recharge:
                add(Event(t, "server_recharge", tid, {"budget": spec.budget}))
            if rec_postponed:
                add(Event(t, "deadline_postponed", tid, {"deadline": s.current_deadline}))

        # 3. deadline checks and miss policies, in task id order
        while deadlines and deadlines[0][0] <= t:
            job = heappop(deadlines)[3]
            if job.outcome is not None:
                continue
            if rec_miss:
                add(Event(t, "deadline_miss", job.task, {"job": job.index}))
            if policy[job.task] == "abort":
                job.outcome = "aborted"
                if rec_aborted:
                    add(Event(t, "job_aborted", job.task,
                              {"job": job.index, "remaining": job.demand - job.executed}))
                drop(job, queues[job.task])

        if t == horizon:
            break

        # 4. arrivals at t, in task id order; a server admitted here may
        # have no budget, and is checked at once (servers are independent,
        # and a task has one arrival per tick at most)
        while arrivals[next_arrival][0] == t:
            _, tid, j, demand, deadline = arrivals[next_arrival]
            next_arrival += 1
            job = _Job(tid, j, t, deadline, demand)
            if rec_arrival:
                add(Event(t, "arrival", tid,
                          {"job": j, "deadline": deadline, "demand": demand}))
            q = queues[tid]
            was_empty = not q
            q.append(job)
            if on_deadline:
                heappush(deadlines, (deadline, tid, j, job))
            if cbs and was_empty and servers[tid].status == "idle":
                s = servers[tid]
                spec = reservations[tid]
                before = (s.remaining_budget, s.current_deadline)
                cbs_on_arrival(s, t, spec)
                if rec_recharge and (s.remaining_budget, s.current_deadline) != before:
                    add(Event(t, "server_recharge", tid,
                              {"budget": spec.budget, "deadline": s.current_deadline}))
                if s.remaining_budget <= 0:
                    exhaust(tid, t)

        # 5. budget exhaustion of the server that executed up to t
        exhausted = None  # the job whose segment that closed
        if cbs and ran is not None and servers[ran.task].remaining_budget <= 0:
            exhausted = exhaust(ran.task, t)

        # 6. dispatch for [t, t+1)
        pick = None
        best = None
        for tid in ids:
            q = queues[tid]
            if not q:
                continue
            if cbs:
                s = servers[tid]
                if s.status != "active":
                    continue
                key = (s.current_deadline, tid)
            elif edf:
                key = (q[0].deadline, q[0].arrival, tid)
            else:
                key = (priorities[tid], tid)
            if best is None or key < best:
                best, pick = key, q[0]

        # a runner that completed, was aborted or ran out of budget at t has
        # already closed its segment; one that did not and lost the
        # processor is preempted
        if rec_preempt and runner is not None and runner is not pick and \
                runner.outcome is None and exhausted is not runner:
            add(Event(t, "preemption", runner.task, {"job": runner.index}))
        if rec_start and pick is not None and (pick is not runner or exhausted is pick):
            add(Event(t, "job_start", pick.task,
                      {"job": pick.index, "resumed": pick.executed > 0}))

        # 7. run the pick up to the next tick where something can change
        nxt = arrivals[next_arrival][0]
        while deadlines and deadlines[0][3].outcome is not None:
            heappop(deadlines)
        if deadlines and deadlines[0][0] < nxt:
            nxt = deadlines[0][0]
        if wakes and wakes[0][0] < nxt:
            nxt = wakes[0][0]
        if pick is not None:
            end = t + pick.demand - pick.executed
            if end < nxt:
                nxt = end
            if cbs:
                s = servers[pick.task]
                spec = reservations[pick.task]
                # grub_tick drains 1 for a server that does not reclaim
                drain = grub_tick([reservations[i] for i in ids if queues[i]], spec) \
                    if spec.reclaiming == "grub" else 1
                budget = s.remaining_budget
                end = t - (-budget // drain)  # ceil(budget / drain)
                if end < nxt:
                    nxt = end
                s.remaining_budget = budget - drain * (nxt - t)
            pick.executed += nxt - t
        runner = pick
        t = nxt

    events.sort(key=Event.sort_key)
    if debug:
        emitted = len(events)
        if collect is not None:
            events = [e for e in events if e.kind in collect]
        log.debug("simulate: visited %d of %d ticks; emitted %d events, collected %d",
                  visited, horizon + 1, emitted, len(events))
    return Trace(events, horizon, ids)
