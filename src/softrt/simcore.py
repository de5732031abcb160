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

Each event is an ``Event``, a ``(tick, kind, task, payload)`` named tuple.
The engine and the trace readers build it with ``_event``, one C call.
A trace is sorted by (tick, the kind's position in ``EVENT_KINDS``, task).
Both trace readers check a row by one rule, ``_row``, and ``SchedulerConfig``
its fields by taskmodel's rules (``collect`` by ``_items`` and ``_choice``).

Building, reading and taking the records of a trace runs with the cyclic
garbage collector paused (``_gc_paused``).  These calls allocate a
container object or more per event and build no reference cycles, so on a
long trace a collection finds nothing: it only walks the objects the
process already holds, many times over.

All quantities are integers.  Budgets count in units of 1/L tick, L the lcm
of the run's reservation periods if any server reclaims and 1 otherwise, so
a server recharges to Q*L and drains L per tick it runs, or, under
``reclaiming="grub"``, the active bandwidth capped at 1: min(sum Q_i*L/P_i, L)
over the servers with pending work, exact as each P_i divides L.

Tie-breaking is documented and total: EDF orders ready jobs by
(absolute deadline, arrival tick, task id); reservation scheduling orders
servers by (server deadline, task id); fixed priority orders by
(priority value, task id) with smaller values running first.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import logging
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property, partial, wraps
from heapq import heappop, heappush, merge
from itertools import starmap
from math import lcm
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import ConfigError
from .taskmodel import (JobRecord, ReservationSpec, TaskSpec, _choice, _counts, _integer,
                        _items)

log = logging.getLogger(__name__)

# Every event kind, in the order its events take within one tick: what ends or
# accounts for the previous tick's execution comes before the job_start of the
# next dispatch, so a stop and a restart of one task read in causal order.
EVENT_KINDS = (
    "arrival",
    "preemption",
    "completion",
    "deadline_miss",
    "budget_exhausted",
    "deadline_postponed",
    "server_recharge",
    "job_aborted",
    "job_skipped",
    "job_start",
)
_SORT_RANK = {kind: rank for rank, kind in enumerate(EVENT_KINDS)}

# kinds that terminate an execution segment of the running job
STOP_KINDS = ("preemption", "completion", "job_aborted", "budget_exhausted")


class Event(NamedTuple):
    """One trace event: an immutable ``(tick, kind, task, payload)`` tuple.

    ``payload`` is the kind's JSON object, e.g. ``{"job": 0, "late": False}``
    for a completion.  ``_event((tick, kind, task, payload))`` builds the
    same value as ``Event(tick, kind, task, payload)`` in one C call, where
    the generated ``__new__`` is a Python function.
    """

    tick: int
    kind: str
    task: int
    payload: dict

    def sort_key(self):
        return (self.tick, _SORT_RANK[self.kind], self.task)


_event = partial(tuple.__new__, Event)


def _gc_paused(fn):
    """``fn`` run with the cyclic garbage collector paused.

    When the collector is enabled, it is disabled for the call and enabled
    again in ``finally``, also when ``fn`` raises; when the caller has
    disabled it, the call leaves it alone.  This is safe for the calls it
    wraps because they build no reference cycles: every object they
    allocate is freed by reference counting, so pausing skips collections
    that would find nothing (tests/test_simcore.py checks that
    ``gc.collect()`` returns 0 after each).  A cycle that does appear is
    not leaked: the next collection after the call frees it.
    """
    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


def _payload_error(event: Event, names: Sequence[str], want: type) -> ConfigError:
    """The error for an event whose payload lacks one of ``names`` or holds
    one whose type is not ``want`` (int or bool); it names the first such
    field.  Called only once one of them has failed that check."""
    tick, kind, task, payload = event
    where = "trace: %s of task %s at tick %s" % (kind, task, tick)
    for name in names:
        if name not in payload:
            return ConfigError("%s has no payload field %r" % (where, name))
        if type(payload[name]) is not want:
            return ConfigError("%s: payload field %r must be %s, got %r" % (
                where, name, "an integer" if want is int else "true or false",
                payload[name]))


_CSV_HEADER = "tick,kind,task,payload\n"
# what an outcome event makes of its job; a completion reads its "late" field
_OUTCOMES = {"completion": None, "job_aborted": "aborted", "job_skipped": "skipped"}
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

    def __post_init__(self):
        _counts(self, "", horizon=0)

    def __iter__(self):
        return iter(self.events)

    def of_kind(self, kind: str, task: Optional[int] = None) -> List[Event]:
        return [e for e in self.events
                if e.kind == kind and (task is None or e.task == task)]

    @cached_property
    def _miss_counts(self) -> Counter:
        return Counter([e.task for e in self.events if e.kind == "deadline_miss"])

    def miss_count(self, task: Optional[int] = None) -> int:
        counts = self._miss_counts
        return counts.total() if task is None else counts[task]

    @cached_property
    def records(self) -> Dict[int, List[JobRecord]]:
        """``job_records()``, built on first use and kept; shared, so read-only.
        ``analysis`` and ``render`` take a trace's jobs from here alone."""
        return self.job_records()

    @_gc_paused
    def job_records(self) -> Dict[int, List[JobRecord]]:
        """Rebuild per-task job records from arrival/completion/outcome events.

        Every job an outcome event names needs its arrival event, and one
        only; a trace recorded with a ``collect`` filter that drops arrivals,
        or naming one job in two arrivals, is rejected.
        The fields read must be in the payload and of their type: integer
        ``job``, ``deadline`` and ``demand``, and a boolean ``late`` in a
        completion; anything else is a ``ConfigError`` naming the event and
        the field.  Each call builds the records afresh; ``records`` keeps
        one build.
        """
        records: Dict[int, Dict[int, JobRecord]] = {t: {} for t in self.task_ids}
        for e in self.events:
            tick, kind, task, payload = e
            jobs = records.get(task)
            if jobs is None:
                jobs = records[task] = {}
            if kind == "arrival":
                j, deadline, demand = (payload.get("job"), payload.get("deadline"),
                                       payload.get("demand"))
                if type(j) is not int or type(deadline) is not int \
                        or type(demand) is not int:
                    raise _payload_error(e, ("job", "deadline", "demand"), int)
                if j in jobs:
                    raise ConfigError("trace: arrival of task %d job %d at tick %d repeats "
                                      "its arrival at tick %d" % (task, j, tick,
                                                                  jobs[j].arrival))
                jobs[j] = JobRecord(task, j, tick, deadline, demand)
                continue
            if kind not in _OUTCOMES:
                continue
            j = payload.get("job")
            if type(j) is not int:
                raise _payload_error(e, ("job",), int)
            job = jobs.get(j)
            if job is None:
                raise ConfigError(
                    "trace: %s of task %d job %s at tick %d has no arrival event "
                    "(was the trace recorded with a scheduler.collect filter "
                    "that drops 'arrival'?)" % (kind, task, j, tick))
            if kind == "completion":
                late = payload.get("late")
                if type(late) is not bool:
                    raise _payload_error(e, ("late",), bool)
                job.completion = tick
                job.outcome = "late" if late else "met"
            else:
                job.outcome = _OUTCOMES[kind]
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
            return _CSV_HEADER + "".join(starmap(_csv_row, events))
        return _CSV_HEADER + "".join([
            f"{tick},{kind},{task},{field}\n"
            if type(tick) is int and type(task) is int
            and type(kind) is str and kind in _SORT_RANK
            else _csv_row(tick, kind, task, payload)
            for (tick, kind, task, payload), field in zip(events, fields)])

    def to_jsonl(self) -> str:
        return "\n".join(_encode_payload({"tick": tick, "kind": kind, "task": task,
                                          "payload": payload})
                         for tick, kind, task, payload in self.events) + "\n"

    @classmethod
    @_gc_paused
    def from_csv(cls, text: str, horizon: Optional[int] = None) -> "Trace":
        """Read ``to_csv`` output.

        A malformed row (not four fields, a tick or task that is not an
        ASCII integer, a kind not in ``EVENT_KINDS``, a payload that is not
        one JSON object) is a ``ConfigError`` naming its line.  The horizon
        is checked as ``_from_events`` says.
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
        return cls._from_events(list(map(_event, zip(ticks, kinds, tasks, payloads))),
                                horizon, ticks, tasks)

    @classmethod
    @_gc_paused
    def from_jsonl(cls, text: str, horizon: Optional[int] = None) -> "Trace":
        """Read ``to_jsonl`` output: one JSON object per line with an integer
        ``tick`` and ``task``, a ``kind`` in ``EVENT_KINDS`` and an object
        ``payload``; blank lines are skipped.  Anything else is a
        ``ConfigError`` naming the line.  The horizon is checked as
        ``_from_events`` says."""
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
            events.append(_row("trace: line %d: " % n, d["tick"], d["kind"], d["task"],
                               d["payload"]))
        return cls._from_events(events, horizon)

    @classmethod
    def _from_events(cls, events, horizon, ticks=None, tasks=None) -> "Trace":
        """The trace of what a reader read (``ticks`` and ``tasks``: the
        events' columns, if it has them).  The horizon defaults to the last
        event's tick, 0 for none, and may not be below it: that drops jobs."""
        if ticks is None:
            ticks, tasks = [e.tick for e in events], [e.task for e in events]
        last = max(ticks, default=0)
        if horizon is None:
            horizon = last
        elif _integer(horizon, "horizon", 0) < last:
            raise ConfigError("horizon: must be >= %d, the trace's last tick, got %d"
                              % (last, horizon))
        return cls(events, horizon, sorted(set(tasks)))


def _csv_row(tick, kind, task, payload) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(
        [tick, kind, task, _encode_payload(payload)])
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

    Returns None unless every row has four fields, tick and task that
    ``_ints`` reads and a kind in ``EVENT_KINDS``, and the payloads pass the
    check below; ``_checked_events`` reads the rest.

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
        ticks, tasks = _ints(ticks), _ints(tasks)
        n = len(payloads)
        joined = ",\n".join(payloads)
        if joined.count("\n") != n - 1 or joined.count("{") != n \
                or ("\n" + joined).count("\n{") != n:
            return None
        values = json.loads("[%s]" % joined)
    except (ValueError, RecursionError, csv.Error):
        return None
    if len(values) != n or set(map(type, values)) != {dict} \
            or not _SORT_RANK.keys() >= set(kinds):
        return None
    return ticks, kinds, tasks, values


def _ints(fields: List[str]) -> List[int]:
    """The CSV fields as ints if each is ASCII -?[0-9]+, as to_csv writes
    them; else ValueError.  One strip of the joined fields finds any other
    character, and int() reads a field of these alone only in that form."""
    if "".join(fields).strip("-0123456789"):
        raise ValueError("not an integer")
    return list(map(int, fields))


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
            tick, task = _ints([row[0], row[2]])
        except ValueError:
            tick, task = row[0], row[2]
        try:
            payload = json.loads(row[3])
        except (ValueError, RecursionError):
            payload = None
        events.append(_row(where, tick, row[1], task,
                           payload if type(payload) is dict else row[3]))


def _row(where: str, tick, kind, task, payload) -> Event:
    """The event of one row of a trace file: tick and task must be ints, kind
    one of EVENT_KINDS and payload a dict, or else a ConfigError that starts
    with where, checked in that order."""
    if type(tick) is not int or type(task) is not int:
        raise ConfigError(where + "tick and task must be integers, got %r and %r"
                          % (tick, task))
    _choice(kind, where + "kind", EVENT_KINDS)
    if type(payload) is not dict:
        raise ConfigError(where + "payload must be one JSON object, got %r" % (payload,))
    return _event((tick, kind, task, payload))


# ---------------------------------------------------------------------------
# reservation state machine

@dataclass(slots=True)
class ServerState:
    """Mutable per-run state of one reservation server.

    The ``cbs_*`` rules below update it in place and return it.  The
    budget counts in units of 1/``per_tick`` tick.
    """

    task_id: int
    remaining_budget: int
    current_deadline: int
    status: str = "idle"  # idle | active | suspended
    suspended_until: Optional[int] = None
    per_tick: int = 1


def cbs_on_arrival(server: ServerState, now: int, spec: ReservationSpec) -> ServerState:
    """Admission test when a job reaches an idle server.

    The pair (budget, deadline) is kept only if serving the leftover budget by
    the current deadline stays within the reserved bandwidth, i.e. if
    q * P < (d - now) * Q * per_tick; otherwise the server is reset to a full
    budget with deadline now + P.  A stale deadline (d <= now) with a
    non-negative leftover always fails the test and resets.
    """
    if server.remaining_budget * spec.period >= \
            (server.current_deadline - now) * spec.budget * server.per_tick:
        server.remaining_budget = spec.budget * server.per_tick
        server.current_deadline = now + spec.period
    server.status = "active"
    return server


def cbs_on_exhaustion(server: ServerState, now: int, spec: ReservationSpec) -> ServerState:
    """The budget ran out with work still pending.

    A soft server recharges at once through cbs_wake: full budget, deadline
    postponed by one server period, still ready (at lower EDF priority).  So
    does a hard server whose current deadline is already <= now.  Any other
    hard server suspends until its current deadline, and cbs_wake recharges
    it then.
    """
    if spec.variant == "soft_postpone" or server.current_deadline <= now:
        return cbs_wake(server, spec)
    server.status = "suspended"
    server.suspended_until = server.current_deadline
    return server


def cbs_wake(server: ServerState, spec: ReservationSpec) -> ServerState:
    """Recharge: full budget, deadline moved one period on, server ready."""
    server.remaining_budget = spec.budget * server.per_tick
    server.current_deadline += spec.period
    server.status = "active"
    server.suspended_until = None
    return server


# ---------------------------------------------------------------------------
# simulation


@dataclass(frozen=True)
class SchedulerConfig:
    kind: str  # edf | fixed_priority | cbs_edf
    horizon: int
    priorities: Optional[Dict[int, int]] = None  # fixed_priority: lower runs first
    reservations: Optional[Dict[int, ReservationSpec]] = None  # cbs_edf: per task id
    collect: Optional[frozenset] = None  # record only these kinds when set

    def __post_init__(self):
        _choice(self.kind, "scheduler.kind", ("edf", "fixed_priority", "cbs_edf"))
        _counts(self, "scheduler.", horizon=1)
        for name, owner in (("priorities", "fixed_priority"), ("reservations", "cbs_edf")):
            by_task = getattr(self, name)  # a dict by task id, an int >= 0
            if self.kind != owner and by_task is not None:
                raise ConfigError("scheduler.%s: not applicable to %s" % (name, self.kind))
            if not isinstance(by_task, (dict, type(None))):
                raise ConfigError("scheduler.%s: must be a dict by task id, got %r"
                                  % (name, by_task))
            if self.kind == owner and not by_task:
                raise ConfigError("scheduler.%s: required for %s" % (name, owner))
            if by_task is not None:
                object.__setattr__(self, name, {
                    _integer(tid, "scheduler.%s[%r]" % (name, tid), 0): v
                    for tid, v in by_task.items()})
        if self.priorities is not None:
            object.__setattr__(self, "priorities", {
                tid: _integer(prio, "scheduler.priorities[%s]" % tid)
                for tid, prio in self.priorities.items()})
        for tid, spec in (self.reservations or {}).items():
            if not isinstance(spec, ReservationSpec):
                raise ConfigError("scheduler.reservations[%s]: must be a ReservationSpec, "
                                  "got %r" % (tid, spec))
        if self.collect is not None:
            object.__setattr__(self, "collect", frozenset(
                _choice(kind, "scheduler.collect[%d]" % i, EVENT_KINDS)
                for i, kind in enumerate(_items(self.collect, "scheduler.collect"))))


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


@_gc_paused
def simulate(tasks: Sequence[TaskSpec], scheduler: SchedulerConfig, seed=0) -> Trace:
    """Run the task set to the horizon and return the sorted event trace.

    Deterministic: the same (tasks, scheduler, seed) triple always yields a
    byte-identical trace.  Per-job demand and arrival-gap draws are keyed by
    (seed, task id, job index), so one task's stochastic model never perturbs
    another task's samples, and each job is drawn when the engine reaches its
    arrival: memory grows with the open jobs and the recorded events, not
    with the horizon.

    Each visited tick runs the per-tick steps in a fixed order: completion of
    the previous tick's work, hard-server wake-ups, deadline checks, arrivals,
    budget exhaustion, dispatch.  A server recharged at exhaustion (soft, or
    hard at its deadline) records its recharge there, as a woken one does.
    A debug line on the ``softrt.simcore`` logger reports the ticks visited
    and the events emitted and collected.
    """
    tasks = sorted(tasks, key=lambda t: t.id)
    ids = [t.id for t in tasks]
    if len(set(ids)) != len(ids):
        raise ConfigError("tasks: duplicate task id")
    for name in ("priorities", "reservations"):
        by_task = getattr(scheduler, name)  # set only when the kind reads it
        missing = [i for i in ids if by_task is not None and i not in by_task]
        if missing:
            raise ConfigError("scheduler.%s: missing task id %s" % (name, missing[0]))

    horizon = scheduler.horizon
    cbs = scheduler.kind == "cbs_edf"
    edf = scheduler.kind == "edf"
    reservations = scheduler.reservations
    priorities = scheduler.priorities
    policy = {t.id: t.miss_policy for t in tasks}
    collect = scheduler.collect
    # An event is built only for a recorded kind: every site tests its
    # kind's flag (unpacked in EVENT_KINDS order) first.  With the debug
    # line on, every kind is recorded, so that the line can count what a
    # collect filter drops.
    debug = log.isEnabledFor(logging.DEBUG)
    keep = EVENT_KINDS if collect is None or debug else collect
    (rec_arrival, rec_preempt, rec_completion, rec_miss, rec_exhausted, rec_postponed,
     rec_recharge, rec_aborted, rec_skipped, rec_start) = \
        (kind in keep for kind in EVENT_KINDS)
    events: List[Event] = []
    add = events.append

    def jobs(task):  # task's jobs in arrival order, each drawn when it is reached
        for j, a in enumerate(task.arrivals(horizon, seed)):
            yield a, task.id, j, task.demand(j, seed), a + task.rel_deadline

    pending = merge(*map(jobs, tasks))  # visiting order: (arrival, task id) is unique
    coming = next(pending, (horizon,))  # (horizon,) stands past the last job

    queues: Dict[int, deque] = {i: deque() for i in ids}  # open jobs, arrival order
    specs = [reservations[i] for i in ids] if cbs else []
    grub = any(r.reclaiming == "grub" for r in specs)
    per_tick = lcm(*(r.period for r in specs)) if grub else 1  # budget units per tick
    servers = {i: ServerState(i, 0, 0, per_tick=per_tick) for i in ids} if cbs else {}
    drains = {i: r.budget * per_tick // r.period for i, r in zip(ids, specs)}  # bandwidths
    deadlines: list = []  # heap of (deadline, task id, job index, job)
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
        if rec_completion:
            add(_event((t, "completion", job.task, {"job": job.index, "late": late})))
        q = queues[job.task]
        drop(job, q)
        if late and policy[job.task] == "skip_late":
            while q and q[0].arrival < t:
                stale = q[0]
                stale.outcome = "skipped"
                if rec_skipped:
                    add(_event((t, "job_skipped", job.task, {"job": stale.index})))
                drop(stale, q)

    def recharged(tid, t):
        """Record the recharge cbs_wake just gave server tid."""
        if rec_recharge:
            add(_event((t, "server_recharge", tid, {"budget": reservations[tid].budget})))
        if rec_postponed:
            add(_event((t, "deadline_postponed", tid,
                        {"deadline": servers[tid].current_deadline})))

    def exhaust(tid, t):
        """Exhaustion of server tid, whose budget is spent: if it has pending
        work, returns the job whose execution segment this closes, else None."""
        s = servers[tid]
        q = queues[tid]
        if s.status != "active" or not q:
            return None
        job = q[0]
        if rec_exhausted:
            add(_event((t, "budget_exhausted", tid, {"job": job.index})))
        if cbs_on_exhaustion(s, t, reservations[tid]).status == "suspended":
            heappush(wakes, (s.suspended_until, tid))
        else:
            recharged(tid, t)
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
            s = cbs_wake(servers[tid], reservations[tid])
            if not queues[tid]:
                s.status = "idle"
            recharged(tid, t)

        # 3. deadline checks and miss policies, in task id order
        while deadlines and deadlines[0][0] <= t:
            job = heappop(deadlines)[3]
            if job.outcome is not None:
                continue
            if rec_miss:
                add(_event((t, "deadline_miss", job.task, {"job": job.index})))
            if policy[job.task] == "abort":
                job.outcome = "aborted"
                if rec_aborted:
                    remaining = job.demand - job.executed
                    add(_event((t, "job_aborted", job.task,
                                {"job": job.index, "remaining": remaining})))
                drop(job, queues[job.task])

        if t == horizon:
            break

        # 4. arrivals at t, in task id order; a server admitted here may
        # have no budget, and is checked at once (servers are independent,
        # and a task has one arrival per tick at most)
        while coming[0] == t:
            _, tid, j, demand, deadline = coming
            coming = next(pending, (horizon,))
            job = _Job(tid, j, t, deadline, demand)
            if rec_arrival:
                add(_event((t, "arrival", tid,
                            {"job": j, "deadline": deadline, "demand": demand})))
            q = queues[tid]
            was_empty = not q
            q.append(job)
            heappush(deadlines, (deadline, tid, j, job))
            if cbs and was_empty and servers[tid].status == "idle":
                s = servers[tid]
                spec = reservations[tid]
                before = (s.remaining_budget, s.current_deadline)
                cbs_on_arrival(s, t, spec)
                if rec_recharge and (s.remaining_budget, s.current_deadline) != before:
                    add(_event((t, "server_recharge", tid,
                                {"budget": spec.budget, "deadline": s.current_deadline})))
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
            add(_event((t, "preemption", runner.task, {"job": runner.index})))
        if rec_start and pick is not None and (pick is not runner or exhausted is pick):
            add(_event((t, "job_start", pick.task,
                        {"job": pick.index, "resumed": pick.executed > 0})))

        # 7. run the pick up to the next tick where something can change
        nxt = coming[0]
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
                drain = min(sum([drains[i] for i in ids if queues[i]]), per_tick) \
                    if spec.reclaiming == "grub" else per_tick
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
