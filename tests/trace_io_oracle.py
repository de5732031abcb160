"""Reference trace I/O and analysis: the CSV/JSONL readers and writers, the
job-record builder and the per-task metrics softrt shipped before the trace
path was made single-pass (to_jsonl: before it reused one JSON encoder),
kept verbatim as the oracle for the differential test in
test_trace_io_differential.py, but that the readers now reject an event
kind outside EVENT_KINDS, as the package's do.

Each function takes the trace (or the text) it used to be a method or
argument of.  Only the output types (Event, Trace, JobRecord, CheckResult)
and the error type come from the package.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, List, Optional

from softrt.analysis import CheckResult, MissConstraint
from softrt.errors import ConfigError
from softrt.simcore import EVENT_KINDS, Event, Trace
from softrt.taskmodel import JobRecord


def job_records(self) -> Dict[int, List[JobRecord]]:
    """Rebuild per-task job records from arrival/completion/outcome events.

    Every job an outcome event names needs its arrival event; a trace
    recorded with a ``collect`` filter that drops arrivals is rejected.
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
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["tick", "kind", "task", "payload"])
    for e in self.events:
        w.writerow([e.tick, e.kind, e.task,
                    json.dumps(e.payload, sort_keys=True, separators=(",", ":"))])
    return buf.getvalue()


def to_jsonl(self) -> str:
    lines = []
    for e in self.events:
        lines.append(json.dumps(
            {"tick": e.tick, "kind": e.kind, "task": e.task, "payload": e.payload},
            sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def from_csv(text: str, horizon: Optional[int] = None) -> Trace:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["tick", "kind", "task", "payload"]:
        raise ConfigError("trace: expected header tick,kind,task,payload")
    events = [Event(int(r[0]), r[1], int(r[2]), json.loads(r[3])) for r in rows[1:]]
    return _from_events(_known_kinds(events), horizon)


def from_jsonl(text: str, horizon: Optional[int] = None) -> Trace:
    events = []
    for line in text.splitlines():
        if not line.strip():
            continue
        d = json.loads(line)
        events.append(Event(d["tick"], d["kind"], d["task"], d["payload"]))
    return _from_events(_known_kinds(events), horizon)


def _known_kinds(events):
    for e in events:
        if e.kind not in EVENT_KINDS:
            raise ConfigError("trace: unknown event kind %r" % (e.kind,))
    return events


def _from_events(events, horizon):
    if horizon is None:
        horizon = max((e.tick for e in events), default=0)
    return Trace(events, horizon, sorted({e.task for e in events}))


def _records(trace: Trace, task_id: int):
    records = job_records(trace)
    if task_id not in records:
        raise ConfigError("task_id: %r not present in trace" % (task_id,))
    return records[task_id]


def miss_pattern(trace: Trace, task_id: int) -> List[bool]:
    """Per-instance miss flags for jobs whose deadline fell inside the run.

    A job counts as missed unless it completed at or before its deadline;
    aborted and skipped instances are misses.  Jobs whose deadline lies past
    the horizon are unresolved and excluded.
    """
    out = []
    for r in _records(trace, task_id):
        if r.abs_deadline > trace.horizon:
            continue
        out.append(r.completion is None or r.completion > r.abs_deadline)
    return out


def tardiness(trace: Trace, task_id: int) -> int:
    """Largest lateness of any completed job, 0 when all met their deadlines."""
    worst = 0
    for r in _records(trace, task_id):
        if r.completion is not None:
            worst = max(worst, r.completion - r.abs_deadline)
    return worst


def check_mn(trace: Trace, task_id: int, constraint: MissConstraint) -> CheckResult:
    """Slide each (m, n) window over consecutive instances of the task.

    Windows are counted in instances, not ticks.  If the trace resolved
    fewer than n instances the pair cannot be decided and the result is
    flagged indeterminate (ok stays true vacuously).
    """
    pattern = miss_pattern(trace, task_id)
    indeterminate = False
    for m, n in constraint.pairs:
        if len(pattern) < n:
            indeterminate = True
            continue
        misses = sum(pattern[:n])
        for start in range(len(pattern) - n + 1):
            if start > 0:
                misses += pattern[start + n - 1] - pattern[start - 1]
            if misses > m:
                return CheckResult(False, (start, start + n - 1, m, n), indeterminate)
    return CheckResult(True, None, indeterminate)


def miss_count(self, task: Optional[int] = None) -> int:
    return len([e for e in self.events
                if e.kind == "deadline_miss" and (task is None or e.task == task)])
