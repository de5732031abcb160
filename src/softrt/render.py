"""Schedule timeline rendering from event traces.

Each job's arrival and deadline come from ``Trace.records``, analysis's
reader, so render refuses exactly the traces analysis refuses: say an
arrival without ``demand``, or an outcome event whose job has no arrival
(as a ``collect`` filter without ``arrival`` records).  Execution segments
are reconstructed from job_start events (an integer ``job`` each) paired
with the nearest following stop (preemption, completion, abort or budget
exhaustion); a segment still open when the log ends is clamped to the
horizon.  A tick executed at or past the running job's deadline is late.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .simcore import STOP_KINDS, Trace, _payload_error
from .taskmodel import _choice

# (task, start, end, deadline of the job that ran)
Segment = Tuple[int, int, int, Optional[int]]


def execution_segments(trace: Trace) -> List[Segment]:
    deadlines = {(r.task_id, r.index): r.abs_deadline
                 for jobs in trace.records.values() for r in jobs}
    open_seg: Dict[int, Tuple[int, Optional[int]]] = {}  # task: (start, deadline)
    done: List[Segment] = []
    for e in trace.events:
        tick, kind, task, _ = e
        if kind == "job_start":
            job = e.payload.get("job")
            if type(job) is not int:
                raise _payload_error(e, ("job",), int)
            open_seg[task] = tick, deadlines.get((task, job))
        elif kind in STOP_KINDS and task in open_seg:
            start, deadline = open_seg.pop(task)
            if tick > start:
                done.append((task, start, tick, deadline))
    for task, (start, deadline) in sorted(open_seg.items()):
        if trace.horizon > start:
            done.append((task, start, trace.horizon, deadline))
    done.sort(key=lambda s: (s[0], s[1]))
    return done


def render_ascii(trace: Trace) -> str:
    """One row per task, one column per tick.

    '#' on-time execution, '!' execution at or past the job's deadline,
    '|' a deadline boundary on an otherwise idle tick, '.' idle.
    """
    width = trace.horizon
    segments = execution_segments(trace)  # reads and checks trace.records
    rows = {t: ["."] * width for t in sorted(trace.records)}  # task_ids + tasks with events
    for task, jobs in trace.records.items():
        for r in jobs:
            if 0 <= r.abs_deadline < width:
                rows[task][r.abs_deadline] = "|"
    for task, start, end, deadline in segments:
        for tick in range(start, min(end, width)):
            late = deadline is not None and tick >= deadline
            rows[task][tick] = "!" if late else "#"
    header = "tick  " + "".join(str(t % 10) for t in range(width))
    lines = [header]
    for t in rows:
        lines.append("t%-4d %s" % (t, "".join(rows[t])))
    return "\n".join(lines) + "\n"


def render_svg(trace: Trace) -> str:
    """Minimal SVG 1.1 timeline: grey blocks, late ticks red, deadline arrows."""
    width = trace.horizon
    tasks = sorted(trace.records)  # task_ids and every task with events
    top, left, cell, row_h = 18, 46, 12, 26
    W = left + width * cell + 10
    H = top + len(tasks) * row_h + 16
    idx = {t: i for i, t in enumerate(tasks)}
    out = ['<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           'width="%d" height="%d">' % (W, H)]
    out.append('<style>text{font:10px sans-serif}</style>')
    for t in tasks:
        y = top + idx[t] * row_h
        out.append('<text x="4" y="%d">t%d</text>' % (y + row_h // 2 + 3, t))
        out.append('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#999"/>'
                   % (left, y + row_h - 6, left + width * cell, y + row_h - 6))
    for task, start, end, deadline in execution_segments(trace):  # checks records
        y = top + idx[task] * row_h
        for tick in range(start, min(end, width)):
            late = deadline is not None and tick >= deadline
            out.append('<rect x="%d" y="%d" width="%d" height="%d" fill="%s"/>'
                       % (left + tick * cell, y + 6, cell - 1, row_h - 14,
                          "#c62828" if late else "#9e9e9e"))
    # each job's arrival and deadline marks, in (arrival, task) order as in the trace
    jobs = sorted((r for rs in trace.records.values() for r in rs),
                  key=lambda r: (r.arrival, r.task_id))
    for r in jobs:
        y = top + idx[r.task_id] * row_h
        x = left + r.arrival * cell
        out.append('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#1565c0"/>'
                   % (x, y + row_h - 6, x, y + 2))
        out.append('<path d="M %d %d l -3 5 l 6 0 z" fill="#1565c0"/>' % (x, y + 2))
        if r.abs_deadline <= width:
            xd = left + r.abs_deadline * cell
            out.append('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#2e7d32"/>'
                       % (xd, y + 2, xd, y + row_h - 6))
            out.append('<path d="M %d %d l -3 -5 l 6 0 z" fill="#2e7d32"/>'
                       % (xd, y + row_h - 6))
    out.append("</svg>")
    return "\n".join(out) + "\n"


_RENDERERS = {"ascii": render_ascii, "svg": render_svg}


def render_trace(trace: Trace, format: str = "ascii") -> str:
    return _RENDERERS[_choice(format, "format", _RENDERERS)](trace)
