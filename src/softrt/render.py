"""Schedule timeline rendering from event traces.

Execution segments are reconstructed from job_start events paired with the
nearest following stop (preemption, completion, abort or budget
exhaustion); a segment still open when the log ends is clamped to the
horizon.  A tick executed at or past the running job's deadline is late.
An arrival needs integer ``job`` and ``deadline`` payload fields and a
job_start an integer ``job``; a trace without them, or in which one job
arrives twice, is a ConfigError.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .simcore import STOP_KINDS, Trace, _payload_ints, _repeated_arrival
from .taskmodel import _choice

# (task, start, end, deadline of the job that ran)
Segment = Tuple[int, int, int, Optional[int]]


def execution_segments(trace: Trace) -> List[Segment]:
    deadlines: Dict[Tuple[int, int], int] = {}
    arrived: Dict[Tuple[int, int], int] = {}  # each job's arrival tick
    open_seg: Dict[int, list] = {}
    done: List[Segment] = []
    for e in trace.events:
        tick, kind, task, _ = e
        if kind == "arrival":
            job, deadline = _payload_ints(e, "job", "deadline")
            if (task, job) in arrived:
                raise _repeated_arrival(task, job, tick, arrived[task, job])
            deadlines[task, job], arrived[task, job] = deadline, tick
        elif kind == "job_start":
            (job,) = _payload_ints(e, "job")
            open_seg[task] = [tick, job]
        elif kind in STOP_KINDS and task in open_seg:
            start, job = open_seg.pop(task)
            if tick > start:
                done.append((task, start, tick, deadlines.get((task, job))))
    for task, (start, job) in sorted(open_seg.items()):
        if trace.horizon > start:
            done.append((task, start, trace.horizon, deadlines.get((task, job))))
    done.sort(key=lambda s: (s[0], s[1]))
    return done


def render_ascii(trace: Trace) -> str:
    """One row per task, one column per tick.

    '#' on-time execution, '!' execution at or past the job's deadline,
    '|' a deadline boundary on an otherwise idle tick, '.' idle.
    """
    width = trace.horizon
    segments = execution_segments(trace)  # checks every arrival's fields
    rows = {t: ["."] * width for t in trace.task_ids}
    for _, kind, task, payload in trace.events:
        if kind == "arrival":
            d = payload["deadline"]
            if 0 <= d < width:
                rows[task][d] = "|"
    for task, start, end, deadline in segments:
        for tick in range(start, min(end, width)):
            late = deadline is not None and tick >= deadline
            rows[task][tick] = "!" if late else "#"
    header = "tick  " + "".join(str(t % 10) for t in range(width))
    lines = [header]
    for t in trace.task_ids:
        lines.append("t%-4d %s" % (t, "".join(rows[t])))
    return "\n".join(lines) + "\n"


def render_svg(trace: Trace) -> str:
    """Minimal SVG 1.1 timeline: grey blocks, late ticks red, deadline arrows."""
    width = trace.horizon
    tasks = trace.task_ids
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
    for task, start, end, deadline in execution_segments(trace):  # checks arrivals
        y = top + idx[task] * row_h
        for tick in range(start, min(end, width)):
            late = deadline is not None and tick >= deadline
            out.append('<rect x="%d" y="%d" width="%d" height="%d" fill="%s"/>'
                       % (left + tick * cell, y + 6, cell - 1, row_h - 14,
                          "#c62828" if late else "#9e9e9e"))
    for tick, kind, task, payload in trace.events:
        y = top + idx[task] * row_h
        if kind == "arrival":
            x = left + tick * cell
            out.append('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#1565c0"/>'
                       % (x, y + row_h - 6, x, y + 2))
            out.append('<path d="M %d %d l -3 5 l 6 0 z" fill="#1565c0"/>'
                       % (x, y + 2))
            d = payload["deadline"]
            if d <= width:
                xd = left + d * cell
                out.append('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#2e7d32"/>'
                           % (xd, y + 2, xd, y + row_h - 6))
                out.append('<path d="M %d %d l -3 -5 l 6 0 z" fill="#2e7d32"/>'
                           % (xd, y + row_h - 6))
    out.append("</svg>")
    return "\n".join(out) + "\n"


_RENDERERS = {"ascii": render_ascii, "svg": render_svg}


def render_trace(trace: Trace, format: str = "ascii") -> str:
    return _RENDERERS[_choice(format, "format", _RENDERERS)](trace)
