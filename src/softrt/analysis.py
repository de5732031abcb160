"""Offline metrics over traces and closed-form miss probabilities.

Everything here is a pure function over an immutable trace or an execution
time model.  Miss classification works from job records (arrival, deadline,
completion) rather than from miss events, so it is independent of the
detection mode the simulation ran with.  The records come from
``Trace.records``, which builds them once per trace, so asking for several
metrics of every task reads the events once.  dropout_probability checks
its (Q, R, T) by taskmodel.check_reservation, the rule moc's routines use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import ConfigError
from .simcore import Trace
from .taskmodel import ExecTimeModel, _integer, _items, check_reservation, tick_cdf


def _pair(pair, m_name: str, n_name: str) -> Tuple[int, int]:
    """pair as (m, n) ints, if it is a collection (see _items) of two counts
    m >= 0 and n >= 1 with m <= n; else a ConfigError naming the field at
    fault."""
    items = _items(pair, m_name)
    if len(items) != 2:
        raise ConfigError("%s: must be a pair (m, n), got %r" % (m_name, pair))
    m, n = _integer(items[0], m_name, 0), _integer(items[1], n_name, 1)
    if m > n:
        raise ConfigError("%s: need 0 <= m <= n" % m_name)
    return m, n


@dataclass(frozen=True)
class MissConstraint:
    """Weakly-hard bound: at most m misses in any n consecutive instances.

    `conjunction` holds further (m, n) pairs that must all hold as well,
    e.g. (2, 10) with conjunction ((1, 2),) forbids consecutive misses on
    top of the 2-in-10 budget.
    """

    m: int
    n: int
    conjunction: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self):
        m, n = _pair((self.m, self.n), "constraint.m", "constraint.n")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "conjunction", tuple(
            _pair(pair, *["constraint.conjunction[%d]" % i] * 2)
            for i, pair in enumerate(_items(self.conjunction, "constraint.conjunction"))))

    @property
    def pairs(self) -> Tuple[Tuple[int, int], ...]:
        return ((self.m, self.n),) + self.conjunction


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    # (window start instance, window end instance, m, n) of the first violation
    violation: Optional[Tuple[int, int, int, int]] = None
    # set when some pair's window exceeds the number of resolved instances
    indeterminate: bool = False

    def __bool__(self):
        return self.ok


def _records(trace: Trace, task_id: int):
    records = trace.records
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


def dropout_probability(model: ExecTimeModel, Q: int, R: int, T: int):
    """Probability that a job's reserved service does not fit in its period.

    With budget Q granted every reservation period R, a job of demand c
    occupies ceil(c/Q) server periods; it drops when that exceeds the task
    period T.  Equivalently the job survives iff c <= Q * (T // R), so the
    result is the upper tail of the demand distribution at that threshold.
    Exact (a Fraction) for discrete models, a float for continuous ones.
    """
    check_reservation(Q, R, T)
    return 1 - tick_cdf(model, Q * (T // R))
