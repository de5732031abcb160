"""Task, execution-time, and reservation models.

All times are integer scheduler ticks.  Continuous execution-time models
(uniform, beta) are sampled in real units, rounded half-up to the nearest
tick, and clipped to a minimum of one tick; ``tick_cdf`` describes exactly
that rounded distribution so analytic results stay consistent with what the
samplers produce.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConfigError

MISS_POLICIES = ("continue", "abort", "skip_late")
VARIANTS = ("soft_postpone", "hard_suspend")
RECLAIMING = ("none", "grub")


def round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def _is_int(v) -> bool:
    """Whether v is an integer and not a boolean (bool subclasses int, so a
    JSON true would pass plain isinstance(v, int))."""
    return isinstance(v, int) and not isinstance(v, bool)


def derived_seed(*parts) -> int:
    """64-bit integer seed derived from the given parts (for numpy)."""
    import hashlib

    key = "/".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


# ---------------------------------------------------------------------------
# execution-time models


@dataclass(frozen=True)
class Deterministic:
    ticks: int

    def __post_init__(self):
        if not _is_int(self.ticks) or self.ticks < 1:
            raise ConfigError("exec_model.ticks: must be a positive integer")


def _finite(model, *names) -> None:
    """Reject fields that are not finite real numbers (booleans and strings too):
    an infinite shape parameter never leaves random.betavariate."""
    for name in names:
        v = getattr(model, name)
        if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
            raise ConfigError("exec_model.%s: must be a finite number, got %r" % (name, v))


def _span(model) -> None:
    """Check 0 <= lo < hi < 2**53: from 2**53 on, floats no longer represent
    every tick, and the two samplers' roundings part ways."""
    if not model.hi > model.lo:
        raise ConfigError("exec_model.hi: must be > lo")
    if model.lo < 0:
        raise ConfigError("exec_model.lo: must be >= 0")
    if model.hi >= 2 ** 53:
        raise ConfigError("exec_model.hi: must be < 2**53 ticks, got %r" % (model.hi,))


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        _finite(self, "lo", "hi")
        _span(self)

    def _draw(self, rng: random.Random) -> int:
        return max(1, round_half_up(rng.uniform(self.lo, self.hi)))


@dataclass(frozen=True)
class Beta:
    alpha: float
    beta: float
    lo: float
    hi: float

    def __post_init__(self):
        _finite(self, "alpha", "beta", "lo", "hi")
        if self.alpha <= 0 or self.beta <= 0:
            raise ConfigError("exec_model.alpha/beta: shape parameters must be > 0")
        _span(self)

    def _draw(self, rng: random.Random) -> int:
        x = self.lo + (self.hi - self.lo) * rng.betavariate(self.alpha, self.beta)
        return max(1, round_half_up(x))


@dataclass(frozen=True)
class Empirical:
    values: tuple

    def __post_init__(self):
        vals = tuple(self.values)
        if not vals:
            raise ConfigError("exec_model.values: empirical list must be non-empty")
        for v in vals:
            if not _is_int(v) or v < 1:
                raise ConfigError("exec_model.values: entries must be positive integers")
        object.__setattr__(self, "values", vals)

    def _draw(self, rng: random.Random) -> int:
        return self.values[rng.randrange(len(self.values))]


@dataclass(frozen=True)
class Scripted:
    """Fixed per-job demands for the first len(values) jobs, then fallback."""

    values: tuple
    fallback: "ExecTimeModel"

    def __post_init__(self):
        vals = tuple(self.values)
        for v in vals:
            if not _is_int(v) or v < 1:
                raise ConfigError("exec_model.values: entries must be positive integers")
        if self.fallback is None or isinstance(self.fallback, Scripted):
            raise ConfigError("exec_model.fallback: required and must not be "
                              "another scripted model")
        object.__setattr__(self, "values", vals)


ExecTimeModel = Union[Deterministic, Uniform, Beta, Empirical, Scripted]


def sample_exec_time(model: ExecTimeModel, job_index: int, key: str) -> int:
    """One demand draw in ticks from ``random.Random(key)``.

    Seeding from the string key goes through a stable hash, so a draw keyed
    by (seed, task, job) never depends on how many draws other tasks made.
    A draw that reads no randomness (a deterministic model, a scripted job)
    seeds no generator: the MT19937 state set-up is most of what a random
    draw costs.
    """
    if isinstance(model, Scripted):
        if job_index < len(model.values):
            return model.values[job_index]
        model = model.fallback
    if isinstance(model, Deterministic):
        return model.ticks
    try:
        draw = model._draw
    except AttributeError:
        raise ConfigError("exec_model: unknown model type %r" % (model,)) from None
    return draw(random.Random(key))


def sample_exec_times(model: ExecTimeModel, n: int, seed) -> np.ndarray:
    """Vectorised batch of n demand draws (its own stream, not the per-job one)."""
    g = np.random.default_rng(derived_seed(seed, "bulk"))
    if isinstance(model, Deterministic):
        return np.full(n, model.ticks, dtype=np.int64)
    if isinstance(model, Scripted):
        head = np.asarray(model.values[:n], dtype=np.int64)
        if n <= len(head):
            return head[:n]
        tail = sample_exec_times(model.fallback, n - len(head), seed)
        return np.concatenate([head, tail])
    if isinstance(model, Empirical):
        return g.choice(np.asarray(model.values, dtype=np.int64), size=n)
    if isinstance(model, Uniform):
        x = g.uniform(model.lo, model.hi, size=n)
    elif isinstance(model, Beta):
        x = model.lo + (model.hi - model.lo) * g.beta(model.alpha, model.beta, size=n)
    else:
        raise ConfigError("exec_model: unknown model type %r" % (model,))
    return np.maximum(1, np.floor(x + 0.5).astype(np.int64))


def tick_cdf(model: ExecTimeModel, m: int):
    """P(sampled demand <= m ticks).

    Exact Fraction for discrete models, float for continuous ones.  Continuous
    samples land on tick k iff the raw value falls in [k-0.5, k+0.5), except
    that everything below 1 clips up to one tick.
    """
    if m < 1:
        return Fraction(0)
    if isinstance(model, Deterministic):
        return Fraction(1) if model.ticks <= m else Fraction(0)
    if isinstance(model, Empirical):
        return Fraction(sum(1 for v in model.values if v <= m), len(model.values))
    if isinstance(model, Uniform):
        span = model.hi - model.lo
        return min(1.0, max(0.0, (m + 0.5 - model.lo) / span))
    if isinstance(model, Beta):
        from scipy.special import betainc  # the regularized incomplete beta

        z = (m + 0.5 - model.lo) / (model.hi - model.lo)
        return float(betainc(model.alpha, model.beta, min(1.0, max(0.0, z))))
    raise ConfigError("exec_model: no stationary distribution for %r" % (model,))


def max_ticks(model: ExecTimeModel) -> int:
    """Upper bound on any sampled demand in ticks."""
    if isinstance(model, Deterministic):
        return model.ticks
    if isinstance(model, Empirical):
        return max(model.values)
    if isinstance(model, Scripted):
        bound = max_ticks(model.fallback)
        return max(bound, max(model.values)) if model.values else bound
    return max(1, round_half_up(model.hi))


# ---------------------------------------------------------------------------
# tasks and reservations


@dataclass(frozen=True)
class Activation:
    kind: str = "periodic"
    gap_model: Optional[ExecTimeModel] = None  # sporadic only; gap below period clips up

    def __post_init__(self):
        if self.kind not in ("periodic", "sporadic"):
            raise ConfigError("activation.kind: must be 'periodic' or 'sporadic'")
        if self.kind == "periodic" and self.gap_model is not None:
            raise ConfigError("activation.gap_model: only valid for sporadic tasks")


PERIODIC = Activation("periodic")


@dataclass(frozen=True)
class TaskSpec:
    id: int
    wcet: int
    rel_deadline: int
    period: int
    activation: Activation = PERIODIC
    exec_model: Optional[ExecTimeModel] = None  # None means deterministic wcet
    miss_policy: str = "continue"
    enforce_wcet: bool = False

    def __post_init__(self):
        if not _is_int(self.id) or self.id < 0:
            raise ConfigError("task.id: must be a non-negative integer")
        for name in ("wcet", "rel_deadline", "period"):
            v = getattr(self, name)
            if not _is_int(v) or v < 1:
                raise ConfigError("task.%s: must be a positive integer (ticks)" % name)
        if self.miss_policy not in MISS_POLICIES:
            raise ConfigError("task.miss_policy: must be one of %s" % (MISS_POLICIES,))
        if not isinstance(self.enforce_wcet, bool):
            raise ConfigError("task.enforce_wcet: must be a boolean, got %r"
                              % (self.enforce_wcet,))
        if self.exec_model is None:
            object.__setattr__(self, "exec_model", Deterministic(self.wcet))

    def demand(self, job_index: int, seed) -> int:
        """Job job_index's demand, keyed by "seed/exec/task id/job index"."""
        c = sample_exec_time(self.exec_model, job_index,
                             "%s/exec/%s/%s" % (seed, self.id, job_index))
        return self.wcet if self.enforce_wcet and c > self.wcet else c

    def arrivals(self, horizon: int, seed) -> list:
        """Activation ticks in [0, horizon)."""
        if self.activation.kind == "periodic":
            return list(range(0, horizon, self.period))
        gap_model = self.activation.gap_model or Uniform(self.period, 2 * self.period)
        out, t, j = [], 0, 0
        while t < horizon:
            out.append(t)
            gap = sample_exec_time(gap_model, j, "%s/gap/%s/%s" % (seed, self.id, j))
            t += max(self.period, gap)  # period is the minimum inter-arrival gap
            j += 1
        return out


@dataclass(frozen=True)
class ReservationSpec:
    budget: int
    period: int
    variant: str = "soft_postpone"
    reclaiming: str = "none"

    def __post_init__(self):
        if not _is_int(self.budget) or self.budget < 1:
            raise ConfigError("reservation.budget: must be a positive integer (ticks)")
        if not _is_int(self.period) or self.period < self.budget:
            raise ConfigError("reservation.period: must be an integer >= budget")
        if self.variant not in VARIANTS:
            raise ConfigError("reservation.variant: must be one of %s" % (VARIANTS,))
        if self.reclaiming not in RECLAIMING:
            raise ConfigError("reservation.reclaiming: must be one of %s" % (RECLAIMING,))

    @property
    def bandwidth(self) -> Fraction:
        return Fraction(self.budget, self.period)


@dataclass
class JobRecord:
    """One task instance as observed by the simulator."""

    task_id: int
    index: int
    arrival: int
    abs_deadline: int
    exec_demand: int
    completion: Optional[int] = None
    outcome: Optional[str] = None  # met | late | aborted | skipped


def utilization(tasks: Sequence[TaskSpec]) -> Fraction:
    """Exact total utilization sum(wcet/period)."""
    if not tasks:
        raise ConfigError("tasks: utilization of an empty task set is undefined")
    return sum((Fraction(t.wcet, t.period) for t in tasks), Fraction(0))
