"""Task, execution-time, and reservation models.

All times are integer scheduler ticks.  Continuous execution-time models
(uniform, beta) are sampled in real units, rounded half-up to the nearest
tick, and clipped to a minimum of one tick; ``tick_cdf`` describes exactly
that rounded distribution so analytic results stay consistent with what the
samplers produce.

The input rules live here, one per kind of value, each raising a ConfigError
that starts with the name of the value at fault: ``_integer`` (a count),
``_choice`` (a named option), ``_positive`` (a duration), ``_items`` (a
collection), ``_model`` (a demand model) and ``check_reservation``.
"""

from __future__ import annotations

import math
import numbers
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .errors import ConfigError

MISS_POLICIES = ("continue", "abort", "skip_late")
VARIANTS = ("soft_postpone", "hard_suspend")
RECLAIMING = ("none", "grub")


def round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def _is_int(v) -> bool:
    """Whether v is an integer, numpy's too, and not a boolean: bool
    subclasses int, and numpy's bool is no Integral."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _integer(v, name: str, low=None) -> int:
    """The one rule for a count: v as a Python int, if it is an integer (see
    _is_int) and, when low is given, v >= low; else a ConfigError naming
    name.  The int lets a value computed with numpy (np.int64) reach the
    engine and its traces as the int it stands for."""
    if not _is_int(v):
        raise ConfigError("%s: must be an integer, got %r" % (name, v))
    v = operator.index(v)
    if low is not None and v < low:
        raise ConfigError("%s: must be >= %d, got %r" % (name, low, v))
    return v


def _counts(obj, prefix: str, **lows) -> None:
    """Check each field of the frozen obj that lows names by the count rule,
    with its low bound, named prefix + field, and store the int."""
    for name, low in lows.items():
        object.__setattr__(obj, name, _integer(getattr(obj, name), prefix + name, low))


def _choice(v, name: str, options):
    """The one rule for a named option: v, if it is a str in options; else
    a ConfigError naming name."""
    if not (isinstance(v, str) and v in options):
        raise ConfigError("%s: must be one of %s, got %r" % (name, ", ".join(options), v))
    return v


def _items(v, name: str) -> tuple:
    """The one rule for a collection: the items of a list, tuple, set or
    frozenset v as a tuple, a set's in sorted-repr order so that a message
    names the same item under any hash seed; else (a str too) a ConfigError."""
    if isinstance(v, (set, frozenset)):
        return tuple(sorted(v, key=repr))
    if not isinstance(v, (list, tuple)):
        raise ConfigError("%s: must be a list, got %r" % (name, v))
    return tuple(v)


def _is_real(v) -> bool:
    """Whether v is a real number and not a boolean."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _positive(v, name: str):
    """The one rule for a duration (seconds) or a shape parameter: v, if it
    is a finite real > 0 (see _is_real); else a ConfigError naming name."""
    if not (_is_real(v) and 0 < v < math.inf):
        raise ConfigError("%s: must be a number > 0, got %r" % (name, v))
    return v


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
        _counts(self, "exec_model.", ticks=1)


def _finite(model, *names) -> None:
    """Reject fields that are not finite real numbers (booleans and strings too):
    an infinite shape parameter never leaves random.betavariate."""
    for name in names:
        v = getattr(model, name)
        if not (_is_real(v) and math.isfinite(v)):
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
        _positive(self.alpha, "exec_model.alpha")
        _positive(self.beta, "exec_model.beta")
        _span(self)

    def _draw(self, rng: random.Random) -> int:
        x = self.lo + (self.hi - self.lo) * rng.betavariate(self.alpha, self.beta)
        return max(1, round_half_up(x))


def _values(model) -> None:
    """Store model's per-job demands as a tuple of ints, each a count >= 1."""
    object.__setattr__(model, "values", tuple(
        _integer(v, "exec_model.values", 1)
        for v in _items(model.values, "exec_model.values")))


@dataclass(frozen=True)
class Empirical:
    values: tuple

    def __post_init__(self):
        _values(self)
        if not self.values:
            raise ConfigError("exec_model.values: empirical list must be non-empty")

    def _draw(self, rng: random.Random) -> int:
        return self.values[rng.randrange(len(self.values))]


@dataclass(frozen=True)
class Scripted:
    """Fixed per-job demands for the first len(values) jobs, then fallback."""

    values: tuple
    fallback: "ExecTimeModel"

    def __post_init__(self):
        _values(self)
        if self.fallback is None or isinstance(self.fallback, Scripted):
            raise ConfigError("exec_model.fallback: required and must not be "
                              "another scripted model")


ExecTimeModel = Union[Deterministic, Uniform, Beta, Empirical, Scripted]
# each model's class by the kind that names it in a config document
EXEC_MODELS = {"deterministic": Deterministic, "uniform": Uniform, "beta": Beta,
               "empirical": Empirical, "scripted": Scripted}


def _model(model, name: str = "exec_model"):
    """The one rule for a demand model: model, if of a class in EXEC_MODELS;
    else a ConfigError naming name.  A Scripted fallback is checked where it
    is read, not at construction."""
    if not isinstance(model, tuple(EXEC_MODELS.values())):
        raise ConfigError("%s: unknown model type %r" % (name, model))
    return model


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
    except AttributeError:  # every model but those two draws: the rule raises
        draw = _model(model)._draw
    return draw(random.Random(key))


def sample_exec_times(model: ExecTimeModel, n: int, seed) -> np.ndarray:
    """Vectorised batch of n demand draws (its own stream, not the per-job one)."""
    _model(model)
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
    else:  # Beta
        x = model.lo + (model.hi - model.lo) * g.beta(model.alpha, model.beta, size=n)
    return np.maximum(1, np.floor(x + 0.5).astype(np.int64))


def tick_cdf(model: ExecTimeModel, m: int):
    """P(sampled demand <= m ticks).

    Exact Fraction for discrete models, float for continuous ones.  Continuous
    samples land on tick k iff the raw value falls in [k-0.5, k+0.5), except
    that everything below 1 clips up to one tick.
    """
    _model(model)
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
        z = min(1.0, max(0.0, (m + 0.5 - model.lo) / (model.hi - model.lo)))
        if model.alpha == model.beta == 0.5:
            # the arcsine law in closed form, equal to betainc bit for bit in
            # this order of operations, and no scipy.special import
            return 2 * math.asin(math.sqrt(z)) / math.pi
        from scipy.special import betainc  # the regularized incomplete beta

        return float(betainc(model.alpha, model.beta, z))
    raise ConfigError("exec_model: no stationary distribution for %r" % (model,))


def max_ticks(model: ExecTimeModel) -> int:
    """Upper bound on any sampled demand in ticks."""
    _model(model)
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
        _choice(self.kind, "activation.kind", ("periodic", "sporadic"))
        if self.kind == "periodic" and self.gap_model is not None:
            raise ConfigError("activation.gap_model: only valid for sporadic tasks")
        if self.gap_model is not None:
            _model(self.gap_model, "activation.gap_model")


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
        _counts(self, "task.", id=0, wcet=1, rel_deadline=1, period=1)
        _choice(self.miss_policy, "task.miss_policy", MISS_POLICIES)
        if not isinstance(self.enforce_wcet, bool):
            raise ConfigError("task.enforce_wcet: must be a boolean, got %r"
                              % (self.enforce_wcet,))
        if self.exec_model is None:
            object.__setattr__(self, "exec_model", Deterministic(self.wcet))
        _model(self.exec_model, "task.exec_model")

    def demand(self, job_index: int, seed) -> int:
        """Job job_index's demand, keyed by "seed/exec/task id/job index"."""
        c = sample_exec_time(self.exec_model, job_index,
                             "%s/exec/%s/%s" % (seed, self.id, job_index))
        return self.wcet if self.enforce_wcet and c > self.wcet else c

    def arrivals(self, horizon: int, seed) -> Iterator[int]:
        """Activation ticks in [0, horizon), in order, each gap drawn when
        the tick after it is asked for."""
        if self.activation.kind == "periodic":
            yield from range(0, horizon, self.period)
            return
        gap_model = self.activation.gap_model or Uniform(self.period, 2 * self.period)
        t, j = 0, 0
        while t < horizon:
            yield t
            gap = sample_exec_time(gap_model, j, "%s/gap/%s/%s" % (seed, self.id, j))
            t += max(self.period, gap)  # period is the minimum inter-arrival gap
            j += 1


@dataclass(frozen=True)
class ReservationSpec:
    budget: int
    period: int
    variant: str = "soft_postpone"
    reclaiming: str = "none"

    def __post_init__(self):
        _counts(self, "reservation.", budget=1)
        _counts(self, "reservation.", period=self.budget)
        _choice(self.variant, "reservation.variant", VARIANTS)
        _choice(self.reclaiming, "reservation.reclaiming", RECLAIMING)

    @property
    def bandwidth(self) -> Fraction:
        return Fraction(self.budget, self.period)


def check_reservation(Q, R, *T) -> None:
    """The one rule for which reservations exist: a budget of Q ticks every R
    ticks, Q and R integers with 1 <= Q <= R, serving a task whose period T,
    when the caller has one, is a positive multiple of R.  Anything else is
    a ConfigError naming the field."""
    _integer(Q, "Q")
    if not 1 <= Q <= _integer(R, "R"):
        raise ConfigError("Q: need 1 <= Q <= R")
    if any(_integer(t, "T") < R or t % R for t in T):
        raise ConfigError("T: must be a positive multiple of R")


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
