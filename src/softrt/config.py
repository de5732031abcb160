"""JSON configuration parsing for the command-line surface.

One document can carry any of the sections tasks, scheduler, reservations,
constraints, plant, control, moc and sweep; each subcommand picks the
sections it needs.  Every diagnostic names the offending field with its
path, e.g. "tasks[1].period: must be >= 1".
"""

from __future__ import annotations

import contextlib
import json
from typing import Dict, List, Optional, Tuple

import numpy as np

from .analysis import MissConstraint
from .controlcore import ContinuousLti
from .errors import ConfigError
from .moc import MocKind
from .simcore import SchedulerConfig
from .sweep import SweepConfig
from .taskmodel import (Activation, Beta, Deterministic, Empirical,
                        ReservationSpec, Scripted, TaskSpec, Uniform, _is_int)


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config: file %r not found" % path)
    except json.JSONDecodeError as exc:
        raise ConfigError("config: not valid JSON (%s)" % exc)
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be an object")
    return doc


def _json(value, path: str, kind=dict):
    """value, if it is a JSON object (kind dict) or array (kind list)."""
    if not isinstance(value, kind):
        raise ConfigError("%s: expected a JSON %s"
                          % (path, "object" if kind is dict else "array"))
    return value


def _task_id(key: str, path: str) -> int:
    if not (key.isascii() and key.isdigit()):
        raise ConfigError("%s[%s]: key must be a task id" % (path, key))
    return int(key)


def _get(d: dict, key: str, path: str, required=True, default=None):
    if key not in d:
        if required:
            raise ConfigError("%s.%s: missing required field" % (path, key))
        return default
    return d[key]


def _int(d: dict, key: str, path: str, required=True, default=None):
    """_get for an integer field; JSON strings, floats and booleans are rejected."""
    v = _get(d, key, path, required, default)
    if v is not None and not _is_int(v):
        raise ConfigError("%s.%s: must be an integer, got %r" % (path, key, v))
    return v


def _positive(d: dict, key: str, path: str, default=None):
    """_get for an optional finite number > 0 (a duration, a shape parameter),
    not a string or boolean."""
    v = _get(d, key, path, False, default)
    if v is not None and not (type(v) in (int, float) and 0 < v < float("inf")):
        raise ConfigError("%s.%s: must be a number > 0, got %r" % (path, key, v))
    return v


@contextlib.contextmanager
def _at(path: str, name: str):
    """Re-raise a model's "name.field: ..." error as "path.field: ...";
    errors that already carry their path pass unchanged."""
    try:
        yield
    except ConfigError as exc:
        if not str(exc).startswith(name + "."):
            raise
        raise ConfigError(path + str(exc)[len(name):]) from None


def parse_exec_model(d, path: str):
    kind = _get(_json(d, path), "kind", path)
    values = lambda: tuple(_json(_get(d, "values", path), path + ".values", list))
    with _at(path, "exec_model"):
        if kind == "deterministic":
            return Deterministic(_get(d, "ticks", path))
        if kind == "uniform":
            return Uniform(_get(d, "lo", path), _get(d, "hi", path))
        if kind == "beta":
            return Beta(_get(d, "alpha", path), _get(d, "beta", path),
                        _get(d, "lo", path), _get(d, "hi", path))
        if kind == "empirical":
            return Empirical(values())
        if kind == "scripted":
            fb = _get(d, "fallback", path)
            return Scripted(values(), parse_exec_model(fb, path + ".fallback"))
    raise ConfigError("%s.kind: unknown execution-time model %r" % (path, kind))


def parse_task(d, path: str) -> TaskSpec:
    kwargs = dict(
        id=_get(_json(d, path), "id", path),
        wcet=_get(d, "wcet", path),
        rel_deadline=_get(d, "rel_deadline", path),
        period=_get(d, "period", path),
    )
    if "exec_model" in d:
        kwargs["exec_model"] = parse_exec_model(d["exec_model"], path + ".exec_model")
    if "miss_policy" in d:
        kwargs["miss_policy"] = d["miss_policy"]
    if "enforce_wcet" in d:
        kwargs["enforce_wcet"] = d["enforce_wcet"]
    if "activation" in d:
        a = _json(d["activation"], path + ".activation")
        gap = a.get("gap_model")
        with _at(path + ".activation", "activation"):
            kwargs["activation"] = Activation(
                a.get("kind", "periodic"),
                parse_exec_model(gap, path + ".activation.gap_model") if gap else None)
    with _at(path, "task"):
        return TaskSpec(**kwargs)


def parse_tasks(doc: dict) -> List[TaskSpec]:
    raw = _get(doc, "tasks", "config")
    if not isinstance(raw, list) or not raw:
        raise ConfigError("tasks: expected a non-empty list")
    return [parse_task(t, "tasks[%d]" % i) for i, t in enumerate(raw)]


def parse_reservations(doc: dict) -> Dict[int, ReservationSpec]:
    raw = _json(_get(doc, "reservations", "config"), "reservations")
    out = {}
    for key, r in raw.items():
        path = "reservations[%s]" % key
        with _at(path, "reservation"):
            out[_task_id(key, "reservations")] = ReservationSpec(
                budget=_get(_json(r, path), "budget", path),
                period=_get(r, "period", path),
                variant=r.get("variant", "soft_postpone"),
                reclaiming=r.get("reclaiming", "none"))
    return out


def parse_scheduler(doc: dict) -> SchedulerConfig:
    raw = _json(_get(doc, "scheduler", "config"), "scheduler")
    kind = _get(raw, "kind", "scheduler")
    kwargs = dict(kind=kind, horizon=_get(raw, "horizon", "scheduler"))
    if kind == "fixed_priority":
        prio = _json(_get(raw, "priorities", "scheduler"), "scheduler.priorities")
        kwargs["priorities"] = {_task_id(k, "scheduler.priorities"): v
                                for k, v in prio.items()}
    if kind == "cbs_edf":
        kwargs["reservations"] = parse_reservations(doc)
    if "miss_detection" in raw:
        kwargs["miss_detection"] = raw["miss_detection"]
    if "collect" in raw:
        kinds = _json(raw["collect"], "scheduler.collect", list)
        for i, kind in enumerate(kinds):
            if not isinstance(kind, str):
                raise ConfigError("scheduler.collect[%d]: expected an event kind "
                                  "string, got %r" % (i, kind))
        kwargs["collect"] = frozenset(kinds)
    return SchedulerConfig(**kwargs)


def parse_constraints(doc: dict) -> Dict[int, MissConstraint]:
    out = {}
    for key, c in _json(doc.get("constraints", {}), "constraints").items():
        path = "constraints[%s]" % key
        conj = _json(_json(c, path).get("conjunction", []), path + ".conjunction", list)
        out[_task_id(key, "constraints")] = MissConstraint(
            m=_int(c, "m", path), n=_int(c, "n", path),
            conjunction=tuple(_pair(p, "%s.conjunction[%d]" % (path, i))
                              for i, p in enumerate(conj)))
    return out


def _pair(raw, path: str) -> Tuple[int, int]:
    """raw, if it is a JSON array of two integers."""
    pair = _json(raw, path, list)
    if len(pair) != 2 or not all(map(_is_int, pair)):
        raise ConfigError("%s: expected an [m, n] pair of integers, got %r" % (path, pair))
    return tuple(pair)


def _matrix(raw, path: str) -> np.ndarray:
    try:
        return np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError("%s: expected a numeric matrix (list of rows)" % path)


def parse_plant(doc: dict) -> ContinuousLti:
    raw = _json(_get(doc, "plant", "config"), "plant")
    A = _matrix(_get(raw, "A", "plant"), "plant.A")
    B = _matrix(_get(raw, "B", "plant"), "plant.B")
    if "C" in raw or "D" in raw:
        n, p = A.shape[0], B.shape[1] if B.ndim == 2 else 1
        C = _matrix(raw["C"], "plant.C") if "C" in raw else np.eye(n)
        D = _matrix(raw["D"], "plant.D") if "D" in raw else np.zeros((C.shape[0], p))
        return ContinuousLti(A, B, C, D)
    return ContinuousLti.from_ab(A, B)


def parse_control(doc: dict) -> dict:
    """Controller synthesis settings: period, weights, feedback structure."""
    raw = _json(doc.get("control", {}), "control")
    out = {
        "sample_seconds": _positive(raw, "sample_seconds", "control"),  # None: caller picks
        "feedback": raw.get("feedback", "lqr"),
    }
    if out["feedback"] not in ("lqr", "lqg"):
        raise ConfigError("control.feedback: must be lqr or lqg")
    w = _json(raw.get("weights", {}), "control.weights")
    out["Qx"] = _matrix(w["Qx"], "control.weights.Qx") if "Qx" in w else None
    out["Ru"] = _matrix(w["Ru"], "control.weights.Ru") if "Ru" in w else None
    return out


def parse_moc(doc: dict) -> dict:
    raw = _json(_get(doc, "moc", "config"), "moc")
    if "d_max" in raw:
        raise ConfigError("moc.d_max: not a moc field; the backlog bound is "
                          "moc.max_delay")
    return {
        "moc": MocKind(_get(raw, "kind", "moc"),
                       _int(raw, "max_delay", "moc", required=False),
                       _int(raw, "act_delay", "moc", required=False)),
        "exec_model": parse_exec_model(_get(raw, "exec_model", "moc"),
                                       "moc.exec_model"),
        "Q": _int(raw, "Q", "moc"),
        "R": _int(raw, "R", "moc"),
        "T": _int(raw, "T", "moc", required=False),
        "tick_seconds": _positive(raw, "tick_seconds", "moc", default=1.0),
        "horizon": _int(raw, "horizon", "moc", required=False, default=300),
        "n_traj": _int(raw, "n_traj", "moc", required=False, default=100),
    }


def parse_chain(doc: dict) -> dict:
    raw = _json(_get(doc, "chain", "config"), "chain")
    return {
        "exec_model": parse_exec_model(_get(raw, "exec_model", "chain"),
                                       "chain.exec_model"),
        "Q": _int(raw, "Q", "chain"),
        "R": _int(raw, "R", "chain"),
        "T": _int(raw, "T", "chain"),
        "d_max": _int(raw, "d_max", "chain"),
    }


def parse_sweep(doc: dict, seed=None) -> SweepConfig:
    raw = _json(doc.get("sweep", {}), "sweep")
    for field in sorted({"horizon", "n_traj"} & set(raw)):
        raise ConfigError("sweep.%s: not a sweep field; verdicts are exact" % field)
    kwargs = {}
    for field in ("n_systems", "state_dim", "R", "T", "max_delay"):
        if field in raw:
            kwargs[field] = _int(raw, field, "sweep")
    for field in ("beta_alpha", "beta_beta", "tick_seconds"):
        v = _positive(raw, field, "sweep")  # null: the default, as for absent
        if v is not None:
            kwargs[field] = v
    if "seed" in raw:
        if not (_is_int(raw["seed"]) or isinstance(raw["seed"], str)):
            raise ConfigError("sweep.seed: must be an integer or a string, got %r"
                              % (raw["seed"],))
        kwargs["seed"] = raw["seed"]
    if "grid" in raw:
        kwargs["grid"] = tuple(_json(raw["grid"], "sweep.grid", list))
        for i, b in enumerate(kwargs["grid"]):
            if type(b) not in (int, float):
                raise ConfigError("sweep.grid[%d]: must be a number, got %r" % (i, b))
    if "mocs" in raw:
        kwargs["mocs"] = tuple(_json(raw["mocs"], "sweep.mocs", list))
    if seed is not None:
        kwargs["seed"] = seed
    return SweepConfig(**kwargs)
