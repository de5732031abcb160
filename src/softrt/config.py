"""JSON configuration parsing for the command-line surface.

One document can carry any of the sections tasks, scheduler, reservations,
constraints, plant, control, moc and sweep; each subcommand picks the
sections it needs.  Every diagnostic names the offending field with its
path, e.g. "tasks[1].period: must be >= 1".
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

import numpy as np

from .analysis import MissConstraint
from .controlcore import ContinuousLti, CostWeights
from .errors import ConfigError
from .moc import MocKind
from .simcore import SchedulerConfig
from .sweep import SweepConfig
from .taskmodel import (Activation, Beta, Deterministic, Empirical,
                        ReservationSpec, Scripted, TaskSpec, Uniform)


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


def _get(d: dict, key: str, path: str, required=True, default=None):
    if key not in d:
        if required:
            raise ConfigError("%s.%s: missing required field" % (path, key))
        return default
    return d[key]


def _int(d: dict, key: str, path: str, required=True, default=None):
    """_get for an integer field; JSON strings, floats and booleans are rejected."""
    v = _get(d, key, path, required, default)
    if v is not None and (isinstance(v, bool) or not isinstance(v, int)):
        raise ConfigError("%s.%s: must be an integer, got %r" % (path, key, v))
    return v


def parse_exec_model(d, path: str):
    if not isinstance(d, dict):
        raise ConfigError("%s: expected an object with a 'kind' field" % path)
    kind = _get(d, "kind", path)
    if kind == "deterministic":
        return Deterministic(_get(d, "ticks", path))
    if kind == "uniform":
        return Uniform(_get(d, "lo", path), _get(d, "hi", path))
    if kind == "beta":
        return Beta(_get(d, "alpha", path), _get(d, "beta", path),
                    _get(d, "lo", path), _get(d, "hi", path))
    if kind == "empirical":
        return Empirical(tuple(_get(d, "values", path)))
    if kind == "scripted":
        fb = _get(d, "fallback", path)
        return Scripted(tuple(_get(d, "values", path)),
                        parse_exec_model(fb, path + ".fallback"))
    raise ConfigError("%s.kind: unknown execution-time model %r" % (path, kind))


def parse_task(d, path: str) -> TaskSpec:
    if not isinstance(d, dict):
        raise ConfigError("%s: expected an object" % path)
    kwargs = dict(
        id=_get(d, "id", path),
        wcet=_get(d, "wcet", path),
        rel_deadline=_get(d, "rel_deadline", path),
        period=_get(d, "period", path),
    )
    if "exec_model" in d:
        kwargs["exec_model"] = parse_exec_model(d["exec_model"], path + ".exec_model")
    if "miss_policy" in d:
        kwargs["miss_policy"] = d["miss_policy"]
    if "enforce_wcet" in d:
        kwargs["enforce_wcet"] = bool(d["enforce_wcet"])
    if "activation" in d:
        a = d["activation"]
        gap = a.get("gap_model")
        kwargs["activation"] = Activation(
            a.get("kind", "periodic"),
            parse_exec_model(gap, path + ".activation.gap_model") if gap else None)
    return TaskSpec(**kwargs)


def parse_tasks(doc: dict) -> List[TaskSpec]:
    raw = _get(doc, "tasks", "config")
    if not isinstance(raw, list) or not raw:
        raise ConfigError("tasks: expected a non-empty list")
    return [parse_task(t, "tasks[%d]" % i) for i, t in enumerate(raw)]


def parse_reservations(doc: dict) -> Dict[int, ReservationSpec]:
    raw = _get(doc, "reservations", "config")
    if not isinstance(raw, dict):
        raise ConfigError("reservations: expected an object keyed by task id")
    out = {}
    for key, r in raw.items():
        path = "reservations[%s]" % key
        try:
            tid = int(key)
        except ValueError:
            raise ConfigError("%s: key must be a task id" % path)
        out[tid] = ReservationSpec(
            budget=_get(r, "budget", path),
            period=_get(r, "period", path),
            variant=r.get("variant", "soft_postpone"),
            reclaiming=r.get("reclaiming", "none"))
    return out


def parse_scheduler(doc: dict) -> SchedulerConfig:
    raw = _get(doc, "scheduler", "config")
    kind = _get(raw, "kind", "scheduler")
    kwargs = dict(kind=kind, horizon=_get(raw, "horizon", "scheduler"))
    if kind == "fixed_priority":
        prio = _get(raw, "priorities", "scheduler")
        kwargs["priorities"] = {int(k): v for k, v in prio.items()}
    if kind == "cbs_edf":
        kwargs["reservations"] = parse_reservations(doc)
    if "miss_detection" in raw:
        kwargs["miss_detection"] = raw["miss_detection"]
    if "collect" in raw:
        kwargs["collect"] = frozenset(raw["collect"])
    return SchedulerConfig(**kwargs)


def parse_constraints(doc: dict) -> Dict[int, MissConstraint]:
    raw = doc.get("constraints", {})
    out = {}
    for key, c in raw.items():
        path = "constraints[%s]" % key
        out[int(key)] = MissConstraint(
            m=_get(c, "m", path), n=_get(c, "n", path),
            conjunction=tuple(tuple(p) for p in c.get("conjunction", [])))
    return out


def _matrix(raw, path: str) -> np.ndarray:
    try:
        return np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError("%s: expected a numeric matrix (list of rows)" % path)


def parse_plant(doc: dict) -> ContinuousLti:
    raw = _get(doc, "plant", "config")
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
    raw = doc.get("control", {})
    out = {
        "sample_seconds": raw.get("sample_seconds"),  # None lets the caller pick
        "feedback": raw.get("feedback", "lqr"),
    }
    if out["feedback"] not in ("lqr", "lqg"):
        raise ConfigError("control.feedback: must be lqr or lqg")
    if out["sample_seconds"] is not None and not out["sample_seconds"] > 0:
        raise ConfigError("control.sample_seconds: must be > 0")
    w = raw.get("weights", {})
    out["Qx"] = _matrix(w["Qx"], "control.weights.Qx") if "Qx" in w else None
    out["Ru"] = _matrix(w["Ru"], "control.weights.Ru") if "Ru" in w else None
    return out


def parse_moc(doc: dict) -> dict:
    raw = _get(doc, "moc", "config")
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
        "tick_seconds": raw.get("tick_seconds", 1.0),
        "horizon": _int(raw, "horizon", "moc", required=False, default=300),
        "n_traj": _int(raw, "n_traj", "moc", required=False, default=100),
    }


def parse_chain(doc: dict) -> dict:
    raw = _get(doc, "chain", "config")
    return {
        "exec_model": parse_exec_model(_get(raw, "exec_model", "chain"),
                                       "chain.exec_model"),
        "Q": _int(raw, "Q", "chain"),
        "R": _int(raw, "R", "chain"),
        "T": _int(raw, "T", "chain"),
        "d_max": _int(raw, "d_max", "chain"),
    }


def parse_sweep(doc: dict, seed=None) -> SweepConfig:
    raw = doc.get("sweep", {})
    kwargs = {}
    for field in ("n_systems", "state_dim", "seed", "R", "T", "beta_alpha",
                  "beta_beta", "max_delay", "tick_seconds", "horizon", "n_traj"):
        if field in raw:
            kwargs[field] = raw[field]
    if "grid" in raw:
        kwargs["grid"] = tuple(raw["grid"])
    if "mocs" in raw:
        kwargs["mocs"] = tuple(raw["mocs"])
    if seed is not None:
        kwargs["seed"] = seed
    try:
        return SweepConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError("sweep: %s" % exc)
