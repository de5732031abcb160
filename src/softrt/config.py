"""JSON configuration parsing for the command-line surface.

One document can carry any of the sections tasks, scheduler, reservations,
constraints, plant, control, moc and sweep; each subcommand picks the
sections it needs.  Every diagnostic names the offending field with its
path, e.g. "tasks[1].period: must be >= 1"; an object's key that is not
one of its fields is an error too.
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


# the fields each object reads; any other key is an error
_FIELDS = {
    "task": ("id", "wcet", "rel_deadline", "period", "exec_model", "miss_policy",
             "enforce_wcet", "activation"),
    "activation": ("kind", "gap_model"),
    "reservation": ("budget", "period", "variant", "reclaiming"),
    "scheduler": ("kind", "horizon", "priorities", "miss_detection", "collect"),
    "constraint": ("m", "n", "conjunction"),
    "plant": ("A", "B", "C", "D"),
    "control": ("sample_seconds", "feedback", "weights"),
    "control.weights": ("Qx", "Ru"),
    "moc": ("kind", "max_delay", "act_delay", "exec_model", "Q", "R", "T",
            "tick_seconds", "horizon", "n_traj"),
    "chain": ("exec_model", "Q", "R", "T", "d_max"),
    "sweep": ("n_systems", "state_dim", "seed", "grid", "R", "T", "beta_alpha",
              "beta_beta", "mocs", "max_delay", "tick_seconds"),
}
# an execution-time model's fields besides kind, by kind
_MODEL_FIELDS = {"deterministic": ("ticks",), "uniform": ("lo", "hi"),
                "beta": ("alpha", "beta", "lo", "hi"), "empirical": ("values",),
                "scripted": ("values", "fallback")}


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text of file path; a file that cannot be read is a config
    error naming it as what."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise ConfigError("%s: file %r not found" % (what, path))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("%s: cannot read file %r (%s)" % (what, path, exc))


def load_config(path: str) -> dict:
    try:
        doc = json.loads(_read_text(path, "config"))
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


def _object(value, path: str, fields, hints=None) -> dict:
    """value, if it is a JSON object whose every key is one of fields; hints
    maps a key that is often misplaced to why it is not a field."""
    for key in _json(value, path):
        if key not in fields:
            raise ConfigError("%s.%s: %s" % (path, key, (hints or {}).get(
                key, "unknown field (expected one of %s)" % ", ".join(fields))))
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
def _at(paths: Dict[str, str]):
    """Re-raise an error that starts with a name of paths ("name: ..." or
    "name.field: ...") with that name replaced by its path in the document;
    other errors, such as those that already carry their path, pass
    unchanged."""
    try:
        yield
    except ConfigError as exc:
        msg = str(exc)
        for name, path in paths.items():
            if msg.startswith((name + ".", name + ":")):
                raise ConfigError(path + msg[len(name):]) from None
        raise


def _at_section(section: str):
    """Context in which an error that names a field of section bare ("Q: ...",
    raised by the routine that section configures) names its path
    ("chain.Q: ...")."""
    return _at({f: "%s.%s" % (section, f) for f in _FIELDS[section]})


def parse_exec_model(d, path: str):
    kind = _get(_json(d, path), "kind", path)
    if not isinstance(kind, str) or kind not in _MODEL_FIELDS:
        raise ConfigError("%s.kind: unknown execution-time model %r" % (path, kind))
    _object(d, path, ("kind",) + _MODEL_FIELDS[kind])
    values = lambda: tuple(_json(_get(d, "values", path), path + ".values", list))
    with _at({"exec_model": path}):
        if kind == "deterministic":
            return Deterministic(_get(d, "ticks", path))
        if kind == "uniform":
            return Uniform(_get(d, "lo", path), _get(d, "hi", path))
        if kind == "beta":
            return Beta(_get(d, "alpha", path), _get(d, "beta", path),
                        _get(d, "lo", path), _get(d, "hi", path))
        if kind == "empirical":
            return Empirical(values())
        fb = _get(d, "fallback", path)  # scripted
        return Scripted(values(), parse_exec_model(fb, path + ".fallback"))


def parse_task(d, path: str) -> TaskSpec:
    kwargs = dict(
        id=_get(_object(d, path, _FIELDS["task"]), "id", path),
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
        a = _object(d["activation"], path + ".activation", _FIELDS["activation"])
        gap = a.get("gap_model")
        with _at({"activation": path + ".activation"}):
            kwargs["activation"] = Activation(
                a.get("kind", "periodic"),
                parse_exec_model(gap, path + ".activation.gap_model") if gap else None)
    with _at({"task": path}):
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
        with _at({"reservation": path}):
            out[_task_id(key, "reservations")] = ReservationSpec(
                budget=_get(_object(r, path, _FIELDS["reservation"]), "budget", path),
                period=_get(r, "period", path),
                variant=r.get("variant", "soft_postpone"),
                reclaiming=r.get("reclaiming", "none"))
    return out


def parse_scheduler(doc: dict) -> SchedulerConfig:
    raw = _object(_get(doc, "scheduler", "config"), "scheduler", _FIELDS["scheduler"])
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
        conj = _object(c, path, _FIELDS["constraint"]).get("conjunction", [])
        pairs = tuple(_pair(p, "%s.conjunction[%d]" % (path, i))
                      for i, p in enumerate(_json(conj, path + ".conjunction", list)))
        with _at({"constraint": path}):
            out[_task_id(key, "constraints")] = MissConstraint(
                m=_int(c, "m", path), n=_int(c, "n", path), conjunction=pairs)
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
    raw = _object(_get(doc, "plant", "config"), "plant", _FIELDS["plant"])
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
    raw = _object(doc.get("control", {}), "control", _FIELDS["control"])
    out = {
        "sample_seconds": _positive(raw, "sample_seconds", "control"),  # None: caller picks
        "feedback": raw.get("feedback", "lqr"),
    }
    if out["feedback"] not in ("lqr", "lqg"):
        raise ConfigError("control.feedback: must be lqr or lqg")
    w = _object(raw.get("weights", {}), "control.weights", _FIELDS["control.weights"])
    out["Qx"] = _matrix(w["Qx"], "control.weights.Qx") if "Qx" in w else None
    out["Ru"] = _matrix(w["Ru"], "control.weights.Ru") if "Ru" in w else None
    return out


def parse_moc(doc: dict) -> dict:
    raw = _object(_get(doc, "moc", "config"), "moc", _FIELDS["moc"], {
        "d_max": "not a moc field; the backlog bound is moc.max_delay"})
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
    raw = _object(_get(doc, "chain", "config"), "chain", _FIELDS["chain"])
    return {
        "exec_model": parse_exec_model(_get(raw, "exec_model", "chain"),
                                       "chain.exec_model"),
        "Q": _int(raw, "Q", "chain"),
        "R": _int(raw, "R", "chain"),
        "T": _int(raw, "T", "chain"),
        "d_max": _int(raw, "d_max", "chain"),
    }


def parse_sweep(doc: dict, seed=None) -> SweepConfig:
    exact = "not a sweep field; verdicts are exact"
    raw = _object(doc.get("sweep", {}), "sweep", _FIELDS["sweep"],
                  {"horizon": exact, "n_traj": exact})
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
