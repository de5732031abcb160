"""JSON configuration parsing for the command-line surface.

One document can carry any of the sections tasks, scheduler, reservations,
constraints, plant, control, moc and sweep; each subcommand picks the
sections it needs.  An object that configures a class (a task and its
parts, a reservation, the scheduler, a constraint, the sweep) takes exactly
that dataclass's fields, with its defaults; the sections that configure a
routine (control, moc, chain) list theirs in _FIELDS.  Every diagnostic
names the offending field with its path, e.g. "tasks[1].period: must be
>= 1"; a key that is not a field is an error too.  A null is the default
where that is None or a fraction; elsewhere it is a (wrong) value.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from dataclasses import MISSING
from typing import Dict, List, Tuple

import numpy as np

from .analysis import MissConstraint
from .controlcore import ContinuousLti
from .errors import ConfigError
from .moc import MocKind
from .simcore import SchedulerConfig
from .sweep import SweepConfig
from .taskmodel import (EXEC_MODELS, Activation, ReservationSpec, TaskSpec,
                        _is_int)


# the fields of each section that configures a routine; any other key is an error
_FIELDS = {
    "control": ("sample_seconds", "feedback", "weights"),
    "moc": ("kind", "max_delay", "act_delay", "exec_model", "Q", "R", "T",
            "tick_seconds", "horizon", "n_traj"),
    "chain": ("exec_model", "Q", "R", "T", "d_max"),
}


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
    maps a key that is often misplaced to why it does not belong there."""
    hints = hints or {}
    fields = [f for f in fields if f not in hints]
    for key in _json(value, path):
        if key not in fields:
            raise ConfigError("%s.%s: %s" % (path, key, hints.get(
                key, "unknown field (expected one of %s)" % ", ".join(fields))))
    return value


def _task_id(key: str, path: str) -> int:
    if not (key.isascii() and key.isdigit()):
        raise ConfigError("%s[%s]: key must be a task id" % (path, key))
    return int(key)


def _get(d: dict, key: str, path: str, default=MISSING):
    """d[key], or default for an absent key (an error without a default) and
    for a null whose default is a fraction (a duration, a shape parameter)."""
    v = d.get(key, default)
    if v is None and isinstance(default, float):
        v = default
    if v is MISSING:
        raise ConfigError("%s.%s: missing required field" % (path, key))
    return v


def _int(d: dict, key: str, path: str, default=MISSING):
    """_get for an integer field; JSON strings, floats, booleans and null are
    rejected, except where the default is None."""
    v = _get(d, key, path, default)
    if not _is_int(v) and not (v is None and default is None):
        raise ConfigError("%s.%s: must be an integer, got %r" % (path, key, v))
    return v


def _positive(d: dict, key: str, path: str, default=None):
    """_get for an optional finite number > 0 (a duration), not a string."""
    v = _get(d, key, path, default)
    if v is not None and not (type(v) in (int, float) and 0 < v < float("inf")):
        raise ConfigError("%s.%s: must be a number > 0, got %r" % (path, key, v))
    return v


def _kwargs(cls, d, path: str, hints=None, keys=(), **read) -> dict:
    """The arguments for dataclass cls that the JSON object d at path holds.

    cls's fields are the schema: a key that is neither a field nor one of
    keys (read by the caller) is an error, and so is a missing field that
    has no default.  Only the values d holds are passed on (see _get for a
    null), so every default is the class's; read maps a field to the reader
    of its JSON value, called with the value and its path.
    """
    fields = dataclasses.fields(cls)
    _object(d, path, keys + tuple(f.name for f in fields), hints)
    kwargs = {}
    for f in fields:
        v = _get(d, f.name, path, f.default)
        if v is not f.default:
            kwargs[f.name] = read[f.name](v, path + "." + f.name) if f.name in read else v
    return kwargs


def _build(cls, d, path: str, name: str, hints=None, keys=(), **read):
    """cls built from the JSON object d at path (see _kwargs); an error of
    cls that names the object as name ("name.field: ...") names path."""
    kwargs = _kwargs(cls, d, path, hints, keys, **read)
    with _at({name: path}):
        return cls(**kwargs)


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
    cls = EXEC_MODELS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError("%s.kind: unknown execution-time model %r" % (path, kind))
    return _build(cls, d, path, "exec_model", keys=("kind",), values=_tuple,
                  fallback=parse_exec_model)


def _tuple(raw, path: str) -> tuple:
    """raw, if it is a JSON array, as a tuple."""
    return tuple(_json(raw, path, list))


def parse_task(d, path: str) -> TaskSpec:
    return _build(TaskSpec, d, path, "task", activation=_activation,
                  exec_model=parse_exec_model)


def _activation(d, path: str) -> Activation:
    return _build(Activation, d, path, "activation", gap_model=parse_exec_model)


def parse_tasks(doc: dict) -> List[TaskSpec]:
    raw = _get(doc, "tasks", "config")
    if not isinstance(raw, list) or not raw:
        raise ConfigError("tasks: expected a non-empty list")
    return [parse_task(t, "tasks[%d]" % i) for i, t in enumerate(raw)]


def parse_reservations(doc: dict) -> Dict[int, ReservationSpec]:
    out = {}
    for key, r in _json(_get(doc, "reservations", "config"), "reservations").items():
        path = "reservations[%s]" % key
        out[_task_id(key, "reservations")] = _build(ReservationSpec, r, path,
                                                    "reservation")
    return out


def parse_scheduler(doc: dict) -> SchedulerConfig:
    kwargs = _kwargs(SchedulerConfig, _get(doc, "scheduler", "config"), "scheduler",
                     {"reservations": "not a scheduler field; reservations is a "
                                      "top-level section"},
                     priorities=_priorities, collect=_kinds)
    if kwargs["kind"] == "cbs_edf":
        kwargs["reservations"] = parse_reservations(doc)
    return SchedulerConfig(**kwargs)


def _priorities(raw, path: str) -> Dict[int, object]:
    return {_task_id(k, path): v for k, v in _json(raw, path).items()}


def _kinds(raw, path: str) -> frozenset:
    """raw, if it is a JSON array of strings (event kinds), as a frozenset."""
    kinds = _json(raw, path, list)
    for i, kind in enumerate(kinds):
        if not isinstance(kind, str):
            raise ConfigError("%s[%d]: expected an event kind string, got %r"
                              % (path, i, kind))
    return frozenset(kinds)


def parse_constraints(doc: dict) -> Dict[int, MissConstraint]:
    out = {}
    for key, c in _json(doc.get("constraints", {}), "constraints").items():
        path = "constraints[%s]" % key
        out[_task_id(key, "constraints")] = _build(MissConstraint, c, path,
                                                   "constraint", conjunction=_pairs)
    return out


def _pairs(raw, path: str) -> Tuple[Tuple[int, int], ...]:
    """raw, if it is a JSON array of [m, n] pairs of integers, as tuples."""
    pairs = _json(raw, path, list)
    for i, pair in enumerate(pairs):
        if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_int, pair))):
            raise ConfigError("%s[%d]: expected an [m, n] pair of integers, got %r"
                              % (path, i, pair))
    return tuple(map(tuple, pairs))


def _matrix(raw, path: str) -> np.ndarray:
    try:
        return np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError("%s: expected a numeric matrix (list of rows)" % path)


def parse_plant(doc: dict) -> ContinuousLti:
    raw = _object(_get(doc, "plant", "config"), "plant", ("A", "B", "C", "D"))
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
    w = _object(raw.get("weights", {}), "control.weights", ("Qx", "Ru"))
    out["Qx"] = _matrix(w["Qx"], "control.weights.Qx") if "Qx" in w else None
    out["Ru"] = _matrix(w["Ru"], "control.weights.Ru") if "Ru" in w else None
    return out


def parse_moc(doc: dict) -> dict:
    raw = _object(_get(doc, "moc", "config"), "moc", _FIELDS["moc"], {
        "d_max": "not a moc field; the backlog bound is moc.max_delay"})
    return {
        "moc": MocKind(_get(raw, "kind", "moc"), _int(raw, "max_delay", "moc", None),
                       _int(raw, "act_delay", "moc", None)),
        "exec_model": parse_exec_model(_get(raw, "exec_model", "moc"),
                                       "moc.exec_model"),
        "Q": _int(raw, "Q", "moc"),
        "R": _int(raw, "R", "moc"),
        "T": _int(raw, "T", "moc", None),
        "tick_seconds": _positive(raw, "tick_seconds", "moc", 1.0),
        "horizon": _int(raw, "horizon", "moc", 300),
        "n_traj": _int(raw, "n_traj", "moc", 100),
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
    sweep = _build(SweepConfig, doc.get("sweep", {}), "sweep", "sweep",
                   {"horizon": exact, "n_traj": exact}, grid=_tuple, mocs=_tuple)
    return sweep if seed is None else dataclasses.replace(sweep, seed=seed)
