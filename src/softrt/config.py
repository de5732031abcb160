"""JSON configuration parsing for the command-line surface.

One document can carry any of the sections tasks, scheduler, reservations,
constraints, plant, control, moc and sweep; each subcommand picks the
sections it needs.  An object that configures a class (a task and its
parts, a reservation, the scheduler, a constraint, the sweep) takes exactly
that dataclass's fields, with its defaults; a section that configures a
routine (moc, chain) takes that routine's parameters, with theirs.  Every
diagnostic names the offending field with its path, e.g. "tasks[1].period:
must be >= 1, got 0"; a key that is not a field is an error too.  A null is the
default where that is None or a fraction; elsewhere it is a (wrong) value.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import json
from dataclasses import MISSING
from typing import Dict, List

from .analysis import MissConstraint
from .controlcore import ContinuousLti, _as_matrix
from .errors import ConfigError
from .moc import MocKind, build_delay_chain, cosimulate
from .simcore import SchedulerConfig
from .sweep import SweepConfig
from .taskmodel import (EXEC_MODELS, Activation, ReservationSpec, TaskSpec, _choice,
                        _integer, _positive)


# the routine each section configures, and the parameters its caller sets
_ROUTINES = {"moc": (cosimulate, ("plant", "K", "moc", "seed")),
             "chain": (build_delay_chain, ())}


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


def _json(value, path: str) -> dict:
    """value, if it is a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError("%s: expected a JSON object" % path)
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


def _by_task(raw, path: str, read=lambda value, path: value) -> dict:
    """The JSON object raw at path as a dict by task id, each value read by
    read(value, "path[key]") before its key is checked by _task_id."""
    out = {}
    for key, value in _json(raw, path).items():
        out[_task_id(key, path)] = read(value, "%s[%s]" % (path, key))
    return out


def _get(d: dict, key: str, path: str, default=MISSING):
    """d[key], or default for an absent key (an error without a default) and
    for a null whose default is a fraction (a duration, a shape parameter)."""
    v = d.get(key, default)
    if v is None and isinstance(default, float):
        v = default
    if v is MISSING:
        raise ConfigError("%s.%s: missing required field" % (path, key))
    return v


def _parameters(target, unset=()) -> Dict[str, inspect.Parameter]:
    """The parameters of target, a class or a routine, but unset, by their
    keys in the document, which calls a model parameter exec_model."""
    return {"exec_model" if name == "model" else name: p
            for name, p in inspect.signature(target).parameters.items() if name not in unset}


def _kwargs(target, d, path: str, hints=None, keys=(), unset=(), **read) -> dict:
    """The arguments for target that the JSON object d at path holds.

    target's parameters but unset are the schema (see _parameters): a key
    that is neither a parameter nor one of keys (read by the caller) is an
    error, and so is a missing parameter that has no default.  Only the
    values d holds are passed on (see _get for a null), so every default is
    target's; read maps a parameter to the reader of its JSON value, called
    with the value and its path.
    """
    params = _parameters(target, unset)
    _object(d, path, keys + tuple(params), hints)
    kwargs = {}
    for key, p in params.items():
        default = MISSING if p.default is p.empty else p.default
        v = _get(d, key, path, default)
        if v is not default:
            kwargs[p.name] = read[p.name](v, path + "." + key) if p.name in read else v
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
    return _at({key: section + "." + key for key in _parameters(*_ROUTINES[section])})


def _arguments(doc: dict, section: str, hints=None, keys=()) -> dict:
    """Every argument that section sets of its routine: the values it holds,
    each read by its parameter's annotation (see _READERS), and the defaults
    of the parameters it leaves out."""
    routine, unset = _ROUTINES[section]
    params = _parameters(routine, unset).values()
    return dict({p.name: p.default for p in params if p.default is not p.empty},
                **_kwargs(routine, _get(doc, section, "config"), section, hints, keys,
                          unset, **{p.name: _READERS[p.annotation] for p in params}))


def parse_exec_model(d, path: str):
    kind = _get(_json(d, path), "kind", path)
    cls = EXEC_MODELS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError("%s.kind: unknown execution-time model %r" % (path, kind))
    return _build(cls, d, path, "exec_model", keys=("kind",), fallback=parse_exec_model)


# the reader of a routine argument's JSON value, by its parameter's annotation
_READERS = {"int": _integer, "Optional[int]": _integer, "float": _positive,
            "ExecTimeModel": parse_exec_model}


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
    return _by_task(_get(doc, "reservations", "config"), "reservations",
                    lambda r, path: _build(ReservationSpec, r, path, "reservation"))


def parse_scheduler(doc: dict) -> SchedulerConfig:
    kwargs = _kwargs(SchedulerConfig, _get(doc, "scheduler", "config"), "scheduler",
                     {"reservations": "not a scheduler field; reservations is a "
                                      "top-level section"},
                     priorities=_by_task)
    if kwargs["kind"] == "cbs_edf":
        kwargs["reservations"] = parse_reservations(doc)
    return SchedulerConfig(**kwargs)


def parse_constraints(doc: dict) -> Dict[int, MissConstraint]:
    return _by_task(doc.get("constraints", {}), "constraints",
                    lambda c, path: _build(MissConstraint, c, path, "constraint"))


def parse_plant(doc: dict) -> ContinuousLti:
    return _build(ContinuousLti, _get(doc, "plant", "config"), "plant", "plant")


def parse_control(doc: dict) -> dict:
    """Controller synthesis settings: period, weights, feedback structure."""
    raw = _object(doc.get("control", {}), "control",
                  ("sample_seconds", "feedback", "weights"))
    seconds = raw.get("sample_seconds")  # None: the caller picks
    out = {
        "sample_seconds": None if seconds is None else
        _positive(seconds, "control.sample_seconds"),
        "feedback": _choice(raw.get("feedback", "lqr"), "control.feedback", ("lqr", "lqg")),
    }
    w = _object(raw.get("weights", {}), "control.weights", ("Qx", "Ru"))
    out["Qx"] = _as_matrix(w["Qx"], "control.weights.Qx") if "Qx" in w else None
    out["Ru"] = _as_matrix(w["Ru"], "control.weights.Ru") if "Ru" in w else None
    return out


def parse_moc(doc: dict) -> dict:
    """cosimulate's arguments but plant, K and seed; moc is the MocKind that
    the section's fields of that class build."""
    args = _arguments(doc, "moc", {
        "d_max": "not a moc field; the backlog bound is moc.max_delay"},
        tuple(_parameters(MocKind)))
    # _arguments has checked every key; MocKind reads its own
    args["moc"] = _build(MocKind, doc["moc"], "moc", "moc", keys=tuple(doc["moc"]))
    return args


def parse_chain(doc: dict) -> dict:
    """build_delay_chain's arguments."""
    return _arguments(doc, "chain")


def parse_sweep(doc: dict, seed=None) -> SweepConfig:
    exact = "not a sweep field; verdicts are exact"
    sweep = _build(SweepConfig, doc.get("sweep", {}), "sweep", "sweep",
                   {"horizon": exact, "n_traj": exact})
    return sweep if seed is None else dataclasses.replace(sweep, seed=seed)
