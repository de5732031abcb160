"""Each class-backed config object reads exactly its dataclass's fields.

A field added to or removed from one of these classes must show up in the
config reader without a second list to keep in step; these tests fail if
the two drift apart.
"""

import dataclasses
import json
import pathlib

import pytest

from softrt.analysis import MissConstraint
from softrt.cli import main
from softrt.config import (parse_exec_model, parse_plant, parse_reservations, parse_sweep,
                           parse_task)
from softrt.controlcore import ContinuousLti
from softrt.errors import ConfigError
from softrt.simcore import SchedulerConfig
from softrt.sweep import SweepConfig
from softrt.taskmodel import (EXEC_MODELS, Activation, Beta, Deterministic, Empirical,
                              ReservationSpec, Scripted, TaskSpec, Uniform)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "edf_overload_trace.csv"
TASK = {"id": 1, "wcet": 1, "rel_deadline": 4, "period": 4}
EDF = {"kind": "edf", "horizon": 8}

# per kind: every field of the model's class, and the object they build
EXEC_MODEL_FIELDS = {
    "deterministic": ({"ticks": 3}, Deterministic(3)),
    "uniform": ({"lo": 0.5, "hi": 4.0}, Uniform(0.5, 4.0)),
    "beta": ({"alpha": 2.0, "beta": 3.0, "lo": 0.0, "hi": 5.0}, Beta(2.0, 3.0, 0.0, 5.0)),
    "empirical": ({"values": [1, 2, 2]}, Empirical((1, 2, 2))),
    "scripted": ({"values": [2, 1], "fallback": {"kind": "deterministic", "ticks": 1}},
                 Scripted((2, 1), Deterministic(1))),
}


def _names(cls):
    return [f.name for f in dataclasses.fields(cls)]


def _run(tmp_path, argv, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return main(argv + ["--config", str(path)])


@pytest.mark.parametrize("kind", sorted(EXEC_MODELS))
def test_every_exec_model_reads_its_class_fields(tmp_path, capsys, kind):
    fields, want = EXEC_MODEL_FIELDS[kind]
    assert list(fields) == _names(EXEC_MODELS[kind])
    model = dict(fields, kind=kind)
    assert parse_exec_model(model, "exec_model") == want
    doc = {"tasks": [dict(TASK, exec_model=dict(model, extra=1))], "scheduler": EDF}
    assert _run(tmp_path, ["simulate"], doc) == 2
    assert capsys.readouterr().err == (
        "config error: tasks[0].exec_model.extra: unknown field (expected one of %s)\n"
        % ", ".join(["kind"] + list(fields)))


def _full_objects():
    """(class, command, config around the object, the object with every field
    of the class set, the object's path)."""
    return [
        (TaskSpec, ["simulate"], lambda o: {"tasks": [o], "scheduler": EDF},
         dict(TASK, activation={"kind": "periodic"}, miss_policy="abort",
              exec_model={"kind": "deterministic", "ticks": 1}, enforce_wcet=True),
         "tasks[0]"),
        (Activation, ["simulate"],
         lambda o: {"tasks": [dict(TASK, activation=o)], "scheduler": EDF},
         {"kind": "sporadic", "gap_model": {"kind": "deterministic", "ticks": 6}},
         "tasks[0].activation"),
        (ReservationSpec, ["simulate"],
         lambda o: {"tasks": [TASK], "scheduler": dict(EDF, kind="cbs_edf"),
                    "reservations": {"1": o}},
         {"budget": 1, "period": 4, "variant": "hard_suspend", "reclaiming": "grub"},
         "reservations[1]"),
        (MissConstraint, ["analyze", str(GOLDEN)], lambda o: {"constraints": {"1": o}},
         {"m": 1, "n": 2, "conjunction": [[0, 1]]}, "constraints[1]"),
        (ContinuousLti, ["control-synth"], lambda o: {"plant": o},
         {"A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0], [1.0]], "C": [[1.0, 0.0]],
          "D": [[0.0]]}, "plant"),
        (SweepConfig, ["sweep"], lambda o: {"sweep": o},
         {"n_systems": 1, "state_dim": 1, "seed": "s", "grid": [1.0], "R": 2, "T": 4,
          "beta_alpha": 2.0, "beta_beta": 2.0, "mocs": ["tt_hard"], "max_delay": 2,
          "tick_seconds": 0.05}, "sweep"),
    ]


@pytest.mark.parametrize("cls, argv, wrap, obj, path", _full_objects(),
                         ids=[cls.__name__ for cls, *_ in _full_objects()])
def test_config_objects_take_exactly_their_class_fields(tmp_path, capsys, cls, argv,
                                                        wrap, obj, path):
    assert sorted(obj) == sorted(_names(cls))
    assert _run(tmp_path, argv, wrap(obj)) == 0
    capsys.readouterr()
    assert _run(tmp_path, argv, wrap(dict(obj, extra=1))) == 2
    assert capsys.readouterr().err == (
        "config error: %s.extra: unknown field (expected one of %s)\n"
        % (path, ", ".join(_names(cls))))


def test_scheduler_takes_its_class_fields_but_reservations(tmp_path, capsys):
    # its reservations come from the top-level section
    names = [name for name in _names(SchedulerConfig) if name != "reservations"]
    scheduler = {"kind": "fixed_priority", "horizon": 8, "priorities": {"1": 0},
                 "collect": ["arrival"]}
    assert sorted(scheduler) == sorted(names)
    assert _run(tmp_path, ["simulate"], {"tasks": [TASK], "scheduler": scheduler}) == 0
    capsys.readouterr()
    for key, message in (("extra", "unknown field (expected one of %s)" % ", ".join(names)),
                         ("reservations", "not a scheduler field; reservations is a "
                                          "top-level section")):
        doc = {"tasks": [TASK], "scheduler": dict(scheduler, **{key: {}})}
        assert _run(tmp_path, ["simulate"], doc) == 2
        assert capsys.readouterr().err == "config error: scheduler.%s: %s\n" % (key, message)


def test_left_out_fields_take_the_class_defaults():
    assert parse_task(TASK, "tasks[0]") == TaskSpec(**TASK)
    assert parse_reservations({"reservations": {"1": {"budget": 1, "period": 4}}}) \
        == {1: ReservationSpec(1, 4)}
    assert parse_sweep({}) == SweepConfig()
    assert parse_sweep({}, seed=3) == SweepConfig(seed=3)


def test_plant_defaults_and_messages():
    # C and D default to I and 0, and a null takes the default
    A, B = [[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]]
    want = parse_plant({"plant": {"A": A, "B": B}})
    assert (want.C == [[1.0, 0.0], [0.0, 1.0]]).all() and (want.D == [[0.0], [0.0]]).all()
    for extra in ({"C": None}, {"D": None}, {"C": None, "D": None}):
        got = parse_plant({"plant": dict(extra, A=A, B=B)})
        assert all((getattr(got, f) == getattr(want, f)).all() for f in "ABCD")
    assert (parse_plant({"plant": {"A": A, "B": B, "C": [[1.0, 0.0]]}}).D == [[0.0]]).all()
    got = parse_plant({"plant": {"A": A, "B": B, "D": [[0.5], [0.0]]}})
    assert (got.C == want.C).all() and (got.D == [[0.5], [0.0]]).all()
    for plant, message in (
            ({"B": B}, "plant.A: missing required field"),
            ({"A": A, "B": [[1.0]]}, "plant.B: row count must match A"),
            ({"A": A, "B": B, "E": 1}, "plant.E: unknown field (expected one of A, B, C, D)"),
            ({"A": A, "B": B, "D": [[0.0, 0.0]]}, "plant.D: expected shape (2, 1), got (1, 2)")):
        with pytest.raises(ConfigError) as err:
            parse_plant({"plant": plant})
        assert str(err.value) == message
