"""taskmodel._positive is the one rule for a duration in seconds (and a
shape parameter), taskmodel._model the one rule for a demand model,
taskmodel._integer the one rule for a count and taskmodel._choice the one
rule for a named option, taskmodel._items the one rule for a collection and
controlcore._as_matrix the one rule for a matrix, and every routine that
takes one accepts exactly what its rule accepts.  A duration is a finite
real > 0, Python's or numpy's, never a boolean; a demand model is an
instance of one of the five model classes; a count is an integer, Python's
or numpy's, never a boolean, at least its caller's bound, and is stored as a
Python int; an option is a string among its caller's options; a collection
is a list, tuple, set or frozenset, stored as a tuple (collect as a
frozenset).  Anything else is a ConfigError with the rule's message, never
another exception."""

import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import softrt
from softrt.analysis import MissConstraint, dropout_probability
from softrt.cli import main
from softrt.config import parse_control
from softrt.controlcore import ContinuousLti, DiscreteLti, c2d
from softrt.errors import ConfigError
from softrt.moc import (BUFFERED_KINDS, MOC_KINDS, MocKind, build_delay_chain, cosimulate,
                        cs_modes, service_distribution, service_periods, stabilizes,
                        verdicts)
from softrt.render import render_trace
from softrt.simcore import EVENT_KINDS, SchedulerConfig, Trace
from softrt.sweep import SweepConfig, bandwidth_sweep, random_system, sweep_to_csv
from softrt.taskmodel import (MISS_POLICIES, RECLAIMING, VARIANTS, Activation, Beta,
                              Deterministic, Empirical, ReservationSpec, Scripted, TaskSpec,
                              max_ticks, sample_exec_time, sample_exec_times, tick_cdf)

SCRIPTED = Scripted((1,), 5)  # a model class whose fallback is no model
VALUES = (1, 0.5, np.float64(0.5), 0, -1, math.inf, math.nan, True, np.True_, "0.5",
          None, [1], SCRIPTED)
SECONDS = VALUES[:3]  # the durations among VALUES
PLANT = ContinuousLti.from_ab([[0.2]], [[1.0]])
K = [[0.4]]
MODEL = Empirical((1, 3))


def _error(call):
    """The message of the ConfigError call raises, None if it returns; any
    other exception fails the test."""
    try:
        call()
    except ConfigError as exc:
        return str(exc)
    return None


def _moc(kind):
    return MocKind(kind, max_delay=2 if kind in ("tt_sort", "cs") else None)


def _loop(routine, kind, model=MODEL, seconds=0.1):
    """routine (cosimulate, verdicts or stabilizes) on a small loop under
    kind, as a value that compares by content."""
    if routine is cosimulate:
        return cosimulate(PLANT, K, _moc(kind), model, 1, 2, 4, tick_seconds=seconds,
                          horizon=4, n_traj=2).estimates.tolist()
    budgets = 1 if routine is stabilizes else [1, 2]
    return routine(PLANT, K, _moc(kind), model, budgets, 2, 4, tick_seconds=seconds)


def _duration_routines():
    """(name, the argument's name in the rule's message, call(seconds))."""
    yield "c2d", "T", lambda s: c2d(PLANT, s).A.tolist() + [c2d(PLANT, s).sample_period]
    yield ("DiscreteLti", "plant.sample_period",
           lambda s: DiscreteLti([[1.0]], [[1.0]], [[1.0]], [[0.0]], s).sample_period)
    for routine in (cosimulate, verdicts, stabilizes):
        for kind in MOC_KINDS:
            yield ("%s/%s" % (routine.__name__, kind), "tick_seconds",
                   lambda s, routine=routine, kind=kind: _loop(routine, kind, seconds=s))
    yield ("cs_modes", "tick_seconds",
           lambda s: [M.tolist() for M in cs_modes(PLANT, K, MODEL, 1, 2, 2, s).matrices])
    for field in ("beta_alpha", "beta_beta", "tick_seconds"):
        yield ("SweepConfig." + field, "sweep." + field,
               lambda s, field=field: sweep_to_csv(bandwidth_sweep(SweepConfig(
                   n_systems=2, mocs=("tt_hard", "tt_maxb"), **{field: s}))))


@pytest.mark.parametrize("name, arg, call", list(_duration_routines()),
                         ids=[name for name, *_ in _duration_routines()])
def test_every_routine_takes_exactly_the_rules_durations(name, arg, call):
    for v in SECONDS:  # the result of the plain float, which every routine took
        assert _error(lambda: call(v)) is None, v
        assert call(v) == call(float(v)), v
    for v in VALUES[len(SECONDS):]:
        assert _error(lambda: call(v)) == "%s: must be a number > 0, got %r" % (arg, v), v


FALLBACK = "exec_model: unknown model type 5"  # SCRIPTED past its one value
STATIONARY = "exec_model: no stationary distribution for %r" % (SCRIPTED,)
SAME = object()  # SCRIPTED gives what MODEL gives: the routine reads no demand


def _model_routines():
    """(name, call(model), what call(SCRIPTED) gives: the message of its
    ConfigError, its result, or SAME)."""
    yield "sample_exec_time/job0", lambda m: sample_exec_time(m, 0, "0/exec/1/0"), 1
    yield "sample_exec_time/job1", lambda m: sample_exec_time(m, 1, "0/exec/1/1"), FALLBACK
    yield "sample_exec_times/n1", lambda m: sample_exec_times(m, 1, 0).tolist(), [1]
    yield "sample_exec_times/n2", lambda m: sample_exec_times(m, 2, 0).tolist(), FALLBACK
    yield "tick_cdf/m0", lambda m: tick_cdf(m, 0), 0
    yield "tick_cdf/m2", lambda m: tick_cdf(m, 2), STATIONARY
    yield "max_ticks", max_ticks, FALLBACK
    yield "service_distribution", lambda m: service_distribution(m, 1, 2), FALLBACK
    yield ("build_delay_chain",
           lambda m: build_delay_chain(m, 1, 2, 4, 2).steady.tolist(), FALLBACK)
    yield "dropout_probability", lambda m: dropout_probability(m, 1, 2, 4), STATIONARY
    for routine in (verdicts, stabilizes, cosimulate):
        for kind in MOC_KINDS:
            # cosimulate under tt_hard draws no demand
            scripted = SAME if routine is cosimulate and kind == "tt_hard" else FALLBACK
            yield ("%s/%s" % (routine.__name__, kind),
                   lambda m, routine=routine, kind=kind: _loop(routine, kind, model=m),
                   scripted)


@pytest.mark.parametrize("name, call, scripted", list(_model_routines()),
                         ids=[name for name, *_ in _model_routines()])
def test_every_routine_takes_exactly_the_rules_models(name, call, scripted):
    assert _error(lambda: call(MODEL)) is None
    for v in VALUES:
        if v is not SCRIPTED:
            assert _error(lambda: call(v)) == "exec_model: unknown model type %r" % (v,), v
        elif isinstance(scripted, str):
            assert _error(lambda: call(v)) == scripted
        else:
            assert call(v) == (call(MODEL) if scripted is SAME else scripted)


def test_beta_shape_parameters_follow_the_duration_rule():
    # after the finite check, which keeps its own words
    for field, v, words in (("alpha", 0, "must be a number > 0, got 0"),
                            ("beta", -1.5, "must be a number > 0, got -1.5"),
                            ("alpha", True, "must be a finite number, got True"),
                            ("beta", math.inf, "must be a finite number, got inf")):
        args = dict(dict(alpha=0.5, beta=0.5, lo=0.0, hi=4.0), **{field: v})
        assert _error(lambda: Beta(**args)) == "exec_model.%s: %s" % (field, words)


COSIM = {"plant": {"A": [[0.2]], "B": [[1.0]]}, "control": {"sample_seconds": 0.2},
         "moc": {"kind": "tt_maxb", "exec_model": {"kind": "empirical", "values": [1, 3]},
                 "Q": 1, "R": 2, "T": 4, "tick_seconds": 0.05, "horizon": 8, "n_traj": 2}}
ABSENT = object()


def _cosim(tmp_path, capsys, field, v):
    """(exit code, stdout, stderr) of softrt cosim with field set to v, or
    left out for ABSENT."""
    section, key = field.split(".")
    doc = json.loads(json.dumps(COSIM))
    del doc[section][key]
    if v is not ABSENT:
        doc[section][key] = v
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code = main(["cosim", "--config", str(path), "--format", "json"])
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("field", ["control.sample_seconds", "moc.tick_seconds"])
def test_the_cli_names_a_durations_json_path(tmp_path, capsys, field):
    for v in (1, 0.5):
        assert _cosim(tmp_path, capsys, field, v)[:2] == \
            _cosim(tmp_path, capsys, field, float(v))[:2], v
    # a null is the default, as the key's absence is
    absent = _cosim(tmp_path, capsys, field, ABSENT)[:2]
    assert absent[0] == 0 and _cosim(tmp_path, capsys, field, None)[:2] == absent
    for v in (0, -1, math.inf, math.nan, True, "0.5", [1]):
        code, _, err = _cosim(tmp_path, capsys, field, v)
        assert (code, err) == (2, "config error: %s: must be a number > 0, got %r\n"
                               % (field, v)), v


def test_the_rules_words():
    from softrt.taskmodel import _model, _positive

    assert _positive(np.float64(0.5), "T") == 0.5
    assert _model(MODEL) is MODEL
    for v in (0, math.nan, np.True_, "1"):
        assert _error(lambda: _positive(v, "a")) == "a: must be a number > 0, got %r" % (v,)
    for v in (None, 3, Empirical):
        assert _error(lambda: _model(v)) == "exec_model: unknown model type %r" % (v,)


COUNTS = (1, np.int64(1), 0, -1, 2.5, True, np.True_, "1", None, "bogus", [1])
TASK = dict(id=1, wcet=1, rel_deadline=4, period=4)


def _sweep(**fields):
    return SweepConfig(**dict(dict(R=1, T=1, grid=(1.0,)), **fields))


def _loop_counts(**counts):
    return cosimulate(PLANT, K, _moc("tt_maxb"), MODEL, 1, 2, 4,
                      **dict(dict(horizon=4, n_traj=2), **counts))


def _count_callers():
    """(name, the count's name in the rule's message, its bound, call(v),
    whether call returns the count as stored).  An act_delay of None is no
    count but the default, the task period."""
    yield "Deterministic.ticks", "exec_model.ticks", 1, lambda v: Deterministic(v).ticks, True
    yield ("Empirical.values", "exec_model.values", 1,
           lambda v: Empirical((3, v)).values[1], True)
    yield ("Scripted.values", "exec_model.values", 1,
           lambda v: Scripted((3, v), Deterministic(1)).values[1], True)
    for field, low in (("id", 0), ("wcet", 1), ("rel_deadline", 1), ("period", 1)):
        yield ("TaskSpec." + field, "task." + field, low,
               lambda v, field=field: getattr(TaskSpec(**dict(TASK, **{field: v})), field),
               True)
    yield ("ReservationSpec.budget", "reservation.budget", 1,
           lambda v: ReservationSpec(v, 4).budget, True)
    yield ("ReservationSpec.period", "reservation.period", 2,
           lambda v: ReservationSpec(2, v).period, True)
    yield ("SchedulerConfig.horizon", "scheduler.horizon", 1,
           lambda v: SchedulerConfig("edf", v).horizon, True)
    yield ("SchedulerConfig.priorities", "scheduler.priorities[1]", None,
           lambda v: SchedulerConfig("fixed_priority", 8, priorities={1: v}).priorities[1],
           True)
    for field in ("n_systems", "state_dim", "R", "T", "max_delay"):
        yield ("SweepConfig." + field, "sweep." + field, 1,
               lambda v, field=field: getattr(_sweep(**{field: v}), field), True)
    yield ("random_system", "state_dim", 1, lambda v: random_system(v, 0).A.tolist(), False)
    yield "MocKind.max_delay", "moc.max_delay", 1, lambda v: MocKind("cs", v).max_delay, True
    yield ("MocKind.act_delay", "moc.act_delay", 0,
           lambda v: MocKind("tt_hard", act_delay=v).act_delay, True)
    yield "service_periods", "c", 1, lambda v: service_periods(v, 1, 2), True
    yield ("build_delay_chain", "d_max", 1,
           lambda v: build_delay_chain(MODEL, 1, 2, 4, v).steady.tolist(), False)
    yield "cosimulate.n_traj", "n_traj", 1, lambda v: _loop_counts(n_traj=v).n_traj, True
    yield ("cosimulate.horizon", "horizon", 4,
           lambda v: _loop_counts(horizon=v).estimates.tolist(), False)
    yield "MissConstraint.m", "constraint.m", 0, lambda v: MissConstraint(v, 2).m, True
    yield "MissConstraint.n", "constraint.n", 1, lambda v: MissConstraint(0, v).n, True
    yield ("MissConstraint.conjunction.m", "constraint.conjunction[0]", 0,
           lambda v: MissConstraint(0, 2, ((v, 2),)).conjunction[0][0], True)
    yield ("MissConstraint.conjunction.n", "constraint.conjunction[0]", 1,
           lambda v: MissConstraint(0, 2, ((0, v),)).conjunction[0][1], True)
    yield ("render_trace.horizon", "horizon", 0,
           lambda v: render_trace(Trace([], v, [])), False)
    yield "Trace.horizon", "horizon", 0, lambda v: Trace([], v, []).horizon, True


def _count_error(arg, low, v):
    """The count rule's message for v under bound low, None if it holds."""
    if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
        return "%s: must be an integer, got %r" % (arg, v)
    if low is not None and v < low:
        return "%s: must be >= %d, got %d" % (arg, low, v)
    return None


@pytest.mark.parametrize("name, arg, low, call, stores", list(_count_callers()),
                         ids=[name for name, *_ in _count_callers()])
def test_every_caller_takes_exactly_the_rules_counts(name, arg, low, call, stores):
    bounds = () if low is None else (low, np.int64(low), low - 1)
    for v in COUNTS + bounds:
        if v is None and name == "MocKind.act_delay":
            assert call(v) is None
            continue
        want = _count_error(arg, low, v)
        assert _error(lambda: call(v)) == want, v
        if want is None:
            got = call(v)
            assert got == call(int(v)), v
            assert not stores or type(got) is int, v


def _option_callers():
    """(name, the option's name in the rule's message, its options, call(v))."""
    yield ("TaskSpec.miss_policy", "task.miss_policy", MISS_POLICIES,
           lambda v: TaskSpec(**TASK, miss_policy=v).miss_policy)
    yield ("ReservationSpec.variant", "reservation.variant", VARIANTS,
           lambda v: ReservationSpec(1, 2, variant=v).variant)
    yield ("ReservationSpec.reclaiming", "reservation.reclaiming", RECLAIMING,
           lambda v: ReservationSpec(1, 2, reclaiming=v).reclaiming)
    yield ("Activation.kind", "activation.kind", ("periodic", "sporadic"),
           lambda v: Activation(v).kind)
    yield ("SchedulerConfig.kind", "scheduler.kind", ("edf", "fixed_priority", "cbs_edf"),
           lambda v: SchedulerConfig(v, 8, **_own_fields(v)).kind)
    yield ("MocKind.kind", "moc.kind", MOC_KINDS,
           lambda v: MocKind(v, 2 if v in BUFFERED_KINDS else None).kind)
    yield "render_trace.format", "format", ("ascii", "svg"), \
        lambda v: render_trace(Trace([], 1, []), v)[:4]
    yield ("parse_control.feedback", "control.feedback", ("lqr", "lqg"),
           lambda v: parse_control({"control": {"feedback": v}})["feedback"])


def _own_fields(kind):
    """The mapping each scheduler kind reads, and no other."""
    if kind == "fixed_priority":
        return {"priorities": {1: 0}}
    if kind == "cbs_edf":
        return {"reservations": {1: ReservationSpec(1, 2)}}
    return {}


@pytest.mark.parametrize("name, arg, options, call", list(_option_callers()),
                         ids=[name for name, *_ in _option_callers()])
def test_every_caller_takes_exactly_the_rules_options(name, arg, options, call):
    for v in options:
        assert _error(lambda: call(v)) is None, v
    for v in COUNTS:
        assert _error(lambda: call(v)) == "%s: must be one of %s, got %r" % (
            arg, ", ".join(options), v), v


@pytest.mark.parametrize("kind, field", [("edf", "priorities"), ("edf", "reservations"),
                                         ("fixed_priority", "reservations"),
                                         ("cbs_edf", "priorities")])
def test_a_field_its_kind_never_reads_is_refused(tmp_path, capsys, kind, field):
    message = "scheduler.%s: not applicable to %s" % (field, kind)
    stray = _own_fields("fixed_priority" if field == "priorities" else "cbs_edf")
    assert _error(lambda: SchedulerConfig(kind, 8, **_own_fields(kind), **stray)) == message
    if field == "priorities":  # a config's reservations are read for cbs_edf alone
        doc = {"tasks": [TASK], "reservations": {"1": {"budget": 1, "period": 2}},
               "scheduler": {"kind": kind, "horizon": 8, "priorities": {"1": 0}}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "config error: %s\n" % message


def _malformed():
    """(name, call, the path of the field at fault) for every malformed
    collection or mapping value a config class, a plant or verdicts takes."""
    yield ("collect-mixed-set",
           lambda: SchedulerConfig("edf", 8, collect=frozenset({3, "bogus"})),
           "scheduler.collect[0]")
    yield "collect-scalar", lambda: SchedulerConfig("edf", 8, collect=5), "scheduler.collect"
    yield ("collect-string", lambda: SchedulerConfig("edf", 8, collect="arrival"),
           "scheduler.collect")
    yield ("collect-nested", lambda: SchedulerConfig("edf", 8, collect=[[1]]),
           "scheduler.collect[0]")
    yield "grid-scalar", lambda: SweepConfig(grid=0.5), "sweep.grid"
    yield "mocs-scalar", lambda: SweepConfig(mocs=5), "sweep.mocs"
    yield "mocs-string", lambda: SweepConfig(mocs="cs"), "sweep.mocs"
    yield ("conjunction-triple", lambda: MissConstraint(1, 2, conjunction=((1, 2, 3),)),
           "constraint.conjunction[0]")
    yield ("conjunction-scalar-pair", lambda: MissConstraint(1, 2, conjunction=(3,)),
           "constraint.conjunction[0]")
    yield ("conjunction-scalar", lambda: MissConstraint(1, 2, conjunction=3),
           "constraint.conjunction")
    yield "empirical-scalar", lambda: Empirical(3), "exec_model.values"
    yield "scripted-scalar", lambda: Scripted(3, Deterministic(1)), "exec_model.values"
    yield ("matrix-ragged", lambda: ContinuousLti.from_ab([[1, 2], [3]], [[1], [1]]),
           "plant.A")
    yield "matrix-string", lambda: ContinuousLti.from_ab("ab", [[1]]), "plant.A"
    yield ("priorities-list", lambda: SchedulerConfig("fixed_priority", 8, priorities=[1]),
           "scheduler.priorities")
    yield ("reservations-list", lambda: SchedulerConfig("cbs_edf", 8, reservations=[1]),
           "scheduler.reservations")
    yield ("reservations-value", lambda: SchedulerConfig("cbs_edf", 8, reservations={1: 5}),
           "scheduler.reservations[1]")
    yield ("priorities-key", lambda: SchedulerConfig("fixed_priority", 8, priorities={"1": 0}),
           "scheduler.priorities['1']")
    yield ("reservations-key", lambda: SchedulerConfig(
        "cbs_edf", 8, reservations={-1: ReservationSpec(1, 2)}), "scheduler.reservations[-1]")
    yield ("budgets-scalar", lambda: verdicts(PLANT, K, _moc("tt_maxb"), MODEL, 5, 2, 4),
           "budgets")
    yield ("budgets-string", lambda: verdicts(PLANT, K, _moc("tt_hard"), MODEL, "12", 2, 4),
           "budgets")
    yield "exec-model", lambda: TaskSpec(**TASK, exec_model=5), "task.exec_model"
    yield "gap-model", lambda: Activation("sporadic", gap_model=5), "activation.gap_model"


@pytest.mark.parametrize("name, call, field", list(_malformed()),
                         ids=[name for name, *_ in _malformed()])
def test_every_malformed_collection_names_its_field(name, call, field):
    msg = _error(call)
    assert msg is not None and msg.startswith(field + ": "), msg


def test_collections_are_stored_as_tuples():
    assert SweepConfig(grid=[0.5, 1.0], mocs=["cs"]).grid == (0.5, 1.0)
    assert SweepConfig(grid={1.0, 0.5}, mocs={"cs"}).mocs == ("cs",)
    assert MissConstraint(1, 2, conjunction=[[0, 1]]).conjunction == ((0, 1),)
    assert Empirical([2, 1]).values == (2, 1)
    assert SchedulerConfig("edf", 8, collect=["arrival"]).collect == frozenset({"arrival"})
    # a mapping's task ids are stored as ints
    keys = SchedulerConfig("fixed_priority", 8, priorities={np.int64(1): 0}).priorities
    assert [type(k) for k in keys] == [int]
    # a set's items are checked in sorted-repr order, the same in every run
    assert _error(lambda: SweepConfig(mocs={"x", "cs"})) == \
        "sweep.mocs[1]: must be one of %s, got 'x'" % ", ".join(MOC_KINDS)


kinds = st.one_of(st.sampled_from(EVENT_KINDS), st.text(max_size=3), st.integers())


@given(st.one_of(kinds, st.lists(kinds), st.sets(kinds), st.frozensets(kinds)))
@settings(max_examples=300, deadline=None)
def test_collect_is_a_set_of_event_kinds_or_a_config_error(collect):
    try:
        got = SchedulerConfig("edf", 8, collect=collect).collect
    except ConfigError as exc:
        assert str(exc).startswith("scheduler.collect")
        return
    assert type(got) is frozenset and got <= set(EVENT_KINDS)
    assert got == set(collect)


def test_a_sets_error_names_the_same_item_under_any_hash_seed():
    code = ("from softrt.simcore import SchedulerConfig\n"
            "print(list(frozenset({'x', 'y'})))\n"
            "try:\n"
            "    SchedulerConfig('edf', 8, collect=frozenset({'x', 'y'}))\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__, exc)\n")
    src = str(pathlib.Path(softrt.__file__).parents[1])
    orders, messages = set(), set()
    for seed in ("0", "1"):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=dict(os.environ, PYTHONHASHSEED=seed,
                                                  PYTHONPATH=src)).stdout.splitlines()
        orders.add(out[0])
        messages.add(out[1])
    assert len(orders) == 2  # the two seeds iterate the set in different orders
    assert messages == {"ConfigError scheduler.collect[0]: must be one of %s, got 'x'"
                        % ", ".join(EVENT_KINDS)}


SRC = pathlib.Path(softrt.__file__).parent


def test_each_rule_has_one_wording():
    text = "".join(path.read_text() for path in sorted(SRC.glob("*.py")))
    for words in ("must be an integer, got", "must be one of", "must be a number > 0",
                  "must be a list, got", "expected a numeric matrix"):
        assert text.count(words) == 1, words
    for words in ("unknown event kind", "expected an event kind",
                  "unknown model of computation", "expected an [m, n] pair"):
        assert words not in text, words
