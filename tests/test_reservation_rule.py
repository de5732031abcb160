"""taskmodel.check_reservation is the one rule for which (Q, R, T) exist, and
every routine that takes a reservation accepts exactly what it accepts.
Integers are Python's or numpy's, never booleans."""

import itertools

import numpy as np
import pytest

from softrt.analysis import MissConstraint, dropout_probability
from softrt.controlcore import ContinuousLti, c2d
from softrt.errors import ConfigError
from softrt.moc import (MOC_KINDS, MocKind, build_delay_chain, cosimulate, cs_modes,
                        service_distribution, service_periods, stabilizes, tt_maxb_modes,
                        verdicts)
from softrt.simcore import SchedulerConfig, simulate
from softrt.sweep import SweepConfig, bandwidth_sweep, sweep_to_csv
from softrt.taskmodel import (Deterministic, Empirical, ReservationSpec, Scripted, TaskSpec,
                              check_reservation)

VALUES = (-1, 0, 1, 2, 3, 4, 2.0, 2.5, True, np.int64(2), None)
PLANT = ContinuousLti.from_ab([[0.2]], [[1.0]])
K = [[0.4]]
MODEL = Empirical((1, 3))
ONE_TICK = Deterministic(1)  # every budget covers it: tt_hard runs at every reservation


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


NO_T = "T: must be an integer, got None"


def _words(kind):
    """A moc's words for a missing task period, None for cs, which has none."""
    return None if kind == "cs" else \
        "T: %s needs a task period that is a positive multiple of R" % kind


def _routines():
    """(name, missing, call(Q, R, T)) of every routine that takes a reservation,
    missing its words for T = None, None if it takes no task period."""
    yield "service_periods", None, lambda Q, R, T: service_periods(3, Q, R)
    yield "service_distribution", None, lambda Q, R, T: service_distribution(MODEL, Q, R)
    yield "dropout_probability", NO_T, lambda Q, R, T: dropout_probability(MODEL, Q, R, T)
    yield "build_delay_chain", NO_T, lambda Q, R, T: build_delay_chain(MODEL, Q, R, T, 2)
    yield "tt_maxb_modes", _words("tt_maxb"), \
        lambda Q, R, T: tt_maxb_modes(c2d(PLANT, 1.0), K, MODEL, Q, R, T)
    yield "cs_modes", None, lambda Q, R, T: cs_modes(PLANT, K, MODEL, Q, R, 2, 0.1)
    for kind in MOC_KINDS:
        yield ("verdicts/" + kind, _words(kind),
               lambda Q, R, T, kind=kind: verdicts(PLANT, K, _moc(kind), MODEL, [Q], R, T,
                                                   tick_seconds=0.1))
        yield ("cosimulate/" + kind, _words(kind),
               lambda Q, R, T, kind=kind: cosimulate(PLANT, K, _moc(kind), ONE_TICK, Q, R,
                                                     T, tick_seconds=0.1, horizon=4,
                                                     n_traj=2))


@pytest.mark.parametrize("name, missing, call", list(_routines()),
                         ids=[name for name, *_ in _routines()])
def test_every_routine_accepts_exactly_the_rules_reservations(name, missing, call):
    # every (Q, R, T) from VALUES: a routine without a task period ignores T
    accepted = 0
    for Q, R, T in itertools.product(VALUES, repeat=3):
        want = _error(lambda: check_reservation(Q, R, *([T] if missing else [])))
        got = _error(lambda: call(Q, R, T))
        assert got == (missing if want == NO_T else want), (Q, R, T)
        accepted += want is None
    assert accepted == (32 if missing else 16 * len(VALUES))


def test_the_rules_words():
    for args, message in (((2.5, 4), "Q: must be an integer, got 2.5"),
                          ((1, 10.0), "R: must be an integer, got 10.0"),
                          ((1, 1, True), "T: must be an integer, got True"),
                          ((np.bool_(True), 1), "Q: must be an integer, got np.True_"),
                          ((0, 1), "Q: need 1 <= Q <= R"),
                          ((1, 0), "Q: need 1 <= Q <= R"),
                          ((1, 2, 3), "T: must be a positive multiple of R"),
                          ((1, 2, 0), "T: must be a positive multiple of R")):
        with pytest.raises(ConfigError) as err:
            check_reservation(*args)
        assert str(err.value) == message, args
    check_reservation(np.int64(2), 4, np.int64(8))


def test_tick_and_count_arguments_are_integers():
    for kind in MOC_KINDS:
        for field, value in (("horizon", 8.5), ("n_traj", 2.5), ("n_traj", True)):
            with pytest.raises(ConfigError) as err:
                cosimulate(PLANT, K, _moc(kind), MODEL, 1, 1, 2, **{field: value})
            assert str(err.value) == "%s: must be an integer, got %r" % (field, value), kind
    for call, message in (
            (lambda: build_delay_chain(MODEL, 1, 1, 2, d_max=2.5),
             "d_max: must be an integer, got 2.5"),
            (lambda: service_periods(2.5, 1, 2), "c: must be an integer, got 2.5"),
            (lambda: stabilizes(PLANT, K, _moc("tt_hard"), MODEL, 1, 1, 2.5),
             "T: must be an integer, got 2.5")):
        assert _error(call) == message
    # numpy integers are integers here too
    est = cosimulate(PLANT, K, _moc("tt_maxb"), MODEL, 1, 1, 2, horizon=np.int64(8),
                     n_traj=np.int64(3)).estimates
    assert np.array_equal(est, cosimulate(PLANT, K, _moc("tt_maxb"), MODEL, 1, 1, 2,
                                          horizon=8, n_traj=3).estimates)


def _system(I):
    """A task set, reservations and three schedulers, every integer I(v)."""
    tasks = [TaskSpec(I(1), I(2), I(5), I(5), exec_model=Empirical((I(1), I(3)))),
             TaskSpec(I(2), I(1), I(4), I(4), miss_policy="abort",
                      exec_model=Scripted((I(2), I(2)), Deterministic(I(1)))),
             TaskSpec(I(3), I(2), I(7), I(7))]
    reservations = {1: ReservationSpec(I(2), I(5)),
                    2: ReservationSpec(I(1), I(4), "hard_suspend"),
                    3: ReservationSpec(I(2), I(7), reclaiming="grub")}
    schedulers = [SchedulerConfig("edf", I(40)),
                  SchedulerConfig("fixed_priority", I(40), priorities={1: I(2), 2: I(1), 3: I(3)}),
                  SchedulerConfig("cbs_edf", I(40), reservations=reservations)]
    return tasks, schedulers


def test_numpy_integers_give_the_python_ints_traces():
    tasks, schedulers = _system(int)
    np_tasks, np_schedulers = _system(np.int64)
    for sched, np_sched in zip(schedulers, np_schedulers):
        trace, np_trace = simulate(tasks, sched, seed=3), simulate(np_tasks, np_sched, seed=3)
        assert np_trace.to_csv() == trace.to_csv(), sched.kind
        assert np_trace.to_jsonl() == trace.to_jsonl(), sched.kind


def test_numpy_integers_configure_mocs_and_sweeps():
    assert MocKind("cs", np.int64(2)) == MocKind("cs", 2)
    sweep = SweepConfig(n_systems=np.int64(3), R=np.int64(10), T=np.int64(20))
    assert sweep_to_csv(bandwidth_sweep(sweep)) == sweep_to_csv(
        bandwidth_sweep(SweepConfig(n_systems=3)))


@pytest.mark.parametrize("make", [
    lambda b: Deterministic(b),
    lambda b: Empirical((1, b)),
    lambda b: TaskSpec(id=b, wcet=1, rel_deadline=4, period=4),
    lambda b: TaskSpec(id=1, wcet=1, rel_deadline=4, period=b),
    lambda b: ReservationSpec(budget=b, period=4),
    lambda b: SchedulerConfig("edf", b),
    lambda b: SchedulerConfig("fixed_priority", 4, priorities={1: b}),
    lambda b: MocKind("cs", b),
    lambda b: MocKind("tt_hard", act_delay=b),
    lambda b: SweepConfig(R=b),
    lambda b: SweepConfig(seed=b),
    lambda b: MissConstraint(b, 2),
    lambda b: check_reservation(1, 1, b),
    lambda b: service_periods(b, 1, 1),
    lambda b: cosimulate(PLANT, K, MocKind("tt_hard"), MODEL, 1, 1, 2, n_traj=b),
], ids=["ticks", "empirical", "id", "period", "budget", "horizon", "priority", "max_delay",
        "act_delay", "sweep-R", "sweep-seed", "constraint-m", "rule-T", "c", "n_traj"])
def test_numpy_booleans_are_rejected_wherever_booleans_are(make):
    assert _error(lambda: make(True)) is not None
    assert _error(lambda: make(np.bool_(True))) is not None
