import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moc_oracle as oracle
from moc_oracle import tt_hard_modes
from softrt.controlcore import (
    ContinuousLti,
    ControllerLti,
    DiscreteLti,
    c2d,
    dlqr,
    second_moment_stable,
)
from softrt.errors import ConfigError
from softrt.moc import (
    BUFFERED_KINDS,
    MOC_KINDS,
    DelayChain,
    MocKind,
    _verdict,
    build_delay_chain,
    cosimulate,
    cs_modes,
    service_distribution,
    service_periods,
    stabilizes,
    tt_maxb_modes,
    verdicts,
)
from softrt.simcore import SchedulerConfig, simulate
from softrt.taskmodel import (
    Beta,
    Deterministic,
    Empirical,
    ReservationSpec,
    TaskSpec,
    Uniform,
    sample_exec_times,
)


def scalar_plant(a=0.2, b=1.0):
    return ContinuousLti.from_ab([[a]], [[b]])


def lqr_gain(plant, horizon_s):
    d = c2d(plant, horizon_s)
    K, _ = dlqr(d.A, d.B, np.eye(d.A.shape[0]), np.eye(d.B.shape[1]))
    return K


def test_moc_kind_validation():
    MocKind("tt_hard")
    MocKind("cs", max_delay=2)
    with pytest.raises(ConfigError):
        MocKind("event_driven")
    with pytest.raises(ConfigError):
        MocKind("cs")  # needs max_delay
    with pytest.raises(ConfigError):
        MocKind("tt_sort", max_delay=0)
    with pytest.raises(ConfigError):
        MocKind("tt_hard", max_delay=2)
    MocKind("tt_hard", act_delay=0)
    for kind, max_delay in (("tt_maxb", None), ("tt_sort", 2), ("cs", 2)):
        with pytest.raises(ConfigError, match="act_delay"):
            MocKind(kind, max_delay, act_delay=1)
    with pytest.raises(ConfigError, match="act_delay"):
        MocKind("tt_hard", act_delay=-1)
    # the config reader's messages, for library callers too; a boolean is no count
    for kwargs, message in (
            (dict(kind="cs", max_delay=2.5), "moc.max_delay: must be an integer, got 2.5"),
            (dict(kind="tt_sort", max_delay=True), "moc.max_delay: must be an integer, got True"),
            (dict(kind="tt_hard", act_delay=1.5), "moc.act_delay: must be an integer, got 1.5"),
            (dict(kind="tt_hard", act_delay="1"), "moc.act_delay: must be an integer, got '1'")):
        with pytest.raises(ConfigError) as err:
            MocKind(**kwargs)
        assert str(err.value) == message


def test_service_periods():
    assert service_periods(1, 2, 4) == 1
    assert service_periods(2, 2, 4) == 1
    assert service_periods(3, 2, 4) == 2
    assert service_periods(7, 3, 4) == 3
    with pytest.raises(ConfigError):
        service_periods(0, 1, 1)
    with pytest.raises(ConfigError):
        service_periods(1, 3, 2)


def test_service_periods_match_reservation_simulation():
    # a hard reservation (Q, R) serves a lone job of demand c in exactly
    # ceil(c / Q) reservation periods
    for c in (1, 2, 3, 5, 7):
        for Q in (1, 2, 3):
            for R in range(Q, 5):
                t = TaskSpec(id=1, wcet=c, rel_deadline=40, period=40)
                res = {1: ReservationSpec(budget=Q, period=R,
                                          variant="hard_suspend")}
                trace = simulate([t], SchedulerConfig(
                    kind="cbs_edf", horizon=40, reservations=res))
                done = trace.of_kind("completion", 1)[0].tick
                assert math.ceil(done / R) == service_periods(c, Q, R)


def test_service_distribution_exact():
    assert service_distribution(Empirical((1, 2, 3)), Q=2, R=4) == [
        (1, Fraction(2, 3)), (2, Fraction(1, 3))]
    assert service_distribution(Deterministic(5), Q=2, R=2) == [(3, Fraction(1))]
    # continuous models produce floats that still sum to one
    dist = service_distribution(Beta(2.0, 5.0, 0.0, 10.0), Q=2, R=3)
    assert sum(p for _, p in dist) == pytest.approx(1.0, abs=1e-12)
    assert all(p > 0 for _, p in dist)


def test_delay_chain_hand_case():
    # service length 1 or 3 with equal odds, one activation every 2 periods,
    # buffer capped at 2: worked by hand, steady state (1/2, 1/3, 1/6)
    chain = build_delay_chain(Empirical((1, 3)), Q=1, R=1, T=2, d_max=2)
    assert chain.n_states == 3
    assert np.allclose(chain.transition, [
        [0.5, 0.5, 0.0],
        [0.5, 0.0, 0.5],
        [0.5, 0.5, 0.0],
    ])
    assert np.allclose(chain.steady, [0.5, 1.0 / 3.0, 1.0 / 6.0], atol=1e-12)


def test_delay_chain_deterministic_stays_empty():
    # every job takes exactly the activation interval: the buffer starts
    # empty and never builds up, even though any backlog would also persist
    chain = build_delay_chain(Deterministic(2), Q=1, R=1, T=2, d_max=3)
    assert np.allclose(chain.steady, [1.0, 0.0, 0.0, 0.0])


def test_delay_chain_matches_direct_recursion():
    model, Q, R, T, d_max = Empirical((1, 2, 4)), 1, 1, 2, 3
    chain = build_delay_chain(model, Q, R, T, d_max)
    F = T // R
    s_vals = -(-sample_exec_times(model, 200_000, 123) // Q)
    counts = np.zeros(d_max + 1)
    d = 0
    for s in s_vals:
        counts[d] += 1
        fin = d + int(s)
        d = 0 if fin - F > d_max else max(0, fin - F)
    occupancy = counts / counts.sum()
    assert np.allclose(occupancy, chain.steady, atol=0.01)


def test_delay_chain_validation():
    with pytest.raises(ConfigError):
        build_delay_chain(Empirical((1, 2)), Q=1, R=2, T=3, d_max=2)
    with pytest.raises(ConfigError):
        build_delay_chain(Empirical((1, 2)), Q=1, R=1, T=2, d_max=0)
    with pytest.raises(ConfigError):
        DelayChain(np.array([[0.5, 0.4], [0.0, 1.0]]), np.array([0.0, 1.0]))
    with pytest.raises(ConfigError):
        DelayChain(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.9, 0.1]))


def test_delay_chain_rejects_non_finite_steady_state():
    # NaN fails every comparison, so the fixed-point check alone passes it
    with pytest.raises(ConfigError, match="chain.steady"):
        DelayChain(np.eye(2), [math.nan, math.nan])


def test_tt_maxb_modes_needs_a_discrete_plant():
    # a continuous plant used to fail on its missing sample_period
    with pytest.raises(ConfigError) as err:
        tt_maxb_modes(scalar_plant(), [[0.3]], Empirical((1, 2)), Q=1, R=1, T=2)
    assert str(err.value) == "plant: tt_maxb_modes needs a DiscreteLti, got ContinuousLti"


def test_tt_maxb_modes_probabilities():
    plant_d = DiscreteLti([[0.9]], [[1.0]], [[1.0]], [[0.0]], 1.0)
    modes = tt_maxb_modes(plant_d, [[0.3]], Empirical((1, 2, 3)), Q=1, R=1, T=2)
    assert modes.labels == ["closed", "open"]
    assert modes.probabilities == pytest.approx([2.0 / 3.0, 1.0 / 3.0])


def test_cs_modes_three_point_service():
    plant = scalar_plant()
    modes = cs_modes(plant, [[0.4]], Empirical((1, 3, 5)), Q=1, R=1, max_delay=3)
    assert modes.labels == ["s=1", "s=3", "cancel"]
    assert modes.probabilities == pytest.approx([1 / 3, 1 / 3, 1 / 3])
    d1 = c2d(plant, 1.0)
    assert np.allclose(modes.matrices[0],
                       [[d1.A[0, 0], d1.B[0, 0]], [-0.4, 0.0]])
    d3 = c2d(plant, 3.0)
    assert np.allclose(modes.matrices[2],
                       [[d3.A[0, 0], d3.B[0, 0]], [0.0, 1.0]])


def test_cs_modes_single_service_length():
    modes = cs_modes(scalar_plant(), [[0.4]], Deterministic(2), Q=2, R=3,
                     max_delay=2)
    assert modes.labels == ["s=1"]
    assert modes.probabilities == [1.0]


def test_cs_single_period_shares_drop_odds_with_tt_maxb():
    # with a one-period buffer and T = R both disciplines drop exactly when
    # the demand overruns one budget, and hold the command the same way
    plant = scalar_plant()
    model = Empirical((1, 2))
    Q, R, T = 1, 2, 2
    plant_d = c2d(plant, T * 1.0)
    maxb = tt_maxb_modes(plant_d, [[0.4]], model, Q, R, T)
    cs = cs_modes(plant, [[0.4]], model, Q, R, max_delay=1)
    assert cs.probabilities == pytest.approx(maxb.probabilities)
    assert np.allclose(cs.matrices[1], maxb.matrices[1])  # both hold on drop
    # the fresh-command modes differ: cs latches at the job's end, tt_maxb
    # applies the command over the same period it was computed in
    assert not np.allclose(cs.matrices[0], maxb.matrices[0])


def test_cs_modes_discretise_each_interval_once(monkeypatch):
    # s = 1..3 served and s = 4 cancelled after max_delay = 3 periods: the
    # cancel mode reuses the s = 3 discretisation
    import softrt.moc as moc

    seconds = []
    real = moc.c2d
    monkeypatch.setattr(moc, "c2d", lambda plant, T: seconds.append(T) or real(plant, T))
    modes = cs_modes(scalar_plant(), [[0.4]], Empirical((1, 2, 3, 4)), Q=1, R=2,
                     max_delay=3, tick_seconds=0.5)
    assert modes.labels == ["s=1", "s=2", "s=3", "cancel"]
    assert seconds == [1.0, 2.0, 3.0]


def test_tt_hard_modes_discretise_each_interval_once(monkeypatch):
    # act_delay = T - act_delay: the held and the latched stretch share one c2d
    import softrt.moc as moc

    seconds = []
    real = moc.c2d
    monkeypatch.setattr(moc, "c2d", lambda plant, T: seconds.append(T) or real(plant, T))
    plant, K = scalar_plant(), [[0.4]]
    half = tt_hard_modes(plant, K, T=4, act_delay=2, tick_seconds=0.5)
    assert seconds == [1.0]
    d = real(plant, 1.0)
    assert np.allclose(half.matrices[0], [[d.A[0, 0] ** 2 - 0.4 * d.B[0, 0],
                                           d.A[0, 0] * d.B[0, 0]], [-0.4, 0.0]])


def test_mode_tables_take_a_discrete_plant_only_over_its_own_interval():
    plant_d = DiscreteLti([[0.5]], [[1.0]], [[1.0]], [[0.0]], 2.0)
    for act_delay in (0, 2):  # the plant's interval T, or none
        assert tt_hard_modes(plant_d, [[0.1]], T=2, act_delay=act_delay).matrices
    one_tick = re.escape("plant.sample_period: 2.0 s, but this loop needs the plant over "
                         "1 tick of 1.0 s; continuous model required")
    with pytest.raises(ConfigError, match=one_tick):
        tt_hard_modes(plant_d, [[0.1]], T=2, act_delay=1)
    with pytest.raises(ConfigError, match=one_tick):
        cs_modes(plant_d, [[0.1]], Empirical((1, 2)), Q=1, R=1, max_delay=2)


def test_tt_hard_modes_zero_delay_is_ideal_loop():
    plant = scalar_plant()
    K = [[0.4]]
    T = 3
    ideal = tt_hard_modes(plant, K, T=T, act_delay=0)
    static = oracle.build_modes(c2d(plant, float(T)), K)
    assert np.allclose(ideal.matrices[0], static.matrices[0])
    full = tt_hard_modes(plant, K, T=T, act_delay=T)
    d = c2d(plant, float(T))
    assert np.allclose(full.matrices[0],
                       [[d.A[0, 0], d.B[0, 0]], [-0.4, 0.0]])
    with pytest.raises(ConfigError):
        tt_hard_modes(plant, K, T=3, act_delay=4)
    with pytest.raises(ConfigError, match=r"tt\.K: expected shape \(1, 1\)"):
        tt_hard_modes(plant, [[0.4, 0.1]], T=3, act_delay=1)


def test_verdict_thresholds():
    decay = np.array([1.0] + [1e-8] * 11)
    assert _verdict(decay) == "stable"
    blowup = np.array([1.0] + [1e8] * 11)
    assert _verdict(blowup) == "unstable"
    # overflow propagates to the tail in any real run
    assert _verdict(np.array([1.0] * 8 + [float("nan")] * 4)) == "unstable"
    assert _verdict(np.ones(12)) == "inconclusive"


def test_cosim_never_dropping_loop_is_stable():
    plant = scalar_plant(a=0.3)
    K = lqr_gain(plant, 1.0)
    res = cosimulate(plant, K, MocKind("tt_maxb"), Deterministic(1),
                     Q=1, R=1, T=1, horizon=200, n_traj=8)
    assert res.verdict == "stable"
    assert res.estimates[0] == 1.0
    assert np.all(res.mode_sequence == 0)


def test_cosim_deterministic_across_calls():
    plant = scalar_plant()
    K = lqr_gain(plant, 2.0)
    kw = dict(Q=1, R=1, T=2, horizon=60, n_traj=5, seed=9)
    a = cosimulate(plant, K, MocKind("tt_maxb"), Empirical((1, 2, 3)), **kw)
    b = cosimulate(plant, K, MocKind("tt_maxb"), Empirical((1, 2, 3)), **kw)
    assert np.array_equal(a.estimates, b.estimates)
    assert np.array_equal(a.mode_sequence, b.mode_sequence)


def test_cosim_cs_and_tt_maxb_drop_in_lockstep():
    plant = scalar_plant()
    K = lqr_gain(plant, 2.0)
    model = Empirical((1, 2, 3))
    kw = dict(Q=1, R=2, horizon=80, n_traj=3, seed=4)
    maxb = cosimulate(plant, K, MocKind("tt_maxb"), model, T=2, **kw)
    cs = cosimulate(plant, K, MocKind("cs", max_delay=1), model, **kw)
    assert np.array_equal(maxb.mode_sequence > 0, cs.mode_sequence > 0)


def test_cosim_tt_hard_tracks_single_mode_radius():
    plant = scalar_plant(a=0.3)
    K = lqr_gain(plant, 1.0)
    rho = float(np.max(np.abs(np.linalg.eigvals(
        tt_hard_modes(plant, K, T=1, act_delay=1).matrices[0]))))
    assert rho < 1.0  # a full period of actuation delay still tolerable here
    res = cosimulate(plant, K, MocKind("tt_hard"), Deterministic(1),
                     Q=1, R=1, T=1, horizon=2500)
    assert res.verdict == "stable"


def test_tt_hard_verdict_counts_the_actuation_delay():
    # every job fits its budget, but a period of actuation delay breaks a
    # loop the same gain keeps stable with none (Cervin et al., IEEE CSM 2003)
    plant = scalar_plant(a=2.0)
    d = c2d(plant, 1.0)
    K, _ = dlqr(d.A, d.B, np.eye(1), 0.01 * np.eye(1))
    for act_delay, stable in ((None, False), (0, True)):
        moc = MocKind("tt_hard", act_delay=act_delay)
        M = tt_hard_modes(plant, K, 1, act_delay).matrices[0]
        rho = np.max(np.abs(np.linalg.eigvals(M)))
        assert rho < 0.01 if stable else abs(rho - 6.2) < 0.01
        assert verdicts(plant, K, moc, Deterministic(1), [1], 1, 1) == [stable]
        res = cosimulate(plant, K, moc, Deterministic(1), Q=1, R=1, T=1)
        assert res.verdict == ("stable" if stable else "unstable")


def test_cosim_validation():
    plant = scalar_plant()
    with pytest.raises(ConfigError):
        cosimulate(plant, [[0.4]], MocKind("tt_maxb"), Deterministic(1),
                   Q=1, R=1)  # T missing
    with pytest.raises(ConfigError):
        cosimulate(plant, [[0.4]], MocKind("tt_maxb"), Deterministic(1),
                   Q=1, R=2, T=3)
    with pytest.raises(ConfigError):
        cosimulate(plant, [[0.4]], MocKind("tt_maxb"), Deterministic(1),
                   Q=1, R=1, T=1, n_traj=0)
    d = c2d(plant, 2.0)  # a one-tick cs job needs the plant over 1 s
    with pytest.raises(ConfigError, match="plant.sample_period"):
        cosimulate(d, [[0.4]], MocKind("cs", max_delay=1), Deterministic(1),
                   Q=1, R=1)
    # the budget must satisfy 1 <= Q <= R for every kind
    for moc, Q in ((MocKind("tt_hard"), 0), (MocKind("tt_maxb"), -1),
                   (MocKind("tt_sort", max_delay=2), 0),
                   (MocKind("cs", max_delay=2), 3)):
        with pytest.raises(ConfigError, match="Q"):
            cosimulate(plant, [[0.4]], moc, Deterministic(1), Q=Q, R=2, T=2)


def test_tick_seconds_must_be_a_number_above_zero():
    # one check, in the discretiser every routine builds, worded like the
    # config reader's; numpy floats and integers pass, booleans do not
    plant, K, model = scalar_plant(), [[0.4]], Empirical((1, 2))
    runs = {
        "cosimulate": lambda ts: cosimulate(plant, K, MocKind("tt_maxb"), model, Q=1, R=1, T=2,
                                            horizon=8, n_traj=2, tick_seconds=ts),
        "verdicts": lambda ts: verdicts(plant, K, MocKind("tt_maxb"), model, [1], 1, 2,
                                        tick_seconds=ts),
        "stabilizes": lambda ts: stabilizes(plant, K, MocKind("tt_hard"), model, 1, 1, 2,
                                            tick_seconds=ts),
        "cs_modes": lambda ts: cs_modes(plant, K, model, 1, 1, 2, tick_seconds=ts),
        "tt_hard_modes": lambda ts: tt_hard_modes(plant, K, 2, None, tick_seconds=ts),
    }
    for name, run in runs.items():
        for ts in (0, -1.0, float("nan"), float("inf"), True):
            with pytest.raises(ConfigError) as err:
                run(ts)
            assert str(err.value) == "tick_seconds: must be a number > 0, got %r" % (ts,), name
        for ts in (2, np.float64(0.5), 0.01):
            run(ts)


def test_tt_hard_modes_needs_a_task_period():
    for T in (0, -2):
        with pytest.raises(ConfigError, match=r"^T: must be >= 1$"):
            tt_hard_modes(scalar_plant(), [[0.4]], T, None)


def test_every_mechanism_checks_the_gain_against_the_plant():
    # a 2-state plant with a 1x3 or a non-finite gain: each co-simulation and
    # each exact verdict rejects it by name before using it
    plant = ContinuousLti.from_ab([[0.2, 1.0], [0.0, -0.5]], [[0.0], [1.0]])
    kw = dict(Q=1, R=1, T=2, tick_seconds=0.01)
    for moc in (MocKind("tt_hard"), MocKind("tt_maxb"), MocKind("tt_sort", 2),
                MocKind("cs", 2)):
        for K, match in (([[0.1, 0.2, 0.3]], r"tt\.K: expected shape \(1, 2\), got \(1, 3\)"),
                         ([[0.1, float("nan")]], r"tt\.K: entries must be finite")):
            with pytest.raises(ConfigError, match=match):
                cosimulate(plant, K, moc, Empirical((1, 2)), horizon=8, n_traj=2, **kw)
            with pytest.raises(ConfigError, match=match):
                verdicts(plant, K, moc, Empirical((1, 2)), [1], 1, 2, tick_seconds=0.01)


def test_a_plant_sampled_at_the_loops_own_interval_is_its_continuous_plant():
    # every interval these loops use is T = R ticks, the discrete plant's own
    plant = ContinuousLti.from_ab([[0.2, 1.0], [0.0, -0.5]], [[0.0], [1.0]])
    R = T = 4
    tick = 0.05
    plant_d, K = c2d(plant, T * tick), lqr_gain(plant, T * tick)
    model = Empirical((1, 2, 3, 5, 8, 13))
    for moc in (MocKind("tt_maxb"), MocKind("tt_hard", act_delay=0), MocKind("tt_hard"),
                MocKind("tt_hard", act_delay=T), MocKind("tt_sort", 1), MocKind("cs", 1)):
        got, want = (verdicts(p, K, moc, model, [1, 2, 3, 4], R, T, tick_seconds=tick)
                     for p in (plant_d, plant))
        assert np.array_equal(got, want), moc
        got, want = (cosimulate(p, K, moc, model, 2, R, T, tick_seconds=tick, horizon=40,
                                n_traj=5, seed=3).estimates for p in (plant_d, plant))
        assert np.array_equal(got, want), moc


@st.composite
def any_loop(draw):
    """(plant, K, moc, model, Q, R, T) at 0.1 s a tick: a continuous plant
    or it sampled over some ticks, a static gain or a ControllerLti, right
    or one column too wide.  Each way to be wrong is drawn rarely, so that
    about a third of the loops run."""
    kind = draw(st.sampled_from(MOC_KINDS))
    R = draw(st.integers(1, 3))
    T = R * draw(st.integers(1, 3)) if draw(st.integers(0, 4)) else draw(st.integers(1, 6))
    moc = MocKind(kind, draw(st.integers(1, 3)) if kind in BUFFERED_KINDS else None,
                  draw(st.none() | st.integers(0, T + 2)) if kind == "tt_hard" else None)
    n = draw(st.integers(1, 2))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    plant = ContinuousLti.from_ab(g.uniform(-1, 1, (n, n)), g.uniform(-1, 1, (n, 1)))
    # sampled over T or over R ticks (each some kind's own), or over neither
    sampled = draw(st.sampled_from((None, None, T, R, 2 * T + 1)))
    if sampled is not None:
        plant = c2d(plant, sampled * 0.1)
    cols = n + draw(st.sampled_from((0, 0, 0, 0, 1)))
    if draw(st.booleans()):
        K = g.uniform(-1, 1, (1, cols))
    else:
        K = ControllerLti(0.5 * np.eye(2), g.uniform(-1, 1, (2, cols)), g.uniform(-1, 1, (1, 2)))
    model = draw(st.sampled_from((Deterministic(2), Empirical((1, 3, 4)), Uniform(0.0, 5.0))))
    Q = draw(st.sampled_from(list(range(1, R + 1)) * 4 + [0, R + 1]))
    return plant, K, moc, model, Q, R, T


def _rejects(run) -> bool:
    try:
        run()
    except ConfigError:
        return True
    return False


@given(any_loop())
@settings(max_examples=400, deadline=None)
def test_cosim_and_verdicts_accept_the_same_loops(loop):
    # the verdicts' oracle runs exactly the loops they decide
    plant, K, moc, model, Q, R, T = loop
    cosim = _rejects(lambda: cosimulate(plant, K, moc, model, Q, R, T, tick_seconds=0.1,
                                        horizon=8, n_traj=2))
    exact = _rejects(lambda: verdicts(plant, K, moc, model, [Q], R, T, tick_seconds=0.1))
    assert cosim == exact


def test_cosim_discrete_plant_must_sample_at_the_task_period():
    # a plant discretised at 5 s would be run as if each 0.02 s period
    # were 5 s long
    plant = ContinuousLti.from_ab([[0.2, 1.0], [0.0, -0.5]], [[0.0], [1.0]])
    K = lqr_gain(plant, 0.02)
    kw = dict(Q=1, R=1, T=2, tick_seconds=0.01, horizon=40, n_traj=2)
    model = Empirical((1, 2, 3))
    with pytest.raises(ConfigError, match="plant.sample_period"):
        cosimulate(c2d(plant, 5.0), K, MocKind("tt_maxb"), model, **kw)
    same = cosimulate(c2d(plant, 0.02), K, MocKind("tt_maxb"), model, **kw)
    assert np.array_equal(same.estimates,
                          cosimulate(plant, K, MocKind("tt_maxb"), model, **kw).estimates)


def test_cosim_analytic_agreement_smoke():
    plant = scalar_plant(a=0.4)
    T = 1
    K = lqr_gain(plant, float(T))
    model = Empirical((2, 2, 2, 1))  # drops 3 jobs in 4, plant drifts open
    modes = tt_maxb_modes(c2d(plant, float(T)), K, model, Q=1, R=1, T=T)
    assert not second_moment_stable(modes)
    res = cosimulate(plant, K, MocKind("tt_maxb"), model, Q=1, R=1, T=T,
                     horizon=400, n_traj=150, seed=2)
    assert res.verdict == "unstable"


def test_stabilizes_rule_per_mechanism():
    # a budget of 1 per 2 ticks overruns on three jobs in four; a budget of 2
    # always fits, so every mechanism's verdict flips between the two
    plant = scalar_plant(a=0.2)
    K = lqr_gain(plant, 1.0)
    model = Empirical((2, 2, 2, 1))
    kw = dict(tick_seconds=0.5)
    for moc in (MocKind("tt_hard"), MocKind("tt_maxb"),
                MocKind("tt_sort", max_delay=1), MocKind("cs", max_delay=1)):
        assert not stabilizes(plant, K, moc, model, 1, 2, 2, **kw), moc.kind
        assert stabilizes(plant, K, moc, model, 2, 2, 2, **kw), moc.kind
    # a schedulable budget is not enough: without feedback the plant drifts
    assert not stabilizes(plant, [[0.0]], MocKind("tt_hard"), model, 2, 2, 2, **kw)
    assert not stabilizes(plant, [[0.0]], MocKind("tt_maxb"), model, 2, 2, 2, **kw)
    with pytest.raises(ConfigError, match="Q"):
        stabilizes(plant, K, MocKind("tt_hard"), model, 3, 2, 2, **kw)


def lag1_autocorr(x):
    x = np.asarray(x, dtype=float)
    x = x - x.mean()
    denom = float(np.dot(x, x))
    if denom == 0.0:
        return 0.0
    return float(np.dot(x[:-1], x[1:]) / denom)


def test_mode_sequences_memoryless_for_maxb_and_cs():
    plant = scalar_plant()
    K = lqr_gain(plant, 2.0)
    model = Empirical((1, 2, 3))
    kw = dict(Q=1, R=2, horizon=2000, n_traj=2, seed=11)
    maxb = cosimulate(plant, K, MocKind("tt_maxb"), model, T=2, **kw)
    cs = cosimulate(plant, K, MocKind("cs", max_delay=1), model, **kw)
    bound = 3.0 / math.sqrt(2000)
    assert abs(lag1_autocorr(maxb.mode_sequence)) < bound
    assert abs(lag1_autocorr(cs.mode_sequence)) < bound


def test_tt_sort_backlog_carries_memory():
    # service 1 or 3 against an activation every 2 periods: today's backlog
    # feeds tomorrow's, so activation delays are positively correlated
    plant = scalar_plant()
    K = lqr_gain(plant, 2.0)
    res = cosimulate(plant, K, MocKind("tt_sort", max_delay=2),
                     Empirical((1, 3)), Q=1, R=1, T=2,
                     horizon=16_000, n_traj=1, seed=5)
    delays = res.delay_sequence
    assert len(delays) == 8000
    rho = lag1_autocorr(delays)
    assert rho > 3.0 / math.sqrt(len(delays))


def test_tt_sort_delay_occupancy_matches_chain():
    chain = build_delay_chain(Empirical((1, 3)), Q=1, R=1, T=2, d_max=2)
    plant = scalar_plant()
    K = lqr_gain(plant, 2.0)
    res = cosimulate(plant, K, MocKind("tt_sort", max_delay=2),
                     Empirical((1, 3)), Q=1, R=1, T=2,
                     horizon=16_000, n_traj=1, seed=5)
    occupancy = np.bincount(res.delay_sequence, minlength=3) / len(res.delay_sequence)
    assert np.allclose(occupancy, chain.steady, atol=0.03)
