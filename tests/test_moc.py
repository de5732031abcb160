import math
from fractions import Fraction

import numpy as np
import pytest

from softrt.controlcore import (
    ContinuousLti,
    DiscreteLti,
    build_modes,
    c2d,
    dlqr,
    second_moment_stable,
)
from softrt.errors import ConfigError
from softrt.moc import (
    DelayChain,
    MocKind,
    _verdict,
    build_delay_chain,
    cosimulate,
    cs_modes,
    service_distribution,
    service_periods,
    stabilizes,
    tt_hard_modes,
    tt_maxb_modes,
)
from softrt.simcore import SchedulerConfig, simulate
from softrt.taskmodel import (
    Beta,
    Deterministic,
    Empirical,
    ReservationSpec,
    TaskSpec,
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


def test_tt_hard_modes_zero_delay_is_ideal_loop():
    plant = scalar_plant()
    K = [[0.4]]
    T = 3
    ideal = tt_hard_modes(plant, K, T=T, act_delay=0)
    static = build_modes(c2d(plant, float(T)), K)
    assert np.allclose(ideal.matrices[0], static.matrices[0])
    full = tt_hard_modes(plant, K, T=T, act_delay=T)
    d = c2d(plant, float(T))
    assert np.allclose(full.matrices[0],
                       [[d.A[0, 0], d.B[0, 0]], [-0.4, 0.0]])
    with pytest.raises(ConfigError):
        tt_hard_modes(plant, K, T=3, act_delay=4)


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
    d = c2d(plant, 1.0)
    with pytest.raises(ConfigError):
        cosimulate(d, [[0.4]], MocKind("cs", max_delay=1), Deterministic(1),
                   Q=1, R=1)
    # the budget must satisfy 1 <= Q <= R for every kind
    for moc, Q in ((MocKind("tt_hard"), 0), (MocKind("tt_maxb"), -1),
                   (MocKind("tt_sort", max_delay=2), 0),
                   (MocKind("cs", max_delay=2), 3)):
        with pytest.raises(ConfigError, match="Q"):
            cosimulate(plant, [[0.4]], moc, Deterministic(1), Q=Q, R=2, T=2)


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
    kw = dict(tick_seconds=0.5, horizon=200, n_traj=20, seed=1)
    for moc in (MocKind("tt_hard"), MocKind("tt_maxb"),
                MocKind("tt_sort", max_delay=1), MocKind("cs", max_delay=1)):
        assert not stabilizes(plant, K, moc, model, 1, 2, 2, **kw), moc.kind
        assert stabilizes(plant, K, moc, model, 2, 2, 2, **kw), moc.kind
    # tt_hard is schedulability alone: it ignores the loop dynamics
    assert stabilizes(plant, [[0.0]], MocKind("tt_hard"), model, 2, 2, 2, **kw)
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
