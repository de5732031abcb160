"""End-to-end acceptance suite.

One test per headline claim; pytest -v emits one pass/fail line each.
Every tolerance and runtime bound is pinned in the assertions, and each
battery derives its cases from fixed seed strings, so reruns are exact.
"""

import dataclasses
import math
import pathlib
import time
from fractions import Fraction

import numpy as np

from softrt.analysis import dropout_probability
from softrt.controlcore import (ContinuousLti, c2d, dlqr, gelfand_radius,
                                kron, second_moment_stable, spectral_radius,
                                stability_matrix)
from softrt.errors import NumericalError
from softrt.moc import MocKind, build_delay_chain, cosimulate, tt_maxb_modes
from softrt.simcore import SchedulerConfig, simulate
from softrt.sweep import SweepConfig, bandwidth_sweep, random_system
from softrt.taskmodel import (Deterministic, Empirical, ReservationSpec,
                              TaskSpec, derived_seed, utilization)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "edf_overload_trace.csv"


def test_criterion_01_edf_overload_golden_trace(overload_tasks):
    t0 = time.monotonic()
    trace = simulate(overload_tasks, SchedulerConfig(kind="edf", horizon=20),
                     seed=0)
    for tid in (1, 2, 3):
        assert trace.miss_count(tid) >= 1
    rec = trace.job_records()[1][2]
    assert rec.arrival == 8
    assert rec.completion == 14
    assert trace.to_csv() == GOLDEN.read_text()
    assert time.monotonic() - t0 < 1.0
    print("criterion 1 PASS: overload trace matches the golden file")


def test_criterion_02_cbs_isolation(overload_tasks, overload_reservations):
    t0 = time.monotonic()
    cfg = SchedulerConfig(kind="cbs_edf", horizon=20,
                          reservations=overload_reservations)
    trace = simulate(overload_tasks, cfg, seed=0)
    assert trace.miss_count(2) == 0
    assert trace.miss_count(3) == 0
    assert trace.miss_count(1) >= 2
    assert time.monotonic() - t0 < 1.0
    print("criterion 2 PASS: reservations confine misses to the overloaded task")


def _util_one_sets(n_sets):
    """Deterministic-WCET implicit-deadline sets with total utilization <= 1."""
    periods = (2, 3, 4, 5, 6, 8, 10, 12)
    sets = []
    for i in range(n_sets):
        rng = np.random.default_rng(derived_seed("edf-suff", i))
        tasks = []
        slack = Fraction(1)
        for tid in range(1, int(rng.integers(2, 5)) + 1):
            p = int(rng.choice(periods))
            cmax = int(slack * p)
            if cmax < 1:
                continue
            c = int(rng.integers(1, cmax + 1))
            slack -= Fraction(c, p)
            tasks.append(TaskSpec(id=tid, wcet=c, rel_deadline=p, period=p))
        if tasks:
            sets.append(tasks)
    return sets


def test_criterion_03_utilization_and_edf_sufficiency():
    named = [TaskSpec(id=1, wcet=1, rel_deadline=4, period=4),
             TaskSpec(id=2, wcet=2, rel_deadline=5, period=5),
             TaskSpec(id=3, wcet=2, rel_deadline=6, period=6)]
    assert utilization(named) == Fraction(59, 60)
    cfg = SchedulerConfig(kind="edf", horizon=120,
                          collect=frozenset({"deadline_miss"}))
    assert simulate(named, cfg, seed=0).miss_count() == 0
    for tasks in _util_one_sets(20):
        assert utilization(tasks) <= 1
        assert simulate(tasks, cfg, seed=0).miss_count() == 0
    print("criterion 3 PASS: utilization 59/60 exact; EDF misses nothing at U <= 1")


def test_criterion_04_hard_reservation_schedulability():
    t0 = time.monotonic()
    for i in range(200):
        rng = np.random.default_rng(derived_seed("hard-sched", i))
        tasks, reservations = [], {}
        slack = Fraction(1)
        for tid in range(1, int(rng.integers(1, 4)) + 1):
            p = int(rng.integers(2, 11))
            qmax = int(slack * p)
            if qmax < 1:
                continue
            q = int(rng.integers(1, qmax + 1))
            slack -= Fraction(q, p)
            c = int(rng.integers(1, q + 1))  # Q >= C
            t = int(rng.integers(p, 2 * p + 1))  # P <= T
            variant = "hard_suspend" if tid % 2 else "soft_postpone"
            tasks.append(TaskSpec(id=tid, wcet=c, rel_deadline=t, period=t))
            reservations[tid] = ReservationSpec(budget=q, period=p,
                                                variant=variant)
        if not tasks:
            continue
        cfg = SchedulerConfig(kind="cbs_edf", horizon=90,
                              reservations=reservations,
                              collect=frozenset({"deadline_miss"}))
        trace = simulate(tasks, cfg, seed=i)
        assert trace.miss_count() == 0, "missed with reservations %r" % reservations
    assert time.monotonic() - t0 < 30.0
    print("criterion 4 PASS: 200 guaranteed reservation sets run without misses")


def test_criterion_05_temporal_isolation():
    t0 = time.monotonic()
    horizon = 120
    for i in range(100):
        rng = np.random.default_rng(derived_seed("isolation", i))
        # victim first: small server period so it provably completes jobs
        # within the horizon; per-job demand exceeds the task period, so
        # even with every spare tick the backlog never drains and the
        # server state cannot depend on how large the demand actually is
        pv = int(rng.integers(2, 5))
        qv = int(rng.integers(1, max(2, pv // 2 + 1)))
        tv = int(rng.integers(pv, 2 * pv + 1))
        tasks = [TaskSpec(id=1, wcet=tv + 1, rel_deadline=tv, period=tv,
                          exec_model=Deterministic(tv + 1))]
        reservations = {1: ReservationSpec(budget=qv, period=pv)}
        slack = Fraction(1) - Fraction(qv, pv)
        for tid in range(2, int(rng.integers(2, 4)) + 1):
            p = int(rng.integers(2, 9))
            qmax = int(slack * p)
            if qmax < 1:
                continue
            q = int(rng.integers(1, qmax + 1))
            slack -= Fraction(q, p)
            tt = int(rng.integers(p, 2 * p + 1))
            vals = tuple(int(v) for v in rng.integers(1, 2 * q + 1, size=3))
            tasks.append(TaskSpec(id=tid, wcet=max(vals), rel_deadline=tt,
                                  period=tt, exec_model=Empirical(vals)))
            reservations[tid] = ReservationSpec(budget=q, period=p)
        if len(tasks) < 2:
            continue
        cfg = SchedulerConfig(kind="cbs_edf", horizon=horizon,
                              reservations=reservations)
        base_trace = simulate(tasks, cfg, seed=i)
        bloated = [dataclasses.replace(t, wcet=2 * (tv + 1),
                                       exec_model=Deterministic(2 * (tv + 1)))
                   if t.id == 1 else t for t in tasks]
        infl_trace = simulate(bloated, cfg, seed=i)
        others = lambda tr: [e for e in tr.events if e.task != 1]
        mine = lambda tr: [e for e in tr.events if e.task == 1]
        assert others(base_trace) == others(infl_trace), "config %d" % i
        assert mine(base_trace) != mine(infl_trace), "config %d" % i
    assert time.monotonic() - t0 < 30.0
    print("criterion 5 PASS: inflating one task never perturbs the others")


def test_criterion_06_dropout_probability_vs_simulation():
    n_jobs = 100_000
    for i in range(20):
        rng = np.random.default_rng(derived_seed("dropout", i))
        while True:
            Q = int(rng.integers(1, 4))
            R = Q + int(rng.integers(0, 2))
            F = int(rng.integers(1, 3))
            T = F * R
            if T <= 4:
                break
        vals = tuple(int(v) for v in
                     rng.integers(1, Q * F + 3, size=int(rng.integers(2, 7))))
        model = Empirical(vals)
        mu = dropout_probability(model, Q, R, T)
        tasks = [TaskSpec(id=1, wcet=max(vals), rel_deadline=T, period=T,
                          miss_policy="abort", exec_model=model)]
        cfg = SchedulerConfig(
            kind="cbs_edf", horizon=n_jobs * T,
            reservations={1: ReservationSpec(budget=Q, period=R,
                                             variant="hard_suspend")},
            collect=frozenset({"deadline_miss"}))
        freq = simulate(tasks, cfg, seed=i).miss_count() / n_jobs
        se = math.sqrt(float(mu) * (1 - float(mu)) / n_jobs)
        assert abs(freq - float(mu)) <= 3 * se + 1e-12, \
            "mu=%s freq=%.5f Q=%d R=%d T=%d vals=%r" % (mu, freq, Q, R, T, vals)
    print("criterion 6 PASS: drop frequencies track the analytic probability")


def _rk4_hold(A, B, T, steps=2000):
    """Held-input discretization by RK4 on X' = [[A,B],[0,0]] X."""
    n, p = A.shape[0], B.shape[1]
    M = np.zeros((n + p, n + p))
    M[:n, :n] = A
    M[:n, n:] = B
    X = np.eye(n + p)
    h = T / steps
    for _ in range(steps):
        k1 = M @ X
        k2 = M @ (X + h / 2 * k1)
        k3 = M @ (X + h / 2 * k2)
        k4 = M @ (X + h * k3)
        X = X + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return X[:n, :n], X[:n, n:]


def test_criterion_07_numerics():
    rng = np.random.default_rng(derived_seed("numerics"))
    for _ in range(100):
        n = int(rng.integers(1, 7))
        A = rng.normal(size=(n, n))
        r = spectral_radius(A)
        assert abs(spectral_radius(kron(A, A)) - r * r) <= 1e-9 * max(1.0, r * r)
    for _ in range(100):
        n = int(rng.integers(1, 17))
        A = rng.normal(size=(n, n))
        a, b = spectral_radius(A), gelfand_radius(A)
        assert abs(a - b) <= 1e-6 * max(a, b)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, int(rng.integers(1, 3))))
        d = c2d(ContinuousLti.from_ab(A, B), 0.3)
        Ad, Bd = _rk4_hold(A, B, 0.3)
        assert np.max(np.abs(d.A - Ad)) <= 1e-6
        assert np.max(np.abs(d.B - Bd)) <= 1e-6
    K, P = dlqr(np.eye(1), np.eye(1), np.eye(1), np.eye(1))
    assert abs(P[0, 0] - (1 + math.sqrt(5)) / 2) <= 1e-6
    assert abs(K[0, 0] - (math.sqrt(5) - 1) / 2) <= 1e-6
    print("criterion 7 PASS: kron law, Gelfand oracle, RK4 oracle, "
          "closed-form regulator all agree")


T_PHYS = 0.2


def _mildly_unstable_case(seed, i, g, ru):
    """Random controllable plant shifted to growth rate g, with an
    expensive-control regulator; redraws on synthesis failure."""
    for r in range(20):
        base = random_system(2, derived_seed(seed, "sys", i, r))
        alpha = max(np.real(np.linalg.eigvals(base.A)))
        A = base.A + (g / T_PHYS - alpha) * np.eye(2)
        plant = ContinuousLti.from_ab(A, base.B)
        d = c2d(plant, T_PHYS)
        try:
            K, _ = dlqr(d.A, d.B, np.eye(2), ru * np.eye(1))
            return plant, d, K
        except NumericalError:
            continue
    raise AssertionError("no synthesizable draw for case %d" % i)


def test_criterion_08_analytic_vs_montecarlo_verdicts():
    # Two operating regimes keep the analytic and sample-path notions of
    # stability aligned: light load (rare drops, gentle plants, clearly
    # stable loops) and overload (frequent drops, aggressive plants, loops
    # whose trajectories genuinely diverge).  Near the crossover a loop can
    # be second-moment unstable while almost every trajectory decays, which
    # no finite ensemble can certify either way; the verdict there is
    # inconclusive by construction, so the law avoids sampling it.
    t0 = time.monotonic()
    rng = np.random.default_rng(derived_seed(0, "battery"))
    excluded = matches = inconclusive = contradictions = 0
    verdicts = {"stable": 0, "unstable": 0}
    for i in range(50):
        if rng.integers(0, 2):
            g = rng.uniform(0.03, 0.10)
            mu = rng.uniform(0.05, 0.35)
        else:
            g = rng.uniform(0.25, 0.50)
            mu = rng.uniform(0.80, 0.95)
        k = int(round(mu * 100))
        plant, d, K = _mildly_unstable_case(0, i, g, 100.0)
        model = Empirical((1,) * (100 - k) + (2,) * k)
        modes = tt_maxb_modes(d, K, model, 1, 1, 1)
        rho = spectral_radius(stability_matrix(modes))
        if 0.95 <= rho <= 1.05:
            excluded += 1
            continue
        analytic = "stable" if second_moment_stable(modes) else "unstable"
        verdicts[analytic] += 1
        res = cosimulate(plant, K, MocKind("tt_maxb"), model, 1, 1, 1,
                         tick_seconds=T_PHYS, horizon=500, n_traj=200,
                         seed=derived_seed(0, "mc", i))
        if res.verdict == analytic:
            matches += 1
        elif res.verdict == "inconclusive":
            inconclusive += 1
        else:
            contradictions += 1
    tested = matches + inconclusive + contradictions
    assert contradictions == 0
    assert tested > 0
    assert matches / tested >= 0.95
    assert verdicts["stable"] > 0 and verdicts["unstable"] > 0
    assert time.monotonic() - t0 < 300.0
    print("criterion 8 PASS: %d/%d analytic verdicts reproduced by "
          "co-simulation (%d excluded, %d inconclusive)"
          % (matches, tested, excluded, inconclusive))


def test_criterion_09_bandwidth_sweep_defaults():
    t0 = time.monotonic()
    cfg = SweepConfig()
    assert cfg.n_systems == 60
    assert cfg.grid == tuple(round(0.1 * k, 1) for k in range(1, 11))
    rows = bandwidth_sweep(cfg)
    curves = {}
    for r in rows:
        curves.setdefault(r["moc"], []).append(r["fraction_stabilized"])
    for moc, fs in curves.items():
        for a, b in zip(fs, fs[1:]):
            assert a - b <= 0.05 + 1e-12, "%s drops from %.3f to %.3f" % (moc, a, b)
    i04 = cfg.grid.index(0.4)
    cs, maxb, hard = (curves["cs"][i04], curves["tt_maxb"][i04],
                      curves["tt_hard"][i04])
    assert cs > maxb > hard
    assert cs > 0.5
    assert time.monotonic() - t0 < 600.0
    print("criterion 9 PASS: cs %.2f > tt_maxb %.2f > tt_hard %.2f at "
          "bandwidth 0.4" % (cs, maxb, hard))


def _lag1(seq):
    x = np.asarray(seq, dtype=float)
    x = x - x.mean()
    denom = float(x @ x)
    return float(x[:-1] @ x[1:]) / denom if denom else 0.0


def test_criterion_10_delay_chain_and_memory():
    n_jobs = 1_000_000
    for i in range(10):
        rng = np.random.default_rng(derived_seed("chain", i))
        Q = int(rng.integers(1, 4))
        R = Q + int(rng.integers(0, 2))
        F = int(rng.integers(1, 4))
        T = F * R
        d_max = int(rng.integers(2, 6))
        vals = tuple(int(v) for v in
                     rng.integers(1, Q * F + 4, size=int(rng.integers(2, 7))))
        chain = build_delay_chain(Empirical(vals), Q, R, T, d_max)
        s_draws = -(-rng.choice(vals, size=n_jobs) // Q)
        states = np.empty(n_jobs, dtype=np.int64)
        d = 0
        for j in range(n_jobs):
            states[j] = d
            fin = d + int(s_draws[j])
            d = 0 if fin - F > d_max else max(0, fin - F)
        occupancy = np.bincount(states, minlength=chain.n_states) / n_jobs
        batches = states.reshape(100, -1)
        for state in range(chain.n_states):
            means = (batches == state).mean(axis=1)
            se = means.std(ddof=1) / 10.0
            assert abs(occupancy[state] - chain.steady[state]) <= 3 * se + 1e-9, \
                "state %d: freq %.5f steady %.5f Q=%d R=%d T=%d d_max=%d %r" \
                % (state, occupancy[state], chain.steady[state], Q, R, T,
                   d_max, vals)

    plant = ContinuousLti.from_ab(np.array([[0.2]]), np.array([[1.0]]))
    d = c2d(plant, 2 * 0.05)
    K, _ = dlqr(d.A, d.B, np.eye(1), np.eye(1))
    model = Empirical((1, 3))
    memoryless = {
        "tt_maxb": cosimulate(plant, K, MocKind("tt_maxb"), model, 1, 1, 2,
                              tick_seconds=0.05, horizon=4000, n_traj=1,
                              seed=7),
        "cs": cosimulate(plant, K, MocKind("cs", max_delay=3), model, 1, 1,
                         tick_seconds=0.05, horizon=4000, n_traj=1, seed=7),
    }
    for name, res in memoryless.items():
        r = _lag1(res.mode_sequence)
        assert abs(r) < 3 / math.sqrt(len(res.mode_sequence)), \
            "%s lag-1 %.4f" % (name, r)
    sort_res = cosimulate(plant, K, MocKind("tt_sort", max_delay=2), model,
                          1, 1, 2, tick_seconds=0.05, horizon=16000, n_traj=1,
                          seed=7)
    r = _lag1(sort_res.delay_sequence)
    assert r > 3 / math.sqrt(len(sort_res.delay_sequence)), "lag-1 %.4f" % r
    print("criterion 10 PASS: chain steady state matches simulation; only "
          "the buffered moc carries memory")
