"""Differential test: moc.verdicts, which builds the budget-independent part
of each stochastic verdict once per plant, against the one-budget code in
verdict_oracle.py.

tt_hard (a schedulable budget, at the default and at a drawn act_delay),
tt_maxb and cs are decided by the mean-square solve on the lower triangles
here and by the eigenvalues of the full Kronecker sum there, both with the
1e-9 margin; their verdicts must be identical.  tt_sort solves on the lower
triangles of the V_d with the 1e-9 margin and the oracle without it, so its
verdict may differ where the operator's spectral radius is within 1e-6 of 1,
and where the oracle's solve is ill-conditioned (an eigenvalue at 1 beside
a larger one) and rounding passes it: there the verdict must be rho < 1 for
the oracle's own operator.  And every entry of a many-budget call must
equal the one-budget stabilizes call.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import verdict_oracle as oracle
from softrt.controlcore import ContinuousLti, c2d, dlqr, spectral_radius
from softrt.errors import NumericalError
from softrt.moc import MocKind, stabilizes, verdicts
from softrt.sweep import SweepConfig, random_system
from softrt.taskmodel import Beta, Deterministic, Empirical, Uniform, derived_seed

ticks = st.integers(1, 30)
models = st.one_of(
    st.builds(Deterministic, ticks),
    st.lists(ticks, min_size=1, max_size=5).map(lambda v: Empirical(tuple(v))),
    st.tuples(st.integers(0, 40), st.integers(1, 80)).map(
        lambda lw: Uniform(lw[0] / 4, (lw[0] + lw[1]) / 4)),
    st.builds(lambda a, b, hi: Beta(a, b, 0.0, float(hi)),
              st.sampled_from((0.5, 1.0, 2.5)), st.sampled_from((0.5, 3.0)), ticks),
)


def _case(n, p, plant_seed, scale, lqr, R, F, budgets, tick, max_delay, model,
          act_delay=0):
    g = np.random.default_rng(plant_seed)
    plant = ContinuousLti.from_ab(scale * g.uniform(-1.0, 1.0, (n, n)),
                                  g.uniform(-1.0, 1.0, (n, p)))
    K = g.uniform(-2.0, 2.0, (p, n))
    if lqr:  # a stable nominal loop where one exists, so both verdicts occur
        d = c2d(plant, F * R * tick)
        try:
            K, _ = dlqr(d.A, d.B, np.eye(n), np.eye(p))
        except NumericalError:
            pass
    return dict(plant=plant, K=K, model=model, budgets=budgets, R=R, T=F * R,
                tick=tick, max_delay=max_delay, act_delay=act_delay)


@st.composite
def cases(draw):
    R, F = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return _case(
        n=draw(st.integers(1, 3)), p=draw(st.integers(1, 2)),
        plant_seed=draw(st.integers(0, 2**32)),
        scale=draw(st.sampled_from((0.5, 1.0, 2.0))), lqr=draw(st.booleans()),
        R=R, F=F,
        budgets=draw(st.lists(st.integers(1, R), min_size=1, max_size=4)),
        tick=draw(st.sampled_from((0.05, 0.2, 0.5))),
        max_delay=draw(st.integers(1, 5)), model=draw(models),
        act_delay=draw(st.integers(0, F * R)))


def _sweep_case(system):
    # a default-sweep plant over the whole default grid
    cfg = SweepConfig()
    plant = random_system(cfg.state_dim, derived_seed(cfg.seed, "sys", system))
    d = c2d(plant, cfg.T * cfg.tick_seconds)
    K, _ = dlqr(d.A, d.B, np.eye(cfg.state_dim), np.eye(1))
    return dict(plant=plant, K=K, model=cfg.exec_model,
                budgets=[int(round(b * cfg.R)) for b in cfg.grid], R=cfg.R, T=cfg.T,
                tick=cfg.tick_seconds, max_delay=cfg.max_delay, act_delay=cfg.T // 2)


def _check(c):
    for moc in (MocKind("tt_hard"), MocKind("tt_hard", act_delay=c["act_delay"]),
                MocKind("tt_maxb"), MocKind("tt_sort", c["max_delay"]),
                MocKind("cs", c["max_delay"])):
        args = (c["plant"], c["K"], moc, c["model"])
        got = verdicts(*args, c["budgets"], c["R"], c["T"], tick_seconds=c["tick"])
        assert len(got) == len(c["budgets"])
        for Q, verdict in zip(c["budgets"], got):
            assert verdict == stabilizes(*args, Q, c["R"], c["T"], tick_seconds=c["tick"])
            want = oracle.stabilizes(*args, Q, c["R"], c["T"], tick_seconds=c["tick"])
            if verdict != want:
                assert moc.kind == "tt_sort", (moc.kind, Q)
                op, _ = oracle._tt_sort_operator(c["plant"], c["K"], c["max_delay"],
                                                 c["model"], Q, c["R"], c["T"], c["tick"])
                rho = spectral_radius(op)
                if abs(rho - 1.0) >= 1e-6:
                    assert verdict == (rho < 1.0), (Q, rho)


@example(_sweep_case(0))
@example(_sweep_case(15))  # rho 1.070 for tt_sort at b = 0.9
# every job fits (tt_maxb never drops, cs has one mode) ...
@example(_case(2, 1, 4, 1.0, True, 2, 2, [1, 2], 0.25, 3, Deterministic(1)))
# ... or none does: tt_maxb always drops, cs always cancels, and no tt_sort
# command ever latches, so its operator has eigenvalue 1 exactly
@example(_case(2, 2, 5, 1.0, True, 3, 1, [1, 3, 1], 0.05, 2, Deterministic(40)))
# tt_sort's operator has rho 1.2207 and an eigenvalue at 1, so I - op has
# condition number 1.8e17 and the oracle's unmargined solve passes its
# Cholesky by rounding: "stable" there, "unstable" here and in cosimulate
@example(dict(plant=ContinuousLti.from_ab(
    [[0.3895742122801167, 0.40433270005163235], [0.37317694550357416, 0.11667074246450493]],
    [[-0.8404633069732452], [0.17950153219091747]]),
    K=np.array([[-2.6450295248063798, -2.4268669190605103]]), model=Uniform(4.0, 7.5),
    budgets=[2], R=3, T=3, tick=0.05, max_delay=1, act_delay=0))
@given(cases())
@settings(max_examples=120, deadline=None)
def test_verdicts_match_one_budget_reference(case):
    _check(case)
