"""Differential test: the mode-table mode builders, delay chain and
co-simulation against the per-mechanism code in moc_oracle.py.

Labels, matrices, service distributions, delay chains and every cosimulate
output must be bit-identical.  Mode probabilities may move in the last
bits: the package takes each one as a difference of tick_cdf, where the
reference took tt_maxb's closed-mode odds as 1 - mu and summed cs's cancel
odds term by term.  1 - mu loses the low bits of a small closed-mode
probability, up to one ulp of 1, hence the absolute floor of eps.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import moc_oracle as oracle
from softrt.analysis import dropout_probability
from softrt.controlcore import ContinuousLti, c2d, dlqr, second_moment_stable
from softrt.errors import NumericalError
from softrt.moc import (MocKind, build_delay_chain, cosimulate, cs_modes,
                        service_distribution, tt_maxb_modes)
from softrt.sweep import SweepConfig, random_system
from softrt.taskmodel import Beta, Deterministic, Empirical, Uniform, derived_seed

ticks = st.integers(1, 40)
models = st.one_of(
    st.builds(Deterministic, ticks),
    st.lists(ticks, min_size=1, max_size=5).map(lambda v: Empirical(tuple(v))),
    st.tuples(st.integers(0, 60), st.integers(1, 100)).map(
        lambda lw: Uniform(lw[0] / 4, (lw[0] + lw[1]) / 4)),
    st.builds(lambda a, b, hi: Beta(a, b, 0.0, float(hi)),
              st.sampled_from((0.5, 1.0, 2.5)), st.sampled_from((0.5, 3.0)), ticks),
)


def _case(n, p, plant_seed, scale, lqr, R, F, Q, tick, max_delay, act_delay, model,
          horizon, n_traj, seed):
    g = np.random.default_rng(plant_seed)
    plant = ContinuousLti.from_ab(scale * g.uniform(-1.0, 1.0, (n, n)),
                                  g.uniform(-1.0, 1.0, (n, p)))
    K = g.uniform(-3.0, 3.0, (p, n))
    if lqr:  # a stable nominal loop where one exists
        d = c2d(plant, F * R * tick)
        try:
            K, _ = dlqr(d.A, d.B, np.eye(n), np.eye(p))
        except NumericalError:
            pass
    return dict(plant=plant, K=K, model=model, Q=Q, R=R, T=F * R, tick=tick,
                max_delay=max_delay, act_delay=min(act_delay, F * R), horizon=horizon,
                n_traj=n_traj, seed=seed)


@st.composite
def cases(draw):
    R = draw(st.integers(1, 4))
    return _case(
        n=draw(st.integers(1, 3)), p=draw(st.integers(1, 2)),
        plant_seed=draw(st.integers(0, 2**32)),
        scale=draw(st.sampled_from((0.5, 1.0, 4.0))), lqr=draw(st.booleans()),
        R=R, F=draw(st.integers(1, 4)), Q=draw(st.integers(1, R)),
        tick=draw(st.sampled_from((0.05, 0.25, 1.0))),
        max_delay=draw(st.integers(1, 5)), act_delay=draw(st.integers(0, 16)),
        model=draw(models), horizon=draw(st.integers(4, 60)),
        n_traj=draw(st.integers(1, 8)), seed=draw(st.integers(0, 2**32)))


def _sweep_cell(system, Q):
    """One cell of the default sweep (seed 0)."""
    cfg = SweepConfig()
    plant = random_system(cfg.state_dim, derived_seed(cfg.seed, "sys", system))
    d = c2d(plant, cfg.T * cfg.tick_seconds)
    K, _ = dlqr(d.A, d.B, np.eye(cfg.state_dim), np.eye(1))
    return dict(plant=plant, K=K, model=cfg.exec_model, Q=Q, R=cfg.R, T=cfg.T,
                tick=cfg.tick_seconds, max_delay=cfg.max_delay, act_delay=cfg.T,
                horizon=200, n_traj=30, seed=7)


def _assert_same_modes(got, ref):
    assert got.labels == ref.labels
    assert len(got.matrices) == len(ref.matrices)
    for a, b in zip(got.matrices, ref.matrices):
        assert np.array_equal(a, b)
    np.testing.assert_allclose(got.probabilities, ref.probabilities, rtol=1e-14,
                               atol=np.finfo(float).eps)
    assert second_moment_stable(got) == second_moment_stable(ref)


def _assert_same_cosim(got, ref):
    np.testing.assert_array_equal(got.estimates, ref.estimates)  # nan matches nan
    assert got.verdict == ref.verdict
    assert got.n_traj == ref.n_traj
    for a, b in ((got.mode_sequence, ref.mode_sequence),
                 (got.delay_sequence, ref.delay_sequence)):
        assert (a is None) == (b is None)
        if a is not None:
            np.testing.assert_array_equal(a, b)


def _check(c):
    plant, K, model, Q, R, T, tick = (c[k] for k in ("plant", "K", "model", "Q", "R", "T",
                                                     "tick"))
    D = c["max_delay"]
    dist = service_distribution(model, Q, R)
    ref_dist = oracle.service_distribution(model, Q, R)
    assert dist == ref_dist
    assert [type(p) for _, p in dist] == [type(p) for _, p in ref_dist]

    chain, ref_chain = build_delay_chain(model, Q, R, T, D), \
        oracle.build_delay_chain(model, Q, R, T, D)
    assert np.array_equal(chain.transition, ref_chain.transition)
    assert np.array_equal(chain.steady, ref_chain.steady)

    plant_d = c2d(plant, T * tick)
    maxb = tt_maxb_modes(plant_d, K, model, Q, R, T)
    _assert_same_modes(maxb, oracle.tt_maxb_modes(plant_d, K, model, Q, R, T))
    assert maxb.probabilities[1] == float(dropout_probability(model, Q, R, T))
    _assert_same_modes(cs_modes(plant, K, model, Q, R, D, tick),
                       oracle.cs_modes(plant, K, model, Q, R, D, tick))

    kw = dict(tick_seconds=tick, horizon=c["horizon"], n_traj=c["n_traj"], seed=c["seed"])
    for moc, p in ((MocKind("tt_hard"), plant),
                   (MocKind("tt_hard", act_delay=c["act_delay"]), plant),
                   (MocKind("tt_maxb"), plant), (MocKind("tt_maxb"), plant_d),
                   (MocKind("tt_sort", D), plant), (MocKind("cs", D), plant)):
        Tm = None if moc.kind == "cs" else T
        _assert_same_cosim(cosimulate(p, K, moc, model, Q, R, Tm, **kw),
                           oracle.cosimulate(p, K, moc, model, Q, R, Tm, **kw))


# the default sweep's U-shaped Beta demand at a low and a high budget
@example(_sweep_cell(1, 2))
@example(_sweep_cell(3, 8))
# every job fits (tt_maxb never drops, cs has one mode) ...
@example(_case(2, 1, 4, 1.0, True, 2, 2, 2, 0.25, 3, 0, Deterministic(1), 30, 3, 0))
# ... or none does (tt_maxb always drops, cs always cancels)
@example(_case(2, 2, 5, 1.0, True, 3, 1, 1, 0.05, 2, 3, Deterministic(40), 30, 3, 1))
# tt_maxb drops three jobs in four; cs cancels them
@example(_case(3, 1, 6, 4.0, False, 4, 2, 1, 1.0, 5, 5, Empirical((1, 9, 9, 9)), 60, 4, 2))
@given(cases())
@settings(max_examples=150, deadline=None)
def test_mode_table_matches_per_mechanism_reference(case):
    _check(case)
