"""Differential test: the trajectory-vectorised tt_sort co-simulation against
the scalar per-trajectory loop in tt_sort_oracle.py.

Both must give the same verdict, the same first-trajectory delay sequence
and the same non-finite estimates; finite estimates may differ only in the
last bits (the vectorised loop sums over trajectories in another order).
"""

import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_discrete_are

from softrt.controlcore import ContinuousLti, c2d, dlqr
from softrt.moc import MocKind, cosimulate
from softrt.sweep import SweepConfig, random_system
from softrt.taskmodel import Beta, Deterministic, Empirical, Uniform, derived_seed
from tt_sort_oracle import _cosim_tt_sort as reference_tt_sort


def _gain(plant, T_seconds, kind, g):
    """LQR gain at the task period (a stable nominal loop), else a random one."""
    n = plant.A.shape[0]
    if kind == "lqr":
        d = c2d(plant, T_seconds)
        try:
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore")
                P = solve_discrete_are(d.A, d.B, np.eye(n), np.eye(1))
            K = np.linalg.solve(np.eye(1) + d.B.T @ P @ d.B, d.B.T @ P @ d.A)
            if np.all(np.isfinite(K)):
                return K
        except (np.linalg.LinAlgError, ValueError):
            pass
    return g.uniform(-3.0, 3.0, (1, n))


def _case(n, plant_seed, scale, gain, R, F, Q, tick, max_delay, model, horizon,
          n_traj, seed):
    g = np.random.default_rng(plant_seed)
    plant = ContinuousLti.from_ab(scale * g.uniform(-1.0, 1.0, (n, n)),
                                  g.uniform(-1.0, 1.0, (n, 1)))
    K = _gain(plant, F * R * tick, gain, g)
    return dict(plant=plant, K=K, max_delay=max_delay, model=model, Q=Q, R=R,
                T=F * R, tick_seconds=tick, horizon=horizon, n_traj=n_traj, seed=seed)


def _sweep_cell(system, Q):
    """One cell of the default sweep (seed 0), co-simulated as bandwidth_sweep
    judged tt_sort before its verdict became exact: horizon 200, 30
    trajectories, one derived seed per cell."""
    cfg = SweepConfig()
    plant = random_system(cfg.state_dim, derived_seed(cfg.seed, "sys", system))
    d = c2d(plant, cfg.T * cfg.tick_seconds)
    K, _ = dlqr(d.A, d.B, np.eye(cfg.state_dim), np.eye(1))
    return dict(plant=plant, K=K, max_delay=cfg.max_delay, model=cfg.exec_model,
                Q=Q, R=cfg.R, T=cfg.T, tick_seconds=cfg.tick_seconds,
                horizon=200, n_traj=30,
                seed=derived_seed(cfg.seed, "cell", system, "tt_sort", Q))


ticks = st.integers(1, 40)  # up to 40 ticks: far above Q*F, so many cancellations
models = st.one_of(
    st.builds(Deterministic, ticks),
    st.lists(ticks, min_size=1, max_size=4).map(lambda v: Empirical(tuple(v))),
    st.tuples(st.integers(0, 60), st.integers(1, 100)).map(
        lambda lw: Uniform(lw[0] / 4, (lw[0] + lw[1]) / 4)),
    st.builds(lambda a, b, hi: Beta(a, b, 0.0, float(hi)),
              st.sampled_from((0.5, 1.0, 2.5)), st.sampled_from((0.5, 3.0)), ticks),
)  # no Scripted model: it has no stationary law, so tt_sort has no run on it


@st.composite
def cases(draw):
    R = draw(st.integers(1, 4))
    return _case(
        n=draw(st.integers(1, 3)), plant_seed=draw(st.integers(0, 2**32)),
        scale=draw(st.sampled_from((0.5, 1.0, 4.0))),
        gain=draw(st.sampled_from(("lqr", "random"))),
        R=R, F=draw(st.integers(1, 4)), Q=draw(st.integers(1, R)),
        tick=draw(st.sampled_from((0.05, 0.25, 1.0))),
        max_delay=draw(st.integers(1, 4)), model=draw(models),
        horizon=draw(st.integers(4, 120)), n_traj=draw(st.integers(1, 12)),
        seed=draw(st.integers(0, 2**32)))


# one trajectory, F = 1, max_delay = 1
ONE_TRAJ = _case(1, 3, 1.0, "lqr", 2, 1, 1, 0.25, 1, Empirical((1, 2, 3)), 50, 1, 0)
# horizon 23 is not a multiple of F = 3
RAGGED = _case(2, 5, 1.0, "lqr", 3, 3, 2, 0.05, 2, Uniform(0.5, 14.0), 23, 7, 1)
# every job needs 40 periods at Q = 1: all of them are cancelled
ALL_CANCELLED = _case(2, 7, 0.5, "lqr", 2, 2, 1, 0.25, 3, Deterministic(40), 60, 4, 2)
# a fast plant under a random gain overflows to inf, then to nan
OVERFLOW = _case(3, 12, 4.0, "random", 2, 2, 1, 1.0, 2, Beta(0.5, 0.5, 0.0, 4.0), 200, 5, 3)
# a gain of 170 against a 3-second hold: the states cancel by orders of
# magnitude, so rounding differences in the update would be amplified
ILL_CONDITIONED = dict(
    plant=ContinuousLti.from_ab(
        [[0.44365554, 0.35133092, -0.4278005], [-0.20886922, -0.41324882, -0.15009336],
         [-0.22032352, -0.45418802, -0.20953681]],
        [[-0.21168151], [-0.69019963], [-0.95301982]]),
    K=np.array([[170.66014184, 144.41435085, -143.12733214]]), max_delay=1,
    model=Deterministic(1), Q=1, R=3, T=3, tick_seconds=1.0, horizon=14, n_traj=2, seed=0)


def _assert_same(got, ref):
    assert got.verdict == ref.verdict
    assert got.n_traj == ref.n_traj
    assert got.delay_sequence.dtype == ref.delay_sequence.dtype
    assert np.array_equal(got.delay_sequence, ref.delay_sequence)
    finite = np.isfinite(ref.estimates)
    assert np.array_equal(np.isfinite(got.estimates), finite)
    np.testing.assert_allclose(got.estimates[finite], ref.estimates[finite],
                               rtol=1e-12, atol=0)


def _reference(c):
    return reference_tt_sort(c["plant"], c["K"], c["max_delay"], c["model"], c["Q"],
                             c["R"], c["T"], c["tick_seconds"], c["horizon"],
                             c["n_traj"], c["seed"])


def _vectorised(c):
    return cosimulate(c["plant"], c["K"], MocKind("tt_sort", c["max_delay"]), c["model"],
                      c["Q"], c["R"], c["T"], tick_seconds=c["tick_seconds"],
                      horizon=c["horizon"], n_traj=c["n_traj"], seed=c["seed"])


@given(cases())
@example(_sweep_cell(1, 4))
@example(ONE_TRAJ)
@example(RAGGED)
@example(ALL_CANCELLED)
@example(OVERFLOW)
@example(ILL_CONDITIONED)
@settings(max_examples=300, deadline=None)
def test_vectorised_tt_sort_matches_scalar_reference(case):
    _assert_same(_vectorised(case), _reference(case))


def test_pinned_examples_reach_their_edges():
    assert len(_reference(RAGGED).delay_sequence) == 8  # activations at 0, 3, ..., 21
    # cancelled jobs never latch: the backlog stays empty and the plant runs
    # open loop from x = e1
    res = _reference(ALL_CANCELLED)
    assert not np.any(res.delay_sequence)
    A_R = c2d(ALL_CANCELLED["plant"], ALL_CANCELLED["R"] * 0.25).A
    x, open_loop = np.eye(2)[0], [1.0]
    for _ in range(60):
        x = A_R @ x
        open_loop.append(x @ x)
    np.testing.assert_allclose(res.estimates, open_loop, rtol=1e-12)
    est = _reference(OVERFLOW).estimates
    assert np.isinf(est).any() and np.isnan(est).any()
    assert _reference(_sweep_cell(1, 4)).verdict == "stable"
