"""The exact tt_sort mean-square verdict: its second-moment operator against
path enumeration, against the i.i.d. modes it reduces to when no backlog
builds up, and its solve-based decision against the spectral radius.

The enumeration oracle walks every demand sequence of an Empirical model
for a few activations, one reservation period at a time with the pending
commands in a dict keyed by due period, as tests/tt_sort_oracle.py does;
it shares nothing with the operator but the discretisation.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moc_oracle import tt_hard_modes
from softrt.errors import ConfigError, NumericalError
from softrt.controlcore import (ClosedLoopModes, ContinuousLti, c2d, dlqr,
                                second_moment_stable, spectral_radius,
                                stability_matrix)
from softrt.moc import (MocKind, _discretiser, _operator as _moc_operator, cosimulate,
                        service_distribution, stabilizes, verdicts)
from softrt.sweep import SweepConfig, random_system
from softrt.taskmodel import Empirical, derived_seed


def _plant(n, p, seed, scale):
    g = np.random.default_rng(seed)
    plant = ContinuousLti.from_ab(scale * g.uniform(-1.0, 1.0, (n, n)),
                                  g.uniform(-1.0, 1.0, (n, p)))
    return plant, g.uniform(-2.0, 2.0, (p, n))


def _enumerated_moments(plant, K, max_delay, values, Q, R, T, tick, n_act):
    """E|x|^2 at activations 0..n_act over every sequence of demands drawn
    uniformly from values, x starting at e1 with nothing held or pending."""
    F = T // R
    dR = c2d(plant, R * tick)
    n, p = dR.B.shape
    out = np.zeros(n_act + 1)

    def walk(j, prob, x, u, due, backlog):
        out[j] += prob * float(x @ x)
        if j == n_act:
            return
        for c in values:
            x2, u2, due2, b2 = x, u, dict(due), backlog
            for m in range(j * F, (j + 1) * F):
                if m in due2:
                    u2 = due2.pop(m)
                if m == j * F:
                    fin = b2 + -(-c // Q)  # backlog plus service periods
                    if fin - F > max_delay:
                        b2 = 0
                        due2.clear()  # cancellation discards queued work
                    else:
                        due2[m + fin] = -K @ x2
                        b2 = max(0, fin - F)
                x2 = dR.A @ x2 + dR.B @ u2
            walk(j + 1, prob / len(values), x2, u2, due2, b2)

    walk(0, 1.0, np.eye(n)[0], np.zeros(p), {}, 0)
    return out


def _one_operator(plant, K, moc, R, T, tick, dist):
    """moc._operator's operator for one loop, as a batch of one."""
    opT, sides = _moc_operator([plant], [K], [_discretiser(plant, tick)], moc, R, T)(dist)
    return opT[0].T, sides


def _operator(c, model, Q):
    return _one_operator(c["plant"], c["K"], MocKind("tt_sort", c["max_delay"]), c["R"],
                         c["T"], c["tick"], service_distribution(model, Q, c["R"]))


def _operator_moments(op, sides, n, n_act):
    """E|x|^2 at activations 0..n_act by iterating the operator from the
    same start: backlog 0, z = (e1, 0).  op acts on the lower triangles of
    the V_d, stacked, each in np.tril_indices order: (i, i) at i (i + 3) / 2."""
    v = np.zeros(len(op))
    v[0] = 1.0  # the (x_1, x_1) entry of V_0
    starts = np.cumsum([0] + [m * (m + 1) // 2 for m in sides])
    x_diagonal = [lo + i * (i + 3) // 2 for lo in starts[:-1] for i in range(n)]
    out = []
    for _ in range(n_act + 1):
        out.append(v[x_diagonal].sum())
        v = op @ v
    return np.array(out)


@st.composite
def enumerable(draw):
    R = draw(st.integers(1, 3))
    Q = draw(st.integers(1, R))
    F = draw(st.integers(1, 3))
    max_delay = draw(st.integers(1, 4))
    values = draw(st.lists(st.integers(1, Q * (F + max_delay + 1) + 1),
                           min_size=2, max_size=3))
    n_act = draw(st.integers(1, 8))
    plant, K = _plant(draw(st.integers(1, 3)), draw(st.integers(1, 2)),
                      draw(st.integers(0, 2**32)), draw(st.sampled_from((0.5, 1.0))))
    return dict(plant=plant, K=K, max_delay=max_delay, values=tuple(values), Q=Q,
                R=R, T=F * R, tick=draw(st.sampled_from((0.1, 0.25, 0.5))),
                n_act=n_act)


@settings(max_examples=60, deadline=None)
@given(enumerable())
def test_operator_iterates_match_path_enumeration(c):
    model = Empirical(c["values"])
    op, sides = _operator(c, model, c["Q"])
    got = _operator_moments(op, sides, c["K"].shape[1], c["n_act"])
    want = _enumerated_moments(c["plant"], c["K"], c["max_delay"], c["values"], c["Q"],
                               c["R"], c["T"], c["tick"], c["n_act"])
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


@st.composite
def cells(draw, no_backlog=False):
    R = draw(st.integers(1, 4))
    Q = draw(st.integers(1, R))
    F = draw(st.integers(1, 4))
    top = Q * F if no_backlog else Q * (F + 5) + 2
    values = draw(st.lists(st.integers(1, top), min_size=1, max_size=5))
    n, tick = draw(st.integers(1, 3)), draw(st.sampled_from((0.05, 0.2, 0.5)))
    plant, K = _plant(n, 1, draw(st.integers(0, 2**32)),
                      draw(st.sampled_from((0.5, 2.0))))
    if draw(st.booleans()):  # the nominal LQR loop, so both verdicts occur
        d = c2d(plant, F * R * tick)
        try:
            K, _ = dlqr(d.A, d.B, np.eye(n), np.eye(1))
        except NumericalError:
            pass
    return dict(plant=plant, K=K, moc=MocKind("tt_sort", draw(st.integers(1, 5))),
                model=Empirical(tuple(values)), Q=Q, R=R, T=F * R, tick_seconds=tick)


def _verdict(c):
    return stabilizes(c["plant"], c["K"], c["moc"], c["model"], c["Q"], c["R"], c["T"],
                      tick_seconds=c["tick_seconds"])


def _rho(c):
    # the map on symmetric V_d has the spectral radius of the full operator:
    # that of a positive map is an eigenvalue with a symmetric eigenvector
    op, _ = _one_operator(c["plant"], c["K"], c["moc"], c["R"], c["T"], c["tick_seconds"],
                          service_distribution(c["model"], c["Q"], c["R"]))
    return spectral_radius(op)


@settings(max_examples=150, deadline=None)
@given(cells(no_backlog=True))
def test_no_backlog_reduces_to_the_iid_modes(c):
    # with s <= F always the buffer never carries work: each job latches
    # s*R ticks into its own task period, the tt_hard mode of that delay.
    # Backlog 0's (x, w_0) are the tt_hard modes' (x, u_held), in the same
    # lower-triangle order, so the two operators agree entry for entry up
    # to the order of their sums
    s_draws = [-(-v // c["Q"]) for v in c["model"].values]
    s_vals = sorted(set(s_draws))
    modes = ClosedLoopModes(
        ["s=%d" % s for s in s_vals],
        [tt_hard_modes(c["plant"], c["K"], c["T"], s * c["R"], c["tick_seconds"]).matrices[0]
         for s in s_vals],
        [s_draws.count(s) / len(s_draws) for s in s_vals])
    want = stability_matrix(modes)
    op, _ = _one_operator(c["plant"], c["K"], c["moc"], c["R"], c["T"], c["tick_seconds"],
                          service_distribution(c["model"], c["Q"], c["R"]))
    np.testing.assert_allclose(op, want, rtol=0, atol=1e-9 * np.max(np.abs(want)))
    rho = spectral_radius(want)
    if abs(rho - 1.0) >= 1e-6:
        assert _verdict(c) == second_moment_stable(modes)


@settings(max_examples=150, deadline=None)
@given(cells())
def test_solve_verdict_matches_spectral_radius(c):
    rho = _rho(c)
    if abs(rho - 1.0) >= 1e-6:
        assert _verdict(c) == (rho < 1.0)


def _sweep_cell(system, Q):
    cfg = SweepConfig()
    plant = random_system(cfg.state_dim, derived_seed(cfg.seed, "sys", system))
    d = c2d(plant, cfg.T * cfg.tick_seconds)
    K, _ = dlqr(d.A, d.B, np.eye(cfg.state_dim), np.eye(1))
    return dict(plant=plant, K=K, moc=MocKind("tt_sort", cfg.max_delay),
                model=cfg.exec_model, Q=Q, R=cfg.R, T=cfg.T,
                tick_seconds=cfg.tick_seconds)


def test_every_job_cancelled_is_not_stable_and_silent():
    # s = 6 or 7 > F + max_delay = 3 for every job: nothing ever latches, the
    # held input stays put, and the operator has eigenvalue 1 exactly
    plant, _ = _plant(2, 1, 3, 0.5)
    c = dict(plant=plant, K=np.array([[0.5, 0.2]]), moc=MocKind("tt_sort", 2),
             model=Empirical((6, 7)), Q=1, R=1, T=1, tick_seconds=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not _verdict(c)


def test_operator_eigenvalue_one_is_not_stable():
    # from backlog 0 a 4-period job queues its command and leaves backlog 3;
    # the next job, and any 7-period one, would end past max_delay and is
    # cancelled with the queued command, so nothing ever latches and the
    # held input stays put: rho = 1 exactly, which rounding used to call
    # stable before the solve kept the 1e-9 margin
    c = dict(plant=ContinuousLti.from_ab([[-1.0]], [[1.0]]), K=np.array([[0.5]]),
             moc=MocKind("tt_sort", 4), model=Empirical((4, 4, 7)), Q=1, R=1, T=1,
             tick_seconds=0.5)
    assert _rho(c) == pytest.approx(1.0, abs=1e-12)
    assert not _verdict(c)


@pytest.mark.parametrize("system", [15, 34])
def test_heavy_tailed_sweep_cells_are_not_stable(system):
    # default sweep, b = 0.9: the 30-trajectory co-simulation read "stable",
    # but the second moment grows (rho 1.070 and 1.033)
    c = _sweep_cell(system, 9)
    assert _rho(c) > 1.03
    assert not _verdict(c)


def test_inconclusive_sweep_cell_is_stable():
    # default sweep, system 0, b = 1 (rho 0.885 per activation): the
    # co-simulation the sweep used to run, horizon 200 with 30 trajectories,
    # cannot tell; the exact test can
    c = _sweep_cell(0, 10)
    res = cosimulate(c["plant"], c["K"], c["moc"], c["model"], c["Q"], c["R"], c["T"],
                     tick_seconds=c["tick_seconds"], horizon=200, n_traj=30,
                     seed=derived_seed(0, "cell", 0, "tt_sort", 10))
    assert res.verdict == "inconclusive"
    assert _verdict(c)


def test_far_unstable_loop_is_not_stable():
    # rho near 1e11: the solution's one negative eigenvalue is about -1e-11,
    # within the rounding of a bare positive-definiteness check on V, which
    # would call this loop stable; V_d - I/2 fails by a wide margin
    plant = ContinuousLti.from_ab(
        [[1.124, -1.283, 0.355], [-1.872, 0.761, -1.399], [0.314, 1.828, -0.845]],
        [[0.414], [-0.224], [0.060]])
    c = dict(plant=plant, K=np.array([[-1.149, 1.399, -0.769]]),
             moc=MocKind("tt_sort", 1), model=Empirical((2,)), Q=1, R=4, T=12,
             tick_seconds=0.5)
    assert _rho(c) > 1e10
    assert not _verdict(c)


def test_overflowing_operator_is_not_stable_and_silent():
    # e^400 per period: kron(M, M) overflows to inf, the solve yields nan,
    # and LAPACK's Cholesky passes nan, so only the finiteness check decides
    c = dict(plant=ContinuousLti.from_ab([[400.0]], [[1.0]]), K=np.array([[1.0]]),
             moc=MocKind("tt_sort", 1), model=Empirical((1, 2)), Q=1, R=1, T=1,
             tick_seconds=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not _verdict(c)


def test_discrete_plant_is_a_config_error():
    # a discrete plant runs only over its own sample period: sampled at the
    # loop's own 1 s, tt_maxb and tt_sort decide it as its continuous plant;
    # cs's two-period job needs it over 2 s, and a plant sampled at 0.7 s
    # fits no kind's interval here
    plant = ContinuousLti.from_ab([[-0.3]], [[1.0]])
    model, kw = Empirical((1, 1, 2, 3)), dict(R=2, T=2, tick_seconds=0.5)
    want = {"tt_maxb": [True, True], "tt_sort": [False, True]}
    for moc in (MocKind("tt_maxb"), MocKind("tt_sort", 2)):
        got = verdicts(c2d(plant, 1.0), [[0.75]], moc, model, [1, 2], **kw)
        assert got == verdicts(plant, [[0.75]], moc, model, [1, 2], **kw) == want[moc.kind]
    with pytest.raises(ConfigError, match="continuous model required"):
        stabilizes(c2d(plant, 1.0), [[0.75]], MocKind("cs", 2), model, 1, **kw)
    for moc in (MocKind("tt_hard"), MocKind("tt_maxb"), MocKind("tt_sort", 2),
                MocKind("cs", 2)):
        with pytest.raises(ConfigError, match="continuous model required"):
            stabilizes(c2d(plant, 0.7), [[0.75]], moc, model, 2, **kw)
