"""Dynamic output feedback under tt_hard, tt_maxb and cs: the mode table's
rows over (x, z, u_held) against the reference build_modes, the separation
principle, a tick-by-tick run of one job, and Monte Carlo co-simulation."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import moc_oracle as oracle
from moc_oracle import tt_hard_modes
from softrt.controlcore import (ContinuousLti, ControllerLti, c2d, dlqr,
                                kalman_gain, lqg_assemble, spectral_radius,
                                stability_matrix)
from softrt.errors import ConfigError, NumericalError
from softrt.moc import (MocKind, _discretiser, _mode_table, cosimulate, cs_modes,
                        tt_maxb_modes, verdicts)
from softrt.sweep import SweepConfig, random_system
from softrt.taskmodel import Deterministic, derived_seed

SWEEP = SweepConfig()


def _sweep_lqg(system):
    """Sweep-seed-0 plant system measured through C = [1 0], with the LQG
    controller designed at the sweep's task period."""
    p = random_system(SWEEP.state_dim, derived_seed(SWEEP.seed, "sys", system))
    plant = ContinuousLti(p.A, p.B, np.array([[1.0, 0.0]]), np.zeros((1, 1)))
    d = c2d(plant, SWEEP.T * SWEEP.tick_seconds)
    K, _ = dlqr(d.A, d.B, np.eye(SWEEP.state_dim), np.eye(1))
    L = kalman_gain(d.A, d.C)
    return plant, d, K, L, lqg_assemble(d, K, L)


def _same_spectrum(got, want, atol):
    """Each eigenvalue of want matched to a distinct one of got within atol."""
    got = list(got)
    assert len(got) == len(want)
    for w in want:
        i = int(np.argmin(np.abs(np.array(got) - w)))
        assert abs(got[i] - w) <= atol, (w, got)
        got.pop(i)


@st.composite
def loops(draw):
    """A random plant (n states, p inputs, m outputs, D zero or not) with a
    static gain, a random ControllerLti, or its LQG controller."""
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, p, m = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    A = draw(st.sampled_from((0.5, 1.0, 3.0))) * g.uniform(-1.0, 1.0, (n, n))
    D = g.uniform(-1.0, 1.0, (m, p)) if draw(st.booleans()) else np.zeros((m, p))
    plant = ContinuousLti(A, g.uniform(-1.0, 1.0, (n, p)), g.uniform(-1.0, 1.0, (m, n)), D)
    kind = draw(st.sampled_from(("static", "controller", "lqg")))
    if kind == "static":
        return plant, g.uniform(-2.0, 2.0, (p, n))
    if kind == "controller":
        q = draw(st.integers(1, 3))
        return plant, ControllerLti(g.uniform(-1.0, 1.0, (q, q)), g.uniform(-1.0, 1.0, (q, m)),
                                    g.uniform(-1.0, 1.0, (p, q)))
    d = c2d(plant, 0.5)
    try:
        K, _ = dlqr(d.A, d.B, np.eye(n), np.eye(p))
        return plant, lqg_assemble(d, K, kalman_gain(d.A, d.C))
    except NumericalError:
        assume(False)


@given(loops(), st.sampled_from((0.1, 0.5, 2.0)))
@settings(max_examples=150, deadline=None)
def test_tt_maxb_rows_match_build_modes(loop, seconds):
    plant, feedback = loop
    d = c2d(plant, seconds)
    got = tt_maxb_modes(d, feedback, Deterministic(1), 1, 1, 1)
    ref = oracle.build_modes(d, feedback)
    assert got.labels == ref.labels
    for a, b in zip(got.matrices, ref.matrices):
        assert np.array_equal(a, b)


def _one_job(plant, feedback, tick, held, span, v):
    """(x, z, u_held) after one job, tick by tick: u_held drives held ticks,
    then the command sampled at the start drives the rest of span; a job
    with no span leaves z and u_held as they were."""
    n, p = plant.B.shape
    q = len(feedback.E) if isinstance(feedback, ControllerLti) else 0
    x0, z, u = v[:n], v[n:n + q], v[n + q:]
    if isinstance(feedback, ControllerLti):
        c = feedback.G @ z
    else:
        c = -feedback @ x0
    one = c2d(plant, tick)
    x = x0
    for t in range(held if span is None else span):
        x = one.A @ x + one.B @ (u if t < held else c)
    if span is None:
        return np.concatenate([x, z, u])
    if isinstance(feedback, ControllerLti):
        y = plant.C @ x0 + plant.D @ (c if held == 0 else u)
        z = feedback.E @ z + feedback.F @ y
    return np.concatenate([x, z, c])


@given(loops(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_every_row_runs_one_job_tick_by_tick(loop, seed):
    plant, feedback = loop
    g = np.random.default_rng(seed)
    tick, R, T, D = 0.05, 2, 4, 3
    # each kind's rows (held, span), as the moc docstring sets them out
    cases = [(MocKind("tt_hard", act_delay=a), [(a, T)]) for a in range(T + 1)]
    cases.append((MocKind("tt_maxb"), [(0, T), (T, None)]))
    cases.append((MocKind("cs", D), [(s * R, s * R) for s in range(1, D + 1)] + [(D * R, None)]))
    for moc, rows in cases:
        labels, _, matrix = _mode_table(plant, feedback, moc, R, T, _discretiser(plant, tick))
        assert len(labels) == len(rows)
        for i, (held, span) in enumerate(rows):
            v = g.uniform(-1.0, 1.0, len(matrix(i)))
            np.testing.assert_allclose(matrix(i) @ v,
                                       _one_job(plant, feedback, tick, held, span, v),
                                       rtol=1e-9, atol=1e-9)


def test_tt_hard_without_delay_separates_for_lqg():
    # sampling and actuating at once, no job is ever dropped: the loop's
    # spectrum is eig(A - BK) and eig(A - LC) by separation, and a zero for
    # each held input, which the fresh command overwrites
    for system in range(6):
        plant, d, K, L, ctrl = _sweep_lqg(system)
        M = tt_hard_modes(plant, ctrl, SWEEP.T, 0, SWEEP.tick_seconds).matrices[0]
        want = np.concatenate([np.linalg.eigvals(d.A - d.B @ K),
                               np.linalg.eigvals(d.A - L @ d.C), np.zeros(1)])
        _same_spectrum(np.linalg.eigvals(M), want, 1e-8)


def test_montecarlo_never_contradicts_exact_lqg_verdicts():
    # criterion 8's law for output feedback: away from rho = 1, where no
    # finite ensemble decides, co-simulation never reads the exact verdict
    # the other way round
    budgets = list(range(1, SWEEP.R + 1))
    tally = {"match": 0, "inconclusive": 0, "contradiction": 0}
    exact_kinds = set()
    for system in range(6):
        plant, d, _, _, ctrl = _sweep_lqg(system)
        for moc in (MocKind("tt_maxb"), MocKind("cs", SWEEP.max_delay)):
            exact = verdicts(plant, ctrl, moc, SWEEP.exec_model, budgets, SWEEP.R, SWEEP.T,
                             tick_seconds=SWEEP.tick_seconds)
            for Q, ok in zip(budgets, exact):
                if moc.kind == "tt_maxb":
                    modes = tt_maxb_modes(d, ctrl, SWEEP.exec_model, Q, SWEEP.R, SWEEP.T)
                else:
                    modes = cs_modes(plant, ctrl, SWEEP.exec_model, Q, SWEEP.R,
                                     SWEEP.max_delay, SWEEP.tick_seconds)
                if abs(spectral_radius(stability_matrix(modes)) - 1.0) < 0.05:
                    continue
                analytic = "stable" if ok else "unstable"
                exact_kinds.add(analytic)
                res = cosimulate(plant, ctrl, moc, SWEEP.exec_model, Q, SWEEP.R,
                                 None if moc.kind == "cs" else SWEEP.T,
                                 tick_seconds=SWEEP.tick_seconds,
                                 seed=derived_seed(0, "lqg", system, Q))
                tally["match" if res.verdict == analytic else
                      res.verdict if res.verdict == "inconclusive" else "contradiction"] += 1
    assert tally["contradiction"] == 0, tally
    assert tally["match"] >= 0.9 * sum(tally.values()), tally
    assert exact_kinds == {"stable", "unstable"}


def test_tt_sort_refuses_a_controller():
    plant, _, _, _, ctrl = _sweep_lqg(0)
    moc = MocKind("tt_sort", SWEEP.max_delay)
    with pytest.raises(ConfigError, match="^K: tt_sort needs a static gain"):
        cosimulate(plant, ctrl, moc, SWEEP.exec_model, 5, SWEEP.R, SWEEP.T,
                   tick_seconds=SWEEP.tick_seconds, horizon=20, n_traj=2)
    with pytest.raises(ConfigError, match="^K: tt_sort needs a static gain"):
        verdicts(plant, ctrl, moc, SWEEP.exec_model, [5], SWEEP.R, SWEEP.T,
                 tick_seconds=SWEEP.tick_seconds)
