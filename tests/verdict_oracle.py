"""Reference stochastic verdicts: moc.stabilizes and moc._tt_sort_operator
as softrt shipped them before verdicts were split into per-plant blocks and
per-budget sums, kept verbatim as the oracle for test_verdict_differential.py
but that a schedulable tt_hard budget is now decided by the loop's one mode,
as in the package; and moc._operator as it was before one build served a
chunk of plants, the oracle for test_verdict_batch.py, its setup calls
given the plant's discretiser.

Each call rebuilds everything for its one budget: tt_hard, tt_maxb and cs
through the mode builders (tt_hard's from moc_oracle) and the eigenvalue
rule rho(stability_matrix) < 1 - 1e-9, written out here so that it does
not share the package's mean-square solve; tt_sort through the full-square
operator (every entry of each V_d, not its lower triangle) solved as (I -
op)V = I, without the 1e-9 margin.  stability_matrix is the full n^2 x n^2
Kronecker sum controlcore built before its operator acted on lower
triangles, kept verbatim as the reference for that operator.  Only the mode
builders, the eigenvalue solver, the backlog recursion and the
discretisation come from the package.
"""

from __future__ import annotations

import functools
from typing import Callable, List, Tuple

import numpy as np
from scipy.linalg.lapack import dgesv, dpotrf

from softrt.controlcore import (ClosedLoopModes, ContinuousLti, DiscreteLti, _half_kron,
                                _shaped, c2d, spectral_radius)
from softrt.errors import ConfigError
from softrt.moc import (MocKind, _backlog_step, _check_reservation, _discretiser,
                        _latch_sources, _mode_table, _reachable_backlogs, _tt_sort_setup,
                        cs_modes, service_distribution, tt_maxb_modes)
from softrt.taskmodel import ExecTimeModel, max_ticks

from moc_oracle import tt_hard_modes


def _tt_sort_operator(plant, K, max_delay, model, Q, R, T,
                      tick_seconds) -> Tuple[np.ndarray, List[int]]:
    """tt_sort's second-moment operator at activations (Costa, Fragoso &
    Marques 2005, ch. 3) and the side of each V_d = E[z z^T; backlog d], d
    over _reachable_backlogs.  z = (x, w_0..w_d) holds the next d periods'
    inputs, w_d held beyond; a job firing at fin = d + s sets w_r = -K x for
    r >= fin, a cancel holds w_0; x advances F = T // R periods: z' = M z,
    V'_d' = sum p(s) M V_d M^T."""
    F, dR = T // R, c2d(plant, R * tick_seconds)
    n, p = dR.B.shape
    K = _shaped(K, "tt.K", (p, n))
    dist = service_distribution(model, Q, R)
    backlogs = _reachable_backlogs(dist, F, max_delay)
    sides = [n + (d + 1) * p for d in backlogs]
    starts = np.cumsum([0] + [m * m for m in sides])
    at = {d: slice(starts[i], starts[i + 1]) for i, d in enumerate(backlogs)}
    op = np.zeros((starts[-1], starts[-1]), order="F")  # LAPACK's order
    for d, side in zip(backlogs, sides):
        odds = {}  # by the offset fin at which -K x latches, 0 for a cancel
        for s, prob in dist:
            fin = (d + s) * _backlog_step(d + s, F, max_delay)[0]
            odds[fin] = odds.get(fin, 0.0) + float(prob)
        w = np.eye(side)[n:].reshape(d + 1, p, side)  # w_j as rows over z
        for fin, prob in odds.items():
            d_next = int(_backlog_step(fin, F, max_delay)[1])
            sched = w[np.minimum(np.arange(F + d_next + 1), d if fin else 0)]
            if fin:
                sched[fin:] = -K @ np.eye(n, side)
            x = np.eye(n, side)
            for u in sched[:F]:
                x = dR.A @ x + dR.B @ u
            M = np.vstack([x, *sched[F:]])
            op[at[d_next], at[d]] += np.einsum("ik,jl->ijkl", prob * M, M).reshape(
                len(M) ** 2, side ** 2)  # prob * kron(M, M)
    return op, sides


def stability_matrix(modes: ClosedLoopModes) -> np.ndarray:
    """Second-moment transition matrix sum_i p_i (A_i kron A_i)."""
    if modes.probabilities is None:
        raise ConfigError("modes.probabilities: must be filled for stability analysis")
    dim = modes.augmented_dim ** 2
    out = np.zeros((dim, dim))
    for p, M in zip(modes.probabilities, modes.matrices):
        if p > 0:
            out += p * np.kron(M, M)
    return out


def second_moment_stable(modes) -> bool:
    return spectral_radius(stability_matrix(modes)) < 1 - 1e-9


def stabilizes(plant: ContinuousLti, K, moc: MocKind, model: ExecTimeModel, Q: int,
               R: int, T: int, *, tick_seconds: float = 1.0) -> bool:
    """Whether a (Q, R) reservation keeps the loop under moc second-moment stable.

    tt_hard: Q * (T // R) >= max_ticks and the exact Kronecker test of its one
    mode, by eigenvalues; tt_maxb and cs: that test of their modes; tt_sort: rho(op) < 1 for op = _tt_sort_operator, which holds iff
    V = op(V) + I has a solution V >= I.  One solve and a Cholesky of each
    V_d - I/2 decide it; the I/2 margin keeps rounding from passing the tiny
    negative eigenvalue V has when rho is far above 1.
    """
    if isinstance(plant, DiscreteLti) and moc.kind != "tt_hard":
        raise ConfigError("plant: continuous model required for %s" % moc.kind)
    _check_reservation(moc, Q, R, T)
    if moc.kind == "tt_hard":
        return Q * (T // R) >= max_ticks(model) and second_moment_stable(
            tt_hard_modes(plant, K, T, moc.act_delay, tick_seconds))
    if moc.kind == "tt_maxb":
        return second_moment_stable(
            tt_maxb_modes(c2d(plant, T * tick_seconds), K, model, Q, R, T))
    if moc.kind == "cs":
        return second_moment_stable(
            cs_modes(plant, K, model, Q, R, moc.max_delay, tick_seconds))
    op, sides = _tt_sort_operator(plant, K, moc.max_delay, model, Q, R, T, tick_seconds)
    eye = np.concatenate([np.eye(m).ravel() for m in sides])
    np.subtract(np.eye(len(op)), op, out=op)  # I - op, in place
    *_, V, singular = dgesv(op, eye, overwrite_a=True)  # info > 0, not a warning
    blocks = np.split(V, np.cumsum([m * m for m in sides]))
    return bool(not singular and np.isfinite(V).all() and not any(
        dpotrf(b.reshape(m, m) - np.eye(m) / 2)[1] for b, m in zip(blocks, sides)))


def _operator(plant, K, moc: MocKind, R: int, T: int, tick_seconds: float) -> Callable:
    """The loop's second-moment operator under a stochastic moc, a Markov
    jump linear system at activations (Costa, Fragoso & Marques 2005, ch.
    3): operator(dist) -> (op, sides) for dist = [(s, P(s))].  In state d,
    a job of s periods maps the loop's state v to v' = M v in state d', so
    V'_d' = sum p(s) M V_d M^T, V_d = E[v v^T; state d] on its lower
    triangle (_half_kron), stacked by d.  Only the jump rule is per kind.
    tt_maxb and cs: one state, v = (x, z, u_held) and M is _mode_table's
    mode searchsorted(cuts, s).  tt_sort, static K only: d is the backlog
    (_reachable_backlogs), v = (x, w_0..w_d), w_j the input j periods on,
    w_d held beyond; _latch_sources schedules the coming periods' inputs, x
    advances F = T // R periods and w' is the schedule from period F on.  M
    depends on (d, key of s) alone, so its block is built on first use and
    kept: a further dist only sums blocks.
    """
    n, p = plant.A.shape[0], plant.B.shape[1]
    if moc.kind != "tt_sort":
        _, cuts, matrix = _mode_table(plant, K, moc, R, T, _discretiser(plant, tick_seconds))
        states, key = lambda dist: [0], lambda d, s: np.searchsorted(cuts, s)
        block = functools.cache(lambda d, i: (0, _half_kron(matrix(i))))
        side = lambda d: len(matrix(0))  # n + q + p, q the states of z
    else:
        F, (A, B), K = _tt_sort_setup(plant, K, R, T, _discretiser(plant, tick_seconds))
        D = moc.max_delay
        states = lambda dist: _reachable_backlogs(dist, F, D)
        key = lambda d, s: np.minimum(d + s, F + D + 1)  # every cancel alike
        side = lambda d: n + (d + 1) * p

        @functools.cache
        def block(d, fin):
            d_next, src = _latch_sources(d, fin, F, D)
            m = side(d)
            w = np.eye(m)[n:].reshape(d + 1, p, m)  # w_j as rows over v
            sched = np.concatenate([w, [-K @ np.eye(n, m)]])[src[:F + d_next + 1]]
            x = np.eye(n, m)
            for u in sched[:F]:
                x = A @ x + B @ u
            return int(d_next), _half_kron(np.vstack([x, *sched[F:]]))

    def operator(dist):
        s = np.array([s for s, _ in dist])
        prob = np.array([float(q) for _, q in dist])
        jumps = states(dist)
        sides = [side(d) for d in jumps]
        starts = np.cumsum([0] + [m * (m + 1) // 2 for m in sides])
        at = {d: slice(starts[i], starts[i + 1]) for i, d in enumerate(jumps)}
        op = np.zeros((starts[-1], starts[-1]), order="F")  # LAPACK's order
        for d in jumps:
            odds = np.bincount(key(d, s), weights=prob)
            for k in np.flatnonzero(odds):
                d_next, H = block(d, int(k))
                op[at[d_next], at[d]] += odds[k] * H
        return op, sides

    return operator
