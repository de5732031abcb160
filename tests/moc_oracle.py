"""Reference mode builders, delay chain and co-simulation: the functions
softrt shipped before each mechanism's timing rule got one mode table,
kept verbatim (only the analysis import made absolute) as the oracle for
the differential test in test_moc_differential.py.  build_modes, the
closed/open pair at one interval for a static gain or a ControllerLti,
was controlcore's before the mode table took dynamic controllers too.

tt_hard_modes, moc's public wrapper of one tt_hard mode-table row, is kept
here verbatim too, since no package code calls it.

Here the tt_maxb drop rule, the cs service-length rule and the tt_sort
backlog recursion are each written out where they are used, as they were;
_cosim_tt_sort is the trajectory-vectorised loop, so tt_sort estimates can
be compared bit for bit.  Only the types, the unchanged helpers (the mode
table, the ensemble loop, the verdict rule, the admission rule _runs) and
the demand streams come from the package.  cosimulate refuses an
unschedulable tt_hard budget as the package does, by its own test.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from softrt.controlcore import (ClosedLoopModes, ContinuousLti, ControllerLti,
                                DiscreteLti, _as_matrix, _shaped, c2d)
from softrt.errors import ConfigError, NumericalError
from softrt.moc import (CoSimResult, DelayChain, MocKind, _discretiser, _ensemble_switched,
                        _mode_table, _runs, _verdict, service_periods)
from softrt.taskmodel import (ExecTimeModel, _integer, derived_seed, max_ticks,
                              sample_exec_times, tick_cdf)


def service_distribution(model: ExecTimeModel, Q: int, R: int) -> List[Tuple[int, object]]:
    """Distribution of service_periods(c, Q, R): pairs (s, P(s)), zero terms dropped.

    Exact fractions for discrete models, floats for continuous ones.
    P(s = k) = P(c <= kQ) - P(c <= (k-1)Q).
    """
    s_max = service_periods(max_ticks(model), Q, R)
    out = []
    prev = tick_cdf(model, 0)
    for k in range(1, s_max + 1):
        cur = tick_cdf(model, k * Q)
        p = cur - prev
        if p > 0:
            out.append((k, p))
        prev = cur
    return out


def build_delay_chain(model: ExecTimeModel, Q: int, R: int, T: int,
                      d_max: int) -> DelayChain:
    """Markov chain of the activation-time backlog under buffered serving.

    A job activated with backlog d (reservation periods of unfinished prior
    work) finishes d + s periods later and the next activation comes T/R
    periods later, so d' = d + s - T/R, floored at 0.  If d' would exceed
    d_max the job is cancelled and all queued work discarded, mapping to
    state 0.  The steady state solves pi P = pi by least squares with the
    normalization row appended.
    """
    if T < R or T % R != 0:
        raise ConfigError("T: must be a positive multiple of R")
    if d_max < 1:
        raise ConfigError("d_max: must be >= 1")
    F = T // R
    dist = service_distribution(model, Q, R)
    n = d_max + 1
    P = np.zeros((n, n))
    for d in range(n):
        for s, p in dist:
            nxt = d + s - F
            if nxt < 0:
                nxt = 0
            elif nxt > d_max:
                nxt = 0  # cancellation resets the buffer
            P[d, nxt] += float(p)

    # the buffer starts empty, so the long-run occupancy lives on the states
    # reachable from 0; restricting first keeps reducible chains (e.g. s = F
    # always, an identity transition) from picking up spurious fixed points
    reach, frontier = {0}, [0]
    while frontier:
        d = frontier.pop()
        for nxt in np.nonzero(P[d] > 0)[0]:
            if int(nxt) not in reach:
                reach.add(int(nxt))
                frontier.append(int(nxt))
    idx = sorted(reach)
    Pr = P[np.ix_(idx, idx)]
    m = len(idx)
    A = np.vstack([Pr.T - np.eye(m), np.ones((1, m))])
    b = np.zeros(m + 1)
    b[-1] = 1.0
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    pi = np.zeros(n)
    pi[idx] = np.clip(sol, 0.0, None)
    pi /= pi.sum()
    if np.max(np.abs(pi @ P - pi)) > 1e-10:
        raise NumericalError("delay chain: steady-state solve did not converge")
    return DelayChain(P, pi)


def build_modes(plant_d: DiscreteLti, feedback, hold_strategy="hold") -> ClosedLoopModes:
    """Two-mode switched closed loop: fresh command vs command held.

    With a gain matrix K the augmented state is (x, u_held):
        closed: x' = (A - BK) x,        u_held' = -K x
        open:   x' = A x + B u_held,    u_held' = u_held   (or 0)
    With a ControllerLti the augmented state is (x, z, u_held) and the open
    mode freezes z.  Probabilities are left unfilled.
    """
    if hold_strategy not in ("hold", "zero"):
        raise ConfigError("hold_strategy: must be hold or zero")
    A, B = plant_d.A, plant_d.B
    n, p = A.shape[0], B.shape[1]

    if isinstance(feedback, ControllerLti):
        C, D = plant_d.C, plant_d.D
        E, F, G = feedback.E, feedback.F, feedback.G
        q = E.shape[0]
        if F.shape[1] != C.shape[0] or G.shape[0] != p:
            raise ConfigError("controller.F: dimensions must match plant outputs/inputs")
        dim = n + q + p
        Ac = np.zeros((dim, dim))
        Ac[:n, :n] = A
        Ac[:n, n:n + q] = B @ G
        Ac[n:n + q, :n] = F @ C
        Ac[n:n + q, n:n + q] = E + F @ D @ G
        Ac[n + q:, n:n + q] = G
        Ao = np.zeros((dim, dim))
        Ao[:n, :n] = A
        Ao[n:n + q, n:n + q] = np.eye(q)
        if hold_strategy == "hold":
            Ao[:n, n + q:] = B
            Ao[n + q:, n + q:] = np.eye(p)
    else:
        K = _shaped(feedback, "modes.K", (p, n))
        dim = n + p
        Ac = np.zeros((dim, dim))
        Ac[:n, :n] = A - B @ K
        Ac[n:, :n] = -K
        Ao = np.zeros((dim, dim))
        Ao[:n, :n] = A
        if hold_strategy == "hold":
            Ao[:n, n:] = B
            Ao[n:, n:] = np.eye(p)
    return ClosedLoopModes(["closed", "open"], [Ac, Ao])


def tt_maxb_modes(plant_d: DiscreteLti, K, model: ExecTimeModel, Q: int, R: int,
                  T: int) -> ClosedLoopModes:
    """Two-mode switched loop: fresh command vs job cancelled, command held.

    The drop probability is the chance a job's service does not fit in the
    task period: mu = P(ceil(c/Q) R > T) = P(c > Q * (T // R)).
    """
    from softrt.analysis import dropout_probability

    mu = float(dropout_probability(model, Q, R, T))
    modes = build_modes(plant_d, K, hold_strategy="hold")
    return ClosedLoopModes(modes.labels, modes.matrices, [1.0 - mu, mu])


def tt_hard_modes(plant: ContinuousLti, K, T: int, act_delay: int,
                  tick_seconds: float = 1.0) -> ClosedLoopModes:
    """Single deterministic mode: sample at kT, actuate at kT + act_delay.

    The row (act_delay, T): the old command drives the first act_delay
    ticks, the fresh one (-K x(kT) for a static gain) the rest.  act_delay =
    0 recovers the idealized no-latency closed mode, act_delay = T the fully
    latched one.
    """
    if _integer(T, "T") < 1:
        raise ConfigError("T: must be >= 1")
    labels, _, matrix = _mode_table(plant, K, MocKind("tt_hard", act_delay=act_delay), None,
                                    T, _discretiser(plant, tick_seconds))
    return ClosedLoopModes(labels, [matrix(0)], [1.0])


def cs_modes(plant: ContinuousLti, K, model: ExecTimeModel, Q: int, R: int,
             max_delay: int, tick_seconds: float = 1.0) -> ClosedLoopModes:
    """Variable-interval modes for the continuous stream discipline.

    A job taking s reservation periods spans s*R ticks during which the
    previous command is held; at its end the command computed from the
    sample taken at its start is latched.  Over the augmented state
    (x, u_held):

        A_s = [[A_sR, B_sR], [-K, 0]]            s = 1..max_delay
        A_cancel = [[A_DR, B_DR], [0, I]]        D = max_delay

    where (A_sR, B_sR) discretize the plant over s*R ticks.  Cancelled jobs
    never latch.  Service lengths are i.i.d. across jobs (each job starts
    fresh), so the Kronecker stability matrix applies directly.  Modes with
    zero probability are omitted.
    """
    if max_delay < 1:
        raise ConfigError("max_delay: must be >= 1")
    dist = dict(service_distribution(model, Q, R))
    mu_drop = sum((p for s, p in dist.items() if s > max_delay),
                  Fraction(0) if all(isinstance(v, Fraction) for v in dist.values()) else 0.0)

    labels, mats, probs = [], [], []
    for s in range(1, max_delay + 1):
        p_s = dist.get(s, 0)
        if p_s <= 0:
            continue
        labels.append("s=%d" % s)
        mats.append(_cs_matrix(plant, K, s * R * tick_seconds))
        probs.append(float(p_s))
    if mu_drop > 0:
        labels.append("cancel")
        mats.append(_cs_matrix(plant, K, max_delay * R * tick_seconds, cancel=True))
        probs.append(float(mu_drop))
    if abs(sum(probs) - 1.0) > 1e-12:
        raise NumericalError("cs_modes: probabilities sum to %r, expected 1" % sum(probs))
    return ClosedLoopModes(labels, mats, probs)


def _cs_matrix(plant: ContinuousLti, K, seconds: float, cancel: bool = False) -> np.ndarray:
    """cs mode over (x, u_held) for a job spanning `seconds`: the held command
    drives the plant, then -K x(start) is latched, or kept held on cancel."""
    K = _as_matrix(K, "cs.K")
    n, p = plant.A.shape[0], plant.B.shape[1]
    if K.shape != (p, n):
        raise ConfigError("cs.K: shape must be (inputs, states)")
    d = c2d(plant, seconds)
    M = np.zeros((n + p, n + p))
    M[:n, :n] = d.A
    M[:n, n:] = d.B
    if cancel:
        M[n:, n:] = np.eye(p)
    else:
        M[n:, :n] = -K
    return M



def _traj_demands(model, steps, n_traj, seed):
    return np.stack([sample_exec_times(model, steps, derived_seed(seed, "traj", i))
                     for i in range(n_traj)])


def cosimulate(plant, K, moc: MocKind, model: ExecTimeModel, Q: int, R: int,
               T: Optional[int] = None, *, tick_seconds: float = 1.0,
               horizon: int = 300, n_traj: int = 100, seed=0) -> CoSimResult:
    """Monte Carlo second-moment run of the closed loop under a moc.

    The plant starts at x = e1 with controller command and held input zero;
    execution demands are drawn per trajectory from streams keyed by
    (seed, trajectory index), so results are independent of evaluation
    order.  T is the task period in ticks (unused by cs).  tt_hard has no
    randomness: all trajectories coincide, so one is run.
    """
    if isinstance(plant, DiscreteLti) and moc.kind != "tt_maxb":
        raise ConfigError("plant: continuous model required for %s" % moc.kind)
    if n_traj < 1:
        raise ConfigError("n_traj: must be >= 1")
    if horizon < 4:
        raise ConfigError("horizon: must be >= 4")
    _runs(moc, model, Q, R, T)  # the reservation, and a stationary law but for tt_hard
    if moc.kind == "tt_hard" and Q * (T // R) < max_ticks(model):
        raise ConfigError("Q: tt_hard is unschedulable: Q * (T // R) < %d ticks, the "
                          "largest demand" % max_ticks(model))

    if moc.kind == "tt_sort":
        return _cosim_tt_sort(plant, K, moc.max_delay, model, Q, R, T, tick_seconds,
                              horizon, n_traj, seed)
    if moc.kind == "tt_hard":
        act_delay = T if moc.act_delay is None else moc.act_delay
        mats = tt_hard_modes(plant, K, T, act_delay, tick_seconds).matrices
        mode_idx = np.zeros((1, horizon), dtype=np.int8)
    elif moc.kind == "tt_maxb":
        plant_d = plant if isinstance(plant, DiscreteLti) else c2d(plant, T * tick_seconds)
        mats = build_modes(plant_d, K, hold_strategy="hold").matrices
        demands = _traj_demands(model, horizon, n_traj, seed)
        mode_idx = (demands > Q * (T // R)).astype(np.int8)  # 0 closed, 1 open
    else:  # cs: service lengths s = 1..D, cancel bucketed at index D
        D = moc.max_delay
        mats = [_cs_matrix(plant, K, s * R * tick_seconds) for s in range(1, D + 1)]
        mats.append(_cs_matrix(plant, K, D * R * tick_seconds, cancel=True))
        demands = _traj_demands(model, horizon, n_traj, seed)
        mode_idx = np.minimum(-(-demands // Q), D + 1).astype(np.int64) - 1
    est = _ensemble_switched(mats, mode_idx)
    return CoSimResult(est, n_traj, _verdict(est),
                       mode_sequence=None if moc.kind == "tt_hard" else mode_idx[0])


def _cosim_tt_sort(plant, K, max_delay, model, Q, R, T, tick_seconds, horizon,
                   n_traj, seed) -> CoSimResult:
    """Buffered activations with backlog memory, stepped per reservation period.

    All trajectories advance together, each with its state x, held input u
    and backlog.  Every F = T // R steps each trajectory activates a job of
    s service periods; it latches -K x at offset backlog + s, or, if the
    backlog would then exceed max_delay, is cancelled together with all its
    pending commands.  Pending commands sit in a ring buffer of
    L = F + max_delay + 1 slots indexed by due step mod L: due offsets lie
    in 1..F + max_delay and grow strictly from one job to the next, so no
    two pending commands share a slot.

    x and u are kept as stacks of column vectors, X (n_traj, n, 1) and U
    (n_traj, p, 1), so A_R @ X computes A_R @ x for every trajectory bit for
    bit as a per-trajectory loop would; only the sum over trajectories in
    the estimates runs in another order.
    """
    F = T // R
    L = F + max_delay + 1
    dR = c2d(plant, R * tick_seconds)
    A_R, B_R = dR.A, dR.B
    negK = -np.asarray(K, dtype=float)
    n, p = A_R.shape[0], B_R.shape[1]
    S = -(-_traj_demands(model, horizon // F + 2, n_traj, seed) // Q)
    rows = np.arange(n_traj)
    X = np.zeros((n_traj, n, 1))
    X[:, 0] = 1.0
    U = np.zeros((n_traj, p, 1))
    pending = np.zeros((L, n_traj, p, 1))
    has = np.zeros((L, n_traj), dtype=bool)
    backlog = np.zeros(n_traj, dtype=np.int64)
    delays = np.empty(-(-horizon // F), dtype=np.int64)
    est = np.empty(horizon + 1)
    est[0] = n_traj
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(horizon):
            slot = m % L
            np.copyto(U, pending[slot], where=has[slot][:, None, None])
            has[slot] = False
            if m % F == 0:
                j = m // F
                delays[j] = backlog[0]
                fin = backlog + S[:, j]
                fire = fin - F <= max_delay
                has &= fire  # a cancellation discards every pending command
                due = (m + fin) % L
                pending[due, rows] = negK @ X
                has[due, rows] = fire
                backlog = np.maximum(fin - F, 0) * fire
            X = A_R @ X + B_R @ U
            est[m + 1] = np.vdot(X, X) + np.vdot(U, U)
    est /= n_traj
    return CoSimResult(est, n_traj, _verdict(est), delay_sequence=delays)
