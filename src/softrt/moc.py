"""Models of computation coupling a reservation-served task to a plant.

Four timing disciplines are supported.  tt_hard samples at every period kT
and actuates a fixed delay later; the reservation is assumed large enough
that jobs always finish.  tt_maxb also samples at kT but cancels any job
that would overrun the period, holding the previous command.  tt_sort
buffers activations: late jobs keep computing while new samples queue up,
outputs latch at reservation-period boundaries, and a job whose finishing
backlog would exceed max_delay reservation periods is cancelled together
with the queued work.  cs (continuous stream) drops the period entirely and
samples anew the moment the previous job ends, cancelling jobs that run
past max_delay reservation periods.

tt_maxb and cs have i.i.d. mode sequences, so second-moment stability is
decided analytically from the Kronecker stability matrix; tt_sort carries
backlog memory and is assessed by Monte Carlo co-simulation; stabilizes()
holds this verdict rule.  cosimulate() runs tt_hard (as one deterministic
trajectory), tt_maxb and cs through one switched-ensemble loop.  All the
stochastic timing derives from one quantity: a job of demand c ticks served
by a budget-Q reservation occupies ceil(c/Q) reservation periods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from .controlcore import (ClosedLoopModes, ContinuousLti, DiscreteLti,
                          _as_matrix, build_modes, c2d, second_moment_stable)
from .errors import ConfigError, NumericalError
from .taskmodel import ExecTimeModel, derived_seed, max_ticks, sample_exec_times, tick_cdf

MOC_KINDS = ("tt_hard", "tt_maxb", "tt_sort", "cs")
BUFFERED_KINDS = ("tt_sort", "cs")  # the kinds that cancel past max_delay


@dataclass(frozen=True)
class MocKind:
    kind: str
    max_delay: Optional[int] = None  # in reservation periods; tt_sort and cs only
    act_delay: Optional[int] = None  # ticks, default T; tt_hard only

    def __post_init__(self):
        if self.kind not in MOC_KINDS:
            raise ConfigError("moc.kind: must be one of %s" % (MOC_KINDS,))
        if self.kind in BUFFERED_KINDS:
            if self.max_delay is None or self.max_delay < 1:
                raise ConfigError("moc.max_delay: required and >= 1 for %s" % self.kind)
        elif self.max_delay is not None:
            raise ConfigError("moc.max_delay: not applicable to %s" % self.kind)
        if self.act_delay is not None:
            if self.kind != "tt_hard":
                raise ConfigError("moc.act_delay: not applicable to %s" % self.kind)
            if self.act_delay < 0:
                raise ConfigError("moc.act_delay: must be >= 0")


def service_periods(c: int, Q: int, R: int) -> int:
    """Reservation periods a job of c ticks occupies when granted Q per R."""
    if Q < 1 or R < Q:
        raise ConfigError("Q: need 1 <= Q <= R")
    if c < 1:
        raise ConfigError("c: demand must be >= 1 tick")
    return -(-c // Q)


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


@dataclass
class DelayChain:
    """Backlog Markov chain at activation instants, states 0..d_max periods."""

    transition: np.ndarray
    steady: np.ndarray

    def __post_init__(self):
        P = _as_matrix(self.transition, "chain.transition")
        if P.shape[0] != P.shape[1]:
            raise ConfigError("chain.transition: must be square")
        if np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-12 or np.any(P < -1e-15):
            raise ConfigError("chain.transition: rows must be stochastic")
        pi = np.asarray(self.steady, dtype=float)
        if pi.shape != (P.shape[0],):
            raise ConfigError("chain.steady: length must match transition")
        if np.max(np.abs(pi @ P - pi)) > 1e-10 or abs(pi.sum() - 1.0) > 1e-10:
            raise ConfigError("chain.steady: not a fixed point")
        self.transition, self.steady = P, pi

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]


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


# ---------------------------------------------------------------------------
# mode builders


def tt_maxb_modes(plant_d: DiscreteLti, K, model: ExecTimeModel, Q: int, R: int,
                  T: int) -> ClosedLoopModes:
    """Two-mode switched loop: fresh command vs job cancelled, command held.

    The drop probability is the chance a job's service does not fit in the
    task period: mu = P(ceil(c/Q) R > T) = P(c > Q * (T // R)).
    """
    from .analysis import dropout_probability

    mu = float(dropout_probability(model, Q, R, T))
    modes = build_modes(plant_d, K, hold_strategy="hold")
    return modes.with_probabilities([1.0 - mu, mu])


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


def tt_hard_modes(plant: ContinuousLti, K, T: int, act_delay: int,
                  tick_seconds: float = 1.0) -> ClosedLoopModes:
    """Single deterministic mode: sample at kT, actuate at kT + act_delay.

    Over (x, u_held): the old command drives the first act_delay ticks, the
    fresh command u = -K x(kT) the rest:

        A = [[A_rest A_del - B_rest K, A_rest B_del], [-K, 0]]

    act_delay = 0 recovers the idealized no-latency closed mode, act_delay
    = T the fully latched one.
    """
    if not 0 <= act_delay <= T:
        raise ConfigError("act_delay: need 0 <= act_delay <= T")
    K = _as_matrix(K, "tt.K")
    n, p = plant.A.shape[0], plant.B.shape[1]
    if act_delay == 0:
        A_del, B_del = np.eye(n), np.zeros((n, p))
    else:
        d = c2d(plant, act_delay * tick_seconds)
        A_del, B_del = d.A, d.B
    rest = T - act_delay
    if rest == 0:
        A_rest, B_rest = np.eye(n), np.zeros((n, p))
    else:
        d = c2d(plant, rest * tick_seconds)
        A_rest, B_rest = d.A, d.B
    M = np.zeros((n + p, n + p))
    M[:n, :n] = A_rest @ A_del - B_rest @ K
    M[:n, n:] = A_rest @ B_del
    M[n:, :n] = -K
    return ClosedLoopModes(["tt"], [M], [1.0])


# ---------------------------------------------------------------------------
# co-simulation


@dataclass
class CoSimResult:
    """Ensemble second-moment decay of the augmented closed-loop state.

    estimates[k] is the average of |x_hat_k|^2 over trajectories at step k;
    the step unit is the moc's natural granularity (task period for tt_hard
    and tt_maxb, one job for cs, one reservation period for tt_sort).
    mode_sequence / delay_sequence hold the first trajectory's switch
    diagnostics where meaningful.
    """

    estimates: np.ndarray
    n_traj: int
    verdict: str  # stable | unstable | inconclusive
    mode_sequence: Optional[np.ndarray] = None
    delay_sequence: Optional[np.ndarray] = None


def _verdict(estimates: np.ndarray) -> str:
    initial = estimates[0]
    tail = estimates[-max(1, len(estimates) // 4):]
    avg = float(np.mean(tail))
    if math.isnan(avg) or math.isinf(avg):
        return "unstable"
    if avg > 1e6 * initial:
        return "unstable"
    if avg < 1e-6 * initial:
        return "stable"
    return "inconclusive"


def _traj_demands(model, steps, n_traj, seed):
    return np.stack([sample_exec_times(model, steps, derived_seed(seed, "traj", i))
                     for i in range(n_traj)])


def _ensemble_switched(mats, mode_idx):
    """Vectorized ensemble run: X[i] <- A_{mode_idx[i,k]} X[i] at each step."""
    n_traj, horizon = mode_idx.shape
    X = np.zeros((n_traj, mats[0].shape[0]))
    X[:, 0] = 1.0
    est = np.empty(horizon + 1)
    est[0] = 1.0
    tr = [M.T.copy() for M in mats]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(horizon):
            col = mode_idx[:, k]
            for m in range(len(mats)):
                sel = col == m
                if np.any(sel):
                    X[sel] = X[sel] @ tr[m]
            est[k + 1] = float(np.mean(np.sum(X * X, axis=1)))
    return est


def _check_reservation(moc: MocKind, Q: int, R: int, T: Optional[int]) -> None:
    if not 1 <= Q <= R:
        raise ConfigError("Q: need 1 <= Q <= R")
    if moc.kind != "cs" and (T is None or T < R or T % R != 0):
        raise ConfigError("T: %s needs a task period that is a positive multiple "
                          "of R" % moc.kind)


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
    _check_reservation(moc, Q, R, T)

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
    """Buffered activations with backlog memory, stepped per reservation period."""
    F = T // R
    dR = c2d(plant, R * tick_seconds)
    A_R, B_R = dR.A, dR.B
    Km = np.asarray(K, dtype=float)
    n, p = A_R.shape[0], B_R.shape[1]
    n_jobs = horizon // F + 2
    est = np.zeros(horizon + 1)
    first_delays = None
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_traj):
            s_vals = -(-sample_exec_times(model, n_jobs, derived_seed(seed, "traj", i)) // Q)
            x = np.zeros(n)
            x[0] = 1.0
            u = np.zeros(p)
            due = {}
            backlog = 0
            delays = []
            est[0] += 1.0
            job = 0
            for m in range(horizon):
                if m in due:
                    u = due.pop(m)
                if m % F == 0:
                    s = int(s_vals[job])
                    job += 1
                    delays.append(backlog)
                    fin = backlog + s
                    if fin - F > max_delay:
                        backlog = 0
                        due.clear()  # cancellation discards queued work
                    else:
                        due[m + fin] = -Km @ x
                        backlog = max(0, fin - F)
                x = A_R @ x + B_R @ u
                est[m + 1] += float(x @ x + u @ u)
            if first_delays is None:
                first_delays = np.asarray(delays, dtype=np.int64)
    est /= n_traj
    return CoSimResult(est, n_traj, _verdict(est),
                       delay_sequence=first_delays)


def stabilizes(plant: ContinuousLti, K, moc: MocKind, model: ExecTimeModel, Q: int,
               R: int, T: int, *, tick_seconds: float = 1.0, horizon: int = 300,
               n_traj: int = 100, seed=0) -> bool:
    """Whether a (Q, R) reservation keeps the loop under moc second-moment stable.

    tt_hard: the hard schedulability condition Q * (T // R) >= max_ticks;
    tt_maxb and cs: the exact Kronecker test; tt_sort: a co-simulation
    verdict of "stable" (the only use of horizon, n_traj and seed).
    """
    _check_reservation(moc, Q, R, T)
    if moc.kind == "tt_hard":
        return Q * (T // R) >= max_ticks(model)
    if moc.kind == "tt_maxb":
        return second_moment_stable(
            tt_maxb_modes(c2d(plant, T * tick_seconds), K, model, Q, R, T))
    if moc.kind == "cs":
        return second_moment_stable(
            cs_modes(plant, K, model, Q, R, moc.max_delay, tick_seconds))
    res = cosimulate(plant, K, moc, model, Q, R, T, tick_seconds=tick_seconds,
                     horizon=horizon, n_traj=n_traj, seed=seed)
    return res.verdict == "stable"
