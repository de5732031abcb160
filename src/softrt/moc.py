"""Models of computation coupling a reservation-served task to a plant.

Four timing disciplines are supported.  tt_hard samples at every period kT
and actuates a fixed delay later; it needs a reservation large enough that
jobs always finish.  tt_maxb also samples at kT but cancels any job
that would overrun the period, holding the previous command.  tt_sort
buffers activations: late jobs keep computing while new samples queue up,
outputs latch at reservation-period boundaries, and a job whose finishing
backlog would exceed max_delay reservation periods is cancelled together
with the queued work.  cs (continuous stream) drops the period entirely and
samples anew the moment the previous job ends, cancelling jobs that run
past max_delay reservation periods.

All the stochastic timing derives from one quantity: a job of demand c
ticks served by a budget-Q reservation occupies s = ceil(c/Q) reservation
periods.  tt_hard, tt_maxb and cs differ only in when a job's command takes
effect, so each maps s through one table (_mode_table) of cuts on s and
rows (held, span) over the state (x, z, u_held), z the state of a
ControllerLti (E, F, G) and absent for a static gain K.  A job samples its
command c (-K x, or G z) at its start; u_held drives the first held ticks
and c the rest of span, then u_held' = c and z' = E z + F (C x + D u), u
the input at the sample.  A row with no span (a drop or a cancel) never
latches: z and u_held stay.  control-synth's closed/open pair is tt_maxb's
rows at the plant's own interval.  The rows are weighted by the odds of
each cut interval in tt_maxb_modes and cs_modes and switched by sampled s
in cosimulate(); controlcore.stability_matrix of those modes is the same
lower-triangle operator that _operator builds.  tt_sort takes a static gain
only, and carries backlog memory, stepped by _backlog_step in its delay
chain; its operator and co-simulation share one latch rule, _latch_sources,
and one state: x and the coming periods' inputs.  That period-granular
backlog never drains at T = R but by cancelling, so its verdicts can be
non-monotone in Q there: not the engine's curve.  _verdict_table decides a
whole grid of budgets for a list of plants of one shape by one mean-square
test for all four mechanisms, VERDICT_CHUNK plants at a time: _operator
builds each mechanism's jump-system operator from blocks that do not depend
on Q, each (state, key) block once for the whole chunk as one stacked
array; a budget only sums the chunk's blocks, weighted by its odds, into
one stack whose slices are the plants' operators, and one solve per plant
decides it.  Each plant's discretiser (_discretiser) keeps one c2d per
interval for its synthesis and all its mechanisms, and alone says where a
DiscreteLti plant may run.  verdicts() is _verdict_table for one plant,
stabilizes() its one-budget call and cosimulate() their oracle: one rule,
_runs, admits the same runs to all three (an unschedulable tt_hard budget
is a False verdict and cosimulate's error on Q).  Inputs are checked by
taskmodel's rules: check_reservation, _positive, _model and _integer.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .controlcore import (ClosedLoopModes, ContinuousLti, ControllerLti, DiscreteLti,
                          _as_matrix, _half_kron, _mean_square_stable, _shaped, c2d)
from .errors import ConfigError, NumericalError
from .taskmodel import (ExecTimeModel, _choice, _counts, _integer, _items, _model,
                        _positive, check_reservation, derived_seed, max_ticks,
                        sample_exec_times, tick_cdf)

MOC_KINDS = ("tt_hard", "tt_maxb", "tt_sort", "cs")
BUFFERED_KINDS = ("tt_sort", "cs")  # the kinds that cancel past max_delay


@dataclass(frozen=True)
class MocKind:
    kind: str
    max_delay: Optional[int] = None  # in reservation periods; tt_sort and cs only
    act_delay: Optional[int] = None  # ticks, default T; tt_hard only

    def __post_init__(self):
        _choice(self.kind, "moc.kind", MOC_KINDS)
        if self.kind in BUFFERED_KINDS:
            _counts(self, "moc.", max_delay=1)
        elif self.max_delay is not None:
            raise ConfigError("moc.max_delay: not applicable to %s" % self.kind)
        if self.act_delay is not None:
            if self.kind != "tt_hard":
                raise ConfigError("moc.act_delay: not applicable to %s" % self.kind)
            _counts(self, "moc.", act_delay=0)


def service_periods(c: int, Q: int, R: int) -> int:
    """Reservation periods a job of c ticks occupies when granted Q per R."""
    check_reservation(Q, R)
    return -(-_integer(c, "c", 1) // Q)


def service_distribution(model: ExecTimeModel, Q: int, R: int) -> List[Tuple[int, object]]:
    """Distribution of service_periods(c, Q, R): pairs (s, P(s)), zero terms dropped.

    Exact fractions for discrete models, floats for continuous ones.
    P(s = k) = P(c <= kQ) - P(c <= (k-1)Q).
    """
    check_reservation(Q, R)  # before the cache, whose key 2.0 would find 2's entry
    return list(_service_distribution(_model(model), Q, R))


# read once per (mechanism, budget): the cache serves the other mechanisms at a budget
@functools.lru_cache(maxsize=1024)
def _service_distribution(model: ExecTimeModel, Q: int, R: int) -> tuple:
    s_max = service_periods(max_ticks(model), Q, R)
    odds = _cut_odds(model, Q, range(1, s_max + 1))
    return tuple((s, p) for s, p in enumerate(odds, 1) if p > 0)


def _cut_odds(model: ExecTimeModel, Q: int, cuts) -> list:
    """P(#{k in cuts : k < s} = i) for i = 0..len(cuts), s = ceil(c/Q).

    With ascending cuts that is P(cuts[i-1] < s <= cuts[i]), the difference
    of tick_cdf at cuts[i] * Q and cuts[i-1] * Q (below the first cut from
    0 ticks, above the last up to certainty).  Fractions or floats, as
    tick_cdf gives them.
    """
    cdf = [0] + [tick_cdf(model, k * Q) for k in cuts] + [1]
    return [hi - lo for lo, hi in zip(cdf, cdf[1:])]


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
        if not np.isfinite(pi).all():
            raise ConfigError("chain.steady: entries must be finite")
        if np.max(np.abs(pi @ P - pi)) > 1e-10 or abs(pi.sum() - 1.0) > 1e-10:
            raise ConfigError("chain.steady: not a fixed point")
        self.transition, self.steady = P, pi

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]


def _backlog_step(fin, F: int, max_delay: int):
    """One tt_sort activation: (fire, d') for a job that finishes fin = d + s
    periods after it is activated (backlog d, s service periods), with the
    next activation F periods on.

    d' = max(fin - F, 0), unless fin - F exceeds max_delay: then the job is
    cancelled together with all queued work, fire is false and d' = 0.
    Elementwise on arrays.
    """
    left = fin - F
    fire = left <= max_delay
    return fire, np.maximum(left, 0) * fire


def _latch_sources(d, fin, F: int, max_delay: int):
    """tt_sort's latch rule, elementwise: (d', src) for a job activated at
    backlog d that finishes fin = d + s periods on.  src[..., r], r = 0..F +
    max_delay, is the input of period r on: j for w_j (the input due j
    periods on, w_d held beyond) or -1 for the job's -K x.  A firing job
    keeps w_min(r, d) until fin; a cancel (fin > F + max_delay) holds w_0."""
    fire, d_next = _backlog_step(fin, F, max_delay)
    d, fin = (np.asarray(a)[..., None] for a in (d * fire, fin))
    r = np.arange(F + max_delay + 1)
    return d_next, np.where(r < fin, np.minimum(r, d), -1)  # cancel: d 0, fin past r


def _reachable_backlogs(dist, F: int, max_delay: int) -> List[int]:
    """Backlogs _backlog_step reaches from 0 under dist's (s, P(s)), ascending."""
    s, reach, size = np.array([s for s, _ in dist]), {0}, 0
    while len(reach) > size:
        size = len(reach)
        reach |= set(_backlog_step(np.add.outer(list(reach), s), F, max_delay)[1].flat)
    return sorted(map(int, reach))


def build_delay_chain(model: ExecTimeModel, Q: int, R: int, T: int,
                      d_max: int) -> DelayChain:
    """Markov chain of the activation-time backlog under buffered serving.

    A job activated with backlog d (reservation periods of unfinished prior
    work) moves the backlog to _backlog_step's d', with d_max as the
    cancellation threshold.  The steady state solves pi P = pi by least
    squares with the normalization row appended.
    """
    check_reservation(Q, R, T)
    d_max = _integer(d_max, "d_max", 1)
    F = T // R
    dist = service_distribution(model, Q, R)
    n = d_max + 1
    P = np.zeros((n, n))
    for d in range(n):
        for s, p in dist:
            P[d, _backlog_step(d + s, F, d_max)[1]] += float(p)

    # the buffer starts empty, so the long-run occupancy lives on the states
    # reachable from 0; restricting first keeps reducible chains (e.g. s = F
    # always, an identity transition) from picking up spurious fixed points
    idx = _reachable_backlogs(dist, F, d_max)
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


def _runs(moc: MocKind, model: ExecTimeModel, Q: int, R: int, T: Optional[int]):
    """The one rule for which runs exist, for verdicts and cosimulate alike:
    the odds [(s, P(s))] of moc's jumps on a (Q, R) reservation that exists
    (check_reservation; T unused by cs, needed by every other kind), or None
    for no run.  tt_hard reads only max_ticks: one certain mode at a budget
    that covers the largest demand every task period, else no run.  The
    others read the stationary law (service_distribution), which a Scripted
    model has not."""
    check_reservation(Q, R, *(() if T is None or moc.kind == "cs" else (T,)))
    if T is None and moc.kind != "cs":
        raise ConfigError("T: %s needs a task period that is a positive multiple "
                          "of R" % moc.kind)
    if moc.kind != "tt_hard":
        return service_distribution(model, Q, R)
    return [(1, 1)] if Q * (T // R) >= max_ticks(model) else None


# ---------------------------------------------------------------------------
# mode builders


def _discretiser(plant, tick_seconds: float) -> Callable:
    """ticks -> (A, B), the plant over that many ticks of held input: each
    interval is discretised (c2d) on first use and kept, so a plant's
    synthesis, modes and operators share one discretisation per interval.
    A DiscreteLti plant is its own (A, B) over its sample_period (rel_tol
    1e-9) and over no other interval but 0: the one rule for where it runs."""
    _positive(tick_seconds, "tick_seconds")
    n, p = plant.A.shape[0], plant.B.shape[1]

    @functools.cache
    def disc(ticks):
        if ticks == 0:
            return np.eye(n), np.zeros((n, p))
        d = plant if isinstance(plant, DiscreteLti) else c2d(plant, ticks * tick_seconds)
        if not math.isclose(d.sample_period, ticks * tick_seconds, rel_tol=1e-9):
            raise ConfigError("plant.sample_period: %r s, but this loop needs the plant over "
                              "%d tick%s of %r s; continuous model required"
                              % (plant.sample_period, ticks, "s"[ticks == 1:], tick_seconds))
        return d.A, d.B

    return disc


def _mode_table(plant, K, moc: MocKind, R: Optional[int], T: Optional[int],
                disc: Callable) -> Tuple[List[str], List[int], Callable]:
    """(labels, cuts, matrix) of an i.i.d. mechanism: a job of s service
    periods runs mode i = #{k in cuts : k < s}, labels[i], with transition
    matrix(i) over (x, z, u_held), the rule of its row (label, held, span)
    by _tt_matrix for the feedback K, a static gain or a ControllerLti
    (_law), and the plant's discretiser disc (_discretiser).  None of it
    depends on the budget Q.  Matrices are built on first use and kept, so
    a caller pays once for each mode it uses; a DiscreteLti plant's disc
    is asked for every interval at once.  The caller checks the reservation.
    """
    if moc.kind == "tt_hard":
        held = T if moc.act_delay is None else moc.act_delay
        if held > T:
            raise ConfigError("moc.act_delay: need 0 <= act_delay <= T")
        rows, cuts = [("tt", held, T)], []
    elif moc.kind == "tt_maxb":
        rows, cuts = [("closed", 0, T), ("open", T, None)], [T // R]
    else:  # cs: s = 1..D latch at the job's end, a cancel after D periods never
        D, cuts = moc.max_delay, list(range(1, moc.max_delay + 1))
        rows = [("s=%d" % s, s * R, s * R) for s in cuts] + [("cancel", D * R, None)]
    if isinstance(plant, DiscreteLti):
        for ticks in sorted({h for _, h, _ in rows} | {s - h for _, h, s in rows if s}):
            disc(ticks)
    law = _law(plant, K)
    matrix = functools.cache(lambda i: _tt_matrix(disc, law, *rows[i][1:]))
    return [row[0] for row in rows], cuts, matrix


def _law(plant, K) -> tuple:
    """(Kx, Kz, FC, E, FD) of the feedback K over (x, z, u_held): a job
    commands c = Kx x + Kz z from its sample, and a latching job moves z to
    E z + FC x + FD u, u its input at the sample.  A static gain K is c =
    -K x with no z; a ControllerLti (E, F, G) is c = G z with FC = F C and
    FD = F D, C and D the plant's."""
    n, p = plant.A.shape[0], plant.B.shape[1]
    if not isinstance(K, ControllerLti):
        K = _shaped(K, "tt.K", (p, n))
        return -K, np.zeros((p, 0)), np.zeros((0, n)), np.zeros((0, 0)), np.zeros((0, p))
    if K.F.shape[1] != plant.C.shape[0] or K.G.shape[0] != p:
        raise ConfigError("controller.F: dimensions must match plant outputs/inputs")
    return np.zeros((p, n)), K.G, K.F @ plant.C, K.E, K.F @ plant.D


def _tt_matrix(disc: Callable, law: tuple, held: int, span: Optional[int]) -> np.ndarray:
    """One _mode_table row over (x, z, u_held) under law = (Kx, Kz, FC, E,
    FD) (_law).  With (A_t, B_t) = disc(t), h = held and r = span - held,
    the job's command c = Kx x + Kz z drives the plant after u_held has for
    h ticks: x' = A_r (A_h x + B_h u_held) + B_r c, z' = E z + FC x + FD u
    for u = c if h = 0 and u_held otherwise, u_held' = c.  For span None, x'
    = A_h x + B_h u_held, and z and u_held stay."""
    Kx, Kz, FC, E, FD = law
    A_h, B_h = disc(held)
    A_r, B_r = disc(0 if span is None else span - held)
    n, q, p = len(A_h), len(E), B_h.shape[1]
    x, z, u = slice(0, n), slice(n, n + q), slice(n + q, None)
    M = np.eye(n + q + p)
    M[x, x], M[x, u] = A_r @ A_h, A_r @ B_h
    if span is not None:
        M[x, x] += B_r @ Kx
        M[x, z] = B_r @ Kz
        if held:
            M[z, x], M[z, z], M[z, u] = FC, E, FD
        else:
            M[z, x], M[z, z] = FC + FD @ Kx, E + FD @ Kz
        M[u, x], M[u, z], M[u, u] = Kx, Kz, 0
    return M


def tt_maxb_modes(plant_d: DiscreteLti, K, model: ExecTimeModel, Q: int, R: int,
                  T: int) -> ClosedLoopModes:
    """Two-mode switched loop: fresh command vs job cancelled, command held.

    The drop probability is the chance a job's service does not fit in the
    task period: mu = P(ceil(c/Q) R > T) = P(c > Q * (T // R)).
    """
    moc = MocKind("tt_maxb")
    _runs(moc, model, Q, R, T)
    if not isinstance(plant_d, DiscreteLti):
        raise ConfigError("plant: tt_maxb_modes needs a DiscreteLti, got %s"
                          % type(plant_d).__name__)
    disc = _discretiser(plant_d, plant_d.sample_period / T)  # its own interval: T ticks
    labels, cuts, matrix = _mode_table(plant_d, K, moc, R, T, disc)
    return ClosedLoopModes(labels, [matrix(0), matrix(1)],
                           [float(p) for p in _cut_odds(model, Q, cuts)])


def cs_modes(plant: ContinuousLti, K, model: ExecTimeModel, Q: int, R: int,
             max_delay: int, tick_seconds: float = 1.0) -> ClosedLoopModes:
    """Variable-interval modes for the continuous stream discipline.

    A job taking s <= max_delay reservation periods holds the previous
    command for its s*R ticks, then latches the one from its start sample:
    the row (s*R, s*R), for a static gain [[A_sR, B_sR], [-K, 0]].  A longer
    job is cancelled after D = max_delay periods and never latches: the row
    (D*R, no span), [[A_DR, B_DR], [0, I]].  Jobs start fresh (i.i.d.
    service); zero-probability modes are omitted.
    """
    moc = MocKind("cs", max_delay)
    _runs(moc, model, Q, R, None)
    labels, cuts, matrix = _mode_table(plant, K, moc, R, None,
                                       _discretiser(plant, tick_seconds))
    odds = _cut_odds(model, Q, cuts)
    keep = [i for i, p in enumerate(odds) if p > 0]
    return ClosedLoopModes([labels[i] for i in keep], [matrix(i) for i in keep],
                           [float(odds[i]) for i in keep])


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
    if not math.isfinite(avg) or avg > 1e6 * initial:
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


def cosimulate(plant, K, moc: MocKind, model: ExecTimeModel, Q: int, R: int,
               T: Optional[int] = None, *, tick_seconds: float = 1.0,
               horizon: int = 300, n_traj: int = 100, seed=0) -> CoSimResult:
    """Monte Carlo second-moment run of the closed loop under a moc.

    The plant starts at x = e1 with controller state and held input zero;
    execution demands are drawn per trajectory from streams keyed by
    (seed, trajectory index), so results are independent of evaluation
    order.  T is the task period in ticks (unused by cs).  K is a static
    gain or, but for tt_sort, a ControllerLti.  A budget with no run
    (_runs), an unschedulable one under tt_hard, is a ConfigError naming Q.
    tt_hard has no randomness: all trajectories coincide, so one is run.
    """
    n_traj, horizon = _integer(n_traj, "n_traj", 1), _integer(horizon, "horizon", 4)
    odds, disc = _runs(moc, model, Q, R, T), _discretiser(plant, tick_seconds)
    if moc.kind == "tt_sort":
        return _cosim_tt_sort(plant, K, moc.max_delay, model, Q, R, T, disc, horizon,
                              n_traj, seed)
    labels, cuts, matrix = _mode_table(plant, K, moc, R, T, disc)
    if odds is None:  # after the loop's checks, as in the verdicts
        raise ConfigError("Q: tt_hard is unschedulable: Q * (T // R) < %d ticks, the "
                          "largest demand" % max_ticks(model))
    if cuts:
        mode_idx = np.searchsorted(cuts, -(-_traj_demands(model, horizon, n_traj, seed) // Q))
    else:  # tt_hard
        mode_idx = np.zeros((1, horizon), dtype=np.intp)
    est = _ensemble_switched([matrix(i) for i in range(len(labels))], mode_idx)
    return CoSimResult(est, n_traj, _verdict(est),
                       mode_sequence=mode_idx[0] if cuts else None)


def _tt_sort_setup(plant, K, R: int, T: int, disc: Callable):
    """(F, (A, B) of the plant over one reservation period, K) for tt_sort's
    co-simulation and operator alike, K checked against the plant.  Its
    queued jobs would need z advanced at activation, so a ControllerLti is
    refused."""
    if isinstance(K, ControllerLti):
        raise ConfigError("K: tt_sort needs a static gain, not a dynamic controller")
    n, p = plant.A.shape[0], plant.B.shape[1]
    return T // R, disc(R), _shaped(K, "tt.K", (p, n))


def _cosim_tt_sort(plant, K, max_delay, model, Q, R, T, disc, horizon, n_traj,
                   seed) -> CoSimResult:
    """Buffered activations with backlog memory, stepped per reservation period.

    All trajectories advance together, each in _operator's state: x, the
    backlog and the inputs W = w_0..w_max_delay of the coming periods.  Each
    activation (every F = T // R steps) looks up _latch_sources, tabled for
    every (backlog, fin), to schedule the next F + max_delay + 1 inputs.
    X (n_traj, n, 1) and U (n_traj, p, 1) are stacks of column vectors, U a
    copy (a view moves last bits), so A @ X is bit for bit a per-trajectory
    loop's A @ x; only the sum over trajectories runs in another order.
    """
    F, (A, B), K = _tt_sort_setup(plant, K, R, T, disc)
    negK = -K
    n, p = B.shape
    S = -(-_traj_demands(model, horizon // F + 2, n_traj, seed) // Q)
    grid = np.indices((max_delay + 1, max_delay + S.max() + 1))  # every (d, fin)
    after, sources = _latch_sources(*grid, F, max_delay)
    rows = np.arange(n_traj)
    X = np.zeros((n_traj, n, 1))
    X[:, 0] = 1.0
    W = np.zeros((max_delay + 2, n_traj, p, 1))  # w_0..w_max_delay, then -K x
    backlog = np.zeros(n_traj, dtype=np.int64)
    delays = np.empty(-(-horizon // F), dtype=np.int64)
    est = np.empty(horizon + 1)
    est[0] = n_traj
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(horizon):
            if m % F == 0:
                delays[m // F] = backlog[0]
                fin = backlog + S[:, m // F]
                W[-1] = negK @ X
                sched = W[sources[backlog, fin].T, rows]
                backlog = after[backlog, fin]
                W[:-1] = sched[F:]
            U = sched[m % F].copy()
            X = A @ X + B @ U
            est[m + 1] = np.vdot(X, X) + np.vdot(U, U)
    est /= n_traj
    return CoSimResult(est, n_traj, _verdict(est), delay_sequence=delays)


# loops whose operators one verdict pass builds and solves together.  A
# chunk's stacked operators and blocks take VERDICT_CHUNK times one loop's
# memory (about 0.4 MB for a default-sweep plant), whatever the plant
# count; 5 keeps most of the time a whole batch saves
VERDICT_CHUNK = 5


def _operator(plants, gains, discs, moc: MocKind, R: int, T: int) -> Callable:
    """The second-moment operators of a chunk of loops of one shape under a
    stochastic moc, loop i the plant plants[i] under the feedback gains[i]
    with the discretiser discs[i] (_discretiser).  Each is a Markov jump
    linear system at activations (Costa, Fragoso & Marques 2005, ch. 3):
    operator(dist) -> (opT, sides) for dist = [(s, P(s))], opT[i].T loop
    i's operator, Fortran-ordered for LAPACK.  In state d, a job of s
    periods maps the loop's state v to v' = M v in state d', so V'_d' = sum
    p(s) M V_d M^T, V_d = E[v v^T; state d] on its lower triangle
    (_half_kron), stacked by d.  Only the jump rule is per kind.  tt_maxb
    and cs: one state, v = (x, z, u_held) and M is _mode_table's mode
    searchsorted(cuts, s).  tt_sort, static K only: d is the backlog
    (_reachable_backlogs), v = (x, w_0..w_d), w_j the input j periods on,
    w_d held beyond; _latch_sources schedules the coming periods' inputs, x
    advances F = T // R periods and w' is the schedule from period F on.  M
    depends on (d, key of s) alone, so its block is built on first use for
    the whole chunk, one stacked and transposed array, and kept: a further
    dist only sums blocks, in one order for every loop.
    """
    n, p, loops = plants[0].A.shape[0], plants[0].B.shape[1], len(plants)
    if moc.kind != "tt_sort":
        tables = [_mode_table(plant, K, moc, R, T, disc)
                  for plant, K, disc in zip(plants, gains, discs)]
        cuts = tables[0][1]
        states, key = lambda dist: [0], lambda d, s: np.searchsorted(cuts, s)
        mode = lambda d, i: (0, np.stack([matrix(i) for _, _, matrix in tables]))
        side = lambda d: len(tables[0][2](0))  # n + q + p, q the states of z
    else:
        _, ABs, Ks = zip(*[_tt_sort_setup(plant, K, R, T, disc)
                           for plant, K, disc in zip(plants, gains, discs)])
        (A, B), negK = map(np.stack, zip(*ABs)), -np.stack(Ks)
        F, D = T // R, moc.max_delay
        states = lambda dist: _reachable_backlogs(dist, F, D)
        key = lambda d, s: np.minimum(d + s, F + D + 1)  # every cancel alike
        side = lambda d: n + (d + 1) * p

        def mode(d, fin):
            d_next, src = _latch_sources(d, fin, F, D)
            m = side(d)
            w = np.eye(m)[n:].reshape(d + 1, p, m)  # w_j as rows over v
            inputs = np.concatenate([np.broadcast_to(w, (loops, *w.shape)),
                                     (negK @ np.eye(n, m))[:, None]], axis=1)
            sched = inputs[:, src[:F + d_next + 1]]
            x = np.eye(n, m)
            for r in range(F):
                x = A @ x + B @ sched[:, r]
            return int(d_next), np.concatenate([x, sched[:, F:].reshape(loops, -1, m)], axis=1)

    @functools.cache
    def block(d, k):
        d_next, M = mode(d, k)
        return d_next, np.ascontiguousarray(_half_kron(M).swapaxes(1, 2))

    def operator(dist):
        s = np.array([s for s, _ in dist])
        prob = np.array([float(q) for _, q in dist])
        jumps = states(dist)
        sides = tuple(side(d) for d in jumps)
        starts = np.cumsum([0] + [m * (m + 1) // 2 for m in sides])
        at = {d: slice(starts[i], starts[i + 1]) for i, d in enumerate(jumps)}
        opT = np.zeros((loops, starts[-1], starts[-1]))
        for d in jumps:
            odds = np.bincount(key(d, s), weights=prob)
            for k in np.flatnonzero(odds):
                d_next, HT = block(d, int(k))
                opT[:, at[d], at[d_next]] += odds[k] * HT
        return opT, sides

    return operator


def _verdict_table(plants, gains, discs, moc: MocKind, model: ExecTimeModel,
                   budgets: Sequence[int], R: int, T: int) -> Tuple[np.ndarray, int]:
    """(table, unknowns): table[i, j] is whether a (budgets[j], R)
    reservation keeps loop i (_operator's plants, gains and discs) under moc
    second-moment stable, and unknowns the size of the largest operator
    solved.  Every mechanism is decided by _mean_square_stable on the
    operators of VERDICT_CHUNK loops at a time, whose blocks _operator
    builds once per chunk; each budget only weights them by its own odds
    (_runs).  A budget with no run, an unschedulable one under tt_hard, is
    unstable and not solved.
    """
    runs = [_runs(moc, model, Q, R, T) for Q in _items(budgets, "budgets")]
    solved = [(j, dist) for j, dist in enumerate(runs) if dist is not None]
    table = np.zeros((len(plants), len(runs)), dtype=bool)
    unknowns = 0
    for lo in range(0, len(plants), VERDICT_CHUNK):
        chunk = slice(lo, lo + VERDICT_CHUNK)
        operator = _operator(plants[chunk], gains[chunk], discs[chunk], moc, R, T)
        for j, dist in solved:
            with np.errstate(over="ignore", invalid="ignore"):  # non-finite is not stable
                opT, sides = operator(dist)
                table[chunk, j] = [_mean_square_stable(op.T, sides) for op in opT]
            unknowns = max(unknowns, opT.shape[-1])
            del opT  # before the next budget's stack is built
    return table, unknowns


def verdicts(plant, K, moc: MocKind, model: ExecTimeModel, budgets: Sequence[int], R: int,
             T: int, *, tick_seconds: float = 1.0) -> List[bool]:
    """Whether a (Q, R) reservation keeps the loop under moc second-moment
    stable, for each budget Q in budgets: _verdict_table for this one loop.
    K is a static gain or, but for tt_sort, a ControllerLti.
    """
    table, _ = _verdict_table([plant], [K], [_discretiser(plant, tick_seconds)], moc, model,
                              budgets, R, T)
    return table[0].tolist()


def stabilizes(plant, K, moc: MocKind, model: ExecTimeModel, Q: int, R: int, T: int, *,
               tick_seconds: float = 1.0) -> bool:
    """Whether a (Q, R) reservation keeps the loop under moc second-moment
    stable: verdicts for the one budget Q."""
    return verdicts(plant, K, moc, model, [Q], R, T, tick_seconds=tick_seconds)[0]
