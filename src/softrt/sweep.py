"""Bandwidth-vs-stability experiment over random plants.

For every sampled plant an LQR controller is synthesized at the nominal
sampling period, then each bandwidth fraction b on the grid funds a
reservation of budget b*R per period R and every model of computation is
asked whether the resulting switched loop is second-moment stable.
The verdict rule lives in moc and is exact, so the seed only draws the
plants.  Every plant is synthesized first; then one call per mechanism
decides the whole grid for all of them, a chunk of plants at a time,
sharing the work that depends on neither the budget nor the plant.  Each
plant is discretised once per interval, for its synthesis and every
mechanism alike.  A debug line on this module's logger reports each
mechanism's plants, budgets, operator size and wall time.  tt_hard needs the
budget to cover the worst-case demand every task period, which with
worst-case utilization 1 holds only at b = 1, and the loop to be stable
with a period of actuation delay.
"""

from __future__ import annotations

import csv
import io
import logging
import time
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .controlcore import ContinuousLti, dlqr
from .errors import ConfigError, NumericalError
from .moc import BUFFERED_KINDS, MOC_KINDS, MocKind, _discretiser, _verdict_table
from .taskmodel import (Beta, _choice, _counts, _integer, _is_int, _is_real, _items,
                        _positive, derived_seed)

log = logging.getLogger(__name__)

DEFAULT_GRID = tuple(round(0.1 * k, 1) for k in range(1, 11))


@dataclass(frozen=True)
class SweepConfig:
    n_systems: int = 60
    state_dim: int = 2
    seed: object = 0
    grid: Tuple[float, ...] = DEFAULT_GRID  # bandwidth fractions Q/R
    R: int = 10  # reservation period, ticks
    T: int = 20  # task (sampling) period, ticks
    # U-shaped demand: most frames are cheap, cluttered ones near worst case
    beta_alpha: float = 0.5
    beta_beta: float = 0.5
    mocs: Tuple[str, ...] = MOC_KINDS
    max_delay: int = 6  # cancellation threshold, reservation periods
    tick_seconds: float = 0.01

    def __post_init__(self):
        # messages name each field by its path in a config document
        _counts(self, "sweep.", n_systems=1, state_dim=1, R=1, T=1, max_delay=1)
        if self.T % self.R != 0:
            raise ConfigError("sweep.T: must be a positive multiple of R")
        for name in ("beta_alpha", "beta_beta", "tick_seconds"):
            _positive(getattr(self, name), "sweep." + name)
        if not (_is_int(self.seed) or isinstance(self.seed, str)):
            raise ConfigError("sweep.seed: must be an integer or a string, got %r"
                              % (self.seed,))
        object.__setattr__(self, "grid", _items(self.grid, "sweep.grid"))
        for i, b in enumerate(self.grid):
            if not _is_real(b):
                raise ConfigError("sweep.grid[%d]: must be a number, got %r" % (i, b))
            if not 0 < b <= 1:
                raise ConfigError("sweep.grid[%d]: bandwidth fraction %r must lie "
                                  "in (0, 1]" % (i, b))
            if abs(b * self.R - round(b * self.R)) > 1e-9:
                raise ConfigError("sweep.grid[%d]: fraction %r gives a non-integer "
                                  "budget for R=%d" % (i, b, self.R))
            if i and round(b * self.R) == round(self.grid[i - 1] * self.R):
                raise ConfigError("sweep.grid[%d]: repeats the budget of sweep.grid[%d]"
                                  % (i, i - 1))
        if not self.grid or list(self.grid) != sorted(self.grid):
            raise ConfigError("sweep.grid: bandwidth grid must be non-empty and "
                              "sorted ascending")
        object.__setattr__(self, "mocs", _items(self.mocs, "sweep.mocs"))
        for i, m in enumerate(self.mocs):
            if _choice(m, "sweep.mocs[%d]" % i, MOC_KINDS) in self.mocs[:i]:
                raise ConfigError("sweep.mocs[%d]: %r is listed twice" % (i, m))

    @property
    def exec_model(self) -> Beta:
        # worst-case demand equals the task period: worst-case utilization 1
        return Beta(self.beta_alpha, self.beta_beta, lo=0.0, hi=float(self.T))


def random_system(state_dim: int, seed) -> ContinuousLti:
    """Random continuous plant with entries uniform on [-1, 1], C = I, D = 0.

    Redrawn until the controllability matrix [B, AB, ..., A^(n-1)B] is
    numerically full rank (smallest singular value > 1e-6).  The entry law
    spreads eigenvalues across both half-planes, so the batch contains
    stable and unstable plants.
    """
    state_dim = _integer(state_dim, "state_dim", 1)
    g = np.random.default_rng(derived_seed(seed, "plant"))
    for _ in range(50):
        A = g.uniform(-1.0, 1.0, (state_dim, state_dim))
        B = g.uniform(-1.0, 1.0, (state_dim, 1))
        ctrb = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(state_dim)])
        if np.linalg.svd(ctrb, compute_uv=False)[-1] > 1e-6:
            return ContinuousLti.from_ab(A, B)
    raise NumericalError("random_system: no controllable draw in 50 retries")


def _synthesized(config: SweepConfig) -> Tuple[list, list, list]:
    """(plants, gains, discs) of the sweep's plants that synthesis
    stabilizes, in order: each plant, its LQR gain at the nominal sampling
    period and its discretiser (moc._discretiser), which kept that
    discretisation for the mechanisms to share.  A failed synthesis is
    logged and the plant left out, which counts it unstabilized."""
    plants, gains, discs = [], [], []
    for i in range(config.n_systems):
        plant = random_system(config.state_dim, derived_seed(config.seed, "sys", i))
        disc = _discretiser(plant, config.tick_seconds)
        try:
            K, _ = dlqr(*disc(config.T), np.eye(config.state_dim), np.eye(1))
        except NumericalError as exc:
            log.warning("system %d: synthesis failed, counted unstabilized (%s)", i, exc)
            continue
        plants.append(plant)
        gains.append(K)
        discs.append(disc)
    return plants, gains, discs


def bandwidth_sweep(config: SweepConfig) -> List[dict]:
    """Rows (bandwidth, moc, fraction_stabilized), deterministic given the seed."""
    model = config.exec_model
    mocs = [MocKind(m, config.max_delay if m in BUFFERED_KINDS else None)
            for m in config.mocs]

    budgets = [int(round(b * config.R)) for b in config.grid]
    loops = _synthesized(config)
    counts = {}
    for moc in mocs:
        start = time.perf_counter()
        table, unknowns = _verdict_table(*loops, moc, model, budgets, config.R, config.T)
        log.debug("%s: %d plants x %d budgets, up to %d unknowns per operator, %.3f s",
                  moc.kind, len(table), len(budgets), unknowns, time.perf_counter() - start)
        for b, stabilized in zip(config.grid, table.sum(axis=0)):
            counts[(b, moc.kind)] = int(stabilized)

    rows = []
    for b in config.grid:
        for m in config.mocs:
            rows.append({"bandwidth": b, "moc": m,
                         "fraction_stabilized": counts[(b, m)] / config.n_systems})
    return rows


def sweep_to_csv(rows: List[dict]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["bandwidth", "moc", "fraction_stabilized"])
    for r in rows:
        w.writerow(["%g" % r["bandwidth"], r["moc"],
                    "%.6f" % r["fraction_stabilized"]])
    return buf.getvalue()
