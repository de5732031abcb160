"""Bandwidth-vs-stability experiment over random plants.

For every sampled plant an LQR controller is synthesized at the nominal
sampling period, then each bandwidth fraction b on the grid funds a
reservation of budget b*R per period R and every model of computation is
asked whether the resulting switched loop is second-moment stable.
The verdict rule lives in moc.verdicts and is exact, so the seed only
draws the plants; one call per (plant, mechanism) decides the whole grid,
sharing the work that does not depend on the budget.  tt_hard needs the
budget to cover the worst-case demand every task period, which with
worst-case utilization 1 holds only at b = 1.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .controlcore import ContinuousLti, c2d, dlqr
from .errors import ConfigError, NumericalError
from .moc import BUFFERED_KINDS, MOC_KINDS, MocKind, verdicts
from .taskmodel import Beta, derived_seed

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
        for name in ("n_systems", "state_dim", "R", "max_delay"):
            if getattr(self, name) < 1:
                raise ConfigError("sweep.%s: must be >= 1" % name)
        if self.T < self.R or self.T % self.R != 0:
            raise ConfigError("sweep.T: must be a positive multiple of R")
        if not self.grid or list(self.grid) != sorted(self.grid):
            raise ConfigError("sweep.grid: bandwidth grid must be non-empty and "
                              "sorted ascending")
        for i, b in enumerate(self.grid):
            if not 0 < b <= 1:
                raise ConfigError("sweep.grid[%d]: bandwidth fraction %r must lie "
                                  "in (0, 1]" % (i, b))
            if abs(b * self.R - round(b * self.R)) > 1e-9:
                raise ConfigError("sweep.grid[%d]: fraction %r gives a non-integer "
                                  "budget for R=%d" % (i, b, self.R))
        for i, m in enumerate(self.mocs):
            if m not in MOC_KINDS:
                raise ConfigError("sweep.mocs[%d]: unknown model of computation %r"
                                  % (i, m))
        if self.tick_seconds <= 0:
            raise ConfigError("sweep.tick_seconds: must be > 0")

    @property
    def exec_model(self) -> Beta:
        # worst-case demand equals the task period: worst-case utilization 1
        return Beta(self.beta_alpha, self.beta_beta, lo=0.0, hi=float(self.T))


def random_system(state_dim: int, seed, retries: int = 50) -> ContinuousLti:
    """Random continuous plant with entries uniform on [-1, 1], C = I, D = 0.

    Redrawn until the controllability matrix [B, AB, ..., A^(n-1)B] is
    numerically full rank (smallest singular value > 1e-6).  The entry law
    spreads eigenvalues across both half-planes, so the batch contains
    stable and unstable plants.
    """
    if state_dim < 1:
        raise ConfigError("state_dim: must be >= 1")
    g = np.random.default_rng(derived_seed(seed, "plant"))
    for _ in range(retries):
        A = g.uniform(-1.0, 1.0, (state_dim, state_dim))
        B = g.uniform(-1.0, 1.0, (state_dim, 1))
        ctrb = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(state_dim)])
        if np.linalg.svd(ctrb, compute_uv=False)[-1] > 1e-6:
            return ContinuousLti.from_ab(A, B)
    raise NumericalError("random_system: no controllable draw in %d retries" % retries)


def bandwidth_sweep(config: SweepConfig) -> List[dict]:
    """Rows (bandwidth, moc, fraction_stabilized), deterministic given the seed."""
    model = config.exec_model
    mocs = [MocKind(m, config.max_delay if m in BUFFERED_KINDS else None)
            for m in config.mocs]

    budgets = [int(round(b * config.R)) for b in config.grid]
    counts = {(b, m): 0 for b in config.grid for m in config.mocs}
    for i in range(config.n_systems):
        plant = random_system(config.state_dim, derived_seed(config.seed, "sys", i))
        plant_d = c2d(plant, config.T * config.tick_seconds)
        try:
            K, _ = dlqr(plant_d.A, plant_d.B, np.eye(config.state_dim), np.eye(1))
        except NumericalError as exc:
            log.warning("system %d: synthesis failed, counted unstabilized (%s)", i, exc)
            continue
        for moc in mocs:
            for b, ok in zip(config.grid, verdicts(plant, K, moc, model, budgets, config.R,
                                                   config.T, tick_seconds=config.tick_seconds)):
                counts[(b, moc.kind)] += ok

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
