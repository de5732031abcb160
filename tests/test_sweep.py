"""Bandwidth sweep: random plants and the stabilized-fraction table."""

import pathlib

import numpy as np
import pytest

from softrt.errors import ConfigError
from softrt.sweep import SweepConfig, bandwidth_sweep, random_system, sweep_to_csv
from softrt.taskmodel import max_ticks

GOLDEN = pathlib.Path(__file__).parent / "golden" / "sweep_small.csv"


def test_random_system_deterministic():
    a = random_system(2, "s0")
    b = random_system(2, "s0")
    assert np.array_equal(a.A, b.A)
    assert np.array_equal(a.B, b.B)
    c = random_system(2, "s1")
    assert not np.array_equal(a.A, c.A)


def test_random_system_controllable_batch():
    for i in range(10):
        p = random_system(3, ("batch", i))
        ctrb = np.hstack([np.linalg.matrix_power(p.A, k) @ p.B for k in range(3)])
        assert np.linalg.svd(ctrb, compute_uv=False)[-1] > 1e-6
        assert np.array_equal(p.C, np.eye(3))
        assert np.all(p.D == 0)


def test_random_system_validation():
    with pytest.raises(ConfigError):
        random_system(0, 0)


def test_sweep_config_validation():
    with pytest.raises(ConfigError):
        SweepConfig(n_systems=0)
    with pytest.raises(ConfigError):
        SweepConfig(grid=(0.5, 0.2))
    with pytest.raises(ConfigError):
        SweepConfig(grid=(0.15,))  # budget 1.5 ticks for R=10
    with pytest.raises(ConfigError):
        SweepConfig(grid=(0.0, 1.0))
    with pytest.raises(ConfigError):
        SweepConfig(T=15)  # not a multiple of R=10
    with pytest.raises(ConfigError):
        SweepConfig(mocs=("tt_hard", "round_robin"))
    with pytest.raises(ConfigError):
        SweepConfig(max_delay=0)
    with pytest.raises(ConfigError):
        SweepConfig(tick_seconds=0.0)


def test_sweep_config_exec_model():
    cfg = SweepConfig(T=20, R=10)
    m = cfg.exec_model
    assert (m.alpha, m.beta, m.lo, m.hi) == (0.5, 0.5, 0.0, 20.0)
    # worst-case demand fills the whole task period
    assert max_ticks(m) == 20


SMALL = dict(n_systems=3, state_dim=2, seed=0, grid=(0.5, 1.0), R=10, T=10,
             max_delay=3, tick_seconds=0.02, horizon=80, n_traj=6)


def test_small_sweep_shape_and_determinism():
    cfg = SweepConfig(**SMALL)
    rows = bandwidth_sweep(cfg)
    assert len(rows) == len(cfg.grid) * len(cfg.mocs)
    assert [(r["bandwidth"], r["moc"]) for r in rows] == \
        [(b, m) for b in cfg.grid for m in cfg.mocs]
    for r in rows:
        f = r["fraction_stabilized"]
        assert 0.0 <= f <= 1.0
        # fractions are counts over 3 systems
        assert abs(f * 3 - round(f * 3)) < 1e-12
    assert sweep_to_csv(rows) == sweep_to_csv(bandwidth_sweep(cfg))


def test_sweep_hard_guarantee_needs_full_budget():
    rows = bandwidth_sweep(SweepConfig(**SMALL))
    hard = {r["bandwidth"]: r["fraction_stabilized"]
            for r in rows if r["moc"] == "tt_hard"}
    # worst-case demand is T ticks, so Q*(T//R) >= max_ticks only at b = 1
    assert hard[0.5] == 0.0
    assert hard[1.0] == 1.0
    maxb = {r["bandwidth"]: r["fraction_stabilized"]
            for r in rows if r["moc"] == "tt_maxb"}
    # at b = 1 no activation can overrun, so the loop is the plain LQR loop
    assert maxb[1.0] == 1.0


def test_sweep_csv_format():
    text = sweep_to_csv(bandwidth_sweep(SweepConfig(**SMALL)))
    lines = text.splitlines()
    assert lines[0] == "bandwidth,moc,fraction_stabilized"
    assert len(lines) == 1 + 8
    b, moc, frac = lines[1].split(",")
    assert b == "0.5"
    assert moc == "tt_hard"
    assert frac == "0.000000"


def test_sweep_matches_golden_table():
    # eight plants cover all four mechanisms with fractions from 0.125 to 1;
    # only a documented correctness fix may regenerate the golden file
    cfg = SweepConfig(n_systems=8, seed=0, grid=(0.1, 0.3, 0.4, 0.7, 1.0))
    assert sweep_to_csv(bandwidth_sweep(cfg)) == GOLDEN.read_text()
