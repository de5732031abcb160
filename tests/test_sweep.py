"""Bandwidth sweep: random plants and the stabilized-fraction table."""

import logging
import pathlib
import re

import numpy as np
import pytest

import moc_oracle as oracle
import softrt.moc
import softrt.sweep
from softrt.controlcore import ClosedLoopModes, c2d, dlqr, second_moment_stable
from softrt.errors import ConfigError, NumericalError
from softrt.moc import MocKind
from softrt.sweep import SweepConfig, bandwidth_sweep, random_system, sweep_to_csv
from softrt.taskmodel import derived_seed, max_ticks, tick_cdf

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
             max_delay=3, tick_seconds=0.02)


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


def test_a_failed_synthesis_counts_its_plant_unstabilized(monkeypatch, caplog):
    # system 1 of 3 fails synthesis: one warning names it, and every fraction
    # still counts over all three plants, at most one fewer than without it
    real, calls = softrt.sweep.dlqr, []

    def dlqr(*args):
        calls.append(args)
        if len(calls) == 2:  # systems synthesize in order: this is system 1
            raise NumericalError("dlqr: no stabilizing solution")
        return real(*args)

    full = bandwidth_sweep(SweepConfig(**SMALL))
    monkeypatch.setattr(softrt.sweep, "dlqr", dlqr)
    with caplog.at_level(logging.WARNING, logger="softrt.sweep"):
        rows = bandwidth_sweep(SweepConfig(**SMALL))
    assert [r.getMessage() for r in caplog.records if r.name == "softrt.sweep"] == [
        "system 1: synthesis failed, counted unstabilized (dlqr: no stabilizing solution)"]
    assert len(calls) == 3
    for r, f in zip(rows, full):
        got, want = r["fraction_stabilized"] * 3, f["fraction_stabilized"] * 3
        assert got == round(got) and round(want) - 1 <= got <= round(want), r
    hard = {r["bandwidth"]: r["fraction_stabilized"] for r in rows if r["moc"] == "tt_hard"}
    assert hard == {0.5: 0.0, 1.0: 2 / 3}


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


def test_sweep_discretises_each_plant_a_bounded_number_of_times(monkeypatch):
    # however many budgets the grid holds, a plant is discretised once per
    # interval its synthesis and mechanisms use: T = 20 ticks (synthesis,
    # tt_maxb, cs's s = 2), R = 10 (tt_sort, cs's s = 1) and cs's other
    # s * R for s = 3..max_delay, six in all
    calls = []

    def counted(plant, T):
        calls.append((id(plant), T))
        return c2d(plant, T)

    monkeypatch.setattr(softrt.moc, "c2d", counted)
    bandwidth_sweep(SweepConfig(n_systems=2))
    assert 0 < len(calls) <= 6 * 2
    assert len(set(calls)) == len(calls)


def test_stochastic_verdicts_need_no_eigenvalues(monkeypatch):
    # one mean-square solve decides tt_maxb, cs, tt_sort and
    # second_moment_stable; eigenvalues only report rho (and check dlqr)
    cfg = SweepConfig()
    plant = random_system(cfg.state_dim, derived_seed(cfg.seed, "sys", 0))
    d = c2d(plant, cfg.T * cfg.tick_seconds)
    K, _ = dlqr(d.A, d.B, np.eye(cfg.state_dim), np.eye(1))

    def no_eigvals(*args, **kwargs):
        raise AssertionError("an eigenvalue solve decided a verdict")

    monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
    budgets = [int(round(b * cfg.R)) for b in cfg.grid]
    for moc in (MocKind("tt_maxb"), MocKind("cs", cfg.max_delay),
                MocKind("tt_sort", cfg.max_delay)):
        got = softrt.moc.verdicts(plant, K, moc, cfg.exec_model, budgets, cfg.R, cfg.T,
                                  tick_seconds=cfg.tick_seconds)
        assert len(got) == len(budgets) and got[-1]
    pair = oracle.build_modes(d, K)
    assert second_moment_stable(ClosedLoopModes(pair.labels, pair.matrices, [0.9, 0.1]))


def test_sweep_reads_each_budgets_service_odds_once(monkeypatch):
    # the odds depend on (model, Q, R) alone, so however many plants the
    # sweep holds, each default budget Q costs s_max = ceil(20 / Q) calls
    calls = []

    def counted(model, m):
        calls.append(m)
        return tick_cdf(model, m)

    monkeypatch.setattr(softrt.moc, "tick_cdf", counted)
    softrt.moc._service_distribution.cache_clear()
    bandwidth_sweep(SweepConfig(n_systems=3))
    assert 0 < len(calls) <= sum(-(-20 // Q) for Q in range(1, 11))  # 61


def test_sweep_logs_one_debug_line_per_mechanism(caplog):
    cfg = SweepConfig(**SMALL)
    quiet = sweep_to_csv(bandwidth_sweep(cfg))
    with caplog.at_level(logging.DEBUG, logger="softrt.sweep"):
        rows = bandwidth_sweep(cfg)
    assert sweep_to_csv(rows) == quiet
    lines = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    assert [line.split(":")[0] for line in lines] == list(cfg.mocs)
    unknowns = {}
    for line in lines:
        m = re.fullmatch(r"(\w+): 3 plants x 2 budgets, up to (\d+) unknowns per "
                         r"operator, \d+\.\d{3} s", line)
        assert m, line
        unknowns[m[1]] = int(m[2])
    # tt_hard, tt_maxb and cs solve for the 6 entries of one symmetric 3 x 3
    # V over (x, u_held); tt_sort stacks one V_d a backlog
    assert unknowns["tt_hard"] == unknowns["tt_maxb"] == unknowns["cs"] == 6
    assert unknowns["tt_sort"] > 6
