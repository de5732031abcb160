"""Batched verdicts: moc._operator builds the second-moment operators of a
chunk of plants at once, and moc._verdict_table decides a list of plants
VERDICT_CHUNK at a time.

Every plant's slice of a batch must equal, bit for bit, the operator that
the per-plant build in verdict_oracle.py gives it, and be Fortran-ordered
for LAPACK; every plant's verdicts must equal those of a batch of one, so
they cannot depend on its batch-mates; and the memory of a verdict pass
must not grow with the number of plants.
"""

import tracemalloc
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import softrt.moc
import verdict_oracle as oracle
from softrt.controlcore import ContinuousLti, c2d, dlqr, kalman_gain, lqg_assemble
from softrt.errors import NumericalError
from softrt.moc import (VERDICT_CHUNK, MocKind, _discretiser, _operator, _verdict_table,
                        service_distribution, verdicts)
from softrt.sweep import SweepConfig, _synthesized
from softrt.taskmodel import Empirical


def _stochastic(max_delay):
    return MocKind("tt_maxb"), MocKind("cs", max_delay), MocKind("tt_sort", max_delay)


def _assert_slices_match(plants, gains, moc, model, budgets, R, T, tick):
    """Each plant's slice of the batched operator is the oracle's operator."""
    batch = _operator(plants, gains, [_discretiser(p, tick) for p in plants], moc, R, T)
    singles = [oracle._operator(p, K, moc, R, T, tick) for p, K in zip(plants, gains)]
    for Q in budgets:
        dist = service_distribution(model, Q, R)
        opT, sides = batch(dist)
        assert len(opT) == len(plants)
        for single, op in zip(singles, opT):
            want, want_sides = single(dist)
            assert list(sides) == list(want_sides)
            assert op.T.flags.f_contiguous
            assert np.array_equal(op.T, want, equal_nan=True), (moc.kind, Q)


def _assert_rows_are_single_verdicts(plants, gains, moc, model, budgets, R, T, tick):
    table, _ = _verdict_table(plants, gains, [_discretiser(p, tick) for p in plants], moc,
                              model, budgets, R, T)
    for plant, K, row in zip(plants, gains, table):
        assert row.tolist() == verdicts(plant, K, moc, model, budgets, R, T,
                                        tick_seconds=tick), moc.kind
    return table


@st.composite
def batches(draw):
    """A few plants of one shape, each under a random gain or its LQR gain."""
    R, F = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    n, p = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    tick = draw(st.sampled_from((0.05, 0.2, 0.5)))
    plants, gains = [], []
    for _ in range(draw(st.integers(1, 4))):
        g = np.random.default_rng(draw(st.integers(0, 2**32)))
        scale = draw(st.sampled_from((0.5, 1.0, 2.0)))
        plant = ContinuousLti.from_ab(scale * g.uniform(-1.0, 1.0, (n, n)),
                                      g.uniform(-1.0, 1.0, (n, p)))
        K = g.uniform(-2.0, 2.0, (p, n))
        if draw(st.booleans()):  # a stable nominal loop where one exists
            d = c2d(plant, F * R * tick)
            try:
                K, _ = dlqr(d.A, d.B, np.eye(n), np.eye(p))
            except NumericalError:
                pass
        plants.append(plant)
        gains.append(K)
    values = draw(st.lists(st.integers(1, 4 * R * F), min_size=1, max_size=4))
    budgets = draw(st.lists(st.integers(1, R), min_size=1, max_size=3))
    return dict(plants=plants, gains=gains, model=Empirical(tuple(values)),
                budgets=budgets, R=R, T=F * R, tick=tick,
                max_delay=draw(st.integers(1, 4)))


@settings(max_examples=40, deadline=None)
@given(batches())
def test_batched_operators_match_the_per_plant_build(c):
    for moc in _stochastic(c["max_delay"]):
        args = (c["plants"], c["gains"], moc, c["model"], c["budgets"], c["R"], c["T"],
                c["tick"])
        _assert_slices_match(*args)
        _assert_rows_are_single_verdicts(*args)


def test_dynamic_controller_batch_of_one_matches_the_per_plant_build():
    plant = ContinuousLti.from_ab([[0.0, 1.0], [0.3, -0.2]], [[0.0], [1.0]])
    d = c2d(plant, 0.2)
    K, _ = dlqr(d.A, d.B, np.eye(2), np.eye(1))
    ctrl = lqg_assemble(d, K, kalman_gain(d.A, d.C))
    for moc in (MocKind("tt_maxb"), MocKind("cs", 3)):
        _assert_slices_match([plant], [ctrl], moc, Empirical((3, 8, 15)), [2, 5], 5, 10,
                             0.02)


def test_non_monotone_tt_sort_plants_batch_bit_for_bit():
    # seed-0 sweep plants 5, 25 and 49 at R = T = 20: tt_sort is stable for
    # Q = 7..18 and 20 but not 19, a pattern a batch must keep for each
    cfg = SweepConfig(n_systems=50, R=20, T=20)
    plants, gains, _ = _synthesized(cfg)
    picked = [plants[i] for i in (5, 25, 49)], [gains[i] for i in (5, 25, 49)]
    args = (*picked, MocKind("tt_sort", cfg.max_delay), cfg.exec_model, list(range(1, 21)),
            cfg.R, cfg.T, cfg.tick_seconds)
    _assert_slices_match(*args)
    table = _assert_rows_are_single_verdicts(*args)
    for row in table:
        assert [Q for Q, v in zip(range(1, 21), row) if v] == list(range(7, 19)) + [20]


def test_a_plant_count_off_the_chunk_runs_in_chunks(monkeypatch):
    cfg = SweepConfig(n_systems=VERDICT_CHUNK + 3)
    plants, gains, discs = _synthesized(cfg)
    assert len(plants) == VERDICT_CHUNK + 3
    sizes = []

    def counted(chunk, *args):
        sizes.append(len(chunk))
        return _operator(chunk, *args)

    monkeypatch.setattr(softrt.moc, "_operator", counted)
    budgets = [int(round(b * cfg.R)) for b in cfg.grid]
    for moc in _stochastic(cfg.max_delay):
        _assert_rows_are_single_verdicts(plants, gains, moc, cfg.exec_model, budgets, cfg.R,
                                         cfg.T, cfg.tick_seconds)
    # each mechanism's table, then one batch of one per plant for verdicts
    assert sizes == 3 * ([VERDICT_CHUNK, 3] + [1] * len(plants))


def test_an_overflowing_operator_leaves_its_batch_mates_alone():
    # e^400 per period: the middle plant's blocks overflow to inf and its
    # solve to nan; its stable neighbours' verdicts are those they have alone
    plants = [ContinuousLti.from_ab([[a]], [[1.0]]) for a in (-1.0, 400.0, -2.0)]
    gains = [np.array([[1.0]])] * 3
    model = Empirical((1, 2))
    for moc in _stochastic(1):
        with np.errstate(over="ignore", invalid="ignore"):
            _assert_slices_match(plants, gains, moc, model, [1], 1, 1, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = _assert_rows_are_single_verdicts(plants, gains, moc, model, [1], 1, 1,
                                                     1.0)
        assert table[:, 0].tolist() == [True, False, True], moc.kind


def _verdict_peak(count):
    """tracemalloc's peak over the verdict pass of a default sweep of count
    plants, synthesis left out."""
    cfg = SweepConfig(n_systems=count)
    loops = _synthesized(cfg)
    budgets = [int(round(b * cfg.R)) for b in cfg.grid]
    tracemalloc.start()
    try:
        for moc in _stochastic(cfg.max_delay):
            _verdict_table(*loops, moc, cfg.exec_model, budgets, cfg.R, cfg.T)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verdict_memory_does_not_grow_with_the_plant_count():
    # a chunk of VERDICT_CHUNK plants bounds what one pass holds, about 0.4
    # MB a plant; beyond it only each plant's few kept discretisations
    # grow, some 3 kB a plant, where one batch of 40 would add over 10 MB
    _verdict_peak(VERDICT_CHUNK)  # fill the caches of odds and solve shapes
    small, large = _verdict_peak(VERDICT_CHUNK), _verdict_peak(8 * VERDICT_CHUNK)
    assert large <= small + 250_000, (small, large)
