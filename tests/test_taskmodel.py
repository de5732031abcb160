import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softrt.errors import ConfigError
from softrt.taskmodel import (
    Activation,
    Beta,
    Deterministic,
    Empirical,
    ReservationSpec,
    Scripted,
    TaskSpec,
    Uniform,
    max_ticks,
    round_half_up,
    sample_exec_time,
    sample_exec_times,
    tick_cdf,
    utilization,
)

from conftest import make_overload_tasks


def test_round_half_up():
    assert round_half_up(0.5) == 1
    assert round_half_up(1.49) == 1
    assert round_half_up(1.5) == 2
    assert round_half_up(2.5) == 3
    assert round_half_up(2.49) == 2
    assert round_half_up(-0.5) == 0


def test_model_validation():
    with pytest.raises(ConfigError):
        Deterministic(0)
    with pytest.raises(ConfigError):
        Deterministic(1.5)
    with pytest.raises(ConfigError):
        Uniform(2.0, 2.0)  # needs hi > lo
    with pytest.raises(ConfigError):
        Uniform(-1.0, 3.0)
    with pytest.raises(ConfigError):
        Beta(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ConfigError):
        Empirical(())
    with pytest.raises(ConfigError):
        Empirical((0,))
    with pytest.raises(ConfigError):
        Scripted((2, 2), fallback=None)
    with pytest.raises(ConfigError):
        Scripted((2,), fallback=Scripted((1,), fallback=Deterministic(1)))


@pytest.mark.parametrize("make, field", [
    (lambda: Beta(float("inf"), 0.5, 0.0, 10.0), "alpha"),  # betavariate never returns
    (lambda: Uniform(0.0, float("inf")), "hi"),  # the sampler and max_ticks overflow
    (lambda: Beta(0.5, 0.5, 0.0, float("nan")), "hi"),
    (lambda: Beta("2", 0.5, 0.0, 10.0), "alpha"),
    (lambda: Uniform("0", 1.0), "lo"),
    (lambda: Uniform(True, 2.0), "lo"),
], ids=["beta-inf-alpha", "uniform-inf-hi", "beta-nan-hi", "beta-str-alpha",
        "uniform-str-lo", "uniform-bool-lo"])
def test_continuous_models_need_finite_real_parameters(make, field):
    with pytest.raises(ConfigError, match=r"exec_model\.%s: must be a finite number" % field):
        make()


@pytest.mark.parametrize("make", [
    lambda hi: Uniform(0.0, hi),
    lambda hi: Beta(0.5, 0.5, 0.0, hi),
], ids=["uniform", "beta"])
@pytest.mark.parametrize("hi", [2.0 ** 53, 1e300])
def test_continuous_models_need_hi_below_2_to_53(make, hi):
    # from 2**53 on floats skip ticks, and the bulk sampler's int64 overflows
    # where the per-job one returns a 300-digit integer
    with pytest.raises(ConfigError, match=r"exec_model\.hi: must be < 2\*\*53"):
        make(hi)


def test_bulk_sampler_stays_in_range_just_below_2_to_53():
    model = Uniform(0, 2 ** 53 - 1)
    draws = sample_exec_times(model, 100, 0)  # a RuntimeWarning would be an error
    assert draws.min() >= 1 and draws.max() <= max_ticks(model)


@pytest.mark.parametrize("make, field", [
    (lambda: Deterministic(True), "exec_model.ticks"),
    (lambda: Empirical((1, True)), "exec_model.values"),
    (lambda: Scripted((True,), fallback=Deterministic(1)), "exec_model.values"),
    (lambda: TaskSpec(id=True, wcet=1, rel_deadline=4, period=4), "task.id"),
    (lambda: TaskSpec(id=1, wcet=True, rel_deadline=4, period=4), "task.wcet"),
    (lambda: ReservationSpec(budget=True, period=4), "reservation.budget"),
    (lambda: ReservationSpec(budget=1, period=True), "reservation.period"),
], ids=["ticks", "empirical", "scripted", "id", "wcet", "budget", "period"])
def test_booleans_are_not_integers(make, field):
    with pytest.raises(ConfigError, match=field.replace(".", r"\.") + ": "):
        make()


def test_enforce_wcet_must_be_a_boolean():
    with pytest.raises(ConfigError, match=r"task\.enforce_wcet: must be a boolean"):
        TaskSpec(id=1, wcet=1, rel_deadline=4, period=4, enforce_wcet="false")


@pytest.mark.parametrize("model", [3, Scripted((1,), fallback="uniform")],
                         ids=["plain", "fallback"])
def test_unknown_model_types_are_config_errors(model):
    # a value of no model class is refused where the task or its activation
    # is built; a Scripted fallback is checked where a draw reads it
    if not isinstance(model, Scripted):
        with pytest.raises(ConfigError, match=r"^task\.exec_model: unknown model type 3$"):
            TaskSpec(id=1, wcet=1, rel_deadline=4, period=4, exec_model=model)
        with pytest.raises(ConfigError,
                           match=r"^activation\.gap_model: unknown model type 3$"):
            Activation("sporadic", gap_model=model)
        return
    task = TaskSpec(id=1, wcet=1, rel_deadline=4, period=4, exec_model=model)
    with pytest.raises(ConfigError, match=r"exec_model: unknown model type"):
        task.demand(1, seed=0)
    act = Activation("sporadic", gap_model=model)
    with pytest.raises(ConfigError, match=r"exec_model: unknown model type"):
        list(TaskSpec(id=1, wcet=1, rel_deadline=4, period=4, activation=act).arrivals(9, 0))


def test_scripted_plays_values_then_fallback():
    m = Scripted((3, 1, 2), fallback=Deterministic(7))
    assert [sample_exec_time(m, j, "0/%d" % j) for j in range(5)] == [3, 1, 2, 7, 7]


def test_sample_determinism():
    m = Uniform(1.0, 9.0)
    a = sample_exec_time(m, 0, "42/exec/1/0")
    b = sample_exec_time(m, 0, "42/exec/1/0")
    assert a == b
    xs = sample_exec_times(m, 50, 42)
    ys = sample_exec_times(m, 50, 42)
    assert np.array_equal(xs, ys)


def test_sample_exec_times_scripted_head():
    m = Scripted((4, 5), fallback=Deterministic(2))
    xs = sample_exec_times(m, 6, 0)
    assert list(xs) == [4, 5, 2, 2, 2, 2]
    assert list(sample_exec_times(m, 1, 0)) == [4]


def test_tick_cdf_deterministic_and_empirical():
    assert tick_cdf(Deterministic(3), 2) == Fraction(0)
    assert tick_cdf(Deterministic(3), 3) == Fraction(1)
    assert tick_cdf(Deterministic(3), 10) == Fraction(1)
    assert tick_cdf(Deterministic(3), 0) == Fraction(0)
    m = Empirical((1, 2, 3))
    assert tick_cdf(m, 1) == Fraction(1, 3)
    assert tick_cdf(m, 2) == Fraction(2, 3)
    assert tick_cdf(m, 3) == Fraction(1)


def test_tick_cdf_uniform_hand_values():
    # raw value in [k-0.5, k+0.5) lands on tick k, sub-1 draws clip to 1
    m = Uniform(0.0, 4.0)
    assert tick_cdf(m, 1) == pytest.approx(1.5 / 4.0)
    assert tick_cdf(m, 2) == pytest.approx(2.5 / 4.0)
    assert tick_cdf(m, 3) == pytest.approx(3.5 / 4.0)
    assert tick_cdf(m, 4) == pytest.approx(1.0)


def test_tick_cdf_beta_hand_value():
    # Beta(2,2) cdf is z^2 (3 - 2z); at z = (1 + 0.5) / 2 = 0.75 that is 0.84375
    m = Beta(2.0, 2.0, 0.0, 2.0)
    assert tick_cdf(m, 1) == pytest.approx(0.84375, abs=1e-12)


def test_tick_cdf_beta_equals_scipy_stats():
    from scipy.stats import beta as beta_dist

    # lo = 2.25 puts tick 1 below the support (z clipped to 0), ticks past
    # hi = 11.5 lie above it (z clipped to 1)
    lo, hi = 2.25, 11.5
    for a in (0.3, 0.5, 1.0, 2.0, 5.5):
        for b in (0.5, 1.0, 3.0, 7.25):
            m = Beta(a, b, lo, hi)
            for k in range(1, 15):
                z = min(1.0, max(0.0, (k + 0.5 - lo) / (hi - lo)))
                assert tick_cdf(m, k) == float(beta_dist.cdf(z, a, b)), (a, b, k)
            assert tick_cdf(m, 1) == 0.0 and tick_cdf(m, 14) == 1.0


def test_tick_cdf_arcsine_closed_form_equals_betainc():
    # Beta(0.5, 0.5) is evaluated in closed form; betainc is its oracle, to the bit
    from scipy.special import betainc

    def z_of(model, k):
        return min(1.0, max(0.0, (k + 0.5 - model.lo) / (model.hi - model.lo)))

    # the default sweep's demand over the ticks it reads (1..21, 24, 27), z
    # clipped to 1 from tick 20 on; and a support that clips tick 1 to 0
    for model, ticks in ((Beta(0.5, 0.5, 0.0, 20.0), range(1, 28)),
                         (Beta(0.5, 0.5, 2.25, 11.5), range(1, 15))):
        for k in ticks:
            assert tick_cdf(model, k) == float(betainc(0.5, 0.5, z_of(model, k))), (model, k)
    assert tick_cdf(Beta(0.5, 0.5, 0.0, 20.0), 0) == 0
    assert tick_cdf(Beta(0.5, 0.5, 0.0, 20.0), 20) == 1.0
    assert tick_cdf(Beta(0.5, 0.5, 2.25, 11.5), 1) == 0.0
    # a dense grid over a unit-wide support (tick 1 at z = 1.5 - lo), with
    # points within 1e-12 of either end
    near = [10.0 ** -e for e in range(1, 16)]
    for z in np.concatenate([np.linspace(0.0, 1.0, 20_001), near, [1 - d for d in near]]):
        lo = 1.5 - float(z)
        model = Beta(0.5, 0.5, lo, lo + 1.0)
        assert tick_cdf(model, 1) == float(betainc(0.5, 0.5, z_of(model, 1))), z
    # and a wide one, whose tick 1 lies within 1e-12 of 0
    for hi in (2e12, 1e13, 1e15):
        model = Beta(0.5, 0.5, 0.0, hi)
        assert 0 < z_of(model, 1) < 1e-12
        assert tick_cdf(model, 1) == float(betainc(0.5, 0.5, z_of(model, 1))), hi


def test_tick_cdf_matches_sampled_frequencies():
    for m in (Uniform(0.5, 6.5), Beta(2.0, 5.0, 0.0, 10.0), Empirical((1, 1, 4))):
        xs = sample_exec_times(m, 20_000, 7)
        for k in range(1, max_ticks(m) + 1):
            freq = float(np.mean(xs <= k))
            assert freq == pytest.approx(float(tick_cdf(m, k)), abs=0.02)


def test_max_ticks():
    assert max_ticks(Deterministic(4)) == 4
    assert max_ticks(Empirical((2, 9, 1))) == 9
    assert max_ticks(Uniform(0.0, 3.2)) == 3
    assert max_ticks(Scripted((8,), fallback=Deterministic(2))) == 8


def test_utilization_exact_fraction():
    assert utilization(make_overload_tasks()) == Fraction(59, 60)
    with pytest.raises(ConfigError):
        utilization([])


def test_task_defaults_and_validation():
    t = TaskSpec(id=1, wcet=2, rel_deadline=5, period=5)
    assert t.exec_model == Deterministic(2)
    assert t.demand(0, seed=0) == 2
    with pytest.raises(ConfigError):
        TaskSpec(id=-1, wcet=1, rel_deadline=4, period=4)
    with pytest.raises(ConfigError):
        TaskSpec(id=1, wcet=0, rel_deadline=4, period=4)
    with pytest.raises(ConfigError):
        TaskSpec(id=1, wcet=1, rel_deadline=4, period=4, miss_policy="retry")
    with pytest.raises(ConfigError):
        Activation("periodic", gap_model=Deterministic(3))
    with pytest.raises(ConfigError):
        Activation("bursty")


def test_enforce_wcet_clips_overruns():
    t = TaskSpec(id=1, wcet=2, rel_deadline=8, period=8,
                 exec_model=Scripted((5,), fallback=Deterministic(5)),
                 enforce_wcet=True)
    assert t.demand(0, seed=0) == 2
    assert t.demand(3, seed=0) == 2


def test_periodic_arrivals():
    t = TaskSpec(id=1, wcet=1, rel_deadline=4, period=4)
    assert list(t.arrivals(20, seed=0)) == [0, 4, 8, 12, 16]


def test_sporadic_min_gap():
    short = Activation("sporadic", gap_model=Deterministic(1))
    t = TaskSpec(id=1, wcet=1, rel_deadline=3, period=3, activation=short)
    assert list(t.arrivals(12, seed=0)) == [0, 3, 6, 9]  # gap clips up to the period
    wide = Activation("sporadic", gap_model=Deterministic(7))
    t2 = TaskSpec(id=1, wcet=1, rel_deadline=3, period=3, activation=wide)
    assert list(t2.arrivals(20, seed=0)) == [0, 7, 14]


def test_reservation_validation_and_bandwidth():
    r = ReservationSpec(budget=1, period=4)
    assert r.bandwidth == Fraction(1, 4)
    assert r.variant == "soft_postpone"
    with pytest.raises(ConfigError):
        ReservationSpec(budget=0, period=4)
    with pytest.raises(ConfigError):
        ReservationSpec(budget=5, period=4)
    with pytest.raises(ConfigError):
        ReservationSpec(budget=1, period=4, variant="firm")
    with pytest.raises(ConfigError):
        ReservationSpec(budget=1, period=4, reclaiming="cash")


exec_models = st.one_of(
    st.integers(1, 12).map(Deterministic),
    st.lists(st.integers(1, 12), min_size=1, max_size=6).map(
        lambda v: Empirical(tuple(v))),
    st.tuples(st.floats(0.0, 8.0), st.floats(0.5, 8.0)).map(
        lambda p: Uniform(p[0], p[0] + p[1])),
)


@given(exec_models, st.integers(0, 20), st.integers(0, 2**32))
def test_samples_within_bounds(model, job, seed):
    c = sample_exec_time(model, job, "%d/exec/0/%d" % (seed, job))
    assert 1 <= c <= max_ticks(model)


@given(exec_models)
@settings(max_examples=50)
def test_tick_cdf_monotone_and_saturates(model):
    top = max_ticks(model)
    prev = 0.0
    for m in range(0, top + 2):
        cur = float(tick_cdf(model, m))
        assert 0.0 <= cur <= 1.0 + 1e-12
        assert cur >= prev - 1e-12
        prev = cur
    assert float(tick_cdf(model, top)) == pytest.approx(1.0, abs=1e-9)


@given(st.integers(1, 6), st.integers(0, 2**32), st.integers(1, 40))
@settings(max_examples=50)
def test_sporadic_gaps_respect_period(period, seed, horizon):
    act = Activation("sporadic", gap_model=Uniform(0.5, 3.0 * period))
    t = TaskSpec(id=1, wcet=1, rel_deadline=period, period=period, activation=act)
    arr = list(t.arrivals(horizon, seed))
    assert arr == list(t.arrivals(horizon, seed))
    assert arr[0] == 0
    assert all(b - a >= period for a, b in zip(arr, arr[1:]))
    assert all(0 <= a < horizon for a in arr)


# ---------------------------------------------------------------------------
# keyed draws against the plain seed-string streams


def _reference_sample(model, job_index, rng):
    """The per-job draw as a plain type dispatch over one random.Random."""
    if isinstance(model, Scripted):
        if job_index < len(model.values):
            return model.values[job_index]
        model = model.fallback
    if isinstance(model, Deterministic):
        return model.ticks
    if isinstance(model, Empirical):
        return model.values[rng.randrange(len(model.values))]
    if isinstance(model, Uniform):
        x = rng.uniform(model.lo, model.hi)
    else:
        x = model.lo + (model.hi - model.lo) * rng.betavariate(model.alpha, model.beta)
    return max(1, round_half_up(x))


def _reference_rng(*parts):
    return random.Random("/".join(str(p) for p in parts))


def _reference_demand(task, j, seed):
    c = _reference_sample(task.exec_model, j, _reference_rng(seed, "exec", task.id, j))
    if task.enforce_wcet:
        c = min(c, task.wcet)
    return max(1, c)


def _reference_arrivals(task, horizon, seed):
    if task.activation.kind == "periodic":
        return list(range(0, horizon, task.period))
    gap_model = task.activation.gap_model or Uniform(task.period, 2 * task.period)
    out, t, j = [], 0, 0
    while t < horizon:
        out.append(t)
        gap = _reference_sample(gap_model, j, _reference_rng(seed, "gap", task.id, j))
        t += max(task.period, gap)
        j += 1
    return out


plain_models = st.one_of(
    st.integers(1, 9).map(Deterministic),
    st.lists(st.integers(1, 9), min_size=1, max_size=5).map(
        lambda v: Empirical(tuple(v))),
    st.tuples(st.floats(0.0, 6.0), st.floats(0.25, 6.0)).map(
        lambda p: Uniform(p[0], p[0] + p[1])),
    st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0), st.floats(0.0, 6.0),
              st.floats(0.25, 6.0)).map(
        lambda p: Beta(p[0], p[1], p[2], p[2] + p[3])),
)
keyed_models = st.one_of(
    plain_models,
    st.builds(lambda v, fb: Scripted(tuple(v), fb),
              st.lists(st.integers(1, 9), max_size=4), plain_models),
)
seeds = st.one_of(
    st.integers(-2**70, 2**70),
    st.text(max_size=6),
    st.tuples(st.integers(0, 99), st.text(max_size=3)),
)


@given(keyed_models, st.one_of(st.none(), keyed_models), st.booleans(),
       st.integers(1, 6), st.integers(0, 9), seeds)
@settings(max_examples=150)
def test_keyed_draws_match_seed_string_streams(model, gap_model, enforce, wcet,
                                               task_id, seed):
    task = TaskSpec(id=task_id, wcet=wcet, rel_deadline=4, period=2,
                    activation=Activation("sporadic", gap_model),
                    exec_model=model, enforce_wcet=enforce)
    assert [task.demand(j, seed) for j in range(8)] == \
        [_reference_demand(task, j, seed) for j in range(8)]
    assert list(task.arrivals(40, seed)) == _reference_arrivals(task, 40, seed)
