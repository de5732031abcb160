"""Differential test: the event-driven engine against the reference tick loop.

Both engines must emit byte-identical CSV traces for every task set,
scheduler, miss policy, reservation variant, reclaiming setting and collect
filter.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from softrt.simcore import EVENT_KINDS, SchedulerConfig, simulate
from softrt.taskmodel import (
    MISS_POLICIES,
    PERIODIC,
    RECLAIMING,
    VARIANTS,
    Activation,
    Deterministic,
    Empirical,
    ReservationSpec,
    Scripted,
    TaskSpec,
    Uniform,
)
from tick_oracle import simulate as reference_simulate

ticks = st.integers(1, 8)

plain_models = st.one_of(
    st.builds(Deterministic, st.integers(1, 6)),
    st.lists(ticks, min_size=1, max_size=4).map(lambda v: Empirical(tuple(v))),
    # quarter-tick bounds put samples on both sides of the rounding points
    st.tuples(st.integers(0, 12), st.integers(1, 20)).map(
        lambda lw: Uniform(lw[0] / 4, (lw[0] + lw[1]) / 4)),
)
exec_models = st.one_of(
    st.none(),  # deterministic wcet
    plain_models,
    st.builds(lambda v, f: Scripted(tuple(v), f),
              st.lists(st.integers(1, 12), max_size=3), plain_models),
)
activations = st.one_of(
    st.just(PERIODIC),
    st.builds(lambda gap: Activation("sporadic", gap),
              st.one_of(st.none(), plain_models)),
)
task_rows = st.tuples(
    st.integers(1, 4),   # wcet
    st.integers(1, 12),  # relative deadline
    st.integers(1, 9),   # period
    activations,
    exec_models,
    st.sampled_from(MISS_POLICIES),
    st.booleans(),       # enforce_wcet
)
# server periods are kept short against the demands so that budgets run out,
# GRUB-stretched ones included (a lone GRUB server's full budget lasts P ticks)
reservations_rows = st.tuples(
    st.integers(1, 4), st.integers(0, 4), st.sampled_from(VARIANTS),
    st.sampled_from(RECLAIMING),
).map(lambda r: ReservationSpec(budget=r[0], period=r[0] + r[1], variant=r[2],
                                reclaiming=r[3]))
collects = st.one_of(st.none(), st.frozensets(st.sampled_from(EVENT_KINDS)))


@st.composite
def systems(draw):
    rows = draw(st.lists(task_rows, min_size=1, max_size=4))
    tasks = [TaskSpec(id=3 * i + 1, wcet=w, rel_deadline=d, period=p,
                      activation=act, exec_model=model, miss_policy=policy,
                      enforce_wcet=enforce)
             for i, (w, d, p, act, model, policy, enforce) in enumerate(rows)]
    ids = [t.id for t in tasks]
    kind = draw(st.sampled_from(("edf", "fixed_priority", "cbs_edf")))
    extra = {}
    if kind == "fixed_priority":
        extra["priorities"] = {i: draw(st.integers(0, 3)) for i in ids}
    if kind == "cbs_edf":
        extra["reservations"] = {i: draw(reservations_rows) for i in ids}
    scheduler = SchedulerConfig(kind=kind, horizon=draw(st.integers(1, 60)),
                                collect=draw(collects), **extra)
    return draw(st.permutations(tasks)), scheduler


@st.composite
def grub_systems(draw):
    """Reclaiming servers, the first always, beside plain ones, with demands
    that outlast stretched budgets, so exhaustion ticks ceil(q / drain) land
    both on and off exact integers.  Server periods up to 13 make the budget
    unit 1/L tick fine (L, the lcm of the periods, reaches the hundreds), and
    short ones push the active bandwidth past its cap of 1."""
    rows = draw(st.lists(st.tuples(
        st.integers(3, 10), st.integers(4, 12), st.sampled_from(MISS_POLICIES),
        st.integers(1, 3), st.one_of(st.integers(0, 3), st.integers(0, 12)),
        st.sampled_from(VARIANTS), st.sampled_from(RECLAIMING),
    ), min_size=1, max_size=4))
    tasks, res = [], {}
    for i, (c, p, policy, q, slack, variant, reclaiming) in enumerate(rows):
        tasks.append(TaskSpec(id=i + 1, wcet=c, rel_deadline=p, period=p,
                              exec_model=Empirical((c - 1, c, c + 1)),
                              miss_policy=policy))
        res[i + 1] = ReservationSpec(budget=q, period=min(q + slack, 13),
                                     variant=variant,
                                     reclaiming="grub" if i == 0 else reclaiming)
    return tasks, SchedulerConfig(kind="cbs_edf", horizon=draw(st.integers(10, 60)),
                                  reservations=res)


def _grub_exact_exhaustion():
    # one GRUB server alone drains 1/4 per tick: its budget of 1 runs out
    # after exactly 4 ticks, q / drain being an integer
    task = TaskSpec(id=1, wcet=6, rel_deadline=10, period=10)
    res = {1: ReservationSpec(budget=1, period=4, reclaiming="grub")}
    return [task], SchedulerConfig(kind="cbs_edf", horizon=30, reservations=res)


def _grub_pair_exact_exhaustion():
    # two active GRUB servers of bandwidth 1/4 each drain 1/2 per tick
    tasks = [TaskSpec(id=1, wcet=5, rel_deadline=8, period=8),
             TaskSpec(id=2, wcet=5, rel_deadline=8, period=8, miss_policy="abort")]
    res = {i: ReservationSpec(budget=2, period=8, variant=v, reclaiming="grub")
           for i, v in ((1, "soft_postpone"), (2, "hard_suspend"))}
    return tasks, SchedulerConfig(kind="cbs_edf", horizon=40, reservations=res)


def _grub_beside_plain_coprime():
    # a plain server's bandwidth counts in the GRUB servers' drain while it
    # has work, and the plain server itself drains a whole tick per tick;
    # the budget unit is 1/L tick with L = lcm(7, 11, 13) = 1001
    tasks = [TaskSpec(id=i, wcet=6, rel_deadline=12, period=12) for i in (1, 2, 3)]
    res = {1: ReservationSpec(budget=2, period=7, reclaiming="grub"),
           2: ReservationSpec(budget=3, period=11),
           3: ReservationSpec(budget=1, period=13, reclaiming="grub")}
    return tasks, SchedulerConfig(kind="cbs_edf", horizon=60, reservations=res)


def _grub_capped_drain():
    # active bandwidth 9/10 + 2/5 > 1: the GRUB server drains one full tick
    # per tick while the plain server has work, and 9/10 of one after
    tasks = [TaskSpec(id=1, wcet=12, rel_deadline=20, period=20),
             TaskSpec(id=2, wcet=4, rel_deadline=10, period=10)]
    res = {1: ReservationSpec(budget=9, period=10, reclaiming="grub"),
           2: ReservationSpec(budget=2, period=5)}
    return tasks, SchedulerConfig(kind="cbs_edf", horizon=40, reservations=res)


def _hard_wake_with_empty_queue():
    # the job is aborted at tick 2 while its hard server is suspended; the
    # server wakes at 4 with nothing queued and must go idle, so the arrival
    # at 6 runs the admission test and resets the server
    task = TaskSpec(id=1, wcet=3, rel_deadline=2, period=6, miss_policy="abort")
    res = {1: ReservationSpec(budget=1, period=4, variant="hard_suspend")}
    return [task], SchedulerConfig(kind="cbs_edf", horizon=12, reservations=res)


# the kinds that show when a job is open at its deadline and what it does then
ABORT_KINDS = frozenset({"arrival", "completion", "deadline_miss", "job_aborted",
                         "job_start"})


def _check_abort_acts(tasks, trace):
    """Without the oracle: a job of an abort task still open at a deadline
    <= the horizon (not completed by then) gets deadline_miss and
    job_aborted at that tick and no job_start from it on, and no other job
    of an abort task gets either event."""
    abort = {t.id for t in tasks if t.miss_policy == "abort"}

    def ticks(kind):  # (task, job) -> tick of each event of kind of an abort task
        return [((e.task, e.payload["job"]), e.tick) for e in trace.of_kind(kind)
                if e.task in abort]

    deadline = {(e.task, e.payload["job"]): e.payload["deadline"]
                for e in trace.of_kind("arrival") if e.task in abort}
    done = dict(ticks("completion"))
    open_at = {job: d for job, d in deadline.items()
               if d <= trace.horizon and done.get(job, d + 1) > d}
    for kind in ("deadline_miss", "job_aborted"):
        assert sorted(ticks(kind)) == sorted(open_at.items()), kind
    for job, tick in ticks("job_start"):
        assert tick < open_at.get(job, tick + 1), (job, tick)


@given(st.one_of(systems(), grub_systems()), st.integers(0, 2**32))
@example(_grub_exact_exhaustion(), 0)
@example(_grub_pair_exact_exhaustion(), 0)
@example(_grub_beside_plain_coprime(), 0)
@example(_grub_capped_drain(), 0)
@example(_hard_wake_with_empty_queue(), 0)
@settings(max_examples=900, deadline=None)
def test_event_engine_matches_tick_reference(system, seed):
    tasks, scheduler = system
    trace = simulate(tasks, scheduler, seed=seed)
    assert trace.to_csv() == reference_simulate(tasks, scheduler, seed=seed).to_csv()
    if scheduler.collect is None or scheduler.collect >= ABORT_KINDS:
        _check_abort_acts(tasks, trace)
