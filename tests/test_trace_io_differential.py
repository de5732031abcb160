"""Differential test: the single-pass trace path against the reference copy.

``Trace.to_csv`` and ``Trace.to_jsonl`` must write the reference bytes for
every trace, the CSV and JSONL readers must give the reference events and
horizon, and ``softrt analyze`` must print the reference report, for
simulated traces of every scheduler and miss policy (with and without a
collect filter), for hand-built traces whose kinds and payloads need CSV
quoting or hold nested values and floats, and for the empty trace.  Payload texts that
decode only when joined into one JSON array must still be rejected.
"""

import csv
import io
import json
import os
import pathlib
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trace_io_oracle as oracle
from softrt.analysis import MissConstraint
from softrt.cli import _dump_json, main
from softrt.errors import ConfigError
from softrt.simcore import EVENT_KINDS, Event, Trace, simulate
from test_simcore_differential import grub_systems, systems

# characters csv.writer quotes or json.dumps escapes, plus plain ones
text = st.text(alphabet=st.sampled_from('ab_,"\\{}[]:\n\r\t é€😀'), max_size=6)
scalars = st.one_of(
    st.integers(-2**40, 2**40), st.booleans(), st.none(), text,
    st.floats(allow_nan=False),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(text, inner, max_size=3)),
    max_leaves=6,
)
payloads = st.dictionaries(st.one_of(st.sampled_from(("job", "late", "deadline")), text),
                           values, max_size=4)
kinds = st.one_of(st.sampled_from(EVENT_KINDS), text)
# mostly ints; a tick or task of another type makes csv.writer write the
# row (csv.writer writes None as an empty field)
ticks = st.one_of(st.integers(-5, 10**6), st.integers(-5, 10**6),
                  st.booleans(), st.floats(-1.0, 10.0), st.none())
events = st.builds(Event, ticks, kinds, st.integers(-3, 50) | st.booleans() | st.none(),
                   payloads)
hand_built = st.builds(lambda ev, h: Trace(ev, h, sorted({e.task for e in ev}, key=repr)),
                       st.lists(events, max_size=12), st.integers(0, 10**6))

EMPTY = Trace([], 0, [])
GOLDEN = pathlib.Path(__file__).parent / "golden" / "edf_overload_trace.csv"


def _read_like_oracle(read, reference, text, horizon):
    """The package reader must give the reference reader's trace, or raise
    ConfigError where the reference reader fails."""
    try:
        want = reference(text, horizon)
    except Exception:
        with pytest.raises(ConfigError):
            read(text, horizon)
        return
    got = read(text, horizon)
    assert got.events == want.events
    assert got.horizon == want.horizon
    assert got.task_ids == want.task_ids


def _check_io(trace):
    text = trace.to_csv()
    assert text == oracle.to_csv(trace)
    assert trace.to_jsonl() == oracle.to_jsonl(trace)
    int_fields = all(type(e.tick) is int and type(e.task) is int for e in trace.events)
    for horizon in (None, trace.horizon):
        _read_like_oracle(Trace.from_csv, oracle.from_csv, text, horizon)
        if int_fields:
            _read_like_oracle(Trace.from_jsonl, oracle.from_jsonl, trace.to_jsonl(),
                              horizon)
        else:
            # the reference took any JSON value for a tick or task; the
            # package names the first line with one, or with an unknown kind
            n, e = next((n, e) for n, e in enumerate(trace.events, start=1)
                        if not (type(e.tick) is int and type(e.task) is int
                                and e.kind in EVENT_KINDS))
            why = "kind: must be one of" if type(e.tick) is int and type(e.task) is int \
                else "tick and task must be integers"
            with pytest.raises(ConfigError, match="^trace: line %d: %s" % (n, why)):
                Trace.from_jsonl(trace.to_jsonl(), horizon)


@given(hand_built)
@example(EMPTY)
@example(Trace([Event(0, "arrival", 1, {})], 3, [1]))
@example(Trace([Event(0, "a,b", 1, {"x": "},{"}), Event(1, 'q"', 2, {"y": [{}, {}]})], 1, [1, 2]))
@settings(max_examples=400, deadline=None)
def test_hand_built_traces_match_reference(trace):
    _check_io(trace)


def _reference_report(trace, constraints):
    """cli.cmd_analyze's JSON report, computed by the reference functions;
    a constraint on a task with no events in the trace is refused."""
    if set(constraints) - set(trace.task_ids):
        raise ConfigError("constraints: a task with no events in the trace")
    report = {}
    for tid in trace.task_ids:
        pattern = oracle.miss_pattern(trace, tid)
        entry = {
            "instances": len(pattern),
            "misses": int(sum(pattern)),
            "miss_events": oracle.miss_count(trace, tid),
            "tardiness": oracle.tardiness(trace, tid),
        }
        if tid in constraints:
            res = oracle.check_mn(trace, tid, constraints[tid])
            entry["constraint"] = {
                "ok": res.ok,
                "violation": res.violation,
                "indeterminate": res.indeterminate,
            }
        report[str(tid)] = entry
    return _dump_json({"tasks": report})


def _check_analyze(trace, constraints):
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = os.path.join(tmp, "trace.csv")
        config_path = os.path.join(tmp, "constraints.json")
        out_path = os.path.join(tmp, "report.json")
        with open(trace_path, "w") as fh:
            fh.write(trace.to_csv())
        with open(config_path, "w") as fh:
            json.dump({"constraints": {
                str(t): {"m": c.m, "n": c.n, "conjunction": [list(p) for p in c.conjunction]}
                for t, c in constraints.items()}}, fh)
        try:
            want = _reference_report(oracle.from_csv(trace.to_csv()), constraints)
        except ConfigError:
            # a collect filter that drops arrivals, or a constraint on a task
            # the trace has no events of: both sides reject it
            assert main(["analyze", trace_path, "--config", config_path,
                         "--out", out_path]) == 2
            return
        assert main(["analyze", trace_path, "--config", config_path,
                     "--out", out_path]) == 0
        with open(out_path) as fh:
            assert fh.read() == want


constraint = st.builds(
    lambda mn, conj: MissConstraint(min(mn), max(mn), tuple(conj)),
    st.tuples(st.integers(0, 6), st.integers(1, 6)),
    st.lists(st.tuples(st.integers(0, 2), st.integers(2, 4)), max_size=2))


@given(st.one_of(systems(), grub_systems()), st.integers(0, 2**32), st.data())
@settings(max_examples=250, deadline=None)
def test_simulated_traces_match_reference(system, seed, data):
    tasks, scheduler = system
    trace = simulate(tasks, scheduler, seed=seed)
    _check_io(trace)
    chosen = data.draw(st.lists(st.sampled_from([t.id for t in tasks]), unique=True))
    _check_analyze(trace, {t: data.draw(constraint) for t in chosen})


def test_empty_trace_report():
    _check_io(EMPTY)
    _check_analyze(EMPTY, {})


@pytest.mark.parametrize("payloads", [
    # each passes every check of the joined decode but one
    ['{"a":[{"b":1}', '{"c":2}]}', "{},{}"],  # "{" count
    ['{"a":[1', "2]}, {}"],  # every payload starts with "{"
    ['{"a":[1', "2]},\n{}"],  # newline count
    ['{"a":[1', "{}]}"],  # decoded count
    ['{"a":[1', "{}]}", "{},5"],  # decoded values are objects
])
def test_from_csv_rejects_payloads_that_only_parse_joined(payloads):
    # the first payload is not one JSON object, yet the payloads joined by
    # commas decode to a JSON array
    json.loads("[%s]" % ",".join(payloads))
    text = "tick,kind,task,payload\n" + "".join(
        '%d,arrival,1,"%s"\n' % (i, p.replace('"', '""')) for i, p in enumerate(payloads))
    with pytest.raises(ConfigError, match="line 2: payload must be one JSON object"):
        Trace.from_csv(text)


fragments = st.lists(st.sampled_from(
    ["{", "}", "[", "]", ",", ":", '"a"', '"}"', "1", " ", "\n", "{}", '"a":1']),
    max_size=8).map("".join)


@given(st.lists(fragments, min_size=1, max_size=5))
@settings(max_examples=500, deadline=None)
def test_from_csv_payload_fragments_match_reference(payloads):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["tick", "kind", "task", "payload"])
    writer.writerows([i, "arrival", 1, p] for i, p in enumerate(payloads))
    text = buf.getvalue()
    try:
        want = oracle.from_csv(text)
    except ValueError:
        want = None
    if want is None or any(type(e.payload) is not dict for e in want.events):
        with pytest.raises(ConfigError, match="payload must be one JSON object"):
            Trace.from_csv(text)
    else:
        assert Trace.from_csv(text).events == want.events


def test_analyze_builds_job_records_once(tmp_path, monkeypatch):
    built = []
    job_records = Trace.job_records
    monkeypatch.setattr(Trace, "job_records",
                        lambda self: built.append(self) or job_records(self))
    config_path = tmp_path / "constraints.json"
    config_path.write_text(json.dumps({"constraints": {
        str(t): {"m": 1, "n": 2} for t in (1, 2, 3)}}))
    assert main(["analyze", str(GOLDEN), "--config", str(config_path),
                 "--out", str(tmp_path / "report.json")]) == 0
    assert len(built) == 1
