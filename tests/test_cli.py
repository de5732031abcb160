"""Command-line surface, driven in-process through main(argv)."""

import hashlib
import json
import logging
import pathlib
import subprocess
import sys

import pytest

from softrt import cli
from softrt.cli import main
from softrt.errors import ConfigError
from softrt.render import render_trace
from softrt.simcore import EVENT_KINDS, Event, SchedulerConfig, Trace, simulate
from softrt.taskmodel import ReservationSpec, TaskSpec

GOLDEN = pathlib.Path(__file__).parent / "golden" / "edf_overload_trace.csv"
GOLDEN_COSIM_SORT = GOLDEN.with_name("cosim_tt_sort.csv")
# sha256 of `softrt sweep` with no config; a documented correctness fix that
# changes the table updates it
DEFAULT_SWEEP_SHA256 = "39da3e2e77e23fccfeec16b6cf10145266321b4bf8b4cff496b58a2dd015b088"

OVERLOAD_CONFIG = {
    "tasks": [
        {"id": 1, "wcet": 1, "rel_deadline": 4, "period": 4,
         "exec_model": {"kind": "scripted", "values": [2, 2, 2],
                        "fallback": {"kind": "deterministic", "ticks": 1}}},
        {"id": 2, "wcet": 2, "rel_deadline": 5, "period": 5},
        {"id": 3, "wcet": 2, "rel_deadline": 6, "period": 6},
    ],
    "scheduler": {"kind": "edf", "horizon": 20},
}


def write_config(tmp_path, doc, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_simulate_matches_golden_trace(tmp_path):
    cfg = write_config(tmp_path, OVERLOAD_CONFIG)
    out = tmp_path / "trace.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text() == GOLDEN.read_text()


def test_simulate_jsonl_stdout(tmp_path, capsys):
    cfg = write_config(tmp_path, OVERLOAD_CONFIG)
    assert main(["simulate", "--config", cfg, "--format", "json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    recs = [json.loads(ln) for ln in lines]
    assert recs[0]["kind"] == "arrival"
    assert {r["kind"] for r in recs} >= {"arrival", "job_start", "completion",
                                         "deadline_miss"}


def test_analyze_json_report(tmp_path, capsys):
    cfg = write_config(tmp_path, {"constraints": {"1": {"m": 2, "n": 5}}})
    assert main(["analyze", str(GOLDEN), "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)["tasks"]
    assert report["1"] == {
        "instances": 5, "misses": 3, "miss_events": 3, "tardiness": 2,
        "constraint": {"ok": False, "violation": [0, 4, 2, 5],
                       "indeterminate": False},
    }
    assert report["2"] == {"instances": 4, "misses": 2, "miss_events": 2,
                           "tardiness": 1}
    assert report["3"] == {"instances": 3, "misses": 1, "miss_events": 1,
                           "tardiness": 1}


def test_analyze_csv(capsys):
    assert main(["analyze", str(GOLDEN), "--format", "csv"]) == 0
    assert capsys.readouterr().out == (
        "task,instances,misses,tardiness\n"
        "1,5,3,2\n"
        "2,4,2,1\n"
        "3,3,1,1\n")


def test_analyze_horizon_counts_met_jobs_after_the_last_event(tmp_path, capsys):
    # the trace of one EDF task (C = 2, T = D = 10) to horizon 100 ends at
    # tick 92, where a reader infers the horizon: the job due at 100 counts
    # only when the horizon is given
    doc = {"tasks": [{"id": 1, "wcet": 2, "rel_deadline": 10, "period": 10}],
           "scheduler": {"kind": "edf", "horizon": 100}}
    for fmt, suffix in (("csv", ".csv"), ("json", ".jsonl")):
        out = str(tmp_path / ("trace" + suffix))
        assert main(["simulate", "--config", write_config(tmp_path, doc), "--format", fmt,
                     "--out", out]) == 0
        for argv, instances in (([], 9), (["--horizon", "100"], 10)):
            assert main(["analyze", out] + argv) == 0
            report = json.loads(capsys.readouterr().out)["tasks"]["1"]
            assert (report["instances"], report["misses"]) == (instances, 0), argv


def test_analyze_rejects_trace_without_arrivals(tmp_path, capsys):
    doc = json.loads(json.dumps(OVERLOAD_CONFIG))
    doc["scheduler"]["collect"] = ["completion"]
    out = tmp_path / "trace.csv"
    assert main(["simulate", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["analyze", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: trace:") and "no arrival event" in err


def test_malformed_trace_is_config_error(tmp_path, capsys):
    good = GOLDEN.read_text().splitlines(keepends=True)
    row = good[1]  # 0,arrival,1,"{""deadline"":4,""demand"":2,""job"":0}"
    csv_cases = {
        "short row": "0,arrival,1\n",
        "non-integer tick": "x" + row[1:],
        "non-integer task": row.replace(",1,", ",one,", 1),
        "bad JSON payload": '0,arrival,1,"{""job"":"\n',
        "payload is a list": '0,arrival,1,"[1,2]"\n',
        "two payload objects": '0,arrival,1,"{}{}"\n',
    }
    for what, bad in csv_cases.items():
        path = tmp_path / "bad.csv"
        path.write_text("".join(good[:3]) + bad + "".join(good[3:]))
        for command in (["analyze", str(path)], ["render", str(path)]):
            assert main(command) == 2, (what, command)
            assert "trace: line 4:" in capsys.readouterr().err, (what, command)
    assert main(["simulate", "--config", write_config(tmp_path, OVERLOAD_CONFIG),
                 "--format", "json"]) == 0
    events = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    jsonl_cases = {
        "missing kind": dict(events[0], kind=None),
        "non-integer tick": dict(events[0], tick=1.5),
        "payload is a list": dict(events[0], payload=[1]),
    }
    for what, bad in jsonl_cases.items():
        bad = {k: v for k, v in bad.items() if v is not None}
        lines = [json.dumps(e) for e in events[:2]] + [json.dumps(bad)]
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        for command in (["analyze", str(path)], ["render", str(path)]):
            assert main(command) == 2, (what, command)
            assert "trace: line 3:" in capsys.readouterr().err, (what, command)
    (tmp_path / "bad.jsonl").write_text("{\"tick\": 0,\n")
    assert main(["analyze", str(tmp_path / "bad.jsonl")]) == 2
    assert "trace: line 1: not JSON" in capsys.readouterr().err


def test_trace_payload_fields_are_checked(tmp_path, capsys):
    # events that are valid JSON but lack a payload field analyze or render
    # reads, or hold it with the wrong type: exit 2 naming event and field
    arrival = (0, "arrival", 1, {"deadline": 4, "demand": 2, "job": 0})
    start = (0, "job_start", 1, {"job": 0, "resumed": False})
    both, analyze, render = ("analyze", "render"), ("analyze",), ("render",)
    cases = [
        ([(0, "arrival", 1, {"job": 0})], both,
         "arrival of task 1 at tick 0 has no payload field 'deadline'"),
        ([(0, "arrival", 1, {"deadline": 4, "demand": 2, "job": [1]})], both,
         "arrival of task 1 at tick 0: payload field 'job' must be an integer, got [1]"),
        ([(0, "arrival", 1, {"deadline": "4", "demand": 2, "job": 0})], both,
         "arrival of task 1 at tick 0: payload field 'deadline' must be an integer, "
         "got '4'"),
        ([arrival, (0, "arrival", 2, {"deadline": 4, "job": 0})], analyze,
         "arrival of task 2 at tick 0 has no payload field 'demand'"),
        ([arrival, start, (2, "completion", 1, {"job": 0})], analyze,
         "completion of task 1 at tick 2 has no payload field 'late'"),
        ([arrival, start, (2, "completion", 1, {"job": 0, "late": 0})], analyze,
         "completion of task 1 at tick 2: payload field 'late' must be true or false, "
         "got 0"),
        ([arrival, (3, "job_aborted", 1, {"job": None})], analyze,
         "job_aborted of task 1 at tick 3: payload field 'job' must be an integer, "
         "got None"),
        ([arrival, (0, "job_start", 1, {})], render,
         "job_start of task 1 at tick 0 has no payload field 'job'"),
    ]
    for events, commands, message in cases:
        trace = Trace([Event(*e) for e in events], 6, [1, 2])
        for name, text in (("bad.csv", trace.to_csv()), ("bad.jsonl", trace.to_jsonl())):
            (tmp_path / name).write_text(text)
            for command in commands:
                assert main([command, str(tmp_path / name)]) == 2, (message, name, command)
                assert capsys.readouterr().err == "config error: trace: %s\n" % message


def test_analyze_rejects_a_job_that_arrives_twice(tmp_path, capsys):
    # a second arrival of one (task, job) used to replace the first, so the
    # report counted one instance and exited 0
    events = [(0, "arrival", 1, {"deadline": 4, "demand": 2, "job": 0}),
              (0, "job_start", 1, {"job": 0, "resumed": False}),
              (2, "completion", 1, {"job": 0, "late": False}),
              (4, "arrival", 1, {"deadline": 8, "demand": 1, "job": 0}),
              (5, "completion", 1, {"job": 0, "late": False})]
    trace = Trace([Event(*e) for e in events], 8, [1])
    for name, text in (("twice.csv", trace.to_csv()), ("twice.jsonl", trace.to_jsonl())):
        (tmp_path / name).write_text(text)
        # render used to keep the second arrival's deadline and draw the job late
        for cmd in (["analyze"], ["render"], ["render", "--format", "svg"]):
            assert main(cmd + [str(tmp_path / name)]) == 2, (cmd, name)
            assert capsys.readouterr().err == ("config error: trace: arrival of task 1 "
                                               "job 0 at tick 4 repeats its arrival at "
                                               "tick 0\n")


def test_trace_readers_reject_an_unknown_event_kind(tmp_path, capsys):
    # a misspelt kind used to be read and ignored, so analyze counted every
    # job whose completion it names a miss, with exit 0
    text = GOLDEN.read_text()
    # the first completion is on line 6 of the CSV, after its header, and 5 of the JSONL
    cases = [("misspelt.csv", 6, text.replace(",completion,", ",completon,")),
             ("misspelt.jsonl", 5, Trace.from_csv(text).to_jsonl().replace(
                 '"kind":"completion"', '"kind":"completon"'))]
    for name, line, misspelt in cases:
        (tmp_path / name).write_text(misspelt)
        for cmd in (["analyze"], ["render"]):
            assert main(cmd + [str(tmp_path / name)]) == 2, (cmd, name)
            assert capsys.readouterr().err == (
                "config error: trace: line %d: kind: must be one of %s, got 'completon'\n"
                % (line, ", ".join(EVENT_KINDS)))

ANALYZE_SCHEDULERS = {
    "edf": {"kind": "edf"},
    "fp": {"kind": "fixed_priority", "priorities": {"1": 0, "2": 1, "3": 2}},
    "cbs_soft": {"kind": "cbs_edf"},
    "cbs_hard": {"kind": "cbs_edf"},
    "cbs_grub": {"kind": "cbs_edf"},
}
ANALYZE_RESERVATIONS = {"1": (1, 4), "2": (2, 5), "3": (2, 6)}


def _analyze_config(kind, heavy):
    """The overload fixture under one of five schedulers over 60 ticks, with
    a constraint per task.  ``heavy`` makes tasks 1 and 2 overrun longer and
    sets them to abort and skip_late, so that every job outcome reaches the
    report."""
    doc = json.loads(json.dumps(OVERLOAD_CONFIG))
    doc["scheduler"] = dict(ANALYZE_SCHEDULERS[kind], horizon=60)
    if kind.startswith("cbs"):
        doc["reservations"] = {
            tid: {"budget": q, "period": p,
                  "variant": "hard_suspend" if kind == "cbs_hard" else "soft_postpone",
                  "reclaiming": "grub" if kind == "cbs_grub" else "none"}
            for tid, (q, p) in ANALYZE_RESERVATIONS.items()}
    if heavy:
        doc["tasks"][0].update(miss_policy="abort")
        doc["tasks"][0]["exec_model"]["values"] = [3, 3, 2, 4, 1, 3]
        doc["tasks"][1].update(miss_policy="skip_late", exec_model={
            "kind": "scripted", "values": [4, 3, 1, 5, 2],
            "fallback": {"kind": "deterministic", "ticks": 2}})
    doc["constraints"] = {"1": {"m": 1, "n": 4, "conjunction": [[1, 2]]},
                          "2": {"m": 2, "n": 5}, "3": {"m": 0, "n": 3}}
    return doc


# sha256 of `softrt analyze`'s JSON and CSV over the trace of each
# _analyze_config, recorded before events became tuples
ANALYZE_SHA256 = {
    "cbs_grub": ("af63cb4a61a4d2c841036826196fa10ddbe828893650151605118dd4a1485f24",
                 "da1762cc12371e3b8b16fef83801e39cfd53f43d4d0e8f6e9f15322f29f35547"),
    "cbs_grub+heavy": ("5b3df9aff0a028e2debb1c0b7ed9fd84d5c9397a20355c3dd99c397fadd791a1",
                       "813d00c4a9b572cbeca8e8ec745ddf517f159101992c8321ad9225c0a6bd1aa3"),
    "cbs_hard": ("4a168f8ea7b6c27dcdf09df684935b19999ed2b2756e30b5713e3958eee47b8e",
                 "584ccfcc0156e508e213756d6567aaf0311e1427b5e24be5f31de263fb625bdc"),
    "cbs_hard+heavy": ("06843e0ad2b906e24b241c2ea075025d1cf258b1a235f5bba84dc6d0a4525c37",
                       "e4e1f3246b24b8ae044543adf0ada7d19e9f0bcbd40a971b9556f35253c606f8"),
    "cbs_soft": ("4a168f8ea7b6c27dcdf09df684935b19999ed2b2756e30b5713e3958eee47b8e",
                 "584ccfcc0156e508e213756d6567aaf0311e1427b5e24be5f31de263fb625bdc"),
    "cbs_soft+heavy": ("21f324e208da3fbb66387414dac0e8c9d1bdd6bf5fb75a54aa99db4dfad97e5a",
                       "92be8b45dfeecee8c943d7a11672de08ed47e5f13064abc309f5be117bfd8baa"),
    "edf": ("5124bf9b28d524e25048cf57f624d88dca64d39512355f4df65cf5d37a6750a6",
            "452a0993bd6d6de229f59a1aa27770c8cede4b53643719af736023293e11da89"),
    "edf+heavy": ("13cb3dce639ecb2238cbc20d8328d5248e8c4192de03357e08c65d6fc0390808",
                  "5f8b32a2c0908096e53d05f85a96c8bf891b9f760e89e68735e5c28721772007"),
    "fp": ("da1769314d96014fc065bf06b35cd2a007729bf9fd97dc1e72cedaf4a917b076",
           "2eab18dadeeb7e3313a720dfec42fca892ab55c8259dda1e192d285102716678"),
    "fp+heavy": ("834536b712121c3c7d4a446b621ec8c5b06514abe05ce30dc0001c39314864f7",
                 "027d5585a78827fadf1292b7424322b4c1faa69af704ce339e395716a7f1da8d"),
}


@pytest.mark.parametrize("case", sorted(ANALYZE_SHA256))
def test_analyze_output_is_pinned(tmp_path, capsys, case):
    kind, _, heavy = case.partition("+")
    cfg = write_config(tmp_path, _analyze_config(kind, heavy))
    for trace_fmt, suffix in (("csv", ".csv"), ("json", ".jsonl")):
        trace = str(tmp_path / ("trace" + suffix))
        assert main(["simulate", "--config", cfg, "--format", trace_fmt,
                     "--out", trace]) == 0
        for fmt, digest in zip(("json", "csv"), ANALYZE_SHA256[case]):
            assert main(["analyze", trace, "--config", cfg, "--format", fmt]) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (trace_fmt, fmt)


DOUBLE_INTEGRATOR = {"plant": {"A": [[0.0, 1.0], [0.0, 0.0]],
                               "B": [[0.0], [1.0]]}}


def test_control_synth_json(tmp_path, capsys):
    doc = dict(DOUBLE_INTEGRATOR,
               control={"sample_seconds": 0.5, "feedback": "lqg"})
    cfg = write_config(tmp_path, doc)
    assert main(["control-synth", "--config", cfg]) == 0
    rep = json.loads(capsys.readouterr().out)
    A = rep["discrete"]["A"]
    B = rep["discrete"]["B"]
    assert abs(A[0][0] - 1) < 1e-12 and abs(A[0][1] - 0.5) < 1e-12
    assert abs(B[0][0] - 0.125) < 1e-12 and abs(B[1][0] - 0.5) < 1e-12
    assert rep["modes"]["labels"] == ["closed", "open"]
    for key in ("K", "P", "L", "controller"):
        assert key in rep
    assert set(rep["controller"]) == {"E", "F", "G"}


# sha256 of control-synth's JSON and CSV for the double integrator at 0.5 s;
# the closed/open pair is tt_maxb's rows, and the digests predate that
CONTROL_SYNTH_SHA256 = {
    "lqr": ("9f76c06df0647a11e84377e415e3d31e44b84833411c417213eeb0a37b1f9251",
            "9a15280c8b47e3079df39069005a6d41d34aa337df4c19e8c3bbaf6f4bc438c7"),
    "lqg": ("554fdfa7624e83db2becfe9b0cc31d1746cb25d7d59fce6841f6d164b6c1cf07",
            "6665ab03464bb0592dbc824149d396138d2824c0780e0a6c1da2085c40333dfc"),
    "lqg-C=[1 0]": ("67ccef59f7a149da0dccfa777a7f30329c694dad59f89e836f35643fec3202b5",
                    "2ab0f02f3df2c92fdfbce85eaedd43fb13de3db6106e5f8f6310a0b995242439"),
}


@pytest.mark.parametrize("case", sorted(CONTROL_SYNTH_SHA256))
def test_control_synth_output_is_pinned(tmp_path, capsys, case):
    feedback, _, measured = case.partition("-")
    plant = dict(DOUBLE_INTEGRATOR["plant"], **({"C": [[1.0, 0.0]]} if measured else {}))
    cfg = write_config(tmp_path, {"plant": plant, "control": {"sample_seconds": 0.5,
                                                              "feedback": feedback}})
    for fmt, digest in zip(("json", "csv"), CONTROL_SYNTH_SHA256[case]):
        assert main(["control-synth", "--config", cfg, "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


def test_control_synth_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, DOUBLE_INTEGRATOR)
    assert main(["control-synth", "--config", cfg, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "mu,rho"
    assert len(lines) == 22
    rho = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert lines[1].startswith("0.00,") and lines[-1].startswith("1.00,")
    # always-fresh commands give the stable LQR loop; always-stale diverges
    assert rho[0] < 1.0
    assert rho[-1] > rho[0]


CHAIN_CONFIG = {"chain": {"exec_model": {"kind": "empirical", "values": [1, 3]},
                          "Q": 1, "R": 1, "T": 2, "d_max": 2}}


def test_chain_json(tmp_path, capsys):
    cfg = write_config(tmp_path, CHAIN_CONFIG)
    assert main(["chain", "--config", cfg, "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["transition"] == [[0.5, 0.5, 0.0], [0.5, 0.0, 0.5],
                                 [0.5, 0.5, 0.0]]
    steady = rep["steady"]
    for got, want in zip(steady, (1 / 2, 1 / 3, 1 / 6)):
        assert abs(got - want) < 1e-9


def test_chain_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, CHAIN_CONFIG)
    assert main(["chain", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "state,steady,to_0,to_1,to_2"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0"
    assert abs(float(first[1]) - 0.5) < 1e-9
    assert [float(x) for x in first[2:]] == [0.5, 0.5, 0.0]


# sha256 of chain's JSON and CSV, by config: CHAIN_CONFIG and a Beta(0.5,
# 0.5) demand over 0..20 ticks served 3 per 10 at T = 20
CHAIN_BETA = {"chain": {"exec_model": {"kind": "beta", "alpha": 0.5, "beta": 0.5,
                                       "lo": 0.0, "hi": 20.0},
                        "Q": 3, "R": 10, "T": 20, "d_max": 6}}
CHAIN_SHA256 = {
    "empirical": ("20ee98d4fb8ead0111ad7c64eb5b40a03810ceb0853f9af86637211fb61dc61b",
                  "aeb2a439ea530d83345eb0db7447ad71acdc875c33d81bf4128061e000bd4f97"),
    "beta": ("17914080d6ed26a256f6e57ed991d27dc8dd996720ff28f0bb10db5e1068d39c",
             "6860132997e66f31465cfcddf6be3c69207ba0c980c20b253aaccc1a5981c829"),
}


@pytest.mark.parametrize("case", sorted(CHAIN_SHA256))
def test_chain_output_is_pinned(tmp_path, capsys, case):
    cfg = write_config(tmp_path, CHAIN_CONFIG if case == "empirical" else CHAIN_BETA)
    for fmt, digest in zip(("json", "csv"), CHAIN_SHA256[case]):
        assert main(["chain", "--config", cfg, "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


def test_cosim_json(tmp_path, capsys):
    doc = {
        "plant": {"A": [[0.2]], "B": [[1.0]]},
        "moc": {"kind": "tt_maxb",
                "exec_model": {"kind": "deterministic", "ticks": 1},
                "Q": 2, "R": 2, "T": 2, "tick_seconds": 0.1,
                "horizon": 120, "n_traj": 8},
    }
    cfg = write_config(tmp_path, doc)
    assert main(["cosim", "--config", cfg, "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    # demand always fits the budget, so the loop never drops a command
    assert rep["verdict"] == "stable"
    assert rep["n_traj"] == 8
    assert len(rep["estimates"]) == 121
    assert rep["estimates"][-1] < rep["estimates"][0]


def test_cosim_csv(tmp_path, capsys):
    doc = {
        "plant": {"A": [[0.2]], "B": [[1.0]]},
        "moc": {"kind": "tt_hard", "act_delay": 0,
                "exec_model": {"kind": "deterministic", "ticks": 1},
                "Q": 2, "R": 2, "T": 2, "tick_seconds": 0.1,
                "horizon": 60, "n_traj": 4},
    }
    cfg = write_config(tmp_path, doc)
    assert main(["cosim", "--config", cfg, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "step,second_moment"
    assert len(lines) == 62
    assert lines[1].startswith("0,")


COSIM_SORT = {
    "plant": {"A": [[0.2]], "B": [[1.0]]},
    "moc": {"kind": "tt_sort", "max_delay": 2,
            "exec_model": {"kind": "empirical", "values": [1, 3]},
            "Q": 1, "R": 1, "T": 2, "tick_seconds": 0.05,
            "horizon": 40, "n_traj": 2},
}


def _with_moc(**fields):
    """COSIM_SORT with moc fields changed; a field set to None is dropped."""
    doc = json.loads(json.dumps(COSIM_SORT))
    doc["moc"].update(fields)
    doc["moc"] = {k: v for k, v in doc["moc"].items() if v is not None}
    return doc


# README's example config, less the two moc fields it marks as for other kinds
README_LOOP = {
    "plant": {"A": [[0, 1], [0, 0]], "B": [[0], [1]]},
    "control": {"sample_seconds": 0.5, "feedback": "lqg",
                "weights": {"Qx": [[1, 0], [0, 1]], "Ru": [[1]]}},
    "moc": {"kind": "tt_maxb", "exec_model": {"kind": "empirical", "values": [1, 3]},
            "Q": 1, "R": 1, "T": 2, "tick_seconds": 0.05, "horizon": 300, "n_traj": 100},
}


def test_cosim_takes_lqg_feedback_except_under_tt_sort(tmp_path, capsys):
    assert main(["cosim", "--config", write_config(tmp_path, README_LOOP),
                 "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "stable" and len(rep["estimates"]) == 301
    # the LQG loop's state (x, z, u_held) is 2 + 2 + 1 wide, not lqr's 2 + 1
    lqr = dict(README_LOOP, control=dict(README_LOOP["control"], feedback="lqr"))
    assert main(["cosim", "--config", write_config(tmp_path, lqr),
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["estimates"] != rep["estimates"]
    for kind, extra in (("tt_hard", {}), ("cs", {"max_delay": 3})):
        doc = dict(README_LOOP, moc=dict(README_LOOP["moc"], kind=kind, **extra))
        assert main(["cosim", "--config", write_config(tmp_path, doc)]) == 0, kind
        capsys.readouterr()
    # tt_sort's queued jobs would need the controller stepped at activation
    doc = dict(README_LOOP, moc=dict(README_LOOP["moc"], kind="tt_sort", max_delay=3))
    assert main(["cosim", "--config", write_config(tmp_path, doc)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("config error: control.feedback: tt_sort needs a static gain, "
                   "not a dynamic controller\n")


# sha256 of cosim's JSON and CSV for README's loop at --seed 7, by case
# "kind/feedback[/moc field=value]"
COSIM_SHA256 = {
    "tt_hard/lqg": ("b9b31edb19c3db1caf90358a08012f7a118867fabaa988c8bdfb49ddef2fa88c",
                    "c62fcc5ffd7bfa323ead947ee2ebb085fe7f05d2baf658ade37b8e52cb0bf8a0"),
    "tt_hard/lqg/act_delay=0": (
        "957bae4cc048c9ea1b38af3c31602435d38a60df1807d283ba50157c8ad1a466",
        "02f4d195ec06f9a820c130cc41fe80083a00afba2c3793d414080db3bc0d5095"),
    "tt_maxb/lqr": ("c592c6a7240e03fbd9736fd0a09cb8ec674c01383e16651de8bd4f0e29db4e00",
                    "4e8e6ad4c0d97601cfb837c506a99a24e9475aac4a5abe278de8be326c6e2925"),
    "tt_maxb/lqg": ("5511f3aa59a3dfa1c8877f8a545bf11a6e4ba1dcd942553155f41694f5f2a28d",
                    "76dffcf105c0b57c43ba6053df2be126b2975cfffb15702f8e7717b4950b6a5c"),
    "cs/lqg/max_delay=3": ("901e9b7f354301594bd85497f6548ac1474c8fa23a551fa9dd51be90a19deb26",
                           "173664e4e500220fb662ffa4fcfdd6ecf3cd23a59cfb5f77aa4946c4184258d1"),
    "tt_sort/lqr/max_delay=3": (
        "3082f553dd0e66ff0449df7c0183985be7769369fba96058a3eda88faebbdfca",
        "bcac17a2fd1115de7c11639ecb9cfa06caa393517abe0688fcfcc637f9d6554a"),
}


@pytest.mark.parametrize("case", sorted(COSIM_SHA256))
def test_cosim_output_is_pinned(tmp_path, capsys, case):
    kind, feedback, *fields = case.split("/")
    moc = dict(README_LOOP["moc"], kind=kind,
               **{k: int(v) for k, v in (f.split("=") for f in fields)})
    doc = dict(README_LOOP, moc=moc, control=dict(README_LOOP["control"], feedback=feedback))
    cfg = write_config(tmp_path, doc)
    for fmt, digest in zip(("json", "csv"), COSIM_SHA256[case]):
        assert main(["cosim", "--config", cfg, "--format", fmt, "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


def test_cosim_warns_when_the_design_interval_is_not_the_loop_interval(
        tmp_path, capsys, caplog):
    # README's loop designs for 0.5 s and runs every T * tick = 0.1 s
    with caplog.at_level(logging.WARNING, logger="softrt.cli"):
        assert main(["cosim", "--config", write_config(tmp_path, README_LOOP),
                     "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["verdict"] == "stable"
    assert [r.getMessage() for r in caplog.records] == [
        "cosim: the controller is designed for control.sample_seconds = 0.5 s but runs "
        "every (moc.T or moc.R) * moc.tick_seconds = 0.1 s"]
    caplog.clear()
    for seconds in (0.1, None):  # matched, or left to the loop's own interval
        control = dict(README_LOOP["control"], sample_seconds=seconds)
        doc = dict(README_LOOP, control=control)
        with caplog.at_level(logging.WARNING, logger="softrt.cli"):
            assert main(["cosim", "--config", write_config(tmp_path, doc),
                         "--format", "json"]) == 0
        capsys.readouterr()
        assert caplog.records == [], seconds


def test_cosim_rejects_misplaced_moc_fields(tmp_path, capsys):
    assert main(["cosim", "--config", write_config(tmp_path, COSIM_SORT)]) == 0
    capsys.readouterr()
    # act_delay belongs to tt_hard only
    cfg = write_config(tmp_path, _with_moc(act_delay=1))
    assert main(["cosim", "--config", cfg]) == 2
    assert "moc.act_delay" in capsys.readouterr().err
    # the backlog bound has one name, max_delay
    cfg = write_config(tmp_path, _with_moc(d_max=2))
    assert main(["cosim", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "moc.d_max" in err and "moc.max_delay" in err


def test_non_integer_fields_are_config_errors(tmp_path, capsys):
    cfg = write_config(tmp_path, _with_moc(horizon=40.5))
    assert main(["cosim", "--config", cfg]) == 2
    assert "moc.horizon: must be an integer" in capsys.readouterr().err
    # MocKind reads its own integers, in the words of every other field
    for fields, got in (({"max_delay": 2.5}, "max_delay: must be an integer, got 2.5"),
                        ({"max_delay": True}, "max_delay: must be an integer, got True"),
                        ({"kind": "tt_hard", "max_delay": None, "act_delay": "1"},
                         "act_delay: must be an integer, got '1'")):
        assert main(["cosim", "--config", write_config(tmp_path, _with_moc(**fields))]) == 2
        assert capsys.readouterr().err == "config error: moc.%s\n" % got
    doc = json.loads(json.dumps(CHAIN_CONFIG))
    doc["chain"]["Q"] = "1"
    assert main(["chain", "--config", write_config(tmp_path, doc)]) == 2
    assert "chain.Q: must be an integer" in capsys.readouterr().err


def test_mis_sized_weights_are_config_errors(tmp_path, capsys):
    def control(**ctl):
        return dict(DOUBLE_INTEGRATOR, control=ctl)

    cases = [
        ("control-synth", control(weights={"Qx": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}),
         "weights.Qx"),
        ("control-synth", control(weights={"Ru": [[1, 0], [0, 1]]}), "weights.Ru"),
        ("control-synth", control(feedback="lqg", weights={"Qx": [[1]]}), "weights.Qx"),
        ("cosim", dict(COSIM_SORT, control={"weights": {"Qx": [[1, 0], [0, 1]]}}),
         "weights.Qx"),
    ]
    for cmd, doc, field in cases:
        assert main([cmd, "--config", write_config(tmp_path, doc)]) == 2, field
        assert "%s: expected shape" % field in capsys.readouterr().err


def test_non_numeric_seconds_are_config_errors(tmp_path, capsys):
    cases = [
        ("control-synth", dict(DOUBLE_INTEGRATOR, control={"sample_seconds": "0.5"}),
         "control.sample_seconds"),
        ("cosim", dict(COSIM_SORT, control={"sample_seconds": True}),
         "control.sample_seconds"),
        ("cosim", _with_moc(tick_seconds="0.05"), "moc.tick_seconds"),
        ("cosim", _with_moc(tick_seconds=0), "moc.tick_seconds"),
    ]
    for cmd, doc, field in cases:
        assert main([cmd, "--config", write_config(tmp_path, doc)]) == 2, field
        assert "%s: must be a number > 0" % field in capsys.readouterr().err


def test_sweep_cli(tmp_path, capsys):
    doc = {"sweep": {"n_systems": 2, "grid": [0.5, 1.0],
                     "mocs": ["tt_hard", "tt_maxb"], "R": 10, "T": 10}}
    cfg = write_config(tmp_path, doc)
    assert main(["sweep", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "bandwidth,moc,fraction_stabilized"
    assert len(lines) == 5
    for ln in lines[1:]:
        assert 0.0 <= float(ln.split(",")[2]) <= 1.0


def test_default_sweep_csv_is_pinned(capsys):
    assert main(["sweep"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DEFAULT_SWEEP_SHA256


def test_sweep_non_integer_fields_are_config_errors(tmp_path, capsys):
    base = {"n_systems": 1, "mocs": ["tt_sort"], "grid": [0.5, 1.0]}
    assert main(["sweep", "--config", write_config(tmp_path, {"sweep": base})]) == 0
    capsys.readouterr()
    for field, bad in (("n_systems", "1"), ("state_dim", 2.0),
                       ("R", True), ("T", 20.0), ("max_delay", "6")):
        doc = {"sweep": dict(base, **{field: bad})}
        assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 2, field
        assert "sweep.%s: must be an integer" % field in capsys.readouterr().err
    # the Monte Carlo sizes are gone: every sweep verdict is exact
    for field, value in (("horizon", 40.5), ("n_traj", 2.5)):
        doc = {"sweep": dict(base, **{field: value})}
        assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 2, field
        assert "sweep.%s: not a sweep field" % field in capsys.readouterr().err


def test_sweep_non_positive_float_fields_are_config_errors(tmp_path, capsys):
    base = {"n_systems": 1, "mocs": ["tt_hard"], "grid": [1.0]}
    for field in ("beta_alpha", "beta_beta", "tick_seconds"):
        for bad in ("2", True, 0, -1.5, float("inf")):
            doc = {"sweep": dict(base, **{field: bad})}
            assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 2, \
                (field, bad)
            assert "sweep.%s: must be a number > 0" % field in capsys.readouterr().err


def test_sweep_seed_must_be_an_integer_or_a_string(tmp_path, capsys):
    base = {"n_systems": 1, "mocs": ["tt_hard"], "grid": [1.0]}
    for good in (3, "batch-a"):
        doc = {"sweep": dict(base, seed=good)}
        assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 0, good
    capsys.readouterr()
    for bad in ([1, 2], {"a": 1}, 1.5, True, None):
        doc = {"sweep": dict(base, seed=bad)}
        assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 2, bad
        assert "sweep.seed: must be an integer or a string" in capsys.readouterr().err


def test_sweep_reads_the_configured_seed(tmp_path, capsys):
    # four tt_maxb plants at three bandwidths: the three seeds give three tables
    base = {"n_systems": 4, "mocs": ["tt_maxb"], "grid": [0.1, 0.2, 0.3]}
    out = {}
    for seed in (0, 1, "other"):
        cfg = write_config(tmp_path, {"sweep": dict(base, seed=seed)})
        assert main(["sweep", "--config", cfg]) == 0
        out[seed] = capsys.readouterr().out
    assert len(set(out.values())) == 3
    # --seed overrides the configured seed
    assert main(["sweep", "--config", cfg, "--seed", "1"]) == 0
    assert capsys.readouterr().out == out[1]


def test_config_sections_of_the_wrong_json_type_are_config_errors(tmp_path, capsys):
    task = {"id": 1, "wcet": 1, "rel_deadline": 4, "period": 4}
    simulate = {"tasks": [task], "scheduler": {"kind": "edf", "horizon": 8}}
    cbs = dict(simulate, scheduler={"kind": "cbs_edf", "horizon": 8})
    fp = dict(simulate, scheduler={"kind": "fixed_priority", "horizon": 8})
    plant = {"plant": {"A": [[0.5]], "B": [[1.0]]}}
    cases = [
        (["simulate"], dict(simulate, tasks=[dict(task, activation="sporadic")]),
         "tasks[0].activation"),
        (["simulate"], dict(cbs, reservations={"1": 5}), "reservations[1]"),
        (["simulate"], dict(fp, scheduler=dict(fp["scheduler"], priorities={"x": 1})),
         "scheduler.priorities[x]"),
        (["simulate"], dict(simulate, scheduler=dict(simulate["scheduler"], collect=5)),
         "scheduler.collect"),
        (["analyze", str(GOLDEN)], {"constraints": {"one": {"m": 1, "n": 2}}},
         "constraints[one]"),
        (["analyze", str(GOLDEN)], {"constraints": [1]}, "constraints"),
        (["analyze", str(GOLDEN)],
         {"constraints": {"1": {"m": 1, "n": 2, "conjunction": [3]}}},
         "constraints[1].conjunction[0]"),
        (["control-synth"], dict(plant, control=[1]), "control"),
        (["sweep"], {"sweep": [1]}, "sweep"),
        (["control-synth"], dict(plant, control={"weights": [1]}), "control.weights"),
    ]
    for cmd, doc, field in cases:
        assert main(cmd + ["--config", write_config(tmp_path, doc)]) == 2, field
        assert "config error: %s:" % field in capsys.readouterr().err, field


@pytest.mark.parametrize("cmd, doc, field", [
    (["analyze", str(GOLDEN)],
     {"constraints": {"1": {"m": 1, "n": 2, "conjunction": [[1, 2, 3]]}}},
     "constraints[1].conjunction[0]"),
    (["analyze", str(GOLDEN)],
     {"constraints": {"1": {"m": 1, "n": 2, "conjunction": [["a", 2]]}}},
     "constraints[1].conjunction[0]"),
    (["simulate"], {"tasks": [{"id": 1, "wcet": 1, "rel_deadline": 4, "period": 4}],
                    "scheduler": {"kind": "edf", "horizon": 8, "collect": [[1]]}},
     "scheduler.collect[0]"),
], ids=["conjunction-triple", "conjunction-string", "collect-array"])
def test_malformed_array_entries_are_config_errors(tmp_path, capsys, cmd, doc, field):
    assert main(cmd + ["--config", write_config(tmp_path, doc)]) == 2
    assert "config error: %s:" % field in capsys.readouterr().err


def test_cosim_tt_sort_matches_golden_csv(tmp_path, capsys):
    # the sweep's co-simulation shape: horizon 200, 30 trajectories
    doc = json.loads(json.dumps(COSIM_SORT))
    doc["moc"].update(horizon=200, n_traj=30)
    assert main(["cosim", "--config", write_config(tmp_path, doc), "--format", "csv"]) == 0
    assert capsys.readouterr().out == GOLDEN_COSIM_SORT.read_text()


def test_render_ascii_golden(capsys):
    assert main(["render", str(GOLDEN)]) == 0
    assert capsys.readouterr().out == (
        "tick  01234567890123456789\n"
        "t1    ##..|.##|...!!..!...\n"
        "t2    ..##.|..##|...#!...#\n"
        "t3    ....##|...##|....#!.\n")


def test_render_ascii_horizon_override(capsys):
    assert main(["render", str(GOLDEN), "--horizon", "24"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "tick  " + "012345678901234567890123"
    assert all(len(ln) == 6 + 24 for ln in lines)


def test_render_svg(capsys):
    assert main(["render", str(GOLDEN), "--format", "svg"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("<svg ")
    assert out.endswith("</svg>\n")
    # the overload run executes past deadlines, so late cells appear
    assert "#c62828" in out


def test_unmatched_task_ids_and_trace_headers_are_config_errors(tmp_path, capsys):
    # each through the library and through the command line
    tasks = [TaskSpec(1, 1, 4, 4), TaskSpec(2, 2, 5, 5)]
    priorities = {"kind": "fixed_priority", "horizon": 20, "priorities": {"1": 0}}
    reservations = {"kind": "cbs_edf", "horizon": 20}
    cases = [
        (SchedulerConfig("fixed_priority", 20, priorities={1: 0}),
         dict(OVERLOAD_CONFIG, scheduler=priorities), "scheduler.priorities: missing task id 2"),
        (SchedulerConfig("cbs_edf", 20, reservations={2: ReservationSpec(1, 5)}),
         dict(OVERLOAD_CONFIG, scheduler=reservations,
              reservations={"2": {"budget": 1, "period": 5}}),
         "scheduler.reservations: missing task id 1"),
    ]
    for scheduler, doc, message in cases:
        with pytest.raises(ConfigError) as err:
            simulate(tasks, scheduler)
        assert str(err.value) == message
        assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == "config error: %s\n" % message
    text = GOLDEN.read_text().replace("payload", "extra", 1)
    assert text.startswith("tick,kind,task,extra\n")
    message = "trace: expected header tick,kind,task,payload"
    with pytest.raises(ConfigError) as err:
        Trace.from_csv(text)
    assert str(err.value) == message
    (tmp_path / "extra.csv").write_text(text)
    assert main(["analyze", str(tmp_path / "extra.csv")]) == 2
    assert capsys.readouterr().err == "config error: %s\n" % message


def test_config_error_exit_code(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 2
    assert "config error:" in capsys.readouterr().err

    broken = dict(OVERLOAD_CONFIG, tasks=[{"id": 1, "wcet": 1,
                                           "rel_deadline": 4}])
    cfg = write_config(tmp_path, broken)
    assert main(["simulate", "--config", cfg]) == 2
    assert "tasks[0].period" in capsys.readouterr().err

    no_fallback = {"tasks": [{"id": 1, "wcet": 1, "rel_deadline": 4,
                              "period": 4,
                              "exec_model": {"kind": "scripted",
                                             "values": [2]}}],
                   "scheduler": {"kind": "edf", "horizon": 8}}
    cfg = write_config(tmp_path, no_fallback)
    assert main(["simulate", "--config", cfg]) == 2
    assert "fallback" in capsys.readouterr().err


@pytest.mark.parametrize("model, field", [
    ('{"kind": "uniform", "lo": 0, "hi": 1e400}', "hi"),
    ('{"kind": "beta", "alpha": "2", "beta": 0.5, "lo": 0, "hi": 4}', "alpha"),
    ('{"kind": "uniform", "lo": "0", "hi": 4}', "lo"),
    ('{"kind": "empirical", "values": 3}', "values"),
], ids=["uniform-inf-hi", "beta-str-alpha", "uniform-str-lo", "empirical-scalar"])
def test_bad_exec_model_parameters_are_config_errors(tmp_path, capsys, model, field):
    # written by hand: JSON 1e400 parses to inf
    cfg = tmp_path / "config.json"
    cfg.write_text('{"tasks": [{"id": 1, "wcet": 4, "rel_deadline": 4, "period": 4, '
                   '"exec_model": %s}], "scheduler": {"kind": "edf", "horizon": 8}}'
                   % model)
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "config error: tasks[0].exec_model.%s:" % field in capsys.readouterr().err


def test_value_errors_name_their_json_path(tmp_path, capsys):
    tasks = OVERLOAD_CONFIG["tasks"]
    cbs = {"tasks": tasks, "scheduler": {"kind": "cbs_edf", "horizon": 8},
           "reservations": {str(t["id"]): {"budget": 1, "period": 4} for t in tasks}}
    cases = [
        (dict(OVERLOAD_CONFIG, tasks=[tasks[1], dict(tasks[2], period=0)]),
         "tasks[1].period: must be >= 1, got 0"),
        (dict(OVERLOAD_CONFIG, tasks=[dict(tasks[1], exec_model={
            "kind": "uniform", "lo": 3, "hi": 2})]), "tasks[0].exec_model.hi: must be > lo"),
        (dict(OVERLOAD_CONFIG, tasks=[dict(tasks[1], activation={"kind": "bursty"})]),
         "tasks[0].activation.kind: must be"),
        (dict(cbs, reservations=dict(cbs["reservations"], **{"2": {"budget": 0,
                                                                   "period": 4}})),
         "reservations[2].budget: must be >= 1, got 0"),
    ]
    for doc, want in cases:
        assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 2, want
        assert "config error: %s" % want in capsys.readouterr().err, want


def _simulate_doc(task=None, scheduler=None, reservations=None):
    """A two-task simulate config with one task or scheduler field changed."""
    tasks = [dict(OVERLOAD_CONFIG["tasks"][0], **(task or {})), OVERLOAD_CONFIG["tasks"][1]]
    doc = {"tasks": tasks, "scheduler": dict({"kind": "edf", "horizon": 8}, **(scheduler or {}))}
    if reservations is not None:
        doc["reservations"] = reservations
    return doc


@pytest.mark.parametrize("doc, field", [
    (_simulate_doc(task={"id": True}), "tasks[0].id"),
    (_simulate_doc(scheduler={"kind": "cbs_edf"},
                   reservations={"2": {"budget": 1, "period": 4},
                                 "1": {"budget": True, "period": 4}}),
     "reservations[1].budget"),
    (_simulate_doc(scheduler={"horizon": True}), "scheduler.horizon"),
    (_simulate_doc(task={"exec_model": {"kind": "empirical", "values": [1, True]}}),
     "tasks[0].exec_model.values"),
    (_simulate_doc(scheduler={"kind": "fixed_priority", "priorities": {"1": "a", "2": 3}}),
     "scheduler.priorities[1]"),
    (_simulate_doc(task={"enforce_wcet": "false"}), "tasks[0].enforce_wcet"),
], ids=["bool-id", "bool-budget", "bool-horizon", "bool-value", "str-priority",
        "str-enforce-wcet"])
def test_mistyped_simulate_fields_are_config_errors(tmp_path, capsys, doc, field):
    # a JSON true is no integer and "false" is no boolean; each names its field
    assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 2
    assert "config error: %s:" % field in capsys.readouterr().err


@pytest.mark.parametrize("sweep, field", [
    ({"grid": 5}, "sweep.grid"),
    ({"grid": ["a"]}, "sweep.grid[0]"),
    ({"grid": [0.5, True]}, "sweep.grid[1]"),
    ({"mocs": "cs"}, "sweep.mocs"),
], ids=["grid-scalar", "grid-string", "grid-bool", "mocs-string"])
def test_mistyped_sweep_lists_are_config_errors(tmp_path, capsys, sweep, field):
    doc = {"sweep": dict({"n_systems": 1}, **sweep)}
    assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 2
    assert "config error: %s:" % field in capsys.readouterr().err


@pytest.mark.parametrize("sweep, field", [
    ({"n_systems": 0}, "sweep.n_systems"),
    ({"state_dim": 0}, "sweep.state_dim"),
    ({"R": 0}, "sweep.R"),
    ({"R": -10}, "sweep.R"),
    ({"T": 15}, "sweep.T"),
    ({"max_delay": 0}, "sweep.max_delay"),
    ({"grid": []}, "sweep.grid"),
    ({"grid": [0.5, 0.2]}, "sweep.grid"),
    ({"grid": [0.5, 2]}, "sweep.grid[1]"),
    ({"grid": [0.55]}, "sweep.grid[0]"),
    ({"mocs": ["cs", "x"]}, "sweep.mocs[1]"),
    # a repeat would count its plants twice: fraction_stabilized 2 at b = 1
    ({"mocs": ["tt_maxb", "tt_maxb"], "grid": [0.5, 1.0]}, "sweep.mocs[1]"),
    ({"grid": [0.5, 0.5]}, "sweep.grid[1]"),
    ({"grid": [0.2, 0.5, 0.50000000001]}, "sweep.grid[2]"),  # the same budget
], ids=["n-systems", "state-dim", "R-zero", "R-negative", "T-not-multiple",
        "max-delay", "grid-empty", "grid-unsorted", "grid-above-one",
        "grid-fractional-budget", "mocs-unknown", "mocs-repeated", "grid-repeated",
        "grid-repeated-budget"])
def test_sweep_value_errors_name_their_path(tmp_path, capsys, sweep, field):
    doc = {"sweep": dict({"n_systems": 1}, **sweep)}
    assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 2
    assert "config error: %s:" % field in capsys.readouterr().err


def test_numerical_error_exit_code(tmp_path, capsys):
    doc = {"plant": {"A": [[1.0]], "B": [[0.0]]},
           "control": {"sample_seconds": 1.0}}
    cfg = write_config(tmp_path, doc)
    assert main(["control-synth", "--config", cfg]) == 3
    assert capsys.readouterr().err.startswith("numerical error:")


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path, CHAIN_CONFIG)
    proc = subprocess.run([sys.executable, "-m", "softrt.cli", "chain",
                           "--config", cfg],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "state,steady,to_0,to_1,to_2"


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    # a seeded run, an argparse error, a config error and an unseeded run in
    # one process: one parser, and each call as in a fresh interpreter
    doc = dict(OVERLOAD_CONFIG, tasks=[dict(OVERLOAD_CONFIG["tasks"][1], exec_model={
        "kind": "uniform", "lo": 1.0, "hi": 3.0})])
    cfg = write_config(tmp_path, doc)
    calls = [["simulate", "--config", cfg, "--seed", "3"],
             ["simulate", "--config", cfg, "--seed", "x"],
             ["simulate", "--config", str(tmp_path / "missing.json")],
             ["simulate", "--config", cfg]]
    cli.build_parser.cache_clear()
    got = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        got.append((code, out.out, out.err))
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(calls) - 1)
    assert [code for code, _, _ in got] == [0, 2, 2, 0]
    assert got[0][1] != got[3][1]  # the seed changes this trace
    for argv, result in zip(calls, got):
        proc = subprocess.run([sys.executable, "-m", "softrt.cli", *argv],
                              capture_output=True, text=True)
        assert result == (proc.returncode, proc.stdout, proc.stderr), argv
    # no value of one call is a default of the next
    fresh = cli.build_parser.__wrapped__()
    for argv in (calls[3], ["simulate", "--config", cfg, "--out", "x", "--format", "json"],
                 calls[3], ["sweep"], ["render", "t.csv"]):
        assert vars(cli.build_parser().parse_args(argv)) == vars(fresh.parse_args(argv))


def _unknown_key_cases():
    """(command, config, path of the unknown key), one per kind of object."""
    task = OVERLOAD_CONFIG["tasks"][1]
    simulate = lambda **t: dict(OVERLOAD_CONFIG, tasks=[dict(task, **t)])
    cbs = {"tasks": [task], "scheduler": {"kind": "cbs_edf", "horizon": 8},
           "reservations": {"2": {"budget": 1, "period": 4, "varient": "hard_suspend"}}}
    analyze = ["analyze", str(GOLDEN)]
    return [
        (["simulate"], simulate(miss_polcy="abort"), "tasks[0].miss_polcy"),
        (["simulate"], simulate(activation={"kind": "sporadic", "gap": 3}),
         "tasks[0].activation.gap"),
        (["simulate"], simulate(exec_model={"kind": "uniform", "lo": 1, "hi": 2,
                                            "ticks": 2}), "tasks[0].exec_model.ticks"),
        (["simulate"], simulate(exec_model={
            "kind": "scripted", "values": [1],
            "fallback": {"kind": "deterministic", "ticks": 1, "lo": 1}}),
         "tasks[0].exec_model.fallback.lo"),
        (["simulate"], cbs, "reservations[2].varient"),
        (["simulate"], dict(OVERLOAD_CONFIG, scheduler={"kind": "edf", "horizon": 8,
                                                        "colect": ["arrival"]}),
         "scheduler.colect"),
        (analyze, {"constraints": {"1": {"m": 1, "n": 2, "k": 3}}}, "constraints[1].k"),
        (["control-synth"], {"plant": dict(DOUBLE_INTEGRATOR["plant"], E=[[1]])},
         "plant.E"),
        (["control-synth"], dict(DOUBLE_INTEGRATOR, control={"feedbak": "lqg"}),
         "control.feedbak"),
        (["control-synth"], dict(DOUBLE_INTEGRATOR, control={"weights": {"Q": [[1]]}}),
         "control.weights.Q"),
        (["cosim"], _with_moc(n_trajs=3), "moc.n_trajs"),
        (["chain"], {"chain": dict(CHAIN_CONFIG["chain"], max_delay=2)}, "chain.max_delay"),
        (["sweep"], {"sweep": {"n_sytems": 2}}, "sweep.n_sytems"),
    ]


@pytest.mark.parametrize("cmd, doc, field", _unknown_key_cases(),
                         ids=[field for *_, field in _unknown_key_cases()])
def test_unknown_keys_are_config_errors(tmp_path, capsys, cmd, doc, field):
    # a misspelt key would otherwise leave its field at the default unseen
    assert main(cmd + ["--config", write_config(tmp_path, doc)]) == 2
    assert "config error: %s: unknown field" % field in capsys.readouterr().err


@pytest.mark.parametrize("cmd, doc, message", [
    (["chain"], {"chain": dict(CHAIN_CONFIG["chain"], Q=0)}, "chain.Q: need 1 <= Q <= R"),
    (["chain"], {"chain": dict(CHAIN_CONFIG["chain"], R=0)}, "chain.Q: need 1 <= Q <= R"),
    (["chain"], {"chain": dict(CHAIN_CONFIG["chain"], d_max=0)}, "chain.d_max: must be >= 1"),
    (["chain"], {"chain": dict(CHAIN_CONFIG["chain"], R=2, T=3)},
     "chain.T: must be a positive multiple of R"),
    (["chain"], {"chain": dict(CHAIN_CONFIG["chain"], exec_model={
        "kind": "scripted", "values": [1], "fallback": {"kind": "deterministic",
                                                        "ticks": 1}})},
     "chain.exec_model: no stationary distribution"),
    (["cosim"], _with_moc(Q=0), "moc.Q: need 1 <= Q <= R"),
    (["cosim"], _with_moc(kind="tt_maxb", max_delay=None, T=None), "moc.T: tt_maxb needs"),
    (["cosim"], _with_moc(n_traj=0), "moc.n_traj: must be >= 1"),
    (["cosim"], _with_moc(horizon=3), "moc.horizon: must be >= 4"),
    (["cosim"], _with_moc(kind="tt_hard", max_delay=None, act_delay=5),
     "moc.act_delay: need 0 <= act_delay <= T"),
    (["analyze", str(GOLDEN)], {"constraints": {"1": {"m": 3, "n": 2}}},
     "constraints[1].m: need 0 <= m <= n"),
    (["analyze", str(GOLDEN)], {"constraints": {"2": {"m": 0, "n": 0}}},
     "constraints[2].n: must be >= 1, got 0"),
], ids=["chain-Q", "chain-R", "chain-d_max", "chain-T", "chain-scripted", "moc-Q", "moc-T",
        "moc-n_traj", "moc-horizon", "moc-act_delay", "constraint-m", "constraint-n"])
def test_routine_value_errors_name_their_json_path(tmp_path, capsys, cmd, doc, message):
    assert main(cmd + ["--config", write_config(tmp_path, doc)]) == 2
    assert "config error: %s" % message in capsys.readouterr().err


def test_synthesis_errors_keep_their_own_names(tmp_path, capsys):
    # a plant error under cosim is no moc field, so it is not relabelled
    doc = dict(_with_moc(), plant={"A": [[0.2]], "B": [[1.0], [1.0]]})
    assert main(["cosim", "--config", write_config(tmp_path, doc)]) == 2
    assert "config error: plant.B: row count must match A" in capsys.readouterr().err


def test_unreadable_input_files_are_config_errors(tmp_path, capsys):
    binary = tmp_path / "trace.csv"
    binary.write_bytes(b"tick,kind\n\xff\xfe\n")
    cases = [
        (["analyze", str(tmp_path)], "trace: cannot read file"),
        (["render", str(binary)], "trace: cannot read file"),
        (["simulate", "--config", str(tmp_path)], "config: cannot read file"),
        (["chain", "--config", str(binary)], "config: cannot read file"),
    ]
    for argv, message in cases:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("config error: %s" % message), argv
        assert "Traceback" not in err


def _null_cases():
    """(command, config, path) with one integer or seconds field set to null."""
    sweep = {"n_systems": 1, "mocs": ["tt_hard"], "grid": [1.0]}
    cases = [(["sweep"], {"sweep": dict(sweep, **{f: None})}, "sweep." + f)
             for f in ("n_systems", "state_dim", "R", "T", "max_delay")]
    cases += [(["analyze", str(GOLDEN)], {"constraints": {"1": dict({"m": 1, "n": 2},
                                                                     **{f: None})}},
               "constraints[1]." + f) for f in ("m", "n")]
    cases += [(["chain"], {"chain": dict(CHAIN_CONFIG["chain"], **{f: None})}, "chain." + f)
              for f in ("Q", "R", "T", "d_max")]
    cases += [(["cosim"], dict(COSIM_SORT, moc=dict(COSIM_SORT["moc"], **{f: None})),
               "moc." + f) for f in ("Q", "R", "horizon", "n_traj", "tick_seconds")]
    return cases


@pytest.mark.parametrize("cmd, doc, field", _null_cases(),
                         ids=[field for *_, field in _null_cases()])
def test_null_fields_are_config_errors_or_defaults(tmp_path, capsys, cmd, doc, field):
    code = main(cmd + ["--config", write_config(tmp_path, doc)])
    out, err = capsys.readouterr()
    if field != "moc.tick_seconds":
        assert code == 2
        assert "config error: %s: must be an integer, got None\n" % field in err
        return
    # a null duration takes its default, as if the key were left out
    assert code == 0
    del doc["moc"]["tick_seconds"]
    assert main(cmd + ["--config", write_config(tmp_path, doc)]) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("cmd", ["control-synth", "cosim"])
def test_weight_errors_name_their_json_path(tmp_path, capsys, cmd):
    base = DOUBLE_INTEGRATOR if cmd == "control-synth" else \
        dict(COSIM_SORT, plant=DOUBLE_INTEGRATOR["plant"])
    cases = [
        ({"Qx": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}, "control.weights.Qx: expected shape"),
        ({"Qx": [[1, 2], [0, 1]]}, "control.weights.Qx: must be symmetric"),
        ({"Ru": [[1, 0], [0, 1]]}, "control.weights.Ru: expected shape"),
        ({"Ru": [[1, 2], [0, 1]]}, "control.weights.Ru: must be symmetric"),
        ({"Ru": [[-1]]}, "control.weights.Ru: must be positive definite"),
    ]
    for weights, message in cases:
        doc = dict(base, control={"weights": weights})
        assert main([cmd, "--config", write_config(tmp_path, doc)]) == 2, message
        assert capsys.readouterr().err.startswith("config error: " + message), message


@pytest.mark.parametrize("cmd", ["control-synth", "cosim"])
def test_indefinite_state_weight_is_a_config_error(tmp_path, capsys, cmd):
    base = DOUBLE_INTEGRATOR if cmd == "control-synth" else \
        dict(COSIM_SORT, plant=DOUBLE_INTEGRATOR["plant"])
    doc = dict(base, control={"weights": {"Qx": [[-1, 0], [0, 1]]}})
    assert main([cmd, "--config", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == \
        "config error: control.weights.Qx: must be positive semidefinite\n"
    # Qx = 0 is a valid weight; it leaves the double integrator's modes on
    # the unit circle unobserved, a genuine numerical failure
    doc = dict(base, control={"weights": {"Qx": [[0, 0], [0, 0]]}})
    assert main([cmd, "--config", write_config(tmp_path, doc)]) == 3
    assert "dlqr: no stabilizing solution" in capsys.readouterr().err


def test_render_rejects_a_negative_horizon(capsys):
    for fmt in ("ascii", "svg"):
        assert main(["render", str(GOLDEN), "--horizon", "-5", "--format", fmt]) == 2
        assert capsys.readouterr().err == "config error: horizon: must be >= 0, got -5\n"
    with pytest.raises(ConfigError, match="^horizon: must be >= 0"):
        render_trace(Trace.from_csv(GOLDEN.read_text(), horizon=-5))
