"""Command-line surface, driven in-process through main(argv)."""

import json
import pathlib
import subprocess
import sys

import pytest

from softrt.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "edf_overload_trace.csv"
GOLDEN_COSIM_SORT = GOLDEN.with_name("cosim_tt_sort.csv")

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
    doc = json.loads(json.dumps(COSIM_SORT))
    doc["moc"].update(fields)
    return doc


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
         "tasks[1].period: must be a positive integer"),
        (dict(OVERLOAD_CONFIG, tasks=[dict(tasks[1], exec_model={
            "kind": "uniform", "lo": 3, "hi": 2})]), "tasks[0].exec_model.hi: must be > lo"),
        (dict(OVERLOAD_CONFIG, tasks=[dict(tasks[1], activation={"kind": "bursty"})]),
         "tasks[0].activation.kind: must be"),
        (dict(cbs, reservations=dict(cbs["reservations"], **{"2": {"budget": 0,
                                                                   "period": 4}})),
         "reservations[2].budget: must be a positive integer"),
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
], ids=["n-systems", "state-dim", "R-zero", "R-negative", "T-not-multiple",
        "max-delay", "grid-empty", "grid-unsorted", "grid-above-one",
        "grid-fractional-budget", "mocs-unknown"])
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
