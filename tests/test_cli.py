"""Command-line surface, driven in-process through main(argv)."""

import json
import pathlib
import subprocess
import sys

from softrt.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "edf_overload_trace.csv"

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


def test_sweep_cli(tmp_path, capsys):
    doc = {"sweep": {"n_systems": 2, "grid": [0.5, 1.0],
                     "mocs": ["tt_hard", "tt_maxb"], "R": 10, "T": 10,
                     "horizon": 60, "n_traj": 4}}
    cfg = write_config(tmp_path, doc)
    assert main(["sweep", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "bandwidth,moc,fraction_stabilized"
    assert len(lines) == 5
    for ln in lines[1:]:
        assert 0.0 <= float(ln.split(",")[2]) <= 1.0


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
