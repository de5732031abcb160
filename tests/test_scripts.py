"""Smoke tests: the experiment scripts run as documented."""

import pathlib
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _run(script, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=120)


def test_run_sweep_prints_the_table():
    proc = _run("run_sweep.py", "--n-systems", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "bandwidth,moc,fraction_stabilized"
    assert len(lines) == 1 + 10 * 4  # the default grid times the four mechanisms


def test_render_schedules_runs():
    proc = _run("render_schedules.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("== edf overload:")
