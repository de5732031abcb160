"""Smoke tests: the experiment scripts run as documented."""

import pathlib
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _run(script, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=120)


def test_render_schedules_runs():
    proc = _run("render_schedules.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("== edf overload:")
