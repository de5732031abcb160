"""Import-time guard: ``import softrt`` leaves the heavy scipy subpackages and
the test-only hypothesis unloaded.  Every command pays the package import;
the modules listed here load where a computation first needs them."""

import os
import pathlib
import subprocess
import sys

import softrt

HEAVY = ("scipy.stats", "scipy.special", "scipy.optimize", "scipy.sparse", "hypothesis")


def test_import_softrt_loads_no_heavy_module():
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(softrt.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, softrt; print('\\n'.join(sys.modules))"],
        capture_output=True, text=True, env=env, check=True)
    loaded = proc.stdout.split()
    assert "softrt" in loaded
    assert [m for m in loaded if any(m == h or m.startswith(h + ".") for h in HEAVY)] == []
