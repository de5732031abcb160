"""Import-time guard: ``import softrt`` leaves the heavy scipy subpackages and
the test-only hypothesis unloaded.  Every command pays the package import;
the modules listed here load where a computation first needs them.  The
default bandwidth sweep, whose demand is the arcsine law Beta(0.5, 0.5),
needs none of scipy.special either."""

import os
import pathlib
import subprocess
import sys

import softrt

HEAVY = ("scipy.stats", "scipy.special", "scipy.optimize", "scipy.sparse", "hypothesis")


# sha256 of sweep_to_csv(bandwidth_sweep(SweepConfig(n_systems=3, beta_alpha=2.0)))
BETA_2_SWEEP_SHA256 = "5bf1dacf077d525b3593183df2836ce38daaad81d2b658335ff17680743e6255"


def _fresh(code: str) -> list:
    """The lines code prints, run in a fresh interpreter that finds softrt."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(softrt.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, check=True)
    return proc.stdout.split()


def test_import_softrt_loads_no_heavy_module():
    loaded = _fresh("import sys, softrt; print('\\n'.join(sys.modules))")
    assert "softrt" in loaded
    assert [m for m in loaded if any(m == h or m.startswith(h + ".") for h in HEAVY)] == []


def test_default_sweep_loads_no_scipy_special():
    # the library sweep and `softrt sweep` with no config, whose CSV keeps
    # its pinned digest
    from test_cli import DEFAULT_SWEEP_SHA256

    out = _fresh(
        "import contextlib, hashlib, io, sys\n"
        "from softrt.cli import main\n"
        "from softrt.sweep import SweepConfig, bandwidth_sweep\n"
        "bandwidth_sweep(SweepConfig(n_systems=3))\n"
        "print('scipy.special' in sys.modules)\n"
        "buf = io.StringIO()\n"
        "with contextlib.redirect_stdout(buf):\n"
        "    rc = main(['sweep'])\n"
        "print(rc, hashlib.sha256(buf.getvalue().encode()).hexdigest(),\n"
        "      'scipy.special' in sys.modules)\n")
    assert out == ["False", "0", DEFAULT_SWEEP_SHA256, "False"]


def test_another_beta_shape_still_loads_scipy_special():
    out = _fresh(
        "import hashlib, sys\n"
        "from softrt.sweep import SweepConfig, bandwidth_sweep, sweep_to_csv\n"
        "csv = sweep_to_csv(bandwidth_sweep(SweepConfig(n_systems=3, beta_alpha=2.0)))\n"
        "print(hashlib.sha256(csv.encode()).hexdigest(), 'scipy.special' in sys.modules)\n")
    assert out == [BETA_2_SWEEP_SHA256, "True"]
