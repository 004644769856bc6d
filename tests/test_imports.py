"""Import budget: mfclab loads SciPy only inside the routes that call it.

Each check runs in a fresh interpreter, so modules imported by other tests
do not leak into ``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import mfclab

SRC = str(Path(mfclab.__file__).resolve().parents[1])


def _loaded_after(code: str, prefix: str) -> list[str]:
    """Modules named ``prefix`` or ``prefix.*`` loaded after running code."""
    script = (f"{code}\nimport json, sys\nprint(json.dumps(sorted(m for m in "
              f"sys.modules if m == {prefix!r} or m.startswith({prefix!r} "
              "+ '.'))))")
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=300,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_importing_every_module_loads_no_scipy():
    code = """
import importlib, pkgutil
import mfclab, mfclab.cli
for info in pkgutil.iter_modules(mfclab.__path__):
    importlib.import_module(f"mfclab.{info.name}")
"""
    assert _loaded_after(code, "scipy") == []


def test_mfc_gap_run_loads_no_scipy(tmp_path):
    # the benchmark's reduced mfc-gap: Picard solves and the V^N Monte Carlo
    code = f"""
import contextlib, io
from mfclab import harness
cfg = harness.default_config("mfc-gap", seed=0, out_dir={str(tmp_path)!r},
                             n_pairs=4, n_list=[8, 16, 32],
                             mc_replications=40, fp_trials=6)
with contextlib.redirect_stdout(io.StringIO()):
    assert harness.run_experiment(cfg) == 0
"""
    assert _loaded_after(code, "scipy") == []
    assert (tmp_path / "mfc-gap-results.csv").is_file()


def test_supconv_run_loads_no_scipy(tmp_path):
    # the benchmark's reduced supconv-check: the sup-convolution ascent,
    # its brute-force reference and the fixed-point maximizer
    code = f"""
import contextlib, io
from mfclab import harness
cfg = harness.default_config("supconv-check", seed=0,
                             out_dir={str(tmp_path)!r}, cutoff=3,
                             n_sandwich=1, n_monotone=5, n_instances_fp=3)
with contextlib.redirect_stdout(io.StringIO()):
    assert harness.run_experiment(cfg) == 0
"""
    assert _loaded_after(code, "scipy") == []
    assert (tmp_path / "supconv-check-results.csv").is_file()


def test_cole_hopf_d2_loads_no_scipy_stats():
    code = """
from mfclab.particle import ParticleRunConfig, cole_hopf_vn
cole_hopf_vn(1.0, 2, ParticleRunConfig(n_particles=16, replications=4))
"""
    assert _loaded_after(code, "scipy.stats") == []
