"""The benchmark's correctness gate in Tier-1: every step of every workload,
run at pool seed 0 the way ``perfbench/run.py`` runs it, reproduces its
reference rows in ``perfbench/reference.json`` and exits 0.

The ``perfbench`` modules are loaded from their files, unchanged;
``workloads.prepare`` is not called, since it rewrites environment
variables and ``sys.path``.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from mfclab import harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 0


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
reference = _load("reference")

STEPS = [(name, i) for name, workload in workloads.WORKLOADS.items()
         for i in range(len(workload.steps))]


@pytest.mark.parametrize(
    "name, index", STEPS,
    ids=[f"{name}-{workloads.WORKLOADS[name].steps[i][0]}"
         for name, i in STEPS])
def test_benchmark_step_reproduces_reference_cells(tmp_path, name, index):
    workload = workloads.WORKLOADS[name]
    ref = reference.load()["workloads"][name]
    assert SEED in ref["pool"]
    one = dataclasses.replace(workload,
                              steps=workload.steps[index:index + 1])
    (cfg,) = workloads.make_configs(harness, one, SEED, tmp_path)
    (step,) = workloads.run_iteration(harness, one, SEED, tmp_path)
    assert step.experiment == cfg.experiment
    assert step.rc == 0, step.failed_checks
    assert reference.compare(
        step.csv, ref["cells"][str(SEED)][step.experiment]) == []
