"""The benchmark's correctness gate in Tier-1: every step of every workload,
run at pool seed 0 the way ``perfbench/run.py`` runs it, reproduces its
reference rows in ``perfbench/reference.json`` and exits 0. The
``supconv`` step runs at every seed of its pool: its distance-cost cells
move with the last bit of rounding, and which ascent rows share an
objective call sets that rounding, so one seed is too few to see a drift.

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
ALL_POOL_SEEDS = ("supconv",)  # workloads gated at every pool seed


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
reference = _load("reference")

REFERENCE = reference.load()["workloads"]
STEPS = [(name, i, seed) for name, workload in workloads.WORKLOADS.items()
         for i in range(len(workload.steps))
         for seed in (REFERENCE[name]["pool"] if name in ALL_POOL_SEEDS
                      else [SEED])]


def _step_id(name, index, seed):
    step_id = f"{name}-{workloads.WORKLOADS[name].steps[index][0]}"
    return step_id if seed == SEED else f"{step_id}-seed{seed}"


@pytest.mark.parametrize("name, index, seed", STEPS,
                         ids=[_step_id(*step) for step in STEPS])
def test_benchmark_step_reproduces_reference_cells(tmp_path, name, index,
                                                   seed):
    workload = workloads.WORKLOADS[name]
    ref = REFERENCE[name]
    assert seed in ref["pool"]
    one = dataclasses.replace(workload,
                              steps=workload.steps[index:index + 1])
    (cfg,) = workloads.make_configs(harness, one, seed, tmp_path)
    (step,) = workloads.run_iteration(harness, one, seed, tmp_path)
    assert step.experiment == cfg.experiment
    assert step.rc == 0, step.failed_checks
    assert reference.compare(
        step.csv, ref["cells"][str(seed)][step.experiment]) == []
