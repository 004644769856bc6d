"""The benchmark's workloads: reduced-size `rates` experiments.

Each workload is a sequence of (experiment, parameter overrides) run
through ``harness.default_config`` and ``harness.run_experiment``, the
calls behind ``rates <experiment>``. One iteration runs the whole
sequence at one experiment seed. ``expected`` names the traced functions
that must see at least one call in the workload, one or more per layer
the workload is meant to exercise.

This module imports neither numpy nor mfclab, so ``prepare`` can pin the
BLAS thread count before either is loaded.
"""

from __future__ import annotations

import contextlib
import copy
import io
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    why: str
    steps: tuple  # ((experiment, overrides), ...)
    expected: tuple  # traced span names that must be called


WORKLOADS = {
    "mfc_gap": Workload(
        why="mfc-gap at reduced size: Picard MFC solves (HJB + Fokker-Planck) "
            "and the V^N Monte Carlo; no regularize or transport work",
        steps=(("mfc-gap", {"n_pairs": 4, "n_list": [8, 16, 32],
                            "mc_replications": 40, "fp_trials": 6}),),
        expected=("pde.solve_mfc", "pde.solve_hjb_semilinear",
                  "pde.solve_fokker_planck", "particle.estimate_vn_upper",
                  "spectral.eval_modes", "spectral.to_density",
                  "spectral.empirical", "spectral.hs_norm",
                  "functionals.MeasureFunctional.derivative",
                  "harness.run_experiment", "harness.runner.mfc-gap"),
    ),
    "supconv": Workload(
        why="supconv-check at reduced size: sup-convolution ascent, simplex "
            "projections and the fixed-point maximizer; no pde work",
        steps=(("supconv-check", {"cutoff": 3, "n_sandwich": 1,
                                  "n_monotone": 5, "n_instances_fp": 3}),),
        expected=("regularize.sup_convolve", "regularize.simplex_project",
                  "regularize.fixed_point_maximizer",
                  "functionals.MeasureFunctional.fast_value",
                  "functionals.MeasureFunctional.fast_derivative_coeffs",
                  "spectral.hs_norm", "harness.run_experiment",
                  "harness.runner.supconv-check"),
    ),
    "rates_light": Workload(
        why="empirical-w1, cole-hopf, vanishing-viscosity, coupon and "
            "project-check in sequence: exact W1 routes, viscous HJ and "
            "sampling; no MFC solves",
        steps=(("empirical-w1", {"reps_d1": 50, "reps_d3": 12}),
               ("cole-hopf", {"replications": 24}),
               ("vanishing-viscosity", {"grid_points": 4001}),
               ("coupon", {"trials": 1000}),
               ("project-check", {})),
        expected=("transport.w1_discrete", "transport.w1_circle",
                  "pde.solve_viscous_hj", "particle.cole_hopf_vn",
                  "particle.empirical_w1_rate", "particle.coupon_occupancy",
                  "particle.occupancy_log_tail",
                  "functionals.laplacian_residual", "harness.run_experiment",
                  "harness.runner.empirical-w1", "harness.runner.cole-hopf",
                  "harness.runner.vanishing-viscosity",
                  "harness.runner.coupon", "harness.runner.project-check"),
    ),
}


def prepare(root: Path):
    """Pin BLAS to one thread, put ``root/src`` first on the import path and
    return ``mfclab.harness``; None when ``root`` holds no mfclab sources.

    ``git describe`` in run_experiment may not look above ``root``.
    """
    if not (root / "src" / "mfclab" / "__init__.py").is_file():
        return None
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["GIT_CEILING_DIRECTORIES"] = str(root.resolve().parent)
    sys.path.insert(0, str(root / "src"))
    from mfclab import harness

    return harness


@dataclass(frozen=True)
class Step:
    experiment: str
    rc: int
    csv: str
    failed_checks: list
    wall_s: float
    cpu_s: float


def make_configs(harness, workload: Workload, seed: int, out_dir: Path):
    return [harness.default_config(exp, seed=seed, out_dir=str(out_dir),
                                   **copy.deepcopy(overrides))
            for exp, overrides in workload.steps]


def run_iteration(harness, workload: Workload, seed: int,
                  out_dir: Path) -> list:
    """Run the workload's experiments once at ``seed``; one Step each."""
    steps = []
    for cfg in make_configs(harness, workload, seed, out_dir):
        log = io.StringIO()
        w0, c0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(log):
            rc = harness.run_experiment(cfg)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        csv = (out_dir / f"{cfg.experiment}-results.csv").read_text()
        fails = [line for line in log.getvalue().splitlines()
                 if line.startswith("[FAIL]")]
        steps.append(Step(cfg.experiment, rc, csv, fails, wall, cpu))
    return steps
