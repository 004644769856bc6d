"""The benchmark's own tests: python3 -m pytest perfbench -q (a few seconds)."""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from metrics import END_TO_END, PER_LAYER
from reference import compare
from tracer import Tracer
from workloads import WORKLOADS, Workload, prepare, run_iteration

ROOT = Path(__file__).resolve().parents[1]
harness = prepare(ROOT)

# small versions of the rates_light experiments, a few seconds in all
TINY = Workload(
    why="tiny",
    steps=(("empirical-w1", {"reps_d1": 4, "reps_d3": 2,
                             "n_list_d1": [16, 32, 64],
                             "n_list_d3": [64, 125, 216]}),
           ("cole-hopf", {"replications": 4, "n_list": [16, 64, 256]}),
           ("vanishing-viscosity", {"grid_points": 801,
                                    "nus_kink": [0.1, 0.0316227766, 0.01],
                                    "nus_smooth": [0.1, 0.0316227766,
                                                   0.01]}),
           ("coupon", {"n_cells": 300, "trials": 50,
                       "n_list_tail": [50, 100, 200]}),
           ("project-check", {})),
    expected=())


def test_results_csv_identical_with_tracing(tmp_path):
    plain = run_iteration(harness, TINY, 3, tmp_path / "plain")
    tracer = Tracer()
    with tracer:
        traced = run_iteration(harness, TINY, 3, tmp_path / "traced")
    assert [s.csv for s in plain] == [s.csv for s in traced]
    calls = tracer.summary()["functions"]
    for span in ("transport.w1_discrete", "pde.solve_viscous_hj",
                 "particle.cole_hopf_vn", "harness.runner.coupon"):
        assert calls[span]["calls"] > 0


def test_every_binding_is_wrapped_and_restored():
    from mfclab import acceptance_suites, particle, pde

    original = pde.solve_mfc
    with Tracer():
        for mod in (pde, particle, acceptance_suites):
            assert mod.solve_mfc.__wrapped__ is original
        assert harness.EXPERIMENTS["mfc-gap"].runner.__name__ == \
            "_run_mfc_gap"
        assert hasattr(harness.EXPERIMENTS["mfc-gap"].runner, "__wrapped__")
    for mod in (pde, particle, acceptance_suites):
        assert mod.solve_mfc is original
    assert not hasattr(harness.EXPERIMENTS["mfc-gap"].runner, "__wrapped__")


def test_self_time_subtracts_children():
    tracer = Tracer()
    inner = tracer._wrap("x.inner", "x", lambda: time.sleep(0.02))

    def body():
        inner()
        inner()
        time.sleep(0.01)

    tracer._wrap("x.outer", "x", body)()
    fns = tracer.summary()["functions"]
    assert fns["x.inner"]["calls"] == 2
    assert fns["x.outer"]["self_s"] == pytest.approx(
        fns["x.outer"]["total_s"] - fns["x.inner"]["total_s"])
    assert 0.009 < fns["x.outer"]["self_s"] < 0.03


def test_compare_tolerance():
    ref = ["experiment,cell,params,estimate,stderr,seed,error",
           "coupon,0,N=100;q=a,0.5,0.01,0,"]
    same = "\n".join(ref) + "\n"
    assert compare(same, ref) == []
    assert compare(same.replace("0.5,", "0.5000000001,"), ref) == []
    assert compare(same.replace("0.5,", "0.5001,"), ref)
    assert compare(same.replace("N=100", "N=101"), ref)
    assert compare(ref[0] + "\n", ref)


def test_benchmark_json_matches_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == PER_LAYER
