"""Acceptance gate: every headline criterion at its stated tolerance.

Each experiment runs once (module-scoped, default parameters, seed 0) and
its checks are asserted criterion by criterion, one printed pass/fail line
per criterion. Stated runtime budgets are enforced on the wall clock of
the experiment that carries the criterion.
"""

import time

import pytest

from mfclab.harness import EXPERIMENTS, default_config

SEED = 0

_BUDGETS_S = {
    "empirical-w1": 300.0,        # criterion 1: <= 5 min total
    "vanishing-viscosity": 120.0,  # criterion 2: <= 2 min
    "cole-hopf": 600.0,            # criterion 3: <= 10 min
    "supconv-check": 180.0,        # criterion 5: <= 3 min
}


class _Results:
    def __init__(self):
        self.cache = {}

    def get(self, name):
        if name not in self.cache:
            cfg = default_config(name, seed=SEED)
            t0 = time.perf_counter()
            cells, fits, checks = EXPERIMENTS[name].runner(
                cfg.params, cfg.seed)
            wall = time.perf_counter() - t0
            self.cache[name] = {"cells": cells, "fits": fits,
                                "checks": checks, "wall": wall}
        return self.cache[name]


@pytest.fixture(scope="module")
def results():
    return _Results()


def _report(criterion: str, checks: list, wall: float | None = None,
            budget: float | None = None) -> None:
    ok = all(c["passed"] for c in checks)
    if budget is not None and wall is not None:
        ok = ok and wall <= budget
    status = "PASS" if ok else "FAIL"
    extra = f" [{wall:.0f}s <= {budget:.0f}s]" if budget else ""
    print(f"[{status}] {criterion}{extra}")
    for c in checks:
        mark = "ok" if c["passed"] else "FAILED"
        print(f"    {mark}: {c['name']} -> {c['observed']}")
    assert ok, f"{criterion}: " + "; ".join(
        c["name"] for c in checks if not c["passed"])


def _named(checks, *needles):
    picked = [c for c in checks if any(s in c["name"] for s in needles)]
    assert picked, f"no checks matched {needles}"
    return picked


def test_criterion_01_empirical_d1_rate(results):
    r = results.get("empirical-w1")
    _report("criterion 1: empirical d_1 rates (d=1 slope -0.5 +- 0.07, "
            "d=3 slope -1/3 +- 0.08, <= 5 min)",
            r["checks"], r["wall"], _BUDGETS_S["empirical-w1"])


def test_criterion_02_vanishing_viscosity(results):
    r = results.get("vanishing-viscosity")
    _report("criterion 2: vanishing viscosity (kink slope in [0.45, 1.05], "
            "smooth slope >= 0.85, <= 2 min)",
            r["checks"], r["wall"], _BUDGETS_S["vanishing-viscosity"])


def test_criterion_03_cole_hopf_lower_bound(results):
    r = results.get("cole-hopf")
    _report("criterion 3: Cole-Hopf V^N positive with exponent >= -0.65, "
            "<= 10 min", r["checks"], r["wall"], _BUDGETS_S["cole-hopf"])


def test_criterion_04_coupon_collector(results):
    r = results.get("coupon")
    _report("criterion 4: coupon occupancy 0.6321 +- 0.01 and "
            "B_{p,N} tail decay", r["checks"])


def test_criterion_05_supconv_suite(results):
    r = results.get("supconv-check")
    checks = _named(r["checks"], "linear:", "cylindrical:", "distance-cost:")
    _report("criterion 5: sup-convolution sandwich/gradient/monotonicity "
            "on 3 benchmarks, <= 3 min",
            checks, r["wall"], _BUDGETS_S["supconv-check"])


def test_criterion_06_fixed_point(results):
    r = results.get("supconv-check")
    checks = _named(r["checks"], "fixed point", "fixed-point")
    _report("criterion 6: fixed-point maximizer agreement (1e-6) and "
            "linear-in-eps L-inf distance", checks)


def test_criterion_07_value_regularity(results):
    r = results.get("mfc-gap")
    checks = _named(r["checks"], "U Lipschitz", "U semi-concavity")
    _report("criterion 7: U Lipschitz/semi-concavity fits finite and "
            "stable under sample doubling", checks)


def test_criterion_08_convex_gap(results):
    r = results.get("mfc-gap")
    checks = _named(r["checks"], "convex ordering", "gap slope")
    _report("criterion 8: convex ordering within 3 stderr and gap slope "
            "<= -0.4", checks)


def test_criterion_09_projection_residual(results):
    r = results.get("project-check")
    _report("criterion 9: projection residual bounded uniformly in N, "
            "correction slope -2 +- 0.2", r["checks"])


def test_criterion_10_fokker_planck_stability(results):
    r = results.get("mfc-gap")
    checks = _named(r["checks"], "Fokker-Planck stability")
    _report("criterion 10: Fokker-Planck H^{-s} stability constant with "
            "no outliers", checks)
