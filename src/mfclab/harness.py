"""Experiment orchestration: sweeps, rate fits, CSV/JSON reports.

Every experiment is a named runner producing cells (CSV rows), log-log
rate fits, and pass/fail checks against declared thresholds. Outputs are
deterministic for a fixed (config, seed): per-cell wall times go to a
separate timings.csv that is excluded from the byte-identity contract.
"""

from __future__ import annotations

import csv
import json
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DegeneratePoints

__all__ = [
    "RateFit",
    "ExperimentConfig",
    "fit_loglog",
    "run_experiment",
    "load_config",
    "default_config",
    "EXPERIMENTS",
]


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateFit:
    """OLS fit of log y against log x with a slope standard error."""

    slope: float
    intercept: float
    stderr_slope: float
    r_squared: float
    points: tuple

    def refit(self) -> "RateFit":
        return fit_loglog([(np.exp(lx), np.exp(ly)) for lx, ly in self.points])


def fit_loglog(points: Sequence[tuple]) -> RateFit:
    """Least squares on (log x, log y); needs >= 3 points with x-spread."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise DegeneratePoints(f"need >= 3 points, got {len(pts)}")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise DegeneratePoints("fit_loglog needs strictly positive data")
    lx = np.log([p[0] for p in pts])
    ly = np.log([p[1] for p in pts])
    if np.ptp(lx) < 1e-12:
        raise DegeneratePoints("identical x values")
    n = len(pts)
    vx = lx - lx.mean()
    slope = float(np.dot(vx, ly - ly.mean()) / np.dot(vx, vx))
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    dof = max(n - 2, 1)
    var_slope = float(np.dot(resid, resid) / dof / np.dot(vx, vx))
    ss_tot = float(np.dot(ly - ly.mean(), ly - ly.mean()))
    r2 = 1.0 - float(np.dot(resid, resid)) / ss_tot if ss_tot > 0 else 1.0
    return RateFit(slope, intercept, np.sqrt(var_slope), r2,
                   tuple(zip(lx.tolist(), ly.tolist())))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    experiment: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    out_dir: str = "rates-out"
    strict: bool = False

    def validated(self) -> "ExperimentConfig":
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; "
                f"known: {sorted(EXPERIMENTS)}")
        seed = self.seed
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
        if not isinstance(self.strict, bool):
            raise ConfigError(
                f"strict must be true or false, got {self.strict!r}")
        defaults = EXPERIMENTS[self.experiment].defaults
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown keys for {self.experiment}: "
                              f"{sorted(unknown)}")
        for key, value in self.params.items():
            if not _same_type(value, defaults[key]):
                raise ConfigError(
                    f"{self.experiment} key {key} = {value!r} does not "
                    f"match the type of its default {defaults[key]!r}")
        merged = dict(defaults)
        merged.update(self.params)
        return ExperimentConfig(self.experiment, merged, self.seed,
                                self.out_dir, self.strict)


def _same_type(value, default) -> bool:
    """Whether a [params] value has the type of its default: an int takes
    an int (not a bool), a float an int or a float, a bool only a bool, and
    a list a list whose items follow the rule for the default's items."""
    if isinstance(default, bool) or isinstance(value, bool):
        return isinstance(default, bool) and isinstance(value, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, list):
        return isinstance(value, list) and all(
            _same_type(item, default[0]) for item in value)
    return isinstance(value, type(default))


def default_config(experiment: str, **overrides) -> ExperimentConfig:
    cfg = ExperimentConfig(experiment=experiment)
    for key in ("seed", "out_dir", "strict"):
        if key in overrides:
            setattr(cfg, key, overrides.pop(key))
    cfg.params.update(overrides)
    return cfg.validated()


def _parse_scalar(text: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, ValueError):
        return text


def load_config(path: str) -> ExperimentConfig:
    """Read a config file: INI-style sections or the JSON equivalent.

    Sections: [experiment] (name, seed, out_dir, strict) and
    [params] (experiment-specific keys; values parsed as JSON scalars or
    lists). A top-level JSON object uses the same two keys.
    """
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        obj = json.loads(text)
        exp = obj.get("experiment", {})
        params = obj.get("params", {})
    else:
        import configparser

        parser = configparser.ConfigParser()
        parser.read_string(text)
        if "experiment" not in parser:
            raise ConfigError("config needs an [experiment] section")
        exp = {k: _parse_scalar(v) for k, v in parser["experiment"].items()}
        params = {k: _parse_scalar(v) for k, v in parser["params"].items()} \
            if "params" in parser else {}
    known = {"name", "seed", "out_dir", "strict"}
    unknown = set(exp) - known
    if unknown:
        raise ConfigError(f"unknown [experiment] keys: {sorted(unknown)}")
    if "name" not in exp:
        raise ConfigError("[experiment] needs a name")
    cfg = ExperimentConfig(
        experiment=exp["name"], params=params, seed=exp.get("seed", 0),
        out_dir=str(exp.get("out_dir", "rates-out")),
        strict=exp.get("strict", False))
    return cfg.validated()


# ---------------------------------------------------------------------------
# experiment plumbing
# ---------------------------------------------------------------------------

@dataclass
class Experiment:
    name: str
    defaults: dict
    runner: Callable  # (params, seed) -> (cells, fits, checks)


def _check(name: str, passed: bool, observed, threshold) -> dict:
    return {"name": name, "passed": bool(passed),
            "observed": observed, "threshold": threshold}


def _fit_dict(label: str, fit: RateFit) -> dict:
    return {"label": label, "slope": fit.slope, "intercept": fit.intercept,
            "stderr_slope": fit.stderr_slope, "r_squared": fit.r_squared,
            "points": list(fit.points)}


def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10, check=False)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def run_experiment(cfg: ExperimentConfig) -> int:
    """Run the sweep, write results.csv / timings.csv / summary.json.

    Exit code 0 iff every declared check passes and, under strict mode,
    no cell has an ``error``. Only an error that the runner records in a
    cell counts; an exception from the runner propagates.
    """
    cfg = cfg.validated()
    exp = EXPERIMENTS[cfg.experiment]
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t_start = time.perf_counter()
    cells, fits, checks = exp.runner(cfg.params, cfg.seed)
    wall = time.perf_counter() - t_start

    failures = [c for c in cells if c.get("error")]
    # csv quotes a field only when it holds a comma, quote or line break
    with open(out / f"{cfg.experiment}-results.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["experiment", "cell", "params", "estimate",
                         "stderr", "seed", "error"])
        for idx, cell in enumerate(cells):
            params = ";".join(f"{k}={_fmt(v)}" for k, v in
                              sorted(cell.get("params", {}).items()))
            writer.writerow([
                cfg.experiment, str(idx), params,
                _fmt(cell.get("estimate", "")), _fmt(cell.get("stderr", "")),
                str(cell.get("seed", cfg.seed)), str(cell.get("error", "")),
            ])

    (out / f"{cfg.experiment}-timings.csv").write_text(
        "experiment,total_wall_s\n" f"{cfg.experiment},{wall:.3f}\n")

    summary = {
        "experiment": cfg.experiment,
        "git_describe": _git_describe(),
        "cells": cells,
        "fits": fits,
        "checks": checks,
    }
    (out / f"{cfg.experiment}-summary.json").write_text(
        json.dumps(summary, indent=2, default=_json_default) + "\n")
    _emit_plot_script(out)

    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"[{status}] {cfg.experiment}: {c['name']} "
              f"(observed {c['observed']}, threshold {c['threshold']})")
    ok = all(c["passed"] for c in checks)
    if cfg.strict and failures:
        ok = False
    return 0 if ok else 1


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Generic log-log plotter for rates CSV output (requires matplotlib).\"\"\"
import csv, json, sys
from pathlib import Path

import matplotlib.pyplot as plt

summary = json.loads(Path(sys.argv[1]).read_text())
fig, ax = plt.subplots()
for fit in summary.get("fits", []):
    xs = [p[0] for p in fit["points"]]
    ys = [p[1] for p in fit["points"]]
    ax.plot(xs, ys, "o-", label=f"{fit['label']} (slope {fit['slope']:.3f})")
ax.set_xlabel("log x")
ax.set_ylabel("log y")
ax.legend()
fig.savefig(Path(sys.argv[1]).with_suffix(".png"), dpi=150)
print("wrote", Path(sys.argv[1]).with_suffix(".png"))
"""


def _emit_plot_script(out: Path) -> None:
    path = out / "plot_rates.py"
    if not path.exists():
        path.write_text(_PLOT_SCRIPT)


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

def _run_empirical_w1(params, seed):
    from .particle import empirical_w1_rate

    cells, fits, checks = [], [], []
    # (dim, N list, replications, the rate -1/d, its tolerance)
    specs = []
    if params["run_d1"]:
        specs.append((1, params["n_list_d1"], params["reps_d1"], -0.5, 0.07))
    if params["run_d3"]:
        specs.append((3, params["n_list_d3"], params["reps_d3"], -1.0 / 3.0,
                      0.08))
    for dim, n_list, reps, rate, tol in specs:
        lo, hi = rate - tol, rate + tol
        rows = empirical_w1_rate(dim, n_list, reps, seed=seed)
        for n_pts, mean, stderr, qerr in rows:
            cells.append({"params": {"d": dim, "N": n_pts, "qerr": qerr},
                          "estimate": mean, "stderr": stderr, "seed": seed})
        fit = fit_loglog([(float(n_pts), mean) for n_pts, mean, _, _ in rows])
        fits.append(_fit_dict(f"empirical-w1-d{dim}", fit))
        checks.append(_check(f"d={dim} slope in [{lo:.3f}, {hi:.3f}]",
                             lo <= fit.slope <= hi, fit.slope, (lo, hi)))
    return cells, fits, checks


def _run_vanishing_viscosity(params, seed):
    from .pde import solve_viscous_hj

    cells, fits, checks = [], [], []
    half_width = params["half_width"]
    horizon = params["horizon"]
    n = params["grid_points"]
    center = params["error_window"]

    def kink_terminal(x):
        return np.minimum(np.abs(x), params["kink_clip"])

    def smooth_terminal(x):
        return 0.5 * x ** 2

    cases = [
        ("lipschitz-kink", kink_terminal, params["nus_kink"],
         (0.45, 1.05), 1.0 + params["kink_clip"]),
        ("smooth-convex", smooth_terminal, params["nus_smooth"],
         None, 1.1 * half_width),
    ]
    for label, terminal, nus, window, theta in cases:
        ref = solve_viscous_hj(terminal, nu=0.0, horizon=horizon,
                               theta=theta, half_width=half_width, n=n)
        mask = np.abs(ref.x) <= center
        errs = []
        for nu in nus:
            sol = solve_viscous_hj(terminal, nu=nu, horizon=horizon,
                                   theta=theta, half_width=half_width, n=n)
            err = float(np.abs(sol.values - ref.values)[mask].max())
            errs.append(err)
            cells.append({"params": {"case": label, "nu": nu},
                          "estimate": err, "stderr": 0.0, "seed": seed})
        fit = fit_loglog(list(zip(nus, errs)))
        fits.append(_fit_dict(f"vanishing-viscosity-{label}", fit))
        if window is not None:
            lo, hi = window
            checks.append(_check(f"{label} slope in [{lo}, {hi}]",
                                 lo <= fit.slope <= hi, fit.slope, (lo, hi)))
        else:
            lo = 0.85
            checks.append(_check(f"{label} slope >= {lo}",
                                 fit.slope >= lo, fit.slope, lo))
    return cells, fits, checks


def _run_cole_hopf(params, seed):
    from .particle import ParticleRunConfig, cole_hopf_vn

    cells, fits, checks = [], [], []
    dim = params["dim"]
    horizon = params["horizon"]
    pts = []
    all_positive = True
    for n_pts in params["n_list"]:
        cfg = ParticleRunConfig(n_particles=n_pts,
                                replications=params["replications"],
                                seed=seed)
        est, diag = cole_hopf_vn(horizon, dim, cfg)
        # every distance is exact; "approx" stays because the benchmark's
        # reference rows (perfbench/reference.json) match params exactly
        cells.append({"params": {"N": n_pts, "d": dim, "approx": False,
                                 "qerr": diag["quantization_error"]},
                      "estimate": est.mean, "stderr": est.stderr,
                      "seed": seed})
        all_positive &= est.mean > 0
        pts.append((float(n_pts), max(est.mean, 1e-300)))
    fit = fit_loglog(pts)
    fits.append(_fit_dict(f"cole-hopf-d{dim}", fit))
    lo = -0.65
    checks.append(_check(f"V^N exponent >= {lo}", fit.slope >= lo,
                         fit.slope, lo))
    checks.append(_check("all values strictly positive", all_positive,
                         all_positive, True))
    return cells, fits, checks


def _run_coupon(params, seed):
    from .particle import coupon_occupancy, occupancy_log_tail

    cells, fits, checks = [], [], []
    n_main = params["n_cells"]
    res = coupon_occupancy(n_main, params["trials"], params["p"], seed=seed)
    oracle = 1.0 - (1.0 - 1.0 / n_main) ** n_main
    cells.append({"params": {"N": n_main, "quantity": "occupied_fraction"},
                  "estimate": res.occupied_fraction.mean,
                  "stderr": res.occupied_fraction.stderr, "seed": seed})
    tol = 0.01
    checks.append(_check(
        f"occupied fraction within {tol} of exact 1-(1-1/N)^N",
        abs(res.occupied_fraction.mean - oracle) <= tol,
        res.occupied_fraction.mean, oracle))

    p = params["p"]
    log_tails = []
    for n_cells in params["n_list_tail"]:
        lt = occupancy_log_tail(n_cells, p)
        log_tails.append((n_cells, lt))
        cells.append({"params": {"N": n_cells, "quantity": "log_prob_Bpn"},
                      "estimate": lt, "stderr": 0.0, "seed": seed})
        # same arguments and substream as the main run, so the same result
        mc = res if n_cells == n_main else coupon_occupancy(
            n_cells, params["trials"], p, seed=seed)
        if mc.prob_bpn.mean > 0:
            consistent = abs(np.log(mc.prob_bpn.mean) - lt) <= 1.5
            checks.append(_check(
                f"MC nonzero counts at N={n_cells} consistent with exact",
                consistent, float(np.log(mc.prob_bpn.mean)), lt))
    decreasing = all(b[1] < a[1] for a, b in zip(log_tails, log_tails[1:]))
    checks.append(_check("P[B_p,N] strictly decreasing in N", decreasing,
                         [t for _, t in log_tails], "monotone"))
    slopes = [(b[1] - a[1]) / (b[0] - a[0])
              for a, b in zip(log_tails, log_tails[1:])]
    checks.append(_check("log P slope <= -1e-3 per unit N",
                         all(s <= -1e-3 for s in slopes), slopes, -1e-3))
    cp = (1.0 - p) ** 2 / 8.0 - p
    bound_ok = all(lt <= -cp * n_cells + 1e-9
                   for n_cells, lt in log_tails)
    checks.append(_check("log P below the -c(p) N bound, c(p)=(1-p)^2/8 - p",
                         bound_ok, [t for _, t in log_tails],
                         [-cp * n for n, _ in log_tails]))
    return cells, fits, checks


def _run_supconv(params, seed):
    from . import acceptance_suites

    return acceptance_suites.supconv_suite(params, seed)


def _run_mfc_gap(params, seed):
    from . import acceptance_suites

    return acceptance_suites.mfc_gap_suite(params, seed)


def _run_project_check(params, seed):
    from . import acceptance_suites

    return acceptance_suites.projection_suite(params, seed)


EXPERIMENTS = {
    "empirical-w1": Experiment(
        "empirical-w1",
        defaults={
            "run_d1": True, "run_d3": True,
            "n_list_d1": [16, 32, 64, 128, 256, 512, 1024, 2048, 4096],
            "reps_d1": 200,
            "n_list_d3": [64, 125, 216, 512, 1000], "reps_d3": 50,
        },
        runner=_run_empirical_w1),
    "vanishing-viscosity": Experiment(
        "vanishing-viscosity",
        defaults={
            "half_width": 3.0, "horizon": 0.4, "grid_points": 24001,
            "error_window": 1.0, "kink_clip": 0.8,
            "nus_kink": [0.1, 0.0316227766, 0.01, 0.0031622777, 0.001],
            "nus_smooth": [0.1, 0.0316227766, 0.01],
        },
        runner=_run_vanishing_viscosity),
    "cole-hopf": Experiment(
        "cole-hopf",
        defaults={
            "dim": 2, "n_list": [16, 64, 256, 1024], "replications": 48,
            "horizon": 0.25,
        },
        runner=_run_cole_hopf),
    "coupon": Experiment(
        "coupon",
        defaults={
            "n_cells": 10000, "trials": 2000, "p": 0.05,
            "n_list_tail": [100, 1000, 10000],
        },
        runner=_run_coupon),
    "supconv-check": Experiment(
        "supconv-check",
        defaults={
            "cutoff": 8, "sobolev_order": 2.0, "eps_list": [0.02, 0.05],
            "n_sandwich": 8, "n_monotone": 100, "n_instances_fp": 20,
        },
        runner=_run_supconv),
    "mfc-gap": Experiment(
        "mfc-gap",
        defaults={
            "cutoff": 5, "n_pairs": 50, "n_list": [8, 16, 32, 64, 128, 256],
            "mc_replications": 400, "horizon": 0.3,
            "horizon_regularity": 0.06, "fp_trials": 50,
        },
        runner=_run_mfc_gap),
    "project-check": Experiment(
        "project-check",
        defaults={
            "cutoff": 8, "n_list": [4, 8, 16, 32, 64, 128, 256],
        },
        runner=_run_project_check),
}
