"""Experiment orchestration: sweeps, rate fits, CSV/JSON reports.

Every experiment is a named runner producing cells (CSV rows), log-log
rate fits, and pass/fail checks against declared thresholds. Outputs are
deterministic for a fixed (config, seed): per-cell wall times go to a
separate timings.csv that is excluded from the byte-identity contract.
"""

from __future__ import annotations

import csv
import functools
import json
import subprocess
import time
from dataclasses import dataclass, field, fields
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
        if not isinstance(self.experiment, str) \
                or self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; "
                f"known: {sorted(EXPERIMENTS)}")
        if not isinstance(self.out_dir, str):
            raise ConfigError(
                f"out_dir must be a string, got {self.out_dir!r}")
        seed = self.seed
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
        if not isinstance(self.strict, bool):
            raise ConfigError(
                f"strict must be true or false, got {self.strict!r}")
        spec = EXPERIMENTS[self.experiment]
        unknown = set(self.params) - set(spec.params)
        if unknown:
            raise ConfigError(f"unknown keys for {self.experiment}: "
                              f"{sorted(unknown)}")
        for key, value in self.params.items():
            default, (holds, need) = spec.params[key]
            if not _same_type(value, default):
                raise ConfigError(
                    f"{self.experiment} key {key} = {value!r} does not "
                    f"match the type of its default {default!r}")
            entries = value if isinstance(value, list) else [value]
            if isinstance(value, list) and (len(value) < 3
                                            or len(set(value)) < len(value)):
                raise ConfigError(
                    f"{self.experiment} key {key} = {value!r} is a sweep, "
                    "which needs 3 entries and no repeated entry")
            if not all(map(holds, entries)):
                raise ConfigError(
                    f"{self.experiment} key {key} = {value!r} needs every "
                    f"entry {need}")
        merged = spec.defaults
        merged.update(self.params)
        return ExperimentConfig(self.experiment, merged, self.seed,
                                self.out_dir, self.strict)


def _same_type(value, default) -> bool:
    """Whether a [params] value has the type of its default: an int takes
    an int (not a bool), a float an int or a float, and a list a list whose
    items follow the rule for the default's items. No key takes a bool."""
    if isinstance(value, bool):
        return False
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, list):
        return isinstance(value, list) and all(
            _same_type(item, default[0]) for item in value)
    return isinstance(value, type(default))


# the run settings: every field but the experiment and its [params]
_SETTINGS = {f.name for f in fields(ExperimentConfig)} - {"experiment",
                                                         "params"}


def default_config(experiment: str, **overrides) -> ExperimentConfig:
    settings = {key: overrides.pop(key) for key in _SETTINGS & set(overrides)}
    return ExperimentConfig(experiment, overrides, **settings).validated()


def _parse_scalar(text: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, ValueError):
        return text


def load_config(path: str) -> ExperimentConfig:
    """Read a config file: INI-style sections or the JSON equivalent.

    Sections: [experiment] (name, seed, out_dir, strict) and
    [params] (experiment-specific keys; values parsed as JSON scalars or
    lists). A top-level JSON object uses the same two keys, each holding
    an object. A file that cannot be read or parsed, or whose two keys are
    not tables, is a ConfigError naming the file.
    """
    import configparser  # only config files need it, not the start-up

    try:
        text = Path(path).read_text()
        if text.lstrip().startswith("{"):
            obj = json.loads(text)
            exp = obj.get("experiment", {})
            params = obj.get("params", {})
        else:
            parser = configparser.ConfigParser()
            parser.read_string(text)
            if "experiment" not in parser:
                raise ConfigError(f"{path}: config needs an [experiment] "
                                  "section")
            exp = {k: _parse_scalar(v)
                   for k, v in parser["experiment"].items()}
            params = {k: _parse_scalar(v)
                      for k, v in parser["params"].items()} \
                if "params" in parser else {}
    except (OSError, ValueError, configparser.Error) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if not isinstance(exp, dict) or not isinstance(params, dict):
        raise ConfigError(f"{path}: experiment and params must each be a "
                          "table of keys")
    unknown = set(exp) - _SETTINGS - {"name"}
    if unknown:
        raise ConfigError(f"unknown [experiment] keys: {sorted(unknown)}")
    if "name" not in exp:
        raise ConfigError("[experiment] needs a name")
    return ExperimentConfig(exp.pop("name"), params, **exp).validated()


# ---------------------------------------------------------------------------
# experiment plumbing
# ---------------------------------------------------------------------------

@dataclass
class Experiment:
    """A runner and its [params] keys. Each key maps to its default and
    one rule, ``(test, what it asks)``, that every entry must pass. A list
    key is a sweep over N or nu: it needs 3 entries and no repeated one,
    since a repeated entry reproduces its cell (every substream is keyed
    by seed, N and rep, and every solve is deterministic)."""

    runner: Callable  # (params, seed) -> (cells, fits, checks)
    params: dict  # key -> (default, (test, what it asks))

    @property
    def defaults(self) -> dict:
        return {key: default for key, (default, _) in self.params.items()}


def _check(name: str, passed: bool, observed, threshold) -> dict:
    return {"name": name, "passed": bool(passed),
            "observed": observed, "threshold": threshold}


def _fit_dict(label: str, fit: RateFit) -> dict:
    return {"label": label, "slope": fit.slope, "intercept": fit.intercept,
            "stderr_slope": fit.stderr_slope, "r_squared": fit.r_squared,
            "points": list(fit.points)}


@functools.cache
def _git_describe() -> str:
    """The source version, asked of git once per process: the code that a
    process has imported cannot change under it."""
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

    Exit code 0 iff the run records a check, every check passes and, under
    strict mode, no cell has an ``error``. Only an error that the runner
    records in a cell counts; an exception from the runner propagates.
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
    if not checks:
        print(f"[FAIL] {cfg.experiment}: the run recorded no check")
    ok = bool(checks) and all(c["passed"] for c in checks)
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
    specs = [(1, params["n_list_d1"], params["reps_d1"], -0.5, 0.07),
             (3, params["n_list_d3"], params["reps_d3"], -1.0 / 3.0, 0.08)]
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
    # window [-3, 3], horizon, error window |x| <= 1, clip of the kink
    half_width, horizon, center, clip = 3.0, 0.4, 1.0, 0.8
    n = params["grid_points"]

    def kink_terminal(x):
        return np.minimum(np.abs(x), clip)

    def smooth_terminal(x):
        return 0.5 * x ** 2

    cases = [
        ("lipschitz-kink", kink_terminal, params["nus_kink"],
         (0.45, 1.05), 1.0 + clip),
        ("smooth-convex", smooth_terminal, params["nus_smooth"],
         None, 1.1 * half_width),
    ]
    all_positive = True
    for label, terminal, nus, window, theta in cases:
        ref = solve_viscous_hj(terminal, nu=0.0, horizon=horizon,
                               theta=theta, half_width=half_width, n=n)
        mask = np.abs(ref.x) <= center
        errs = []
        for nu in nus:
            sol = solve_viscous_hj(terminal, nu=nu, horizon=horizon,
                                   theta=theta, half_width=half_width, n=n)
            err = float(np.abs(sol.values - ref.values)[mask].max())
            all_positive &= err > 0
            errs.append(max(err, 1e-300))
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
    # a zero error (a grid so coarse that nu does not show) is fitted at
    # 1e-300 and fails this check
    checks.append(_check("all errors strictly positive", all_positive,
                         all_positive, True))
    return cells, fits, checks


def _run_cole_hopf(params, seed):
    from .particle import ParticleRunConfig, cole_hopf_vn

    cells, fits, checks = [], [], []
    dim = params["dim"]
    horizon = 0.25  # at least 1/(2 pi), as cole_hopf_vn requires
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
    p = 0.05  # small enough that c(p) below is positive: a live bound
    res = coupon_occupancy(n_main, params["trials"], p, seed=seed)
    oracle = 1.0 - (1.0 - 1.0 / n_main) ** n_main
    cells.append({"params": {"N": n_main, "quantity": "occupied_fraction"},
                  "estimate": res.occupied_fraction.mean,
                  "stderr": res.occupied_fraction.stderr, "seed": seed})
    tol = 0.01
    checks.append(_check(
        f"occupied fraction within {tol} of exact 1-(1-1/N)^N",
        abs(res.occupied_fraction.mean - oracle) <= tol,
        res.occupied_fraction.mean, oracle))

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


def _at_least(low: int) -> tuple:
    return (lambda v: v >= low), f">= {low}"


_AT_LEAST_1 = _at_least(1)
_POSITIVE = (lambda nu: nu > 0), "> 0"  # the nu sweeps are fitted in log nu
# the d = 3 uniform rate lays N points on a cubic lattice
_CUBE = (lambda n: n >= 1 and round(n ** (1 / 3)) ** 3 == n,
         "a perfect cube >= 1")

# A size key's rule is its smallest usable value.
EXPERIMENTS = {
    "empirical-w1": Experiment(_run_empirical_w1, {
        "n_list_d1": ([16, 32, 64, 128, 256, 512, 1024, 2048, 4096],
                      _AT_LEAST_1),
        "reps_d1": (200, _AT_LEAST_1),
        "n_list_d3": ([64, 125, 216, 512, 1000], _CUBE),
        "reps_d3": (50, _AT_LEAST_1),
    }),
    "vanishing-viscosity": Experiment(_run_vanishing_viscosity, {
        # a grid node in the error window |x| <= 1
        "grid_points": (24001, _at_least(3)),
        "nus_kink": ([0.1, 0.0316227766, 0.01, 0.0031622777, 0.001],
                     _POSITIVE),
        "nus_smooth": ([0.1, 0.0316227766, 0.01], _POSITIVE),
    }),
    "cole-hopf": Experiment(_run_cole_hopf, {
        "dim": (2, _AT_LEAST_1),
        "n_list": ([16, 64, 256, 1024], _AT_LEAST_1),
        "replications": (48, _AT_LEAST_1),
    }),
    "coupon": Experiment(_run_coupon, {
        "n_cells": (10000, _AT_LEAST_1),
        "trials": (2000, _AT_LEAST_1),
        "n_list_tail": ([100, 1000, 10000], _AT_LEAST_1),
    }),
    "supconv-check": Experiment(_run_supconv, {
        # the gradient section perturbs modes 1 and 2
        "cutoff": (8, _at_least(2)),
        "n_sandwich": (8, _AT_LEAST_1),
        # a monotonicity base point for each of the three functionals
        "n_monotone": (100, _at_least(3)),
        "n_instances_fp": (20, _AT_LEAST_1),
    }),
    "mfc-gap": Experiment(_run_mfc_gap, {
        "cutoff": (5, _AT_LEAST_1),
        # criterion 7 fits on the first half of its n_pairs // 2 mixes
        "n_pairs": (50, _at_least(4)),
        "n_list": ([8, 16, 32, 64, 128, 256], _AT_LEAST_1),
        "mc_replications": (400, _AT_LEAST_1),
        "fp_trials": (50, _AT_LEAST_1),
    }),
    "project-check": Experiment(_run_project_check, {
        "cutoff": (8, _AT_LEAST_1),  # the slope fits need a mode
        "n_list": ([4, 8, 16, 32, 64, 128, 256], _AT_LEAST_1),
    }),
}
