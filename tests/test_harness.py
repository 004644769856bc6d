import csv
import json

import numpy as np
import pytest

from mfclab.errors import ConfigError, DegeneratePoints, InvalidSobolevOrder
from mfclab.harness import (
    ExperimentConfig,
    default_config,
    fit_loglog,
    load_config,
    run_experiment,
    schedule_delta_eps_lambda,
    schedule_eps,
)


# --- fit_loglog -----------------------------------------------------------------

def test_fit_exact_power_law():
    fit = fit_loglog([(1, 1), (10, 0.1), (100, 0.01)])
    assert abs(fit.slope + 1.0) < 1e-12
    assert fit.stderr_slope < 1e-12
    assert abs(fit.r_squared - 1.0) < 1e-12


def test_fit_constant():
    fit = fit_loglog([(1, 3.0), (10, 3.0), (100, 3.0)])
    assert abs(fit.slope) < 1e-12


def test_fit_noisy_synthetic(rng):
    xs = np.array([4, 16, 64, 256, 1024, 4096], dtype=float)
    ys = xs ** -0.5 * (1 + 0.01 * rng.standard_normal(len(xs)))
    fit = fit_loglog(list(zip(xs, ys)))
    assert abs(fit.slope + 0.5) < 3 * fit.stderr_slope + 0.01


def test_fit_requires_three_points():
    with pytest.raises(DegeneratePoints):
        fit_loglog([(1, 1), (2, 2)])


def test_fit_rejects_identical_x():
    with pytest.raises(DegeneratePoints):
        fit_loglog([(2, 1), (2, 2), (2, 3)])


def test_fit_reorder_invariant(rng):
    pts = [(2.0, 1.0), (8.0, 0.5), (32.0, 0.22), (128.0, 0.11)]
    f1 = fit_loglog(pts)
    f2 = fit_loglog(pts[::-1])
    assert abs(f1.slope - f2.slope) < 1e-14


def test_refit_reproduces_slope():
    fit = fit_loglog([(1, 2), (4, 1.1), (16, 0.4), (64, 0.21)])
    assert abs(fit.refit().slope - fit.slope) < 1e-12


# --- schedules -------------------------------------------------------------------

def test_schedule_eps_values():
    assert schedule_eps(4) == 0.5
    assert abs(schedule_eps(10000) - 0.01) < 1e-15


def test_schedule_delta_eps_lambda_arithmetic():
    # independent arithmetic oracle for d=1, s=2.01, eta=0.01, N=1024
    n, s, eta, d = 1024, 2.01, 0.01, 1
    delta, eps, lam = schedule_delta_eps_lambda(n, s, eta, d)
    expo = 2 * s + d / 2 + eta + 1
    assert abs(delta - n ** (-1.0 / expo)) < 1e-15
    assert abs(eps - 1.0 / (n * delta)) < 1e-15
    assert abs(lam - eps * delta ** (-(2 * s + d / 2 + eta - 1))) < 1e-12


def test_schedule_invalid_sobolev_order():
    with pytest.raises(InvalidSobolevOrder):
        schedule_delta_eps_lambda(16, 1.0, 0.01, 3)


# --- config ----------------------------------------------------------------------

def test_default_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        default_config("coupon", no_such_key=3)


def test_default_config_rejects_unknown_experiment():
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="nope").validated()


def test_load_config_ini(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text(
        "[experiment]\nname = coupon\nseed = 42\n\n"
        "[params]\nn_cells = 100\ntrials = 50\n")
    cfg = load_config(str(path))
    assert cfg.experiment == "coupon"
    assert cfg.seed == 42
    assert cfg.params["n_cells"] == 100
    assert cfg.params["p"] == 0.05  # default backfilled


def test_load_config_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "experiment": {"name": "coupon", "seed": 7},
        "params": {"n_cells": 200, "trials": 40},
    }))
    cfg = load_config(str(path))
    assert cfg.experiment == "coupon"
    assert cfg.params["n_cells"] == 200


def test_load_config_unknown_key(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[experiment]\nname = coupon\nbogus = 1\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_threads_setting_is_gone(tmp_path):
    # cells run one after another: a thread count is not a run setting
    from mfclab.cli import main

    path = tmp_path / "c.ini"
    path.write_text("[experiment]\nname = coupon\nthreads = 2\n")
    with pytest.raises(ConfigError, match="threads"):
        load_config(str(path))
    with pytest.raises(SystemExit) as exc:
        main(["coupon", "--threads", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2


# --- run_experiment ---------------------------------------------------------------

def _tiny_coupon_cfg(tmp_path, seed=0):
    return default_config(
        "coupon", seed=seed, out_dir=str(tmp_path),
        n_cells=200, trials=100, n_list_tail=[50, 100, 200])


def test_run_experiment_outputs(tmp_path):
    cfg = _tiny_coupon_cfg(tmp_path / "a")
    code = run_experiment(cfg)
    out = tmp_path / "a"
    assert (out / "coupon-results.csv").exists()
    assert (out / "coupon-summary.json").exists()
    assert (out / "coupon-timings.csv").exists()
    assert (out / "plot_rates.py").exists()
    summary = json.loads((out / "coupon-summary.json").read_text())
    assert summary["experiment"] == "coupon"
    assert {"cells", "fits", "checks", "git_describe"} <= set(summary)
    assert code == 0


def test_run_experiment_byte_identical_rerun(tmp_path):
    cfg1 = _tiny_coupon_cfg(tmp_path / "r1", seed=9)
    cfg2 = _tiny_coupon_cfg(tmp_path / "r2", seed=9)
    run_experiment(cfg1)
    run_experiment(cfg2)
    a = (tmp_path / "r1" / "coupon-results.csv").read_bytes()
    b = (tmp_path / "r2" / "coupon-results.csv").read_bytes()
    assert a == b


def test_run_experiment_empty_grid(tmp_path):
    cfg = default_config("empirical-w1", out_dir=str(tmp_path),
                         run_d1=False, run_d3=False)
    code = run_experiment(cfg)
    assert code == 0
    csv = (tmp_path / "empirical-w1-results.csv").read_text().splitlines()
    assert len(csv) == 1  # header only
    summary = json.loads(
        (tmp_path / "empirical-w1-summary.json").read_text())
    assert summary["fits"] == []


def test_cli_smoke(tmp_path, capsys):
    from mfclab.cli import main

    code = main(["coupon", "--out", str(tmp_path), "--seed", "1"])
    captured = capsys.readouterr()
    assert "coupon" in captured.out
    assert code in (0, 1)


def test_cli_config_roundtrip(tmp_path):
    from mfclab.cli import main

    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(
        "[experiment]\nname = coupon\n\n"
        "[params]\nn_cells = 100\ntrials = 60\nn_list_tail = [50, 100]\n")
    code = main(["coupon", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")])
    assert (tmp_path / "out" / "coupon-summary.json").exists()
    assert code in (0, 1)


def test_cli_config_settings_survive_absent_flags(tmp_path):
    # the file's seed and out_dir hold unless a flag is given
    from mfclab.cli import main

    def seeds(out):
        with (out / "coupon-results.csv").open(newline="") as fh:
            return {row["seed"] for row in csv.DictReader(fh)}

    from_file = tmp_path / "from-file"
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(
        f"[experiment]\nname = coupon\nseed = 42\nout_dir = {from_file}\n\n"
        "[params]\nn_cells = 100\ntrials = 60\nn_list_tail = [50, 100]\n")
    assert main(["coupon", "--config", str(cfg_path)]) in (0, 1)
    assert seeds(from_file) == {"42"}
    from_flags = tmp_path / "from-flags"
    assert main(["coupon", "--config", str(cfg_path), "--seed", "7",
                 "--out", str(from_flags)]) in (0, 1)
    assert seeds(from_flags) == {"7"}


def test_cli_wrong_config_experiment(tmp_path):
    from mfclab.cli import main

    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text("[experiment]\nname = coupon\n")
    code = main(["cole-hopf", "--config", str(cfg_path),
                 "--out", str(tmp_path)])
    assert code == 2
