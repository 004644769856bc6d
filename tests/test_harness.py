import csv
import json

import numpy as np
import pytest

from mfclab.errors import ConfigError, DegeneratePoints
from mfclab.harness import (
    ExperimentConfig,
    default_config,
    fit_loglog,
    load_config,
    run_experiment,
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


@pytest.mark.parametrize("text, strict", [("true", True), ("false", False)])
def test_load_config_ini_strict_boolean(tmp_path, text, strict):
    path = tmp_path / "c.ini"
    path.write_text(f"[experiment]\nname = coupon\nstrict = {text}\n")
    assert load_config(str(path)).strict is strict


@pytest.mark.parametrize("suffix, experiment", [
    # a string strict used to turn strict mode on through bool("False")
    (".ini", "name = coupon\nstrict = False"),
    (".ini", "name = coupon\nstrict = 1"),
    (".json", {"name": "coupon", "strict": "no"}),
    # a seed that is not an integer >= 0 used to escape as a ValueError
    # (from int() or from the generator) or to pass as int(True)
    (".ini", "name = coupon\nseed = abc"),
    (".ini", "name = coupon\nseed = 1.5"),
    (".ini", "name = coupon\nseed = -1"),
    (".json", {"name": "coupon", "seed": True}),
    (".json", {"name": "coupon", "seed": "7"}),
], ids=["ini-strict-False", "ini-strict-1", "json-strict-no", "ini-seed-abc",
        "ini-seed-float", "ini-seed-negative", "json-seed-bool",
        "json-seed-string"])
def test_load_config_rejects_mistyped_settings(tmp_path, suffix, experiment):
    from mfclab.cli import main

    path = tmp_path / f"c{suffix}"
    path.write_text(json.dumps({"experiment": experiment})
                    if suffix == ".json" else f"[experiment]\n{experiment}\n")
    with pytest.raises(ConfigError):
        load_config(str(path))
    assert main(["coupon", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2


# every acceptance tolerance, by the experiment that checks it
_GATES = [("empirical-w1", "tol_d1"), ("empirical-w1", "tol_d3"),
          ("vanishing-viscosity", "kink_slope_window"),
          ("vanishing-viscosity", "smooth_slope_min"),
          ("cole-hopf", "exponent_floor"), ("cole-hopf", "allow_approx"),
          ("coupon", "occupancy_tol"), ("supconv-check", "grad_rel_tol"),
          ("mfc-gap", "gap_slope_max"), ("project-check", "bound_factor"),
          ("project-check", "slope_tol")]


@pytest.mark.parametrize("experiment, key", _GATES,
                         ids=[key for _, key in _GATES])
def test_acceptance_tolerances_are_not_config_keys(tmp_path, experiment,
                                                   key):
    # a loosened gate (tol_d1 = 10) would pass its criterion on any data
    from mfclab.cli import main

    with pytest.raises(ConfigError, match=key):
        default_config(experiment, **{key: 10})
    path = tmp_path / "c.ini"
    path.write_text(f"[experiment]\nname = {experiment}\n\n"
                    f"[params]\n{key} = 10\n")
    with pytest.raises(ConfigError, match=key):
        load_config(str(path))
    assert main([experiment, "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2


def test_run_settings_checked_on_every_path(tmp_path):
    # a flag is set after load_config, so the run validates it again
    from mfclab.cli import main

    with pytest.raises(ConfigError, match="seed"):
        default_config("coupon", seed=-1)
    with pytest.raises(ConfigError, match="strict"):
        default_config("coupon", strict="yes")
    with pytest.raises(ConfigError, match="seed"):
        run_experiment(ExperimentConfig("coupon", seed=-1,
                                        out_dir=str(tmp_path / "run")))
    path = tmp_path / "c.ini"
    path.write_text("[experiment]\nname = coupon\n")
    for config in ([], ["--config", str(path)]):
        assert main(["coupon", *config, "--seed", "-1",
                     "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "run").exists()
    assert not (tmp_path / "out").exists()


# a value of the wrong type for its key, as written in an INI [params]
_MISTYPED = [("coupon", "trials", '"many"'), ("coupon", "n_cells", "true"),
             ("empirical-w1", "run_d1", "1"),
             ("coupon", "n_list_tail", "[100, 1000.5]"),
             ("vanishing-viscosity", "nus_kink", "0.1"),
             ("cole-hopf", "horizon", "[0.25]")]


@pytest.mark.parametrize("experiment, key, text", _MISTYPED,
                         ids=[key for _, key, _ in _MISTYPED])
def test_mistyped_params_are_config_errors(tmp_path, experiment, key, text):
    # trials = "many" used to reach np.empty(trials) as a TypeError
    from mfclab.cli import main

    path = tmp_path / "c.ini"
    path.write_text(f"[experiment]\nname = {experiment}\n\n"
                    f"[params]\n{key} = {text}\n")
    with pytest.raises(ConfigError, match=key):
        load_config(str(path))
    assert main([experiment, "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_float_params_take_ints():
    cfg = default_config("cole-hopf", horizon=1, n_list=[16, 64, 256])
    assert cfg.params["horizon"] == 1
    cfg = default_config("vanishing-viscosity", nus_kink=[1, 0.5, 0.25])
    assert cfg.params["nus_kink"] == [1, 0.5, 0.25]


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


def test_coupon_reuses_the_main_run_at_its_size(tmp_path, monkeypatch):
    # a tail size equal to n_cells has the main run's arguments and
    # substream, so that run is not simulated twice
    from mfclab import particle

    calls = []
    inner = particle.coupon_occupancy

    def counting(n_cells, *args, **kwargs):
        calls.append(n_cells)
        return inner(n_cells, *args, **kwargs)

    monkeypatch.setattr(particle, "coupon_occupancy", counting)
    run_experiment(_tiny_coupon_cfg(tmp_path / "a", seed=4))
    assert calls == [200, 50, 100]


def test_results_csv_quotes_error_text(tmp_path, monkeypatch):
    from mfclab import harness

    error = 'NonConvergence: residual 3e-4, "plateau" at sweep 12'
    cells = [{"params": {"N": 8, "quantity": "gap"}, "estimate": 0.25,
              "stderr": 0.5},
             {"params": {"N": 16, "quantity": "gap"}, "error": error}]
    monkeypatch.setitem(harness.EXPERIMENTS, "coupon", harness.Experiment(
        "coupon", defaults={}, runner=lambda params, seed: (cells, [], [])))
    assert run_experiment(default_config(
        "coupon", seed=3, out_dir=str(tmp_path))) == 0
    text = (tmp_path / "coupon-results.csv").read_text()
    lines = text.splitlines()
    # a row without a comma or quote is written as before, unquoted
    assert lines[:2] == ["experiment,cell,params,estimate,stderr,seed,error",
                         "coupon,0,N=8;quantity=gap,0.25,0.5,3,"]
    rows = list(csv.reader(text.splitlines(keepends=True)))
    assert len(rows) == 3
    assert rows[2] == ["coupon", "1", "N=16;quantity=gap", "", "", "3", error]


def test_strict_fails_on_a_recorded_cell_error(tmp_path, monkeypatch):
    from mfclab import harness
    from mfclab.cli import main

    error = "NonConvergence: plateau at sweep 12"
    cells = [{"params": {"N": 8}, "estimate": 0.25, "stderr": 0.0},
             {"params": {"N": 16}, "error": error}]
    checks = [harness._check("holds", True, 1.0, 1.0)]
    monkeypatch.setitem(harness.EXPERIMENTS, "coupon", harness.Experiment(
        "coupon", defaults={},
        runner=lambda params, seed: (cells, [], checks)))
    for flags, code in (([], 0), (["--strict"], 1)):
        out = tmp_path / f"strict{len(flags)}"
        assert main(["coupon", "--out", str(out), *flags]) == code
        with (out / "coupon-results.csv").open(newline="") as fh:
            assert [row["error"] for row in csv.DictReader(fh)] == ["", error]


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
