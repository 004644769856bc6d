"""The README's code examples run against the current API."""

import re
from pathlib import Path

import numpy as np

from mfclab.functionals import linear_functional
from mfclab.pde import MFCProblem
from mfclab.spectral import GridField, random_measure

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block_after(heading: str) -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index(heading):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_batched_solve_block_runs(rng):
    K = 2
    n_pad = 2 * (2 * K + 1) + 1
    x = np.arange(n_pad) / n_pad
    phi = GridField(0.5 * np.cos(2 * np.pi * np.arange(16) / 16))
    names = {
        "problem": MFCProblem(linear_functional(phi, cutoff=K), horizon=0.2),
        "alpha": 0.5 * np.sin(2 * np.pi * x),
        "a1": 0.3 * np.cos(2 * np.pi * x),
        "a2": 0.4 * np.sin(4 * np.pi * x),
    }
    for i in (1, 2, 3):
        names[f"m{i}"] = random_measure(K, rng)
    exec(python_block_after("### Batched circle solves"), names)
    assert len(names["sols"]) == 3
    assert names["sols"][0].flow.shape == (81, 2 * K + 1)
    assert names["flow"].shape == (201, 2 * K + 1)
    assert names["flows"].shape == (2, 201, 2 * K + 1)


def test_readme_config_table_matches_the_experiments():
    # every [params] key has one README row, with its default and its rule
    from mfclab.harness import EXPERIMENTS

    rows, experiment = {}, None
    for line in README.read_text(encoding="utf-8").splitlines():
        cols = [c.strip() for c in line.strip("|").split(" | ")]
        if len(cols) == 4 and cols[1].startswith("`") and cols[1] != "`key`":
            experiment = cols[0].strip("`") or experiment
            rows[experiment, cols[1].strip("`")] = cols[2:]
    spec = {(name, key): entry for name, exp in EXPERIMENTS.items()
            for key, entry in exp.params.items()}
    assert set(rows) == set(spec)
    for pair, (default, rule) in rows.items():
        value, (_, need) = spec[pair]
        assert rule.replace("≥", ">=").startswith(need), pair
        if "…" not in default:
            assert default.strip("`") == str(value), pair
