"""Reference cells for the benchmark's correctness gate.

``reference.json`` holds, per workload, a pool of experiment seeds and the
``results.csv`` rows each experiment wrote at that seed on the commit the
benchmark was defined on. Every pool seed passed every acceptance check
there; seeds that failed a check at the reduced sizes are listed under
``rejected`` with the failing checks. A benchmark iteration fails when an
experiment returns non-zero or a cell leaves its reference row:
parameters, seed and error must match exactly, estimate and stderr within
|new - ref| <= RTOL |ref| + ATOL.

Regenerate (about ten minutes on a 2-core host) with:

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
RTOL = 1e-6
ATOL = 1e-9
POOL_SIZE = 8
MAX_SEED = 32


def _split(row: str):
    fields = row.split(",")
    # params may hold commas; the other columns never do
    return fields[:2] + [",".join(fields[2:-4])] + fields[-4:]


def _close(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    if math.isnan(w):
        return math.isnan(g)
    return abs(g - w) <= RTOL * abs(w) + ATOL


def compare(csv_text: str, ref_rows: list) -> list:
    """Problems found comparing a results.csv with its reference rows."""
    rows = csv_text.splitlines()
    if rows == ref_rows:
        return []
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for got, want in zip(rows, ref_rows):
        g, w = _split(got), _split(want)
        exact = [0, 1, 2, 5, 6]  # experiment, cell, params, seed, error
        if any(g[i] != w[i] for i in exact) or not (
                _close(g[3], w[3]) and _close(g[4], w[4])):
            problems.append(f"row {got!r} differs from reference {want!r}")
    return problems


def load() -> dict:
    return json.loads(REFERENCE.read_text())


def generate(root: Path) -> dict:
    """Run every workload on seeds 0.. until POOL_SIZE pass every check."""
    from workloads import WORKLOADS, prepare, run_iteration

    harness = prepare(root)
    if harness is None:
        raise SystemExit(f"no mfclab sources under {root / 'src'}")
    out = {"rtol": RTOL, "atol": ATOL, "workloads": {}}
    for name, workload in WORKLOADS.items():
        entry = {"steps": [list(s) for s in workload.steps], "pool": [],
                 "rejected": {}, "cells": {}}
        for seed in range(MAX_SEED):
            if len(entry["pool"]) == POOL_SIZE:
                break
            steps = run_iteration(harness, workload, seed,
                                  root / ".perfbench" / "reference")
            fails = [c for s in steps for c in s.failed_checks]
            if any(s.rc != 0 for s in steps):
                entry["rejected"][str(seed)] = fails or ["non-zero exit"]
            else:
                entry["pool"].append(seed)
                entry["cells"][str(seed)] = {
                    s.experiment: s.csv.splitlines() for s in steps}
            print(name, seed, "pass" if seed in entry["pool"] else fails,
                  file=sys.stderr, flush=True)
        if len(entry["pool"]) < POOL_SIZE:
            raise SystemExit(f"{name}: only {len(entry['pool'])} of "
                             f"{MAX_SEED} seeds pass every check")
        out["workloads"][name] = entry
    return out


if __name__ == "__main__":
    data = generate(Path.cwd())
    REFERENCE.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {REFERENCE}")
