#!/usr/bin/env python3
"""mfclab benchmark: reduced-size `rates` workloads, timed and checked.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mfc_gap --seed 0 --seconds 35 --trace 0

Iterations of the workload run back to back until the next one would end
after ``--seconds``; iteration j runs every experiment of the workload at
the j-th seed of a permutation of the reference pool drawn from
``--seed``. Each experiment run is one operation; it fails when it exits
non-zero or a cell leaves its reference row (see reference.py).

``--trace 0`` reports the end-to-end metrics: median wall and CPU time of
an iteration, the median of three timed start-ups (interpreter, mfclab
import and config construction), and the peak RSS of this process.
``--trace 1`` runs one untraced iteration, then traced iterations from the
same first seed, and reports per-layer metrics per iteration; the first
traced iteration must write byte-identical results.csv files, and every
function the workload names in ``expected`` must be called.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A record with the machine
fingerprint goes to ``.perfbench/`` in the working directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import reference
from metrics import END_TO_END, PER_LAYER, per_layer_values
from workloads import BLAS_THREAD_VARS, WORKLOADS, make_configs, prepare, \
    run_iteration

SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def measure_setup(workload: str) -> float:
    """Median time for a fresh interpreter to import mfclab and build the
    workload's configs, from spawn to just before the first workload call.
    The child prints the wall-clock time at that point."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.time()
        out = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload",
             workload, "--seed", "0", "--seconds", "1"],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]) - t0)
    return statistics.median(times)


def fingerprint(root: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, check=False).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "mfclab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


class Run:
    """Iterations of one workload with per-operation outcomes."""

    def __init__(self, harness, name: str, seed: int, out_root: Path):
        self.harness = harness
        self.name = name
        self.workload = WORKLOADS[name]
        ref = reference.load()["workloads"][name]
        if ref["steps"] != [list(s) for s in self.workload.steps]:
            raise SystemExit(f"{name}: reference.json was made for other "
                             "workload parameters; regenerate it")
        self.ref = ref
        self.seeds = random.Random(seed).sample(ref["pool"], len(ref["pool"]))
        self.out_root = out_root
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.iterations: list[dict] = []

    def fail(self, message: str, operations: int = 1) -> None:
        self.failed += operations
        self.problems.append(message)

    def iterate(self, j: int, label: str) -> dict:
        """Run iteration j; record and return its timings and CSVs."""
        seed = self.seeds[j % len(self.seeds)]
        out_dir = self.out_root / self.name / label
        n_steps = len(self.workload.steps)
        self.attempted += n_steps
        rec = {"seed": seed, "label": label, "ok": False, "csv": {}}
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            steps = run_iteration(self.harness, self.workload, seed, out_dir)
        except Exception:  # the benchmark keeps going; report the failure
            traceback.print_exc()
            self.fail(f"seed {seed}: exception", n_steps)
            steps = []
        rec["wall_s"] = time.perf_counter() - w0
        rec["cpu_s"] = time.process_time() - c0
        if steps:
            rec["ok"] = True
            rec["wall_s"] = sum(s.wall_s for s in steps)
            rec["cpu_s"] = sum(s.cpu_s for s in steps)
        for st in steps:
            problems = list(st.failed_checks)
            if st.rc != 0 and not problems:
                problems.append(f"exit code {st.rc}")
            problems += reference.compare(
                st.csv, self.ref["cells"][str(seed)][st.experiment])
            if problems:
                rec["ok"] = False
                self.fail(f"{st.experiment} seed {seed}: "
                          + "; ".join(problems[:3]))
            rec["csv"][st.experiment] = st.csv
        self.iterations.append(rec)
        return rec


def _loop(run: Run, deadline: float, label: str) -> None:
    """Iterate until the next iteration, as long as the last, would end
    after the deadline; at least one iteration."""
    j = 0
    while True:
        rec = run.iterate(j, label)
        j += 1
        if time.perf_counter() + rec["wall_s"] > deadline:
            return


def end_to_end(run: Run, setup_s: float, seconds: float) -> dict:
    _loop(run, time.perf_counter() + seconds, "plain")
    done = [r for r in run.iterations if r["ok"]] or run.iterations
    return {
        "wall_s": statistics.median([r["wall_s"] for r in done]),
        "cpu_s": statistics.median([r["cpu_s"] for r in done]),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(run: Run, seconds: float, record: dict) -> dict:
    from tracer import Tracer  # imports numpy, so only after prepare()

    deadline = time.perf_counter() + seconds
    plain = run.iterate(0, "plain")
    tracer = Tracer()
    with tracer:
        _loop(run, deadline, "traced")
    traced = run.iterations[1:]
    for exp, text in plain["csv"].items():
        if traced[0]["csv"].get(exp) != text:
            run.fail(f"{exp}: results.csv differs with tracing on")
    summary = tracer.summary()
    tracer.save(run.out_root / f"{run.name}-spans.npz")
    missing = [s for s in run.workload.expected
               if summary["functions"].get(s, {}).get("calls", 0) == 0]
    if missing:
        run.problems.append(f"no calls traced for {', '.join(missing)}")
    record["trace_summary"] = summary
    return per_layer_values(summary, len(traced), traced[0]["wall_s"],
                            plain["wall_s"])


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    harness = prepare(root)
    if harness is None:
        print(f"perfbench: no mfclab sources under {root / 'src'}; run "
              "from the root of a source checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        make_configs(harness, WORKLOADS[args.workload], 0,
                     root / ".perfbench" / "probe")
        print(repr(time.time()))
        return 0

    out_root = root / ".perfbench"
    out_root.mkdir(exist_ok=True)
    run = Run(harness, args.workload, args.seed, out_root)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "fingerprint": fingerprint(root)}
    if args.trace:
        metrics, spec = per_layer(run, args.seconds, record), PER_LAYER
    else:
        metrics = end_to_end(run, measure_setup(args.workload), args.seconds)
        spec = END_TO_END
    failed = run.failed
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in spec},
    }
    record.update(result, problems=run.problems, iterations=[
        {k: v for k, v in it.items() if k != "csv"} for it in run.iterations])
    (out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1, default=str) + "\n")

    print("fingerprint " + json.dumps(record["fingerprint"]))
    for it in record["iterations"]:
        print(f"iteration seed={it['seed']} {it['label']} "
              f"wall_s={it['wall_s']:.4f} cpu_s={it['cpu_s']:.4f} "
              f"ok={it['ok']}")
    for msg in run.problems:
        print(f"FAILED {msg}")
    print(f"failed_ratio {failed / run.attempted:.6g} ratio "
          f"({failed} of {run.attempted} operations)")
    for name, unit, _ in spec:
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
