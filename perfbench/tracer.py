"""Outside-in tracing of mfclab's layers.

The tracer wraps the public functions of each mfclab module, a few hot
methods, and the experiment runners, without touching the package's
source. Modules bind imported names at import time (``from .pde import
solve_mfc``), so each function is replaced on *every* module attribute
that is bound to it, not only in the module that defines it.

Each call records one span (name, start, end, parent) in flat arrays;
self time is a span's duration minus the durations of its direct
children. A few results and arguments are also observed to give solver
counters (Picard sweeps, ascent iterations, the OT route taken).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# module -> layer; acceptance_suites is part of the orchestration layer
LAYERS = {
    "spectral": "spectral",
    "transport": "transport",
    "functionals": "functionals",
    "regularize": "regularize",
    "pde": "pde",
    "particle": "particle",
    "harness": "harness",
    "acceptance_suites": "harness",
}

# hot methods traced besides the module-level functions
METHODS = {
    "functionals": {"MeasureFunctional": ("derivative", "fast_value",
                                          "fast_derivative_coeffs")},
    "pde": {"MFCSolution": ("feedback_at",)},
}


def _w1_route(a, b) -> str:
    """Route w1_discrete takes for clouds a and b (mirrors its dispatch)."""
    if a.dim == 1:
        return "sweep"
    uniform_a = np.allclose(a.weights, 1.0 / a.size, atol=1e-13)
    uniform_b = np.allclose(b.weights, 1.0 / b.size, atol=1e-13)
    if uniform_a and uniform_b and a.size == b.size:
        return "assignment"
    return "weighted"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# span name -> observer(tracer, args, kwargs, result) adding to counters
def _observe_mfc(tr, args, kwargs, result):
    tr.count("pde.solve_mfc.uncertified", int(not result.certified))


def _observe_supconv(tr, args, kwargs, result):
    tr.count("regularize.sup_convolve.iterations", int(result.iterations))


def _observe_w1(tr, args, kwargs, result):
    route = _w1_route(_arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b"))
    tr.count(f"transport.w1_discrete.route_{route}")


def _observe_vn(tr, args, kwargs, result):
    tr.count("particle.estimate_vn_upper.replications",
             int(_arg(args, kwargs, 3, "cfg").replications))


OBSERVERS = {
    "pde.solve_mfc": _observe_mfc,
    "regularize.sup_convolve": _observe_supconv,
    "transport.w1_discrete": _observe_w1,
    "particle.estimate_vn_upper": _observe_vn,
}


class Tracer:
    """Records spans while installed: ``with Tracer() as tr: ...``."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: dict[str, str] = {}
        self.counters: dict[str, int] = {}
        self._patches: list[tuple] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    # -- recording ---------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _wrap(self, name: str, layer: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.layer_of[name] = layer
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.start[idx] = t0
                self._stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    # -- installing --------------------------------------------------------
    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        from mfclab import acceptance_suites, harness  # noqa: F401

        modules = [m for n, m in sorted(sys.modules.items())
                   if n.startswith("mfclab.") and m is not None]
        wrapped = {}  # id(original) -> wrapper
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            layer = LAYERS.get(short)
            if layer is None:
                continue
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrapped[id(fn)] = self._wrap(f"{short}.{attr}", layer, fn)
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    self._patch(cls, meth, self._wrap(
                        f"{short}.{cls_name}.{meth}", layer,
                        getattr(cls, meth)))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in wrapped:
                    self._patch(mod, attr, wrapped[id(value)])
        for exp_name, exp in harness.EXPERIMENTS.items():
            self._patch(exp, "runner", self._wrap(
                f"harness.runner.{exp_name}", "harness", exp.runner))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------
    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict:
        """Per span name: calls, total_s, self_s; per layer: self_s.

        total_s sums span durations, which counts a re-entered function
        twice; no traced function re-enters itself in these workloads.
        Also returns the counters and the number of solve_hjb_semilinear
        spans nested under solve_mfc (Picard sweeps).
        """
        sp = self.arrays()
        n_names = len(self.names)
        ids, parent = sp["name_id"], sp["parent"]
        dur = sp["end"] - sp["start"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=len(dur))
        self_t = dur - child
        calls = np.bincount(ids, minlength=n_names)
        total = np.bincount(ids, weights=dur, minlength=n_names)
        self_s = np.bincount(ids, weights=self_t, minlength=n_names)
        per_name = {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                           "self_s": float(self_s[i])}
                    for i, name in enumerate(self.names)}
        per_layer = {}
        for name, rec in per_name.items():
            layer = self.layer_of[name]
            per_layer[layer] = per_layer.get(layer, 0.0) + rec["self_s"]
        return {"functions": per_name, "layers": per_layer,
                "counters": dict(self.counters),
                "picard_sweeps": self._nested_count(
                    sp, "pde.solve_hjb_semilinear", "pde.solve_mfc"),
                "spans": int(len(dur))}

    def _nested_count(self, sp, inner: str, outer: str) -> int:
        if inner not in self.names or outer not in self.names:
            return 0
        ids, parent = sp["name_id"], sp["parent"]
        outer_id = self.names.index(outer)
        count = 0
        for idx in np.flatnonzero(ids == self.names.index(inner)):
            p = parent[idx]
            while p >= 0 and ids[p] != outer_id:
                p = parent[p]
            count += int(p >= 0)
        return count

    def save(self, path) -> None:
        """Write the recorded spans (compressed arrays plus the name table)."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
