"""Metric definitions and the per-layer values derived from a trace.

END_TO_END and PER_LAYER list (name, unit, better) in the order they are
printed; BENCHMARK.json lists the same names (a test checks that).
"""

from __future__ import annotations

END_TO_END = [
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# traced span name -> fields reported as <span>.<field>
FUNCTION_FIELDS = [
    ("pde.solve_mfc", ("calls", "total_s", "self_s")),
    ("pde.solve_hjb_semilinear", ("calls", "self_s")),
    ("pde.solve_fokker_planck", ("calls", "self_s")),
    ("pde.solve_viscous_hj", ("calls", "self_s")),
    ("particle.estimate_vn_upper", ("calls", "self_s")),
    ("particle.cole_hopf_vn", ("self_s",)),
    ("particle.empirical_w1_rate", ("self_s",)),
    ("particle.coupon_occupancy", ("self_s",)),
    ("particle.occupancy_log_tail", ("self_s",)),
    ("spectral.eval_modes", ("calls", "self_s")),
    ("spectral.to_density", ("calls", "self_s")),
    ("spectral.empirical", ("calls", "self_s")),
    ("spectral.hs_norm", ("calls", "self_s")),
    ("regularize.sup_convolve", ("calls", "self_s")),
    ("regularize.simplex_project", ("calls", "self_s")),
    ("regularize.fixed_point_maximizer", ("calls", "self_s")),
    ("functionals.MeasureFunctional.fast_value", ("calls",)),
    ("functionals.MeasureFunctional.fast_derivative_coeffs", ("calls",)),
    ("functionals.MeasureFunctional.derivative", ("calls", "self_s")),
    ("functionals.laplacian_residual", ("self_s",)),
    ("transport.w1_discrete", ("calls", "self_s")),
    ("transport.w1_circle", ("calls", "self_s")),
    ("transport.w1_approx", ("calls",)),
    ("harness.run_experiment", ("self_s",)),
    ("harness.runner.mfc-gap", ("total_s",)),
    ("harness.runner.supconv-check", ("total_s",)),
    ("harness.runner.empirical-w1", ("total_s",)),
    ("harness.runner.cole-hopf", ("total_s",)),
    ("harness.runner.vanishing-viscosity", ("total_s",)),
    ("harness.runner.coupon", ("total_s",)),
    ("harness.runner.project-check", ("total_s",)),
]

COUNTERS = [
    ("pde.solve_mfc.uncertified", "count", "lower"),
    ("regularize.sup_convolve.iterations", "count", "lower"),
    ("transport.w1_discrete.route_sweep", "count", "lower"),
    ("transport.w1_discrete.route_assignment", "count", "lower"),
    ("transport.w1_discrete.route_weighted", "count", "lower"),
]

LAYER_NAMES = ("spectral", "transport", "functionals", "regularize", "pde",
               "particle", "harness")

DERIVED = [
    ("pde.picard_sweeps", "count", "lower"),
    ("pde.picard_sweep_ms", "ms", "lower"),
    ("particle.replication_ms", "ms", "lower"),
    ("regularize.ascent_accept_ratio", "ratio", "higher"),
    *[(f"layer.{layer}.self_s", "s", "lower") for layer in LAYER_NAMES],
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]

_FIELD_UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}

PER_LAYER = [
    *[(f"{span}.{fld}", _FIELD_UNITS[fld], "lower")
      for span, fields in FUNCTION_FIELDS for fld in fields],
    *COUNTERS,
    *DERIVED,
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_values(summary: dict, iterations: int, traced_wall: float,
                     untraced_wall: float) -> dict:
    """Per-layer metric values, each per iteration, from Tracer.summary()."""
    funcs, counters = summary["functions"], summary["counters"]
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def fn(span: str, fld: str) -> float:
        return funcs.get(span, zero)[fld]

    values = {f"{span}.{fld}": fn(span, fld)
              for span, fields in FUNCTION_FIELDS for fld in fields}
    for name, _, _ in COUNTERS:
        values[name] = counters.get(name, 0)
    sweeps = summary["picard_sweeps"]
    values["pde.picard_sweeps"] = sweeps
    values["pde.picard_sweep_ms"] = 1e3 * _ratio(
        fn("pde.solve_mfc", "total_s"), sweeps)
    values["particle.replication_ms"] = 1e3 * _ratio(
        fn("particle.estimate_vn_upper", "total_s"),
        counters.get("particle.estimate_vn_upper.replications", 0))
    values["regularize.ascent_accept_ratio"] = _ratio(
        counters.get("regularize.sup_convolve.iterations", 0),
        fn("regularize.simplex_project", "calls"))
    for layer in LAYER_NAMES:
        values[f"layer.{layer}.self_s"] = summary["layers"].get(layer, 0.0)
    values["trace.spans"] = summary["spans"]
    per_iter = {k: v / iterations for k, v in values.items()
                if not k.endswith(("_ms", "_ratio"))}
    values.update(per_iter)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    return values
