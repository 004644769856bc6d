"""Benchmark instances and property suites behind the heavier experiments.

These back the supconv-check, mfc-gap, and project-check experiments: the
sup-convolution sandwich/gradient/monotonicity battery with its fixed-point
cross-checks, the value-function regularity and convex-gap studies, and the
finite-N projection residual sweep.
"""

from __future__ import annotations

import numpy as np

from .errors import LowerBoundViolated
from .functionals import (
    MeasureFunctional,
    cylindrical_functional,
    distance_cost_functional,
    laplacian_residual,
    linear_functional,
)
from .harness import _check, _fit_dict, fit_loglog
from .particle import (
    ParticleRunConfig,
    estimate_vn_upper,
    sample_measure,
    substream,
)
from .pde import MFCProblem, _flow_distance, solve_fokker_planck, solve_mfc
from .regularize import (
    _N_STARTS,
    fixed_point_maximizer,
    sup_convolve,
    sup_convolve_batch,
)
from .spectral import (
    GridField,
    SpectralMeasure,
    SpectralVector,
    _hs_norms,
    _measure_coeffs,
    dual_embed,
    empirical,
    hs_inner,
    hs_norm,
    random_measure,
    random_measure_coeffs,
    to_density,
)
from .transport import PointCloud

__all__ = ["supconv_suite", "mfc_gap_suite", "projection_suite",
           "benchmark_functionals", "estimate_hs_lipschitz"]


def _grid_cos(n, k, amp=1.0, phase=0.0):
    x = np.arange(n) / n
    return GridField(amp * np.cos(2 * np.pi * k * x + phase))


def _squared_pairing(phi: GridField, cutoff: int) -> MeasureFunctional:
    """m -> m(phi)^2, with the outer bounds |G'| <= 2 and |G''| <= 2 in its
    metadata."""
    return cylindrical_functional(
        [phi], outer=lambda v: v[0] ** 2,
        outer_grad=lambda v: np.array([2 * v[0]]),
        cutoff=cutoff, outer_grad_bound=2.0, outer_hess_bound=2.0)


_LIP_SLICE = 16  # rows per Phi call in estimate_hs_lipschitz


def estimate_hs_lipschitz(phi: MeasureFunctional,
                          rng: np.random.Generator) -> float:
    """Sampled H^{-s} Lipschitz constant on the cutoff-K admissible set.

    100 random pairs plus single-mode probes; scaled by a 1.2 safety factor
    since the sample maximum underestimates the supremum.

    The pairs and the probes' base come from one batched draw, the same
    stream and measures as 201 ``random_measure`` calls, and the H^{-s}
    distances are one array. Phi scores the measures in ``(rows, 2K+1)``
    slices of at most ``_LIP_SLICE`` rows: the distance cost's working set
    grows with the rows times its fine grid, and one 200-row call would
    raise a ``supconv-check`` run's peak memory by about 14%.
    """
    K = phi.cutoff
    drawn = random_measure_coeffs(K, rng, 201, np.r_[np.full(200, 0.8), 0.5])
    probes = []
    for k in range(1, K + 1):
        for phase in (1.0, 1j):
            c = np.zeros(2 * K + 1, dtype=complex)
            c[K + k] = 0.02 * phase
            c[K - k] = np.conj(c[K + k])
            probes.append(c)
    base = drawn[200]
    m1 = np.concatenate([drawn[0:200:2], _measure_coeffs(base + probes)])
    m2 = np.concatenate([drawn[1:200:2], _measure_coeffs(base - probes)])
    den = _hs_norms(m1 - m2, K)
    vals = np.concatenate([phi.fast_value(m[i:i + _LIP_SLICE])
                           for m in (m1, m2)
                           for i in range(0, len(m), _LIP_SLICE)])
    gap = np.abs(vals[:len(m1)] - vals[len(m1):])
    # a random pair closer than 1e-9 is skipped; no probe pair is
    keep = np.r_[den[:100] > 1e-9, np.ones(2 * K, dtype=bool)]
    return float(np.max(gap[keep] / den[keep], initial=0.0)) * 1.2


def benchmark_functionals(cutoff: int, rng: np.random.Generator):
    """The three sup-convolution benchmarks: linear, non-convex cylindrical,
    distance-cost. Each carries a valid H^{-s} Lipschitz constant (exact
    for the first two, sampled with safety for the distance cost)."""
    n = 64
    phi1 = GridField(0.35 * np.cos(2 * np.pi * np.arange(n) / n)
                     + 0.15 * np.sin(4 * np.pi * np.arange(n) / n))
    lin = linear_functional(phi1, cutoff=cutoff)

    phi_a = _grid_cos(n, 1, 0.8)
    phi_b = GridField(0.8 * np.sin(2 * np.pi * np.arange(n) / n))
    cyl = cylindrical_functional(
        [phi_a, phi_b],
        outer=lambda v: np.sin(2.0 * v[0]) + 0.5 * v[1] ** 2,
        outer_grad=lambda v: np.array([2.0 * np.cos(2.0 * v[0]), v[1]]),
        cutoff=cutoff, outer_grad_bound=2.0, outer_hess_bound=4.0,
    )

    dc = distance_cost_functional(PointCloud(1, [[0.3]]), cutoff=cutoff,
                                  resolution=2048)
    dc = dc.with_metadata(lip_hs=estimate_hs_lipschitz(dc, rng))
    return [("linear", lin), ("cylindrical", cyl), ("distance-cost", dc)]


def _warm(maximizer: SpectralMeasure) -> tuple:
    n_at = 2 * maximizer.cutoff + 1
    dens = to_density(maximizer, n_at).values
    dens = np.maximum(dens, 0.0)
    s = dens.sum()
    return (dens / s,) if s > 0 else ()


def _solve_sections(phi: MeasureFunctional, sections, seed: int) -> list:
    """The problems of several sections in one ``sup_convolve_batch`` call.

    ``sections`` is a list of problem lists, each problem a tuple (q, eps,
    n_starts, warm starts); returns one list of results per section.
    """
    qs, eps, n_starts, warm = zip(*(p for sec in sections for p in sec))
    res = sup_convolve_batch(phi, qs, eps, n_starts=n_starts, seed=seed,
                             warm_starts=warm)
    ends = np.cumsum([len(sec) for sec in sections])
    return [res[a:b] for a, b in zip(np.r_[0, ends[:-1]], ends)]


def supconv_suite(params: dict, seed: int):
    """Criteria 5 and 6: sandwich, maximizer bound, gradient formula,
    eps-monotonicity, and the fixed-point-vs-brute-force agreement.

    Every section's base points are drawn first, in the order of the
    sections: the sandwich points of each functional, then the gradient
    base points of each, then the monotonicity points of each. The solves
    draw nothing from rng, so these are the draws of a suite that solves
    each section as it draws it. Each functional's solves then run as two
    batched ascents: the first holds its sandwich problems, its gradient
    base points and its monotonicity points at eps_lo; the second holds
    its +- shifted gradient points and its monotonicity points at eps_hi,
    each warm-started from a maximizer of the first. The checks read the
    results section by section, so cells and checks keep their order.
    """
    rng = np.random.default_rng(seed)
    K = params["cutoff"]
    eps_lo, eps_hi = 0.02, 0.05
    cells, fits, checks = [], [], []

    functionals = benchmark_functionals(K, rng)
    sandwich_qs = [[random_measure(K, rng)
                    for _ in range(params["n_sandwich"])]
                   for _ in functionals]
    grad_qs = [[random_measure(K, rng, roughness=0.5) for _ in range(2)]
               for _ in functionals]
    alloc = _allocate(params["n_monotone"], [0.4, 0.4, 0.2])
    mono_qs = [[random_measure(K, rng) for _ in range(n_q)] for n_q in alloc]

    # gradient formula: a +- pair of points per base point and direction
    h = 1e-3
    dirs = []
    for km in (1, 2):
        v = np.zeros(2 * K + 1, dtype=complex)
        v[K + km] = h * (0.6 + 0.3j)
        v[K - km] = np.conj(v[K + km])
        dirs.append(v)
    rel_tol = 1e-4

    sandwich_checks, gradient_checks, monotone_checks = [], [], []
    for (label, phi), sq, gq, mq in zip(functionals, sandwich_qs, grad_qs,
                                        mono_qs):
        problems = [(j, q, eps) for j, q in enumerate(sq)
                    for eps in (eps_lo, eps_hi)]
        sols, bases, r1s = _solve_sections(phi, [
            [(q, eps, _N_STARTS, ()) for _, q, eps in problems],
            [(q, eps_hi, _N_STARTS, ()) for q in gq],
            [(q, eps_lo, 3, ()) for q in mq]], seed)
        trials = [(q, res, v) for q, res in zip(gq, bases) for v in dirs]
        shifted, r2s = _solve_sections(phi, [
            [(SpectralMeasure(K, q.coeffs + sign * v), eps_hi, 2,
              _warm(res.maximizer))
             for q, res, v in trials for sign in (1, -1)],
            [(q, eps_hi, 3, _warm(r1.maximizer))
             for q, r1 in zip(mq, r1s)]], seed)

        # --- sandwich and maximizer-distance bounds ---
        cl = phi.metadata.lip_hs
        worst_low, worst_gap, worst_dist = 0.0, 0.0, 0.0
        for (j, q, eps), res in zip(problems, sols):
            gap = res.value - phi(q)
            worst_low = min(worst_low, gap)
            worst_gap = max(worst_gap, gap / (2 * cl ** 2 * eps))
            worst_dist = max(
                worst_dist,
                hs_norm(res.maximizer - q) / (2 * cl * eps))
            cells.append({"params": {"functional": label, "eps": eps,
                                     "q": j},
                          "estimate": gap, "stderr": 0.0, "seed": seed})
        sandwich_checks += [
            _check(f"{label}: sup-conv dominates (gap >= 0)",
                   worst_low >= -1e-9, worst_low, 0.0),
            _check(f"{label}: gap <= 2 C_L^2 eps x 1.05",
                   worst_gap <= 1.05, worst_gap, 1.05),
            _check(f"{label}: |m_eps - q| <= 2 C_L eps x 1.05",
                   worst_dist <= 1.05, worst_dist, 1.05)]

        # --- gradient formula vs finite differences ---
        worst_rel = 0.0
        for t, (q, res, v) in enumerate(trials):
            fd = (shifted[2 * t].value - shifted[2 * t + 1].value) / 2.0
            vvec = SpectralVector(K, v)
            pairing = hs_inner(res.gradient, vvec)
            # relative error against the gradient's natural scale on
            # this direction: a direction numerically orthogonal to the
            # gradient has |pairing| ~ 0 and a pure relative error is
            # undefined there
            scale = max(abs(pairing),
                        1e-2 * hs_norm(res.gradient) * hs_norm(vvec),
                        1e-12)
            worst_rel = max(worst_rel, abs(fd - pairing) / scale)
        gradient_checks.append(_check(
            f"{label}: gradient formula rel err <= {rel_tol}",
            worst_rel <= rel_tol, worst_rel, rel_tol))

        # --- eps-monotonicity, n_monotone sampled base points total ---
        violations = sum(r2.value < r1.value - 1e-12
                         for r1, r2 in zip(r1s, r2s))
        monotone_checks.append(_check(
            f"{label}: eps-monotonicity on {len(mq)} q",
            violations == 0, violations, 0))
    checks += sandwich_checks + gradient_checks + monotone_checks

    # --- criterion 6: fixed point vs brute force at K=2 ---
    fp_checks = _fixed_point_study(params, seed)
    checks.extend(fp_checks[0])
    fits.extend(fp_checks[1])
    return cells, fits, checks


def _fixed_point_study(params: dict, seed: int):
    rng = np.random.default_rng(seed + 1)
    K2 = 2
    n = 64
    checks, fits = [], []
    worst_agree = 0.0
    used = 0
    attempts = 0
    while used < params["n_instances_fp"] and attempts < 10 * params["n_instances_fp"]:
        attempts += 1
        amp = rng.uniform(0.3, 0.9)
        phase = rng.uniform(0, 2 * np.pi)
        sq = _squared_pairing(
            _grid_cos(n, int(rng.integers(1, 3)), amp, phase), K2)
        q = random_measure(K2, rng, roughness=rng.uniform(0.2, 0.5))
        eps = 0.02
        # lower-bound precondition with a computed threshold:
        # eps times the sup of the dual-embedded flat derivative at q
        lifted = dual_embed(sq.fast_derivative_coeffs(q.coeffs), K2)
        thresh = eps * float(
            np.abs(to_density(lifted, 64).values).max())
        try:
            m_fp = fixed_point_maximizer(sq, q, eps, lower_bound=thresh)[0]
        except LowerBoundViolated:
            continue
        used += 1
        res_b = sup_convolve(sq, q, eps, seed=seed)
        worst_agree = max(worst_agree, hs_norm(m_fp - res_b.maximizer))
    checks.append(_check(
        f"fixed point vs brute force on {used} instances (1e-6)",
        used >= params["n_instances_fp"] and worst_agree <= 1e-6,
        worst_agree, 1e-6))

    # L-infinity distance to q scales linearly in eps
    slopes = []
    for trial in range(5):
        phi_g = _grid_cos(n, 1, rng.uniform(0.4, 0.8), rng.uniform(0, 7))
        sq = _squared_pairing(phi_g, 4)
        q = random_measure(4, rng, roughness=0.4)
        eps_list = np.array([0.04, 0.02, 0.01, 0.005])
        dists = [np.abs(to_density(m - q, 64).values).max()
                 for m in fixed_point_maximizer(sq, q, eps_list)]
        slopes.append(float(np.polyfit(np.log(eps_list),
                                       np.log(dists), 1)[0]))
    ok = all(abs(s - 1.0) <= 0.2 for s in slopes)
    checks.append(_check("fixed-point L-inf distance linear in eps "
                       "(slope 1 +- 0.2)", ok, slopes, (0.8, 1.2)))
    return checks, fits


def _allocate(total: int, fractions) -> list[int]:
    counts = [max(1, int(round(total * f))) for f in fractions]
    counts[0] += total - sum(counts)
    return counts


# ---------------------------------------------------------------------------
# mfc-gap suite (criteria 7, 8, 10)
# ---------------------------------------------------------------------------

def _nonconvex_instance(K: int, horizon: float):
    n = 64
    phi = _grid_cos(n, 1, 0.8)
    G = cylindrical_functional(
        [phi], outer=lambda v: np.sin(3.0 * v[0]),
        outer_grad=lambda v: np.array([3.0 * np.cos(3.0 * v[0])]),
        cutoff=K, outer_grad_bound=3.0, outer_hess_bound=9.0)
    return MFCProblem(G, horizon)


def _convex_instance(K: int, horizon: float):
    G = _squared_pairing(_grid_cos(64, 1, 0.8), K)
    return MFCProblem(G, horizon)


def mfc_gap_suite(params: dict, seed: int):
    rng = np.random.default_rng(seed)
    K = params["cutoff"]
    T = 0.3
    cells, fits, checks = [], [], []

    # --- criterion 7: regularity of U on a smooth non-convex instance ---
    # short horizon: with unit diffusion the heat semigroup damps mode k at
    # rate 4 pi^2 k^2, so a long horizon would flatten U in m and make the
    # Lipschitz fit vacuous
    prob_nc = _nonconvex_instance(K, 0.06)
    n_pairs = params["n_pairs"]
    tol = 1e-6
    measures = [random_measure(K, rng) for _ in range(2 * n_pairs)]
    lams = [rng.uniform(0.25, 0.75) for _ in range(n_pairs // 2)]
    mixes = [measures[2 * j].mix(measures[2 * j + 1], lam)
             for j, lam in enumerate(lams)]
    sols_nc = solve_mfc(prob_nc, 0.0, measures + mixes, nt=80, tol=tol,
                        max_iter=200)
    values = [sol.value for sol in sols_nc]

    ratios = []
    for j in range(n_pairs):
        m1, m2 = measures[2 * j], measures[2 * j + 1]
        den = hs_norm(m1 - m2)
        if den > 1e-9:
            ratios.append(abs(values[2 * j] - values[2 * j + 1]) / den)
    half = max(ratios[: n_pairs // 2])
    full = max(ratios)
    rel_var = (full - half) / full
    checks.append(_check(
        "U Lipschitz in H^{-s}: fitted C finite, stable under doubling "
        "(< 20%)", np.isfinite(full) and rel_var < 0.2,
        {"C": full, "variation": rel_var}, 0.2))
    cells.append({"params": {"quantity": "lipschitz_C"}, "estimate": full,
                  "stderr": 0.0, "seed": seed})

    # semi-concavity fit of m -> U(0, m), stability under sample growth
    sc_samples = []
    for j, lam in enumerate(lams):
        i1, i2 = 2 * j, 2 * j + 1
        d2 = hs_norm(measures[i1] - measures[i2]) ** 2
        if d2 > 1e-12:
            gap = ((1 - lam) * values[i1] + lam * values[i2]
                   - values[2 * n_pairs + j])
            sc_samples.append(2.0 * gap / (lam * (1 - lam) * d2))
    sc_half = max(sc_samples[: len(sc_samples) // 2])
    sc_full = max(sc_samples)
    sc_half = max(sc_half, 0.0)
    sc_full = max(sc_full, 0.0)
    sc_var = (sc_full - sc_half) / max(sc_full, 1e-12)
    checks.append(_check(
        "U semi-concavity fit finite and stable (< 20%)",
        np.isfinite(sc_full) and sc_var < 0.2,
        {"C": sc_full, "variation": sc_var}, 0.2))
    cells.append({"params": {"quantity": "semiconcavity_C"},
                  "estimate": sc_full, "stderr": 0.0, "seed": seed})

    # --- criterion 8: convex ordering and gap slope ---
    prob_cx = _convex_instance(K, T)
    base = random_measure(K, np.random.default_rng(seed + 7),
                          roughness=0.6)
    xs = [sample_measure(base, n_pts, substream(seed, 8, n_pts))
          for n_pts in params["n_list"]]
    sols_cx = solve_mfc(prob_cx, 0.0, [empirical(x, cutoff=K) for x in xs],
                        nt=80, tol=tol, max_iter=200)
    gap_points = []
    ordering_ok = True
    for n_pts, x, sol in zip(params["n_list"], xs, sols_cx):
        cfg = ParticleRunConfig(n_particles=n_pts,
                                replications=params["mc_replications"],
                                dt=T / 80, seed=seed)
        est = estimate_vn_upper(prob_cx, 0.0, x, cfg, mfc_solution=sol)
        gap = est.mean - sol.value
        ordering_ok &= gap >= -3.0 * est.stderr
        cells.append({"params": {"quantity": "vn_gap", "N": n_pts},
                      "estimate": gap, "stderr": est.stderr, "seed": seed})
        gap_points.append((float(n_pts), max(gap, 1e-12)))
    checks.append(_check("convex ordering: gap >= -3 stderr for every N",
                       ordering_ok, ordering_ok, True))
    fit = fit_loglog(gap_points)
    fits.append(_fit_dict("vn-minus-u-gap", fit))
    slope_max = -0.4
    checks.append(_check(f"gap slope <= {slope_max}",
                       fit.slope <= slope_max, fit.slope, slope_max))

    # --- criterion 10: Fokker-Planck H^{-s} stability ---
    # drifts strong enough that the bound is not a trivial consequence of
    # heat contraction (transient growth above 1 is expected)
    n_pad = 2 * (2 * K + 1) + 1
    xg = np.arange(n_pad) / n_pad
    pairs, drifts = [], []
    for trial in range(params["fp_trials"]):
        rng_t = np.random.default_rng(seed + 100 + trial)
        pairs += [random_measure(K, rng_t), random_measure(K, rng_t)]
        amp = rng_t.uniform(2.0, 10.0)
        k_mode = int(rng_t.integers(1, 4))
        alpha = amp * np.sin(2 * np.pi * k_mode * xg + rng_t.uniform(0, 7))
        drifts += [alpha, alpha]
    # one batch of 2F members, each pair sharing its trial's drift
    flows = solve_fokker_planck(np.array(drifts)[:, None], pairs,
                                0.0, 0.2, nt=200)
    # each pair's sup over t, over its distance at t = 0
    ratios_fp = (_flow_distance(flows[0::2], flows[1::2])
                 / _flow_distance(flows[0::2, :1], flows[1::2, :1]))
    c_fit = float(np.max(ratios_fp))
    spread_ok = c_fit <= 1.5 * float(np.percentile(ratios_fp, 90))
    checks.append(_check(
        "Fokker-Planck stability: max ratio finite, no outlier beyond "
        "1.5x the bulk", np.isfinite(c_fit) and spread_ok,
        {"C_prime": c_fit, "p90": float(np.percentile(ratios_fp, 90))},
        1.5))
    cells.append({"params": {"quantity": "fp_stability_C"},
                  "estimate": c_fit, "stderr": 0.0, "seed": seed})

    # a stalled Picard solve would feed a wrong U(0, m) into the fits above
    worst = max(sols_nc.picard_residual, sols_cx.picard_residual)
    checks.append(_check(
        f"every MFC solve certified (Picard residual < {tol})",
        sols_nc.certified and sols_cx.certified, worst, tol))
    return cells, fits, checks


# ---------------------------------------------------------------------------
# projection residual suite (criterion 9)
# ---------------------------------------------------------------------------

def projection_suite(params: dict, seed: int):
    rng = np.random.default_rng(seed)
    K = params["cutoff"]
    sq = _squared_pairing(_grid_cos(64, 1, 1.0), K)
    bound = 2.0 * (2 * np.pi) ** 2  # sup_x 2 phi'(x)^2
    bound_factor, slope_tol = 1.2, 0.2
    x_fixed = 0.37
    cells, fits, checks = [], [], []
    residual_ok = True
    corr_points = []
    for n_pts in params["n_list"]:
        pts = rng.uniform(size=n_pts)
        pts[0] = x_fixed
        res = laplacian_residual(sq, pts, i=0)
        residual_ok &= res <= bound_factor * bound
        corr = res / n_pts ** 2
        corr_points.append((float(n_pts), max(corr, 1e-300)))
        cells.append({"params": {"N": n_pts}, "estimate": res,
                      "stderr": 0.0, "seed": seed})
    checks.append(_check(
        f"laplacian residual <= {bound_factor} x analytic bound, "
        "uniformly in N", residual_ok, residual_ok, True))
    fit = fit_loglog(corr_points)
    fits.append(_fit_dict("projection-correction", fit))
    checks.append(_check(f"correction term slope -2 +- {slope_tol}",
                       abs(fit.slope + 2.0) <= slope_tol, fit.slope,
                       (-2 - slope_tol, -2 + slope_tol)))
    return cells, fits, checks
