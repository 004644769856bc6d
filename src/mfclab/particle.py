"""Monte Carlo estimators on interacting particle systems.

Replications are driven by counter-based substreams split from the master
seed, so estimates are bit-identical for a given (seed, parameters) pair
no matter how the work is scheduled. Torus coordinates are reduced mod 1
before any functional evaluation; the Euclidean variants never reduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal, Optional

import numpy as np
from scipy.special import logsumexp

from .errors import BudgetExceeded, SamplingFailure
# solve_mfc is unused here, but perfbench/test_bench.py checks that the
# tracer wraps and restores this module's binding of it
from .pde import MFCProblem, MFCSolution, solve_mfc  # noqa: F401
from .spectral import SpectralMeasure, empirical, eval_modes, to_density
from .transport import (
    DEFAULT_LP_BUDGET,
    PointCloud,
    gaussian_product_quantile_cloud,
    gaussian_quantile_cloud,
    w1_approx,
    w1_circle,
    w1_discrete,
)

__all__ = [
    "ParticleRunConfig",
    "MCEstimate",
    "CouponResult",
    "substream",
    "sample_measure",
    "estimate_vhat",
    "estimate_vn_upper",
    "cole_hopf_vn",
    "coupon_occupancy",
    "occupancy_log_pmf",
    "occupancy_log_tail",
    "empirical_w1_rate",
]


@dataclass(frozen=True)
class ParticleRunConfig:
    """Simulation knobs: particle count, replications, step, noise, seed."""

    n_particles: int
    replications: int
    dt: float = 0.005
    diffusion: Literal["unit", "sqrt2"] = "sqrt2"
    seed: int = 0

    def __post_init__(self):
        if self.n_particles < 1 or self.replications < 1 or self.dt <= 0:
            raise ValueError("need N >= 1, M >= 1, dt > 0")


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    stderr: float
    replications: int

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")


@dataclass(frozen=True)
class CouponResult:
    occupied_fraction: MCEstimate
    prob_bpn: MCEstimate


def substream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic child stream for (master seed, experiment id, index)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


# experiment ids for stream splitting (stable across runs)
_ID_VHAT = 1
_ID_VN_UPPER = 2
_ID_COLE_HOPF = 3
_ID_COUPON = 4
_ID_W1RATE = 5


# ---------------------------------------------------------------------------
# sampling from spectral measures
# ---------------------------------------------------------------------------

def sample_measure(m: SpectralMeasure, n: int, rng: np.random.Generator,
                   resolution: int = 2048,
                   tol_neg: float = 1e-6) -> np.ndarray:
    """Draw n i.i.d. points from a band-limited density on the torus.

    d = 1 inverts the exact CDF on a fine grid; d >= 2 uses rejection from
    the density's sup. Density values in [-tol_neg, 0) are truncation noise
    and are floored to zero; anything lower raises SamplingFailure.
    """
    d = m.dim
    dens = to_density(m, resolution if d == 1 else max(64, 4 * m.cutoff))
    vmin = dens.values.min()
    if vmin < -tol_neg:
        raise SamplingFailure(
            f"density dips to {vmin:.3e}; repair or smooth before sampling")
    vals = np.maximum(dens.values, 0.0)
    if d == 1:
        cdf = np.concatenate([[0.0], np.cumsum(vals) / resolution])
        cdf /= cdf[-1]
        u = rng.uniform(size=n)
        idx = np.searchsorted(cdf, u, side="right") - 1
        idx = np.clip(idx, 0, resolution - 1)
        cell = (u - cdf[idx]) / np.maximum(cdf[idx + 1] - cdf[idx], 1e-300)
        return ((idx + cell) / resolution)[:, None]
    bound = vals.max() * 1.05 + 1e-12
    out = np.empty((0, d))
    guard = 0
    while len(out) < n:
        guard += 1
        if guard > 10000:
            raise SamplingFailure("rejection sampler stalled")
        batch = max(2 * (n - len(out)), 64)
        pts = rng.uniform(size=(batch, d))
        u = rng.uniform(size=batch)
        f = eval_modes(m.coeffs, m.cutoff, pts)
        keep = u * bound <= np.maximum(f, 0.0)
        out = np.concatenate([out, pts[keep]])
    return out[:n]


# ---------------------------------------------------------------------------
# particle cost simulations
# ---------------------------------------------------------------------------

def _simulate_cost(problem: MFCProblem, t0: float, initials: np.ndarray,
                   cfg: ParticleRunConfig, feedback: Optional[Callable],
                   rng: np.random.Generator) -> float:
    """One replication of the N-particle cost under a given feedback.

    ``initials`` has shape (N, d). Left-endpoint Riemann accumulation of
    (1/N) sum_i L(X_i, a_i) + F(m^N) plus the terminal cost.
    """
    T = problem.horizon
    nt = max(int(round((T - t0) / cfg.dt)), 1)
    dt = (T - t0) / nt
    noise_scale = np.sqrt(2.0 * dt) if cfg.diffusion == "sqrt2" \
        else np.sqrt(dt)
    x = initials.copy()
    npart, d = x.shape
    K = problem.terminal_cost.cutoff
    total = 0.0
    for j in range(nt):
        t = t0 + j * dt
        xt = np.mod(x, 1.0)
        a = np.zeros_like(x) if feedback is None else feedback(t, xt)
        lag = problem.hamiltonian.running_lagrangian(xt, a).mean()
        run = lag
        if problem.running_cost is not None:
            run += problem.running_cost(empirical(xt, K))
        total += run * dt
        x = x + a * dt + noise_scale * rng.standard_normal(x.shape)
    total += problem.terminal_cost(empirical(np.mod(x, 1.0), K))
    return total


def _aggregate(values: np.ndarray) -> MCEstimate:
    m = int(len(values))
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / np.sqrt(m)) if m > 1 else 0.0
    return MCEstimate(mean, stderr, m)


def estimate_vhat(problem: MFCProblem, t0: float, m: SpectralMeasure,
                  cfg: ParticleRunConfig,
                  feedback: Optional[Callable] = None) -> MCEstimate:
    """Monte Carlo value of the lifted functional: N i.i.d. initials from m,
    all particles driven by the same feedback with independent noises."""
    costs = np.empty(cfg.replications)
    for rep in range(cfg.replications):
        rng = substream(cfg.seed, _ID_VHAT, rep)
        initials = sample_measure(m, cfg.n_particles, rng)
        costs[rep] = _simulate_cost(problem, t0, initials, cfg, feedback, rng)
    return _aggregate(costs)


def estimate_vn_upper(problem: MFCProblem, t0: float, x: np.ndarray,
                      cfg: ParticleRunConfig,
                      mfc_solution: MFCSolution) -> MCEstimate:
    """N-particle cost under the feedback of ``mfc_solution``.

    Upper-bounds V^N(t0, x) up to Monte Carlo error, since V^N is an
    infimum over all controls and this evaluates one of them. The caller
    solves the MFC problem and checks ``mfc_solution.certified``.
    """
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    feedback = mfc_solution.feedback_at
    costs = np.empty(cfg.replications)
    for rep in range(cfg.replications):
        rng = substream(cfg.seed, _ID_VN_UPPER, rep)
        costs[rep] = _simulate_cost(problem, t0, pts, cfg, feedback, rng)
    return _aggregate(costs)


# ---------------------------------------------------------------------------
# Example-1 Cole-Hopf value
# ---------------------------------------------------------------------------

def cole_hopf_vn(n_particles: int, horizon: float, dim: int,
                 cfg: ParticleRunConfig, quantize: int | None = None,
                 budget: int = DEFAULT_LP_BUDGET,
                 allow_approx: bool = False) -> tuple[MCEstimate, dict]:
    """V^N(0, 0) = -(1/N) log E[exp(-N d_1(m_xi^N, N_T))] by Monte Carlo.

    Each batch draws N i.i.d. N(0, horizon I) points and measures the exact
    d_1 to an equal-mass quantile quantization of the Gaussian (per-axis
    count ``quantize``; default matches N so the quantization error scales
    with the sampling error). Log-scale jackknife standard error. Returns
    the estimate and a diagnostics dict (quantization error bound, whether
    the approximate fallback was used).
    """
    if horizon < 1.0 / (2.0 * np.pi):
        raise ValueError("horizon below 1/(2 pi): Gaussian density "
                         "exceeds 1 and the occupancy comparison fails")
    N = n_particles
    sd = np.sqrt(horizon)
    if dim == 1:
        target, qerr = gaussian_quantile_cloud(quantize or max(N, 64), sd)
    else:
        per_axis = quantize or int(round(N ** (1.0 / dim)))
        target, qerr = gaussian_product_quantile_cloud(dim, per_axis, sd)
    used_approx = False
    log_terms = np.empty(cfg.replications)
    for rep in range(cfg.replications):
        rng = substream(cfg.seed, _ID_COLE_HOPF, rep)
        pts = rng.normal(scale=sd, size=(N, dim))
        cloud = PointCloud(dim, pts)
        if N * target.size <= budget:
            dist = w1_discrete(cloud, target, metric="euclidean",
                               budget=budget)
        elif allow_approx:
            used_approx = True
            dist = w1_approx(cloud, target, eps_reg=0.01)
        else:
            raise BudgetExceeded(
                f"{N} x {target.size} exceeds budget {budget}; "
                "pass allow_approx=True for the entropic fallback")
        log_terms[rep] = -N * dist
    m = cfg.replications
    log_mean = logsumexp(log_terms) - np.log(m)
    estimate = -log_mean / N
    # jackknife on the log scale
    if m > 1:
        loo = np.empty(m)
        for i in range(m):
            mask = np.ones(m, dtype=bool)
            mask[i] = False
            loo[i] = logsumexp(log_terms[mask]) - np.log(m - 1)
        theta = -loo / N
        stderr = float(np.sqrt((m - 1) / m * np.sum((theta - theta.mean()) ** 2)))
    else:
        stderr = 0.0
    diag = {"quantization_error": qerr, "approximate": used_approx,
            "target_size": target.size}
    return MCEstimate(float(estimate), stderr, m), diag


# ---------------------------------------------------------------------------
# coupon-collector occupancy
# ---------------------------------------------------------------------------

def coupon_occupancy(n_cells: int, trials: int, p: float,
                     seed: int = 0) -> CouponResult:
    """Simulate N uniform draws into N cells; report the occupied fraction
    and the empirical probability of filling more than (1-p) N cells."""
    if not (0.0 < p < 1.0):
        raise ValueError("p must lie in (0, 1)")
    rng = substream(seed, _ID_COUPON, n_cells)
    fractions = np.empty(trials)
    hits = np.empty(trials)
    threshold = (1.0 - p) * n_cells
    for t in range(trials):
        draws = rng.integers(0, n_cells, size=n_cells)
        occupied = np.count_nonzero(np.bincount(draws, minlength=n_cells))
        fractions[t] = occupied / n_cells
        hits[t] = 1.0 if occupied > threshold else 0.0
    return CouponResult(_aggregate(fractions), _aggregate(hits))


def occupancy_log_pmf(n_cells: int) -> np.ndarray:
    """Exact log-pmf of the occupied-cell count after N draws into N cells.

    Log-domain Markov recursion on the occupancy chain
    (m -> m w.p. m/N, m -> m+1 w.p. 1 - m/N); exact up to rounding, no
    simulation involved. Entry m of the result is log P[occupied = m].
    After t draws only the counts 0..t can be reached, so draw t + 1 updates
    entries 0..t+1 alone; the rest stay -inf, as the full-length update
    would leave them.
    """
    N = n_cells
    log_p = np.full(N + 1, -np.inf)
    log_p[0] = 0.0
    ms = np.arange(N + 1, dtype=float)
    with np.errstate(divide="ignore"):
        log_stay = np.log(ms / N)
        log_step = np.log(1.0 - (ms - 1.0) / N)
    stay = np.empty(N + 1)
    grow = np.empty(N + 1)
    grow[0] = -np.inf
    for t in range(N):
        k = t + 2
        np.add(log_p[:k], log_stay[:k], out=stay[:k])
        np.add(log_p[:k - 1], log_step[1:k], out=grow[1:k])
        np.logaddexp(stay[:k], grow[:k], out=log_p[:k])
    return log_p


def occupancy_log_tail(n_cells: int, p: float) -> float:
    """log P[occupied > (1 - p) N], exactly, via the occupancy recursion."""
    log_p = occupancy_log_pmf(n_cells)
    cut = int(np.floor((1.0 - p) * n_cells)) + 1
    if cut > n_cells:
        return -np.inf
    return float(logsumexp(log_p[cut:]))


# ---------------------------------------------------------------------------
# empirical W1 convergence rate
# ---------------------------------------------------------------------------

def empirical_w1_rate(dim: int, sampler: str, n_list, replications: int,
                      seed: int = 0, horizon: float = 1.0,
                      budget: int = DEFAULT_LP_BUDGET):
    """Mean d_1(empirical sample, reference) against N, plus the log-log fit.

    Samplers: ``uniform_torus`` (d = 1 compares against Lebesgue exactly on
    the circle; d >= 2 against an N-cell equal-mass quantization so the
    quantization error scales with the signal) and ``gaussian`` (quantile
    quantization, Euclidean metric). Returns (RateFit, rows) where rows are
    (N, mean, stderr, quantization_error).
    """
    from .harness import fit_loglog

    rows = []
    for n_pts in n_list:
        rng_base = (seed, _ID_W1RATE, int(n_pts))
        vals = np.empty(replications)
        qerr = 0.0
        if sampler == "uniform_torus" and dim >= 2:
            per_axis = int(round(n_pts ** (1.0 / dim)))
            if per_axis ** dim != n_pts:
                raise ValueError(
                    f"d >= 2 uniform rate needs N a perfect {dim}-th power, "
                    f"got {n_pts}")
            from .transport import uniform_torus_quantile_cloud
            target, qerr = uniform_torus_quantile_cloud(dim, per_axis)
        elif sampler == "gaussian":
            target, qerr = (gaussian_quantile_cloud(512, np.sqrt(horizon))
                            if dim == 1 else
                            gaussian_product_quantile_cloud(
                                dim, 32, np.sqrt(horizon)))
        for rep in range(replications):
            rng = substream(*rng_base, rep)
            if sampler == "uniform_torus":
                pts = rng.uniform(size=(n_pts, dim))
                if dim == 1:
                    from .spectral import lebesgue
                    vals[rep] = w1_circle(PointCloud(1, pts),
                                          lebesgue(1, 4))
                else:
                    if n_pts * target.size > budget:
                        raise BudgetExceeded("raise the budget or shrink N")
                    vals[rep] = w1_discrete(PointCloud(dim, pts), target,
                                            metric="torus", budget=budget)
            elif sampler == "gaussian":
                pts = rng.normal(scale=np.sqrt(horizon), size=(n_pts, dim))
                vals[rep] = w1_discrete(PointCloud(dim, pts), target,
                                        metric="euclidean", budget=budget)
            else:
                raise ValueError(f"unknown sampler {sampler!r}")
        est = _aggregate(vals)
        rows.append((int(n_pts), est.mean, est.stderr, qerr))
    fit = fit_loglog([(float(r[0]), r[1]) for r in rows])
    return fit, rows
