"""Monte Carlo estimators on interacting particle systems.

Replications are driven by counter-based substreams split from the master
seed, so estimates are bit-identical for a given (seed, parameters) pair
no matter how the work is scheduled. Torus coordinates are reduced mod 1
before any functional evaluation; the Euclidean variants never reduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, DimensionUnsupported, SamplingFailure
# solve_mfc is unused here, but perfbench/test_bench.py checks that the
# tracer wraps and restores this module's binding of it
from .pde import MFCProblem, MFCSolution, solve_mfc  # noqa: F401
from .spectral import (
    SpectralMeasure,
    _empirical_coeffs,
    lebesgue,
    to_density,
)
from .transport import (
    PointCloud,
    gaussian_product_quantile_cloud,
    gaussian_quantile_cloud,
    uniform_torus_quantile_cloud,
    w1_circle,
    w1_discrete,
)

__all__ = [
    "ParticleRunConfig",
    "MCEstimate",
    "CouponResult",
    "substream",
    "sample_measure",
    "estimate_vn_upper",
    "cole_hopf_vn",
    "coupon_occupancy",
    "occupancy_log_tail",
    "empirical_w1_rate",
]


@dataclass(frozen=True)
class ParticleRunConfig:
    """Simulation knobs: particle count, replications, step, seed."""

    n_particles: int
    replications: int
    dt: float = 0.005
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
_ID_VN_UPPER = 2
_ID_COLE_HOPF = 3
_ID_COUPON = 4
_ID_W1RATE = 5


# ---------------------------------------------------------------------------
# sampling from spectral measures
# ---------------------------------------------------------------------------

_CDF_POINTS = 2048  # inverse-CDF grid of the sampler
_SAMPLE_TOL_NEG = 1e-6


def sample_measure(m: SpectralMeasure, n: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Draw n i.i.d. points from a band-limited density on the circle.

    Inverts the exact CDF on a 2048-point grid; d >= 2 raises
    DimensionUnsupported. Density values in [-1e-6, 0) are truncation
    noise and are floored to zero; anything lower raises SamplingFailure.
    """
    if m.dim != 1:
        raise DimensionUnsupported("sample_measure needs d = 1")
    dens = to_density(m, _CDF_POINTS)
    vmin = dens.values.min()
    if vmin < -_SAMPLE_TOL_NEG:
        raise SamplingFailure(
            f"density dips to {vmin:.3e}; smooth the measure before sampling")
    vals = np.maximum(dens.values, 0.0)
    cdf = np.concatenate([[0.0], np.cumsum(vals) / _CDF_POINTS])
    cdf /= cdf[-1]
    u = rng.uniform(size=n)
    idx = np.searchsorted(cdf, u, side="right") - 1
    idx = np.clip(idx, 0, _CDF_POINTS - 1)
    cell = (u - cdf[idx]) / np.maximum(cdf[idx + 1] - cdf[idx], 1e-300)
    return ((idx + cell) / _CDF_POINTS)[:, None]


# ---------------------------------------------------------------------------
# particle cost simulations
# ---------------------------------------------------------------------------

def _simulate_cost(problem: MFCProblem, t0: float, initials: np.ndarray,
                   cfg: ParticleRunConfig, feedback: Optional[Callable],
                   rngs: list) -> np.ndarray:
    """M replications of the N-particle cost under a given feedback.

    ``initials`` has shape (M, N, d) and ``rngs`` holds M generators:
    replication r draws its noise from ``rngs[r]`` alone, so row r of the
    result equals a one-replication run on that stream. ``feedback`` is
    called once per time step with all M*N points. Left-endpoint Riemann
    accumulation of the control cost (1/N) sum_i |a_i|^2/2 plus the
    terminal cost; returns the M costs.
    """
    T = problem.horizon
    nt = max(int(round((T - t0) / cfg.dt)), 1)
    dt = (T - t0) / nt
    noise_scale = np.sqrt(2.0 * dt)
    x = np.array(initials, dtype=float, order="C")
    reps, _, d = x.shape
    K = problem.terminal_cost.cutoff
    total = np.zeros(reps)
    z = np.empty(x.shape)
    for j in range(nt):
        t = t0 + j * dt
        if feedback is None:
            a = np.zeros_like(x)
        else:
            a = feedback(t, np.mod(x, 1.0).reshape(-1, d)).reshape(x.shape)
        total += (0.5 * np.sum(a ** 2, axis=-1)).mean(axis=-1) * dt
        for r, rng in enumerate(rngs):
            rng.standard_normal(out=z[r])
        x = x + a * dt + noise_scale * z
    total += problem.terminal_cost.fast_value(
        _empirical_coeffs(np.mod(x, 1.0), K))
    return total


def _aggregate(values: np.ndarray) -> MCEstimate:
    m = int(len(values))
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / np.sqrt(m)) if m > 1 else 0.0
    return MCEstimate(mean, stderr, m)


def estimate_vn_upper(problem: MFCProblem, t0: float, x: np.ndarray,
                      cfg: ParticleRunConfig,
                      mfc_solution: MFCSolution) -> MCEstimate:
    """N-particle cost under the feedback of ``mfc_solution``.

    Upper-bounds V^N(t0, x) up to Monte Carlo error, since V^N is an
    infimum over all controls and this evaluates one of them. The caller
    solves the MFC problem and checks ``mfc_solution.certified``.

    ``x`` holds cfg.n_particles points; any other count raises
    DimensionMismatch. The cfg.replications runs advance as one (M, N, d)
    batch, each on its own substream, so the estimate equals that of
    running them one at a time.
    """
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if len(pts) != cfg.n_particles:
        raise DimensionMismatch(
            f"{len(pts)} initial points for cfg.n_particles = "
            f"{cfg.n_particles}")
    reps = cfg.replications
    rngs = [substream(cfg.seed, _ID_VN_UPPER, rep) for rep in range(reps)]
    initials = np.broadcast_to(pts, (reps,) + pts.shape)
    return _aggregate(_simulate_cost(problem, t0, initials, cfg,
                                     mfc_solution.feedback_at, rngs))


# ---------------------------------------------------------------------------
# Example-1 Cole-Hopf value
# ---------------------------------------------------------------------------

def cole_hopf_vn(horizon: float, dim: int, cfg: ParticleRunConfig,
                 quantize: int | None = None) -> tuple[MCEstimate, dict]:
    """V^N(0, 0) = -(1/N) log E[exp(-N d_1(m_xi^N, N_T))] by Monte Carlo.

    N is cfg.n_particles. Each of the cfg.replications batches draws N
    i.i.d. N(0, horizon I) points and measures the exact
    d_1 to an equal-mass quantile quantization of the Gaussian (per-axis
    count ``quantize``; default matches N so the quantization error scales
    with the sampling error). Log-scale jackknife standard error. Returns
    the estimate and a diagnostics dict (quantization error bound, target
    size). Each distance is exact: N times the target size past the LP
    budget of ``w1_discrete`` raises BudgetExceeded.
    """
    from scipy.special import logsumexp

    if horizon < 1.0 / (2.0 * np.pi):
        raise ValueError("horizon below 1/(2 pi): Gaussian density "
                         "exceeds 1 and the occupancy comparison fails")
    N = cfg.n_particles
    sd = np.sqrt(horizon)
    if dim == 1:
        target, qerr = gaussian_quantile_cloud(quantize or max(N, 64), sd)
    else:
        per_axis = quantize or int(round(N ** (1.0 / dim)))
        target, qerr = gaussian_product_quantile_cloud(dim, per_axis, sd)
    log_terms = np.empty(cfg.replications)
    for rep in range(cfg.replications):
        rng = substream(cfg.seed, _ID_COLE_HOPF, rep)
        pts = rng.normal(scale=sd, size=(N, dim))
        dist = w1_discrete(PointCloud(dim, pts), target, metric="euclidean")
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
    diag = {"quantization_error": qerr, "target_size": target.size}
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


def _occupancy_recursion(n_cells: int, lowest: int) -> np.ndarray:
    """The occupancy log-pmf after N draws, exact at the counts >= lowest.

    A log-domain Markov recursion on the occupancy chain (m -> m w.p. m/N,
    m -> m+1 w.p. 1 - m/N): entry m is log P[occupied = m]. After t draws only the counts 0..t can be reached, and only those
    >= lowest - (N - t) can still end at lowest or above; so draw t + 1
    updates entries max(lowest - N + t + 1, 0)..t+1 alone. Each of them
    reads only entries updated at the previous draw, so they get the same
    floats as the full-length update; entries below the window are stale.
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
        lo, k = max(lowest - N + t + 1, 0), t + 2
        g = max(lo, 1)  # grow[0] stays -inf: no count below 0
        np.add(log_p[lo:k], log_stay[lo:k], out=stay[lo:k])
        np.add(log_p[g - 1:k - 1], log_step[g:k], out=grow[g:k])
        np.logaddexp(stay[lo:k], grow[lo:k], out=log_p[lo:k])
    return log_p


def occupancy_log_tail(n_cells: int, p: float) -> float:
    """log P[occupied > (1 - p) N], exactly, via the occupancy recursion
    restricted to the counts that can still reach the tail."""
    from scipy.special import logsumexp

    cut = int(np.floor((1.0 - p) * n_cells)) + 1
    if cut > n_cells:
        return -np.inf
    return float(logsumexp(_occupancy_recursion(n_cells, cut)[cut:]))


# ---------------------------------------------------------------------------
# empirical W1 convergence rate
# ---------------------------------------------------------------------------

def empirical_w1_rate(dim: int, n_list, replications: int, seed: int = 0):
    """Mean d_1(uniform sample, reference) on T^d against N.

    d = 1 compares against Lebesgue exactly on the circle; d >= 2 against
    an N-cell equal-mass quantization, so the quantization error scales
    with the signal. Returns one row (N, mean, stderr, quantization_error)
    per N.
    """
    rows = []
    for n_pts in n_list:
        vals = np.empty(replications)
        qerr = 0.0
        if dim >= 2:
            per_axis = int(round(n_pts ** (1.0 / dim)))
            if per_axis ** dim != n_pts:
                raise ValueError(
                    f"d >= 2 uniform rate needs N a perfect {dim}-th power, "
                    f"got {n_pts}")
            target, qerr = uniform_torus_quantile_cloud(dim, per_axis)
        for rep in range(replications):
            rng = substream(seed, _ID_W1RATE, int(n_pts), rep)
            pts = rng.uniform(size=(n_pts, dim))
            if dim == 1:
                vals[rep] = w1_circle(PointCloud(1, pts), lebesgue(1, 4))
            else:
                vals[rep] = w1_discrete(PointCloud(dim, pts), target,
                                        metric="torus")
        est = _aggregate(vals)
        rows.append((int(n_pts), est.mean, est.stderr, qerr))
    return rows
