"""Wasserstein-1 distances on the circle, the torus, and R^d point clouds.

Three exact routes and one approximate one:

* circle (d=1): the Kantorovich-Rubinstein distance equals
  min_c int_0^1 |F_1(x) - F_2(x) - c| dx with the optimal c a weighted
  median of F_1 - F_2. Atom-vs-atom and atom-vs-Lebesgue instances are
  computed in closed form from the sorted breakpoints; smooth spectral
  densities use the exact Fourier antiderivative of the CDF on a fine grid.
* d=1 Euclidean: sorted-CDF sweep, exact for arbitrary weights.
* general point clouds: uniform equal-size instances reduce to an
  assignment problem (scipy's Hungarian solver); the general weighted case
  solves the transportation LP with HiGHS on a sparse constraint matrix.
* ``w1_approx``: log-domain Sinkhorn whose plan is rounded to a feasible
  coupling, so the returned cost upper-bounds the exact distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Union

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import coo_array
from scipy.spatial.distance import cdist
from scipy.stats import norm

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    DimensionUnsupported,
    NonConvergence,
    NotNormalized,
)
from .spectral import GridField, SpectralMeasure, from_density, mode_values

__all__ = [
    "PointCloud",
    "w1_circle",
    "w1_discrete",
    "w1_approx",
    "sorted_w1_1d",
    "torus_distance_matrix",
    "euclidean_distance_matrix",
    "gaussian_quantile_cloud",
    "gaussian_product_quantile_cloud",
    "uniform_torus_quantile_cloud",
    "DEFAULT_LP_BUDGET",
]

DEFAULT_LP_BUDGET = 4_000_000

Metric = Literal["torus", "euclidean"]


@dataclass(frozen=True)
class PointCloud:
    """Weighted point cloud; weights default to uniform and must sum to 1."""

    dim: int
    points: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.shape[1] != self.dim:
            raise DimensionMismatch(
                f"points have dim {pts.shape[1]}, expected {self.dim}"
            )
        if not np.all(np.isfinite(pts)):
            raise ValueError("point coordinates must be finite")
        if self.weights is None:
            w = np.full(len(pts), 1.0 / len(pts))
        else:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (len(pts),):
                raise DimensionMismatch("weights must match point count")
            if np.any(w < 0):
                raise NotNormalized("weights must be nonnegative")
            if abs(w.sum() - 1.0) > 1e-12:
                raise NotNormalized(f"weights sum to {w.sum()!r}, expected 1")
        pts = np.ascontiguousarray(pts)
        w = np.ascontiguousarray(w)
        pts.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return len(self.points)


# ---------------------------------------------------------------------------
# ground metrics
# ---------------------------------------------------------------------------

def torus_distance_matrix(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Geodesic distances on T^d between rows of xa and rows of xb.

    Accumulates one (n, m) array per axis, so no (n, m, d) temporary is
    built. Per axis, delta = |xa_k - xb_k| is reduced mod 1 as
    delta - floor(delta), which for delta >= 0 is exact and equal to
    ``delta % 1.0``; then min(delta, 1 - delta) is squared and summed over
    the axes in order, and the root taken at the end. The result is bit for
    bit the broadcast formula for any finite coordinates, inside [0, 1) or
    not: the points are never wrapped first.
    """
    out = np.zeros((len(xa), len(xb)))
    delta = np.empty_like(out)
    tmp = np.empty_like(out)
    for k in range(xa.shape[1]):
        np.subtract.outer(xa[:, k], xb[:, k], out=delta)
        np.abs(delta, out=delta)
        np.floor(delta, out=tmp)
        delta -= tmp
        np.subtract(1.0, delta, out=tmp)
        np.minimum(delta, tmp, out=delta)
        delta *= delta
        out += delta
    return np.sqrt(out, out=out)


def euclidean_distance_matrix(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Euclidean distances between rows of xa and rows of xb."""
    return cdist(xa, xb)


def _cost_matrix(a: PointCloud, b: PointCloud, metric: Metric) -> np.ndarray:
    if metric == "torus":
        return torus_distance_matrix(a.points, b.points)
    if metric == "euclidean":
        return euclidean_distance_matrix(a.points, b.points)
    raise ValueError(f"unknown metric {metric!r}")


# ---------------------------------------------------------------------------
# circle W1 (exact formulas)
# ---------------------------------------------------------------------------

def _weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    order = np.argsort(values)
    v, w = values[order], weights[order]
    cum = np.cumsum(w)
    half = 0.5 * cum[-1]
    return float(v[np.searchsorted(cum, half)])


def _circle_w1_atoms(za, wa, zb, wb) -> float:
    """Exact circle W1 between two atomic measures via breakpoint sweep."""
    pos = np.concatenate([np.mod(za, 1.0), np.mod(zb, 1.0)])
    jump = np.concatenate([wa, -wb])
    order = np.argsort(pos, kind="stable")
    pos, jump = pos[order], jump[order]
    # G = F_a - F_b is constant on each interval between breakpoints
    g = np.cumsum(jump)
    lengths = np.diff(np.append(pos, pos[0] + 1.0))
    keep = lengths > 0
    g, lengths = g[keep], lengths[keep]
    c = _weighted_median(g, lengths)
    return float(np.sum(lengths * np.abs(g - c)))


def _circle_w1_atoms_vs_uniform(z, w) -> float:
    """Exact circle W1 between an atomic measure and Lebesgue.

    On each inter-atom segment, G(x) = F_atoms(x) - x is linear with slope
    -1, so G pushes Lebesgue measure to unit-density value intervals; the
    optimal shift is their exact median and the objective integrates in
    closed form.
    """
    order = np.argsort(np.mod(z, 1.0))
    z = np.mod(z, 1.0)[order]
    w = np.asarray(w, dtype=float)[order]
    cumw = np.concatenate([[0.0], np.cumsum(w)])
    starts = np.concatenate([[0.0], z])
    ends = np.concatenate([z, [1.0]])
    lengths = ends - starts
    keep = lengths > 0
    lo = (cumw - ends)[keep]
    hi = (cumw - starts)[keep]
    lengths = lengths[keep]
    # median of the superposition of unit-density intervals [lo, hi]:
    # between consecutive endpoints the density is the cover count
    events = np.concatenate([lo, hi])
    signs = np.concatenate([np.ones_like(lo), -np.ones_like(hi)])
    order2 = np.argsort(events, kind="stable")
    ev, sg = events[order2], signs[order2]
    cover = np.cumsum(sg)[:-1]
    seg_len = np.diff(ev)
    mass = cover * seg_len
    cum = np.concatenate([[0.0], np.cumsum(mass)])
    j = int(np.searchsorted(cum, 0.5, side="right") - 1)
    j = min(j, len(seg_len) - 1)
    c = ev[j] + (0.5 - cum[j]) / max(cover[j], 1e-300)

    def seg_int(a, b, c):
        # int_a^b |v - c| dv
        out = np.empty_like(a)
        below = b <= c
        above = a >= c
        mid = ~(below | above)
        out[below] = ((c - a[below]) ** 2 - (c - b[below]) ** 2) / 2.0
        out[above] = ((b[above] - c) ** 2 - (a[above] - c) ** 2) / 2.0
        out[mid] = ((a[mid] - c) ** 2 + (b[mid] - c) ** 2) / 2.0
        return out

    return float(np.sum(seg_int(lo, hi, c)))


def _cdf_offset_values(m: SpectralMeasure, resolution: int) -> np.ndarray:
    """Values of T(x) = sum_{k != 0} c_k (e^{-2pi i k x})/(-2pi i k) on the grid.

    F(x) = x + T(x) - T(0) is the exact CDF of the band-limited density.
    """
    K = m.cutoff
    k = mode_values(K).astype(float)
    d = np.zeros(2 * K + 1, dtype=complex)
    nz = k != 0
    d[nz] = m.coeffs[nz] / (-2j * np.pi * k[nz])
    full = np.zeros(resolution, dtype=complex)
    full[mode_values(K) % resolution] = d
    return np.fft.fft(full).real


def _is_lebesgue(m) -> bool:
    if not isinstance(m, SpectralMeasure):
        return False
    c = m.coeffs.copy()
    c[tuple(s // 2 for s in c.shape)] = 0.0
    return bool(np.max(np.abs(c)) < 1e-14)


CircleOperand = Union[SpectralMeasure, GridField, PointCloud]


def w1_circle(m1: CircleOperand, m2: CircleOperand,
              resolution: int = 8192) -> float:
    """Exact Kantorovich-Rubinstein distance on the unit circle.

    Computed as min over the shift c of int |F_1 - F_2 - c| with c the
    weighted median of F_1 - F_2. Atomic operands (PointCloud) and the
    atomic-vs-Lebesgue case evaluate in closed form; smooth operands use the
    exact Fourier antiderivative of the CDF sampled on ``resolution`` points.
    """
    ops = []
    for m in (m1, m2):
        if isinstance(m, GridField):
            if m.dim != 1:
                raise DimensionUnsupported("w1_circle needs d = 1")
            m = from_density(m, cutoff=(m.resolution - 1) // 2)
        ops.append(m)
    a, b = ops
    for m in (a, b):
        dim = m.dim if isinstance(m, (SpectralMeasure, PointCloud)) else 1
        if dim != 1:
            raise DimensionUnsupported("w1_circle needs d = 1")

    if isinstance(a, PointCloud) and isinstance(b, PointCloud):
        return _circle_w1_atoms(a.points[:, 0], a.weights,
                                b.points[:, 0], b.weights)
    if isinstance(a, PointCloud) and _is_lebesgue(b):
        return _circle_w1_atoms_vs_uniform(a.points[:, 0], a.weights)
    if isinstance(b, PointCloud) and _is_lebesgue(a):
        return _circle_w1_atoms_vs_uniform(b.points[:, 0], b.weights)

    x = np.arange(resolution) / resolution
    gvals = np.zeros(resolution)
    for sign, m in ((1.0, a), (-1.0, b)):
        if isinstance(m, SpectralMeasure):
            t = _cdf_offset_values(m, resolution)
            gvals += sign * (t - t[0])
        else:  # PointCloud vs smooth measure: step CDF on the grid
            z = np.sort(np.mod(m.points[:, 0], 1.0))
            cw = np.cumsum(m.weights[np.argsort(np.mod(m.points[:, 0], 1.0))])
            f = np.concatenate([[0.0], cw])[np.searchsorted(z, x, side="right")]
            gvals += sign * (f - x)
    c = np.median(gvals)
    return float(np.mean(np.abs(gvals - c)))


# ---------------------------------------------------------------------------
# 1D Euclidean W1 (exact, arbitrary weights)
# ---------------------------------------------------------------------------

def sorted_w1_1d(xa, wa, xb, wb) -> float:
    """Exact W1 on the line: integral of |F_a - F_b| between breakpoints."""
    xs = np.concatenate([xa, xb])
    jumps = np.concatenate([wa, -wb])
    order = np.argsort(xs, kind="stable")
    xs, jumps = xs[order], jumps[order]
    diff = np.cumsum(jumps)[:-1]
    gaps = np.diff(xs)
    return float(np.sum(np.abs(diff) * gaps))


# ---------------------------------------------------------------------------
# exact discrete OT
# ---------------------------------------------------------------------------

def w1_discrete(a: PointCloud, b: PointCloud, metric: Metric = "euclidean",
                budget: int = DEFAULT_LP_BUDGET) -> float:
    """Exact optimal transport cost with |x - y| ground metric.

    Routes: 1D instances use the sorted-CDF sweep (torus: circle formula);
    uniform equal-size clouds solve an assignment problem; every other
    weighted pair solves the transportation LP (one variable per atom pair,
    one equality per marginal) with HiGHS, and a solver status other than
    optimal raises NonConvergence. Pairs with ``a.size * b.size > budget``
    raise BudgetExceeded before any route runs.
    """
    if a.dim != b.dim:
        raise DimensionMismatch("clouds must share dim")
    if a.size * b.size > budget:
        raise BudgetExceeded(
            f"{a.size} x {b.size} exceeds LP budget {budget}; "
            "subsample or use w1_approx"
        )
    if a.dim == 1:
        if metric == "torus":
            return _circle_w1_atoms(a.points[:, 0], a.weights,
                                    b.points[:, 0], b.weights)
        return sorted_w1_1d(a.points[:, 0], a.weights,
                            b.points[:, 0], b.weights)
    cost = _cost_matrix(a, b, metric)
    uniform_a = np.allclose(a.weights, 1.0 / a.size, atol=1e-13)
    uniform_b = np.allclose(b.weights, 1.0 / b.size, atol=1e-13)
    if uniform_a and uniform_b and a.size == b.size:
        rows, cols = linear_sum_assignment(cost)
        return float(cost[rows, cols].mean())
    # plan entry (i, j) is variable i * nb + j: it sits in supply row i
    # and in demand row na + j
    na, nb = cost.shape
    n_vars = na * nb
    rows = np.concatenate([np.repeat(np.arange(na), nb),
                           na + np.tile(np.arange(nb), na)])
    cols = np.tile(np.arange(n_vars), 2)
    a_eq = coo_array((np.ones(2 * n_vars), (rows, cols)),
                     shape=(na + nb, n_vars))
    res = linprog(cost.ravel(), A_eq=a_eq,
                  b_eq=np.concatenate([a.weights, b.weights]),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise NonConvergence(f"transportation LP: {res.message}")
    return float(res.fun)


# ---------------------------------------------------------------------------
# entropic approximation
# ---------------------------------------------------------------------------

def w1_approx(a: PointCloud, b: PointCloud, eps_reg: float,
              metric: Metric = "euclidean", max_iter: int = 2000,
              tol: float = 1e-7, fail_tol: float = 1e-4) -> float:
    """Upper-biased entropic estimate of W1.

    Log-domain Sinkhorn followed by rounding to a feasible coupling; the
    cost of any feasible coupling dominates the exact distance, so the
    estimate is an upper bound up to floating-point error. Residual marginal
    violation below ``tol`` stops early; a violation still above
    ``fail_tol`` after ``max_iter`` sweeps raises NonConvergence (the
    rounding correction would no longer be a small perturbation).
    """
    if eps_reg <= 0:
        raise ValueError("eps_reg must be positive")
    cost = _cost_matrix(a, b, metric)
    loga = np.log(np.maximum(a.weights, 1e-300))
    logb = np.log(np.maximum(b.weights, 1e-300))
    f = np.zeros(a.size)
    g = np.zeros(b.size)
    mk = -cost / eps_reg
    for it in range(max_iter):
        f = -eps_reg * _logsumexp(mk + (g / eps_reg + logb)[None, :], axis=1)
        g = -eps_reg * _logsumexp(mk.T + (f / eps_reg + loga)[None, :], axis=1)
        # after the g-update column marginals are exact; check the rows
        logp = mk + (f / eps_reg + loga)[:, None] + (g / eps_reg + logb)[None, :]
        row_err = np.max(np.abs(np.exp(_logsumexp(logp, axis=1)) - a.weights))
        if row_err < tol:
            break
    if row_err > fail_tol:
        raise NonConvergence("sinkhorn did not converge", residual=row_err,
                             iterations=max_iter)
    logp = mk + (f / eps_reg + loga)[:, None] + (g / eps_reg + logb)[None, :]
    plan = np.exp(logp)
    plan = _round_to_feasible(plan, a.weights, b.weights)
    return float(np.sum(plan * cost))


def _logsumexp(x, axis):
    m = np.max(x, axis=axis, keepdims=True)
    return (m + np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True))) \
        .squeeze(axis)


def _round_to_feasible(plan, a, b):
    """Altschuler-Weed-Rigollet rounding onto the transport polytope."""
    row = plan.sum(axis=1)
    scale_r = np.minimum(1.0, a / np.maximum(row, 1e-300))
    plan = plan * scale_r[:, None]
    col = plan.sum(axis=0)
    scale_c = np.minimum(1.0, b / np.maximum(col, 1e-300))
    plan = plan * scale_c[None, :]
    err_a = a - plan.sum(axis=1)
    err_b = b - plan.sum(axis=0)
    total = err_a.sum()
    if total > 1e-300:
        plan = plan + np.outer(err_a, err_b) / total
    return plan


# ---------------------------------------------------------------------------
# quantized continuous targets
# ---------------------------------------------------------------------------

def gaussian_quantile_cloud(n: int, sd: float) -> tuple[PointCloud, float]:
    """Equal-mass quantile quantization of N(0, sd^2) on the line.

    Returns the cloud and an upper bound on the W1 quantization error,
    computed cell by cell from the exact truncated-normal mean deviation.
    """
    probs = (np.arange(n) + 0.5) / n
    centers = norm.ppf(probs) * sd
    edges = norm.ppf(np.arange(n + 1) / n) * sd
    err = _gaussian_cell_l1(edges, centers, sd)
    return PointCloud(1, centers[:, None]), err


def _gaussian_cell_l1(edges, centers, sd) -> float:
    # int_cell |x - c| phi(x) dx summed over cells, evaluated in closed form
    # using int x phi = -sd^2 phi and the normal CDF.
    total = 0.0
    for lo, hi, c in zip(edges[:-1], edges[1:], centers):
        for a_, b_, sign in ((lo, c, -1.0), (c, hi, 1.0)):
            a_ = max(a_, -40 * sd)
            b_ = min(b_, 40 * sd)
            if b_ <= a_:
                continue
            moment = sd * (norm.pdf(a_ / sd) - norm.pdf(b_ / sd)) * sd
            mass = norm.cdf(b_ / sd) - norm.cdf(a_ / sd)
            total += sign * (moment - c * mass)
    return float(total)


def gaussian_product_quantile_cloud(dim: int, per_axis: int,
                                    sd: float) -> tuple[PointCloud, float]:
    """Product-quantile cells for N(0, sd^2 I_d); equal mass 1/per_axis^d."""
    cloud1, err1 = gaussian_quantile_cloud(per_axis, sd)
    axis = cloud1.points[:, 0]
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    return PointCloud(dim, pts), dim * err1


def uniform_torus_quantile_cloud(dim: int, per_axis: int) -> tuple[PointCloud, float]:
    """Equal-mass cell centers for the uniform measure on T^d."""
    axis = (np.arange(per_axis) + 0.5) / per_axis
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    err = dim / (4.0 * per_axis)
    return PointCloud(dim, pts), err
