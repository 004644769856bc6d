"""Exact Wasserstein-1 distances on the circle, the torus, and R^d point
clouds.

* circle (d=1): the Kantorovich-Rubinstein distance equals
  min_c int_0^1 |F_1(x) - F_2(x) - c| dx with the optimal c a weighted
  median of F_1 - F_2. Atom-vs-atom and atom-vs-Lebesgue instances are
  computed in closed form from the sorted breakpoints.
* d=1 Euclidean: sorted-CDF sweep, exact for arbitrary weights.
* general point clouds: uniform equal-size instances reduce to an
  assignment problem (scipy's Hungarian solver); the general weighted case
  solves the transportation LP with HiGHS on a sparse constraint matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    DimensionUnsupported,
    EmptyPointSet,
    NonConvergence,
    NotNormalized,
)
from .spectral import SpectralMeasure

__all__ = [
    "PointCloud",
    "w1_circle",
    "w1_discrete",
    "sorted_w1_1d",
    "torus_distance_matrix",
    "euclidean_distance_matrix",
    "gaussian_quantile_cloud",
    "gaussian_product_quantile_cloud",
    "uniform_torus_quantile_cloud",
]

_LP_BUDGET = 4_000_000  # most atom pairs w1_discrete accepts

Metric = Literal["torus", "euclidean"]


@dataclass(frozen=True)
class PointCloud:
    """Weighted point cloud of at least one point; weights default to
    uniform and must sum to 1."""

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
        if len(pts) == 0:
            raise EmptyPointSet("a point cloud needs at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point coordinates must be finite")
        if self.weights is None:
            w = np.full(len(pts), 1.0 / len(pts))
        else:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (len(pts),):
                raise DimensionMismatch("weights must match point count")
            if not np.all(np.isfinite(w)):
                raise NotNormalized("weights must be finite")
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

    Works per axis over the distinct coordinates of xb: for axis k the
    wrapped squared distance is computed on the (n, u_k) table of xa_k
    against the u_k distinct values of xb_k, then gathered out to (n, m)
    and added in, so a product-grid target costs one gather per axis. The
    first axis is gathered straight into the result and the others into
    one reused (n, m) buffer, the only (n, m) temporary. In the table,
    delta = |xa_k - xb_k| is reduced mod 1 as delta - floor(delta), which
    for delta >= 0 is exact and equal to ``delta % 1.0``; then
    min(delta, 1 - delta) is squared and summed over the axes in order,
    and the root taken at the end. The result is bit for bit the broadcast
    formula for any finite coordinates, inside [0, 1) or not: the points
    are never wrapped first.
    """
    out = np.zeros((len(xa), len(xb)))
    buf = None
    for k in range(xa.shape[1]):
        vals, inv = np.unique(xb[:, k], return_inverse=True)
        delta = np.abs(np.subtract.outer(xa[:, k], vals))
        delta -= np.floor(delta)
        np.minimum(delta, 1.0 - delta, out=delta)
        delta *= delta
        # inv indexes vals, so no index clips; mode "raise" would gather
        # into a hidden temporary before copying to ``out``
        if k == 0:
            np.take(delta, inv, axis=1, out=out, mode="clip")
        else:
            if buf is None:
                buf = np.empty_like(out)
            out += np.take(delta, inv, axis=1, out=buf, mode="clip")
    return np.sqrt(out, out=out)


def euclidean_distance_matrix(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Euclidean distances between rows of xa and rows of xb."""
    from scipy.spatial.distance import cdist

    return cdist(xa, xb)


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


def _is_lebesgue(m) -> bool:
    if not isinstance(m, SpectralMeasure):
        return False
    c = m.coeffs.copy()
    c[len(c) // 2] = 0.0
    return bool(np.max(np.abs(c)) < 1e-14)


def w1_circle(m1: PointCloud | SpectralMeasure,
              m2: PointCloud | SpectralMeasure) -> float:
    """Exact Kantorovich-Rubinstein distance on the unit circle.

    Computed as min over the shift c of int |F_1 - F_2 - c| with c the
    weighted median of F_1 - F_2, in closed form for two atomic operands
    (PointCloud) and for atoms against Lebesgue (a SpectralMeasure whose
    non-mass coefficients vanish). A PointCloud outside d = 1 raises
    DimensionUnsupported; any other pair raises ValueError.
    """
    if any(isinstance(m, PointCloud) and m.dim != 1 for m in (m1, m2)):
        raise DimensionUnsupported("w1_circle needs d = 1")
    if isinstance(m1, PointCloud) and isinstance(m2, PointCloud):
        return _circle_w1_atoms(m1.points[:, 0], m1.weights,
                                m2.points[:, 0], m2.weights)
    if isinstance(m1, PointCloud) and _is_lebesgue(m2):
        return _circle_w1_atoms_vs_uniform(m1.points[:, 0], m1.weights)
    if isinstance(m2, PointCloud) and _is_lebesgue(m1):
        return _circle_w1_atoms_vs_uniform(m2.points[:, 0], m2.weights)
    raise ValueError("w1_circle has closed forms for atoms against atoms "
                     "and atoms against Lebesgue only")


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

def w1_discrete(a: PointCloud, b: PointCloud,
                metric: Metric = "euclidean") -> float:
    """Exact optimal transport cost with |x - y| ground metric.

    Routes: 1D instances use the sorted-CDF sweep (torus: circle formula);
    uniform equal-size clouds solve an assignment problem; every other
    weighted pair solves the transportation LP (one variable per atom pair,
    one equality per marginal) with HiGHS, and a solver status other than
    optimal raises NonConvergence. Pairs with more than 4,000,000 atom
    pairs raise BudgetExceeded, and a metric other than "torus" or
    "euclidean" ValueError, before any route runs.
    """
    if a.dim != b.dim:
        raise DimensionMismatch("clouds must share dim")
    if metric not in ("torus", "euclidean"):
        raise ValueError(f"unknown metric {metric!r}")
    if a.size * b.size > _LP_BUDGET:
        raise BudgetExceeded(
            f"{a.size} x {b.size} exceeds the LP budget of {_LP_BUDGET} "
            "atom pairs; subsample")
    if a.dim == 1:
        if metric == "torus":
            return _circle_w1_atoms(a.points[:, 0], a.weights,
                                    b.points[:, 0], b.weights)
        return sorted_w1_1d(a.points[:, 0], a.weights,
                            b.points[:, 0], b.weights)
    distances = (torus_distance_matrix if metric == "torus"
                 else euclidean_distance_matrix)
    cost = distances(a.points, b.points)
    uniform_a = np.allclose(a.weights, 1.0 / a.size, atol=1e-13)
    uniform_b = np.allclose(b.weights, 1.0 / b.size, atol=1e-13)
    if uniform_a and uniform_b and a.size == b.size:
        from scipy.optimize import linear_sum_assignment
        rows, cols = linear_sum_assignment(cost)
        return float(cost[rows, cols].mean())
    from scipy.optimize import linprog
    from scipy.sparse import coo_array

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
# quantized continuous targets
# ---------------------------------------------------------------------------

def _mesh_points(axis: np.ndarray, dim: int) -> np.ndarray:
    """The dim-fold tensor grid of a 1-D axis as rows, shape
    (len(axis)^dim, dim), in "ij" order."""
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def gaussian_quantile_cloud(n: int, sd: float) -> tuple[PointCloud, float]:
    """Equal-mass quantile quantization of N(0, sd^2) on the line.

    Returns the cloud and an upper bound on the W1 quantization error,
    computed cell by cell from the exact truncated-normal mean deviation.
    """
    from scipy.special import ndtr, ndtri

    def pdf(z):  # z * z: z ** 2 on a NumPy scalar goes through C pow
        return np.exp(-(z * z) / 2.0) / np.sqrt(2 * np.pi)

    probs = (np.arange(n) + 0.5) / n
    centers = ndtri(probs) * sd
    edges = ndtri(np.arange(n + 1) / n) * sd
    # int_cell |x - c| phi(x) dx summed over cells, evaluated in closed form
    # using int x phi = -sd^2 phi and the normal CDF.
    err = 0.0
    for lo, hi, c in zip(edges[:-1], edges[1:], centers):
        for a_, b_, sign in ((lo, c, -1.0), (c, hi, 1.0)):
            a_ = max(a_, -40 * sd)
            b_ = min(b_, 40 * sd)
            if b_ <= a_:
                continue
            moment = sd * (pdf(a_ / sd) - pdf(b_ / sd)) * sd
            mass = ndtr(b_ / sd) - ndtr(a_ / sd)
            err += sign * (moment - c * mass)
    return PointCloud(1, centers[:, None]), float(err)


def gaussian_product_quantile_cloud(dim: int, per_axis: int,
                                    sd: float) -> tuple[PointCloud, float]:
    """Product-quantile cells for N(0, sd^2 I_d); equal mass 1/per_axis^d."""
    cloud1, err1 = gaussian_quantile_cloud(per_axis, sd)
    return (PointCloud(dim, _mesh_points(cloud1.points[:, 0], dim)),
            dim * err1)


def uniform_torus_quantile_cloud(dim: int, per_axis: int) -> tuple[PointCloud, float]:
    """Equal-mass cell centers for the uniform measure on T^d."""
    axis = (np.arange(per_axis) + 0.5) / per_axis
    return PointCloud(dim, _mesh_points(axis, dim)), dim / (4.0 * per_axis)
