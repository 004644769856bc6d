"""Measure functionals with flat derivatives and finite-N projections.

A functional maps probability measures (spectral representation) to reals.
When it is differentiable, the flat derivative is the kernel
y -> dPhi/dm(m, y), normalized to zero spatial mean so its zeroth Fourier
coefficient vanishes; the intrinsic (Wasserstein) gradient is its spatial
gradient. Projections onto N-particle configurations,

    Phi_N(x_1, ..., x_N) = Phi(empirical(x)),

satisfy D_{x_i} Phi_N = (1/N) D_m Phi(m_x, x_i); the second-derivative
correction (1/N^2) R_{N,i} is probed by finite differences only, since the
functionals of interest need not be twice differentiable in m.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionUnsupported, NoDerivative, NotNormalized
from .spectral import (
    GridField,
    SobolevWeight,
    SpectralMeasure,
    empirical,
    eval_modes,
    expectation,
    grid_gradient,
    hs_norm,
    mode_values,
    random_measure,
    spectral_grid,
)
from .transport import PointCloud, w1_circle

__all__ = [
    "FunctionalMetadata",
    "MeasureFunctional",
    "constant_functional",
    "linear_functional",
    "cylindrical_functional",
    "distance_cost_functional",
    "intrinsic_gradient_at",
    "project",
    "projection_gradient_check",
    "laplacian_residual",
    "check_semiconcavity",
]

_MEAN_TOL = 1e-10


@dataclass(frozen=True)
class FunctionalMetadata:
    """Optional regularity constants attached to a functional.

    ``lip_hs``/``semiconcave_hs`` refer to the Sobolev order ``hs_order``.
    """

    lip_d1: Optional[float] = None
    lip_hs: Optional[float] = None
    semiconcave_d1: Optional[float] = None
    semiconcave_hs: Optional[float] = None
    hs_order: Optional[float] = None


@dataclass(frozen=True)
class MeasureFunctional:
    """Evaluable functional on P(T^d) with optional flat derivative.

    ``flat_derivative(m)`` returns the grid samples of y -> dPhi/dm(m, y)
    under the zero-spatial-mean normalization. ``resolution`` is the grid
    used for derivative fields and quadrature.

    ``coeff_evaluate`` / ``coeff_derivative``, when set by a constructor,
    act directly on raw coefficient arrays (the SpectralMeasure layout) and
    let hot loops skip grid transforms; they must agree with the grid
    routes, which stay the source of truth. They also take a leading batch
    axis, ``(B, 2K+1, ..., 2K+1)``, and return one value or coefficient
    array per row.
    """

    dim: int
    cutoff: int
    evaluate: Callable[[SpectralMeasure], float]
    flat_derivative: Optional[Callable[[SpectralMeasure], GridField]] = None
    metadata: FunctionalMetadata = field(default_factory=FunctionalMetadata)
    resolution: int = 0
    coeff_evaluate: Optional[Callable] = None
    coeff_derivative: Optional[Callable] = None

    def __post_init__(self):
        if self.resolution == 0:
            object.__setattr__(self, "resolution",
                               max(4 * self.cutoff, 2 * self.cutoff + 1, 16))

    def __call__(self, m: SpectralMeasure) -> float:
        return float(self.evaluate(m))

    @property
    def has_derivative(self) -> bool:
        return self.flat_derivative is not None

    def derivative(self, m: SpectralMeasure) -> GridField:
        if self.flat_derivative is None:
            raise NoDerivative("functional exposes no flat derivative")
        g = self.flat_derivative(m)
        if abs(g.mean()) > _MEAN_TOL:
            raise NotNormalized(
                f"flat derivative mean {g.mean():.2e} violates normalization"
            )
        return g

    def fast_value(self, coeffs: np.ndarray):
        """Phi at a coefficient array; a leading batch axis gives a (B,)
        array of values, one per row."""
        batched = np.ndim(coeffs) > self.dim
        if self.coeff_evaluate is not None:
            vals = self.coeff_evaluate(coeffs)
            return np.asarray(vals, dtype=float) if batched else float(vals)
        if batched:
            return np.array([self.evaluate(self._measure(c)) for c in coeffs],
                            dtype=float)
        return float(self.evaluate(self._measure(coeffs)))

    def fast_derivative_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """Flat-derivative coefficients on |k|_inf <= K (0-mode zero); a
        leading batch axis gives one coefficient array per row."""
        if self.coeff_derivative is not None:
            return self.coeff_derivative(coeffs)
        if np.ndim(coeffs) > self.dim:
            return np.stack([self._derivative_coeffs(c) for c in coeffs])
        return self._derivative_coeffs(coeffs)

    def _measure(self, coeffs: np.ndarray) -> SpectralMeasure:
        return SpectralMeasure(self.dim, self.cutoff, coeffs)

    def _derivative_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        g = self.derivative(self._measure(coeffs))
        return _truncated_coeffs(g, self.cutoff)

    def with_metadata(self, **kwargs) -> "MeasureFunctional":
        return replace(self, metadata=replace(self.metadata, **kwargs))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def constant_functional(dim: int, cutoff: int, value: float) -> MeasureFunctional:
    res = max(4 * cutoff, 2 * cutoff + 1, 16)
    zero = GridField(dim, np.zeros((res,) * dim))
    return MeasureFunctional(
        dim, cutoff,
        evaluate=lambda m: value,
        flat_derivative=lambda m: zero,
        metadata=FunctionalMetadata(lip_d1=0.0, lip_hs=0.0,
                                    semiconcave_d1=0.0, semiconcave_hs=0.0),
    )


def _per_row(hat: np.ndarray, n_batch: int) -> np.ndarray:
    """View (k, *modes) as (k, 1, ..., 1, *modes) with n_batch unit axes,
    so it broadcasts against a batch of coefficient arrays."""
    return hat.reshape(hat.shape[:1] + (1,) * n_batch + hat.shape[1:])


def _centered(phi: GridField) -> GridField:
    return GridField(phi.dim, phi.values - phi.values.mean())


def _truncated_coeffs(phi: GridField, cutoff: int) -> np.ndarray:
    grid = spectral_grid(phi.dim, phi.resolution)
    return grid.extract(grid.coeffs(phi.values), cutoff)


def _hs_norm_of_field(phi: GridField, weight: SobolevWeight) -> float:
    K = (phi.resolution - 1) // 2
    c = _truncated_coeffs(phi, K)
    w = weight.weights(phi.dim, K)
    return float(np.sqrt(np.sum(np.abs(c) ** 2 * w)))


def linear_functional(phi: GridField, cutoff: int,
                      sobolev: SobolevWeight | None = None) -> MeasureFunctional:
    """Phi(m) = integral of phi dm; the flat derivative is phi minus its mean.

    The H^{-s} Lipschitz constant ||phi - mean(phi)||_s is exact; the d_1
    constant is the sup of |grad phi|.
    """
    centered = _centered(phi)
    lip_d1 = float(np.abs(grid_gradient(phi)).max())
    meta = FunctionalMetadata(lip_d1=lip_d1, semiconcave_d1=0.0,
                              semiconcave_hs=0.0)
    if sobolev is not None:
        meta = replace(meta, lip_hs=_hs_norm_of_field(centered, sobolev),
                       hs_order=sobolev.s)
    phihat = _truncated_coeffs(phi, cutoff)
    ghat = _truncated_coeffs(centered, cutoff)
    axes = tuple(range(-phi.dim, 0))  # mode axes, after any batch axis
    return MeasureFunctional(
        phi.dim, cutoff,
        evaluate=lambda m: expectation(m, phi),
        flat_derivative=lambda m: centered,
        metadata=meta,
        resolution=phi.resolution,
        coeff_evaluate=lambda c: np.sum(phihat * np.conj(c), axis=axes).real,
        coeff_derivative=lambda c: np.broadcast_to(ghat, np.shape(c)),
    )


def cylindrical_functional(phis: Sequence[GridField], outer: Callable,
                           outer_grad: Callable, cutoff: int,
                           sobolev: SobolevWeight | None = None,
                           outer_hess_bound: float | None = None,
                           outer_grad_bound: float | None = None,
                           ) -> MeasureFunctional:
    """Phi(m) = G(m(phi_1), ..., m(phi_k)) with derivative
    sum_j d_j G(m(phi)) * (phi_j - mean(phi_j)).

    ``outer`` maps R^k -> R; ``outer_grad`` returns its gradient as a
    length-k array. Both receive the pairings m(phi_j) as an array of shape
    (k,), or (k, B) for a batch of B measures, and must act elementwise
    along the batch axis. Bounds, when given, feed the metadata constants
    through the chain rule.
    """
    phis = list(phis)
    dim = phis[0].dim
    res = phis[0].resolution
    centered = [_centered(p) for p in phis]
    phis_hat = np.stack([_truncated_coeffs(p, cutoff) for p in phis])
    cent_hat = np.stack([_truncated_coeffs(c, cutoff) for c in centered])

    def ev(m: SpectralMeasure) -> float:
        vals = np.array([expectation(m, p) for p in phis])
        return float(outer(vals))

    def deriv(m: SpectralMeasure) -> GridField:
        vals = np.array([expectation(m, p) for p in phis])
        g = np.asarray(outer_grad(vals), dtype=float)
        acc = np.zeros((res,) * dim)
        for gj, cj in zip(g, centered):
            acc = acc + gj * cj.values
        return GridField(dim, acc)

    axes = tuple(range(-dim, 0))  # mode axes, after any batch axis

    def pairings(c: np.ndarray) -> np.ndarray:
        # (k,) or (k, B): m(phi_j) for each measure of the batch
        return np.sum(_per_row(phis_hat, c.ndim - dim) * np.conj(c),
                      axis=axes).real

    def coeff_ev(c: np.ndarray):
        return outer(pairings(c))

    def coeff_deriv(c: np.ndarray) -> np.ndarray:
        g = np.asarray(outer_grad(pairings(c)), dtype=float)
        # sum_j g_j * cent_hat_j, added in the same order for every row
        return np.sum(g.reshape(g.shape + (1,) * dim)
                      * _per_row(cent_hat, g.ndim - 1), axis=0)

    meta = FunctionalMetadata()
    lips_d1 = [float(np.abs(grid_gradient(p)).max()) for p in phis]
    if outer_grad_bound is not None:
        meta = replace(meta, lip_d1=outer_grad_bound * sum(lips_d1))
    if sobolev is not None:
        hs_norms = [_hs_norm_of_field(c, sobolev) for c in centered]
        meta = replace(meta, hs_order=sobolev.s)
        if outer_grad_bound is not None:
            meta = replace(meta, lip_hs=outer_grad_bound * sum(hs_norms))
        if outer_hess_bound is not None:
            meta = replace(
                meta,
                semiconcave_hs=outer_hess_bound * sum(hs_norms) ** 2,
                semiconcave_d1=outer_hess_bound * sum(lips_d1) ** 2,
            )
    return MeasureFunctional(dim, cutoff, ev, deriv, meta, resolution=res,
                             coeff_evaluate=coeff_ev,
                             coeff_derivative=coeff_deriv)


def _median_last(g: np.ndarray) -> np.ndarray:
    """np.median over the last axis (kept), from a single partition."""
    n = g.shape[-1]
    part = np.partition(g, n // 2, axis=-1)
    upper = part[..., n // 2:n // 2 + 1]
    if n % 2:
        return upper
    return (part[..., :n // 2].max(axis=-1, keepdims=True) + upper) / 2


def distance_cost_functional(target: PointCloud | SpectralMeasure,
                             cutoff: int, metric: str = "torus",
                             resolution: int = 8192) -> MeasureFunctional:
    """Phi(m) = d_1(m, target); 1-Lipschitz in d_1, no flat derivative.

    Spectral evaluation is implemented on the circle (d = 1), where the
    CDF-median formula is exact up to the fine-grid ``resolution``; d_1 is
    not differentiable, so operations needing a derivative raise
    NoDerivative.
    """
    dim = target.dim
    if dim != 1 or metric != "torus":
        raise DimensionUnsupported(
            "spectral distance-cost evaluation is implemented on the circle"
        )
    coeff_ev = coeff_subderiv = None
    if isinstance(target, PointCloud):
        # precomputed target CDF on the fine grid and phase table
        # e^{-2 pi i k j / resolution} = cos - i sin of the 2K+1 modes; the
        # CDF of m on the grid needs one product of its integrated
        # coefficients with the table
        x = np.arange(resolution) / resolution
        z = np.mod(target.points[:, 0], 1.0)
        order = np.argsort(z)
        zc = z[order]
        cw = np.concatenate([[0.0], np.cumsum(target.weights[order])])
        base = x - cw[np.searchsorted(zc, x, side="right")]
        k = mode_values(cutoff)
        inv = np.zeros(2 * cutoff + 1, dtype=complex)
        inv[k != 0] = 1.0 / (-2j * np.pi * k[k != 0])
        theta = (2 * np.pi / resolution) * (
            np.outer(k, np.arange(resolution)) % resolution)
        cos_t, sin_t = np.cos(theta), np.sin(theta)

        def centered_gap(c):
            # CDF of m minus the target CDF, shifted by its median; built
            # in place, since a batch of fine-grid rows is the largest
            # working set of the sup-convolution
            a = c * inv
            g = a.real @ cos_t
            g += a.imag @ sin_t
            g -= g[..., :1].copy()
            g += base
            g -= _median_last(g)
            return g

        def coeff_ev(c):
            gap = centered_gap(c)
            return np.mean(np.abs(gap, out=gap), axis=-1)

        def coeff_subderiv(c):
            # a.e. envelope derivative of the CDF-median objective w.r.t.
            # the measure coefficients; the optimal shift drops out by the
            # envelope theorem. Solver-internal: the flat-derivative API
            # stays absent because d_1 is not differentiable as a
            # measure functional.
            gap = centered_gap(c)
            sign = np.sign(gap, out=gap)
            conj_shat = (sign @ cos_t.T - 1j * (sign @ sin_t.T)) / resolution
            return np.conj(inv * (conj_shat
                                  - sign.mean(axis=-1, keepdims=True)))

    return MeasureFunctional(
        dim, cutoff,
        evaluate=lambda m: w1_circle(m, target, resolution=resolution),
        flat_derivative=None,
        metadata=FunctionalMetadata(lip_d1=1.0),
        coeff_evaluate=coeff_ev,
        coeff_derivative=coeff_subderiv,
    )


# ---------------------------------------------------------------------------
# derivatives and projections
# ---------------------------------------------------------------------------

def intrinsic_gradient_at(phi: MeasureFunctional, m: SpectralMeasure,
                          points: np.ndarray) -> np.ndarray:
    """Evaluate D_m Phi(m, y) at arbitrary points, exactly (band-limited)."""
    g = phi.derivative(m)
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    K = (g.resolution - 1) // 2
    c = _truncated_coeffs(g, K)
    grid = spectral_grid(g.dim, g.resolution)
    deriv = grid.extract(grid.deriv, K)
    out = np.empty((g.dim, len(pts)))
    for ax in range(g.dim):
        out[ax] = eval_modes(c * deriv[ax], K, pts)
    return out


def _laplacian_at(phi: MeasureFunctional, m: SpectralMeasure,
                  point: np.ndarray) -> float:
    g = phi.derivative(m)
    K = (g.resolution - 1) // 2
    c = _truncated_coeffs(g, K)
    grid = spectral_grid(g.dim, g.resolution)
    dc = c * (-4.0 * np.pi ** 2 * grid.extract(grid.ksq, K))
    return float(eval_modes(dc, K, np.atleast_2d(point))[0])


def project(phi: MeasureFunctional, points) -> float:
    """Phi_N(x) = Phi(empirical measure of the N-tuple x)."""
    return phi(empirical(points, phi.cutoff))


def projection_gradient_check(phi: MeasureFunctional, points, i: int,
                              step: float = 1e-5) -> float:
    """Max discrepancy between the finite-difference particle gradient
    D_{x_i} Phi_N and (1/N) D_m Phi(m_x, x_i)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n_pts, d = pts.shape
    m = empirical(pts, phi.cutoff)
    exact = intrinsic_gradient_at(phi, m, pts[i:i + 1])[:, 0] / n_pts
    worst = 0.0
    for ax in range(d):
        plus = pts.copy()
        plus[i, ax] += step
        minus = pts.copy()
        minus[i, ax] -= step
        fd = (project(phi, plus) - project(phi, minus)) / (2 * step)
        worst = max(worst, abs(fd - exact[ax]))
    return worst


def laplacian_residual(phi: MeasureFunctional, points, i: int,
                       step: float = 1e-4) -> float:
    """Estimate of |tr R_{N,i}|: N^2 times the gap between the central
    second difference of Phi_N at particle i and (1/N) tr D_y D_m Phi."""
    if step <= 0 or step < 1e-12:
        raise ValueError("step underflow")
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n_pts, d = pts.shape
    m = empirical(pts, phi.cutoff)
    center_val = project(phi, pts)
    lap_fd = 0.0
    for ax in range(d):
        plus = pts.copy()
        plus[i, ax] += step
        minus = pts.copy()
        minus[i, ax] -= step
        lap_fd += (project(phi, plus) - 2 * center_val
                   + project(phi, minus)) / step ** 2
    lap_exact = _laplacian_at(phi, m, pts[i]) / n_pts
    return n_pts ** 2 * abs(lap_fd - lap_exact)


def check_semiconcavity(phi: MeasureFunctional, metric,
                        trials: int = 50,
                        rng: np.random.Generator | None = None,
                        sampler: Callable | None = None) -> float:
    """Smallest C making the semi-concavity inequality hold on all trials.

    metric: "d1" (circle distance, d = 1) or a SobolevWeight for the
    H^{-s} version. Returns max over sampled (m0, m1, lam) of the required
    constant, clipped at 0 (concave-direction instances need none).
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    if sampler is None:
        sampler = lambda r: random_measure(phi.dim, phi.cutoff, r)
    fitted = 0.0
    for _ in range(trials):
        m0 = sampler(rng)
        m1 = sampler(rng)
        lam = rng.uniform(0.1, 0.9)
        if metric == "d1":
            if phi.dim != 1:
                raise DimensionUnsupported("d1 semiconcavity check needs d=1")
            dist = w1_circle(m0, m1)
        else:
            dist = hs_norm(m0 - m1, metric)
        if dist < 1e-12:
            continue
        mix = m0.mix(m1, lam)
        gap = (1 - lam) * phi(m0) + lam * phi(m1) - phi(mix)
        fitted = max(fitted, 2.0 * gap / (lam * (1 - lam) * dist ** 2))
    return fitted
