"""Measure functionals with flat derivatives and finite-N projections.

A functional maps probability measures to reals through a kernel on their
Fourier coefficients. When it is differentiable, a second kernel gives the
coefficients of the flat derivative y -> dPhi/dm(m, y), normalized to zero
spatial mean so its zeroth Fourier coefficient vanishes; the intrinsic
(Wasserstein) gradient is its spatial gradient. Projections onto
N-particle configurations,

    Phi_N(x_1, ..., x_N) = Phi(empirical(x)),

satisfy D_{x_i} Phi_N = (1/N) D_m Phi(m_x, x_i); the second-derivative
correction (1/N^2) R_{N,i} is probed on Phi_N alone, by a spectral second
derivative along the particle's coordinate, since the functionals of
interest need not be twice differentiable in m.
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
    _empirical_coeffs,
    empirical,
    eval_modes,
    grid_gradient,
    mode_values,
    spectral_grid,
)
from .transport import PointCloud

__all__ = [
    "FunctionalMetadata",
    "MeasureFunctional",
    "linear_functional",
    "cylindrical_functional",
    "distance_cost_functional",
    "laplacian_residual",
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
    """Functional on P(T^d), given by kernels on Fourier coefficients.

    ``value`` maps a coefficient array in the SpectralMeasure layout,
    ``(2K+1,)*d``, to Phi. ``derivative_coeffs``, when set, maps it to the
    coefficients of the flat derivative y -> dPhi/dm(m, y) on |k|_inf <= K,
    normalized to zero spatial mean (mass mode zero). Both kernels also
    take a leading batch axis, ``(B, 2K+1, ..., 2K+1)``, and return one
    value or coefficient array per row; they are the only evaluation route.
    ``derivative`` synthesizes the derivative coefficients on the
    ``resolution`` grid, so the field is truncated at the cutoff.

    The distance cost's derivative kernel is a subgradient, not a flat
    derivative: its ``has_derivative`` is False, so ``derivative`` raises
    NoDerivative while ``fast_derivative_coeffs`` still serves the
    sup-convolution ascent.
    """

    dim: int
    cutoff: int
    value: Callable[[np.ndarray], object]
    derivative_coeffs: Optional[Callable[[np.ndarray], np.ndarray]] = None
    metadata: FunctionalMetadata = field(default_factory=FunctionalMetadata)
    resolution: int = 0

    def __post_init__(self):
        if self.resolution == 0:
            object.__setattr__(self, "resolution",
                               max(4 * self.cutoff, 2 * self.cutoff + 1, 16))

    def __call__(self, m: SpectralMeasure) -> float:
        return self.fast_value(m.coeffs)

    @property
    def has_derivative(self) -> bool:
        return self.derivative_coeffs is not None

    def derivative(self, m: SpectralMeasure) -> GridField:
        """The flat derivative at m, sampled on the ``resolution`` grid."""
        grid = spectral_grid(self.dim, self.resolution)
        return GridField(self.dim, grid.values(
            grid.embed(self._flat_coeffs(m), self.cutoff)))

    def fast_value(self, coeffs: np.ndarray):
        """Phi at a coefficient array; a leading batch axis gives a (B,)
        array of values, one per row."""
        vals = self.value(coeffs)
        if np.ndim(coeffs) > self.dim:
            return np.asarray(vals, dtype=float)
        return float(vals)

    def fast_derivative_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """The derivative kernel: coefficients on |k|_inf <= K (0-mode
        zero); a leading batch axis gives one coefficient array per row."""
        if self.derivative_coeffs is None:
            raise NoDerivative("functional exposes no derivative kernel")
        return self.derivative_coeffs(coeffs)

    def _flat_coeffs(self, m: SpectralMeasure) -> np.ndarray:
        """Flat-derivative coefficients at m, checked for normalization."""
        if not self.has_derivative:
            raise NoDerivative("functional exposes no flat derivative")
        c = self.fast_derivative_coeffs(m.coeffs)
        mean = c[(self.cutoff,) * self.dim]
        if abs(mean) > _MEAN_TOL:
            raise NotNormalized(
                f"flat derivative mean {abs(mean):.2e} violates "
                "normalization")
        return c

    def with_metadata(self, **kwargs) -> "MeasureFunctional":
        return replace(self, metadata=replace(self.metadata, **kwargs))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

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
        lambda c: np.sum(phihat * np.conj(c), axis=axes).real,
        lambda c: np.broadcast_to(ghat, np.shape(c)),
        meta, resolution=phi.resolution)


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
    centered = [_centered(p) for p in phis]
    phis_hat = np.stack([_truncated_coeffs(p, cutoff) for p in phis])
    cent_hat = np.stack([_truncated_coeffs(c, cutoff) for c in centered])
    axes = tuple(range(-dim, 0))  # mode axes, after any batch axis

    def pairings(c: np.ndarray) -> np.ndarray:
        # (k,) or (k, B): m(phi_j) for each measure of the batch
        return np.sum(_per_row(phis_hat, c.ndim - dim) * np.conj(c),
                      axis=axes).real

    def value(c: np.ndarray):
        return outer(pairings(c))

    def derivative_coeffs(c: np.ndarray) -> np.ndarray:
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
    return MeasureFunctional(dim, cutoff, value, derivative_coeffs, meta,
                             resolution=phis[0].resolution)


def _median_last(g: np.ndarray) -> np.ndarray:
    """np.median over the last axis (kept), from a single partition."""
    n = g.shape[-1]
    part = np.partition(g, n // 2, axis=-1)
    upper = part[..., n // 2:n // 2 + 1]
    if n % 2:
        return upper
    return (part[..., :n // 2].max(axis=-1, keepdims=True) + upper) / 2


class _DistanceCost(MeasureFunctional):
    """d_1(m, target). Its derivative kernel is an a.e. subgradient of the
    CDF-median objective, for the sup-convolution ascent; d_1 is not
    differentiable in m, so it has no flat derivative."""

    @property
    def has_derivative(self) -> bool:
        return False


def distance_cost_functional(target: PointCloud, cutoff: int,
                             resolution: int = 8192) -> MeasureFunctional:
    """Phi(m) = d_1(m, target) on the circle; 1-Lipschitz in d_1, no flat
    derivative.

    The value is the CDF-median formula on the fine grid of ``resolution``
    points, exact up to that grid; operations needing a flat derivative
    raise NoDerivative.
    """
    if target.dim != 1:
        raise DimensionUnsupported(
            "spectral distance-cost evaluation is implemented on the circle"
        )
    # precomputed target CDF on the fine grid and phase table
    # e^{-2 pi i k j / resolution} = cos - i sin of the 2K+1 modes; the CDF
    # of m on the grid needs one product of its integrated coefficients
    # with the table
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
        # CDF of m minus the target CDF, shifted by its median; built in
        # place, since a batch of fine-grid rows is the largest working set
        # of the sup-convolution
        a = c * inv
        g = a.real @ cos_t
        g += a.imag @ sin_t
        g -= g[..., :1].copy()
        g += base
        g -= _median_last(g)
        return g

    def value(c):
        gap = centered_gap(c)
        return np.mean(np.abs(gap, out=gap), axis=-1)

    def subgradient(c):
        # a.e. envelope derivative of the CDF-median objective w.r.t. the
        # measure coefficients; the optimal shift drops out by the envelope
        # theorem
        gap = centered_gap(c)
        sign = np.sign(gap, out=gap)
        conj_shat = (sign @ cos_t.T - 1j * (sign @ sin_t.T)) / resolution
        return np.conj(inv * (conj_shat - sign.mean(axis=-1, keepdims=True)))

    return _DistanceCost(1, cutoff, value, subgradient,
                         FunctionalMetadata(lip_d1=1.0))


# ---------------------------------------------------------------------------
# derivatives and projections
# ---------------------------------------------------------------------------

def _laplacian_at(phi: MeasureFunctional, m: SpectralMeasure,
                  point: np.ndarray) -> float:
    c = phi._flat_coeffs(m)
    K = phi.cutoff
    grid = spectral_grid(phi.dim, 2 * K + 1)
    dc = c * (-4.0 * np.pi ** 2 * grid.extract(grid.ksq, K))
    return float(eval_modes(dc, K, np.atleast_2d(point))[0])


def laplacian_residual(phi: MeasureFunctional, points, i: int) -> float:
    """|tr R_{N,i}|: N^2 times the gap between the Laplacian of Phi_N in
    particle i and (1/N) tr D_y D_m Phi at that particle.

    The particle's Laplacian is a spectral second derivative: along each
    axis, Phi_N is sampled at x_i + j/M for j = 0..M-1 (one batched
    ``fast_value`` call for all axes), and its Fourier series is
    differentiated twice at j = 0. Phi_N is a trigonometric polynomial of
    degree <= 2K in x_i when Phi is a quadratic function of the
    coefficients, as in criterion 9; M = max(64, 4K + 2) samples make the
    route exact for those, up to rounding. For any other Phi it is only
    spectrally accurate.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n_pts, d = pts.shape
    K = phi.cutoff
    n_samples = max(64, 4 * K + 2)
    shifts = np.arange(n_samples) / n_samples
    stack = np.broadcast_to(pts, (d, n_samples, n_pts, d)).copy()
    for ax in range(d):
        stack[ax, :, i, ax] += shifts
    vals = phi.fast_value(_empirical_coeffs(stack, K).reshape(
        (d * n_samples,) + (2 * K + 1,) * d))
    k = np.fft.fftfreq(n_samples, 1.0 / n_samples)
    series = np.fft.fft(vals.reshape(d, n_samples), axis=-1) / n_samples
    lap = float(np.sum(-4.0 * np.pi ** 2 * k ** 2 * series).real)
    lap_exact = _laplacian_at(phi, empirical(pts, K), pts[i]) / n_pts
    return n_pts ** 2 * abs(lap - lap_exact)
