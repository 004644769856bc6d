"""Measure functionals on the circle with flat derivatives and finite-N
projections.

A functional maps probability measures to reals through a kernel on their
Fourier coefficients. When it is differentiable, a second kernel gives the
coefficients of the flat derivative y -> dPhi/dm(m, y), normalized to zero
spatial mean so its zeroth Fourier coefficient vanishes; the intrinsic
(Wasserstein) gradient is its spatial derivative. Projections onto
N-particle configurations,

    Phi_N(x_1, ..., x_N) = Phi(empirical(x)),

satisfy D_{x_i} Phi_N = (1/N) D_m Phi(m_x, x_i); the second-derivative
correction (1/N^2) R_{N,i} is probed on Phi_N alone, by a spectral second
derivative in the particle's position, since the functionals of
interest need not be twice differentiable in m. The regularity constants
that the linear and cylindrical constructors attach are measured in
H^{-s} at the package's one Sobolev order, s = 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    DimensionUnsupported,
    NoDerivative,
    NotNormalized,
    ResolutionTooLow,
)
from .spectral import (
    GridField,
    SpectralMeasure,
    _empirical_coeffs,
    _sobolev_weights,
    empirical,
    eval_modes,
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
    """Optional H^{-s} regularity constants (s = 2) attached to a
    functional: the Lipschitz constant ``lip_hs`` and the semi-concavity
    constant ``semiconcave_hs``."""

    lip_hs: Optional[float] = None
    semiconcave_hs: Optional[float] = None


@dataclass(frozen=True)
class MeasureFunctional:
    """Functional on P(T), given by kernels on Fourier coefficients.

    ``value`` maps a coefficient array in the SpectralMeasure layout,
    ``(2K+1,)``, to Phi. ``derivative_coeffs``, when set, maps it to the
    coefficients of the flat derivative y -> dPhi/dm(m, y) on |k| <= K,
    normalized to zero spatial mean (mass mode zero). Both kernels also
    take a leading batch axis, ``(B, 2K+1)``, and return one value or
    coefficient array per row; they are the only evaluation route.
    ``derivative`` synthesizes the derivative coefficients of each row on
    the caller's n-point grid, so the field is truncated at the cutoff, and
    raises NotNormalized when a row's mass mode is not zero.

    The distance cost's derivative kernel is a subgradient, not a flat
    derivative: its ``has_derivative`` is False, so ``derivative`` raises
    NoDerivative while ``fast_derivative_coeffs`` still serves the
    sup-convolution ascent.
    """

    cutoff: int
    value: Callable[[np.ndarray], object]
    derivative_coeffs: Optional[Callable[[np.ndarray], np.ndarray]] = None
    metadata: FunctionalMetadata = field(default_factory=FunctionalMetadata)

    def __call__(self, m: SpectralMeasure) -> float:
        return self.fast_value(m.coeffs)

    @property
    def has_derivative(self) -> bool:
        return self.derivative_coeffs is not None

    def derivative(self, coeffs: np.ndarray, n: int) -> np.ndarray:
        """The flat derivative at a coefficient array, sampled at the n grid
        nodes j/n: (2K+1,) gives (n,) values, and a leading batch axis one
        row of values per measure. n below 2K+1 would alias the modes and
        raises ResolutionTooLow."""
        if n < 2 * self.cutoff + 1:
            raise ResolutionTooLow(
                f"derivative: n = {n} < 2K+1 = {2 * self.cutoff + 1}")
        grid = spectral_grid(n)
        return grid.values(grid.embed(self._flat_coeffs(coeffs), self.cutoff))

    def fast_value(self, coeffs: np.ndarray):
        """Phi at a coefficient array; a leading batch axis gives a (B,)
        array of values, one per row."""
        vals = self.value(coeffs)
        if np.ndim(coeffs) > 1:
            return np.asarray(vals, dtype=float)
        return float(vals)

    def fast_derivative_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """The derivative kernel: coefficients on |k| <= K (0-mode
        zero); a leading batch axis gives one coefficient array per row."""
        if self.derivative_coeffs is None:
            raise NoDerivative("functional exposes no derivative kernel")
        return self.derivative_coeffs(coeffs)

    def _flat_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """Flat-derivative coefficients at each row of ``coeffs``, each
        row checked for normalization."""
        if not self.has_derivative:
            raise NoDerivative("functional exposes no flat derivative")
        c = self.fast_derivative_coeffs(coeffs)
        mean = np.abs(c[..., self.cutoff])
        if np.any(mean > _MEAN_TOL):
            raise NotNormalized(
                f"flat derivative mean {mean.max():.2e} violates "
                "normalization")
        return c

    def with_metadata(self, **kwargs) -> "MeasureFunctional":
        return replace(self, metadata=replace(self.metadata, **kwargs))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _per_row(hat: np.ndarray, n_batch: int) -> np.ndarray:
    """View (k, modes) as (k, 1, ..., 1, modes) with n_batch unit axes,
    so it broadcasts against a batch of coefficient arrays."""
    return hat.reshape(hat.shape[:1] + (1,) * n_batch + hat.shape[1:])


def _centered(phi: GridField) -> GridField:
    return GridField(phi.values - phi.values.mean())


def _truncated_coeffs(phi: GridField, cutoff: int) -> np.ndarray:
    grid = spectral_grid(phi.resolution)
    return grid.extract(grid.coeffs(phi.values), cutoff)


def _hs_norm_of_field(phi: GridField) -> float:
    K = (phi.resolution - 1) // 2
    c = _truncated_coeffs(phi, K)
    return float(np.sqrt(np.sum(np.abs(c) ** 2 * _sobolev_weights(K))))


def linear_functional(phi: GridField, cutoff: int) -> MeasureFunctional:
    """Phi(m) = integral of phi dm; the flat derivative is phi minus its mean.

    The H^{-s} Lipschitz constant ||phi - mean(phi)||_s is exact.
    """
    centered = _centered(phi)
    meta = FunctionalMetadata(lip_hs=_hs_norm_of_field(centered),
                              semiconcave_hs=0.0)
    phihat = _truncated_coeffs(phi, cutoff)
    ghat = _truncated_coeffs(centered, cutoff)
    return MeasureFunctional(
        cutoff,
        lambda c: np.sum(phihat * np.conj(c), axis=-1).real,
        lambda c: np.broadcast_to(ghat, np.shape(c)),
        meta)


def cylindrical_functional(phis: Sequence[GridField], outer: Callable,
                           outer_grad: Callable, cutoff: int,
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
    centered = [_centered(p) for p in phis]
    phis_hat = np.stack([_truncated_coeffs(p, cutoff) for p in phis])
    cent_hat = np.stack([_truncated_coeffs(c, cutoff) for c in centered])

    def pairings(c: np.ndarray) -> np.ndarray:
        # (k,) or (k, B): m(phi_j) for each measure of the batch
        return np.sum(_per_row(phis_hat, c.ndim - 1) * np.conj(c),
                      axis=-1).real

    def value(c: np.ndarray):
        return outer(pairings(c))

    def derivative_coeffs(c: np.ndarray) -> np.ndarray:
        g = np.asarray(outer_grad(pairings(c)), dtype=float)
        # sum_j g_j * cent_hat_j, added in the same order for every row
        return np.sum(g[..., None] * _per_row(cent_hat, g.ndim - 1), axis=0)

    hs_total = sum(_hs_norm_of_field(c) for c in centered)
    meta = FunctionalMetadata(
        lip_hs=None if outer_grad_bound is None
        else outer_grad_bound * hs_total,
        semiconcave_hs=None if outer_hess_bound is None
        else outer_hess_bound * hs_total ** 2)
    return MeasureFunctional(cutoff, value, derivative_coeffs, meta)


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

    return _DistanceCost(cutoff, value, subgradient)


# ---------------------------------------------------------------------------
# derivatives and projections
# ---------------------------------------------------------------------------

def _laplacian_at(phi: MeasureFunctional, m: SpectralMeasure,
                  point: float) -> float:
    c = phi._flat_coeffs(m.coeffs)
    K = phi.cutoff
    grid = spectral_grid(2 * K + 1)
    dc = c * (-4.0 * np.pi ** 2 * grid.extract(grid.ksq, K))
    return float(eval_modes(dc, K, np.array([point]))[0])


def laplacian_residual(phi: MeasureFunctional, points, i: int) -> float:
    """|tr R_{N,i}|: N^2 times the gap between the Laplacian of Phi_N in
    particle i and (1/N) tr D_y D_m Phi at that particle.

    ``points`` holds the N particles on the circle, shape (N,). The
    particle's Laplacian is a spectral second derivative: Phi_N is sampled
    at x_i + j/M for j = 0..M-1 (one batched ``fast_value`` call), and its
    Fourier series is differentiated twice at j = 0. Phi_N is a
    trigonometric polynomial of degree <= 2K in x_i when Phi is a quadratic
    function of the coefficients, as in criterion 9; M = max(64, 4K + 2)
    samples make the route exact for those, up to rounding. For any other
    Phi it is only spectrally accurate.
    """
    pts = np.asarray(points, dtype=float)
    n_pts = len(pts)
    K = phi.cutoff
    n_samples = max(64, 4 * K + 2)
    stack = np.broadcast_to(pts, (n_samples, n_pts)).copy()
    stack[:, i] += np.arange(n_samples) / n_samples
    vals = phi.fast_value(_empirical_coeffs(stack, K))
    k = np.fft.fftfreq(n_samples, 1.0 / n_samples)
    series = np.fft.fft(vals) / n_samples
    lap = float(np.sum(-4.0 * np.pi ** 2 * k ** 2 * series).real)
    lap_exact = _laplacian_at(phi, empirical(pts, K), pts[i]) / n_pts
    return n_pts ** 2 * abs(lap - lap_exact)
