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
    from_density,
    grid_gradient,
    hs_norm,
    mode_values,
    random_measure,
    spectral_grid,
    to_density,
)
from .transport import PointCloud, w1_circle

__all__ = [
    "FunctionalMetadata",
    "MeasureFunctional",
    "constant_functional",
    "linear_functional",
    "cylindrical_functional",
    "distance_cost_functional",
    "intrinsic_gradient",
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
    routes, which stay the source of truth.
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

    def fast_value(self, coeffs: np.ndarray, fallback_measure=None) -> float:
        if self.coeff_evaluate is not None:
            return float(self.coeff_evaluate(coeffs))
        m = fallback_measure if fallback_measure is not None else \
            SpectralMeasure(self.dim, self.cutoff, coeffs)
        return float(self.evaluate(m))

    def fast_derivative_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """Flat-derivative coefficients on |k|_inf <= K (0-mode zero)."""
        if self.coeff_derivative is not None:
            return self.coeff_derivative(coeffs)
        g = self.derivative(SpectralMeasure(self.dim, self.cutoff, coeffs))
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
    return MeasureFunctional(
        phi.dim, cutoff,
        evaluate=lambda m: expectation(m, phi),
        flat_derivative=lambda m: centered,
        metadata=meta,
        resolution=phi.resolution,
        coeff_evaluate=lambda c: float(np.sum(phihat * np.conj(c)).real),
        coeff_derivative=lambda c: ghat,
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
    length-k array. Bounds, when given, feed the metadata constants through
    the chain rule.
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

    axes = tuple(range(1, dim + 1))

    def coeff_ev(c: np.ndarray) -> float:
        vals = np.sum(phis_hat * np.conj(c)[None, ...], axis=axes).real
        return float(outer(vals))

    def coeff_deriv(c: np.ndarray) -> np.ndarray:
        vals = np.sum(phis_hat * np.conj(c)[None, ...], axis=axes).real
        g = np.asarray(outer_grad(vals), dtype=float)
        return np.tensordot(g, cent_hat, axes=(0, 0))

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
    coeff_ev = None
    if isinstance(target, PointCloud):
        # precomputed target CDF on the fine grid; per-call work is one FFT
        x = np.arange(resolution) / resolution
        z = np.mod(target.points[:, 0], 1.0)
        order = np.argsort(z)
        zc = z[order]
        cw = np.concatenate([[0.0], np.cumsum(target.weights[order])])
        f_target = cw[np.searchsorted(zc, x, side="right")]
        k = mode_values(cutoff).astype(float)
        inv = np.zeros(2 * cutoff + 1, dtype=complex)
        inv[k != 0] = 1.0 / (-2j * np.pi * k[k != 0])
        kidx = mode_values(cutoff) % resolution

        def coeff_ev(c):
            full = np.zeros(resolution, dtype=complex)
            full[kidx] = c * inv
            t = np.fft.fft(full).real
            g = (x + t - t[0]) - f_target
            return float(np.mean(np.abs(g - np.median(g))))

        def coeff_subderiv(c):
            # a.e. envelope derivative of the CDF-median objective w.r.t.
            # the measure coefficients; the optimal shift drops out by the
            # envelope theorem. Solver-internal: the flat-derivative API
            # stays absent because d_1 is not differentiable as a
            # measure functional.
            full = np.zeros(resolution, dtype=complex)
            full[kidx] = c * inv
            t = np.fft.fft(full).real
            g = (x + t - t[0]) - f_target
            sign = np.sign(g - np.median(g))
            conj_shat = np.fft.fft(sign)[kidx] / resolution
            v = inv * (conj_shat - sign.mean())
            return np.conj(v)

    return MeasureFunctional(
        dim, cutoff,
        evaluate=lambda m: w1_circle(m, target, resolution=resolution),
        flat_derivative=None,
        metadata=FunctionalMetadata(lip_d1=1.0),
        coeff_evaluate=coeff_ev,
        coeff_derivative=coeff_subderiv if coeff_ev is not None else None,
    )


# ---------------------------------------------------------------------------
# derivatives and projections
# ---------------------------------------------------------------------------

def intrinsic_gradient(phi: MeasureFunctional,
                       m: SpectralMeasure) -> np.ndarray:
    """D_m Phi(m, .) = spatial gradient of the flat derivative.

    Returns an array of shape (dim, n, ..., n) on the functional's grid.
    """
    return grid_gradient(phi.derivative(m))


def intrinsic_gradient_at(phi: MeasureFunctional, m: SpectralMeasure,
                          points: np.ndarray) -> np.ndarray:
    """Evaluate D_m Phi(m, y) at arbitrary points, exactly (band-limited)."""
    g = phi.derivative(m)
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    K = (g.resolution - 1) // 2
    k = mode_values(K)
    c = _truncated_coeffs(g, K)
    out = np.empty((g.dim, len(pts)))
    mesh = np.meshgrid(*([k] * g.dim), indexing="ij")
    for ax in range(g.dim):
        dc = c * (-2j * np.pi * mesh[ax])
        out[ax] = eval_modes(dc, K, pts)
    return out


def _laplacian_at(phi: MeasureFunctional, m: SpectralMeasure,
                  point: np.ndarray) -> float:
    g = phi.derivative(m)
    K = (g.resolution - 1) // 2
    k = mode_values(K)
    c = _truncated_coeffs(g, K)
    mesh = np.meshgrid(*([k] * g.dim), indexing="ij")
    ksq = sum(mm.astype(float) ** 2 for mm in mesh)
    dc = c * (-4.0 * np.pi ** 2 * ksq)
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
