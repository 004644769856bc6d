"""Test-side checks of measure functionals: a constant functional, the
intrinsic gradient at arbitrary points, the finite-N projection Phi_N and
the finite-difference particle gradient of it, and a sampled
semi-concavity fit."""

import numpy as np

from grid_oracles import circle_w1
from mfclab.functionals import FunctionalMetadata, MeasureFunctional
from mfclab.spectral import (
    SpectralMeasure,
    empirical,
    eval_modes,
    hs_norm,
    random_measure,
    spectral_grid,
)


def constant_functional(dim: int, cutoff: int, value: float) -> MeasureFunctional:
    return MeasureFunctional(
        dim, cutoff,
        lambda c: np.full(np.shape(c)[:np.ndim(c) - dim], float(value)),
        lambda c: np.zeros(np.shape(c), dtype=complex),
        metadata=FunctionalMetadata(lip_d1=0.0, lip_hs=0.0,
                                    semiconcave_d1=0.0, semiconcave_hs=0.0),
    )


def intrinsic_gradient_at(phi: MeasureFunctional, m: SpectralMeasure,
                          points: np.ndarray) -> np.ndarray:
    """Evaluate D_m Phi(m, y) at arbitrary points, exactly (band-limited)."""
    c = phi._flat_coeffs(m)
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    K = phi.cutoff
    grid = spectral_grid(phi.dim, 2 * K + 1)
    deriv = grid.extract(grid.deriv, K)
    out = np.empty((phi.dim, len(pts)))
    for ax in range(phi.dim):
        out[ax] = eval_modes(c * deriv[ax], K, pts)
    return out


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


def check_semiconcavity(phi: MeasureFunctional, metric, trials: int,
                        rng: np.random.Generator) -> float:
    """Smallest C making the semi-concavity inequality hold on all trials.

    metric: "d1" (circle distance, d = 1) or a SobolevWeight for the
    H^{-s} version. Returns max over sampled (m0, m1, lam) of the required
    constant, clipped at 0 (concave-direction instances need none).
    """
    fitted = 0.0
    for _ in range(trials):
        m0 = random_measure(phi.dim, phi.cutoff, rng)
        m1 = random_measure(phi.dim, phi.cutoff, rng)
        lam = rng.uniform(0.1, 0.9)
        if metric == "d1":
            dist = circle_w1(m0, m1)
        else:
            dist = hs_norm(m0 - m1, metric)
        if dist < 1e-12:
            continue
        mix = m0.mix(m1, lam)
        gap = (1 - lam) * phi(m0) + lam * phi(m1) - phi(mix)
        fitted = max(fitted, 2.0 * gap / (lam * (1 - lam) * dist ** 2))
    return fitted
