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


def constant_functional(cutoff: int, value: float) -> MeasureFunctional:
    return MeasureFunctional(
        cutoff,
        lambda c: np.full(np.shape(c)[:-1], float(value)),
        lambda c: np.zeros(np.shape(c), dtype=complex),
        metadata=FunctionalMetadata(lip_hs=0.0, semiconcave_hs=0.0),
    )


def intrinsic_gradient_at(phi: MeasureFunctional, m: SpectralMeasure,
                          points: np.ndarray) -> np.ndarray:
    """Evaluate D_m Phi(m, y) at points y of the circle, shape (N,),
    exactly (band-limited)."""
    c = phi._flat_coeffs(m.coeffs)
    K = phi.cutoff
    grid = spectral_grid(2 * K + 1)
    return eval_modes(c * grid.extract(grid.deriv, K), K, points)


def project(phi: MeasureFunctional, points) -> float:
    """Phi_N(x) = Phi(empirical measure of the N-tuple x)."""
    return phi(empirical(points, phi.cutoff))


def projection_gradient_check(phi: MeasureFunctional, points, i: int,
                              step: float = 1e-5) -> float:
    """Discrepancy between the finite-difference particle derivative
    D_{x_i} Phi_N and (1/N) D_m Phi(m_x, x_i)."""
    pts = np.asarray(points, dtype=float)
    m = empirical(pts, phi.cutoff)
    exact = intrinsic_gradient_at(phi, m, pts[i:i + 1])[0] / len(pts)
    plus = pts.copy()
    plus[i] += step
    minus = pts.copy()
    minus[i] -= step
    fd = (project(phi, plus) - project(phi, minus)) / (2 * step)
    return abs(fd - exact)


def check_semiconcavity(phi: MeasureFunctional, metric, trials: int,
                        rng: np.random.Generator) -> float:
    """Smallest C making the semi-concavity inequality hold on all trials.

    metric: "d1" (circle distance) or "hs" for the H^{-s} version.
    Returns max over sampled (m0, m1, lam) of the required constant,
    clipped at 0 (concave-direction instances need none).
    """
    fitted = 0.0
    for _ in range(trials):
        m0 = random_measure(phi.cutoff, rng)
        m1 = random_measure(phi.cutoff, rng)
        lam = rng.uniform(0.1, 0.9)
        if metric == "d1":
            dist = circle_w1(m0, m1)
        else:
            dist = hs_norm(m0 - m1)
        if dist < 1e-12:
            continue
        mix = m0.mix(m1, lam)
        gap = (1 - lam) * phi(m0) + lam * phi(m1) - phi(mix)
        fitted = max(fitted, 2.0 * gap / (lam * (1 - lam) * dist ** 2))
    return fitted
