"""Grid-route oracles for the coefficient kernels of measure functionals.

Each oracle evaluates a functional on its grid, by routes that share no
code with the coefficient kernels: values by the rectangle-rule quadrature
of ``expectation``, flat derivatives as grid fields, and the distance cost
through ``w1_circle``. A ``Route``
holds ``value(m)`` and ``derivative(m)`` for a SpectralMeasure m.
``heat_multiplier`` is the FFT heat semigroup of the PDE and particle
oracles.
"""

from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.stats import qmc

from mfclab import regularize
from mfclab.spectral import (
    GridField,
    SpectralMeasure,
    SpectralVector,
    lebesgue,
    spectral_grid,
    to_density,
)
from mfclab.transport import w1_circle


def expectation(m, g: GridField) -> float:
    """Quadrature of integral g dm by the torus rectangle rule.

    Exact whenever g is band-limited below the grid Nyquist and the
    measure's cutoff fits the grid.
    """
    dens = to_density(m, g.resolution)
    return float((dens.values * g.values).mean())


def heat_multiplier(obj, t: float):
    """Apply the heat semigroup e^{t Laplacian}: mode k scaled by
    e^{-4pi^2|k|^2 t}.

    Accepts SpectralMeasure, SpectralVector, or GridField and returns the
    same type. Matches the generator of dX = ... + sqrt(2) dW.
    """
    if isinstance(obj, GridField):
        grid = spectral_grid(obj.dim, obj.resolution)
        damped = grid.coeffs(obj.values) * grid.heat(t)
        return GridField(obj.dim, grid.values(damped))
    grid = spectral_grid(obj.dim, 2 * obj.cutoff + 1)
    factor = grid.extract(grid.heat(t), obj.cutoff)
    return type(obj)(obj.dim, obj.cutoff, obj.coeffs * factor)


class Route(NamedTuple):
    value: Callable
    derivative: Optional[Callable] = None


def _centered(phi: GridField) -> GridField:
    return GridField(phi.dim, phi.values - phi.values.mean())


def _truncated(field: GridField, cutoff: int) -> np.ndarray:
    grid = spectral_grid(field.dim, field.resolution)
    return grid.extract(grid.coeffs(field.values), cutoff)


def linear_route(phi: GridField) -> Route:
    centered = _centered(phi)
    return Route(lambda m: expectation(m, phi), lambda m: centered)


def cylindrical_route(phis, outer, outer_grad) -> Route:
    centered = [_centered(p) for p in phis]

    def value(m):
        return float(outer(np.array([expectation(m, p) for p in phis])))

    def derivative(m):
        g = np.asarray(outer_grad(np.array([expectation(m, p) for p in phis])),
                       dtype=float)
        acc = np.zeros(phis[0].values.shape)
        for gj, cj in zip(g, centered):
            acc = acc + gj * cj.values
        return GridField(phis[0].dim, acc)

    return Route(value, derivative)


def mollify_route(inner: Route, delta: float, dim: int, cutoff: int) -> Route:
    mult = regularize.BumpKernel().multiplier(delta, dim, cutoff)

    def smooth(m):
        return SpectralMeasure(dim, cutoff, m.coeffs * mult)

    def derivative(m):
        field = inner.derivative(smooth(m))
        grid = spectral_grid(dim, field.resolution)
        c = _truncated(field, cutoff) * mult
        return GridField(dim, grid.values(grid.embed(c, cutoff)))

    return Route(lambda m: inner.value(smooth(m)), derivative)


def shift_route(inner: Route, lam: float, dim: int, cutoff: int) -> Route:
    leb = lebesgue(dim, cutoff)

    def derivative(m):
        return GridField(dim, (1.0 - lam)
                         * inner.derivative(m.mix(leb, lam)).values)

    return Route(lambda m: inner.value(m.mix(leb, lam)), derivative)


def fejer_route(inner: Route, phi, rank: int, eta: float, mc_nodes: int,
                seed: int) -> Route:
    """``fejer_mollify(phi, rank, eta, mc_nodes, seed)``: the value averages
    ``inner`` over the nodes one measure at a time; the derivative takes
    its central differences one probe at a time, each probe a node average
    of ``phi.fast_value``, since the step 1e-5 would magnify the rounding
    gap between ``inner`` and the kernels into the result."""
    dim, K = phi.dim, phi.cutoff
    fd_step = 1e-5
    reps = regularize._mode_representatives(dim, rank, K)
    nd = len(reps)
    sampler = qmc.Halton(d=2 * nd, scramble=True,
                         seed=np.random.default_rng(seed))
    nodes = (1.0 / (4.0 * nd)) * (2.0 * sampler.random(mc_nodes) - 1.0) \
        / np.sqrt(2.0 * nd)
    fejer_mult = regularize.FejerKernel(rank, dim).coefficients(K)
    pert = eta * np.stack([regularize._perturbation_coeffs(dim, K, reps, ab)
                           for ab in nodes])

    def stack(coeffs):
        out = (1.0 - eta) * (coeffs * fejer_mult) + pert
        out[(slice(None),) + (K,) * dim] = 1.0
        return out

    def value(m):
        return float(np.mean([inner.value(SpectralMeasure(dim, K, c))
                              for c in stack(m.coeffs)]))

    def derivative(m):
        out = np.zeros((2 * K + 1,) * dim, dtype=complex)
        for k in reps:
            idx = tuple(K + ki for ki in k)
            idx_neg = tuple(K - ki for ki in k)
            for unit in (1.0, 1j):
                delta = unit * fd_step
                cp = np.array(m.coeffs, dtype=complex)
                cm = np.array(m.coeffs, dtype=complex)
                cp[idx] += delta
                cp[idx_neg] += np.conj(delta)
                cm[idx] -= delta
                cm[idx_neg] -= np.conj(delta)
                pd = (np.mean(phi.fast_value(stack(cp)))
                      - np.mean(phi.fast_value(stack(cm)))) / (2 * fd_step)
                out[idx] += 0.5 * pd * unit
                out[idx_neg] += 0.5 * pd * np.conj(unit)
        return to_density(SpectralVector(dim, K, out), phi.resolution)

    return Route(value, derivative)


def distance_route(target, resolution: int) -> Route:
    return Route(lambda m: w1_circle(m, target, resolution=resolution))
