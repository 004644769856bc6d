"""Grid-route oracles for the coefficient kernels of measure functionals,
and the reference solutions the PDE, particle and transport tests compare
against.

Each functional oracle evaluates a functional on its grid, by routes that
share no code with the coefficient kernels: values by the rectangle-rule
quadrature of ``expectation``, flat derivatives as grid fields, and the
distance cost through ``circle_w1``. A ``Route`` holds ``value(m)`` and
``derivative(m)`` for a SpectralMeasure m. ``heat_multiplier`` is the FFT
heat semigroup of the PDE and particle oracles; ``from_density`` is the
grid transform that ``to_density`` inverts; ``solve_hjbn_small`` is the
exact N-particle value V^N at N <= 3.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from mfclab.spectral import (
    GridField,
    SpectralMeasure,
    _empirical_coeffs,
    grid_nodes,
    mode_values,
    spectral_grid,
    to_density,
)


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


def from_density(f: GridField, cutoff: int) -> SpectralMeasure:
    """Truncated Fourier transform of a nonnegative unit-mass grid density;
    values below -1e-8, a mean off 1 by more than 1e-10, or a grid with
    fewer than 2K+1 points raise ValueError."""
    vals = f.values
    if vals.min() < -1e-8 or abs(vals.mean() - 1.0) > 1e-10:
        raise ValueError(f"not a probability density: min {vals.min():.3e}, "
                         f"mean {vals.mean()!r}")
    if f.resolution < 2 * cutoff + 1:
        raise ValueError(f"resolution {f.resolution} < 2K+1 = {2 * cutoff + 1}")
    grid = spectral_grid(f.dim, f.resolution)
    return SpectralMeasure(f.dim, cutoff,
                           grid.extract(grid.coeffs(vals), cutoff))


def _cdf_offset_values(m: SpectralMeasure, resolution: int) -> np.ndarray:
    """Values of T(x) = sum_{k != 0} c_k (e^{-2pi i k x})/(-2pi i k) on the grid.

    F(x) = x + T(x) - T(0) is the exact CDF of the band-limited density.
    """
    K = m.cutoff
    k = mode_values(K).astype(float)
    d = np.zeros(2 * K + 1, dtype=complex)
    nz = k != 0
    d[nz] = m.coeffs[nz] / (-2j * np.pi * k[nz])
    grid = spectral_grid(1, resolution)
    return grid.values(grid.embed(d, K))


def circle_w1(m1, m2, resolution: int = 8192) -> float:
    """W1 on the circle between SpectralMeasures and PointClouds (d = 1).

    min over c of the mean of |F_1 - F_2 - c| on ``resolution`` grid
    points, c the median of F_1 - F_2: a measure's CDF from the exact
    Fourier antiderivative of its density, a cloud's as its step function.
    """
    x = np.arange(resolution) / resolution
    gvals = np.zeros(resolution)
    for sign, m in ((1.0, m1), (-1.0, m2)):
        assert m.dim == 1
        if isinstance(m, SpectralMeasure):
            t = _cdf_offset_values(m, resolution)
            gvals += sign * (t - t[0])
        else:
            z = np.sort(np.mod(m.points[:, 0], 1.0))
            cw = np.cumsum(m.weights[np.argsort(np.mod(m.points[:, 0], 1.0))])
            f = np.concatenate([[0.0], cw])[np.searchsorted(z, x, side="right")]
            gvals += sign * (f - x)
    c = np.median(gvals)
    return float(np.mean(np.abs(gvals - c)))


def distance_route(target, resolution: int) -> Route:
    return Route(lambda m: circle_w1(m, target, resolution=resolution))


@dataclass
class TensorGridSolution:
    n: int
    n_particles: int
    terminal_frame: np.ndarray
    frame_t0: np.ndarray

    def value_at(self, points: Sequence[float]) -> float:
        """Multilinear interpolation of V^N(t0, .) at an N-tuple."""
        pts = np.mod(np.asarray(points, dtype=float), 1.0)
        idx = pts * self.n
        lo = np.floor(idx).astype(int) % self.n
        frac = idx - np.floor(idx)
        val = 0.0
        for corner in range(2 ** self.n_particles):
            weight = 1.0
            index = []
            for ax in range(self.n_particles):
                if (corner >> ax) & 1:
                    index.append((lo[ax] + 1) % self.n)
                    weight *= frac[ax]
                else:
                    index.append(lo[ax])
                    weight *= 1 - frac[ax]
            val += weight * self.frame_t0[tuple(index)]
        return float(val)


def solve_hjbn_small(problem, n_particles: int,
                     n: int = 48) -> TensorGridSolution:
    """Monotone solve of the N-particle HJB on (T^1)^N, from t = T back to
    t = 0, on an n-point grid per axis; N > 3 or n < 8 raises ValueError.

    -d_t V - sum_i Lap_i V + (1/N) sum_i H(N D_i V) = 0, V(T, x) = G(m_x),
    with H(p) = |p|^2/2. Writing G_i(p) = H(N p)/N, the Lax-Friedrichs
    dissipation bound is max |D_p H| = max |N D_i V|, independent of N.
    """
    N = n_particles
    if N > 3 or n < 8:
        raise ValueError(f"need N <= 3 and n >= 8, got N = {N}, n = {n}")
    T = problem.horizon
    dx = 1.0 / n
    flat_pts = grid_nodes(N, n)  # (n^N, N)

    G = problem.terminal_cost
    g_vals = G.fast_value(
        _empirical_coeffs(flat_pts[..., None], G.cutoff)).reshape((n,) * N)

    # dissipation: theta >= max |D_p H| = max |p| over the run, with a
    # margin of 1 on the momenta of the terminal data
    grads = np.gradient(g_vals, dx)
    if N == 1:
        grads = [grads]
    pmax = max(float(np.abs(g).max()) for g in grads) * N
    theta = (pmax + 1) * 1.2 + 0.5

    # explicit step inside both stability limits, dx / theta and
    # 0.5 dx^2 / N
    dt_stable = min(0.4 * dx / theta, 0.2 * dx ** 2 / N)
    nt = int(np.ceil(T / dt_stable))
    dt = T / nt

    v = g_vals.copy()
    for _ in range(nt):
        rhs = np.zeros_like(v)
        for i in range(N):
            vp = np.roll(v, -1, axis=i)
            vm = np.roll(v, 1, axis=i)
            dplus = (vp - v) / dx
            dminus = (v - vm) / dx
            rhs += (vp - 2 * v + vm) / dx ** 2
            p_c = 0.5 * (dplus + dminus) * N
            rhs -= 0.5 * p_c ** 2 / N - 0.5 * theta * (dplus - dminus)
        v = v + dt * rhs
    return TensorGridSolution(n, N, g_vals, v)
