"""Grid-route oracles for the coefficient kernels of measure functionals,
and the reference solutions the PDE, particle and transport tests compare
against.

Each functional oracle evaluates a functional on its grid, by routes that
share no code with the coefficient kernels: values by the rectangle-rule
quadrature of ``expectation``, flat derivatives as grid fields, and the
distance cost through ``circle_w1``. A ``Route`` holds ``value(m)`` and
``derivative(m)`` for a SpectralMeasure m. The grid transforms are built
from ``numpy.fft`` and the integer wavenumber table ``fft_wavenumbers``,
sharing no code with the spectral kernel they check: ``fft_values`` and
``fft_modes`` move between coefficients |k| <= K and grid samples;
``heat_multiplier`` is the FFT heat semigroup of the PDE and particle
oracles; ``grid_gradient`` is the FFT derivative of a grid field;
``from_density`` is the grid transform that ``to_density`` inverts;
``fokker_planck_complex`` is the Fokker-Planck step on complex
coefficients, the oracle of the real-layout solver, and
``flow_distance_complex`` the H^{-s} flow distance on complex coefficients;
``solve_hjbn_small`` is the exact N-particle value V^N at N <= 3.
``lone_random_measure`` draws one random measure at a time and
``loop_hs_lipschitz`` samples the H^{-s} Lipschitz constant pair by pair:
the oracles of the batched draw and of ``estimate_hs_lipschitz``.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from mfclab.spectral import (
    GridField,
    SpectralMeasure,
    _empirical_coeffs,
    _measure_coeffs,
    hs_norm,
    lebesgue,
    mode_values,
    to_density,
)


def fft_wavenumbers(n: int) -> np.ndarray:
    """The integer wavenumbers of the n-point grid in FFT order:
    0, 1, .., then the negative ones (n = 4 gives 0, 1, -2, -1)."""
    return (np.arange(n) + n // 2) % n - n // 2


def fft_values(coeffs: np.ndarray, cutoff: int, n: int) -> np.ndarray:
    """Real samples at the n grid nodes of coefficients c_k, |k| <= K,
    along the last axis: the zero-padded FFT."""
    full = np.zeros(np.shape(coeffs)[:-1] + (n,), dtype=complex)
    full[..., np.arange(-cutoff, cutoff + 1) % n] = coeffs
    return np.fft.fft(full).real


def fft_modes(values: np.ndarray, cutoff: int) -> np.ndarray:
    """Coefficients c_k, |k| <= K, of grid samples along the last axis."""
    n = np.shape(values)[-1]
    return np.fft.ifft(values)[..., np.arange(-cutoff, cutoff + 1) % n]


def _heat_factor(k: np.ndarray, t: float) -> np.ndarray:
    return np.exp(-4.0 * np.pi ** 2 * k.astype(float) ** 2 * t)


def expectation(m, g: GridField) -> float:
    """Quadrature of integral g dm by the rectangle rule on the circle.

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
        factor = _heat_factor(fft_wavenumbers(obj.resolution), t)
        return GridField(np.fft.fft(np.fft.ifft(obj.values) * factor).real)
    factor = _heat_factor(mode_values(obj.cutoff), t)
    return type(obj)(obj.cutoff, obj.coeffs * factor)


def grid_gradient(f: GridField) -> np.ndarray:
    """Spectral derivative of a grid field, shape (n,): mode k of the
    series sum c_k e^{-2pi i k x} is multiplied by -2pi i k."""
    deriv = -2j * np.pi * fft_wavenumbers(f.resolution)
    return np.fft.fft(np.fft.ifft(f.values) * deriv).real


class Route(NamedTuple):
    value: Callable
    derivative: Optional[Callable] = None


def _centered(phi: GridField) -> GridField:
    return GridField(phi.values - phi.values.mean())


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
        return GridField(acc)

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
    return SpectralMeasure(cutoff, fft_modes(vals, cutoff))


def _cdf_offset_values(m: SpectralMeasure, resolution: int) -> np.ndarray:
    """Values of T(x) = sum_{k != 0} c_k (e^{-2pi i k x})/(-2pi i k) on the grid.

    F(x) = x + T(x) - T(0) is the exact CDF of the band-limited density.
    """
    K = m.cutoff
    k = mode_values(K).astype(float)
    d = np.zeros(2 * K + 1, dtype=complex)
    nz = k != 0
    d[nz] = m.coeffs[nz] / (-2j * np.pi * k[nz])
    return fft_values(d, K, resolution)


def circle_w1(m1, m2, resolution: int = 8192) -> float:
    """W1 on the circle between SpectralMeasures and PointClouds (d = 1).

    min over c of the mean of |F_1 - F_2 - c| on ``resolution`` grid
    points, c the median of F_1 - F_2: a measure's CDF from the exact
    Fourier antiderivative of its density, a cloud's as its step function.
    """
    x = np.arange(resolution) / resolution
    gvals = np.zeros(resolution)
    for sign, m in ((1.0, m1), (-1.0, m2)):
        if isinstance(m, SpectralMeasure):
            t = _cdf_offset_values(m, resolution)
            gvals += sign * (t - t[0])
        else:
            assert m.dim == 1
            z = np.sort(np.mod(m.points[:, 0], 1.0))
            cw = np.cumsum(m.weights[np.argsort(np.mod(m.points[:, 0], 1.0))])
            f = np.concatenate([[0.0], cw])[np.searchsorted(z, x, side="right")]
            gvals += sign * (f - x)
    c = np.median(gvals)
    return float(np.mean(np.abs(gvals - c)))


def distance_route(target, resolution: int) -> Route:
    return Route(lambda m: circle_w1(m, target, resolution=resolution))


def fokker_planck_complex(alpha, m0, t0: float, t1: float, nt: int,
                          resolution: int | None = None) -> np.ndarray:
    """``solve_fokker_planck`` on complex coefficients: the same Heun step
    with two complex operator products per right-hand side, the divergence
    applied after the analysis, and a Hermitian projection and mass check
    (``_measure_coeffs``) on every step. Returns the (B, nt+1, 2K+1) flows.
    """
    K = m0[0].cutoff
    n = resolution if resolution is not None else 2 * (2 * K + 1) + 1
    dt = (t1 - t0) / nt
    alpha = np.zeros(n) if alpha is None else np.asarray(alpha, dtype=float)
    a_steps = np.broadcast_to(alpha, (len(m0), nt + 1, n))
    k = mode_values(K)
    heat = _heat_factor(k, dt)
    div = -2j * np.pi * k
    synth = np.fft.fft(np.eye(n)[k % n])  # (2K+1, n)
    analysis = fft_modes(np.eye(n), K)  # (n, 2K+1)

    def rhs(c, a):
        dens = (c[:, None, :] @ synth)[:, 0].real
        return -(((dens * a)[:, None, :] @ analysis)[:, 0] * div)

    c = np.stack([m.coeffs for m in m0])
    flows = np.empty((len(m0), nt + 1) + c.shape[1:], dtype=complex)
    flows[:, 0] = c
    for j in range(nt):
        k1 = rhs(c, a_steps[:, j])
        pred = (c + dt * k1) * heat
        k2 = rhs(pred, a_steps[:, j + 1])
        c = _measure_coeffs((c + 0.5 * dt * k1) * heat + 0.5 * dt * k2)
        flows[:, j + 1] = c
    return flows


def flow_distance_complex(flow_a: np.ndarray, flow_b: np.ndarray,
                          w: np.ndarray) -> np.ndarray:
    """sup_t |a_t - b_t|_{-s} per member of (B, nt+1, 2K+1) complex flows
    c_{-K}..c_K: sum_k |q_k|^2 / w_k over every mode of each frame."""
    q = flow_a - flow_b
    sq = np.sum(q * np.conj(q) / w, axis=-1).real
    return np.sqrt(np.maximum(sq, 0.0)).max(axis=1)


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
    # the n^N grid configurations as rows, shape (n^N, N)
    mesh = np.meshgrid(*([np.arange(n) / n] * N), indexing="ij")
    flat_pts = np.stack([m.ravel() for m in mesh], axis=-1)

    G = problem.terminal_cost
    g_vals = G.fast_value(
        _empirical_coeffs(flat_pts, G.cutoff)).reshape((n,) * N)

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


def lone_random_measure(cutoff: int, rng: np.random.Generator,
                        roughness: float = 0.8) -> SpectralMeasure:
    """One random admissible measure from two draws of 2K+1 normals: the
    decayed Hermitian perturbation of Lebesgue, mixed toward Lebesgue until
    its density is at least 1 - roughness."""
    shape = (2 * cutoff + 1,)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    decay = 1.0 / (1.0 + mode_values(cutoff).astype(float) ** 2)
    c = 0.5 * (c * decay + np.conj((c * decay)[::-1]))
    c[cutoff] = 1.0
    base = SpectralMeasure(cutoff, c)
    low = to_density(base, max(4 * cutoff, 2 * cutoff + 1, 16)).values.min()
    if low >= 1.0 - 1e-9:
        return base
    lam = 1.0 - min(1.0, roughness / max(1.0 - low, 1e-12))
    return base.mix(lebesgue(cutoff), lam)


def loop_hs_lipschitz(phi, rng: np.random.Generator) -> float:
    """The sampled H^{-s} Lipschitz constant of ``estimate_hs_lipschitz``,
    one pair and one Phi call at a time: 100 random pairs, then two
    single-mode probes per mode around one rougher base, times 1.2."""
    K = phi.cutoff
    worst = 0.0
    for _ in range(100):
        m1 = lone_random_measure(K, rng)
        m2 = lone_random_measure(K, rng)
        den = hs_norm(m1 - m2)
        if den > 1e-9:
            worst = max(worst, abs(phi(m1) - phi(m2)) / den)
    base = lone_random_measure(K, rng, roughness=0.5)
    for k in range(1, K + 1):
        for phase in (1.0, 1j):
            c = np.zeros(2 * K + 1, dtype=complex)
            c[K + k] = 0.02 * phase
            c[K - k] = np.conj(c[K + k])
            m1 = SpectralMeasure(K, base.coeffs + c)
            m2 = SpectralMeasure(K, base.coeffs - c)
            worst = max(worst, abs(phi(m1) - phi(m2)) / hs_norm(m1 - m2))
    return worst * 1.2
