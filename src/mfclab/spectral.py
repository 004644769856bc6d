"""Fourier-side calculus on the flat torus T^d = [0,1)^d.

Probability measures are carried by their Fourier coefficients

    c_k = integral of exp(+i 2 pi k.x) dm(x),   k in Z^d, |k|_inf <= K,

so that a band-limited density reconstructs as f(x) = sum_k c_k exp(-i 2 pi k.x).
With this pairing, ``numpy.fft.ifftn`` of grid samples returns exactly the
coefficients above (indexed mod n), and ``numpy.fft.fftn`` of an embedded
coefficient array evaluates the series on the grid.

The dual-Sobolev machinery uses the anisotropic weight

    w(k) = 1 + sum_i |k_i|^(2s),

with <p, q>_{-s} = sum_k p_k conj(q_k) / w(k) and the dual maps
q* = q/w (H^{-s} -> H^s) and f* = f*w (H^s -> H^{-s}).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyPointSet,
    NotNormalized,
    ResolutionTooLow,
)

__all__ = [
    "GridField",
    "SobolevWeight",
    "SpectralMeasure",
    "SpectralVector",
    "SpectralGrid",
    "spectral_grid",
    "to_density",
    "empirical",
    "hs_inner",
    "hs_norm",
    "dual_embed",
    "eval_modes",
    "grid_nodes",
    "grid_gradient",
    "mode_values",
    "lebesgue",
    "random_measure",
]


# ---------------------------------------------------------------------------
# mode bookkeeping
# ---------------------------------------------------------------------------

def mode_values(cutoff: int) -> np.ndarray:
    """1D mode indices [-K, ..., K] matching coefficient-array axes."""
    return np.arange(-cutoff, cutoff + 1)


def _mesh(axis: np.ndarray, dim: int) -> tuple[np.ndarray, ...]:
    """The dim-fold tensor grid of a 1-D axis: one (len(axis),)*dim array
    per coordinate, in "ij" order."""
    return np.meshgrid(*([axis] * dim), indexing="ij")


def _mesh_points(axis: np.ndarray, dim: int) -> np.ndarray:
    """The points of ``_mesh(axis, dim)`` as rows, shape (len(axis)^dim, dim)."""
    return np.stack([m.ravel() for m in _mesh(axis, dim)], axis=-1)


def _hermitian_project(coeffs: np.ndarray,
                       dim: int | None = None) -> np.ndarray:
    """Average c with conj(c[-k]) so c_{-k} = conj(c_k) holds exactly.

    The mode axes are the trailing ``dim`` axes (all axes by default); any
    leading axes index a batch.
    """
    dim = coeffs.ndim if dim is None else dim
    flipped = np.conj(coeffs[(Ellipsis,) + (slice(None, None, -1),) * dim])
    return 0.5 * (coeffs + flipped)


def _measure_coeffs(coeffs: np.ndarray, dim: int) -> np.ndarray:
    """Impose the SpectralMeasure invariants on coefficient arrays.

    Hermitian projection over the trailing ``dim`` mode axes, then c_0 = 1
    after checking it is within 1e-6 of 1. Leading axes index a batch.
    """
    c = _hermitian_project(np.asarray(coeffs, dtype=complex), dim)
    center = (Ellipsis,) + (c.shape[-1] // 2,) * dim
    c0 = c[center]
    if np.any(np.abs(c0 - 1.0) > 1e-6):
        raise NotNormalized(f"c_0 = {c0}, expected 1")
    c[center] = 1.0
    return c


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# spectral-grid kernel
# ---------------------------------------------------------------------------

class SpectralGrid:
    """Cached Fourier bookkeeping of the uniform n^d torus grid.

    Holds the FFT-ordered wavenumbers as |k|^2 and derivative multipliers,
    and per cutoff K the index that places the modes |k|_inf <= K at FFT
    position k mod n. Every transform acts on the trailing ``dim`` axes, so
    leading (batch) axes pass through. Get instances from
    :func:`spectral_grid`, which builds one per (dim, n).

    Two routes compute the same linear maps. The FFT methods (``coeffs``,
    ``values``, ``gradient``, ``embed``/``extract``) suit large grids. The
    1-D grid operators (``gradient_op``, ``heat_op``, ``synthesis_op``,
    ``analysis_op``) are matrices built once per (n, t) or (n, K) by
    pushing the identity through the FFT route, which stays their
    definition; ``apply`` multiplies them along the trailing axes. On small
    grids, such as the 4K+1 points of the MFC solver, one small matmul per
    apply costs far less than an FFT round trip. Every product involves one
    batch member at a fixed shape, so a batch member's result does not
    depend on the batch it is in.
    """

    def __init__(self, dim: int, n: int):
        self.dim = dim
        self.n = n
        self.axes = tuple(range(-dim, 0))
        # integer wavenumbers in FFT order; fftfreq(n, 1/n) rounds some of
        # them off the integers (n = 49 gives 24.000000000000007)
        freqs = np.fft.ifftshift(np.arange(-(n // 2), n - n // 2))
        mesh = _mesh(freqs.astype(float), dim)
        self.ksq = _freeze(sum(m ** 2 for m in mesh))
        # series f = sum c_k e^{-2pi i k.x}  =>  d/dx_i carries -2pi i k_i
        self.deriv = _freeze(np.stack([-2j * np.pi * m for m in mesh]))
        self._index = {}

    # on the circle the 1-D transforms give the same result without the
    # n-D axis bookkeeping, which dominates on small grids
    def coeffs(self, values: np.ndarray) -> np.ndarray:
        """Fourier coefficients (FFT order) of grid samples."""
        if self.dim == 1:
            return np.fft.ifft(values)
        return np.fft.ifftn(values, axes=self.axes)

    def values(self, coeffs: np.ndarray) -> np.ndarray:
        """Real grid samples of FFT-ordered coefficients."""
        if self.dim == 1:
            return np.fft.fft(coeffs).real
        return np.fft.fftn(coeffs, axes=self.axes).real

    def heat(self, t: float) -> np.ndarray:
        """FFT-ordered heat multiplier e^{-4 pi^2 |k|^2 t}."""
        return np.exp(-4.0 * np.pi ** 2 * self.ksq * t)

    def gradient(self, values: np.ndarray) -> np.ndarray:
        """Spectral gradient of (..., n, ..., n) samples.

        Returns shape (..., dim, n, ..., n).
        """
        vhat = np.expand_dims(self.coeffs(values), -self.dim - 1)
        return self.values(vhat * self.deriv)

    def index(self, cutoff: int) -> tuple:
        """Index of the modes |k|_inf <= K at k mod n, trailing axes."""
        idx = self._index.get(cutoff)
        if idx is None:
            idx = (Ellipsis,) + np.ix_(*[mode_values(cutoff) % self.n]
                                       * self.dim)
            self._index[cutoff] = idx
        return idx

    def extract(self, full: np.ndarray, cutoff: int) -> np.ndarray:
        """Read coefficients c_k, |k|_inf <= K, from FFT-ordered arrays."""
        return full[self.index(cutoff)]

    def embed(self, coeffs: np.ndarray, cutoff: int) -> np.ndarray:
        """Place coefficients c_k at FFT index (k mod n), zeros elsewhere."""
        lead = coeffs.shape[:coeffs.ndim - self.dim]
        out = np.zeros(lead + (self.n,) * self.dim, dtype=complex)
        out[self.index(cutoff)] = coeffs
        return out

    # 1-D grid operators, applied as x @ op along one axis; shared by the
    # grids of every dim with the same n
    def gradient_op(self) -> np.ndarray:
        """(n, n) real: the spectral d/dx of samples along one axis."""
        return _gradient_op(self.n)

    def heat_op(self, t: float) -> np.ndarray:
        """(n, n) real: the heat semigroup e^{t d^2/dx^2} along one axis."""
        return _heat_op(self.n, t)

    def synthesis_op(self, cutoff: int) -> np.ndarray:
        """(2K+1, n) complex: grid samples of the modes |k| <= K.

        The real part of its product on every axis is ``values(embed(c))``.
        """
        return _synthesis_op(self.n, cutoff)

    def analysis_op(self, cutoff: int) -> np.ndarray:
        """(n, 2K+1) complex: the modes |k| <= K of grid samples, as
        ``extract(coeffs(v))``."""
        return _analysis_op(self.n, cutoff)

    def apply(self, x: np.ndarray, op: np.ndarray,
              axis: int | None = None) -> np.ndarray:
        """x @ op along every trailing grid axis, or only grid axis ``axis``.

        The product runs on each batch member's block at one fixed shape
        (``x[..., None, :] @ op`` in d = 1, where a 2-D product would switch
        BLAS kernels with the batch size), and without ``np.moveaxis``.
        """
        for a in (range(self.dim) if axis is None else (axis,)):
            k = self.dim - a  # the axis is x.shape[-k]
            if k > 1:
                shape = x.shape
                x = (op.T @ x.reshape(shape[:-k] + (shape[-k], -1))).reshape(
                    shape[:-k] + (op.shape[1],) + shape[-k + 1:])
            elif self.dim == 1:
                x = (x[..., None, :] @ op)[..., 0, :]
            else:
                x = x @ op
        return x


@functools.lru_cache(maxsize=64)
def spectral_grid(dim: int, n: int) -> SpectralGrid:
    """The shared SpectralGrid of the n^dim torus grid."""
    return SpectralGrid(dim, n)


# The 1-D operators, keyed by n and not by grid. Row j is the 1-D FFT route
# applied to the unit vector e_j, so that route stays their definition.
@functools.lru_cache(maxsize=64)
def _gradient_op(n: int) -> np.ndarray:
    return _freeze(spectral_grid(1, n).gradient(np.eye(n))[:, 0])


@functools.lru_cache(maxsize=256)
def _heat_op(n: int, t: float) -> np.ndarray:
    line = spectral_grid(1, n)
    return _freeze(line.values(line.coeffs(np.eye(n)) * line.heat(t)))


@functools.lru_cache(maxsize=64)
def _synthesis_op(n: int, cutoff: int) -> np.ndarray:
    # ``values`` without its real part, so products on several axes compose
    line = spectral_grid(1, n)
    return _freeze(np.fft.fft(line.embed(np.eye(2 * cutoff + 1), cutoff)))


@functools.lru_cache(maxsize=64)
def _analysis_op(n: int, cutoff: int) -> np.ndarray:
    line = spectral_grid(1, n)
    return _freeze(line.extract(line.coeffs(np.eye(n)), cutoff))


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridField:
    """Real-valued function sampled at the uniform grid nodes j/n.

    ``values`` has shape (n,)*dim. Scalar fields only; vector fields are
    passed around as tuples/arrays of GridField-compatible value arrays.
    """

    dim: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != self.dim:
            raise DimensionMismatch(
                f"values array has {vals.ndim} axes, expected dim={self.dim}"
            )
        if any(s != vals.shape[0] for s in vals.shape):
            raise DimensionMismatch("grid must be uniform along all axes")
        if vals.shape[0] < 4:
            raise ResolutionTooLow("GridField needs resolution >= 4")
        if not np.all(np.isfinite(vals)):
            raise ValueError("GridField values must be finite")
        object.__setattr__(self, "values", _freeze(vals))

    @property
    def resolution(self) -> int:
        return self.values.shape[0]

    def mean(self) -> float:
        return float(self.values.mean())


@dataclass(frozen=True)
class SobolevWeight:
    """Anisotropic Sobolev weight w(k) = 1 + sum_i |k_i|^(2s)."""

    s: float

    def __post_init__(self):
        if self.s < 0:
            raise ValueError("Sobolev order s must be nonnegative")

    def weights(self, dim: int, cutoff: int) -> np.ndarray:
        """w(k) on |k|_inf <= K, shape (2K+1,)*dim: one shared read-only
        array per (s, dim, cutoff)."""
        return _sobolev_weights(self.s, dim, cutoff)


@functools.lru_cache(maxsize=64)
def _sobolev_weights(s: float, dim: int, cutoff: int) -> np.ndarray:
    w = np.ones((2 * cutoff + 1,) * dim)
    for m in _mesh(mode_values(cutoff), dim):
        w = w + np.abs(m.astype(float)) ** (2.0 * s)
    return _freeze(w)


@dataclass(frozen=True)
class SpectralVector:
    """Signed spectral object: coefficients on |k|_inf <= K, no mass constraint.

    Carrier for differences of measures, gradients, and other H^{-s} vectors.
    Hermitian symmetry is enforced so the object represents a real
    distribution.
    """

    dim: int
    cutoff: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        expected = (2 * self.cutoff + 1,) * self.dim
        if c.shape != expected:
            raise DimensionMismatch(f"coeffs shape {c.shape} != {expected}")
        object.__setattr__(self, "coeffs", _freeze(_hermitian_project(c)))

    def __sub__(self, other):
        _check_compatible(self, other)
        return SpectralVector(self.dim, self.cutoff, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float):
        return SpectralVector(self.dim, self.cutoff, self.coeffs * float(scalar))

    __rmul__ = __mul__


@dataclass(frozen=True)
class SpectralMeasure:
    """Probability measure on T^d represented by truncated Fourier coefficients.

    Invariants enforced at construction: c_0 = 1 exactly and Hermitian
    symmetry c_{-k} = conj(c_k) exactly (by projection). Approximate
    nonnegativity of the reconstructed density is a property of
    density-backed measures; check it explicitly with :meth:`density_min`.
    Empirical measures of point sets satisfy it as measures but not as
    truncated reconstructions (Dirichlet-kernel dips), so no blanket
    constructor check is applied.
    """

    dim: int
    cutoff: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        expected = (2 * self.cutoff + 1,) * self.dim
        if c.shape != expected:
            raise DimensionMismatch(f"coeffs shape {c.shape} != {expected}")
        object.__setattr__(self, "coeffs",
                           _freeze(_measure_coeffs(c, self.dim)))

    def __sub__(self, other) -> SpectralVector:
        _check_compatible(self, other)
        return SpectralVector(self.dim, self.cutoff, self.coeffs - other.coeffs)

    def density_min(self) -> float:
        """Min of the reconstructed density on a 4K-per-axis grid."""
        n = max(4 * self.cutoff, 2 * self.cutoff + 1, 8)
        return float(to_density(self, n).values.min())

    def mix(self, other: "SpectralMeasure", lam: float) -> "SpectralMeasure":
        """Convex combination (1-lam)*self + lam*other."""
        _check_compatible(self, other)
        return SpectralMeasure(
            self.dim, self.cutoff,
            (1.0 - lam) * self.coeffs + lam * other.coeffs,
        )


SpectralObject = Union[SpectralMeasure, SpectralVector]


def _check_compatible(a, b) -> None:
    if a.dim != b.dim or a.cutoff != b.cutoff:
        raise DimensionMismatch(
            f"(dim={a.dim}, K={a.cutoff}) vs (dim={b.dim}, K={b.cutoff}); "
            "binary spectral operations require matching dim and cutoff"
        )


def lebesgue(dim: int, cutoff: int) -> SpectralMeasure:
    """Uniform measure: c_0 = 1, all other coefficients zero."""
    c = np.zeros((2 * cutoff + 1,) * dim, dtype=complex)
    c[(cutoff,) * dim] = 1.0
    return SpectralMeasure(dim, cutoff, c)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def to_density(m: SpectralObject, resolution: int) -> GridField:
    """Evaluate the truncated Fourier series on a resolution^d grid."""
    if resolution < 2 * m.cutoff + 1:
        raise ResolutionTooLow(
            f"resolution {resolution} < 2K+1 = {2 * m.cutoff + 1}"
        )
    grid = spectral_grid(m.dim, resolution)
    return GridField(m.dim, grid.values(grid.embed(m.coeffs, m.cutoff)))


def empirical(points: Sequence, cutoff: int) -> SpectralMeasure:
    """Empirical measure (1/N) sum_j delta_{x_j}: c_k = mean_j e^{i2pi k.x_j}."""
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise EmptyPointSet("empirical measure needs at least one point")
    if pts.ndim == 1:
        pts = pts[:, None]  # a flat array is N points on the circle
    return SpectralMeasure(pts.shape[1], cutoff, _empirical_coeffs(pts, cutoff))


def _empirical_coeffs(pts: np.ndarray, cutoff: int) -> np.ndarray:
    """Coefficients of ``empirical`` for point sets of shape (..., N, d),
    with the SpectralMeasure invariants imposed. Leading axes index a
    batch; each row gets the bits of a lone call."""
    lead, d = pts.shape[:-2], pts.shape[-1]
    pts = np.mod(pts, 1.0)
    k = mode_values(cutoff)
    # per-axis phase factors, shape (..., 2K+1, N); tensor-contract across
    # axes
    acc = None
    for i in range(d):
        p = np.exp(2j * np.pi * (k[:, None] * pts[..., None, :, i]))
        if acc is None:
            acc = p
        else:
            acc = acc[..., np.newaxis, :] * p.reshape(
                lead + (1,) * i + p.shape[-2:])
    return _measure_coeffs(acc.mean(axis=-1), d)


def eval_modes(coeffs: np.ndarray, cutoff: int, points: np.ndarray) -> np.ndarray:
    """Evaluate f(x) = Re sum_k c_k e^{-i2pi k.x} at arbitrary points.

    Exact for band-limited fields; used for particle feedback and projection
    checks. ``points`` has shape (N, d), or (N,) when d = 1; returns a real
    array of shape (N,). No Hermitian symmetry is assumed: the real part of
    the full sum is returned.

    One complex exp per point and axis, z = e^{-i2pi x_j}. The axes are
    contracted one at a time, each by two Horner recurrences: in z over the
    modes k >= 0 and in conj(z) over k < 0. Since |z| = 1 the recurrences
    are stable; the result agrees with the direct sum of phases to about
    1e-15 * sum_k |c_k| (checked for d <= 3, K <= 10).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    z = np.exp(-2j * np.pi * pts)
    acc = np.asarray(coeffs)[np.newaxis]  # (1 or N, 2K+1, ..., 2K+1)
    for ax in range(pts.shape[1]):
        acc = _horner(acc, z[:, ax], cutoff)
    return acc.real


def _horner(c: np.ndarray, z: np.ndarray, cutoff: int) -> np.ndarray:
    """sum_{k=-K}^{K} c[:, K + k] z^k per point, for |z| = 1.

    ``c`` has shape (1 or N, 2K+1, rest...) and ``z`` shape (N,); returns
    shape (N, rest...).
    """
    K = cutoff
    zb = z.reshape((-1,) + (1,) * (c.ndim - 2))
    shape = (len(z),) + c.shape[2:]
    out = np.empty(shape, dtype=complex)
    out[...] = c[:, 2 * K]
    for k in range(2 * K - 1, K - 1, -1):
        out *= zb
        out += c[:, k]
    if K > 0:
        w = np.conj(zb)
        neg = np.empty(shape, dtype=complex)
        neg[...] = c[:, 0]
        for k in range(1, K):
            neg *= w
            neg += c[:, k]
        neg *= w
        out += neg
    return out


# ---------------------------------------------------------------------------
# H^s / H^{-s} calculus
# ---------------------------------------------------------------------------

def hs_inner(p: SpectralObject, q: SpectralObject, weight: SobolevWeight) -> float:
    """Dual-Sobolev inner product <p, q>_{-s} = sum_k p_k conj(q_k)/w(k)."""
    _check_compatible(p, q)
    w = weight.weights(p.dim, p.cutoff)
    val = np.sum(p.coeffs * np.conj(q.coeffs) / w)
    return float(val.real)


def hs_norm(q: SpectralObject, weight: SobolevWeight) -> float:
    """H^{-s} norm sqrt(<q, q>_{-s})."""
    return float(np.sqrt(max(hs_inner(q, q, weight), 0.0)))


def dual_embed(f_coeffs: np.ndarray, dim: int, cutoff: int,
               weight: SobolevWeight) -> SpectralVector:
    """H^s -> H^{-s} dual element f* with coefficients w(k)*f_k.

    This is the direction used by the sup-convolution fixed point: the flat
    derivative (an H^s function) is mapped to the H^{-s} update direction.
    """
    w = weight.weights(dim, cutoff)
    return SpectralVector(dim, cutoff, np.asarray(f_coeffs, dtype=complex) * w)


# ---------------------------------------------------------------------------
# grid calculus helpers
# ---------------------------------------------------------------------------

def grid_nodes(dim: int, resolution: int) -> np.ndarray:
    """Grid node coordinates, shape (resolution^dim, dim)."""
    return _mesh_points(np.arange(resolution) / resolution, dim)


def grid_gradient(f: GridField) -> np.ndarray:
    """Spectral gradient; returns array of shape (dim, n, ..., n)."""
    return spectral_grid(f.dim, f.resolution).gradient(f.values)


def random_measure(dim: int, cutoff: int, rng: np.random.Generator,
                   roughness: float = 0.8) -> SpectralMeasure:
    """Random admissible measure: 1 plus a rescaled mean-zero trig polynomial.

    The perturbation amplitude is chosen so the density stays bounded below
    by 1 - roughness > 0 pointwise; no clipping is involved, so the result
    is a genuine smooth probability density. Deterministic given ``rng``.
    """
    shape = (2 * cutoff + 1,) * dim
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    decay = np.ones(shape)
    for m in _mesh(mode_values(cutoff).astype(float), dim):
        decay = decay / (1.0 + m ** 2)
    c = _hermitian_project(c * decay)
    c[(cutoff,) * dim] = 1.0
    base = SpectralMeasure(dim, cutoff, c)
    n = max(4 * cutoff, 2 * cutoff + 1, 16)
    low = to_density(base, n).values.min()
    if low >= 1.0 - 1e-9:
        return base
    lam = 1.0 - min(1.0, roughness / max(1.0 - low, 1e-12))
    return base.mix(lebesgue(dim, cutoff), lam)
