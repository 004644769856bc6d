"""Fourier-side calculus on the circle T = [0, 1).

Probability measures are carried by their Fourier coefficients

    c_k = integral of exp(+i 2 pi k x) dm(x),   |k| <= K,

so that a band-limited density reconstructs as
f(x) = sum_k c_k exp(-i 2 pi k x).
With this pairing, ``numpy.fft.ifft`` of grid samples returns exactly the
coefficients above (indexed mod n), and ``numpy.fft.fft`` of an embedded
coefficient array evaluates the series on the grid.

The dual-Sobolev machinery works in one space, H^{-s} with the order fixed
at s = 2, through the weight

    w(k) = 1 + |k|^(2s) = 1 + k^4,

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
    "mode_values",
    "lebesgue",
    "random_measure",
    "random_measure_coeffs",
]


# ---------------------------------------------------------------------------
# mode bookkeeping
# ---------------------------------------------------------------------------

def mode_values(cutoff: int) -> np.ndarray:
    """Mode indices [-K, ..., K] matching the coefficient axis."""
    return np.arange(-cutoff, cutoff + 1)


def _hermitian_project(coeffs: np.ndarray) -> np.ndarray:
    """Average c with conj(c[-k]) so c_{-k} = conj(c_k) holds exactly.

    The modes run along the last axis; any leading axes index a batch.
    """
    return 0.5 * (coeffs + np.conj(coeffs[..., ::-1]))


def _measure_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """Impose the SpectralMeasure invariants on coefficient arrays.

    Hermitian projection along the last (mode) axis, then c_0 = 1 after
    checking it is within 1e-6 of 1. Leading axes index a batch.
    """
    c = _hermitian_project(np.asarray(coeffs, dtype=complex))
    center = c.shape[-1] // 2
    c0 = c[..., center]
    if np.any(np.abs(c0 - 1.0) > 1e-6):
        raise NotNormalized(f"c_0 = {c0}, expected 1")
    c[..., center] = 1.0
    return c


def _real_layout(coeffs: np.ndarray) -> np.ndarray:
    """r = (Re c_0..c_K, Im c_1..c_K) of Hermitian coefficient arrays.

    The modes run along the last axis, (..., 2K+1) in and out; the modes
    k < 0 are dropped, since c_{-k} = conj(c_k) carries them.
    """
    K = coeffs.shape[-1] // 2
    upper = coeffs[..., K:]
    return np.concatenate([upper.real, upper.imag[..., 1:]], axis=-1)


def _complex_layout(r: np.ndarray) -> np.ndarray:
    """The coefficients c_{-K}..c_K of real-layout arrays r, (..., 2K+1):
    the inverse of ``_real_layout``, with c_0 real and c_{-k} = conj(c_k)
    exactly."""
    K = r.shape[-1] // 2
    c = np.empty(r.shape, dtype=complex)
    c.real[..., K:] = r[..., :K + 1]
    c.imag[..., K] = 0.0
    c.imag[..., K + 1:] = r[..., K + 1:]
    c[..., :K] = np.conj(c[..., :K:-1])
    return c


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# spectral-grid kernel
# ---------------------------------------------------------------------------

class SpectralGrid:
    """Cached Fourier bookkeeping of the uniform n-point circle grid.

    Holds the FFT-ordered wavenumbers as k^2 and derivative multipliers,
    and per cutoff K the index that places the modes |k| <= K at FFT
    position k mod n. Every transform acts on the last axis, so leading
    (batch) axes pass through. Get instances from :func:`spectral_grid`,
    which builds one per n.

    Two routes compute the same linear maps. The FFT methods (``coeffs``,
    ``values``, ``gradient``, ``embed``/``extract``) suit large grids. The
    grid operators (``gradient_op``, ``heat_op``, ``synthesis_op``,
    ``analysis_op``) are real matrices built once per (n, t) or (n, K) by
    pushing the identity through the FFT route, which stays their
    definition; ``apply`` multiplies by them along the last axis. The
    synthesis and analysis operators act on the real layout
    r = (Re c_0..c_K, Im c_1..c_K) of Hermitian coefficients. On small
    grids, such as the 4K+1 points of the MFC solver, one small matmul per
    apply costs far less than an FFT round trip. Every product involves one
    batch member at a fixed shape, so a batch member's result does not
    depend on the batch it is in.
    """

    def __init__(self, n: int):
        self.n = n
        # integer wavenumbers in FFT order; fftfreq(n, 1/n) rounds some of
        # them off the integers (n = 49 gives 24.000000000000007)
        freqs = np.fft.ifftshift(np.arange(-(n // 2), n - n // 2))
        freqs = freqs.astype(float)
        self.ksq = _freeze(freqs ** 2)
        # series f = sum c_k e^{-2pi i k x}  =>  d/dx carries -2pi i k
        self.deriv = _freeze(-2j * np.pi * freqs)
        self._index = {}

    def coeffs(self, values: np.ndarray) -> np.ndarray:
        """Fourier coefficients (FFT order) of grid samples."""
        return np.fft.ifft(values)

    def values(self, coeffs: np.ndarray) -> np.ndarray:
        """Real grid samples of FFT-ordered coefficients."""
        return np.fft.fft(coeffs).real

    def heat(self, t: float) -> np.ndarray:
        """FFT-ordered heat multiplier e^{-4 pi^2 k^2 t}."""
        return np.exp(-4.0 * np.pi ** 2 * self.ksq * t)

    def gradient(self, values: np.ndarray) -> np.ndarray:
        """Spectral derivative of (..., n) samples."""
        return self.values(self.coeffs(values) * self.deriv)

    def index(self, cutoff: int) -> np.ndarray:
        """FFT positions k mod n of the modes |k| <= K."""
        idx = self._index.get(cutoff)
        if idx is None:
            idx = self._index[cutoff] = mode_values(cutoff) % self.n
        return idx

    def extract(self, full: np.ndarray, cutoff: int) -> np.ndarray:
        """Read coefficients c_k, |k| <= K, from FFT-ordered arrays."""
        return full[..., self.index(cutoff)]

    def embed(self, coeffs: np.ndarray, cutoff: int) -> np.ndarray:
        """Place coefficients c_k at FFT index (k mod n), zeros elsewhere."""
        out = np.zeros(coeffs.shape[:-1] + (self.n,), dtype=complex)
        out[..., self.index(cutoff)] = coeffs
        return out

    # grid operators, applied as x @ op along the last axis
    def gradient_op(self) -> np.ndarray:
        """(n, n) real: the spectral d/dx of samples."""
        return _gradient_op(self.n)

    def heat_op(self, t: float) -> np.ndarray:
        """(n, n) real: the heat semigroup e^{t d^2/dx^2}."""
        return _heat_op(self.n, t)

    def synthesis_op(self, cutoff: int) -> np.ndarray:
        """(2K+1, n) real: grid samples of the real-layout modes
        r = (Re c_0..c_K, Im c_1..c_K).

        Its product with r is ``values(embed(c))`` of the Hermitian
        coefficients c that r holds.
        """
        return _synthesis_op(self.n, cutoff)

    def analysis_op(self, cutoff: int) -> np.ndarray:
        """(n, 2K+1) real: the modes |k| <= K of real grid samples in the
        real layout r = (Re c_0..c_K, Im c_1..c_K), with c =
        ``extract(coeffs(v))``."""
        return _analysis_op(self.n, cutoff)

    def apply(self, x: np.ndarray, op: np.ndarray) -> np.ndarray:
        """x @ op along the last axis.

        The product runs on each batch member's row at one fixed shape,
        ``x[..., None, :] @ op``, where a 2-D product would switch BLAS
        kernels with the batch size.
        """
        return (x[..., None, :] @ op)[..., 0, :]


@functools.lru_cache(maxsize=64)
def spectral_grid(n: int) -> SpectralGrid:
    """The shared SpectralGrid of the n-point circle grid."""
    return SpectralGrid(n)


# The grid operators, keyed by n. Row j is the FFT route applied to the
# unit vector e_j, so that route stays their definition.
@functools.lru_cache(maxsize=64)
def _gradient_op(n: int) -> np.ndarray:
    return _freeze(spectral_grid(n).gradient(np.eye(n)))


@functools.lru_cache(maxsize=256)
def _heat_op(n: int, t: float) -> np.ndarray:
    line = spectral_grid(n)
    return _freeze(line.values(line.coeffs(np.eye(n)) * line.heat(t)))


@functools.lru_cache(maxsize=64)
def _synthesis_op(n: int, cutoff: int) -> np.ndarray:
    line = spectral_grid(n)
    basis = _complex_layout(np.eye(2 * cutoff + 1))
    return _freeze(line.values(line.embed(basis, cutoff)))


@functools.lru_cache(maxsize=64)
def _analysis_op(n: int, cutoff: int) -> np.ndarray:
    line = spectral_grid(n)
    return _freeze(_real_layout(line.extract(line.coeffs(np.eye(n)), cutoff)))


@functools.lru_cache(maxsize=64)
def _divergence_analysis_op(n: int, cutoff: int) -> np.ndarray:
    """(n, 2K+1) real: the real-layout modes |k| <= K of -d/dx of grid
    samples, the Fokker-Planck flux operator. The derivative multiplier
    vanishes at k = 0, so the c_0 column is zero."""
    line = spectral_grid(n)
    full = line.coeffs(np.eye(n)) * -line.deriv
    return _freeze(_real_layout(line.extract(full, cutoff)))


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridField:
    """Real-valued function sampled at the uniform grid nodes j/n.

    ``values`` has shape (n,).
    """

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise DimensionMismatch(
                f"values array has {vals.ndim} axes, expected 1")
        if vals.shape[0] < 4:
            raise ResolutionTooLow("GridField needs resolution >= 4")
        if not np.all(np.isfinite(vals)):
            raise ValueError("GridField values must be finite")
        object.__setattr__(self, "values", _freeze(vals))

    @property
    def resolution(self) -> int:
        return self.values.shape[0]


_SOBOLEV_ORDER = 2.0  # s of the dual space H^{-s}


@functools.lru_cache(maxsize=64)
def _sobolev_weights(cutoff: int) -> np.ndarray:
    """w(k) = 1 + |k|^(2s) on |k| <= K, shape (2K+1,): one shared
    read-only array per cutoff."""
    k = mode_values(cutoff).astype(float)
    return _freeze(1.0 + np.abs(k) ** (2.0 * _SOBOLEV_ORDER))


def _check_shape(c: np.ndarray, cutoff: int) -> None:
    if c.shape != (2 * cutoff + 1,):
        raise DimensionMismatch(
            f"coeffs shape {c.shape} != {(2 * cutoff + 1,)}")


@dataclass(frozen=True)
class SpectralVector:
    """Signed spectral object: coefficients on |k| <= K, no mass constraint.

    Carrier for differences of measures, gradients, and other H^{-s} vectors.
    Hermitian symmetry is enforced so the object represents a real
    distribution.
    """

    cutoff: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        _check_shape(c, self.cutoff)
        object.__setattr__(self, "coeffs", _freeze(_hermitian_project(c)))


@dataclass(frozen=True)
class SpectralMeasure:
    """Probability measure on the circle represented by truncated Fourier
    coefficients.

    Invariants enforced at construction: c_0 = 1 exactly and Hermitian
    symmetry c_{-k} = conj(c_k) exactly (by projection). Approximate
    nonnegativity of the reconstructed density is a property of
    density-backed measures; check it explicitly with :meth:`density_min`.
    Empirical measures of point sets satisfy it as measures but not as
    truncated reconstructions (Dirichlet-kernel dips), so no blanket
    constructor check is applied.
    """

    cutoff: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        _check_shape(c, self.cutoff)
        object.__setattr__(self, "coeffs", _freeze(_measure_coeffs(c)))

    def __sub__(self, other) -> SpectralVector:
        _check_compatible(self, other)
        return SpectralVector(self.cutoff, self.coeffs - other.coeffs)

    def density_min(self) -> float:
        """Min of the reconstructed density on a 4K-point grid."""
        n = max(4 * self.cutoff, 2 * self.cutoff + 1, 8)
        return float(to_density(self, n).values.min())

    def mix(self, other: "SpectralMeasure", lam: float) -> "SpectralMeasure":
        """Convex combination (1-lam)*self + lam*other."""
        _check_compatible(self, other)
        return SpectralMeasure(
            self.cutoff, (1.0 - lam) * self.coeffs + lam * other.coeffs)


SpectralObject = Union[SpectralMeasure, SpectralVector]


def _check_compatible(a, b) -> None:
    if a.cutoff != b.cutoff:
        raise DimensionMismatch(
            f"K={a.cutoff} vs K={b.cutoff}; binary spectral operations "
            "require matching cutoffs")


def lebesgue(cutoff: int) -> SpectralMeasure:
    """Uniform measure: c_0 = 1, all other coefficients zero."""
    c = np.zeros(2 * cutoff + 1, dtype=complex)
    c[cutoff] = 1.0
    return SpectralMeasure(cutoff, c)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def to_density(m: SpectralObject, resolution: int) -> GridField:
    """Evaluate the truncated Fourier series on a resolution-point grid."""
    if resolution < 2 * m.cutoff + 1:
        raise ResolutionTooLow(
            f"resolution {resolution} < 2K+1 = {2 * m.cutoff + 1}"
        )
    grid = spectral_grid(resolution)
    return GridField(grid.values(grid.embed(m.coeffs, m.cutoff)))


def empirical(points: Sequence, cutoff: int) -> SpectralMeasure:
    """Empirical measure (1/N) sum_j delta_{x_j} of N points on the circle:
    c_k = mean_j e^{i2pi k x_j}."""
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise EmptyPointSet("empirical measure needs at least one point")
    return SpectralMeasure(cutoff, _empirical_coeffs(pts, cutoff))


def _empirical_coeffs(pts: np.ndarray, cutoff: int) -> np.ndarray:
    """Coefficients of ``empirical`` for point sets of shape (..., N), with
    the SpectralMeasure invariants imposed. Leading axes index a batch;
    each row gets the bits of a lone call."""
    pts = np.mod(pts, 1.0)
    k = mode_values(cutoff)
    phases = np.exp(2j * np.pi * (k[:, None] * pts[..., None, :]))
    return _measure_coeffs(phases.mean(axis=-1))


def eval_modes(coeffs: np.ndarray, cutoff: int, points: np.ndarray) -> np.ndarray:
    """Evaluate f(x) = Re sum_k c_k e^{-i2pi k x} at arbitrary points.

    Exact for band-limited fields; used for particle feedback and projection
    checks. ``points`` has shape (N,); returns a real array of shape (N,).
    No Hermitian symmetry is assumed: the real part of the full sum is
    returned.

    One complex exp per point, z = e^{-i2pi x_j}, then two Horner
    recurrences: in z over the modes k >= 0 and in conj(z) over k < 0.
    Since |z| = 1 the recurrences are stable; the result agrees with the
    direct sum of phases to about 1e-15 * sum_k |c_k| (checked for
    K <= 10).
    """
    c = np.asarray(coeffs)
    K = cutoff
    z = np.exp(-2j * np.pi * np.asarray(points, dtype=float))
    out = np.full(z.shape, c[2 * K], dtype=complex)
    for k in range(2 * K - 1, K - 1, -1):
        out *= z
        out += c[k]
    if K > 0:
        w = np.conj(z)
        neg = np.full(z.shape, c[0], dtype=complex)
        for k in range(1, K):
            neg *= w
            neg += c[k]
        neg *= w
        out += neg
    return out.real


# ---------------------------------------------------------------------------
# H^s / H^{-s} calculus
# ---------------------------------------------------------------------------

def hs_inner(p: SpectralObject, q: SpectralObject) -> float:
    """Dual-Sobolev inner product <p, q>_{-s} = sum_k p_k conj(q_k)/w(k)."""
    _check_compatible(p, q)
    w = _sobolev_weights(p.cutoff)
    val = np.sum(p.coeffs * np.conj(q.coeffs) / w)
    return float(val.real)


def hs_norm(q: SpectralObject) -> float:
    """H^{-s} norm sqrt(<q, q>_{-s})."""
    return float(np.sqrt(max(hs_inner(q, q), 0.0)))


def _hs_norms(coeffs: np.ndarray, cutoff: int) -> np.ndarray:
    """H^{-s} norms of the rows of a Hermitian coefficient array, each with
    the bits of ``hs_norm`` on that row."""
    w = _sobolev_weights(cutoff)
    return np.sqrt(np.maximum(
        np.sum(coeffs * np.conj(coeffs) / w, axis=-1).real, 0.0))


def dual_embed(f_coeffs: np.ndarray, cutoff: int) -> SpectralVector:
    """H^s -> H^{-s} dual element f* with coefficients w(k)*f_k.

    This is the direction used by the sup-convolution fixed point: the flat
    derivative (an H^s function) is mapped to the H^{-s} update direction.
    """
    w = _sobolev_weights(cutoff)
    return SpectralVector(cutoff, np.asarray(f_coeffs, dtype=complex) * w)


def random_measure(cutoff: int, rng: np.random.Generator,
                   roughness: float = 0.8) -> SpectralMeasure:
    """Random admissible measure: 1 plus a rescaled mean-zero trig polynomial.

    The perturbation amplitude is chosen so the density stays bounded below
    by 1 - roughness > 0 pointwise; no clipping is involved, so the result
    is a genuine smooth probability density. Deterministic given ``rng``.
    """
    return SpectralMeasure(
        cutoff, random_measure_coeffs(cutoff, rng, 1, roughness)[0])


def random_measure_coeffs(cutoff: int, rng: np.random.Generator, rows: int,
                          roughness=0.8) -> np.ndarray:
    """The coefficients of ``rows`` random admissible measures as one
    ``(rows, 2K+1)`` array, from one draw.

    Row i holds, bit for bit, the coefficients of the i-th of ``rows``
    successive ``random_measure`` calls on ``rng``, and ``rng`` is left in
    the state those calls leave. ``roughness`` is one value, or one per
    row.
    """
    z = rng.standard_normal((rows, 2, 2 * cutoff + 1))
    c = z[:, 0] + 1j * z[:, 1]
    decay = 1.0 / (1.0 + mode_values(cutoff).astype(float) ** 2)
    c = _hermitian_project(c * decay)
    c[:, cutoff] = 1.0
    base = _measure_coeffs(c)
    grid = spectral_grid(max(4 * cutoff, 2 * cutoff + 1, 16))
    low = grid.values(grid.embed(base, cutoff)).min(axis=-1)
    rough = np.broadcast_to(np.asarray(roughness, dtype=float), (rows,))
    lam = 1.0 - np.minimum(1.0, rough / np.maximum(1.0 - low, 1e-12))
    leb = np.zeros(2 * cutoff + 1, dtype=complex)  # lebesgue(cutoff).coeffs
    leb[cutoff] = 1.0
    mixed = _measure_coeffs((1.0 - lam[:, None]) * base + lam[:, None] * leb)
    return np.where((low >= 1.0 - 1e-9)[:, None], base, mixed)
