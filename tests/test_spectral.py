import numpy as np
import pytest

from mfclab.errors import DimensionMismatch, EmptyPointSet, ResolutionTooLow
from mfclab.spectral import (
    GridField,
    SobolevWeight,
    SpectralMeasure,
    SpectralVector,
    _empirical_coeffs,
    dual_embed,
    empirical,
    eval_modes,
    grid_gradient,
    hs_inner,
    hs_norm,
    lebesgue,
    mode_values,
    random_measure,
    spectral_grid,
    to_density,
)

from conftest import random_field
from grid_oracles import expectation, from_density, heat_multiplier


# --- independent oracles ----------------------------------------------------

def quadrature_coeff(f, k, n_quad=20001):
    """c_k = int e^{i2pi k x} f(x) dx by composite trapezoid on [0,1]."""
    x = np.linspace(0.0, 1.0, n_quad)
    vals = np.exp(2j * np.pi * k * x) * f(x)
    return np.trapezoid(vals, x)


def direct_hs_inner(p_coeffs, q_coeffs, cutoff, s):
    """Literal mode-by-mode sum of p_k conj(q_k)/w(k) for d=1."""
    total = 0.0 + 0.0j
    for i, k in enumerate(range(-cutoff, cutoff + 1)):
        w = 1.0 + abs(k) ** (2 * s)
        total += p_coeffs[i] * np.conj(q_coeffs[i]) / w
    return total.real


# --- from_density -----------------------------------------------------------

def test_from_density_lebesgue():
    n = 64
    f = GridField(1, np.ones(n))
    m = from_density(f, cutoff=4)
    expected = np.zeros(9, dtype=complex)
    expected[4] = 1.0
    np.testing.assert_allclose(m.coeffs, expected, atol=1e-14)


def test_from_density_cosine_matches_quadrature_oracle():
    n = 128
    x = np.arange(n) / n
    f = GridField(1, 1.0 + np.cos(2 * np.pi * x))
    m = from_density(f, cutoff=2)
    # oracle: closed-form Fourier integral by quadrature
    c1 = quadrature_coeff(lambda t: 1.0 + np.cos(2 * np.pi * t), 1)
    cm1 = quadrature_coeff(lambda t: 1.0 + np.cos(2 * np.pi * t), -1)
    assert abs(c1 - 0.5) < 1e-9 and abs(cm1 - 0.5) < 1e-9
    np.testing.assert_allclose(m.coeffs[2 + 1], 0.5, atol=1e-12)
    np.testing.assert_allclose(m.coeffs[2 - 1], 0.5, atol=1e-12)


def test_from_density_sine_matches_quadrature_oracle():
    # c_1 for 1 + 0.5 sin(2 pi x) under the e^{+i2pi kx} convention.
    # Frozen from the quadrature oracle: +i/4 (and c_{-1} = -i/4).
    n = 128
    x = np.arange(n) / n
    f = GridField(1, 1.0 + 0.5 * np.sin(2 * np.pi * x))
    m = from_density(f, cutoff=2)
    oracle = quadrature_coeff(lambda t: 1.0 + 0.5 * np.sin(2 * np.pi * t), 1)
    np.testing.assert_allclose(oracle, 0.25j, atol=1e-9)
    np.testing.assert_allclose(m.coeffs[2 + 1], 0.25j, atol=1e-12)
    np.testing.assert_allclose(m.coeffs[2 - 1], -0.25j, atol=1e-12)


def test_from_density_rejects_negative_and_unnormalized():
    n = 32
    x = np.arange(n) / n
    with pytest.raises(ValueError, match="not a probability density"):
        from_density(GridField(1, 0.5 + np.cos(2 * np.pi * x)), cutoff=2)
    with pytest.raises(ValueError, match="not a probability density"):
        from_density(GridField(1, np.full(n, 1.01)), cutoff=2)


# --- to_density -------------------------------------------------------------

def test_to_density_lebesgue_is_constant():
    m = lebesgue(2, 3)
    g = to_density(m, 16)
    np.testing.assert_allclose(g.values, 1.0, atol=1e-14)


def test_to_density_single_mode_direct_evaluation():
    c = np.zeros(5, dtype=complex)
    c[2] = 1.0
    c[1] = 0.5
    c[3] = 0.5
    m = SpectralMeasure(1, 2, c)
    g = to_density(m, 32)
    x = np.arange(32) / 32
    np.testing.assert_allclose(g.values, 1.0 + np.cos(2 * np.pi * x), atol=1e-12)


def test_round_trip_random_measure(rng):
    m = random_measure(1, 6, rng)
    g = to_density(m, 64)
    m2 = from_density(g, cutoff=6)
    np.testing.assert_allclose(m2.coeffs, m.coeffs, atol=1e-12)


def test_round_trip_2d(rng):
    m = random_measure(2, 3, rng)
    m2 = from_density(to_density(m, 16), cutoff=3)
    np.testing.assert_allclose(m2.coeffs, m.coeffs, atol=1e-12)


def test_to_density_resolution_too_low():
    with pytest.raises(ResolutionTooLow):
        to_density(lebesgue(1, 8), 8)


# --- empirical --------------------------------------------------------------

def test_empirical_dirac_at_origin():
    m = empirical([0.0], cutoff=3)
    np.testing.assert_allclose(m.coeffs, np.ones(7), atol=1e-14)


def test_empirical_two_point_cancellation():
    m = empirical([0.0, 0.5], cutoff=1)
    assert abs(m.coeffs[1 + 1]) < 1e-14  # k = 1


def test_empirical_four_points_direct_sum_oracle():
    pts = [0.0, 0.25, 0.5, 0.75]
    m = empirical(pts, cutoff=4)
    # oracle: literal summation
    for k in range(-4, 5):
        expected = np.mean([np.exp(2j * np.pi * k * x) for x in pts])
        np.testing.assert_allclose(m.coeffs[4 + k], expected, atol=1e-14)
    assert abs(m.coeffs[4 + 2]) < 1e-14
    np.testing.assert_allclose(m.coeffs[4 + 4], 1.0, atol=1e-14)


def test_empirical_empty_raises():
    with pytest.raises(EmptyPointSet):
        empirical([], cutoff=2)


def test_empirical_2d_matches_direct_sum(rng):
    pts = rng.uniform(size=(5, 2))
    m = empirical(pts, cutoff=2)
    for k1 in range(-2, 3):
        for k2 in range(-2, 3):
            expected = np.mean(
                np.exp(2j * np.pi * (k1 * pts[:, 0] + k2 * pts[:, 1]))
            )
            np.testing.assert_allclose(m.coeffs[2 + k1, 2 + k2], expected,
                                       atol=1e-13)


# --- hs_inner / hs_norm -----------------------------------------------------

def test_hs_norm_lebesgue_is_one():
    for s in [0.5, 1.0, 2.0, 3.5]:
        assert abs(hs_norm(lebesgue(1, 8), SobolevWeight(s)) - 1.0) < 1e-14


def test_hs_norm_dirac_k1_s2():
    m = empirical([0.0], cutoff=1)
    val = hs_inner(m, m, SobolevWeight(2.0))
    assert abs(val - 2.0) < 1e-14  # 1 + 2*(1/2)


def test_sobolev_weights_shared_and_read_only():
    w = SobolevWeight(2.0)
    a = w.weights(2, 3)
    assert w.weights(2, 3) is a
    assert SobolevWeight(2.0).weights(2, 3) is a
    assert a.shape == (7, 7) and a[3, 3] == 1.0 and a[3, 5] == 1.0 + 2.0 ** 4
    with pytest.raises(ValueError):
        a[0, 0] = 0.0
    assert SobolevWeight(1.0).weights(2, 3) is not a


def test_hs_norm_dirac_difference_spot_value():
    s, K = 2.0, 8
    d0 = empirical([0.0], cutoff=K)
    dh = empirical([0.5], cutoff=K)
    got = hs_norm(d0 - dh, SobolevWeight(s))
    # oracle: direct Fourier sum
    diff = d0.coeffs - dh.coeffs
    expected = np.sqrt(direct_hs_inner(diff, diff, K, s))
    np.testing.assert_allclose(got, expected, atol=1e-12)
    # symmetry in (x, y) and vanishing as x -> y
    got_sym = hs_norm(dh - d0, SobolevWeight(s))
    np.testing.assert_allclose(got, got_sym, atol=1e-14)
    close = hs_norm(d0 - empirical([1e-4], cutoff=K), SobolevWeight(s))
    assert close < 1e-2 * got


def test_hs_inner_positive_definite(rng):
    w = SobolevWeight(2.0)
    for _ in range(10):
        m1 = random_measure(1, 6, rng)
        m2 = random_measure(1, 6, rng)
        v = m1 - m2
        if np.max(np.abs(v.coeffs)) > 1e-12:
            assert hs_inner(v, v, w) > 0


def test_hs_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        hs_inner(lebesgue(1, 4), lebesgue(1, 5), SobolevWeight(2.0))


# --- dual maps --------------------------------------------------------------

def test_dual_map_single_mode_halves():
    # d=1, s=2: q with q_1 = 1 maps to coefficient 1/(1 + 1) = 1/2
    c = np.zeros(9, dtype=complex)
    c[4 + 1] = 1.0
    c[4 - 1] = 1.0
    q = SpectralVector(1, 4, c)
    dc = q.coeffs / SobolevWeight(2.0).weights(1, 4)
    np.testing.assert_allclose(dc[4 + 1], 0.5, atol=1e-14)


def test_duality_identity_random_pairs(rng):
    # pairing of q* against p equals <q, p>_{-s}
    w = SobolevWeight(2.0)
    for _ in range(10):
        q = random_measure(1, 6, rng) - random_measure(1, 6, rng)
        p = random_measure(1, 6, rng)
        qstar = q.coeffs / w.weights(1, 6)
        pairing = np.sum(qstar * np.conj(p.coeffs)).real
        np.testing.assert_allclose(pairing, hs_inner(q, p, w), atol=1e-12)


def test_dual_embed_inverts_dual_coeffs(rng):
    w = SobolevWeight(2.0)
    q = random_measure(1, 5, rng) - lebesgue(1, 5)
    back = dual_embed(q.coeffs / w.weights(1, 5), 1, 5, w)
    np.testing.assert_allclose(back.coeffs, q.coeffs, atol=1e-13)


# --- heat multiplier --------------------------------------------------------

def test_heat_constant_unchanged():
    m = lebesgue(2, 3)
    out = heat_multiplier(m, 0.7)
    np.testing.assert_allclose(out.coeffs, m.coeffs, atol=1e-15)


def test_heat_zero_time_identity(rng):
    m = random_measure(1, 5, rng)
    out = heat_multiplier(m, 0.0)
    np.testing.assert_allclose(out.coeffs, m.coeffs, atol=1e-15)


def test_heat_eigenvalue_oracle():
    # mode k=1 at t = 1/(4 pi^2) scales by exactly e^{-1}
    c = np.zeros(5, dtype=complex)
    c[2] = 1.0
    c[2 + 1] = 0.3
    c[2 - 1] = 0.3
    m = SpectralMeasure(1, 2, c)
    t = 1.0 / (4.0 * np.pi ** 2)
    out = heat_multiplier(m, t)
    np.testing.assert_allclose(out.coeffs[2 + 1], 0.3 * np.exp(-1.0), atol=1e-15)
    assert out.coeffs[2] == 1.0


def test_heat_gridfield_matches_spectral(rng):
    m = random_measure(1, 4, rng)
    g = to_density(m, 32)
    out_g = heat_multiplier(g, 0.05)
    out_m = to_density(heat_multiplier(m, 0.05), 32)
    np.testing.assert_allclose(out_g.values, out_m.values, atol=1e-12)


# --- invariants and properties ----------------------------------------------

def test_hermitian_and_mass_invariants_after_ops(rng):
    m = random_measure(2, 3, rng)
    for obj in [heat_multiplier(m, 0.1), m.mix(lebesgue(2, 3), 0.3)]:
        c = obj.coeffs
        assert c[(3, 3)] == 1.0
        flipped = np.conj(c[::-1, ::-1])
        np.testing.assert_allclose(c, flipped, atol=0)


def test_smoothing_estimate_single_constant(rng):
    # || grad P_t f ||_inf <= C t^{-1/2} ||f||_inf with one C over 100 trials
    ratios = []
    for _ in range(100):
        f = random_field(1, 64, rng, max_mode=8)
        t = rng.uniform(0.001, 1.0)
        g = heat_multiplier(f, t)
        grad = np.abs(grid_gradient(g)).max()
        ratios.append(grad * np.sqrt(t) / (np.abs(f.values).max() + 1e-300))
    fitted_c = max(ratios)
    assert np.isfinite(fitted_c)
    assert fitted_c < 5.0


def test_sobolev_embedding_constant(rng):
    # s > d/2 + 1 (d=1, s=2): ||f||_C1 <= C ||f||_s on band-limited fields
    w = SobolevWeight(2.0)
    ratios = []
    for _ in range(50):
        f = random_field(1, 64, rng, max_mode=6)
        coeffs = np.fft.ifft(f.values)
        K = 8
        idx = np.r_[np.arange(-K, 0) % 64, np.arange(0, K + 1)]
        c = coeffs[idx]
        k = np.r_[np.arange(-K, 0), np.arange(0, K + 1)]
        hs = np.sqrt(np.sum(np.abs(c) ** 2 * (1 + np.abs(k) ** 4)))
        c1 = np.abs(f.values).max() + np.abs(grid_gradient(f)).max()
        ratios.append(c1 / (hs + 1e-300))
    assert max(ratios) < 10.0


def test_expectation_band_limited_exact(rng):
    # the coarse-grid rectangle rule agrees with a 4096-point quadrature
    # because both integrands are band-limited below Nyquist
    m = random_measure(1, 5, rng)
    x = np.arange(64) / 64
    phi = GridField(1, np.cos(2 * np.pi * x) + 0.5 * np.sin(4 * np.pi * x))
    got = expectation(m, phi)
    dens = to_density(m, 4096).values
    xfine = np.arange(4096) / 4096
    phif = np.cos(2 * np.pi * xfine) + 0.5 * np.sin(4 * np.pi * xfine)
    np.testing.assert_allclose(got, (dens * phif).mean(), atol=1e-12)


def test_eval_modes_matches_grid(rng):
    m = random_measure(1, 4, rng)
    dens = to_density(m, 256)
    exact = eval_modes(m.coeffs, 4, np.arange(256) / 256)
    np.testing.assert_allclose(exact, dens.values, atol=1e-12)


def phase_matrix_eval(coeffs, cutoff, points):
    """Re sum_k c_k e^{-i2pi k.x} from the full (2K+1)^d x N phase matrix."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    d = pts.shape[1]
    k = mode_values(cutoff)
    acc = np.exp(-2j * np.pi * np.outer(k, pts[:, 0]))
    for i in range(1, d):
        acc = acc[..., np.newaxis, :] * np.exp(
            -2j * np.pi * np.outer(k, pts[:, i]))
    return np.tensordot(coeffs, acc, axes=(tuple(range(d)),) * 2).real


@pytest.mark.parametrize("K", [0, 1, 5, 10])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_eval_modes_matches_phase_matrix(d, K):
    rng = np.random.default_rng(100 * d + K)
    shape = (2 * K + 1,) * d
    # complex and not Hermitian: the real part of the full sum is tested
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    pts = rng.uniform(size=(40, d))
    pts[0] = 0.0
    pts[1] = 1.0 - 1e-12
    pts[2, 0] = 0.0
    got = eval_modes(c, K, pts)
    assert got.shape == (40,)
    err = np.abs(got - phase_matrix_eval(c, K, pts)).max()
    assert err <= 1e-13 * np.abs(c).sum()
    if d == 1:
        assert np.array_equal(eval_modes(c, K, pts[:, 0]), got)


# --- spectral-grid kernel ---------------------------------------------------

def test_spectral_grid_is_cached_per_grid():
    assert spectral_grid(2, 12) is spectral_grid(2, 12)
    assert spectral_grid(2, 12) is not spectral_grid(1, 12)


@pytest.mark.parametrize("dim", [1, 2])
def test_spectral_grid_wavenumbers_are_exact_integers(dim):
    # n = 49 is a size at which fftfreq(n, 1/n) is off the integers
    n, t = 49, 0.01
    grid = spectral_grid(dim, n)
    k = np.array([j if j <= n // 2 else j - n for j in range(n)], dtype=float)
    mesh = np.meshgrid(*([k] * dim), indexing="ij")
    np.testing.assert_array_equal(grid.ksq, sum(m ** 2 for m in mesh))
    for ax in range(dim):
        np.testing.assert_array_equal(grid.deriv[ax], -2j * np.pi * mesh[ax])
    # the grid heat multiplier equals the coefficient-space one bit for bit
    K = n // 2
    kk = np.meshgrid(*([mode_values(K).astype(float)] * dim), indexing="ij")
    coeff_heat = np.exp(-4.0 * np.pi ** 2 * sum(m ** 2 for m in kk) * t)
    np.testing.assert_array_equal(grid.extract(grid.heat(t), K), coeff_heat)


@pytest.mark.parametrize("dim", [1, 2])
def test_spectral_grid_batch_axes_pass_through(rng, dim):
    n, K = 12, 3
    grid = spectral_grid(dim, n)
    fields = [random_field(dim, n, rng) for _ in range(3)]
    stack = np.stack([f.values for f in fields])
    grads = grid.gradient(stack)
    assert grads.shape == (3, dim) + (n,) * dim
    coeffs = grid.extract(grid.coeffs(stack), K)
    assert coeffs.shape == (3,) + (2 * K + 1,) * dim
    back = grid.values(grid.embed(coeffs, K))
    for j, f in enumerate(fields):
        np.testing.assert_array_equal(grads[j], grid_gradient(f))
        np.testing.assert_allclose(back[j], f.values, atol=1e-12)
        m = random_measure(dim, K, rng)
        np.testing.assert_allclose(
            grid.extract(grid.coeffs(to_density(m, n).values), K),
            m.coeffs, atol=1e-12)


@pytest.mark.parametrize("n", [21, 32, 12])
@pytest.mark.parametrize("dim", [1, 2])
def test_grid_operators_match_fft_route(rng, dim, n):
    # each cached 1-D operator, applied on the trailing axes, against the
    # FFT route it is built from
    grid = spectral_grid(dim, n)
    K, t, B = 5, 0.003, 4
    v = rng.standard_normal((B,) + (n,) * dim)
    c = rng.standard_normal((B,) + (2 * K + 1,) * dim) \
        + 1j * rng.standard_normal((B,) + (2 * K + 1,) * dim)

    def close(got, want):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())

    D = grid.gradient_op()
    close(np.stack([grid.apply(v, D, axis=ax) for ax in range(dim)], axis=1),
          grid.gradient(v))
    close(grid.apply(v, grid.heat_op(t)),
          grid.values(grid.coeffs(v) * grid.heat(t)))
    close(grid.apply(c, grid.synthesis_op(K)).real,
          grid.values(grid.embed(c, K)))
    close(grid.apply(v, grid.analysis_op(K)), grid.extract(grid.coeffs(v), K))
    # built once per (n, t) or (n, K), whatever the grid's dim
    assert grid.heat_op(t) is spectral_grid(1, n).heat_op(t)
    assert grid.synthesis_op(K) is spectral_grid(1, n).synthesis_op(K)

    # a batch member's result does not depend on the batch around it
    for x, op, axis in [(v, D, dim - 1), (v, D, 0), (v, grid.heat_op(t), None),
                        (c, grid.synthesis_op(K), None),
                        (v, grid.analysis_op(K), None),
                        (v[:, None], grid.analysis_op(K), None)]:
        batch = grid.apply(x, op, axis=axis)
        for j in range(B):
            assert np.array_equal(batch[j], grid.apply(x[j], op, axis=axis))
            assert np.array_equal(batch[j],
                                  grid.apply(x[j:j + 1], op, axis=axis)[0])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_empirical_coeffs_batch_rows_equal_lone_calls(rng, d):
    pts = rng.uniform(-1.0, 2.0, size=(4, 3, 5, d))
    got = _empirical_coeffs(pts, 2)
    assert got.shape == (4, 3) + (5,) * d
    for idx in np.ndindex(4, 3):
        assert np.array_equal(got[idx], empirical(pts[idx], 2).coeffs)
