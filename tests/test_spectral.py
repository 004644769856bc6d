import numpy as np
import pytest

from mfclab.errors import (
    DimensionMismatch,
    EmptyPointSet,
    NotNormalized,
    ResolutionTooLow,
)
from mfclab.spectral import (
    GridField,
    SpectralMeasure,
    SpectralVector,
    _complex_layout,
    _empirical_coeffs,
    _real_layout,
    _sobolev_weights,
    dual_embed,
    empirical,
    eval_modes,
    hs_inner,
    hs_norm,
    lebesgue,
    mode_values,
    random_measure,
    random_measure_coeffs,
    spectral_grid,
    to_density,
)

from conftest import random_field
from grid_oracles import (
    expectation,
    from_density,
    grid_gradient,
    heat_multiplier,
    lone_random_measure,
)


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
    f = GridField(np.ones(n))
    m = from_density(f, cutoff=4)
    expected = np.zeros(9, dtype=complex)
    expected[4] = 1.0
    np.testing.assert_allclose(m.coeffs, expected, atol=1e-14)


def test_from_density_cosine_matches_quadrature_oracle():
    n = 128
    x = np.arange(n) / n
    f = GridField(1.0 + np.cos(2 * np.pi * x))
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
    f = GridField(1.0 + 0.5 * np.sin(2 * np.pi * x))
    m = from_density(f, cutoff=2)
    oracle = quadrature_coeff(lambda t: 1.0 + 0.5 * np.sin(2 * np.pi * t), 1)
    np.testing.assert_allclose(oracle, 0.25j, atol=1e-9)
    np.testing.assert_allclose(m.coeffs[2 + 1], 0.25j, atol=1e-12)
    np.testing.assert_allclose(m.coeffs[2 - 1], -0.25j, atol=1e-12)


def test_from_density_rejects_negative_and_unnormalized():
    n = 32
    x = np.arange(n) / n
    with pytest.raises(ValueError, match="not a probability density"):
        from_density(GridField(0.5 + np.cos(2 * np.pi * x)), cutoff=2)
    with pytest.raises(ValueError, match="not a probability density"):
        from_density(GridField(np.full(n, 1.01)), cutoff=2)


# --- to_density -------------------------------------------------------------

def test_to_density_lebesgue_is_constant():
    m = lebesgue(3)
    g = to_density(m, 16)
    np.testing.assert_allclose(g.values, 1.0, atol=1e-14)


def test_to_density_single_mode_direct_evaluation():
    c = np.zeros(5, dtype=complex)
    c[2] = 1.0
    c[1] = 0.5
    c[3] = 0.5
    m = SpectralMeasure(2, c)
    g = to_density(m, 32)
    x = np.arange(32) / 32
    np.testing.assert_allclose(g.values, 1.0 + np.cos(2 * np.pi * x), atol=1e-12)


def test_round_trip_random_measure(rng):
    m = random_measure(6, rng)
    g = to_density(m, 64)
    m2 = from_density(g, cutoff=6)
    np.testing.assert_allclose(m2.coeffs, m.coeffs, atol=1e-12)


@pytest.mark.parametrize("K", [1, 2, 3, 4, 6, 10])
def test_random_measure_batch_matches_lone_draws(K):
    # row i has the bits of the i-th lone draw, and the stream ends where
    # the lone draws leave it; roughness is one value or one per row
    for seed in range(8):
        rough = np.random.default_rng(100 + seed).uniform(0.2, 0.95, 9)
        for roughness in (rough, 0.5):
            want_rng, got_rng = (np.random.default_rng(seed),
                                 np.random.default_rng(seed))
            want = [lone_random_measure(K, want_rng, r).coeffs
                    for r in np.broadcast_to(roughness, (9,))]
            got = random_measure_coeffs(K, got_rng, 9, roughness)
            assert got.shape == (9, 2 * K + 1)
            assert np.array_equal(got, want)
            assert (got_rng.bit_generator.state
                    == want_rng.bit_generator.state)
    one_rng, lone_rng = np.random.default_rng(1), np.random.default_rng(1)
    for _ in range(5):
        assert np.array_equal(random_measure(K, one_rng, 0.3).coeffs,
                              lone_random_measure(K, lone_rng, 0.3).coeffs)


def test_to_density_resolution_too_low():
    with pytest.raises(ResolutionTooLow):
        to_density(lebesgue(8), 8)


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


# --- hs_inner / hs_norm -----------------------------------------------------

def test_hs_norm_lebesgue_is_one():
    assert abs(hs_norm(lebesgue(8)) - 1.0) < 1e-14


def test_hs_norm_dirac_k1_s2():
    m = empirical([0.0], cutoff=1)
    val = hs_inner(m, m)
    assert abs(val - 2.0) < 1e-14  # 1 + 2*(1/2)


def test_sobolev_weights_shared_and_read_only():
    a = _sobolev_weights(3)
    assert _sobolev_weights(3) is a
    assert a.shape == (7,) and a[3] == 1.0 and a[5] == 1.0 + 2.0 ** 4
    with pytest.raises(ValueError):
        a[0] = 0.0


def test_hs_norm_dirac_difference_spot_value():
    s, K = 2.0, 8
    d0 = empirical([0.0], cutoff=K)
    dh = empirical([0.5], cutoff=K)
    got = hs_norm(d0 - dh)
    # oracle: direct Fourier sum
    diff = d0.coeffs - dh.coeffs
    expected = np.sqrt(direct_hs_inner(diff, diff, K, s))
    np.testing.assert_allclose(got, expected, atol=1e-12)
    # symmetry in (x, y) and vanishing as x -> y
    got_sym = hs_norm(dh - d0)
    np.testing.assert_allclose(got, got_sym, atol=1e-14)
    close = hs_norm(d0 - empirical([1e-4], cutoff=K))
    assert close < 1e-2 * got


def test_hs_inner_positive_definite(rng):
    for _ in range(10):
        m1 = random_measure(6, rng)
        m2 = random_measure(6, rng)
        v = m1 - m2
        if np.max(np.abs(v.coeffs)) > 1e-12:
            assert hs_inner(v, v) > 0


def test_hs_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        hs_inner(lebesgue(4), lebesgue(5))


# --- dual maps --------------------------------------------------------------

def test_dual_map_single_mode_halves():
    # d=1, s=2: q with q_1 = 1 maps to coefficient 1/(1 + 1) = 1/2
    c = np.zeros(9, dtype=complex)
    c[4 + 1] = 1.0
    c[4 - 1] = 1.0
    q = SpectralVector(4, c)
    dc = q.coeffs / _sobolev_weights(4)
    np.testing.assert_allclose(dc[4 + 1], 0.5, atol=1e-14)


def test_duality_identity_random_pairs(rng):
    # pairing of q* against p equals <q, p>_{-s}
    for _ in range(10):
        q = random_measure(6, rng) - random_measure(6, rng)
        p = random_measure(6, rng)
        qstar = q.coeffs / _sobolev_weights(6)
        pairing = np.sum(qstar * np.conj(p.coeffs)).real
        np.testing.assert_allclose(pairing, hs_inner(q, p), atol=1e-12)


def test_dual_embed_inverts_dual_coeffs(rng):
    q = random_measure(5, rng) - lebesgue(5)
    back = dual_embed(q.coeffs / _sobolev_weights(5), 5)
    np.testing.assert_allclose(back.coeffs, q.coeffs, atol=1e-13)


# --- heat multiplier --------------------------------------------------------

def test_heat_constant_unchanged():
    m = lebesgue(3)
    out = heat_multiplier(m, 0.7)
    np.testing.assert_allclose(out.coeffs, m.coeffs, atol=1e-15)


def test_heat_zero_time_identity(rng):
    m = random_measure(5, rng)
    out = heat_multiplier(m, 0.0)
    np.testing.assert_allclose(out.coeffs, m.coeffs, atol=1e-15)


def test_heat_eigenvalue_oracle():
    # mode k=1 at t = 1/(4 pi^2) scales by exactly e^{-1}
    c = np.zeros(5, dtype=complex)
    c[2] = 1.0
    c[2 + 1] = 0.3
    c[2 - 1] = 0.3
    m = SpectralMeasure(2, c)
    t = 1.0 / (4.0 * np.pi ** 2)
    out = heat_multiplier(m, t)
    np.testing.assert_allclose(out.coeffs[2 + 1], 0.3 * np.exp(-1.0), atol=1e-15)
    assert out.coeffs[2] == 1.0


def test_heat_gridfield_matches_spectral(rng):
    m = random_measure(4, rng)
    g = to_density(m, 32)
    out_g = heat_multiplier(g, 0.05)
    out_m = to_density(heat_multiplier(m, 0.05), 32)
    np.testing.assert_allclose(out_g.values, out_m.values, atol=1e-12)


# --- invariants and properties ----------------------------------------------

def test_hermitian_and_mass_invariants_after_ops(rng):
    m = random_measure(3, rng)
    for obj in [heat_multiplier(m, 0.1), m.mix(lebesgue(3), 0.3)]:
        c = obj.coeffs
        assert c[3] == 1.0
        flipped = np.conj(c[::-1])
        np.testing.assert_allclose(c, flipped, atol=0)


def test_measure_checks_mass_and_projects_hermitian(rng):
    # coefficients from outside: c_0 off 1 is refused, and a non-Hermitian
    # perturbation is projected away
    m = random_measure(4, rng)
    heavy = m.coeffs.copy()
    heavy[4] = 1.1
    with pytest.raises(NotNormalized):
        SpectralMeasure(4, heavy)
    noise = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    noise[4] = 0.0
    noisy = m.coeffs + 1e-3 * noise
    projected = 0.5 * (noisy + np.conj(noisy[::-1]))
    assert np.array_equal(SpectralMeasure(4, noisy).coeffs,
                          SpectralMeasure(4, projected).coeffs)


def test_smoothing_estimate_single_constant(rng):
    # || grad P_t f ||_inf <= C t^{-1/2} ||f||_inf with one C over 100 trials
    ratios = []
    for _ in range(100):
        f = random_field(64, rng, max_mode=8)
        t = rng.uniform(0.001, 1.0)
        g = heat_multiplier(f, t)
        grad = np.abs(grid_gradient(g)).max()
        ratios.append(grad * np.sqrt(t) / (np.abs(f.values).max() + 1e-300))
    fitted_c = max(ratios)
    assert np.isfinite(fitted_c)
    assert fitted_c < 5.0


def test_sobolev_embedding_constant(rng):
    # s > d/2 + 1 (d=1, s=2): ||f||_C1 <= C ||f||_s on band-limited fields
    ratios = []
    for _ in range(50):
        f = random_field(64, rng, max_mode=6)
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
    m = random_measure(5, rng)
    x = np.arange(64) / 64
    phi = GridField(np.cos(2 * np.pi * x) + 0.5 * np.sin(4 * np.pi * x))
    got = expectation(m, phi)
    dens = to_density(m, 4096).values
    xfine = np.arange(4096) / 4096
    phif = np.cos(2 * np.pi * xfine) + 0.5 * np.sin(4 * np.pi * xfine)
    np.testing.assert_allclose(got, (dens * phif).mean(), atol=1e-12)


def test_eval_modes_matches_grid(rng):
    m = random_measure(4, rng)
    dens = to_density(m, 256)
    exact = eval_modes(m.coeffs, 4, np.arange(256) / 256)
    np.testing.assert_allclose(exact, dens.values, atol=1e-12)


def phase_matrix_eval(coeffs, cutoff, points):
    """Re sum_k c_k e^{-i2pi k x} from the full (2K+1) x N phase matrix."""
    k = mode_values(cutoff)
    return (coeffs @ np.exp(-2j * np.pi * np.outer(k, points))).real


@pytest.mark.parametrize("K", [0, 1, 5, 10])
def test_eval_modes_matches_phase_matrix(K):
    rng = np.random.default_rng(100 + K)
    # complex and not Hermitian: the real part of the full sum is tested
    c = rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1)
    pts = rng.uniform(size=40)
    pts[0] = 0.0
    pts[1] = 1.0 - 1e-12
    got = eval_modes(c, K, pts)
    assert got.shape == (40,)
    err = np.abs(got - phase_matrix_eval(c, K, pts)).max()
    assert err <= 1e-13 * np.abs(c).sum()


# --- spectral-grid kernel ---------------------------------------------------

def test_spectral_grid_is_cached_per_grid():
    assert spectral_grid(12) is spectral_grid(12)
    assert spectral_grid(12) is not spectral_grid(13)


def test_spectral_grid_wavenumbers_are_exact_integers():
    # n = 49 is a size at which fftfreq(n, 1/n) is off the integers
    n, t = 49, 0.01
    grid = spectral_grid(n)
    k = np.array([j if j <= n // 2 else j - n for j in range(n)], dtype=float)
    np.testing.assert_array_equal(grid.ksq, k ** 2)
    np.testing.assert_array_equal(grid.deriv, -2j * np.pi * k)
    # the grid heat multiplier equals the coefficient-space one bit for bit
    K = n // 2
    coeff_heat = np.exp(-4.0 * np.pi ** 2 * mode_values(K).astype(float) ** 2
                        * t)
    np.testing.assert_array_equal(grid.extract(grid.heat(t), K), coeff_heat)


def test_spectral_grid_batch_axes_pass_through(rng):
    n, K = 12, 3
    grid = spectral_grid(n)
    fields = [random_field(n, rng) for _ in range(3)]
    stack = np.stack([f.values for f in fields])
    grads = grid.gradient(stack)
    assert grads.shape == (3, n)
    coeffs = grid.extract(grid.coeffs(stack), K)
    assert coeffs.shape == (3, 2 * K + 1)
    back = grid.values(grid.embed(coeffs, K))
    for j, f in enumerate(fields):
        np.testing.assert_array_equal(grads[j], grid_gradient(f))
        np.testing.assert_allclose(back[j], f.values, atol=1e-12)
        m = random_measure(K, rng)
        np.testing.assert_allclose(
            grid.extract(grid.coeffs(to_density(m, n).values), K),
            m.coeffs, atol=1e-12)


@pytest.mark.parametrize("n", [21, 32, 12])
def test_grid_operators_match_fft_route(rng, n):
    # each cached operator, applied on the last axis, against the FFT route
    # it is built from; synthesis and analysis act on the real layout
    # r = (Re c_0..c_K, Im c_1..c_K) of Hermitian coefficients
    grid = spectral_grid(n)
    K, t, B = 5, 0.003, 4
    v = rng.standard_normal((B, n))
    c = np.stack([SpectralVector(K, rng.standard_normal(2 * K + 1)
                                 + 1j * rng.standard_normal(2 * K + 1)).coeffs
                  for _ in range(B)])
    r = np.concatenate([c[:, K:].real, c[:, K + 1:].imag], axis=-1)

    def close(got, want):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())

    D = grid.gradient_op()
    synth, analysis = grid.synthesis_op(K), grid.analysis_op(K)
    for op in (D, grid.heat_op(t), synth, analysis):
        assert op.dtype == float and not op.flags.writeable
    assert synth.shape == (2 * K + 1, n) and analysis.shape == (n, 2 * K + 1)
    close(grid.apply(v, D), grid.gradient(v))
    close(grid.apply(v, grid.heat_op(t)),
          grid.values(grid.coeffs(v) * grid.heat(t)))
    close(grid.apply(r, synth), grid.values(grid.embed(c, K)))
    full = grid.extract(grid.coeffs(v), K)
    close(grid.apply(v, analysis),
          np.concatenate([full[:, K:].real, full[:, K + 1:].imag], axis=-1))
    # analysis inverts synthesis on the band |k| <= K
    close(grid.apply(grid.apply(r, synth), analysis), r)
    # built once per (n, t) or (n, K)
    assert grid.heat_op(t) is spectral_grid(n).heat_op(t)
    assert synth is spectral_grid(n).synthesis_op(K)
    assert analysis is spectral_grid(n).analysis_op(K)

    # a batch member's result does not depend on the batch around it
    for x, op in [(v, D), (v, grid.heat_op(t)), (r, synth), (v, analysis),
                  (v[:, None], analysis)]:
        batch = grid.apply(x, op)
        for j in range(B):
            assert np.array_equal(batch[j], grid.apply(x[j], op))
            assert np.array_equal(batch[j], grid.apply(x[j:j + 1], op)[0])


def test_real_layout_round_trip(rng):
    # Hermitian coefficients with real c_0 go to (Re c_0..c_K, Im c_1..c_K)
    # and back bit for bit; the way back makes c_{-k} = conj(c_k) exactly
    K = 4
    c = np.stack([random_measure(K, rng).coeffs for _ in range(3)])
    r = _real_layout(c)
    assert r.dtype == float and r.shape == c.shape
    np.testing.assert_array_equal(r[:, :K + 1], c[:, K:].real)
    np.testing.assert_array_equal(r[:, K + 1:], c[:, K + 1:].imag)
    back = _complex_layout(r)
    assert np.array_equal(back, c)
    assert np.array_equal(back, np.conj(back[:, ::-1]))
    assert np.array_equal(_complex_layout(r[1]), back[1])


def test_empirical_coeffs_batch_rows_equal_lone_calls(rng):
    pts = rng.uniform(-1.0, 2.0, size=(4, 3, 5))
    got = _empirical_coeffs(pts, 2)
    assert got.shape == (4, 3, 5)
    for idx in np.ndindex(4, 3):
        assert np.array_equal(got[idx], empirical(pts[idx], 2).coeffs)
