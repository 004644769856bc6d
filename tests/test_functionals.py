import numpy as np
import pytest

from functional_checks import (
    check_semiconcavity,
    constant_functional,
    intrinsic_gradient_at,
    project,
    projection_gradient_check,
)
from grid_oracles import circle_w1
from mfclab import acceptance_suites, harness
from mfclab.errors import NoDerivative, NotNormalized
from mfclab.functionals import (
    MeasureFunctional,
    cylindrical_functional,
    distance_cost_functional,
    laplacian_residual,
    linear_functional,
)
from mfclab.spectral import (
    GridField,
    SobolevWeight,
    empirical,
    grid_gradient,
    lebesgue,
    random_measure,
    spectral_grid,
    to_density,
)
from mfclab.transport import PointCloud



def cos_field(n=64, k=1):
    x = np.arange(n) / n
    return GridField(1, np.cos(2 * np.pi * k * x))


def make_square_functional(cutoff=6, n=64, k=1, sobolev=None):
    """Phi(m) = (m(phi))^2 with phi = cos(2 pi k x)."""
    phi = cos_field(n, k)
    return cylindrical_functional(
        [phi], outer=lambda v: v[0] ** 2,
        outer_grad=lambda v: np.array([2 * v[0]]),
        cutoff=cutoff, sobolev=sobolev,
        outer_grad_bound=2.0, outer_hess_bound=2.0,
    )


# --- flat derivative normalization and consistency ---------------------------

def test_flat_derivative_mean_zero(rng):
    sq = make_square_functional()
    m = random_measure(1, 6, rng)
    g = sq.derivative(m)
    assert abs(g.mean()) < 1e-10


def test_directional_derivative_consistency(rng):
    # (d/dlam) Phi(lam m' + (1-lam) m) at 0 matches the pairing of the flat
    # derivative against m' - m  [finite-difference oracle]
    sq = make_square_functional()
    m = random_measure(1, 6, rng)
    mp = random_measure(1, 6, rng)
    lam = 1e-5
    fd = (sq(m.mix(mp, lam)) - sq(m)) / lam
    g = sq.derivative(m)
    dens_diff = to_density(mp - m, g.resolution)
    pairing = float((g.values * dens_diff.values).mean())
    assert abs(fd - pairing) < 1e-4


def test_segment_integration_reproduces_increment(rng):
    # midpoint-rule integration of the derivative along the segment
    # reproduces Phi(m2) - Phi(m1)
    sq = make_square_functional()
    for _ in range(5):
        m1 = random_measure(1, 6, rng)
        m2 = random_measure(1, 6, rng)
        nq = 64
        total = 0.0
        for j in range(nq):
            lam = (j + 0.5) / nq
            g = sq.derivative(m1.mix(m2, lam))
            diff = to_density(m2 - m1, g.resolution)
            total += (g.values * diff.values).mean() / nq
        assert abs(total - (sq(m2) - sq(m1))) < 1e-10


# --- intrinsic gradient -------------------------------------------------------

def test_intrinsic_gradient_linear_functional():
    phi = cos_field()
    lin = linear_functional(phi, cutoff=6)
    m = lebesgue(1, 6)
    grad = grid_gradient(lin.derivative(m))
    x = np.arange(64) / 64
    np.testing.assert_allclose(grad[0], -2 * np.pi * np.sin(2 * np.pi * x),
                               atol=1e-10)


def test_intrinsic_gradient_constant_zero():
    c = constant_functional(1, 4, 3.14)
    m = lebesgue(1, 4)
    assert np.abs(grid_gradient(c.derivative(m))).max() < 1e-14


def test_intrinsic_gradient_matches_finite_difference(rng):
    # cylindrical Phi: D_m Phi along Dirac-perturbation directions matches
    # central finite differences of evaluate  [finite-difference oracle]
    sq = make_square_functional()
    m = random_measure(1, 6, rng)
    y = 0.3
    eps = 1e-6
    lam = 1e-4
    # derivative of lam -> Phi((1-lam) m + lam delta_y) equals
    # dPhi/dm(m, y) - int dPhi/dm dm; its y-derivative is D_m Phi(m, y)
    def flat_at(yy):
        dirac = empirical([yy], cutoff=6)
        up = sq(m.mix(dirac, lam))
        return (up - sq(m)) / lam

    fd = (flat_at(y + eps) - flat_at(y - eps)) / (2 * eps)
    exact = intrinsic_gradient_at(sq, m, np.array([[y]]))[0, 0]
    assert abs(fd - exact) / max(abs(exact), 1) < 1e-2


# --- projections --------------------------------------------------------------

def test_project_mass_functional():
    c = constant_functional(1, 4, 1.0)
    assert project(c, [0.1, 0.5, 0.9]) == 1.0


def test_project_linear_is_particle_mean(rng):
    phi = cos_field()
    lin = linear_functional(phi, cutoff=8)
    pts = rng.uniform(size=5)
    got = project(lin, pts)
    assert abs(got - np.mean(np.cos(2 * np.pi * pts))) < 1e-12


def test_project_permutation_invariant(rng):
    sq = make_square_functional()
    pts = rng.uniform(size=6)
    a = project(sq, pts)
    b = project(sq, pts[::-1].copy())
    assert abs(a - b) < 1e-14


def test_projection_gradient_linear_tight(rng):
    phi = cos_field()
    lin = linear_functional(phi, cutoff=8)
    pts = rng.uniform(size=4)
    disc = projection_gradient_check(lin, pts, i=1, step=1e-5)
    assert disc < 1e-8


def test_projection_gradient_second_order(rng):
    # discrepancy scales as O(step^2): slope 2 +- 0.3 under step halving
    sq = make_square_functional(cutoff=8)
    pts = rng.uniform(size=8)
    steps = np.array([2e-3, 1e-3, 5e-4, 2.5e-4])
    discs = np.array([
        max(projection_gradient_check(sq, pts, i=2, step=s), 1e-300)
        for s in steps
    ])
    slope = np.polyfit(np.log(steps), np.log(discs), 1)[0]
    assert abs(slope - 2.0) < 0.3


def test_projection_gradient_n1_linear():
    phi = cos_field()
    lin = linear_functional(phi, cutoff=8)
    disc = projection_gradient_check(lin, [0.37], i=0, step=1e-5)
    assert disc < 1e-8


def test_projection_gradient_requires_derivative():
    dc = distance_cost_functional(PointCloud(1, [[0.2]]), cutoff=4)
    with pytest.raises(NoDerivative):
        projection_gradient_check(dc, [0.1, 0.6], i=0)


# --- laplacian residual -------------------------------------------------------

def test_laplacian_residual_linear_zero(rng):
    phi = cos_field()
    lin = linear_functional(phi, cutoff=8)
    pts = rng.uniform(size=5)
    assert laplacian_residual(lin, pts, i=0) < 1e-3


def test_laplacian_residual_square_closed_form(rng):
    # for Phi(m) = (m(phi))^2 the correction is exactly 2 phi'(x_i)^2
    sq = make_square_functional(cutoff=8)
    pts = rng.uniform(size=8)
    i = 3
    got = laplacian_residual(sq, pts, i=i)
    expected = 2.0 * (2 * np.pi * np.sin(2 * np.pi * pts[i])) ** 2
    assert abs(got - expected) < 0.05 * max(expected, 1.0)


def test_laplacian_residual_cells_equal_closed_form():
    # criterion 9 at default size: Phi = (m(cos 2 pi x))^2 and x_0 = 0.37,
    # so every cell is 2 phi'(x_0)^2 = 8 pi^2 sin^2(2 pi 0.37), whatever N
    params = harness.EXPERIMENTS["project-check"].defaults
    cells, _, _ = acceptance_suites.projection_suite(params, seed=0)
    exact = 8 * np.pi ** 2 * np.sin(2 * np.pi * 0.37) ** 2
    assert abs(exact - 41.9572879559) < 1e-9
    assert [c["params"]["N"] for c in cells] == params["n_list"]
    for c in cells:
        assert abs(c["estimate"] - exact) <= 1e-10 * exact, c


def test_laplacian_residual_uniform_in_n(rng):
    sq = make_square_functional(cutoff=8)
    bound = 2.0 * (2 * np.pi) ** 2  # sup over x of 2 phi'(x)^2
    for n in [4, 16, 64, 256]:
        pts = rng.uniform(size=n)
        res = laplacian_residual(sq, pts, i=0)
        assert res <= 1.2 * bound


# --- semiconcavity ------------------------------------------------------------

def test_semiconcavity_linear_functional(rng):
    lin = linear_functional(cos_field(), cutoff=6)
    c = check_semiconcavity(lin, "d1", trials=20, rng=rng)
    assert c < 1e-9


def test_semiconcavity_square_bounded(rng):
    # Phi = (m(phi))^2 with Lip(phi) = 2 pi: analytic bound 2 (2 pi)^2
    sq = make_square_functional()
    c = check_semiconcavity(sq, "d1", trials=40, rng=rng)
    assert c <= 2.0 * (2 * np.pi) ** 2 * 1.05


def test_semiconcavity_concave_outer(rng):
    phi = cos_field()
    conc = cylindrical_functional(
        [phi], outer=lambda v: -v[0] ** 2,
        outer_grad=lambda v: np.array([-2 * v[0]]),
        cutoff=6,
    )
    c = check_semiconcavity(conc, "d1", trials=30, rng=rng)
    assert c < 1e-9


def test_semiconcavity_hs_metric(rng):
    sq = make_square_functional(sobolev=SobolevWeight(2.0))
    c = check_semiconcavity(sq, SobolevWeight(2.0), trials=30, rng=rng)
    assert np.isfinite(c)
    assert c <= sq.metadata.semiconcave_hs * 1.05


# --- distance cost ------------------------------------------------------------

def test_distance_cost_evaluates_and_is_lipschitz(rng):
    target = PointCloud(1, [[0.25]])
    dc = distance_cost_functional(target, cutoff=6)
    for _ in range(10):
        m1 = random_measure(1, 6, rng)
        m2 = random_measure(1, 6, rng)
        gap = abs(dc(m1) - dc(m2))
        assert gap <= circle_w1(m1, m2) + 1e-9


def _batch_functionals():
    w = SobolevWeight(2.0)
    lin = linear_functional(cos_field(64, 2), cutoff=4, sobolev=w)
    cyl = cylindrical_functional(
        [cos_field(64, 1), cos_field(64, 3)],
        outer=lambda v: np.sin(2.0 * v[0]) + 0.5 * v[1] ** 2,
        outer_grad=lambda v: np.array([2.0 * np.cos(2.0 * v[0]), v[1]]),
        cutoff=4)
    dc = distance_cost_functional(PointCloud(1, [[0.3], [0.8]]), cutoff=4,
                                  resolution=2048)
    return {"linear": lin, "cylindrical": cyl, "distance-cost": dc,
            "grid-route": _grid_route_square(cos_field(64, 1), cutoff=4)}


def _grid_route_square(phi, cutoff):
    """(m(phi))^2 with kernels that go through the grid: densities, the
    rectangle-rule pairing and the derivative's coefficients by FFT, each
    transform on the trailing axes of the batch."""
    grid = spectral_grid(1, phi.resolution)

    def pairing(c):
        dens = grid.values(grid.embed(c, cutoff))
        return (dens * phi.values).mean(axis=-1)

    def derivative_coeffs(c):
        field = (2 * pairing(c))[..., None] * (phi.values - phi.values.mean())
        return grid.extract(grid.coeffs(field), cutoff)

    return MeasureFunctional(1, cutoff, lambda c: pairing(c) ** 2,
                             derivative_coeffs, resolution=phi.resolution)


@pytest.mark.parametrize("name", ["linear", "cylindrical", "distance-cost",
                                  "grid-route"])
def test_fast_kernels_batch_equals_rows(rng, name):
    phi = _batch_functionals()[name]
    coeffs = np.stack([random_measure(1, 4, rng).coeffs for _ in range(5)])
    vals = phi.fast_value(coeffs)
    derivs = phi.fast_derivative_coeffs(coeffs)
    assert vals.shape == (5,) and derivs.shape == coeffs.shape
    row_vals = np.array([phi.fast_value(c) for c in coeffs])
    row_derivs = np.stack([phi.fast_derivative_coeffs(c) for c in coeffs])
    if name == "distance-cost":  # BLAS rounds a batch and a row differently
        np.testing.assert_allclose(vals, row_vals, rtol=0, atol=1e-14)
        np.testing.assert_allclose(derivs, row_derivs, rtol=0, atol=1e-14)
    else:
        assert np.array_equal(vals, row_vals)
        assert np.array_equal(derivs, row_derivs)


def test_distance_cost_phase_table_matches_fft(rng):
    # the zero-padded FFT evaluation the phase table replaced
    n, K = 2048, 5
    target = PointCloud(1, [[0.3], [0.71]], weights=[0.25, 0.75])
    dc = distance_cost_functional(target, cutoff=K, resolution=n)
    x = np.arange(n) / n
    order = np.argsort(target.points[:, 0])
    cw = np.concatenate([[0.0], np.cumsum(target.weights[order])])
    f_target = cw[np.searchsorted(target.points[order, 0], x, side="right")]
    k = np.arange(-K, K + 1)
    inv = np.zeros(2 * K + 1, dtype=complex)
    inv[k != 0] = 1.0 / (-2j * np.pi * k[k != 0])
    for _ in range(5):
        c = random_measure(1, K, rng).coeffs
        full = np.zeros(n, dtype=complex)
        full[k % n] = c * inv
        t = np.fft.fft(full).real
        g = (x + t - t[0]) - f_target
        sign = np.sign(g - np.median(g))
        value = np.mean(np.abs(g - np.median(g)))
        deriv = np.conj(inv * (np.fft.fft(sign)[k % n] / n - sign.mean()))
        assert abs(dc.fast_value(c) - value) <= 1e-12
        np.testing.assert_allclose(dc.fast_derivative_coeffs(c), deriv,
                                   rtol=0, atol=1e-12)


def test_derivative_mean_violation_raises_not_normalized():
    # derivative coefficients of the field 1 + cos(2 pi x): mass mode 1
    hat = np.zeros(9, dtype=complex)
    hat[[3, 4, 5]] = 0.5, 1.0, 0.5
    shifted = MeasureFunctional(1, 4, lambda c: 0.0,
                                lambda c: np.broadcast_to(hat, np.shape(c)))
    with pytest.raises(NotNormalized):
        shifted.derivative(lebesgue(1, 4))
    with pytest.raises(NotNormalized):
        intrinsic_gradient_at(shifted, lebesgue(1, 4), np.array([0.3]))
