import numpy as np
import pytest

from functional_checks import constant_functional
from grid_oracles import cylindrical_route, mollify_route, shift_route
from mfclab.errors import (
    ContractionViolated,
    EtaOutOfRange,
    LambdaOutOfRange,
    LowerBoundViolated,
    RankTooSmall,
)
from mfclab import regularize
from mfclab.functionals import (
    MeasureFunctional,
    cylindrical_functional,
    linear_functional,
)
from mfclab.regularize import (
    BumpKernel,
    FejerKernel,
    fejer_mollify,
    fixed_point_maximizer,
    lambda_shift,
    mollify_measure_arg,
    simplex_grid,
    simplex_project,
    sup_convolve,
)
from mfclab.spectral import (
    GridField,
    SobolevWeight,
    SpectralMeasure,
    SpectralVector,
    dual_embed,
    empirical,
    grid_nodes,
    hs_norm,
    lebesgue,
    mode_values,
    random_measure,
    to_density,
)
from mfclab.transport import w1_circle


def cosine_phi(n=64, k=1, amp=1.0):
    x = np.arange(n) / n
    return GridField(1, amp * np.cos(2 * np.pi * k * x))


def square_functional(cutoff=4, k=1, sobolev=None):
    phi = cosine_phi(64, k)
    return cylindrical_functional(
        [phi], outer=lambda v: v[0] ** 2,
        outer_grad=lambda v: np.array([2 * v[0]]),
        cutoff=cutoff, sobolev=sobolev,
        outer_grad_bound=2.0, outer_hess_bound=2.0,
    )


# --- Fejer kernel -------------------------------------------------------------

def test_fejer_coefficients():
    ker = FejerKernel(rank=4, dim=1)
    c = ker.coefficients(cutoff=6)
    assert c[6] == 1.0  # k = 0
    assert abs(c[6 + 2] - 0.5) < 1e-15
    assert c[6 + 4] == 0.0 and c[6 + 5] == 0.0
    assert np.all(c >= 0) and np.all(c <= 1)


def test_fejer_density_nonnegative():
    ker = FejerKernel(rank=5, dim=1)
    c = ker.coefficients(cutoff=8)
    vec = SpectralVector(1, 8, c.astype(complex))
    dens = to_density(vec, 512)
    assert dens.values.min() >= -1e-10


def test_fejer_rank_too_small():
    with pytest.raises(RankTooSmall):
        FejerKernel(rank=0, dim=1)


# --- fejer_mollify ------------------------------------------------------------

def test_fejer_mollify_constant():
    c = constant_functional(1, 4, 2.5)
    out = fejer_mollify(c, rank=3, eta=0.2, mc_nodes=16)
    m = lebesgue(1, 4)
    assert abs(out(m) - 2.5) < 1e-12


def test_fejer_mollify_eta_range():
    c = constant_functional(1, 4, 1.0)
    with pytest.raises(EtaOutOfRange):
        fejer_mollify(c, rank=3, eta=1.5)


def test_fejer_mollify_close_to_original(rng):
    # |Phi_eta_n(m) - Phi(m)| <= c1 (d_1(m * fejer, m) + c_d eta) with
    # c_d <= 1/2 on the circle (d_1 is bounded by the diameter)
    phi = cosine_phi()
    lin = linear_functional(phi, cutoff=8)
    c1 = lin.metadata.lip_d1
    out = fejer_mollify(lin, rank=6, eta=0.05, mc_nodes=64)
    ker = FejerKernel(rank=6, dim=1)
    for _ in range(5):
        m = random_measure(1, 8, rng)
        gap = abs(out(m) - lin(m))
        budget = c1 * (w1_circle(ker.convolve(m), m) + 0.5 * 0.05)
        assert gap <= budget + 1e-10


def test_fejer_mollify_preserves_d1_lipschitz(rng):
    phi = cosine_phi()
    lin = linear_functional(phi, cutoff=6)
    c1 = lin.metadata.lip_d1
    out = fejer_mollify(lin, rank=4, eta=0.1, mc_nodes=32)
    worst = 0.0
    for _ in range(10):
        m1 = random_measure(1, 6, rng)
        m2 = random_measure(1, 6, rng)
        d = w1_circle(m1, m2)
        if d > 1e-9:
            worst = max(worst, abs(out(m1) - out(m2)) / d)
    assert worst <= c1 * 1.05


def test_fejer_mollify_derivative_consistency(rng):
    # the finite-difference-in-Fourier derivative must reproduce directional
    # derivatives of the mollified functional  [finite-difference oracle]
    sq = square_functional(cutoff=4)
    out = fejer_mollify(sq, rank=3, eta=0.2, mc_nodes=32)
    m = random_measure(1, 4, rng)
    mp = random_measure(1, 4, rng)
    lam = 1e-4
    fd = (out(m.mix(mp, lam)) - out(m)) / lam
    g = out.derivative(m)
    diff = to_density(mp - m, g.resolution)
    pairing = float((g.values * diff.values).mean())
    assert abs(fd - pairing) < 5e-3 * max(1.0, abs(pairing))


# --- mollify_measure_arg ------------------------------------------------------

def test_mollify_linear_derivative_formula(rng):
    phi = cosine_phi()
    lin = linear_functional(phi, cutoff=8)
    delta = 0.2
    out = mollify_measure_arg(lin, delta)
    m = random_measure(1, 8, rng)
    g = out.derivative(m)
    # closed form: phi * rho_delta minus its mean; spectral multiplication
    mult = BumpKernel().multiplier(delta, 1, 8)
    k = mode_values(8)
    phihat = np.zeros(17, dtype=complex)
    phihat[8 + 1] = 0.5
    phihat[8 - 1] = 0.5
    expected_coeffs = phihat * mult
    vec = SpectralVector(1, 8, expected_coeffs)
    expected = to_density(vec, g.resolution)
    np.testing.assert_allclose(g.values, expected.values, atol=1e-10)


def test_mollify_value_linear_in_delta(rng):
    # |Phi_delta - Phi| <= c1 Gamma delta: one constant across deltas
    phi = cosine_phi()
    lin = linear_functional(phi, cutoff=8)
    ms = [random_measure(1, 8, rng) for _ in range(5)]
    ratios = []
    for delta in [0.4, 0.2, 0.1, 0.05]:
        out = mollify_measure_arg(lin, delta)
        for m in ms:
            ratios.append(abs(out(m) - lin(m)) / delta)
    assert max(ratios) < 50 * lin.metadata.lip_d1


def test_mollify_hs_lipschitz_scaling(rng):
    # fitted H^{-s} Lipschitz constant of Phi_delta grows like delta^{-(s-1)}
    # when fitted over the extremal unit-d1-Lipschitz family: the single-mode
    # functionals m -> m(sin(2 pi k x)/(2 pi k)). (A fixed distance-cost
    # target cannot realize the rate: its Kantorovich potential has 1/k^2
    # coefficient decay, which cancels the weight growth at s = 2.)
    s = 2.0
    w = SobolevWeight(s)
    K = 8
    n = 64
    x = np.arange(n) / n
    family = []
    for k in range(1, K + 1):
        fk = GridField(1, np.sin(2 * np.pi * k * x) / (2 * np.pi * k))
        family.append((k, linear_functional(fk, cutoff=K)))
    base = random_measure(1, K, rng)
    deltas = np.array([0.5, 0.25, 0.125])
    fitted = []
    for delta in deltas:
        worst = 0.0
        for k, lin in family:
            out = mollify_measure_arg(lin, delta)
            c = np.zeros(2 * K + 1, dtype=complex)
            t = 0.02
            c[K + k] = t * 0.5j  # sine-phase perturbation, aligned with f_k
            c[K - k] = -t * 0.5j
            m1 = SpectralMeasure(1, K, base.coeffs + c)
            m2 = SpectralMeasure(1, K, base.coeffs - c)
            num = abs(out(m1) - out(m2))
            den = hs_norm(m1 - m2, w)
            worst = max(worst, num / den)
        fitted.append(worst)
    slope = np.polyfit(np.log(deltas), np.log(fitted), 1)[0]
    assert abs(slope - (-(s - 1.0))) < 0.3


# --- lambda shift -------------------------------------------------------------

def test_lambda_shift_linear_identity(rng):
    phi = cosine_phi()
    lin = linear_functional(phi, cutoff=6)
    lam = 0.3
    out = lambda_shift(lin, lam)
    m = random_measure(1, 6, rng)
    leb = lebesgue(1, 6)
    expected = lin(m) + lam * (lin(leb) - lin(m))
    assert abs(out(m) - expected) < 1e-12


def test_lambda_shift_range():
    lin = linear_functional(cosine_phi(), cutoff=4)
    with pytest.raises(LambdaOutOfRange):
        lambda_shift(lin, 1.0)


def test_lambda_shift_small_lambda_bound(rng):
    # |Phi_lam - Phi| <= C lam for an H^{-s}-Lipschitz functional
    w = SobolevWeight(2.0)
    lin = linear_functional(cosine_phi(), cutoff=6, sobolev=w)
    cl = lin.metadata.lip_hs
    for lam in [0.05, 0.1, 0.2]:
        out = lambda_shift(lin, lam)
        for _ in range(5):
            m = random_measure(1, 6, rng)
            gap = abs(out(m) - lin(m))
            bound = cl * lam * hs_norm(m - lebesgue(1, 6), w)
            assert gap <= bound + 1e-10


@pytest.mark.parametrize("wrap", ["mollify", "shift"])
def test_mollify_and_shift_kernels_match_grid_routes(rng, wrap):
    # the coefficient kernels agree with the grid-route oracles, and a
    # batch row gets the bits of a lone call
    K = 4
    inner = square_functional(cutoff=K)
    inner_route = cylindrical_route([cosine_phi(64, 1)],
                                    outer=lambda v: v[0] ** 2,
                                    outer_grad=lambda v: np.array([2 * v[0]]))
    if wrap == "mollify":
        out = mollify_measure_arg(inner, 0.3)
        route = mollify_route(inner_route, 0.3, 1, K)
    else:
        out = lambda_shift(inner, 0.2)
        route = shift_route(inner_route, 0.2, 1, K)
    ms = [random_measure(1, K, rng) for _ in range(3)]
    batch = np.stack([m.coeffs for m in ms])
    vals = out.fast_value(batch)
    derivs = out.fast_derivative_coeffs(batch)
    for i, m in enumerate(ms):
        assert vals[i] == out.fast_value(m.coeffs)
        assert np.array_equal(derivs[i], out.fast_derivative_coeffs(m.coeffs))
        assert abs(vals[i] - route.value(m)) <= 1e-13
        np.testing.assert_allclose(out.derivative(m).values,
                                   route.derivative(m).values,
                                   rtol=0, atol=1e-13)


# --- sup-convolution ----------------------------------------------------------

def test_supconv_constant():
    c = constant_functional(1, 3, 1.7)
    q = lebesgue(1, 3)
    w = SobolevWeight(2.0)
    res = sup_convolve(c, q, eps=0.1, weight=w)
    assert abs(res.value - 1.7) < 1e-8
    assert hs_norm(res.maximizer - q, w) < 1e-4
    assert hs_norm(res.gradient, w) < 1e-3


def test_supconv_linear_closed_form(rng):
    # linear functional: maximizer q + eps * (phi - mean)^dual and value
    # Phi(q) + (eps/2) |phi - mean|_s^2, when the optimum stays admissible
    K = 4
    w = SobolevWeight(2.0)
    phi = cosine_phi(64, 1, amp=0.4)
    lin = linear_functional(phi, cutoff=K, sobolev=w)
    q = random_measure(1, K, rng, roughness=0.5)
    eps = 0.05
    res = sup_convolve(lin, q, eps, w, solver="gradient_ascent")
    phihat = np.zeros(2 * K + 1, dtype=complex)
    phihat[K + 1] = 0.2
    phihat[K - 1] = 0.2
    lift = dual_embed(phihat, 1, K, w)
    expected_val = lin(q) + 0.5 * eps * lin.metadata.lip_hs ** 2
    expected_max = SpectralMeasure(1, K, q.coeffs + eps * lift.coeffs)
    assert abs(res.value - expected_val) < 1e-6
    assert hs_norm(res.maximizer - expected_max, w) < 1e-3


def two_mode_linear(K, w):
    x = np.arange(64) / 64
    phi = GridField(1, 0.35 * np.cos(2 * np.pi * x)
                    + 0.15 * np.sin(4 * np.pi * x))
    return linear_functional(phi, cutoff=K, sobolev=w)


@pytest.mark.parametrize("K", [3, 8])
def test_supconv_linear_oracle_on_grid_atoms(rng, K):
    # 2K+1 grid-node atoms span every band-limited measure with positive
    # nodal weights, so an interior maximizer is q + eps * ell^dual:
    # J* = Phi(q) + (eps/2) |ell|_s^2 and |m_eps - q|_{-s} = eps |ell|_s
    w = SobolevWeight(2.0)
    lin = two_mode_linear(K, w)
    ell = lin.metadata.lip_hs
    qs = [random_measure(1, K, rng) for _ in range(3)]
    for eps in [0.02, 0.05]:
        for q, res in zip(qs, regularize.sup_convolve_batch(
                lin, qs, eps, w)):
            # interior: every nodal weight is positive
            assert to_density(res.maximizer, 2 * K + 1).values.min() > 0
            want = lin(q) + 0.5 * eps * ell ** 2
            assert abs(res.value - want) <= 1e-12 * abs(want)
            dist = hs_norm(res.maximizer - q, w)
            assert abs(dist - eps * ell) <= 1e-12 * eps * ell


def test_supconv_residual_is_the_raw_gradient_rate(rng):
    # converged: the feasible ascent rate along the gradient vanishes
    K = 3
    w = SobolevWeight(2.0)
    q = random_measure(1, K, rng)
    assert sup_convolve(two_mode_linear(K, w), q, 0.05, w).residual < 1e-10
    # at an interior point the rate along the gradient g is |g - mean g|^2,
    # not the rate along the Newton direction
    sq = square_functional(cutoff=K)
    atoms = grid_nodes(1, 2 * K + 1)
    obj = regularize._SimplexObjective(sq, q.coeffs[None], [0.05], w, atoms)
    p = rng.dirichlet(np.ones(len(atoms)))
    g = obj.gradient(p, 0)
    rate = np.sum((g - g.mean()) ** 2)
    assert abs(obj.direction(p, 0) @ g - rate) > 0.1 * rate
    res = regularize._kkt_residual(obj, 0, p, obj.value(p, 0))
    assert abs(res - rate) <= 1e-4 * rate


def test_supconv_sandwich_and_maximizer_bound(rng):
    # sandwich and maximizer bounds: 0 <= Phi_eps - Phi <= 2 C_L^2 eps and
    # |m_eps - q|_{-s} <= 2 C_L eps
    K = 4
    w = SobolevWeight(2.0)
    lin = linear_functional(cosine_phi(64, 1, amp=0.4), cutoff=K, sobolev=w)
    cl = lin.metadata.lip_hs
    for eps in [0.02, 0.1]:
        for _ in range(3):
            q = random_measure(1, K, rng)
            res = sup_convolve(lin, q, eps, w)
            gap = res.value - lin(q)
            assert gap >= -1e-9
            assert gap <= 2 * cl ** 2 * eps * 1.05
            assert hs_norm(res.maximizer - q, w) <= 2 * cl * eps * 1.05


def test_supconv_brute_force_agreement(rng):
    # ascent matches exhaustive search + polish on the 5 grid atoms
    K = 2
    w = SobolevWeight(2.0)
    sq = square_functional(cutoff=K)
    q = random_measure(1, K, rng)
    eps = 0.1
    res_a = sup_convolve(sq, q, eps, w, solver="gradient_ascent")
    res_b = sup_convolve(sq, q, eps, w, solver="brute_force",
                         brute_steps=25, polish=True)
    assert abs(res_a.value - res_b.value) < 1e-6


def test_supconv_eps_monotone(rng):
    K = 3
    w = SobolevWeight(2.0)
    sq = square_functional(cutoff=K)
    q = random_measure(1, K, rng)
    prev_val = None
    prev_weights = ()
    for eps in [0.02, 0.05, 0.1, 0.2]:
        res = sup_convolve(sq, q, eps, w, warm_starts=prev_weights)
        dens = to_density(res.maximizer, 2 * K + 1).values
        prev_weights = (np.maximum(dens, 0) / max(dens.sum(), 1e-300),)
        if prev_val is not None:
            assert res.value >= prev_val - 1e-12
        prev_val = res.value


def test_supconv_gradient_formula(rng):
    # finite-difference gradient in H^{-s} vs (m_eps - q)/eps
    K = 3
    w = SobolevWeight(2.0)
    sq = square_functional(cutoff=K)
    q = random_measure(1, K, rng, roughness=0.5)
    eps = 0.08
    res = sup_convolve(sq, q, eps, w)
    # direction: single low mode, Hermitian, zero mass
    v = np.zeros(2 * K + 1, dtype=complex)
    t = 1e-3
    v[K + 1] = t * (0.7 + 0.2j)
    v[K - 1] = np.conj(v[K + 1])
    vvec = SpectralVector(1, K, v)
    qp = SpectralMeasure(1, K, q.coeffs + v)
    qm = SpectralMeasure(1, K, q.coeffs - v)
    dens = to_density(res.maximizer, 2 * K + 1).values
    warm = (np.maximum(dens, 0) / max(dens.sum(), 1e-300),)
    vp = sup_convolve(sq, qp, eps, w, warm_starts=warm).value
    vm = sup_convolve(sq, qm, eps, w, warm_starts=warm).value
    fd = (vp - vm) / 2.0
    from mfclab.spectral import hs_inner
    pairing = hs_inner(res.gradient, vvec, w)
    assert abs(fd - pairing) <= 1e-3 * max(abs(pairing), 1e-6)


def test_default_atoms_are_the_grid_nodes(monkeypatch):
    # both solvers put their atoms on the grid nodes, 2K+1 per axis
    seen = []
    real = regularize._SimplexObjective

    def recording(phi, qs, eps, weight, atoms):
        seen.append(atoms)
        return real(phi, qs, eps, weight, atoms)

    monkeypatch.setattr(regularize, "_SimplexObjective", recording)
    w = SobolevWeight(2.0)
    for dim, K in [(1, 3), (2, 2), (3, 1)]:
        n_at = 2 * K + 1
        inline = np.stack(np.meshgrid(
            *([np.arange(n_at) / n_at] * dim), indexing="ij"),
            axis=-1).reshape(-1, dim)
        phi = MeasureFunctional(dim, K, lambda c: 0.0)
        q = lebesgue(dim, K)
        seen.clear()
        sup_convolve(phi, q, 0.1, w)
        sup_convolve(phi, q, 0.1, w, solver="brute_force", brute_steps=1)
        assert len(seen) == 2
        for atoms in seen:
            assert np.array_equal(atoms, inline)


def _value_only(phi):
    return MeasureFunctional(phi.dim, phi.cutoff, phi.value)


@pytest.mark.parametrize("polish", [False, True])
def test_sup_convolve_batch_matches_single_calls(rng, polish):
    K = 3
    w = SobolevWeight(2.0)
    lin = linear_functional(cosine_phi(64, 1, amp=0.4), cutoff=K, sobolev=w)
    sq = square_functional(cutoff=K)
    qs = [random_measure(1, K, rng) for _ in range(3)]
    eps = [0.02, 0.05, 0.05]
    warm = [(), (rng.dirichlet(np.ones(2 * K + 1)),), ()]
    kw = dict(polish=polish, seed=5)
    for phi in (lin, sq, _value_only(sq)):
        batch = regularize.sup_convolve_batch(phi, qs, eps, w,
                                              warm_starts=warm, **kw)
        assert len(batch) == len(qs)
        for q, e, ws, got in zip(qs, eps, warm, batch):
            want = sup_convolve(phi, q, e, w, warm_starts=ws, **kw)
            assert got.value == want.value
            assert np.array_equal(got.maximizer.coeffs, want.maximizer.coeffs)
            assert np.array_equal(got.gradient.coeffs, want.gradient.coeffs)
            assert got.iterations == want.iterations
            assert got.residual == want.residual


def test_sup_convolve_batch_distance_cost_close_to_single_calls(rng):
    # the distance cost's table product goes through BLAS, which may round
    # a batch row and a lone row differently in the last bit, so a row's
    # path can part from its lone path; the values stay within 1e-9
    # relative (on this instance they agree exactly)
    from mfclab.functionals import distance_cost_functional
    from mfclab.transport import PointCloud

    K = 3
    w = SobolevWeight(2.0)
    dc = distance_cost_functional(PointCloud(1, [[0.3]]), cutoff=K,
                                  resolution=2048)
    qs = [random_measure(1, K, rng) for _ in range(4)]
    eps = [0.02, 0.05, 0.02, 0.05]
    batch = regularize.sup_convolve_batch(dc, qs, eps, w, seed=1)
    for q, e, got in zip(qs, eps, batch):
        want = sup_convolve(dc, q, e, w, seed=1)
        assert abs(got.value - want.value) <= 1e-9 * abs(want.value)


def test_sup_convolve_batch_rejects_bad_input():
    q = lebesgue(1, 2)
    lin = linear_functional(cosine_phi(), cutoff=2)
    w = SobolevWeight(2.0)
    with pytest.raises(ValueError):
        regularize.sup_convolve_batch(lin, [q, q], [0.1, 0.0], w)
    with pytest.raises(ValueError):  # one warm-start tuple per base point
        regularize.sup_convolve_batch(lin, [q, q], 0.1, w, warm_starts=[()])
    assert regularize.sup_convolve_batch(lin, [], 0.1, w) == []


def test_supconv_suite_one_ascent_per_section(monkeypatch):
    # sandwich 1, gradient formula 2 (base points, then the +- points),
    # eps-monotonicity 2 (r1, then r2): 5 ascents per functional, however
    # many base points each section draws
    from mfclab.acceptance_suites import supconv_suite

    calls = []
    real = regularize._ascent

    def counting(obj, starts, max_iter):
        calls.append(len(starts))
        return real(obj, starts, max_iter)

    monkeypatch.setattr(regularize, "_ascent", counting)
    params = {"cutoff": 2, "sobolev_order": 2.0, "eps_list": [0.02, 0.05],
              "n_sandwich": 2, "n_monotone": 5, "n_instances_fp": 1}
    supconv_suite(params, seed=0)
    assert len(calls) == 3 * 5


def test_linear_sandwich_batch_converges_fast(rng, monkeypatch):
    # default supconv-check size: K = 8, 8 base points at two eps, 8
    # starts each; the Newton direction on the quadratic objective takes
    # every start to its maximizer in a few iterations, where steps along
    # the raw gradient would run most starts to the iteration cap
    its = []
    real = regularize._ascent

    def recording(obj, starts, max_iter):
        out = real(obj, starts, max_iter)
        its.append(out[2])
        return out

    monkeypatch.setattr(regularize, "_ascent", recording)
    K = 8
    w = SobolevWeight(2.0)
    lin = two_mode_linear(K, w)
    qs = [random_measure(1, K, rng) for _ in range(8)]
    regularize.sup_convolve_batch(lin, qs * 2, [0.02] * 8 + [0.05] * 8, w)
    assert len(its) == 1 and len(its[0]) == 16 * 8
    assert its[0].max() <= 30


# --- fixed point --------------------------------------------------------------

def test_fixed_point_linear_one_step(rng):
    K = 4
    w = SobolevWeight(2.0)
    phi = cosine_phi(64, 1, amp=0.3)
    lin = linear_functional(phi, cutoff=K, sobolev=w)
    q = random_measure(1, K, rng, roughness=0.5)
    eps = 0.03
    m = fixed_point_maximizer(lin, q, eps, w, tol=1e-13)
    phihat = np.zeros(2 * K + 1, dtype=complex)
    phihat[K + 1] = 0.15
    phihat[K - 1] = 0.15
    lift = dual_embed(phihat, 1, K, w)
    expected = SpectralMeasure(1, K, q.coeffs + eps * lift.coeffs)
    assert hs_norm(m - expected, w) < 1e-12


def test_fixed_point_agrees_with_brute_force(rng):
    K = 2
    w = SobolevWeight(2.0)
    sq = square_functional(cutoff=K, sobolev=SobolevWeight(2.0))
    q = random_measure(1, K, rng, roughness=0.4)
    eps = 0.02
    m_fp = fixed_point_maximizer(sq, q, eps, w, tol=1e-13)
    res_b = sup_convolve(sq, q, eps, w, solver="brute_force",
                         brute_steps=25, polish=True)
    assert hs_norm(m_fp - res_b.maximizer, w) < 1e-6


def test_fixed_point_linf_scaling(rng):
    K = 4
    w = SobolevWeight(2.0)
    sq = square_functional(cutoff=K, sobolev=SobolevWeight(2.0))
    q = random_measure(1, K, rng, roughness=0.4)
    eps_list = np.array([0.04, 0.02, 0.01, 0.005])
    dists = []
    for eps in eps_list:
        m = fixed_point_maximizer(sq, q, eps, w, tol=1e-13)
        diff = to_density(m - q, 64)
        dists.append(np.abs(diff.values).max())
    slope = np.polyfit(np.log(eps_list), np.log(dists), 1)[0]
    assert abs(slope - 1.0) < 0.2


def test_fixed_point_lower_bound_violation():
    K = 4
    w = SobolevWeight(2.0)
    sq = square_functional(cutoff=K)
    q = empirical([0.3], cutoff=K)  # Dirichlet dips make density negative
    with pytest.raises(LowerBoundViolated) as info:
        fixed_point_maximizer(sq, q, 0.01, w, lower_bound=0.05)
    assert info.value.threshold == 0.05


def test_fixed_point_contraction_guard():
    K = 3
    w = SobolevWeight(2.0)
    sq = square_functional(cutoff=K, sobolev=SobolevWeight(2.0))
    cs = sq.metadata.semiconcave_hs
    with pytest.raises(ContractionViolated):
        fixed_point_maximizer(sq, lebesgue(1, K), eps=1.0 / cs, weight=w)


# --- helpers ------------------------------------------------------------------

def test_simplex_project_properties(rng):
    for _ in range(20):
        v = rng.normal(size=7)
        p = simplex_project(v)
        assert abs(p.sum() - 1) < 1e-12
        assert np.all(p >= 0)
    p0 = np.array([0.2, 0.5, 0.3])
    np.testing.assert_allclose(simplex_project(p0), p0, atol=1e-14)


def test_simplex_project_batch_rows(rng):
    v = rng.normal(size=(12, 7)) * rng.choice([0.01, 1.0, 10.0], size=(12, 1))
    v[:3] = np.abs(v[:3]) / np.abs(v[:3]).sum(axis=1, keepdims=True)
    rows = np.stack([simplex_project(row) for row in v])
    assert np.array_equal(simplex_project(v), rows)


def _sequential_ascent(obj, row, p0, max_iter):
    """One start alone: the reference for the lockstep batch."""
    p = simplex_project(p0)
    val = obj.value(p, row)
    step = 1.0
    it = 0
    for it in range(max_iter):
        g = obj.direction(p, row)
        for _ in range(40):
            cand = simplex_project(p + step * g)
            cval = obj.value(cand, row)
            if cval > val + 1e-15:
                p, val = cand, cval
                step *= 1.8
                break
            step *= 0.5
        else:
            break
    return p, val, it + 1


@pytest.mark.parametrize("exact_gradient", [True, False])
def test_lockstep_ascent_matches_sequential(rng, exact_gradient):
    K = 3
    w = SobolevWeight(2.0)
    sq = square_functional(cutoff=K)
    if not exact_gradient:  # value only: surrogate gradient, per-row values
        sq = MeasureFunctional(1, K, sq.value)
    q = random_measure(1, K, rng)
    atoms = np.arange(2 * K + 1)[:, None] / (2 * K + 1)
    # one row per start, all with the same q and eps
    obj = regularize._SimplexObjective(sq, np.repeat(q.coeffs[None], 5, 0),
                                       np.full(5, 0.05), w, atoms)
    starts = rng.dirichlet(np.ones(2 * K + 1), size=4)
    # a start already at a maximizer stops while the others still climb
    done = _sequential_ascent(obj, 4, starts[0], 2000)[0]
    starts = np.vstack([starts, done])
    # the Newton direction takes the climbing starts to their maximizers
    # in about 14 iterations; stop them before that
    max_iter = 8
    p, val, its = regularize._ascent(obj, starts, max_iter)
    for i, p0 in enumerate(starts):
        p_i, val_i, its_i = _sequential_ascent(obj, i, p0, max_iter)
        assert np.array_equal(p[i], p_i)
        assert val[i] == val_i
        assert its[i] == its_i
    assert its[-1] < max_iter and its.max() == max_iter


def test_brute_force_first_of_tied_maxima(rng, monkeypatch):
    # atoms 0 and 1 coincide, so moving weight between them ties exactly;
    # tiny blocks put tied points in different blocks
    monkeypatch.setattr(regularize, "_GRID_BLOCK", 4)
    K = 2
    sq = square_functional(cutoff=K)
    atoms = np.array([0.1, 0.1, 0.45, 0.8])[:, None]
    q = random_measure(1, K, rng)
    obj = regularize._SimplexObjective(sq, q.coeffs[None], [0.1],
                                       SobolevWeight(2.0), atoms)
    grid = list(simplex_grid(4, 6))
    vals = [obj.value(p, 0) for p in grid]
    first = int(np.argmax(vals))
    assert sum(v == vals[first] for v in vals) > 1
    best_p, best_val = regularize._brute_force(obj, 4, 6)
    assert np.array_equal(best_p, grid[first])
    assert best_val == vals[first]


def test_simplex_grid_counts():
    pts = list(simplex_grid(3, 4))
    assert len(pts) == 15  # C(6, 2)
    for p in pts:
        assert abs(p.sum() - 1) < 1e-12


def test_composition_pipeline_error_budget(rng):
    # mollify -> sup-convolve -> shift stays within C (lam + delta +
    # eps delta^{-2(s-1)}) of the original for one fitted C over a grid
    K = 3
    s = 2.0
    w = SobolevWeight(s)
    lin = linear_functional(cosine_phi(64, 1, amp=0.5), cutoff=K, sobolev=w)
    ms = [random_measure(1, K, rng) for _ in range(3)]
    ratios = []
    for delta, eps, lam in [(0.5, 0.01, 0.05), (0.25, 0.005, 0.1),
                            (0.35, 0.02, 0.2)]:
        molly = mollify_measure_arg(lin, delta)
        for m in ms:
            res = sup_convolve(molly, m, eps, w)
            shifted = lambda_shift(
                MeasureFunctional_like(molly, res, eps, w), lam)
            gap = abs(shifted(m) - lin(m))
            budget = lam + delta + eps * delta ** (-2 * (s - 1))
            ratios.append(gap / budget)
    assert max(ratios) < 10.0


def MeasureFunctional_like(molly, res, eps, w):
    # wrap the sup-convolution value as a functional of the base point by
    # re-solving at shifted arguments (coarse but adequate for the budget)
    from mfclab.functionals import MeasureFunctional

    def value(c):
        m = SpectralMeasure(molly.dim, molly.cutoff, c)
        return sup_convolve(molly, m, eps, w).value

    return MeasureFunctional(molly.dim, molly.cutoff, value, None,
                             molly.metadata, resolution=molly.resolution)
