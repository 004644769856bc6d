import numpy as np
import pytest

from functional_checks import constant_functional
from mfclab.errors import (
    ContractionViolated,
    LowerBoundViolated,
    NoDerivative,
)
from mfclab import regularize
from mfclab.functionals import (
    MeasureFunctional,
    cylindrical_functional,
    linear_functional,
)
from mfclab.regularize import (
    fixed_point_maximizer,
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
    random_measure,
    to_density,
)


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
        phi = constant_functional(dim, K, 0.0)
        q = lebesgue(dim, K)
        seen.clear()
        sup_convolve(phi, q, 0.1, w)
        sup_convolve(phi, q, 0.1, w, solver="brute_force", brute_steps=1)
        assert len(seen) == 2
        for atoms in seen:
            assert np.array_equal(atoms, inline)


@pytest.mark.parametrize("solver", ["gradient_ascent", "brute_force"])
def test_sup_convolve_needs_a_derivative_kernel(solver):
    # both solvers climb or polish along the gradient of Phi
    sq = square_functional(cutoff=2)
    value_only = MeasureFunctional(1, 2, sq.fast_value)
    with pytest.raises(NoDerivative):
        sup_convolve(value_only, lebesgue(1, 2), 0.1, SobolevWeight(2.0),
                     solver=solver)


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
    for phi in (lin, sq):
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


def test_lockstep_ascent_matches_sequential(rng):
    K = 3
    w = SobolevWeight(2.0)
    sq = square_functional(cutoff=K)
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
    grid = list(np.concatenate(list(regularize._simplex_grid_blocks(4, 6))))
    vals = [obj.value(p, 0) for p in grid]
    first = int(np.argmax(vals))
    assert sum(v == vals[first] for v in vals) > 1
    best_p, best_val = regularize._brute_force(obj, 4, 6)
    assert np.array_equal(best_p, grid[first])
    assert best_val == vals[first]


def test_simplex_grid_counts():
    pts = np.concatenate(list(regularize._simplex_grid_blocks(3, 4)))
    assert len(pts) == 15  # C(6, 2)
    for p in pts:
        assert abs(p.sum() - 1) < 1e-12
