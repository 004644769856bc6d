import numpy as np
import pytest

from functional_checks import constant_functional
from grid_oracles import loop_hs_lipschitz
from mfclab.errors import (
    ContractionViolated,
    LowerBoundViolated,
    NoDerivative,
)
from mfclab import regularize
from mfclab.functionals import (
    MeasureFunctional,
    cylindrical_functional,
    distance_cost_functional,
    linear_functional,
)
from mfclab.regularize import (
    fixed_point_maximizer,
    simplex_project,
    sup_convolve,
    sup_convolve_batch,
)
from mfclab.spectral import (
    GridField,
    SpectralMeasure,
    SpectralVector,
    dual_embed,
    empirical,
    hs_norm,
    lebesgue,
    random_measure,
    to_density,
)
from mfclab.transport import PointCloud


def cosine_phi(n=64, k=1, amp=1.0):
    x = np.arange(n) / n
    return GridField(amp * np.cos(2 * np.pi * k * x))


def square_functional(cutoff=4, k=1):
    phi = cosine_phi(64, k)
    return cylindrical_functional(
        [phi], outer=lambda v: v[0] ** 2,
        outer_grad=lambda v: np.array([2 * v[0]]),
        cutoff=cutoff,
        outer_grad_bound=2.0, outer_hess_bound=2.0,
    )


def distance_cost(K):
    return distance_cost_functional(PointCloud(1, [[0.3]]), cutoff=K,
                                    resolution=2048)


# --- sup-convolution ----------------------------------------------------------

def test_supconv_constant():
    c = constant_functional(3, 1.7)
    q = lebesgue(3)
    res = sup_convolve_batch(c, [q], 0.1)[0]
    assert abs(res.value - 1.7) < 1e-8
    assert hs_norm(res.maximizer - q) < 1e-4
    assert hs_norm(res.gradient) < 1e-3


def test_supconv_linear_closed_form(rng):
    # linear functional: maximizer q + eps * (phi - mean)^dual and value
    # Phi(q) + (eps/2) |phi - mean|_s^2, when the optimum stays admissible
    K = 4
    phi = cosine_phi(64, 1, amp=0.4)
    lin = linear_functional(phi, cutoff=K)
    q = random_measure(K, rng, roughness=0.5)
    eps = 0.05
    res = sup_convolve_batch(lin, [q], eps)[0]
    phihat = np.zeros(2 * K + 1, dtype=complex)
    phihat[K + 1] = 0.2
    phihat[K - 1] = 0.2
    lift = dual_embed(phihat, K)
    expected_val = lin(q) + 0.5 * eps * lin.metadata.lip_hs ** 2
    expected_max = SpectralMeasure(K, q.coeffs + eps * lift.coeffs)
    assert abs(res.value - expected_val) < 1e-6
    assert hs_norm(res.maximizer - expected_max) < 1e-3


def two_mode_linear(K):
    x = np.arange(64) / 64
    phi = GridField(0.35 * np.cos(2 * np.pi * x)
                    + 0.15 * np.sin(4 * np.pi * x))
    return linear_functional(phi, cutoff=K)


@pytest.mark.parametrize("K", [3, 8])
def test_supconv_linear_oracle_on_grid_atoms(rng, K):
    # 2K+1 grid-node atoms span every band-limited measure with positive
    # nodal weights, so an interior maximizer is q + eps * ell^dual:
    # J* = Phi(q) + (eps/2) |ell|_s^2 and |m_eps - q|_{-s} = eps |ell|_s
    lin = two_mode_linear(K)
    ell = lin.metadata.lip_hs
    qs = [random_measure(K, rng) for _ in range(3)]
    for eps in [0.02, 0.05]:
        for q, res in zip(qs, sup_convolve_batch(lin, qs, eps)):
            # interior: every nodal weight is positive
            assert to_density(res.maximizer, 2 * K + 1).values.min() > 0
            want = lin(q) + 0.5 * eps * ell ** 2
            assert abs(res.value - want) <= 1e-12 * abs(want)
            dist = hs_norm(res.maximizer - q)
            assert abs(dist - eps * ell) <= 1e-12 * eps * ell


def test_supconv_residual_is_the_raw_gradient_rate(rng):
    # converged: the feasible ascent rate along the gradient vanishes
    K = 3
    q = random_measure(K, rng)
    assert sup_convolve_batch(two_mode_linear(K), [q],
                              0.05)[0].residual < 1e-10
    # at an interior point the rate along the gradient g is |g - mean g|^2,
    # not the rate along the Newton direction
    sq = square_functional(cutoff=K)
    atoms = np.arange(2 * K + 1) / (2 * K + 1)
    obj = regularize._SimplexObjective(sq, q.coeffs[None], [0.05], atoms)
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
    lin = linear_functional(cosine_phi(64, 1, amp=0.4), cutoff=K)
    cl = lin.metadata.lip_hs
    for eps in [0.02, 0.1]:
        for _ in range(3):
            q = random_measure(K, rng)
            res = sup_convolve_batch(lin, [q], eps)[0]
            gap = res.value - lin(q)
            assert gap >= -1e-9
            assert gap <= 2 * cl ** 2 * eps * 1.05
            assert hs_norm(res.maximizer - q) <= 2 * cl * eps * 1.05


def test_supconv_brute_force_agreement(rng):
    # the ascent matches the brute force's grid scan and finishing ascent
    # on the 5 grid atoms
    K = 2
    sq = square_functional(cutoff=K)
    q = random_measure(K, rng)
    eps = 0.1
    res_a = sup_convolve_batch(sq, [q], eps)[0]
    res_b = sup_convolve(sq, q, eps)
    assert abs(res_a.value - res_b.value) < 1e-6


def test_supconv_eps_monotone(rng):
    K = 3
    sq = square_functional(cutoff=K)
    q = random_measure(K, rng)
    prev_val = None
    prev_weights = ()
    for eps in [0.02, 0.05, 0.1, 0.2]:
        res = sup_convolve_batch(sq, [q], eps,
                                 warm_starts=[prev_weights])[0]
        dens = to_density(res.maximizer, 2 * K + 1).values
        prev_weights = (np.maximum(dens, 0) / max(dens.sum(), 1e-300),)
        if prev_val is not None:
            assert res.value >= prev_val - 1e-12
        prev_val = res.value


def test_supconv_gradient_formula(rng):
    # finite-difference gradient in H^{-s} vs (m_eps - q)/eps
    K = 3
    sq = square_functional(cutoff=K)
    q = random_measure(K, rng, roughness=0.5)
    eps = 0.08
    res = sup_convolve_batch(sq, [q], eps)[0]
    # direction: single low mode, Hermitian, zero mass
    v = np.zeros(2 * K + 1, dtype=complex)
    t = 1e-3
    v[K + 1] = t * (0.7 + 0.2j)
    v[K - 1] = np.conj(v[K + 1])
    vvec = SpectralVector(K, v)
    qp = SpectralMeasure(K, q.coeffs + v)
    qm = SpectralMeasure(K, q.coeffs - v)
    dens = to_density(res.maximizer, 2 * K + 1).values
    warm = (np.maximum(dens, 0) / max(dens.sum(), 1e-300),)
    vp = sup_convolve_batch(sq, [qp], eps, warm_starts=[warm])[0].value
    vm = sup_convolve_batch(sq, [qm], eps, warm_starts=[warm])[0].value
    fd = (vp - vm) / 2.0
    from mfclab.spectral import hs_inner
    pairing = hs_inner(res.gradient, vvec)
    assert abs(fd - pairing) <= 1e-3 * max(abs(pairing), 1e-6)


def test_default_atoms_are_the_grid_nodes(monkeypatch):
    # both solvers put their atoms on the 2K+1 grid nodes
    seen = []
    real = regularize._SimplexObjective

    def recording(phi, qs, eps, atoms):
        seen.append(atoms)
        return real(phi, qs, eps, atoms)

    monkeypatch.setattr(regularize, "_SimplexObjective", recording)
    K = 3
    phi = constant_functional(K, 0.0)
    q = lebesgue(K)
    sup_convolve_batch(phi, [q], 0.1)
    sup_convolve(phi, q, 0.1)
    assert len(seen) == 2
    for atoms in seen:
        assert np.array_equal(atoms, np.arange(2 * K + 1) / (2 * K + 1))


# the ascent of sup_convolve_batch and the brute force of sup_convolve
_SOLVERS = {"gradient_ascent": lambda phi, q, eps:
            sup_convolve_batch(phi, [q], eps)[0],
            "brute_force": sup_convolve}


@pytest.mark.parametrize("solver", sorted(_SOLVERS))
def test_sup_convolve_needs_a_derivative_kernel(solver):
    # both solvers climb along the gradient of Phi
    sq = square_functional(cutoff=2)
    value_only = MeasureFunctional(2, sq.fast_value)
    with pytest.raises(NoDerivative):
        _SOLVERS[solver](value_only, lebesgue(2), 0.1)


def test_sup_convolve_batch_matches_single_calls(rng, monkeypatch):
    # one eps, one start count and one warm-start tuple per base point,
    # mixed as the supconv suite mixes them
    sizes = []
    real = regularize._ascent

    def counting(obj, starts, max_iter):
        sizes.append(len(starts))
        return real(obj, starts, max_iter)

    monkeypatch.setattr(regularize, "_ascent", counting)
    K = 3
    lin = linear_functional(cosine_phi(64, 1, amp=0.4), cutoff=K)
    sq = square_functional(cutoff=K)
    qs = [random_measure(K, rng) for _ in range(3)]
    eps = [0.02, 0.05, 0.05]
    n_starts = [8, 3, 2]
    warm = [(), (rng.dirichlet(np.ones(2 * K + 1)),), ()]
    for phi in (lin, sq):
        sizes.clear()
        batch = sup_convolve_batch(phi, qs, eps, n_starts=n_starts,
                                   warm_starts=warm, seed=5)
        assert sizes == [8 + (3 + 1) + 2]  # the second adds a warm start
        assert len(batch) == len(qs)
        for q, e, n, ws, got in zip(qs, eps, n_starts, warm, batch):
            want = sup_convolve_batch(phi, [q], e, n_starts=n,
                                      warm_starts=[ws], seed=5)[0]
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
    K = 3
    dc = distance_cost(K)
    qs = [random_measure(K, rng) for _ in range(4)]
    eps = [0.02, 0.05, 0.02, 0.05]
    batch = sup_convolve_batch(dc, qs, eps, seed=1)
    for q, e, got in zip(qs, eps, batch):
        want = sup_convolve_batch(dc, [q], e, seed=1)[0]
        assert abs(got.value - want.value) <= 1e-9 * abs(want.value)


def test_sup_convolve_batch_rejects_bad_input():
    q = lebesgue(2)
    lin = linear_functional(cosine_phi(), cutoff=2)
    with pytest.raises(ValueError):
        sup_convolve_batch(lin, [q, q], [0.1, 0.0])
    with pytest.raises(ValueError):  # one warm-start tuple per base point
        sup_convolve_batch(lin, [q, q], 0.1, warm_starts=[()])
    for n_starts in ([8], [8, 3, 2]):  # one start count per base point
        with pytest.raises(ValueError, match="start counts"):
            sup_convolve_batch(lin, [q, q], 0.1, n_starts=n_starts)
    assert sup_convolve_batch(lin, [], 0.1) == []


def test_supconv_suite_two_ascents_per_functional(monkeypatch):
    # every base point is drawn before any solve, so each functional's
    # solves run in two ascents: the sandwich problems, the gradient base
    # points and eps-monotonicity at eps_lo; then the gradient's +- points
    # and eps-monotonicity at eps_hi, which warm-start from the first.
    # That is 2 ascents per functional, however many base points each
    # section draws; then one ascent from the grid's best point per
    # brute-force instance of criterion 6
    from mfclab.acceptance_suites import supconv_suite

    calls = []
    real = regularize._ascent

    def counting(obj, starts, max_iter):
        calls.append(len(starts))
        return real(obj, starts, max_iter)

    monkeypatch.setattr(regularize, "_ascent", counting)
    params = {"cutoff": 2, "n_sandwich": 2, "n_monotone": 5,
              "n_instances_fp": 1}
    supconv_suite(params, seed=0)
    assert len(calls) == 3 * 2 + 1
    assert calls[-1] == 1


def test_estimate_hs_lipschitz_matches_the_pair_loop():
    # one batched draw consumes the stream of the pair-by-pair loop, so
    # every later section of the suite draws the same base points; the
    # cylindrical kernel treats rows alone, so its estimate keeps every
    # bit, and the distance cost's batched table product moves its
    # estimate in the last bits only
    from mfclab.acceptance_suites import estimate_hs_lipschitz

    for K, seed in [(2, 0), (3, 1), (8, 2)]:
        for phi, rtol in [(square_functional(cutoff=K), 0.0),
                          (distance_cost(K), 1e-13)]:
            got_rng = np.random.default_rng(seed)
            want_rng = np.random.default_rng(seed)
            got = estimate_hs_lipschitz(phi, got_rng)
            want = loop_hs_lipschitz(phi, want_rng)
            assert abs(got - want) <= rtol * want
            assert (got_rng.bit_generator.state
                    == want_rng.bit_generator.state)


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
    lin = two_mode_linear(K)
    qs = [random_measure(K, rng) for _ in range(8)]
    sup_convolve_batch(lin, qs * 2, [0.02] * 8 + [0.05] * 8)
    assert len(its) == 1 and len(its[0]) == 16 * 8
    assert its[0].max() <= 30


def test_criterion_5_seed_18_base_solve_reaches_a_kkt_point():
    # criterion 5's distance-cost base solve at seed 18, default size,
    # rebuilt from the suite's draws; when each line search started from
    # the last iteration's step, the ascent stalled at a kink after 10
    # iterations with residual 2.9e-7, and the gradient check failed
    from mfclab.acceptance_suites import benchmark_functionals

    rng = np.random.default_rng(18)
    K = 8
    label, dc = benchmark_functionals(K, rng)[2]
    assert label == "distance-cost"
    for _ in range(3 * 8):  # the sandwich's 8 base points per functional
        random_measure(K, rng)
    for _ in range(2 * 2):  # the linear and cylindrical gradient bases
        random_measure(K, rng, roughness=0.5)
    q = random_measure(K, rng, roughness=0.5)
    res = sup_convolve_batch(dc, [q], 0.05, seed=18)[0]
    assert res.residual <= 1e-10


def test_sup_convolve_reports_its_finishing_ascent(rng, monkeypatch):
    # the brute force ends with an ascent from the grid's best point and
    # reports that ascent's iterations and KKT residual
    seen = {}
    ascent, kkt = regularize._ascent, regularize._kkt_residual

    def recording_ascent(obj, starts, max_iter):
        out = ascent(obj, starts, max_iter)
        seen["its"] = out[2]
        return out

    def recording_kkt(obj, row, p, val):
        seen["residual"] = kkt(obj, row, p, val)
        return seen["residual"]

    monkeypatch.setattr(regularize, "_ascent", recording_ascent)
    monkeypatch.setattr(regularize, "_kkt_residual", recording_kkt)
    res = sup_convolve(square_functional(cutoff=2), random_measure(2, rng),
                       0.02)
    assert res.iterations == seen["its"][0] > 0
    assert res.residual == seen["residual"]


# --- fixed point --------------------------------------------------------------

def test_fixed_point_linear_one_step(rng):
    K = 4
    phi = cosine_phi(64, 1, amp=0.3)
    lin = linear_functional(phi, cutoff=K)
    q = random_measure(K, rng, roughness=0.5)
    eps = 0.03
    m = fixed_point_maximizer(lin, q, eps)[0]
    phihat = np.zeros(2 * K + 1, dtype=complex)
    phihat[K + 1] = 0.15
    phihat[K - 1] = 0.15
    lift = dual_embed(phihat, K)
    expected = SpectralMeasure(K, q.coeffs + eps * lift.coeffs)
    assert hs_norm(m - expected) < 1e-12


def test_fixed_point_agrees_with_brute_force(rng):
    K = 2
    sq = square_functional(cutoff=K)
    q = random_measure(K, rng, roughness=0.4)
    eps = 0.02
    m_fp = fixed_point_maximizer(sq, q, eps)[0]
    res_b = sup_convolve(sq, q, eps)
    assert hs_norm(m_fp - res_b.maximizer) < 1e-6


def test_fixed_point_linf_scaling(rng):
    K = 4
    sq = square_functional(cutoff=K)
    q = random_measure(K, rng, roughness=0.4)
    eps_list = np.array([0.04, 0.02, 0.01, 0.005])
    dists = []
    for eps in eps_list:
        m = fixed_point_maximizer(sq, q, eps)[0]
        diff = to_density(m - q, 64)
        dists.append(np.abs(diff.values).max())
    slope = np.polyfit(np.log(eps_list), np.log(dists), 1)[0]
    assert abs(slope - 1.0) < 0.2


def test_fixed_point_lower_bound_violation():
    K = 4
    sq = square_functional(cutoff=K)
    q = empirical([0.3], cutoff=K)  # Dirichlet dips make density negative
    with pytest.raises(LowerBoundViolated) as info:
        fixed_point_maximizer(sq, q, 0.01, lower_bound=0.05)
    assert info.value.threshold == 0.05


def test_fixed_point_contraction_guard():
    K = 3
    sq = square_functional(cutoff=K)
    cs = sq.metadata.semiconcave_hs
    with pytest.raises(ContractionViolated):
        fixed_point_maximizer(sq, lebesgue(K), eps=1.0 / cs)


def test_fixed_point_ladder_contraction_guard():
    # one eps of the ladder outside the regime refuses the whole ladder
    K = 3
    sq = square_functional(cutoff=K)
    cs = sq.metadata.semiconcave_hs
    with pytest.raises(ContractionViolated):
        fixed_point_maximizer(sq, lebesgue(K), [0.01, 1.0 / cs, 0.02])


def _lone_fixed_point(phi, q, eps):
    """The damped iteration on SpectralMeasure objects for one eps: the
    reference for the batched ladder. Returns the maximizer and the
    iteration at which it converged."""
    K = phi.cutoff
    m = q
    for it in range(2000):
        gk = phi.fast_derivative_coeffs(np.asarray(m.coeffs))
        target = SpectralMeasure(K, q.coeffs + eps * dual_embed(gk, K).coeffs)
        if hs_norm(m - target) <= 1e-13:
            return m, it
        m = SpectralMeasure(K, 0.5 * m.coeffs + 0.5 * target.coeffs)
    raise AssertionError("the lone iteration did not converge")


@pytest.mark.parametrize("make_phi", [two_mode_linear, square_functional],
                         ids=["linear", "cylindrical"])
def test_fixed_point_ladder_matches_lone_solves(rng, make_phi):
    K = 4
    phi = make_phi(K)
    q = random_measure(K, rng, roughness=0.4)
    ladder = [0.04, 0.02, 0.01, 0.005]
    lone = [_lone_fixed_point(phi, q, eps) for eps in ladder]
    # rows leave the batch at different iterations
    assert len({it for _, it in lone}) > 1
    ms = fixed_point_maximizer(phi, q, ladder)
    assert len(ms) == len(ladder)
    for m, (ref, _) in zip(ms, lone):
        assert np.array_equal(m.coeffs, ref.coeffs)


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
    """One start alone: the reference for the lockstep batch. Every line
    search starts at the full step and halves it."""
    p = simplex_project(p0)
    val = obj.value(p, row)
    it = 0
    for it in range(max_iter):
        g = obj.direction(p, row)
        for k in range(40):
            cand = simplex_project(p + 0.5 ** k * g)
            cval = obj.value(cand, row)
            if cval > val + 1e-15:
                p, val = cand, cval
                break
        else:
            break
    return p, val, it + 1


def test_lockstep_ascent_matches_sequential(rng):
    K = 3
    sq = square_functional(cutoff=K)
    q = random_measure(K, rng)
    atoms = np.arange(2 * K + 1) / (2 * K + 1)
    # one row per start, all with the same q and eps
    obj = regularize._SimplexObjective(sq, np.repeat(q.coeffs[None], 5, 0),
                                       np.full(5, 0.05), atoms)
    starts = rng.dirichlet(np.ones(2 * K + 1), size=4)
    # a start already at a maximizer stops while the others still climb
    done = _sequential_ascent(obj, 4, starts[0], 2000)[0]
    starts = np.vstack([starts, done])
    # the Newton direction takes the climbing starts to their maximizers
    # in 8 or 9 iterations; stop them before that
    max_iter = 5
    p, val, its = regularize._ascent(obj, starts, max_iter)
    for i, p0 in enumerate(starts):
        p_i, val_i, its_i = _sequential_ascent(obj, i, p0, max_iter)
        assert np.array_equal(p[i], p_i)
        assert val[i] == val_i
        assert its[i] == its_i
    assert its[-1] < max_iter and its.max() == max_iter


def _counting_rows(obj):
    """Wrap ``obj.value`` to count the weight vectors it scores."""
    count = [0]
    value = obj.value

    def counting(p, rows):
        count[0] += len(np.atleast_1d(rows))
        return value(p, rows)

    obj.value = counting
    return count


# the distance cost's table product may round a row of a batch and a lone
# row differently, so its starts ascend one at a time
@pytest.mark.parametrize("make_phi, lockstep",
                         [(square_functional, True), (distance_cost, False)],
                         ids=["cylindrical", "distance-cost"])
def test_ascent_stuck_exit_matches_the_full_halvings(rng, make_phi,
                                                     lockstep):
    # the sequential ascent runs all 40 halvings before a start stops;
    # _ascent drops a row once its trial point rounds to its point, and
    # ends on the same bits with fewer objective rows
    K = 3
    phi = make_phi(K)
    q = random_measure(K, rng)
    atoms = np.arange(2 * K + 1) / (2 * K + 1)
    obj = regularize._SimplexObjective(phi, np.repeat(q.coeffs[None], 4, 0),
                                       np.full(4, 0.05), atoms)
    starts = rng.dirichlet(np.ones(2 * K + 1), size=3)
    done = _sequential_ascent(obj, 3, starts[0], 400)[0]
    starts = np.vstack([starts, done])  # one start at its maximizer
    scored = _counting_rows(obj)
    lone = [_sequential_ascent(obj, i, p0, 400)
            for i, p0 in enumerate(starts)]
    oracle_rows, scored[0] = scored[0], 0
    if lockstep:
        p, val, its = regularize._ascent(obj, starts, 400)
    else:  # every row has the same q and eps, so row 0 stands for each
        p, val, its = map(np.concatenate, zip(*(
            regularize._ascent(obj, p0[None], 400) for p0 in starts)))
    for i, (p_i, val_i, its_i) in enumerate(lone):
        assert np.array_equal(p[i], p_i)
        assert val[i] == val_i
        assert its[i] == its_i
    assert its.max() < 400  # every start stopped on the halving rule
    assert scored[0] < oracle_rows


def _direct_brute_force(obj, n_at, steps):
    """First maximizer of row 0 over the grid, scoring the weights."""
    grid = regularize._simplex_grid(n_at, steps)
    vals = np.concatenate([obj.value(grid[i:i + 100], 0)
                           for i in range(0, len(grid), 100)])
    first = int(np.argmax(vals))
    return grid[first], vals[first]


@pytest.mark.parametrize("atoms, steps", [(np.arange(5) / 5, 25),
                                          ([0.1, 0.1, 0.45, 0.8], 6)],
                         ids=["grid-nodes", "tied"])
def test_brute_force_scores_the_cached_coefficients_exactly(rng, atoms,
                                                            steps):
    K = 2
    sq = square_functional(cutoff=K)
    atoms = np.asarray(atoms)
    q = random_measure(K, rng)
    obj = regularize._SimplexObjective(sq, q.coeffs[None], [0.1], atoms)
    best_p, best_val = regularize._brute_force(obj, len(atoms), steps)
    want_p, want_val = _direct_brute_force(obj, len(atoms), steps)
    assert np.array_equal(best_p, want_p)
    assert best_val == want_val


def test_grid_coeffs_cached_per_atoms_and_read_only():
    K, steps = 2, 6
    nodes, tied = np.arange(4) / 4, np.array([0.1, 0.1, 0.45, 0.8])
    table = regularize._grid_coeffs(K, tuple(nodes), steps)
    assert regularize._grid_coeffs(K, tuple(nodes), steps) is table
    assert not table.flags.writeable
    other = regularize._grid_coeffs(K, tuple(tied), steps)
    assert other is not table
    grid = regularize._simplex_grid(4, steps)
    for atoms, coeffs in ((nodes, table), (tied, other)):
        A = regularize._atom_table(K, atoms)
        assert np.array_equal(coeffs, regularize._rowwise_matvec(A, grid))
    # brute-force calls on one set of atoms share its table
    sq = square_functional(cutoff=K)
    obj = regularize._SimplexObjective(sq, lebesgue(K).coeffs[None], [0.1],
                                       tied)
    hits = regularize._grid_coeffs.cache_info().hits
    regularize._brute_force(obj, 4, steps)
    regularize._brute_force(obj, 4, steps)
    assert regularize._grid_coeffs.cache_info().hits == hits + 2


def test_brute_force_first_of_tied_maxima(rng, monkeypatch):
    # atoms 0 and 1 coincide, so moving weight between them ties exactly;
    # tiny blocks put tied points in different blocks
    monkeypatch.setattr(regularize, "_GRID_BLOCK", 4)
    K = 2
    sq = square_functional(cutoff=K)
    atoms = np.array([0.1, 0.1, 0.45, 0.8])
    q = random_measure(K, rng)
    obj = regularize._SimplexObjective(sq, q.coeffs[None], [0.1], atoms)
    grid = list(np.concatenate(list(regularize._simplex_grid_blocks(4, 6))))
    vals = [obj.value(p, 0) for p in grid]
    first = int(np.argmax(vals))
    assert sum(v == vals[first] for v in vals) > 1
    best_p, best_val = regularize._brute_force(obj, 4, 6)
    assert np.array_equal(best_p, grid[first])
    assert best_val == vals[first]


def test_simplex_grid_cached_and_read_only():
    grid = regularize._simplex_grid(3, 4)
    assert regularize._simplex_grid(3, 4) is grid
    assert not grid.flags.writeable
    assert np.array_equal(
        grid, np.concatenate(list(regularize._simplex_grid_blocks(3, 4))))


def test_simplex_grid_counts():
    pts = np.concatenate(list(regularize._simplex_grid_blocks(3, 4)))
    assert len(pts) == 15  # C(6, 2)
    for p in pts:
        assert abs(p.sum() - 1) < 1e-12
