import math

import numpy as np
import pytest
from scipy.special import logsumexp

from grid_oracles import expectation, heat_multiplier, solve_hjbn_small
from mfclab.errors import BudgetExceeded, DimensionMismatch, SamplingFailure
from mfclab.functionals import cylindrical_functional, linear_functional
from mfclab.harness import fit_loglog
from mfclab.particle import (
    _ID_COLE_HOPF,
    _ID_VN_UPPER,
    ParticleRunConfig,
    _aggregate,
    _occupancy_recursion,
    _simulate_cost,
    cole_hopf_vn,
    coupon_occupancy,
    empirical_w1_rate,
    estimate_vn_upper,
    occupancy_log_tail,
    sample_measure,
    substream,
)
from mfclab.pde import MFCProblem, MFCSolution, solve_mfc
from mfclab.spectral import (
    GridField,
    empirical,
    lebesgue,
    random_measure,
)


def cos_field(n=64, amp=1.0):
    x = np.arange(n) / n
    return GridField(amp * np.cos(2 * np.pi * x))


def zero_problem(K=5, T=0.3):
    zero = linear_functional(GridField(np.zeros(32)), cutoff=K)
    return MFCProblem(zero, T)


def linear_problem(K=6, T=0.25, amp=0.8):
    G = linear_functional(cos_field(amp=amp), cutoff=K)
    return MFCProblem(G, T)


def convex_problem(K=5, T=0.2):
    G = cylindrical_functional(
        [cos_field()], outer=lambda v: v[0] ** 2,
        outer_grad=lambda v: np.array([2 * v[0]]),
        cutoff=K)
    return MFCProblem(G, T)


# --- sampling -----------------------------------------------------------------

def test_sample_measure_matches_density(rng):
    m = random_measure(5, rng)
    pts = sample_measure(m, 40000, rng)
    assert pts.shape == (40000,)
    hist, edges = np.histogram(pts, bins=32, range=(0, 1),
                               density=True)
    from mfclab.spectral import to_density
    dens = to_density(m, 32).values
    assert np.abs(hist - dens).max() < 0.15


def test_sample_measure_rejects_rough_density():
    m = empirical([0.3], cutoff=6)  # truncated Dirac dips negative
    with pytest.raises(SamplingFailure):
        sample_measure(m, 10, np.random.default_rng(0))


# --- uncontrolled particle cost -------------------------------------------------

def test_vhat_linear_terminal_heat_oracle(rng):
    # F = 0, feedback = 0, i.i.d. initials from m0: the mean particle cost is
    # E[phi(X_T)] = heat-flow quadrature
    prob = linear_problem()
    m0 = random_measure(6, rng)
    cfg = ParticleRunConfig(n_particles=64, replications=60, dt=0.005,
                            seed=11)
    streams = [substream(cfg.seed, 1, rep)
               for rep in range(cfg.replications)]
    initials = np.stack([sample_measure(m0, cfg.n_particles, stream)
                         for stream in streams])
    costs = _simulate_cost(prob, 0.0, initials, cfg,
                           lambda t, x: np.zeros_like(x), streams)
    mean = costs.mean()
    stderr = costs.std(ddof=1) / np.sqrt(cfg.replications)
    smoothed = heat_multiplier(m0, prob.horizon)
    oracle = expectation(smoothed, cos_field(amp=0.8))
    assert abs(mean - oracle) <= 3.2 * stderr + 1e-3


# --- estimate_vn_upper ----------------------------------------------------------

def _simulate_cost_one(problem, t0, initials, cfg, feedback, rng):
    """One replication, one time loop: the reference for the batch."""
    T = problem.horizon
    nt = max(int(round((T - t0) / cfg.dt)), 1)
    dt = (T - t0) / nt
    noise_scale = np.sqrt(2.0 * dt)
    x = initials.copy()
    K = problem.terminal_cost.cutoff
    total = 0.0
    for j in range(nt):
        t = t0 + j * dt
        a = feedback(t, np.mod(x, 1.0))
        total += (0.5 * a ** 2).mean() * dt
        x = x + a * dt + noise_scale * rng.standard_normal(x.shape)
    total += problem.terminal_cost(empirical(np.mod(x, 1.0), K))
    return total


def _vn_upper_one_at_a_time(problem, t0, x, cfg, sol):
    costs = np.array([
        _simulate_cost_one(problem, t0, x, cfg, sol.feedback_at,
                           substream(cfg.seed, _ID_VN_UPPER, rep))
        for rep in range(cfg.replications)])
    return _aggregate(costs)


@pytest.fixture(scope="module")
def convex_solution():
    prob = convex_problem()
    x = np.random.default_rng(3).uniform(size=16)
    sol = solve_mfc(prob, 0.05, [empirical(x, cutoff=5)], nt=30, tol=1e-6)[0]
    assert sol.certified
    return prob, sol


@pytest.mark.parametrize("n", [1, 8])
def test_simulate_cost_batch_equals_per_replication_loop(convex_solution, n):
    # the terminal costs of all replications are one fast_value call on
    # stacked empirical coefficients; each cost is its replication's own
    prob, sol = convex_solution
    reps = 6
    cfg = ParticleRunConfig(n_particles=n, replications=reps, dt=0.01,
                            seed=5)
    x = np.random.default_rng(n).uniform(size=n)

    def streams():
        return [substream(cfg.seed, _ID_VN_UPPER, r) for r in range(reps)]

    got = _simulate_cost(prob, 0.05, np.repeat(x[None], reps, axis=0), cfg,
                         sol.feedback_at, streams())
    want = [_simulate_cost_one(prob, 0.05, x, cfg, sol.feedback_at, s)
            for s in streams()]
    assert np.array_equal(got, want)


def test_hjbn_terminal_frame_equals_per_point_loop():
    # solve_hjbn_small scores G at every grid point in one fast_value call
    K, n, N = 4, 10, 2
    prob = convex_problem(K)
    sol = solve_hjbn_small(prob, N, n=n)
    axis = np.arange(n) / n
    want = np.array([[prob.terminal_cost(empirical([a, b], K))
                      for b in axis] for a in axis])
    assert np.array_equal(sol.terminal_frame, want)


@pytest.mark.parametrize("reps", [1, 2, 7])
@pytest.mark.parametrize("n", [1, 8, 33])
def test_vn_upper_batch_equals_one_at_a_time(convex_solution, n, reps):
    prob, sol = convex_solution
    x = np.random.default_rng(n).uniform(size=n)
    cfg = ParticleRunConfig(n_particles=n, replications=reps, dt=0.01,
                            seed=5)
    got = estimate_vn_upper(prob, 0.05, x, cfg, sol)
    want = _vn_upper_one_at_a_time(prob, 0.05, x, cfg, sol)
    assert got.mean == want.mean
    assert got.stderr == want.stderr
    assert got.replications == reps


def test_vn_upper_one_feedback_call_per_step(convex_solution, monkeypatch):
    prob, sol = convex_solution
    calls = []
    inner = MFCSolution.feedback_at

    def counting(self, t, points):
        calls.append(len(points))
        return inner(self, t, points)

    monkeypatch.setattr(MFCSolution, "feedback_at", counting)
    cfg = ParticleRunConfig(n_particles=8, replications=7, dt=0.01, seed=1)
    estimate_vn_upper(prob, 0.05, np.linspace(0, 1, 8, endpoint=False), cfg,
                      sol)
    nt = int(round((prob.horizon - 0.05) / cfg.dt))
    assert calls == [7 * 8] * nt


def test_vn_upper_rejects_particle_count_mismatch(convex_solution):
    prob, sol = convex_solution
    cfg = ParticleRunConfig(n_particles=8, replications=2, dt=0.01, seed=1)
    for bad in (np.linspace(0, 1, 6, endpoint=False), np.zeros((8, 1))):
        with pytest.raises(DimensionMismatch):
            estimate_vn_upper(prob, 0.05, bad, cfg, sol)


def test_vn_upper_zero_costs():
    prob = zero_problem()
    cfg = ParticleRunConfig(n_particles=8, replications=4, dt=0.01, seed=2)
    sol = solve_mfc(prob, 0.0, [lebesgue(5)], nt=40)[0]
    est = estimate_vn_upper(prob, 0.0, np.linspace(0, 1, 8, endpoint=False),
                            cfg, mfc_solution=sol)
    assert abs(est.mean) < 1e-10


def test_vn_upper_exchangeability(rng):
    K = 5
    prob = convex_problem(K, 0.2)
    x = rng.uniform(size=12)
    m0 = empirical(x, cutoff=K)
    sol = solve_mfc(prob, 0.0, [m0], nt=50, tol=1e-6)[0]
    cfg = ParticleRunConfig(n_particles=12, replications=100, dt=0.005,
                            seed=9)
    a = estimate_vn_upper(prob, 0.0, x, cfg, mfc_solution=sol)
    b = estimate_vn_upper(prob, 0.0, x[::-1].copy(), cfg, mfc_solution=sol)
    assert abs(a.mean - b.mean) <= 3.0 * np.hypot(a.stderr, b.stderr)


def test_vn_upper_dominates_u_convex(rng):
    # convex instance: estimate - U >= -3 stderr (easy inequality direction)
    K = 5
    prob = convex_problem(K, 0.25)
    x = rng.uniform(size=24)
    m0 = empirical(x, cutoff=K)
    sol = solve_mfc(prob, 0.0, [m0], nt=60, tol=1e-6)[0]
    cfg = ParticleRunConfig(n_particles=24, replications=200, dt=0.005,
                            seed=17)
    est = estimate_vn_upper(prob, 0.0, x, cfg, mfc_solution=sol)
    assert est.mean - sol.value >= -3.0 * est.stderr


@pytest.mark.parametrize("N, n", [(1, 64), (2, 40)])
def test_hjbn_sandwich_u_vn_upper(N, n):
    # U(0, m_x^N) <= V^N(0, x) <= E[cost under the MFC feedback], with V^N
    # from the monotone grid solve of HJB(N), which shares no code with
    # solve_mfc or the Monte Carlo. Convex G = (int 0.6 cos 2 pi x dm)^2.
    K = 5
    G = cylindrical_functional(
        [cos_field(amp=0.6)], outer=lambda v: v[0] ** 2,
        outer_grad=lambda v: np.array([2 * v[0]]),
        cutoff=K, outer_grad_bound=2.0, outer_hess_bound=2.0)
    prob = MFCProblem(G, horizon=0.25)
    vn = solve_hjbn_small(prob, N, n=n)
    cfg = ParticleRunConfig(n_particles=N, replications=4000, seed=11)
    for x in ([0.1, 0.55], [0.3, 0.35], [0.8, 0.2]):
        x = np.array(x[:N])
        sol = solve_mfc(prob, 0.0, [empirical(x, cutoff=K)], nt=100,
                        tol=1e-7)[0]
        assert sol.certified
        v = vn.value_at(x)
        # the grid error of V^N is about 1e-4 at these n
        assert sol.value <= v + 5e-3
        est = estimate_vn_upper(prob, 0.0, x, cfg, mfc_solution=sol)
        assert v <= est.mean + 3.0 * est.stderr


# --- cole_hopf_vn ---------------------------------------------------------------

def test_cole_hopf_n1_quadrature_oracle():
    # N=1, d=1: -log E[exp(-d_1(delta_xi, N_T))] with d_1 = E-style |x - y|
    # transport to the quantized Gaussian; oracle via dense quadrature over
    # the Gaussian xi using the same quantized target
    from mfclab.transport import gaussian_quantile_cloud, sorted_w1_1d

    T = 0.25
    cfg = ParticleRunConfig(n_particles=1, replications=4000, seed=21)
    est, diag = cole_hopf_vn(T, 1, cfg)  # max(N, 64) = 64 target points
    target, _ = gaussian_quantile_cloud(64, np.sqrt(T))
    xs = np.linspace(-6 * np.sqrt(T), 6 * np.sqrt(T), 4001)
    pdf = np.exp(-xs ** 2 / (2 * T)) / np.sqrt(2 * np.pi * T)
    dists = np.array([
        sorted_w1_1d(np.array([x]), np.array([1.0]),
                     target.points[:, 0], target.weights)
        for x in xs
    ])
    mean_exp = np.trapezoid(np.exp(-dists) * pdf, xs)
    oracle = -np.log(mean_exp)
    assert abs(est.mean - oracle) <= 4.0 * est.stderr + 2e-3


def test_cole_hopf_particle_count_comes_from_cfg():
    # one replication: the estimate is d_1 from cfg.n_particles Gaussian
    # points of that replication's stream to the quantized Gaussian
    from mfclab.transport import PointCloud, gaussian_quantile_cloud, \
        w1_discrete

    T = 0.25
    cfg = ParticleRunConfig(n_particles=5, replications=1, seed=3)
    est, _ = cole_hopf_vn(T, 1, cfg)
    pts = substream(3, _ID_COLE_HOPF, 0).normal(scale=np.sqrt(T),
                                                size=(5, 1))
    target, _ = gaussian_quantile_cloud(64, np.sqrt(T))
    want = w1_discrete(PointCloud(1, pts), target, metric="euclidean")
    assert est.mean == pytest.approx(want, rel=1e-12)


def test_cole_hopf_positive_and_horizon_check():
    cfg = ParticleRunConfig(n_particles=16, replications=16, seed=1)
    est, diag = cole_hopf_vn(0.25, 2, cfg)
    assert est.mean > 0
    with pytest.raises(ValueError):
        cole_hopf_vn(0.05, 2, cfg)  # below 1/(2 pi)


# --- coupon collector ------------------------------------------------------------

def test_coupon_single_cell():
    res = coupon_occupancy(1, 50, 0.5, seed=0)
    assert res.occupied_fraction.mean == 1.0
    assert res.prob_bpn.mean == 1.0


def test_coupon_occupied_fraction_formula():
    n = 10000
    res = coupon_occupancy(n, 400, 0.05, seed=4)
    oracle = 1.0 - (1.0 - 1.0 / n) ** n
    assert abs(res.occupied_fraction.mean - oracle) < 0.01


def test_occupancy_pmf_exact_small():
    # N = 3: enumerate all 27 draw sequences by hand
    log_p = _occupancy_log_pmf_reference(3)
    probs = np.exp(log_p)
    # occupied=1: 3 sequences (all same) / 27; occupied=3: 3! * 1 / 27 = 6/27
    assert abs(probs[1] - 3 / 27) < 1e-12
    assert abs(probs[3] - 6 / 27) < 1e-12
    assert abs(probs.sum() - 1.0) < 1e-12


def test_occupancy_pmf_mean_matches_formula():
    n = 500
    log_p = _occupancy_log_pmf_reference(n)
    mean = float(np.sum(np.exp(log_p) * np.arange(n + 1))) / n
    oracle = 1.0 - (1.0 - 1.0 / n) ** n
    assert abs(mean - oracle) < 1e-10


def _occupancy_log_pmf_reference(n):
    """The recursion updating all N + 1 entries at every draw."""
    log_p = np.full(n + 1, -np.inf)
    log_p[0] = 0.0
    ms = np.arange(n + 1, dtype=float)
    with np.errstate(divide="ignore"):
        log_stay = np.log(ms / n)
        log_step = np.log(1.0 - (ms - 1.0) / n)
    for _ in range(n):
        stay = log_p + log_stay
        grow = np.concatenate([[-np.inf], log_p[:-1]]) + log_step
        log_p = np.logaddexp(stay, grow)
    return log_p


@pytest.mark.parametrize("n", list(range(1, 41)) + [1000])
def test_occupancy_pmf_matches_full_length_recursion(n):
    # with lowest = 0 the window never narrows: every entry is exact
    assert np.array_equal(_occupancy_recursion(n, 0),
                          _occupancy_log_pmf_reference(n))


@pytest.mark.parametrize("n", [1, 2, 7, 100, 1000])
def test_occupancy_tail_window_matches_full_pmf(n):
    # p = 1e-20 rounds 1 - p to 1, so the cut is N + 1 > N: an empty tail
    for p in (1e-20, 0.001, 0.05, 0.1, 0.5, 0.99):
        cut = int(np.floor((1.0 - p) * n)) + 1
        want = float(logsumexp(_occupancy_log_pmf_reference(n)[cut:]))
        assert occupancy_log_tail(n, p) == want
    assert occupancy_log_tail(n, 1e-20) == -np.inf


def _occupancy_exact_counts(n):
    """The number of the N^N draw sequences that occupy m cells, m = 0..N,
    in exact integers: C(N, m) m! S(N, m), with the Stirling numbers of the
    second kind from S(j, m) = m S(j-1, m) + S(j-1, m-1)."""
    row = [1]  # S(0, .)
    for j in range(1, n + 1):
        row = [0] + [m * (row[m] if m < j else 0) + row[m - 1]
                     for m in range(1, j + 1)]
    return [math.comb(n, m) * math.factorial(m) * row[m]
            for m in range(n + 1)]


def _exact_log_ratio(num, den):
    """log(num / den) for integers 0 <= num <= den, with no float that
    underflows; log1p keeps a ratio near 1 accurate."""
    if num == 0:
        return -np.inf
    if 2 * num > den:
        return math.log1p(-((den - num) / den))
    return math.log(num) - math.log(den)


def _assert_log_close(got, want):
    # 1e-12 relative on the log, or on the probability when the log is
    # above -1
    if want == -np.inf:
        assert got == -np.inf
    else:
        assert abs(got - want) <= 1e-12 * max(abs(want), 1.0), (got, want)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 40, 100, 200, 400])
def test_occupancy_matches_exact_counts(n):
    # an oracle that shares no algorithm with the log-domain recursion
    counts = _occupancy_exact_counts(n)
    total = n ** n
    assert sum(counts) == total
    for got, num in zip(_occupancy_log_pmf_reference(n), counts):
        _assert_log_close(got, _exact_log_ratio(num, total))
    for p in (1e-20, 0.001, 0.05, 0.1, 0.5, 0.99):
        cut = int(np.floor((1.0 - p) * n)) + 1
        _assert_log_close(occupancy_log_tail(n, p),
                          _exact_log_ratio(sum(counts[cut:]), total))


def test_occupancy_tail_below_paper_bound():
    # log P[B_{p,N}] <= -c(p) N with c(p) = (1-p)^2/8 - p
    p = 0.05
    cp = (1 - p) ** 2 / 8 - p
    for n in [100, 400]:
        assert occupancy_log_tail(n, p) <= -cp * n


# --- empirical rates -------------------------------------------------------------

def test_empirical_w1_rate_d1_uniform():
    rows = empirical_w1_rate(1, [32, 64, 128, 256, 512], 60, seed=0)
    fit = fit_loglog([(float(n), mean) for n, mean, _, _ in rows])
    assert abs(fit.slope + 0.5) < 0.1


def test_empirical_w1_stderr_clt_scaling():
    rows1 = empirical_w1_rate(1, [64, 128, 256], 50, seed=5)
    rows4 = empirical_w1_rate(1, [64, 128, 256], 200, seed=5)
    for r1, r4 in zip(rows1, rows4):
        ratio = r1[2] / r4[2]
        assert abs(ratio - 2.0) < 0.8  # halving within 20%-ish of CLT


def test_substream_determinism():
    a = substream(7, 1, 2).standard_normal(4)
    b = substream(7, 1, 2).standard_normal(4)
    c = substream(7, 1, 3).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert np.any(a != c)


def test_cole_hopf_budget_exceeded():
    # 4096 particles against 64^2 targets: 16.8M atom pairs, past the LP
    # budget, so the first distance raises before its cost matrix is built
    cfg = ParticleRunConfig(n_particles=4096, replications=2, seed=0)
    with pytest.raises(BudgetExceeded, match="4096 x 4096"):
        cole_hopf_vn(0.25, 2, cfg)


def test_empirical_w1_rate_d2_log_corrected():
    # d = 2 sits between N^{-1/2} and N^{-1/2} log(1+N): the fitted slope is
    # shallower than -1/2 and sqrt(N)-rescaled means increase with N
    rows = empirical_w1_rate(2, [16, 64, 256, 1024], 40, seed=0)
    fit = fit_loglog([(float(n), mean) for n, mean, _, _ in rows])
    assert -0.52 <= fit.slope <= -0.34
    rescaled = [mean * np.sqrt(n) for n, mean, _, _ in rows]
    assert all(b > a for a, b in zip(rescaled, rescaled[1:]))
