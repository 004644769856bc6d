import numpy as np
import pytest

from mfclab.errors import CFLViolation, DimensionMismatch, ResolutionTooLow
from mfclab.functionals import cylindrical_functional, linear_functional
from mfclab import pde
from mfclab.pde import (
    MFCBatch,
    MFCProblem,
    _flow_distance,
    solve_fokker_planck,
    solve_hjb_semilinear,
    solve_mfc,
    solve_viscous_hj,
)
from mfclab.spectral import (
    GridField,
    SpectralMeasure,
    _complex_layout,
    _real_layout,
    empirical,
    hs_norm,
    lebesgue,
    random_measure,
)

from conftest import random_field
from grid_oracles import (
    expectation,
    flow_distance_complex,
    fokker_planck_complex,
    grid_gradient,
    heat_multiplier,
    solve_hjbn_small,
)


def cos_terminal(n=64, k=1, amp=1.0):
    x = np.arange(n) / n
    return GridField(amp * np.cos(2 * np.pi * k * x))


def assert_measure_flow(r):
    """Every frame of a real-layout flow r = (Re c_0..c_K, Im c_1..c_K)
    has c_0 == 1 exactly; the layout holds no k < 0 modes, so the
    Hermitian symmetry holds by construction."""
    assert r.dtype == np.float64
    assert np.all(r[..., 0] == 1.0)


# --- solve_fokker_planck --------------------------------------------------------

def test_fokker_planck_lebesgue_stationary():
    m0 = lebesgue(6)
    flow = _complex_layout(solve_fokker_planck(None, [m0], 0.0, 0.5,
                                               nt=100)[0])
    assert flow.shape == (101, 13)
    for c in flow[:: 20]:
        assert hs_norm(SpectralMeasure(6, c) - m0) < 1e-12


def test_fokker_planck_zero_drift_heat(rng):
    m0 = random_measure(6, rng)
    flow = _complex_layout(solve_fokker_planck(None, [m0], 0.0, 0.25,
                                               nt=200)[0])
    expected = heat_multiplier(m0, 0.25)
    assert hs_norm(SpectralMeasure(6, flow[-1]) - expected) < 1e-10


def test_fokker_planck_mass_exact(rng):
    m0 = random_measure(5, rng)
    n_pad = 2 * 11 + 1
    alpha = 0.8 * np.sin(2 * np.pi * np.arange(n_pad) / n_pad)
    flow = solve_fokker_planck(alpha, [m0], 0.0, 0.4, nt=300)[0]
    assert flow.shape == (301, 11)
    assert_measure_flow(flow)  # k = 0 mode untouched


def test_fokker_planck_matches_complex_oracle(rng):
    # the real-layout step against the complex-coefficient step, for every
    # drift shape; the flows keep c_0 == 1 exactly
    K, nt = 5, 60
    n = 2 * (2 * K + 1) + 1
    measures = [random_measure(K, rng) for _ in range(3)]
    x = np.arange(n) / n
    drift = 0.8 * np.sin(2 * np.pi * x + 0.3) + 0.3 * np.cos(4 * np.pi * x)
    ramp = np.linspace(0.5, 1.0, nt + 1)[:, None]
    amps = np.array([0.5, 1.0, -0.7])[:, None, None]
    for alpha in (None, drift, ramp * drift, amps * drift):
        got = solve_fokker_planck(alpha, measures, 0.0, 0.3, nt=nt)
        want = fokker_planck_complex(alpha, measures, 0.0, 0.3, nt=nt)
        assert got.shape == want.shape == (3, nt + 1, 2 * K + 1)
        assert np.abs(_complex_layout(got) - want).max() <= 1e-13
        assert_measure_flow(got)


def test_circle_solvers_refuse_backward_or_empty_time_grids(rng):
    # a backward step multiplies mode k by e^{+4 pi^2 k^2 |dt|}, so the
    # flows and frames blow up; nt = 0 leaves no step to take
    m = random_measure(5, rng)
    g = random_field(21, rng, max_mode=2)
    for t0, t1, nt in [(0.2, 0.0, 10), (0.1, 0.1, 10), (0.0, 0.2, 0),
                       (0.0, 0.2, -3)]:
        with pytest.raises(ValueError):
            solve_fokker_planck(None, [m], t0, t1, nt=nt)
        with pytest.raises(ValueError):
            solve_hjb_semilinear(g.values[None], t0, t1, nt=nt)
    prob = squared_pairing_problem(5, 0.1)
    for t0 in (0.1, 0.2):
        with pytest.raises(ValueError):
            solve_mfc(prob, t0, [m], nt=10)


def test_mfc_checks_its_own_inputs(rng):
    # nt and max_iter are refused by solve_mfc itself, before any sweep:
    # max_iter = 0 left no best iterate to return
    m = random_measure(5, rng)
    prob = squared_pairing_problem(5, 0.1)
    with pytest.raises(ValueError, match="solve_mfc"):
        solve_mfc(prob, 0.0, [m], nt=0)
    for max_iter in (0, -1):
        with pytest.raises(ValueError, match="solve_mfc.*max_iter"):
            solve_mfc(prob, 0.0, [m], nt=10, max_iter=max_iter)
    assert len(solve_mfc(prob, 0.0, [m], nt=10, max_iter=1)) == 1


def test_circle_solvers_refuse_nan_drift(rng):
    # a NaN speed compares false to every dt, so it must fail the CFL
    # test rather than return NaN flows; an infinite drift fails it too
    m = random_measure(5, rng)
    n = 2 * (2 * 5 + 1) + 1
    for bad in (np.nan, np.inf):
        with pytest.raises(CFLViolation):
            solve_fokker_planck(np.full(n, bad), [m], 0.0, 0.2, nt=20)


def test_fokker_planck_refuses_aliasing_resolution(rng):
    # below 2K+1 grid points the modes alias (5e-2 off at 5 points, 8e-4
    # at 8, for K = 5 and no drift); 2K+1 points still resolve the band
    K = 5
    m = random_measure(K, rng)
    for n in (5, 8, 2 * K):
        with pytest.raises(ResolutionTooLow):
            solve_fokker_planck(None, [m], 0.0, 0.1, nt=20, resolution=n)
    fine = solve_fokker_planck(None, [m], 0.0, 0.1, nt=20, resolution=41)
    exact = solve_fokker_planck(None, [m], 0.0, 0.1, nt=20,
                                resolution=2 * K + 1)
    assert np.abs(exact - fine).max() <= 1e-14


def test_fokker_planck_nonnegative_density(rng):
    m0 = random_measure(5, rng)
    n_pad = 23
    alpha = 0.5 * np.cos(2 * np.pi * np.arange(n_pad) / n_pad)
    flow = solve_fokker_planck(alpha, [m0], 0.0, 0.4, nt=300)[0]
    final = _complex_layout(flow[-1])
    assert SpectralMeasure(5, final).density_min() > -1e-8


def test_fokker_planck_stability_in_hs(rng):
    # sup_t |m1_t - m2_t|_{-s} <= C' |m1_0 - m2_0|_{-s}, one constant
    worst = 0.0
    for _ in range(10):
        m1 = random_measure(5, rng)
        m2 = random_measure(5, rng)
        n_pad = 23
        x = np.arange(n_pad) / n_pad
        amp = rng.uniform(0.2, 1.0)
        alpha = amp * np.sin(2 * np.pi * x + rng.uniform(0, 7))
        f1 = _complex_layout(
            solve_fokker_planck(alpha, [m1], 0.0, 0.3, nt=150)[0])
        f2 = _complex_layout(
            solve_fokker_planck(alpha, [m2], 0.0, 0.3, nt=150)[0])
        d0 = hs_norm(m1 - m2)
        dmax = max(hs_norm(SpectralMeasure(5, a) - SpectralMeasure(5, b))
                   for a, b in zip(f1, f2))
        worst = max(worst, dmax / d0)
    assert worst < 3.0


def test_flow_distance_matches_complex_oracle(rng):
    # the real weighted sum against sum_k |q_k|^2 / w_k, w_k = 1 + k^4,
    # on the complex coefficients of random Hermitian flows
    for K in (3, 6):
        w = 1.0 + np.arange(-K, K + 1) ** 4.0
        a = rng.normal(size=(4, 9, 2 * K + 1))
        b = rng.normal(size=(4, 9, 2 * K + 1))
        got = _flow_distance(a, b)
        want = flow_distance_complex(_complex_layout(a), _complex_layout(b),
                                     w)
        assert got.shape == want.shape == (4,)
        assert np.all(np.abs(got - want) <= 1e-14 * want)
        assert np.array_equal(_flow_distance(a, a.copy()), np.zeros(4))
    # a measure pair's flow distance at one frame is the H^{-s} norm
    m1, m2 = random_measure(4, rng), random_measure(4, rng)
    d = _flow_distance(_real_layout(m1.coeffs)[None, None],
                       _real_layout(m2.coeffs)[None, None])
    assert abs(d[0] - hs_norm(m1 - m2)) <= 1e-14 * d[0]


# --- solve_hjb_semilinear -------------------------------------------------------

def test_hjb_cole_hopf_oracle():
    # u = -2 log w with w solving the backward heat equation from
    # w(T) = exp(-g/2) solves -u_t - Lap u + |Du|^2/2 = 0 exactly; the
    # oracle is one heat multiplier, no HJB time stepping
    n, T = 64, 0.3
    x = np.arange(n) / n
    g = GridField(0.3 * np.cos(2 * np.pi * x)
                  + 0.15 * np.sin(4 * np.pi * x))
    w0 = heat_multiplier(GridField(np.exp(-0.5 * g.values)), T)
    exact = -2.0 * np.log(w0.values)
    errs = [np.abs(solve_hjb_semilinear(g.values[None], 0.0, T,
                                        nt=nt)[0, 0] - exact).max()
            for nt in (100, 400)]
    assert errs[0] < 3e-4 and errs[1] < 2e-5
    assert errs[0] / errs[1] > 12.0  # second order: 16 for a 4x finer step


def test_hjb_constant_terminal_invariant():
    n = 32
    g = GridField(np.full(n, 1.5))
    out = solve_hjb_semilinear(g.values[None], 0.0, 0.5, nt=100)[0]
    np.testing.assert_allclose(out[0], 1.5, atol=1e-12)


def test_hjb_self_convergence():
    # d=1, H = p^2/2, terminal cos(2 pi x): refined-resolution oracle
    g_c = cos_terminal(n=64)
    coarse = solve_hjb_semilinear(g_c.values[None], 0.0, 0.1, nt=200)[0]
    g_f = cos_terminal(n=128)
    fine = solve_hjb_semilinear(g_f.values[None], 0.0, 0.1, nt=800)[0]
    assert np.abs(coarse[0] - fine[0][::2]).max() < 1e-4


def test_hjb_comparison_monotonicity(rng):
    # increasing the terminal data increases the solution pointwise
    n = 64
    x = np.arange(n) / n
    g1 = GridField(np.cos(2 * np.pi * x))
    g2 = GridField(np.cos(2 * np.pi * x) + 0.3 + 0.1 * np.sin(2 * np.pi * x))
    u1 = solve_hjb_semilinear(g1.values[None], 0.0, 0.2, nt=200)[0]
    u2 = solve_hjb_semilinear(g2.values[None], 0.0, 0.2, nt=200)[0]
    assert np.all(u2[0] >= u1[0] - 1e-9)


# --- solve_mfc ------------------------------------------------------------------

def linear_terminal_problem(K=6, amp=0.5):
    phi = cos_terminal(n=64, amp=amp)
    G = linear_functional(phi, cutoff=K)
    return MFCProblem(G, horizon=0.4), phi


def test_mfc_zero_costs():
    K = 4
    zero = linear_functional(GridField(np.zeros(32)), cutoff=K)
    prob = MFCProblem(zero, horizon=0.3)
    m0 = lebesgue(K)
    sol = solve_mfc(prob, 0.0, [m0], nt=60)[0]
    assert abs(sol.value) < 1e-10
    assert np.abs(sol.alpha).max() < 1e-8
    assert sol.certified


def test_mfc_decoupled_linear_terminal(rng):
    # G linear: the HJB decouples; the value must match the verification
    # identity U = <u(t0), m0> + mean(phi)  [decoupled-solve oracle]
    prob, phi = linear_terminal_problem()
    m0 = random_measure(6, rng)
    sol = solve_mfc(prob, 0.0, [m0], nt=120, tol=1e-9)[0]
    assert sol.certified
    u0 = GridField(sol.u[0])
    identity = expectation(m0, u0) + phi.values.mean()
    assert abs(sol.value - identity) < 2e-3


def test_mfc_feedback_is_optimal_form(rng):
    # alpha frames re-verified against -Du pointwise
    prob, _ = linear_terminal_problem()
    m0 = random_measure(6, rng)
    sol = solve_mfc(prob, 0.0, [m0], nt=80)[0]
    for j in [0, 40, 80]:
        expected = -grid_gradient(GridField(sol.u[j]))
        np.testing.assert_allclose(sol.alpha[j], expected, atol=1e-12)


def test_mfc_feedback_interpolates_between_frames(rng):
    # on the grid nodes the trigonometric evaluation returns the frame, so
    # between two frames feedback_at must return their linear interpolant
    # short horizon: the heat semigroup leaves the feedback O(1) at t = 0
    prob = MFCProblem(linear_terminal_problem()[0].terminal_cost, 0.1)
    m0 = random_measure(6, rng)
    sol = solve_mfc(prob, 0.0, [m0], nt=40)[0]
    n = sol.alpha.shape[-1]
    nodes = np.arange(n) / n
    ts = sol.times
    for j, lam in [(0, 0.25), (17, 0.5), (39, 0.9)]:
        assert np.abs(sol.alpha[j + 1] - sol.alpha[j]).max() > 1e-3
        t = (1 - lam) * ts[j] + lam * ts[j + 1]
        want = (1 - lam) * sol.alpha[j] + lam * sol.alpha[j + 1]
        np.testing.assert_allclose(sol.feedback_at(t, nodes), want,
                                   rtol=0, atol=1e-12)
    for t, frame in [(ts[0] - 1.0, 0), (ts[-1] + 1.0, -1)]:
        np.testing.assert_allclose(sol.feedback_at(t, nodes),
                                   sol.alpha[frame], rtol=0, atol=1e-12)


def test_mfc_flow_mass_and_positivity(rng):
    prob, _ = linear_terminal_problem()
    m0 = random_measure(6, rng)
    sol = solve_mfc(prob, 0.0, [m0], nt=120)[0]
    assert sol.flow.shape == (121, 13)
    # the complex flow: c_0 == 1 and c_{-k} == conj(c_k), exactly
    assert np.all(sol.flow[:, 6] == 1.0)
    assert np.array_equal(sol.flow, np.conj(sol.flow[:, ::-1]))
    for c in sol.flow[:: 30]:
        assert SpectralMeasure(6, c).density_min() > -1e-6


def test_mfc_regularity_lipschitz_in_m(rng):
    # |U(t, m1) - U(t, m2)| <= C |m1 - m2|_{-s} with one fitted constant
    prob, _ = linear_terminal_problem()
    vals = []
    for _ in range(6):
        m1 = random_measure(6, rng)
        m2 = random_measure(6, rng)
        s1 = solve_mfc(prob, 0.0, [m1], nt=80, tol=1e-7)[0]
        s2 = solve_mfc(prob, 0.0, [m2], nt=80, tol=1e-7)[0]
        vals.append(abs(s1.value - s2.value) / hs_norm(m1 - m2))
    assert max(vals) < 10.0


# --- batch axis: lockstep solves match one-by-one solves ---------------------

def assert_rel_close(got, want, rtol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * max(np.abs(want).max(), 1e-300)


def test_hjb_batch_matches_single_calls(rng):
    n = 32
    terminals = np.stack([random_field(n, rng, max_mode=2,
                                       amplitude=0.3).values
                          for _ in range(3)])
    batch = solve_hjb_semilinear(terminals, 0.0, 0.1, nt=50)
    assert batch.shape == (3, 51, n)
    for g, got in zip(terminals, batch):
        want = solve_hjb_semilinear(g[None], 0.0, 0.1, nt=50)[0]
        assert_rel_close(got, want)


def test_batch_members_must_agree(rng):
    # the HJB takes one (B, n) terminal array and refuses what a GridField
    # refused: another shape, fewer than 4 points, non-finite values
    g = random_field(16, rng, max_mode=2).values
    for bad in (g, g[None, None], [], np.empty((0, 16))):
        with pytest.raises(DimensionMismatch):
            solve_hjb_semilinear(bad, 0.0, 0.1, nt=10)
    with pytest.raises(ResolutionTooLow):
        solve_hjb_semilinear(np.zeros((2, 3)), 0.0, 0.1, nt=10)
    for value in (np.nan, np.inf):
        bad = np.stack([g, g])
        bad[1, 5] = value
        with pytest.raises(ValueError):
            solve_hjb_semilinear(bad, 0.0, 0.1, nt=10, check_cfl=False)
    for bad in ([], [lebesgue(4), lebesgue(5)]):
        with pytest.raises(DimensionMismatch):
            solve_fokker_planck(None, bad, 0.0, 0.1, nt=10)


def test_fokker_planck_batch_matches_single_calls(rng):
    # every drift shape a batch accepts, against single calls that take
    # the member's drift in another accepted shape
    K = 4
    n = 2 * (2 * K + 1) + 1
    nt = 80
    measures = [random_measure(K, rng) for _ in range(3)]
    drifts = np.stack([0.8 * random_field(n, rng, max_mode=2).values
                       for _ in range(3)])
    ramp = np.linspace(0.5, 1.0, nt + 1)[:, None]
    per_time = ramp * drifts[0]  # (nt+1, n)
    per_member_time = ramp * drifts[:, None]  # (B, nt+1, n)
    cases = [
        (drifts[0], [drifts[0]] * 3),
        (per_time, [per_time] * 3),
        (drifts[:, None], drifts),
        (per_member_time, per_member_time),
    ]
    for alpha, singles in cases:
        batch = solve_fokker_planck(alpha, measures, 0.0, 0.2, nt=nt)
        assert batch.shape == (3, nt + 1, 2 * K + 1)
        assert_measure_flow(batch)
        for got, m0, a in zip(batch, measures, singles):
            want = solve_fokker_planck(a, [m0], 0.0, 0.2, nt=nt)[0]
            assert_rel_close(got, want)
    # a drift constant in time is the same drift given once
    steady = np.broadcast_to(drifts[0], (nt + 1,) + drifts[0].shape)
    assert np.array_equal(
        solve_fokker_planck(steady, measures, 0.0, 0.2, nt=nt),
        solve_fokker_planck(drifts[0], measures, 0.0, 0.2, nt=nt))
    # member drifts without the time axis are not a drift per time
    for bad in (drifts[:2, None], per_time[:-1], drifts):
        with pytest.raises(ValueError):
            solve_fokker_planck(bad, measures, 0.0, 0.2, nt=nt)


def squared_pairing_problem(K, horizon):
    """G(m) = m(phi)^2 with a mean-zero phi: dG/dm vanishes at Lebesgue,
    whose drift-free flow is then the fixed point of the first sweep."""
    G = cylindrical_functional(
        [cos_terminal(n=64)], outer=lambda v: v[0] ** 2,
        outer_grad=lambda v: np.array([2 * v[0]]), cutoff=K)
    return MFCProblem(G, horizon)


def test_mfc_batch_matches_single_calls(rng, monkeypatch):
    # members converge at different sweeps: Lebesgue after the first, so
    # the lockstep active set must shrink mid-run
    K = 4
    prob = squared_pairing_problem(K, 0.1)
    measures = [random_measure(K, rng), lebesgue(K), random_measure(K, rng)]
    kw = dict(nt=40, tol=1e-8, max_iter=100)
    singles = [solve_mfc(prob, 0.0, [m], **kw)[0] for m in measures]

    sweep_sizes = []
    hjb = pde.solve_hjb_semilinear

    def counting_hjb(g, *args, **kwargs):
        sweep_sizes.append(len(g))
        return hjb(g, *args, **kwargs)

    monkeypatch.setattr(pde, "solve_hjb_semilinear", counting_hjb)
    batch = solve_mfc(prob, 0.0, measures, **kw)
    assert isinstance(batch, MFCBatch) and len(batch) == 3
    assert sweep_sizes[:2] == [3, 2]
    assert sweep_sizes == sorted(sweep_sizes, reverse=True)
    for got, want in zip(batch, singles):
        assert_rel_close(got.value, want.value)
        assert_rel_close(got.picard_residual, want.picard_residual)
        assert got.certified == want.certified
        assert_rel_close(got.alpha, want.alpha)
    assert batch.certified
    assert batch.picard_residual == max(s.picard_residual for s in singles)


def test_mfc_batch_reports_uncertified_member(rng):
    # Lebesgue is certified at the first sweep; two sweeps leave the
    # other member far from its fixed point
    prob = squared_pairing_problem(4, 0.4)
    batch = solve_mfc(prob, 0.0, [lebesgue(4), random_measure(4, rng)],
                      nt=40, tol=1e-10, max_iter=2)
    assert batch[0].certified and not batch[1].certified
    assert not batch.certified
    assert batch.picard_residual == batch[1].picard_residual > 1e-10


def _per_frame_value(problem, sol):
    """The running cost as one expectation per frame, then the terminal
    cost: the quadrature solve_mfc applies to the whole flow at once."""
    K = sol.flow.shape[-1] // 2
    lag = 0.5 * sol.alpha ** 2
    running = [expectation(SpectralMeasure(K, c), GridField(lj))
               for c, lj in zip(sol.flow, lag)]
    value = float(np.trapezoid(running, sol.times))
    return value + problem.terminal_cost(SpectralMeasure(K, sol.flow[-1]))


def test_mfc_value_matches_per_frame_quadrature(rng):
    K = 4
    phi = random_field(16, rng, max_mode=2, amplitude=0.4)
    prob = MFCProblem(linear_functional(phi, cutoff=K), horizon=0.2)
    measures = [random_measure(K, rng) for _ in range(2)]
    sols = solve_mfc(prob, 0.0, measures, nt=30, tol=1e-8)
    for sol in sols:
        assert sol.flow.shape == (31, 2 * K + 1)
        assert sol.value == _per_frame_value(prob, sol)


# --- solve_viscous_hj -----------------------------------------------------------

def test_viscous_hj_constant_terminal():
    sol = solve_viscous_hj(lambda x: np.ones_like(x), nu=0.05, horizon=0.5,
                           theta=1.0, half_width=2.0, n=801)
    np.testing.assert_allclose(sol.values, 1.0, atol=1e-10)


def test_viscous_hj_rejects_nonpositive_theta():
    for theta in (0.0, -1.0):
        with pytest.raises(ValueError, match="theta"):
            solve_viscous_hj(np.abs, nu=0.1, horizon=0.1, theta=theta,
                             half_width=1.0, n=51)


def test_viscous_hj_quadratic_closed_form():
    # H = p^2/2, G = x^2/2: v_nu(t, x) = x^2/(2 (1+tau)) + nu log(1+tau).
    # The Lax-Friedrichs dissipation acts like theta dx / 2 of extra
    # viscosity, so the grid must keep that well below nu.
    nu = 0.2
    T = 0.5
    errs = []
    for n in (6401, 12801):
        sol = solve_viscous_hj(lambda x: 0.5 * x ** 2, nu=nu, horizon=T,
                               theta=4.3, half_width=4.0, n=n)
        x = sol.x
        center = np.abs(x) <= 1.0
        exact = x ** 2 / (2 * (1 + T)) + nu * np.log(1 + T)
        errs.append(np.abs(sol.values - exact)[center].max())
    assert errs[1] < 1.2e-3
    assert errs[1] < 0.7 * errs[0]  # first-order refinement gain


# Closed-form references on criterion 2's geometry: T = 0.4, errors on
# |x| <= 1, the kink g = min(|x|, 0.8) (theta = 1.8) and the smooth
# g = x^2/2 (theta = 3.3). The kink is four linear pieces a y + b on
# [l, u]; each reference works piece by piece.
_WINDOW_T = 0.4
_KINK_PIECES = ((0.0, 0.8, -np.inf, -0.8), (-1.0, 0.0, -0.8, 0.0),
                (1.0, 0.0, 0.0, 0.8), (0.0, 0.8, 0.8, np.inf))


def _kink(x):
    return np.minimum(np.abs(x), 0.8)


def _hopf_lax_kink(x):
    """v_0 = min_y {g(y) + (x - y)^2 / (2T)}; on a piece the minimizer is
    x - a T clipped to [l, u]."""
    vals = []
    for a, b, lo, hi in _KINK_PIECES:
        y = np.clip(x - a * _WINDOW_T, lo, hi)
        vals.append(a * y + b + (x - y) ** 2 / (2 * _WINDOW_T))
    return np.min(vals, axis=0)


def _cole_hopf_kink(x, nu):
    """v_nu = -2 nu log E[exp(-g(x + sigma Z) / (2 nu))], sigma^2 = 2 nu T
    (Hopf, CPAM 3, 1950; Cole, Q. Appl. Math. 9, 1951). A piece adds
    exp(-(a x + b) / (2 nu) + c^2 / 2) (Phi(U - c) - Phi(L - c)) with
    c = -a sigma / (2 nu), L = (l - x) / sigma and U = (u - x) / sigma."""
    from scipy.special import log_ndtr, logsumexp

    sigma = np.sqrt(2 * nu * _WINDOW_T)
    logs = []
    for a, b, lo, hi in _KINK_PIECES:
        c = -a * sigma / (2 * nu)
        left, right = (lo - x) / sigma - c, (hi - x) / sigma - c
        # log(Phi(right) - Phi(left)) on the tail where it keeps its digits
        upper = left > 0
        big = np.where(upper, log_ndtr(-left), log_ndtr(right))
        small = np.where(upper, log_ndtr(-right), log_ndtr(left))
        logs.append(-(a * x + b) / (2 * nu) + c * c / 2
                    + big + np.log1p(-np.exp(small - big)))
    return -2 * nu * logsumexp(logs, axis=0)


def test_window_references_match_direct_evaluation():
    # the closed forms against a dense minimum and a direct quadrature,
    # whose rectangle rule is good to about 1e-8 across the kinks
    x = np.linspace(-1.0, 1.0, 41)
    y = np.linspace(-3.0, 3.0, 60001)
    dense = np.min(_kink(y) + (x[:, None] - y) ** 2 / (2 * _WINDOW_T),
                   axis=1)
    assert np.abs(_hopf_lax_kink(x) - dense).max() < 1e-9
    nu = 0.1
    z = np.linspace(-12.0, 12.0, 48001)
    gauss = np.exp(-z * z / 2)
    sigma = np.sqrt(2 * nu * _WINDOW_T)
    quad = [-2 * nu * np.log(np.sum(gauss * np.exp(-_kink(xi + sigma * z)
                                                   / (2 * nu)))
                             / np.sum(gauss)) for xi in x]
    assert np.abs(_cole_hopf_kink(x, nu) - quad).max() < 1e-7


# the cases of the refinement study, n = 2001, 4001 and 8001
_REFINED = (("kink", 0.0), ("kink", 0.1), ("smooth", 0.1))


@pytest.fixture(scope="module")
def window_errors():
    """Sup error on |x| <= 1 against the closed forms, keyed by
    (case, nu, n): every nu of the vanishing-viscosity experiment at
    n = 8001, and the coarser grids for the refinement study."""
    from mfclab.harness import EXPERIMENTS

    defaults = EXPERIMENTS["vanishing-viscosity"].defaults
    runs = [("kink", nu, 8001) for nu in [0.0] + defaults["nus_kink"]]
    runs += [("smooth", nu, 8001) for nu in defaults["nus_smooth"]]
    runs += [(case, nu, n) for case, nu in _REFINED for n in (2001, 4001)]
    errors = {}
    for case, nu, n in runs:
        if case == "kink":
            sol = solve_viscous_hj(_kink, nu=nu, horizon=_WINDOW_T,
                                   theta=1.8, n=n)
            exact = (_hopf_lax_kink(sol.x) if nu == 0
                     else _cole_hopf_kink(sol.x, nu))
        else:
            sol = solve_viscous_hj(lambda x: 0.5 * x ** 2, nu=nu,
                                   horizon=_WINDOW_T, theta=3.3, n=n)
            exact = (sol.x ** 2 / (2 * (1 + _WINDOW_T))
                     + nu * np.log(1 + _WINDOW_T))
        inside = np.abs(sol.x) <= 1.0
        errors[case, nu, n] = np.abs(sol.values - exact)[inside].max()
    return errors


# sup errors at n = 8001 as measured (Lax-Friedrichs flux); each bound
# gives them a 25% margin
_WINDOW_ERROR_8001 = {
    ("kink", 0.0): 4.12e-3, ("kink", 0.1): 6.30e-4,
    ("kink", 0.0316227766): 1.08e-3, ("kink", 0.01): 1.66e-3,
    ("kink", 0.0031622777): 2.32e-3, ("kink", 0.001): 2.97e-3,
    ("smooth", 0.1): 4.15e-4, ("smooth", 0.0316227766): 4.16e-4,
    ("smooth", 0.01): 4.16e-4,
}


def test_viscous_hj_matches_closed_forms(window_errors):
    for (case, nu), measured in _WINDOW_ERROR_8001.items():
        assert window_errors[case, nu, 8001] < 1.25 * measured, (case, nu)


def test_viscous_hj_first_order_refinement(window_errors):
    # halving dx halves the error: 0.50-0.57 per step as measured
    for case, nu in _REFINED:
        errs = [window_errors[case, nu, n] for n in (2001, 4001, 8001)]
        for coarse, fine in zip(errs, errs[1:]):
            assert 0.45 < fine / coarse < 0.6, (case, nu, errs)


def test_viscous_hj_vanishing_viscosity_rate():
    # Lipschitz kink terminal: sup |v_nu - v_0| decreasing, slope in window
    ref = solve_viscous_hj(_kink, nu=0.0, horizon=0.5, theta=2.5,
                           half_width=3.0, n=6001)
    errs = []
    nus = [0.1, 0.0316, 0.01]
    for nu in nus:
        sol = solve_viscous_hj(_kink, nu=nu, horizon=0.5, theta=2.5,
                               half_width=3.0, n=6001)
        center = np.abs(sol.x) <= 1.5
        errs.append(np.abs(sol.values - ref.values)[center].max())
    assert errs[0] > errs[1] > errs[2]
    slope = np.polyfit(np.log(nus), np.log(errs), 1)[0]
    assert 0.4 < slope < 1.1


def test_viscous_hj_rejects_theta_below_terminal_slope():
    # the kink has slope 1; below it the Lax-Friedrichs step overflows
    for theta in (0.3, 0.6):
        with pytest.raises(ValueError, match="theta"):
            solve_viscous_hj(_kink, nu=0.0, horizon=_WINDOW_T, theta=theta,
                             n=2001)
    sol = solve_viscous_hj(_kink, nu=0.0, horizon=_WINDOW_T, theta=1.0,
                           n=2001)
    assert np.isfinite(sol.values).all()


def _viscous_hj_reference(g, nu, dx, dt, theta, nt):
    """The scheme with a tridiagonal solve refactoring the matrix at every
    step (LAPACK ``ptsv``: ``pttrf`` then ``pttrs``)."""
    from scipy.linalg.lapack import dptsv
    n = len(g)
    lam = nu * dt / dx ** 2
    diag = np.full(n, 1 + 2 * lam)
    diag[0] = diag[-1] = 1 + lam
    off = np.full(n - 1, -lam)
    v = g.copy()
    for _ in range(nt):
        dminus = np.empty(n)
        dplus = np.empty(n)
        dminus[1:] = (v[1:] - v[:-1]) / dx
        dplus[:-1] = dminus[1:]
        dminus[0] = 0.0
        dplus[-1] = 0.0
        p = 0.5 * (dminus + dplus)
        v = v - dt * (0.5 * p ** 2 - 0.5 * theta * (dplus - dminus))
        if nu > 0:
            v = dptsv(diag, off, v)[2]
    return v


@pytest.mark.parametrize("nu", [0.05, 0.0, 0.002])
def test_viscous_hj_matches_banded_reference(nu):
    def terminal(x):
        return np.minimum(np.abs(x), 0.7)

    n, horizon, half_width, theta = 201, 0.3, 2.0, 1.7
    sol = solve_viscous_hj(terminal, nu=nu, horizon=horizon, theta=theta,
                           half_width=half_width, n=n)
    x = np.linspace(-half_width, half_width, n)
    dx = x[1] - x[0]
    nt = int(np.ceil(horizon / (0.45 * dx / theta)))
    ref = _viscous_hj_reference(terminal(x), nu, dx, horizon / nt, theta, nt)
    assert np.array_equal(sol.values, ref)


def test_viscous_hj_failed_factorization_raises(monkeypatch):
    from mfclab.errors import MFCLabError

    def singular(d, e):
        return d, e, 3

    monkeypatch.setattr("scipy.linalg.lapack.dpttrf", singular)
    with pytest.raises(MFCLabError, match="factorization"):
        solve_viscous_hj(np.abs, nu=0.1, horizon=0.1, theta=2.5,
                         half_width=1.0, n=51)


# --- the exact V^N oracle (grid_oracles.solve_hjbn_small) -----------------------

def test_hjbn_zero_costs():
    K = 4
    zero = linear_functional(GridField(np.zeros(32)), cutoff=K)
    prob = MFCProblem(zero, horizon=0.3)
    sol = solve_hjbn_small(prob, 2, n=24)
    assert np.abs(sol.frame_t0).max() < 1e-10


def test_hjbn_permutation_symmetry(rng):
    K = 5
    phi = cos_terminal(n=64)
    G = cylindrical_functional(
        [phi], outer=lambda v: v[0] ** 2,
        outer_grad=lambda v: np.array([2 * v[0]]), cutoff=K)
    prob = MFCProblem(G, horizon=0.25)
    sol = solve_hjbn_small(prob, 2, n=32)
    np.testing.assert_allclose(sol.frame_t0, sol.frame_t0.T, atol=1e-9)


def test_hjbn_n1_matches_mfc_linear(rng):
    # N=1 with linear costs: V^1(t0, x) = U(t0, delta_x)
    K = 5
    phi = cos_terminal(n=64, amp=0.4)
    G = linear_functional(phi, cutoff=K)
    prob = MFCProblem(G, horizon=0.3)
    sol1 = solve_hjbn_small(prob, 1, n=64)
    for x0 in [0.2, 0.55]:
        m0 = empirical([x0], cutoff=K)
        mfc = solve_mfc(prob, 0.0, [m0], nt=100, tol=1e-8)[0]
        assert abs(sol1.value_at([x0]) - mfc.value) < 5e-3


def test_hjbn_jensen_convex_ordering(rng):
    # convex costs: U(t, m_x^N) <= V^N(t, x) + grid tolerance (N = 2)
    K = 5
    phi = cos_terminal(n=64, amp=0.6)
    G = cylindrical_functional(
        [phi], outer=lambda v: v[0] ** 2,
        outer_grad=lambda v: np.array([2 * v[0]]),
        cutoff=K, outer_grad_bound=2.0, outer_hess_bound=2.0)
    prob = MFCProblem(G, horizon=0.25)
    sol2 = solve_hjbn_small(prob, 2, n=40)
    for _ in range(3):
        x = rng.uniform(size=2)
        m0 = empirical(x, cutoff=K)
        mfc = solve_mfc(prob, 0.0, [m0], nt=100, tol=1e-7)[0]
        assert mfc.value <= sol2.value_at(x) + 2e-2


def test_hjbn_grid_too_coarse():
    K = 4
    zero = linear_functional(GridField(np.zeros(32)), cutoff=K)
    prob = MFCProblem(zero, horizon=0.2)
    with pytest.raises(ValueError, match="n >= 8"):
        solve_hjbn_small(prob, 2, n=4)
