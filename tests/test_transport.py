import numpy as np
import pytest
from scipy.optimize import linprog

from grid_oracles import circle_w1
from mfclab.errors import BudgetExceeded, DimensionUnsupported
from mfclab.spectral import lebesgue, to_density
from mfclab.transport import (
    PointCloud,
    euclidean_distance_matrix,
    gaussian_product_quantile_cloud,
    gaussian_quantile_cloud,
    sorted_w1_1d,
    torus_distance_matrix,
    uniform_torus_quantile_cloud,
    w1_circle,
    w1_discrete,
)

from mfclab.spectral import random_measure


# --- independent oracle: dense LP -------------------------------------------

def lp_transport_oracle(cost, a, b):
    """Exact OT value by the full dense LP (equality-constrained linprog)."""
    na, nb = cost.shape
    A_eq = []
    for i in range(na):
        row = np.zeros((na, nb))
        row[i, :] = 1.0
        A_eq.append(row.ravel())
    for j in range(nb):
        col = np.zeros((na, nb))
        col[:, j] = 1.0
        A_eq.append(col.ravel())
    A_eq = np.array(A_eq)
    b_eq = np.concatenate([a, b])
    res = linprog(cost.ravel(), A_eq=A_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    assert res.status == 0
    return res.fun


# --- w1_circle ---------------------------------------------------------------

def test_w1_circle_identical_measures(rng):
    pc = PointCloud(1, rng.uniform(size=(9, 1)), rng.dirichlet(np.ones(9)))
    assert w1_circle(pc, pc) < 1e-12


def test_w1_circle_antipodal_diracs():
    a = PointCloud(1, [[0.0]])
    b = PointCloud(1, [[0.5]])
    assert abs(w1_circle(a, b) - 0.5) < 1e-14


def test_w1_circle_wraparound():
    a = PointCloud(1, [[0.0]])
    b = PointCloud(1, [[0.9]])
    assert abs(w1_circle(a, b) - 0.1) < 1e-14


def test_w1_circle_rejects_2d():
    planar = PointCloud(2, [[0.1, 0.2], [0.6, 0.3]])
    for pair in ((planar, planar), (planar, lebesgue(3))):
        with pytest.raises(DimensionUnsupported):
            w1_circle(*pair)


def test_w1_circle_atoms_vs_uniform_exact():
    # two antipodal atoms vs Lebesgue: by symmetry each atom collects mass
    # 1/2 from its half-circle; cost = 2 * 2*int_0^{1/4} t dt = 1/8
    pc = PointCloud(1, [[0.0], [0.5]])
    got = w1_circle(pc, lebesgue(4))
    assert abs(got - 0.125) < 1e-14


def test_w1_circle_atoms_vs_uniform_matches_discrete_quantization(rng):
    pts = rng.uniform(size=7)
    exact = w1_circle(PointCloud(1, pts[:, None]), lebesgue(4))
    # oracle: quantize Lebesgue very finely and solve the atomic problem
    quant, _ = uniform_torus_quantile_cloud(1, 4096)
    approx = w1_circle(PointCloud(1, pts[:, None]), quant)
    assert abs(exact - approx) < 1e-3


def test_w1_circle_smooth_measures_match_atom_quantization(rng):
    # the grid oracle on smooth measures against the atomic closed form
    m1 = random_measure(4, rng)
    m2 = random_measure(4, rng)
    got = circle_w1(m1, m2)
    # quantize both densities onto a fine grid and sweep atoms
    n = 4096
    x = (np.arange(n) + 0.5) / n
    w1 = to_density(m1, n).values
    w2 = to_density(m2, n).values
    w1 = np.maximum(w1, 0); w1 /= w1.sum()
    w2 = np.maximum(w2, 0); w2 /= w2.sum()
    ref = w1_circle(PointCloud(1, x[:, None], w1), PointCloud(1, x[:, None], w2))
    assert abs(got - ref) < 2e-3


def test_w1_circle_rejects_smooth_operands(rng):
    # closed forms only: atoms against atoms or against Lebesgue
    pc = PointCloud(1, [[0.2], [0.6]])
    m = random_measure(4, rng)
    for pair in ((pc, m), (m, pc), (m, m), (lebesgue(4), lebesgue(4)),
                 (pc, to_density(m, 16))):
        with pytest.raises(ValueError, match="closed forms"):
            w1_circle(*pair)


def test_w1_circle_symmetry_and_triangle(rng):
    ms = [PointCloud(1, rng.uniform(size=(n, 1)), rng.dirichlet(np.ones(n)))
          for n in (5, 8, 11)]
    d01 = w1_circle(ms[0], ms[1])
    d10 = w1_circle(ms[1], ms[0])
    d02 = w1_circle(ms[0], ms[2])
    d12 = w1_circle(ms[1], ms[2])
    assert abs(d01 - d10) < 1e-9
    assert d02 <= d01 + d12 + 1e-9


# --- w1_discrete -------------------------------------------------------------

def test_w1_discrete_identical_clouds(rng):
    pts = rng.uniform(size=(8, 2))
    pc = PointCloud(2, pts)
    assert w1_discrete(pc, pc, metric="euclidean") < 1e-12


def test_w1_discrete_two_points_1d():
    a = PointCloud(1, [[0.0]])
    b = PointCloud(1, [[0.3]])
    assert abs(w1_discrete(a, b, metric="euclidean") - 0.3) < 1e-15


def test_w1_discrete_matches_lp_oracle_uniform(rng):
    pts_a = rng.uniform(size=(50, 2))
    pts_b = rng.uniform(size=(50, 2))
    a, b = PointCloud(2, pts_a), PointCloud(2, pts_b)
    got = w1_discrete(a, b, metric="euclidean")
    cost = euclidean_distance_matrix(pts_a, pts_b)
    oracle = lp_transport_oracle(cost, a.weights, b.weights)
    assert abs(got - oracle) < 1e-9


def test_w1_discrete_matches_lp_oracle_weighted(rng):
    pts_a = rng.uniform(size=(11, 2))
    pts_b = rng.uniform(size=(13, 2))
    wa = rng.uniform(0.5, 1.5, size=11)
    wa /= wa.sum()
    wb = rng.uniform(0.5, 1.5, size=13)
    wb /= wb.sum()
    a = PointCloud(2, pts_a, wa)
    b = PointCloud(2, pts_b, wb)
    got = w1_discrete(a, b, metric="euclidean")
    oracle = lp_transport_oracle(
        euclidean_distance_matrix(pts_a, pts_b), wa, wb)
    assert abs(got - oracle) < 1e-9


def test_w1_discrete_weighted_torus_matches_lp_oracle(rng):
    pts_a = rng.uniform(size=(9, 2))
    pts_b = rng.uniform(size=(12, 2))
    wa = rng.dirichlet(np.ones(9))
    wb = rng.dirichlet(np.ones(12))
    a = PointCloud(2, pts_a, wa)
    b = PointCloud(2, pts_b, wb)
    got = w1_discrete(a, b, metric="torus")
    oracle = lp_transport_oracle(
        torus_distance_matrix(pts_a, pts_b), wa, wb)
    assert abs(got - oracle) < 1e-9


def test_w1_discrete_1d_sort_matches_lp(rng):
    xa = rng.uniform(size=6)
    xb = rng.uniform(size=9)
    wa = rng.dirichlet(np.ones(6))
    wb = rng.dirichlet(np.ones(9))
    got = sorted_w1_1d(xa, wa, xb, wb)
    oracle = lp_transport_oracle(
        np.abs(xa[:, None] - xb[None, :]), wa, wb)
    assert abs(got - oracle) < 1e-10


def test_w1_discrete_budget():
    a = PointCloud(1, np.zeros((3000, 1)))
    b = PointCloud(1, np.ones((3000, 1)))
    with pytest.raises(BudgetExceeded):
        w1_discrete(a, b, metric="euclidean")


def test_w1_discrete_symmetry_triangle(rng):
    clouds = [PointCloud(2, rng.uniform(size=(15, 2))) for _ in range(3)]
    d01 = w1_discrete(clouds[0], clouds[1], metric="torus")
    d10 = w1_discrete(clouds[1], clouds[0], metric="torus")
    d02 = w1_discrete(clouds[0], clouds[2], metric="torus")
    d12 = w1_discrete(clouds[1], clouds[2], metric="torus")
    assert abs(d01 - d10) < 1e-9
    assert d02 <= d01 + d12 + 1e-9


def test_circle_formula_matches_assignment(rng):
    # the CDF-median formula and the assignment solver answer the same
    # question on matched uniform clouds
    pts_a = rng.uniform(size=16)
    pts_b = rng.uniform(size=16)
    a = PointCloud(1, pts_a[:, None])
    b = PointCloud(1, pts_b[:, None])
    d_formula = w1_discrete(a, b, metric="torus")
    cost = torus_distance_matrix(a.points, b.points)
    from scipy.optimize import linear_sum_assignment
    rows, cols = linear_sum_assignment(cost)
    assert abs(d_formula - cost[rows, cols].mean()) < 1e-12


# --- ground metrics: bit-identity with the broadcast formula -----------------

def _torus_reference(xa, xb):
    delta = np.abs(xa[:, None, :] - xb[None, :, :]) % 1.0
    delta = np.minimum(delta, 1.0 - delta)
    return np.sqrt((delta ** 2).sum(axis=-1))


def _euclidean_reference(xa, xb):
    diff = xa[:, None, :] - xb[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_distance_matrices_match_broadcast_reference(rng, dim):
    # inside [0, 1), outside it and negative, at several scales; then
    # product-grid targets, whose coordinates repeat for d >= 2, as
    # placed and shifted by whole numbers out of [0, 1)
    grid = uniform_torus_quantile_cloud(dim, 5)[0].points
    clouds = [
        (rng.uniform(size=(37, dim)), rng.uniform(size=(23, dim))),
        (rng.uniform(-3.0, 4.0, size=(29, dim)),
         rng.normal(scale=5.0, size=(41, dim))),
        (rng.normal(scale=1e-3, size=(17, dim)) - 2.0,
         rng.uniform(-250.0, 250.0, size=(19, dim))),
        (rng.uniform(size=(31, dim)), grid),
        (rng.uniform(-2.0, 3.0, size=(31, dim)),
         grid + np.array([2.0, -3.0, 7.0])[:dim]),
    ]
    for xa, xb in clouds:
        assert np.array_equal(torus_distance_matrix(xa, xb),
                              _torus_reference(xa, xb))
        assert np.array_equal(euclidean_distance_matrix(xa, xb),
                              _euclidean_reference(xa, xb))


# --- weighted w1_discrete against oracles that share no algorithm -----------

@pytest.mark.parametrize("metric", ["euclidean", "torus"])
def test_w1_discrete_weighted_collinear_matches_line_sweep(rng, metric):
    # clouds on one segment of direction u: the transport cost is the 1-D
    # one of the positions t along it. The segment is short enough (per-axis
    # gaps < 1/2) that the torus metric agrees with the Euclidean one.
    u = np.array([0.6, 0.8])
    origin = np.array([0.2, 0.1])
    ta = rng.uniform(0.0, 0.5, size=14)
    tb = rng.uniform(0.0, 0.5, size=19)
    wa = rng.dirichlet(np.ones(14))
    wb = rng.dirichlet(np.ones(19))
    a = PointCloud(2, origin + ta[:, None] * u, wa)
    b = PointCloud(2, origin + tb[:, None] * u, wb)
    got = w1_discrete(a, b, metric=metric)
    assert abs(got - sorted_w1_1d(ta, wa, tb, wb)) < 1e-12


def test_w1_discrete_rational_weights_match_expanded_assignment(rng):
    # weights k_i / L: splitting atom i into k_i unit atoms gives an
    # equal-mass instance of size L whose assignment optimum is the exact
    # transport cost (the transportation polytope has integral vertices)
    from scipy.optimize import linear_sum_assignment

    instances = [
        (np.array([1, 4, 2, 7, 3, 5, 8]),
         np.array([6, 1, 1, 3, 2, 5, 4, 2, 6])),
        (1 + rng.multinomial(200, np.ones(40) / 40),
         1 + rng.multinomial(180, np.ones(60) / 60)),
    ]
    for ka, kb in instances:
        total = ka.sum()
        assert kb.sum() == total
        pts_a = rng.uniform(size=(len(ka), 2))
        pts_b = rng.uniform(size=(len(kb), 2))
        a = PointCloud(2, pts_a, ka / total)
        b = PointCloud(2, pts_b, kb / total)
        for metric, dist in (("euclidean", _euclidean_reference),
                             ("torus", _torus_reference)):
            cost = dist(np.repeat(pts_a, ka, axis=0),
                        np.repeat(pts_b, kb, axis=0))
            rows, cols = linear_sum_assignment(cost)
            oracle = cost[rows, cols].sum() / total
            assert abs(w1_discrete(a, b, metric=metric) - oracle) < 1e-12


def test_w1_discrete_weighted_lp_failure_raises(rng, monkeypatch):
    from types import SimpleNamespace

    from mfclab.errors import NonConvergence

    def failed(*args, **kwargs):
        return SimpleNamespace(status=1, message="iteration limit reached",
                               fun=0.0)

    monkeypatch.setattr("scipy.optimize.linprog", failed)
    a = PointCloud(2, rng.uniform(size=(5, 2)), rng.dirichlet(np.ones(5)))
    b = PointCloud(2, rng.uniform(size=(7, 2)), rng.dirichlet(np.ones(7)))
    with pytest.raises(NonConvergence, match="iteration limit"):
        w1_discrete(a, b, metric="euclidean")


# --- quantization helpers ----------------------------------------------------

def test_gaussian_quantile_cloud_error_bound():
    cloud, err = gaussian_quantile_cloud(512, sd=1.0)
    assert cloud.size == 512
    assert 0 < err < 0.01
    # empirical check: heavy i.i.d. sample distance to quantization is small
    rng = np.random.default_rng(0)
    sample = rng.normal(size=20000)
    d = sorted_w1_1d(sample, np.full(20000, 1 / 20000.0),
                     cloud.points[:, 0], cloud.weights)
    assert d < 0.03


@pytest.mark.parametrize("n", [1, 3, 64, 100, 1000, 1024])
def test_gaussian_quantile_cloud_matches_norm_reference(n):
    # the cells and the error bound written with scipy.stats.norm; the cloud
    # must agree bit for bit (n = 100 separates z * z from z ** 2)
    from scipy.stats import norm

    for sd in (0.3, 0.5, 1.0):
        centers = norm.ppf((np.arange(n) + 0.5) / n) * sd
        edges = norm.ppf(np.arange(n + 1) / n) * sd
        bound = 0.0
        for lo, hi, c in zip(edges[:-1], edges[1:], centers):
            for a_, b_, sign in ((lo, c, -1.0), (c, hi, 1.0)):
                a_, b_ = max(a_, -40 * sd), min(b_, 40 * sd)
                if b_ > a_:
                    moment = sd * (norm.pdf(a_ / sd) - norm.pdf(b_ / sd)) * sd
                    mass = norm.cdf(b_ / sd) - norm.cdf(a_ / sd)
                    bound += sign * (moment - c * mass)
        cloud, err = gaussian_quantile_cloud(n, sd)
        assert np.array_equal(cloud.points[:, 0], centers)
        assert err == float(bound)


def test_gaussian_product_cells():
    cloud, err = gaussian_product_quantile_cloud(2, 8, sd=1.0)
    assert cloud.size == 64
    assert err > 0


def test_uniform_torus_cells():
    cloud, err = uniform_torus_quantile_cloud(3, 4)
    assert cloud.size == 64
    assert abs(err - 3 / 16.0) < 1e-15
