"""The coefficient kernels of the measure functionals against grid-route
oracles (``grid_oracles``): quadrature values, grid-field derivatives and
``circle_w1`` for the distance cost."""

import numpy as np
import pytest

from grid_oracles import cylindrical_route, distance_route, linear_route
from functional_checks import intrinsic_gradient_at
from mfclab.errors import NoDerivative
from mfclab.functionals import (
    cylindrical_functional,
    distance_cost_functional,
    linear_functional,
)
from mfclab.spectral import GridField, random_measure
from mfclab.transport import PointCloud


def _field(n, modes):
    """Band-limited field sum_k a_k cos(2 pi k x + p_k) on n points."""
    x = np.arange(n) / n
    return GridField(sum(a * np.cos(2 * np.pi * k * x + p)
                            for k, a, p in modes))


def _linear(K):
    phi = _field(64, [(1, 0.35, 0.0), (2, 0.15, -np.pi / 2), (0, 0.2, 0.0)])
    return linear_functional(phi, cutoff=K), linear_route(phi)


def _cylindrical(K):
    phis = [_field(64, [(1, 0.8, 0.0)]), _field(64, [(1, 0.8, -np.pi / 2)]),
            _field(64, [(3, 0.5, 0.4)])]
    outer = lambda v: np.sin(2.0 * v[0]) + 0.5 * v[1] ** 2 + v[0] * v[2]
    outer_grad = lambda v: np.array([2.0 * np.cos(2.0 * v[0]) + v[2], v[1],
                                     v[0]])
    return (cylindrical_functional(phis, outer, outer_grad, cutoff=K),
            cylindrical_route(phis, outer, outer_grad))


CASES = {"linear": _linear, "cylindrical": _cylindrical}


@pytest.mark.parametrize("K", [3, 5])
@pytest.mark.parametrize("name", sorted(CASES))
def test_kernels_match_grid_route(rng, name, K):
    phi, route = CASES[name](K)
    for _ in range(4):
        m = random_measure(K, rng)
        assert abs(phi(m) - route.value(m)) <= 1e-13
        want = route.derivative(m)
        g = phi.derivative(m.coeffs, want.resolution)
        assert g.shape == (want.resolution,)
        np.testing.assert_allclose(g, want.values, rtol=0, atol=1e-13)


@pytest.mark.parametrize("resolution", [2048, 8192])
@pytest.mark.parametrize("K", [3, 6])
@pytest.mark.parametrize("atoms", [([0.3], None), ([0.3, 0.71], [0.25, 0.75])])
def test_distance_cost_kernel_matches_w1_circle(rng, resolution, K, atoms):
    points, weights = atoms
    target = PointCloud(1, np.array(points)[:, None], weights)
    dc = distance_cost_functional(target, cutoff=K, resolution=resolution)
    route = distance_route(target, resolution)
    for _ in range(4):
        m = random_measure(K, rng)
        want = route.value(m)
        assert abs(dc(m) - want) <= 1e-13 * want


def test_distance_cost_has_subgradient_but_no_flat_derivative(rng):
    dc = distance_cost_functional(PointCloud(1, [[0.3]]), cutoff=4)
    m = random_measure(4, rng)
    assert not dc.has_derivative
    assert dc.fast_derivative_coeffs(m.coeffs).shape == m.coeffs.shape
    with pytest.raises(NoDerivative):
        dc.derivative(m.coeffs, 64)
    with pytest.raises(NoDerivative):
        intrinsic_gradient_at(dc, m, np.array([0.5]))
