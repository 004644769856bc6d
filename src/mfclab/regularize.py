"""Regularization of measure functionals: three procedures and their glue.

1. Fourier-coefficient (Fejer) mollification: convolve the argument with a
   Fejer kernel, then average the functional over a low-discrepancy cloud of
   trigonometric perturbation measures. Produces a functional that is smooth
   in the Fourier coordinates while keeping the d_1 Lipschitz and
   semi-concavity constants.
2. Measure-argument mollification: m -> Phi(m * rho_delta) for a compactly
   supported smooth bump rho, acting on coefficients by multiplication.
   Trades d_1 regularity for H^{-s} regularity at the price of delta powers.
3. Sup-convolution in H^{-s}: Phi_eps(q) = sup_m {Phi(m) - |q-m|^2_{-s}/(2 eps)},
   solved over the simplex of grid-atom weights (band-limited measures),
   with a projected-Newton ascent solver that runs all starts as one
   batch (and, in ``sup_convolve_batch``, the starts of many base points q
   and eps as one batch), an exhaustive + polish brute-force solver, and
   the damped fixed-point iteration
       m  <-  q + eps * (flat derivative of Phi at m)^dual
   whose fixed point is the maximizer inside the contraction regime.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from .errors import (
    BadKernel,
    ContractionViolated,
    EtaOutOfRange,
    LambdaOutOfRange,
    LowerBoundViolated,
    NoDerivative,
    NonConvergence,
    RankTooSmall,
)
from .functionals import FunctionalMetadata, MeasureFunctional
from .spectral import (
    SobolevWeight,
    SpectralMeasure,
    SpectralVector,
    _mesh,
    dual_embed,
    eval_modes,
    grid_nodes,
    hs_norm,
    lebesgue,
    mode_values,
)

__all__ = [
    "FejerKernel",
    "BumpKernel",
    "SupConvResult",
    "fejer_mollify",
    "mollify_measure_arg",
    "sup_convolve",
    "sup_convolve_batch",
    "fixed_point_maximizer",
    "lambda_shift",
    "simplex_project",
    "simplex_grid",
]


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FejerKernel:
    """Fejer kernel of the given rank: coefficients prod_j (1 - |k_j|/n).

    Nonnegative trigonometric approximate identity; convolution by it is a
    d_1 contraction and truncates modes with |k|_inf >= rank.
    """

    rank: int
    dim: int

    def __post_init__(self):
        if self.rank < 1:
            raise RankTooSmall(f"Fejer rank must be >= 1, got {self.rank}")

    def coefficients(self, cutoff: int) -> np.ndarray:
        coef = np.ones((2 * cutoff + 1,) * self.dim)
        for m in _mesh(mode_values(cutoff).astype(float), self.dim):
            coef = coef * np.maximum(1.0 - np.abs(m) / self.rank, 0.0)
        return coef

    def convolve(self, m):
        """Coefficient-wise product; returns the same spectral type."""
        cls = type(m)
        return cls(m.dim, m.cutoff, m.coeffs * self.coefficients(m.cutoff))


_BUMP_QUAD_POINTS = 4097  # trapezoid nodes on [-1, 1] for the 1D transform


class BumpKernel:
    """Product of 1D compactly supported C-infinity bumps on [-1, 1]^d.

    rho(u) = c * exp(-1/(1-u^2)) per axis, normalized to unit mass; the 1D
    Fourier transform is computed by trapezoid quadrature.
    """

    def _rho1(self, u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
        return out

    def hat1(self, xi: np.ndarray) -> np.ndarray:
        """1D transform rho1_hat(xi) = int e^{2 pi i xi u} rho1(u) du (real)."""
        u = np.linspace(-1.0, 1.0, _BUMP_QUAD_POINTS)
        vals = self._rho1(u)
        mass = np.trapezoid(vals, u)
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        cosmat = np.cos(2.0 * np.pi * np.outer(xi, u))
        return np.trapezoid(cosmat * vals[None, :], u, axis=1) / mass

    def multiplier(self, delta: float, dim: int, cutoff: int) -> np.ndarray:
        """Fourier multiplier of convolution by rho_delta on T^d."""
        hat = self.hat1(delta * mode_values(cutoff).astype(float))
        out = np.ones((2 * cutoff + 1,) * dim)
        for m in _mesh(hat, dim):
            out = out * m
        return out


# ---------------------------------------------------------------------------
# Fejer mollification of the Fourier coordinates
# ---------------------------------------------------------------------------

def _mode_representatives(dim: int, rank: int, cutoff: int) -> list[tuple]:
    """One representative per +-k pair with 0 < |k|_inf <= min(rank-1, K)."""
    bound = min(rank - 1, cutoff)
    reps = []
    for k in itertools.product(range(-bound, bound + 1), repeat=dim):
        if all(c == 0 for c in k):
            continue
        nonzero = next(c for c in k if c != 0)
        if nonzero > 0:
            reps.append(k)
    return reps


def _perturbation_coeffs(dim: int, cutoff: int, reps, ab: np.ndarray) -> np.ndarray:
    """Coefficients of 1 + 2 sum_k (a_k cos + b_k sin): c_k = a_k + i b_k."""
    nd = len(reps)
    a, b = ab[:nd], ab[nd:]
    c = np.zeros((2 * cutoff + 1,) * dim, dtype=complex)
    c[(cutoff,) * dim] = 1.0
    for (ak, bk, k) in zip(a, b, reps):
        idx = tuple(cutoff + ki for ki in k)
        idx_neg = tuple(cutoff - ki for ki in k)
        c[idx] = ak + 1j * bk
        c[idx_neg] = ak - 1j * bk
    return c


def fejer_mollify(phi: MeasureFunctional, rank: int, eta: float,
                  mc_nodes: int = 256, seed: int = 0) -> MeasureFunctional:
    """Average Phi over Fejer-smoothed arguments and perturbation measures.

    Returns m -> mean over nodes (a, b) of
    Phi((1 - eta) * (m conv fejer) + eta * I(a, b)), with the node cloud a
    fixed Halton set scaled into the inscribed admissible ball of radius
    1/(4 |D(rank)|); the flat derivative differentiates under the average by
    central differences in the Fourier coordinates of m.
    """
    fd_step = 1e-5  # central-difference step in the Fourier coordinates
    if not (0.0 < eta < 1.0):
        raise EtaOutOfRange(f"eta = {eta} outside (0, 1)")
    kernel = FejerKernel(rank, phi.dim)  # validates rank
    K = phi.cutoff
    reps = _mode_representatives(phi.dim, rank, K)
    nd = len(reps)
    if nd == 0:
        # rank 1 keeps only the mass mode: averaging over nothing
        nodes = np.zeros((1, 0))
    else:
        from scipy.stats import qmc
        radius = 1.0 / (4.0 * nd)
        sampler = qmc.Halton(d=2 * nd, scramble=True,
                             seed=np.random.default_rng(seed))
        u = sampler.random(mc_nodes)
        nodes = radius * (2.0 * u - 1.0) / np.sqrt(2.0 * nd)
    fejer_mult = kernel.coefficients(K)
    # eta * I(a, b) for every node, stacked on a leading axis
    pert = eta * np.stack([_perturbation_coeffs(phi.dim, K, reps, ab)
                           for ab in nodes])
    modes = (2 * K + 1,) * phi.dim
    mass = (Ellipsis,) + (K,) * phi.dim

    def node_average(c: np.ndarray):
        # the nodes on one more axis after any leading axes of c, scored in
        # one batched call
        stack = ((1.0 - eta) * (np.expand_dims(c, -phi.dim - 1) * fejer_mult)
                 + pert)
        stack[mass] = 1.0  # (1-eta) + eta recombined exactly
        vals = phi.fast_value(stack.reshape((-1,) + modes))
        return vals.reshape(stack.shape[:-phi.dim]).mean(axis=-1)

    # central-difference probes in the Fourier coordinates: a real and an
    # imaginary step on c_k (conjugated on c_{-k}) per representative k,
    # then the same steps negated
    steps = np.zeros((2 * nd,) + modes, dtype=complex)
    for j, k in enumerate(reps):
        idx = tuple(K + ki for ki in k)
        idx_neg = tuple(K - ki for ki in k)
        steps[(2 * j,) + idx] = steps[(2 * j,) + idx_neg] = fd_step
        steps[(2 * j + 1,) + idx] = 1j * fd_step
        steps[(2 * j + 1,) + idx_neg] = -1j * fd_step
    probes = np.stack([steps, -steps])

    def derivative_coeffs(c: np.ndarray) -> np.ndarray:
        # partials of the node average w.r.t. (Re, Im) of each input mode,
        # the coefficients of sum_k [dF/da cos(2 pi k.y) + dF/db sin(2 pi k.y)]
        avg = node_average(np.expand_dims(c, (-phi.dim - 2, -phi.dim - 1))
                           + probes)
        pd = (avg[..., 0, :] - avg[..., 1, :]) / (2 * fd_step)
        half = 0.5 * (pd[..., 0::2] + 1j * pd[..., 1::2])
        out = np.zeros(np.shape(c), dtype=complex)
        for j, k in enumerate(reps):
            out[(Ellipsis,) + tuple(K + ki for ki in k)] = half[..., j]
            out[(Ellipsis,) + tuple(K - ki for ki in k)] = np.conj(
                half[..., j])
        return out

    meta = replace(phi.metadata)  # Fejer route preserves d_1 constants
    return MeasureFunctional(phi.dim, K, node_average, derivative_coeffs,
                             meta, resolution=phi.resolution)


# ---------------------------------------------------------------------------
# measure-argument mollification
# ---------------------------------------------------------------------------

def mollify_measure_arg(phi: MeasureFunctional,
                        delta: float) -> MeasureFunctional:
    """m -> Phi(m * rho_delta), acting on coefficients by multiplication.

    The flat derivative, when Phi has one, is the mollification of the flat
    derivative at the mollified point: (dPhi/dm(m * rho_delta, .)) * rho_delta.
    rho is the ``BumpKernel``.
    """
    if delta <= 0:
        raise BadKernel("delta must be positive")
    mult = BumpKernel().multiplier(delta, phi.dim, phi.cutoff)

    derivative_coeffs = None
    if phi.has_derivative:
        def derivative_coeffs(c: np.ndarray) -> np.ndarray:
            return phi.fast_derivative_coeffs(c * mult) * mult

    # d_1 constants survive mollification (convolution contracts d_1)
    meta = FunctionalMetadata(lip_d1=phi.metadata.lip_d1,
                              semiconcave_d1=phi.metadata.semiconcave_d1)
    return MeasureFunctional(phi.dim, phi.cutoff,
                             lambda c: phi.fast_value(c * mult),
                             derivative_coeffs, meta,
                             resolution=phi.resolution)


# ---------------------------------------------------------------------------
# lambda shift toward Lebesgue
# ---------------------------------------------------------------------------

def lambda_shift(phi: MeasureFunctional, lam: float) -> MeasureFunctional:
    """m -> Phi((1 - lam) m + lam Leb); derivative scales by (1 - lam)."""
    if not (0.0 < lam < 1.0):
        raise LambdaOutOfRange(f"lambda = {lam} outside (0, 1)")
    leb = lebesgue(phi.dim, phi.cutoff)

    def mixed(c: np.ndarray) -> np.ndarray:
        return (1.0 - lam) * c + lam * leb.coeffs

    derivative_coeffs = None
    if phi.has_derivative:
        def derivative_coeffs(c: np.ndarray) -> np.ndarray:
            return (1.0 - lam) * phi.fast_derivative_coeffs(mixed(c))

    return MeasureFunctional(phi.dim, phi.cutoff,
                             lambda c: phi.fast_value(mixed(c)),
                             derivative_coeffs, phi.metadata,
                             resolution=phi.resolution)


# ---------------------------------------------------------------------------
# sup-convolution in H^{-s}
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupConvResult:
    """Outcome of a sup-convolution solve.

    ``gradient`` holds (maximizer - q)/eps, the H^{-s} gradient of the
    regularized functional at q.
    """

    value: float
    maximizer: SpectralMeasure
    gradient: SpectralVector
    iterations: int
    residual: float


def simplex_project(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort algorithm).

    A 2-D input is a batch: each row is projected on its own, with the
    same arithmetic as a 1-D call on that row.
    """
    v = np.asarray(v, dtype=float)
    rows = v.reshape(-1, v.shape[-1])
    n = rows.shape[1]
    u = np.sort(rows, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    # last index where the sorted entry exceeds its running threshold
    above = u - css / np.arange(1, n + 1) > 0
    rho = n - 1 - np.argmax(above[:, ::-1], axis=1)
    tau = css[np.arange(len(rows)), rho] / (rho + 1.0)
    return np.maximum(v - tau.reshape(v.shape[:-1] + (1,)), 0.0)


_GRID_BLOCK = 256  # simplex_grid rows scored per batched objective call


def simplex_grid(n_parts: int, steps: int):
    """All weight vectors with entries j/steps summing to 1 (generator)."""
    for block in _simplex_grid_blocks(n_parts, steps):
        yield from block


def _simplex_grid_blocks(n_parts: int, steps: int):
    """The points of ``simplex_grid``, in its order, as arrays of at most
    ``_GRID_BLOCK`` rows: each point is the gaps between n_parts - 1 bars
    placed among steps + n_parts - 1 slots."""
    slots = steps + n_parts - 1
    bars = itertools.combinations(range(slots), n_parts - 1)
    while block := list(itertools.islice(bars, _GRID_BLOCK)):
        cuts = np.array(block, dtype=int).reshape(len(block), n_parts - 1)
        yield (np.diff(cuts, axis=1, prepend=-1, append=slots) - 1) / steps


def _rowwise_matvec(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """mat @ x along the last axis of x, summed in one fixed order, so a
    row of a batch gets the same bits as a 1-D call (BLAS picks gemv or
    gemm by batch size, and they round differently)."""
    return np.sum(x[..., None, :] * mat, axis=-1)


_FD_STEP = 1e-6  # feasible-direction step of the surrogate gradient


class _SimplexObjective:
    """J_r(p) = Phi(m(p)) - |q_r - m(p)|^2_{-s} / (2 eps_r) over atom weights.

    Row r of the objective has its own base point q_r (row r of ``qs``, an
    ``(R, 2K+1, ..., 2K+1)`` coefficient array) and its own eps_r; Phi, the
    weight and the ``(n, d)`` atoms are shared. ``value``, ``gradient``,
    ``raw_direction`` and ``direction`` take one weight vector ``(atoms,)``
    with one row id, or a batch ``(S, atoms)`` with ``(S,)`` row ids, and
    treat every weight vector on its own.

    The penalty's Hessian in p is M / eps_r with M = Re(A^H W^{-1} A), the
    same atoms x atoms matrix for every row; ``direction`` preconditions
    the raw direction with it.
    """

    def __init__(self, phi, qs, eps, weight, atoms):
        self.phi = phi
        K, d = phi.cutoff, phi.dim
        k = mode_values(K)
        cols = []
        for x in atoms:
            acc = np.exp(2j * np.pi * k * x[0])
            for i in range(1, d):
                acc = acc[..., None] * np.exp(2j * np.pi * k * x[i])
            cols.append(acc.ravel())
        self.A = np.stack(cols, axis=1)  # (modes, atoms)
        self.AH = np.conj(self.A.T)  # (atoms, modes)
        self.shape = (2 * K + 1,) * d
        self.qflat = np.asarray(qs).reshape(len(qs), -1)
        self.eps = np.asarray(eps, dtype=float)
        self.wflat = weight.weights(d, K).ravel()
        self.has_gradient = phi.derivative_coeffs is not None
        # on the 2K+1-per-axis grid nodes A is a tensor product of square
        # DFT matrices, hence invertible, so M is positive definite and
        # every KKT system of ``direction`` is nonsingular
        self.M = (self.AH @ (self.A / self.wflat[:, None])).real

    def measure(self, p: np.ndarray) -> SpectralMeasure:
        c = (self.A @ p).reshape(self.shape)
        return SpectralMeasure(self.phi.dim, self.phi.cutoff, c)

    def value(self, p: np.ndarray, rows):
        q = self.qflat[rows]
        diff = _rowwise_matvec(self.A, p) - q
        pen = (np.sum(np.abs(diff) ** 2 / self.wflat, axis=-1)
               / (2.0 * self.eps[rows]))
        c = (diff + q).reshape(p.shape[:-1] + self.shape)
        return self.phi.fast_value(c) - pen

    def gradient(self, p: np.ndarray, rows) -> np.ndarray:
        """Exact gradient; needs ``has_gradient``."""
        cflat = _rowwise_matvec(self.A, p)
        gk = self.phi.fast_derivative_coeffs(
            cflat.reshape(p.shape[:-1] + self.shape))
        phi_part = _rowwise_matvec(self.AH, gk.reshape(cflat.shape)).real
        diff = cflat - self.qflat[rows]
        pen_part = (_rowwise_matvec(self.AH, diff / self.wflat).real
                    / self.eps[rows][..., None])
        return phi_part - pen_part

    def fd_gradient(self, p: np.ndarray, rows) -> np.ndarray:
        """Surrogate gradient from feasible-direction differences.

        Uses J((1-h) p + h e_j) with h = ``_FD_STEP``; differs from the true
        gradient by a multiple of the all-ones vector, which simplex
        projection ignores.
        """
        h = _FD_STEP
        n_at = p.shape[-1]
        shifted = (1.0 - h) * p[..., None, :] + h * np.eye(n_at)
        vals = self.value(shifted.reshape(-1, n_at),
                          np.repeat(rows, n_at)).reshape(shifted.shape[:-1])
        return (vals - np.asarray(self.value(p, rows))[..., None]) / h

    def raw_direction(self, p: np.ndarray, rows) -> np.ndarray:
        """The gradient, else its surrogate."""
        if self.has_gradient:
            return self.gradient(p, rows)
        return self.fd_gradient(p, rows)

    def direction(self, p: np.ndarray, rows) -> np.ndarray:
        """The ascent direction: a projected-Newton step under the penalty
        Hessian (Bertsekas, SIAM J. Control Optim. 20, 1982).

        On the free set F of each row it solves
        [M_FF / eps, 1; 1^T, 0] [d_F; lam] = [g_F; 0] for the raw direction
        g and sets d = 0 off F. F holds the atoms with weight and the empty
        atoms whose g exceeds lam of the solve on the weighted atoms, less
        the empty atoms the solve would push below zero. lam absorbs any
        multiple of the all-ones vector, which is how the surrogate differs
        from the gradient to first order, so both take this one path. d is
        0 only at a KKT point; otherwise p + t d stays on the simplex for
        small t and climbs at rate d^T (M / eps) d.
        """
        g = self.raw_direction(p, rows)
        g2 = np.atleast_2d(g)
        p2 = np.reshape(p, g2.shape)
        eps = np.broadcast_to(self.eps[rows], (len(g2),))
        lam = self._newton_solve(p2 > 0, g2, eps)[1]
        free = (p2 > 0) | (g2 > lam[:, None])
        d, _ = self._newton_solve(free, g2, eps)
        # empty atoms the step would push negative leave F, round after
        # round until none does; each solve depends only on its own row
        while (drop := free & (p2 <= 0) & (d < 0)).any():
            free &= ~drop
            redo = drop.any(axis=1)
            d[redo] = self._newton_solve(free[redo], g2[redo], eps[redo])[0]
        return d.reshape(g.shape)

    def _newton_solve(self, free: np.ndarray, g: np.ndarray,
                      eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """d and lam of the KKT system on each row's free atoms, one batched
        solve; atoms outside F get identity rows and d = 0. The system is
        scaled by eps: [M_FF, 1; 1^T, 0] [d_F; eps lam] = [eps g_F; 0]."""
        S, n = g.shape
        kkt = np.zeros((S, n + 1, n + 1))
        pair = free[:, :, None] & free[:, None, :]
        kkt[:, :n, :n] = np.where(pair, self.M, np.eye(n))
        kkt[:, :n, n] = kkt[:, n, :n] = free
        rhs = np.zeros((S, n + 1))
        rhs[:, :n] = np.where(free, eps[:, None] * g, 0.0)
        sol = np.linalg.solve(kkt, rhs[..., None])[..., 0]
        return sol[:, :n], sol[:, n] / eps


def _slsqp_polish(obj: _SimplexObjective, row: int, p0: np.ndarray,
                  val0: float) -> tuple[np.ndarray, float]:
    """Refine a simplex point of row ``row`` with SLSQP; keep it only if it
    improves."""
    from scipy.optimize import minimize

    n_at = len(p0)
    res = minimize(
        lambda p: -obj.value(p, row), p0, method="SLSQP",
        jac=(lambda p: -obj.gradient(p, row)) if obj.has_gradient else None,
        bounds=[(0.0, 1.0)] * n_at,
        constraints=[{"type": "eq", "fun": lambda p: p.sum() - 1.0}],
        options={"maxiter": 300, "ftol": 1e-14},
    )
    if res.success and -res.fun >= val0 - 1e-12:
        p = np.maximum(res.x, 0.0)
        p = p / p.sum()
        val = obj.value(p, row)
        if val >= val0:
            return p, val
    return p0, val0


def _ascent(obj: _SimplexObjective, starts: np.ndarray,
            max_iter: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projected ascent along ``obj.direction`` (the projected-Newton
    direction) from every row of ``starts`` in lockstep; start r climbs row
    r of ``obj``.

    Each row keeps its own point, value, step and iteration count, and
    stops when 40 halvings of its step find no increase, exactly as if it
    ran alone; backtracking trials run only on rows still searching.
    Returns the final points (S, atoms), values (S,) and iterations (S,).
    """
    p = simplex_project(starts)
    val = obj.value(p, np.arange(len(p)))
    step = np.ones(len(p))
    its = np.ones(len(p), dtype=int)
    active = np.arange(len(p))
    for it in range(max_iter):
        its[active] = it + 1
        g = obj.direction(p[active], active)
        searching = np.ones(len(active), dtype=bool)
        for _ in range(40):
            rows = active[searching]
            cand = simplex_project(p[rows] + step[rows, None] * g[searching])
            cval = obj.value(cand, rows)
            up = cval > val[rows] + 1e-15
            p[rows[up]], val[rows[up]] = cand[up], cval[up]
            step[rows] *= np.where(up, 1.8, 0.5)
            searching[searching] = ~up
            if not searching.any():
                break
        # a row whose 40 trials found no increase stops
        active = active[~searching]
        if not len(active):
            break
    return p, val, its


def _kkt_residual(obj: _SimplexObjective, row: int, p: np.ndarray,
                  val: float) -> float:
    """KKT-style residual: the feasible ascent rate along the raw
    direction (the gradient or its surrogate) at p, clipped at 0."""
    h0 = 1e-7
    g = obj.raw_direction(p, row)
    return max(float(obj.value(simplex_project(p + h0 * g), row) - val)
               / h0, 0.0)


def _brute_force(obj: _SimplexObjective, n_at: int,
                 steps: int) -> tuple[np.ndarray, float]:
    """The first maximizer of row 0 of J over ``simplex_grid``, scored in
    blocks of points so the grid is never held whole."""
    best_p, best_val = None, -np.inf
    for pts in _simplex_grid_blocks(n_at, steps):
        vals = obj.value(pts, 0)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_p, best_val = pts[i], vals[i]
    return best_p, best_val


def _result(obj: _SimplexObjective, row: int, q: SpectralMeasure,
            eps: float, p: np.ndarray, val: float, polish: bool,
            iterations: int, residual: float) -> SupConvResult:
    """The result for weights p of row ``row``, after the SLSQP polish when
    asked for."""
    if polish:
        p, val = _slsqp_polish(obj, row, p, val)
    m_star = obj.measure(p)
    grad = SpectralVector(q.dim, q.cutoff, (m_star.coeffs - q.coeffs) / eps)
    return SupConvResult(float(val), m_star, grad, int(iterations), residual)


_N_STARTS = 8  # ascent starts per base point, warm starts aside
_MAX_ITER = 400  # ascent iterations per start; Newton steps need under 20


def _starts(q: SpectralMeasure, atoms: np.ndarray, n_starts: int, seed: int,
            warm_starts) -> np.ndarray:
    """The start list of one problem: q's density at the atoms (floored and
    renormalized; left out when it has no mass), the uniform weights,
    Dirichlet draws from ``default_rng(seed)`` up to ``n_starts`` starts,
    then the warm starts."""
    n_at = len(atoms)
    starts = []
    qdens = eval_modes(q.coeffs, q.cutoff, atoms)
    qdens = np.maximum(qdens, 0.0)
    if qdens.sum() > 0:
        starts.append(qdens / qdens.sum())
    starts.append(np.full(n_at, 1.0 / n_at))
    rng = np.random.default_rng(seed)
    while len(starts) < n_starts:
        starts.append(rng.dirichlet(np.ones(n_at)))
    starts.extend(np.asarray(w, dtype=float) for w in warm_starts)
    return np.array(starts)


def sup_convolve_batch(phi: MeasureFunctional, qs, eps, weight: SobolevWeight,
                       *, n_starts: int = _N_STARTS, polish: bool = False,
                       seed: int = 0,
                       warm_starts=None) -> list[SupConvResult]:
    """``sup_convolve`` by gradient ascent for many base points at once.

    ``qs`` is a sequence of measures; ``eps`` is one value per measure, or
    one for all; ``warm_starts``, when given, holds one tuple of weight
    vectors per measure (tuples may differ in length). Returns one
    ``SupConvResult`` per measure, each the result of
    ``sup_convolve(phi, qs[i], eps[i], weight, warm_starts=warm_starts[i],
    ...)``: every problem builds its own starts, and the starts of all
    problems ascend as one lockstep ``(S, atoms)`` batch, each row against
    its own q and eps. Each ascent step follows the projected-Newton
    direction of ``_SimplexObjective.direction``; a quadratic objective
    (linear Phi) reaches its maximizer in a few steps.
    """
    qs = list(qs)
    eps = np.broadcast_to(np.asarray(eps, dtype=float), (len(qs),))
    if np.any(eps <= 0):
        raise ValueError("eps must be positive")
    if not qs:
        return []
    if warm_starts is None:
        warm_starts = [()] * len(qs)
    if len(warm_starts) != len(qs):
        raise ValueError(f"{len(warm_starts)} warm-start tuples for "
                         f"{len(qs)} base points")
    atoms = grid_nodes(phi.dim, 2 * phi.cutoff + 1)
    starts = [_starts(q, atoms, n_starts, seed, warm)
              for q, warm in zip(qs, warm_starts)]
    owner = np.repeat(np.arange(len(qs)), [len(st) for st in starts])
    obj = _SimplexObjective(phi, np.stack([q.coeffs for q in qs])[owner],
                            eps[owner], weight, atoms)
    ps, vals, its = _ascent(obj, np.concatenate(starts), _MAX_ITER)

    results = []
    for i, q in enumerate(qs):
        rows = np.flatnonzero(owner == i)
        best = rows[0]  # the best value wins, ties to the lowest start index
        for r in rows[1:]:
            if vals[r] > vals[best] + 1e-15:
                best = r
        p, val = ps[best], vals[best]
        results.append(_result(obj, best, q, eps[i], p, val, polish,
                               its[best], _kkt_residual(obj, best, p, val)))
    return results


def sup_convolve(phi: MeasureFunctional, q: SpectralMeasure, eps: float,
                 weight: SobolevWeight,
                 solver: Literal["gradient_ascent",
                                 "brute_force"] = "gradient_ascent",
                 brute_steps: int = 20, polish: bool = False,
                 seed: int = 0,
                 warm_starts: tuple = ()) -> SupConvResult:
    """Evaluate Phi_eps(q) = sup_m {Phi(m) - |q - m|^2_{-s}/(2 eps)}.

    The admissible set is the simplex of weights on the grid nodes, 2K+1
    per axis, identified with band-limited measures through the truncated
    atom coefficients. Extra ``warm_starts`` (weight vectors) join the
    start list; the best value wins, ties to the lowest start index.

    The gradient solver is ``sup_convolve_batch`` with one problem. All
    starts ascend together as one ``(S, atoms)`` batch: Phi is called
    through ``fast_value`` / ``fast_derivative_coeffs`` with a leading batch
    axis, so its coefficient kernels must accept one (see
    ``MeasureFunctional``). Each start follows the path it would follow
    alone, bit for bit when Phi's kernels treat rows independently (the
    linear and cylindrical ones do; the distance cost's table product may
    round a batch row and a lone row differently in the last bit). The
    ascent direction is the gradient (or, for a value-only Phi, its
    finite-difference surrogate) preconditioned by the exact penalty
    Hessian on each start's free atoms. ``SupConvResult.residual`` is the
    ascent rate along the raw direction.
    """
    if solver == "gradient_ascent":
        return sup_convolve_batch(
            phi, [q], [eps], weight, polish=polish, seed=seed,
            warm_starts=[warm_starts])[0]
    if eps <= 0:
        raise ValueError("eps must be positive")
    if solver == "brute_force":
        atoms = grid_nodes(phi.dim, 2 * phi.cutoff + 1)
        obj = _SimplexObjective(phi, q.coeffs[None], [eps], weight, atoms)
        best_p, best_val = _brute_force(obj, len(atoms), brute_steps)
        projected = simplex_project(
            _starts(q, atoms, _N_STARTS, seed, warm_starts))
        for p, v in zip(projected, obj.value(projected, 0)):
            if v > best_val:
                best_p, best_val = p, v
        return _result(obj, 0, q, eps, best_p, best_val, polish, 0, 0.0)

    raise ValueError(f"unknown solver {solver!r}")


_FIXED_POINT_MAX_ITER = 2000


def fixed_point_maximizer(phi: MeasureFunctional, q: SpectralMeasure,
                          eps: float, weight: SobolevWeight,
                          tol: float = 1e-12,
                          lower_bound: float | None = None) -> SpectralMeasure:
    """Damped iteration for m = q + eps * (dPhi/dm(m, .))^dual, each step
    moving halfway to the map's image.

    The dual map here is H^s -> H^{-s}: coefficients are multiplied by the
    Sobolev weight. Inside the contraction regime (eps below the inverse of
    twice the H^{-s} semi-concavity constant) the fixed point is the unique
    sup-convolution maximizer. ``lower_bound``, when given, is the caller's
    threshold c for the q >= c Leb precondition; violations raise with the
    threshold and the observed minimum reported.
    """
    if not phi.has_derivative:
        raise NoDerivative("fixed-point solver needs a flat derivative")
    cs = phi.metadata.semiconcave_hs
    if cs is not None and cs > 0 and eps >= 1.0 / (2.0 * cs):
        raise ContractionViolated(
            f"eps = {eps} outside the contraction regime (needs eps < "
            f"{1.0 / (2.0 * cs):.3e} = 1/(2 C_S))"
        )
    if lower_bound is not None:
        dens_min = q.density_min()
        if dens_min < lower_bound:
            raise LowerBoundViolated(
                f"base density minimum {dens_min:.4e} below threshold "
                f"{lower_bound:.4e}", threshold=lower_bound,
                observed_min=dens_min)
    K, d = phi.cutoff, phi.dim

    def step_map(m: SpectralMeasure) -> SpectralMeasure:
        gk = phi.fast_derivative_coeffs(np.asarray(m.coeffs))
        lifted = dual_embed(gk, d, K, weight)
        return SpectralMeasure(d, K, q.coeffs + eps * lifted.coeffs)

    m = q
    for it in range(_FIXED_POINT_MAX_ITER):
        target = step_map(m)
        residual = hs_norm(m - target, weight)
        if residual <= tol:
            return m
        m = SpectralMeasure(d, K, 0.5 * m.coeffs + 0.5 * target.coeffs)
    raise NonConvergence("fixed point iteration did not reach tolerance",
                         residual=residual, iterations=_FIXED_POINT_MAX_ITER)
