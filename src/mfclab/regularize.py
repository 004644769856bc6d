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
   with a projected-ascent solver that runs all starts as one batch, an
   exhaustive + polish brute-force solver, and the damped fixed-point
   iteration
       m  <-  q + eps * (flat derivative of Phi at m)^dual
   whose fixed point is the maximizer inside the contraction regime.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Literal

import numpy as np
from scipy.optimize import minimize
from scipy.stats import qmc

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
    GridField,
    SobolevWeight,
    SpectralMeasure,
    SpectralVector,
    dual_embed,
    eval_modes,
    hs_norm,
    lebesgue,
    mode_values,
    spectral_grid,
    to_density,
)

__all__ = [
    "FejerKernel",
    "BumpKernel",
    "SupConvResult",
    "fejer_mollify",
    "mollify_measure_arg",
    "sup_convolve",
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
        k = mode_values(cutoff).astype(float)
        mesh = np.meshgrid(*([k] * self.dim), indexing="ij")
        coef = np.ones((2 * cutoff + 1,) * self.dim)
        for m in mesh:
            coef = coef * np.maximum(1.0 - np.abs(m) / self.rank, 0.0)
        return coef

    def convolve(self, m):
        """Coefficient-wise product; returns the same spectral type."""
        cls = type(m)
        return cls(m.dim, m.cutoff, m.coeffs * self.coefficients(m.cutoff))


@dataclass(frozen=True)
class BumpKernel:
    """Product of 1D compactly supported C-infinity bumps on [-1, 1]^d.

    rho(u) = c * exp(-1/(1-u^2)) per axis, normalized to unit mass; the 1D
    Fourier transform is tabulated by quadrature at construction time.
    """

    quad_points: int = 4097

    def _rho1(self, u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
        return out

    def hat1(self, xi: np.ndarray) -> np.ndarray:
        """1D transform rho1_hat(xi) = int e^{2 pi i xi u} rho1(u) du (real)."""
        u = np.linspace(-1.0, 1.0, self.quad_points)
        vals = self._rho1(u)
        mass = np.trapezoid(vals, u)
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        cosmat = np.cos(2.0 * np.pi * np.outer(xi, u))
        return np.trapezoid(cosmat * vals[None, :], u, axis=1) / mass

    def multiplier(self, delta: float, dim: int, cutoff: int) -> np.ndarray:
        """Fourier multiplier of convolution by rho_delta on T^d."""
        k = mode_values(cutoff).astype(float)
        hat = self.hat1(delta * k)
        mesh = np.meshgrid(*([hat] * dim), indexing="ij")
        out = np.ones((2 * cutoff + 1,) * dim)
        for m in mesh:
            out = out * m
        return out


def _validate_kernel_table(rho_values: np.ndarray, grid: np.ndarray) -> None:
    if np.any(rho_values < -1e-12):
        raise BadKernel("kernel density must be nonnegative")
    mass = np.trapezoid(rho_values, grid)
    if abs(mass - 1.0) > 1e-6:
        raise BadKernel(f"kernel mass {mass}, expected 1")
    if np.max(np.abs(rho_values - rho_values[::-1])) > 1e-10:
        raise BadKernel("kernel must be symmetric")


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
                  mc_nodes: int = 256, fd_step: float = 1e-5,
                  seed: int = 0) -> MeasureFunctional:
    """Average Phi over Fejer-smoothed arguments and perturbation measures.

    Returns m -> mean over nodes (a, b) of
    Phi((1 - eta) * (m conv fejer) + eta * I(a, b)), with the node cloud a
    fixed Halton set scaled into the inscribed admissible ball of radius
    1/(4 |D(rank)|); the flat derivative differentiates under the average by
    central differences in the Fourier coordinates of m.
    """
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
        radius = 1.0 / (4.0 * nd)
        sampler = qmc.Halton(d=2 * nd, scramble=True,
                             seed=np.random.default_rng(seed))
        u = sampler.random(mc_nodes)
        nodes = radius * (2.0 * u - 1.0) / np.sqrt(2.0 * nd)
    fejer_mult = kernel.coefficients(K)
    # eta * I(a, b) for every node, stacked on a leading axis
    pert = eta * np.stack([_perturbation_coeffs(phi.dim, K, reps, ab)
                           for ab in nodes])
    mass = (slice(None),) + (K,) * phi.dim

    def node_average(mcoeffs: np.ndarray) -> float:
        stack = (1.0 - eta) * (mcoeffs * fejer_mult) + pert
        stack[mass] = 1.0  # (1-eta) + eta recombined exactly
        return float(np.mean(phi.fast_value(stack)))

    def ev(m: SpectralMeasure) -> float:
        return node_average(m.coeffs)

    def deriv(m: SpectralMeasure) -> GridField:
        # partials of the node average w.r.t. (Re, Im) of each input mode,
        # assembled into sum_k [dF/da cos(2 pi k.y) + dF/db sin(2 pi k.y)]
        out = np.zeros((2 * K + 1,) * phi.dim, dtype=complex)
        for k in reps:
            idx = tuple(K + ki for ki in k)
            idx_neg = tuple(K - ki for ki in k)
            for which in ("re", "im"):
                cp = np.array(m.coeffs, dtype=complex)
                cm = np.array(m.coeffs, dtype=complex)
                delta = fd_step if which == "re" else 1j * fd_step
                cp[idx] += delta
                cp[idx_neg] += np.conj(delta)
                cm[idx] -= delta
                cm[idx_neg] -= np.conj(delta)
                pd = (node_average(cp) - node_average(cm)) / (2 * fd_step)
                if which == "re":
                    out[idx] += 0.5 * pd
                    out[idx_neg] += 0.5 * pd
                else:
                    out[idx] += 0.5j * pd
                    out[idx_neg] += -0.5j * pd
        vec = SpectralVector(phi.dim, K, out)
        return to_density(vec, phi.resolution)

    meta = replace(phi.metadata)  # Fejer route preserves d_1 constants
    return MeasureFunctional(phi.dim, K, ev, deriv, meta,
                             resolution=phi.resolution)


# ---------------------------------------------------------------------------
# measure-argument mollification
# ---------------------------------------------------------------------------

def mollify_measure_arg(phi: MeasureFunctional, delta: float,
                        rho: BumpKernel | Callable | None = None,
                        ) -> MeasureFunctional:
    """m -> Phi(m * rho_delta), acting on coefficients by multiplication.

    The flat derivative, when Phi has one, is the mollification of the flat
    derivative at the mollified point: (dPhi/dm(m * rho_delta, .)) * rho_delta.
    """
    if delta <= 0:
        raise BadKernel("delta must be positive")
    if rho is None:
        rho = BumpKernel()
    if callable(rho) and not isinstance(rho, BumpKernel):
        grid = np.linspace(-1.0, 1.0, 2049)
        vals = np.asarray(rho(grid), dtype=float)
        _validate_kernel_table(vals, grid)
        table = vals / np.trapezoid(vals, grid)

        class _TableKernel(BumpKernel):
            def _rho1(self, u):
                return np.interp(u, grid, table, left=0.0, right=0.0)

        rho = _TableKernel()
    mult = rho.multiplier(delta, phi.dim, phi.cutoff)

    def smooth(m: SpectralMeasure) -> SpectralMeasure:
        return SpectralMeasure(phi.dim, phi.cutoff, m.coeffs * mult)

    def ev(m: SpectralMeasure) -> float:
        return phi(smooth(m))

    deriv = None
    if phi.has_derivative:
        def deriv(m: SpectralMeasure) -> GridField:
            inner = phi.derivative(smooth(m))
            grid = spectral_grid(phi.dim, inner.resolution)
            c = grid.extract(grid.coeffs(inner.values), phi.cutoff) * mult
            return GridField(phi.dim, grid.values(grid.embed(c, phi.cutoff)))

    # d_1 constants survive mollification (convolution contracts d_1)
    meta = FunctionalMetadata(lip_d1=phi.metadata.lip_d1,
                              semiconcave_d1=phi.metadata.semiconcave_d1)
    return MeasureFunctional(phi.dim, phi.cutoff, ev, deriv, meta,
                             resolution=phi.resolution)


# ---------------------------------------------------------------------------
# lambda shift toward Lebesgue
# ---------------------------------------------------------------------------

def lambda_shift(phi: MeasureFunctional, lam: float) -> MeasureFunctional:
    """m -> Phi((1 - lam) m + lam Leb); derivative scales by (1 - lam)."""
    if not (0.0 < lam < 1.0):
        raise LambdaOutOfRange(f"lambda = {lam} outside (0, 1)")
    leb = lebesgue(phi.dim, phi.cutoff)

    def ev(m: SpectralMeasure) -> float:
        return phi(m.mix(leb, lam))

    deriv = None
    if phi.has_derivative:
        def deriv(m: SpectralMeasure) -> GridField:
            g = phi.derivative(m.mix(leb, lam))
            return GridField(phi.dim, (1.0 - lam) * g.values)

    return MeasureFunctional(phi.dim, phi.cutoff, ev, deriv, phi.metadata,
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


class _SimplexObjective:
    """J(p) = Phi(m(p)) - |q - m(p)|^2_{-s} / (2 eps) over atom weights.

    ``value``, ``gradient`` and ``direction`` take one weight vector
    ``(atoms,)`` or a batch ``(S, atoms)`` and treat every row on its own.
    """

    def __init__(self, phi, q, eps, weight, atoms):
        self.phi = phi
        self.q = q
        self.eps = eps
        self.weight = weight
        self.atoms = np.asarray(atoms, dtype=float)
        if self.atoms.ndim == 1:
            self.atoms = self.atoms[:, None]
        K, d = phi.cutoff, phi.dim
        k = mode_values(K)
        cols = []
        for x in self.atoms:
            acc = np.exp(2j * np.pi * k * x[0])
            for i in range(1, d):
                acc = acc[..., None] * np.exp(2j * np.pi * k * x[i])
            cols.append(acc.ravel())
        self.A = np.stack(cols, axis=1)  # (modes, atoms)
        self.AH = np.conj(self.A.T)  # (atoms, modes)
        self.qflat = q.coeffs.ravel()
        self.wflat = weight.weights(d, K).ravel()
        self.shape = q.coeffs.shape
        self.has_gradient = (phi.has_derivative
                             or phi.coeff_derivative is not None)

    def measure(self, p: np.ndarray) -> SpectralMeasure:
        c = (self.A @ p).reshape(self.shape)
        return SpectralMeasure(self.phi.dim, self.phi.cutoff, c)

    def value(self, p: np.ndarray):
        diff = _rowwise_matvec(self.A, p) - self.qflat
        pen = np.sum(np.abs(diff) ** 2 / self.wflat, axis=-1) / (2.0 * self.eps)
        c = (diff + self.qflat).reshape(p.shape[:-1] + self.shape)
        return self.phi.fast_value(c) - pen

    def gradient(self, p: np.ndarray) -> np.ndarray:
        """Exact gradient; needs ``has_gradient``."""
        cflat = _rowwise_matvec(self.A, p)
        gk = self.phi.fast_derivative_coeffs(
            cflat.reshape(p.shape[:-1] + self.shape))
        phi_part = _rowwise_matvec(self.AH, gk.reshape(cflat.shape)).real
        diff = cflat - self.qflat
        pen_part = _rowwise_matvec(self.AH, diff / self.wflat).real / self.eps
        return phi_part - pen_part

    def fd_gradient(self, p: np.ndarray, h: float = 1e-6) -> np.ndarray:
        """Surrogate gradient from feasible-direction differences.

        Uses J((1-h) p + h e_j); differs from the true gradient by a
        multiple of the all-ones vector, which simplex projection ignores.
        """
        n_at = p.shape[-1]
        shifted = (1.0 - h) * p[..., None, :] + h * np.eye(n_at)
        vals = self.value(shifted.reshape(-1, n_at)).reshape(shifted.shape[:-1])
        return (vals - np.asarray(self.value(p))[..., None]) / h

    def direction(self, p: np.ndarray) -> np.ndarray:
        """The ascent direction: the gradient, else its surrogate."""
        return self.gradient(p) if self.has_gradient else self.fd_gradient(p)


def _slsqp_polish(obj: _SimplexObjective, p0: np.ndarray,
                  val0: float) -> tuple[np.ndarray, float]:
    """Refine a simplex point with SLSQP; keep it only if it improves."""
    n_at = len(p0)
    res = minimize(
        lambda p: -obj.value(p), p0, method="SLSQP",
        jac=(lambda p: -obj.gradient(p)) if obj.has_gradient else None,
        bounds=[(0.0, 1.0)] * n_at,
        constraints=[{"type": "eq", "fun": lambda p: p.sum() - 1.0}],
        options={"maxiter": 300, "ftol": 1e-14},
    )
    if res.success and -res.fun >= val0 - 1e-12:
        p = np.maximum(res.x, 0.0)
        p = p / p.sum()
        val = obj.value(p)
        if val >= val0:
            return p, val
    return p0, val0


def _ascent(obj: _SimplexObjective, starts: np.ndarray,
            max_iter: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projected gradient ascent from every row of ``starts`` in lockstep.

    Each row keeps its own point, value, step and iteration count, and
    stops when 40 halvings of its step find no increase, exactly as if it
    ran alone; backtracking trials run only on rows still searching.
    Returns the final points (S, atoms), values (S,) and iterations (S,).
    """
    p = simplex_project(starts)
    val = obj.value(p)
    step = np.ones(len(p))
    its = np.ones(len(p), dtype=int)
    active = np.arange(len(p))
    for it in range(max_iter):
        its[active] = it + 1
        g = obj.direction(p[active])
        searching = np.ones(len(active), dtype=bool)
        for _ in range(40):
            rows = active[searching]
            cand = simplex_project(p[rows] + step[rows, None] * g[searching])
            cval = obj.value(cand)
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


def _kkt_residual(obj: _SimplexObjective, p: np.ndarray, val: float) -> float:
    """KKT-style residual: the feasible ascent rate along the ascent
    direction at p, clipped at 0."""
    h0 = 1e-7
    g = obj.direction(p)
    return max(float(obj.value(simplex_project(p + h0 * g)) - val) / h0, 0.0)


def _brute_force(obj: _SimplexObjective, n_at: int,
                 steps: int) -> tuple[np.ndarray, float]:
    """The first maximizer of J over ``simplex_grid``, scored in blocks of
    rows so the grid is never held whole."""
    best_p, best_val = None, -np.inf
    for pts in _simplex_grid_blocks(n_at, steps):
        vals = obj.value(pts)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_p, best_val = pts[i], vals[i]
    return best_p, best_val


def sup_convolve(phi: MeasureFunctional, q: SpectralMeasure, eps: float,
                 weight: SobolevWeight,
                 solver: Literal["gradient_ascent", "fixed_point",
                                 "brute_force"] = "gradient_ascent",
                 atoms: np.ndarray | None = None,
                 n_starts: int = 8, max_iter: int = 400, tol: float = 1e-10,
                 brute_steps: int = 20, polish: bool = False,
                 seed: int = 0,
                 warm_starts: tuple = ()) -> SupConvResult:
    """Evaluate Phi_eps(q) = sup_m {Phi(m) - |q - m|^2_{-s}/(2 eps)}.

    The admissible set is the simplex of weights on ``atoms`` (grid nodes,
    default 2K+1 per axis), identified with band-limited measures through
    the truncated atom coefficients. Extra ``warm_starts`` (weight vectors)
    join the start list; the best value wins, ties to the lowest start index.

    All starts ascend together as one ``(S, atoms)`` batch: Phi is called
    through ``fast_value`` / ``fast_derivative_coeffs`` with a leading batch
    axis, so its coefficient kernels must accept one (see
    ``MeasureFunctional``). Each start follows the path it would follow
    alone, bit for bit when Phi's kernels treat rows independently (the
    linear and cylindrical ones do; the distance cost's table product may
    round a batch row and a lone row differently in the last bit). ``tol``
    applies to the fixed-point solver only.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if atoms is None:
        n_at = 2 * phi.cutoff + 1
        atoms = np.stack(np.meshgrid(
            *([np.arange(n_at) / n_at] * phi.dim), indexing="ij"),
            axis=-1).reshape(-1, phi.dim)
    obj = _SimplexObjective(phi, q, eps, weight, atoms)
    n_at = len(obj.atoms)

    if solver == "fixed_point":
        m_star = fixed_point_maximizer(phi, q, eps, weight, tol=max(tol, 1e-12),
                                       max_iter=max_iter)
        val = phi(m_star) - hs_norm(m_star - q, weight) ** 2 / (2 * eps)
        grad = SpectralVector(q.dim, q.cutoff,
                              (m_star.coeffs - q.coeffs) / eps)
        return SupConvResult(float(val), m_star, grad, 0, 0.0)

    starts = []
    # natural start: q's density at the atoms, floored and renormalized
    qdens = eval_modes(q.coeffs, q.cutoff, obj.atoms)
    qdens = np.maximum(qdens, 0.0)
    if qdens.sum() > 0:
        starts.append(qdens / qdens.sum())
    starts.append(np.full(n_at, 1.0 / n_at))
    rng = np.random.default_rng(seed)
    while len(starts) < n_starts:
        starts.append(rng.dirichlet(np.ones(n_at)))
    starts.extend(np.asarray(w, dtype=float) for w in warm_starts)
    starts = np.array(starts)

    if solver == "gradient_ascent":
        ps, vals, its = _ascent(obj, starts, max_iter)
        best = 0
        for i in range(1, len(vals)):
            if vals[i] > vals[best] + 1e-15:
                best = i
        p, val = ps[best], vals[best]
        res = _kkt_residual(obj, p, val)
        if polish:
            p, val = _slsqp_polish(obj, p, val)
        m_star = obj.measure(p)
        grad = SpectralVector(q.dim, q.cutoff, (m_star.coeffs - q.coeffs) / eps)
        return SupConvResult(float(val), m_star, grad, int(its[best]), res)

    if solver == "brute_force":
        best_p, best_val = _brute_force(obj, n_at, brute_steps)
        projected = simplex_project(starts)
        for p, v in zip(projected, obj.value(projected)):
            if v > best_val:
                best_p, best_val = p, v
        if polish:
            best_p, best_val = _slsqp_polish(obj, best_p, best_val)
        m_star = obj.measure(best_p)
        grad = SpectralVector(q.dim, q.cutoff, (m_star.coeffs - q.coeffs) / eps)
        return SupConvResult(float(best_val), m_star, grad, 0, 0.0)

    raise ValueError(f"unknown solver {solver!r}")


def fixed_point_maximizer(phi: MeasureFunctional, q: SpectralMeasure,
                          eps: float, weight: SobolevWeight,
                          tol: float = 1e-12, damping: float = 0.5,
                          max_iter: int = 2000,
                          lower_bound: float | None = None) -> SpectralMeasure:
    """Damped iteration for m = q + eps * (dPhi/dm(m, .))^dual.

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
    for it in range(max_iter):
        target = step_map(m)
        residual = hs_norm(m - target, weight)
        if residual <= tol:
            return m
        m = SpectralMeasure(
            d, K, (1.0 - damping) * m.coeffs + damping * target.coeffs)
    raise NonConvergence("fixed point iteration did not reach tolerance",
                         residual=residual, iterations=max_iter)
