"""Sup-convolution of measure functionals in H^{-s}.

Phi_eps(q) = sup_m {Phi(m) - |q-m|^2_{-s}/(2 eps)} is solved over the
simplex of grid-atom weights (band-limited measures), with a
projected-Newton ascent solver that runs all starts as one batch (and, in
``sup_convolve_batch``, the starts of many base points q and eps as one
batch), an exhaustive + polish brute-force solver, and the damped
fixed-point iteration
    m  <-  q + eps * (flat derivative of Phi at m)^dual
whose fixed point is the maximizer inside the contraction regime. The
ascent and the polish follow the derivative kernel of Phi, so Phi must
have one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import (
    ContractionViolated,
    LowerBoundViolated,
    NoDerivative,
    NonConvergence,
)
from .functionals import MeasureFunctional
from .spectral import (
    SobolevWeight,
    SpectralMeasure,
    SpectralVector,
    dual_embed,
    eval_modes,
    grid_nodes,
    hs_norm,
    mode_values,
)

__all__ = [
    "SupConvResult",
    "sup_convolve",
    "sup_convolve_batch",
    "fixed_point_maximizer",
    "simplex_project",
]


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


_GRID_BLOCK = 256  # simplex-grid rows scored per batched objective call


def _simplex_grid_blocks(n_parts: int, steps: int):
    """All weight vectors with entries j/steps summing to 1, as arrays of
    at most ``_GRID_BLOCK`` rows: each point is the gaps between
    n_parts - 1 bars placed among steps + n_parts - 1 slots."""
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
    """J_r(p) = Phi(m(p)) - |q_r - m(p)|^2_{-s} / (2 eps_r) over atom weights.

    Row r of the objective has its own base point q_r (row r of ``qs``, an
    ``(R, 2K+1, ..., 2K+1)`` coefficient array) and its own eps_r; Phi, the
    weight and the ``(n, d)`` atoms are shared. ``value``, ``gradient``
    and ``direction`` take one weight vector ``(atoms,)`` with one row id, or a batch ``(S, atoms)`` with ``(S,)`` row ids, and
    treat every weight vector on its own.

    The penalty's Hessian in p is M / eps_r with M = Re(A^H W^{-1} A), the
    same atoms x atoms matrix for every row; ``direction`` preconditions
    the gradient with it. Phi must have a derivative kernel; a value-only
    Phi raises NoDerivative.
    """

    def __init__(self, phi, qs, eps, weight, atoms):
        if phi.derivative_coeffs is None:
            raise NoDerivative("the sup-convolution ascent needs the "
                               "derivative kernel of Phi")
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
        """Exact gradient, from the derivative kernel of Phi."""
        cflat = _rowwise_matvec(self.A, p)
        gk = self.phi.fast_derivative_coeffs(
            cflat.reshape(p.shape[:-1] + self.shape))
        phi_part = _rowwise_matvec(self.AH, gk.reshape(cflat.shape)).real
        diff = cflat - self.qflat[rows]
        pen_part = (_rowwise_matvec(self.AH, diff / self.wflat).real
                    / self.eps[rows][..., None])
        return phi_part - pen_part

    def direction(self, p: np.ndarray, rows) -> np.ndarray:
        """The ascent direction: a projected-Newton step under the penalty
        Hessian (Bertsekas, SIAM J. Control Optim. 20, 1982).

        On the free set F of each row it solves
        [M_FF / eps, 1; 1^T, 0] [d_F; lam] = [g_F; 0] for the gradient g
        and sets d = 0 off F. F holds the atoms with weight and the empty
        atoms whose g exceeds lam of the solve on the weighted atoms, less
        the empty atoms the solve would push below zero. d is 0 only at a
        KKT point; otherwise p + t d stays on the simplex for small t and
        climbs at rate d^T (M / eps) d.
        """
        g = self.gradient(p, rows)
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
        jac=lambda p: -obj.gradient(p, row),
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
    """KKT-style residual: the feasible ascent rate along the gradient at
    p, clipped at 0."""
    h0 = 1e-7
    g = obj.gradient(p, row)
    return max(float(obj.value(simplex_project(p + h0 * g), row) - val)
               / h0, 0.0)


def _brute_force(obj: _SimplexObjective, n_at: int,
                 steps: int) -> tuple[np.ndarray, float]:
    """The first maximizer of row 0 of J over the simplex grid with
    ``steps`` steps, scored in blocks of points so the grid is never held
    whole."""
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
    ascent direction is the gradient preconditioned by the exact penalty
    Hessian on each start's free atoms. ``SupConvResult.residual`` is the
    ascent rate along the gradient. Both solvers need the derivative
    kernel of Phi and raise NoDerivative without one.
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
