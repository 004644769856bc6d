"""Sup-convolution of measure functionals in H^{-s}.

Phi_eps(q) = sup_m {Phi(m) - |q-m|^2_{-s}/(2 eps)}, at the package's one
Sobolev order s = 2 (the weights of ``spectral``), is solved over the
simplex of grid-atom weights (band-limited measures) by
``sup_convolve_batch``, a projected-Newton ascent that runs the starts of
many base points q and eps as one batch, each start on its own line-search
schedule; ``sup_convolve`` is the brute-force reference for one q, a grid
scan finished by the same ascent; and ``fixed_point_maximizer`` runs the
Picard iteration
    m  <-  q + eps * (flat derivative of Phi at m)^dual
at full step for a ladder of eps values at once: inside the contraction
regime the map contracts by a factor below 1/2, and its fixed point is
the maximizer. The ascent follows the derivative kernel of Phi, so Phi
must have one.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractionViolated,
    LowerBoundViolated,
    NoDerivative,
    NonConvergence,
)
from .functionals import MeasureFunctional
from .spectral import (
    SpectralMeasure,
    SpectralVector,
    _freeze,
    _hermitian_project,
    _hs_norms,
    _measure_coeffs,
    _sobolev_weights,
    eval_modes,
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


_GRID_BLOCK = 2048  # simplex-grid rows scored per batched objective call


def _simplex_grid_blocks(n_parts: int, steps: int):
    """All weight vectors with entries j/steps summing to 1, as arrays of
    at most ``_GRID_BLOCK`` rows: each point is the gaps between
    n_parts - 1 bars placed among steps + n_parts - 1 slots."""
    slots = steps + n_parts - 1
    bars = itertools.combinations(range(slots), n_parts - 1)
    while block := list(itertools.islice(bars, _GRID_BLOCK)):
        cuts = np.array(block, dtype=int).reshape(len(block), n_parts - 1)
        yield (np.diff(cuts, axis=1, prepend=-1, append=slots) - 1) / steps


@functools.lru_cache(maxsize=8)
def _simplex_grid(n_parts: int, steps: int) -> np.ndarray:
    """The points of ``_simplex_grid_blocks`` as one array, built once per
    (n_parts, steps) and shared read-only."""
    return _freeze(np.concatenate(list(_simplex_grid_blocks(n_parts, steps))))


def _rowwise_matvec(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """mat @ x along the last axis of x, summed in one fixed order, so a
    row of a batch gets the same bits as a 1-D call (BLAS picks gemv or
    gemm by batch size, and they round differently)."""
    return np.sum(x[..., None, :] * mat, axis=-1)


def _atom_table(cutoff: int, atoms: np.ndarray) -> np.ndarray:
    """A[k, a] = exp(2 pi i k x_a): column a holds the coefficients of the
    Dirac at atom a, so weights p give the measure coefficients A @ p."""
    k = mode_values(cutoff)
    return np.exp(2j * np.pi * k[:, None] * atoms)  # (modes, atoms)


@functools.lru_cache(maxsize=8)
def _grid_coeffs(cutoff: int, atoms: tuple, steps: int) -> np.ndarray:
    """The measure coefficients of every point of ``_simplex_grid`` over
    ``atoms``, built once per (cutoff, atoms, steps) and shared read-only.
    The product runs in slices of ``_GRID_BLOCK`` points: over the whole
    grid, its (points, modes, atoms) temporary would be atoms times the
    table's size."""
    A = _atom_table(cutoff, np.array(atoms))
    grid = _simplex_grid(len(atoms), steps)
    coeffs = np.empty((len(grid), len(A)), dtype=complex)
    for i in range(0, len(grid), _GRID_BLOCK):
        coeffs[i:i + _GRID_BLOCK] = _rowwise_matvec(
            A, grid[i:i + _GRID_BLOCK])
    return _freeze(coeffs)


class _SimplexObjective:
    """J_r(p) = Phi(m(p)) - |q_r - m(p)|^2_{-s} / (2 eps_r) over atom weights.

    Row r of the objective has its own base point q_r (row r of ``qs``, an
    ``(R, 2K+1)`` coefficient array) and its own eps_r; Phi and the ``(n,)``
    atoms are shared. ``value``, ``gradient`` and ``direction`` take one
    weight vector ``(atoms,)`` with one row id, or a batch ``(S, atoms)``
    with ``(S,)`` row ids, and treat every weight vector on its own.

    The penalty's Hessian in p is M / eps_r with M = Re(A^H W^{-1} A), the
    same atoms x atoms matrix for every row; ``direction`` preconditions
    the gradient with it. Phi must have a derivative kernel; a value-only
    Phi raises NoDerivative.
    """

    def __init__(self, phi, qs, eps, atoms):
        if phi.derivative_coeffs is None:
            raise NoDerivative("the sup-convolution ascent needs the "
                               "derivative kernel of Phi")
        self.phi = phi
        self.atoms = tuple(atoms)
        self.A = _atom_table(phi.cutoff, atoms)
        self.AH = np.conj(self.A.T)  # (atoms, modes)
        self.qs = np.asarray(qs)
        self.eps = np.asarray(eps, dtype=float)
        self.w = _sobolev_weights(phi.cutoff)
        # on the 2K+1 grid nodes A is a square DFT matrix, hence
        # invertible, so M is positive definite and every KKT system of
        # ``direction`` is nonsingular
        self.M = (self.AH @ (self.A / self.w[:, None])).real

    def measure(self, p: np.ndarray) -> SpectralMeasure:
        return SpectralMeasure(self.phi.cutoff, self.A @ p)

    def value(self, p: np.ndarray, rows):
        return self.value_at(_rowwise_matvec(self.A, p), rows)

    def value_at(self, coeffs: np.ndarray, rows):
        """``value`` at weights whose measure coefficients A @ p are
        ``coeffs``."""
        q = self.qs[rows]
        diff = coeffs - q
        pen = (np.sum(np.abs(diff) ** 2 / self.w, axis=-1)
               / (2.0 * self.eps[rows]))
        return self.phi.fast_value(diff + q) - pen

    def gradient(self, p: np.ndarray, rows) -> np.ndarray:
        """Exact gradient, from the derivative kernel of Phi."""
        c = _rowwise_matvec(self.A, p)
        gk = self.phi.fast_derivative_coeffs(c)
        phi_part = _rowwise_matvec(self.AH, gk).real
        diff = c - self.qs[rows]
        pen_part = (_rowwise_matvec(self.AH, diff / self.w).real
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


def _ascent(obj: _SimplexObjective, starts: np.ndarray,
            max_iter: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projected ascent along ``obj.direction`` (the projected-Newton
    direction) from every row of ``starts``; start r climbs row r of
    ``obj``.

    Every iteration's line search starts at the full projected-Newton step
    t = 1 and halves it: trial k of an iteration tries t = 2^-k, and the
    first trial that climbs is taken (Bertsekas, SIAM J. Control Optim.
    20, 1982). A step carried over from the last iteration would stall at
    a kink of Phi: a kink can force one short step, and the next line
    search would then start short, where its trials round to p or gain
    less than the acceptance margin while the full step still climbs.

    Each row runs its own schedule, exactly as if it ran alone: one pass
    of the loop scores one trial for every row still climbing, whatever
    iteration that row is on, in one projection and one value call. A row
    whose trial climbs takes the point and starts its next iteration at
    t = 1, and the rows that climbed in a pass get their new directions in
    one ``direction`` call; a row whose trial fails halves its step. So
    the number of passes is the largest trial count of a lone row, not
    the sum over iterations of the slowest row's trials.

    A row stops when 40 halvings find no increase, or after ``max_iter``
    (at least 1) iterations. A row whose failed trial point p + t d
    rounds to p on every coordinate makes no more trials: each shorter
    step adds a smaller increment of the same sign, which rounds to p
    again, so its trials would all score the same point and fail. It
    stops as if its 40 halvings had run. Returns the final points
    (S, atoms), values (S,) and iterations (S,).
    """
    p = simplex_project(starts)
    val = obj.value(p, np.arange(len(p)))
    its = np.ones(len(p), dtype=int)
    k = np.zeros(len(p), dtype=int)  # each row's halvings in its iteration
    d = np.zeros_like(p)
    active = np.arange(len(p))
    climbed = active  # the rows that need a new direction
    while len(active):
        if len(climbed):
            d[climbed] = obj.direction(p[climbed], climbed)
        pa = p[active]
        x = pa + 0.5 ** k[active, None] * d[active]
        moved = np.any(x != pa, axis=1)
        cand = simplex_project(x)
        cval = obj.value(cand, active)
        up = cval > val[active] + 1e-15
        p[active[up]], val[active[up]] = cand[up], cval[up]
        k[active] = np.where(up, 0, k[active] + 1)
        # a climbing row stops after its last iteration; a failing one
        # after its 40th halving, or once its trial point rounds to p
        more = its[active] < max_iter
        keep = np.where(up, more, (k[active] < 40) & moved)
        climbed = active[up & more]
        its[climbed] += 1
        active = active[keep]
    return p, val, its


def _kkt_residual(obj: _SimplexObjective, rows, p: np.ndarray,
                  val: np.ndarray) -> np.ndarray:
    """KKT-style residuals of the weights p (S, atoms) on objective rows
    ``rows`` (S,), whose values are ``val`` (S,): the feasible ascent rate
    along the gradient at each point, clipped at 0."""
    h0 = 1e-7
    g = obj.gradient(p, rows)
    return np.maximum((obj.value(simplex_project(p + h0 * g), rows) - val)
                      / h0, 0.0)


def _brute_force(obj: _SimplexObjective, n_at: int,
                 steps: int) -> tuple[np.ndarray, float]:
    """The first maximizer of row 0 of J over the simplex grid with
    ``steps`` steps, scored in slices of ``_GRID_BLOCK`` points from the
    cached coefficients of the grid."""
    grid = _simplex_grid(n_at, steps)
    coeffs = _grid_coeffs(obj.phi.cutoff, obj.atoms, steps)
    best_p, best_val = None, -np.inf
    for start in range(0, len(grid), _GRID_BLOCK):
        pts = grid[start:start + _GRID_BLOCK]
        vals = obj.value_at(coeffs[start:start + _GRID_BLOCK], 0)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_p, best_val = pts[i], vals[i]
    return best_p, best_val


def _results(obj: _SimplexObjective, rows, qs, eps,
             p: np.ndarray, val: np.ndarray,
             iterations: np.ndarray) -> list[SupConvResult]:
    """One result per base point of ``qs`` (with its eps), for the
    weights p (S, atoms) of objective rows ``rows``; the KKT residuals of
    all rows come from one batched ``_kkt_residual`` call."""
    residual = _kkt_residual(obj, rows, p, val)
    out = []
    for q, e, p_i, v, it, r in zip(qs, eps, p, val, iterations, residual):
        m_star = obj.measure(p_i)
        grad = SpectralVector(q.cutoff, (m_star.coeffs - q.coeffs) / e)
        out.append(SupConvResult(float(v), m_star, grad, int(it), float(r)))
    return out


_N_STARTS = 8  # ascent starts per base point, warm starts aside
_MAX_ITER = 400  # ascent iterations per start; Newton steps need under 20
_BRUTE_STEPS = 25  # the brute-force grid has weights j/25 on each atom


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


def _per_point(values, n: int, what: str) -> np.ndarray:
    """``values`` as one entry per base point: one value is shared by all
    n points, and a sequence must hold n entries."""
    values = np.asarray(values)
    if values.ndim == 0:
        return np.full(n, values)
    if values.shape != (n,):
        raise ValueError(f"{len(values)} {what} for {n} base points")
    return values


def sup_convolve_batch(phi: MeasureFunctional, qs, eps,
                       *, n_starts=_N_STARTS, seed: int = 0,
                       warm_starts=None) -> list[SupConvResult]:
    """Evaluate Phi_eps(q) = sup_m {Phi(m) - |q - m|^2_{-s}/(2 eps)} by
    projected-Newton ascent, for many base points q at once.

    The admissible set is the simplex of weights on the 2K+1 grid nodes,
    identified with band-limited measures through the truncated atom
    coefficients. ``qs`` is a sequence of measures; ``eps`` and
    ``n_starts`` are each one value per measure, or one for all (a
    sequence of another length raises ValueError);
    ``warm_starts``, when given, holds one tuple of weight vectors per
    measure (tuples may differ in length), which join that measure's start
    list. Returns one ``SupConvResult`` per measure: the best value of its
    starts wins, ties to the lowest start index.

    Every problem builds its own starts, and the starts of all problems
    ascend as one ``(S, atoms)`` batch (see ``_ascent``), each row against
    its own q and eps: Phi is called through ``fast_value`` /
    ``fast_derivative_coeffs`` with a leading batch axis, so its
    coefficient kernels must accept one (see ``MeasureFunctional``). Each
    start follows the path it would follow alone, bit for bit when Phi's
    kernels treat rows independently (the linear and cylindrical ones do;
    the distance cost's table product may round a batch row and a lone row
    differently in the last bit). Each ascent step follows the
    projected-Newton direction of ``_SimplexObjective.direction``: the
    gradient preconditioned by the exact penalty Hessian on each start's
    free atoms, so a quadratic objective (linear Phi) reaches its maximizer
    in a few steps. ``SupConvResult.residual`` is the ascent rate along the
    gradient; the winners' rates come from one batched call. Phi needs a
    derivative kernel; without one NoDerivative is raised.
    """
    qs = list(qs)
    eps = _per_point(eps, len(qs), "eps values").astype(float)
    if np.any(eps <= 0):
        raise ValueError("eps must be positive")
    n_starts = _per_point(n_starts, len(qs), "start counts")
    if not qs:
        return []
    if warm_starts is None:
        warm_starts = [()] * len(qs)
    if len(warm_starts) != len(qs):
        raise ValueError(f"{len(warm_starts)} warm-start tuples for "
                         f"{len(qs)} base points")
    atoms = np.arange(2 * phi.cutoff + 1) / (2 * phi.cutoff + 1)
    starts = [_starts(q, atoms, n, seed, warm)
              for q, n, warm in zip(qs, n_starts, warm_starts)]
    owner = np.repeat(np.arange(len(qs)), [len(st) for st in starts])
    obj = _SimplexObjective(phi, np.stack([q.coeffs for q in qs])[owner],
                            eps[owner], atoms)
    ps, vals, its = _ascent(obj, np.concatenate(starts), _MAX_ITER)

    best = []  # the best value wins, ties to the lowest start index
    for i in range(len(qs)):
        rows = np.flatnonzero(owner == i)
        b = rows[0]
        for r in rows[1:]:
            if vals[r] > vals[b] + 1e-15:
                b = r
        best.append(b)
    best = np.array(best)
    return _results(obj, best, qs, eps, ps[best], vals[best], its[best])


def sup_convolve(phi: MeasureFunctional, q: SpectralMeasure, eps: float,
                 seed: int = 0) -> SupConvResult:
    """Phi_eps(q) by brute force: the reference for one base point q.

    Scores every weight vector with entries j/25 on the 2K+1 grid nodes,
    then the projected starts of ``sup_convolve_batch``, keeps the first
    maximizer and runs the ascent of ``sup_convolve_batch`` from it: the
    grid alone is 1/25 coarse. ``iterations`` and ``residual`` are that
    ascent's. Phi needs a derivative kernel, as in the ascent; without one
    NoDerivative is raised.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    atoms = np.arange(2 * phi.cutoff + 1) / (2 * phi.cutoff + 1)
    obj = _SimplexObjective(phi, q.coeffs[None], [eps], atoms)
    best_p, best_val = _brute_force(obj, len(atoms), _BRUTE_STEPS)
    projected = simplex_project(_starts(q, atoms, _N_STARTS, seed, ()))
    for p, v in zip(projected, obj.value(projected, 0)):
        if v > best_val:
            best_p, best_val = p, v
    p, val, its = _ascent(obj, best_p[None], _MAX_ITER)
    return _results(obj, [0], [q], [eps], p, val, its)[0]


_FIXED_POINT_MAX_ITER = 2000
_FIXED_POINT_TOL = 1e-13  # H^{-s} distance between an iterate and its image


def fixed_point_maximizer(phi: MeasureFunctional, q: SpectralMeasure, eps,
                          lower_bound: float | None = None
                          ) -> list[SpectralMeasure]:
    """Picard iteration m <- T(m) = q + eps * (dPhi/dm(m, .))^dual, each
    step taking the map's full image, until an iterate and its image are
    1e-13 apart in H^{-s}.

    ``eps`` is one value or a 1-D sequence of them; the result is a list
    with one maximizer per value, in order. The iterates of all values step
    as one ``(E, 2K+1)`` coefficient array: one batched derivative call per
    iteration, then the projections of the SpectralVector and
    SpectralMeasure constructors on the image, so each row gets the bits
    of a lone solve. A row leaves the batch with the iterate it holds when
    its residual reaches the tolerance; NonConvergence reports the worst
    residual still in it.

    The dual map here is H^s -> H^{-s}: coefficients are multiplied by the
    Sobolev weight, so |T(m) - T(m')|_{-s} = eps |dPhi/dm(m) -
    dPhi/dm(m')|_s <= eps C_S |m - m'|_{-s} when C_S, the H^{-s}
    semi-concavity constant, bounds the derivative on both sides (the
    linear functional has C_S = 0; the cylindrical one builds C_S from its
    two-sided bound |G''| <= ``outer_hess_bound``). ContractionViolated
    refuses any ladder whose largest eps reaches 1/(2 C_S), so T contracts
    by a factor below 1/2, the full step converges geometrically to the
    unique fixed point, and that fixed point is the sup-convolution
    maximizer. A damped step (1 - a) m + a T(m) would only be slower: on a
    convex Phi, where the derivative of T has eigenvalues lam in
    [0, eps C_S], it contracts by 1 - a + a lam >= lam. A functional with
    no semi-concavity constant gets no such guarantee, and NonConvergence
    reports an iteration that does not settle.
    ``lower_bound``, when given, is the caller's threshold c for the
    q >= c Leb precondition; violations raise with the threshold and the
    observed minimum reported.
    """
    eps = np.atleast_1d(np.asarray(eps, dtype=float))
    if eps.ndim != 1 or not len(eps):
        raise ValueError("eps must be one value or a non-empty 1-D sequence")
    if not phi.has_derivative:
        raise NoDerivative("fixed-point solver needs a flat derivative")
    cs = phi.metadata.semiconcave_hs
    if cs is not None and cs > 0 and eps.max() >= 1.0 / (2.0 * cs):
        raise ContractionViolated(
            f"eps = {eps.max()} outside the contraction regime (needs eps < "
            f"{1.0 / (2.0 * cs):.3e} = 1/(2 C_S))"
        )
    if lower_bound is not None:
        dens_min = q.density_min()
        if dens_min < lower_bound:
            raise LowerBoundViolated(
                f"base density minimum {dens_min:.4e} below threshold "
                f"{lower_bound:.4e}", threshold=lower_bound,
                observed_min=dens_min)
    K = phi.cutoff
    w = _sobolev_weights(K)
    out = [None] * len(eps)
    active = np.arange(len(eps))
    m = np.repeat(q.coeffs[None], len(eps), axis=0)
    for _ in range(_FIXED_POINT_MAX_ITER):
        lifted = _hermitian_project(phi.fast_derivative_coeffs(m) * w)
        target = _measure_coeffs(q.coeffs + eps[active, None] * lifted)
        diff = _hermitian_project(m - target)
        residual = _hs_norms(diff, K)
        done = residual <= _FIXED_POINT_TOL
        for i, c in zip(active[done], m[done]):
            out[i] = SpectralMeasure(K, c)
        active, m, target = active[~done], m[~done], target[~done]
        if not len(active):
            return out
        m = target
    raise NonConvergence("fixed point iteration did not reach tolerance",
                         residual=float(residual[~done].max()),
                         iterations=_FIXED_POINT_MAX_ITER)
