"""Circle PDE solvers and the coupled mean-field-control system.

The circle solvers march band-limited fields with an exponential
integrator: the heat part is applied exactly (multiplier
exp(-4 pi^2 k^2 dt) on mode k, matching the sqrt(2) dW convention) and the
transport / Hamiltonian terms are explicit, Heun-corrected. Inside the
time loops every transform is one of the cached grid operators of
``SpectralGrid`` (spectral derivative, heat semigroup, mode synthesis and
analysis), applied by matmul; no FFT runs there, and the Fokker-Planck
steps are real arithmetic on the real coefficient layout. The window solver
``solve_viscous_hj`` (criterion 2) solves -d_t v - nu v'' + |v'|^2/2 = 0
on an interval, with no source: the Hamiltonian H(p) = p^2/2 by the
monotone Lax-Friedrichs flux with dissipation theta >= max |v'|, the
diffusion by an implicit step.

The mean-field-control solver iterates the optimality system of the
quadratic Hamiltonian H(p) = p^2/2 with a terminal cost G: backward HJB
from dG/dm at the final measure, feedback alpha = -u', forward
Fokker-Planck, damped relaxation of the flow.

A flow of measures is one (nt+1, 2K+1) array in the real layout
r = (Re c_0..c_K, Im c_1..c_K) of its frames' Hermitian coefficients, with
r[..., 0] = c_0 = 1 exactly; the Picard loop steps, relaxes and measures
flows in that layout. ``MFCSolution.flow`` holds c_{-K}..c_K, where
c_k = r_k + i r_{K+k} and c_{-k} = conj(c_k) for k >= 1.

Batch form: ``solve_fokker_planck`` and ``solve_mfc`` take a sequence of
B initial measures with a common cutoff, ``solve_hjb_semilinear`` a (B, n)
array of terminal values, and each steps its members in lockstep on a
leading batch axis. A member's result equals its solve as a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    CFLViolation,
    DimensionMismatch,
    MFCLabError,
    NonConvergence,
    ResolutionTooLow,
)
from .functionals import MeasureFunctional
from .spectral import (
    SpectralMeasure,
    _complex_layout,
    _divergence_analysis_op,
    _real_layout,
    _sobolev_weights,
    eval_modes,
    spectral_grid,
)

__all__ = [
    "MFCProblem",
    "MFCSolution",
    "MFCBatch",
    "solve_fokker_planck",
    "solve_hjb_semilinear",
    "solve_mfc",
    "solve_viscous_hj",
    "WindowSolution",
]


# ---------------------------------------------------------------------------
# problem data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MFCProblem:
    """Terminal cost G and horizon T of the control problem.

    The Hamiltonian is H(p) = |p|^2/2 (Lagrangian |a|^2/2), with no drift
    and no running cost.
    """

    terminal_cost: MeasureFunctional
    horizon: float

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")


def _batch(m0) -> tuple[list, int]:
    """The measures as a list and their cutoff, which they must share."""
    members = list(m0)
    cutoffs = {m.cutoff for m in members}
    if len(cutoffs) != 1:
        raise DimensionMismatch(
            f"a batch needs one cutoff, got {sorted(cutoffs)}")
    return members, cutoffs.pop()


def _check_times(t0: float, t1: float, nt: int, label: str) -> None:
    """The circle solvers march forward from t0 to t1 > t0 in nt >= 1
    steps; the heat multiplier of a backward step grows without bound."""
    if not t1 > t0:
        raise ValueError(f"{label}: needs t1 > t0, got t0 = {t0}, t1 = {t1}")
    if nt < 1:
        raise ValueError(f"{label}: needs nt >= 1 time steps, got {nt}")


def _advection_cfl(dt: float, dx: float, speed: float, label: str) -> None:
    """A NaN speed fails the test too: NaN compares false to every dt."""
    if speed <= 0:
        return
    stable = 0.9 * dx / speed
    if not dt <= stable:
        raise CFLViolation(
            f"{label}: dt = {dt:.3e} exceeds stable dt = {stable:.3e} "
            f"(dx = {dx:.3e}, max speed = {speed:.3e})", stable_dt=stable)


# ---------------------------------------------------------------------------
# Fokker-Planck
# ---------------------------------------------------------------------------

def solve_fokker_planck(alpha, m0, t0: float, t1: float,
                        nt: int = 200,
                        resolution: int | None = None,
                        check_cfl: bool = True) -> np.ndarray:
    """d_t m = m'' - (m alpha)', mass-conserving, in coefficient space.

    The density is synthesised on a padded grid of ``resolution`` points,
    the drift product formed there and analysed back to the
    working cutoff before the divergence (dealiasing; the band stays
    alias-free as long as resolution >= 3K+1 plus the drift's bandwidth
    margin). A resolution below 2K+1 aliases the modes themselves and
    raises ResolutionTooLow; t1 <= t0 or nt < 1 raises ValueError.

    The steps run on the real layout r = (Re c_0..c_K, Im c_1..c_K): the
    divergence is folded into the analysis operator, whose k = 0 column
    is zero, and the heat multiplier is 1 on k = 0, so c_0 = 1 and the
    Hermitian symmetry of the flow hold exactly with no projection.

    ``m0`` is a sequence of B measures with a common cutoff, and the
    result is their flows in that real layout, shape (B, nt+1, 2K+1), with
    r[..., 0] = c_0 = 1 exactly on every frame; ``spectral._complex_layout``
    returns their coefficients c_{-K}..c_K. ``alpha`` is None (no drift)
    or an array broadcast to (B, nt+1, n) on the times
    linspace(t0, t1, nt+1): (n,) is one drift for every time and member,
    (nt+1, n) one drift per time, and (B, nt+1, n) or (B, 1, n) one per
    member.
    """
    _check_times(t0, t1, nt, "solve_fokker_planck")
    members, K = _batch(m0)
    n = resolution if resolution is not None else 2 * (2 * K + 1) + 1
    if n < 2 * K + 1:
        raise ResolutionTooLow(
            f"solve_fokker_planck: resolution {n} < 2K+1 = {2 * K + 1}")
    dt = (t1 - t0) / nt
    if alpha is None:
        alpha = np.zeros(n)
    alpha = np.asarray(alpha, dtype=float)
    if check_cfl:
        _advection_cfl(dt, 1.0 / n, float(np.abs(alpha).max()),
                       "solve_fokker_planck")
    a_steps = np.broadcast_to(alpha, (len(members), nt + 1, n))
    grid = spectral_grid(n)
    decay = grid.extract(grid.heat(dt), K)[K:]  # k = 0..K
    heat = np.concatenate([decay, decay[1:]])
    synth, flux = grid.synthesis_op(K), _divergence_analysis_op(n, K)

    def rhs(r: np.ndarray, a: np.ndarray) -> np.ndarray:
        return grid.apply(grid.apply(r, synth) * a, flux)

    r = _real_layout(np.stack([m.coeffs for m in members]))
    flows = np.empty((len(members), nt + 1) + r.shape[1:])
    flows[:, 0] = r
    for j in range(nt):
        k1 = rhs(r, a_steps[:, j])
        pred = (r + dt * k1) * heat
        k2 = rhs(pred, a_steps[:, j + 1])
        r = (r + 0.5 * dt * k1) * heat + 0.5 * dt * k2
        flows[:, j + 1] = r
    return flows


# ---------------------------------------------------------------------------
# semilinear HJB
# ---------------------------------------------------------------------------

def solve_hjb_semilinear(g, t0: float, t1: float, nt: int = 200,
                         check_cfl: bool = True) -> np.ndarray:
    """-d_t u - u'' + |u'|^2/2 = 0 with u(t1) = g, on the circle.

    ``g`` is the (B, n) array of B terminal fields sampled at the nodes
    j/n of a common grid, stepped in lockstep; returns their (B, nt+1, n)
    frames on the times linspace(t0, t1, nt+1). An array that is not 2-D
    or holds no member raises DimensionMismatch, fewer than 4 grid points
    ResolutionTooLow, and a non-finite value, t1 <= t0 or nt < 1
    ValueError.
    """
    _check_times(t0, t1, nt, "solve_hjb_semilinear")
    v = np.asarray(g, dtype=float)
    if v.ndim != 2 or len(v) == 0:
        raise DimensionMismatch(f"solve_hjb_semilinear: g has shape {v.shape}")
    B, n = v.shape
    if n < 4:
        raise ResolutionTooLow(f"solve_hjb_semilinear: n = {n} < 4")
    if not np.isfinite(v).all():
        raise ValueError("solve_hjb_semilinear: g must be finite")
    dt = (t1 - t0) / nt
    grid = spectral_grid(n)
    D, heat = grid.gradient_op(), grid.heat_op(dt)

    def rhs(values: np.ndarray) -> np.ndarray:
        return -0.5 * grid.apply(values, D) ** 2

    if check_cfl:
        speed = float(np.abs(grid.apply(v, D)).max())
        _advection_cfl(dt, 1.0 / n, speed, "solve_hjb_semilinear")

    frames = np.empty((B, nt + 1, n))
    frames[:, nt] = v
    for j in range(nt - 1, -1, -1):
        k1 = rhs(v)
        half = grid.apply(v + dt * k1, heat)
        k2 = rhs(half)
        v = grid.apply(v + 0.5 * dt * k1, heat) + 0.5 * dt * k2
        frames[:, j] = v
    return frames


# ---------------------------------------------------------------------------
# coupled MFC system
# ---------------------------------------------------------------------------

@dataclass
class MFCSolution:
    """Optimality-system output: adjoint field, flow, feedback, value."""

    times: np.ndarray  # (nt+1,) uniform
    u: np.ndarray  # (nt+1, n) adjoint frames
    alpha: np.ndarray  # (nt+1, n) feedback frames
    flow: np.ndarray  # (nt+1, 2K+1) coefficients c_{-K}..c_K
    value: float
    picard_residual: float
    certified: bool

    def feedback_at(self, t: float, points: np.ndarray) -> np.ndarray:
        """Evaluate the feedback drift at arbitrary circle points.

        The frames live on an odd grid, so the full mode set is symmetric
        and the trigonometric evaluation is exact for the stored field.
        ``points`` has shape (P,) and so has the result; the frame at t is
        analysed once per call (one cached-operator apply), so callers pass
        all their points at once. Between two frames the field is
        interpolated linearly in t; outside ``times`` the end frame holds.
        """
        ts, frames = self.times, self.alpha
        if t <= ts[0]:
            frame = frames[0]
        elif t >= ts[-1]:
            frame = frames[-1]
        else:
            j = int(np.searchsorted(ts, t) - 1)
            lam = (t - ts[j]) / (ts[j + 1] - ts[j])
            frame = (1 - lam) * frames[j] + lam * frames[j + 1]
        n = frame.shape[0]
        K = (n - 1) // 2
        grid = spectral_grid(n)
        coeffs = _complex_layout(grid.apply(frame, grid.analysis_op(K)))
        return eval_modes(coeffs, K, points)


class MFCBatch(list):
    """The MFCSolutions of a solve_mfc call, in input order."""

    @property
    def certified(self) -> bool:
        """True when every member is certified."""
        return all(s.certified for s in self)

    @property
    def picard_residual(self) -> float:
        """The worst member's Picard residual."""
        return max(s.picard_residual for s in self)


def _flow_distance(flow_a: np.ndarray, flow_b: np.ndarray) -> np.ndarray:
    """sup_t |a_t - b_t|_{-s} per member of (B, nt+1, 2K+1) real-layout
    flows, with w the Sobolev weights of the modes -K..K.

    Hermitian symmetry counts each mode k >= 1 twice, so the squared
    norm of a frame's difference q is the real weighted sum
    sum_j q_j^2 (1/w_0, 2/w_1..2/w_K, 2/w_1..2/w_K)_j.
    """
    K = flow_a.shape[-1] // 2
    w = _sobolev_weights(K)
    scale = 2.0 / np.concatenate([2.0 * w[K:K + 1], w[K + 1:], w[K + 1:]])
    q = flow_a - flow_b
    return np.sqrt(np.sum(q * q * scale, axis=-1)).max(axis=1)


# Picard relaxation: the next flow is 0.7 * current + 0.3 * propagated
_RELAXATION = 0.3


def solve_mfc(problem: MFCProblem, t0: float, m0, nt: int = 160,
              max_iter: int = 400, tol: float = 1e-7) -> MFCBatch:
    """Damped Picard iteration on the MFC optimality system.

    Every member starts from its drift-free flow. Given the current flow,
    solve the backward HJB from the terminal dG/dm at the final measure,
    set alpha = -u', propagate Fokker-Planck, and relax. The solver grid
    has 4K+1 points, and the residual is the sup over time of the H^{-2}
    distance between successive flows.
    Non-convex instances may stall at a residual plateau; the best iterate
    is then returned with ``certified=False`` instead of raising.

    ``m0`` is a sequence of B measures with a common cutoff; the
    result is an MFCBatch of B solutions. The Picard sweeps run in
    lockstep; a member whose residual drops below ``tol`` leaves the
    sweep, and each member keeps its own best iterate, residual and
    certificate, exactly as if solved alone.
    """
    members, K = _batch(m0)
    B = len(members)
    G = problem.terminal_cost
    T = problem.horizon
    _check_times(t0, T, nt, "solve_mfc")
    if max_iter < 1:
        raise ValueError(f"solve_mfc: needs max_iter >= 1, got {max_iter}")
    if not G.has_derivative:
        raise NonConvergence("solve_mfc needs the flat derivative of the "
                             "terminal cost")
    n = 4 * K + 1  # odd: symmetric full mode set
    times = np.linspace(t0, T, nt + 1)
    grid = spectral_grid(n)

    flows = solve_fokker_planck(None, members, t0, T, nt=nt, resolution=n,
                                check_cfl=False)

    # each member's best iterate: residual, relaxed flow, u and alpha frames
    best_resid = np.full(B, np.inf)
    best_flow = np.empty_like(flows)
    best_u = np.empty((B, nt + 1, n))
    best_alpha = np.empty((B, nt + 1, n))

    def sweep(active: np.ndarray, first: bool) -> np.ndarray:
        """One Picard sweep of the active members; returns their residuals.

        Updates ``flows`` and the best iterates in place, so the sweep's
        batch arrays are freed when it returns. The first sweep sets every
        member's best iterate, a NaN residual included; a later one those
        whose residual drops.
        """
        cur = flows[active]
        # backward HJB from dG/dm at the current final measures
        terminal = G.derivative(_complex_layout(cur[:, nt]), n)
        u_frames = solve_hjb_semilinear(terminal, t0, T, nt=nt,
                                        check_cfl=False)
        a_frames = -grid.apply(u_frames, grid.gradient_op())
        new = solve_fokker_planck(
            a_frames, [members[b] for b in active], t0, T, nt=nt,
            resolution=n, check_cfl=False)
        resid = _flow_distance(new, cur)
        relaxed = (1 - _RELAXATION) * cur + _RELAXATION * new
        flows[active] = relaxed
        better = (resid < best_resid[active]) | first
        rows = active[better]
        best_resid[rows] = resid[better]
        best_flow[rows] = relaxed[better]
        best_u[rows] = u_frames[better]
        best_alpha[rows] = a_frames[better]
        return resid

    active = np.arange(B)
    for it in range(max_iter):
        active = active[~(sweep(active, it == 0) < tol)]
        if active.size == 0:
            break

    out = MFCBatch()
    for resid, r_flow, u_fr, a_fr in zip(best_resid, best_flow, best_u,
                                         best_alpha):
        flow = _complex_layout(r_flow)
        value = _mfc_value(problem, times, flow, a_fr, grid)
        out.append(MFCSolution(times, u_fr, a_fr, flow, value, float(resid),
                               bool(resid < tol)))
    return out


def _mfc_value(problem, times, flow, alpha, grid) -> float:
    """Quadrature of the control cost |alpha|^2/2 along the flow plus the
    terminal cost; ``alpha`` holds the (nt+1, n) feedback frames on
    ``grid``, integrated per frame by the rectangle rule.

    The densities come from the FFT route (``SpectralGrid.values``); the
    value runs once per solve, outside the sweeps.
    """
    K = flow.shape[-1] // 2
    lag = 0.5 * alpha ** 2
    dens = grid.values(grid.embed(flow, K))
    running = (dens * lag).mean(axis=-1)
    value = float(np.trapezoid(running, times))
    value += problem.terminal_cost(SpectralMeasure(K, flow[-1]))
    return value


# ---------------------------------------------------------------------------
# viscous Hamilton-Jacobi on a window (Example-2 geometry)
# ---------------------------------------------------------------------------

@dataclass
class WindowSolution:
    """The window solution v(0, .) on the nodes ``x``."""

    x: np.ndarray
    values: np.ndarray


def solve_viscous_hj(terminal: Callable[[np.ndarray], np.ndarray],
                     nu: float, horizon: float, theta: float,
                     half_width: float = 3.0,
                     n: int = 4001) -> WindowSolution:
    """-d_t v - nu v'' + |v'|^2/2 = 0, v(T) = G on [-A, A], Neumann closure.

    The Hamiltonian H(p) = p^2/2 is discretized by the monotone
    Lax-Friedrichs flux with dissipation ``theta``, which must bound
    max |v'| = max |H'(v')| over the run; since |v'| stays below the
    Lipschitz constant of G, theta >= Lip(G) does. A theta below the
    steepest grid slope of G, max |G(x_{i+1}) - G(x_i)| / dx, raises
    ValueError: the flux is not monotone there. The time step is
    T / ceil(T / (0.45 dx / theta)), inside the advective CFL limit
    dx / theta. The diffusion is folded in by an implicit tridiagonal step
    each iteration: I - dt nu D2 is symmetric positive definite and the
    same at every step, so it is LDL^T-factored once per solve (LAPACK
    ``pttrf``) and each step only back-substitutes (``pttrs``); a failed
    factorization raises MFCLabError. ``nu = 0`` runs the pure first-order
    scheme and serves as the inviscid reference. Returns v at t = 0.
    """
    if not theta > 0:
        raise ValueError(f"theta must be positive, got {theta}")
    x = np.linspace(-half_width, half_width, n)
    dx = x[1] - x[0]
    v = np.asarray(terminal(x), dtype=float)
    slope = np.abs(np.diff(v)).max() / dx
    if theta < slope:
        raise ValueError(
            f"theta = {theta} is below the steepest terminal slope "
            f"{slope:.6g} on the grid")
    nt = int(np.ceil(horizon / (0.45 * dx / theta)))
    dt = horizon / nt

    # implicit diffusion operator (Neumann): tridiagonal I - dt nu D2
    if nu > 0:
        from scipy.linalg.lapack import dpttrf, dpttrs
        lam = nu * dt / dx ** 2
        diag = np.full(n, 1 + 2 * lam)
        diag[0] = diag[-1] = 1 + lam  # Neumann: reflected neighbor
        diag, off, info = dpttrf(diag, np.full(n - 1, -lam))
        if info != 0:
            raise MFCLabError(
                f"solve_viscous_hj: tridiagonal factorization failed "
                f"(pttrf info = {info})")

    dminus = np.empty(n)
    dplus = np.empty(n)
    dminus[0] = 0.0   # Neumann ghosts
    dplus[-1] = 0.0
    for _ in range(nt):
        np.subtract(v[1:], v[:-1], out=dminus[1:])
        dminus[1:] /= dx
        dplus[:-1] = dminus[1:]
        p = 0.5 * (dminus + dplus)
        v = v - dt * (0.5 * p ** 2 - 0.5 * theta * (dplus - dminus))
        if nu > 0:
            v = dpttrs(diag, off, v, overwrite_b=1)[0]
    return WindowSolution(x, v)
