"""Torus PDE solvers and the coupled mean-field-control system.

All torus solvers march band-limited fields with an exponential integrator:
the heat part is applied exactly (multiplier exp(-4 pi^2 |k|^2 dt) on mode
k, matching the sqrt(2) dW convention) and the transport / Hamiltonian
terms are explicit, Heun-corrected. Inside the time loops every transform
is one of the cached 1-D grid operators of ``SpectralGrid`` (spectral
gradient, heat semigroup, mode synthesis and analysis), applied by matmul;
no FFT runs there. The window solver ``solve_viscous_hj`` (criterion 2)
solves -d_t v - nu v'' + |v'|^2/2 = 0 on an interval, with no source: the
Hamiltonian H(p) = p^2/2 by the monotone Lax-Friedrichs flux with
dissipation theta >= max |v'|, the diffusion by an implicit step.

The mean-field-control solver iterates the optimality system of the
quadratic Hamiltonian H(p) = |p|^2/2 with a terminal cost G: backward HJB
from dG/dm at the final measure, feedback alpha = -Du, forward
Fokker-Planck, damped relaxation of the flow.

A flow of measures is one (nt+1, 2K+1, ..., 2K+1) coefficient array whose
frames satisfy the SpectralMeasure invariants (c_0 = 1, Hermitian).

Batch form: ``solve_hjb_semilinear``, ``solve_fokker_planck`` and
``solve_mfc`` take a sequence of B terminal fields / initial measures on a
common grid or cutoff and step them in lockstep on a leading batch axis.
A member's result equals its solve as a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import (
    CFLViolation,
    DimensionMismatch,
    MFCLabError,
    NonConvergence,
)
from .functionals import MeasureFunctional
from .spectral import (
    GridField,
    SobolevWeight,
    SpectralMeasure,
    _hermitian_project,
    _measure_coeffs,
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


def _batch(members, attr: str) -> list:
    """The members as a list; they must agree in dim and ``attr``."""
    members = list(members)
    keys = {(m.dim, getattr(m, attr)) for m in members}
    if len(keys) != 1:
        raise DimensionMismatch(
            f"a batch needs members of one dim and {attr}, got {sorted(keys)}")
    return members


def _gradient(grid, values: np.ndarray) -> np.ndarray:
    """Spectral gradient of (..., n, ..., n) samples by the cached operator;
    returns shape (..., dim, n, ..., n)."""
    D = grid.gradient_op()
    return np.stack([grid.apply(values, D, axis=ax)
                     for ax in range(grid.dim)], axis=-grid.dim - 1)


def _advection_cfl(dt: float, dx: float, speed: float, label: str) -> None:
    if speed <= 0:
        return
    stable = 0.9 * dx / speed
    if dt > stable:
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
    """d_t m = Lap m - div(m alpha), mass-conserving, in coefficient space.

    The density is synthesised on a padded grid of ``resolution`` points
    per axis, the drift product formed there and analysed back to the
    working cutoff before the divergence (dealiasing; the band stays
    alias-free as long as resolution >= 3K+1 plus the drift's bandwidth
    margin). The k = 0 mode is untouched by construction, so total mass
    stays exactly 1.

    ``m0`` is a sequence of B measures with a common dim and cutoff, and
    the result is their flows, shape (B, nt+1, 2K+1, ...): every frame has
    c_0 = 1 and exact Hermitian symmetry. ``alpha`` is None (no drift) or
    an array broadcast to (B, nt+1, d, n, ..., n) on the times
    linspace(t0, t1, nt+1): (d, n, ...) is one drift for every time and
    member, (nt+1, d, n, ...) one drift per time, and (B, nt+1, d, n, ...)
    or (B, 1, d, n, ...) one per member.
    """
    members = _batch(m0, "cutoff")
    K = members[0].cutoff
    d = members[0].dim
    n = resolution if resolution is not None else 2 * (2 * K + 1) + 1
    dt = (t1 - t0) / nt
    if alpha is None:
        alpha = np.zeros((d,) + (n,) * d)
    alpha = np.asarray(alpha, dtype=float)
    if check_cfl:
        _advection_cfl(dt, 1.0 / n, float(np.abs(alpha).max()),
                       "solve_fokker_planck")
    a_steps = np.broadcast_to(alpha, (len(members), nt + 1, d) + (n,) * d)
    grid = spectral_grid(d, n)
    heat = grid.extract(grid.heat(dt), K)
    div = grid.extract(grid.deriv, K)
    synth, analysis = grid.synthesis_op(K), grid.analysis_op(K)

    def rhs(coeffs: np.ndarray, a: np.ndarray) -> np.ndarray:
        dens = grid.apply(coeffs, synth).real
        fhat = grid.apply(dens[:, None] * a, analysis)
        out = fhat[:, 0] * div[0]
        for ax in range(1, d):
            out += fhat[:, ax] * div[ax]
        return -out

    c = np.stack([m.coeffs for m in members])
    flows = np.empty((len(members), nt + 1) + c.shape[1:], dtype=complex)
    flows[:, 0] = c
    for j in range(nt):
        k1 = rhs(c, a_steps[:, j])
        pred = (c + dt * k1) * heat
        k2 = rhs(pred, a_steps[:, j + 1])
        c = _measure_coeffs((c + 0.5 * dt * k1) * heat + 0.5 * dt * k2, d)
        flows[:, j + 1] = c
    return flows


# ---------------------------------------------------------------------------
# semilinear HJB
# ---------------------------------------------------------------------------

def solve_hjb_semilinear(g, t0: float, t1: float, nt: int = 200,
                         check_cfl: bool = True) -> np.ndarray:
    """-d_t u - Lap u + |Du|^2/2 = 0 with u(t1) = g, on the torus.

    ``g`` is a sequence of B GridFields on a common grid, stepped in
    lockstep; returns their (B, nt+1, n, ..., n) frames on the times
    linspace(t0, t1, nt+1).
    """
    members = _batch(g, "resolution")
    n = members[0].resolution
    d = members[0].dim
    dt = (t1 - t0) / nt
    grid = spectral_grid(d, n)
    D, heat = grid.gradient_op(), grid.heat_op(dt)

    def rhs(values: np.ndarray) -> np.ndarray:
        out = grid.apply(values, D, axis=0) ** 2
        for ax in range(1, d):
            out += grid.apply(values, D, axis=ax) ** 2
        return -0.5 * out

    v = np.stack([m.values for m in members])
    if check_cfl:
        speed = float(np.abs(_gradient(grid, v)).max())
        _advection_cfl(dt, 1.0 / n, max(speed, 1e-12),
                       "solve_hjb_semilinear")

    frames = np.empty((len(members), nt + 1) + v.shape[1:])
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
    u: np.ndarray  # (nt+1, n, ..., n) adjoint frames
    alpha: np.ndarray  # (nt+1, d, n, ..., n) feedback frames
    flow: np.ndarray  # (nt+1, 2K+1, ...) coefficients
    value: float
    picard_residual: float
    certified: bool

    def feedback_at(self, t: float, points: np.ndarray) -> np.ndarray:
        """Evaluate the feedback drift at arbitrary torus points.

        The frames live on an odd grid, so the full mode set is symmetric
        and the trigonometric evaluation is exact for the stored field.
        ``points`` has shape (P, d), or (P,) when d = 1; the frame at t is
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
        d = frame.shape[0]
        n = frame.shape[1]
        K = (n - 1) // 2
        grid = spectral_grid(d, n)
        coeffs = grid.apply(frame, grid.analysis_op(K))
        pts = np.asarray(points, dtype=float).reshape(-1, d)
        out = np.empty((len(pts), d))
        for ax in range(d):
            out[:, ax] = eval_modes(coeffs[ax], K, pts)
        return out


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


def _flow_distance(flow_a: np.ndarray, flow_b: np.ndarray, w: np.ndarray,
                   dim: int) -> np.ndarray:
    """sup_t |a_t - b_t|_{-s} per member of (B, nt+1, 2K+1, ...) flows."""
    q = _hermitian_project(flow_a - flow_b, dim)
    sq = np.sum(q * np.conj(q) / w, axis=tuple(range(-dim, 0))).real
    return np.sqrt(np.maximum(sq, 0.0)).max(axis=1)


# Picard relaxation: the next flow is 0.7 * current + 0.3 * propagated
_RELAXATION = 0.3


def solve_mfc(problem: MFCProblem, t0: float, m0, nt: int = 160,
              max_iter: int = 400, tol: float = 1e-7,
              init_flow=None) -> MFCBatch:
    """Damped Picard iteration on the MFC optimality system.

    Given the current flow, solve the backward HJB from the terminal dG/dm
    at the final measure, set alpha = -Du, propagate Fokker-Planck, and
    relax. The solver grid has 4K+1 points per axis, and the residual is
    the sup over time of the H^{-2} distance between successive flows.
    Non-convex instances may stall at a residual plateau; the best iterate
    is then returned with ``certified=False`` instead of raising.

    ``m0`` is a sequence of B measures with a common dim and cutoff; the
    result is an MFCBatch of B solutions. The Picard sweeps run in
    lockstep; a member whose residual drops below ``tol`` leaves the
    sweep, and each member keeps its own best iterate, residual and
    certificate, exactly as if solved alone. ``init_flow`` is None (every
    member starts from its drift-free flow) or a list of B entries, each an
    initial (nt+1, 2K+1, ...) flow, such as a solution's ``flow``, or None;
    a wrong shape raises DimensionMismatch.
    """
    members = _batch(m0, "cutoff")
    B = len(members)
    inits = [None] * B if init_flow is None else list(init_flow)
    if len(inits) != B:
        raise DimensionMismatch(f"{len(inits)} initial flows for {B} measures")
    K = members[0].cutoff
    d = members[0].dim
    shape = (nt + 1,) + (2 * K + 1,) * d
    if any(f is not None and np.shape(f) != shape for f in inits):
        raise DimensionMismatch(f"initial flows must have shape {shape}")
    G = problem.terminal_cost
    T = problem.horizon
    if not G.has_derivative:
        raise NonConvergence("solve_mfc needs the flat derivative of the "
                             "terminal cost")
    n = 4 * K + 1  # odd: symmetric full mode set
    times = np.linspace(t0, T, nt + 1)
    w = SobolevWeight(2.0).weights(d, K)
    grid = spectral_grid(d, n)
    G_n = replace(G, resolution=n)  # derivative fields on the solver grid

    def terminal_field(c: np.ndarray) -> GridField:
        return G_n.derivative(SpectralMeasure(d, K, c))

    flows = np.empty((B,) + shape, dtype=complex)
    cold = [b for b in range(B) if inits[b] is None]
    if cold:
        flows[cold] = solve_fokker_planck(
            None, [members[b] for b in cold], t0, T, nt=nt, resolution=n,
            check_cfl=False)
    for b in range(B):
        if inits[b] is not None:
            flows[b] = _measure_coeffs(inits[b], d)

    best = [None] * B  # (residual, relaxed flow, u frames, alpha frames)

    def sweep(active: np.ndarray) -> np.ndarray:
        """One Picard sweep of the active members; returns their residuals.

        Updates ``flows`` and ``best`` in place (with copies), so the
        sweep's batch arrays are freed when it returns.
        """
        cur = flows[active]
        # backward HJB from the current final measures
        u_frames = solve_hjb_semilinear(
            [terminal_field(c[nt]) for c in cur], t0, T, nt=nt,
            check_cfl=False)
        a_frames = -_gradient(grid, u_frames)
        new = solve_fokker_planck(
            a_frames, [members[b] for b in active], t0, T, nt=nt,
            resolution=n, check_cfl=False)
        resid = _flow_distance(new, cur, w, d)
        relaxed = _measure_coeffs(
            (1 - _RELAXATION) * cur + _RELAXATION * new, d)
        flows[active] = relaxed
        for i, b in enumerate(active):
            if best[b] is None or resid[i] < best[b][0]:
                best[b] = (resid[i], relaxed[i].copy(), u_frames[i].copy(),
                           a_frames[i].copy())
        return resid

    active = np.arange(B)
    for _ in range(max_iter):
        active = active[~(sweep(active) < tol)]
        if active.size == 0:
            break

    out = MFCBatch()
    for resid, flow, u_fr, a_fr in best:
        value = _mfc_value(problem, times, flow, a_fr, grid)
        out.append(MFCSolution(times, u_fr, a_fr, flow, value, float(resid),
                               bool(resid < tol)))
    return out


def _mfc_value(problem, times, flow, alpha, grid) -> float:
    """Quadrature of the control cost |alpha|^2/2 along the flow plus the
    terminal cost; ``alpha`` holds the (nt+1, d, n, ..., n) feedback frames
    on ``grid``, integrated per frame by the torus rectangle rule.

    The densities come from the FFT route (``SpectralGrid.values``); the
    value runs once per solve, outside the sweeps.
    """
    K = flow.shape[-1] // 2
    lag = 0.5 * np.sum(alpha ** 2, axis=1)
    dens = grid.values(grid.embed(flow, K))
    running = (dens * lag).mean(axis=grid.axes)
    value = float(np.trapezoid(running, times))
    value += problem.terminal_cost(SpectralMeasure(grid.dim, K, flow[-1]))
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
