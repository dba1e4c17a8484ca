"""Time integration of the semi-discrete system and decay-rate extraction.

Two propagators:

* `integrate` -- implicit midpoint on the second-order form, run in the
  beam's two characteristic channels: the congruence T with T^T C1 T = I
  and T^T C2 T = diag(lam) (`_channel_transform`) splits the mass and
  stiffness forms into two uncoupled tridiagonal chains, which the gains
  couple only at the tip.  With channel 1 in reversed node order the two
  tips are neighbours, so the SPD step matrix is one tridiagonal, factored
  once (dpttrf).  A step is one tridiagonal product with the stiffness and
  mass forms side by side, which also gives the sample's energy, one
  tridiagonal solve (dpttrs) and three in-place vector updates; the tip
  rates, states and final state go back to nodes after the run.  The scheme
  preserves the discrete energy at zero amplifiers to roundoff transport
  and keeps the trace monotone at positive amplifiers.  Midpoint is the
  right tool up to moderate stiffness, but it under-damps branches it
  cannot resolve: damping of a mode at frequency w is suppressed by
  ~4/(w*dt)^2 once w*dt >> 1.  A warning is emitted when dt leaves the
  fastest mode unresolved, judged by `generator_radius_estimate`, which
  reads a bound on the spectral radius of A_E from the 2x2 Kronecker factor
  of G, the closed-form norm of the mesh factor and the two tip rates.
* `modal_trace` -- exact propagation of the semi-discrete flow through the
  eigendecomposition of the generator A_E in energy coordinates (see `orfd`),
  on the tip-first copy every eigensolve of A_E uses (`orfd._tip_first`).
  dt-free; the sample times only decide where the trace is evaluated.  This
  is the reference for stiff amplifier pairs (realistic constants put the
  fastest mode near 1e13 rad/s, far beyond any feasible midpoint step).
  A_E + A_E^T <= 0 and its eigenbasis is well conditioned, so the sampled
  energy (h/2)|z|^2 is monotone in time wherever the computed eigenvalues
  are accurate.  Where they are not (ROADMAP item 2) the trace can grow,
  and a warning says so.

Both take and return states as flat arrays [v, p, v_dot, p_dot] of length
4(N+1).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.blas import daxpy, ddot, dgemm
from scipy.linalg.lapack import dgesv, dpttrf, dpttrs

from .errors import DomainError
from ._lapack import one_blas_thread
from .orfd import OrfdSystem, _check_memory, _from_tip_first, _tip_first, check_state

# Ratio of E_h(0) used as the positivity floor when fitting log-energy, and
# the largest rise between samples a modal trace may show without a warning.
ENERGY_FLOOR_ULPS = 1e3 * np.finfo(float).eps


@dataclass(frozen=True)
class EnergyTrace:
    """Sampled energy and boundary rates along one run."""

    times: np.ndarray
    energies: np.ndarray
    boundary_v_dot: np.ndarray
    boundary_p_dot: np.ndarray


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential rate of a trace over a fit window.

    sigma_fit is the negated slope of log E(t); window is the time span
    actually used (it shrinks when the trace reaches the positivity floor,
    in which case truncated is set).
    """

    sigma_fit: float
    r_squared: float
    window: tuple[float, float]
    truncated: bool = False


@dataclass(frozen=True)
class EnvelopeReport:
    """Outcome of checking E(t) <= bigM * E(0) * exp(-sigma t)."""

    ok: bool
    min_margin: float
    t_at_min: float


@dataclass(frozen=True)
class IntegrationResult:
    trace: EnergyTrace
    final_state: np.ndarray  # flat (4(N+1),)
    states: np.ndarray | None = None  # (samples, 4(N+1)) when requested


def _channel_transform(sys: OrfdSystem) -> tuple[np.ndarray, np.ndarray]:
    """(T, lam) with T^T C1 T = I and T^T C2 T = diag(lam): the beam's two
    characteristic channels.

    T = diag(c) R for c = diag(C1)^-1/2 and the Jacobi rotation R that
    diagonalises K = C2 o c c^T (Golub & Van Loan's sym.schur2).  Its
    tangent t is the smaller root of t^2 + 2 zeta t - 1 = 0, so |t| <= 1 and
    the angle is exact to rounding however far apart the two channels' wave
    speeds are; an atan2 angle lands near pi/2 there and loses its cosine.
    With K01 = 0 (gamma = 0) the channels are v and p themselves.
    """
    c = 1.0 / np.sqrt(np.diag(sys.C1))
    K = sys.C2 * np.outer(c, c)
    if K[0, 1] == 0.0:
        return np.diag(c), np.diag(K).copy()
    zeta = (K[1, 1] - K[0, 0]) / (2.0 * K[0, 1])
    t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
    cs = 1.0 / math.sqrt(1.0 + t * t)
    R = np.array([[cs, t * cs], [-t * cs, cs]])
    return c[:, None] * R, np.array([K[0, 0] - t * K[0, 1], K[1, 1] + t * K[0, 1]])


def _to_channels(T: np.ndarray, C1: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Channel coordinates T^-1 q = T^T C1 q of nodal blocks q = [v; p] on
    the last axis: channel 0 by node, then channel 1 in reversed node order."""
    Ti = T.T * np.diag(C1)
    m = q.shape[-1] // 2
    v, p = q[..., :m], q[..., m:]
    return np.concatenate([Ti[0, 0] * v + Ti[0, 1] * p,
                           (Ti[1, 0] * v + Ti[1, 1] * p)[..., ::-1]], axis=-1)


def _from_channels(T: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Nodal blocks [v; p] = T q of channel blocks q (`_to_channels`) on the
    last axis.  Entry by entry, so a sub-block (the two tip entries, as a
    one-node block) maps to the same bits as inside the whole."""
    m = q.shape[-1] // 2
    q0, q1 = q[..., :m], q[..., m:][..., ::-1]
    out = np.empty(q.shape)
    for a, block in enumerate((out[..., :m], out[..., m:])):
        np.multiply(T[a, 0], q0, out=block)
        block += T[a, 1] * q1
    return out


def _channel_chain(stencil: tuple, w) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of kron(diag(w), T) in channel order, for T
    the tridiagonal stencil (d, e): channel 1 reversed, so its tip follows
    channel 0's, and a zero off-diagonal entry between the two tips."""
    d, e = stencil
    return np.r_[w[0] * d, w[1] * d[::-1]], np.r_[w[0] * e, 0.0, w[1] * e[::-1]]


def _midpoint_tridiagonals(sys: OrfdSystem, T: np.ndarray, lam: np.ndarray,
                           dt: float) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The stacked [KA, KM] product's diagonal and off-diagonal, and the
    LDL^T factor of S, for midpoint steps in channel coordinates.

    With KM = C1 (x) M, KA = C2 (x) A_h and KB = diag(xi) (x) B, where B
    holds 1/h at the tip, and u = y', the step is S u+ = R u - dt KA y,
    y+ = y + (dt/2) (u + u+), where

        S = KM + (dt^2/4) KA + (dt/2) KB,   R = KM - (dt^2/4) KA - (dt/2) KB.

    Since S + R = 2 KM, it is solved as

        S w = 2 KM u - dt KA y,   y+ = y + (dt/2) w,   u+ = w - u,

    which reuses the products KM u and KA y of the sample's energy
    (h/2)(y^T KA y + u^T KM u).  R itself is never formed: its entries are
    dominated by (dt^2/4) KA and lose KM to rounding.

    In channel coordinates y = (T (x) I) eta (`_channel_transform`) the
    forms become KM = I (x) M and KA = diag(lam) (x) A_h: two uncoupled
    tridiagonal chains.  The gains couple them only through the tip block
    T^T diag(xi) T / h, and channel 1 runs in reversed node order, so its
    tip sits next to channel 0's and S is one SPD tridiagonal of order
    2(N+1), factored once by dpttrf.  KA and KM side by side form one
    tridiagonal of order 4(N+1) with zeros where the blocks join, so for
    s = [eta; w] the product r = 2 [KA eta; KM w] is three vector products,
    s.r = 4 E / h, and r's second half minus (dt/2) times its first half
    is the right-hand side.
    """
    dM, eM = _channel_chain(sys.M_stencil, (1.0, 1.0))
    dA, eA = _channel_chain(sys.Ah_stencil, lam)
    n = sys.n_nodes
    d, e = dM + 0.25 * dt * dt * dA, eM + 0.25 * dt * dt * eA
    # (dt/2) KB: B's one entry 1/h times T^T diag(xi) T, on the two tips
    tip = 0.5 * dt / sys.h * (T.T * np.array([sys.xi1, sys.xi2])) @ T
    d[n - 1] += tip[0, 0]
    d[n] += tip[1, 1]
    e[n - 1] = tip[0, 1]
    d, e, info = dpttrf(d, e, overwrite_d=1, overwrite_e=1)
    if info:
        raise RuntimeError(f"midpoint step matrix is not SPD (dpttrf info={info})")
    return 2.0 * np.r_[dA, dM], 2.0 * np.r_[0.0, eA, 0.0, eM, 0.0], (d, e)


def generator_radius_estimate(sys: OrfdSystem) -> float:
    """max(||G||_2, ||D||_2) for A_E = [[0, G^T], [-G, -D]] (see `orfd`).

    ||G||_2 is the product of the norms of its Kronecker factors.  The mesh
    factor L_m^-1 L_Ah has the singular values sqrt of the pencil
    (A_h, M)'s eigenvalues (4/h^2) tan^2(k_j h/2), k_j = (2j-1) pi/(2L), so
    its norm is (2/h) tan((2n-1) pi/(4n)) with n = N+1 nodes.  D is diagonal
    with the two tip rates.  The spectral radius of A_E is at most
    ||G||_2 + ||D||_2, so this is at least half of it.
    """
    n = sys.n_nodes
    mesh = 2.0 / sys.h * math.tan((2 * n - 1) * math.pi / (4 * n))
    return float(max(np.linalg.norm(sys.coupling, 2) * mesh, sys.tip_rates.max()))


def integrate(sys: OrfdSystem, state0: np.ndarray, T: float,
              dt: float, keep_states: bool = False) -> IntegrationResult:
    """Implicit midpoint run over [0, T], sampling every step.

    Steps in channel coordinates (`_midpoint_tridiagonals`): per step one
    tridiagonal product, which gives the sample's energy, one tridiagonal
    solve and three in-place updates.  The tip rates are recorded there
    and, with keep_states, the states; both and the final state are mapped
    back to nodes after the run by one entrywise map, so the tip rates are
    bit for bit the tip columns of the states.
    T must be a whole number of steps dt, to 1e-9 relative; another span is
    a DomainError that names the two nearest.  Emits a warning when dt
    leaves the fastest generator mode unresolved (dt * radius > 0.2); the
    scheme stays stable but the unresolved branch keeps its energy.  A
    non-finite initial state is a DomainError; a state that turns
    non-finite aborts the run with its step index.  Runs whose arrays would
    exceed orfd.MEMORY_BYTES are refused before anything is allocated.
    """
    if not (math.isfinite(T) and T > 0.0):
        raise DomainError(f"T must be positive, got {T!r}")
    if not (math.isfinite(dt) and dt > 0.0):
        raise DomainError(f"dt must be positive, got {dt!r}")
    steps = round(T / dt, 0)
    if steps < 1:
        raise DomainError(f"T={T!r} is shorter than one step dt={dt!r}")
    if abs(steps * dt - T) > 1e-9 * T:
        below = max(math.floor(T / dt), 1)
        raise DomainError(f"T={T!r} is not a whole number of steps dt={dt!r}; "
                          f"the nearest spans are {below * dt:.12g} and {(below + 1) * dt:.12g}")
    n = sys.N + 1
    # ~30n doubles of tridiagonals and buffers, then 7 per sample, and 10n
    # more with keep_states (channel states, nodal states and a product)
    _check_memory(8 * (30 * n + (7 + 10 * n * bool(keep_states)) * (steps + 1)),
                  f"midpoint run at N={sys.N} with {steps:.0f} steps", "steps")
    n_steps = int(steps)

    radius = generator_radius_estimate(sys)
    if dt * radius > 0.2:
        warnings.warn(
            f"dt={dt:g} does not resolve the fastest mode (|mu| ~ {radius:.3e}); "
            "damping of unresolved branches is understated",
            RuntimeWarning, stacklevel=2)

    T_ch, lam = _channel_transform(sys)
    diag, off, (sd, se) = _midpoint_tridiagonals(sys, T_ch, lam, dt)
    # s = [eta; w] in channel coordinates, updated in place between two
    # zeros, so both shifted products read whole slices
    padded = np.zeros(4 * n + 2)
    s = padded[1:-1]
    s[:] = _to_channels(T_ch, sys.C1, check_state(sys, state0).reshape(2, 2 * n)).ravel()
    sy, su = s[: 2 * n], s[2 * n:]
    # off holds the off-diagonal between two zeros: off[i] couples s_i-1 and s_i
    upper, lower = off[1:], off[:-1]
    r, tmp = np.empty(4 * n), np.empty(4 * n)
    rA, rM = r[: 2 * n], r[2 * n:]
    times = dt * np.arange(n_steps + 1)
    energies = np.empty(n_steps + 1)
    # the two tip rates in channel coordinates: a one-node channel block
    tips = np.empty((n_steps + 1, 2))
    s_tips = su[n - 1:n + 1]
    states = np.empty((n_steps + 1, 4 * n)) if keep_states else None

    quarter_h, half_dt = 0.25 * sys.h, 0.5 * dt
    for k in range(n_steps + 1):
        # r = 2 [KA eta; KM w], so s.r = 4 E / h
        np.multiply(diag, s, out=r)
        np.multiply(upper, padded[2:], out=tmp)
        np.add(r, tmp, out=r)
        np.multiply(lower, padded[:-2], out=tmp)
        np.add(r, tmp, out=r)
        energies[k] = e = quarter_h * ddot(s, r)
        tips[k] = s_tips
        if states is not None:
            states[k] = s
        if not math.isfinite(e):
            raise RuntimeError(f"non-finite state at step {k} (t={times[k]:g}); aborting")
        if k < n_steps:
            # S w+ = 2 KM w - dt KA eta, solved in place in rM; eta += dt/2 w+; w = w+ - w
            daxpy(rA, rM, a=-half_dt)
            _, info = dpttrs(sd, se, rM, overwrite_b=1)
            if info:
                raise RuntimeError(f"midpoint step solve failed (dpttrs info={info})")
            daxpy(rM, sy, a=half_dt)
            np.subtract(rM, su, out=su)

    bv, bp = _from_channels(T_ch, tips).T
    trace = EnergyTrace(times=times, energies=energies,
                        boundary_v_dot=bv, boundary_p_dot=bp)
    final = _from_channels(T_ch, s.reshape(2, 2 * n)).ravel()
    if states is not None:
        states = _from_channels(T_ch, states.reshape(-1, 2, 2 * n)).reshape(-1, 4 * n)
    return IntegrationResult(trace=trace, final_state=final, states=states)


def modal_trace(sys: OrfdSystem, state0: np.ndarray, T: float,
                samples: int = 2001, keep_states: bool = False) -> IntegrationResult:
    """Exact semi-discrete flow sampled at `samples` points of [0, T].

    Propagates the energy coordinates z (see `orfd`) through one dense
    eigendecomposition of the dissipative generator A_E, on its tip-first
    copy (`orfd._tip_first`); any stiffness is fine.  That eigensolve, the
    real-basis solve and the sample products hold scipy's OpenBLAS to one
    thread, so the trace is the same at every BLAS thread count.  The
    eigenbasis is well conditioned, so the sampled energy (h/2) |z|^2 is
    monotone in time up to roundoff where the eigenvalues are accurate.
    With a gain above zero, a rise above ENERGY_FLOOR_ULPS * E(0) between
    samples (`max_energy_rise`) is warned about: dense eigenvalues carry an
    absolute error ~eps ||A_E||, which can put slow modes in the right
    half-plane.  Energies and tip rates are read from z; nodal states are
    recovered for final_state and, with keep_states, for every sample.
    Requests whose arrays would exceed orfd.MEMORY_BYTES are refused before
    anything is allocated.
    """
    if not (math.isfinite(T) and T > 0.0):
        raise DomainError(f"T must be positive, got {T!r}")
    if not (isinstance(samples, (int, np.integer)) and samples >= 2):
        raise DomainError(f"need an integer number of samples >= 2, got {samples!r}")
    flat = check_state(sys, state0)
    n = sys.N + 1
    # Inside eig 5 dense 4n x 4n blocks live: A_E, its tip-first copy, and
    # eig's real eigenvectors and their complex copy.  z takes one row of 4n
    # doubles per sample, and the nodal states of keep_states ~4 more.
    _check_memory(8 * 4 * n * (5 * 4 * n + (1 + 4 * bool(keep_states)) * int(samples)),
                  f"modal trace at N={sys.N} with {samples} samples", "samples")
    times = np.linspace(0.0, T, samples)
    dt = T / (samples - 1)
    K = math.isqrt(samples - 1) + 1
    z = np.empty((samples, 4 * n))

    with one_blas_thread():
        lam, V = scipy.linalg.eig(_tip_first(sys.A_E), overwrite_a=True)
        # A_E is real, so its eigenpairs are closed under conjugation: keep
        # Im >= 0 and let each strictly complex pair contribute 2 Re(c v e^(lam t)).
        keep = lam.imag >= 0.0
        lam, V = lam[keep], V[:, keep]
        cplx = lam.imag > 0.0
        # Real basis W = [Re V, Im V[:, cplx]] in the order of z: z0 = W [a; b]
        # is one real solve, and c = a - i b gives
        # z(t) = Re(V (c e^(lam t))) = W [Re p; -Im p[cplx]].
        basis = _from_tip_first(np.hstack([V.real, V.imag[:, cplx]]))
        del V
        _, _, ab, info = dgesv(basis, sys.to_energy_coords(flat))
        coeff = ab[: lam.size].astype(complex)
        coeff.imag[cplx] = -ab[lam.size:]
        if info or not (np.all(np.isfinite(lam.view(float)))
                        and np.all(np.isfinite(coeff.view(float)))):
            raise RuntimeError("eigendecomposition of the generator is singular or non-finite")

        # Sample i*K + j of the linspace grid has the phases
        # exp(lam (i K dt)) * exp(lam (j dt)); one block of K samples at a
        # time keeps the complex phases small.
        fine = np.exp(np.outer(np.arange(K) * dt, lam)) * coeff
        for start in range(0, samples, K):
            p = np.exp(lam * (start * dt)) * fine[: samples - start]
            # z's block transposed, W [Re p; -Im p[cplx]]^T, in place; W (like eig's
            # vectors) and the transposed C-order blocks are Fortran-order: no copies
            dgemm(1.0, basis, np.hstack([p.real, -p.imag[:, cplx]]).T,
                  c=z[start:start + len(p)].T, overwrite_c=1)

    energies = 0.5 * sys.h * np.einsum("ij,ij->i", z, z)
    rise = max_energy_rise(energies)
    # at zero gains the flow conserves energy and the trace wobbles by roundoff
    if (sys.xi1 or sys.xi2) and rise > ENERGY_FLOOR_ULPS:
        warnings.warn(
            f"modal energy rose by {rise:.3g} E0 between two samples, which the "
            "dissipative flow rules out: the generator eigenvalues are inaccurate "
            "at these gains (ROADMAP item 2)", RuntimeWarning, stacklevel=2)
    # u = C1^-1/2 Zu L_m^-1 and L_m is lower triangular, so the tip entry of
    # each rate block is its z entry over sqrt(c_a) L_m[N, N]
    tip = z[:, sys.tip_index] / (np.sqrt(np.diag(sys.C1)) * sys.L_m[0][-1])
    trace = EnergyTrace(times=times, energies=energies,
                        boundary_v_dot=tip[:, 0], boundary_p_dot=tip[:, 1])
    return IntegrationResult(trace=trace,
                             final_state=sys.from_energy_coords(z[-1]),
                             states=sys.from_energy_coords(z) if keep_states else None)


def max_energy_rise(energies: np.ndarray) -> float:
    """Largest increase of the energy from one sample to the next, over E(0)."""
    return max(0.0, float(np.max(np.diff(energies)))) / float(energies[0])


def fit_decay(trace: EnergyTrace, window: tuple[float, float] = (0.1, 0.9)) -> DecayFit:
    """Least-squares slope of log E over the central window of the trace.

    Samples at or below the positivity floor 1e3*eps*E(0) end the usable
    trace; the fit then runs on the shortened window and is flagged.
    Requires at least 10 usable samples.
    """
    w_lo, w_hi = window
    if not (0.0 <= w_lo < w_hi <= 1.0):
        raise DomainError(f"window must satisfy 0 <= lo < hi <= 1, got {window!r}")
    t, E = np.asarray(trace.times), np.asarray(trace.energies)
    if E[0] <= 0.0:
        raise DomainError("trace starts at zero energy; nothing to fit")
    floor = ENERGY_FLOOR_ULPS * E[0]

    dead = np.nonzero(E <= floor)[0]
    truncated = dead.size > 0
    last = dead[0] if truncated else E.size
    t, E = t[:last], E[:last]

    T = trace.times[-1]
    mask = (t >= w_lo * T) & (t <= w_hi * T)
    if np.count_nonzero(mask) < 10:
        raise DomainError(
            f"only {np.count_nonzero(mask)} usable samples in the fit window; need >= 10"
        )
    ts, logE = t[mask], np.log(E[mask])
    slope, intercept = np.polyfit(ts, logE, 1)
    pred = slope * ts + intercept
    ss_res = float(np.sum((logE - pred) ** 2))
    ss_tot = float(np.sum((logE - logE.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(sigma_fit=-float(slope), r_squared=r2,
                    window=(float(ts[0]), float(ts[-1])), truncated=truncated)


def envelope_check(trace: EnergyTrace, sigma: float, bigM: float) -> EnvelopeReport:
    """Check E(t) <= bigM * E(0) * exp(-sigma t) at every sample.

    Margin is relative: 1 - E/envelope, minimized over the trace.
    """
    t, E = np.asarray(trace.times), np.asarray(trace.energies)
    env = bigM * E[0] * np.exp(-sigma * t)
    margin = 1.0 - E / env
    k = int(np.argmin(margin))
    return EnvelopeReport(ok=bool(margin[k] >= 0.0),
                          min_margin=float(margin[k]), t_at_min=float(t[k]))
