"""Time integration of the semi-discrete system and decay-rate extraction.

Two propagators:

* `integrate` -- implicit midpoint on the second-order form, run in the
  beam's closed-form energy modes (`orfd.BeamModes`, `OrfdSystem.to_modes`):
  the characteristic channels T^T C1 T = I, T^T C2 T = diag(lam) split the
  beam into two wave equations, and the sine modes of each make the mass
  and stiffness forms diagonal, so in the complex mode coordinates xi, with
  (h/2)|xi|^2 the discrete energy, the undamped midpoint step turns each
  mode by mu = (1 - i theta)/(1 + i theta), |mu| = 1.  The gains act
  through the modes' two tip values, a rank-2 correction with a 2x2 solve
  done once per run (`_midpoint_operators`).  A block of steps is then a
  turn table, one triangular solve for the block's midpoint tip rates and
  a few elementwise passes (`_step_blocks`); above BLOCK_NODES nodes, where
  those passes cost more than the calls they save, a step is two
  matrix-vector products, one complex multiply, one add and one dot product
  for the sample's energy (`_step_one`).  The tip rates come from the midpoint tip
  of each step, the states and final state go back to nodes after the run
  by FFTs.  The scheme keeps the discrete energy at zero amplifiers to
  roundoff, without a step matrix whose rounding makes it drift, and keeps
  the trace monotone at positive amplifiers.  Midpoint is the
  right tool up to moderate stiffness, but it under-damps branches it
  cannot resolve: damping of a mode at frequency w is suppressed by
  ~4/(w*dt)^2 once w*dt >> 1.  A warning is emitted when dt leaves the
  fastest mode unresolved, judged by `generator_radius_estimate`, which
  reads a bound on the spectral radius of A_E from the fastest closed-form
  mode and the two tip rates.
* `modal_trace` -- exact propagation of the semi-discrete flow through the
  eigenpairs of the generator, in the same mode coordinates.  The
  eigenvalues are those of `spectral.spectrum`, from the dense tip-first
  reduction of A_E; each eigenvector is closed form, O(N), from the 2x2
  secular function of the modes that certifies them
  (`spectral._mode_eigvecs`).  dt-free; the sample times only decide where
  the trace is evaluated.  This is the reference for stiff amplifier pairs
  (realistic constants put the fastest mode near 1e13 rad/s, far beyond
  any feasible midpoint step).  The flow is dissipative and its eigenbasis
  well conditioned, so the sampled energy (h/2)|xi|^2 is monotone in time
  wherever the computed eigenvalues are accurate.  Where they are not
  (ROADMAP item 2) the trace can grow, and a warning says so.

Both take and return states as flat arrays [v, p, v_dot, p_dot] of length
4(N+1).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._lapack import Routine, one_blas_thread
from .errors import DomainError
from .orfd import OrfdSystem, _check_memory, check_state
from .spectral import _eigvals, _mode_eigvecs, generator_radius_estimate

# Ratio of E_h(0) used as the positivity floor when fitting log-energy, and
# the largest rise between samples a modal trace may show without a warning.
ENERGY_FLOOR_ULPS = 1e3 * np.finfo(float).eps

# Modal phases below the smallest normal double are zero: strongly damped
# roots otherwise feed the sample product subnormal operands, which cost
# ~2x at (2e6, 1e-2), N=80, and add nothing a double can hold.
PHASE_FLOOR = np.finfo(float).tiny

# Corrections of the modal coefficients from the residual of x(0) = x0
# (`modal_trace`).  Two bring x(0) to x0 within roundoff at N = 8 to 80 and
# the stiff test pairs; the third serves gains like (1e12, 1e12), where
# the dense eigenvalues are 3.6e-5 off and each step gains ~20x.
REFINE_STEPS = 3

# Relative distance from x0 that the corrected start of a modal trace may
# keep without a warning.  It reads ~1e-16 where the eigenvalues are
# accurate; a root whose dense value is off by more than itself (|lam|
# below ~eps ||A_E||) gets a vector of another root, and the basis then
# misses a direction.
START_RTOL = 1e-8

# Kept midpoint states mapped back to nodes per block.
STATE_BLOCK = 64

# Midpoint steps per block (`_step_blocks`) at up to BLOCK_NODES nodes; a
# larger mesh takes one step at a time (`_step_one`).  A block makes ~6
# elementwise passes per step over its B x 2(N+1) arrays, where a single
# step makes 5 calls, so the calls it saves stop paying near 200 nodes.
# Median integrate time per step over 4000 steps at (1e6, 1e9), blocks
# against single steps, BLAS pinned, 2-vCPU Xeon: 1.7 against 3.2 us at
# N=80, 3.4 against 3.7 us at N=160, 3.9 against 4.0 us at N=190, 4.1
# against 4.0 us at N=200, 5.3 against 4.3 us at N=255.
BLOCK_STEPS = 64
BLOCK_NODES = 200

_dtrsv = Routine("dtrsv")


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


def _midpoint_operators(sys: OrfdSystem, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mu, P, V) of one implicit midpoint step in the mode coordinates xi
    (`OrfdSystem.to_modes`, `orfd.BeamModes`), on the real view x of xi
    (Re and Im of each mode side by side).

    In xi the semi-discrete flow is xi' = -i sigma xi - i Psi D Psi^T Im(xi),
    D = diag(tip_rates) and Psi the modes' tip values.  With theta = sigma dt/2
    and rho = 1/(1 + theta^2) the midpoint step xi+ - xi = dt xi'((xi + xi+)/2)
    is, by Sherman-Morrison-Woodbury on the rank-2 gain term,

        p   = Psi^T Im(xi / (1 + i theta)) = Psi^T rho (Im xi - theta Re xi),
        tau = (I + G Delta)^-1 p,   G = Psi^T diag(rho) Psi,   Delta = (dt/2) D,
        c   = Delta tau,
        xi+ = mu xi - 2 (theta + i) rho Psi c,   mu = (1 - i theta)/(1 + i theta),

    where tau = Psi^T Im((xi + xi+)/2) holds the tip entries of z at the
    midpoint.  P takes x to tau as tip rates, and V^T, with c = Delta tau
    folded into it, takes those to the update of x.  |mu| = 1 to rounding,
    so at zero gains the step only turns each mode, and no matrix of order
    N is formed or solved.
    G = R diag(g) R^T for the rotation R of `BeamModes`, so
    det(I + G Delta) = 1 + G_00 Delta_0 + G_11 Delta_1 + g_0 g_1 Delta_0 Delta_1
    with every term >= 0: the 2x2 inverse loses nothing when a tip rate is
    huge and the tip nearly clamped.
    """
    modes = sys.modes
    n = sys.n_nodes
    theta = (0.5 * dt) * modes.sigma.ravel()
    rho = 1.0 / (1.0 + theta * theta)
    mu = np.exp(-2j * np.arctan(theta))
    psi = modes.tip.reshape(2, 2 * n)
    G = np.einsum("am,m,bm->ab", psi, rho, psi)
    g = np.einsum("acj,acj,cj->c", modes.tip, modes.tip, rho.reshape(2, n))
    delta = 0.5 * dt * sys.tip_rates
    det = 1.0 + G[0, 0] * delta[0] + G[1, 1] * delta[1] + g[0] * g[1] * delta[0] * delta[1]
    K = np.array([[1.0 + G[1, 1] * delta[1], -G[0, 1] * delta[1]],
                  [-G[1, 0] * delta[0], 1.0 + G[0, 0] * delta[0]]]) / det
    # a tip entry of z is sqrt(c_a / 4n) times the tip rate: P gives tau as
    # tip rates, and V takes them, c = Delta tau folded into its columns
    rate = 2.0 * math.sqrt(n) / np.sqrt(np.diag(sys.C1))
    KPsi = (rate[:, None] * K) @ psi
    P, V = np.empty((2, 4 * n)), np.empty((2, 4 * n))
    rho_theta = rho * theta
    np.multiply(KPsi, -rho_theta, out=P[:, 0::2])
    np.multiply(KPsi, rho, out=P[:, 1::2])
    psi = psi * (-2.0 * delta / rate)[:, None]
    np.multiply(psi, rho_theta, out=V[:, 0::2])
    np.multiply(psi, rho, out=V[:, 1::2])
    return mu, P, V


def _check_finite(energies: np.ndarray, first: int, times: np.ndarray) -> None:
    """Abort at the first non-finite sample of energies, which holds steps
    first, first + 1, ..."""
    finite = np.isfinite(energies)
    if not finite.all():
        k = first + int(np.argmin(finite))
        raise RuntimeError(f"non-finite state at step {k} (t={times[k]:g}); aborting")


def _step_one(xi, mu, P, V, half_h, energies, tips, kept, times) -> None:
    """Midpoint steps one at a time from xi, in place: one matrix-vector
    product for the midpoint tip rates tau, into the step's row of tips,
    one multiply by mu, one product for the gain correction and its add
    (numpy's product cannot accumulate into x), and one dot product for
    the sample's energy."""
    x = xi.view(float)
    update = np.empty_like(x)
    for k in range(1, energies.size):
        tau = np.dot(P, x, out=tips[k])
        np.multiply(xi, mu, out=xi)
        x += np.dot(tau, V, out=update)
        energies[k] = e = half_h * np.dot(x, x)
        if kept is not None:
            kept[k] = xi
        if not math.isfinite(e):
            _check_finite(energies[k:k + 1], k, times)


def _step_blocks(xi, mu, P, V, block, half_h, energies, tips, kept, times) -> None:
    """Midpoint steps `block` at a time from xi, in place.

    With W = P[:, 0::2] - i P[:, 1::2] and V~ = V[:, 0::2] + i V[:, 1::2] a
    step is tau = Re(W xi), xi+ = mu xi + V~^T tau, so from xi_0

        xi_m  = mu^m (xi_0 + sum_{j<m} mu^-(j+1) V~^T tau_j),
        tau_m = Re(W mu^m xi_0) + sum_{j<m} K_{m-1-j} tau_j,
        K_l   = Re(W diag(mu^l) V~^T).

    Per block one complex product with the turn table mu^m gives the first
    terms, one triangular solve (dtrsv, the one bound call) gives the tau
    of the unit lower-triangular block-Toeplitz system, a product and a
    cumulative sum give the rotating-frame sums, and one multiply by the
    table turns them into the states.  numpy issues the products as zgemm
    and dgemm on the library `one_blas_thread` holds.  The table is
    exp(i m arg mu), so |mu^m| = 1 to rounding at every m, and the next
    block starts from the last state as recorded.
    """
    W = P[:, 0::2] - 1j * P[:, 1::2]
    Vc = V[:, 0::2] + 1j * V[:, 1::2]
    turn = np.exp(1j * np.outer(np.arange(block + 1.0), np.angle(mu)))
    back = turn[1:].conj()
    K = np.einsum("lk,ak,bk->lab", turn[:block - 1], W, Vc).real
    # the strictly lower part of the tip matrix, negated, in Fortran order
    # with leading dimension 2B: dtrsv with a unit diagonal solves
    # (I - L) tau = a on its leading 2b x 2b block
    m, j = np.tril_indices(block, -1)
    lower = np.zeros((block, 2, block, 2))
    lower[m, :, j, :] = -K[m - 1 - j]
    lower = np.asfortranarray(lower.reshape(2 * block, 2 * block))
    Wxi = np.empty((2, xi.size), dtype=complex)
    first = np.empty((block, 2), dtype=complex)
    work = np.empty((block, xi.size), dtype=complex)
    # the solve is bound once, in place on tau; a block sets its order
    order, tau = _dtrsv.integer(), np.empty((block, 2))
    solve = _dtrsv.bind(b"L", b"N", b"U", order, lower, 2 * block, tau, 1)
    steps = energies.size - 1
    for start in range(1, steps + 1, block):
        b = min(block, steps + 1 - start)
        rows = slice(start, start + b)
        np.multiply(W, xi, out=Wxi)
        np.matmul(turn[:b], Wxi.T, out=first[:b])
        tau[:b] = first[:b].real
        order.value = 2 * b
        solve()
        tips[rows] = tau[:b]
        sums = work[:b]
        np.matmul(tau[:b], V, out=sums.view(float))
        np.multiply(sums, back[:b], out=sums)
        sums[0] += xi
        np.cumsum(sums, axis=0, out=sums)
        states = sums if kept is None else kept[rows]
        np.multiply(sums, turn[1:b + 1], out=states)
        x = states.view(float)
        e = energies[rows]
        np.einsum("ij,ij->i", x, x, out=e)
        e *= half_h
        _check_finite(e, start, times)
        xi[...] = states[-1]


def _to_nodes(sys: OrfdSystem, xi: np.ndarray, tips: np.ndarray) -> np.ndarray:
    """Nodal states of the mode rows xi, shape (rows, 2(N+1)), mapped back
    STATE_BLOCK rows at a time (`OrfdSystem.from_modes`), with tips, shape
    (rows, 2), as their tip rates."""
    n = sys.n_nodes
    states = np.empty((len(xi), 4 * n))
    for start in range(0, len(xi), STATE_BLOCK):
        rows = slice(start, start + STATE_BLOCK)
        states[rows] = sys.from_modes(xi[rows].reshape(-1, 2, n))
    states[:, sys.tip_index] = tips
    return states


def integrate(sys: OrfdSystem, state0: np.ndarray, T: float,
              dt: float, keep_states: bool = False) -> IntegrationResult:
    """Implicit midpoint run over [0, T], sampling every step.

    Steps in the mode coordinates xi (`_midpoint_operators`).  Up to
    BLOCK_NODES nodes it takes BLOCK_STEPS steps per block (`_step_blocks`):
    two matrix products, a triangular solve for the block's midpoint tip
    rates and a few elementwise passes over its states, and the energies
    (h/2)|xi|^2 from those states; a larger mesh takes one step at a time
    (`_step_one`).  Every BLAS call, numpy's products included, runs with
    the BLAS held to one thread (`_lapack.one_blas_thread`), so the trace
    does not depend on the BLAS thread count.  The tip rates follow tip_k+1 = 2 tau_k - tip_k from the
    exact initial ones and the midpoint tips tau_k; with keep_states the
    modes of every sample are kept.  The states and the final state are mapped back to nodes after
    the run (`OrfdSystem.from_modes`) and take those tip rates, so the tip
    rates are bit for bit the tip columns of the states.
    T must be a whole number of steps dt, to 1e-9 relative; another span is
    a DomainError that names the two nearest, and a T / dt that overflows
    one that says so.  Emits a warning when dt
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
    if not math.isfinite(T / dt):
        raise DomainError(f"T={T!r} over dt={dt!r} overflows the step count; request a larger dt")
    steps = round(T / dt, 0)
    if steps < 1:
        raise DomainError(f"T={T!r} is shorter than one step dt={dt!r}")
    if abs(steps * dt - T) > 1e-9 * T:
        below = max(math.floor(T / dt), 1)
        raise DomainError(f"T={T!r} is not a whole number of steps dt={dt!r}; "
                          f"the nearest spans are {below * dt:.12g} and {(below + 1) * dt:.12g}")
    n = sys.N + 1
    block = BLOCK_STEPS if n <= BLOCK_NODES else 1
    # ~48n doubles of modes, step operators and FFT buffers, then 6 per
    # sample; with keep_states 8n more per sample (modes and nodal states)
    # and ~20n per state of a block mapped back to nodes.  Blocks of steps
    # add ~(4B+1) 2n complex values of turn tables and work rows, and the
    # 2B x 2B tip matrix.
    tables = (4 * block + 1) * 4 * n + 4 * block * block if block > 1 else 0
    _check_memory(8 * (48 * n + tables + 6 * (steps + 1)
                       + bool(keep_states) * n * (8 * (steps + 1) + 20 * STATE_BLOCK)),
                  f"midpoint run at N={sys.N} with {steps:.0f} steps", "steps")
    n_steps = int(steps)

    radius = generator_radius_estimate(sys)
    if dt * radius > 0.2:
        warnings.warn(
            f"dt={dt:g} does not resolve the fastest mode (|mu| ~ {radius:.3e}); "
            "damping of unresolved branches is understated",
            RuntimeWarning, stacklevel=2)

    state0 = check_state(sys, state0)
    xi = sys.to_modes(state0).ravel()
    mu, P, V = _midpoint_operators(sys, dt)
    times = dt * np.arange(n_steps + 1)
    energies = np.empty(n_steps + 1)
    # row k+1 takes step k's midpoint tip rates tau_k, then the tip rates
    tips = np.zeros((n_steps + 1, 2))
    tips[0] = state0[sys.tip_index]
    kept = np.empty((n_steps + 1, 2 * n), dtype=complex) if keep_states else None

    half_h = 0.5 * sys.h
    # a state that overflows aborts the run at its step (`_check_finite`)
    with one_blas_thread(), np.errstate(over="ignore"):
        x = xi.view(float)
        energies[0] = half_h * np.dot(x, x)
        if kept is not None:
            kept[0] = xi
        _check_finite(energies[:1], 0, times)
        if block > 1:
            _step_blocks(xi, mu, P, V, block, half_h, energies, tips, kept, times)
        else:
            _step_one(xi, mu, P, V, half_h, energies, tips, kept, times)
    del mu, P, V  # the maps back to nodes need their room

    # tip_k+1 = 2 tau_k - tip_k from the exact initial tip rates: tau is
    # accurate where the mode sum Psi^T Im(xi) cancels, at a nearly clamped
    # tip.  In place, tip_k = (-1)^k (tip_0 - 2 sum_{m<k} (-1)^m tau_m).
    run = tips[1:]
    run[1::2] *= -1.0
    np.cumsum(run, axis=0, out=run)
    run *= -2.0
    run += tips[0]
    run[0::2] *= -1.0
    trace = EnergyTrace(times=times, energies=energies,
                        boundary_v_dot=tips[:, 0], boundary_p_dot=tips[:, 1])
    return IntegrationResult(trace=trace, final_state=_to_nodes(sys, xi[None], tips[-1:])[0],
                             states=None if kept is None else _to_nodes(sys, kept, tips))


def modal_trace(sys: OrfdSystem, state0: np.ndarray, T: float,
                samples: int = 2001, keep_states: bool = False) -> IntegrationResult:
    """Exact semi-discrete flow sampled at `samples` points of [0, T].

    Propagates the mode coordinates xi = a + i b (`OrfdSystem.to_modes`)
    through the eigenpairs of the dissipative generator; any stiffness is
    fine.  The eigenvalues are those `spectral.spectrum` reports, from the
    tip-first reduction of A_E (`spectral._eigvals`), and each eigenvector
    is built in closed form from the secular structure of the modes in
    O(N) (`spectral._mode_eigvecs`), with its two tip rates.  The
    generator on x = (a, b) satisfies A^T = J A J for J = diag(I, -I), so
    J v is the left eigenvector of v and each coefficient is
    v^T J x0 / v^T J v, corrected REFINE_STEPS times from the residual of
    x(0) = x0 by one matrix-vector product each, no solve.  The samples
    are one product of the real basis [Re v, -Im v] with the phases
    c e^(lam t), which, like the corrections, holds the BLAS to one thread,
    so the trace is the same at every BLAS thread count.  Phases below
    PHASE_FLOOR are zero, and a block of samples skips the roots whose
    phases are below it throughout.  The energy is (h/2)|x|^2 and the
    tip rates come from the closed-form tip rows of the basis.  A start
    that the corrections leave more than START_RTOL from x0 is warned about.
    With a gain above zero, a rise above ENERGY_FLOOR_ULPS * E(0) between
    samples (`max_energy_rise`) is warned about: dense eigenvalues carry an
    absolute error ~eps ||A_E||, which can put slow modes in the right
    half-plane.  final_state and, with keep_states, every sample go back
    to nodes (`OrfdSystem.from_modes`) and take the trace's tip rates, as
    in `integrate`.  Requests whose arrays would exceed orfd.MEMORY_BYTES
    are refused before anything is allocated.
    """
    if not (math.isfinite(T) and T > 0.0):
        raise DomainError(f"T must be positive, got {T!r}")
    if not (isinstance(samples, (int, np.integer)) and samples >= 2):
        raise DomainError(f"need an integer number of samples >= 2, got {samples!r}")
    flat = check_state(sys, state0)
    n = sys.N + 1
    # At most 4 dense 4n x 4n blocks live: A_E with the eigensolve's two
    # copies, or A_E with the eigenvectors, their real basis and the
    # secular terms they come from.  The samples take one row of ~4n
    # doubles each, with keep_states 4n more and the maps back to nodes
    # ~20n per state of a block.
    _check_memory(8 * (4 * n * (4 * 4 * n + (1 + bool(keep_states)) * int(samples))
                       + bool(keep_states) * 20 * n * STATE_BLOCK),
                  f"modal trace at N={sys.N} with {samples} samples", "samples")
    times = np.linspace(0.0, T, samples)
    dt = T / (samples - 1)
    K = math.isqrt(samples - 1) + 1

    # A_E is real, so its eigenpairs are closed under conjugation: keep
    # Im >= 0 and let each strictly complex pair contribute 2 Re(c v e^(lam t)).
    # Slowest decay first, so the roots still above the floor are a prefix.
    lam = _eigvals(sys)
    lam = lam[lam.imag >= 0.0]
    lam = lam[np.argsort(-lam.real, kind="stable")]
    a, b, tips = _mode_eigvecs(sys, lam)
    # rows: Re and Im of each mode side by side (the real view of xi), then
    # the two tip rates; a tip entry of z is sqrt(c_a / 4n) times the rate
    V = np.empty((4 * n + 2, lam.size), dtype=complex)
    V[0:4 * n:2], V[1:4 * n:2] = a.T, b.T
    V[4 * n:] = (2.0 * math.sqrt(n) / np.sqrt(np.diag(sys.C1)))[:, None] * tips.T
    del a, b, tips
    # x(t) = Re(V p) = [Re v_j, -Im v_j]_j (p as floats): Fortran order, so
    # the sample product reads every prefix of its columns in place
    W = np.asfortranarray(V.conj().view(float))
    # the left eigenvectors (J v)^T, and 1 / v^T J v with each complex pair's 2
    left = V[:4 * n].T * np.tile([1.0, -1.0], 2 * n)
    weight = np.where(lam.imag > 0.0, 2.0, 1.0) / np.einsum("rm,mr->r", left, V[:4 * n])
    del V
    x0 = sys.to_modes(flat).ravel().view(float)

    z = np.empty((samples, 4 * n + 2))
    with one_blas_thread():
        # the projections, then REFINE_STEPS corrections from the residual
        # of x(0) = x0: the vectors are built on dense eigenvalues, off by
        # ~eps ||A_E||, and the projections alone leave x(0) 1e-11 to 1e-7
        # from x0
        coeff = weight * np.einsum("rm,m->r", left, x0)
        # x_start = W coeff as floats: x(0) and its tip rates
        for _ in range(REFINE_STEPS):
            x_start = np.dot(W, coeff.view(float))
            coeff += weight * np.einsum("rm,m->r", left, x0 - x_start[:4 * n])
        del left
        x_start = np.dot(W, coeff.view(float))
        off = np.linalg.norm(x0 - x_start[:4 * n])
        if not (np.all(np.isfinite(coeff.view(float))) and np.all(np.isfinite(W))):
            raise RuntimeError("eigenvectors of the generator are singular or non-finite")

        # Sample i*K + j of the linspace grid has the phases
        # exp(lam (i K dt)) * exp(lam (j dt)); one block of K samples at a
        # time keeps the complex phases small.
        fine = np.exp(np.outer(np.arange(K) * dt, lam)) * coeff
        for start in range(0, samples, K):
            rows = slice(start, min(start + K, samples))
            alive = np.flatnonzero(np.abs(coeff) * np.exp(lam.real * (start * dt)) >= PHASE_FLOOR)
            m = alive[-1] + 1 if alive.size else 1
            p = (np.exp(lam[:m] * (start * dt)) * fine[:rows.stop - start, :m]).view(float)
            p[np.abs(p) < PHASE_FLOOR] = 0.0
            np.matmul(p, W[:, :2 * m].T, out=z[rows])
    del W
    if off > START_RTOL * np.linalg.norm(x0):
        warnings.warn(
            f"modal trace starts {off / np.linalg.norm(x0):.3g} (relative) from the "
            "initial state: its closed-form eigenvectors, built on inaccurate "
            "eigenvalues, do not span it at these gains (ROADMAP item 2)",
            RuntimeWarning, stacklevel=2)

    x = z[:, :4 * n]
    energies = 0.5 * sys.h * np.einsum("ij,ij->i", x, x)
    rise = max_energy_rise(energies)
    # at zero gains the flow conserves energy and the trace wobbles by roundoff
    if (sys.xi1 or sys.xi2) and rise > ENERGY_FLOOR_ULPS:
        warnings.warn(
            f"modal energy rose by {rise:.3g} E0 between two samples, which the "
            "dissipative flow rules out: the generator eigenvalues are inaccurate "
            "at these gains (ROADMAP item 2)", RuntimeWarning, stacklevel=2)
    tips = z[:, 4 * n:]
    xi = x.view(complex)
    trace = EnergyTrace(times=times, energies=energies,
                        boundary_v_dot=tips[:, 0].copy(), boundary_p_dot=tips[:, 1].copy())
    return IntegrationResult(trace=trace, final_state=_to_nodes(sys, xi[-1:], tips[-1:])[0],
                             states=_to_nodes(sys, xi, tips) if keep_states else None)


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
