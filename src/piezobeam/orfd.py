"""Order-reduced finite-difference semi-discretization.

The beam is clamped at x=0 and forced at x=L through the feedback law
u = -diag(xi1, xi2) * (v_t(L), p_t(L)).  With N interior nodes plus the tip
node (h = L/(N+1), clamped node eliminated) the semi-discrete system is

    (C1 (x) M) x'' + (C2 (x) A_h) x + (diag(xi1, xi2) (x) B) x' = 0,   x = [v; p]

with the (N+1)x(N+1) blocks

    M   = (1/4) tridiag(1, 2, 1),  last diagonal entry 1/4
    A_h = (1/h^2) tridiag(-1, 2, -1),  last diagonal entry 1/h^2
    B   = e_{N+1} e_{N+1}^T / h

and the 2x2 coefficient matrices C1 = diag(rho, mu),
C2 = [[alpha, -gamma*beta], [-gamma*beta, beta]].  The midpoint-node
("order-reduced") construction makes M = (1/4) E^T E and A_h = (1/h^2) D^T D
for the cell averaging/differencing stencils E, D, so the discrete energy is
an exact midpoint quadrature of the continuous one.  That structure is what
makes the dissipation identity and the perturbation bound below exact in
floating point, not just O(h^2).

A state is nodal or modal.  A nodal state is one flat array
[v, p, v_dot, p_dot] = [y; u] of length 4(N+1), and its energy is the cell
quadrature `discrete_energy`.  A modal state is the mode coordinates xi of
the undamped beam (`modes`, `BeamModes`; to_modes, from_modes are FFTs of
length 4(N+1)): the pencil (A_h, M) has sine modes, and the two
characteristic channels of (C1, C2) decouple v and p, so xi carries the
energy as (h/2)|xi|^2 and the gains act on it through two tip values.  The
midpoint stepper and the modal propagation run in xi.

Every dense eigenvalue analysis runs on one first-order generator,

    A_E = [[0, G^T], [-G, -D]],   G = L_M^-1 L_A,
    D = L_M^-1 (diag(xi1, xi2) (x) B) L_M^-T,

for the Cholesky factors C1 (x) M = L_M L_M^T and C2 (x) A_h = L_A L_A^T
(SPD as alpha1 > 0), in the layout `_tip_first` makes.  Its basis is the
energy coordinates z = [L_A^T y; L_M^T u], in which the energy is
(h/2)|z|^2.  z is the basis of A_E and nothing else: `G_factors` forms the
two Kronecker factors of G, and no state is mapped to z.  The damping is
two tip rates: B = b b^T with b = e_{N+1}/sqrt(h), L_M = sqrt(C1) (x) L_m with L_m
the lower bidiagonal Cholesky factor of M, and L_m^-1 b is nonzero only in
its tip entry, so D is diagonal with the two nonzeros

    d_a = xi_a (M^-1)_NN / (c_a h) = 4(N+1) xi_a / (c_a h),   c = diag(C1),

at the tip rates v_dot(L), p_dot(L) (`tip_rates`, `tip_index`).
(M^-1)_NN = 4(N+1) exactly because M = (1/4) E^T E and the inverse of the
bidiagonal stencil E is lower triangular with entries +-1.  D >= 0, so
A_E + A_E^T <= 0 holds by construction and the eigenvectors are well
conditioned (condition ~2).
M and A_h are held as stencils and B as its entry 1/h.  Only A_E and its
mesh factor are dense, allocated after a MEMORY_BYTES check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._lapack import Routine
from .errors import DomainError
from .materials import MaterialParams

# Memory one call may take for its dense blocks and sample arrays.
MEMORY_BYTES = 2**30

_dtbtrs = Routine("dtbtrs")


def _check_memory(need: float, what: str, fewer: str) -> None:
    if need > MEMORY_BYTES:
        raise DomainError(
            f"{what} needs about {need / 2**20:.0f} MiB, over the "
            f"{MEMORY_BYTES / 2**20:.0f} MiB budget; request fewer {fewer}")


@dataclass(frozen=True, eq=False)
class BeamModes:
    """The closed-form energy modes of the undamped beam (`OrfdSystem.modes`).

    The channel transform T (`_channel_transform`) has T^T C1 T = I and
    T^T C2 T = diag(lam), so channel c of eta = T^-1 y obeys
    M eta_c'' + lam_c A_h eta_c = 0 at zero gains.  The pencil (A_h, M) has
    the sine modes phi_j(x_i) = sin(k_j x_i), k_j = (2j-1) pi / (2L), with
    frequencies f_j = (2/h) tan(k_j h/2) and M-norm phi_j^T M phi_j =
    (n/2) cos^2(k_j h/2), n = N+1; mode (c, j) turns at sigma = sqrt(lam_c) f_j.

    tip[a, c, j] is entry a of Psi: sqrt(c_a / 4n) times the tip rate a of a
    nodal state (`OrfdSystem.tip_index`) reads Psi^T Im(xi) in its mode
    coordinates xi (`OrfdSystem.to_modes`).  Psi = R (x) psi with
    R = diag(C1)^1/2 T a rotation and psi_j = (-1)^(j+1) / (sqrt(2) n cos(k_j h/2)), so its two
    columns are orthonormal, and D = diag(tip_rates) enters the generator
    of xi as Psi D Psi^T.
    """

    T: np.ndarray      # (2, 2) channel transform
    lam: np.ndarray    # (2,) channel coefficients T^T C2 T
    sigma: np.ndarray  # (2, n) mode frequencies sqrt(lam_c) f_j
    tip: np.ndarray    # (2, 2, n) tip values Psi[a, c, j]


@dataclass(eq=False)
class OrfdSystem:
    """Semi-discretization at one amplifier pair; the dense generator A_E,
    its factors and the closed-form modes are built on first use."""

    N: int
    h: float
    xi1: float
    xi2: float
    C1: np.ndarray
    C2: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.N + 1

    @property
    def M_stencil(self) -> tuple[np.ndarray, np.ndarray]:
        """(diagonal, off-diagonal) of the tridiagonal M."""
        return np.r_[np.full(self.N, 0.5), 0.25], np.full(self.N, 0.25)

    @property
    def Ah_stencil(self) -> tuple[np.ndarray, np.ndarray]:
        """(diagonal, off-diagonal) of A_h: 4/h^2 times M's, off-diagonal negated."""
        d, e = self.M_stencil
        return 4.0 / self.h**2 * d, -4.0 / self.h**2 * e

    @cached_property
    def G_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """(C1^-1/2 L_C2, L_m^-1 L_Ah), whose Kronecker product is G; the second is dense.

        The Cholesky factor of a Kronecker product is the product of the
        factors: L_M = sqrt(C1) (x) L_m with C1 diagonal, L_A = L_C2 (x) L_Ah.
        M is tridiagonal, so L_m is lower bidiagonal, with diagonal
        (1/2) sqrt((j+1)/j) for j = 1..N, tip 1/(2 sqrt(N+1)), and subdiagonal
        (1/2) sqrt(j/(j+1)); L_Ah is (2/h) L_m with its subdiagonal negated.
        L_m^-1 L_Ah is one banded triangular solve, LAPACK's dtbtrs in numpy's
        BLAS library (`piezobeam._lapack`), and comes in Fortran order.
        """
        n = self.n_nodes
        j = np.arange(1.0, n)
        d = np.r_[0.5 * np.sqrt((j + 1.0) / j), 0.5 / np.sqrt(n)]
        e = 0.5 * np.sqrt(j / (j + 1.0))
        # L_Ah, overwritten by L_m^-1 L_Ah (dtbtrs on the band of L_m); L_m
        # has a positive diagonal, so the solve cannot fail
        mesh = np.asfortranarray(np.diag(2.0 / self.h * d) + np.diag(-2.0 / self.h * e, -1))
        _dtbtrs(b"L", b"N", b"N", n, 1, n, np.array([d, np.append(e, 0.0)], order="F"), 2,
                mesh, n)
        return np.linalg.cholesky(self.C2) / np.sqrt(np.diag(self.C1))[:, None], mesh

    @property
    def tip_rates(self) -> np.ndarray:
        """The damping rates 4(N+1) xi_a / (c_a h), the two nonzeros of D."""
        return 4.0 * self.n_nodes * np.array([self.xi1, self.xi2]) / (np.diag(self.C1) * self.h)

    @property
    def tip_index(self) -> list[int]:
        """Positions of v_dot(L) and p_dot(L) in nodal states and in A_E."""
        return [3 * self.n_nodes - 1, 4 * self.n_nodes - 1]

    @cached_property
    def A_E(self) -> np.ndarray:
        """The first-order generator, on the energy coordinates z (module docstring)."""
        n = self.n_nodes
        # A_E, and the copies and workspace of the eigensolves run on it
        _check_memory(8 * 6 * (4 * n) ** 2, f"generator at N={self.N}", "nodes")
        G = np.kron(*self.G_factors)
        A_E = np.zeros((4 * n, 4 * n))
        A_E[: 2 * n, 2 * n:] = G.T
        A_E[2 * n:, : 2 * n] = -G
        A_E[self.tip_index, self.tip_index] = -self.tip_rates
        return A_E

    @cached_property
    def modes(self) -> BeamModes:
        """The closed-form modes (`BeamModes`), O(N) arrays."""
        n = self.n_nodes
        T, lam = _channel_transform(self)
        # k_j h/2 = (2j-1) pi/(4n); its cosine is the sine of the reflected
        # grid point pi/2 - k_j h/2, accurate where k_j h/2 nears pi/2
        half = np.arange(1, 2 * n, 2) * (math.pi / (4 * n))
        sin, cos = np.sin(half), np.sin(half[::-1])
        psi = np.where(np.arange(n) % 2, -1.0, 1.0) / (math.sqrt(2.0) * n * cos)
        R = np.sqrt(np.diag(self.C1))[:, None] * T
        return BeamModes(T=T, lam=lam, sigma=np.sqrt(lam)[:, None] * (2.0 / self.h * sin / cos),
                         tip=R[:, :, None] * psi)

    def to_modes(self, states: np.ndarray) -> np.ndarray:
        """Mode coordinates xi = zeta_y + i zeta_u, shape (..., 2, N+1), of
        nodal states (..., 4(N+1)), with (h/2) |xi|^2 the discrete energy.

        With M = F^T F and A_h = (D/h)^T (D/h) for the cell stencils
        F = E/2 (averages) and D (differences) of the module docstring,
        F Phi is the orthogonal DST-IV and (D/h) Phi the orthogonal DCT-IV
        times diag(f), for Phi the M-normalised sine modes.  So, per channel
        (eta, w) = T^-1 (y, u) node by node,

            zeta_y = sqrt(lam_c) DCT-IV(D eta / h),   zeta_u = DST-IV(F w),

        the amplitudes Phi^-1 eta and Phi^-1 w scaled by sigma and 1, through
        orthogonal maps of the cell differences and averages (`_odd_fft`).
        """
        m = self.modes
        n = self.n_nodes
        s = np.asarray(states, dtype=float).reshape(-1, 2, 2, n)
        ch = (m.T.T * np.diag(self.C1)) @ s  # T^-1 = T^T C1 on each node
        scale = math.sqrt(2.0 / n)
        xi = np.empty((s.shape[0], 2, n), dtype=complex)
        # one channel and part at a time: the FFT buffers take ~10(N+1)
        # doubles per state
        for c in range(2):
            eta, w = ch[:, 0, c], ch[:, 1, c]
            xi[:, c].real = _odd_fft(np.diff(eta, axis=-1, prepend=0.0)).real * (
                scale * math.sqrt(m.lam[c]) / self.h)
            sums = w.copy()  # twice the cell averages, w = 0 at the clamp
            sums[:, 1:] += w[:, :-1]
            xi[:, c].imag = _odd_fft(sums).imag * (-0.5 * scale)
        return xi.reshape(np.shape(states)[:-1] + (2, n))

    def from_modes(self, xi: np.ndarray) -> np.ndarray:
        """Nodal states (..., 4(N+1)) of mode coordinates xi (..., 2, N+1),
        the inverse of `to_modes`: the DCT-IV and DST-IV are their own
        inverses, D^-1 is a running sum and F^-1 an alternating one.  Node by
        node and state by state, so a sub-block of states maps to the same
        bits as inside the whole."""
        m = self.modes
        n = self.n_nodes
        shape = np.shape(xi)
        xi = np.asarray(xi).reshape(-1, 2, n)
        scale = math.sqrt(2.0 / n)
        sign = np.where(np.arange(n) % 2, -1.0, 1.0)
        eta, w = np.empty(xi.shape), np.empty(xi.shape)
        for c in range(2):
            eta[:, c] = np.cumsum(_odd_fft(xi[:, c].real).real, axis=-1)
            eta[:, c] *= scale * self.h / math.sqrt(m.lam[c])
            w[:, c] = np.cumsum(_odd_fft(xi[:, c].imag).imag * sign, axis=-1)
            w[:, c] *= -2.0 * scale * sign
        out = np.empty((xi.shape[0], 2, 2, n))
        for q, chan in enumerate((eta, w)):
            for a in range(2):
                np.multiply(m.T[a, 0], chan[:, 0], out=out[:, q, a])
                out[:, q, a] += m.T[a, 1] * chan[:, 1]
        return out.reshape(shape[:-2] + (4 * n,))


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


def _odd_fft(x: np.ndarray) -> np.ndarray:
    """Y_j = sum_k x_k exp(-i pi (2k+1)(2j+1) / (4n)) over the last axis of x
    (length n): the length-4n FFT of x zero-padded, read at the odd
    frequencies 1, 3, ..., 2n-1 and turned by exp(-i pi (2j+1) / (4n)).
    sqrt(2/n) Re Y is the orthogonal DCT-IV of x, -sqrt(2/n) Im Y its DST-IV."""
    n = x.shape[-1]
    return np.fft.rfft(x, 4 * n)[..., 1:2 * n:2] * np.exp(
        (-0.25j * math.pi / n) * np.arange(1, 2 * n, 2))


def _tip_first(A: np.ndarray) -> np.ndarray:
    """A fresh Fortran-order float64 copy of the generator A with its last
    index, p_dot(L) (`OrfdSystem.tip_index`), cycled to the front.

    dgehrd never reads entry (0, 0): its first reflector acts on rows and
    columns 1..n-1 only.  So the Hessenberg form of the copy holds the
    p-tip rate -d_2 in H[0, 0], unmixed with the rest, and the form at
    (xi1, xi2) is the form at (xi1, 0) with H[0, 0] = -d_2.
    """
    P = np.empty(A.shape, order="F")
    P[0, 0], P[0, 1:], P[1:, 0], P[1:, 1:] = A[-1, -1], A[-1, :-1], A[:-1, -1], A[:-1, :-1]
    return P


def build_system(params: MaterialParams, N: int, xi1: float, xi2: float) -> OrfdSystem:
    """The semi-discretization on N >= 2 interior nodes at gains finite and
    >= 0 whose tip rates (`OrfdSystem.tip_rates`) are finite."""
    if not (isinstance(N, (int, np.integer)) and N >= 2):
        raise DomainError(f"N must be an integer >= 2, got {N!r}")
    for name, xi in (("xi1", xi1), ("xi2", xi2)):
        if not (np.isfinite(xi) and xi >= 0.0):
            raise DomainError(f"{name} must be finite and >= 0, got {xi!r}")
    C2 = np.array([[params.alpha, -params.gamma * params.beta],
                   [-params.gamma * params.beta, params.beta]])
    sys = OrfdSystem(N=int(N), h=params.L / (N + 1), xi1=float(xi1), xi2=float(xi2),
                     C1=np.diag([params.rho, params.mu]), C2=C2)
    with np.errstate(over="ignore"):  # the check below reports it
        finite = np.all(np.isfinite(sys.tip_rates))
    if not finite:
        raise DomainError(f"gains ({xi1!r}, {xi2!r}) overflow the tip rates at N={N}; "
                          "request smaller gains")
    return sys


def hat_initial_condition(params: MaterialParams, N: int,
                          peak_frac: float = 0.5) -> np.ndarray:
    """Flat state [v, p, v_dot, p_dot]: a unit-peak triangular profile on
    both v and p, zero velocities.

    The peak sits at the grid node nearest peak_frac*L and must be interior
    (a peak at the clamp or the tip leaves no triangle).
    """
    if not (isinstance(N, (int, np.integer)) and N >= 2):
        raise DomainError(f"N must be an integer >= 2, got {N!r}")
    n = N + 1
    h = params.L / n
    if not np.isfinite(peak_frac):
        raise DomainError(f"peak_frac must be finite, got {peak_frac!r}")
    m = int(round(peak_frac * n))
    if not 1 <= m <= N:
        raise DomainError(
            f"peak_frac={peak_frac!r} puts the peak at node {m} of {n}; "
            "it must land on an interior node"
        )
    x = np.linspace(h, params.L, n)
    xm = m * h
    prof = np.where(x <= xm, x / xm, (params.L - x) / (params.L - xm))
    prof[-1] = 0.0
    return np.concatenate([prof, prof, np.zeros(2 * n)])


def check_state(sys: OrfdSystem, state: np.ndarray) -> np.ndarray:
    """The nodal state as a flat float array of length 4(N+1).

    Raises DomainError on any other shape and on NaN or infinite entries.
    """
    n = sys.N + 1
    state = np.asarray(state, dtype=float)
    if state.shape != (4 * n,):
        raise DomainError(f"state has shape {state.shape}, expected ({4 * n},)")
    bad = np.flatnonzero(~np.isfinite(state))
    if bad.size:
        raise DomainError(f"state has {bad.size} non-finite entries, "
                          f"the first at index {bad[0]}")
    return state


def _cells(sys: OrfdSystem, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(averages, slopes) of the checked nodal state over the N+1 cells, each
    of shape (4, N+1) with rows v, p, v_dot, p_dot; the clamped node is
    prepended to each row."""
    n = sys.N + 1
    w = np.hstack([np.zeros((4, 1)), check_state(sys, state).reshape(4, n)])
    return 0.5 * (w[:, :-1] + w[:, 1:]), np.diff(w) / sys.h


def discrete_energy(sys: OrfdSystem, state: np.ndarray) -> float:
    """E_h = (h/2) <(C1 (x) M) u, u> + (h/2) <(C2 (x) A_h) y, y>,
    y = [v; p], u = [v_dot; p_dot].

    Midpoint quadrature of the continuous energy, cell by cell:

        E_h = (h/2) sum_cells [rho ubar_v^2 + mu ubar_p^2
                               + alpha1 v_x^2 + beta (p_x - gamma v_x)^2],

    alpha1 = alpha - gamma^2 beta, over the cell averages ubar of the rates
    and the cell slopes of the profiles (M = (1/4) E^T E and
    A_h = (1/h^2) D^T D).  A sum of squares, so it does not cancel near the
    hyperbolicity limit alpha1 -> 0.
    """
    (_, _, vd, pd), (vx, px, _, _) = _cells(sys, state)
    (rho, mu), ((alpha, gb), (_, beta)) = np.diag(sys.C1), sys.C2  # gb = -gamma beta
    shear = px + gb / beta * vx  # p_x - gamma v_x
    alpha1 = alpha - gb * gb / beta
    return 0.5 * sys.h * float(rho * vd @ vd + mu * pd @ pd
                               + alpha1 * vx @ vx + beta * shear @ shear)


def perturbation_functional(sys: OrfdSystem, state: np.ndarray,
                            params: MaterialParams) -> float:
    """Midpoint quadrature of F = integral x*(rho*v_t*v_x + mu*p_t*p_x) dx.

    Evaluated cell by cell with averaged rates and differenced profiles, so
    the bound |F| <= L*eta*E_h holds exactly for the discrete quantities
    (the continuous Hoelder/Young chain goes through verbatim).
    """
    (_, _, vd, pd), (vx, px, _, _) = _cells(sys, state)
    x_mid = (np.arange(sys.N + 1) + 0.5) * sys.h
    integrand = params.rho * vd * vx + params.mu * pd * px
    return float(sys.h * np.sum(x_mid * integrand))
