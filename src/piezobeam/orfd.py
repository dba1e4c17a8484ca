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

A nodal state is one flat array [v, p, v_dot, p_dot] = [y; u] of length
4(N+1); the nodal system is defined only in the second-order form above.
Its one first-order generator acts on the energy coordinates

    z = [L_A^T y; L_M^T u],   C1 (x) M = L_M L_M^T,   C2 (x) A_h = L_A L_A^T,

(Cholesky factors; both forms are SPD because
alpha1 > 0), in which the discrete energy is (h/2) |z|^2 and

    A_E = [[0, G^T], [-G, -D]],   G = L_M^-1 L_A,
    D = L_M^-1 (diag(xi1, xi2) (x) B) L_M^-T.

G is the Kronecker product of two small factors (`G_factors`).  The damping
is two tip rates: B = b b^T with b = e_{N+1}/sqrt(h), and L_m^-1 b is
nonzero only in its tip entry, so D is diagonal with the two nonzeros

    d_a = xi_a (M^-1)_NN / (c_a h) = 4(N+1) xi_a / (c_a h),   c = diag(C1),

at the tip rates v_dot(L), p_dot(L) (`tip_rates`, `tip_index`).
(M^-1)_NN = 4(N+1) exactly because M = (1/4) E^T E and the inverse of the
bidiagonal stencil E is lower triangular with entries +-1.  D >= 0, so
A_E + A_E^T <= 0 holds by construction and the eigenvectors are well
conditioned (condition ~2).  Every eigenvalue analysis and the modal
propagation run on A_E; the midpoint stepper works on the second-order form
above.  to_energy_coords and from_energy_coords map nodal states [y; u] to z
and back with the small Cholesky factors L_m, L_Ah and L_C2.

The dense blocks are checked against MEMORY_BYTES where they are allocated:
the mesh blocks in build_system and the generator in A_E.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .errors import DomainError
from .materials import MaterialParams

# Memory one call may take for its dense blocks and sample arrays.
MEMORY_BYTES = 2**30


def _check_memory(need: float, what: str, fewer: str) -> None:
    if need > MEMORY_BYTES:
        raise DomainError(
            f"{what} needs about {need / 2**20:.0f} MiB, over the "
            f"{MEMORY_BYTES / 2**20:.0f} MiB budget; request fewer {fewer}")


@dataclass(eq=False)
class OrfdSystem:
    """Assembled semi-discretization at one amplifier pair.

    Holds the second-order blocks; the factors and the generator A_E in
    energy coordinates are built on first use.
    """

    N: int
    h: float
    xi1: float
    xi2: float
    M_mat: np.ndarray
    Ah_mat: np.ndarray
    B_mat: np.ndarray
    C1: np.ndarray
    C2: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.N + 1

    # The Cholesky factor of a Kronecker product is the product of the
    # factors: L_M = sqrt(C1) (x) L_m with C1 diagonal, L_A = L_C2 (x) L_Ah.
    @cached_property
    def L_m(self) -> np.ndarray:
        """Lower Cholesky factor of M."""
        return np.linalg.cholesky(self.M_mat)

    @cached_property
    def L_Ah(self) -> np.ndarray:
        """Lower Cholesky factor of A_h."""
        return np.linalg.cholesky(self.Ah_mat)

    @cached_property
    def L_C2(self) -> np.ndarray:
        """Lower Cholesky factor of C2."""
        return np.linalg.cholesky(self.C2)

    @cached_property
    def G_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """(C1^-1/2 L_C2, L_m^-1 L_Ah), whose Kronecker product is G."""
        return (self.L_C2 / np.sqrt(np.diag(self.C1))[:, None],
                sla.solve_triangular(self.L_m, self.L_Ah, lower=True))

    @property
    def tip_rates(self) -> np.ndarray:
        """The damping rates 4(N+1) xi_a / (c_a h), the two nonzeros of D."""
        return 4.0 * self.n_nodes * np.array([self.xi1, self.xi2]) / (np.diag(self.C1) * self.h)

    @property
    def tip_index(self) -> list[int]:
        """Positions of v_dot(L) and p_dot(L) in nodal states and in z."""
        return [3 * self.n_nodes - 1, 4 * self.n_nodes - 1]

    @cached_property
    def A_E(self) -> np.ndarray:
        """Generator on the energy coordinates z (module docstring)."""
        n = self.n_nodes
        # A_E, and the copies and workspace of the eigensolves run on it
        _check_memory(8 * 6 * (4 * n) ** 2, f"generator at N={self.N}", "nodes")
        G = np.kron(*self.G_factors)
        A_E = np.zeros((4 * n, 4 * n))
        A_E[: 2 * n, 2 * n:] = G.T
        A_E[2 * n:, : 2 * n] = -G
        A_E[self.tip_index, self.tip_index] = -self.tip_rates
        return A_E

    def with_gains(self, xi1: float, xi2: float) -> OrfdSystem:
        """The same beam at the amplifier pair (xi1, xi2).

        Shares the gain-independent factors L_m, L_Ah, L_C2 and G_factors;
        its A_E is a copy of this system's with the two tip entries
        rewritten, bit for bit what build_system at (xi1, xi2) assembles.
        """
        _check_gains(xi1, xi2)
        other = replace(self, xi1=float(xi1), xi2=float(xi2))
        for name in ("L_m", "L_Ah", "L_C2", "G_factors"):
            other.__dict__[name] = getattr(self, name)  # fills the cached_property
        A_E = self.A_E.copy()
        A_E[other.tip_index, other.tip_index] = -other.tip_rates
        other.__dict__["A_E"] = A_E
        return other

    def to_energy_coords(self, states: np.ndarray) -> np.ndarray:
        """z = [L_A^T y; L_M^T u] of nodal states, shape (..., 4(N+1))."""
        n = self.n_nodes
        s = np.asarray(states, dtype=float).reshape(-1, 4, n)
        zy = self.L_C2.T @ s[:, :2] @ self.L_Ah
        zu = np.sqrt(np.diag(self.C1))[:, None] * (s[:, 2:] @ self.L_m)
        return np.concatenate([zy, zu], axis=1).reshape(np.shape(states))

    def from_energy_coords(self, z: np.ndarray) -> np.ndarray:
        """Nodal states [y; u] of energy coordinates z, shape (..., 4(N+1))."""
        n = self.n_nodes
        z = np.asarray(z, dtype=float)
        blocks = z.reshape(-1, 4, n)
        # y = L_C2^-T Zy L_Ah^-1 and u = C1^-1/2 Zu L_m^-1
        y = np.linalg.solve(self.L_C2.T, _solve_right(self.L_Ah, blocks[:, :2]))
        u = _solve_right(self.L_m, blocks[:, 2:]) / np.sqrt(np.diag(self.C1))[:, None]
        return np.concatenate([y, u], axis=1).reshape(z.shape)


def _solve_right(L: np.ndarray, X: np.ndarray) -> np.ndarray:
    """X L^-1 for lower triangular L, applied to the last axis of X."""
    rows = X.reshape(-1, X.shape[-1])
    return sla.solve_triangular(L, rows.T, lower=True, trans="T").T.reshape(X.shape)


def _check_gains(xi1: float, xi2: float) -> None:
    """Raise DomainError unless both amplifier gains are finite and >= 0."""
    for name, xi in (("xi1", xi1), ("xi2", xi2)):
        if not (np.isfinite(xi) and xi >= 0.0):
            raise DomainError(f"{name} must be finite and >= 0, got {xi!r}")


def build_system(params: MaterialParams, N: int, xi1: float, xi2: float) -> OrfdSystem:
    """Assemble the matrices of the semi-discretization.

    N >= 2 interior nodes; amplifiers must be finite and >= 0.
    """
    if not (isinstance(N, (int, np.integer)) and N >= 2):
        raise DomainError(f"N must be an integer >= 2, got {N!r}")
    _check_gains(xi1, xi2)

    n = N + 1
    h = params.L / n
    _check_memory(8 * 3 * n**2, f"mesh blocks at N={N}", "nodes")

    M = 0.25 * (np.diag(np.full(n, 2.0)) + np.diag(np.ones(n - 1), 1)
                + np.diag(np.ones(n - 1), -1))
    M[-1, -1] = 0.25
    Ah = (np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1)
          - np.diag(np.ones(n - 1), -1)) / h**2
    Ah[-1, -1] = 1.0 / h**2
    B = np.zeros((n, n))
    B[-1, -1] = 1.0 / h

    C1 = np.diag([params.rho, params.mu])
    C2 = np.array([[params.alpha, -params.gamma * params.beta],
                   [-params.gamma * params.beta, params.beta]])

    return OrfdSystem(N=int(N), h=h, xi1=float(xi1), xi2=float(xi2),
                      M_mat=M, Ah_mat=Ah, B_mat=B, C1=C1, C2=C2)


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


def discrete_energy(sys: OrfdSystem, state: np.ndarray) -> float:
    """E_h = (h/2) <(C1 (x) M) u, u> + (h/2) <(C2 (x) A_h) y, y>,
    y = [v; p], u = [v_dot; p_dot].

    Midpoint quadrature of the continuous energy: kinetic/magnetic terms are
    sums of squared cell averages, potential terms squared cell differences.
    """
    n = sys.N + 1
    state = np.asarray(state, dtype=float)
    y = state[: 2 * n].reshape(2, n)
    u = state[2 * n:].reshape(2, n)
    kin = np.einsum("ab,an,bn->", sys.C1, u, u @ sys.M_mat)
    pot = np.einsum("ab,an,bn->", sys.C2, y, y @ sys.Ah_mat)
    return 0.5 * sys.h * (kin + pot)


def perturbation_functional(sys: OrfdSystem, state: np.ndarray,
                            params: MaterialParams) -> float:
    """Midpoint quadrature of F = integral x*(rho*v_t*v_x + mu*p_t*p_x) dx.

    Evaluated cell by cell with averaged rates and differenced profiles, so
    the bound |F| <= L*eta*E_h holds exactly for the discrete quantities
    (the continuous Hoelder/Young chain goes through verbatim).
    """
    n = sys.N + 1
    state = check_state(sys, state)
    # prepend the clamped node to each of v, p, v_dot, p_dot
    v, p, vd, pd = np.hstack([np.zeros((4, 1)), state.reshape(4, n)])
    x_mid = (np.arange(n) + 0.5) * sys.h
    slope = lambda w: np.diff(w) / sys.h
    avg = lambda w: 0.5 * (w[:-1] + w[1:])
    integrand = params.rho * avg(vd) * slope(v) + params.mu * avg(pd) * slope(p)
    return float(sys.h * np.sum(x_mid * integrand))
