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

(Cholesky factors, SPD as alpha1 > 0), in which the energy is (h/2) |z|^2 and

    A_E = [[0, G^T], [-G, -D]],   G = L_M^-1 L_A,
    D = L_M^-1 (diag(xi1, xi2) (x) B) L_M^-T.

G is a Kronecker product of two factors (`G_factors`).  The damping
is two tip rates: B = b b^T with b = e_{N+1}/sqrt(h), and L_m^-1 b is
nonzero only in its tip entry, so D is diagonal with the two nonzeros

    d_a = xi_a (M^-1)_NN / (c_a h) = 4(N+1) xi_a / (c_a h),   c = diag(C1),

at the tip rates v_dot(L), p_dot(L) (`tip_rates`, `tip_index`).
(M^-1)_NN = 4(N+1) exactly because M = (1/4) E^T E and the inverse of the
bidiagonal stencil E is lower triangular with entries +-1.  D >= 0, so
A_E + A_E^T <= 0 holds by construction and the eigenvectors are well
conditioned (condition ~2).  Every eigenvalue analysis and the modal
propagation run on A_E; the midpoint stepper works on the second-order form
above.  M and A_h are held as stencils and B as its entry 1/h; their
Cholesky factors L_m and L_Ah are bidiagonal, in closed form, and map nodal
states [y; u] to z and back with L_C2 (to_energy_coords, from_energy_coords).
Only A_E and its mesh factor are dense, allocated after a MEMORY_BYTES check.
The Hessenberg reductions of `spectral` and the eigendecomposition in
`simulate.modal_trace` run under `_one_blas_thread`, so their eigenvalues do
not depend on the BLAS thread count; modal_trace's real-basis solve takes no
hold.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path

import numpy as np
import scipy
from scipy.linalg.lapack import dtbtrs

from .errors import DomainError
from .materials import MaterialParams

# Memory one call may take for its dense blocks and sample arrays.
MEMORY_BYTES = 2**30


def _check_memory(need: float, what: str, fewer: str) -> None:
    if need > MEMORY_BYTES:
        raise DomainError(
            f"{what} needs about {need / 2**20:.0f} MiB, over the "
            f"{MEMORY_BYTES / 2**20:.0f} MiB budget; request fewer {fewer}")


@cache
def _scipy_openblas() -> ctypes.CDLL | None:
    """scipy's bundled OpenBLAS, the library scipy's LAPACK runs on, if it is
    loaded and exports its thread-count functions; otherwise None."""
    if not hasattr(os, "RTLD_NOLOAD"):
        return None
    for path in sorted((Path(scipy.__file__).parent.parent / "scipy.libs").glob(
            "libscipy_openblas*.so")):
        try:
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)  # only if already loaded
            get, set_ = lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return lib
    return None


# The thread count is process-wide, so eigensolves in concurrent threads
# take turns instead of restoring each other's count.  Re-entrant within a
# thread; a pool thread working for a holder must not take it.
_BLAS_PIN = threading.RLock()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body, or the decorated function, with scipy's OpenBLAS on one
    thread, then restore its thread count.  Without the library (see
    `_scipy_openblas`) nothing changes."""
    lib = _scipy_openblas()
    if lib is None:
        yield
        return
    with _BLAS_PIN:
        old = lib.scipy_openblas_get_num_threads()
        lib.scipy_openblas_set_num_threads(1)
        try:
            yield
        finally:
            lib.scipy_openblas_set_num_threads(old)


@dataclass(eq=False)
class OrfdSystem:
    """Semi-discretization at one amplifier pair; the factors and the
    generator A_E in energy coordinates are built on first use."""

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

    # The Cholesky factor of a Kronecker product is the product of the
    # factors: L_M = sqrt(C1) (x) L_m with C1 diagonal, L_A = L_C2 (x) L_Ah.
    # M is tridiagonal, so L_m is bidiagonal, with diagonal (1/2) sqrt((j+2)/(j+1))
    # for j < N, tip 1/(2 sqrt(N+1)), and subdiagonal (1/2) sqrt(j/(j+1)).
    @cached_property
    def L_m(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower bidiagonal Cholesky factor of M as (diagonal, subdiagonal)."""
        j = np.arange(1.0, self.n_nodes)
        return (np.r_[0.5 * np.sqrt((j + 1.0) / j), 0.5 / np.sqrt(self.n_nodes)],
                0.5 * np.sqrt(j / (j + 1.0)))

    @cached_property
    def L_Ah(self) -> tuple[np.ndarray, np.ndarray]:
        """Cholesky factor of A_h: (2/h) L_m with its subdiagonal negated."""
        d, e = self.L_m
        return 2.0 / self.h * d, -2.0 / self.h * e

    @cached_property
    def L_C2(self) -> np.ndarray:
        """Lower Cholesky factor of C2."""
        return np.linalg.cholesky(self.C2)

    @property
    def coupling(self) -> np.ndarray:
        """C1^-1/2 L_C2, the 2x2 Kronecker factor of G."""
        return self.L_C2 / np.sqrt(np.diag(self.C1))[:, None]

    @cached_property
    def G_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """(coupling, L_m^-1 L_Ah), whose Kronecker product is G; the second is dense."""
        d, e = self.L_Ah  # (L_m^-1 L_Ah)^T = L_Ah^T L_m^-T
        return self.coupling, _solve_right(np.diag(d) + np.diag(e, 1), self.L_m, True).T

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

    def to_energy_coords(self, states: np.ndarray) -> np.ndarray:
        """z = [L_A^T y; L_M^T u] of nodal states, shape (..., 4(N+1))."""
        s = np.asarray(states, dtype=float).reshape(-1, 4, self.n_nodes)
        zy = self.L_C2.T @ _times_bidiag(s[:, :2], self.L_Ah)
        zu = np.sqrt(np.diag(self.C1))[:, None] * _times_bidiag(s[:, 2:], self.L_m)
        return np.concatenate([zy, zu], axis=1).reshape(np.shape(states))

    def from_energy_coords(self, z: np.ndarray) -> np.ndarray:
        """Nodal states [y; u] of energy coordinates z, shape (..., 4(N+1))."""
        blocks = np.asarray(z, dtype=float).reshape(-1, 4, self.n_nodes)
        # y = L_C2^-T Zy L_Ah^-1 and u = C1^-1/2 Zu L_m^-1
        y = np.linalg.solve(self.L_C2.T, _solve_right(blocks[:, :2], self.L_Ah))
        u = _solve_right(blocks[:, 2:], self.L_m) / np.sqrt(np.diag(self.C1))[:, None]
        return np.concatenate([y, u], axis=1).reshape(np.shape(z))


def _times_bidiag(X: np.ndarray, L: tuple) -> np.ndarray:
    """X L for the lower bidiagonal L = (diagonal, subdiagonal), on the last axis of X."""
    d, e = L
    XL = X * d
    XL[..., :-1] += X[..., 1:] * e
    return XL


def _solve_right(X: np.ndarray, L: tuple, transpose: bool = False) -> np.ndarray:
    """X L^-1, or X L^-T with transpose, for the lower bidiagonal L = (d, e),
    on the last axis of X: dtbtrs on (X L^-1)^T = L^-T X^T."""
    rows = X.reshape(-1, X.shape[-1])
    sol, info = dtbtrs(np.vstack([L[0], np.append(L[1], 0.0)]), rows.T, uplo="L",
                       trans="N" if transpose else "T")
    if info:
        raise np.linalg.LinAlgError(f"bidiagonal solve failed (dtbtrs info={info})")
    return sol.T.reshape(X.shape)


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


def discrete_energy(sys: OrfdSystem, state: np.ndarray) -> float:
    """E_h = (h/2) <(C1 (x) M) u, u> + (h/2) <(C2 (x) A_h) y, y> = (h/2) |z|^2,
    y = [v; p], u = [v_dot; p_dot], z = sys.to_energy_coords(state).

    Midpoint quadrature of the continuous energy: kinetic/magnetic terms are
    sums of squared cell averages, potential terms squared cell differences.
    """
    z = sys.to_energy_coords(state)
    return 0.5 * sys.h * float(z @ z)


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
