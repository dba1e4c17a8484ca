"""Eigenvalue analysis of the semi-discrete generator.

The spectral abscissa max Re(mu) of the generator is the decay rate the
semi-discrete system actually delivers; sweeping it over the amplifier plane
maps where the certified design intervals sit relative to the truly optimal
gains.  Every eigensolve runs on A_E, the generator in energy coordinates
(see `piezobeam.orfd`), with dense LAPACK routines (the generator is small;
sparse iteration buys nothing here) called natively in numpy's BLAS library
(`piezobeam._lapack`): one Hessenberg reduction (dgehrd) and the double-shift QR iteration
(dlahqr).  The reduction runs on a copy of A_E with p_dot(L), its last
coordinate, moved to the front (`orfd._tip_first`).  The gains enter A_E
only as the two tip rates on its diagonal, and dgehrd never reads entry
(0, 0), so the p-tip rate is not mixed into the reflectors and the form at
(xi1, xi2) is the form at (xi1, 0) with H[0, 0] = -d_2 (`_form_eigvals`):
`sweep` reduces once per xi1 row.  The abscissa agrees with 40-digit
oracles (tests/oracle_frozen_abscissa.py and bench/oracle.py) to 5.4e-9 to
1.2e-8 relative at the three frozen keys and 1.1e-9 at N=24, (1e6, 1e9).
The dense eigenvalues still carry an absolute error ~eps ||A_E||_2 from the
entries the reduction mixes; at stiff gains the p-tip rate sets ||A_E||_2
(~1e22 at (8.8e5, 6.8e11)) but stays out of them, and the abscissa there is
4.6e-9 relative from the oracle at N=8 and reads between -1.4691162 and
-1.4691157 at N = 8 to 80.  A large xi1 tip rate is still mixed in: at
N=8, (1e12, 1e12) the error is 3.6e-5 (ROADMAP item 2).

`spectrum` checks its dominant eigenvalues against the closed-form modes
of the beam (`OrfdSystem.modes`), not against A_E: in the modes the gains
enter through two tip values, and the eigenvalues of A_E are the roots of a
2x2 secular function (`_newton_steps`).  One Newton step on that function,
from each eigenvalue with its nearest pole removed, is checked against
RESIDUAL_RTOL in units of r = max(||G||_2, ||D||_2), the lower bound on
||A_E||_2 read by `generator_radius_estimate`.  The step is about
the eigenvalue's own error, so the check also tests the dense assembly of
A_E against the modes; the eigenvalues are reported as computed.

`simulate.modal_trace` takes its eigenvalues from the same reduction
(`_eigvals`) and builds each eigenvector from the same secular structure
in O(n) (`_mode_eigvecs`), so this module is the eigenvalue core that
spectra, sweeps and modal traces share.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._lapack import Routine, one_blas_thread, with_workspace
from .errors import DomainError
from .materials import MaterialParams
from .orfd import OrfdSystem, _tip_first, build_system

RESIDUAL_RTOL = 1e-8  # certificate threshold, relative to max(||G||_2, ||D||_2)
N_CERTIFY = 10  # dominant eigenvalues certified per spectrum, conjugates once

_dgehrd = Routine("dgehrd")
_dlahqr = Routine("dlahqr", failure="Eigenvalues did not converge")


@dataclass(frozen=True)
class SpectrumResult:
    """Full spectrum at one amplifier pair with a Newton-step certificate.

    eigenvalues are sorted by decreasing real part and max_real is the
    first one's, both exactly as `_hessenberg_eigvals` returns them.
    residual_max is the largest |step| / r over the N_CERTIFY dominant
    eigenvalues (conjugates once), step the Newton step of `_newton_steps`
    and r = `generator_radius_estimate`, the closed-form lower bound
    max(||G||_2, ||D||_2) on ||A_E||_2; a non-finite step counts as inf.
    certified is False when that exceeds RESIDUAL_RTOL.
    """

    eigenvalues: np.ndarray
    max_real: float
    residual_max: float
    certified: bool


@dataclass(frozen=True)
class SpectrumGrid:
    """Spectral abscissa over a grid of amplifier pairs.

    max_real_grid[i, j] belongs to (xi1_values[i], xi2_values[j]).  Cells
    whose eigensolve failed hold NaN and are listed in failures.
    """

    xi1_values: np.ndarray
    xi2_values: np.ndarray
    max_real_grid: np.ndarray
    failures: list = field(default_factory=list)


def _hessenberg(A: np.ndarray) -> np.ndarray:
    """hq with Q H Q^T = `_tip_first(A)`, by dgehrd (ilo = 1, ihi = n) with
    the BLAS held to one thread (`one_blas_thread`).  hq is that copy in
    Fortran order, with H on and above the subdiagonal and the reflectors
    of Q below it.  Balancing (dgebal) would leave A_E unchanged: A_E^T = J A_E J with
    J = diag(I, -I) gives every row the norm of its column, and no row is
    zero off the diagonal (tests/test_orfd.py).  Non-finite input raises
    np.linalg.LinAlgError.
    """
    if not np.isfinite(A).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    hq = _tip_first(A)
    n = hq.shape[0]
    tau = np.empty(max(n - 1, 1))
    with one_blas_thread():
        with_workspace(lambda work, lwork: _dgehrd(n, 1, n, hq, n, tau, work, lwork))
    return hq


def _hessenberg_eigvals(h: np.ndarray) -> np.ndarray:
    """Eigenvalues wr + i*wi of the upper Hessenberg matrix h (Fortran
    order), in LAPACK order: conjugate pairs adjacent, Im > 0 first.

    dlahqr, the double-shift QR iteration, without the Schur form and
    without Schur vectors.  After `_hessenberg` this is dgeev's path without
    its balancing, and with dlahqr in place of the multishift QR (dlaqr0)
    that dhseqr picks for n > 75, which is slower below n ~900.  It
    overwrites h, entries below the subdiagonal included.  A failed
    iteration raises np.linalg.LinAlgError.
    """
    n = h.shape[0]
    wr, wi = np.empty(n), np.empty(n)
    # WANTT = WANTZ = false: Z, ILOZ and IHIZ are not referenced
    _dlahqr(False, False, n, 1, n, h, n, wr, wi, 1, n, np.empty(1), 1)
    lam = np.empty(n, dtype=complex)
    lam.real, lam.imag = wr, wi
    return lam


def _form_eigvals(form: np.ndarray, sys: OrfdSystem) -> np.ndarray:
    """Eigenvalues of sys.A_E from `form`, the Hessenberg part of
    `_hessenberg` for any system with the same N and xi1: a Fortran-order
    copy with -tip_rates[1] written into H[0, 0], through
    `_hessenberg_eigvals`."""
    h = np.array(form, dtype=float, order="F")
    h[0, 0] = -sys.tip_rates[1]
    return _hessenberg_eigvals(h)


def _eigvals(sys: OrfdSystem) -> np.ndarray:
    """All eigenvalues of sys.A_E, in LAPACK order: the tip-first reduction
    (`_hessenberg`) and its QR iteration (`_form_eigvals`).  `spectrum` and
    `simulate.modal_trace` both take theirs from here, so they report the
    same values bit for bit."""
    return _form_eigvals(_hessenberg(sys.A_E), sys)


def generator_radius_estimate(sys: OrfdSystem) -> float:
    """max(||G||_2, ||D||_2) for A_E = [[0, G^T], [-G, -D]] (see `orfd`).

    The singular values of G are the closed-form mode frequencies
    sys.modes.sigma, and D is diagonal with the two tip rates.  The spectral
    radius of A_E is at most ||G||_2 + ||D||_2, so this is at least half of
    it.
    """
    return float(max(sys.modes.sigma.max(), sys.tip_rates.max()))


def _secular(sys: OrfdSystem, lam: np.ndarray, k: np.ndarray | None = None) -> tuple:
    """(q, outer, k, den, w, s0): the secular function of the closed-form
    modes at each lam (Im >= 0), with pole k removed, by default the pole
    nearest lam (`_newton_steps`).

    q is D^1/2 Psi^T, shape (2, 2n), and outer holds the entries 00, 01, 11
    of q_m q_m^T mode by mode; k is the index of the pole i sigma_k removed at
    each lam, and den[r, m] = lam_r^2 + sigma_m^2, each formed as
    (sigma_m - sigma_k)(sigma_m + sigma_k) + delta (2p + delta),
    delta = lam - p and p = i sigma_k, exact as lam nears the pole.
    w = lam / den with w[r, k_r] = 0, and s0 holds the entries 00, 01, 11
    of S0 = I + D^1/2 R(lam) D^1/2 without term k.  The sums over the modes
    here and in the callers are einsum loops, not numpy products, which
    would add in another order and move the certificate and the modal
    eigenvectors by an ulp here and there; these run outside
    `one_blas_thread`, where the products' blocked sums would also change
    with the BLAS thread count once there are ~100 roots.
    """
    m = sys.modes
    sigma = m.sigma.ravel()
    q = np.sqrt(sys.tip_rates)[:, None] * m.tip.reshape(2, -1)
    outer = np.array([q[0] * q[0], q[0] * q[1], q[1] * q[1]])
    if k is None:
        k = np.abs(lam.imag[:, None] - sigma).argmin(axis=1)
    p = 1j * sigma[k]
    delta = lam - p
    with np.errstate(all="ignore"):
        den = ((sigma - sigma[k, None]) * (sigma + sigma[k, None])
               + (delta * (2.0 * p + delta))[:, None])
        w = lam[:, None] / den
        w[np.arange(lam.size), k] = 0.0
        a, b, d = np.einsum("em,rm->er", outer, w)
    a += 1.0
    d += 1.0
    return q, outer, k, den, w, (a, b, d)


def _newton_steps(sys: OrfdSystem, lam: np.ndarray) -> np.ndarray:
    """One Newton step g/g' from each eigenvalue in lam (Im >= 0) on the
    secular function of the closed-form modes (`OrfdSystem.modes`).

    In the modes G G^T is diag(sigma^2) and the damping is Psi D Psi^T with
    D = diag(tip_rates), so lam is an eigenvalue of A_E iff
    det(lam^2 + diag(sigma^2) + lam Psi D Psi^T) = 0, iff
    (matrix determinant lemma) det(I + D^1/2 R(lam) D^1/2) = 0 with
    R(lam) = sum_m Psi_m Psi_m^T lam / (lam^2 + sigma_m^2).  With the pole
    p = i sigma_k nearest lam, S0 that 2x2 matrix without term k and
    u = D^1/2 Psi_k,

        g = (lam^2 + sigma_k^2) det S0 + lam u^T adj(S0) u

    is the determinant times lam^2 + sigma_k^2, with no pole at p (Bunch,
    Nielsen & Sorensen, Numer. Math. 1978), built by `_secular`.  A step
    that overflows is not finite.
    """
    sigma = sys.modes.sigma.ravel()
    _, outer, k, den, _, (a, b, d) = _secular(sys, lam)
    rows = np.arange(lam.size)
    with np.errstate(all="ignore"):
        dw = (2.0 * sigma**2 - den) / den**2
        dw[rows, k] = 0.0
        da, db, dd = np.einsum("em,rm->er", outer, dw)
        ua, ub, ud = outer[:, k]
        det, ddet = a * d - b * b, da * d + a * dd - 2.0 * b * db
        quad = ua * d - 2.0 * ub * b + ud * a
        dquad = ua * dd - 2.0 * ub * db + ud * da
        pole = den[rows, k]
        return (pole * det + lam * quad) / (
            2.0 * lam * det + pole * ddet + quad + lam * dquad)


def _at_carrier(sys: OrfdSystem, lam: np.ndarray) -> tuple:
    """`_secular` at each lam (Im >= 0) with the pole of its eigenvector's
    largest entry removed, for `_mode_eigvecs` to scale that entry to 1.

    With the nearest pole k, S0 and u = D^1/2 Psi_k, the eigenvector b and
    c = D^1/2 Psi^T b satisfy b_m = -lam q_m^T c / (lam^2 + sigma_m^2) for
    m != k, and (c, -b_k) is the null vector of the symmetric 3x3

        M = [[S0, u], [u^T, -(lam^2 + sigma_k^2) / lam]],

    whose determinant is g(lam) / lam (`_newton_steps`).  The null vector
    is the largest cross product of two rows of M: that pair leaves out
    the row of its largest entry, so it holds where b has no part on mode
    k, as when the two channels decouple (gamma = 0, or D a multiple of
    C1) and lam is a root of the other channel.  The roots whose largest
    entry is not on mode k take `_secular` again at that mode.
    """
    q, outer, k, den, w, (a, b, d) = _secular(sys, lam)
    rows = np.arange(lam.size)
    u0, u1 = q[:, k]
    with np.errstate(all="ignore"):
        M = np.array([[a, b, u0], [b, d, u1], [u0, u1, -den[rows, k] / lam]])
        # cross[l]: the product of the two rows other than l
        cross = np.stack([np.cross(M[1], M[2], axis=0), np.cross(M[2], M[0], axis=0),
                          np.cross(M[0], M[1], axis=0)])
        v = cross[(np.abs(cross)**2).sum(axis=1).argmax(axis=0), :, rows]
        size = np.abs(w * (v[:, :1] * q[0] + v[:, 1:2] * q[1]))
        size[rows, k] = np.abs(v[:, 2])
    top = size.argmax(axis=1)
    moved = np.flatnonzero(top != k)
    if moved.size:
        _, _, k[moved], den[moved], w[moved], s0 = _secular(sys, lam[moved], top[moved])
        for part, new in zip((a, b, d), s0):
            part[moved] = new
    return q, outer, k, den, w, (a, b, d)


def _mode_eigvecs(sys: OrfdSystem, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, tips): right eigenvectors of the generator in the mode
    coordinates, one row per eigenvalue in lam (Im >= 0), in closed form.

    The flow of xi = a + i b (`OrfdSystem.to_modes`) is a' = sigma b,
    b' = -sigma a - Psi D Psi^T b, so an eigenvector for lam has
    a = sigma b / lam and (lam^2 + sigma^2) b = -lam Psi D Psi^T b.  With
    k the mode of b's largest entry, S0 and u = D^1/2 Psi_k of `_secular`
    at pole k (`_at_carrier`), and c = S0^-1 u,

        b_k = 1,   b_m = -lam q_m^T c / (lam^2 + sigma_m^2)   (m != k)

    solves it wherever g(lam) = 0 (`_newton_steps`): c spans the null
    space of S(lam) = S0 + lam u u^T / (lam^2 + sigma_k^2).  No term
    divides by lam^2 + sigma_k^2, so where the damping does not reach the
    root (u = 0: both gains zero, or a root on a pole of an undamped
    channel) b is the pure mode e_k.  The tip values Psi^T b satisfy
    D^1/2 Psi^T b = c, so a tip with a gain reads c_a / sqrt(d_a) without
    the mode sum, which cancels at a nearly clamped tip; a tip without one
    reads the sum.  A 2x2 S0 that is singular or overflows makes the rows
    non-finite.
    """
    sigma = sys.modes.sigma.ravel()
    q, _, k, _, w, (a, b, d) = _at_carrier(sys, lam)
    rows = np.arange(lam.size)
    u0, u1 = q[:, k]
    d_tip = sys.tip_rates
    with np.errstate(all="ignore"):
        det = a * d - b * b
        c = np.stack([(d * u0 - b * u1) / det, (a * u1 - b * u0) / det], axis=1)
        vb = -w * np.einsum("ra,am->rm", c, q)
        vb[rows, k] = 1.0
        va = sigma * vb / lam[:, None]
        tips = np.where(d_tip > 0.0, c / np.sqrt(d_tip),
                        np.einsum("rm,am->ra", vb, sys.modes.tip.reshape(2, -1)))
    return va, vb, tips


def spectrum(sys: OrfdSystem) -> SpectrumResult:
    """All generator eigenvalues, with the dominant pairs certified.

    The eigensolve runs on the tip-first Hessenberg form (`_hessenberg`), the
    one `spectral_abscissa` and `sweep` use, so max_real equals theirs bit
    for bit.  The N_CERTIFY eigenvalues of largest real part (conjugates
    counted once) each take one Newton step on the secular function of the
    closed-form modes (`_newton_steps`), and residual_max is the largest
    |step| / r, where r = `generator_radius_estimate` <= ||A_E||_2.  A step
    that overflows leaves the result uncertified rather than raising.
    """
    lam = _eigvals(sys)
    lam = lam[np.argsort(-lam.real, kind="stable")]
    steps = _newton_steps(sys, lam[lam.imag >= 0.0][:N_CERTIFY])
    residual_max = float(np.nan_to_num(np.abs(steps), nan=np.inf).max()
                         / generator_radius_estimate(sys))
    return SpectrumResult(eigenvalues=lam, max_real=float(lam.real.max()),
                          residual_max=residual_max,
                          certified=residual_max <= RESIDUAL_RTOL)


def spectral_abscissa(sys: OrfdSystem, row_form: np.ndarray | None = None) -> float:
    """Largest real part over the eigenvalues of the energy-form generator.

    Without row_form it reduces the tip-first copy of A_E (`_hessenberg`).
    row_form is that reduction's Hessenberg part for any system with the
    same N and xi1, as `sweep` shares it along a row; the call then runs
    only the QR iteration (`_form_eigvals`).  A row_form of another mesh
    size raises DomainError.
    """
    if row_form is None:
        row_form = _hessenberg(sys.A_E)
    else:
        n = 4 * sys.n_nodes
        if np.shape(row_form) != (n, n):
            raise DomainError(f"row_form has shape {np.shape(row_form)}, expected ({n}, {n})")
    return float(_form_eigvals(row_form, sys).real.max())


def sweep(params: MaterialParams, N: int, xi1_values, xi2_values,
          threads: int | None = None) -> SpectrumGrid:
    """Spectral abscissa over the (xi1, xi2) grid.

    The gains enter A_E only as its two tip rates, and the tip-first
    Hessenberg form depends on xi2 only through H[0, 0]
    (`orfd._tip_first`).  So each row reduces the generator at (xi1, 0)
    once, and each cell builds its system (`build_system`, which checks the
    gains) and calls `spectral_abscissa` with that row form: one QR
    iteration per cell, bit for bit the abscissa the cell's own reduction
    gives.  Rows run on a pool of `threads` threads, one per CPU by
    default, in parallel because the LAPACK calls release the GIL; each
    thread holds one row form at a time.  More pool threads than cores gain
    nothing.  Each row writes its cells into the grid by index, and the
    failures are sorted afterwards, so the result is the same at every pool
    size.  A failing cell, or a row whose reduction fails, is recorded and
    left as NaN instead of killing the sweep.  A bad mesh size, or a mesh
    too large for MEMORY_BYTES (see `orfd`), fails the whole sweep with
    DomainError before any row runs.
    """
    xi1_values = np.asarray(xi1_values, dtype=float)
    xi2_values = np.asarray(xi2_values, dtype=float)
    if xi1_values.ndim != 1 or xi2_values.ndim != 1 or not xi1_values.size or not xi2_values.size:
        raise DomainError("xi1_values and xi2_values must be non-empty 1-d arrays")
    if threads is not None and threads < 1:
        raise DomainError(f"threads must be >= 1, got {threads!r}")

    grid = np.full((xi1_values.size, xi2_values.size), np.nan)
    failures: list[tuple[int, int, str]] = []

    # rejects a bad or oversized mesh before any row runs
    build_system(params, N, 0.0, 0.0).A_E

    def row(i: int) -> None:
        """Write row i's abscissas into grid and its failed cells into failures."""
        xi1 = xi1_values[i]
        try:
            form = _hessenberg(build_system(params, N, xi1, 0.0).A_E)
        except Exception as exc:  # noqa: BLE001 - every cell of the row fails with it
            failures.extend((i, j, str(exc)) for j in range(xi2_values.size))
            return
        for j, xi2 in enumerate(xi2_values):
            try:
                grid[i, j] = spectral_abscissa(build_system(params, N, xi1, xi2), form)
            except Exception as exc:  # noqa: BLE001 - cell isolation is the point
                failures.append((i, j, str(exc)))

    with ThreadPoolExecutor(max_workers=threads or os.cpu_count()) as pool:
        list(pool.map(row, range(xi1_values.size)))
    failures.sort()

    if failures:
        warnings.warn(f"{len(failures)} sweep cell(s) failed; grid holds NaN there",
                      RuntimeWarning, stacklevel=2)
    return SpectrumGrid(xi1_values=xi1_values, xi2_values=xi2_values,
                        max_real_grid=grid, failures=failures)
