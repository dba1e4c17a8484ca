"""Eigenvalue analysis of the semi-discrete generator.

The spectral abscissa max Re(mu) of the generator is the decay rate the
semi-discrete system actually delivers; sweeping it over the amplifier plane
maps where the certified design intervals sit relative to the truly optimal
gains.  Every eigensolve runs on A_E, the generator in energy coordinates
(see `piezobeam.orfd`), with dense LAPACK routines (the generator is small;
sparse iteration buys nothing here): one Hessenberg reduction (dgehrd) and
the double-shift QR iteration (dlahqr).  The reduction runs on a copy of
A_E with p_dot(L), its last coordinate, moved to the front (`_tip_first`).
The gains enter A_E only as the two tip rates on its diagonal, and dgehrd
never reads entry (0, 0), so the p-tip rate is not mixed into the
reflectors and the form at (xi1, xi2) is the form at (xi1, 0) with
H[0, 0] = -d_2: `sweep` reduces once per xi1 row.  At the reference pairs
the abscissa agrees with 40-digit oracles (tests/oracle_frozen_abscissa.py
and bench/oracle.py) to between 9.1e-12 and 4.2e-7 relative.  The dense
eigenvalues still carry an absolute error ~eps ||A_E||_2 from the entries
the reduction mixes; at stiff gains the p-tip rate sets ||A_E||_2 (~1e22
at (8.8e5, 6.8e11)) but stays out of them, and the abscissa there reads
between -1.4691162 and -1.4691157 at N = 8 to 80, against the oracle's
-1.46911574973 at N=8 (with p_dot(L) reduced last it read +45 to +653).
A large xi1 tip rate is still mixed in (ROADMAP item 2).

`spectrum` certifies its dominant eigenvalues: each gets an eigenvector by
inverse iteration on the same Hessenberg form (LAPACK dhsein, from seeded
random start vectors), and the residual |A_E x - mu x| / (|x| r) is checked
against RESIDUAL_RTOL.  r = max(||G||_2, ||D||_2) is read in closed form by
`simulate.generator_radius_estimate`; G and D are blocks of
A_E = [[0, G^T], [-G, -D]], so r <= ||A_E||_2 <= 2r, and the residual is at
least the one relative to ||A_E||_2.  The certificate shows that each mu is
an eigenvalue of a matrix within that relative distance of A_E; it cannot
show the error above, which is of the same relative size.

LAPACK is called through the C-API capsules that scipy.linalg.cython_lapack
exports (`_lapack`).  A ctypes call releases the GIL for the whole routine,
which numpy's and scipy's own wrappers hold, so the eigensolves of a sweep
run in parallel on its thread pool.  `spectrum`, `sweep` and
`spectral_abscissa` reduce with scipy's OpenBLAS held to one thread
(`orfd._one_blas_thread`), so their eigenvalues are the same at every BLAS
thread count; the QR iteration uses no threaded BLAS.
"""

from __future__ import annotations

import ctypes
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cython_lapack

from .errors import DomainError
from .materials import MaterialParams
from .orfd import OrfdSystem, _one_blas_thread, build_system
from .simulate import generator_radius_estimate

RESIDUAL_RTOL = 1e-8  # certificate threshold, relative to max(||G||_2, ||D||_2)
N_CERTIFY = 10  # dominant eigenvalues certified per spectrum, conjugates once

_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _lapack(name: str):
    """LAPACK routine `name` of scipy.linalg.cython_lapack, called through ctypes.

    Fortran takes every argument by reference.  Arrays pass their data
    pointer, bytes and ints are passed as a one-element char or int, and
    ctypes objects (outputs such as INFO) as themselves.  The capsule's name
    is the C signature, which gives the argument count.  A CFUNCTYPE call
    releases the GIL.
    """
    capsule = cython_lapack.__pyx_capi__[name]
    signature = _capsule_name(capsule)
    routine = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * (signature.count(b",") + 1))(
        _capsule_pointer(capsule, signature))

    def call(*args) -> None:
        refs = [ctypes.c_char(a) if isinstance(a, bytes)
                else ctypes.c_int(a) if isinstance(a, int) else a for a in args]
        routine(*[r.ctypes.data if isinstance(r, np.ndarray) else ctypes.addressof(r)
                  for r in refs])

    return call


_dgehrd = _lapack("dgehrd")
_dlahqr = _lapack("dlahqr")
_dhsein = _lapack("dhsein")
_dormhr = _lapack("dormhr")


def _with_workspace(call) -> None:
    """Run call(work, lwork) the LAPACK way: a query with lwork = -1, which
    leaves the optimal size in work[0], then the call with that workspace."""
    query = np.empty(1)
    call(query, -1)
    call(np.empty(int(query[0])), int(query[0]))


@dataclass(frozen=True)
class SpectrumResult:
    """Full spectrum at one amplifier pair with a residual certificate.

    eigenvalues are sorted by decreasing real part and max_real is the
    first one's, both exactly as `_eigvals` returns them.  residual_max is the
    largest |A_E x - mu x| / (|x| r) over the N_CERTIFY dominant
    eigenvalues mu (conjugates once), each x found by inverse iteration on
    the Hessenberg form of A_E, with r = `generator_radius_estimate`, the
    closed-form lower bound max(||G||_2, ||D||_2) on ||A_E||_2.  certified
    is False when that exceeds RESIDUAL_RTOL or an inverse iteration did
    not converge.
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


def _hessenberg(hq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hq = Q H Q^T by dgehrd over the whole matrix (ilo = 1, ihi = n), in place.

    hq is a square float64 array in Fortran order, which dgehrd overwrites
    with H on and above the subdiagonal and the reflectors of Q below it.
    Returns hq and the reflectors' scalars tau.  Non-finite input raises
    np.linalg.LinAlgError.
    """
    if hq.ndim != 2 or hq.shape[0] != hq.shape[1]:
        raise np.linalg.LinAlgError(f"expected a square matrix, got shape {hq.shape}")
    if hq.dtype != np.float64 or not hq.flags.f_contiguous:
        raise TypeError("dgehrd needs a float64 array in Fortran order")
    if not np.isfinite(hq).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    n = hq.shape[0]
    tau = np.empty(max(n - 1, 1))
    info = ctypes.c_int(0)

    def call(work: np.ndarray, lwork: int) -> None:
        _dgehrd(n, 1, n, hq, n, tau, work, lwork, info)
        if info.value:
            raise np.linalg.LinAlgError(f"dgehrd rejected argument {-info.value}")

    _with_workspace(call)
    return hq, tau


def _hessenberg_eigvals(h: np.ndarray) -> np.ndarray:
    """Eigenvalues wr + i*wi of the upper Hessenberg matrix h (Fortran
    order), in LAPACK order: conjugate pairs adjacent, Im > 0 first.

    dlahqr, the double-shift QR iteration, without the Schur form and
    without Schur vectors.  It overwrites h, entries below the subdiagonal
    included.  A failed iteration raises np.linalg.LinAlgError.
    """
    n = h.shape[0]
    wr, wi = np.empty(n), np.empty(n)
    info = ctypes.c_int(0)
    # WANTT = WANTZ = false: Z, ILOZ and IHIZ are not referenced
    _dlahqr(0, 0, n, 1, n, h, n, wr, wi, 1, n, np.empty(1), 1, info)
    if info.value > 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    if info.value < 0:
        raise np.linalg.LinAlgError(f"dlahqr rejected argument {-info.value}")
    lam = np.empty(n, dtype=complex)
    lam.real, lam.imag = wr, wi
    return lam


def _eigvals(A: np.ndarray) -> np.ndarray:
    """Eigenvalues of the real square matrix A, in LAPACK order.

    `_hessenberg`, then `_hessenberg_eigvals`: dgeev's path without its
    balancing, and with dlahqr in place of the multishift QR (dlaqr0) that
    dhseqr picks for n > 75, which is slower below n ~900.  Balancing
    (dgebal) would leave A_E unchanged: A_E^T = J A_E J with J = diag(I, -I)
    gives every row the norm of its column, and no row is zero off the
    diagonal (tests/test_orfd.py).  Non-finite input and a failed QR
    iteration raise np.linalg.LinAlgError.
    """
    h, _ = _hessenberg(np.array(A, dtype=float, order="F"))
    return _hessenberg_eigvals(h)


def _tip_first(A: np.ndarray) -> np.ndarray:
    """A fresh Fortran-order copy of the generator A with its last index,
    p_dot(L) (`OrfdSystem.tip_index`), cycled to the front.

    dgehrd never reads entry (0, 0): its first reflector acts on rows and
    columns 1..n-1 only.  So the Hessenberg form of the copy holds the
    p-tip rate -d_2 in H[0, 0], unmixed with the rest, and the form at
    (xi1, xi2) is the form at (xi1, 0) with H[0, 0] = -d_2.
    """
    P = np.empty(A.shape, order="F")
    P[0, 0], P[0, 1:], P[1:, 0], P[1:, 1:] = A[-1, -1], A[-1, :-1], A[:-1, -1], A[:-1, :-1]
    return P


def _right_eigenvectors(hq: np.ndarray, tau: np.ndarray, lam: np.ndarray,
                        select: np.ndarray) -> tuple[np.ndarray, bool]:
    """Right eigenvectors of A at the eigenvalues lam[select], by inverse
    iteration on the Hessenberg form A = Q H Q^T.

    hq and tau are `_hessenberg(A)`.  lam holds all eigenvalues in LAPACK
    order (conjugate pairs adjacent, Im > 0 first), and select marks one
    member of each wanted pair.  dhsein runs inverse iteration on H, O(n^2)
    per eigenvalue, from seeded random start vectors, so the vectors owe
    nothing to the eigensolver that produced lam.  dormhr applies Q to the
    computed columns only.  Returns the vectors as complex columns in the
    order of lam[select], and whether dhsein reports all converged.
    """
    n = lam.size
    # dhsein's columns: one per real eigenvalue, Re and Im for each pair
    pair = lam.imag[select] != 0.0
    start = np.concatenate([[0], np.cumsum(1 + pair)[:-1]])
    cols = int(np.sum(1 + pair))
    V = np.asfortranarray(np.random.default_rng(987654321).standard_normal((n, cols)))
    ifail = np.zeros(cols, dtype=np.int32)
    info = ctypes.c_int(0)
    # INITV = 'U': the start vectors are V's columns.  dhsein may perturb
    # close eigenvalues in its copies of wr and wi.
    _dhsein(b"R", b"N", b"U", select.astype(np.int32), n, hq, n,
            lam.real.copy(), lam.imag.copy(), np.empty(1), 1, V, n,
            cols, ctypes.c_int(0), np.empty((n + 2) * n), np.empty(1, dtype=np.int32),
            ifail, info)
    if info.value < 0:
        raise np.linalg.LinAlgError(f"dhsein rejected argument {-info.value}")
    converged = info.value == 0 and not ifail.any()

    def apply_q(work: np.ndarray, lwork: int) -> None:
        _dormhr(b"L", b"N", n, cols, 1, n, hq, n, tau, V, n, work, lwork, info)
        if info.value:
            raise np.linalg.LinAlgError(f"dormhr rejected argument {-info.value}")

    _with_workspace(apply_q)
    X = V[:, start].astype(complex)
    X.imag[:, pair] = V[:, start[pair] + 1]
    return X, converged


@_one_blas_thread()
def spectrum(sys: OrfdSystem) -> SpectrumResult:
    """All generator eigenvalues, with the dominant pairs certified.

    The eigensolve runs on the tip-first Hessenberg form (`_tip_first`), the
    one `spectral_abscissa` and `sweep` use, so max_real equals theirs bit
    for bit.  The N_CERTIFY eigenvalues mu of largest real part (conjugates
    counted once) each get a vector x by inverse iteration on that form
    (`_right_eigenvectors`), and residual_max is the largest
    |A_E x - mu x| / (|x| r), where r = `generator_radius_estimate`
    <= ||A_E||_2.  A vector that dhsein reports unconverged leaves the
    result uncertified rather than raising.  It runs under the process-wide
    `orfd._one_blas_thread` hold, so concurrent calls, and a `sweep` in
    another thread, take turns.
    """
    A = sys.A_E
    hq, tau = _hessenberg(_tip_first(A))
    lam = _hessenberg_eigvals(hq.copy(order="F"))  # dlahqr overwrites its input
    order = np.argsort(-lam.real, kind="stable")
    # the Im > 0 member of a pair comes first in LAPACK order
    select = np.zeros(lam.size, dtype=bool)
    select[order[lam.imag[order] >= 0.0][:N_CERTIFY]] = True
    X, converged = _right_eigenvectors(hq, tau, lam, select)
    X = np.roll(X, -1, axis=0)  # back from tip-first order to the order of z
    AX = A @ X.real + 1j * (A @ X.imag)  # A @ X would make a complex copy of A
    residuals = (np.linalg.norm(AX - X * lam[select], axis=0)
                 / (np.linalg.norm(X, axis=0) * generator_radius_estimate(sys)))
    residual_max = float(residuals.max())
    lam = lam[order]
    return SpectrumResult(eigenvalues=lam, max_real=float(lam.real.max()),
                          residual_max=residual_max,
                          certified=converged and residual_max <= RESIDUAL_RTOL)


def spectral_abscissa(sys: OrfdSystem, row_form: np.ndarray | None = None) -> float:
    """Largest real part over the eigenvalues of the energy-form generator.

    Without row_form it reduces the tip-first copy of A_E (`_tip_first`)
    under the `orfd._one_blas_thread` hold, so the result is the same at
    every BLAS thread count.  row_form is that reduction's Hessenberg part
    for any system with the same N and xi1, as `sweep` shares it along a
    row; the call then copies it, writes -tip_rates[1] into H[0, 0], and
    runs only the QR iteration, which takes no hold: `sweep`'s pool threads
    call it inside the sweep's.  A row_form of another mesh size raises
    DomainError.
    """
    if row_form is None:
        with _one_blas_thread():
            h, _ = _hessenberg(_tip_first(sys.A_E))
    else:
        n = 4 * sys.n_nodes
        if np.shape(row_form) != (n, n):
            raise DomainError(f"row_form has shape {np.shape(row_form)}, expected ({n}, {n})")
        h = np.array(row_form, dtype=float, order="F")
        h[0, 0] = -sys.tip_rates[1]
    return float(_hessenberg_eigvals(h).real.max())


def sweep(params: MaterialParams, N: int, xi1_values, xi2_values,
          threads: int | None = None) -> SpectrumGrid:
    """Spectral abscissa over the (xi1, xi2) grid.

    The gains enter A_E only as its two tip rates, and the tip-first
    Hessenberg form depends on xi2 only through H[0, 0] (`_tip_first`).  So
    each row reduces the generator at (xi1, 0) once, and each cell builds
    its system (`build_system`, which checks the gains) and calls
    `spectral_abscissa` with that row form: one QR iteration per cell, bit
    for bit the abscissa the cell's own reduction gives.  Rows run on a
    pool of `threads` threads, one per CPU by default, in parallel because
    the LAPACK calls release the GIL; each thread holds one row form at a
    time.  While the pool runs, scipy's OpenBLAS is held to one thread
    (`orfd._one_blas_thread`), so the rows do not oversubscribe the cores
    and each reduction is the same at every BLAS thread count.  More pool
    threads than cores gain nothing.  Cells are written back by index, so
    the result is the same at every pool size.  A failing cell, or a row
    whose reduction fails, is recorded and left as NaN instead of killing
    the sweep.  A bad mesh size, or a mesh too large for MEMORY_BYTES (see
    `orfd`), fails the whole sweep with DomainError before any row runs.
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

    def row(i: int) -> list:
        """Row i's abscissas; a cell that failed holds its exception."""
        xi1 = xi1_values[i]
        try:
            form, _ = _hessenberg(_tip_first(build_system(params, N, xi1, 0.0).A_E))
        except Exception as exc:  # noqa: BLE001 - every cell of the row fails with it
            return [exc] * xi2_values.size
        cells = []
        for xi2 in xi2_values:
            try:
                cells.append(spectral_abscissa(build_system(params, N, xi1, xi2), form))
            except Exception as exc:  # noqa: BLE001 - cell isolation is the point
                cells.append(exc)
        return cells

    with _one_blas_thread(), ThreadPoolExecutor(max_workers=threads or os.cpu_count()) as pool:
        rows = list(pool.map(row, range(xi1_values.size)))
    for i, cells in enumerate(rows):
        for j, got in enumerate(cells):
            if isinstance(got, Exception):
                failures.append((i, j, str(got)))
            else:
                grid[i, j] = got

    if failures:
        warnings.warn(f"{len(failures)} sweep cell(s) failed; grid holds NaN there",
                      RuntimeWarning, stacklevel=2)
    return SpectrumGrid(xi1_values=xi1_values, xi2_values=xi2_values,
                        max_real_grid=grid, failures=failures)
