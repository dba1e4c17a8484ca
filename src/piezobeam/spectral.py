"""Eigenvalue analysis of the semi-discrete generator.

The spectral abscissa max Re(mu) of the generator is the decay rate the
semi-discrete system actually delivers; sweeping it over the amplifier plane
maps where the certified design intervals sit relative to the truly optimal
gains.  Every eigensolve runs on A_E, the generator in energy coordinates
(see `piezobeam.orfd`), whose eigenvectors have condition ~2, so the
abscissa does not depend on the BLAS thread count.  It matches a 40-digit
oracle (tests/oracle_frozen_abscissa.py) to 1e-8 relative at the reference
pairs, at 1 and at 2 BLAS threads.  Dense LAPACK eigensolves throughout (the
generator is small; sparse iteration buys nothing here).  Single-point calls
certify the dominant eigenvalues with an independent inverse-iteration
residual relative to ||A_E||_2.

The eigensolve is LAPACK dgeev, the routine numpy's `eigvals` runs, called
through the C-API capsule that scipy.linalg.cython_lapack exports.  A ctypes
call releases the GIL for the whole dgeev, which numpy's and scipy's own
wrappers hold, so the cells of a sweep run in parallel on its thread pool.
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
from .orfd import OrfdSystem, build_system

RESIDUAL_RTOL = 1e-8  # certificate threshold, relative to ||A||_2

_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))
_dgeev_capsule = cython_lapack.__pyx_capi__["dgeev"]
# dgeev(jobvl, jobvr, n, a, lda, wr, wi, vl, ldvl, vr, ldvr, work, lwork, info),
# every argument by reference.  A CFUNCTYPE call releases the GIL.
_dgeev = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 14)(
    _capsule_pointer(_dgeev_capsule, _capsule_name(_dgeev_capsule)))


@dataclass(frozen=True)
class SpectrumResult:
    """Full spectrum at one amplifier pair with a residual certificate.

    residual_max is the largest inverse-iteration residual |A x - mu x| over
    the certified pairs, relative to ||A||_2; certified is False when the
    refinement failed to reach the threshold (partial result).
    """

    eigenvalues: np.ndarray
    max_real: float
    residual_max: float
    certified: bool = True


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


def _eigvals(A: np.ndarray) -> np.ndarray:
    """Eigenvalues wr + i*wi of the real square matrix A, in LAPACK order.

    dgeev without eigenvectors and with the optimal workspace, as numpy's
    `eigvals` calls it, but with the GIL released.  Non-finite input and a
    failed QR iteration raise np.linalg.LinAlgError.
    """
    a = np.array(A, dtype=float, order="F")  # dgeev overwrites its input
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise np.linalg.LinAlgError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    n = a.shape[0]
    wr, wi = np.empty(n), np.empty(n)
    unused = np.empty(1)  # vl and vr: not referenced without eigenvectors
    job, size, one = ctypes.c_char(b"N"), ctypes.c_int(n), ctypes.c_int(1)
    lwork, info = ctypes.c_int(-1), ctypes.c_int(0)

    def call(work: np.ndarray) -> None:
        ref = ctypes.byref
        _dgeev(ref(job), ref(job), ref(size), a.ctypes.data, ref(size),
               wr.ctypes.data, wi.ctypes.data, unused.ctypes.data, ref(one),
               unused.ctypes.data, ref(one), work.ctypes.data, ref(lwork), ref(info))
        if info.value > 0:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        if info.value < 0:
            raise np.linalg.LinAlgError(f"dgeev rejected argument {-info.value}")

    query = np.empty(1)
    call(query)  # lwork = -1: the optimal workspace size lands in query[0]
    lwork.value = int(query[0])
    call(np.empty(lwork.value))
    lam = np.empty(n, dtype=complex)
    lam.real, lam.imag = wr, wi
    return lam


def _inverse_iteration_residual(A: np.ndarray, mu: complex, norm_A: float,
                                rng: np.random.Generator, iters: int = 4) -> float:
    """Best relative residual of an eigenpair rebuilt at mu by inverse iteration.

    Independent of the vectors the eigensolver produced: starts from a random
    vector and only uses shifted solves.
    """
    n = A.shape[0]
    I = np.eye(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x /= np.linalg.norm(x)
    shift = mu
    best = np.inf
    for _ in range(iters):
        try:
            y = np.linalg.solve(A - shift * I, x)
        except np.linalg.LinAlgError:
            # exactly singular shift: nudge off the eigenvalue by one part in 1e13
            shift = mu * (1.0 + 1e-13) + 1e-13 * norm_A
            continue
        x = y / np.linalg.norm(y)
        best = min(best, np.linalg.norm(A @ x - mu * x) / norm_A)
        if best <= RESIDUAL_RTOL:
            break
    return float(best)


def spectrum(sys: OrfdSystem, certify: bool = True, n_certify: int = 10) -> SpectrumResult:
    """All generator eigenvalues, optionally certifying the dominant pairs.

    Certification reruns the n_certify eigenvalues of largest real part
    (conjugates counted once) through inverse iteration and reports the worst
    residual; non-convergence is flagged rather than raised.
    """
    lam = _eigvals(sys.A_E)
    order = np.argsort(-lam.real, kind="stable")
    lam = lam[order]
    max_real = float(lam.real.max())

    if not certify:
        return SpectrumResult(eigenvalues=lam, max_real=max_real,
                              residual_max=np.nan, certified=False)

    norm_A = float(np.linalg.norm(sys.A_E, 2))
    rng = np.random.default_rng(987654321)
    picked = []
    for mu in lam:
        if mu.imag < 0.0 and any(np.isclose(mu.conjugate(), p) for p in picked):
            continue
        picked.append(mu)
        if len(picked) == n_certify:
            break
    residual_max = 0.0
    for mu in picked:
        residual_max = max(residual_max,
                           _inverse_iteration_residual(sys.A_E, mu, norm_A, rng))
    return SpectrumResult(eigenvalues=lam, max_real=max_real,
                          residual_max=residual_max,
                          certified=residual_max <= RESIDUAL_RTOL)


def spectral_abscissa(sys: OrfdSystem) -> float:
    """Largest real part over the eigenvalues of the energy-form generator."""
    return float(_eigvals(sys.A_E).real.max())


def sweep(params: MaterialParams, N: int, xi1_values, xi2_values,
          threads: int | None = None) -> SpectrumGrid:
    """Spectral abscissa over the (xi1, xi2) grid.

    The gain-independent blocks are assembled once; each cell copies them
    with its own damping block (`OrfdSystem.with_gains`) and eigensolves the
    copy.  Cells run on a pool of `threads` threads, one per CPU by default,
    in parallel because the eigensolve releases the GIL.  More threads than
    cores gain nothing and, where BLAS is itself threaded, oversubscribe the
    cores.  Cells are written back by index, so the result is the same at
    every thread count.  A failing cell is recorded and left as NaN instead
    of killing the sweep.
    """
    xi1_values = np.asarray(xi1_values, dtype=float)
    xi2_values = np.asarray(xi2_values, dtype=float)
    if xi1_values.ndim != 1 or xi2_values.ndim != 1 or not xi1_values.size or not xi2_values.size:
        raise DomainError("xi1_values and xi2_values must be non-empty 1-d arrays")
    if threads is not None and threads < 1:
        raise DomainError(f"threads must be >= 1, got {threads!r}")

    grid = np.full((xi1_values.size, xi2_values.size), np.nan)
    failures: list[tuple[int, int, str]] = []

    base = build_system(params, N, 0.0, 0.0)
    base.A_E  # fill the shared caches before the pool threads read them

    def cell(idx: tuple[int, int]):
        i, j = idx
        return spectral_abscissa(base.with_gains(xi1_values[i], xi2_values[j]))

    indices = [(i, j) for i in range(xi1_values.size) for j in range(xi2_values.size)]
    with ThreadPoolExecutor(max_workers=threads or os.cpu_count()) as pool:
        futures = {idx: pool.submit(cell, idx) for idx in indices}
        for (i, j), fut in futures.items():
            try:
                grid[i, j] = fut.result()
            except Exception as exc:  # noqa: BLE001 - cell isolation is the point
                failures.append((i, j, str(exc)))

    if failures:
        warnings.warn(f"{len(failures)} sweep cell(s) failed; grid holds NaN there",
                      RuntimeWarning, stacklevel=2)
    return SpectrumGrid(xi1_values=xi1_values, xi2_values=xi2_values,
                        max_real_grid=grid, failures=failures)
