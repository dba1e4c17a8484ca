"""Eigenvalue analysis of the semi-discrete generator.

The spectral abscissa max Re(mu) of the generator is the decay rate the
semi-discrete system actually delivers; sweeping it over the amplifier plane
maps where the certified design intervals sit relative to the truly optimal
gains.  Every eigensolve runs on A_E, the generator in energy coordinates
(see `piezobeam.orfd`), whose eigenvectors have condition ~2, so the
abscissa does not depend on the BLAS thread count.  It matches a 40-digit
oracle (tests/oracle_frozen_abscissa.py) to 1e-8 relative at the reference
pairs, at 1 and at 2 BLAS threads.  Dense LAPACK eigensolves throughout (the
generator is small; sparse iteration buys nothing here).  Single-point calls certify the dominant eigenvalues with an
independent inverse-iteration residual relative to ||A_E||_2.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .materials import MaterialParams
from .orfd import OrfdSystem, build_system

RESIDUAL_RTOL = 1e-8  # certificate threshold, relative to ||A||_2


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
    lam = np.linalg.eigvals(sys.A_E)
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
    return float(np.linalg.eigvals(sys.A_E).real.max())


def sweep(params: MaterialParams, N: int, xi1_values, xi2_values,
          threads: int | None = None) -> SpectrumGrid:
    """Spectral abscissa over the (xi1, xi2) grid.

    Cells are independent eigensolves run on a thread pool (LAPACK releases
    the GIL) and written back by index, so the result is deterministic for
    fixed inputs regardless of thread count.  A failing cell is recorded and
    left as NaN instead of killing the sweep.
    """
    xi1_values = np.asarray(xi1_values, dtype=float)
    xi2_values = np.asarray(xi2_values, dtype=float)
    if xi1_values.ndim != 1 or xi2_values.ndim != 1 or not xi1_values.size or not xi2_values.size:
        raise DomainError("xi1_values and xi2_values must be non-empty 1-d arrays")
    if threads is not None and threads < 1:
        raise DomainError(f"threads must be >= 1, got {threads!r}")

    grid = np.full((xi1_values.size, xi2_values.size), np.nan)
    failures: list[tuple[int, int, str]] = []

    def cell(idx: tuple[int, int]):
        i, j = idx
        sys_ij = build_system(params, N, xi1_values[i], xi2_values[j])
        return spectral_abscissa(sys_ij)

    indices = [(i, j) for i in range(xi1_values.size) for j in range(xi2_values.size)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
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
