"""Generator spectra, residual certificates, amplifier-plane sweeps."""
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from piezobeam import spectral
from piezobeam.errors import DomainError
from piezobeam.orfd import build_system
from piezobeam.spectral import (
    RESIDUAL_RTOL,
    _eigvals,
    spectral_abscissa,
    spectrum,
    sweep,
)

# 40-digit mpmath abscissas printed by tests/oracle_frozen_abscissa.py (an
# independent assembly of the nodal generator); the acceptance run re-checks
# the loose published targets, these pin regressions much tighter
FROZEN_ABSCISSA = {
    (80, 1e6, 1e6): -177.00658176750401751,
    (40, 1e6, 1e9): -177.20483119635712526,
    (80, 1e6, 1e9): -177.15768927379530208,
}


def test_spectrum_is_conjugate_closed(toy):
    sys = build_system(toy, 6, 0.5, 0.7)
    lam = spectrum(sys, certify=False).eigenvalues
    np.testing.assert_array_equal(np.sort_complex(lam),
                                  np.sort_complex(lam.conj()))


def test_spectrum_count_and_ordering(toy):
    sys = build_system(toy, 6, 0.5, 0.7)
    res = spectrum(sys, certify=False)
    assert res.eigenvalues.shape == (4 * 7,)
    assert np.all(np.diff(res.eigenvalues.real) <= 0.0)
    assert res.max_real == res.eigenvalues[0].real


def test_undamped_spectrum_sits_on_imaginary_axis(table1):
    sys = build_system(table1, 40, 0.0, 0.0)
    lam = spectrum(sys, certify=False).eigenvalues
    assert lam.real.max() <= 1e-8 * np.abs(lam).max()
    assert lam.real.min() >= -1e-8 * np.abs(lam).max()


def test_damping_moves_the_spectrum_left(toy):
    undamped = spectral_abscissa(build_system(toy, 8, 0.0, 0.0))
    damped = spectral_abscissa(build_system(toy, 8, 0.5, 0.7))
    assert abs(undamped) <= 1e-10
    assert damped < -1e-3


@pytest.mark.parametrize("key", sorted(FROZEN_ABSCISSA))
def test_frozen_abscissas(table1, key):
    N, xi1, xi2 = key
    got = spectral_abscissa(build_system(table1, N, xi1, xi2))
    np.testing.assert_allclose(got, FROZEN_ABSCISSA[key], rtol=1e-7)


def test_abscissa_is_stable_under_mesh_refinement(table1):
    # ORFD keeps the discrete decay rate uniform in h: the oracle abscissas
    # at N=40 and N=80 differ by 2.7e-4 relative
    a40 = spectral_abscissa(build_system(table1, 40, 1e6, 1e9))
    a80 = spectral_abscissa(build_system(table1, 80, 1e6, 1e9))
    assert abs(a40 - a80) <= 1e-3 * abs(a80)


def test_frozen_abscissas_do_not_depend_on_blas_threads():
    code = (
        "import json\n"
        "from piezobeam import TABLE1\n"
        "from piezobeam.orfd import build_system\n"
        "from piezobeam.spectral import spectral_abscissa\n"
        f"keys = {sorted(FROZEN_ABSCISSA)!r}\n"
        "print(json.dumps([spectral_abscissa(build_system(TABLE1, *k)) for k in keys]))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=300)
        runs.append(json.loads(out.stdout))
    np.testing.assert_allclose(runs[0], runs[1], rtol=1e-7)


def test_certificate_reaches_threshold(table1):
    sys = build_system(table1, 24, 1e6, 1e9)
    res = spectrum(sys, certify=True)
    assert res.certified
    assert 0.0 < res.residual_max <= RESIDUAL_RTOL


def test_certify_off_skips_residuals(toy):
    sys = build_system(toy, 6, 0.5, 0.7)
    res = spectrum(sys, certify=False)
    assert not res.certified
    assert np.isnan(res.residual_max)
    with_cert = spectrum(sys, certify=True)
    np.testing.assert_array_equal(res.eigenvalues, with_cert.eigenvalues)
    assert with_cert.certified


def test_abscissa_matches_full_spectrum(toy):
    sys = build_system(toy, 7, 0.3, 0.2)
    np.testing.assert_allclose(spectral_abscissa(sys),
                               spectrum(sys, certify=False).max_real,
                               rtol=1e-12)


# ---------------------------------------------------------------- eigensolve

@pytest.mark.parametrize("material, N", [("toy", 6), ("table1", 16)])
@pytest.mark.parametrize("gains", [(0.0, 0.0), (1e6, 1e9), (0.5, 0.7),
                                   (1e-8, 1e-8), (1e12, 1e12), (1e-8, 1e12)])
def test_eigvals_agrees_with_numpy(request, material, N, gains):
    A = build_system(request.getfixturevalue(material), N, *gains).A_E
    got, want = _eigvals(A), np.linalg.eigvals(A)
    assert got.shape == want.shape
    # every eigenvalue of each set has its counterpart in the other; at
    # these sizes the two LAPACK builds agree to the last bit
    for a, b in ((got, want), (want, got)):
        nearest = np.abs(a[:, None] - b[None, :]).min(axis=1)
        assert np.all(nearest <= 1e-12 * np.abs(a))


def test_eigensolves_leave_the_generator_untouched(toy, monkeypatch):
    # dgeev overwrites its input: a view of A_E passed to it would corrupt
    # the cached generator, and in a sweep every later cell with it
    sys = build_system(toy, 6, 0.5, 0.7)
    before = sys.A_E.copy()
    spectrum(sys)
    spectral_abscissa(sys)
    np.testing.assert_array_equal(sys.A_E, before)

    built = []

    def capture(*args):
        built.append(build_system(*args))
        return built[-1]

    monkeypatch.setattr(spectral, "build_system", capture)
    sweep(toy, 6, [0.1, 1.0], [0.2, 2.0])
    (base,) = built
    np.testing.assert_array_equal(base.A_E, build_system(toy, 6, 0.0, 0.0).A_E)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eigvals_rejects_non_finite_input(bad):
    A = np.eye(4)
    A[1, 2] = bad
    with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
        _eigvals(A)


def test_eigvals_releases_the_gil():
    # A pure-Python counter gets ~0% of its solo rate while a call holds the
    # GIL and about half even when both threads share one core.
    A = np.random.default_rng(0).standard_normal((500, 500))

    def counter_rate(work) -> float:
        count, stop = [0], threading.Event()

        def spin():
            while not stop.is_set():
                count[0] += 1

        thread = threading.Thread(target=spin)
        thread.start()
        start = time.perf_counter()
        try:
            work()
        finally:
            elapsed = time.perf_counter() - start
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        return count[0] / elapsed

    solo = counter_rate(lambda: time.sleep(0.2))
    during = counter_rate(lambda: _eigvals(A))
    assert during >= 0.25 * solo


# --------------------------------------------------------------------- sweep

def test_sweep_matches_pointwise_solves(toy):
    xi1s, xi2s = [0.0, 0.1, 1.0, 10.0], [0.2, 2.0, 1e12]
    grid = sweep(toy, 6, xi1s, xi2s)
    assert grid.max_real_grid.shape == (4, 3)
    assert not grid.failures
    for i, x1 in enumerate(xi1s):
        for j, x2 in enumerate(xi2s):
            direct = spectral_abscissa(build_system(toy, 6, x1, x2))
            assert grid.max_real_grid[i, j] == direct


def test_sweep_is_deterministic_across_runs_and_threads(toy):
    xi1s, xi2s = np.logspace(-2, 2, 5), np.logspace(-1, 1, 5)
    a = sweep(toy, 6, xi1s, xi2s, threads=1)
    # pool threads share the base system; switch between them as often as
    # possible, with more threads than cores
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (2, 4, 4, None):
            np.testing.assert_array_equal(
                sweep(toy, 6, xi1s, xi2s, threads=threads).max_real_grid, a.max_real_grid)
    finally:
        sys.setswitchinterval(interval)


def test_sweep_isolates_failing_cells(toy):
    # a non-finite amplifier poisons exactly its own row: those cells go NaN
    # and are reported, the rest of the grid is still computed
    xi1s, xi2s = [0.5, np.nan], [0.1, 1.0, 10.0]
    with pytest.warns(RuntimeWarning, match="sweep cell"):
        grid = sweep(toy, 6, xi1s, xi2s)
    assert np.all(np.isfinite(grid.max_real_grid[0]))
    assert np.all(np.isnan(grid.max_real_grid[1]))
    assert sorted((i, j) for i, j, _ in grid.failures) == [(1, 0), (1, 1), (1, 2)]


@pytest.mark.parametrize("bad", [
    dict(xi1_values=[], xi2_values=[1.0]),
    dict(xi1_values=[1.0], xi2_values=[]),
    dict(xi1_values=[[1.0]], xi2_values=[1.0]),
])
def test_sweep_rejects_bad_axes(toy, bad):
    with pytest.raises(DomainError):
        sweep(toy, 6, **bad)


def test_sweep_rejects_bad_mesh_size(toy):
    # the mesh is shared by every cell, so it fails the sweep, not each cell
    with pytest.raises(DomainError, match="N must be"):
        sweep(toy, 1, [1.0], [1.0])


def test_sweep_rejects_bad_thread_count(toy):
    with pytest.raises(DomainError, match="threads"):
        sweep(toy, 6, [1.0], [1.0], threads=0)
