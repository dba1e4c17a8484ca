"""Generator spectra, Newton-step certificates, amplifier-plane sweeps."""
import sys
import threading
import time

import numpy as np
import pytest

from piezobeam import _lapack, orfd, spectral
from piezobeam.errors import DomainError
from piezobeam.orfd import _tip_first, build_system
from piezobeam.simulate import generator_radius_estimate
from piezobeam.spectral import (
    RESIDUAL_RTOL,
    _hessenberg,
    _hessenberg_eigvals,
    spectral_abscissa,
    spectrum,
    sweep,
)

from conftest import BLAS_THREADS, run_under_blas_threads

# 40-digit mpmath abscissas printed by tests/oracle_frozen_abscissa.py (an
# independent assembly of the nodal generator); the acceptance run re-checks
# the loose published targets, these pin regressions much tighter
FROZEN_ABSCISSA = {
    (80, 1e6, 1e6): -177.00658176750401751,
    (40, 1e6, 1e9): -177.20483119635712526,
    (80, 1e6, 1e9): -177.15768927379530208,
}

# The same oracle at stiff pairs, where a tip rate (~1e22 at the first) sets
# ||A_E||_2, with the tolerance each is held to: the tip-first eigensolve
# read -1.4691157564 (4.6e-9 relative) and -9.9903e-4 (3.5e-5 relative)
STIFF_ABSCISSA = {
    (8, 8.8e5, 6.8e11): (-1.4691157497338142419, 1e-8),
    (8, 1e12, 1e12): (-9.9899900000399283447e-4, 1e-4),
}


def test_spectrum_is_conjugate_closed(toy):
    sys = build_system(toy, 6, 0.5, 0.7)
    lam = spectrum(sys).eigenvalues
    np.testing.assert_array_equal(np.sort_complex(lam),
                                  np.sort_complex(lam.conj()))


def test_spectrum_count_and_ordering(toy):
    sys = build_system(toy, 6, 0.5, 0.7)
    res = spectrum(sys)
    assert res.eigenvalues.shape == (4 * 7,)
    assert np.all(np.diff(res.eigenvalues.real) <= 0.0)
    assert res.max_real == res.eigenvalues[0].real


def test_undamped_spectrum_sits_on_imaginary_axis(table1):
    sys = build_system(table1, 40, 0.0, 0.0)
    lam = spectrum(sys).eigenvalues
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


@pytest.mark.parametrize("key", sorted(STIFF_ABSCISSA))
def test_stiff_abscissas_match_the_oracle(table1, key):
    # with p_dot(L) first, the p-tip rate sits in H[0, 0], which the
    # Hessenberg reduction never mixes into the other entries
    want, rtol = STIFF_ABSCISSA[key]
    np.testing.assert_allclose(spectral_abscissa(build_system(table1, *key)), want, rtol=rtol)


def test_stiff_spectrum_is_stable_and_certified(table1):
    # A_E + A_E^T <= 0 rules out a positive abscissa.  With p_dot(L) reduced
    # last, the p-tip rate mixed into the reflectors gives +189.3 here, and
    # a residual certificate on A_E itself passed it
    res = spectrum(build_system(table1, 80, 8.8e5, 6.8e11))
    assert res.max_real < 0.0
    assert res.certified


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
        f"keys = {sorted(FROZEN_ABSCISSA) + [(80, 8.8e5, 6.8e11)]!r}\n"
        "print(json.dumps([spectral_abscissa(build_system(TABLE1, *k)) for k in keys]))\n"
    )
    # without the BLAS hold in _hessenberg the blocked reduction's gemm
    # updates move the stiff key from -1.4691162289447974 at one OpenBLAS
    # thread to -1.4691160777055545 at two
    one, two = run_under_blas_threads(code)
    assert one == two


def test_spectrum_does_not_depend_on_blas_threads():
    # at this stiff pair, N=80, the blocked Hessenberg reduction's gemm
    # updates move the eigenvalues with the OpenBLAS thread count unless
    # the reduction holds BLAS to one thread
    code = (
        "import json\n"
        "from piezobeam import TABLE1\n"
        "from piezobeam.orfd import build_system\n"
        "from piezobeam.spectral import spectrum\n"
        "res = spectrum(build_system(TABLE1, 80, 8.8e5, 6.8e11))\n"
        "print(json.dumps([res.max_real, res.eigenvalues.real.tolist(),\n"
        "                  res.eigenvalues.imag.tolist()]))\n"
    )
    one, two = run_under_blas_threads(code)
    assert one == two


def test_certificate_reaches_threshold(table1):
    sys = build_system(table1, 24, 1e6, 1e9)
    res = spectrum(sys)
    assert res.certified
    assert 0.0 < res.residual_max <= RESIDUAL_RTOL


def test_certificate_rejects_an_eigenvalue_off_the_spectrum(table1, monkeypatch):
    # the certificate is not vacuous: moving the dominant eigenvalue (and
    # its conjugate) by 1e-6 ||A_E||_2 must fail the residual threshold
    sys = build_system(table1, 24, 1e6, 1e9)
    shift = 1e-6 * np.linalg.norm(sys.A_E, 2)
    real_eigvals = spectral._hessenberg_eigvals

    def moved(h):
        lam = real_eigvals(h)
        k = int(np.argmax(lam.real))
        lam[k] += shift
        if lam[k].imag != 0.0:  # keep the pair conjugate: LAPACK stores it adjacent
            lam[k + (1 if lam[k].imag > 0 else -1)] += shift
        return lam

    monkeypatch.setattr(spectral, "_hessenberg_eigvals", moved)
    res = spectrum(sys)
    assert not res.certified
    assert res.residual_max > RESIDUAL_RTOL


def test_a_non_finite_newton_step_is_reported_not_raised(table1):
    # a v-tip rate of 5.4e278 overflows the secular function's determinant;
    # the dense eigensolve still runs, and the result is uncertified
    res = spectrum(build_system(table1, 8, 1e280, 1e6))
    assert np.all(np.isfinite(res.eigenvalues))
    assert res.residual_max == np.inf
    assert not res.certified


@pytest.mark.parametrize("key, rtol", [(key, 1e-14) for key in sorted(FROZEN_ABSCISSA)]
                         + [((8, 8.8e5, 6.8e11), 1e-14), ((8, 1e12, 1e12), 1e-11)])
def test_newton_step_lands_on_the_oracle(table1, key, rtol):
    # the certificate's step is the dominant eigenvalue's error: one step
    # takes the dense abscissa, 4.6e-9 to 3.6e-5 from the 40-digit oracle,
    # to within 1e-15 of it, and to 1.3e-12 at (8, 1e12, 1e12)
    want = {**FROZEN_ABSCISSA, **{k: v for k, (v, _) in STIFF_ABSCISSA.items()}}[key]
    sys = build_system(table1, *key)
    lam = spectrum(sys).eigenvalues
    lam = lam[lam.imag >= 0.0][:1]
    np.testing.assert_allclose((lam - spectral._newton_steps(sys, lam)).real, want,
                               rtol=rtol, atol=0)


@pytest.mark.parametrize("info, message", [(3, "Eigenvalues did not converge"),
                                           (-7, "dlahqr rejected argument 7")])
def test_a_failed_qr_iteration_raises(table1, monkeypatch, info, message):
    # dlahqr reports an eigenvalue it could not converge through INFO > 0,
    # a bad argument through INFO < 0: spectral_abscissa and spectrum raise,
    # and a sweep leaves the cell NaN and lists it.  INFO is the last
    # argument, passed by reference.
    real_dlahqr = spectral._dlahqr.fn

    def failing(*args):
        real_dlahqr(*args)
        args[-1]._obj.value = info

    monkeypatch.setattr(spectral._dlahqr, "fn", failing)
    sys = build_system(table1, 8, 1e6, 1e9)
    for solve in (spectral_abscissa, spectrum):
        with pytest.raises(np.linalg.LinAlgError, match=message):
            solve(sys)
    with pytest.warns(RuntimeWarning, match="sweep cell"):
        grid = sweep(table1, 8, [1e6], [1e9, 1e10])
    assert np.all(np.isnan(grid.max_real_grid))
    assert sorted(grid.failures) == [(0, 0, message), (0, 1, message)]


@pytest.mark.parametrize("N, gains", [(16, (0.0, 0.0)), (16, (0.5, 0.7)), (16, (1e6, 1e9)),
                                      (16, (1e12, 1e12)), (80, (8.8e5, 6.8e11))])
def test_radius_estimate_brackets_the_generator_norm(table1, N, gains):
    # the certificate's denominator max(||G||_2, ||D||_2): G and D are blocks
    # of A_E = [[0, G^T], [-G, -D]], so it is at most ||A_E||_2, and
    # ||A_E||_2 <= ||G||_2 + ||D||_2 is at most twice it
    sys = build_system(table1, N, *gains)
    r, norm = generator_radius_estimate(sys), np.linalg.norm(sys.A_E, 2)
    assert r <= norm * (1.0 + 1e-13)
    assert norm <= 2.0 * r


@pytest.mark.parametrize("N", [16, 80])
def test_spectrum_reports_the_eigensolve_bit_for_bit(table1, N):
    sys = build_system(table1, N, 1e6, 1e9)
    lam = _hessenberg_eigvals(_hessenberg(sys.A_E))
    abscissa = spectral_abscissa(sys)
    res = spectrum(sys)
    np.testing.assert_array_equal(res.eigenvalues,
                                  lam[np.argsort(-lam.real, kind="stable")])
    assert res.max_real == abscissa


def test_spectrum_refuses_a_generator_over_the_memory_budget(toy, monkeypatch):
    monkeypatch.setattr(orfd, "MEMORY_BYTES", 2**20)
    with pytest.raises(DomainError, match="generator at N=40 needs about"):
        spectrum(build_system(toy, 40, 0.5, 0.7))


def test_abscissa_matches_full_spectrum(toy):
    sys = build_system(toy, 7, 0.3, 0.2)
    np.testing.assert_allclose(spectral_abscissa(sys),
                               spectrum(sys).max_real,
                               rtol=1e-12)


# ---------------------------------------------------------------- eigensolve

@pytest.mark.parametrize("material, N", [("toy", 6), ("table1", 16)])
@pytest.mark.parametrize("gains", [(0.0, 0.0), (1e6, 1e9), (0.5, 0.7),
                                   (1e-8, 1e-8), (1e12, 1e12), (1e-8, 1e12)])
def test_eigvals_agrees_with_numpy(request, material, N, gains):
    A = build_system(request.getfixturevalue(material), N, *gains).A_E
    got, want = _hessenberg_eigvals(_hessenberg(A)), np.linalg.eigvals(_tip_first(A))
    assert got.shape == want.shape
    # every eigenvalue of each set has its counterpart in the other, to
    # 1e-12 relative, although numpy balances and this path does not
    for a, b in ((got, want), (want, got)):
        nearest = np.abs(a[:, None] - b[None, :]).min(axis=1)
        assert np.all(nearest <= 1e-12 * np.abs(a))


def test_eigensolves_leave_the_generator_untouched(toy, monkeypatch):
    # dgehrd overwrites its input: a view of A_E passed to it would corrupt
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
    # the up-front mesh check, one system per row at xi2 = 0 and four cells;
    # only the first three form A_E, the cells read their tip rates
    assert len(built) == 7
    assert sum("A_E" in got.__dict__ for got in built) == 3
    for got in built:
        np.testing.assert_array_equal(got.A_E, build_system(toy, 6, got.xi1, got.xi2).A_E)


@pytest.mark.parametrize("N", [8, 80])
def test_tip_first_form_depends_on_xi2_only_in_its_corner(table1, N):
    # what sweep shares along a row: dgehrd never reads entry (0, 0) of the
    # tip-first matrix, so the form at (xi1, xi2) is the one at (xi1, 0)
    # with H[0, 0] = -tip_rates[1].  At N=80, 4(N+1) = 324 takes dgehrd's
    # blocked path.
    stiff = build_system(table1, N, 8.8e5, 6.8e11)
    hq = _hessenberg(stiff.A_E)
    hq0 = _hessenberg(build_system(table1, N, 8.8e5, 0.0).A_E)
    assert hq[0, 0] == -stiff.tip_rates[1]
    hq[0, 0] = hq0[0, 0]
    np.testing.assert_array_equal(hq, hq0)


def test_sweep_reduces_once_per_row(toy, monkeypatch):
    reduced = []
    real_hessenberg = spectral._hessenberg

    def counting(hq):
        reduced.append(hq.shape)
        return real_hessenberg(hq)

    monkeypatch.setattr(spectral, "_hessenberg", counting)
    grid = sweep(toy, 6, [0.0, 0.1, 1.0, 10.0], [0.2, 2.0, 1e12])
    assert np.all(np.isfinite(grid.max_real_grid))
    assert len(reduced) == 4


def test_spectral_abscissa_rejects_a_row_form_of_another_mesh(toy):
    form = _hessenberg(build_system(toy, 6, 0.5, 0.0).A_E)
    with pytest.raises(DomainError, match=r"row_form has shape \(28, 28\), expected \(36, 36\)"):
        spectral_abscissa(build_system(toy, 8, 0.5, 0.7), form)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eigvals_rejects_non_finite_input(bad):
    A = np.eye(4)
    A[1, 2] = bad
    with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
        _hessenberg_eigvals(_hessenberg(A))


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
    during = counter_rate(lambda: _hessenberg_eigvals(_hessenberg(A)))
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
    # pool threads share the mesh factor; switch between them as often as
    # possible, with more threads than cores
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (2, 4, 4, None):
            np.testing.assert_array_equal(
                sweep(toy, 6, xi1s, xi2s, threads=threads).max_real_grid, a.max_real_grid)
    finally:
        sys.setswitchinterval(interval)


def test_sweep_pins_blas_to_one_thread_and_restores_it():
    # a stiff N=40 grid whose eigenvalues move with the OpenBLAS thread
    # count, through the blocked gemm updates of the Hessenberg reduction.
    # Three sweeps run at once, in threads that share the process-wide
    # count; each reduction holds BLAS at one thread, so every grid of both
    # runs agrees bit for bit, and the count is restored afterwards.
    code = (
        "import json, threading\n"
        "import numpy as np\n"
        "from piezobeam import TABLE1\n"
        "from piezobeam._lapack import thread_count\n"
        "from piezobeam.spectral import sweep\n"
        "get, _ = thread_count()\n"
        "before = get()\n"
        "axis = np.logspace(-8, 12, 5)\n"
        "grids = [None] * 3\n"
        "def run(k):\n"
        "    grids[k] = sweep(TABLE1, 40, axis, axis).max_real_grid.tolist()\n"
        "threads = [threading.Thread(target=run, args=(k,)) for k in range(3)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join(timeout=120)\n"
        "assert not any(t.is_alive() for t in threads)\n"
        "print(json.dumps({'grids': grids, 'before': before,\n"
        "                  'after': get()}))\n"
    )
    grids = []
    for threads, run in zip(BLAS_THREADS, run_under_blas_threads(code)):
        assert run["before"] == run["after"] == int(threads)
        grids += run["grids"]
    assert all(grid == grids[0] for grid in grids)


def test_without_a_bundled_openblas_the_hold_changes_nothing(table1, monkeypatch):
    # a numpy built on another BLAS exports no OpenBLAS thread-count
    # functions: the hold then only runs its body, and the spectrum is the same
    held = spectrum(build_system(table1, 16, 1e6, 1e9))
    monkeypatch.setattr(_lapack, "thread_count", lambda: None)
    ran = False
    with _lapack.one_blas_thread():
        ran = True
    assert ran
    free = spectrum(build_system(table1, 16, 1e6, 1e9))
    np.testing.assert_array_equal(free.eigenvalues, held.eigenvalues)
    assert (free.max_real, free.residual_max, free.certified) == (
        held.max_real, held.residual_max, held.certified)


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


def test_sweep_refuses_a_generator_over_the_memory_budget(toy, monkeypatch):
    # the whole sweep fails up front, not each cell
    monkeypatch.setattr(orfd, "MEMORY_BYTES", 2**20)
    with pytest.raises(DomainError, match="generator at N=40 needs about"):
        sweep(toy, 40, [1.0, 2.0], [1.0])


def test_sweep_rejects_bad_thread_count(toy):
    with pytest.raises(DomainError, match="threads"):
        sweep(toy, 6, [1.0], [1.0], threads=0)
