"""The native bindings of `piezobeam._lapack`, against scipy's wrappers.

Each routine is called as its call site calls it, with the same shapes and
views, and compared with scipy.linalg's f2py wrapper or, for dlahqr, which
scipy does not wrap, with its cython_lapack capsule.  The mesh factor of
`orfd`, a forward substitution in numpy, is compared with scipy's banded
triangular solve.  scipy runs its own OpenBLAS, so figures are compared to
rounding, not bit for bit.
"""
import ctypes

import numpy as np
import pytest
import scipy.linalg.blas as sblas
import scipy.linalg.lapack as slapack
from scipy.linalg import cython_lapack

from piezobeam import _lapack, simulate, spectral
from piezobeam._lapack import Routine
from piezobeam.orfd import build_system
from piezobeam.spectral import _tip_first

RTOL = 1e-13


def _capsule(name: str):
    """LAPACK routine `name` of scipy.linalg.cython_lapack: 32-bit INTEGER
    and LOGICAL, every argument a pointer."""
    capsule = cython_lapack.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    signature = get_name(capsule)
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * (signature.count(b",") + 1))(
        get_pointer(capsule, signature))


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=RTOL * max(np.abs(want).max(), 1.0))


@pytest.mark.parametrize("N", [8, 80])  # 4(N+1) = 324 takes dgehrd's blocked path
def test_hessenberg_matches_scipy_dgehrd(N):
    A = np.random.default_rng(N).standard_normal((4 * (N + 1),) * 2)
    n = A.shape[0]
    lwork = int(slapack.dgehrd_lwork(n)[0])
    want, _, info = slapack.dgehrd(_tip_first(A), lwork=lwork)
    assert info == 0
    _close(spectral._hessenberg(A), want)


def test_hessenberg_eigvals_match_the_dlahqr_capsule(table1):
    hq = spectral._hessenberg(build_system(table1, 8, 1e6, 1e9).A_E)
    n = hq.shape[0]
    h = np.array(hq, order="F")
    wr, wi = np.empty(n), np.empty(n)
    ints = [ctypes.c_int(v) for v in (0, 0, n, 1, n, n, 1, n, 1, 0)]
    wantt, wantz, nn, ilo, ihi, ldh, iloz, ihiz, ldz, info = (ctypes.byref(v) for v in ints)
    _capsule("dlahqr")(wantt, wantz, nn, ilo, ihi, h.ctypes.data, ldh, wr.ctypes.data,
                       wi.ctypes.data, iloz, ihiz, np.empty(1).ctypes.data, ldz, info)
    assert ints[-1].value == 0
    got = spectral._hessenberg_eigvals(np.array(hq, order="F"))
    _close(got.real, wr)
    _close(got.imag, wi)


@pytest.mark.parametrize("N", [2, 40])
def test_mesh_factor_matches_scipy_dtbtrs(table1, N):
    sys = build_system(table1, N, 0.0, 0.0)
    n = sys.n_nodes
    j = np.arange(1.0, n)
    d = np.r_[0.5 * np.sqrt((j + 1.0) / j), 0.5 / np.sqrt(n)]
    e = 0.5 * np.sqrt(j / (j + 1.0))
    L_Ah = np.diag(2.0 / sys.h * d) + np.diag(-2.0 / sys.h * e, -1)
    want, info = slapack.dtbtrs(np.vstack([d, np.append(e, 0.0)]), L_Ah, uplo="L")
    assert info == 0
    _close(sys.G_factors[1], want)


@pytest.mark.parametrize("b", [64, 5])  # a full block and the last, partial one
def test_block_products_match_scipy(b):
    # `_step_blocks`: its products are numpy's; the one bound call is dtrsv
    # on the leading 2b x 2b block of a 2B x 2B matrix (lda != rows), in
    # place on the leading b rows of a fixed B x 2 buffer, its order given
    # as a bound integer
    rng = np.random.default_rng(b)
    B = 64
    lower = np.asfortranarray(np.tril(rng.standard_normal((2 * B, 2 * B)), -1) * 0.1)
    tau = rng.standard_normal((B, 2))
    want = sblas.dtrsv(lower[:2 * b, :2 * b], tau[:b].ravel(), lower=1, diag=1)
    order = simulate._dtrsv.integer()
    solve = simulate._dtrsv.bind(b"L", b"N", b"U", order, lower, 2 * B, tau, 1)
    rest = tau.copy()
    order.value = 2 * b
    solve()
    _close(tau[:b].ravel(), want)
    np.testing.assert_array_equal(tau[b:], rest[b:])


def test_info_below_zero_names_the_argument():
    with pytest.raises(np.linalg.LinAlgError, match="dgehrd rejected argument 1"):
        spectral._dgehrd(-1, 1, 1, np.empty((1, 1)), 1, np.empty(1), np.empty(1), 1)


def test_info_above_zero_raises_the_failure():
    # the QR iteration cannot converge on a Hessenberg matrix holding a NaN:
    # dlahqr sets INFO to the last row it left unconverged, n
    dlahqr = Routine("dlahqr", failure="no convergence at row {}")
    h = np.asfortranarray(np.triu(np.ones((3, 3)), -1))
    h[1, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="no convergence at row 3"):
        dlahqr(False, False, 3, 1, 3, h, 3, np.empty(3), np.empty(3), 1, 3, np.empty(1), 1)


def test_arguments_are_checked_before_the_call():
    a, x = np.eye(3, order="F"), np.ones(3)
    with pytest.raises(TypeError, match="dtrsv takes 8 arguments, got 7"):
        simulate._dtrsv(b"L", b"N", b"U", 3, a, 3, x)
    with pytest.raises(TypeError, match="dtrsv takes float64 arrays, not complex128"):
        simulate._dtrsv(b"L", b"N", b"U", 3, a, 3, x.astype(complex), 1)


def test_a_blas_without_the_routine_fails_the_import(monkeypatch):
    monkeypatch.setattr(_lapack, "_SCHEMES", (("missing_{}_", "missing_{}", ctypes.c_int),))
    with pytest.raises(ImportError, match=r"numpy's BLAS \(.*\) exports no dtrsv"):
        Routine("dtrsv")

