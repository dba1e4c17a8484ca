"""The native bindings of `piezobeam._lapack`, against scipy's wrappers.

Each routine is called as its call site calls it, with the same shapes and
views, and compared with scipy.linalg's f2py wrapper or, for dlahqr, which
scipy does not wrap, with its cython_lapack capsule.  scipy runs its own
OpenBLAS, so figures are compared to rounding, not bit for bit.
"""
import ctypes

import numpy as np
import pytest
import scipy.linalg.blas as sblas
import scipy.linalg.lapack as slapack
from scipy.linalg import cython_lapack

from piezobeam import _lapack, simulate, spectral
from piezobeam._lapack import Routine, lead
from piezobeam.orfd import _tip_first, build_system

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


@pytest.fixture
def step_operators(table1):
    sys = build_system(table1, 300, 1e6, 1e9)
    return simulate._midpoint_operators(sys, 1e-9)


def test_single_step_products_match_scipy(step_operators):
    # `_step_one`: dgemv with the Fortran views P.T (transposed) and V.T
    # (beta = 1, in place), the tip rates by address, and ddot
    _, P, V = step_operators
    x = np.random.default_rng(0).standard_normal(P.shape[1])
    tips = np.zeros((3, 2))
    tau = ctypes.c_void_p(tips.ctypes.data + tips.strides[0])
    simulate._dgemv.bind(b"T", *P.T.shape, 1.0, P.T, lead(P.T), x, 1, 0.0, tau, 1)()
    _close(tips[1], sblas.dgemv(1.0, P.T, x, trans=1))
    assert not tips[[0, 2]].any()
    y = x.copy()
    simulate._dgemv.bind(b"N", *V.T.shape, 1.0, V.T, lead(V.T), tau, 1, 1.0, y, 1)()
    _close(y, sblas.dgemv(1.0, V.T, tips[1], beta=1.0, y=x))
    np.testing.assert_allclose(simulate._ddot(x.size, x, 1, x, 1), sblas.ddot(x, x),
                               rtol=RTOL)


@pytest.mark.parametrize("b", [64, 5])  # a full block and the last, partial one
def test_block_products_match_scipy(step_operators, b):
    # `_step_blocks`: zgemm of the Fortran Wxi against turn[:b].T, dtrsv on
    # the leading 2b x 2b block of a 2B x 2B matrix (lda != rows), and
    # dgemm from tau.T into the float view of the work rows
    _, P, V = step_operators
    rng = np.random.default_rng(b)
    m, B = P.shape[1] // 2, 64
    Wxi = np.asfortranarray(rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2)))
    turn = np.exp(1j * rng.standard_normal((B + 1, m)))
    first = np.empty((2, B), dtype=complex, order="F")
    table = turn[:b].T
    simulate._zgemm(b"T", b"N", 2, b, m, 1.0, Wxi, lead(Wxi), table, lead(table), 0.0,
                    first, lead(first))
    _close(first[:, :b], sblas.zgemm(1.0, Wxi, table, trans_a=1))

    lower = np.asfortranarray(np.tril(rng.standard_normal((2 * B, 2 * B)), -1) * 0.1)
    x = rng.standard_normal(2 * b)
    want = sblas.dtrsv(lower[:2 * b, :2 * b], x, lower=1, diag=1)
    simulate._dtrsv(b"L", b"N", b"U", 2 * b, lower, lead(lower), x, 1)
    _close(x, want)

    tau = rng.standard_normal((b, 2))
    work = np.zeros((B, m), dtype=complex)
    c = work.view(float).T
    simulate._dgemm(b"N", b"N", V.T.shape[0], b, 2, 1.0, V.T, lead(V.T), tau.T, 2, 0.0,
                    c, lead(c))
    _close(c[:, :b], sblas.dgemm(1.0, V.T, tau.T))
    assert not work[b:].any()


def test_modal_sample_product_matches_scipy():
    # `modal_trace`: W (Fortran) times the leading 2m x rows block of the
    # phase buffer (ldb = its full width), into z[rows].T by address, with
    # the moving sizes and address given between calls
    rng = np.random.default_rng(1)
    W = np.asfortranarray(rng.standard_normal((326, 40)))
    z = np.zeros((50, 326))
    phases = rng.standard_normal((9, 40))
    cols, depth, out = simulate._dgemm.integer(), simulate._dgemm.integer(), ctypes.c_void_p()
    products = simulate._dgemm.bind(b"N", b"N", 326, cols, depth, 1.0, W, lead(W), phases.T,
                                    40, 0.0, out, 326)
    for start, r, k in ((0, 9, 40), (10, 7, 30), (17, 1, 2)):
        cols.value, depth.value, out.value = r, k, z.ctypes.data + start * z.strides[0]
        products()
        _close(z[start:start + r], sblas.dgemm(1.0, W[:, :k], phases[:r, :k].T).T)
    assert not z[9:10].any() and not z[18:].any()


def test_info_below_zero_names_the_argument():
    with pytest.raises(np.linalg.LinAlgError, match="dgehrd rejected argument 1"):
        spectral._dgehrd(-1, 1, 1, np.empty((1, 1)), 1, np.empty(1), np.empty(1), 1)


def test_info_above_zero_raises_the_failure():
    # a zero on the diagonal of a triangular band: dtbtrs sets INFO to its row
    dtbtrs = Routine("dtbtrs", failure="singular at row {}")
    ab = np.array([[1.0, 2.0, 0.0], [1.0, 1.0, 0.0]], order="F")
    with pytest.raises(np.linalg.LinAlgError, match="singular at row 3"):
        dtbtrs(b"L", b"N", b"N", 3, 1, 1, ab, 2, np.ones((3, 1)), 3)


def test_arguments_are_checked_before_the_call():
    x = np.ones(3)
    with pytest.raises(TypeError, match="ddot takes 5 arguments, got 4"):
        simulate._ddot(3, x, 1, x)
    with pytest.raises(TypeError, match="ddot takes float64 arrays, not complex128"):
        simulate._ddot(3, x.astype(complex), 1, x, 1)
    with pytest.raises(ValueError, match="not a Fortran-order matrix"):
        lead(np.ones((3, 2)))
    assert lead(np.ones((2, 3)).T) == 3 and lead(np.ones((4, 1))) == 4


def test_a_blas_without_the_routine_fails_the_import(monkeypatch):
    monkeypatch.setattr(_lapack, "_SCHEMES", (("missing_{}_", "missing_{}", ctypes.c_int),))
    with pytest.raises(ImportError, match=r"numpy's BLAS \(.*\) exports no dgemm"):
        Routine("dgemm")

