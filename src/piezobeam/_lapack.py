"""Native LAPACK calls, and the OpenBLAS thread count they run under.

The dense eigensolves of `spectral` call LAPACK through the C-API capsules
that scipy.linalg.cython_lapack exports (`routine`).  A ctypes call releases
the GIL for the whole routine, which numpy's and scipy's own wrappers hold,
so the eigensolves of a sweep run in parallel on its thread pool.

Some calls run threaded BLAS, whose blocked products round differently at
another thread count: dgehrd in `spectral`, and the coefficient corrections
(dgemv) and sample products (dgemm) of `simulate.modal_trace`, and the
midpoint steps of `simulate.integrate`.  Each runs inside `one_blas_thread`,
which holds scipy's OpenBLAS to one thread and then restores its count, so
every result is the same at every BLAS thread count; the QR iteration
(dlahqr) uses no threaded BLAS.  numpy links its own OpenBLAS, which this
hold does not reach, so the sums over modes behind the closed-form
eigenvectors are einsum loops, not numpy products.  The library held is the one the capsules call: its
thread-count functions are looked up through the capsule extension's own
handle, whose symbol search covers the libraries the extension links.  A
scipy that does not bundle OpenBLAS exports no such functions, and the hold
changes nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import threading
from functools import cache

import numpy as np
from scipy.linalg import cython_lapack

_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def routine(name: str):
    """LAPACK routine `name` of scipy.linalg.cython_lapack, called through ctypes.

    Fortran takes every argument by reference.  Arrays pass their data
    pointer, bytes and ints are passed as a one-element char or int, and
    ctypes objects (outputs such as INFO) as themselves.  The capsule's name
    is the C signature, which gives the argument count.  A CFUNCTYPE call
    releases the GIL.
    """
    capsule = cython_lapack.__pyx_capi__[name]
    signature = _capsule_name(capsule)
    fn = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * (signature.count(b",") + 1))(
        _capsule_pointer(capsule, signature))

    def call(*args) -> None:
        refs = [ctypes.c_char(a) if isinstance(a, bytes)
                else ctypes.c_int(a) if isinstance(a, int) else a for a in args]
        fn(*[r.ctypes.data if isinstance(r, np.ndarray) else ctypes.addressof(r)
             for r in refs])

    return call


def with_workspace(call) -> None:
    """Run call(work, lwork) the LAPACK way: a query with lwork = -1, which
    leaves the optimal size in work[0], then the call with that workspace."""
    query = np.empty(1)
    call(query, -1)
    call(np.empty(int(query[0])), int(query[0]))


@cache
def scipy_openblas() -> ctypes.CDLL | None:
    """The library of scipy's LAPACK capsules, if it reaches scipy's bundled
    OpenBLAS and its thread-count functions; otherwise None."""
    lib = ctypes.CDLL(cython_lapack.__file__)
    try:
        get, set_ = lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
    except AttributeError:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return lib


# The thread count is process-wide, so holders in concurrent threads take
# turns instead of restoring each other's count.
_BLAS_PIN = threading.RLock()


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with scipy's OpenBLAS on one thread, then restore its
    thread count.  Without the library (see `scipy_openblas`) nothing
    changes."""
    lib = scipy_openblas()
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
