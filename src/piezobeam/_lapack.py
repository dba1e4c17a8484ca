"""Native BLAS and LAPACK calls, and the OpenBLAS thread count they run under.

The routines numpy does not expose go through `Routine`, to the library
that numpy.linalg links: its symbols are looked up through the
handle of numpy.linalg's extension, whose symbol search covers the
libraries the extension links, so no second BLAS is loaded.  A routine r
resolves by its mangled name, first `scipy_r_64_` (the scipy-openblas64
library of numpy >= 2 wheels), then `r_64_` (numpy 1.x wheels' openblas64_),
then `r_`; the first two take 64-bit INTEGER and LOGICAL arguments, the
last 32-bit ones.  A library that exports none of the names fails the
import with ImportError.  A ctypes call releases the GIL for the whole
routine, so the eigensolves of a sweep run in parallel on its thread pool.

Those are dgehrd and dlahqr for `spectral` and dtrsv for `simulate`; every
product is numpy's own, which runs on the same library, so one library
serves the process.  Some calls run threaded BLAS, whose blocked products
round differently at another thread count: dgehrd in `spectral`, and
numpy's products in the coefficient corrections and samples of
`simulate.modal_trace` and the midpoint steps of `simulate.integrate`.
Each runs inside `one_blas_thread`, which holds the library to one thread
through OpenBLAS's thread-count functions, found under the same names, and
then restores its count, so every result is the same at every BLAS thread
count; the QR iteration (dlahqr) uses no threaded BLAS.  A BLAS without
those functions is not held, and the hold changes nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from typing import Callable

import numpy as np
from numpy.linalg import _umath_linalg

_LINALG = ctypes.CDLL(_umath_linalg.__file__)

# (routine name, OpenBLAS function name, INTEGER and LOGICAL type) of each
# symbol scheme, in the order they are tried
_SCHEMES = (("scipy_{}_64_", "scipy_openblas_{}64_", ctypes.c_int64),
            ("{}_64_", "openblas_{}64_", ctypes.c_int64),
            ("{}_", "openblas_{}", ctypes.c_int))

# Fortran arguments of each routine bound, INFO included; how many of them
# are CHARACTER; whether the last is INFO.
_SIGNATURES = {
    "dtrsv": (8, 3, False),
    "dgehrd": (9, 0, True),
    "dlahqr": (14, 0, True),
}


def _symbol(name: str, column: int) -> tuple:
    """(function, INTEGER type) of `name` in the first symbol scheme whose
    pattern in `column` (0 for routines, 1 for OpenBLAS functions) the
    library exports, or (None, None)."""
    for scheme in _SCHEMES:
        try:
            return getattr(_LINALG, scheme[column].format(name)), scheme[2]
        except AttributeError:
            pass
    return None, None


class Routine:
    """BLAS or LAPACK routine `name` of numpy's library, called by reference.

    Arrays pass their data pointer and must be float64, bytes as one
    CHARACTER, ints and bools as an INTEGER or LOGICAL of the library's
    width, ctypes objects by reference (an `integer()` so passed to a bound
    routine may change between calls).  The CHARACTER lengths are
    appended.  No routine bound takes a scalar of floating type or returns
    a value.  A LAPACK routine takes its arguments without INFO: a negative
    INFO raises LinAlgError naming the argument, a positive one
    LinAlgError(failure) with INFO formatted in.

    Every argument reaches ctypes as a ctypes object, which it passes
    without conversion, so no argtypes are declared: converting through
    them costs about 1 us a call, as much as a small BLAS call itself.
    """

    def __init__(self, name: str, failure: str | None = None):
        self.nargs, self.chars, self.info = _SIGNATURES[name]
        fn, integer = _symbol(name, 0)
        if fn is None:
            raise ImportError(f"numpy's BLAS ({_LINALG._name}) exports no {name}, "
                              f"under any of {[s[0].format(name) for s in _SCHEMES]}")
        fn.restype = None
        self.name, self.fn, self.integer = name, fn, integer
        self.failure = failure or f"{name} failed with INFO = {{}}"

    def bind(self, *args) -> functools.partial:
        """The call with args converted once, for loops: calling it runs the
        routine."""
        if len(args) != self.nargs:
            raise TypeError(f"{self.name} takes {self.nargs} arguments, got {len(args)}")
        arrays, converted = [], []
        for a in args:
            if isinstance(a, np.ndarray):
                if a.dtype != np.float64:
                    raise TypeError(f"{self.name} takes float64 arrays, not {a.dtype}")
                arrays.append(a)
                a = ctypes.c_void_p(a.ctypes.data)
            elif isinstance(a, bytes):
                a = ctypes.byref(ctypes.c_char(a))
            elif isinstance(a, (int, np.integer)):
                a = ctypes.byref(self.integer(a))
            else:
                a = ctypes.byref(a)
            converted.append(a)
        call = functools.partial(self.fn, *converted, *[ctypes.c_size_t(1)] * self.chars)
        call.arrays = arrays  # the buffers it points into live as long as it
        return call

    def __call__(self, *args):
        if not self.info:
            return self.bind(*args)()
        info = self.integer(0)
        self.bind(*args, info)()
        if info.value < 0:
            raise np.linalg.LinAlgError(f"{self.name} rejected argument {-info.value}")
        if info.value > 0:
            raise np.linalg.LinAlgError(self.failure.format(info.value))


def with_workspace(call) -> None:
    """Run call(work, lwork) the LAPACK way: a query with lwork = -1, which
    leaves the optimal size in work[0], then the call with that workspace."""
    query = np.empty(1)
    call(query, -1)
    call(np.empty(int(query[0])), int(query[0]))


@functools.cache
def thread_count() -> tuple[Callable, Callable] | None:
    """(get, set) of the library's OpenBLAS thread count, or None without them."""
    (get, _), (set_, _) = _symbol("get_num_threads", 1), _symbol("set_num_threads", 1)
    if get is None or set_ is None:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


# The thread count is process-wide, so holders in concurrent threads take
# turns instead of restoring each other's count.
_BLAS_PIN = threading.RLock()


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with the library on one thread, then restore its thread
    count.  Without the thread-count functions (`thread_count`) nothing
    changes."""
    count = thread_count()
    if count is None:
        yield
        return
    get, set_ = count
    with _BLAS_PIN:
        old = get()
        set_(1)
        try:
            yield
        finally:
            set_(old)


class _DlInfo(ctypes.Structure):
    _fields_ = [("fname", ctypes.c_char_p), ("fbase", ctypes.c_void_p),
                ("sname", ctypes.c_char_p), ("saddr", ctypes.c_void_p)]


@functools.cache
def config() -> dict:
    """The bound library, for manifests: its file, its OpenBLAS configuration
    string, its INTEGER width in bits and the thread count `one_blas_thread`
    holds it to; None where the library does not tell.  Read once per
    process (~0.1 ms); callers must not modify the dict."""
    trsv = Routine("dtrsv")
    library, info = _LINALG._name, _DlInfo()
    dladdr = getattr(ctypes.CDLL(None), "dladdr", None)
    if dladdr is not None:
        dladdr.argtypes, dladdr.restype = [ctypes.c_void_p, ctypes.POINTER(_DlInfo)], ctypes.c_int
        if dladdr(ctypes.cast(trsv.fn, ctypes.c_void_p), ctypes.byref(info)) and info.fname:
            library = os.path.realpath(os.fsdecode(info.fname))
    get_config, _ = _symbol("get_config", 1)
    if get_config is not None:
        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
    return {"library": library,
            "config": None if get_config is None else get_config().decode(),
            "integer_bits": 8 * ctypes.sizeof(trsv.integer),
            "held_threads": None if thread_count() is None else 1}
