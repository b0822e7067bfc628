"""In-place LAPACK factorizations from numpy's bundled OpenBLAS.

numpy's Linux and Windows wheels ship OpenBLAS in ``numpy.libs`` beside
the package, built with 64-bit integers and a ``scipy_`` symbol prefix
(scipy_openblas64), and numpy.linalg
calls its LAPACK routines after copying each matrix into a column-major
buffer of its own.  ``getrf`` (LU with partial pivoting) and ``potrf``
(Cholesky, lower triangle) call the same routines through ctypes on a
column-major array their caller owns, and overwrite it, so a caller that
builds its matrix in that layout holds no second copy; given the matrix
numpy would copy, they return the factors numpy's ``slogdet`` and
``cholesky`` compute.  ``set_num_threads`` sets the library's BLAS thread
count.

The library is loaded on first use, once per process.  Where
``numpy.libs`` holds no scipy_openblas64 build (numpy's macOS wheels,
which keep their libraries elsewhere or link Accelerate, or a numpy
built from source) or a routine is missing, every function here returns
None and leaves its array as it is, and the caller takes numpy.linalg's
route instead.
"""

from __future__ import annotations

import ctypes
import functools
import os

import numpy as np

_INT = ctypes.c_int64  # every LAPACK integer of the ILP64 build
_INT_P = ctypes.POINTER(_INT)
_ARGTYPES = {
    # ?getrf(m, n, a, lda, ipiv, info)
    "getrf": [_INT_P, _INT_P, ctypes.c_void_p, _INT_P, ctypes.c_void_p, _INT_P],
    # ?potrf(uplo, n, a, lda, info)
    "potrf": [ctypes.c_char_p, _INT_P, ctypes.c_void_p, _INT_P, _INT_P],
}
_SET_THREADS = "scipy_openblas_set_num_threads64_"


@functools.cache
def library():
    """numpy's bundled OpenBLAS as a ctypes.CDLL with the argument types
    of the routines used here declared, or None where there is none."""
    import glob  # here, so that importing esdlab loads no module more

    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(pattern)):
        try:
            lib = ctypes.CDLL(path)  # numpy has loaded it already
        except OSError:
            continue
        for routine, argtypes in _ARGTYPES.items():
            for prefix in "dz":
                fn = getattr(lib, f"scipy_{prefix}{routine}_64_", None)
                if fn is not None:
                    fn.argtypes, fn.restype = argtypes, None
        set_threads = getattr(lib, _SET_THREADS, None)
        if set_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return lib
    return None


def _routine(routine, a):
    """The LAPACK routine for the dtype of ``a``, after checking that
    ``a`` is an array LAPACK may overwrite; None where it is missing."""
    if not (isinstance(a, np.ndarray) and a.ndim == 2 and a.shape[0] == a.shape[1]
            and a.dtype in (np.float64, np.complex128) and a.flags.f_contiguous
            and a.flags.writeable):
        raise ValueError("LAPACK works in place on a writeable, square, column-major "
                         "float64 or complex128 array")
    lib = library()
    prefix = "z" if a.dtype == np.complex128 else "d"
    return None if lib is None else getattr(lib, f"scipy_{prefix}{routine}_64_", None)


def getrf(a):
    """Overwrite ``a`` with its LU factors, P a = L U with L unit lower
    triangular, and return LAPACK's info: 0, or k > 0 when U_kk is
    exactly zero (the factorization is still complete).  None where the
    routine is missing."""
    fn = _routine("getrf", a)
    if fn is None:
        return None
    n = _INT(a.shape[0])
    pivots = np.empty(a.shape[0], np.int64)
    info = _INT()
    fn(n, n, a.ctypes.data, _INT(max(a.shape[0], 1)), pivots.ctypes.data, info)
    return info.value


def potrf(a):
    """Overwrite the lower triangle of the Hermitian ``a`` (only that
    triangle is read) with its Cholesky factor L, a = L L*, and return
    LAPACK's info: 0, or k > 0 when the leading minor of order k is not
    positive definite.  None where the routine is missing."""
    fn = _routine("potrf", a)
    if fn is None:
        return None
    info = _INT()
    fn(b"L", _INT(a.shape[0]), a.ctypes.data, _INT(max(a.shape[0], 1)), info)
    return info.value


def set_num_threads(count):
    """Run the library's BLAS on ``count`` threads; nothing where it is
    missing."""
    lib = library()
    set_threads = None if lib is None else getattr(lib, _SET_THREADS, None)
    if set_threads is not None:
        set_threads(count)
