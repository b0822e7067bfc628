"""In-place LAPACK factorizations from numpy's bundled OpenBLAS.

numpy's Linux and Windows wheels ship OpenBLAS in ``numpy.libs`` beside
the package, built with 64-bit integers and a ``scipy_`` symbol prefix
(scipy_openblas64), and numpy.linalg calls its LAPACK routines after
copying each matrix into a column-major buffer of its own.  ``getrf``
(LU with partial pivoting), ``potrf`` (Cholesky, lower triangle) and
``potrf_trtrs`` (that Cholesky, then a solve with its triangle) call the
same routines through ctypes on column-major arrays their caller owns,
and overwrite them, so a caller that builds its matrix in that layout
holds no second copy.  ``set_num_threads`` sets the library's BLAS
thread count.

The library is loaded on first use, once per process.  Where
``numpy.libs`` holds no scipy_openblas64 build (numpy's macOS wheels,
which keep their libraries elsewhere or link Accelerate, or a numpy
built from source) or a routine is missing, each entry falls back on
numpy.linalg itself, so no caller branches on the library:

- ``potrf`` writes numpy's ``cholesky`` of the whole matrix into its
  array, the same bits, through one copy of it;
- ``potrf_trtrs`` factors and solves in column panels, through numpy's
  ``cholesky`` and ``solve`` on one panel at a time, and holds no second
  array of the matrix's size; it agrees to rounding, not bit for bit;
- ``getrf`` returns None, for numpy exposes no LU factors to write.
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
    # ?trtrs(uplo, trans, diag, n, nrhs, a, lda, b, ldb, info)
    "trtrs": [ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p, _INT_P, _INT_P,
              ctypes.c_void_p, _INT_P, ctypes.c_void_p, _INT_P, _INT_P],
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
        signatures = {f"scipy_{prefix}{routine}_64_": argtypes
                      for routine, argtypes in _ARGTYPES.items() for prefix in "dz"}
        for symbol, argtypes in {**signatures, _SET_THREADS: [ctypes.c_int]}.items():
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = argtypes, None
        return lib
    return None


def _routine(routine, a, *rest):
    """The LAPACK routine for the dtype of ``a``, after checking that
    ``a`` is a square array LAPACK may overwrite, and each of ``rest`` one
    with as many rows in the same dtype; None where it is missing."""
    arrays = (a, *rest)
    if not (all(isinstance(m, np.ndarray) and m.ndim == 2 for m in arrays)
            and a.dtype in (np.float64, np.complex128)
            and all(m.shape[0] == a.shape[1] and m.dtype == a.dtype and m.flags.f_contiguous
                    and m.flags.writeable for m in arrays)):
        raise ValueError("LAPACK works in place on writeable, column-major float64 or "
                         "complex128 arrays: a square one and any with as many rows")
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
    LAPACK's info: 0, or k > 0 when its leading minor of order k is not
    positive definite (1 where numpy factors, which writes zeros above the
    diagonal)."""
    fn = _routine("potrf", a)
    if fn is None:
        try:
            a[...] = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            return 1
        return 0
    info = _INT()
    fn(b"L", _INT(a.shape[0]), a.ctypes.data, _INT(max(a.shape[0], 1)), info)
    return info.value


def potrf_trtrs(a, b):
    """Overwrite the lower triangle of the Hermitian ``a`` (only that
    triangle is read) with its Cholesky factor L, a = L L*, then ``b``, a
    right-hand side per column in ``a``'s dtype, with L⁻¹b, and return
    potrf's info: 0, or k > 0, with ``b`` not solved, when a leading
    minor of order k is not positive definite (the first column of the
    failing panel where numpy factors).  With the library, ``a``'s strict
    upper triangle is left as it is; without it, its diagonal panels'
    part is overwritten."""
    factor, solve = _routine("potrf", a, b), _routine("trtrs", a, b)
    if factor is None or solve is None:
        return _potrf_trtrs_in_panels(a, b)
    n, lda, info = _INT(a.shape[0]), _INT(max(a.shape[0], 1)), _INT()
    factor(b"L", n, a.ctypes.data, lda, info)
    if info.value == 0:  # a positive diagonal: trtrs reports no zero on it
        solve(b"L", b"N", b"N", n, _INT(b.shape[1]), a.ctypes.data, lda, b.ctypes.data,
              _INT(max(b.shape[0], 1)), info)
    return info.value


_PANEL = 128  # columns of a panel of ``_potrf_trtrs_in_panels``


def _potrf_trtrs_in_panels(a, b):
    """``potrf_trtrs`` through numpy.linalg, left-looking in column panels
    of ``_PANEL``: each panel takes the update of the columns before it,
    numpy's ``cholesky`` factors its diagonal block, and ``solve`` with
    that block gives the factor's rows below it and the panel's rows of
    L⁻¹b.  No temporary has more than n x ``_PANEL`` entries."""
    n = a.shape[0]
    for j in range(0, n, _PANEL):
        rows = slice(j, j + _PANEL)
        panel = a[j:, rows]
        panel -= a[j:, :j] @ a[rows, :j].conj().T
        try:
            block = np.linalg.cholesky(panel[:_PANEL])
        except np.linalg.LinAlgError:
            return j + 1
        panel[:_PANEL] = block
        # the rows below solve L21 L11* = A21, that is conj(L11) L21ᵀ = A21ᵀ
        panel[_PANEL:] = np.linalg.solve(block.conj(), panel[_PANEL:].T).T
        b[rows] -= a[rows, :j] @ b[:j]
        b[rows] = np.linalg.solve(block, b[rows])
    return 0


def set_num_threads(count):
    """Run the library's BLAS on ``count`` threads; nothing where it is
    missing."""
    lib = library()
    set_threads = None if lib is None else getattr(lib, _SET_THREADS, None)
    if set_threads is not None:
        set_threads(count)
