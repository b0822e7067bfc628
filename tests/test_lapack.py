"""The in-place LAPACK bindings against numpy.linalg's copying wrappers.

Each kernel that factors through ``esdlab._lapack`` falls back to
numpy.linalg where it finds no library to bind; hiding the library
runs that path here.  The LU and the Cholesky give the same bits on
both paths; the Cholesky with a triangular solve, which numpy takes in
column panels, agrees to rounding.
"""

import glob
import math
import os

import numpy as np
import pytest

from esdlab import (
    MINUS_INFINITY,
    RngStream,
    build_iid_matrix,
    log_det_at,
    regularized_log_det,
    scalar_distribution,
)
from esdlab import _lapack
from esdlab.numerics import lu_log_abs_det

_SHIFTS = [0.0, 0.5, 0.5 + 0.5j]


def _both_paths(monkeypatch, compute):
    """compute() through the binding, then with the library hidden, each
    as the bit patterns of its floats."""
    if _lapack.library() is None:
        pytest.skip("numpy.libs holds no scipy_openblas64 build to bind here")
    through_binding = [float(v).hex() for v in compute()]
    with monkeypatch.context() as hidden:
        hidden.setattr(_lapack, "library", lambda: None)
        through_numpy = [float(v).hex() for v in compute()]
    return through_binding, through_numpy


def _matrix(n, law):
    return build_iid_matrix(n, scalar_distribution(law), RngStream(36, n))


@pytest.mark.parametrize("law", ["real_gaussian", "complex_gaussian"])
@pytest.mark.parametrize("n", [1, 7, 123, 600])
def test_lu_log_abs_det_is_slogdet_bit_for_bit(monkeypatch, n, law):
    a = _matrix(n, law)
    kept = a.copy()

    def compute():
        return [lu_log_abs_det(np.array(a, order="F"))] + log_det_at(a, _SHIFTS)
    binding, numpy = _both_paths(monkeypatch, compute)
    assert binding == numpy
    assert np.array_equal(a, kept)


@pytest.mark.parametrize("law", ["real_gaussian", "complex_gaussian"])
@pytest.mark.parametrize("n", [1, 7, 123, 600])
def test_regularized_log_det_is_cholesky_bit_for_bit(monkeypatch, n, law):
    a = _matrix(n, law)
    binding, numpy = _both_paths(monkeypatch, lambda: regularized_log_det(a, _SHIFTS, 1e-3))
    assert binding == numpy


def test_exactly_singular_is_minus_infinity_on_both_paths(monkeypatch):
    # an exactly zero pivot: a repeated row, and z = 0.5 an eigenvalue of
    # A/sqrt(n) for a real and a complex A
    n = 3
    diagonal = math.sqrt(n) * np.diag([0.5, 1.5, 2.5])

    def compute():
        return [lu_log_abs_det(np.array([[1.0, 0.0], [1.0, 0.0]], order="F")),
                log_det_at(diagonal, [0.5])[0], log_det_at(diagonal.astype(complex), [0.5])[0]]
    binding, numpy = _both_paths(monkeypatch, compute)
    assert binding == numpy == [MINUS_INFINITY.hex()] * 3


@pytest.mark.parametrize("routine", [_lapack.getrf, _lapack.potrf,
                                     lambda a: _lapack.potrf_trtrs(a, np.ones((3, 1), order="F"))])
def test_binding_takes_only_an_array_lapack_may_overwrite(routine):
    square = np.eye(3, order="F")
    for bad in (np.eye(3), np.ones((3, 2), order="F"), square.astype(np.float32),
                np.eye(3, dtype=np.int64, order="F")):
        with pytest.raises(ValueError):
            routine(bad)
    square.flags.writeable = False
    with pytest.raises(ValueError):
        routine(square)


def test_potrf_trtrs_takes_only_a_right_hand_side_lapack_may_overwrite():
    triangle = np.eye(3, order="F")
    read_only = np.ones((3, 2), order="F")
    read_only.flags.writeable = False
    for bad in (np.ones((3, 2)), read_only, np.ones((4, 2), order="F"),
                np.ones((3, 2), dtype=np.complex128, order="F"), np.ones(3)):
        with pytest.raises(ValueError):
            _lapack.potrf_trtrs(triangle, bad)


@pytest.fixture(params=["binding", "hidden"])
def path(request, monkeypatch):
    """Runs a test through numpy's OpenBLAS, then with it hidden."""
    if request.param == "binding":
        if _lapack.library() is None:
            pytest.skip("numpy.libs holds no scipy_openblas64 build to bind here")
    else:
        monkeypatch.setattr(_lapack, "library", lambda: None)
    return request.param


def _draw(shape, dtype, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    if dtype == np.complex128:
        x = x + 1j * rng.standard_normal(shape)
    return x


def _hermitian_positive_definite(n, dtype):
    x = _draw((n, n), dtype, n)
    g = x @ x.conj().T + n * np.eye(n)
    return np.asfortranarray((g + g.conj().T) / 2)


_DTYPES = [np.float64, np.complex128]


@pytest.mark.parametrize("dtype", _DTYPES)
@pytest.mark.parametrize("n", [1, 7, 123])
def test_potrf_writes_numpys_cholesky_bit_for_bit(path, n, dtype):
    g = _hermitian_positive_definite(n, dtype)
    expected = np.linalg.cholesky(g)
    assert _lapack.potrf(g) == 0
    assert np.array_equal(np.tril(g), expected)


def test_potrf_reports_a_breakdown(path):
    for dtype in _DTYPES:
        assert _lapack.potrf(-np.eye(3, dtype=dtype, order="F")) == 1


def test_potrf_trtrs_reports_a_breakdown(path):
    # LAPACK reports the order of the first minor that is not positive
    # definite, numpy's panels the first column of the panel holding it
    for dtype in _DTYPES:
        assert _lapack.potrf_trtrs(-np.eye(3, dtype=dtype, order="F"),
                                   np.ones((3, 1), dtype, order="F")) == 1
        a = np.eye(300, dtype=dtype, order="F")
        a[200, 200] = -1.0
        info = _lapack.potrf_trtrs(a, np.ones((300, 1), dtype, order="F"))
        assert info == (201 if path == "binding" else 200 // _lapack._PANEL * _lapack._PANEL + 1)


@pytest.mark.parametrize("columns", [1, 5])
@pytest.mark.parametrize("dtype", _DTYPES)
@pytest.mark.parametrize("n", [1, 7, 123, 300])
def test_potrf_trtrs_factors_and_solves_with_the_lower_triangle(path, n, dtype, columns):
    # the upper triangle is never read, so entries far larger than the
    # matrix's stand there; n = 300 spans three of the fallback's panels
    g = _hermitian_positive_definite(n, dtype)
    a = np.asfortranarray(np.tril(g) + 1e3 * np.triu(_draw((n, n), dtype, 1), 1))
    b = np.asfortranarray(_draw((n, columns), dtype, 2))
    factor = np.linalg.cholesky(g)
    expected = np.linalg.solve(factor, b)
    assert _lapack.potrf_trtrs(a, b) == 0
    if path == "binding":
        assert np.array_equal(np.tril(a), factor)
    else:
        assert np.linalg.norm(np.tril(a) - factor) <= 1e-12 * np.linalg.norm(factor)
    assert np.linalg.norm(b - expected) <= 1e-12 * np.linalg.norm(expected)


def test_potrf_trtrs_fallback_holds_no_second_matrix(monkeypatch):
    # numpy's cholesky returns a new factor as large as its input; the
    # panels' temporaries stay well below that at 4 panels
    import tracemalloc
    monkeypatch.setattr(_lapack, "library", lambda: None)
    n = 4 * _lapack._PANEL
    a = _hermitian_positive_definite(n, np.complex128)
    b = np.asfortranarray(_draw((n, 8), np.complex128, 2))
    tracemalloc.start()
    try:
        assert _lapack.potrf_trtrs(a, b) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes / 2


def test_library_binds_every_routine_where_numpy_ships_openblas():
    # a mistyped symbol would route every caller onto the fallback unseen
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                           "*scipy_openblas64*")
    if not glob.glob(pattern):
        pytest.skip("numpy.libs holds no scipy_openblas64 build here (numpy's macOS "
                    "wheels and source builds), so the fallback is the only path")
    assert _lapack.library() is not None
    for routine, argtypes in _lapack._ARGTYPES.items():
        for dtype in _DTYPES:
            fn = _lapack._routine(routine, np.eye(2, dtype=dtype, order="F"))
            assert fn is not None and list(fn.argtypes) == argtypes, (routine, dtype)
    assert getattr(_lapack.library(), _lapack._SET_THREADS, None) is not None
