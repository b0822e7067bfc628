"""The in-place LAPACK bindings against numpy.linalg's copying wrappers.

Each kernel that factors through ``esdlab._lapack`` falls back to
numpy.linalg where it finds no library to bind; hiding the library
runs that path here, and both must give the same bits.
"""

import math

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
        return [lu_log_abs_det(np.array(a, order="F"))] + [log_det_at(a, z) for z in _SHIFTS]
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
                log_det_at(diagonal, 0.5), log_det_at(diagonal.astype(complex), 0.5)]
    binding, numpy = _both_paths(monkeypatch, compute)
    assert binding == numpy == [MINUS_INFINITY.hex()] * 3


@pytest.mark.parametrize("routine", [_lapack.getrf, _lapack.potrf])
def test_binding_takes_only_an_array_lapack_may_overwrite(routine):
    square = np.eye(3, order="F")
    for bad in (np.eye(3), np.ones((3, 2), order="F"), square.astype(np.float32),
                np.eye(3, dtype=np.int64, order="F")):
        with pytest.raises(ValueError):
            routine(bad)
    square.flags.writeable = False
    with pytest.raises(ValueError):
        routine(square)
