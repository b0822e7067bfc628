"""Dense complex linear algebra kernels and exact identity verifiers.

Every decomposition is delegated to LAPACK through numpy: eigenvalues,
singular values, LU and, for the row-distance and leave-one-out routines,
a Householder QR whose |R| diagonal gives the distances.  The QR is a
fourth factorization, distinct from LU, eig and SVD, so the determinant
and negative-second-moment identities are still checked through
genuinely distinct computational routes.

Each matrix is validated once, by the entry it is given to
(``scaled_shift``, ``hs_norm``, ``leave_one_out_distances``), which calls
only kernels on it; the kernels ``eigenvalues``, ``singular_values``,
``row_distances`` and ``lu_log_abs_det`` trust their caller;
``eigenvalues`` and ``singular_values`` check only their result, so a
finite matrix whose spectrum overflows is a NumericalFailureError rather
than a row of inf.  The identity verifiers ``verify_interlacing`` and
``verify_weyl`` compare spectra their caller has taken, and take no
matrix.  ``scaled_shift`` is the one builder of A/sqrt(n) - zI, and
every normalized ESD and log-determinant starts from it.  Its
keyword-only ``overwrite_a`` (default False) lets a caller that owns A
have it scaled in place, bit for bit as the copy, so that an eigenvalue
trial holds one n-by-n array besides LAPACK's working copy.  Singular
matrices never yield a fake large-negative log-determinant.  This module
holds every route to log|det| and its IEEE -inf marker (MINUS_INFINITY):
``lu_log_abs_det`` (one LU, also behind ``hermitization.log_det_at``)
returns the marker for an exactly zero LU pivot, and ``log_product``
reduces the factors of the other three routes (|eigenvalues|, singular
values, row distances) and returns it whenever a factor underflows the
representable range; ``hermitization.log_potential`` reduces the atom
distances of an ESD through it too.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, NumericalFailureError

MINUS_INFINITY = float("-inf")


def as_matrix(a):
    """Validate and return a 2-D matrix with finite entries, converted to
    float64 or complex128 so that LAPACK runs in double precision."""
    m = np.asarray(a)
    if m.dtype not in (np.float64, np.complex128):
        m = m.astype(np.complex128 if m.dtype.kind == "c" else np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ConfigurationError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ConfigurationError("matrix entries must be finite (no NaN/Inf)")
    return m


def eigenvalues(m):
    """All eigenvalues with multiplicity, unsorted (multiset semantics),
    of a square ``m`` from ``as_matrix`` or ``scaled_shift``, or of each
    matrix of the stack of arrowheads in ``limits.solve_ds``.  A finite
    ``m`` whose eigenvalues overflow, or an arrowhead whose poles
    overflowed, is a NumericalFailureError."""
    try:
        lam = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigenvalue iteration failed: {exc}") from exc
    _require_finite(lam, "eigenvalues")
    return lam


def singular_values(m):
    """Singular values sorted decreasing, clamped at zero, of an ``m``
    from ``as_matrix`` or ``scaled_shift``.  A finite ``m`` whose singular
    values overflow is a NumericalFailureError."""
    try:
        s = np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"singular value iteration failed: {exc}") from exc
    _require_finite(s, "singular values")
    return np.maximum(s, 0.0)


def _require_finite(values, what):
    if not np.all(np.isfinite(values)):
        raise NumericalFailureError(f"{what} are not finite (the matrix entries overflow "
                                    "the decomposition)")


def scaled_shift(a, z=0, *, overwrite_a=False):
    """A/sqrt(n) - zI for a finite square matrix ``a``, validated here.

    The matrix is scaled first and the shift is then subtracted on the
    diagonal, with no identity temporary; a real ``a`` at a real ``z``
    stays float64, and only a non-real ``z`` (or a complex ``a``) makes
    the result complex.  At z = 0 the result is bit for bit A/sqrt(n):
    x - 0.0 is x for every finite x, -0.0 included.

    With ``overwrite_a`` the caller gives up ``a``: after validation, a
    writeable float64 or complex128 ndarray that already has the result's
    dtype is scaled and shifted in place and returned, with the same bits
    as the copy (the same IEEE division per entry).  Any other ``a`` (an
    integer array, a real ``a`` at a non-real ``z``, a list) is copied
    as without the flag.
    """
    m = as_matrix(a)
    n = m.shape[0]
    if m.shape[1] != n:
        raise ConfigurationError(f"operation requires a square matrix, got {m.shape}")
    z = complex(z)
    real_shift = z.imag == 0.0
    if real_shift:
        z = z.real
    reusable = (np.float64, np.complex128) if real_shift else (np.complex128,)
    if overwrite_a and m is a and m.flags.writeable and m.dtype in reusable:
        shifted = m
        shifted /= math.sqrt(n)
    else:
        shifted = m / math.sqrt(n)
        if not real_shift:
            shifted = shifted.astype(np.complex128, copy=False)
    shifted[np.diag_indices(n)] -= z
    return shifted


def hs_norm(a):
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(as_matrix(a)))


def row_distances(m):
    """d_i = distance from row i to the span of rows 1..i-1, for an
    n'-by-n ``m`` (n' <= n) from ``as_matrix`` or ``scaled_shift``.

    d_i is |R_ii| of one Householder QR (LAPACK geqrf) of the transpose;
    d_1 is the norm of the first row.  A row with d_i <= 1e-14 ||m||_F
    adds no new direction: rank-deficient prefixes produce such d_i,
    which are data, not an error.  Its value is kept, the first such row
    is deleted and the QR of the remaining rows is taken again, so that
    no reflector is built from a rounding residue; a full-rank ``m``
    takes exactly one QR.
    """
    cut = 1e-14 * np.linalg.norm(m)
    rows = np.arange(m.shape[0])
    d = np.empty(m.shape[0])
    while True:
        d[rows] = np.abs(np.diagonal(np.linalg.qr(m[rows].T, mode="r")))
        dependent = rows[d[rows] <= cut]
        if not dependent.size:
            return d
        rows = rows[rows != dependent[0]]


def leave_one_out_distances(a):
    """dist(row_j, span of the other rows) for a full-rank n'-by-n matrix.

    d_j is the last row distance once row j is moved last, so each takes
    one Householder QR, independently of any singular value computation.
    """
    m = as_matrix(a)
    rows, cols = m.shape
    if rows > cols:
        raise ConfigurationError("leave-one-out requires n' <= n (wide or square matrix)")
    s = singular_values(m)
    if s[0] == 0.0 or s[-1] <= 1e-10 * s[0]:
        raise NumericalFailureError("leave-one-out identity requires a full-rank matrix")
    return np.array([row_distances(np.roll(m, -1 - j, axis=0))[-1] for j in range(rows)])


def log_product(factors):
    """Sum of the logs of nonnegative factors, in any order, or
    MINUS_INFINITY when the largest is 0 or the smallest is below 1e-300
    times it (a product singular to working precision)."""
    top = np.max(factors)
    if top == 0.0 or np.min(factors) < 1e-300 * top:
        return MINUS_INFINITY
    return float(np.sum(np.log(factors)))


def lu_log_abs_det(m):
    """log|det m| from one LU (slogdet) of a square ``m`` from ``as_matrix``
    or ``scaled_shift``; MINUS_INFINITY when a pivot is exactly zero."""
    sign, logdet = np.linalg.slogdet(m)
    return MINUS_INFINITY if sign == 0 else float(logdet)


def verify_interlacing(s, s_sub):
    """Worst violation of sigma_i(A) >= sigma_i(A') >= sigma_{i+k}(A),
    given the decreasing singular values ``s`` of A and ``s_sub`` of A',
    the first n-k rows of A; at most 0 up to rounding."""
    n, rows = len(s), len(s_sub)
    if not 1 <= rows < n:
        raise ConfigurationError("interlacing requires a prefix of 1 to n-1 rows")
    upper = np.max(s_sub - s[:rows])          # sigma_i(A') <= sigma_i(A)
    lower = np.max(s[n - rows:] - s_sub)      # sigma_{i+k}(A) <= sigma_i(A')
    return float(max(upper, lower))


def _log_cumsum(values):
    with np.errstate(divide="ignore"):
        return np.cumsum(np.log(values))


def verify_weyl(lam, sig, hs):
    """(second-moment violation, product violation) of the comparison
    inequalities for a square A, given its eigenvalues (or their moduli)
    ``lam``, its decreasing singular values ``sig`` and its Frobenius
    norm ``hs``; both are at most 0 up to rounding.

    Second moment: sum |lambda_j|^2 <= sum sigma_j^2 = ||A||_2^2.
    Products: for every k, the product of the k largest |lambda| is at
    most that of the k largest sigma, and the product of the k smallest
    sigma is at most that of the k smallest |lambda|.  The moment
    violation is relative to max(||A||_2^2, 1), the product violation is
    in log space."""
    lam = np.sort(np.abs(lam))                # ascending
    hs2 = hs**2
    mom_scale = max(hs2, 1.0)
    second_moment_violation = float(max(
        (np.sum(lam**2) - np.sum(sig**2)) / mom_scale,
        abs(np.sum(sig**2) - hs2) / mom_scale,
    ))
    with np.errstate(invalid="ignore"):
        largest = _log_cumsum(lam[::-1]) - _log_cumsum(sig)
        smallest = _log_cumsum(sig[::-1]) - _log_cumsum(lam)
    # An exact zero in either spectrum makes the determinant zero up to
    # rounding, so a comparison that involves a zero product (-inf, +inf
    # or NaN in log space) is taken as satisfied.
    violations = np.concatenate([[0.0], largest, smallest])
    product_violation = float(np.max(violations[np.isfinite(violations)]))
    return second_moment_violation, product_violation
