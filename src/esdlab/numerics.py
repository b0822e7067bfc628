"""Dense complex linear algebra kernels and exact identity verifiers.

Eigenvalues and singular values are delegated to LAPACK through numpy;
the row-distance and leave-one-out routines are implemented directly so
that the determinant and negative-second-moment identities are checked
through genuinely distinct computational routes.

Each matrix is validated once, by the entry it is given to
(``scaled_shift``, ``log_abs_det``, ``hs_norm``,
``leave_one_out_distances``, ``verify_interlacing``, ``verify_weyl``),
which calls only kernels on it; the kernels ``eigenvalues``,
``singular_values``, ``row_distances`` and ``lu_log_abs_det`` trust their
caller; ``eigenvalues`` and ``singular_values`` check only their result,
so a finite matrix whose spectrum overflows is a NumericalFailureError
rather than a row of inf.  ``scaled_shift`` is the one builder of
A/sqrt(n) - zI, and every normalized ESD and log-determinant starts
from it.  Its keyword-only ``overwrite_a`` (default False) lets a caller that owns A
have it scaled in place, bit for bit as the copy, so that an eigenvalue
trial holds one n-by-n array besides LAPACK's working copy.  Singular
matrices never yield a fake large-negative log-determinant.  This module
holds every route to log|det| and its IEEE -inf marker (MINUS_INFINITY):
``log_abs_det`` takes four independent routes, "via_lu" (the kernel
``lu_log_abs_det``, also behind ``hermitization.log_det_at``), which
returns the marker for an exactly zero LU pivot, and the factor routes
"via_eigenvalues", "via_singular" and "via_distances", which reduce
their factors through ``log_product``.
``log_product`` returns the marker whenever a factor underflows the
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


def _as_square(a):
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ConfigurationError(f"operation requires a square matrix, got {m.shape}")
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
    m = _as_square(a)
    n = m.shape[0]
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
    """d_i = distance from row i to the span of rows 1..i-1, for a square
    ``m`` from ``as_matrix`` or ``scaled_shift``.

    Modified Gram-Schmidt with one reorthogonalization pass; d_1 is the
    norm of the first row.  Rank-deficient prefixes produce d_i near 0,
    which is data, not an error; such rows contribute no new direction.
    """
    m = m.astype(np.complex128, copy=False)
    n = m.shape[0]
    scale = np.linalg.norm(m)
    q = np.empty((n, n), dtype=np.complex128)
    used = 0
    d = np.empty(n)
    for i in range(n):
        v = m[i].copy()
        for _ in range(2):  # one reorthogonalization pass
            if used:
                v -= (q[:used].conj() @ v) @ q[:used]
        d[i] = np.linalg.norm(v)
        if d[i] > 1e-14 * max(scale, 1e-300):
            q[used] = v / d[i]
            used += 1
    return d


def leave_one_out_distances(a):
    """dist(row_j, span of the other rows) for a full-rank n'-by-n matrix.

    Computed by orthogonal projection against a QR basis of the other
    rows, independently of any singular value computation.
    """
    m = as_matrix(a).astype(np.complex128, copy=False)
    rows, cols = m.shape
    if rows > cols:
        raise ConfigurationError("leave-one-out requires n' <= n (wide or square matrix)")
    s = singular_values(m)
    if s[0] == 0.0 or s[-1] <= 1e-10 * s[0]:
        raise NumericalFailureError("leave-one-out identity requires a full-rank matrix")
    d = np.empty(rows)
    idx = np.arange(rows)
    for j in range(rows):
        others = m[idx != j]
        qmat, _ = np.linalg.qr(others.T)  # orthonormal basis of the row span
        v = m[j]
        d[j] = np.linalg.norm(v - qmat @ (qmat.conj().T @ v))
    return d


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


def log_abs_det(a, method="via_singular"):
    """log|det A| of a square A by one of four routes: "via_lu", the
    ``lu_log_abs_det`` kernel; "via_eigenvalues", "via_singular" and
    "via_distances", a sum of the logs of |eigenvalues|, singular values
    or row distances, reduced by ``log_product``."""
    m = _as_square(a)
    if method == "via_lu":
        return lu_log_abs_det(m)
    if method == "via_eigenvalues":
        factors = np.abs(eigenvalues(m))
    elif method == "via_singular":
        factors = singular_values(m)
    elif method == "via_distances":
        factors = row_distances(m)
    else:
        raise ConfigurationError(f"unknown method {method!r}")
    return log_product(factors)


def verify_interlacing(a, k):
    """Worst violation of sigma_i(A) >= sigma_i(A') >= sigma_{i+k}(A),
    with A' the first n-k rows; at most 0 up to rounding."""
    m = _as_square(a)
    n = m.shape[0]
    if not 1 <= k < n:
        raise ConfigurationError("interlacing requires 1 <= k < n")
    s = singular_values(m)
    s_sub = singular_values(m[: n - k])
    upper = np.max(s_sub - s[: n - k])        # sigma_i(A') <= sigma_i(A)
    lower = np.max(s[k:] - s_sub)             # sigma_{i+k}(A) <= sigma_i(A')
    return float(max(upper, lower))


def _log_cumsum(values):
    with np.errstate(divide="ignore"):
        return np.cumsum(np.log(values))


def verify_weyl(a):
    """(second-moment violation, product violation) of the comparison
    inequalities; both are at most 0 up to rounding.

    Second moment: sum |lambda_j|^2 <= sum sigma_j^2 = ||A||_2^2.
    Products: for every k, the product of the k largest |lambda| is at
    most that of the k largest sigma, and the product of the k smallest
    sigma is at most that of the k smallest |lambda|.  The moment
    violation is relative to max(||A||_2^2, 1), the product violation is
    in log space."""
    m = _as_square(a)
    lam = np.sort(np.abs(eigenvalues(m)))     # ascending
    sig = singular_values(m)                  # descending
    hs2 = float(np.linalg.norm(m)) ** 2
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
