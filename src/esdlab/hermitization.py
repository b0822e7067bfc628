"""Girko's hermitization program as executable numerics.

The central objects are the log-determinant field
f_n(z) = (1/n) log |det(A/sqrt(n) - zI)|, its eps-regularized variant,
and Girko's identity relating the plane ESD to the field through a
contour-integral kernel.

The singular-value law nu_z of B = A/sqrt(n) - zI has one entry,
``shifted_singular_values``, from one SVD; its squares are the atoms of
the ESD of B B*.  f_n(z) has two readings, and both are here:
``log_det_at`` reduces nu_z to one LU factorization of B, and
``log_potential`` of the eigenvalue ESD integrates log|w - z| over the
eigenvalues, so one eigendecomposition gives f_n on a whole lattice.
An ESD here is its atom array, as ``measures.esd_eigen`` returns it;
``log_potential`` and ``girko_reconstruct`` take that array.
The regularized value takes one Gram product per matrix and one Cholesky
factorization of B B* + eps I per shift.  None of them takes an SVD.
Each validates A once, in ``numerics.scaled_shift``, and both readings
of f_n take their -inf rule from ``numerics``: an exactly zero LU pivot
in ``lu_log_abs_det``, an atom at z in ``log_product``.

The closed-form kernel of the inner t-integral requires v > 0; the
printed formula diverges for v < 0 and callers needing that half-plane
should use conjugate symmetry instead.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ConfigurationError, NumericalFailureError
from .numerics import log_product, lu_log_abs_det, scaled_shift, singular_values


def shifted_singular_values(a, z):
    """Singular values of A/sqrt(n) - zI (the law nu_z), decreasing, from
    one SVD; their squares are the atoms of the Gram ESD of that matrix.

    The shift is subtracted on the diagonal of the scaled matrix, so a
    real A at a real z stays in real arithmetic; only a non-real z (or a
    complex A) makes the decomposed matrix complex.
    """
    return singular_values(scaled_shift(a, z))


def log_det_at(a, z):
    """f_n(z) = (1/n) log |det(A/sqrt(n) - zI)|, from one LU factorization
    of the shifted matrix; an exactly singular shift gives MINUS_INFINITY."""
    b = scaled_shift(a, z)
    return lu_log_abs_det(b) / b.shape[0]


def regularized_log_det(a, zs, eps, *, overwrite_a=False):
    """(1/2n) log det(B B* + eps I) with B = A/sqrt(n) - zI at every shift
    z of ``zs``, one value per shift, from one Gram product S S* of
    S = A/sqrt(n) and one Cholesky factorization per shift.

    Each shift's Gram matrix is an O(n^2) update of S S*:
    B B* = S S* - conj(z) S - z S* + |z|^2 I.  For a real S this is
    S S^T - x (S + S^T) + iy (S - S^T) + |z|^2 I at z = x + iy, filled
    through the real and imaginary parts of one array, so a real A takes
    one real syrk, no complex product, and stays float64 at a real z.
    At z = 0 the Gram matrix is S S* bit for bit.

    Always finite for eps > 0, monotone increasing in eps, and at least
    the unregularized value.  The update rounds on the scale of its
    terms, not of B, so the domain is eps at or above
    n 2^-53 (||S||_F + sqrt(n) |z|)^2, which is n 2^-53 ||B||_F^2 at
    z = 0: below it the small factors s^2 + eps lose their accuracy, so
    such an eps raises NumericalFailureError instead of returning a wrong
    value.  The matrix is Hermitian positive definite, so the value is
    (1/n) sum log L_ii of its Cholesky factor L; a matrix on which the
    factorization breaks down in floating point raises
    NumericalFailureError too.

    With ``overwrite_a`` the caller gives up ``a``, and S may be formed in
    its memory, as ``numerics.scaled_shift`` documents; the values are the
    same bits either way.
    """
    if eps <= 0.0:
        raise ConfigurationError("regularization eps must be positive")
    s = scaled_shift(a, overwrite_a=overwrite_a)
    n = s.shape[0]
    zs = [complex(z) for z in zs]
    # every floor is checked before S S* is formed; ||S||_F is inf when it
    # overflows, so a matrix whose Gram product would overflow fails here
    with np.errstate(over="ignore"):
        norm_s = float(np.linalg.norm(s))
    for z in zs:
        scale = norm_s + math.sqrt(n) * abs(z)
        floor = n * 2.0 ** -53 * (scale * scale)  # inf, not OverflowError, for a huge z
        if eps < floor:
            raise NumericalFailureError(
                f"eps={eps:.3g} is below the rounding of the Gram matrix at z={z} "
                f"(n 2^-53 (||S||_F + sqrt(n)|z|)^2 = {floor:.3g})")
    gram_s = s @ s.conj().T  # a real s's conj() is s itself, so this is one real syrk
    diagonal = np.diag_indices(n)
    values = []
    for z in zs:
        gram = _shifted_gram(s, gram_s, z)
        gram[diagonal] += z.real * z.real + z.imag * z.imag + eps
        # the factorization is the positive-definiteness check; it reads one
        # triangle, so a complex Gram matrix that is Hermitian only up to
        # rounding is factored as the Hermitian matrix of that triangle
        try:
            factor = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            raise NumericalFailureError(
                f"B B* + eps I is not positive definite in floating point at z={z}, "
                f"eps={eps:.3g}") from None
        values.append(float(np.sum(np.log(factor.diagonal().real))) / n)
        del gram, factor  # do not hold either into the next shift
    return values


def _shifted_gram(s, gram_s, z):
    """S S* - conj(z) S - z S*, written into one new array with no n x n
    temporary for a real S; float64 for a real S at a real z.  For a real
    S at Re z = 0 the real part is a copy of S S*."""
    n = s.shape[0]
    if np.isrealobj(s):
        gram = np.empty((n, n), np.complex128 if z.imag else np.float64)
        re = gram.real  # gram itself when it is float64
        if z.real:
            np.add(s, s.T, out=re)
            re *= -z.real
            re += gram_s
        else:
            re[...] = gram_s
        if z.imag:
            im = gram.imag
            np.subtract(s, s.T, out=im)
            im *= z.imag
        return gram
    w = s * z.conjugate()
    gram = gram_s - w
    gram.real -= w.real.T  # minus (conj(z) S)*, without a conjugate copy
    gram.imag += w.imag.T
    return gram


def log_potential(mu, z):
    """int log|w - z| dmu(w) for the ESD with atoms mu, MINUS_INFINITY when
    z collides with an atom.  For the eigenvalue ESD of A this is f_n(z),
    and one eigendecomposition serves every z."""
    return log_product(np.abs(mu - complex(z))) / mu.size


# ------------------------------------------------------------ Girko identity

def girko_kernel(w, s, u, v):
    """Closed form of the inner t-integral of Girko's identity:
    pi sgn(s - Re w) e^{-v |s - Re w|} e^{ius} e^{iv Im w}, valid for v > 0.
    At s = Re w, where the sign jumps, it raises NumericalFailureError."""
    if v <= 0.0:
        raise ConfigurationError("girko_kernel requires v > 0 (printed kernel diverges otherwise)")
    w = complex(w)
    gap = s - w.real
    if gap == 0.0:
        raise NumericalFailureError("kernel is singular at s = Re(w)")
    sign = 1.0 if gap > 0.0 else -1.0
    return complex(math.pi * sign * math.exp(-v * abs(gap)) * cmath.exp(1j * (u * s + v * w.imag)))


def _smooth_cutoff(x):
    """C-infinity cutoff: 1 on [-1, 1], 0 outside (-2, 2)."""
    ax = np.abs(np.asarray(x, dtype=np.float64))
    out = np.zeros_like(ax)
    out[ax <= 1.0] = 1.0
    mid = (ax > 1.0) & (ax < 2.0)
    t = ax[mid]
    phi_in = np.exp(-1.0 / (2.0 - t))
    phi_out = np.exp(-1.0 / (t - 1.0))
    out[mid] = phi_in / (phi_in + phi_out)
    return out


# Outer-integral quadrature: smooth truncation at |s| ~ r^2, composite
# trapezoid split at every atom's real part, two refinement levels with a
# Richardson check that they agree to the relative tolerance.
_GIRKO_R = 4.0
_GIRKO_COARSE_STEP = 1.0 / 8.0
_GIRKO_FINE_STEP = 1.0 / 16.0
_GIRKO_REL_TOL = 1e-2


def _girko_outer_integral(atoms, u, v, step, r):
    """Trapezoid of the cutoff kernel sum on the grid of spacing ``step``
    and every atom's real part, each sgn(s - Re w) taken at a segment's
    midpoint (exact one-sided limits at jumps), as one (atoms x segments)
    broadcast: about 4 MB per complex array at 200 atoms."""
    r2 = r * r
    lo, hi = -2.0 * r2, 2.0 * r2
    nodes = np.unique(np.concatenate([np.arange(lo, hi + step / 2, step),
                                      np.clip(atoms.real, lo, hi)]))
    left, right = nodes[:-1], nodes[1:]
    re = atoms.real[:, None]
    sign = np.where(0.5 * (left + right) - re > 0.0, 1.0, -1.0)  # (atoms, segments)
    weight = (math.pi * sign) * np.exp(1j * v * atoms.imag)[:, None]

    def g(s):
        kernel = (weight * np.exp(-v * (sign * (s - re)))).sum(axis=0)
        return (2.0 / atoms.size) * kernel * np.exp(1j * u * s) * _smooth_cutoff(s / r2)

    return complex(np.sum((right - left) * (g(left) + g(right)) / 2.0))


def girko_reconstruct(mu, u, v):
    """Recover the characteristic function of the ESD with atoms mu at
    (u, v) from its Stieltjes-like transform through Girko's identity.

    Requires nonzero u and v > 0.  The two refinement levels must agree
    to ``_GIRKO_REL_TOL``; the returned value is the Richardson
    extrapolation of the two trapezoid levels.
    """
    if u == 0.0:
        raise ConfigurationError("girko_reconstruct requires u != 0")
    if v <= 0.0:
        raise ConfigurationError("girko_reconstruct requires v > 0")
    coarse = _girko_outer_integral(mu, u, v, _GIRKO_COARSE_STEP, _GIRKO_R)
    fine = _girko_outer_integral(mu, u, v, _GIRKO_FINE_STEP, _GIRKO_R)
    prefactor = (u * u + v * v) / (4.0j * math.pi * u)
    value = prefactor * (4.0 * fine - coarse) / 3.0
    drift = abs(prefactor * (fine - coarse))
    if drift > _GIRKO_REL_TOL * (1.0 + abs(value)):
        raise NumericalFailureError(
            f"girko quadrature not converged: levels differ by {drift:.3e} at (u={u}, v={v})")
    return complex(value)
