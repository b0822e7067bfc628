"""Empirical spectral distributions, transforms, and distances.

An ESD is its atom array: the eigenvalue ESD of A is the 1-D complex128
array of the eigenvalues of A/sqrt(n), each atom of weight 1/n, and
every function here that takes a plane measure takes that array.  The
1/sqrt(n) spectral normalization is applied exactly once, by
``numerics.scaled_shift``; everything downstream works with
already-normalized atoms.  ``esd_eigen`` and ``dilation_esd`` are
entries: each validates A once, in ``scaled_shift``, and hands the
result to the ``eigenvalues`` or ``singular_values`` kernel, which does
not validate it again but raises on a spectrum that is not finite, so
every ESD is nonempty and finite where it is made.  ``dilation_esd``
returns the signed atoms of the dilation spectrum as a float64 array,
the form ``ks_two_sample`` takes.  The singular-value law of
A/sqrt(n) - zI has its one entry in
``hermitization.shifted_singular_values``.

Vague convergence is operationalized by ``bl_distance`` against a fixed,
versioned dictionary of bounded 1-Lipschitz bump functions; the grid
extent, the three dyadic spacings and the member ordering are part of
the external contract so distances are comparable across runs.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import eigenvalues, scaled_shift, singular_values


def esd_eigen(a, *, overwrite_a=False):
    """Eigenvalue ESD of A/sqrt(n) as its n atoms, complex128 also when
    every eigenvalue is real (LAPACK then returns float64); ``overwrite_a``
    lets A be scaled in place (see ``numerics.scaled_shift``)."""
    lam = eigenvalues(scaled_shift(a, overwrite_a=overwrite_a))
    return lam.astype(np.complex128, copy=False)


def dilation_esd(a):
    """ESD of the 2n-by-2n Hermitian dilation [[0, A/sqrt(n)], [*, 0]],
    returned as its 2n signed atoms, each of weight 1/(2n).

    The atoms are exactly the positive and negative singular values of
    A/sqrt(n), in increasing order; the set is negation-symmetric by
    construction.
    """
    s = singular_values(scaled_shift(a))
    return np.concatenate([-s, s[::-1]])


def second_moment(mu):
    """Integral of |z|^2 against the ESD with atoms mu (tightness gauge);
    inf, without a warning, when |z|^2 overflows."""
    with np.errstate(over="ignore"):
        return float(np.mean(np.abs(mu) ** 2))


def characteristic_function(mu, u, v):
    """(1/n) sum_j exp(i u Re mu_j + i v Im mu_j); bounded by 1."""
    return complex(np.mean(np.exp(1j * (u * mu.real + v * mu.imag))))


# The bounded-Lipschitz test functions: for each spacing h of BL_SPACINGS
# and each centre (cx, cy) of the grid of spacing h on
# [-BL_EXTENT, BL_EXTENT]^2, the member (h/sqrt(2)) tri((x-cx)/h) tri((y-cy)/h)
# with tri(t) = max(0, 1-|t|).  The amplitude h/sqrt(2) makes every
# member exactly 1-Lipschitz on the plane with sup at most 1.
# Ordering: coarsest spacing first, centres lexicographic in (cx, cy).
BL_EXTENT = 3.0
BL_SPACINGS = (1.0, 0.5, 0.25)


def bump_means(mu):
    """Integral of every test function against the ESD with atoms mu, in
    dictionary order."""
    x = mu.real
    y = mu.imag
    out = []
    for h in BL_SPACINGS:
        cs = np.linspace(-BL_EXTENT, BL_EXTENT, int(round(2.0 * BL_EXTENT / h)) + 1)
        amp = h / math.sqrt(2.0)
        with np.errstate(over="ignore"):  # an infinite offset is a zero bump
            tx = np.clip(1.0 - np.abs((x[None, :] - cs[:, None]) / h), 0.0, None)
            ty = np.clip(1.0 - np.abs((y[None, :] - cs[:, None]) / h), 0.0, None)
        means = amp * (tx @ ty.T) / mu.size   # [cx, cy] -> mean_j tx*ty
        out.append(means.ravel())
    return np.concatenate(out)


def bl_distance(mu1, mu2):
    """Max over the test functions of |int f dmu1 - int f dmu2|."""
    return float(np.max(np.abs(bump_means(mu1) - bump_means(mu2))))


def ks_vs_cdf(samples, cdf):
    """One-sample Kolmogorov-Smirnov statistic against a CDF callable."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = x.size
    f = np.asarray(cdf(x), dtype=np.float64)
    i = np.arange(1, n + 1)
    return float(max(np.max(np.abs(f - i / n)), np.max(np.abs(f - (i - 1) / n))))


def ks_two_sample(a, b):
    """Two-sample Kolmogorov-Smirnov statistic between atom sets."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def radial_angular_ks(mu, radial_cdf, center=0j):
    """KS statistics of |atom-center| against radial_cdf and of the
    argument against the uniform law on (-pi, pi]."""
    rel = mu - complex(center)
    radial = ks_vs_cdf(np.abs(rel), radial_cdf)
    angular = ks_vs_cdf(np.angle(rel), lambda t: (t + math.pi) / (2.0 * math.pi))
    return radial, angular
