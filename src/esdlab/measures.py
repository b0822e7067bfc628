"""Empirical spectral distributions, transforms, and distances.

The 1/sqrt(n) spectral normalization is applied exactly once, by
``numerics.scaled_shift``; everything downstream works with
already-normalized atoms.  ``esd_eigen`` and ``dilation_esd`` are
entries: each validates A once, in ``scaled_shift``, and hands the
result to the ``eigenvalues`` or ``singular_values`` kernel, which does
not validate it again.  ``esd_eigen`` returns an ``EmpiricalMeasure2D``;
``dilation_esd`` returns the signed atoms of the dilation spectrum as a
plain float64 array, the form ``ks_two_sample`` takes.  The
singular-value law of A/sqrt(n) - zI has its one entry in
``hermitization.shifted_singular_values``.

Vague convergence is operationalized by ``bl_distance`` against a fixed,
versioned dictionary of bounded 1-Lipschitz bump functions; the grid
extent, the three dyadic spacings and the member ordering are part of
the external contract so distances are comparable across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .numerics import eigenvalues, scaled_shift, singular_values


@dataclass(frozen=True)
class EmpiricalMeasure2D:
    """Finite atomic probability measure on the complex plane, weight 1/n each."""

    atoms: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.atoms, dtype=np.complex128))
        if a.ndim != 1 or a.size == 0:
            raise ConfigurationError("measure needs a nonempty 1-D atom array")
        if not np.all(np.isfinite(a)):
            raise ConfigurationError("measure atoms must be finite")
        object.__setattr__(self, "atoms", a)

    @property
    def size(self):
        return self.atoms.size


def esd_eigen(a, *, overwrite_a=False):
    """Eigenvalue ESD of A/sqrt(n); ``overwrite_a`` lets A be scaled in
    place (see ``numerics.scaled_shift``)."""
    return EmpiricalMeasure2D(eigenvalues(scaled_shift(a, overwrite_a=overwrite_a)))


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
    """Integral of |z|^2 against the measure (tightness gauge)."""
    return float(np.mean(np.abs(mu.atoms) ** 2))


def characteristic_function(mu, u, v):
    """(1/n) sum_j exp(i u Re atom_j + i v Im atom_j); bounded by 1."""
    a = mu.atoms
    return complex(np.mean(np.exp(1j * (u * a.real + v * a.imag))))


class TestFunctionDictionary:
    """Products of triangular bumps on a fixed grid at dyadic spacings.

    Member (h, cx, cy) evaluates to (h/sqrt(2)) tri((x-cx)/h) tri((y-cy)/h)
    with tri(t) = max(0, 1-|t|); the amplitude h/sqrt(2) makes every
    member exactly 1-Lipschitz on the plane with sup at most 1.
    Ordering: coarsest spacing first, centers lexicographic in (cx, cy).
    """

    __test__ = False  # not a pytest class despite the name

    EXTENT = 3.0
    SPACINGS = (1.0, 0.5, 0.25)

    def centers(self, h):
        k = int(round(2.0 * self.EXTENT / h))
        return np.linspace(-self.EXTENT, self.EXTENT, k + 1)

    def member_means(self, mu):
        """Integral of every member against mu, in dictionary order."""
        x = mu.atoms.real
        y = mu.atoms.imag
        out = []
        for h in self.SPACINGS:
            cs = self.centers(h)
            amp = h / math.sqrt(2.0)
            tx = np.clip(1.0 - np.abs((x[None, :] - cs[:, None]) / h), 0.0, None)
            ty = np.clip(1.0 - np.abs((y[None, :] - cs[:, None]) / h), 0.0, None)
            means = amp * (tx @ ty.T) / mu.size   # [cx, cy] -> mean_j tx*ty
            out.append(means.ravel())
        return np.concatenate(out)


def bl_distance(mu1, mu2):
    """Max over dictionary members of |int f dmu1 - int f dmu2|."""
    d = TestFunctionDictionary()
    return float(np.max(np.abs(d.member_means(mu1) - d.member_means(mu2))))


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
    rel = mu.atoms - complex(center)
    radial = ks_vs_cdf(np.abs(rel), radial_cdf)
    angular = ks_vs_cdf(np.angle(rel), lambda t: (t + math.pi) / (2.0 * math.pi))
    return radial, angular
