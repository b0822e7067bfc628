"""Reference limiting laws and the Dozier-Silverstein fixed point.

``solve_ds`` finds the upper-half-plane solution m(w) of

    m = sum_k h_k / ( t_k/(1+c m) - (1+c m) w + (1-c) )

by damped fixed-point iteration; the acceptance gauge is the residual of
the equation itself, never the iteration count.  ``invert_stieltjes``
recovers the real-line density as (1/pi) Im m(x + i eta) along a
decreasing eta schedule with an agreement gate between the last two
levels.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchError, ConfigurationError, SolverFailureError


# ---------------------------------------------------------------- circular law

def circular_log_potential(z):
    """int log|w - z| d(circular law)(w): log|z| outside, (|z|^2-1)/2 inside."""
    r = abs(complex(z))
    return math.log(r) if r >= 1.0 else 0.5 * (r * r - 1.0)


def circular_radial_cdf(r):
    """CDF of |z| under the circular law: r^2 on [0, 1]."""
    return np.clip(np.asarray(r, dtype=np.float64), 0.0, 1.0) ** 2


# ----------------------------------------------------------- measure H on R+

@dataclass(frozen=True)
class MeasureH:
    """Atomic measure on [0, inf): the limit of the base-matrix Gram ESD."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.atoms, dtype=np.float64))
        w = np.atleast_1d(np.asarray(self.weights, dtype=np.float64))
        if a.shape != w.shape or a.ndim != 1 or a.size == 0:
            raise ConfigurationError("MeasureH needs matching nonempty atom/weight arrays")
        if np.any(a < 0.0):
            raise ConfigurationError("MeasureH atoms must be nonnegative")
        if np.any(w < 0.0) or abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise ConfigurationError("MeasureH weights must be nonnegative and sum to 1")
        object.__setattr__(self, "atoms", a)
        object.__setattr__(self, "weights", w)

    @classmethod
    def point(cls, t0):
        return cls(np.array([float(t0)]), np.array([1.0]))


# ------------------------------------------------------- fixed-point solver

def ds_rhs(m, h, c, w):
    """Right-hand side of the self-consistent equation at trial value m."""
    denom = h.atoms / (1.0 + c * m) - (1.0 + c * m) * w + (1.0 - c)
    return complex(np.sum(h.weights / denom))


def solve_ds(h, c, w, damping=0.5, tol=1e-10, max_iter=10_000):
    """Upper-half-plane solution of the self-consistent equation at w.

    Damped iteration m <- (1-a) m + a RHS(m) from m0 = i.  Residual
    below ``tol`` is the only acceptance condition; a converged fixed
    point with Im m <= 0 raises BranchError.

    The damping adapts on genuine divergence only: when the iterate goes
    non-finite or the residual blows past 1e6 times the best residual
    seen, the step is halved and the iterate reset to the best point.
    Near spectral edges the convergent spiral legitimately rebounds by
    factors of order 1/theta (theta the contraction phase), so any
    aggressive residual-increase trigger stalls convergence; transient
    growth of six orders cannot occur on a convergent path with the
    eta >= 1e-6 evaluation points used here.
    """
    if not isinstance(h, MeasureH):
        raise ConfigurationError("h must be a MeasureH")
    if c <= 0.0:
        raise ConfigurationError("aspect ratio c must be positive")
    w = complex(w)
    if w.imag <= 0.0:
        raise ConfigurationError("solve_ds requires Im w > 0")
    if not 0.0 < damping <= 1.0:
        raise ConfigurationError("damping must lie in (0, 1]")
    m = 1j
    alpha = float(damping)
    best_m, best_residual = m, math.inf
    residual = math.inf
    for iteration in range(1, max_iter + 1):
        rhs = ds_rhs(m, h, c, w)
        residual = abs(rhs - m)
        if residual < tol:
            if m.imag <= 0.0:
                raise BranchError(f"fixed point at w={w} has Im m = {m.imag:.3e} <= 0",
                                  residual=residual, iterations=iteration)
            return m
        diverging = not math.isfinite(residual) or residual > 1e6 * best_residual
        if diverging and alpha > 1.0 / 64.0:
            alpha /= 2.0
            m = best_m
            continue
        if residual < best_residual:
            best_residual, best_m = residual, m
        m = (1.0 - alpha) * m + alpha * rhs
    raise SolverFailureError(f"no fixed point at w={w} after {max_iter} iterations",
                             residual=residual, iterations=max_iter)


# ------------------------------------------------- Marchenko-Pastur oracle

def mp_reference(w):
    """Closed-form solution for H = delta_0, c = 1: root of w m^2 + w m + 1 = 0
    on the Im m > 0 branch."""
    w = complex(w)
    if w.imag <= 0.0:
        raise ConfigurationError("mp_reference requires Im w > 0")
    disc = cmath.sqrt(w * w - 4.0 * w)
    roots = ((-w + disc) / (2.0 * w), (-w - disc) / (2.0 * w))
    for m in roots:
        if m.imag > 0.0:
            return m
    raise BranchError(f"no Im m > 0 root at w={w}")


def mp_density(x):
    """Marchenko-Pastur density (1/2pi) sqrt((4-x)/x) on (0, 4]."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    inside = (x > 0.0) & (x <= 4.0)
    out[inside] = np.sqrt((4.0 - x[inside]) / x[inside]) / (2.0 * math.pi)
    return out if out.ndim else float(out)


def mp_cdf(x):
    """Closed-form CDF of the Marchenko-Pastur law with c = 1."""
    x = np.clip(np.asarray(x, dtype=np.float64), 0.0, 4.0)
    return np.sqrt(x * (4.0 - x)) / (2.0 * math.pi) + (2.0 / math.pi) * np.arcsin(np.sqrt(x) / 2.0)


# -------------------------------------------------------- Stieltjes inversion

DEFAULT_ETA_SCHEDULE = (1e-1, 1e-2, 1e-3, 1e-4)


@dataclass(frozen=True)
class StieltjesSolution:
    """Sampled m along Im w = eta plus the recovered real-line density."""

    eta: float
    x_grid: np.ndarray
    m_values: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        if np.any(np.asarray(self.m_values).imag <= 0.0):
            raise BranchError("StieltjesSolution requires Im m > 0 on the whole grid")

    def cdf(self, x):
        """Cumulative trapezoid of the recovered density, clipped to [0, 1]."""
        xs = np.asarray(self.x_grid)
        cum = np.concatenate([[0.0], np.cumsum(np.diff(xs) * 0.5 * (self.density[1:] + self.density[:-1]))])
        return np.clip(np.interp(np.asarray(x, dtype=np.float64), xs, cum, left=0.0, right=cum[-1]), 0.0, 1.0)

    def total_mass(self):
        return float(np.trapezoid(self.density, self.x_grid))


def invert_stieltjes(solve, x_grid, eta_schedule=DEFAULT_ETA_SCHEDULE, agreement_tol=1e-3):
    """Recover density(x) = (1/pi) Im m(x + i eta_final) along an eta schedule.

    ``solve`` maps w in the upper half-plane to m(w).  The run is
    accepted only when the densities at the last two eta levels agree to
    ``agreement_tol`` in sup norm; hard-edge grids (where the limit
    density diverges) need a looser gate, chosen explicitly by the
    caller.
    """
    etas = [float(e) for e in eta_schedule]
    if len(etas) < 2 or any(b >= a for a, b in zip(etas, etas[1:])):
        raise ConfigurationError("eta schedule must be strictly decreasing with >= 2 levels")
    if etas[-1] < 1e-6:
        raise ConfigurationError("final eta must be at least 1e-6")
    x = np.asarray(x_grid, dtype=np.float64)
    densities = []
    m_final = None
    for eta in etas:
        m = np.array([solve(xi + 1j * eta) for xi in x], dtype=np.complex128)
        densities.append(m.imag / math.pi)
        m_final = m
    sup_diff = float(np.max(np.abs(densities[-1] - densities[-2])))
    if sup_diff > agreement_tol:
        worst = int(np.argmax(np.abs(densities[-1] - densities[-2])))
        raise SolverFailureError(
            f"eta schedule not converged: last two levels differ by {sup_diff:.3e} "
            f"(worst at x={x[worst]:.6g}, tol {agreement_tol:.3e})",
            residual=sup_diff)
    return StieltjesSolution(etas[-1], x, m_final, densities[-1])
