"""Reference limiting laws and the Dozier-Silverstein equation.

``solve_ds`` finds the upper-half-plane solution m(w) of

    m = sum_k h_k / ( t_k/(1+c m) - (1+c m) w + (1-c) )

on a whole grid of w at once, as an eigenvalue of one small arrowhead
matrix per point; the acceptance gauge is the residual of the equation
itself.  ``invert_stieltjes`` recovers the real-line density as
(1/pi) Im m(x + i eta) at the lower of two eta levels, with an agreement
gate between the densities at both.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalFailureError
from .numerics import eigenvalues


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


# ------------------------------------------------------ self-consistent solver

def ds_rhs(m, h, c, w):
    """Right-hand side of the self-consistent equation at m (m, w broadcast)."""
    u = 1.0 + c * np.asarray(m)[..., None]
    denom = h.atoms / u - u * np.asarray(w)[..., None] + (1.0 - c)
    return np.sum(h.weights / denom, axis=-1)


def _solve_block(h, c, w):
    """``solve_ds`` on a 1-d array of points, before its residual check."""
    w = w[:, None]
    b = 1.0 - c
    # atom t > 0: h u / (t + b u - w u^2) = sum of a_r / (u - r) over the roots
    # r of w u^2 - b u - t, taken without cancellation; atom 0: one pole b / w
    t, ht = h.atoms[h.atoms > 0.0], h.weights[h.atoms > 0.0]
    # a huge w t overflows here; the finiteness check below reports it once
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s = np.sqrt(b * b + 4.0 * w * t)
        q = b + np.where(b * s.real >= 0.0, s, -s)
        r1, r2 = q / (2.0 * w), -2.0 * t / q
        poles, residues = [r1, r2], [ht * r1 / (w * (r2 - r1)), ht * r2 / (w * (r1 - r2))]
        h0 = h.weights[h.atoms == 0.0].sum()
        if h0 > 0.0:
            poles.append(b / w)
            residues.append(-h0 / w)
        poles, residues = np.concatenate(poles, axis=1), np.concatenate(residues, axis=1)
    bad = ~np.all(np.isfinite(poles) & np.isfinite(residues), axis=1)
    if bad.any():
        raise NumericalFailureError(f"the poles overflow at w={w[bad][0, 0]}")
    # u - 1 = c sum_j a_j / (u - p_j) holds at the eigenvalues u of the
    # arrowhead [[1, v^T], [v, diag(p)]] with v_j^2 = c a_j
    arrow = np.eye(poles.shape[1] + 1) * np.concatenate([np.ones_like(w), poles], axis=1)[:, None]
    arrow[:, 0, 1:] = arrow[:, 1:, 0] = np.sqrt(c * residues)
    roots = (eigenvalues(arrow) - 1.0) / c
    branch = (roots.imag > 0.0) & ((w * roots).imag > 0.0)
    bad = branch.sum(axis=1) != 1
    if bad.any():
        raise NumericalFailureError(f"not one root with Im m > 0, Im(w m) > 0 at w={w[bad][0, 0]}")
    m = roots[branch]
    # one Newton step on m - RHS(m), where d RHS/dm = -c sum_j a_j / (u - p_j)^2
    slope = 1.0 + c * np.sum(residues / (1.0 + c * m[:, None] - poles) ** 2, axis=1)
    return m - (m - ds_rhs(m, h, c, w[:, 0])) / slope


def solve_ds(h, c, w):
    """Upper-half-plane solution m(w) of the self-consistent equation, at a
    scalar w or elementwise on an array of w: the one eigenvalue of an
    arrowhead matrix per point (one batched ``numerics.eigenvalues`` per block)
    with Im m > 0 and Im(w m) > 0, else NumericalFailureError, after one
    Newton step.  The residual, at most 1e-10 max(1, |m|), is the only
    acceptance test.
    """
    if not isinstance(h, MeasureH):
        raise ConfigurationError("h must be a MeasureH")
    if c <= 0.0:
        raise ConfigurationError("aspect ratio c must be positive")
    w = np.asarray(w, dtype=np.complex128)
    if np.any(w.imag <= 0.0):
        raise ConfigurationError("solve_ds requires Im w > 0")
    flat = w.ravel()
    block = max(1, 2**18 // (2 * h.atoms.size + 1) ** 2)
    m = np.concatenate([_solve_block(h, c, flat[i:i + block])
                        for i in range(0, flat.size, block)])
    residual = np.abs(m - ds_rhs(m, h, c, flat)) / np.maximum(1.0, np.abs(m))
    if not np.all(residual <= 1e-10):
        worst = float(np.max(residual))
        raise NumericalFailureError(f"relative residual {worst:.3e} > 1e-10")
    return complex(m[0]) if w.ndim == 0 else m.reshape(w.shape)


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
    raise NumericalFailureError(f"no Im m > 0 root at w={w}")


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

@dataclass(frozen=True)
class StieltjesSolution:
    """Sampled m along Im w = eta plus the recovered real-line density."""

    eta: float
    x_grid: np.ndarray
    m_values: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        if np.any(np.asarray(self.m_values).imag <= 0.0):
            raise NumericalFailureError("StieltjesSolution requires Im m > 0 on the whole grid")

    def cdf(self, x):
        """Cumulative trapezoid of the recovered density, clipped to [0, 1]."""
        xs = np.asarray(self.x_grid)
        cum = np.concatenate([[0.0], np.cumsum(np.diff(xs) * 0.5 * (self.density[1:] + self.density[:-1]))])
        return np.clip(np.interp(np.asarray(x, dtype=np.float64), xs, cum, left=0.0, right=cum[-1]), 0.0, 1.0)

    def total_mass(self):
        return float(np.trapezoid(self.density, self.x_grid))


def invert_stieltjes(solve, x_grid, eta_schedule, agreement_tol):
    """Recover density(x) = (1/pi) Im m(x + i eta) at the lower of two eta levels.

    ``eta_schedule`` is the pair (eta_coarse, eta_fine), positive and
    strictly decreasing.  ``solve`` maps an array of w in the upper
    half-plane to m(w); it is called once per level on the whole grid.
    The run is accepted only when the densities at the two levels agree
    to ``agreement_tol`` in sup norm; hard-edge grids (where the limit
    density diverges) need a looser gate, chosen explicitly by the
    caller.
    """
    etas = tuple(float(e) for e in eta_schedule)
    if len(etas) != 2 or not etas[0] > etas[1] > 0.0:
        raise ConfigurationError("eta_schedule must be two positive levels, strictly decreasing")
    x = np.asarray(x_grid, dtype=np.float64)
    coarse, fine = (np.asarray(solve(x + 1j * eta), dtype=np.complex128) for eta in etas)
    density = fine.imag / math.pi
    gap = np.abs(density - coarse.imag / math.pi)
    sup_diff = float(np.max(gap))
    if sup_diff > agreement_tol:
        raise NumericalFailureError(
            f"eta levels not converged: their densities differ by {sup_diff:.3e} "
            f"(worst at x={x[int(np.argmax(gap))]:.6g}, tol {agreement_tol:.3e})")
    return StieltjesSolution(etas[1], x, fine, density)
