"""Reference laws, the self-consistent solver, inversion."""

import math

import numpy as np
import pytest

from esdlab import (
    ConfigurationError,
    MeasureH,
    NumericalFailureError,
    circular_log_potential,
    invert_stieltjes,
    mp_cdf,
    mp_density,
    mp_reference,
    solve_ds,
)
from esdlab.limits import ds_rhs

DELTA0 = MeasureH.point(0.0)


# -------------------------------------------------------------- circular law

def test_circular_log_potential_closed_forms():
    assert circular_log_potential(0.0) == pytest.approx(-0.5)
    # radial quadrature oracle for the same value: int_0^1 2r log r dr = -1/2
    r = np.linspace(1e-9, 1.0, 400_001)
    assert abs(np.trapezoid(2 * r * np.log(r), r) - (-0.5)) < 1e-6
    assert circular_log_potential(2.0) == pytest.approx(math.log(2.0))
    assert circular_log_potential(2.0j) == pytest.approx(math.log(2.0))


def test_circular_log_potential_mean_value_oracle():
    # 2D midpoint quadrature of int log|w - z| over the unit disk at |z| = 2
    h = 1.0 / 300.0
    xs = np.arange(-1.0 + h / 2, 1.0, h)
    gx, gy = np.meshgrid(xs, xs)
    w = gx + 1j * gy
    inside = np.abs(w) < 1.0
    z = 2.0 * np.exp(0.7j)
    val = np.sum(np.log(np.abs(z - w[inside]))) * h * h / math.pi
    assert abs(val - math.log(2.0)) < 1e-3


def test_circular_log_potential_continuous_at_boundary():
    assert circular_log_potential(1.0) == 0.0
    assert circular_log_potential(np.exp(1j * 0.3)) == pytest.approx(0.0, abs=1e-15)


def test_circular_log_potential_harmonic_outside():
    # discrete 5-point Laplacian at |z| = 2 with step 1e-3
    h = 1e-3
    z = 2.0 * np.exp(0.45j)
    u = circular_log_potential
    lap = (u(z + h) + u(z - h) + u(z + 1j * h) + u(z - 1j * h) - 4 * u(z)) / h**2
    assert abs(lap) < 1e-4


# -------------------------------------------------------------------- solver

def test_solve_ds_matches_quadratic_root_near_minus_one():
    m = solve_ds(DELTA0, 1.0, -1.0 + 1e-9j)
    assert abs(m - (math.sqrt(5.0) - 1.0) / 2.0) < 1e-8


def test_solve_ds_imaginary_part_inside_support():
    m = solve_ds(DELTA0, 1.0, 2.0 + 1e-6j)
    assert abs(m.imag - 0.5) < 1e-5


def test_solve_ds_c_to_zero_is_shifted_stieltjes_transform():
    # as c -> 0 the (1-c) term tends to 1, so the equation reads
    # m = int dH(t) / (t - w + 1): the plain Stieltjes transform of H
    # shifted by +1, not of H itself
    t0 = 2.0
    w = 0.5 + 0.3j
    m = solve_ds(MeasureH.point(t0), 1e-9, w)
    assert abs(m - 1.0 / (t0 + 1.0 - w)) < 1e-6


def test_solve_ds_residual_is_the_gauge():
    for x in np.linspace(0.2, 3.8, 7):
        for eta in (1e-1, 1e-3):
            w = x + 1j * eta
            m = solve_ds(DELTA0, 1.0, w)
            assert abs(m - ds_rhs(m, DELTA0, 1.0, w)) < 1e-10
            assert m.imag > 0.0


@pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
def test_solve_ds_is_the_root_of_the_exact_cubic(t):
    # for H = delta_t and c = 1 the equation is the cubic
    # -w m^3 - 2w m^2 + (t - w - 1) m - 1 = 0; exactly one of its roots has
    # Im m > 0 and Im(w m) > 0 (Im m > 0 alone is ambiguous), and the
    # solver must land on it
    h = MeasureH.point(t)
    for x in np.linspace(0.05, (math.sqrt(t) + 2.0) ** 2 + 1.0, 15):
        for eta in (1e-1, 1e-3):
            w = x + 1j * eta
            roots = np.roots([-w, -2.0 * w, t - w - 1.0, -1.0])
            branch = roots[(roots.imag > 0.0) & ((w * roots).imag > 0.0)]
            assert branch.size == 1, (t, w, roots)
            assert abs(solve_ds(h, 1.0, w) - branch[0]) < 1e-8


@pytest.mark.parametrize("k", [3, 12, 30])
@pytest.mark.parametrize("c", [1.0, 0.5])
@pytest.mark.parametrize("eta", [1e-1, 1e-4])
def test_solve_ds_many_atoms_array_w(k, c, eta):
    rng = np.random.default_rng(k)
    weights = rng.uniform(0.1, 1.0, k)
    h = MeasureH(rng.uniform(0.0, 4.0, k), weights / weights.sum())
    w = np.linspace(0.05, 20.0, 40) + 1j * eta
    m = solve_ds(h, c, w)
    assert m.shape == w.shape
    assert np.all(m.imag > 0.0) and np.all((w * m).imag > 0.0)
    assert np.all(np.abs(m - ds_rhs(m, h, c, w)) <= 1e-10 * np.maximum(1.0, np.abs(m)))
    assert [solve_ds(h, c, wi) for wi in w] == list(m)


def test_solve_ds_rectangular_aspect():
    m = solve_ds(MeasureH.point(1.0), 0.5, 1.2 + 1e-3j)
    assert m.imag > 0.0
    assert abs(m - ds_rhs(m, MeasureH.point(1.0), 0.5, 1.2 + 1e-3j)) < 1e-10


def test_solve_ds_validation():
    with pytest.raises(ConfigurationError):
        solve_ds(DELTA0, 1.0, 2.0 - 1e-3j)
    with pytest.raises(ConfigurationError):
        solve_ds(DELTA0, 0.0, 2.0 + 1e-3j)


def test_solve_ds_huge_atom_fails_without_warnings():
    # pytest turns a RuntimeWarning into an error: no overflowed value may
    # reach the arrowhead.  At w = 0.5 the poles are finite (about 1e150),
    # but Im m is below the resolution of u = 1 + m
    with pytest.raises(NumericalFailureError):
        solve_ds(MeasureH.point(1e300), 1.0, 0.5 + 1e-3j)
    # 4 w t overflows: one message names the overflow and the first such w
    with pytest.raises(NumericalFailureError, match=r"poles overflow at w=\(10000000000\+1j\)"):
        solve_ds(MeasureH.point(1e300), 1.0, np.array([0.5 + 1e-3j, 1e10 + 1j]))
    with pytest.raises(NumericalFailureError, match="poles overflow"):
        solve_ds(MeasureH.point(1e308), 1.0, 1.0 + 1e-3j)


def test_remark_b2_encoding_invariance():
    # two encodings of the same H give identical solutions
    merged = MeasureH(np.array([0.5]), np.array([1.0]))
    split = MeasureH(np.array([0.5, 0.5]), np.array([0.3, 0.7]))
    for x in (0.5, 1.5, 3.0):
        w = x + 1e-3j
        assert abs(solve_ds(merged, 1.0, w) - solve_ds(split, 1.0, w)) < 1e-12


# ------------------------------------------------------ Marchenko-Pastur oracle

def test_mp_reference_closed_forms():
    assert abs(mp_reference(-1.0 + 1e-12j) - (math.sqrt(5.0) - 1.0) / 2.0) < 1e-6
    assert mp_density(2.0) == pytest.approx(1.0 / (2.0 * math.pi))
    assert mp_density(5.0) == 0.0
    w = 1.3 + 0.2j
    m = mp_reference(w)
    assert abs(w * m * m + w * m + 1.0) < 1e-12
    assert m.imag > 0.0


def test_mp_cdf_matches_density():
    xs = np.linspace(0.05, 3.95, 40)
    h = 1e-6
    for x in xs:
        deriv = (mp_cdf(x + h) - mp_cdf(x - h)) / (2 * h)
        assert abs(deriv - mp_density(x)) < 1e-5
    assert mp_cdf(0.0) == 0.0 and mp_cdf(4.0) == pytest.approx(1.0)


def test_solver_against_oracle_sweep():
    grid = np.linspace(0.1, 3.9, 50)
    worst = max(abs(solve_ds(DELTA0, 1.0, x + 1e-3j) - mp_reference(x + 1e-3j))
                for x in grid)
    assert worst < 1e-8


# ----------------------------------------------------------------- inversion

def test_inversion_recovers_mp_density():
    grid = np.linspace(0.1, 3.9, 381)
    sol = invert_stieltjes(lambda w: solve_ds(DELTA0, 1.0, w), grid, (1e-3, 1e-4), 1e-3)
    assert np.all(sol.density >= 0.0)
    assert np.max(np.abs(sol.density - mp_density(grid))) < 1e-2


def test_inversion_mass_on_wide_grid():
    # hard edge at 0: the limiting density diverges, so the pointwise
    # agreement gate must be relaxed; total mass still lands near 1
    grid = np.linspace(0.0, 4.0, 1601)
    sol = invert_stieltjes(lambda w: solve_ds(DELTA0, 1.0, w), grid,
                           eta_schedule=(1e-2, 1e-3), agreement_tol=10.0)
    assert abs(sol.total_mass() - 1.0) <= 0.02


def test_inversion_default_spec_schedule_trips_gate_near_hard_edge():
    # the density near x = 0.1 changes by ~4e-3 between eta = 1e-2 and
    # 1e-3, beyond the 1e-3 gate
    grid = np.linspace(0.1, 3.9, 96)
    with pytest.raises(NumericalFailureError, match="eta levels not converged"):
        invert_stieltjes(lambda w: solve_ds(DELTA0, 1.0, w), grid,
                         eta_schedule=(1e-2, 1e-3), agreement_tol=1e-3)


def test_inversion_solves_once_per_level():
    heights = []

    def solve(w):
        heights.append(float(w.imag[0]))
        return solve_ds(DELTA0, 1.0, w)

    sol = invert_stieltjes(solve, np.linspace(0.1, 3.9, 1521), (1e-3, 1e-4), 1e-3)
    assert heights == [1e-3, 1e-4]
    assert sol.eta == 1e-4


def test_inversion_schedule_validation():
    solve = lambda w: solve_ds(DELTA0, 1.0, w)
    with pytest.raises(ConfigurationError):
        invert_stieltjes(solve, np.array([1.0]), eta_schedule=(1e-3, 1e-2),
                         agreement_tol=1e-3)
    with pytest.raises(ConfigurationError):
        invert_stieltjes(solve, np.array([1.0]), eta_schedule=(1e-3, 0.0),
                         agreement_tol=1e-3)
    with pytest.raises(ConfigurationError):
        invert_stieltjes(solve, np.array([1.0]), eta_schedule=(1e-3,),
                         agreement_tol=1e-3)
    with pytest.raises(ConfigurationError):  # only the last two levels would be read
        invert_stieltjes(solve, np.array([1.0]), eta_schedule=(1e-1, 1e-2, 1e-3),
                         agreement_tol=1e-3)
    # no floor on the final eta: at 1e-8 the direct solver meets the MP density
    grid = np.linspace(0.1, 3.9, 1521)
    sol = invert_stieltjes(solve, grid, eta_schedule=(1e-6, 1e-8), agreement_tol=1e-3)
    assert sol.eta == 1e-8
    assert np.max(np.abs(sol.density - mp_density(grid))) < 1e-12


def test_stieltjes_cdf_helper():
    grid = np.linspace(0.1, 3.9, 381)
    sol = invert_stieltjes(lambda w: solve_ds(DELTA0, 1.0, w), grid, (1e-3, 1e-4), 1e-3)
    cdf_vals = sol.cdf(np.array([0.0, 2.0, 5.0]))
    assert cdf_vals[0] == 0.0
    assert cdf_vals[2] <= 1.0
    assert abs(cdf_vals[1] - (mp_cdf(2.0) - mp_cdf(0.1))) < 0.01


# ------------------------------------------------------------------ measure H

def test_measure_h_validation():
    with pytest.raises(ConfigurationError):
        MeasureH(np.array([-1.0]), np.array([1.0]))
    with pytest.raises(ConfigurationError):
        MeasureH(np.array([1.0]), np.array([0.5]))
    with pytest.raises(ConfigurationError):
        MeasureH(np.array([1.0, 2.0]), np.array([1.0]))
