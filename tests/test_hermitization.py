"""Log-determinant fields, regularization, and Girko's identity."""

import cmath
import itertools
import math

import numpy as np
import pytest

from esdlab import (
    BaseMatrixSpec,
    ConfigurationError,
    MINUS_INFINITY,
    NumericalFailureError,
    RngStream,
    assemble,
    build_base_matrix,
    build_iid_matrix,
    characteristic_function,
    esd_eigen,
    girko_kernel,
    girko_reconstruct,
    hs_norm,
    log_det_at,
    log_potential,
    regularized_log_det,
    scalar_distribution,
    shifted_singular_values,
)
from esdlab import _lapack, hermitization
from esdlab.numerics import scaled_shift


def _gaussian(n, stream):
    return build_iid_matrix(n, scalar_distribution("real_gaussian"), RngStream(99, stream))


# ------------------------------------------------------------------ the field

def test_field_of_scaled_identity_is_exact():
    z0 = 0.75 - 0.5j
    n = 6
    a = math.sqrt(n) * z0 * np.eye(n)
    mu = esd_eigen(a)
    offsets = (np.arange(6) + 0.5) * 0.5 - 1.5
    for z in (complex(x, y) for y in offsets for x in offsets):
        expected = math.log(abs(z0 - z))
        assert log_det_at(a, [z])[0] == pytest.approx(expected, rel=0, abs=1e-12)
        assert log_potential(mu, z) == pytest.approx(expected, rel=0, abs=1e-12)


def test_field_zero_matrix():
    assert log_det_at(np.zeros((4, 4)), [2.0])[0] == pytest.approx(math.log(2.0), rel=1e-12)


def test_field_flags_exactly_singular_shift():
    n = 3
    # z = 0.5 is an eigenvalue of A/sqrt(n)
    a = math.sqrt(n) * np.diag([0.5, 1.5, 2.5])
    assert log_det_at(a, [0.5])[0] == MINUS_INFINITY


def test_field_gaussian_matches_circular_potential():
    a = _gaussian(1000, 0)
    assert abs(log_det_at(a, [0.0])[0] - (-0.5)) < 0.05
    assert abs(log_det_at(a, [2.0])[0] - math.log(2.0)) < 0.05


def test_far_field_asymptotics():
    a = _gaussian(20, 1)
    norm = hs_norm(a / math.sqrt(20))
    for z in (2.5 * norm, (2.2 * norm) * 1j, -3.0 * norm):
        bound = norm / (abs(z) - norm)
        assert abs(log_det_at(a, [z])[0] - math.log(abs(z))) <= bound
        # grid invariant: beyond ||A/sqrt(n)|| + 1 the field dominates
        assert log_det_at(a, [z])[0] >= math.log(abs(z) - norm) - 1e-12


# ----------------------------------------------------- the shifted spectrum

_SHIFTS = (0.0, 0.5, 2.0, 0.5 + 0.5j)


def _complex_route(a, z):
    """Singular values through a complex identity shift and a complex SVD."""
    n = a.shape[0]
    return np.linalg.svd(a / math.sqrt(n) - complex(z) * np.eye(n), compute_uv=False)


def test_shifted_singular_values_match_complex_route():
    a = _gaussian(50, 5)
    for z in _SHIFTS:
        s = shifted_singular_values(a, z)
        ref = _complex_route(a, z)
        assert np.all(np.diff(s) <= 0.0)
        assert np.max(np.abs(s - ref)) <= 1e-12 * ref[0]


def test_shifted_matrix_is_complex_only_at_non_real_shift(monkeypatch):
    dtypes = []
    svd = hermitization.singular_values

    def spy(m):
        dtypes.append(m.dtype)
        return svd(m)

    monkeypatch.setattr(hermitization, "singular_values", spy)
    a = _gaussian(50, 5)
    for z in _SHIFTS:
        shifted_singular_values(a, z)
    assert dtypes == [np.float64, np.float64, np.float64, np.complex128]


def test_shifted_singular_values_requires_square():
    with pytest.raises(ConfigurationError):
        shifted_singular_values(np.ones((3, 4)), 0.5)


def test_log_det_reductions_of_the_shared_spectrum():
    # the LU reduction of B and the Cholesky reduction of B B* + eps I agree
    # with the singular values of a complex SVD; the regularized values come
    # from one Gram product over the whole grid.  The complex S S* from zgemm
    # need not be exactly Hermitian (with BLAS on one thread it is not at
    # any of these n), and the Cholesky factor reads one triangle of it
    for n, law in itertools.product((7, 50, 123), ("real_gaussian", "complex_gaussian")):
        eps = n ** -0.1
        a = build_iid_matrix(n, scalar_distribution(law), RngStream(99, 5))
        f_regs = regularized_log_det(a, _SHIFTS, eps)
        assert len(f_regs) == len(_SHIFTS)
        for z, value in zip(_SHIFTS, f_regs):
            ref = _complex_route(a, z)
            f_n = float(np.sum(np.log(ref))) / n
            f_reg = float(np.sum(np.log(ref * ref + eps))) / (2.0 * n)
            assert log_det_at(a, [z])[0] == pytest.approx(f_n, rel=0, abs=1e-13)
            assert value == pytest.approx(f_reg, rel=0, abs=1e-13)


# -------------------------------------------------------------- regularization

def test_regularized_closed_form():
    assert regularized_log_det(np.zeros((3, 3)), [0.0], math.e**2) == [pytest.approx(1.0)]


def test_regularized_at_zero_shift_is_the_gram_of_a_over_sqrt_n():
    # at z = 0 the shifted Gram matrix is S S* itself, so the value is bit
    # for bit that of one Cholesky factor L of S S* + eps I, sum log L_ii / n,
    # for real and complex A
    n, eps = 40, 1e-3
    for law in ("real_gaussian", "complex_gaussian"):
        a = build_iid_matrix(n, scalar_distribution(law), RngStream(99, 6))
        s = a / math.sqrt(n)
        factor = np.linalg.cholesky(s @ s.conj().T + eps * np.eye(n))
        expected = float(np.sum(np.log(factor.diagonal().real))) / n
        assert regularized_log_det(a, [0.0], eps)[0] == expected


def test_regularized_overwrite_a_gives_the_same_values():
    # overwrite_a lets S = A/sqrt(n) be formed in the memory of A; the values
    # are the same bits, and without the flag A is left untouched
    n, eps, zs = 40, 1e-3, [0.0, 0.5, 0.5 + 0.5j, 2.0]
    for law in ("real_gaussian", "complex_gaussian"):
        a = build_iid_matrix(n, scalar_distribution(law), RngStream(99, 7))
        kept = a.copy()
        expected = regularized_log_det(a, zs, eps)
        assert np.array_equal(a, kept)
        assert regularized_log_det(a, zs, eps, overwrite_a=True) == expected


def test_regularized_monotone_and_convergent():
    a = _gaussian(30, 2)
    base = log_det_at(a, [0.3])[0]
    values = [regularized_log_det(a, [0.3], eps)[0] for eps in (1e-2, 1e-4, 1e-6)]
    assert values[0] > values[1] > values[2] >= base
    assert values[2] - base < 1e-3


def test_regularized_requires_positive_eps():
    with pytest.raises(ConfigurationError):
        regularized_log_det(np.eye(2), [0.0], 0.0)


def test_regularized_not_positive_definite_names_the_shift(monkeypatch):
    # a Cholesky factorization that breaks down is the failure of the
    # positive-definiteness check, reported with its shift and eps, both by
    # LAPACK's potrf in place and, with the library hidden, by numpy's
    # cholesky: the Gram update here leaves B B* + eps I = -0.499 I
    def negative_definite(s, gram_s, z):
        return -np.eye(s.shape[0], dtype=complex, order="F")

    monkeypatch.setattr(hermitization, "_shifted_gram", negative_definite)
    for hidden in (False, True):
        with monkeypatch.context() as patch:
            if hidden:
                patch.setattr(_lapack, "library", lambda: None)
            with pytest.raises(NumericalFailureError,
                               match=r"z=\(0\.5\+0\.5j\), eps=0\.001"):
                regularized_log_det(_gaussian(10, 3), [0.5 + 0.5j], 1e-3)


def test_regularized_rejects_eps_below_gram_rounding():
    # B = ones(4, 4) has rank one and eps = 1e-300 is lost against ||B||^2 = 16
    with pytest.raises(NumericalFailureError):
        regularized_log_det(2.0 * np.ones((4, 4)), [0.0], 1e-300)
    # a complex B = A/sqrt(n) with its smallest singular value set to 1e-8 to
    # 1e-6 of its largest: ||B||_F^2 is about 100 ||B||^2, so the floor
    # n 2^-53 ||B||_F^2 sits near 5e-12 ||B||^2; every eps below it is
    # rejected, and the first decade above it is accurate
    n = 400
    g = build_iid_matrix(n, scalar_distribution("complex_gaussian"), RngStream(7, 0))
    u, s, vh = np.linalg.svd(g / math.sqrt(n))
    for rel in (1e-8, 1e-7, 1e-6):
        s[-1] = rel * s[0]
        a = math.sqrt(n) * ((u * s) @ vh)
        for scale in (1e-15, 1e-14, 1e-13, 1e-12):
            with pytest.raises(NumericalFailureError):
                regularized_log_det(a, [0.0], scale * s[0] ** 2)
        eps = 1e-11 * s[0] ** 2
        exact = float(np.sum(np.log(s * s + eps))) / (2.0 * n)
        assert regularized_log_det(a, [0.0], eps)[0] == pytest.approx(exact, rel=0, abs=1e-8)


def test_regularized_floor_grows_with_the_shift():
    # S = 8I + X/sqrt(n) from a sqrt(n)-scaled two-block base at z = 8:
    # B = X/sqrt(n) is O(1), but the Gram update sums terms of size 64, so
    # the floor is n 2^-53 (||S||_F + sqrt(n)|z|)^2, not n 2^-53 ||B||_F^2
    n, z = 200, 8.0
    base = build_base_matrix(BaseMatrixSpec("two_block_diagonal", a=8.0, b=8.0, split=0.5,
                                            scale_by_sqrt_n=True), n)
    a = assemble(base, _gaussian(n, 7))
    norm_s = float(np.linalg.norm(a / math.sqrt(n)))
    floor = n * 2.0 ** -53 * (norm_s + math.sqrt(n) * z) ** 2
    assert floor > 100.0 * n * 2.0 ** -53 * float(np.linalg.norm(scaled_shift(a, z))) ** 2
    with pytest.raises(NumericalFailureError):
        regularized_log_det(a, [z], 0.99 * floor)
    eps = 10.0 * floor
    s = shifted_singular_values(a, z)
    exact = float(np.sum(np.log(s * s + eps))) / (2.0 * n)
    assert regularized_log_det(a, [z], eps)[0] == pytest.approx(exact, rel=0, abs=1e-8)


@pytest.mark.xfail(strict=True,
                   reason="eps = n^-0.1 is ~0.5 at n = 1000 and shifts the regularized "
                          "value by ~0.6, so it cannot sit within 0.05 of the "
                          "unregularized limit; kept red rather than loosened")
def test_regularized_with_slow_schedule_near_circular_potential():
    a = _gaussian(1000, 3)
    eps = 1000.0 ** -0.1
    assert abs(regularized_log_det(a, [0.0], eps)[0] - (-0.5)) < 0.05


def test_regularized_with_fast_schedule_near_circular_potential():
    # same check with an eps that is actually small at n = 1000
    a = _gaussian(1000, 3)
    eps = 1000.0 ** -1.5
    assert abs(regularized_log_det(a, [0.0], eps)[0] - (-0.5)) < 0.05


# --------------------------------------------------- hermitization consistency

def test_log_det_equals_half_mean_log_gram():
    a = _gaussian(50, 4)
    for z in (0.0, 0.5, 0.5 + 0.5j, 2.0):
        f = log_det_at(a, [z])[0]
        s = shifted_singular_values(a, z)
        half = 0.5 * float(np.mean(np.log(s * s)))
        assert abs(f - half) <= 1e-10 * max(abs(f), 1.0)


def test_log_potential_of_esd_matches_field():
    a = _gaussian(40, 5)
    mu = esd_eigen(a)
    for z in (0.2 + 0.1j, 1.5, -0.7j):
        assert abs(log_potential(mu, z) - log_det_at(a, [z])[0]) < 1e-8


# ---------------------------------------------------------------- log-potential

def test_log_potential_point_masses():
    assert log_potential(np.array([0j]), math.e) == pytest.approx(1.0)
    mu = np.array([1.0 + 0j, -1.0 + 0j])
    assert log_potential(mu, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_log_potential_atom_collision():
    assert log_potential(np.array([1.0 + 0j]), 1.0) == MINUS_INFINITY


# -------------------------------------------------------------- girko kernel

def test_kernel_direct_substitution():
    assert girko_kernel(0j, 1.0, 0.0, 1.0) == pytest.approx(math.pi * math.exp(-1.0))


def test_kernel_structure():
    w = 0.3 + 0.8j
    for s in (w.real + 0.7, w.real - 0.7):
        val = girko_kernel(w, s, 1.3, 0.9)
        assert abs(val) == pytest.approx(math.pi * math.exp(-0.9 * 0.7), rel=1e-12)
    plus = girko_kernel(w, w.real + 0.7, 1.3, 0.9)
    minus = girko_kernel(w, w.real - 0.7, 1.3, 0.9)
    # the sign factor flips while |value| stays even in s - Re w
    assert (plus / abs(plus)) == pytest.approx(
        -(minus / abs(minus)) * cmath.exp(1j * 1.3 * 1.4), rel=1e-10)


def test_kernel_singularity_and_domain():
    with pytest.raises(NumericalFailureError, match="kernel is singular at s = Re"):
        girko_kernel(1.0 + 1j, 1.0, 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        girko_kernel(0j, 1.0, 1.0, -1.0)


def _simpson(f, a, b, n):
    if n % 2:
        n += 1
    x = np.linspace(a, b, n + 1)
    y = f(x)
    return (b - a) / n / 3.0 * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-1:2].sum())


def test_kernel_matches_t_quadrature_oracle():
    # the inner t-integral, integrated numerically on [-50, 50]
    w, s, u, v = 1.0 + 1.0j, 2.0, 1.0, 1.0

    def integrand(t):
        zw = s + 1j * t - w
        return zw.real / np.abs(zw) ** 2 * np.exp(1j * (u * s + v * t))

    numeric = _simpson(integrand, -50.0, 50.0, 200_000)
    assert abs(numeric - girko_kernel(w, s, u, v)) < 1e-3


# --------------------------------------------------------- girko reconstruct

def test_reconstruct_point_mass_at_origin():
    mu = np.array([0j])
    assert abs(girko_reconstruct(mu, 1.0, 1.0) - 1.0) < 1e-3


def test_reconstruct_shifted_point_mass():
    mu = np.array([1.0 + 1.0j])
    assert abs(girko_reconstruct(mu, 1.0, 2.0) - cmath.exp(3j)) < 1e-3


def test_reconstruct_small_esd_matches_characteristic_function():
    a = np.array([[0.4, -1.1, 0.0, 0.3],
                  [0.9, 0.2, -0.5, 0.1],
                  [0.0, 0.7, -0.3, 0.8],
                  [-0.2, 0.1, 0.6, -0.9]])
    mu = esd_eigen(2.0 * a)
    for u, v in ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0)):
        direct = characteristic_function(mu, u, v)
        assert abs(girko_reconstruct(mu, u, v) - direct) < 1e-3


def test_reconstruct_domain_checks():
    mu = np.array([0j])
    with pytest.raises(ConfigurationError):
        girko_reconstruct(mu, 0.0, 1.0)
    with pytest.raises(ConfigurationError):
        girko_reconstruct(mu, 1.0, -1.0)
