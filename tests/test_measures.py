"""ESD construction, transforms, distances."""

import math
import tracemalloc

import numpy as np
import pytest

from esdlab import (
    ConfigurationError,
    RngStream,
    bl_distance,
    build_iid_matrix,
    characteristic_function,
    dilation_esd,
    esd_eigen,
    hs_norm,
    ks_two_sample,
    ks_vs_cdf,
    mp_cdf,
    radial_angular_ks,
    scalar_distribution,
    second_moment,
    shifted_singular_values,
)
from esdlab.limits import circular_radial_cdf
from esdlab.measures import bump_means
from esdlab.numerics import singular_values


def _gaussian_matrix(n, stream):
    return build_iid_matrix(n, scalar_distribution("real_gaussian"), RngStream(77, stream))


# ------------------------------------------------------------------ esd_eigen

def test_esd_eigen_scaled_identity():
    n = 4
    mu = esd_eigen(math.sqrt(n) * np.eye(n))
    assert np.allclose(mu, 1.0)


def test_esd_eigen_zero_matrix():
    assert np.allclose(esd_eigen(np.zeros((5, 5))), 0.0)


def test_esd_eigen_normalization_applied_once():
    n = 9
    mu = esd_eigen(math.sqrt(n) * np.diag([2.0] * n))
    assert np.allclose(mu, 2.0)


def test_esd_eigen_real_spectrum_is_complex128():
    # LAPACK returns float64 eigenvalues when all of them are real
    for a in (np.array([[3.0]]), math.sqrt(3) * np.diag([1.0, -2.0, 0.5])):
        assert np.linalg.eigvals(a).dtype == np.float64
        mu = esd_eigen(a)
        assert mu.dtype == np.complex128 and mu.shape == (a.shape[0],)


def test_esd_eigen_in_place_allocates_no_matrix_copy():
    # numpy reports its array buffers to tracemalloc (LAPACK's working copy
    # inside eigvals is not one), so scaling x in place leaves only the
    # n*n booleans of the finiteness check; a scaled copy alone is x.nbytes
    x = _gaussian_matrix(300, 5)
    tracemalloc.start()
    try:
        esd_eigen(x, overwrite_a=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * x.nbytes


# --------------------------------------------------------------- Gram ESD
# The ESD of B B* with B = A/sqrt(n) - zI: its atoms are the squares of
# shifted_singular_values(a, z).

def test_esd_gram_zero_matrix_unit_shift():
    assert np.allclose(shifted_singular_values(np.zeros((3, 3)), 1.0) ** 2, 1.0)


def test_esd_gram_diag_atoms():
    n = 2
    atoms = shifted_singular_values(math.sqrt(n) * np.diag([2.0, 0.0]), 0.0) ** 2
    assert np.allclose(sorted(atoms), [0.0, 4.0])


def test_esd_gram_against_marchenko_pastur():
    atoms = shifted_singular_values(_gaussian_matrix(1000, 0), 0.0) ** 2
    assert ks_vs_cdf(atoms, mp_cdf) < 0.05


def test_esd_gram_second_moment_trace_identity():
    # the atoms are squared singular values, so their mean is exactly the
    # normalized Hilbert-Schmidt norm of the shifted matrix
    a = _gaussian_matrix(60, 1)
    z = 0.7 + 0.3j
    atoms = shifted_singular_values(a, z) ** 2
    n = a.shape[0]
    shifted = a / math.sqrt(n) - z * np.eye(n)
    expected = hs_norm(shifted) ** 2 / n
    assert abs(float(np.mean(atoms)) - expected) <= 1e-10 * expected


def test_second_moment_overflow_is_inf_without_a_warning():
    # |1e200|^2 overflows; the moment records inf, and under the tier-1
    # filter (every RuntimeWarning an error) it raises nothing
    assert second_moment(np.array([1e200 + 0j])) == math.inf


# ----------------------------------------------------- characteristic function

def test_char_fn_origin_is_one():
    mu = np.array([0.3 + 1j, -2.0, 5j])
    assert characteristic_function(mu, 0.0, 0.0) == pytest.approx(1.0)


def test_char_fn_point_mass():
    mu = np.array([1.0 + 0j])
    assert characteristic_function(mu, math.pi, 0.0) == pytest.approx(-1.0)


def test_char_fn_two_points_cosine():
    mu = np.array([1.0 + 0j, -1.0 + 0j])
    for t in (0.3, 1.0, 2.5):
        assert characteristic_function(mu, t, 0.0) == pytest.approx(math.cos(t), abs=1e-12)


def test_char_fn_bounded_by_one():
    rng = np.random.default_rng(0)
    mu = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    for u, v in [(0.5, -1.0), (3.0, 2.0), (-7.0, 0.1)]:
        assert abs(characteristic_function(mu, u, v)) <= 1.0 + 1e-12


# ------------------------------------------------------------------ dictionary

def _point_mass_means(z):
    """Every dictionary member evaluated at z, in dictionary order."""
    return bump_means(np.array([complex(z)]))


def test_dictionary_size_and_order_fixed():
    means = _point_mass_means(-3.0 - 3.0j)
    assert means.size == 7 * 7 + 13 * 13 + 25 * 25 == 843
    # coarsest spacing first; a member peaks at h/sqrt(2) on its own center
    first = {1.0: 0, 0.5: 7 * 7, 0.25: 7 * 7 + 13 * 13}
    for h, i in first.items():
        assert means[i] == pytest.approx(h / math.sqrt(2.0), rel=1e-15)
    assert np.count_nonzero(means) == 3
    # centers lexicographic in (cx, cy): cy runs fastest
    assert np.flatnonzero(_point_mass_means(-3.0 - 2.0j))[0] == 1
    assert np.flatnonzero(_point_mass_means(-2.0 - 3.0j))[0] == 7


def test_dictionary_members_bounded_and_lipschitz():
    rng = np.random.default_rng(2)
    z1 = rng.uniform(-4, 4, 200) + 1j * rng.uniform(-4, 4, 200)
    z2 = z1 + rng.uniform(-1, 1, 200) + 1j * rng.uniform(-1, 1, 200)
    for a, b in zip(z1, z2):
        f1 = _point_mass_means(a)
        f2 = _point_mass_means(b)
        assert np.max(np.abs(f1)) <= 1.0
        assert np.all(np.abs(f1 - f2) <= abs(a - b) + 1e-12)


def test_bl_distance_identical_measures():
    mu = np.array([0.2 + 0.1j, -1.0, 0.5j])
    assert bl_distance(mu, mu) == 0.0


def test_bl_distance_lipschitz_bound():
    assert bl_distance(np.array([0j]), np.array([0.1 + 0j])) <= 0.1


def test_bl_distance_pseudometric():
    rng = np.random.default_rng(3)
    ms = [rng.standard_normal(30) + 1j * rng.standard_normal(30) for _ in range(3)]
    d01 = bl_distance(ms[0], ms[1])
    d10 = bl_distance(ms[1], ms[0])
    assert d01 == d10
    assert bl_distance(ms[0], ms[2]) <= d01 + bl_distance(ms[1], ms[2]) + 1e-15


def test_bl_distance_independent_gaussian_pairs():
    # ten independent pairs at n = 1000 all land below 0.05
    for k in range(10):
        a = esd_eigen(_gaussian_matrix(1000, 10 + 2 * k))
        b = esd_eigen(_gaussian_matrix(1000, 11 + 2 * k))
        assert bl_distance(a, b) < 0.05


# -------------------------------------------------------------------- KS stats

def test_radial_ks_quantile_construction():
    n = 200
    j = np.arange(1, n + 1)
    atoms = np.sqrt(j / n) * np.exp(2j * math.pi * j / n)
    rks, _ = radial_angular_ks(atoms, circular_radial_cdf)
    assert rks <= 1.0 / n + 1e-12


def test_radial_ks_point_mass_saturates():
    rks, _ = radial_angular_ks(np.array([0j]), circular_radial_cdf)
    assert rks == pytest.approx(1.0)


def test_radial_ks_bernoulli_cloud():
    x = build_iid_matrix(1000, scalar_distribution("bernoulli"), RngStream(6, 0))
    rks, aks = radial_angular_ks(esd_eigen(x), circular_radial_cdf)
    assert rks < 0.05 and aks < 0.05


def test_ks_two_sample_basics():
    assert ks_two_sample([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert ks_two_sample([0.0], [1.0]) == 1.0


# ---------------------------------------------------------------- second moment

def test_second_moment_point_masses():
    assert second_moment(np.array([1.0 + 0j])) == 1.0
    assert second_moment(np.array([0j])) == 0.0


def test_second_moment_tightness_gate():
    # Weyl bound: int |z|^2 dESD <= (1/n^2)||X||_2^2 ; the eigenvalue ESD
    # of an iid matrix actually concentrates near 1/2 (circular limit)
    x = _gaussian_matrix(1000, 30)
    mu = esd_eigen(x)
    bound = hs_norm(x) ** 2 / 1000**2
    assert second_moment(mu) <= bound + 1e-9
    assert 0.4 < second_moment(mu) < 0.6


# ----------------------------------------------------------------- dilation

def test_dilation_zero_matrix():
    assert np.allclose(dilation_esd(np.zeros((3, 3))), 0.0)


def test_dilation_single_entry():
    assert list(dilation_esd(np.array([[3.0]]))) == [-3.0, 3.0]


def test_dilation_symmetry_and_positive_part():
    a = _gaussian_matrix(40, 31)
    atoms = dilation_esd(a)
    assert np.array_equal(np.sort(atoms), np.sort(-atoms))
    pos = np.sort(atoms[atoms > 0])
    assert np.allclose(pos, np.sort(singular_values(a / math.sqrt(40))))
    assert atoms.size == 2 * 40


# ---------------------------------------------------------------- validation

def test_measure_validation():
    # an ESD is validated where it is made: scaled_shift rejects the matrix
    with pytest.raises(ConfigurationError):
        esd_eigen(np.empty((0, 0)))
    with pytest.raises(ConfigurationError):
        esd_eigen(np.array([[np.inf]]))
