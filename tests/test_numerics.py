"""Spectral kernels against closed forms and an independent root oracle."""

import math

import numpy as np
import pytest

from esdlab import (
    MINUS_INFINITY,
    ConfigurationError,
    NumericalFailureError,
    assemble,
    dilation_esd,
    esd_eigen,
    hs_norm,
    leave_one_out_distances,
    log_abs_det,
    log_det_at,
    regularized_log_det,
    shifted_singular_values,
    verify_interlacing,
    verify_weyl,
)
import esdlab
from esdlab import numerics
from esdlab.harness import config_from_dict, run_experiment
from esdlab.numerics import eigenvalues, row_distances, scaled_shift, singular_values

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def _rand(rng, *shape, cplx=True):
    a = rng.standard_normal(shape)
    return a + 1j * rng.standard_normal(shape) if cplx else a


# ------------------------------------------------ characteristic-polynomial
# oracle: trace-based coefficients plus a Durand-Kerner root finder, a
# route fully independent of the LAPACK eigensolver.

def char_poly_coeffs(a):
    """Monic characteristic polynomial coefficients via Faddeev-LeVerrier."""
    n = a.shape[0]
    coeffs = [1.0 + 0j]
    m = np.zeros_like(a, dtype=complex)
    c = 1.0 + 0j
    for k in range(1, n + 1):
        m = a @ m + c * np.eye(n)
        c = -np.trace(a @ m) / k
        coeffs.append(c)
    return np.array(coeffs)


def durand_kerner(coeffs, iters=2000):
    n = len(coeffs) - 1
    roots = (0.4 + 0.9j) ** np.arange(1, n + 1)
    for _ in range(iters):
        moved = 0.0
        for i in range(n):
            denom = np.prod(roots[i] - np.delete(roots, i))
            step = np.polyval(coeffs, roots[i]) / denom
            roots[i] -= step
            moved = max(moved, abs(step))
        if moved < 1e-13:
            break
    return roots


def greedy_pair_distance(a, b):
    """Max nearest-neighbor gap in a greedy multiset matching."""
    b = list(b)
    worst = 0.0
    for x in a:
        j = int(np.argmin([abs(x - y) for y in b]))
        worst = max(worst, abs(x - b.pop(j)))
    return worst


# --------------------------------------------------------------- eigenvalues

def test_eigen_identity():
    assert np.allclose(sorted(eigenvalues(np.eye(3)).real), [1, 1, 1])


def test_eigen_rotation():
    lam = eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert greedy_pair_distance(lam, [1j, -1j]) < 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_eigen_matches_characteristic_polynomial_oracle(seed):
    rng = np.random.default_rng(1000 + seed)
    n = 4 + seed % 5  # n <= 8
    a = _rand(rng, n, n, cplx=seed % 2 == 0)
    lam = eigenvalues(a)
    oracle = durand_kerner(char_poly_coeffs(a.astype(complex)))
    assert greedy_pair_distance(oracle, lam) < 1e-6 * (1.0 + hs_norm(a))


def test_eigen_trace_and_det_consistency():
    rng = np.random.default_rng(5)
    a = _rand(rng, 12, 12)
    lam = eigenvalues(a)
    assert abs(np.sum(lam) - np.trace(a)) <= 1e-8 * (1.0 + abs(np.trace(a)))
    sign, logdet = np.linalg.slogdet(a)
    assert abs(np.sum(np.log(np.abs(lam))) - logdet) < 1e-6


def test_eigen_jordan_block_best_effort():
    # defective matrix: computed eigenvalues cluster within ~eps^(1/k)
    j = np.diag(np.ones(3), 1)
    lam = eigenvalues(j)
    assert np.max(np.abs(lam)) < 1e-3


# ----------------------------------------------------------- singular values

def test_svd_diag():
    assert np.allclose(singular_values(np.diag([3.0, -4.0])), [4.0, 3.0])


def test_svd_shear_golden_ratio():
    s = singular_values(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert np.allclose(s, [PHI, 1.0 / PHI], rtol=1e-12)


def test_svd_product_is_abs_det():
    rng = np.random.default_rng(6)
    a = _rand(rng, 9, 9)
    _, logdet = np.linalg.slogdet(a)
    assert abs(np.sum(np.log(singular_values(a))) - logdet) < 1e-8


def test_svd_sum_of_squares_is_hs_norm():
    rng = np.random.default_rng(7)
    a = _rand(rng, 8, 13)
    s = singular_values(a)
    assert abs(np.sum(s**2) - hs_norm(a) ** 2) <= 1e-10 * hs_norm(a) ** 2


def test_svd_unitary_invariance():
    rng = np.random.default_rng(8)
    a = _rand(rng, 10, 10)
    q1, _ = np.linalg.qr(_rand(rng, 10, 10))
    q2, _ = np.linalg.qr(_rand(rng, 10, 10))
    assert np.allclose(singular_values(q1 @ a @ q2), singular_values(a), rtol=1e-8)


def test_overflowing_decomposition_is_a_numerical_failure():
    # finite entries, but the eigenvalues and singular values (±sqrt(2)·1.7e308)
    # overflow to inf
    a = np.array([[1.7e308, 1.7e308], [1.7e308, -1.7e308]])
    with pytest.raises(NumericalFailureError):
        singular_values(a)
    with pytest.raises(NumericalFailureError):
        eigenvalues(a)


# -------------------------------------------------------------- row distances

def test_row_distances_diagonal():
    assert np.allclose(row_distances(np.diag([3.0, 4.0])), [3.0, 4.0])


def test_row_distances_shear():
    d = row_distances(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert np.allclose(d, [math.sqrt(2), 1 / math.sqrt(2)], rtol=1e-12)
    assert abs(np.prod(d) - 1.0) < 1e-12


def test_row_distance_product_matches_singular_product():
    rng = np.random.default_rng(9)
    a = _rand(rng, 5, 5)
    assert abs(np.sum(np.log(row_distances(a))) - np.sum(np.log(singular_values(a)))) < 1e-8


def test_row_distances_rank_deficient_prefix():
    a = np.array([[1.0, 0.0], [2.0, 0.0]])
    d = row_distances(a)
    assert d[0] == 1.0 and d[1] < 1e-12
    # a row that is a multiple of row 0 up to rounding adds no direction:
    # every d_i, before and after it, is the least-squares residual of row
    # i against the earlier rows (a reflector built from the dependent
    # row's rounding residue would move every later d_i by O(1))
    rng = np.random.default_rng(31)
    for n in (3, 6, 20):
        for cplx in (False, True):
            for at in (1, n // 2):
                a = _rand(rng, n, n, cplx=cplx)
                a[at] = (0.3 + 0.7j if cplx else 0.3) * a[0]
                d = row_distances(a)
                for i in range(n):
                    x = np.linalg.lstsq(a[:i].T, a[i])[0] if i else np.zeros(0)
                    residual = np.linalg.norm(a[i] - a[:i].T @ x)
                    assert abs(d[i] - residual) <= 1e-12 * np.linalg.norm(a), (n, cplx, at, i)


# ----------------------------------------------------------- leave-one-out

def test_leave_one_out_diagonal():
    d = leave_one_out_distances(np.diag([1.0, 2.0]))
    assert np.allclose(d, [1.0, 2.0])
    s = singular_values(np.diag([1.0, 2.0]))
    assert abs(np.sum(s**-2.0) - 1.25) < 1e-14


def test_leave_one_out_shear_identity():
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    d = leave_one_out_distances(a)
    assert np.allclose(sorted(d), sorted([1.0, 1 / math.sqrt(2)]), rtol=1e-12)
    s = singular_values(a)
    assert abs(np.sum(d**-2.0) - 3.0) < 1e-12
    assert abs(np.sum(s**-2.0) - 3.0) < 1e-12


@pytest.mark.parametrize("shape", [(4, 7), (6, 6), (3, 10)])
def test_negative_second_moment_identity(shape):
    rng = np.random.default_rng(sum(shape))
    a = _rand(rng, *shape)
    s = singular_values(a)
    d = leave_one_out_distances(a)
    lhs = np.sum(s**-2.0)
    assert abs(lhs - np.sum(d**-2.0)) <= 1e-9 * lhs


def test_leave_one_out_requires_full_rank():
    a = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])
    with pytest.raises(NumericalFailureError, match="requires a full-rank matrix"):
        leave_one_out_distances(a)
    with pytest.raises(ConfigurationError):
        leave_one_out_distances(np.ones((4, 2)))


# ------------------------------------------------------------- log|det|

def test_log_abs_det_closed_forms():
    assert log_abs_det(np.eye(5)) == pytest.approx(0.0, abs=1e-12)
    assert log_abs_det(np.diag([math.e, math.e**2])) == pytest.approx(3.0, rel=1e-12)


def test_log_abs_det_methods_agree():
    rng = np.random.default_rng(10)
    a = _rand(rng, 10, 10)
    assert abs(log_abs_det(a, "via_singular") - log_abs_det(a, "via_distances")) < 1e-6
    assert abs(log_abs_det(a, "via_lu") - log_abs_det(a, "via_singular")) < 1e-12
    assert abs(log_abs_det(a, "via_eigenvalues") - log_abs_det(a, "via_singular")) < 1e-12


def test_log_abs_det_minus_infinity_marker():
    # the marker is reserved for exact (underflow-level) zeros, never a
    # smoothed large-negative float
    assert log_abs_det(np.diag([1.0, 0.0])) == MINUS_INFINITY
    assert log_abs_det(np.zeros((3, 3))) == MINUS_INFINITY
    repeated_row = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert log_abs_det(repeated_row, "via_distances") == MINUS_INFINITY
    assert log_abs_det(repeated_row, "via_lu") == MINUS_INFINITY  # an exactly zero pivot
    assert log_abs_det(repeated_row, "via_eigenvalues") == MINUS_INFINITY
    assert log_abs_det(np.diag([1.0, 0.0]), "via_eigenvalues") == MINUS_INFINITY
    # nearly singular but nonzero stays finite (and very negative)
    nearly = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert math.isfinite(log_abs_det(nearly)) and log_abs_det(nearly) < -30.0
    with pytest.raises(ConfigurationError):
        log_abs_det(nearly, "via_magic")
    for method in ("via_lu", "via_eigenvalues", "via_singular", "via_distances"):
        with pytest.raises(ConfigurationError):
            log_abs_det(np.ones((2, 3)), method)


# ---------------------------------------------- one validation per matrix
# The exported functions that take a matrix validate it; the kernels
# eigenvalues, singular_values, row_distances and lu_log_abs_det trust their
# caller and are not exported from esdlab.

def test_kernels_are_not_exported():
    for name in ("eigenvalues", "singular_values", "row_distances", "lu_log_abs_det"):
        assert callable(getattr(numerics, name)) and not hasattr(esdlab, name), name


_MALFORMED = {"non_square": np.ones((3, 4)),
              "non_finite": np.array([[1.0, np.nan], [0.0, 1.0]]),
              "one_d": np.ones(4)}

_NORMALIZED = {
    "esd_eigen": esd_eigen,
    "dilation_esd": dilation_esd,
    "shifted_singular_values": lambda a: shifted_singular_values(a, 0.5),
    "log_det_at": lambda a: log_det_at(a, 0.5),
    "regularized_log_det": lambda a: regularized_log_det(a, [0.5], 0.1),
}


@pytest.mark.parametrize("bad", sorted(_MALFORMED))
@pytest.mark.parametrize("name", sorted(_NORMALIZED))
def test_normalized_matrix_is_validated(name, bad):
    with pytest.raises(ConfigurationError):
        _NORMALIZED[name](_MALFORMED[bad])


# the other exported functions that take a matrix, each with the inputs
# that are malformed for it: a wide matrix has a Frobenius norm and
# leave-one-out distances, and assembly leaves finiteness to the entry
# that decomposes its result
_ENTRIES = {
    "hs_norm": (hs_norm, ("non_finite", "one_d")),
    "leave_one_out_distances": (leave_one_out_distances, ("non_finite", "one_d")),
    "log_abs_det": (log_abs_det, tuple(_MALFORMED)),
    "verify_interlacing": (lambda a: verify_interlacing(a, 1), tuple(_MALFORMED)),
    "verify_weyl": (verify_weyl, tuple(_MALFORMED)),
    "assemble": (lambda a: assemble(None, a), ("non_square", "one_d")),
}


@pytest.mark.parametrize("name,bad", [(name, bad) for name in sorted(_ENTRIES)
                                      for bad in _ENTRIES[name][1]])
def test_matrix_entry_is_validated(name, bad):
    with pytest.raises(ConfigurationError):
        _ENTRIES[name][0](_MALFORMED[bad])


_A = np.arange(16.0).reshape(4, 4) + np.eye(4)

# validation passes (as_matrix calls) of one call of each entry
_VALIDATIONS_PER_CALL = {
    "esd_eigen": (lambda: esd_eigen(_A), 1),
    "dilation_esd": (lambda: dilation_esd(_A), 1),
    "shifted_singular_values": (lambda: shifted_singular_values(_A, 0.5), 1),
    "log_abs_det_via_lu": (lambda: log_abs_det(_A, "via_lu"), 1),
    "log_abs_det_via_eigenvalues": (lambda: log_abs_det(_A, "via_eigenvalues"), 1),
    "log_abs_det_via_singular": (lambda: log_abs_det(_A, "via_singular"), 1),
    "log_abs_det_via_distances": (lambda: log_abs_det(_A, "via_distances"), 1),
    "hs_norm": (lambda: hs_norm(_A), 1),
    "leave_one_out_distances": (lambda: leave_one_out_distances(_A), 1),
    "verify_interlacing": (lambda: verify_interlacing(_A, 1), 1),
    "verify_weyl": (lambda: verify_weyl(_A), 1),
    # A in scaled_shift; its shifted B goes to the lu_log_abs_det kernel
    "log_det_at": (lambda: log_det_at(_A, 0.5), 1),
}


def count_validations(monkeypatch):
    """A list that grows by one entry per ``numerics.as_matrix`` call."""
    calls = []
    validate = numerics.as_matrix

    def counting(a):
        calls.append(np.shape(a))
        return validate(a)
    monkeypatch.setattr(numerics, "as_matrix", counting)
    return calls


@pytest.mark.parametrize("name", sorted(_VALIDATIONS_PER_CALL))
def test_each_matrix_is_validated_once_per_call(monkeypatch, name):
    call, expected = _VALIDATIONS_PER_CALL[name]
    calls = count_validations(monkeypatch)
    call()
    assert len(calls) == expected, calls


_SIZES = {"schema_version": 1, "master_seed": 20260808, "dist_x": {"kind": "real_gaussian"},
          "trials": 2}
# validation passes of one run: the circular and universality trials
# validate each matrix once per ESD, tails hands its drawn matrices to the
# SVD kernel, lemmas validates each case once per entry it calls (ten for
# each of the 26 square cases, one for each of the 24 wide ones, three for
# the edge cases), and hermitize validates A for the Gram product and once
# per log_det_at
_VALIDATIONS_PER_RUN = {
    "circular": ({**_SIZES, "experiment": "circular", "n_list": [40]}, 2),
    "universality": ({**_SIZES, "experiment": "universality", "n_list": [20],
                      "dist_y": {"kind": "bernoulli"}}, 8),
    "tails": ({**_SIZES, "experiment": "tails", "n_list": [20, 40], "distance_n": 100,
               "distance_d": 50, "distance_trials": 10}, 0),
    "lemmas": ({"schema_version": 1, "master_seed": 20260808, "experiment": "lemmas",
                "lemma_cases": 50, "max_size": 8}, 287),
    "hermitize": ({**_SIZES, "experiment": "hermitize", "n_list": [30],
                   "z_grid": [0.0, 0.5, [0.5, 0.5], 2.0]}, 10),
}


@pytest.mark.parametrize("experiment", sorted(_VALIDATIONS_PER_RUN))
def test_validations_per_run(monkeypatch, tmp_path, experiment):
    raw, expected = _VALIDATIONS_PER_RUN[experiment]
    cfg = config_from_dict(raw)
    calls = count_validations(monkeypatch)
    run_experiment(cfg, tmp_path)
    assert len(calls) == expected


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
def test_zero_shift_is_bitwise_a_over_sqrt_n(cplx):
    rng = np.random.default_rng(14)
    n = 9
    a = _rand(rng, n, n, cplx=cplx)
    a[np.diag_indices(n)] = complex(-0.0, -0.0) if cplx else -0.0
    assert np.all(np.signbit(a.diagonal().real))
    scaled = a / math.sqrt(n)
    assert np.array_equal(esd_eigen(a), np.linalg.eigvals(scaled))
    s = np.linalg.svd(scaled, compute_uv=False)
    assert np.array_equal(dilation_esd(a), np.concatenate([-s, s[::-1]]))
    # overwrite_a gives the copy's bits, and reuses a exactly when the
    # result needs no other dtype; without it a is left untouched
    for z in (0, 0.5, 0.5 + 0.5j):
        before = a.copy()
        copied = scaled_shift(a, z)
        assert np.array_equal(a, before) and copied is not a
        given = a.copy()
        reused = scaled_shift(given, z, overwrite_a=True)
        assert reused.dtype == copied.dtype
        assert reused.tobytes() == copied.tobytes()
        assert (reused is given) == (cplx or complex(z).imag == 0.0)


def test_overwrite_a_copies_what_it_cannot_reuse():
    ints = np.arange(16).reshape(4, 4)
    out = scaled_shift(ints, overwrite_a=True)
    assert out.dtype == np.float64 and np.array_equal(ints, np.arange(16).reshape(4, 4))
    frozen = np.eye(4)
    frozen.flags.writeable = False
    assert scaled_shift(frozen, 0.5, overwrite_a=True) is not frozen
    assert np.array_equal(frozen, np.eye(4))
    # validation comes before any write
    for bad in (np.full((2, 3), 2.0), np.array([[2.0, np.nan], [2.0, 2.0]])):
        with pytest.raises(ConfigurationError):
            scaled_shift(bad, overwrite_a=True)
        assert bad[1, 1] == 2.0


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.longdouble, np.int32, np.bool_,
                                   np.complex64, np.clongdouble])
def test_other_dtypes_are_converted_to_double_precision(dtype):
    rng = np.random.default_rng(5)
    a = rng.standard_normal((50, 50))
    if np.dtype(dtype).kind == "c":
        a = a + 1j * rng.standard_normal((50, 50))
    a = a.astype(dtype)
    double = a.astype(np.complex128 if np.dtype(dtype).kind == "c" else np.float64)
    assert numerics.as_matrix(a).dtype == double.dtype
    # LAPACK sees the same double-precision entries, so the atoms agree bit for bit
    assert np.array_equal(esd_eigen(a), esd_eigen(double))


# ------------------------------------------------------------------ hs norm

def test_hs_norm_values():
    assert hs_norm(np.eye(4)) == pytest.approx(2.0)
    assert hs_norm(np.array([[3.0, 4.0], [0.0, 0.0]])) == pytest.approx(5.0)


# ------------------------------------------------------------- interlacing

def _interlacing_slack(a):
    """Rounding allowance of an interlacing check: 1e-9 sigma_1(A)."""
    return 1e-9 * singular_values(a)[0]


def test_interlacing_diag_chain():
    # removing the last row of diag(1,2,3): 3 >= 2 >= 2 >= 1 >= 1
    a = np.diag([1.0, 2.0, 3.0])
    assert verify_interlacing(a, 1) <= _interlacing_slack(a)


def test_interlacing_single_row_norm():
    rng = np.random.default_rng(11)
    a = _rand(rng, 6, 6)
    assert verify_interlacing(a, 5) <= _interlacing_slack(a)
    assert singular_values(a)[0] >= np.linalg.norm(a[0]) - 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_interlacing_random_sweep(k):
    rng = np.random.default_rng(200 + k)
    for _ in range(200):
        a = _rand(rng, 8, 8)
        assert verify_interlacing(a, k) <= _interlacing_slack(a)


def test_interlacing_validation():
    with pytest.raises(ConfigurationError):
        verify_interlacing(np.eye(3), 3)


# --------------------------------------------------------------------- weyl

def _weyl_holds(a):
    """Both comparison violations within 1e-8 and 1e-8 n."""
    moment, product = verify_weyl(a)
    return moment <= 1e-8 and product <= 1e-8 * a.shape[0]


def test_weyl_equality_for_normal_matrices():
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(_rand(rng, 9, 9))
    lam = rng.uniform(0.5, 2.0, 9) * np.exp(2j * math.pi * rng.uniform(size=9))
    a = q @ np.diag(lam) @ q.conj().T
    assert _weyl_holds(a)
    # normal matrix: |lambda| = sigma, so the second moment gap vanishes
    assert abs(np.sum(np.abs(eigenvalues(a)) ** 2) - hs_norm(a) ** 2) <= 1e-10 * hs_norm(a) ** 2


def test_weyl_nilpotent():
    moment, product = verify_weyl(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert moment <= 0.0 and product <= 1e-8 * 2


def test_weyl_random_sweep():
    rng = np.random.default_rng(13)
    for _ in range(200):
        assert _weyl_holds(_rand(rng, 10, 10))


def test_weyl_compares_largest_with_largest(monkeypatch):
    # an eigenvalue kernel that scales the top |lambda| by 3 and the bottom
    # one by 1/3 keeps the determinant but breaks the k = 1 comparison
    # |lambda_1| <= sigma_1; comparing the smallest |lambda| with the
    # largest sigma would miss it
    rng = np.random.default_rng(12)
    a = _rand(rng, 12, 12)
    lam = np.linalg.eigvals(a)
    order = np.argsort(np.abs(lam))
    skewed = lam.copy()
    skewed[order[-1]] *= 3.0
    skewed[order[0]] /= 3.0
    sigma_1 = singular_values(a)[0]
    assert 3.0 * np.abs(lam[order[-1]]) > sigma_1
    monkeypatch.setattr(numerics, "eigenvalues", lambda m: skewed)
    _, product = verify_weyl(a)
    assert product >= math.log(3.0 * np.abs(lam[order[-1]]) / sigma_1) - 1e-12


# ------------------------------------------------------- det triple identity

@pytest.mark.parametrize("n", [5, 20, 50])
def test_det_triple_identity(n):
    rng = np.random.default_rng(300 + n)
    a = _rand(rng, n, n)
    _, logdet = np.linalg.slogdet(a)
    routes = [
        np.sum(np.log(np.abs(eigenvalues(a)))),
        np.sum(np.log(singular_values(a))),
        np.sum(np.log(row_distances(a))),
    ]
    for r in routes:
        assert abs(r - logdet) < 1e-6
