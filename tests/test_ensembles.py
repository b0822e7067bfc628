"""Entry distributions, base matrices, assembly."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from esdlab import (
    BaseMatrixSpec,
    ConfigurationError,
    RngStream,
    assemble,
    build_base_matrix,
    build_iid_matrix,
    sample_array,
    scalar_distribution,
)
from esdlab.ensembles import factor_diagonal

ALL_KINDS = ("bernoulli", "real_gaussian", "complex_gaussian", "uniform_centered",
             "two_point_asymmetric", "pareto_symmetrized")


def test_bernoulli_values_and_balance():
    x = sample_array(scalar_distribution("bernoulli"), RngStream(1, 0), 100_000)
    assert set(np.unique(x)) == {-1.0, 1.0}
    assert abs(np.mean(x)) < 0.02


def test_complex_gaussian_moments_at_1e6():
    x = sample_array(scalar_distribution("complex_gaussian"), RngStream(2, 0), 1_000_000)
    assert abs(np.mean(x)) < 0.005
    assert abs(np.mean(np.abs(x) ** 2) - 1.0) < 0.01


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_normalization_five_standard_errors(kind):
    n = 1_000_000
    # keyed on the kind's place in ALL_KINDS, so every process draws the same data
    x = sample_array(scalar_distribution(kind), RngStream(3, ALL_KINDS.index(kind)), n)
    assert abs(np.mean(x)) <= 5.0 / math.sqrt(n)
    # variance about the declared zero mean
    var = np.mean(np.abs(x) ** 2)
    if kind == "pareto_symmetrized":
        # infinite fourth moment: the sample variance fluctuates at the
        # n^{-0.2} scale, so only a loose window is meaningful
        assert 0.7 < var < 1.5
    else:
        fourth = np.mean(np.abs(x) ** 4)
        se = math.sqrt(max(fourth - var**2, 0.0) / n)
        assert abs(var - 1.0) <= 5.0 * se + 1e-9


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_determinism_same_stream(kind):
    d = scalar_distribution(kind)
    a = sample_array(d, RngStream(7, 9), 5000)
    b = sample_array(d, RngStream(7, 9), 5000)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("kind", ("real_gaussian", "complex_gaussian"))
def test_chunked_draws_match_single_draw(kind):
    # rejection sampling must leave the stream exactly where a scalar
    # loop would, so chunked and monolithic draws agree bit for bit
    d = scalar_distribution(kind)
    s1, s2 = RngStream(11, 4), RngStream(11, 4)
    chunks = np.concatenate([sample_array(d, s1, k) for k in (1, 2, 5, 17, 100)])
    assert np.array_equal(chunks, sample_array(d, s2, 125))


def _scalar_polar_reference(stream, count):
    """Element-at-a-time Marsaglia polar loop, the contract the vectorized
    sampler must reproduce bit for bit (including stream position).  The log
    is numpy's: on SIMD builds it differs from math.log by one ulp on a few
    inputs in a thousand."""
    out = np.empty((count, 2))
    for i in range(count):
        while True:
            words = stream.raw(2)
            u = (float(int(words[0]) >> 11) + 0.5) * 2.0**-53 * 2.0 - 1.0
            v = (float(int(words[1]) >> 11) + 0.5) * 2.0**-53 * 2.0 - 1.0
            s = u * u + v * v
            if s < 1.0:
                f = math.sqrt(-2.0 * float(np.log(s)) / s)
                out[i] = (u * f, v * f)
                break
    return out


# the last three counts take one, two, and three or more batches of
# rng.BLOCK // 2 attempts
_POLAR_CASES = [(0, 1), (1, 7), (2, 64), (3, 257), (4, 12_000), (5, 13_000), (6, 40_000)]


@pytest.mark.parametrize(
    "kind,seed,count",
    [pytest.param("complex_gaussian", s, c, id=f"{s}-{c}") for s, c in _POLAR_CASES]
    + [pytest.param("real_gaussian", s, c, id=f"real-{s}-{c}") for s, c in _POLAR_CASES])
def test_vectorized_polar_matches_scalar_loop(kind, seed, count):
    ref_stream = RngStream(31, seed)
    ref = _scalar_polar_reference(ref_stream, count)
    vec_stream = RngStream(31, seed)
    got = sample_array(scalar_distribution(kind), vec_stream, count)
    if kind == "real_gaussian":
        # the first normal of each pair
        assert np.array_equal(got, ref[:, 0])
    else:
        assert np.array_equal(got, (ref[:, 0] + 1j * ref[:, 1]) / math.sqrt(2.0))
    assert vec_stream.position == ref_stream.position
    # and the next draws from both streams still agree
    assert np.array_equal(vec_stream.raw(4), ref_stream.raw(4))


# sha256 of the float64/complex128 bytes of sample_array(kind, RngStream(20260808,
# 1000 + i), count) for the i-th kind of ALL_KINDS, and the stream position
# after the draw.  Recorded before RngStream.raw finalized its words in blocks;
# the counts straddle one block.
_DRAW_DIGESTS = {
    ("bernoulli", 1): ("e77817b649821c634355a917817c1224a360514b1244fe09e832bac4e8ea4440", 1),
    ("bernoulli", 7): ("f914a1b7c31c62b519fdf64367d6c7a8bd41b2fc499e17a9b59680e02186c999", 7),
    ("bernoulli", 32768): ("bfdbf53674dd316088e20082e5d4951ad8c0635b8e0a8c819d8df7e4b211d1ea", 32768),
    ("bernoulli", 32769): ("c301ebe6bdeb222a29ab926e84638cbdbe9b6c01c957d8c7a0c9f2fd1f7e808c", 32769),
    ("bernoulli", 100000): ("3ac1c6a3bb1f815684dcf9b72988ec0a896cd980831b0da850cdc16c13174589", 100000),
    ("real_gaussian", 1): ("2b2cb5e5a6f6621ea15aa0f52e2cd2cd32061e330f7bec723cfe14f396aa5428", 4),
    ("real_gaussian", 7): ("7aeefd0388ab0cb51ee21023ef8e365c48022aae0a3e96f3136fac57c6f7827c", 22),
    ("real_gaussian", 32768): ("2a8c3eddf11f2596c00dcefc5d0ab01e6810e7f7a63e143a4019c89b9e38ae20", 83542),
    ("real_gaussian", 32769): ("d0071a8ff00ffd3df7a71b4b0b201efc56d46d6199170a698da0f0e65a18b45d", 83544),
    ("real_gaussian", 100000): ("bc828cd4b57996c932d77f7f5b45e15b1301bff7203b1d0cca489c3c2f45eeb5", 255194),
    ("complex_gaussian", 1): ("2296e77da614fb259108703bd45e3033240192f2d5f48741c569db67104deca0", 2),
    ("complex_gaussian", 7): ("1213385c3b11c7d4f6d1d03b53c8307d3f4c1adb1165f0da564e5e29ffb51f94", 14),
    ("complex_gaussian", 32768): ("4fa11d4900f70f8612278e61b6fd997b23b8f6298b3aafc17db95046dcfd959a", 83348),
    ("complex_gaussian", 32769): ("1d844b87657fbb22ce6aac7fa50f6e485ba5fcf984a07c7bf6810399f5859de1", 83350),
    ("complex_gaussian", 100000): ("804cada4ca082debb0875a5472f6ffca12748c9dc4d8f2ac6eab41beb2c347c0", 254616),
    ("uniform_centered", 1): ("fec5ec84e22e0c535f6896ed2768e7151c7041d5b474f64c386707d7682c708a", 1),
    ("uniform_centered", 7): ("d5ab09086f1bbd18d3e13a865a0ff303d1350efbd00b20ba75eee30b997c9dcc", 7),
    ("uniform_centered", 32768): ("e8408f858e6324b877ecfc3e03153c3f7c3285400029b13c053eb1f85996b541", 32768),
    ("uniform_centered", 32769): ("05a3030d5d6e51c79ec878a2a707fca252955dc5dd7ea318213dad8be4421076", 32769),
    ("uniform_centered", 100000): ("6373c95f43625f8be821e90ee6a09780961a2d61999b023c380b6116401e36cc", 100000),
    ("two_point_asymmetric", 1): ("6b4148c659b3812ba3ad2f92c2156e6d6d295de0f521bf379baa6b7c85c912f6", 1),
    ("two_point_asymmetric", 7): ("033dfff35463708e1c30817afdf95ecf457849dca9eebd54dbee01db71158ef3", 7),
    ("two_point_asymmetric", 32768): ("a340f9435eed950712ae0f87d771153ccd0f08e40a64918a61660760f7bf465c", 32768),
    ("two_point_asymmetric", 32769): ("c1b509d685d8ea4fa54e1ee8f5b2ac80323714c4bb76996ae0af8717629612d8", 32769),
    ("two_point_asymmetric", 100000): ("3602425865ae2e0cb05e73c98c81432fd061b3106ded2ff9db4be836ddf3b330", 100000),
    ("pareto_symmetrized", 1): ("0ccce1762ca46943562559943e1ab10a42bc89ec2af0823ecadb18dc73a80e4d", 1),
    ("pareto_symmetrized", 7): ("5340758a18c4dae4fcbb868c7abc69f5d847328be3dd9681d46dc844e0bc5b97", 7),
    ("pareto_symmetrized", 32768): ("be0e53aaf1b87a17d965c3498532f83792a9a39c0c5d4eb9363b123c18850a23", 32768),
    ("pareto_symmetrized", 32769): ("d94e31d84b6ba5de88b657a3f84c46c8d1c6fffea054e167aac5ea038fd9f966", 32769),
    ("pareto_symmetrized", 100000): ("13118c88ae683cb3d46eb3add151eff06c3c7f0b52a89dcee2d7bdb04461c7d4", 100000),
}


@pytest.mark.parametrize("kind,count", sorted(_DRAW_DIGESTS))
def test_draws_pinned_bit_for_bit(kind, count):
    rng = RngStream(20260808, 1000 + ALL_KINDS.index(kind))
    x = sample_array(scalar_distribution(kind), rng, count)
    digest = hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()
    assert (digest, rng.position) == _DRAW_DIGESTS[kind, count]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_draw_allocates_output_plus_bounded_scratch(kind):
    # numpy reports its buffers to tracemalloc, so the traced peak is the
    # output plus every scratch array the draw made on the way
    stream = RngStream(12, ALL_KINDS.index(kind))
    tracemalloc.start()
    try:
        x = build_iid_matrix(1000, scalar_distribution(kind), stream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= x.nbytes + 2 * 2**20


def test_two_point_support():
    d = scalar_distribution("two_point_asymmetric", p=0.9)
    x = sample_array(d, RngStream(5, 1), 50_000)
    values = np.unique(x)
    assert values.size == 2
    lo, hi = values
    assert lo == pytest.approx(-3.0, rel=1e-12)
    assert hi == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert abs(np.mean(x == lo) - 0.1) < 0.01
    assert abs(np.mean(x)) < 1e-2 and abs(np.mean(x**2) - 1.0) < 0.05


def test_pareto_magnitude_floor_and_tail():
    alpha = 2.5
    d = scalar_distribution("pareto_symmetrized", exponent=alpha)
    x = sample_array(d, RngStream(5, 2), 200_000)
    scale = math.sqrt((alpha - 2.0) / alpha)
    assert np.min(np.abs(x)) >= scale * (1.0 - 1e-12)
    # P(|x| > t) = (t/scale)^-alpha
    t = 4.0 * scale
    assert abs(np.mean(np.abs(x) > t) - 4.0**-alpha) < 0.005


def test_invalid_distribution_parameters():
    with pytest.raises(ConfigurationError):
        scalar_distribution("pareto_symmetrized", exponent=2.0)
    with pytest.raises(ConfigurationError):
        scalar_distribution("two_point_asymmetric", p=1.0)
    with pytest.raises(ConfigurationError):
        scalar_distribution("cauchy")
    with pytest.raises(ConfigurationError):
        scalar_distribution("bernoulli", p=0.3)


# ----------------------------------------------------------------- matrices

def test_iid_matrix_bitwise_reproducible():
    d = scalar_distribution("complex_gaussian")
    a = build_iid_matrix(2, d, RngStream(3, 3))
    b = build_iid_matrix(2, d, RngStream(3, 3))
    assert np.array_equal(a, b)


def test_iid_matrix_row_major_fill():
    d = scalar_distribution("uniform_centered")
    flat = sample_array(d, RngStream(8, 0), 12)
    m = np.asarray(build_iid_matrix(3, d, RngStream(8, 0)))
    assert np.array_equal(m.ravel(), flat[:9])


def test_iid_matrix_hs_norm():
    d = scalar_distribution("bernoulli")
    x = build_iid_matrix(500, d, RngStream(4, 0))
    assert np.sum(np.abs(x) ** 2) / 500**2 == 1.0
    g = build_iid_matrix(500, scalar_distribution("real_gaussian"), RngStream(4, 1))
    assert 0.9 < np.sum(np.abs(g) ** 2) / 500**2 < 1.1


def test_iid_matrix_size_validation():
    with pytest.raises(ConfigurationError):
        build_iid_matrix(0, scalar_distribution("bernoulli"), RngStream(0, 0))


def test_two_block_diagonal_figure_pattern():
    m = build_base_matrix(BaseMatrixSpec("two_block_diagonal", a=1.0, b=2.5, split=0.5), 6)
    assert np.array_equal(m, np.diag([1, 1, 1, 2.5, 2.5, 2.5]))


def test_zero_base():
    assert np.array_equal(build_base_matrix(BaseMatrixSpec("zero"), 4), np.zeros((4, 4)))


def test_low_rank_base():
    m = build_base_matrix(BaseMatrixSpec("low_rank", rank=1, magnitude=1.0), 100)
    assert np.linalg.matrix_rank(m) == 1
    assert np.sum(np.abs(m) ** 2) / 100**2 <= 1.0 + 1e-12
    m3 = build_base_matrix(BaseMatrixSpec("low_rank", rank=3, magnitude=2.0), 30)
    assert np.linalg.matrix_rank(m3) == 3


def test_diagonal_from_measure_scaling_and_rng():
    spec = BaseMatrixSpec("diagonal_from_measure", atoms=(1.0, 2.5))
    with pytest.raises(ConfigurationError):
        build_base_matrix(spec, 8)
    m = build_base_matrix(spec, 8, RngStream(1, 2))
    d = np.diag(m) / math.sqrt(8)
    assert set(np.round(d.real, 12)) <= {1.0, 2.5}
    assert np.array_equal(m, build_base_matrix(spec, 8, RngStream(1, 2)))


# ----------------------------------------------------------------- assembly

def test_assemble_shift_zero_base():
    x = build_iid_matrix(5, scalar_distribution("bernoulli"), RngStream(2, 0))
    assert np.array_equal(assemble(np.zeros((5, 5)), x), x)


def test_assemble_sandwich_identity_reduces_to_shift():
    x = build_iid_matrix(6, scalar_distribution("real_gaussian"), RngStream(2, 1))
    m = build_base_matrix(BaseMatrixSpec("two_block_diagonal", a=1.0, b=2.0, split=0.5), 6)
    ones = np.ones(6)
    assert np.array_equal(assemble(m, x, k=ones, l=ones), assemble(m, x))


# K = diag(k) and L = diag(l) of a mixed sign, one scaled by sqrt(n)
_K = BaseMatrixSpec("two_block_diagonal", a=1.0, b=-0.5, split=0.3, scale_by_sqrt_n=True)
_L = BaseMatrixSpec("two_block_diagonal", a=2.0, b=3.0, split=0.5)


@pytest.mark.parametrize("n", [7, 64])
@pytest.mark.parametrize("kind", ["real_gaussian", "complex_gaussian", "pareto_symmetrized"])
def test_assemble_sandwich_equals_the_dense_product_bit_for_bit(kind, n):
    x = build_iid_matrix(n, scalar_distribution(kind), RngStream(2, 4))
    k, l = factor_diagonal(_K, n), factor_diagonal(_L, n)
    assert assemble(None, x, k=k, l=l).tobytes() == (
        np.diag(k) @ x @ np.diag(l)).tobytes()


def test_assemble_hadamard_all_ones_equals_shift():
    x = build_iid_matrix(7, scalar_distribution("complex_gaussian"), RngStream(2, 2))
    m = build_base_matrix(BaseMatrixSpec("two_block_diagonal", a=0.5, b=1.5, split=0.5), 7)
    assert np.array_equal(assemble(m, x, c=np.ones((7, 7))), assemble(m, x))


def test_assemble_validation():
    x = np.zeros((3, 3))
    with pytest.raises(ConfigurationError):
        assemble(np.zeros((2, 2)), x)
    with pytest.raises(ConfigurationError):
        # a profile C together with the sandwich diagonals k and l
        assemble(x, x, k=np.ones(3), l=np.ones(3), c=np.ones((3, 3)))
    with pytest.raises(ConfigurationError):
        assemble(None, np.zeros((2, 3)))
    for c in (np.zeros((3, 3)), np.ones((3, 2))):
        with pytest.raises(ConfigurationError):
            assemble(x, x, c=c)
    for k, l in ((np.ones(2), np.ones(3)), (np.ones(3), np.ones(4)), (np.eye(3), np.ones(3)),
                 (None, np.ones(3))):
        with pytest.raises(ConfigurationError):
            assemble(x, x, k=k, l=l)


@pytest.mark.parametrize("factors", [
    {},
    {"k": np.array([1.0, 2.0, 3.0, 4.0]), "l": np.array([0.5, -1.0, 2.0, 3.0])},
    {"c": np.full((4, 4), 1.5)},
], ids=["shift", "sandwich", "profile"])
def test_assemble_without_base_equals_zero_base(factors):
    x = build_iid_matrix(4, scalar_distribution("real_gaussian"), RngStream(2, 3))
    assert np.array_equal(assemble(None, x, **factors),
                          assemble(np.zeros((4, 4)), x, **factors))
