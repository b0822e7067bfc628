"""Stream generator: golden vectors, determinism, independence."""

import copy

import numpy as np
import pytest

from esdlab import ConfigurationError, RngStream
from esdlab.rng import BLOCK, GAMMA, mix64, mix64_int, stream_origin

# Frozen outputs of the documented recurrence; any reimplementation of
# SplitMix64 keyed the same way must reproduce these bit-for-bit.
GOLDEN_1234567_0 = [
    17144784322373704478,
    2444077200912048901,
    7609389262059643455,
    7496929640962278529,
]


def _reference_word(origin, k):
    """The k-th word (0-based) of the stream at ``origin``, by the scalar recurrence."""
    return mix64_int((origin + (k + 1) * GAMMA) & ((1 << 64) - 1))


def _reference_sequence(master_seed, stream_index, count):
    """Independent scalar reimplementation of the stream recurrence."""
    origin = stream_origin(master_seed, stream_index)
    return [_reference_word(origin, k) for k in range(count)]


def test_golden_vectors():
    assert list(map(int, RngStream(1234567, 0).raw(4))) == GOLDEN_1234567_0


def test_vectorized_matches_scalar_reference():
    for seed, idx in [(0, 0), (1234567, 0), (2**64 - 1, 17), (42, 2**40)]:
        got = list(map(int, RngStream(seed, idx).raw(64)))
        assert got == _reference_sequence(seed, idx, 64)


def test_identical_key_reproduces_sequence():
    a = RngStream(99, 7).raw(1000)
    b = RngStream(99, 7).raw(1000)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = RngStream(99, 0).raw(256)
    b = RngStream(99, 1).raw(256)
    c = RngStream(100, 0).raw(256)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # crude independence: matching words should be essentially absent
    assert np.sum(a == b) <= 1


def test_position_and_rewind():
    s = RngStream(5, 5)
    first = s.raw(10)
    assert s.position == 10
    s.rewind(4)
    again = s.raw(4)
    assert np.array_equal(first[6:], again)
    with pytest.raises(ConfigurationError):
        s.rewind(11)


def test_uniforms_open_interval():
    u = RngStream(123, 1).uniforms(100_000)
    assert np.all(u > 0.0) and np.all(u < 1.0)
    assert abs(np.mean(u) - 0.5) < 0.005


def test_seed_validation():
    with pytest.raises(ConfigurationError):
        RngStream(-1, 0)
    with pytest.raises(ConfigurationError):
        RngStream(0, 2**64)
    with pytest.raises(ConfigurationError):
        RngStream(1.5, 0)


def test_mix64_array_matches_scalar():
    words = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
    expected = [mix64_int(int(w)) for w in words]
    assert [int(v) for v in mix64(words, np.empty_like(words))] == expected


@pytest.mark.parametrize("count", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
def test_blocked_raw_matches_scalar_at_block_edges(count):
    s = RngStream(2**64 - 1, 17)
    origin = stream_origin(2**64 - 1, 17)
    words = s.raw(count)
    assert words.dtype == np.uint64 and words.shape == (count,)
    assert s.position == count
    edges = {0, count - 1}
    for b in range(BLOCK, count, BLOCK):
        edges |= {b - 1, b}
    for k in sorted(edges):
        assert int(words[k]) == _reference_word(origin, k)


@pytest.mark.parametrize("a,b", [(BLOCK - 3, 7), (1, BLOCK), (BLOCK, BLOCK + 1)])
def test_split_raw_across_block_boundary_matches_one_draw(a, b):
    whole = RngStream(9, 3).raw(a + b)
    s = RngStream(9, 3)
    assert np.array_equal(np.concatenate([s.raw(a), s.raw(b)]), whole)
    # a draw after a rewind continues the counter where it was left
    s = RngStream(9, 3)
    s.raw(a + 5)
    s.rewind(5)
    assert np.array_equal(s.raw(b), whole[a:])


@pytest.mark.parametrize("k,m", [(BLOCK + 7, 20), (3, BLOCK + 2), (2 * BLOCK - 1, BLOCK + 1)])
def test_skip_then_raw_matches_the_tail_of_one_draw(k, m):
    whole = RngStream(9, 3).raw(k + m)
    s = RngStream(9, 3)
    later = copy.copy(s)
    later.skip(k)
    assert later.position == k
    assert np.array_equal(later.raw(m), whole[k:])
    # the copy is a second cursor: the original still starts at word 0
    assert s.position == 0
    assert np.array_equal(s.raw(k), whole[:k])


def test_skip_rejects_a_negative_count():
    s = RngStream(5, 5)
    with pytest.raises(ConfigurationError):
        s.skip(-1)
    assert s.position == 0
