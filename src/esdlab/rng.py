"""Counter-based splittable random number generator.

The generator is SplitMix64: the k-th raw word of a stream is
``mix64(origin + k * GAMMA)`` where ``mix64`` is the standard
xor-shift-multiply finalizer and GAMMA is the 64-bit golden ratio.
Because the state is a pure function of the counter, any block of the
sequence can be produced by vectorized uint64 arithmetic, bit-identical
to a scalar loop and to any other implementation of the same recurrence.

Streams are keyed by ``(master_seed, stream_index)``; the origin of a
stream is derived by finalizer-mixing the pair, so distinct indices give
statistically independent sequences while identical pairs reproduce the
identical sequence on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

GAMMA = 0x9E3779B97F4A7C15
_STREAM_SALT = 0xD1B54A32D192ED03
_MASK64 = 0xFFFFFFFFFFFFFFFF
# words finalized per pass of ``RngStream.raw``: the block and its scratch
# buffer (256 KiB each) stay in cache across the passes of the finalizer
BLOCK = 1 << 15
# k * GAMMA (mod 2**64) for k < BLOCK: the counter states of a block are the
# state of its first word plus these offsets
_STEPS = np.arange(BLOCK, dtype=np.uint64) * np.uint64(GAMMA)


def mix64(words, scratch):
    """SplitMix64 finalizer applied elementwise, in place, to the uint64
    array ``words``; ``scratch`` is a uint64 buffer at least as long as
    ``words``, so the finalizer allocates nothing.  Returns ``words``.
    """
    tmp = scratch[:words.size].reshape(words.shape)
    words ^= np.right_shift(words, np.uint64(30), out=tmp)
    words *= np.uint64(0xBF58476D1CE4E5B9)
    words ^= np.right_shift(words, np.uint64(27), out=tmp)
    words *= np.uint64(0x94D049BB133111EB)
    words ^= np.right_shift(words, np.uint64(31), out=tmp)
    return words


def mix64_int(value):
    """Scalar SplitMix64 finalizer on Python ints (reference path)."""
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def stream_origin(master_seed, stream_index):
    """Mix (master_seed, stream_index) into the stream's counter origin."""
    a = mix64_int((master_seed + GAMMA) & _MASK64)
    b = mix64_int((stream_index ^ _STREAM_SALT) & _MASK64)
    return mix64_int(a ^ b)


@dataclass
class RngStream:
    """One reproducible stream of the splittable generator.

    The stream holds only its key and the number of words consumed so
    far; drawing ``count`` words never allocates state proportional to
    the history.  Every draw sequence is a pure function of
    ``(master_seed, stream_index)`` and the draw order.
    """

    master_seed: int
    stream_index: int
    _pos: int = field(default=0, repr=False)

    def __post_init__(self):
        for name in ("master_seed", "stream_index"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or not 0 <= int(v) < 2**64:
                raise ConfigurationError(f"{name} must be a 64-bit unsigned integer, got {v!r}")
        self.master_seed = int(self.master_seed)
        self.stream_index = int(self.stream_index)
        self._origin = stream_origin(self.master_seed, self.stream_index)

    @property
    def position(self):
        return self._pos

    def raw(self, count):
        """Next ``count`` raw uint64 words, advancing the counter.

        The counter states are filled into the output array and finalized
        in place, block by block, with one scratch buffer for the whole
        call; the words are bit-identical to the scalar recurrence.
        """
        if count < 0:
            raise ConfigurationError("count must be nonnegative")
        words = np.empty(count, dtype=np.uint64)
        scratch = np.empty(min(count, BLOCK), dtype=np.uint64)
        for start in range(0, count, BLOCK):
            block = words[start:start + BLOCK]
            first = (self._origin + (self._pos + start + 1) * GAMMA) & _MASK64
            np.add(_STEPS[:block.size], np.uint64(first), out=block)
            mix64(block, scratch)
        self._pos += count
        return words

    def rewind(self, count):
        """Give back the last ``count`` unconsumed words (rejection sampling)."""
        if count < 0 or count > self._pos:
            raise ConfigurationError("cannot rewind past the stream origin")
        self._pos -= count

    def skip(self, count):
        """Pass over the next ``count`` words without drawing them, so that a
        copy of the stream can read a later stretch of it."""
        if count < 0:
            raise ConfigurationError("count must be nonnegative")
        self._pos += count

    def uniforms(self, count):
        """Uniform doubles on the open interval (0, 1), one word each."""
        return words_to_uniforms(self.raw(count))


def words_to_uniforms(words):
    """Map raw uint64 words to doubles ((w >> 11) + 0.5) * 2**-53 in (0, 1).

    The conversion runs in place: the result is a float64 view of the
    memory of ``words``, which is consumed.  After the shift every word
    is below 2**53, so its int64 view converts to float64 exactly.
    """
    np.right_shift(words, np.uint64(11), out=words)
    u = words.view(np.float64)
    np.copyto(u, words.view(np.int64), casting="unsafe")
    u += 0.5
    u *= 2.0**-53
    return u
