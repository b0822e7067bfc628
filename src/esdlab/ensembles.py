"""Random-matrix ensembles: entry distributions, base matrices, assembly.

Every entry law is drawn with mean zero and unit variance, so
matrix-level normalization is purely the global 1/sqrt(n) applied when
spectra are measured.  Matrix entries are always drawn in row-major
order from the supplied stream; the order is contractual because
reordering changes realizations.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError
from .rng import BLOCK, words_to_uniforms

SCALAR_KINDS = (
    "bernoulli",
    "real_gaussian",
    "complex_gaussian",
    "uniform_centered",
    "two_point_asymmetric",
    "pareto_symmetrized",
)


def _fill_polar(rng, out):
    """Fill ``out`` with Marsaglia polar normals, in exact stream order.

    Attempts run in batches of at most ``BLOCK // 2`` (one raw call of at
    most BLOCK words each), and the j-th accepted attempt (u, v, s) fills
    out[j]: u * f for a float64 ``out``, (u * f + i v * f) / sqrt(2) for a
    complex128 one, with f = sqrt(-2 log(s) / s).  The stream is left
    right after the final accepting attempt, so the draw is bit-identical
    to a scalar rejection loop.
    """
    complex_out = np.iscomplexobj(out)
    got = 0
    while got < out.size:
        need = out.size - got
        batch = min(BLOCK // 2, max(32, int(need * 1.35) + 8))
        uv = words_to_uniforms(rng.raw(2 * batch))
        uv *= 2.0
        uv -= 1.0
        u, v = uv[0::2], uv[1::2]
        s = u * u + v * v
        accepted = np.flatnonzero(s < 1.0)
        if accepted.size >= need:
            # stream must stop right after the accepting attempt of the
            # final pair, exactly as a scalar rejection loop would
            last = accepted[need - 1]
            rng.rewind(2 * (batch - (int(last) + 1)))
            accepted = accepted[:need]
        s = s[accepted]
        f = np.sqrt(-2.0 * np.log(s) / s)
        block = out[got:got + accepted.size]
        if complex_out:
            # one complex division, as the contract has it: dividing the
            # real and imaginary parts separately is not bit-equal
            block[:] = (u[accepted] * f + 1j * (v[accepted] * f)) / math.sqrt(2.0)
        else:
            np.multiply(u[accepted], f, out=block)
        got += accepted.size


def sample_array(dist, rng, count):
    """Draw ``count`` iid copies; float64 for real kinds, complex128 otherwise.

    The result is allocated once and filled in blocks of at most
    ``rng.BLOCK`` words, so a draw allocates its output plus O(BLOCK)
    scratch, whatever ``count`` is.
    """
    kind = getattr(dist, "kind", None)
    if kind not in SCALAR_KINDS:
        raise ConfigurationError(f"not a scalar distribution: {dist!r}")
    if kind == "bernoulli":
        # the top bit of each word picks the sign (1 -> +1.0, 0 -> -1.0),
        # converted in place in the memory of the words
        words = rng.raw(count)
        words >>= np.uint64(63)
        x = words.view(np.float64)
        np.copyto(x, words.view(np.int64), casting="unsafe")
        x *= 2.0
        x -= 1.0
        return x
    out = np.empty(count, dtype=np.complex128 if kind == "complex_gaussian" else np.float64)
    if kind in ("real_gaussian", "complex_gaussian"):
        _fill_polar(rng, out)
        return out
    for start in range(0, count, BLOCK):
        block = out[start:start + BLOCK]
        u = rng.uniforms(block.size)
        if kind == "uniform_centered":
            u *= 2.0
            u -= 1.0
            np.multiply(u, math.sqrt(3.0), out=block)
        elif kind == "two_point_asymmetric":
            p = dist.p
            block[:] = np.where(u < p, math.sqrt((1.0 - p) / p), -math.sqrt(p / (1.0 - p)))
        else:  # pareto_symmetrized
            alpha = dist.exponent
            mag_lo = (2.0 * u) ** (-1.0 / alpha)
            mag_hi = (2.0 * (1.0 - u)) ** (-1.0 / alpha)
            np.multiply(np.where(u < 0.5, -mag_lo, mag_hi), math.sqrt((alpha - 2.0) / alpha),
                        out=block)
    return out


def build_iid_matrix(n, dist, rng):
    """n-by-n matrix of iid entries, filled row-major from the stream."""
    if n < 1:
        raise ConfigurationError("matrix size must be at least 1")
    return sample_array(dist, rng, n * n).reshape(n, n)


def require_buildable(name, spec, n):
    """Raise ConfigurationError unless ``spec`` can be realized at size n:
    a low_rank rank is at most n, and every diagonal entry that a
    two_block_diagonal or diagonal_from_measure can take is finite after
    its sqrt(n) scaling."""
    if n < 1:
        raise ConfigurationError("matrix size must be at least 1")
    if spec.kind == "low_rank" and spec.rank > n:
        raise ConfigurationError(f"{name}: low_rank rank {spec.rank} exceeds matrix size {n}")
    diagonal = ()
    if spec.kind == "two_block_diagonal":
        values, lengths = two_blocks(spec, n)
        diagonal = values[lengths > 0]
    elif spec.kind == "diagonal_from_measure":
        with np.errstate(over="ignore"):
            diagonal = np.asarray(spec.atoms) * math.sqrt(n)
    if not np.all(np.isfinite(diagonal)):
        raise ConfigurationError(f"{name}: a diagonal entry overflows at n = {n}")


def two_blocks(spec, n):
    """The values (a, b, times sqrt(n) with scale_by_sqrt_n) and lengths
    (round(split n), the rest) of a two_block_diagonal's blocks at size n.
    A value that overflows is inf, without a warning."""
    n_a = int(round(spec.split * n))
    scale = math.sqrt(n) if spec.scale_by_sqrt_n else 1.0
    with np.errstate(over="ignore"):
        values = np.array([spec.a, spec.b]) * scale
    return values, np.array([n_a, n - n_a])


def factor_diagonal(spec, n):
    """The diagonal of a two_block_diagonal spec at size n (a sandwich factor)."""
    return np.repeat(*two_blocks(spec, n))


def build_base_matrix(spec, n, rng=None):
    """Realize a BaseMatrixSpec at size n.

    diagonal_from_measure draws n iid atoms from the supplied list and
    scales the diagonal by sqrt(n); it therefore requires an RngStream.
    All other kinds are deterministic in (spec, n).
    """
    require_buildable("base matrix", spec, n)
    if spec.kind == "zero":
        return np.zeros((n, n))
    if spec.kind == "two_block_diagonal":
        return np.diag(factor_diagonal(spec, n))
    if spec.kind == "low_rank":
        i = np.arange(n)
        m = np.zeros((n, n))
        # blocks of constant entries with disjoint supports: rank exactly `rank`
        for k in range(spec.rank):
            mask = (i % spec.rank) == k
            m[np.ix_(mask, mask)] = spec.magnitude
        return m
    if spec.kind == "diagonal_from_measure":
        if rng is None:
            raise ConfigurationError("base matrix: diagonal_from_measure requires an RngStream")
        atoms = np.asarray(spec.atoms)
        idx = (rng.uniforms(n) * len(atoms)).astype(np.int64)
        return np.diag(atoms[idx] * math.sqrt(n))
    raise ConfigurationError(f"unknown base matrix kind {spec.kind!r}")


def assemble(m_base, x, k=None, l=None, c=None):
    """Combine base and noise matrices; no 1/sqrt(n) is applied here.
    A base of None is the zero base: it is neither built nor added.

    k and l given  -> M + K X L   (K = diag(k), L = diag(l): (k l^T) * X)
    c given        -> M + C * X   (entrywise; C positive entries)
    neither        -> M + X
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1] or (
            m_base is not None and np.shape(m_base) != x.shape):
        raise ConfigurationError("base and noise must be square matrices of equal size")
    if c is not None and (k is not None or l is not None):
        raise ConfigurationError("a profile C excludes the sandwich diagonals k and l")
    if k is not None or l is not None:
        k, l = np.asarray(k), np.asarray(l)  # None has shape ()
        if k.shape != x.shape[:1] or l.shape != x.shape[:1]:
            raise ConfigurationError("a sandwich requires diagonals k and l of the noise size")
    elif c is not None:
        c = np.asarray(c)
        if c.shape != x.shape:
            raise ConfigurationError("a profile C must have the noise size")
        if np.iscomplexobj(c) or np.min(c) <= 0.0:
            raise ConfigurationError("profile C must have real entries in [a, b] with a > 0")
    # an entry that overflows stays inf (or NaN, in a complex product) for
    # the finiteness check of numerics.as_matrix, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if k is not None:
            x = (k[:, None] * x) * l[None, :]
        elif c is not None:
            x = c * x
        return x if m_base is None else np.asarray(m_base) + x
