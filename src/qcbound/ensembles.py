"""Seeded random-matrix samplers.

Reproducibility contract: every draw is a pure function of (spec, seed).  The
generator is numpy's PCG64 (``numpy.random.default_rng``); the child seed of
each task is derived as the first 64-bit word of
``numpy.random.SeedSequence([master_seed, *indices])``, so any sample can be
re-derived in isolation from the run manifest.

Many draws at once: ``spawn_seeds`` derives a whole array of child seeds in
one vectorized pass (``spawn_seeds(master, range(R), prefix=(t,))`` is every
realization of a sweep's grid point t), ``_child_seeds`` the children
``spawn_seed(seed, k)`` of a whole array of seeds, and ``_seeded_generators``
hands out generators whose streams equal ``default_rng(seed)`` (one reused
generator per thread), all bit for bit.  They run numpy's documented
``SeedSequence`` hash (O'Neill's seed_seq_fe, pool of four 32-bit words)
column-wise on ``uint32`` arrays, and PCG64's ``set_seed`` on 128-bit Python
ints, so a draw costs no ``SeedSequence`` object of its own while the
contract above holds exactly.
"""

from __future__ import annotations

import enum
import math
import threading
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RNG_ALGORITHM", "EnsembleKind", "EnsembleSpec", "spawn_seed", "spawn_seeds",
]

RNG_ALGORITHM = "numpy PCG64 (default_rng); children via SeedSequence([master, *indices])"

# numpy.random.SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_PCG64_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341


class EnsembleKind(str, enum.Enum):
    GOE = "GOE"
    GUE = "GUE"
    POISSON_DIAGONAL = "PoissonDiagonal"


@dataclass(frozen=True)
class EnsembleSpec:
    """What to draw: ensemble kind and dimension."""

    kind: EnsembleKind
    dim: int

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError("ensemble dimension must be >= 2")


def spawn_seed(master_seed: int, *indices: int) -> int:
    """Deterministic 64-bit child seed for task ``indices`` under a master seed."""
    seq = np.random.SeedSequence([int(master_seed), *(int(i) for i in indices)])
    return int(seq.generate_state(1, np.uint64)[0])


def spawn_seeds(master_seed: int, indices, prefix: tuple = ()) -> np.ndarray:
    """``[spawn_seed(master_seed, *prefix, i) for i in indices]`` as a
    ``uint64`` array, bit for bit, computed in one vectorized pass (indices in
    [0, 2^64))."""
    indices = np.asarray(indices, dtype=np.uint64).ravel()
    words = sum((_int_words(int(v)) for v in (master_seed, *prefix)), ())
    return _as_uint64(_seed_sequence_words(indices, words, 2))[:, 0]


def _child_seeds(seeds, index: int) -> np.ndarray:
    """``[spawn_seed(s, index) for s in seeds]`` as a ``uint64`` array, bit for
    bit, in one vectorized pass (seeds in [0, 2^64))."""
    seeds = np.asarray(seeds, dtype=np.uint64).ravel()
    return _as_uint64(_seed_sequence_words(seeds, (), 2, _int_words(int(index))))[:, 0]


def _seeded_generators(seeds) -> Callable[[int], np.random.Generator]:
    """``rng(i)``: a generator whose stream equals ``default_rng(seeds[i])``.

    Every call re-seeds and returns the same ``Generator`` on one reused
    PCG64 per thread, so a draw must be finished with it before the next
    call in its thread, and draws in other threads never touch it.  The
    seeds are hashed up front, 32 bytes per seed; each call runs PCG64's
    ``set_seed`` on that seed alone.
    """
    # generate_state(4, np.uint64) per seed: seed hi, seed lo, inc hi, inc lo.
    seeds = np.asarray(seeds, dtype=np.uint64).ravel()
    state_words = _as_uint64(_seed_sequence_words(seeds, (), 8))
    local = threading.local()

    def rng(i: int) -> np.random.Generator:
        seed_hi, seed_lo, inc_hi, inc_lo = state_words[i].tolist()
        # pcg64_set_seed: state = 0, inc = 2 initseq + 1; step; state += s; step.
        inc = (((inc_hi << 64) | inc_lo) << 1 | 1) & _MASK128
        state = ((inc + ((seed_hi << 64) | seed_lo)) * _PCG64_MULTIPLIER + inc) & _MASK128
        try:
            generator = local.generator
        except AttributeError:
            generator = local.generator = np.random.Generator(np.random.PCG64(0))
        generator.bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0,
        }
        return generator

    return rng


def _as_uint64(words: np.ndarray) -> np.ndarray:
    """Pairs of 32-bit words, low word first, as 64-bit words (the
    little-endian view that ``generate_state(..., np.uint64)`` takes)."""
    return words[:, 0::2].astype(np.uint64) | (words[:, 1::2].astype(np.uint64) << np.uint64(32))


def _int_words(value: int) -> tuple:
    """A nonnegative int as SeedSequence entropy: its 32-bit words, least
    significant first, and one zero word for 0."""
    if value < 0:
        raise ValueError("seeds must be nonnegative")
    words = [0] if value == 0 else []
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return tuple(words)


def _seed_sequence_words(
    values: np.ndarray, prefix: tuple, n_words: int, suffix: tuple = ()
) -> np.ndarray:
    """``SeedSequence([*prefix, v, *suffix]).generate_state(n_words, np.uint32)``
    for every ``uint64`` value v, as one (len(values), n_words) ``uint32``
    array; ``prefix`` and ``suffix`` are entropy words (``_int_words``).

    A value's entropy is one word, or two when it is 2^32 or more, so the
    rows are hashed in those two groups; within a group the hash constants
    are the same for every row and each pool word is one column.
    """
    low = (values & np.uint64(_MASK32)).astype(np.uint32)
    high = (values >> np.uint64(32)).astype(np.uint32)
    out = np.empty((values.size, n_words), dtype=np.uint32)
    for two_words in (False, True):
        rows = np.flatnonzero((high != 0) == two_words)
        if rows.size == 0:
            continue
        entropy = [np.full(rows.size, w, dtype=np.uint32) for w in prefix]
        entropy.append(low[rows])
        if two_words:
            entropy.append(high[rows])
        entropy += [np.full(rows.size, w, dtype=np.uint32) for w in suffix]
        pool = _mix_entropy(entropy)
        hash_const = _INIT_B
        for k in range(n_words):  # SeedSequence.generate_state
            value = pool[k % _POOL_SIZE] ^ np.uint32(hash_const)
            hash_const = (hash_const * _MULT_B) & _MASK32
            value *= np.uint32(hash_const)
            out[rows, k] = value ^ (value >> _XSHIFT)
    return out


def _mix_entropy(entropy: list) -> list:
    """SeedSequence.mix_entropy with ``entropy[k]`` the k-th word of every
    row; returns the pool as ``_POOL_SIZE`` columns."""
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value *= np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    zeros = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zeros) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    return pool


def _sample_matrix(spec: EnsembleSpec, seed: int) -> np.ndarray:
    """Draw one Hermitian matrix; output depends only on (spec, seed).

    GOE: real symmetric, off-diagonal entries N(0, 1), diagonal N(0, 2).
    GUE: complex Hermitian, off-diagonal real/imag parts each N(0, 1/2),
    diagonal real N(0, 1).  PoissonDiagonal: diagonal i.i.d. normal scaled so
    the mean-square spectral width matches a GOE draw of the same dimension
    (sigma = sqrt(dim + 1)).  Every kind is exactly Hermitian by construction
    (m == m^dag bitwise), so the ``HermitianOperator`` symmetrization of the
    scatter models' H0 does not change it.
    """
    out = np.empty((spec.dim, spec.dim), dtype=_matrix_dtype(spec))
    return _matrix_sampler(spec)(np.random.default_rng(int(seed)), out)


def _matrix_dtype(spec: EnsembleSpec) -> type:
    """``complex`` for the GUE, else ``float``."""
    return complex if spec.kind is EnsembleKind.GUE else float


def _matrix_sampler(spec: EnsembleSpec) -> Callable[[np.random.Generator, np.ndarray], np.ndarray]:
    """``draw(rng, out)``: the matrix of ``_sample_matrix`` drawn from ``rng``,
    written into ``out``, a (d, d) array of ``_matrix_dtype(spec)``, and
    returned.  The normals go into one buffer per thread, reused from draw to
    draw, so threads may draw into their own ``out`` at the same time.

    GOE: (A + A^T) / sqrt 2.  GUE: (B + B^dag) / 2 for B = X + iY,
    written part by part (real X + X^T, imaginary Y - Y^T, the same floats).
    PoissonDiagonal: the normals on the diagonal of zeros.
    """
    local = threading.local()

    def draw(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        z = local.z = _normals(spec, rng, getattr(local, "z", None))
        if spec.kind is EnsembleKind.GOE:
            np.add(z, z.T, out=out)
            out *= 1.0 / math.sqrt(2.0)
        elif spec.kind is EnsembleKind.POISSON_DIAGONAL:
            out[...] = 0.0
            np.fill_diagonal(out, z)
        else:
            x, y = z
            np.add(x, x.T, out=out.real)
            np.subtract(y, y.T, out=out.imag)
            out *= 0.5
        return out

    return draw


def _sample_rows(spec: EnsembleSpec, z: np.ndarray, c: np.ndarray) -> np.ndarray:
    """c^T V for the V that ``_sample_matrix`` builds from the normals ``z``
    (``_normals``), without forming V: O(d^2) reads of the normals and no
    d x d temporary.  ``z`` may be a stack of draws' normals, (k, *shape):
    the result is then the (k, d) stack of their rows, each the same floats
    as the row of its slice alone (the products run per slice).

    With C = [Re c, Im c] as a real (d, 2) array, Z c and Z^T c are real
    (d x d)(d x 2) products read back as complex vectors, and
    c^T V = (1/2) [(X + X^T) c + i (Y^T - Y) c] for the GUE,
    (1/sqrt 2)(A + A^T) c for the GOE.  Equal to ``c @ V`` up to the
    order of roundoff.
    """
    if spec.kind is EnsembleKind.POISSON_DIAGONAL:
        return c * z
    cc = np.ascontiguousarray(c, dtype=complex).view(float).reshape(-1, 2)
    zc = z @ cc
    ztc = np.swapaxes(z, -1, -2) @ cc
    if spec.kind is EnsembleKind.GOE:
        zc += ztc
        rows = zc.view(complex)[..., 0]
        rows *= 1.0 / math.sqrt(2.0)
        return rows
    sym = zc[..., 0, :, :] + ztc[..., 0, :, :]
    anti = ztc[..., 1, :, :] - zc[..., 1, :, :]
    rows = sym.view(complex)[..., 0]
    rows += 1j * anti.view(complex)[..., 0]
    rows *= 0.5
    return rows


def _normals_shape(spec: EnsembleSpec) -> tuple:
    """The shape of one draw's ``_normals``."""
    d = spec.dim
    if spec.kind is EnsembleKind.GOE:
        return (d, d)
    if spec.kind is EnsembleKind.GUE:
        return (2, d, d)
    if spec.kind is EnsembleKind.POISSON_DIAGONAL:
        return (d,)
    raise ValueError(f"unknown ensemble kind {spec.kind!r}")  # pragma: no cover


def _normals(spec: EnsembleSpec, rng: np.random.Generator, out: np.ndarray | None = None
             ) -> np.ndarray:
    """The random numbers of one draw, in stream order, of shape
    ``_normals_shape(spec)``; ``_sample_matrix`` and ``_sample_rows`` both
    read them, so they see the same V.

    GOE: A, (d, d).  GUE: X then Y, drawn as one (2, d, d)
    array (the same normals as two (d, d) draws).  PoissonDiagonal: the
    diagonal, N(0, sigma^2) with sigma = sqrt(d + 1), always a new
    array.  ``out``, when given, is an array of that shape to write the
    GOE/GUE normals into.
    """
    shape = _normals_shape(spec)
    if spec.kind is EnsembleKind.POISSON_DIAGONAL:
        return rng.normal(0.0, math.sqrt(spec.dim + 1.0), size=shape)
    return rng.standard_normal(shape, out=out)
