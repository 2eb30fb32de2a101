"""Seeded random-matrix samplers.

Reproducibility contract: every draw is a pure function of (spec, seed).  The
generator is numpy's PCG64 (``numpy.random.default_rng``); the child seed of
each task is derived as the first 64-bit word of
``numpy.random.SeedSequence([master_seed, *indices])``, so any sample can be
re-derived in isolation from the run manifest.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .quantum import HermitianOperator

__all__ = ["RNG_ALGORITHM", "EnsembleKind", "EnsembleSpec", "sample", "spawn_seed"]

RNG_ALGORITHM = "numpy PCG64 (default_rng); children via SeedSequence([master, *indices])"


class EnsembleKind(str, enum.Enum):
    GOE = "GOE"
    GUE = "GUE"
    POISSON_DIAGONAL = "PoissonDiagonal"
    # Alias used wherever a model just needs "random Hermitian matrix elements";
    # sampled identically to the GUE.
    GENERIC_HERMITIAN = "GenericHermitian"


@dataclass(frozen=True)
class EnsembleSpec:
    """What to draw: ensemble kind, dimension, off-diagonal scale."""

    kind: EnsembleKind
    dim: int
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError("ensemble dimension must be >= 2")
        if self.scale <= 0:
            raise ValueError("ensemble scale must be positive")


def spawn_seed(master_seed: int, *indices: int) -> int:
    """Deterministic 64-bit child seed for task ``indices`` under a master seed."""
    seq = np.random.SeedSequence([int(master_seed), *(int(i) for i in indices)])
    return int(seq.generate_state(1, np.uint64)[0])


def sample(spec: EnsembleSpec, seed: int) -> HermitianOperator:
    """Draw one Hermitian matrix; output depends only on (spec, seed).

    GOE: real symmetric, off-diagonal entries N(0, scale^2), diagonal
    N(0, 2 scale^2).  GUE: complex Hermitian, off-diagonal real/imag parts each
    N(0, scale^2/2), diagonal real N(0, scale^2).  PoissonDiagonal: diagonal
    i.i.d. normal scaled so the mean-square spectral width matches a GOE draw
    of the same dimension (sigma = scale * sqrt(dim + 1)).
    """
    return HermitianOperator(_sample_matrix(spec, seed))


def _sample_matrix(spec: EnsembleSpec, seed: int) -> np.ndarray:
    """The matrix of ``sample(spec, seed)`` as a plain array, for internal hot
    paths.  Every kind is exactly Hermitian by construction (m == m^dag
    bitwise), so the ``HermitianOperator`` symmetrization would not change it.
    """
    rng = np.random.default_rng(int(seed))
    d = spec.dim
    if spec.kind is EnsembleKind.GOE:
        a = rng.standard_normal((d, d))
        matrix = a + a.T
        matrix *= spec.scale / math.sqrt(2.0)
    elif spec.kind in (EnsembleKind.GUE, EnsembleKind.GENERIC_HERMITIAN):
        # (B + B^dag) * scale/2 for B = X + iY, written part by part into one
        # buffer: real X + X^T, imaginary Y - Y^T (the same floats).
        x = rng.standard_normal((d, d))
        y = rng.standard_normal((d, d))
        matrix = np.empty((d, d), dtype=complex)
        np.add(x, x.T, out=matrix.real)
        np.subtract(y, y.T, out=matrix.imag)
        matrix *= spec.scale / 2.0
    elif spec.kind is EnsembleKind.POISSON_DIAGONAL:
        sigma = spec.scale * math.sqrt(d + 1.0)
        matrix = np.diag(rng.normal(0.0, sigma, size=d))
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unknown ensemble kind {spec.kind!r}")
    return matrix
