"""Model families used by the experiments.

``build_scatter_model`` resolves a scatter-test ``ModelConfig`` (families A,
B, C) into a fixed base Hamiltonian and the ``EnsembleSpec`` its
perturbations V are drawn from; the chaos-sweep models D and E are drawn by
``_ModelDSampler`` and ``_ModelESampler``, one Hamiltonian (as a matrix, or as
sector blocks) per (parameter, seed).

Model E is the open spin chain H = sum_j (h + h_j) sigma_zj + (J/4)
sum_{j<N-1} sigma_j . sigma_{j+1}, with defects h_j i.i.d. normal(0, d^2).
The defects are sigma_z-diagonal, so total sigma_z is conserved for all
parameter values, and the default homogeneous field h = 0.98 sits just above
the clean chain's last saturation crossing (h* ~ 0.970 for N = 9, J = 1): the
defect-free ground state is barely fully polarized, and weak defects
immediately start generating entanglement.

Model E sector blocks: total sigma_z is fixed by the number n_down of down
spins (set bits of the basis index), so H is block diagonal in the N + 1
sectors n_down = 0..N, of dimensions C(N, n_down); no path builds the 2^N
matrix.  Each block is built from bit patterns (the standard block method,
e.g. Sandvik, arXiv:1101.3281): a bond whose two bits are equal adds +1 to
the diagonal of sigma_j . sigma_{j+1}; one whose bits differ adds -1 to the
diagonal and 2 to the state with that pair flipped.  The coupling blocks and
site-z signs depend on N only and are cached, as are the couplings scaled by
J/4 per (N, J); a draw adds its field diagonal.  ``_ModelESampler.block`` is
the one writer of a block: dim 126 at N = 9, not a dense dim-512 solve.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ensembles import (
    EnsembleKind, EnsembleSpec, _child_seeds, _matrix_sampler, _normals, _sample_matrix,
    _seeded_generators,
)
from .quantum import HermitianOperator, _embed, _PAULI, heisenberg_coupling

__all__ = [
    "ModelConfig",
    "NonFiniteHamiltonianError",
    "MODEL_A_DEFAULT_COEFFS",
    "MODEL_A_DEFAULT_LAMBDA",
    "MODEL_D_DEFAULT_DIM",
    "MODEL_D_CHAOTIC_SCALE",
    "MODEL_E_DEFAULT_FIELD",
    "build_scatter_model",
    "sz_sector_indices",
]

# Repo-pinned defaults (the source constants are unspecified); changing them
# invalidates the regression values recorded in the tests.
MODEL_A_DEFAULT_COEFFS = (0.1, 0.2, 0.3)
MODEL_A_DEFAULT_LAMBDA = 0.5
MODEL_D_DEFAULT_DIM = 128
# Spectral-std ratio of the chaotic (GOE) part to the regular (diagonal) part.
# With equal scales the regular-to-chaotic transition completes within the
# first grid step of the default theta sweep at dim 128; 0.3 stretches it over
# several grid points so the sweep actually resolves it.
MODEL_D_CHAOTIC_SCALE = 0.3
MODEL_E_DEFAULT_FIELD = 0.98


class NonFiniteHamiltonianError(ValueError):
    """Finite model parameters whose Hamiltonian overflows."""


@contextlib.contextmanager
def _finite_hamiltonian(model: str):
    """Build a Hamiltonian from finite parameters, raising
    NonFiniteHamiltonianError, in place of numpy's warnings, where an
    operation overflows: from finite inputs, an entry can only become inf or
    NaN through an overflow, so the finished matrix is finite exactly when
    none is raised."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError:
        raise NonFiniteHamiltonianError(f"the model-{model} Hamiltonian is not finite") from None


def _require_finite_spectrum(model: str, eigenvalues: np.ndarray) -> None:
    """Raise NonFiniteHamiltonianError unless every ascending spectrum along
    the last axis of ``eigenvalues`` has a finite width hi - lo and a finite
    sum hi + lo.  A Hamiltonian built from finite parameters can have finite
    entries and still a spectrum wider than a float: ``level_stats.unfold``
    maps the levels by both quantities, and the bound's gaps are no wider."""
    lo, hi = eigenvalues[..., 0], eigenvalues[..., -1]
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(hi - lo) & np.isfinite(hi + lo)
    if not finite.all():
        raise NonFiniteHamiltonianError(f"the model-{model} spectrum overflows")


@dataclass(frozen=True)
class ModelConfig:
    """Scatter-model description (families A, B, C), JSON-serializable.  Only
    C reads ``ensemble``, only A ``a_coeffs`` and ``lam``; the other families
    take their defaults alone, so a manifest holds no parameter a run ignores."""

    family: str
    n_qubits: int = 0
    ensemble: str = "GUE"
    a_coeffs: tuple = MODEL_A_DEFAULT_COEFFS
    lam: float = MODEL_A_DEFAULT_LAMBDA

    def __post_init__(self) -> None:
        family = self.family.upper()
        if family not in ("A", "B", "C"):
            raise ValueError(f"unknown scatter model family {self.family!r}")
        defaults = {"A": 3, "B": 2, "C": 2}
        n = self.n_qubits or defaults[family]
        if family == "A" and n != 3:
            raise ValueError("model A is defined for exactly 3 qubits")
        if n < 2:
            raise ValueError("need at least 2 qubits")
        if family == "C" and self.ensemble not in ("GOE", "GUE"):
            raise ValueError("model C perturbations come from GOE or GUE")
        if family != "C" and self.ensemble != "GUE":
            raise ValueError(f"--ensemble applies to model C only; model {family} "
                             "perturbations are GUE")
        if family == "A" and len(self.a_coeffs) != 3:
            raise ValueError("model A takes exactly three field coefficients")
        if family != "A" and tuple(map(float, self.a_coeffs)) != MODEL_A_DEFAULT_COEFFS:
            raise ValueError(f"--a-coeffs applies to model A only; model {family} has no fields")
        if family != "A" and self.lam != MODEL_A_DEFAULT_LAMBDA:
            raise ValueError(f"--lambda applies to model A only; model {family} has no coupling")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "a_coeffs", tuple(float(a) for a in self.a_coeffs))

    @property
    def tag(self) -> str:
        if self.family == "C":
            return f"C-{self.ensemble}-N{self.n_qubits}"
        return f"{self.family}-N{self.n_qubits}"


@lru_cache(maxsize=16)
def _sector_chain(n_qubits: int) -> tuple:
    """Per sector n_down = 0..N: its basis indices, the block of
    sum_j sigma_j . sigma_{j+1}, and the site-z signs (column j = site j)."""
    masks = 1 << (n_qubits - 1 - np.arange(n_qubits))  # site 0 = most significant bit
    sectors = []
    for n_down in range(n_qubits + 1):
        indices = sz_sector_indices(n_qubits, n_down)
        bits = (indices[:, None] & masks) != 0
        rows = np.arange(indices.size)
        coupling = np.zeros((indices.size, indices.size))
        for j in range(n_qubits - 1):
            differ = bits[:, j] != bits[:, j + 1]
            coupling[rows, rows] += np.where(differ, -1.0, 1.0)
            flipped = indices[differ] ^ (masks[j] | masks[j + 1])
            coupling[rows[differ], np.searchsorted(indices, flipped)] += 2.0
        signs = np.where(bits, -1.0, 1.0)
        for a in (indices, coupling, signs):
            a.setflags(write=False)
        sectors.append((indices, coupling, signs))
    return tuple(sectors)


# A sweep's samplers, one per grid point, share these (389 KB at N = 9); the
# cache holds few, since the blocks at N = 13 take 83 MB per J.
@lru_cache(maxsize=4)
def _scaled_couplings(n_qubits: int, J: float) -> tuple:
    """Per sector n_down = 0..N, (J/4) times its coupling block, read-only.
    An overflow raises FloatingPointError under the caller's errstate."""
    blocks = tuple((J / 4.0) * coupling for _, coupling, _ in _sector_chain(n_qubits))
    for block in blocks:
        block.setflags(write=False)
    return blocks


def _spectral_std(h: np.ndarray) -> float:
    """Population standard deviation of the eigenvalues of a Hermitian d x d
    matrix, without solving: sqrt(||H||_F^2 / d - (tr H / d)^2), because the
    eigenvalues sum to tr H and their squares to ||H||_F^2."""
    d = h.shape[0]
    return math.sqrt(np.vdot(h, h).real / d - (np.trace(h).real / d) ** 2)


def build_scatter_model(
    config: ModelConfig, h0_seed: int
) -> tuple[HermitianOperator, EnsembleSpec]:
    """H0 of a scatter ModelConfig and the ensemble of its perturbations V.

    A: H0 = sum_j a_j sigma_zj + lambda sum_{i<j} sigma_i . sigma_j on three
    qubits; parameters whose H0 overflows raise NonFiniteHamiltonianError.
    B and C: a GUE base drawn from ``h0_seed``.  V is GUE, for C the config's
    ensemble (GOE or GUE).
    """
    n, dim = config.n_qubits, 2**config.n_qubits
    v_spec = EnsembleSpec(EnsembleKind(config.ensemble) if config.family == "C"
                          else EnsembleKind.GUE, dim)
    if config.family != "A":
        h0 = _sample_matrix(EnsembleSpec(EnsembleKind.GUE, dim), h0_seed)
        return HermitianOperator(h0), v_spec
    with _finite_hamiltonian("A"):
        matrix = config.lam * sum(heisenberg_coupling(i, j, n)
                                  for i in range(n) for j in range(i + 1, n))
        for j, aj in enumerate(config.a_coeffs):
            matrix = matrix + aj * _embed(_PAULI["z"], j, n).real
        return HermitianOperator(matrix), v_spec


class _ModelDSampler:
    """Model-D draws of an array of seeds, for the sweep and ``stats``.

    Model D rotates a Poisson-diagonal into a GOE Hamiltonian: H(theta) =
    cos(theta) H_P + sin(theta) H_W, with H_P normalized to unit spectral
    standard deviation and H_W to ``chaotic_scale`` times that, H_P drawn
    from child seed spawn_seed(seed, 0) and H_W from spawn_seed(seed, 1).
    The normalization needs no eigensolve (``_spectral_std``); its ``vdot``
    sums in the BLAS's order, so the callers hold OpenBLAS at one thread.

    ``matrix(theta, i, out)`` writes H(theta) of seeds[i] into ``out`` (a new
    array when None): the scaled H_W plus cos(theta) p / std(p), p = diag(H_P),
    on its diagonal, exactly symmetric.  Threads may draw into their own
    ``out`` at once.  ``diagonal(theta, i)`` is that diagonal alone, all of
    H(theta) when sin(theta) = 0; it draws no GOE normals.

    The generators of both child streams of every seed are derived up front
    in one pass (``ensembles._child_seeds``, ``_seeded_generators``), so a
    draw builds no ``SeedSequence``.
    """

    def __init__(self, seeds, dim: int, chaotic_scale: float):
        seeds = np.asarray(seeds, dtype=np.uint64).ravel()
        self._n = seeds.size
        self._rng = _seeded_generators(
            np.concatenate([_child_seeds(seeds, 0), _child_seeds(seeds, 1)])
        )
        self._poisson = EnsembleSpec(EnsembleKind.POISSON_DIAGONAL, dim)
        self._goe = _matrix_sampler(EnsembleSpec(EnsembleKind.GOE, dim))
        self._chaotic_scale = chaotic_scale

    def diagonal(self, theta: float, i: int) -> np.ndarray:
        if not 0.0 <= theta <= math.pi / 2.0 + 1e-12:
            raise ValueError("theta must lie in [0, pi/2]")
        p = _normals(self._poisson, self._rng(i))
        return math.cos(theta) * (p / np.std(p))

    def matrix(self, theta: float, i: int, out: np.ndarray | None = None) -> np.ndarray:
        diagonal = self.diagonal(theta, i)
        d = self._poisson.dim
        hw = self._goe(self._rng(self._n + i), np.empty((d, d)) if out is None else out)
        hw *= math.sin(theta) * self._chaotic_scale / _spectral_std(hw)
        hw.reshape(-1)[:: d + 1] += diagonal
        return hw


class _ModelESampler:
    """Model-E sector blocks of an array of seeds, for the sweep and ``stats``.

    The defects of every seed are drawn up front, d times the standard
    normals of ``default_rng(seed)`` (``rng.normal(0, d, N)`` bit for bit;
    none at d = 0), and with them every sector's field diagonal of every
    draw, added site by site in the order of a single draw.  So
    ``block(n_down, i, out)``, which writes the block of sector n_down of
    draw i into ``out`` (C(N, n_down) square) and returns it, only copies:
    threads may write into their own ``out`` at the same time, and an
    overflow raises NonFiniteHamiltonianError here, in the caller's thread.
    ``n_draws`` is the number of seeds, ``sectors`` are the (indices,
    coupling, signs) of ``_sector_chain``, and the J-scaled couplings are
    shared with every sampler of the same (N, J) (``_scaled_couplings``).
    """

    def __init__(self, seeds, n_qubits: int, d: float, h: float, J: float):
        if n_qubits < 2:
            raise ValueError("need at least 2 qubits")
        if d < 0:
            raise ValueError("defect strength d must be nonnegative")
        if J == 0:
            raise ValueError("coupling J must be nonzero")
        self.n_qubits = n_qubits
        self.n_draws = len(seeds)
        self.sectors = _sector_chain(n_qubits)
        defects = np.zeros((len(seeds), n_qubits))
        self._diagonals = []
        with _finite_hamiltonian("E"):
            if d > 0:
                for i, seed in enumerate(seeds):
                    defects[i] = d * np.random.default_rng(int(seed)).standard_normal(n_qubits)
            fields = h + defects
            self._couplings = _scaled_couplings(n_qubits, J)
            for scaled, (_, _, signs) in zip(self._couplings, self.sectors):
                diagonal = scaled.diagonal()
                for j in range(n_qubits):
                    diagonal = diagonal + fields[:, j, np.newaxis] * signs[:, j]
                self._diagonals.append(diagonal)

    def block(self, n_down: int, i: int, out: np.ndarray) -> np.ndarray:
        np.copyto(out, self._couplings[n_down])
        np.fill_diagonal(out, self._diagonals[n_down][i])
        return out


def sz_sector_indices(n_qubits: int, n_down: int | None = None) -> np.ndarray:
    """Basis indices of one total-sigma_z sector.

    Bit j of a basis index (site 0 = most significant bit) set to 1 means
    sigma_z = -1 at site j, so the sector is fixed by the popcount ``n_down``.
    Defaults to the largest sector, n_down = N // 2.
    """
    if n_down is None:
        n_down = n_qubits // 2
    if not 0 <= n_down <= n_qubits:
        raise ValueError("n_down out of range")
    indices = [m for m in range(2**n_qubits) if bin(m).count("1") == n_down]
    return np.asarray(indices, dtype=np.intp)
