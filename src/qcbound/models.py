"""Model families used by the experiments.

Scatter-test models (A, B, C) produce a fixed base Hamiltonian together with
the ``EnsembleSpec`` its perturbations V are drawn from; chaos-sweep models
(D, E) produce one Hamiltonian per (parameter, seed).

Model E convention notes: the chain is open (nearest-neighbor bonds j, j+1 for
j = 0..N-2), defects are sigma_z-diagonal so total sigma_z is conserved for all
parameter values, and the default homogeneous field h = 0.98 sits just above
the clean chain's last saturation crossing (h* ~ 0.970 for N = 9, J = 1): the
defect-free ground state is barely fully polarized, and weak defects
immediately start generating entanglement.

Model E sector blocks: total sigma_z is fixed by the number n_down of down
spins (set bits of the basis index), so H is block diagonal in the N + 1
sectors n_down = 0..N, of dimensions C(N, n_down).  ``model_e_blocks`` builds
each block directly from bit patterns (the standard block method, e.g.
Sandvik, arXiv:1101.3281): a bond whose two bits are equal adds +1 to the
diagonal of sigma_j . sigma_{j+1}; a bond whose two bits differ adds -1 to
the diagonal and 2 to the state with that pair flipped.  The coupling blocks
and site-z signs depend on N only and are cached; a draw adds its field
diagonal sum_j (h + h_j) sigma_zj.  The largest block (dim 126 at N = 9)
replaces a dense dim-512 solve, and the dense ``model_e`` is the blocks
written into a 2^N matrix.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ensembles import (
    EnsembleKind, EnsembleSpec, _child_seeds, _matrix_sampler, _normals, _seeded_generators,
    sample,
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
    "model_a",
    "model_b",
    "model_c",
    "model_d",
    "model_e",
    "model_e_blocks",
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


@dataclass(frozen=True)
class ModelConfig:
    """Scatter-model description (families A, B, C), JSON-serializable."""

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


def _spectral_std(h: np.ndarray) -> float:
    """Population standard deviation of the eigenvalues of a Hermitian d x d
    matrix, without solving: sqrt(||H||_F^2 / d - (tr H / d)^2), because the
    eigenvalues sum to tr H and their squares to ||H||_F^2."""
    d = h.shape[0]
    return math.sqrt(np.vdot(h, h).real / d - (np.trace(h).real / d) ** 2)


def model_a(
    a_coeffs=MODEL_A_DEFAULT_COEFFS, lam: float = MODEL_A_DEFAULT_LAMBDA
) -> tuple[HermitianOperator, EnsembleSpec]:
    """Three qubits with split fields and all-pairs isotropic coupling.

    H0 = sum_j a_j sigma_zj + lambda sum_{i<j} sigma_i . sigma_j, perturbed by
    generic random Hermitian matrices.  Parameters whose H0 overflows raise
    NonFiniteHamiltonianError.
    """
    a_coeffs = tuple(float(a) for a in a_coeffs)
    if len(a_coeffs) != 3:
        raise ValueError("model A takes exactly three field coefficients")
    n = 3
    with _finite_hamiltonian("A"):
        matrix = lam * sum(heisenberg_coupling(i, j, n).matrix
                           for i in range(n) for j in range(i + 1, n))
        for j, aj in enumerate(a_coeffs):
            matrix = matrix + aj * _embed(_PAULI["z"], j, n).real
        h0 = HermitianOperator(matrix)
    return h0, EnsembleSpec(EnsembleKind.GENERIC_HERMITIAN, 2**n)


def model_b(n_qubits: int, seed: int) -> tuple[HermitianOperator, EnsembleSpec]:
    """Arbitrary Hermitian base drawn once (seeded), generic Hermitian perturbations."""
    dim = 2**n_qubits
    h0 = sample(EnsembleSpec(EnsembleKind.GENERIC_HERMITIAN, dim), seed)
    return h0, EnsembleSpec(EnsembleKind.GENERIC_HERMITIAN, dim)


def model_c(
    ensemble: EnsembleKind | str, seed: int, n_qubits: int = 2
) -> tuple[HermitianOperator, EnsembleSpec]:
    """Base as model B; perturbations drawn from a specific symmetry ensemble."""
    kind = EnsembleKind(ensemble)
    if kind not in (EnsembleKind.GOE, EnsembleKind.GUE):
        raise ValueError("model C perturbations come from GOE or GUE")
    dim = 2**n_qubits
    h0 = sample(EnsembleSpec(EnsembleKind.GENERIC_HERMITIAN, dim), seed)
    return h0, EnsembleSpec(kind, dim)


def build_scatter_model(
    config: ModelConfig, h0_seed: int
) -> tuple[HermitianOperator, EnsembleSpec]:
    """Resolve a scatter ModelConfig into H0 and the ensemble of its perturbations."""
    if config.family == "A":
        return model_a(config.a_coeffs, config.lam)
    if config.family == "B":
        return model_b(config.n_qubits, h0_seed)
    return model_c(config.ensemble, h0_seed, config.n_qubits)


def model_d(
    theta: float,
    seed: int,
    dim: int = MODEL_D_DEFAULT_DIM,
    chaotic_scale: float = MODEL_D_CHAOTIC_SCALE,
) -> HermitianOperator:
    """Rotation between a Poisson-diagonal and a GOE Hamiltonian.

    H(theta) = cos(theta) H_P + sin(theta) H_W, with H_P normalized to unit
    spectral standard deviation and H_W to ``chaotic_scale`` times that, so the
    mixing weights act on comparable (and documented) energy scales.  H_P is
    drawn from child seed spawn_seed(seed, 0) and H_W from spawn_seed(seed, 1).

    The normalization needs no eigensolve: the eigenvalue standard deviation
    of H_W is sqrt(||H_W||_F^2 / d - (tr H_W / d)^2) (``_spectral_std``).  H_P
    is diagonal, so H(theta) is the scaled H_W with cos(theta) p / std(p),
    p = diag(H_P), added to its diagonal in place (``_ModelDSampler``).
    """
    if not 0 <= seed < 2**64:
        raise ValueError("model D seeds must lie in [0, 2^64)")
    return HermitianOperator(_ModelDSampler([seed], dim, chaotic_scale).matrix(theta, 0))


class _ModelDSampler:
    """Model-D draws of an array of seeds, for the per-draw paths of the
    sweep and ``stats``.

    ``matrix(theta, i)`` is the matrix of ``model_d(theta, seeds[i], dim,
    chaotic_scale)`` bit for bit, as a plain array written into one buffer
    that every call reuses: a scaled GOE draw plus a diagonal is exactly
    symmetric, so the ``HermitianOperator`` symmetrization would not change
    it.  ``diagonal(theta, i)`` is cos(theta) p / std(p) alone, which is all
    of H(theta) when sin(theta) = 0; it draws no GOE normals.

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

    def matrix(self, theta: float, i: int) -> np.ndarray:
        diagonal = self.diagonal(theta, i)
        hw = self._goe(self._rng(self._n + i))
        hw *= math.sin(theta) * self._chaotic_scale / _spectral_std(hw)
        hw.reshape(-1)[:: hw.shape[0] + 1] += diagonal
        return hw


def model_e_blocks(
    n_qubits: int = 9,
    d: float = 0.0,
    h: float = MODEL_E_DEFAULT_FIELD,
    J: float = 1.0,
    seed: int = 0,
) -> tuple:
    """Model E as its total-sigma_z sector blocks: one (indices, block) pair per
    n_down = 0..N, in that order (see the module notes).

    ``indices`` are the sector's basis indices (``sz_sector_indices``) and
    ``block`` the real symmetric restriction of H to them; the defects h_j are
    drawn as in ``model_e``.  Parameters whose H overflows raise
    NonFiniteHamiltonianError.
    """
    if n_qubits < 2:
        raise ValueError("need at least 2 qubits")
    if d < 0:
        raise ValueError("defect strength d must be nonnegative")
    if J == 0:
        raise ValueError("coupling J must be nonzero")
    rng = np.random.default_rng(int(seed))
    blocks = []
    with _finite_hamiltonian("E"):
        # d times the standard normals: rng.normal(0, d, N), bit for bit
        defects = d * rng.standard_normal(n_qubits) if d > 0 else np.zeros(n_qubits)
        for indices, coupling, signs in _sector_chain(n_qubits):
            block = (J / 4.0) * coupling
            diagonal = block.diagonal()
            for j in range(n_qubits):
                diagonal = diagonal + (h + defects[j]) * signs[:, j]
            np.fill_diagonal(block, diagonal)
            blocks.append((indices, block))
    return tuple(blocks)


def model_e(
    n_qubits: int = 9,
    d: float = 0.0,
    h: float = MODEL_E_DEFAULT_FIELD,
    J: float = 1.0,
    seed: int = 0,
) -> HermitianOperator:
    """Open spin chain with random sigma_z defects.

    H = sum_j (h + h_j) sigma_zj + (J/4) sum_{j<N-1} sigma_j . sigma_{j+1},
    with defects h_j i.i.d. normal(0, d^2).  Real symmetric; commutes with
    total sigma_z.  Assembled from ``model_e_blocks``.
    """
    matrix = np.zeros((2**n_qubits, 2**n_qubits))
    for indices, block in model_e_blocks(n_qubits, d, h, J, seed):
        matrix[np.ix_(indices, indices)] = block
    return HermitianOperator(matrix)


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
