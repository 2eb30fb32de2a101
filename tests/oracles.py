"""Reference implementations that only the tests use.

``partial_trace`` and ``dEL_dtau_from_gamma`` (with its ``gamma_coeff`` and
``overlap_coeff``) are independent routes to quantities the package computes
another way: the reduced state by contracting the full density matrix, and
dE_L/dtau by the full double sum over the projector derivative, one overlap
A^n_kl at a time, instead of ``entanglement.dEL_dtau`` on the one overlap
kernel.  ``partial_trace_dyad`` reduces one dyad |ket><bra| with the
package's site reduction ``quantum._as_site_matrix``; ``overlap_coeff`` and
the partial-trace tests build on it.

``model_d_matrix`` is the seed-taking model-D builder the package used before
``models._ModelDSampler``: one ``SeedSequence`` per child stream, H_P drawn
as a full diagonal matrix and read back with ``np.diag``, and H_W as a fresh
GOE matrix.  The sampler must reproduce its bytes.

``block_spectrum`` solves a block-diagonal operator one (indices, block)
pair at a time, with one ``eigvalsh`` call per block and one ``eigh`` of the
ground block: the per-draw model-E path the package used before it solved
the blocks of all draws in stacks (``experiments._model_e_draws``), which
must give the same floats.
"""

import math
from dataclasses import dataclass

import numpy as np

from qcbound.ensembles import EnsembleKind, EnsembleSpec, _sample_matrix, spawn_seed
from qcbound.entanglement import EntanglementInputs, _real_with_residue_check
from qcbound.models import _spectral_std
from qcbound.quantum import (
    QubitPartition, SpectralDecomposition, _as_site_matrix, _require_qubit_dim, require_isolated,
)


def model_d_matrix(theta: float, seed: int, dim: int, chaotic_scale: float) -> np.ndarray:
    if not 0.0 <= theta <= math.pi / 2.0 + 1e-12:
        raise ValueError("theta must lie in [0, pi/2]")
    hp = _sample_matrix(EnsembleSpec(EnsembleKind.POISSON_DIAGONAL, dim), spawn_seed(seed, 0))
    hw = _sample_matrix(EnsembleSpec(EnsembleKind.GOE, dim), spawn_seed(seed, 1))
    p = np.diag(hp)
    hw *= math.sin(theta) * chaotic_scale / _spectral_std(hw)
    hw[np.diag_indices(dim)] += math.cos(theta) * (p / np.std(p))
    return hw


def partial_trace(rho: np.ndarray, partition: QubitPartition) -> np.ndarray:
    """tr_B of a density matrix (independent matrix-contraction code path)."""
    n = partition.n_qubits
    _require_qubit_dim(rho.shape[0], partition)
    tensor = rho.reshape((2,) * (2 * n))
    # Contract row/column axes of every traced-out site pairwise.
    for site in sorted((s for s in range(n) if s not in partition.kept), reverse=True):
        tensor = np.trace(tensor, axis1=site, axis2=site + tensor.ndim // 2)
    d = partition.dim_kept
    return tensor.reshape(d, d)


def partial_trace_dyad(ket, bra, partition: QubitPartition) -> np.ndarray:
    """tr_B(|ket><bra|) on subsystem A, on the package's site reduction, without
    forming the full dyad.  For ket == bra the result is a density matrix."""
    km, lm = _as_site_matrix(np.column_stack((ket, bra)), partition)
    return km @ lm.conj().T


def overlap_coeff(
    n: int, k: int, l: int, decomposition: SpectralDecomposition, partition: QubitPartition
) -> complex:
    """A^n_kl = tr[ tr_B(|n><n|) tr_B(|k><l|) ], bounded by the subsystem size."""
    vec = decomposition.vector
    rho_n = partial_trace_dyad(vec(n), vec(n), partition)
    dyad_kl = partial_trace_dyad(vec(k), vec(l), partition)
    return complex(np.trace(rho_n @ dyad_kl))


def gamma_coeff(n: int, k: int, l: int, inputs: EntanglementInputs) -> complex:
    """Coefficient of |k><l| in the tau-derivative of the projector |n><n|.

    gamma^n_kl = d_nl (1 - d_kn) V_kn/(eps_n - eps_k)
               + d_kn (1 - d_nl) V_nl/(eps_n - eps_l)
    """
    eps = inputs.decomposition.eigenvalues
    require_isolated(eps, n)
    v = inputs.v_eig
    out = 0.0 + 0.0j
    if l == n and k != n:
        out += v[k, n] / (eps[n] - eps[k])
    if k == n and l != n:
        out += v[n, l] / (eps[n] - eps[l])
    return out


def dEL_dtau_from_gamma(
    n: int, inputs: EntanglementInputs, partition: QubitPartition
) -> float:
    """dE_L/dtau via the full double sum -2 sum_kl gamma^n_kl A^n_kl.

    Algebraically identical to ``entanglement.dEL_dtau``.
    """
    dim = inputs.decomposition.dim
    total = 0.0 + 0.0j
    for k in range(dim):
        for l in range(dim):
            g = gamma_coeff(n, k, l, inputs)
            if g == 0.0:
                continue
            total += g * overlap_coeff(n, k, l, inputs.decomposition, partition)
    return _real_with_residue_check(-2.0 * total, "dEL_dtau_from_gamma")


@dataclass(frozen=True)
class BlockSpectrum:
    """Spectrum of a block-diagonal Hermitian operator, solved block by block.

    ``block_eigenvalues[k]`` are the ascending eigenvalues of block k,
    ``eigenvalues`` all of them merged in ascending order, ``ground_block``
    the index of the block holding the lowest one, and ``ground_state`` its
    eigenvector in that block's own basis (no phase gauge is fixed).
    """

    block_eigenvalues: tuple
    eigenvalues: np.ndarray
    ground_block: int
    ground_state: np.ndarray


def block_spectrum(blocks) -> BlockSpectrum:
    """Solve an operator given as (indices, block) pairs that partition its basis.

    Every block gets an eigenvalue-only solve; only the block holding the
    lowest eigenvalue is solved for its eigenvectors.  A ground level shared
    by two blocks is not resolved here: the merged eigenvalues carry the
    degeneracy to the guards downstream.
    """
    values = tuple(np.linalg.eigvalsh(block) for _, block in blocks)
    ground_block = int(np.argmin([v[0] for v in values]))
    _, vectors = np.linalg.eigh(blocks[ground_block][1])
    return BlockSpectrum(
        block_eigenvalues=values,
        eigenvalues=np.sort(np.concatenate(values)),
        ground_block=ground_block,
        ground_state=vectors[:, 0],
    )
