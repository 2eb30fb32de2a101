"""Reference implementations that only the tests use.

The paper's one-level formulas, as written, which no CLI path runs:
``linear_entropy``, ``mean_bipartite_Q``, ``dEL_dtau``, ``dQ0_dtau``,
``level_curvature`` and ``curvature_spectrum`` (all K_n at once).  ``check``
takes dQ0/dtau and K_0 of many draws from the row kernels they call or must
match.  ``sample_operator`` wraps one ensemble draw as a ``HermitianOperator``.

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
the blocks of all draws in stacks (``experiments._model_e_spectra``), which
must give the same floats.

``ground_state_q`` is the Q of each model-E draw's ground state from
``block_spectrum``: the eigenvector column 0 of ``eigh`` on the ground
block, the route the sweeps took before they solved the ground blocks by
inverse iteration (``experiments._ground_states``).

``pool_spacing_samples`` pools per-draw ``SpacingSample``s, each normalized
on its own, the way the sweeps and ``stats`` pooled before they unfolded the
draws of a grid point as rows (``level_stats.pool_unfolded_rows``).

``model_e_blocks`` is model E of one seed as its sector blocks, written by
``models._ModelESampler`` as the sweeps write them; ``site_z`` is sigma_z at
one site as a plain Kronecker product (site 0 the leading factor), from
which the tests assemble the dense 2^N model E they check the blocks
against.

``poisson_density``, ``wigner_dyson_density`` and ``weibull_density`` are the
spacing densities that ``level_stats.gamma_chaos`` integrates in closed form;
the tests integrate them by quadrature instead.
"""

import math
from dataclasses import dataclass

import numpy as np

from qcbound.curvature import _level_differences, level_curvature_from_row
from qcbound.ensembles import EnsembleKind, EnsembleSpec, _sample_matrix, spawn_seed
from qcbound.entanglement import (
    IMAG_RESIDUE_ATOL, EntanglementInputs, _level_overlaps, dQ0_dtau_from_row,
    ground_state_site_overlaps, sector_mean_bipartite_Q,
)
from qcbound.level_stats import SpacingSample
from qcbound.models import MODEL_E_DEFAULT_FIELD, _ModelESampler, _spectral_std
from qcbound.quantum import (
    HermitianOperator, QubitPartition, SpectralDecomposition, _as_site_matrix, _require_qubit_dim,
    require_isolated,
)


def sample_operator(spec: EnsembleSpec, seed: int) -> HermitianOperator:
    return HermitianOperator(_sample_matrix(spec, seed))


def pool_spacing_samples(samples) -> SpacingSample:
    """Concatenate per-realization samples into one pooled, renormalized sample."""
    samples = list(samples)
    if not samples:
        raise ValueError("nothing to pool")
    return SpacingSample(np.concatenate([s.spacings for s in samples]))


def model_d_matrix(theta: float, seed: int, dim: int, chaotic_scale: float) -> np.ndarray:
    if not 0.0 <= theta <= math.pi / 2.0 + 1e-12:
        raise ValueError("theta must lie in [0, pi/2]")
    hp = _sample_matrix(EnsembleSpec(EnsembleKind.POISSON_DIAGONAL, dim), spawn_seed(seed, 0))
    hw = _sample_matrix(EnsembleSpec(EnsembleKind.GOE, dim), spawn_seed(seed, 1))
    p = np.diag(hp)
    hw *= math.sin(theta) * chaotic_scale / _spectral_std(hw)
    hw[np.diag_indices(dim)] += math.cos(theta) * (p / np.std(p))
    return hw


def model_e_blocks(n_qubits: int, d: float = 0.0, h: float = MODEL_E_DEFAULT_FIELD,
                   J: float = 1.0, seed: int = 0) -> tuple:
    """One (indices, block) pair per sector n_down = 0..N, in that order:
    ``indices`` the sector's basis indices and ``block`` the restriction of H
    to them.  Parameters whose H overflows raise NonFiniteHamiltonianError."""
    sampler = _ModelESampler([seed], n_qubits, d, h, J)
    return tuple((indices, sampler.block(n_down, 0, np.empty((indices.size, indices.size))))
                 for n_down, (indices, _, _) in enumerate(sampler.sectors))


def site_z(site: int, n_qubits: int) -> np.ndarray:
    """sigma_z at ``site`` of ``n_qubits``, the identity elsewhere."""
    return np.kron(np.kron(np.eye(2**site), np.diag([1.0, -1.0])),
                   np.eye(2 ** (n_qubits - 1 - site)))


def poisson_density(s):
    """Poisson spacing density exp(-s) of regular spectra."""
    return np.exp(-np.asarray(s, dtype=float))


def wigner_dyson_density(s):
    """Wigner surmise (pi s / 2) exp(-pi s^2 / 4) of chaotic (GOE-like) spectra."""
    s = np.asarray(s, dtype=float)
    return (np.pi * s / 2.0) * np.exp(-np.pi * s * s / 4.0)


def weibull_density(s, a: float, c: float):
    """Two-parameter density a c s^(c-1) exp(-a s^c) on s >= 0: (a=1, c=1) is
    Poisson and (a=pi/4, c=2) the Wigner surmise."""
    s = np.asarray(s, dtype=float)
    return a * c * s ** (c - 1.0) * np.exp(-a * s**c)


def _real_with_residue_check(value: complex, context: str) -> float:
    if abs(value.imag) > IMAG_RESIDUE_ATOL:
        raise ArithmeticError(
            f"{context}: imaginary residue {value.imag:.3e} exceeds "
            f"{IMAG_RESIDUE_ATOL:.0e}; upstream inputs are inconsistent"
        )
    return float(value.real)


def linear_entropy(state, partition: QubitPartition) -> float:
    """E_L = 1 - tr(rho_A^2) of a pure state under the given bipartition."""
    (purity,) = _level_overlaps(np.asarray(state)[:, np.newaxis], 0, partition)
    return 1.0 - _real_with_residue_check(complex(purity), "linear_entropy purity")


def mean_bipartite_Q(state, n_qubits: int) -> float:
    """Q = 2 - (2/N) sum_j tr(rho_j^2): mean over single-site reductions, in [0, 1]."""
    (purity_sum,) = ground_state_site_overlaps(np.asarray(state)[:, np.newaxis], n_qubits)
    purity_sum = _real_with_residue_check(complex(purity_sum), "mean_bipartite_Q purity")
    return 2.0 - (2.0 / n_qubits) * purity_sum


def dEL_dtau(n: int, inputs: EntanglementInputs, partition: QubitPartition) -> float:
    """Rate of change of the level-n linear entropy along the perturbation.

    dE_L/dtau = -2 sum_{k != n} [V_kn A^n_kn + V_nk A^n_nk] / (eps_n - eps_k)
              = -4 sum_{k != n} Re[V_nk A^n_nk] / (eps_n - eps_k).
    """
    eps = inputs.decomposition.eigenvalues
    require_isolated(eps, n)
    overlaps = _level_overlaps(inputs.decomposition.eigenvectors, n, partition)
    others = np.arange(eps.size) != n
    terms = (inputs.v_eig[n, others] * overlaps[others]).real / (eps[n] - eps[others])
    return -4.0 * float(terms.sum())


def dQ0_dtau(inputs: EntanglementInputs, site_overlaps: np.ndarray | None = None) -> float:
    """Exact tau-derivative of the ground state's mean bi-partite entanglement.

    dQ^0/dtau = (8/N) sum_{k >= 1} Re[V_0k A^0_0k] / (eps_k - eps_0), with the
    site-summed overlaps A^0_0k of :func:`ground_state_site_overlaps` (pass them
    in to amortize over many perturbation draws).  Only row 0 of ``v_eig``
    enters; see :func:`dQ0_dtau_from_row`.
    """
    eps = inputs.decomposition.eigenvalues
    require_isolated(eps, 0)
    if site_overlaps is None:
        u = inputs.decomposition.eigenvectors
        site_overlaps = ground_state_site_overlaps(u, inputs.n_qubits)
    return float(dQ0_dtau_from_row(
        inputs.v_eig[0], eps[1:] - eps[0], site_overlaps, inputs.n_qubits))


def level_curvature(n: int, inputs: EntanglementInputs) -> float:
    """K_n = 2 sum_{m != n} |V_nm|^2 / (eps_n - eps_m)."""
    eps = inputs.decomposition.eigenvalues
    require_isolated(eps, n)
    diffs = _level_differences(n, eps)
    return float(level_curvature_from_row(inputs.v_eig[n], diffs))


def curvature_spectrum(inputs: EntanglementInputs) -> np.ndarray:
    """All level curvatures K_n at once (antisymmetric double sum)."""
    eps = inputs.decomposition.eigenvalues
    require_isolated(eps, range(eps.size))
    diffs = eps[:, None] - eps[None, :]
    np.fill_diagonal(diffs, 1.0)
    terms = np.abs(inputs.v_eig) ** 2 / diffs
    np.fill_diagonal(terms, 0.0)
    return 2.0 * terms.sum(axis=1)


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
    u = decomposition.eigenvectors
    rho_n = partial_trace_dyad(u[:, n], u[:, n], partition)
    dyad_kl = partial_trace_dyad(u[:, k], u[:, l], partition)
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


def ground_state_q(samplers) -> np.ndarray:
    """The (points, draws) Q of the ground state of draw i of each model-E
    sampler, from ``block_spectrum`` of its sector blocks: the lowest
    ``eigh`` eigenvector of the block holding the lowest level."""
    q = np.empty((len(samplers), samplers[0].n_draws))
    for t, sampler in enumerate(samplers):
        for i in range(sampler.n_draws):
            blocks = [(indices, sampler.block(s, i, np.empty((indices.size, indices.size))))
                      for s, (indices, _, _) in enumerate(sampler.sectors)]
            spectrum = block_spectrum(blocks)
            q[t, i] = sector_mean_bipartite_Q(spectrum.ground_state,
                                              sampler.sectors[spectrum.ground_block][2],
                                              sampler.n_qubits)
    return q
