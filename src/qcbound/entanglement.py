"""Entanglement measures and their analytic derivatives along the perturbation.

The derivative formulas live in the eigenbasis of the decomposed Hamiltonian:
given H = H0 + tau*V decomposed at some tau, the rate of change of the linear
entropy of level n, and of the ground state's mean bi-partite entanglement, are
exact sums over off-diagonal matrix elements V_nm = <n|V|m> weighted by inverse
level gaps.  Each derivative refuses (``quantum.require_isolated``) only the
(near-)degenerate levels n it divides by, where the 1/(eps_n - eps_k) poles
make the level-following picture break down.  The measures take state vectors.

Every term is one reduction, A^n_nk = tr[ tr_B(|n><n|) tr_B(|n><k|) ] of a
level n against a block of columns k, from one kernel (``_level_overlaps``):
E_L and Q read A^n_nn, dE_L/dtau and the two-level rates (``curvature``) row
n, and dQ0/dtau its site sum (``ground_state_site_overlaps``).  A state in one
total-sigma_z sector needs no reduction: ``sector_mean_bipartite_Q`` takes Q
from the site magnetizations, in the sector's own basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantum import (
    HermitianOperator,
    QubitPartition,
    SpectralDecomposition,
    require_isolated,
    _as_site_matrix,
)

__all__ = [
    "IMAG_RESIDUE_ATOL",
    "EntanglementInputs",
    "linear_entropy",
    "mean_bipartite_Q",
    "sector_mean_bipartite_Q",
    "ground_state_site_overlaps",
    "dEL_dtau",
    "dQ0_dtau",
    "dQ0_dtau_from_row",
]

# A mathematically-real result may carry a float imaginary residue; anything
# above this signals an upstream bug and aborts instead of being dropped.
IMAG_RESIDUE_ATOL = 1e-10


@dataclass(frozen=True)
class EntanglementInputs:
    """Decomposed Hamiltonian plus the perturbation in its eigenbasis.

    ``v_eig[n, m]`` is <n|V|m>.  The perturbation parameter enters only through
    which H(tau) was decomposed; all experiments in this package decompose H0
    itself (tau = 0).
    """

    decomposition: SpectralDecomposition
    v: HermitianOperator
    v_eig: np.ndarray
    n_qubits: int

    def __post_init__(self) -> None:
        if self.decomposition.dim != 2**self.n_qubits:
            raise ValueError(
                f"dimension {self.decomposition.dim} does not match 2^{self.n_qubits}"
            )
        herm_err = float(np.max(np.abs(self.v_eig - self.v_eig.conj().T)))
        if herm_err > 1e-10:
            raise ValueError(f"v_eig is not Hermitian (max deviation {herm_err:.3e})")

    @classmethod
    def from_perturbation(
        cls,
        decomposition: SpectralDecomposition,
        v: HermitianOperator,
        n_qubits: int,
    ) -> "EntanglementInputs":
        u = decomposition.eigenvectors
        v_eig = u.conj().T @ v.matrix @ u
        return cls(decomposition=decomposition, v=v, v_eig=v_eig, n_qubits=n_qubits)


def _real_with_residue_check(value: complex, context: str) -> float:
    if abs(value.imag) > IMAG_RESIDUE_ATOL:
        raise ArithmeticError(
            f"{context}: imaginary residue {value.imag:.3e} exceeds "
            f"{IMAG_RESIDUE_ATOL:.0e}; upstream inputs are inconsistent"
        )
    return float(value.real)


def _level_overlaps(vectors: np.ndarray, n: int, partition: QubitPartition) -> np.ndarray:
    """A^n_nk = tr[ tr_B(|n><n|) tr_B(|n><k|) ] for every column k of the
    (2^N, K) block ``vectors``, whose column n is level n: the one overlap
    kernel of every entanglement term.  A^n_kn = conj(A^n_nk)."""
    # (K, dim_A, dim_B) site matrices of every column
    stack = _as_site_matrix(vectors, partition)
    g = stack[n]
    rho_n = g @ g.conj().T
    # tr_B(|n><k|) for all k at once: (K, dim_A, dim_A) stack.
    dyads = np.einsum("sB,ktB->kst", g, stack.conj())
    return np.einsum("st,kts->k", rho_n, dyads)


def linear_entropy(state, partition: QubitPartition) -> float:
    """E_L = 1 - tr(rho_A^2) of a pure state under the given bipartition."""
    (purity,) = _level_overlaps(np.asarray(state)[:, np.newaxis], 0, partition)
    return 1.0 - _real_with_residue_check(complex(purity), "linear_entropy purity")


def mean_bipartite_Q(state, n_qubits: int) -> float:
    """Q = 2 - (2/N) sum_j tr(rho_j^2): mean over single-site reductions, in [0, 1]."""
    (purity_sum,) = ground_state_site_overlaps(np.asarray(state)[:, np.newaxis], n_qubits)
    purity_sum = _real_with_residue_check(complex(purity_sum), "mean_bipartite_Q purity")
    return 2.0 - (2.0 / n_qubits) * purity_sum


def sector_mean_bipartite_Q(state, indices, n_qubits: int) -> float:
    """:func:`mean_bipartite_Q` of a state confined to one total-sigma_z sector.

    ``state[i]`` is the amplitude of basis index ``indices[i]``; all indices
    must have the same number of set bits (one sector), or ValueError.  In one
    sector every rho_j is diagonal, so Q = 1 - (1/N) sum_j <sigma_zj>^2 with
    <sigma_zj> = sum_i |state_i|^2 s_ij, s_ij = +1 (-1) where bit j of
    indices[i] is 0 (1), site 0 the most significant bit.
    """
    bits = (np.asarray(indices)[:, np.newaxis] >> np.arange(n_qubits - 1, -1, -1)) & 1
    if np.ptp(bits.sum(axis=1)) != 0:
        raise ValueError("the basis indices span more than one total-sigma_z sector")
    sz = np.abs(state) ** 2 @ (1.0 - 2.0 * bits)
    return 1.0 - float(sz @ sz) / n_qubits


def ground_state_site_overlaps(vectors: np.ndarray, n_qubits: int) -> np.ndarray:
    """Site-summed ground-state overlaps A^0_0k for every column k of ``vectors``.

    ``vectors`` is a (2^N, K) block of eigenvector columns, all of them or any
    subset whose column 0 is the ground state.  A^0_0k = sum_j tr[
    tr_{all != j}(|0><0|) tr_{all != j}(|0><k|) ].  Depends only on the
    eigenvectors, so it can be computed once per Hamiltonian and reused
    across perturbation draws.  Every entry is bounded by N in modulus;
    violating that bound aborts.
    """
    totals = np.zeros(vectors.shape[1], dtype=complex)
    for j in range(n_qubits):
        totals += _level_overlaps(vectors, 0, QubitPartition.single_site(j, n_qubits))
    max_abs = float(np.max(np.abs(totals)))
    if max_abs > n_qubits + 1e-9:
        raise ArithmeticError(
            f"|A^0_0k| = {max_abs:.6f} exceeds the bound N = {n_qubits}"
        )
    return totals


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


def dQ0_dtau_from_row(
    v_row: np.ndarray, gaps: np.ndarray, site_overlaps: np.ndarray, n_qubits: int
) -> np.ndarray:
    """:func:`dQ0_dtau` from row 0 of the perturbation in the eigenbasis.

    ``v_row[..., k]`` is <0|V|k>, i.e. (u_0^dag V) U, an O(d^2) product
    instead of the O(d^3) full transform; a stack of rows, one per draw,
    gives one value per row (the sum runs over the last axis, the same
    floats as row by row).  ``gaps[k - 1]`` = eps_k - eps_0 and
    ``site_overlaps`` depend on H0 alone, so a run of many draws on one H0
    computes them once; the caller has checked the ground level with
    ``require_isolated(eps, 0)``.
    """
    terms = (v_row[..., 1:] * site_overlaps[1:]).real / gaps
    return (8.0 / n_qubits) * terms.sum(axis=-1)
