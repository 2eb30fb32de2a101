"""Entanglement measures and their analytic derivatives along the perturbation.

The derivative formulas live in the eigenbasis of the decomposed Hamiltonian:
given H = H0 + tau*V decomposed at some tau, the rate of change of the linear
entropy of level n, and of the ground state's mean bi-partite entanglement, are
exact sums over off-diagonal matrix elements V_nm = <n|V|m> weighted by inverse
level gaps.  Each derivative refuses (``quantum.require_isolated``) only the
(near-)degenerate levels n it divides by, where the 1/(eps_n - eps_k) poles
make the level-following picture break down.  The measures take state vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantum import (
    HermitianOperator,
    QubitPartition,
    SpectralDecomposition,
    partial_trace_dyad,
    require_isolated,
    _as_site_matrix,
)

__all__ = [
    "IMAG_RESIDUE_ATOL",
    "EntanglementInputs",
    "linear_entropy",
    "mean_bipartite_Q",
    "overlap_coeff",
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


def linear_entropy(state, partition: QubitPartition) -> float:
    """E_L = 1 - tr(rho_A^2) of a pure state under the given bipartition."""
    rho = partial_trace_dyad(state, state, partition)
    purity = _real_with_residue_check(complex(np.trace(rho @ rho)), "linear_entropy purity")
    return 1.0 - purity


def mean_bipartite_Q(state, n_qubits: int) -> float:
    """Q = 2 - (2/N) sum_j tr(rho_j^2): mean over single-site reductions, in [0, 1]."""
    column = np.asarray(state)[:, np.newaxis]
    purity_sum = 0.0
    for j in range(n_qubits):
        (m,) = _as_site_matrix(column, QubitPartition.single_site(j, n_qubits))
        rho = m @ m.conj().T
        purity_sum += _real_with_residue_check(
            complex(np.trace(rho @ rho)), "mean_bipartite_Q purity"
        )
    return 2.0 - (2.0 / n_qubits) * purity_sum


def overlap_coeff(
    n: int, k: int, l: int, decomposition: SpectralDecomposition, partition: QubitPartition
) -> complex:
    """A^n_kl = tr[ tr_B(|n><n|) tr_B(|k><l|) ], bounded by the subsystem size."""
    vec = decomposition.vector
    rho_n = partial_trace_dyad(vec(n), vec(n), partition)
    dyad_kl = partial_trace_dyad(vec(k), vec(l), partition)
    return complex(np.trace(rho_n @ dyad_kl))


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
        # (K, 2, dim/2) site matrices of every column; column 0 is the ground
        stack = _as_site_matrix(vectors, QubitPartition.single_site(j, n_qubits))
        g = stack[0]
        rho_j = g @ g.conj().T
        # tr_{!=j}(|0><k|) for all k at once: (K, 2, 2) stack.
        dyads = np.einsum("sB,ktB->kst", g, stack.conj())
        totals += np.einsum("st,kts->k", rho_j, dyads)
    max_abs = float(np.max(np.abs(totals)))
    if max_abs > n_qubits + 1e-9:
        raise ArithmeticError(
            f"|A^0_0k| = {max_abs:.6f} exceeds the bound N = {n_qubits}"
        )
    return totals


def dEL_dtau(n: int, inputs: EntanglementInputs, partition: QubitPartition) -> float:
    """Rate of change of the level-n linear entropy along the perturbation.

    dE_L/dtau = -2 sum_{k != n} [V_kn A^n_kn + V_nk A^n_nk] / (eps_n - eps_k).
    """
    eps = inputs.decomposition.eigenvalues
    require_isolated(eps, n)
    v = inputs.v_eig
    total = 0.0 + 0.0j
    for k in range(inputs.decomposition.dim):
        if k == n:
            continue
        a_kn = overlap_coeff(n, k, n, inputs.decomposition, partition)
        a_nk = overlap_coeff(n, n, k, inputs.decomposition, partition)
        total += (v[k, n] * a_kn + v[n, k] * a_nk) / (eps[n] - eps[k])
    return _real_with_residue_check(-2.0 * total, "dEL_dtau")


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
    return dQ0_dtau_from_row(inputs.v_eig[0], eps[1:] - eps[0], site_overlaps, inputs.n_qubits)


def dQ0_dtau_from_row(
    v_row: np.ndarray, gaps: np.ndarray, site_overlaps: np.ndarray, n_qubits: int
) -> float:
    """:func:`dQ0_dtau` from row 0 of the perturbation in the eigenbasis.

    ``v_row[k]`` is <0|V|k>, i.e. (u_0^dag V) U, an O(d^2) product instead of
    the O(d^3) full transform.  ``gaps[k - 1]`` = eps_k - eps_0 and
    ``site_overlaps`` depend on H0 alone, so a run of many draws on one H0
    computes them once; the caller has checked the ground level with
    ``require_isolated(eps, 0)``.
    """
    terms = (v_row[1:] * site_overlaps[1:]).real / gaps
    return (8.0 / n_qubits) * float(terms.sum())
