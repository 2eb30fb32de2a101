"""N-qubit operator algebra, dense Hermitian eigendecomposition, and the site
reduction of state vectors.

``_one_blas_thread`` holds numpy's OpenBLAS at one thread for the public
experiments, whose bits a BLAS reduction sets.

``require_isolated`` is the one degeneracy guard, and ``_as_site_matrix`` the
one site reduction, under ``entanglement._level_overlaps``.  An eigensolve that
does not converge raises numpy's ``LinAlgError`` as it is, from every solve in
the package, so that one exception type stands for that failure.

Tensor-ordering convention (shared by every module in this package): site 0 maps
to the MOST significant bit of the computational-basis index.  For two qubits the
basis is ordered |00>, |01>, |10>, |11> with the left bit belonging to site 0, so
``_embed(_PAULI['z'], 0, 2)`` is diag(+1, +1, -1, -1).
"""

from __future__ import annotations

import contextlib
import ctypes
import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce
from pathlib import Path

import numpy as np

__all__ = [
    "HERMITICITY_WARN_ATOL",
    "DEGENERACY_RTOL",
    "DegenerateSpectrumError",
    "HermitianOperator",
    "SpectralDecomposition",
    "QubitPartition",
    "heisenberg_coupling",
    "eigensystem",
    "require_isolated",
]

# Symmetrization corrections above this trigger a warning (inputs are expected
# to be Hermitian to machine precision already).
HERMITICITY_WARN_ATOL = 1e-10

# A level n counts as degenerate when a gap to a neighbour is at most
# DEGENERACY_RTOL * spectral width; formulas with 1/(eps_n - eps_m) refuse it.
DEGENERACY_RTOL = 1e-10

_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


class DegenerateSpectrumError(ValueError):
    """A (near-)degenerate pair makes a 1/(eps_n - eps_m) pole ill-defined."""


@dataclass(frozen=True)
class HermitianOperator:
    """Dense Hermitian matrix in dimensionless energy units.

    The stored matrix is symmetrized as (M + M^dag)/2 on construction and made
    read-only.  Real symmetric input stays real (cheaper eigensolves); complex
    input stays complex.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] < 2:
            raise ValueError("operator dimension must be >= 2")
        m = m.astype(complex if np.iscomplexobj(m) else float, copy=False)
        sym = m + m.conj().T  # a new array: the input is never written
        sym *= 0.5
        drift = float(np.max(np.abs(m - sym)))
        if drift > HERMITICITY_WARN_ATOL:
            warnings.warn(
                f"input symmetrized; max Hermiticity correction {drift:.3e}",
                stacklevel=2,
            )
        sym.setflags(write=False)
        object.__setattr__(self, "matrix", sym)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and matching orthonormal eigenvectors.

    ``eigenvectors[:, n]`` is the eigenvector of ``eigenvalues[n]``; each column
    has its largest-magnitude component rotated to be real and positive so that
    repeated decompositions are bit-reproducible.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(frozen=True)
class QubitPartition:
    """Bipartition of an N-qubit register: ``kept`` sites form subsystem A."""

    n_qubits: int
    kept: tuple

    def __post_init__(self) -> None:
        sites = tuple(sorted(set(int(s) for s in self.kept)))
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        if not sites:
            raise ValueError("kept set must be nonempty")
        if len(sites) >= self.n_qubits:
            raise ValueError("kept set must be a strict subset of the sites")
        if sites[0] < 0 or sites[-1] >= self.n_qubits:
            raise ValueError(f"site indices out of range [0, {self.n_qubits})")
        object.__setattr__(self, "kept", sites)

    @classmethod
    def single_site(cls, site: int, n_qubits: int) -> "QubitPartition":
        return cls(n_qubits=n_qubits, kept=(site,))

    @property
    def dim_kept(self) -> int:
        return 2 ** len(self.kept)


def _embed(matrix: np.ndarray, site: int, n_qubits: int) -> np.ndarray:
    if not 0 <= site < n_qubits:
        raise ValueError(f"site {site} out of range for {n_qubits} qubits")
    eye = np.eye(2, dtype=matrix.dtype)
    factors = [matrix if j == site else eye for j in range(n_qubits)]
    return reduce(np.kron, factors)


def heisenberg_coupling(i: int, j: int, n_qubits: int) -> np.ndarray:
    """sigma_i . sigma_j: isotropic Pauli-vector coupling of two sites, a real
    symmetric matrix of small integers (the y-y product is real)."""
    if i == j:
        raise ValueError("coupling requires two distinct sites")
    total = sum(
        _embed(_PAULI[a], i, n_qubits) @ _embed(_PAULI[a], j, n_qubits)
        for a in ("x", "y", "z")
    )
    return total.real


@lru_cache(maxsize=None)
def _openblas():
    """``(get, set)`` of the thread count of the OpenBLAS that numpy loaded
    (the ``scipy_openblas`` build under ``numpy.libs/``), or None where there
    is none; looked up on first use."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get, set_ = (lib.scipy_openblas_get_num_threads64_,
                         lib.scipy_openblas_set_num_threads64_)
        except (OSError, AttributeError):
            continue
        get.restype, set_.argtypes = ctypes.c_int, [ctypes.c_int]
        return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold OpenBLAS at one thread, restoring the caller's count on exit.

    The threads of a run are its own: ``experiments._run_indexed``'s.  A
    BLAS call split over threads sums in another order, so its last bits
    would depend on the thread count (``models._spectral_std``'s ``vdot`` at
    dim 128), and OpenBLAS's helper thread keeps spinning after each
    two-thread call, taking a core from the draws.  Where no OpenBLAS is
    found this does nothing.
    """
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-|.| component is real and positive."""
    pivots = np.argmax(np.abs(vectors), axis=0)
    pivot_values = vectors[pivots, np.arange(vectors.shape[1])]
    phases = pivot_values / np.abs(pivot_values)
    return vectors * phases.conj()[np.newaxis, :]


def eigensystem(op: HermitianOperator) -> SpectralDecomposition:
    """Full dense eigendecomposition with fixed eigenvector phases."""
    eigenvalues, vectors = np.linalg.eigh(op.matrix)
    vectors = _fix_phases(vectors)
    eigenvalues.setflags(write=False)
    vectors.setflags(write=False)
    return SpectralDecomposition(eigenvalues=eigenvalues, eigenvectors=vectors)


def require_isolated(eigenvalues, levels) -> None:
    """Raise DegenerateSpectrumError unless each of ``levels`` (the index n, or
    indices, of the levels whose gaps eps_m - eps_n a formula divides by) is
    more than DEGENERACY_RTOL x width from its neighbours in the ascending
    ``eigenvalues``, and the spectral width is > 0.  A NaN fails each test,
    and an infinite width gives an infinite guard: non-finite is refused."""
    eps = np.asarray(eigenvalues)
    width = float(eps[-1] - eps[0])
    floor = DEGENERACY_RTOL * width
    top = eps.size - 1
    for n in np.atleast_1d(levels).tolist():
        below = eps[n] - eps[n - 1] if n > 0 else np.inf
        above = eps[n + 1] - eps[n] if n < top else np.inf
        if not (width > 0.0 and below > floor and above > floor):
            raise DegenerateSpectrumError(
                f"level {n}: gap {float(np.minimum(below, above)):.3e} below the "
                f"degeneracy guard ({DEGENERACY_RTOL:.0e} x width {width:.3e})"
            )


def _ground_isolated(eigenvalues: np.ndarray) -> np.ndarray:
    """Mask of the rows of the (n, D) ascending ``eigenvalues`` that pass
    ``require_isolated(row, 0)``, by the same comparisons on every row."""
    width = eigenvalues[:, -1] - eigenvalues[:, 0]
    floor = DEGENERACY_RTOL * width
    return (width > 0.0) & (eigenvalues[:, 1] - eigenvalues[:, 0] > floor)


def _require_qubit_dim(dim: int, partition: QubitPartition) -> None:
    if dim != 2**partition.n_qubits:
        raise ValueError(
            f"vector dimension {dim} is not 2^{partition.n_qubits}; "
            "a qubit partition needs a power-of-two Hilbert space"
        )


def _as_site_matrix(vectors: np.ndarray, partition: QubitPartition) -> np.ndarray:
    """The (k, dim_A, dim_B) stack of site matrices of a (dim, k) block of
    state columns, kept-site axes leading; C-contiguous, so that contractions
    downstream give each column the same bits for any k."""
    _require_qubit_dim(vectors.shape[0], partition)
    n = partition.n_qubits
    k = vectors.shape[1]
    order = [n, *partition.kept, *(s for s in range(n) if s not in partition.kept)]
    tensor = np.transpose(vectors.reshape((2,) * n + (k,)), order)
    return np.ascontiguousarray(tensor.reshape(k, partition.dim_kept, -1))
