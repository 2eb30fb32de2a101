import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcbound import (
    HermitianOperator,
    QubitPartition,
    eigensystem,
    heisenberg_coupling,
)
from qcbound.ensembles import EnsembleKind, EnsembleSpec
from qcbound.quantum import _PAULI, DegenerateSpectrumError, _embed, require_isolated

from oracles import partial_trace, partial_trace_dyad, sample_operator


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


class TestPauli:
    # the matrices under heisenberg_coupling and model A's fields
    def test_z_is_diag_plus_minus_one(self):
        assert np.array_equal(_PAULI["z"], np.diag([1.0 + 0j, -1.0 + 0j]))

    def test_involution(self):
        for m in _PAULI.values():
            assert np.allclose(m @ m, np.eye(2))

    def test_commutator_xy(self):
        x, y, z = (_PAULI[a] for a in "xyz")
        assert np.allclose(x @ y - y @ x, 2j * z)


class TestEmbedSite:
    def test_site0_is_most_significant_bit(self):
        diag = np.diag(_embed(_PAULI["z"], 0, 2)).real
        assert np.array_equal(diag, [1, 1, -1, -1])

    def test_site1(self):
        diag = np.diag(_embed(_PAULI["z"], 1, 2)).real
        assert np.array_equal(diag, [1, -1, 1, -1])

    def test_traceless(self):
        for j in range(3):
            assert abs(np.trace(_embed(_PAULI["x"], j, 3))) == 0.0

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            _embed(_PAULI["x"], 3, 3)

    @given(n=st.integers(2, 6), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_z_sign_matches_bit_convention(self, n, data):
        j = data.draw(st.integers(0, n - 1))
        m = data.draw(st.integers(0, 2**n - 1))
        z = _embed(_PAULI["z"], j, n)
        basis = np.zeros(2**n)
        basis[m] = 1.0
        # site j reads bit j counted from the most significant end
        bit = (m >> (n - 1 - j)) & 1
        assert np.allclose(z @ basis, (-1.0) ** bit * basis)


class TestHeisenbergCoupling:
    def test_singlet_triplet_spectrum(self):
        eigs = np.linalg.eigvalsh(heisenberg_coupling(0, 1, 2))
        assert np.allclose(eigs, [-3, 1, 1, 1])

    def test_singlet_is_eigenstate(self):
        singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
        h = heisenberg_coupling(0, 1, 2)
        assert np.allclose(h @ singlet, -3 * singlet)

    def test_conserves_total_z(self):
        n = 3
        h = heisenberg_coupling(0, 2, n)
        ztot = sum(_embed(_PAULI["z"], j, n) for j in range(n))
        assert np.allclose(h @ ztot - ztot @ h, 0.0, atol=1e-12)

    def test_same_site_rejected(self):
        with pytest.raises(ValueError):
            heisenberg_coupling(1, 1, 2)


class TestHermitianOperator:
    def test_symmetrizes_and_warns(self):
        m = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.warns(UserWarning):
            op = HermitianOperator(m)
        assert np.allclose(op.matrix, op.matrix.conj().T)

    def test_rejects_small_dim(self):
        with pytest.raises(ValueError):
            HermitianOperator(np.ones((1, 1)))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            HermitianOperator(np.ones((2, 3)))

    def test_matrix_read_only(self):
        op = HermitianOperator(np.eye(2))
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_input_neither_written_nor_aliased(self, dtype):
        m = np.array([[1.0, 2.0], [0.5, 3.0]], dtype=dtype)
        before = m.copy()
        with pytest.warns(UserWarning):
            op = HermitianOperator(m)
        assert np.array_equal(m, before) and m.flags.writeable
        assert not np.shares_memory(op.matrix, m)
        assert op.matrix.dtype == dtype
        assert np.array_equal(op.matrix, 0.5 * (before + before.conj().T))


class TestEigensystem:
    def test_diagonal_input_sorted(self):
        dec = eigensystem(HermitianOperator(np.diag([3.0, 1.0, 2.0])))
        assert np.allclose(dec.eigenvalues, [1, 2, 3])
        assert np.min(np.diff(dec.eigenvalues)) == 1.0
        require_isolated(dec.eigenvalues, range(3))

    def test_pauli_x(self):
        dec = eigensystem(HermitianOperator(_PAULI["x"]))
        assert np.allclose(dec.eigenvalues, [-1, 1])
        expected = np.array([[1, 1], [-1, 1]]) / np.sqrt(2)
        # phase gauge makes the largest component real positive
        assert np.allclose(np.abs(dec.eigenvectors), np.abs(expected))
        for col in dec.eigenvectors.T:
            pivot = col[np.argmax(np.abs(col))]
            assert pivot.real > 0 and abs(pivot.imag) < 1e-14

    def test_reconstruction_64dim_goe(self):
        h = sample_operator(EnsembleSpec(EnsembleKind.GOE, 64), seed=11)
        dec = eigensystem(h)
        rebuilt = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.conj().T
        assert np.max(np.abs(rebuilt - h.matrix)) < 1e-10
        # per-column residual against the operator norm
        residual = h.matrix @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues
        norm = np.linalg.norm(h.matrix, 2)
        assert np.max(np.linalg.norm(residual, axis=0)) < 1e-10 * norm

    def test_trace_matches_eigenvalue_sum(self):
        for seed in range(5):
            h = sample_operator(EnsembleSpec(EnsembleKind.GUE, 16), seed=seed)
            dec = eigensystem(h)
            tr = np.trace(h.matrix).real
            assert abs(dec.eigenvalues.sum() - tr) < 1e-10 * max(1.0, abs(tr))

    def test_orthonormality(self):
        h = sample_operator(EnsembleSpec(EnsembleKind.GUE, 32), seed=3)
        u = eigensystem(h).eigenvectors
        assert np.max(np.abs(u.conj().T @ u - np.eye(32))) < 1e-10

    def test_phase_gauge_reproducible(self):
        h = sample_operator(EnsembleSpec(EnsembleKind.GUE, 8), seed=5)
        u1 = eigensystem(h).eigenvectors
        u2 = eigensystem(h).eigenvectors
        assert np.array_equal(u1, u2)

    def test_degeneracy_guard(self):
        dec = eigensystem(HermitianOperator(np.diag([0.0, 0.0, 1.0])))
        with pytest.raises(DegenerateSpectrumError):
            require_isolated(dec.eigenvalues, range(3))


class TestQubitPartition:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            QubitPartition(n_qubits=2, kept=())

    def test_rejects_full_set(self):
        with pytest.raises(ValueError):
            QubitPartition(n_qubits=2, kept=(0, 1))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            QubitPartition(n_qubits=2, kept=(2,))

    def test_sorts_and_dedups(self):
        p = QubitPartition(n_qubits=4, kept=(2, 0, 2))
        assert p.kept == (0, 2)


class TestPartialTrace:
    def test_bell_state_reduction(self):
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        rho = partial_trace_dyad(bell, bell, QubitPartition.single_site(0, 2))
        assert np.allclose(rho, np.eye(2) / 2)

    def test_product_state_reduction(self):
        ket01 = np.array([0.0, 1.0, 0.0, 0.0])  # |01>
        rho = partial_trace_dyad(ket01, ket01, QubitPartition.single_site(0, 2))
        assert np.allclose(rho, np.diag([1.0, 0.0]))

    def test_dyad_trace_is_overlap(self):
        h = sample_operator(EnsembleSpec(EnsembleKind.GUE, 8), seed=9)
        dec = eigensystem(h)
        p = QubitPartition.single_site(1, 3)
        for k in range(3):
            for l in range(3):
                tr = np.trace(partial_trace_dyad(dec.eigenvectors[:, k], dec.eigenvectors[:, l], p))
                assert abs(tr - (1.0 if k == l else 0.0)) < 1e-12

    def test_matches_matrix_code_path(self):
        # dyad reduction vs the independent full-density-matrix contraction
        psi = random_state(8, seed=21)
        phi = random_state(8, seed=22)
        for kept in [(0,), (1,), (2,), (0, 2)]:
            p = QubitPartition(n_qubits=3, kept=kept)
            via_dyad = partial_trace_dyad(psi, phi, p)
            via_matrix = partial_trace(np.outer(psi, phi.conj()), p)
            assert np.max(np.abs(via_dyad - via_matrix)) < 1e-12

    def test_requires_power_of_two(self):
        vec = np.ones(6) / np.sqrt(6)
        with pytest.raises(ValueError):
            partial_trace_dyad(vec, vec, QubitPartition.single_site(0, 2))

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_mixed_state_trace_preserved(self, seed, n):
        rng = np.random.default_rng(seed)
        dim = 2**n
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        kept = tuple(rng.choice(n, size=rng.integers(1, n), replace=False))
        reduced = partial_trace(rho, QubitPartition(n_qubits=n, kept=kept))
        assert abs(np.trace(reduced) - 1.0) < 1e-12

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    def test_single_site_purity_bounds(self, seed, n):
        psi = random_state(2**n, seed)
        for j in range(n):
            rho = partial_trace_dyad(psi, psi, QubitPartition.single_site(j, n))
            purity = np.trace(rho @ rho).real
            assert 0.5 - 1e-12 <= purity <= 1.0 + 1e-12
