import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcbound import EntanglementInputs, HermitianOperator, QubitPartition, eigensystem
from qcbound.ensembles import EnsembleKind, EnsembleSpec
from qcbound.entanglement import ground_state_site_overlaps, sector_mean_bipartite_Q
from qcbound.models import sz_sector_indices
from qcbound.quantum import DegenerateSpectrumError

from oracles import (
    dEL_dtau, dEL_dtau_from_gamma, dQ0_dtau, gamma_coeff, linear_entropy, mean_bipartite_Q,
    overlap_coeff, partial_trace, sample_operator,
)


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_inputs(n_qubits, seed):
    dim = 2**n_qubits
    h0 = sample_operator(EnsembleSpec(EnsembleKind.GUE, dim), 1000 + seed)
    v = sample_operator(EnsembleSpec(EnsembleKind.GUE, dim), 2000 + seed)
    dec = eigensystem(h0)
    return h0, v, EntanglementInputs.from_perturbation(dec, v, n_qubits)


def richardson_derivative(f, h=1e-5):
    # central differences with one Richardson extrapolation step
    d1 = (f(h) - f(-h)) / (2 * h)
    d2 = (f(h / 2) - f(-h / 2)) / h
    return (4 * d2 - d1) / 3


class TestLinearEntropy:
    def test_product_state_zero(self):
        ket01 = np.array([0.0, 1.0, 0.0, 0.0])
        assert linear_entropy(ket01, QubitPartition.single_site(0, 2)) == pytest.approx(0.0, abs=1e-14)

    def test_bell_state_half(self):
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert linear_entropy(bell, QubitPartition.single_site(0, 2)) == pytest.approx(0.5)

    def test_against_dense_matrix_oracle(self):
        # independent oracle: full density matrix, matrix-path partial trace
        psi = random_state(8, seed=31)
        for kept in [(0,), (1,), (0, 1)]:
            p = QubitPartition(n_qubits=3, kept=kept)
            rho_a = partial_trace(np.outer(psi, psi.conj()), p)
            expected = 1.0 - np.trace(rho_a @ rho_a).real
            assert linear_entropy(psi, p) == pytest.approx(expected, abs=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_global_phase_invariance(self, seed):
        psi = random_state(8, seed)
        p = QubitPartition.single_site(1, 3)
        rotated = np.exp(1j * 0.7321) * psi
        assert linear_entropy(psi, p) == pytest.approx(linear_entropy(rotated, p), abs=1e-14)


class TestMeanBipartiteQ:
    def test_product_state_zero(self):
        psi = np.zeros(8)
        psi[5] = 1.0
        assert mean_bipartite_Q(psi, 3) == pytest.approx(0.0, abs=1e-14)

    def test_ghz_is_one(self):
        for n in (2, 3, 4):
            ghz = np.zeros(2**n)
            ghz[0] = ghz[-1] = 1 / np.sqrt(2)
            assert mean_bipartite_Q(ghz, n) == pytest.approx(1.0)

    def test_w_state_against_purity_oracle(self):
        w = np.zeros(8)
        w[[1, 2, 4]] = 1 / np.sqrt(3)  # |001>, |010>, |100>
        purities = []
        for j in range(3):
            rho = partial_trace(np.outer(w, w.conj()), QubitPartition.single_site(j, 3))
            purities.append(np.trace(rho @ rho).real)
        expected = 2.0 - (2.0 / 3.0) * sum(purities)
        assert mean_bipartite_Q(w, 3) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(2.0 - 2.0 * (5.0 / 9.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mean_bipartite_Q(np.ones(6) / np.sqrt(6), 3)

    def test_site_permutation_symmetry(self):
        # permuting the state's sites permutes the per-site purities only
        psi = random_state(8, seed=77)
        t = psi.reshape(2, 2, 2)
        swapped = np.transpose(t, (1, 0, 2)).reshape(8)
        assert mean_bipartite_Q(psi, 3) == pytest.approx(mean_bipartite_Q(swapped, 3), abs=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_global_phase_invariance(self, seed):
        psi = random_state(8, seed)
        rotated = np.exp(1j * 2.1) * psi
        assert mean_bipartite_Q(psi, 3) == pytest.approx(
            mean_bipartite_Q(rotated, 3), abs=1e-14
        )


class TestSectorQ:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_dense_on_every_sector(self, n):
        for n_down in range(n + 1):
            indices = sz_sector_indices(n, n_down)
            amplitudes = random_state(indices.size, seed=10 * n + n_down)
            embedded = np.zeros(2**n, dtype=complex)
            embedded[indices] = amplitudes
            assert sector_mean_bipartite_Q(amplitudes, indices, n) == pytest.approx(
                mean_bipartite_Q(embedded, n), abs=1e-12
            )

    def test_w_state(self):
        w = np.ones(3) / np.sqrt(3)  # |001>, |010>, |100>
        assert sector_mean_bipartite_Q(w, [1, 2, 4], 3) == pytest.approx(
            2.0 - 2.0 * (5.0 / 9.0), abs=1e-15
        )

    def test_two_sectors_refused(self):
        # |001> has one down spin, |011> two
        with pytest.raises(ValueError, match="more than one"):
            sector_mean_bipartite_Q(np.ones(2) / np.sqrt(2), [1, 3], 3)


class TestGammaCoeff:
    def test_all_equal_indices_vanish(self):
        _, _, inputs = random_inputs(2, seed=0)
        assert gamma_coeff(1, 1, 1, inputs) == 0.0

    def test_k_equals_n(self):
        _, _, inputs = random_inputs(2, seed=1)
        eps = inputs.decomposition.eigenvalues
        expected = inputs.v_eig[1, 3] / (eps[1] - eps[3])
        assert gamma_coeff(1, 1, 3, inputs) == pytest.approx(expected)

    def test_derivative_of_projector_matches_finite_difference(self):
        h0, v, inputs = random_inputs(3, seed=4)
        n = 2

        def projector(tau):
            dec = eigensystem(HermitianOperator(h0.matrix + tau * v.matrix))
            vec = dec.eigenvectors[:, n]
            return np.outer(vec, vec.conj())

        step = 1e-5
        fd = (projector(step) - projector(-step)) / (2 * step)
        u = inputs.decomposition.eigenvectors
        fd_eig = u.conj().T @ fd @ u
        dim = inputs.decomposition.dim
        analytic = np.zeros((dim, dim), dtype=complex)
        for k in range(dim):
            for l in range(dim):
                analytic[k, l] = gamma_coeff(n, k, l, inputs)
        assert np.max(np.abs(analytic - fd_eig)) < 1e-6
        # trace-free: the projector keeps unit trace along tau
        assert abs(np.trace(analytic)) < 1e-12

    def test_degenerate_spectrum_rejected(self):
        h0 = HermitianOperator(np.diag([0.0, 0.0, 1.0, 2.0]))
        v = sample_operator(EnsembleSpec(EnsembleKind.GUE, 4), 5)
        inputs = EntanglementInputs.from_perturbation(eigensystem(h0), v, 2)
        with pytest.raises(DegenerateSpectrumError):
            gamma_coeff(0, 1, 0, inputs)


class TestOverlapCoeff:
    def test_bounded_by_subsystem(self):
        _, _, inputs = random_inputs(3, seed=6)
        p = QubitPartition.single_site(0, 3)
        for k in range(8):
            assert abs(overlap_coeff(0, 0, k, inputs.decomposition, p)) <= 1.0 + 1e-12

    def test_site_summed_bound(self):
        _, _, inputs = random_inputs(3, seed=7)
        overlaps = ground_state_site_overlaps(inputs.decomposition.eigenvectors, 3)
        assert np.all(np.abs(overlaps) <= 3 + 1e-9)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_site_summed_matches_loop(self, n):
        _, _, inputs = random_inputs(n, seed=8)
        dec = inputs.decomposition
        overlaps = ground_state_site_overlaps(dec.eigenvectors, n)
        for k in range(2**n):
            manual = sum(
                overlap_coeff(0, 0, k, dec, QubitPartition.single_site(j, n))
                for j in range(n)
            )
            assert overlaps[k] == pytest.approx(manual, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_column_subset_matches_full_result(self, n):
        # a block of eigenvector columns that starts with the ground state,
        # such as the columns of the ground state's symmetry block
        _, _, inputs = random_inputs(n, seed=9)
        u = inputs.decomposition.eigenvectors
        full = ground_state_site_overlaps(u, n)
        cols = np.r_[0, np.random.default_rng(n).choice(np.arange(1, 2**n), 2**n // 2,
                                                         replace=False)]
        assert np.array_equal(ground_state_site_overlaps(u[:, cols], n), full[cols])
        assert np.array_equal(ground_state_site_overlaps(u[:, :1], n), full[:1])


class TestDELdtau:
    def test_commuting_perturbation_is_flat(self):
        h0, _, _ = random_inputs(2, seed=9)
        dec = eigensystem(h0)
        # V diagonal in the eigenbasis of H0: no state rotation
        v = HermitianOperator(
            dec.eigenvectors @ np.diag([0.3, -1.2, 0.5, 2.0]) @ dec.eigenvectors.conj().T
        )
        inputs = EntanglementInputs.from_perturbation(dec, v, 2)
        p = QubitPartition.single_site(0, 2)
        assert dEL_dtau(0, inputs, p) == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_difference(self):
        h0, v, inputs = random_inputs(2, seed=10)
        p = QubitPartition.single_site(0, 2)

        def el(tau):
            dec = eigensystem(HermitianOperator(h0.matrix + tau * v.matrix))
            return linear_entropy(dec.eigenvectors[:, 0], p)

        fd = richardson_derivative(el)
        assert dEL_dtau(0, inputs, p) == pytest.approx(fd, rel=1e-6)

    def test_sign_flips_with_perturbation(self):
        h0, v, inputs = random_inputs(2, seed=11)
        p = QubitPartition.single_site(1, 2)
        flipped = EntanglementInputs.from_perturbation(
            inputs.decomposition, HermitianOperator(-v.matrix), 2
        )
        assert dEL_dtau(1, flipped, p) == pytest.approx(-dEL_dtau(1, inputs, p), rel=1e-12)

    @pytest.mark.parametrize("n_qubits", [2, 3, 5])
    def test_double_sum_identity(self, n_qubits):
        for seed in range(4):
            _, _, inputs = random_inputs(n_qubits, seed=20 + seed)
            p = QubitPartition.single_site(seed % n_qubits, n_qubits)
            for n in range(2**n_qubits):
                direct = dEL_dtau(n, inputs, p)
                double = dEL_dtau_from_gamma(n, inputs, p)
                assert abs(direct - double) < 1e-10


class TestDQ0dtau:
    def test_diagonal_perturbation_is_flat(self):
        h0, _, _ = random_inputs(3, seed=12)
        dec = eigensystem(h0)
        v = HermitianOperator(
            dec.eigenvectors @ np.diag(np.arange(8.0)) @ dec.eigenvectors.conj().T
        )
        inputs = EntanglementInputs.from_perturbation(dec, v, 3)
        assert dQ0_dtau(inputs) == pytest.approx(0.0, abs=1e-10)

    def test_matches_finite_difference(self):
        h0, v, inputs = random_inputs(3, seed=13)

        def q(tau):
            dec = eigensystem(HermitianOperator(h0.matrix + tau * v.matrix))
            return mean_bipartite_Q(dec.eigenvectors[:, 0], 3)

        fd = richardson_derivative(q)
        assert dQ0_dtau(inputs) == pytest.approx(fd, rel=1e-5)

    def test_linear_in_perturbation(self):
        _, v, inputs = random_inputs(2, seed=14)
        doubled = EntanglementInputs.from_perturbation(
            inputs.decomposition, HermitianOperator(2.0 * v.matrix), 2
        )
        assert dQ0_dtau(doubled) == pytest.approx(2.0 * dQ0_dtau(inputs), rel=1e-12)

    def test_precomputed_overlaps_equivalent(self):
        _, _, inputs = random_inputs(2, seed=15)
        overlaps = ground_state_site_overlaps(inputs.decomposition.eigenvectors, 2)
        assert dQ0_dtau(inputs, site_overlaps=overlaps) == dQ0_dtau(inputs)


@pytest.mark.slow
class TestDerivativeOracleSweep:
    """100-instance finite-difference cross-check (mirrors the acceptance gate)."""

    def test_hundred_random_instances(self):
        worst_q = worst_el = 0.0
        for i in range(100):
            n = 2 if i % 2 == 0 else 3
            h0, v, inputs = random_inputs(n, seed=5000 + i)
            p = QubitPartition.single_site(i % n, n)

            def q(tau):
                dec = eigensystem(HermitianOperator(h0.matrix + tau * v.matrix))
                return mean_bipartite_Q(dec.eigenvectors[:, 0], n)

            def el(tau):
                dec = eigensystem(HermitianOperator(h0.matrix + tau * v.matrix))
                return linear_entropy(dec.eigenvectors[:, 0], p)

            fd_q = richardson_derivative(q)
            fd_el = richardson_derivative(el)
            worst_q = max(worst_q, abs(dQ0_dtau(inputs) - fd_q) / max(abs(fd_q), 1e-6))
            worst_el = max(worst_el, abs(dEL_dtau(0, inputs, p) - fd_el) / max(abs(fd_el), 1e-6))
        assert worst_q < 1e-5
        assert worst_el < 1e-6
