import tracemalloc
import warnings
from functools import lru_cache

import numpy as np
import pytest

from qcbound import HermitianOperator, bound_b, eigensystem, heisenberg_coupling
from qcbound.entanglement import sector_mean_bipartite_Q
from qcbound.ensembles import EnsembleKind, EnsembleSpec, _sample_matrix, spawn_seed, spawn_seeds
from qcbound.experiments import _model_d_spectra
from qcbound.models import (
    MODEL_D_CHAOTIC_SCALE,
    MODEL_D_DEFAULT_DIM,
    MODEL_E_DEFAULT_FIELD,
    ModelConfig,
    NonFiniteHamiltonianError,
    _ModelDSampler,
    _ModelESampler,
    _sector_chain,
    build_scatter_model,
    sz_sector_indices,
    _spectral_std,
)
from qcbound.quantum import DegenerateSpectrumError, _one_blas_thread

from oracles import block_spectrum, mean_bipartite_Q, model_d_matrix, model_e_blocks, site_z


def total_z(n):
    return sum(site_z(j, n) for j in range(n))


def scatter_model(family, n_qubits=0, seed=0, **config):
    """H0 and the perturbation spec of a scatter model, as ``check`` builds them."""
    return build_scatter_model(ModelConfig(family, n_qubits, **config), h0_seed=seed)


def model_d_draw(theta, seed, dim=MODEL_D_DEFAULT_DIM, chaotic_scale=MODEL_D_CHAOTIC_SCALE):
    """H(theta) of one seed, as the sweeps draw it."""
    return _ModelDSampler([seed], dim, chaotic_scale).matrix(theta, 0)


def model_e_matrix(n_qubits, d=0.0, h=MODEL_E_DEFAULT_FIELD, J=1.0, seed=0):
    """The sector blocks of one seed written into the 2^N matrix."""
    matrix = np.zeros((2**n_qubits, 2**n_qubits))
    for indices, block in model_e_blocks(n_qubits, d, h, J, seed):
        matrix[np.ix_(indices, indices)] = block
    return matrix


class TestModelA:
    def test_lambda_zero_is_diagonal_field_sum(self):
        h0, _ = scatter_model("A", a_coeffs=(0.1, 0.2, 0.3), lam=0.0)
        m = h0.matrix
        assert np.max(np.abs(m - np.diag(np.diag(m)))) == 0.0
        # eigenvalues are all sign combinations sum_j (+-a_j)
        expected = sorted(
            s0 * 0.1 + s1 * 0.2 + s2 * 0.3
            for s0 in (1, -1) for s1 in (1, -1) for s2 in (1, -1)
        )
        assert np.allclose(np.sort(np.diag(m).real), expected)

    def test_conserves_total_z(self):
        h0, _ = scatter_model("A")
        z = total_z(3)
        assert np.max(np.abs(h0.matrix @ z - z @ h0.matrix)) < 1e-12

    def test_perturbation_spec(self):
        _, spec = scatter_model("A")
        assert spec == EnsembleSpec(EnsembleKind.GUE, 8)

    def test_rejects_wrong_coefficient_count(self):
        with pytest.raises(ValueError):
            scatter_model("A", a_coeffs=(0.1, 0.2))


class TestNonFiniteHamiltonian:
    # finite parameters whose Hamiltonian overflows: refused, with no warning
    @pytest.mark.parametrize("build,model", [
        (lambda: scatter_model("A", lam=1e308), "A"),
        (lambda: scatter_model("A", a_coeffs=(1e308, 1e308, 1e308)), "A"),
        (lambda: model_e_blocks(n_qubits=5, d=1e308, seed=1), "E"),
        # seed 68: one standard normal of 1.87, so one defect alone overflows
        (lambda: model_e_blocks(n_qubits=2, d=1e308, seed=68), "E"),
        (lambda: model_e_blocks(n_qubits=5, h=1e308), "E"),
        (lambda: model_e_blocks(n_qubits=4, h=-1e308), "E"),
    ], ids=["A-lambda", "A-fields", "E-d", "E-one-defect", "E-h", "E-negative-h"])
    def test_overflow_raises(self, build, model):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteHamiltonianError,
                               match=f"the model-{model} Hamiltonian is not finite"):
                build()

    def test_largest_finite_scales_still_build(self):
        # just below overflow: every entry finite, as built before the guard
        h0, _ = scatter_model("A", a_coeffs=(1e307, 0.0, 0.0), lam=1e307)
        assert np.isfinite(h0.matrix).all()
        blocks = model_e_blocks(n_qubits=3, d=1e306, h=1e306, seed=4)
        assert all(np.isfinite(block).all() for _, block in blocks)


class TestModelB:
    def test_seed_determinism(self):
        h1, _ = scatter_model("B", 2, seed=9)
        h2, _ = scatter_model("B", 2, seed=9)
        assert np.array_equal(h1.matrix, h2.matrix)

    @pytest.mark.parametrize("n,dim", [(2, 4), (3, 8), (6, 64)])
    def test_dimensions(self, n, dim):
        h0, spec = scatter_model("B", n, seed=0)
        assert h0.dim == dim
        assert spec == EnsembleSpec(EnsembleKind.GUE, dim)
        assert _sample_matrix(spec, 1).shape == (dim, dim)


class TestModelC:
    def test_goe_perturbations_are_real(self):
        _, spec = scatter_model("C", ensemble="GOE", seed=4)
        assert spec.kind is EnsembleKind.GOE
        for s in range(3):
            assert not np.iscomplexobj(_sample_matrix(spec, s))

    def test_gue_perturbations_are_complex(self):
        _, spec = scatter_model("C", ensemble="GUE", seed=4)
        assert spec.kind is EnsembleKind.GUE
        assert np.iscomplexobj(_sample_matrix(spec, 0))

    def test_rejects_other_ensembles(self):
        with pytest.raises(ValueError):
            scatter_model("C", ensemble="PoissonDiagonal", seed=0)


class TestModelConfig:
    def test_family_defaults(self):
        assert ModelConfig(family="A").n_qubits == 3
        assert ModelConfig(family="B").n_qubits == 2
        assert ModelConfig(family="C").n_qubits == 2

    def test_model_a_requires_three_qubits(self):
        with pytest.raises(ValueError):
            ModelConfig(family="A", n_qubits=4)

    def test_tags(self):
        assert ModelConfig(family="B", n_qubits=3).tag == "B-N3"
        assert ModelConfig(family="C", ensemble="GOE").tag == "C-GOE-N2"

    def test_build_scatter_model(self):
        for family, n in (("A", 3), ("B", 2), ("C", 2)):
            h0, spec = build_scatter_model(ModelConfig(family=family, n_qubits=n), h0_seed=5)
            assert h0.dim == 2**n
            assert spec.dim == 2**n


class TestModelD:
    def test_theta_zero_is_diagonal(self):
        m = model_d_draw(0.0, seed=3, dim=32)
        assert np.max(np.abs(m - np.diag(np.diag(m)))) == 0.0

    def test_theta_right_angle_is_goe_part(self):
        # cos factor vanishes: pure (rescaled) GOE component
        m = model_d_draw(np.pi / 2, seed=3, dim=32)
        assert np.max(np.abs(np.diag(m))) > 0
        assert np.count_nonzero(m - np.diag(np.diag(m))) > 0

    def test_continuity_in_theta(self):
        t1, t2 = 0.4, 0.45
        h1 = model_d_draw(t1, seed=8, dim=32)
        h2 = model_d_draw(t2, seed=8, dim=32)
        hp = model_d_draw(0.0, seed=8, dim=32)  # cos(0) H_P
        hw = model_d_draw(np.pi / 2, seed=8, dim=32)  # sin(pi/2) H_W
        lip = (abs(np.cos(t1) - np.cos(t2)) + abs(np.sin(t1) - np.sin(t2))) * max(
            np.linalg.norm(hp, 2), np.linalg.norm(hw, 2)
        )
        assert np.linalg.norm(h1 - h2, 2) <= lip + 1e-12

    def test_rejects_theta_outside_range(self):
        with pytest.raises(ValueError):
            model_d_draw(-0.1, seed=0)

    def test_unit_spectral_std_components(self):
        hp = model_d_draw(0.0, seed=11, dim=64)
        assert np.std(np.linalg.eigvalsh(hp)) == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("dim", [8, 32, 128])
    def test_frobenius_spread_is_eigenvalue_std(self, dim):
        for seed in range(6):
            hw = _sample_matrix(EnsembleSpec(EnsembleKind.GOE, dim), spawn_seed(seed, 1))
            assert _spectral_std(hw) == pytest.approx(
                np.std(np.linalg.eigvalsh(hw)), rel=1e-12
            )

    def test_frobenius_spread_complex_and_shifted(self):
        h = _sample_matrix(EnsembleSpec(EnsembleKind.GUE, 16), 4) + 3.0 * np.eye(16)
        assert _spectral_std(h) == pytest.approx(np.std(np.linalg.eigvalsh(h)), rel=1e-12)

    @pytest.mark.parametrize("dim", [32, 128])
    def test_chaotic_part_has_chaotic_scale_std(self, dim):
        for seed in range(5):
            for scale in (0.3, 1.0):
                m = model_d_draw(np.pi / 2, seed=seed, dim=dim, chaotic_scale=scale)
                assert np.std(np.linalg.eigvalsh(m)) == pytest.approx(scale, rel=1e-12)

    def test_no_eigensolver_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the model-D sampler called an eigensolver")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        for theta in (0.0, 0.7, np.pi / 2):
            assert model_d_draw(theta, seed=2, dim=64).shape == (64, 64)

    def test_sweep_matrix_is_exactly_symmetric_model_d(self):
        # sweep_theta solves the plain array without HermitianOperator: it
        # must already be exactly symmetric, and each draw of a many-seed
        # sampler the draw of its seed alone, both with OpenBLAS held at one
        # thread, as in a sweep
        sampler = _ModelDSampler(np.arange(20), 128, 0.3)
        for seed in range(20):
            for theta in (0.0, 0.3, 0.7, np.pi / 2):
                with _one_blas_thread():
                    m = sampler.matrix(theta, seed)
                    alone = model_d_draw(theta, seed, dim=128)
                assert np.array_equal(m, m.T)
                assert m.tobytes() == alone.tobytes()


class TestModelDSampler:
    THETAS = (0.0, 0.3, np.pi / 4, np.pi / 2)
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, *spawn_seeds(17, np.arange(15)).tolist()]

    @pytest.mark.parametrize("dim", [20, 64, 128])
    def test_equals_seed_taking_builder_bit_for_bit(self, dim):
        # one sampler, so every draw reuses the buffers of the one before
        sampler = _ModelDSampler(self.SEEDS, dim, MODEL_D_CHAOTIC_SCALE)
        for theta in self.THETAS:
            for i, seed in enumerate(self.SEEDS):
                expected = model_d_matrix(theta, seed, dim, MODEL_D_CHAOTIC_SCALE)
                assert sampler.matrix(theta, i).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dim", [20, 64, 128])
    def test_theta_zero_sorted_diagonal_equals_eigvalsh(self, dim):
        sampler = _ModelDSampler(self.SEEDS, dim, MODEL_D_CHAOTIC_SCALE)
        [eigenvalues] = _model_d_spectra([0.0], [self.SEEDS], dim, MODEL_D_CHAOTIC_SCALE)
        for i, seed in enumerate(self.SEEDS):
            expected = np.linalg.eigvalsh(model_d_matrix(0.0, seed, dim, MODEL_D_CHAOTIC_SCALE))
            assert np.array_equal(np.sort(sampler.diagonal(0.0, i)), expected)
            assert np.array_equal(eigenvalues[i], expected)

    def test_rejects_theta_outside_range(self):
        sampler = _ModelDSampler([1], 20, MODEL_D_CHAOTIC_SCALE)
        for theta in (-0.1, 2.0, float("nan")):
            with pytest.raises(ValueError):
                sampler.diagonal(theta, 0)
            with pytest.raises(ValueError):
                sampler.matrix(theta, 0)


class TestModelE:
    def test_two_site_clean_spectrum(self):
        h = model_e_matrix(n_qubits=2, d=0.0, h=0.0, J=1.0, seed=0)
        assert np.allclose(np.linalg.eigvalsh(h), [-0.75, 0.25, 0.25, 0.25])

    def test_real_symmetric(self):
        h = model_e_matrix(n_qubits=4, d=0.8, seed=5)
        assert not np.iscomplexobj(h)
        assert np.array_equal(h, h.T)

    def test_conserves_total_z_for_all_parameters(self):
        for d in (0.0, 0.5, 2.5):
            ham = model_e_matrix(n_qubits=4, d=d, seed=2)
            z = total_z(4)
            assert np.max(np.abs(ham @ z - z @ ham)) < 1e-12

    def test_defect_determinism(self):
        a = model_e_matrix(n_qubits=3, d=1.0, seed=7)
        b = model_e_matrix(n_qubits=3, d=1.0, seed=7)
        assert np.array_equal(a, b)

    def test_open_chain_has_no_wraparound_bond(self):
        # sites 0 and N-1 uncoupled: flipping both relative signs leaves
        # the interaction energy of a product basis state unchanged
        h = model_e_matrix(n_qubits=3, d=0.0, h=0.0, J=1.0, seed=0)
        # |010> and |011>: bond (1,2) changes alignment, bond (0,1) unchanged;
        # if a (0,2) bond existed these diagonal entries would differ by an
        # extra +-J/2 contribution
        # diagonal of (J/4) sum sigma_z sigma_z over bonds (0,1), (1,2)
        diag = np.diag(h).real
        expected = 0.25 * np.array([2, 0, -2, 0, 0, -2, 0, 2])
        assert np.allclose(diag, expected)

    def test_default_field_below_one(self):
        assert 0.9 < MODEL_E_DEFAULT_FIELD < 1.0

    def test_ground_state_polarized_at_default_field(self):
        # the clean chain at the default field is just above saturation
        dec = eigensystem(HermitianOperator(model_e_matrix(n_qubits=5, d=0.0, seed=0)))
        assert mean_bipartite_Q(dec.eigenvectors[:, 0], 5) == pytest.approx(0.0, abs=1e-10)

    def test_rejects_zero_coupling(self):
        with pytest.raises(ValueError):
            model_e_blocks(n_qubits=3, J=0.0)


class TestSectorRestriction:
    def test_largest_sector_size(self):
        idx = sz_sector_indices(9, 4)
        from math import comb

        assert idx.size == comb(9, 4)

    def test_sector_block_is_invariant_subspace(self):
        ham = dense_model_e(4, d=0.7, seed=3)
        idx = sz_sector_indices(4, 2)
        outside = np.setdiff1d(np.arange(16), idx)
        # no coupling between the sector and its complement
        assert np.max(np.abs(ham[np.ix_(idx, outside)])) == 0.0

    def test_sector_eigenvalues_subset_of_spectrum(self):
        full = np.linalg.eigvalsh(dense_model_e(4, d=0.3, seed=8))
        sector = np.linalg.eigvalsh(model_e_blocks(n_qubits=4, d=0.3, seed=8)[2][1])
        for e in sector:
            assert np.min(np.abs(full - e)) < 1e-10


@lru_cache(maxsize=None)
def dense_chain_coupling(n):
    return sum(heisenberg_coupling(j, j + 1, n) for j in range(n - 1))


def dense_model_e(n, d, h=MODEL_E_DEFAULT_FIELD, J=1.0, seed=0):
    """Oracle: model E summed from Kronecker-embedded Pauli terms in 2^N space."""
    rng = np.random.default_rng(int(seed))
    defects = rng.normal(0.0, d, size=n) if d > 0 else np.zeros(n)
    matrix = (J / 4.0) * dense_chain_coupling(n)
    for j in range(n):
        matrix = matrix + (h + defects[j]) * site_z(j, n)
    return matrix


class TestModelESampler:
    def test_samplers_of_one_chain_share_the_scaled_couplings(self):
        first = _ModelESampler([1, 2], 9, 0.3, MODEL_E_DEFAULT_FIELD, 0.7)
        second = _ModelESampler([3], 9, 2.5, 0.5, 0.7)
        other_j = _ModelESampler([3], 9, 2.5, 0.5, 1.0)
        assert first.sectors is second.sectors is _sector_chain(9, 0.7)
        assert other_j.sectors is not first.sectors
        # at J = 4 the scale J / 4 is 1: the unscaled bond sum, bit for bit
        unscaled = _sector_chain(9, 4.0)
        for n_down, (indices, shared, signs) in enumerate(second.sectors):
            assert not any(a.flags.writeable for a in (indices, shared, signs))
            # the block a sampler of its own would write, bit for bit
            expected = (0.7 / 4.0) * unscaled[n_down][1]
            diagonal = expected.diagonal()
            fields = 0.5 + 2.5 * np.random.default_rng(3).standard_normal(9)
            for j in range(9):
                diagonal = diagonal + fields[j] * signs[:, j]
            np.fill_diagonal(expected, diagonal)
            block = second.block(n_down, 0, np.empty_like(expected))
            assert block.tobytes() == expected.tobytes()

    def test_a_sampler_keeps_one_scaled_copy_of_the_blocks(self):
        # N = 11: the scaled blocks take 5.6 MB; an unscaled copy beside
        # them would take as much again
        _sector_chain.cache_clear()
        tracemalloc.start()
        try:
            sampler = _ModelESampler([1, 2], 11, 0.3, MODEL_E_DEFAULT_FIELD, 0.83)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sampler.sectors is _sector_chain(11, 0.83)
        assert kept < 8e6

    def test_overflowing_coupling_raises_and_caches_nothing(self):
        # J / 4 times the all-up diagonal, N - 1 = 8, overflows
        _sector_chain.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteHamiltonianError, match="model-E Hamiltonian"):
                _ModelESampler([1], 9, 0.0, MODEL_E_DEFAULT_FIELD, 1e308)
        assert _sector_chain.cache_info().currsize == 0


class TestModelEBlocks:
    @pytest.mark.parametrize("n", range(2, 10))
    @pytest.mark.parametrize("d", [0.0, 0.3, 2.5])
    def test_matches_dense_oracle(self, n, d):
        seed = 100 * n + 7
        oracle = dense_model_e(n, d, seed=seed)
        assert np.max(np.abs(model_e_matrix(n, d, seed=seed) - oracle)) <= 1e-14

        blocks = model_e_blocks(n, d, seed=seed)
        spectrum = block_spectrum(blocks)
        dense = eigensystem(HermitianOperator(oracle))
        eps = dense.eigenvalues
        width = eps[-1] - eps[0]
        assert np.max(np.abs(spectrum.eigenvalues - eps)) <= 1e-12 * width
        indices = blocks[spectrum.ground_block][0]
        assert abs(spectrum.ground_state @ dense.eigenvectors[indices, 0]) >= 1.0 - 1e-12
        assert bound_b(spectrum.eigenvalues) == pytest.approx(bound_b(eps), rel=1e-12)
        # Q = 2 - (2/N) sum of purities near 1: its rounding error is absolute
        signs = _sector_chain(n, 1.0)[spectrum.ground_block][2]
        assert sector_mean_bipartite_Q(spectrum.ground_state, signs, n) == pytest.approx(
            mean_bipartite_Q(dense.eigenvectors[:, 0], n), rel=1e-12, abs=1e-12
        )

    def test_sectors_in_n_down_order(self):
        blocks = model_e_blocks(5, 0.4, seed=1)
        assert len(blocks) == 6
        for n_down, (indices, block) in enumerate(blocks):
            assert np.array_equal(indices, sz_sector_indices(5, n_down))
            assert block.shape == (indices.size, indices.size)

    def test_ground_doublet_across_blocks_rejected(self):
        # odd open Heisenberg chain at zero field: S_z = +-1/2 ground doublet,
        # one state in the n_down = 2 block and one in n_down = 3
        spectrum = block_spectrum(model_e_blocks(5, d=0.0, h=0.0))
        lows = [v[0] for v in spectrum.block_eigenvalues]
        assert lows[2] == pytest.approx(lows[3], abs=1e-12)
        assert min(lows[2], lows[3]) < min(lows[:2] + lows[4:])
        with pytest.raises(DegenerateSpectrumError):
            bound_b(spectrum.eigenvalues)

    def test_ground_state_in_one_dimensional_block(self):
        # clean chain above saturation: all spins down, the lone n_down = N state
        n = 6
        blocks = model_e_blocks(n, d=0.0)
        spectrum = block_spectrum(blocks)
        assert spectrum.ground_block == n
        indices = blocks[n][0]
        assert np.array_equal(indices, [2**n - 1])
        assert np.array_equal(np.abs(spectrum.ground_state), [1.0])
        signs = _sector_chain(n, 1.0)[n][2]
        assert sector_mean_bipartite_Q(spectrum.ground_state, signs, n) == 0.0
