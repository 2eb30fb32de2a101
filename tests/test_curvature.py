import math

import numpy as np
import pytest

from qcbound import (
    EntanglementInputs, HermitianOperator, QubitPartition, bound_b, bound_b_prime, eigensystem,
    ensemble_deltaQ_ratios, saturation_index,
)
from qcbound.curvature import _level_differences, level_curvature_from_row
from qcbound.ensembles import EnsembleKind, EnsembleSpec, _sample_matrix, spawn_seed
from qcbound.quantum import DegenerateSpectrumError, require_isolated

from oracles import curvature_spectrum, dEL_dtau, dQ0_dtau, level_curvature, sample_operator


def inputs_from(h0, v, n_qubits):
    return EntanglementInputs.from_perturbation(eigensystem(h0), v, n_qubits)


class TestLevelCurvature:
    def test_two_level_closed_form(self):
        # H0 = diag(0, 1), V = sigma_x: eigenvalues (1 -+ sqrt(1 + 4 tau^2))/2
        sigma_x = HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))
        inputs = inputs_from(HermitianOperator(np.diag([0.0, 1.0])), sigma_x, 1)
        assert level_curvature(0, inputs) == pytest.approx(-2.0)
        assert level_curvature(1, inputs) == pytest.approx(2.0)

    def test_diagonal_perturbation_flat(self):
        h0 = sample_operator(EnsembleSpec(EnsembleKind.GUE, 8), 1)
        dec = eigensystem(h0)
        v = HermitianOperator(
            dec.eigenvectors @ np.diag(np.arange(8.0)) @ dec.eigenvectors.conj().T
        )
        inputs = EntanglementInputs.from_perturbation(dec, v, 3)
        for n in range(8):
            assert level_curvature(n, inputs) == pytest.approx(0.0, abs=1e-12)

    def test_matches_second_finite_difference(self):
        h0 = sample_operator(EnsembleSpec(EnsembleKind.GUE, 16), 40)
        v = sample_operator(EnsembleSpec(EnsembleKind.GUE, 16), 41)
        inputs = inputs_from(h0, v, 4)
        step = 1e-3

        def eig(n, tau):
            return eigensystem(HermitianOperator(h0.matrix + tau * v.matrix)).eigenvalues[n]

        for n in (0, 7, 15):
            fd = (eig(n, step) - 2 * eig(n, 0.0) + eig(n, -step)) / step**2
            assert level_curvature(n, inputs) == pytest.approx(fd, rel=1e-4)

    def test_sum_rule(self):
        for seed in range(10):
            h0 = sample_operator(EnsembleSpec(EnsembleKind.GUE, 16), 100 + seed)
            v = sample_operator(EnsembleSpec(EnsembleKind.GUE, 16), 200 + seed)
            ks = curvature_spectrum(inputs_from(h0, v, 4))
            assert abs(ks.sum()) < 1e-9 * np.abs(ks).sum()

    def test_spectrum_matches_single_level(self):
        h0 = sample_operator(EnsembleSpec(EnsembleKind.GUE, 8), 7)
        v = sample_operator(EnsembleSpec(EnsembleKind.GUE, 8), 8)
        inputs = inputs_from(h0, v, 3)
        ks = curvature_spectrum(inputs)
        for n in range(8):
            assert ks[n] == pytest.approx(level_curvature(n, inputs), rel=1e-12)


class TestBoundB:
    def test_one_gap(self):
        dec = eigensystem(HermitianOperator(np.diag([0.0, 4.0])))
        assert bound_b(dec.eigenvalues) == pytest.approx(4.0)

    def test_model_a_regression_value(self):
        # pinned on first run with the documented defaults a=(0.1,0.2,0.3),
        # lambda=0.5; changes mean the model or the solver changed
        from qcbound.models import ModelConfig, build_scatter_model

        h0, _ = build_scatter_model(ModelConfig(family="A"), h0_seed=0)
        b = bound_b(eigensystem(h0).eigenvalues)
        assert b == pytest.approx(24.844450458020454, rel=1e-12)
        assert bound_b_prime(b, 3) == pytest.approx(1.035185435750852, rel=1e-12)

    def test_harmonic_gaps(self):
        dec = eigensystem(HermitianOperator(np.diag([0.0, 1.0, 2.0, 3.0])))
        assert bound_b(dec.eigenvalues) == pytest.approx(8.0 * math.sqrt(11.0 / 6.0))

    def test_degenerate_ground_state_rejected(self):
        dec = eigensystem(HermitianOperator(np.diag([0.0, 0.0, 1.0])))
        with pytest.raises(DegenerateSpectrumError):
            bound_b(dec.eigenvalues)


class TestDegeneracyGuard:
    # diag(0, 1, 1, 2): an isolated ground level below a doublet at 1.  Each
    # formula refuses only the levels it divides by.
    FORMULAS = [
        ("bound_b", lambda inputs: bound_b(inputs.decomposition.eigenvalues), True),
        ("dQ0_dtau", dQ0_dtau, True),
        ("level_curvature(0)", lambda inputs: level_curvature(0, inputs), True),
        ("level_curvature(1)", lambda inputs: level_curvature(1, inputs), False),
        ("dEL_dtau(1)",
         lambda inputs: dEL_dtau(1, inputs, QubitPartition.single_site(0, 2)), False),
        ("curvature_spectrum", curvature_spectrum, False),
    ]

    @pytest.mark.parametrize("formula,accepts", [f[1:] for f in FORMULAS],
                             ids=[f[0] for f in FORMULAS])
    def test_excited_doublet(self, formula, accepts):
        h0 = HermitianOperator(np.diag([0.0, 1.0, 1.0, 2.0]))
        v = sample_operator(EnsembleSpec(EnsembleKind.GUE, 4), 3)
        inputs = inputs_from(h0, v, 2)
        if accepts:
            assert math.isfinite(formula(inputs))
        else:
            with pytest.raises(DegenerateSpectrumError, match="level 1: gap 0.000e"):
                formula(inputs)

    # sorted spectra, as np.sort puts a NaN last; each level of each is refused
    NON_FINITE = [[0.0, np.nan, 2.0], [0.0, 1.0, np.nan], [np.nan, 1.0, 2.0],
                  [0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0], [-np.inf, 0.0, np.inf]]

    @pytest.mark.parametrize("eps", NON_FINITE, ids=[str(e) for e in NON_FINITE])
    def test_non_finite_spectrum_refused(self, eps):
        eps = np.array(eps)
        with pytest.raises(DegenerateSpectrumError):
            bound_b(eps)
        for n in range(eps.size):
            with pytest.raises(DegenerateSpectrumError, match=f"level {n}: gap"):
                require_isolated(eps, n)


class TestBoundBPrime:
    def test_fixed_ratio_to_b(self):
        dec = eigensystem(HermitianOperator(np.diag([0.0, 0.7, 1.9, 3.4])))
        n = 2
        a = 2.0**-n
        b = bound_b(dec.eigenvalues)
        assert bound_b_prime(b, n) / b == a / math.sqrt(3 * n)

    def test_default_a_value(self):
        dec = eigensystem(HermitianOperator(np.diag([0.0, 1.0, 2.0, 3.0])))
        expected = (8.0 * 0.25 / math.sqrt(6.0)) * math.sqrt(11.0 / 6.0)
        assert bound_b_prime(bound_b(dec.eigenvalues), 2) == pytest.approx(expected)

    def test_a_choice_scaling(self):
        dec = eigensystem(HermitianOperator(np.diag([0.0, 1.0, 2.0, 3.0])))
        n = 2
        b = bound_b(dec.eigenvalues)
        ratio = bound_b_prime(b, n, a=1.0 / n) / bound_b_prime(b, n, a=2.0**-n)
        assert ratio == pytest.approx(2.0**n / n, rel=1e-14)

    def test_rejects_nonpositive_a(self):
        dec = eigensystem(HermitianOperator(np.diag([0.0, 1.0])))
        with pytest.raises(ValueError):
            bound_b_prime(bound_b(dec.eigenvalues), 1, a=0.0)


class TestSaturationIndex:
    def test_zero_rate(self):
        assert saturation_index(0.0, -4.0, 3.0) == pytest.approx(-6.0)

    def test_flat_degenerate_case(self):
        assert saturation_index(0.0, 0.0, 5.0) == 0.0


def exact_mean_sqrt_curvature(beta):
    """<sqrt|k|> = B(3/4, beta/2 + 1/4) / B(1/2, (beta + 1)/2) under the
    Zakrzewski-Delande law P(k) ~ (1 + k^2)^(-(beta + 2)/2)."""
    def log_beta(a, b):
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    return math.exp(log_beta(0.75, beta / 2 + 0.25) - log_beta(0.5, (beta + 1) / 2))


class TestCurvatureLaw:
    # Zakrzewski & Delande, PRE 47, 1650 (1993): k = K / (pi beta sigma^2
    # rho(eps_n)), with sigma^2 the draw's mean |V_nn|^2 and rho the
    # semicircle density sqrt(4d - eps^2) / (2 pi) of radius 2 sqrt(d)
    DIM, DRAWS, CENTRAL = 200, 60, 40

    def test_exact_values(self):
        assert exact_mean_sqrt_curvature(1) == pytest.approx(0.8472, abs=1e-4)
        assert exact_mean_sqrt_curvature(2) == pytest.approx(1 / math.sqrt(2), rel=1e-12)
        assert exact_mean_sqrt_curvature(4) == pytest.approx(0.5893, abs=1e-4)

    @pytest.mark.parametrize("kind,beta", [(EnsembleKind.GOE, 1), (EnsembleKind.GUE, 2)])
    def test_mean_sqrt_curvature_follows_the_law(self, kind, beta):
        spec = EnsembleSpec(kind, self.DIM)
        levels = np.arange(self.CENTRAL) + (self.DIM - self.CENTRAL) // 2
        means = []
        for draw in range(self.DRAWS):
            dec = eigensystem(sample_operator(spec, spawn_seed(0, draw, 0)))
            u, eps = dec.eigenvectors, dec.eigenvalues
            v_eig = u.conj().T @ _sample_matrix(spec, spawn_seed(0, draw, 1)) @ u
            sigma2 = np.mean(np.abs(np.diag(v_eig)) ** 2)
            k = [level_curvature_from_row(v_eig[n], _level_differences(n, eps))
                 / (math.pi * beta * sigma2 * math.sqrt(4 * self.DIM - eps[n] ** 2) / (2 * math.pi))
                 for n in levels]
            means.append(np.mean(np.sqrt(np.abs(k))))
        # the levels of one spectrum are correlated: one mean per draw
        stderr = np.std(means, ddof=1) / math.sqrt(self.DRAWS)
        assert abs(np.mean(means) - exact_mean_sqrt_curvature(beta)) < 4 * stderr


class TestEnsembleRatios:
    def test_printed_ratios(self):
        report = ensemble_deltaQ_ratios()
        assert round(report.ratio_goe_gue, 2) == 0.84
        assert round(report.ratio_goe_gse, 2) == 0.70

    def test_constant_cancels(self):
        r1 = ensemble_deltaQ_ratios(1.0)
        r2 = ensemble_deltaQ_ratios(7.3)
        assert r1.ratio_goe_gue == pytest.approx(r2.ratio_goe_gue, rel=1e-14)
        assert r1.ratio_goe_gse == pytest.approx(r2.ratio_goe_gse, rel=1e-14)
        assert r2.mean_sqrtK_goe == pytest.approx(r1.mean_sqrtK_goe * math.sqrt(7.3))

    def test_rejects_bad_constant(self):
        with pytest.raises(ValueError):
            ensemble_deltaQ_ratios(0.0)
