import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from qcbound.ensembles import spawn_seed, spawn_seeds
from qcbound.experiments import _model_d_spectra
from qcbound.level_stats import (
    GAMMA_DENOMINATOR,
    S0_CROSSING,
    SpacingSample,
    TooFewSpacingsError,
    UnfoldingError,
    gamma_chaos,
    pool_unfolded_rows,
    unfold,
    unfold_rows,
    weibull_fit,
    weibull_mle,
    WeibullParams,
    _fit_counting_function,
)
from qcbound.models import MODEL_D_CHAOTIC_SCALE

from oracles import (
    block_spectrum, model_d_matrix, model_e_blocks, poisson_density, pool_spacing_samples,
    weibull_density, wigner_dyson_density,
)


def gamma_from_density(density) -> float:
    """Chaos parameter of an arbitrary spacing density by quadrature on [0, s0]:
    the oracle of the closed form in ``gamma_chaos``."""
    numerator, _ = quad(
        lambda s: density(s) - wigner_dyson_density(s),
        0.0,
        S0_CROSSING,
        epsabs=1e-10,
        limit=200,
    )
    return numerator / GAMMA_DENOMINATOR


def wigner_samples(n, seed):
    # inverse CDF of the Wigner surmise: F(s) = 1 - exp(-pi s^2 / 4)
    u = np.random.default_rng(seed).uniform(size=n)
    return np.sqrt(-4.0 / np.pi * np.log1p(-u))


class TestReferenceDensities:
    def test_normalization(self):
        s = np.linspace(0, 30, 300_001)
        for dens in (poisson_density, wigner_dyson_density):
            assert np.trapezoid(dens(s), s) == pytest.approx(1.0, abs=1e-6)

    def test_weibull_special_cases(self):
        s = np.linspace(0.01, 5, 100)
        assert np.allclose(weibull_density(s, 1.0, 1.0), poisson_density(s))
        assert np.allclose(weibull_density(s, np.pi / 4.0, 2.0), wigner_dyson_density(s))

    def test_crossing_denominator(self):
        expected = math.exp(-math.pi * S0_CROSSING**2 / 4) - math.exp(-S0_CROSSING)
        assert GAMMA_DENOMINATOR == pytest.approx(expected)


class TestUnfold:
    def test_uniform_spectrum(self):
        u = unfold(np.arange(100.0))
        assert np.allclose(np.diff(u), 1.0, atol=1e-6)

    def test_quadratic_density(self):
        # counting function N(e) = n e^3 on [0, 1]: levels at ((i+0.5)/n)^(1/3)
        n = 400
        levels = ((np.arange(n) + 0.5) / n) ** (1.0 / 3.0)
        spacings = np.diff(unfold(levels))
        assert abs(spacings.mean() - 1.0) < 1e-2

    def test_too_few_levels(self):
        with pytest.raises(UnfoldingError):
            unfold(np.arange(10.0))

    def test_count_preserved(self):
        rng = np.random.default_rng(0)
        levels = np.sort(rng.normal(size=200))
        assert unfold(levels).size == 200 - 2 * int(0.05 * 200)

    def test_unsorted_input_tolerated(self):
        u1 = unfold(np.arange(100.0)[::-1])
        u2 = unfold(np.arange(100.0))
        assert np.allclose(u1, u2)


def _model_spectra():
    """Sorted model-D spectra across theta and model-E spectra (middle sector
    and merged) across d, as unfold sees them."""
    for i, theta in enumerate(np.linspace(0.0, math.pi / 2.0, 8)):
        yield np.sort(np.linalg.eigvalsh(
            model_d_matrix(theta, spawn_seed(5, i), 128, MODEL_D_CHAOTIC_SCALE)
        ))
    for i, d in enumerate((0.0, 0.3, 1.5)):
        spectrum = block_spectrum(model_e_blocks(n_qubits=8, d=d, seed=spawn_seed(6, i)))
        yield np.sort(spectrum.block_eigenvalues[4])
        yield spectrum.eigenvalues


class TestCountingFunctionFit:
    @pytest.mark.parametrize("degree", [6, 5])
    def test_same_floats_as_polynomial_fit(self, degree):
        # each row of a stack of the spectra of one size, and each alone
        by_size = {}
        for levels in _model_spectra():
            by_size.setdefault(levels.size, []).append(levels)
        for rows in by_size.values():
            stacked = _fit_counting_function(np.array(rows), degree)
            for levels, fitted in zip(rows, stacked):
                y = np.arange(levels.size) + 0.5
                reference = np.polynomial.Polynomial.fit(levels, y, degree)(levels)
                assert np.array_equal(fitted, reference)
                assert np.array_equal(_fit_counting_function(levels[np.newaxis], degree)[0],
                                      reference)


def _model_d_rows(n: int = 24) -> np.ndarray:
    # model D at theta = 0, dim 64: draws 4, 19 and 21 of these unfold only at
    # degree 5, and draw 8 at neither 6 nor 5
    [levels] = _model_d_spectra([0.0], spawn_seeds(9, np.arange(n), (0,))[np.newaxis],
                                64, MODEL_D_CHAOTIC_SCALE)
    return levels


class TestUnfoldRows:
    def test_each_row_as_unfold_alone(self):
        levels = _model_d_rows()
        kept, degrees = unfold_rows(levels)
        assert np.flatnonzero(degrees == 5).tolist() == [4, 19, 21]
        assert np.flatnonzero(degrees == 0).tolist() == [8]
        assert set(degrees.tolist()) == {6, 5, 0}
        for row, kept_row, degree in zip(levels, kept, degrees):
            if degree == 0:
                with pytest.raises(UnfoldingError, match="non-monotone at degrees 6 and 5"):
                    unfold(row)
            else:
                assert np.array_equal(kept_row, unfold(row))
                assert np.array_equal(kept_row, _fit_counting_function(
                    row[np.newaxis], degree)[0, 3:-3])

    def test_too_few_levels_fail_every_row(self):
        kept, degrees = unfold_rows(np.tile(np.arange(19.0), (3, 1)))
        assert degrees.tolist() == [0, 0, 0]
        with pytest.raises(UnfoldingError, match="at least 20 levels to unfold, got 19"):
            unfold(np.arange(19.0))

    def test_pooled_rows_equal_pooled_samples(self):
        # each row normalized once by its own mean, then the pool once
        levels = _model_d_rows()
        kept, degrees = unfold_rows(levels)
        ok = degrees > 0
        pooled = pool_unfolded_rows(kept[ok])
        expected = pool_spacing_samples(SpacingSample(np.diff(unfold(row))) for row in levels[ok])
        assert np.array_equal(pooled.spacings, expected.spacings)


class TestSpacingSample:
    def test_unit_mean(self):
        s = SpacingSample(spacings=np.array([0.5, 1.5, 2.0, 4.0]))
        assert s.spacings.mean() == pytest.approx(1.0, abs=1e-6)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SpacingSample(spacings=np.array([0.5, -0.1]))

    def test_pooling(self):
        a = SpacingSample(np.array([1.0, 2.0]))
        b = SpacingSample(np.array([0.5, 0.5, 3.0]))
        pooled = pool_spacing_samples([a, b])
        assert len(pooled) == 5
        assert pooled.spacings.mean() == pytest.approx(1.0)


class TestWeibullFit:
    def test_exponential_recovery(self):
        x = np.random.default_rng(1).exponential(size=10_000)
        fit = weibull_mle(x)
        assert fit.c == pytest.approx(1.0, abs=0.05)
        assert fit.a == pytest.approx(1.0, abs=0.05)

    def test_wigner_surmise_recovery(self):
        fit = weibull_mle(wigner_samples(10_000, seed=2))
        assert fit.c == pytest.approx(2.0, abs=0.1)
        assert fit.a == pytest.approx(np.pi / 4.0, abs=0.08)

    def test_self_consistency_bootstrap(self):
        # regenerate from the fitted parameters, refit, compare within 2 SE;
        # the asymptotic SE of the Weibull shape is ~ 0.78 c / sqrt(n)
        fit = weibull_mle(wigner_samples(10_000, seed=3))
        u = np.random.default_rng(4).uniform(size=10_000)
        regenerated = (-np.log1p(-u) / fit.a) ** (1.0 / fit.c)
        refit = weibull_mle(regenerated)
        se_c = 0.78 * fit.c / math.sqrt(10_000)
        assert abs(refit.c - fit.c) < 2 * se_c

    def test_zero_values_floored_and_flagged(self):
        x = np.concatenate([np.random.default_rng(5).exponential(size=500), [0.0, 0.0]])
        fit = weibull_mle(x)
        assert fit.n_floored == 2

    def test_scale_equivariance(self):
        x = np.random.default_rng(6).exponential(size=5_000)
        lam = 3.7
        base = weibull_mle(x)
        scaled = weibull_mle(lam * x)
        assert scaled.c == pytest.approx(base.c, rel=1e-6)
        assert scaled.a == pytest.approx(base.a / lam**base.c, rel=1e-6)

    def test_requires_minimum_spacings(self):
        s = SpacingSample(np.ones(50) + np.random.default_rng(7).uniform(size=50))
        with pytest.raises(TooFewSpacingsError, match="got 50"):
            weibull_fit(s)
        assert issubclass(TooFewSpacingsError, ValueError)  # existing callers still catch it

    @given(seed=st.integers(0, 1000), shape=st.floats(0.5, 4.0))
    @settings(max_examples=15, deadline=None)
    def test_recovers_known_shape(self, seed, shape):
        x = np.random.default_rng(seed).weibull(shape, size=4000)
        fit = weibull_mle(x)
        # MLE shape error at n=4000 is well under 10%
        assert fit.c == pytest.approx(shape, rel=0.1)


class TestGammaChaos:
    def test_poisson_is_one(self):
        fit = WeibullParams(a=1.0, c=1.0, log_likelihood=0.0, n_samples=1)
        assert gamma_chaos(fit) == 1.0

    def test_wigner_dyson_is_zero(self):
        fit = WeibullParams(a=np.pi / 4, c=2.0, log_likelihood=0.0, n_samples=1)
        assert gamma_chaos(fit) == 0.0

    def test_closed_form_matches_quadrature(self):
        # quad's epsabs = 1e-10 bounds the oracle's own error; the gap on this
        # grid is at most ~4e-11 relative.
        for a in np.linspace(0.3, 2.0, 9):
            for c in np.linspace(0.6, 2.6, 11):
                fit = WeibullParams(a=a, c=c, log_likelihood=0.0, n_samples=1)
                oracle = gamma_from_density(lambda s: weibull_density(s, a, c))
                assert gamma_chaos(fit) == pytest.approx(oracle, rel=1e-10), (a, c)

    def test_half_mixture(self):
        dens = lambda s: 0.5 * poisson_density(s) + 0.5 * wigner_dyson_density(s)
        assert gamma_from_density(dens) == pytest.approx(0.5, abs=1e-8)

    def test_monotone_along_mixture_line(self):
        weights = np.linspace(0.0, 1.0, 11)
        gammas = [
            gamma_from_density(
                lambda s, w=w: w * poisson_density(s) + (1 - w) * wigner_dyson_density(s)
            )
            for w in weights
        ]
        diffs = np.diff(gammas)
        assert np.all(diffs > 0)
        assert gammas[0] == pytest.approx(0.0, abs=1e-8)
        assert gammas[-1] == pytest.approx(1.0, abs=1e-8)
