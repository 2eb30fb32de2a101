"""Every public name the package and its modules declare exists, the package's
surface is the one listed here, and the names removed from it stay removed."""

import importlib
import pkgutil

import pytest

import qcbound

MODULES = ["cli", "curvature", "ensembles", "entanglement", "experiments", "level_stats",
           "models", "quantum"]

PACKAGE_ALL = {
    "__version__",
    "HermitianOperator", "SpectralDecomposition", "QubitPartition", "heisenberg_coupling",
    "eigensystem",
    "EntanglementInputs", "linear_entropy", "mean_bipartite_Q", "dQ0_dtau",
    "bound_b", "bound_b_prime", "level_curvature", "saturation_index",
    "ensemble_deltaQ_ratios",
    "EnsembleKind", "EnsembleSpec", "sample", "spawn_seed",
    "SpacingSample", "WeibullParams", "gamma_chaos", "unfold", "weibull_fit",
}

# Public code that no CLI path ran and that no test needs from the package:
# the two-level rates, the dense and seed-taking model builders, the one-row
# spacing wrapper, the spacing densities (now quadrature oracles of the
# tests) and the Pauli helpers.
REMOVED = [
    ("curvature", "two_level_rates"), ("curvature", "TwoLevelRates"),
    ("curvature", "TwoLevelDominanceError"),
    ("models", "model_d"), ("models", "model_e"), ("models", "model_e_blocks"),
    ("level_stats", "spacing_sample_from_levels"), ("level_stats", "poisson_density"),
    ("level_stats", "wigner_dyson_density"), ("level_stats", "weibull_density"),
    ("quantum", "pauli"), ("quantum", "embed_site"),
]


@pytest.mark.parametrize("name", ["qcbound", *(f"qcbound.{m}" for m in MODULES)])
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [item for item in module.__all__ if not hasattr(module, item)]
    assert missing == []


def test_every_module_is_listed():
    modules = {info.name for info in pkgutil.iter_modules(qcbound.__path__)}
    assert modules == set(MODULES)


def test_package_surface():
    assert len(qcbound.__all__) == len(PACKAGE_ALL)
    assert set(qcbound.__all__) == PACKAGE_ALL


@pytest.mark.parametrize("module,name", REMOVED, ids=[f"{m}.{n}" for m, n in REMOVED])
def test_removed_name_stays_removed(module, name):
    mod = importlib.import_module(f"qcbound.{module}")
    assert not hasattr(mod, name)
    assert name not in mod.__all__
    assert not hasattr(qcbound, name)


def test_weibull_params_has_no_converged_flag():
    # weibull_mle raises FitConvergenceError instead of returning an unconverged fit
    assert "converged" not in qcbound.WeibullParams.__dataclass_fields__


def test_spacing_sample_has_no_discarded_count():
    # no output read it; a pooled sample is its spacings alone
    assert "n_levels_discarded" not in qcbound.SpacingSample.__dataclass_fields__


def test_ensemble_spec_has_no_scale():
    # no caller set it: every draw is at unit scale
    assert "scale" not in qcbound.EnsembleSpec.__dataclass_fields__
