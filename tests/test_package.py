"""Every public name the package and its modules declare exists, the package's
surface is the one listed here, and the names removed from it stay removed."""

import ast
import importlib
import pkgutil
from pathlib import Path
from types import FunctionType

import pytest

import qcbound

MODULES = ["cli", "curvature", "ensembles", "entanglement", "experiments", "level_stats",
           "models", "quantum"]

PACKAGE_ALL = {
    "__version__",
    "HermitianOperator", "SpectralDecomposition", "QubitPartition", "heisenberg_coupling",
    "eigensystem",
    "EntanglementInputs",
    "bound_b", "bound_b_prime", "saturation_index", "ensemble_deltaQ_ratios",
    "EnsembleKind", "EnsembleSpec", "spawn_seed",
    "SpacingSample", "WeibullParams", "gamma_chaos", "unfold", "weibull_fit",
}

# Public code that no CLI path ran and that no test needs from the package:
# the two-level rates, the dense and seed-taking model builders, the one-row
# spacing wrapper, the spacing densities and the one-level formulas (now
# oracles of the tests), the Pauli helpers, the per-family scatter builders,
# the operator-returning sampler and its GUE alias, and members no output
# reads.  A dotted name is a member of a public class.
REMOVED = [
    ("curvature", "two_level_rates"), ("curvature", "TwoLevelRates"),
    ("curvature", "TwoLevelDominanceError"),
    ("models", "model_d"), ("models", "model_e"), ("models", "model_e_blocks"),
    ("level_stats", "spacing_sample_from_levels"), ("level_stats", "poisson_density"),
    ("level_stats", "wigner_dyson_density"), ("level_stats", "weibull_density"),
    ("quantum", "pauli"), ("quantum", "embed_site"),
    ("models", "model_a"), ("models", "model_b"), ("models", "model_c"),
    ("ensembles", "sample"), ("ensembles", "EnsembleKind.GENERIC_HERMITIAN"),
    ("entanglement", "linear_entropy"), ("entanglement", "mean_bipartite_Q"),
    ("entanglement", "_real_with_residue_check"), ("entanglement", "dEL_dtau"),
    ("entanglement", "dQ0_dtau"), ("curvature", "level_curvature"),
    ("curvature", "curvature_spectrum"), ("quantum", "SpectralDecomposition.vector"),
    ("experiments", "ScatterResult.n_rejected"), ("experiments", "TrimResult.trimmed"),
]

# Public code no src module references, each with the reason it stays
UNREFERENCED = [
    ("entanglement", "EntanglementInputs"),  # perfbench's tracer patches its __post_init__
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
    owner, _, member = name.rpartition(".")
    if owner:
        cls = getattr(mod, owner)
        assert not hasattr(cls, member)
        assert member not in getattr(cls, "__dataclass_fields__", {})
        return
    assert not hasattr(mod, name)
    assert name not in mod.__all__
    assert not hasattr(qcbound, name)


def test_public_code_is_referenced_in_src():
    # a name counts where a src module reads it (a Name or an attribute),
    # not where one only imports it
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for path in Path(qcbound.__file__).parent.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Name, ast.Attribute))}
    unreferenced = []
    for module in MODULES:
        mod = importlib.import_module(f"qcbound.{module}")
        unreferenced += [(module, name) for name in mod.__all__ if name not in used
                         and isinstance(getattr(mod, name), (FunctionType, type))]
    assert unreferenced == UNREFERENCED


def test_weibull_params_has_no_converged_flag():
    # weibull_mle raises FitConvergenceError instead of returning an unconverged fit
    assert "converged" not in qcbound.WeibullParams.__dataclass_fields__


def test_spacing_sample_has_no_discarded_count():
    # no output read it; a pooled sample is its spacings alone
    assert "n_levels_discarded" not in qcbound.SpacingSample.__dataclass_fields__


def test_ensemble_spec_has_no_scale():
    # no caller set it: every draw is at unit scale
    assert "scale" not in qcbound.EnsembleSpec.__dataclass_fields__
