"""Numerics for a curvature-dependent bound on entanglement rate of change.

Modules: ``quantum`` (operators, eigendecomposition, partial traces),
``entanglement`` (measures and analytic derivatives), ``curvature`` (level
curvature and the bound constants), ``ensembles`` (seeded random matrices),
``level_stats`` (unfolding, Weibull fits, chaos parameter), ``models`` (the
five model families), ``experiments`` (scatter tests and parameter sweeps),
``cli`` (command-line front end).
"""

__version__ = "0.1.0"

from .quantum import (
    HermitianOperator,
    SpectralDecomposition,
    QubitPartition,
    heisenberg_coupling,
    eigensystem,
)
from .entanglement import (
    EntanglementInputs,
    linear_entropy,
    mean_bipartite_Q,
    dQ0_dtau,
)
from .curvature import (
    bound_b,
    bound_b_prime,
    level_curvature,
    saturation_index,
    ensemble_deltaQ_ratios,
)
from .ensembles import EnsembleKind, EnsembleSpec, sample, spawn_seed
from .level_stats import SpacingSample, WeibullParams, gamma_chaos, unfold, weibull_fit

__all__ = [
    "__version__",
    "HermitianOperator",
    "SpectralDecomposition",
    "QubitPartition",
    "heisenberg_coupling",
    "eigensystem",
    "EntanglementInputs",
    "linear_entropy",
    "mean_bipartite_Q",
    "dQ0_dtau",
    "bound_b",
    "bound_b_prime",
    "level_curvature",
    "saturation_index",
    "ensemble_deltaQ_ratios",
    "EnsembleKind",
    "EnsembleSpec",
    "sample",
    "spawn_seed",
    "SpacingSample",
    "WeibullParams",
    "gamma_chaos",
    "unfold",
    "weibull_fit",
]
