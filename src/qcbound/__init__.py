"""Numerics for a curvature-dependent bound on entanglement rate of change.

Modules: ``quantum`` (operators, eigendecomposition, site reduction),
``entanglement`` (the dQ0/dtau row kernel and the sector Q), ``curvature``
(the level-curvature row kernel and the bound constants), ``ensembles``
(seeded random matrices), ``level_stats`` (unfolding, Weibull fits, chaos
parameter), ``models`` (the five model families), ``experiments`` (scatter
tests and parameter sweeps), ``cli`` (command-line front end).  The paper's
one-level formulas, which no CLI path runs, are the tests' oracles.
"""

__version__ = "0.1.0"

from .quantum import (
    HermitianOperator,
    SpectralDecomposition,
    QubitPartition,
    heisenberg_coupling,
    eigensystem,
)
from .entanglement import EntanglementInputs
from .curvature import bound_b, bound_b_prime, saturation_index, ensemble_deltaQ_ratios
from .ensembles import EnsembleKind, EnsembleSpec, spawn_seed
from .level_stats import SpacingSample, WeibullParams, gamma_chaos, unfold, weibull_fit

__all__ = [
    "__version__",
    "HermitianOperator",
    "SpectralDecomposition",
    "QubitPartition",
    "heisenberg_coupling",
    "eigensystem",
    "EntanglementInputs",
    "bound_b",
    "bound_b_prime",
    "saturation_index",
    "ensemble_deltaQ_ratios",
    "EnsembleKind",
    "EnsembleSpec",
    "spawn_seed",
    "SpacingSample",
    "WeibullParams",
    "gamma_chaos",
    "unfold",
    "weibull_fit",
]
