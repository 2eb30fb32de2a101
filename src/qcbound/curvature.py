"""Level curvature, the entanglement-rate bound constants, and ensemble ratios.

Central inequality: |dQ^0/dtau| <= b sqrt(|K_0|), with K_0 the ground-level
curvature and b a spectrum-only constant.  A statistical variant b' replaces
the worst-case overlap bound with a plausible-range standard deviation.

Curvature convention: K_n = d^2 eps_n / dtau^2 = 2 sum_{m != n} |V_nm|^2 /
(eps_n - eps_m), i.e. the factor 2 of the underlying level-dynamics equations
is kept (and verified against finite differences by the test suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantum import _ground_isolated, require_isolated

__all__ = [
    "EnsembleRatioReport",
    "level_curvature_from_row",
    "bound_b",
    "bound_b_prime",
    "saturation_index",
    "ensemble_deltaQ_ratios",
]

# Mean sqrt-curvature prefactors, rounded as printed in the source literature,
# which pin the reported two-decimal ratios.  The exact values B(3/4, beta/2 +
# 1/4) / B(1/2, (beta + 1)/2) = 0.847, 1/sqrt(2), 0.589 are checked against
# sampled GOE and GUE curvatures by tests/test_curvature.py::TestCurvatureLaw.
GOE_SQRTK_COEFF = 0.84
GSE_SQRTK_COEFF = 0.6


@dataclass(frozen=True)
class EnsembleRatioReport:
    """Mean sqrt-curvature per ensemble and the entanglement-change ratios."""

    mean_sqrtK_goe: float
    mean_sqrtK_gue: float
    mean_sqrtK_gse: float
    ratio_goe_gue: float
    ratio_goe_gse: float


def level_curvature_from_row(v_row: np.ndarray, diffs: np.ndarray) -> np.ndarray:
    """K_n = 2 sum_{m != n} |V_nm|^2 / (eps_n - eps_m) from row n of the
    perturbation in the eigenbasis, ``v_row[..., m]`` = <n|V|m> (a stack of
    rows gives one value per row), and ``diffs = _level_differences(n, eps)``.
    The differences depend on H0 alone, so a run of many draws on one H0
    computes them once; the caller has checked level n with
    ``require_isolated``."""
    return 2.0 * (np.abs(v_row) ** 2 / diffs).sum(axis=-1)


def _level_differences(n: int, eigenvalues: np.ndarray) -> np.ndarray:
    """eps_n - eps_m for every m, with +inf at m = n, so that the m = n term
    of the curvature sum is exactly 0."""
    diffs = eigenvalues[n] - eigenvalues
    diffs[n] = np.inf
    return diffs


def bound_b(eigenvalues: np.ndarray) -> float:
    """Cauchy-Schwarz bound constant b = 8 sqrt( sum_{k>=1} 1/(eps_k - eps_0) ).

    Takes the ascending eigenvalues of H0; a degenerate ground level raises
    DegenerateSpectrumError (``require_isolated(eps, 0)``).
    """
    eps = np.asarray(eigenvalues)
    require_isolated(eps, 0)
    return float(_bound_b_rows(eps[np.newaxis])[0])


def _bound_b_rows(eigenvalues: np.ndarray) -> np.ndarray:
    """b of each row of the (n, D) ascending ``eigenvalues``; NaN, with no gap
    inverted, where the ground level fails the guard (``_ground_isolated``)."""
    guarded = _ground_isolated(eigenvalues)
    eps = eigenvalues[guarded]
    b = np.full(guarded.size, np.nan)
    b[guarded] = 8.0 * np.sqrt(np.sum(1.0 / (eps[:, 1:] - eps[:, :1]), axis=-1))
    return b


def bound_b_prime(b: float, n_qubits: int, a: float | None = None) -> float:
    """Statistical bound b' = (8a/sqrt(3N)) sqrt( sum_{k>=1} 1/(eps_k - eps_0) ),
    that is b (a / sqrt(3N)) for the run's ``b = bound_b(eps)``, so the guard
    and the sum run once.  ``a`` is the half-width of the assumed uniform
    range of the per-site overlap terms; default 1/2^N (the empirically good
    choice), with 1/N the natural alternative.
    """
    if a is None:
        a = 2.0**-n_qubits
    if a <= 0:
        raise ValueError("overlap half-width a must be positive")
    return b * (a / math.sqrt(3.0 * n_qubits))


def saturation_index(dq_abs, k0, b: float) -> np.ndarray:
    """delta = |dQ^0/dtau| - b sqrt(|K_0|), elementwise over the arrays (or
    scalars) ``dq_abs`` and ``k0``; non-positive where the bound holds.  The
    one comparison of the inequality: delta > 0 exactly when |dQ^0/dtau| >
    b sqrt(|K_0|) in floating point."""
    return dq_abs - b * np.sqrt(np.abs(k0))


def ensemble_deltaQ_ratios(a_const: float = 1.0) -> EnsembleRatioReport:
    """Relative mean entanglement change across symmetry ensembles.

    Evaluates the mean sqrt-curvature formulas with curvature scales
    gamma_nu = nu * A at a common constant A (which cancels in the ratios):

        <sqrt|K|>_GOE = 0.84 sqrt(gamma_1)
        <sqrt|K|>_GUE = sqrt(gamma_2 / 2)
        <sqrt|K|>_GSE = 0.6  sqrt(gamma_4)
    """
    if a_const <= 0:
        raise ValueError("the ensemble constant A must be positive")
    gamma1, gamma2, gamma4 = a_const, 2.0 * a_const, 4.0 * a_const
    goe = GOE_SQRTK_COEFF * math.sqrt(gamma1)
    gue = math.sqrt(gamma2 / 2.0)
    gse = GSE_SQRTK_COEFF * math.sqrt(gamma4)
    return EnsembleRatioReport(
        mean_sqrtK_goe=goe,
        mean_sqrtK_gue=gue,
        mean_sqrtK_gse=gse,
        ratio_goe_gue=goe / gue,
        ratio_goe_gse=goe / gse,
    )
