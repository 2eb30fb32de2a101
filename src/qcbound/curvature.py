"""Level curvature, the entanglement-rate bound constants, and related reports.

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

from .entanglement import EntanglementInputs, _level_overlaps, dEL_dtau
from .quantum import QubitPartition, require_isolated

__all__ = [
    "EnsembleRatioReport",
    "TwoLevelRates",
    "TwoLevelDominanceError",
    "level_curvature",
    "level_curvature_from_row",
    "curvature_spectrum",
    "bound_b",
    "bound_b_prime",
    "two_level_rates",
    "saturation_index",
    "ensemble_deltaQ_ratios",
]

# Mean sqrt-curvature prefactors per symmetry class, as printed in the source
# literature (the exact RMT coefficients are 0.847, 1/sqrt(2), 0.589; the
# rounded GOE/GSE values pin the reported two-decimal ratios).
GOE_SQRTK_COEFF = 0.84
GSE_SQRTK_COEFF = 0.6


class TwoLevelDominanceError(ValueError):
    """The lowest gap does not dominate: two-level truncation not applicable."""


@dataclass(frozen=True)
class EnsembleRatioReport:
    """Mean sqrt-curvature per ensemble and the entanglement-change ratios."""

    mean_sqrtK_goe: float
    mean_sqrtK_gue: float
    mean_sqrtK_gse: float
    ratio_goe_gue: float
    ratio_goe_gse: float


@dataclass(frozen=True)
class TwoLevelRates:
    """Two-level avoided-crossing approximation of the entropy rates.

    ``rate0``/``rate1`` are the truncated sums; the curvature and phase forms
    re-express rate0/rate1 through K_0 and the coupling phase phi = arg(V_01);
    ``rate0_exact``/``rate1_exact`` are the full-sum references.
    """

    rate0: float
    rate1: float
    rate0_curvature_form: float
    rate1_curvature_form: float
    rate0_phase_form: float
    rate1_phase_form: float
    ratio: float
    rate0_exact: float
    rate1_exact: float
    k0: float
    k1: float
    phi: float


def level_curvature(n: int, inputs: EntanglementInputs) -> float:
    """K_n = 2 sum_{m != n} |V_nm|^2 / (eps_n - eps_m)."""
    eps = inputs.decomposition.eigenvalues
    require_isolated(eps, n)
    diffs = _level_differences(n, eps)
    return level_curvature_from_row(inputs.v_eig[n], diffs)


def level_curvature_from_row(v_row: np.ndarray, diffs: np.ndarray) -> float:
    """:func:`level_curvature` from row n of the perturbation in the
    eigenbasis, ``v_row[m]`` = <n|V|m>, and ``diffs = _level_differences(n,
    eps)``.  The differences depend on H0 alone, so a run of many draws on
    one H0 computes them once; the caller has checked level n with
    ``require_isolated``."""
    return 2.0 * float((np.abs(v_row) ** 2 / diffs).sum())


def _level_differences(n: int, eigenvalues: np.ndarray) -> np.ndarray:
    """eps_n - eps_m for every m, with +inf at m = n, so that the m = n term
    of the curvature sum is exactly 0."""
    diffs = eigenvalues[n] - eigenvalues
    diffs[n] = np.inf
    return diffs


def curvature_spectrum(inputs: EntanglementInputs) -> np.ndarray:
    """All level curvatures K_n at once (antisymmetric double sum)."""
    eps = inputs.decomposition.eigenvalues
    require_isolated(eps, range(eps.size))
    diffs = eps[:, None] - eps[None, :]
    np.fill_diagonal(diffs, 1.0)
    terms = np.abs(inputs.v_eig) ** 2 / diffs
    np.fill_diagonal(terms, 0.0)
    return 2.0 * terms.sum(axis=1)


def bound_b(eigenvalues: np.ndarray) -> float:
    """Cauchy-Schwarz bound constant b = 8 sqrt( sum_{k>=1} 1/(eps_k - eps_0) ).

    Takes the ascending eigenvalues of H0; a degenerate ground level raises
    DegenerateSpectrumError (``require_isolated(eps, 0)``).
    """
    eps = np.asarray(eigenvalues)
    require_isolated(eps, 0)
    return 8.0 * math.sqrt(float(np.sum(1.0 / (eps[1:] - eps[0]))))


def bound_b_prime(
    eigenvalues: np.ndarray, n_qubits: int, a: float | None = None
) -> float:
    """Statistical bound b' = (8a/sqrt(3N)) sqrt( sum_{k>=1} 1/(eps_k - eps_0) ).

    Takes the ascending eigenvalues of H0, like ``bound_b``.  ``a`` is the
    half-width of the assumed uniform range of the per-site overlap terms;
    default 1/2^N (the empirically good choice), with 1/N the natural
    alternative.
    """
    if a is None:
        a = 2.0**-n_qubits
    if a <= 0:
        raise ValueError("overlap half-width a must be positive")
    return bound_b(eigenvalues) * (a / math.sqrt(3.0 * n_qubits))


def saturation_index(dq_abs, k0, b: float) -> np.ndarray:
    """delta = |dQ^0/dtau| - b sqrt(|K_0|), elementwise over the arrays (or
    scalars) ``dq_abs`` and ``k0``; non-positive where the bound holds.  The
    one comparison of the inequality: delta > 0 exactly when |dQ^0/dtau| >
    b sqrt(|K_0|) in floating point."""
    return dq_abs - b * np.sqrt(np.abs(k0))


def two_level_rates(
    inputs: EntanglementInputs,
    partition: QubitPartition,
    dominance_factor: float = 10.0,
) -> TwoLevelRates:
    """Entropy rates of levels 0 and 1 in the two-level truncation.

    Requires the (0,1) gap to be at least ``dominance_factor`` times smaller
    than every other gap involving either level, so that the avoided-crossing
    pair dominates the sums.
    """
    decomposition = inputs.decomposition
    eps = decomposition.eigenvalues
    require_isolated(eps, (0, 1))
    gap01 = float(eps[1] - eps[0])
    if decomposition.dim > 2:
        other = np.concatenate([eps[2:] - eps[0], eps[2:] - eps[1]])
        if dominance_factor * gap01 > float(np.min(other)):
            raise TwoLevelDominanceError(
                f"gap (0,1) = {gap01:.3e} is not {dominance_factor:g}x smaller "
                f"than the next relevant gap {float(np.min(other)):.3e}"
            )

    v01 = complex(inputs.v_eig[0, 1])
    v10 = complex(inputs.v_eig[1, 0])
    if v01 == 0:
        raise ValueError("vanishing coupling V_01: the pair does not interact")
    pair = decomposition.eigenvectors[:, :2]  # A^n_nk of n = 0, 1; A^n_kn = conj(A^n_nk)
    a0_01 = complex(_level_overlaps(pair, 0, partition)[1])
    a1_10 = complex(_level_overlaps(pair, 1, partition)[0])
    a0_10, a1_01 = a0_01.conjugate(), a1_10.conjugate()

    k0 = 2.0 * abs(v01) ** 2 / (eps[0] - eps[1])
    k1 = -k0
    phi = math.atan2(v01.imag, v01.real)

    num0 = v10 * a0_10 + v01 * a0_01
    num1 = v01 * a1_01 + v10 * a1_10
    rate0 = float((-2.0 * num0 / (eps[0] - eps[1])).real)
    rate1 = float((-2.0 * num1 / (eps[1] - eps[0])).real)
    # Substituting 1/(eps_0 - eps_1) = K_0 / (2 |V_01|^2) into the rates.
    rate0_curv = float((-num0 * k0 / abs(v01) ** 2).real)
    rate1_curv = float((-num1 * k1 / abs(v01) ** 2).real)
    # Eliminating |V_01| altogether in favor of sqrt(|K_0|) and the phase.
    sqrt_gap = math.sqrt(gap01)
    rate0_phase = (
        2.0 * math.sqrt(2.0) * (a0_10 * np.exp(-1j * phi)).real
        * math.sqrt(abs(k0)) / sqrt_gap
    )
    rate1_phase = (
        -2.0 * math.sqrt(2.0) * (a1_01 * np.exp(1j * phi)).real
        * math.sqrt(abs(k1)) / sqrt_gap
    )

    return TwoLevelRates(
        rate0=rate0,
        rate1=rate1,
        rate0_curvature_form=rate0_curv,
        rate1_curvature_form=rate1_curv,
        rate0_phase_form=float(rate0_phase),
        rate1_phase_form=float(rate1_phase),
        ratio=rate1 / rate0,
        rate0_exact=dEL_dtau(0, inputs, partition),
        rate1_exact=dEL_dtau(1, inputs, partition),
        k0=k0,
        k1=k1,
        phi=phi,
    )


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
