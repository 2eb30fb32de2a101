"""Spectral unfolding, spacing samples, Weibull fits, and the chaos parameter.

The chaos parameter compares the observed nearest-neighbor spacing density
against the Poisson and Wigner-Dyson references on [0, s0]:

    gamma = int_0^s0 [P(s) - P_WD(s)] ds / int_0^s0 [P_P(s) - P_WD(s)] ds

with s0 = 0.472, the crossing point of the two reference densities P_P(s) =
exp(-s) and the Wigner surmise P_WD(s) = (pi s / 2) exp(-pi s^2 / 4); gamma = 1
for Poisson (regular) spectra and 0 for Wigner-Dyson (chaotic) ones.  P(s) is
taken from a Weibull fit of the unfolded spacings, not the raw histogram.
The Weibull (Brody) density has the cumulative distribution 1 - exp(-a s^c),
so every integral above is elementary and gamma needs no quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "S0_CROSSING",
    "MIN_UNFOLD_LEVELS",
    "MIN_FIT_SPACINGS",
    "UnfoldingError",
    "FitConvergenceError",
    "TooFewSpacingsError",
    "WeibullParams",
    "SpacingSample",
    "unfold_rows",
    "unfold",
    "pool_unfolded_rows",
    "weibull_mle",
    "weibull_fit",
    "gamma_chaos",
]

S0_CROSSING = 0.472

# Fewest levels ``unfold`` and spacings ``weibull_fit`` accept; the CLI checks both.
MIN_UNFOLD_LEVELS = 20
MIN_FIT_SPACINGS = 100


class UnfoldingError(RuntimeError):
    """Unfolding failed (too few levels, bad fit, or non-monotone mapping)."""


class FitConvergenceError(RuntimeError):
    """The Weibull maximum-likelihood iteration did not converge."""


class TooFewSpacingsError(ValueError):
    """A spacing sample is too small for a Weibull fit."""


# 1 - int_0^s0 P_WD(s) ds, the Wigner-Dyson survival probability at s0.
_WD_SURVIVAL_S0 = math.exp(-math.pi * S0_CROSSING**2 / 4.0)

# Denominator of the chaos parameter, in closed form (both reference densities
# integrate elementarily on [0, s0]).
GAMMA_DENOMINATOR = _WD_SURVIVAL_S0 - math.exp(-S0_CROSSING)


@dataclass(frozen=True)
class WeibullParams:
    """Maximum-likelihood Weibull parameters with fit diagnostics; a fit that
    does not converge raises FitConvergenceError instead."""

    a: float
    c: float
    log_likelihood: float
    n_samples: int
    n_floored: int = 0


@dataclass(frozen=True)
class SpacingSample:
    """Nearest-neighbor spacings normalized to unit mean."""

    spacings: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.spacings, dtype=float)
        if s.size == 0:
            raise ValueError("empty spacing sample")
        if np.any(s < 0):
            raise ValueError("spacings must be nonnegative")
        s = s / s.mean()
        s.setflags(write=False)
        object.__setattr__(self, "spacings", s)

    def __len__(self) -> int:
        return self.spacings.size


def _fit_counting_function(levels: np.ndarray, degree: int) -> np.ndarray:
    """Least-squares polynomial fit of the staircase of each row of the (n, L)
    ``levels``, evaluated at that row's levels.

    Row by row the same floats as ``Polynomial.fit(row, y, degree)(row)``, by
    the steps numpy's ``polyfit``/``polyval`` take, without their wrappers:
    each row mapped once from [min, max] to [-1, 1], the Vandermonde stack
    x^0..x^degree by repeated products, each scaled by its norm (summed along
    the contiguous last axis), one ``lstsq`` per row with rcond L eps, then
    Horner's rule on all rows.
    """
    n, size = levels.shape
    y = np.arange(size) + 0.5
    lo, hi = levels.min(axis=1, keepdims=True), levels.max(axis=1, keepdims=True)
    x = (-hi - lo) / (hi - lo) + (2.0 / (hi - lo)) * levels
    vander = np.empty((n, degree + 1, size))
    vander[:, 0] = x * 0 + 1
    for k in range(1, degree + 1):
        np.multiply(vander[:, k - 1], x, out=vander[:, k])
    norms = np.sqrt(np.square(vander).sum(-1))
    norms[norms == 0] = 1
    scaled = vander.transpose(0, 2, 1) / norms[:, np.newaxis]
    coef = np.reshape([np.linalg.lstsq(a, y, size * np.finfo(float).eps)[0] for a in scaled],
                      norms.shape) / norms
    result = coef[:, -1:] + x * 0
    for k in range(degree - 1, -1, -1):
        result *= x
        result += coef[:, k : k + 1]
    return result


def unfold_rows(levels, poly_degree: int = 6, edge_trim: float = 0.05) -> tuple:
    """``(kept, degrees)``: ``unfold`` of each row of the (n, L) ``levels``,
    the (n, L - 2k) kept unfolded levels and the degree of each row's fit:
    ``poly_degree``, ``poly_degree - 1`` where that one was non-monotone
    (only those rows are refitted), or 0 where ``unfold`` raises (the row's
    kept levels are then meaningless)."""
    levels = np.sort(np.asarray(levels, dtype=float), axis=-1)
    n, size = levels.shape
    k = int(math.floor(edge_trim * size))
    kept = np.empty((n, size - 2 * k))
    degrees = np.zeros(n, dtype=int)
    todo = np.arange(n if size >= MIN_UNFOLD_LEVELS else 0)
    for degree in (poly_degree, poly_degree - 1):
        if degree < 1 or todo.size == 0:
            break
        mapped = _fit_counting_function(levels[todo], degree)[:, k : size - k]
        kept[todo] = mapped
        monotone = np.all(np.diff(mapped, axis=1) >= 0.0, axis=1)
        degrees[todo[monotone]] = degree
        todo = todo[~monotone]
    return kept, degrees


def unfold(eigenvalues, poly_degree: int = 6, edge_trim: float = 0.05) -> np.ndarray:
    """Map eigenvalues to unit-mean-spacing coordinates.

    Fits the cumulative level-counting staircase with a polynomial, evaluates
    the fit at each level, and discards the trimmed edge fraction on each side
    (the fit is unreliable at spectrum edges); a fit that is non-monotone on
    the kept levels is redone once at ``poly_degree - 1``.  Returns the kept
    unfolded levels; consecutive differences are the unfolded spacings.
    """
    levels = np.asarray(eigenvalues, dtype=float).reshape(1, -1)
    if levels.size < MIN_UNFOLD_LEVELS:
        raise UnfoldingError(
            f"need at least {MIN_UNFOLD_LEVELS} levels to unfold, got {levels.size}")
    [kept], [degree] = unfold_rows(levels, poly_degree, edge_trim)
    if degree == 0:
        raise UnfoldingError(f"counting-function fit non-monotone at degrees {poly_degree} "
                             f"and {poly_degree - 1}")
    return kept


def pool_unfolded_rows(kept: np.ndarray) -> SpacingSample:
    """One pooled sample of the (n, m) kept unfolded levels of n spectra:
    every row's spacings normalized to unit mean, then all of them
    renormalized once, by ``SpacingSample``."""
    spacings = np.diff(kept, axis=1)
    spacings /= spacings.mean(axis=1, keepdims=True)
    return SpacingSample(spacings.ravel())


# Newton iterations of ``weibull_mle``, and the step in c that ends them.
_WEIBULL_MAX_ITER = 100
_WEIBULL_TOL = 1e-8


def weibull_mle(values) -> WeibullParams:
    """Maximum-likelihood Weibull fit by damped Newton on the shape parameter.

    For fixed shape c the scale solves in closed form, a = n / sum(x^c); the
    remaining one-dimensional profile score in c is strictly decreasing, so
    Newton iteration (with step halving to stay in c > 0) is reliable.  Exact
    zeros are floored at machine epsilon and counted in ``n_floored``.
    """
    x = np.asarray(values, dtype=float)
    if x.size < 2:
        raise ValueError("need at least 2 samples to fit")
    if np.any(x < 0):
        raise ValueError("Weibull samples must be nonnegative")
    n_floored = int(np.count_nonzero(x == 0.0))
    if n_floored:
        x = np.where(x == 0.0, np.finfo(float).eps, x)

    log_x = np.log(x)
    mean_log = float(log_x.mean())
    n = x.size

    def score_and_slope(c: float):
        xc = x**c
        s0 = float(xc.sum())
        s1 = float((xc * log_x).sum())
        s2 = float((xc * log_x * log_x).sum())
        score = 1.0 / c + mean_log - s1 / s0
        slope = -1.0 / c**2 - (s2 * s0 - s1 * s1) / s0**2
        return score, slope

    c = 1.0
    converged = False
    for _ in range(_WEIBULL_MAX_ITER):
        score, slope = score_and_slope(c)
        step = score / slope
        c_next = c - step
        while c_next <= 0.0:
            step *= 0.5
            c_next = c - step
        if not math.isfinite(c_next):
            raise FitConvergenceError("Newton iteration diverged")
        if abs(c_next - c) < _WEIBULL_TOL:
            c = c_next
            converged = True
            break
        c = c_next
    if not converged:
        raise FitConvergenceError(
            f"shape parameter did not converge within {_WEIBULL_MAX_ITER} iterations"
        )

    a = n / float((x**c).sum())
    log_lik = (
        n * math.log(a)
        + n * math.log(c)
        + (c - 1.0) * float(log_x.sum())
        - a * float((x**c).sum())
    )
    return WeibullParams(
        a=a,
        c=c,
        log_likelihood=log_lik,
        n_samples=n,
        n_floored=n_floored,
    )


def weibull_fit(sample: SpacingSample) -> WeibullParams:
    """Fit the Weibull density to a spacing sample (needs >= MIN_FIT_SPACINGS)."""
    if (n := len(sample)) < MIN_FIT_SPACINGS:
        raise TooFewSpacingsError(f"need at least {MIN_FIT_SPACINGS} spacings to fit, got {n}")
    return weibull_mle(sample.spacings)


def gamma_chaos(fit: WeibullParams) -> float:
    """Chaos parameter of a fitted Weibull spacing density, in closed form.

    int_0^s0 [P(s) - P_WD(s)] ds = exp(-pi s0^2 / 4) - exp(-a s0^c), so gamma
    is exactly 1 for the Poisson fit (a = c = 1) and exactly 0 for the Wigner
    surmise (a = pi/4, c = 2).  Densities more repulsive than Wigner-Dyson (or
    more clustered than Poisson) land outside [0, 1].
    """
    return (_WD_SURVIVAL_S0 - math.exp(-fit.a * S0_CROSSING**fit.c)) / GAMMA_DENOMINATOR
