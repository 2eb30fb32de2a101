"""Experiment protocols: inequality scatter tests, theta and defect sweeps, and
the spacing statistics of one spectrum source.

Seeding layout (see ensembles.RNG_ALGORITHM): a scatter run derives the base
Hamiltonian seed as spawn_seed(master, 0) and the i-th perturbation seed as
spawn_seed(master, i + 1), all of the latter in one ``spawn_seeds`` pass; a
sweep derives the seed of realization r at grid index t as
spawn_seed(master, t, r); a ``stats`` run (``spacing_statistics``) seeds
draw i with spawn_seed(master, i), all in one ``spawn_seeds`` pass; and a
model-D draw takes its H_P and H_W streams from the children
spawn_seed(seed, 0) and spawn_seed(seed, 1).  A sweep derives its seeds once
per grid point, for all r in one ``spawn_seeds`` pass, and the model-D
children in one more (``models._ModelDSampler``), bit for bit the contract
above: no draw builds a ``SeedSequence`` of its own.  At theta = 0, H(theta)
is diagonal and its spectrum is the sorted diagonal, as is a PoissonDiagonal
matrix's, bit for bit what ``eigvalsh`` returns.  The sweeps and ``stats``
draw their spectra through the same draw factories and make one pass over
them (``_run_draws``).  A draw factory ``factory(param, seeds, ...)``
returns ``(eigenvalues, levels, q)``, row i of each from the draw seeded
with seeds[i]: the (n, D) ascending spectra, the (n, L) levels to unfold,
and the (n,) ground-state Q, which only model E gives (from its ground
block, in its sector; None for model D and the ensembles), so that no draw
forms a 2^N vector.  The CLI rejects a spectrum too small to unfold
(``level_stats.MIN_UNFOLD_LEVELS``) before any draw.

Threads.  The model-D, GOE/GUE and model-E factories build and solve every
draw of a grid point or ``stats`` run up front, in stacks, on one thread per
CPU (``_stacked_spectra``): a stack of eigenvalue problems is solved with
the GIL released, one matrix alone is not.  Model E stacks each sector's
blocks across the draws, then the ground blocks, grouped by sector.  A
scatter run draws its rows on one thread per CPU and then computes the
products and kernels in the calling thread (``scatter_bound_test``).  The
pass after the solves (``_run_draws``) takes all rows at once, in the calling
thread.
Draws on matrices smaller than ``_THREAD_MIN_DIM`` stay on the calling
thread.  Each public experiment holds OpenBLAS at one thread for its whole
call (``quantum._one_blas_thread``).  Each thread works on a contiguous chunk
of the draw indices with its own generator and buffers, so the output does
not depend on the number of threads, of the run or of BLAS.
"""

from __future__ import annotations

import functools
import logging
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .curvature import (
    _bound_b_rows, _level_differences, bound_b, bound_b_prime, level_curvature_from_row,
    saturation_index,
)
from .ensembles import (
    EnsembleKind, EnsembleSpec, _matrix_dtype, _matrix_sampler, _normals, _sample_row,
    _seeded_generators, spawn_seed, spawn_seeds,
)
from .entanglement import (
    IMAG_RESIDUE_ATOL, dQ0_dtau_from_row, ground_state_site_overlaps, sector_mean_bipartite_Q,
)
from .level_stats import (
    FitConvergenceError,
    SpacingSample,
    TooFewSpacingsError,
    UnfoldingError,
    gamma_chaos,
    pool_unfolded_rows,
    unfold,
    unfold_rows,
    weibull_fit,
)
from .models import (
    MODEL_D_CHAOTIC_SCALE,
    MODEL_E_DEFAULT_FIELD,
    ModelConfig,
    _ModelDSampler,
    _ModelESampler,
    _require_finite_spectrum,
    build_scatter_model,
)
from .quantum import DegenerateSpectrumError, _one_blas_thread, eigensystem, require_isolated

__all__ = [
    "ExperimentError",
    "BOUND_SLACK_RTOL",
    "TrimResult",
    "ScatterResult",
    "SweepRow",
    "trim_outliers",
    "scatter_bound_test",
    "sweep_theta",
    "sweep_defect",
    "STATS_SOURCES",
    "spacing_statistics",
]

logger = logging.getLogger(__name__)

# Slack allowed on the proved inequality, relative to b (pure float roundoff).
BOUND_SLACK_RTOL = 1e-9


class ExperimentError(RuntimeError):
    """An experiment-level contract was violated (bad model, too many failures)."""


@dataclass(frozen=True)
class TrimResult:
    kept: np.ndarray
    trimmed: np.ndarray
    mask: np.ndarray  # True where the input value was kept


@dataclass(frozen=True)
class ScatterResult:
    """One inequality scatter run over perturbation draws, as columns.

    Entry i of ``seeds`` (uint64), ``dq_abs``, ``k0`` and ``delta`` belongs to
    draw i: its perturbation seed, |dQ^0/dtau|, K_0 and the saturation index
    delta = |dQ^0/dtau| - b sqrt(|K_0|).  ``b`` and ``b_prime`` are the run's
    constants, which depend on H0 alone.
    """

    seeds: np.ndarray
    dq_abs: np.ndarray
    k0: np.ndarray
    delta: np.ndarray
    violations_b: int
    violations_b_prime: int
    # Always 0: the degeneracy guard runs once, on the ground level of H0,
    # before any draw.  Kept because summary.json reports it as "rejected".
    n_rejected: int
    b: float
    b_prime: float


@dataclass(frozen=True)
class SweepRow:
    """Aggregated statistics at one sweep-parameter value."""

    param: float
    gamma_mean: float
    gamma_stderr: float
    b_mean: float
    b_stderr: float
    n_kept: int
    n_trimmed: int
    q_mean: float | None = None
    q_stderr: float | None = None
    n_failed: int = 0


def trim_outliers(values, k: float = 1.5) -> TrimResult:
    """Split values by Tukey fences [Q1 - k IQR, Q3 + k IQR]."""
    x = np.asarray(values, dtype=float)
    if x.size < 4:
        raise ValueError(f"need at least 4 values to trim, got {x.size}")
    q1, q3 = np.percentile(x, [25.0, 75.0])
    iqr = q3 - q1
    mask = (x >= q1 - k * iqr) & (x <= q3 + k * iqr)
    return TrimResult(kept=x[mask], trimmed=x[~mask], mask=mask)


def _run_indexed(task, n_tasks: int, workers: int) -> list:
    """[task(i) for i in range(n_tasks)], in index order, on ``workers`` threads.

    With ``workers`` <= 1 or fewer than 2 tasks every task runs in the
    calling thread and no thread is started.  Otherwise the indices are cut
    into min(workers, n_tasks) contiguous chunks, each run in order on a
    plain thread started here and joined before this returns; the exception
    of the first chunk that failed is raised in the caller.  A task must be
    safe to run concurrently with the others, as the scatter's row fills and
    the stacked solves are (each writes its own rows, from its own thread's
    generator and normals).  perfbench's tracer wraps this loop by its three
    positional arguments, records the third, and reads a None result as a
    dropped draw.
    """
    workers = min(workers, n_tasks)
    if workers <= 1:
        return [task(i) for i in range(n_tasks)]
    results = [None] * n_tasks
    errors = [None] * workers
    bounds = [k * n_tasks // workers for k in range(workers + 1)]

    def run_chunk(k: int) -> None:
        try:
            for i in range(bounds[k], bounds[k + 1]):
                results[i] = task(i)
        except BaseException as exc:  # re-raised in the calling thread
            errors[k] = exc

    threads = [threading.Thread(target=run_chunk, args=(k,), daemon=True)
               for k in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


# Smallest matrix dimension whose draws run on threads.  Below it a draw is
# a few numpy calls on tiny arrays, held up by the GIL, so threads contend:
# 1000 scatter draws took 27 ms on one thread and 59 ms on two at dim 16,
# 56 and 65 ms at dim 32, 177 and 112 ms at dim 64 (2 vCPU, OpenBLAS at one
# thread, in-process medians of 15).
_THREAD_MIN_DIM = 64


def _worker_count(n_tasks: int, dim: int) -> int:
    """Threads for ``n_tasks`` tasks on dim x dim matrices: the CPUs this
    process may run on, at most one per task, or 1 below _THREAD_MIN_DIM."""
    if dim < _THREAD_MIN_DIM:
        return 1
    return min(len(os.sched_getaffinity(0)), n_tasks)


# numpy solves a (k, d, d) stack of eigenvalue problems with the GIL
# released only when k d > 500, so a stack holds the fewest matrices above.
_STACK_LEVELS = 500


def _stacked_spectra(shapes, dtype, vectors=None) -> list:
    """For each (build, n, dim) of ``shapes``, the (n, dim) ascending
    eigenvalues of the n matrices that ``build(i, out)`` writes into ``out``,
    a (dim, dim) array of ``dtype``.

    Each shape's matrices are cut into stacks of k = _STACK_LEVELS // dim + 1
    (the last one shorter), and one ``_run_indexed`` call runs the stacks of
    every shape, in that order, on ``_worker_count(n_stacks, largest dim)``
    threads, each on a contiguous chunk.  A stack is built in place and
    solved by one ``eigvalsh`` call, which gives the same floats as one call
    per matrix; builds that draw their normals release the GIL too, so they
    overlap as well.  With ``vectors`` a stack is solved by ``eigh`` instead,
    and ``vectors(s, i, u)`` gets the eigenvector columns ``u`` of matrix i
    of shape s, in the stack's task.
    """
    tasks = [(s, start, min(start + _STACK_LEVELS // dim + 1, n))
             for s, (_, n, dim) in enumerate(shapes)
             for start in range(0, n, _STACK_LEVELS // dim + 1)]
    spectra = [np.empty((n, dim)) for _, n, dim in shapes]

    def solve(t: int) -> np.ndarray:
        # returns its rows: a None result would read as a dropped draw
        s, start, stop = tasks[t]
        build, _, dim = shapes[s]
        stack = np.empty((stop - start, dim, dim), dtype)
        for j in range(stop - start):
            build(start + j, stack[j])
        rows = spectra[s][start:stop]
        if vectors is None:
            rows[...] = np.linalg.eigvalsh(stack)
        else:
            rows[...], u = np.linalg.eigh(stack)
            for j in range(stop - start):
                vectors(s, start + j, u[j])
        return rows

    largest = max((dim for _, n, dim in shapes if n), default=0)
    _run_indexed(solve, len(tasks), _worker_count(len(tasks), largest))
    return spectra


# Rows per U-product block in a scatter run: bounds the temporaries of the
# block's product and kernels to a few (128, d) arrays.
_ROW_BLOCK = 128


@_one_blas_thread()
def scatter_bound_test(
    config: ModelConfig,
    samples: int = 3000,
    master_seed: int = 0,
    a_value: float | None = None,
) -> ScatterResult:
    """Sample the inequality over perturbation draws on a fixed base Hamiltonian.

    Per sample: draw V with a child seed and compute |dQ^0/dtau| and K_0.
    Once per run, on those columns, ``saturation_index`` gives delta against
    the per-model constant b and the b' comparison: the two violation counts
    are delta > BOUND_SLACK_RTOL b and |dQ^0/dtau| - b' sqrt(|K_0|) > 0.  The
    degeneracy guard runs once, in ``bound_b`` on the ground level of H0,
    before the overlaps and any draw, so no draw can be rejected; the sums do
    not depend on the basis ``eigh`` picks in a degenerate excited level.

    Both kernels read only row 0 of U^dag V U, so a draw needs just that row,
    w = (u_0^dag V) U, and takes u_0^dag V straight from the normals
    (``ensembles._sample_row``): O(d^2) after the sample instead of O(d^3),
    and no d x d matrix besides the normals.  The child seeds and their
    generators are derived for all draws in one pass, bit-identical to
    ``spawn_seed`` and ``default_rng``.

    Two phases.  First every row c^T V_i is written into one (samples, 1, d)
    buffer by ``_run_indexed`` on ``_worker_count(samples, d)`` threads,
    each with its own generator: the normals, most of a draw's time, are
    drawn with the GIL released, so the threads draw concurrently.  Then, in the
    calling thread, blocks of at most ``_ROW_BLOCK`` rows go through
    w = rows @ U (one vector-matrix product per row, the same floats as a
    serial run) and both kernels at once.  The entry w_0 = <0|V|0> must be
    real; an imaginary part above IMAG_RESIDUE_ATOL means V is not Hermitian
    and raises ValueError naming the first such sample.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    h0, v_spec = build_scatter_model(config, h0_seed=spawn_seed(master_seed, 0))
    decomposition = eigensystem(h0)
    n = config.n_qubits
    eps = decomposition.eigenvalues
    b = bound_b(eps)
    b_prime = bound_b_prime(eps, n, a_value)
    u = decomposition.eigenvectors
    overlaps = ground_state_site_overlaps(u, n)
    gaps = eps[1:] - eps[0]
    diffs = _level_differences(0, eps)
    c = np.ascontiguousarray(u[:, 0].conj(), dtype=complex)
    seeds = spawn_seeds(master_seed, np.arange(1, samples + 1, dtype=np.uint64))
    rng = _seeded_generators(seeds)
    rows = np.empty((samples, 1, c.size), dtype=complex)

    def fill(i: int) -> np.ndarray:
        # returns the row it wrote: a None result would read as a dropped draw
        rows[i, 0] = _sample_row(v_spec, rng(i), c)
        return rows[i, 0]

    _run_indexed(fill, samples, _worker_count(samples, c.size))
    dq_abs, k0 = np.empty(samples), np.empty(samples)
    for start in range(0, samples, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, samples)
        w = np.matmul(rows[start:stop], u)[:, 0]
        bad = np.flatnonzero(np.abs(w[:, 0].imag) > IMAG_RESIDUE_ATOL)
        if bad.size:
            i = start + int(bad[0])
            raise ValueError(
                f"sample {i} (seed {int(seeds[i])}): <0|V|0> has imaginary part "
                f"{w[bad[0], 0].imag:.3e}; the perturbation is not Hermitian"
            )
        dq_abs[start:stop] = np.abs(dQ0_dtau_from_row(w, gaps, overlaps, n))
        k0[start:stop] = level_curvature_from_row(w, diffs)
    delta = saturation_index(dq_abs, k0, b)
    return ScatterResult(
        seeds=seeds,
        dq_abs=dq_abs,
        k0=k0,
        delta=delta,
        violations_b=int(np.count_nonzero(delta > BOUND_SLACK_RTOL * b)),
        violations_b_prime=int(np.count_nonzero(saturation_index(dq_abs, k0, b_prime) > 0)),
        n_rejected=0,
        b=b,
        b_prime=b_prime,
    )


# Per-draw failures: logged, dropped and counted by ``_run_draws``.  A grid
# point of a sweep with more than 10% of its draws failed aborts the sweep, a
# ``stats`` run with more than half of them.  TooFewSpacingsError and
# FitConvergenceError come from per-realization fits.
_DRAW_FAILURES = (
    UnfoldingError, DegenerateSpectrumError, TooFewSpacingsError, FitConvergenceError
)


def _run_draws(eigenvalues, levels: np.ndarray, label: str, poly_degree: int,
               edge_trim: float, per_realization_gamma: bool = False) -> tuple:
    """``(ok, b, kept, gammas)``: the per-draw columns of the n draws of a
    grid point or ``stats`` run, from one pass over their rows: b of the (n,
    D) ``eigenvalues`` (``curvature._bound_b_rows``, the degeneracy guard as a
    mask; None skips both), then the kept unfolded (n, L) ``levels`` of the
    draws the guard passed (``level_stats.unfold_rows``).  Each draw is then
    a task of one ``_run_indexed`` call in the calling thread: it logs one
    DEBUG line if its unfold fell back to ``poly_degree - 1``, and fits its
    own gamma in per-realization mode.  A draw failing with one of
    _DRAW_FAILURES (guard, then unfold, then fit) logs one warning, with the
    exception as its last argument, and returns None, which perfbench's
    tracer reads as a dropped draw; ``ok`` masks the others.
    """
    n = levels.shape[0]
    b = np.full(n, np.nan) if eigenvalues is None else _bound_b_rows(eigenvalues)
    guarded = np.ones(n, bool) if eigenvalues is None else ~np.isnan(b)
    unfolded, degrees = unfold_rows(levels[guarded], poly_degree, edge_trim)
    kept = np.full((n, unfolded.shape[1]), np.nan)
    kept[guarded] = unfolded
    degree = np.zeros(n, int)
    degree[guarded] = degrees
    gammas = np.full(n, np.nan) if per_realization_gamma else None

    def draw_or_none(i: int):
        try:
            if not guarded[i]:
                require_isolated(eigenvalues[i], 0)
            if degree[i] == 0:  # unfolds at neither degree: the one-row path raises
                unfold(levels[i], poly_degree, edge_trim)
            if degree[i] == poly_degree - 1:
                logger.debug("%s draw %d: counting-function fit non-monotone at degree %d, "
                             "unfolded at degree %d", label, i, poly_degree, degree[i])
            if per_realization_gamma:
                gammas[i] = gamma_chaos(weibull_fit(SpacingSample(np.diff(kept[i]))))
            return i
        except _DRAW_FAILURES as exc:
            logger.warning("%s draw %d failed: %s", label, i, exc)
            return None

    ok = np.array([r is not None for r in _run_indexed(draw_or_none, n, 1)], dtype=bool)
    return ok, b, kept, gammas


def _stderr(x: np.ndarray) -> float:
    """Standard error of the mean of ``x``; 0 for a single value."""
    return float(np.std(x, ddof=1) / math.sqrt(x.size)) if x.size > 1 else 0.0


def _aggregate_row(param: float, ok: np.ndarray, b: np.ndarray, kept: np.ndarray,
                   n_levels: int, gammas, q, outlier_k: float) -> SweepRow:
    """The row of one grid point from the columns of ``_run_draws`` (each
    spectrum of ``n_levels`` levels) and Q (None for model D), over ``ok``."""
    realizations, n_failed = ok.size, int(ok.size - ok.sum())
    if n_failed > 0.10 * realizations:
        raise ExperimentError(
            f"{n_failed}/{realizations} draws failed at parameter {param:g}"
        )
    trim = trim_outliers(b[ok], k=outlier_k)
    n_kept = int(trim.kept.size)

    if gammas is not None:
        gamma_mean, gamma_stderr = float(gammas[ok].mean()), _stderr(gammas[ok])
    else:
        gamma_mean = gamma_chaos(weibull_fit(pool_unfolded_rows(kept[ok], n_levels)))
        gamma_stderr = 0.0  # single pooled fit; no realization scatter available

    q_mean = q_stderr = None
    if q is not None:
        q_kept = q[ok][trim.mask]
        q_mean, q_stderr = float(q_kept.mean()), _stderr(q_kept)

    return SweepRow(
        param=param,
        gamma_mean=gamma_mean,
        gamma_stderr=gamma_stderr,
        b_mean=float(trim.kept.mean()),
        b_stderr=_stderr(trim.kept),
        n_kept=n_kept,
        n_trimmed=realizations - n_kept,
        q_mean=q_mean,
        q_stderr=q_stderr,
        n_failed=n_failed,
    )


def _ensemble_draws(kind: EnsembleKind, seeds, dim: int):
    """Draws of ``ensembles.sample(EnsembleSpec(kind, dim), seeds[i])``, all
    solved up front (``_stacked_spectra``); a PoissonDiagonal spectrum is the
    sorted normals, with no matrix or solve."""
    spec = EnsembleSpec(kind, dim)
    rng = _seeded_generators(seeds)
    if kind is EnsembleKind.POISSON_DIAGONAL:
        spectra = np.sort([_normals(spec, rng(i)) for i in range(len(seeds))])
    else:
        matrix = _matrix_sampler(spec)
        [spectra] = _stacked_spectra([(lambda i, out: matrix(rng(i), out), len(seeds), dim)],
                                     _matrix_dtype(spec))
    return spectra, spectra, None


def _model_d_draws(theta: float, seeds, dim: int, chaotic_scale: float):
    """Draws of model D at theta, all solved up front (``_stacked_spectra``);
    when sin(theta) = 0 the spectrum is the sorted diagonal, with no GOE draw
    and no solve.  A spectrum too wide for a float raises
    NonFiniteHamiltonianError."""
    sampler = _ModelDSampler(seeds, dim, chaotic_scale)
    if math.sin(theta) == 0.0:
        spectra = np.sort([sampler.diagonal(theta, i) for i in range(len(seeds))])
    else:
        [spectra] = _stacked_spectra([(functools.partial(sampler.matrix, theta), len(seeds), dim)],
                                     float)
        _require_finite_spectrum("D", spectra)
    return spectra, spectra, None


def _model_e_draws(d: float, seeds, n_qubits: int, h: float, J: float,
                   sector_restricted: bool, levels_only: bool = False):
    """Draws of model E at defect strength d, all solved up front, block by
    block in the total-sigma_z sectors (``_stacked_spectra``: the stacks of
    every sector in one pass); the levels are the largest sector's (n_down =
    N // 2) when ``sector_restricted``, else the merged spectrum, and Q that
    of the ground block's lowest eigenvector, in its sector
    (``_ground_state_q``).  With ``levels_only`` a draw is (None, levels,
    None): a restricted run solves the largest sector alone, and neither
    solves a ground block.  A spectrum too wide for a float raises
    NonFiniteHamiltonianError."""
    sampler = _ModelESampler(seeds, n_qubits, d, h, J)
    middle = n_qubits // 2

    def sector(s: int) -> tuple:
        return functools.partial(sampler.block, s), len(seeds), sampler.sectors[s][0].size

    if levels_only and sector_restricted:
        [levels] = _stacked_spectra([sector(middle)], float)
        _require_finite_spectrum("E", levels)
        return None, levels, None
    spectra = _stacked_spectra([sector(s) for s in range(n_qubits + 1)], float)
    eigenvalues = np.sort(np.concatenate(spectra, axis=1), axis=1)
    _require_finite_spectrum("E", eigenvalues)
    levels = spectra[middle] if sector_restricted else eigenvalues
    if levels_only:
        return None, levels, None
    return eigenvalues, levels, _ground_state_q(sampler, spectra)


def _ground_state_q(sampler: _ModelESampler, spectra: list) -> np.ndarray:
    """Q of every draw's ground state, from the lowest eigenvector of its
    ground block: the sector whose lowest level is the lowest (the first
    such sector on a tie).  The draws are grouped by ground sector and each
    group's blocks solved by ``eigh`` in stacks (``_stacked_spectra``), with
    Q computed in the stack's task (``sector_mean_bipartite_Q``)."""
    ground = np.argmin([s[:, 0] for s in spectra], axis=0)
    groups = [(s, np.flatnonzero(ground == s)) for s in np.unique(ground).tolist()]
    q = np.empty(ground.size)

    def keep(g: int, j: int, u: np.ndarray) -> None:
        s, draws = groups[g]
        q[draws[j]] = sector_mean_bipartite_Q(u[:, 0], sampler.sectors[s][0], sampler.n_qubits)

    _stacked_spectra(
        [(lambda j, out, s=s, draws=draws: sampler.block(s, draws[j], out), draws.size,
          sampler.sectors[s][0].size) for s, draws in groups], float, vectors=keep)
    return q


def _sweep(
    grid, label: str, draws, realizations: int, master_seed: int, poly_degree: int,
    edge_trim: float, outlier_k: float, per_realization_gamma: bool,
) -> list:
    """One aggregated row per grid value of a sweep's critical parameter.

    At grid index t, ``draws(param, seeds)`` (a draw factory) gets the seeds
    spawn_seed(master, t, r) of every realization r, derived in one pass, and
    returns the rows of their spectra.  One pass over those rows
    (``_run_draws``) gives b from the full sorted spectrum, the unfolded
    levels, gamma from each draw's own Weibull fit in per-realization mode
    (from the pooled fit otherwise), and which draws failed; then
    ``_aggregate_row`` reduces the columns of the rest, with the ground-state
    Q where the factory gives one.
    """
    rows = []
    for t_index, param in enumerate(float(p) for p in grid):
        eigenvalues, levels, q = draws(
            param, spawn_seeds(master_seed, np.arange(realizations), (t_index,)))
        where = f"{label}={param:g}"
        ok, b, kept, gammas = _run_draws(eigenvalues, levels, where, poly_degree, edge_trim,
                                         per_realization_gamma)
        rows.append(_aggregate_row(param, ok, b, kept, levels.shape[1], gammas, q, outlier_k))
    return rows


@_one_blas_thread()
def sweep_theta(
    theta_grid,
    realizations: int = 100,
    master_seed: int = 0,
    dim: int = 128,
    chaotic_scale: float = MODEL_D_CHAOTIC_SCALE,
    poly_degree: int = 6,
    edge_trim: float = 0.05,
    outlier_k: float = 1.5,
    per_realization_gamma: bool = False,
) -> list:
    """Chaos and bound statistics of the Poisson/GOE rotation over a theta grid.

    Per grid point: ``realizations`` seeded draws; from each, the bound
    constant b of the ground state and the unfolded spacing sample.  The chaos
    parameter comes from a pooled Weibull fit by default.
    """
    draws = functools.partial(_model_d_draws, dim=dim, chaotic_scale=chaotic_scale)
    return _sweep(theta_grid, "model-D theta", draws, realizations, master_seed,
                  poly_degree, edge_trim, outlier_k, per_realization_gamma)


@_one_blas_thread()
def sweep_defect(
    d_grid,
    realizations: int = 100,
    n_qubits: int = 9,
    h: float = MODEL_E_DEFAULT_FIELD,
    J: float = 1.0,
    master_seed: int = 0,
    sector_restricted: bool = True,
    poly_degree: int = 6,
    edge_trim: float = 0.05,
    outlier_k: float = 1.5,
    per_realization_gamma: bool = False,
) -> list:
    """Chaos, bound, and entanglement statistics of the defect chain over d.

    Each draw is solved block by block in the total-sigma_z sectors (see
    ``models``).  Spacing statistics default to the largest sector, n_down =
    N // 2 (mixing symmetry sectors fakes Poisson statistics); b and the
    ground-state Q come from the merged spectrum of all sectors.
    """
    draws = functools.partial(_model_e_draws, n_qubits=n_qubits, h=h, J=J,
                              sector_restricted=sector_restricted)
    return _sweep(d_grid, "model-E d", draws, realizations, master_seed, poly_degree,
                  edge_trim, outlier_k, per_realization_gamma)


STATS_SOURCES = ("GOE", "GUE", "PoissonDiagonal", "D", "E")


@_one_blas_thread()
def spacing_statistics(
    source: str,
    draws: int,
    master_seed: int = 0,
    dim: int = 128,
    theta: float = math.pi / 2.0,
    d: float = 0.25,
    n_qubits: int = 9,
    h: float = MODEL_E_DEFAULT_FIELD,
    J: float = 1.0,
    sector_restricted: bool = True,
    poly_degree: int = 6,
    edge_trim: float = 0.05,
) -> tuple:
    """``(fit, n_failed)``: the Weibull fit of the pooled unfolded spacings of
    ``draws`` spectra of one source, and the number of draws that failed.

    The sources are the GOE, GUE and PoissonDiagonal ensembles and model D at
    ``theta``, all at ``dim``, and model E at defect strength ``d``.  Failed
    draws are dropped and counted as in the sweeps; more than half of them
    failed raises ExperimentError.
    """
    if source not in STATS_SOURCES:
        raise ValueError(f"unknown source {source!r}; expected one of {STATS_SOURCES}")
    seeds = spawn_seeds(master_seed, np.arange(draws))
    if source == "D":
        _, levels, _ = _model_d_draws(theta, seeds, dim, MODEL_D_CHAOTIC_SCALE)
    elif source == "E":
        _, levels, _ = _model_e_draws(d, seeds, n_qubits, h, J, sector_restricted,
                                      levels_only=True)
    else:
        _, levels, _ = _ensemble_draws(EnsembleKind(source), seeds, dim)
    ok, _, kept, _ = _run_draws(None, levels, source, poly_degree, edge_trim)
    n_failed = draws - int(ok.sum())
    if n_failed > draws // 2:
        raise ExperimentError(f"{n_failed}/{draws} draws failed to unfold")
    return weibull_fit(pool_unfolded_rows(kept[ok], levels.shape[1])), n_failed
