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
children of all its draws in one more (``models._ModelDSampler``), bit for
bit the contract
above: no draw builds a ``SeedSequence`` of its own.  At theta = 0, H(theta)
is diagonal and its spectrum is the sorted diagonal, as is a PoissonDiagonal
matrix's, bit for bit what ``eigvalsh`` returns.  The sweeps and ``stats``
take their spectra from the same functions, which return arrays:
``_ensemble_spectra`` the (n, D) spectra of n ensemble draws,
``_model_d_spectra`` the (points, n, D) spectra of a model-D grid, and
``_model_e_spectra`` the (points, n, sum of dim_s) spectra of the requested
sectors of a model-E grid, sector after sector.  Row i of a point is the
draw seeded with its seeds[i].  A sweep hands ``_sweep`` the (points, n, D) ascending spectra, the
(points, n, L) levels to unfold and the (points, n) ground-state Q, which
only model E gives (from its ground block, in its sector; None for model D),
so that no draw forms a 2^N vector; ``_sweep`` makes one pass per grid point
(``_run_draws``), as ``stats`` makes one over its draws.  A point whose
Hamiltonian or spectrum overflows fails the whole call before any point is
aggregated (model E before any solve).  The CLI rejects a spectrum too small
to unfold (``level_stats.MIN_UNFOLD_LEVELS``), or a fit too small to make,
before any draw.

Threads.  The model-D, GOE/GUE and model-E spectra of a sweep or ``stats``
run are built and solved up front, in stacks, on one thread per CPU
(``_stacked_spectra``): a stack of eigenvalue problems is solved with the
GIL released, one matrix alone is not.  A sweep makes one such pass over all
of its grid points, not one per point (``_run_stacks``): model D one, model
E two, first the eigenvalues of the blocks of every (point, sector), then
the ground state of every ground block, grouped by sector, by inverse
iteration (``_ground_states``: two stacked solves, shifted just below the
ground level that the first pass found, with an ``eigh`` fallback).  So a
sweep holds every point's spectra at once (points x realizations x D
floats; model E also holds as many field diagonals).
A scatter run makes one pass of blocks of consecutive draws on one thread
per CPU, each block drawing its normals, then its rows, products and kernels
(``scatter_bound_test``).  The pass after the solves (``_run_draws``) takes
all rows of a point at once, in the calling thread.  Draws on matrices
smaller than ``_THREAD_MIN_DIM`` stay on the calling thread.  Each public
experiment holds OpenBLAS at one thread for its whole call
(``quantum._one_blas_thread``).  Each thread works on a
contiguous chunk of the draw indices with its own generator and buffers, so
the output does not depend on the number of threads, of the run or of BLAS.
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
    EnsembleKind, EnsembleSpec, _matrix_dtype, _matrix_sampler, _normals, _normals_shape,
    _sample_rows, _seeded_generators, spawn_seed, spawn_seeds,
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
    safe to run concurrently with the others, as the scatter's blocks and
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
# 1000 scatter draws, in blocks, took 13-14 ms on one thread and 14-20 ms on
# two at dim 16, 36-39 and 28-37 ms at dim 32, 121 and 74-99 ms at dim 64
# (2 vCPU, OpenBLAS at one thread, in-process medians of 15).
_THREAD_MIN_DIM = 64


def _worker_count(n_tasks: int, dim: int) -> int:
    """Threads for ``n_tasks`` tasks on dim x dim matrices: the CPUs this
    process may run on (all of the machine's where the OS does not say, as on
    macOS and Windows), at most one per task, or 1 below _THREAD_MIN_DIM."""
    if dim < _THREAD_MIN_DIM:
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return min(cpus, n_tasks)


# numpy solves a (k, d, d) stack of eigenvalue problems with the GIL
# released only when k d > 500, so a stack holds the fewest matrices above.
_STACK_LEVELS = 500


def _run_stacks(shapes, dtype, solve) -> None:
    """For each (build, n, dim) of ``shapes``, build the n matrices that
    ``build(i, out)`` writes into ``out``, a (dim, dim) array of ``dtype``,
    in stacks, and hand each stack to ``solve(s, start, stack)``: matrix j
    of the (k, dim, dim) ``stack`` is matrix start + j of shape s.

    Each shape's matrices are cut into stacks of k = _STACK_LEVELS // dim + 1
    (the last one shorter), and one ``_run_indexed`` call runs the stacks of
    every shape, in that order, on ``_worker_count(n_stacks, largest dim)``
    threads, each on a contiguous chunk; ``solve`` runs in the stack's task
    and must return non-None (a None result would read as a dropped draw).
    A stack is built in place; builds that draw their normals release the
    GIL, as stacked LAPACK calls do, so they overlap as well.  With no
    matrix to solve no loop runs.
    """
    tasks = [(s, start, min(start + _STACK_LEVELS // dim + 1, n))
             for s, (_, n, dim) in enumerate(shapes)
             for start in range(0, n, _STACK_LEVELS // dim + 1)]

    def run(t: int):
        s, start, stop = tasks[t]
        build, _, dim = shapes[s]
        stack = np.empty((stop - start, dim, dim), dtype)
        for j in range(stop - start):
            build(start + j, stack[j])
        return solve(s, start, stack)

    if tasks:
        largest = max(dim for _, n, dim in shapes if n)
        _run_indexed(run, len(tasks), _worker_count(len(tasks), largest))


def _stacked_spectra(shapes, dtype) -> None:
    """For each (build, out) of ``shapes``, write into row i of the (n, dim)
    array ``out`` the ascending eigenvalues of the matrix that ``build(i,
    m)`` writes into ``m``, a (dim, dim) array of ``dtype``: one
    ``eigvalsh`` call per stack (``_run_stacks``), which gives the same
    floats as one call per matrix.  ``out`` may be a view, such as a
    sector's columns of model E's merged spectra."""

    def solve(s: int, start: int, stack: np.ndarray) -> np.ndarray:
        rows = shapes[s][1][start:start + len(stack)]
        rows[...] = np.linalg.eigvalsh(stack)
        return rows

    _run_stacks([(build, *out.shape) for build, out in shapes], dtype, solve)


# Most draws per block of a scatter run: bounds a block's normals and the
# temporaries of its products and kernels to a few (128, d) arrays.
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
    (``ensembles._sample_rows``): O(d^2) after the sample instead of O(d^3),
    and no d x d matrix besides the normals.  The child seeds and their
    generators are derived for all draws in one pass, bit-identical to
    ``spawn_seed`` and ``default_rng``.

    One pass of blocks.  The draws are cut into blocks of k =
    min(_STACK_LEVELS // d + 1, _ROW_BLOCK) consecutive draws, run by one
    ``_run_indexed`` call on ``_worker_count(blocks, d)`` threads.  A block
    re-seeds each of its draws in turn and writes its normals into the
    thread's (k, ...) buffer (drawn with the GIL released, so threads draw
    concurrently), turns them into rows in one stacked product, then runs
    w = rows @ U (one vector-matrix product per row) and both kernels on
    all of its rows at once, writing its entries of the columns: the same
    floats as one draw at a time, for any k and thread count.  The entry
    w_0 = <0|V|0> must be real; an imaginary part above IMAG_RESIDUE_ATOL
    means V is not Hermitian and raises ValueError naming the first such
    sample.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    h0, v_spec = build_scatter_model(config, h0_seed=spawn_seed(master_seed, 0))
    decomposition = eigensystem(h0)
    n = config.n_qubits
    eps = decomposition.eigenvalues
    b = bound_b(eps)
    b_prime = bound_b_prime(b, n, a_value)
    u = decomposition.eigenvectors
    overlaps = ground_state_site_overlaps(u, n)
    gaps = eps[1:] - eps[0]
    diffs = _level_differences(0, eps)
    c = np.ascontiguousarray(u[:, 0].conj(), dtype=complex)
    seeds = spawn_seeds(master_seed, np.arange(1, samples + 1, dtype=np.uint64))
    rng = _seeded_generators(seeds)
    dq_abs, k0 = np.empty(samples), np.empty(samples)
    per_block = min(_STACK_LEVELS // c.size + 1, _ROW_BLOCK)
    local = threading.local()

    def block(t: int) -> int:
        # returns its draw count: a None result would read as a dropped draw
        start, stop = t * per_block, min((t + 1) * per_block, samples)
        if not hasattr(local, "z"):
            local.z = np.empty((per_block, *_normals_shape(v_spec)))
        z = local.z[:stop - start]
        for j in range(stop - start):
            # PoissonDiagonal normals come as a new array, the others in z[j]
            z[j] = _normals(v_spec, rng(start + j), z[j])
        w = np.matmul(_sample_rows(v_spec, z, c)[:, np.newaxis], u)[:, 0]
        bad = np.flatnonzero(np.abs(w[:, 0].imag) > IMAG_RESIDUE_ATOL)
        if bad.size:
            i = start + int(bad[0])
            raise ValueError(
                f"sample {i} (seed {int(seeds[i])}): <0|V|0> has imaginary part "
                f"{w[bad[0], 0].imag:.3e}; the perturbation is not Hermitian"
            )
        dq_abs[start:stop] = np.abs(dQ0_dtau_from_row(w, gaps, overlaps, n))
        k0[start:stop] = level_curvature_from_row(w, diffs)
        return stop - start

    n_blocks = -(-samples // per_block)
    _run_indexed(block, n_blocks, _worker_count(n_blocks, c.size))
    delta = saturation_index(dq_abs, k0, b)
    return ScatterResult(
        seeds=seeds,
        dq_abs=dq_abs,
        k0=k0,
        delta=delta,
        violations_b=int(np.count_nonzero(delta > BOUND_SLACK_RTOL * b)),
        violations_b_prime=int(np.count_nonzero(saturation_index(dq_abs, k0, b_prime) > 0)),
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
                   gammas, q, outlier_k: float) -> SweepRow:
    """The row of one grid point from the columns of ``_run_draws`` and Q
    (None for model D), over ``ok``."""
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
        gamma_mean = gamma_chaos(weibull_fit(pool_unfolded_rows(kept[ok])))
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


def _ensemble_spectra(kind: EnsembleKind, seeds, dim: int) -> np.ndarray:
    """The (n, dim) ascending spectra of
    ``ensembles._sample_matrix(EnsembleSpec(kind, dim), seeds[i])``, all
    solved up front (``_stacked_spectra``); a PoissonDiagonal spectrum is the
    sorted normals, with no matrix or solve."""
    spec = EnsembleSpec(kind, dim)
    rng = _seeded_generators(seeds)
    if kind is EnsembleKind.POISSON_DIAGONAL:
        return np.sort([_normals(spec, rng(i)) for i in range(len(seeds))])
    matrix = _matrix_sampler(spec)
    spectra = np.empty((len(seeds), dim))
    _stacked_spectra([(lambda i, out: matrix(rng(i), out), spectra)], _matrix_dtype(spec))
    return spectra


def _model_d_spectra(thetas, seeds, dim: int, chaotic_scale: float) -> np.ndarray:
    """The (points, n, dim) ascending spectra of model D at each theta of a
    grid, the draws of point t seeded by row t of ``seeds``.  One sampler
    holds the draws of every point, and every point with sin(theta) != 0 is
    solved in one stacked pass (``_stacked_spectra``); when sin(theta) = 0
    the spectrum is the sorted diagonal, with no GOE draw and no solve.  A
    spectrum too wide for a float, at any point, raises
    NonFiniteHamiltonianError."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    n = seeds.shape[1]
    sampler = _ModelDSampler(seeds, dim, chaotic_scale)
    spectra = np.empty((len(thetas), n, dim))
    solved = [t for t, theta in enumerate(thetas) if math.sin(theta) != 0.0]
    _stacked_spectra([(lambda i, out, t=t: sampler.matrix(thetas[t], t * n + i, out), spectra[t])
                      for t in solved], float)
    for t, theta in enumerate(thetas):
        if t not in solved:
            spectra[t] = np.sort([sampler.diagonal(theta, t * n + i) for i in range(n)])
    _require_finite_spectrum("D", spectra)
    return spectra


def _model_e_spectra(samplers: list, sectors) -> np.ndarray:
    """The (points, n, sum of dim_s) spectra of the model-E samplers (one
    per grid point) in ``sectors``: row i of point t holds the ascending
    levels of draw i's block in each sector, sector after sector in the order
    of ``sectors``, unsorted across them.  One stacked pass over the blocks
    of every (point, sector) (``_stacked_spectra``) writes each block's rows
    straight into its columns."""
    sectors = list(sectors)
    dims = [samplers[0].sectors[s][0].size for s in sectors]
    edges = np.cumsum([0, *dims]).tolist()
    spectra = np.empty((len(samplers), samplers[0].n_draws, edges[-1]))
    _stacked_spectra(
        [(lambda i, out, sampler=sampler, s=s: sampler.block(s, i, out),
          spectra[t, :, edges[k]:edges[k + 1]])
         for t, sampler in enumerate(samplers) for k, s in enumerate(sectors)],
        float)
    return spectra


def _sector_bottoms(spectra: np.ndarray, n_qubits: int) -> np.ndarray:
    """The (points, n, N + 1, 2) two lowest levels of each sector block, from
    the (points, n, 2^N) spectra that ``_model_e_spectra`` gives for every
    sector; a 1-dim block has +inf as its second level."""
    bottoms = np.full((*spectra.shape[:-1], n_qubits + 1, 2), np.inf)
    start = 0
    for s in range(n_qubits + 1):
        size = math.comb(n_qubits, s)
        bottoms[..., s, :min(size, 2)] = spectra[..., start:start + min(size, 2)]
        start += size
    return bottoms


# Inverse iteration on a ground block A shifts it by sigma = lambda_0 -
# _GROUND_SHIFT r, r the draw's spectral radius (max |level|), which bounds
# the norm of each of its blocks.  eigvalsh gives lambda_0 within about
# 2e-15 r (N = 5..9), so A - sigma I is positive definite with a 50-fold
# margin, and each solve divides an excited component, relative to the
# ground one, by at least gap / (_GROUND_SHIFT r).  A unit x with |A x - lambda_0 x| <= t gap, gap
# the block's lowest gap, is within an angle of sin = t of the ground state
# (Davis-Kahan), and its Rayleigh quotient within t gap of lambda_0.  The
# residual of a converged state is about 4e-15 r (N = 9), so the bound t =
# _GROUND_SIN_BOUND holds where gap > about 1e-4 r; the ground blocks of a 26 x
# 100 sweep at N = 9 have gap >= 3e-3 r.  A state that misses it is solved
# again by ``eigh``.
_GROUND_SHIFT = 1e-13
_GROUND_SIN_BOUND = 1e-10


@functools.lru_cache(maxsize=None)
def _start_vector(dim: int) -> np.ndarray:
    """The start of inverse iteration on a dim x dim block: standard normals
    from a fixed seed.  All ones would not do: on the clean chain that
    vector is orthogonal to the ground state, to roundoff."""
    x = np.random.default_rng(0).standard_normal(dim)
    x.flags.writeable = False
    return x


def _ground_states(stack: np.ndarray, lowest: np.ndarray, gap: np.ndarray, radius: np.ndarray,
                   label) -> np.ndarray:
    """The (k, dim) lowest eigenvectors of the (k, dim, dim) real symmetric
    ``stack``, given each matrix's lowest eigenvalue ``lowest``, the gap
    from it to the next, and its spectral radius (or a bound on its norm)
    ``radius``: two steps of inverse iteration from ``_start_vector``, each
    a stacked ``np.linalg.solve`` and a normalization, on the stack shifted
    in place to just below each lowest eigenvalue.  A state whose residual
    against ``lowest`` is above _GROUND_SIN_BOUND ``gap`` (or not finite,
    or on a stack that ``solve`` finds singular) comes from ``eigh`` of its
    shifted matrix instead, with one DEBUG line naming ``label(j)``.  No
    sign is fixed."""
    k, dim = stack.shape[:2]
    shift = _GROUND_SHIFT * radius
    stack.reshape(k, -1)[:, ::dim + 1] -= (lowest - shift)[:, np.newaxis]  # in place
    x = np.broadcast_to(_start_vector(dim), (k, dim))
    try:
        for _ in range(2):
            x = np.linalg.solve(stack, x[..., np.newaxis])[..., 0]
            x /= np.linalg.norm(x, axis=1)[:, np.newaxis]
        residual = np.linalg.norm(
            np.matmul(stack, x[..., np.newaxis])[..., 0] - shift[:, np.newaxis] * x, axis=1)
    except np.linalg.LinAlgError:
        x, residual = np.empty((k, dim)), np.full(k, np.nan)
    for j in np.flatnonzero(~(residual <= _GROUND_SIN_BOUND * gap)).tolist():
        logger.debug("%s: inverse-iteration residual %.3e at gap %.3e, ground state by eigh",
                     label(j), residual[j], gap[j])
        x[j] = np.linalg.eigh(stack[j])[1][:, 0]
    return x


def _ground_state_q(samplers: list, bottoms: np.ndarray, eigenvalues: np.ndarray) -> np.ndarray:
    """Q of every draw's ground state, (points, draws), from the lowest
    eigenvector of its ground block: the sector whose lowest level, in the
    (points, draws, sectors, 2) two lowest levels ``bottoms``, is the lowest
    (the first such sector on a tie).  The spectral radius comes from the
    sorted merged spectra ``eigenvalues``.  The ground blocks of every point
    are grouped by sector and solved in stacks in one pass (``_run_stacks``)
    by inverse iteration (``_ground_states``), with Q computed in the
    stack's task (``sector_mean_bipartite_Q``)."""
    ground = bottoms[..., 0].argmin(axis=-1)
    pair = np.take_along_axis(bottoms, ground[..., np.newaxis, np.newaxis], axis=-2)[..., 0, :]
    lowest, gap = pair[..., 0], pair[..., 1] - pair[..., 0]
    radius = np.maximum(-eigenvalues[..., 0], eigenvalues[..., -1])
    groups = [(s, *np.nonzero(ground == s)) for s in np.unique(ground).tolist()]
    q = np.empty(ground.shape)

    def solve(g: int, start: int, stack: np.ndarray) -> np.ndarray:
        s, points, draws = groups[g]
        at = points[start:start + len(stack)], draws[start:start + len(stack)]
        states = _ground_states(stack, lowest[at], gap[at], radius[at],
                                lambda j: f"model-E grid point {at[0][j]} draw {at[1][j]}")
        for j, state in enumerate(states):
            sampler = samplers[at[0][j]]
            q[at[0][j], at[1][j]] = sector_mean_bipartite_Q(state, sampler.sectors[s][0],
                                                            sampler.n_qubits)
        return states

    _run_stacks(
        [(lambda j, out, s=s, points=points, draws=draws:
          samplers[points[j]].block(s, draws[j], out),
          points.size, samplers[0].sectors[s][0].size) for s, points, draws in groups],
        float, solve)
    return q


def _grid_seeds(master_seed: int, points: int, realizations: int) -> np.ndarray:
    """The (points, realizations) seeds of a sweep: spawn_seed(master, t, r)
    in row t, column r, one ``spawn_seeds`` pass per grid index t."""
    return np.array([spawn_seeds(master_seed, np.arange(realizations), (t,))
                     for t in range(points)], dtype=np.uint64).reshape(points, realizations)


def _sweep(
    grid, label: str, eigenvalues: np.ndarray, levels: np.ndarray, q, poly_degree: int,
    edge_trim: float, outlier_k: float, per_realization_gamma: bool,
) -> list:
    """One aggregated row per grid value of a sweep's critical parameter,
    from the arrays of every point's draws: the (points, n, D) ascending
    spectra ``eigenvalues``, the ``levels`` to unfold, (n, L) per point, and
    the (points, n) ground-state ``q`` (None for model D).

    Per point, in grid order and in the calling thread, one pass over its
    rows (``_run_draws``) gives b from the full sorted spectrum, the unfolded
    levels, gamma from each draw's own Weibull fit in per-realization mode
    (from the pooled fit otherwise), and which draws failed; and
    ``_aggregate_row`` reduces the columns of the rest, with Q where given.
    """
    rows = []
    for t, param in enumerate(grid):
        ok, b, kept, gammas = _run_draws(eigenvalues[t], levels[t], f"{label}={param:g}",
                                         poly_degree, edge_trim, per_realization_gamma)
        rows.append(_aggregate_row(param, ok, b, kept, gammas, None if q is None else q[t],
                                   outlier_k))
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
    thetas = [float(theta) for theta in theta_grid]
    spectra = _model_d_spectra(thetas, _grid_seeds(master_seed, len(thetas), realizations),
                               dim, chaotic_scale)
    return _sweep(thetas, "model-D theta", spectra, spectra, None, poly_degree, edge_trim,
                  outlier_k, per_realization_gamma)


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
    ``models``): one sampler per grid point, all built before any solve, so
    a Hamiltonian that overflows raises first; one stacked pass over every
    (point, sector) block (``_model_e_spectra``), which writes the levels
    into the one (points, n, 2^N) array that is then sorted in place; and
    one over the ground blocks (``_ground_state_q``), by inverse iteration
    from each sector's two lowest levels, kept before the sort.  Spacing
    statistics default to the largest sector, n_down = N // 2 (mixing
    symmetry sectors fakes Poisson statistics), whose levels are copied out
    before the sort; b and the ground-state Q come from the merged spectrum
    of all sectors, which is checked for overflow before the ground pass.
    """
    ds = [float(d) for d in d_grid]
    samplers = [_ModelESampler(row, n_qubits, d, h, J)
                for d, row in zip(ds, _grid_seeds(master_seed, len(ds), realizations))]
    eigenvalues = _model_e_spectra(samplers, range(n_qubits + 1))
    bottoms = _sector_bottoms(eigenvalues, n_qubits)
    middle = sum(math.comb(n_qubits, s) for s in range(n_qubits // 2))
    levels = (eigenvalues[..., middle:middle + math.comb(n_qubits, n_qubits // 2)].copy()
              if sector_restricted else eigenvalues)
    eigenvalues.sort()
    _require_finite_spectrum("E", eigenvalues)
    return _sweep(ds, "model-E d", eigenvalues, levels,
                  _ground_state_q(samplers, bottoms, eigenvalues),
                  poly_degree, edge_trim, outlier_k, per_realization_gamma)


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
        [levels] = _model_d_spectra([theta], seeds[np.newaxis], dim, MODEL_D_CHAOTIC_SCALE)
    elif source == "E":
        sectors = [n_qubits // 2] if sector_restricted else range(n_qubits + 1)
        [levels] = _model_e_spectra([_ModelESampler(seeds, n_qubits, d, h, J)], sectors)
        levels.sort()
        _require_finite_spectrum("E", levels)
    else:
        levels = _ensemble_spectra(EnsembleKind(source), seeds, dim)
    ok, _, kept, _ = _run_draws(None, levels, source, poly_degree, edge_trim)
    n_failed = draws - int(ok.sum())
    if n_failed > draws // 2:
        raise ExperimentError(f"{n_failed}/{draws} draws failed to unfold")
    return weibull_fit(pool_unfolded_rows(kept[ok])), n_failed
