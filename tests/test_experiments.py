import json
import logging
import math
import os
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcbound.ensembles import (
    EnsembleKind, EnsembleSpec, _normals, _sample_matrix, spawn_seed, spawn_seeds,
)
from qcbound.experiments import (
    BOUND_SLACK_RTOL,
    ExperimentError,
    scatter_bound_test,
    spacing_statistics,
    sweep_defect,
    sweep_theta,
    trim_outliers,
)
from qcbound import experiments, quantum
from qcbound.entanglement import sector_mean_bipartite_Q
from qcbound.level_stats import (
    FitConvergenceError,
    SpacingSample,
    TooFewSpacingsError,
    UnfoldingError,
    unfold,
    weibull_fit,
)
from qcbound.models import (
    MODEL_E_DEFAULT_FIELD, ModelConfig, NonFiniteHamiltonianError, _ModelESampler, _sector_chain,
)
from qcbound.quantum import DegenerateSpectrumError


class TestTrimOutliers:
    def test_all_equal_kept(self):
        res = trim_outliers([2.0, 2.0, 2.0, 2.0])
        assert res.mask.all()
        assert res.kept.size == 4
        # idempotent on the kept set
        assert trim_outliers(res.kept).mask.all()

    def test_gross_outlier_trimmed(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 1000.0])
        res = trim_outliers(x)
        assert list(x[~res.mask]) == [1000.0]
        assert res.kept.size == 4

    def test_too_few_values(self):
        with pytest.raises(ValueError):
            trim_outliers([1.0, 2.0, 3.0])

    def test_partition_is_complete(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=50)
        res = trim_outliers(x)
        assert res.kept.size + x[~res.mask].size == 50

    def test_mask_selects_kept_in_input_order(self):
        x = np.array([3.0, 1000.0, 1.0, 2.0, -900.0, 4.0])
        res = trim_outliers(x)
        assert list(res.mask) == [True, False, True, True, False, True]
        assert np.array_equal(res.kept, x[res.mask])

    @given(seed=st.integers(0, 5000), k=st.floats(1.0, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_kept_values_lie_within_fences(self, seed, k):
        rng = np.random.default_rng(seed)
        x = rng.standard_cauchy(size=40)  # heavy tails: trimming does work
        res = trim_outliers(x, k=k)
        q1, q3 = np.percentile(x, [25.0, 75.0])
        iqr = q3 - q1
        trimmed = x[~res.mask]
        assert res.kept.size + trimmed.size == x.size
        assert np.all(res.kept >= q1 - k * iqr)
        assert np.all(res.kept <= q3 + k * iqr)
        if trimmed.size:
            outside = (trimmed < q1 - k * iqr) | (trimmed > q3 + k * iqr)
            assert np.all(outside)


class TestScatterBoundTest:
    def test_single_sample_deterministic(self):
        cfg = ModelConfig(family="B", n_qubits=2)
        r1 = scatter_bound_test(cfg, 2.0**-cfg.n_qubits, samples=1, master_seed=5)
        r2 = scatter_bound_test(cfg, 2.0**-cfg.n_qubits, samples=1, master_seed=5)
        for column in ("seeds", "dq_abs", "k0", "delta"):
            assert np.array_equal(getattr(r1, column), getattr(r2, column))

    def test_no_bound_violations_small_run(self):
        for family, n, ens in (("A", 3, "GUE"), ("B", 2, "GUE"), ("C", 2, "GOE")):
            cfg = ModelConfig(family=family, n_qubits=n, ensemble=ens)
            res = scatter_bound_test(cfg, 2.0**-cfg.n_qubits, samples=200, master_seed=11)
            assert res.violations_b == 0
            assert len(res.seeds) == len(res.dq_abs) == len(res.k0) == len(res.delta) == 200

    def test_summary_reports_no_rejected_draws(self, tmp_path):
        # the degeneracy guard runs once, on H0's ground level, before any draw
        from qcbound.cli import main

        assert main(["check", "--model", "B", "--samples", "20", "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["rejected"] == 0 and summary["samples_recorded"] == 20

    def test_records_satisfy_delta_definition(self):
        cfg = ModelConfig(family="B", n_qubits=2)
        res = scatter_bound_test(cfg, 2.0**-cfg.n_qubits, samples=50, master_seed=3)
        for dq, k0, delta in zip(res.dq_abs, res.k0, res.delta):
            assert delta == pytest.approx(dq - res.b * math.sqrt(abs(k0)))
            assert delta <= 0
        assert res.b > 0 and res.b_prime > 0

    def test_reruns_give_the_same_records(self):
        cfg = ModelConfig(family="B", n_qubits=3)
        r1 = scatter_bound_test(cfg, 2.0**-cfg.n_qubits, samples=40, master_seed=7)
        r2 = scatter_bound_test(cfg, 2.0**-cfg.n_qubits, samples=40, master_seed=7)
        for column in ("seeds", "dq_abs", "k0", "delta"):
            assert np.array_equal(getattr(r1, column), getattr(r2, column))

    def test_delta_and_counts_match_the_scalar_comparisons(self):
        # B-N3, seed 3: 46 of 1000 draws exceed b' sqrt|K0|, so both counts
        # are exercised; the columns give the per-draw scalar results exactly
        res = scatter_bound_test(ModelConfig(family="B", n_qubits=3), 2.0**-3, samples=1000,
                                 master_seed=3)
        pairs = list(zip(res.dq_abs.tolist(), res.k0.tolist()))
        scalar = [dq - res.b * math.sqrt(abs(k0)) for dq, k0 in pairs]
        assert np.array_equal(res.delta, np.array(scalar))
        slack = BOUND_SLACK_RTOL * res.b
        assert res.violations_b == sum(
            dq > res.b * math.sqrt(abs(k0)) + slack for dq, k0 in pairs)
        assert res.violations_b_prime == sum(
            dq > res.b_prime * math.sqrt(abs(k0)) for dq, k0 in pairs) == 46

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            scatter_bound_test(ModelConfig(family="B"), 2.0**-2, samples=0)

    @pytest.mark.slow
    def test_six_qubit_scatter_full_scale(self):
        res = scatter_bound_test(
            ModelConfig(family="B", n_qubits=6), 2.0**-6, samples=3000, master_seed=42
        )
        assert res.violations_b == 0
        assert res.violations_b_prime / len(res.seeds) <= 0.05

    def test_record_rederivable_from_child_seed(self):
        from qcbound.entanglement import EntanglementInputs
        from qcbound.models import build_scatter_model
        from oracles import dQ0_dtau, level_curvature
        from qcbound.ensembles import _sample_matrix, spawn_seed
        from qcbound.quantum import HermitianOperator, eigensystem

        cfg = ModelConfig(family="B", n_qubits=2)
        res = scatter_bound_test(cfg, 2.0**-cfg.n_qubits, samples=3, master_seed=21)
        seed = int(res.seeds[2])
        assert seed == spawn_seed(21, 3)
        h0, v_spec = build_scatter_model(cfg, h0_seed=spawn_seed(21, 0))
        inputs = EntanglementInputs.from_perturbation(
            eigensystem(h0), HermitianOperator(_sample_matrix(v_spec, seed)), 2
        )
        assert abs(dQ0_dtau(inputs)) == pytest.approx(res.dq_abs[2], rel=1e-14)
        assert level_curvature(0, inputs) == pytest.approx(res.k0[2], rel=1e-14)

    @pytest.mark.parametrize("family,n,ensemble", [
        ("A", 3, "GUE"),
        *(("B", n, "GUE") for n in range(2, 8)),
        ("C", 2, "GOE"),
        ("C", 2, "GUE"),
    ])
    def test_row_path_matches_full_transform(self, family, n, ensemble):
        # The scatter draw computes only row 0 of U^dag V U; the full
        # transform through EntanglementInputs is the oracle.  dq_abs is a
        # sum with cancellation, so it gets an absolute floor.
        from qcbound.entanglement import EntanglementInputs, ground_state_site_overlaps
        from qcbound.models import build_scatter_model
        from oracles import dQ0_dtau, level_curvature
        from qcbound.ensembles import _sample_matrix, spawn_seed
        from qcbound.quantum import HermitianOperator, eigensystem

        cfg = ModelConfig(family=family, n_qubits=n, ensemble=ensemble)
        res = scatter_bound_test(cfg, 2.0**-cfg.n_qubits, samples=20, master_seed=13)
        assert len(res.seeds) == 20
        h0, v_spec = build_scatter_model(cfg, h0_seed=spawn_seed(13, 0))
        dec = eigensystem(h0)
        overlaps = ground_state_site_overlaps(dec.eigenvectors, n)
        for seed, dq_abs, k0 in zip(res.seeds, res.dq_abs, res.k0):
            inputs = EntanglementInputs.from_perturbation(
                dec, HermitianOperator(_sample_matrix(v_spec, int(seed))), n
            )
            dq = abs(dQ0_dtau(inputs, site_overlaps=overlaps))
            assert dq_abs == pytest.approx(dq, rel=1e-11, abs=1e-12)
            assert k0 == pytest.approx(level_curvature(0, inputs), rel=1e-13)

    def test_non_hermitian_error_names_the_first_bad_sample_of_the_second_chunk(
            self, monkeypatch):
        # stacks of two draws on three threads: chunks 0..3, 4..7 and 8..11;
        # samples 6 and 9 are bad, in stacks 3 and 4 of chunks 1 and 2, so a
        # chunk finishing out of order must not change the sample named
        seeds = spawn_seeds(0, np.arange(1, 13, dtype=np.uint64))
        spec = EnsembleSpec(EnsembleKind.GUE, 8)  # model B at N = 3
        bad_normals = [_normals(spec, np.random.default_rng(int(seeds[i]))) for i in (6, 9)]
        sample_rows, blocks = experiments._sample_rows, []

        def bad_rows(spec, z, c):
            blocks.append(len(z))
            rows = sample_rows(spec, z, c)
            for j in range(len(z)):
                if any(np.array_equal(z[j], bad) for bad in bad_normals):
                    rows[j] += 1e-3j * c
            return rows

        monkeypatch.setattr(experiments, "_sample_rows", bad_rows)
        monkeypatch.setattr(experiments, "_STACK_LEVELS", 8)  # stacks of 8 // 8 + 1 = 2
        monkeypatch.setattr(experiments, "_worker_count", lambda n_tasks, dim: 3)
        first_bad = rf"^sample 6 \(seed {seeds[6]}\): .* not Hermitian"
        with pytest.raises(ValueError, match=first_bad):
            scatter_bound_test(ModelConfig(family="B", n_qubits=3), 2.0**-3, samples=12)
        assert sorted(blocks) == [2] * 5  # chunk 2 stopped at its first stack

    def test_non_hermitian_perturbation_raises(self, monkeypatch):
        sample_rows = experiments._sample_rows

        def bad_rows(spec, z, c):
            # c^T (V + 1e-3j I): V with a non-real diagonal
            return sample_rows(spec, z, c) + 1e-3j * c

        monkeypatch.setattr(experiments, "_sample_rows", bad_rows)
        with pytest.raises(ValueError, match="not Hermitian"):
            scatter_bound_test(ModelConfig(family="B", n_qubits=3), 2.0**-3, samples=5)

    def test_rows_are_drawn_in_blocks_without_a_row_buffer(self):
        # dim 64, 20000 draws: the (samples, 1, d) complex rows would take
        # 20 MB; blocks of 8 draws hold 0.5 MB of normals per thread
        tracemalloc.start()
        try:
            scatter_bound_test(ModelConfig(family="B", n_qubits=6), 2.0**-6, samples=20000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5e6


class TestRunIndexed:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n_tasks", [0, 1, 2, 7])
    def test_results_in_index_order(self, n_tasks, workers):
        assert experiments._run_indexed(lambda i: i * i, n_tasks, workers) == [
            i * i for i in range(n_tasks)]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_worker_exception_reaches_the_caller(self, workers):
        def task(i):
            if i == 5:
                raise KeyError(f"task {i}")
            return i

        with pytest.raises(KeyError, match="task 5"):
            experiments._run_indexed(task, 7, workers)

    def test_one_thread_per_chunk_all_joined(self, monkeypatch):
        start, started = threading.Thread.start, []

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        for n_tasks, workers, threads in [(7, 3, 3), (2, 3, 2), (1, 3, 0), (7, 1, 0)]:
            started.clear()
            experiments._run_indexed(lambda i: i, n_tasks, workers)
            assert len(started) == threads
            assert not any(thread.is_alive() for thread in started)


class TestRunStacks:
    # the stack rule reads d off the last axis of an item, whatever its
    # other axes: k = _STACK_LEVELS // d + 1 items per stack
    @pytest.mark.parametrize("n", [0, 1, 62, 63, 64, 200])
    @pytest.mark.parametrize("item_shape", [(8,), (8, 8), (2, 8, 8), (64,), (64, 64),
                                            (2, 64, 64)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_items_reach_solve_in_stacks_of_the_rule(self, item_shape, n):
        k = experiments._STACK_LEVELS // item_shape[-1] + 1
        n_stacks = -(-n // k)
        workers = experiments._worker_count(n_stacks, item_shape[-1])
        lock, stacks, seen = threading.Lock(), [], np.zeros(n, int)

        def build(i: int, out: np.ndarray) -> None:
            assert out.shape == item_shape
            out[...] = i

        def solve(s: int, start: int, stack: np.ndarray) -> None:
            assert s == 0 and stack.shape == (min(k, n - start), *item_shape)
            assert all(np.all(stack[j] == start + j) for j in range(len(stack)))
            with lock:
                seen[start:start + len(stack)] += 1
                stacks.append(weakref.ref(stack))
                # the stacks of finished tasks are gone: one per thread at most
                assert sum(ref() is not None for ref in stacks) <= workers

        experiments._run_stacks([(build, n, item_shape)], float, solve)
        assert len(stacks) == n_stacks and np.all(seen == 1)
        assert all(ref() is None for ref in stacks)


class TestWorkerCount:
    def test_without_affinity_counts_every_cpu(self, monkeypatch):
        # os.sched_getaffinity does not exist on macOS or Windows
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert experiments._worker_count(1000, 128) == 3
        assert experiments._worker_count(2, 128) == 2
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undetermined
        assert experiments._worker_count(1000, 128) == 1

    def test_small_matrices_stay_on_the_calling_thread(self):
        cpus = len(os.sched_getaffinity(0))
        for dim in (2, 8, 32, experiments._THREAD_MIN_DIM - 1):
            assert experiments._worker_count(1000, dim) == 1
        for dim in (experiments._THREAD_MIN_DIM, 128, 512):
            assert experiments._worker_count(1000, dim) == cpus
            assert experiments._worker_count(1, dim) == 1

    def test_small_scatter_model_starts_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        scatter_bound_test(ModelConfig(family="B", n_qubits=3), 2.0**-3, samples=50)


def _spectra(source: str, seeds, dim: int) -> np.ndarray:
    if source == "D":
        [spectra] = experiments._model_d_spectra([0.7], seeds[np.newaxis], dim, 0.3)
        return spectra
    return experiments._ensemble_spectra(EnsembleKind(source), seeds, dim)


def _swept(monkeypatch, sweep, *args, **kwargs) -> tuple:
    """``(eigenvalues, levels, q)``: the arrays ``sweep`` hands ``_sweep``."""
    monkeypatch.setattr(experiments, "_sweep",
                        lambda grid, label, eigenvalues, levels, q, *rest: (eigenvalues, levels, q))
    return sweep(*args, **kwargs)


class _Unfolded(Exception):
    """Raised in place of ``_run_draws`` with the levels it was handed."""


def _stats_levels(monkeypatch, *args, **kwargs) -> np.ndarray:
    """The (n, L) levels ``spacing_statistics`` unfolds."""
    def capture(eigenvalues, levels, *rest):
        raise _Unfolded(levels)

    monkeypatch.setattr(experiments, "_run_draws", capture)
    with pytest.raises(_Unfolded) as unfolded:
        spacing_statistics(*args, **kwargs)
    return unfolded.value.args[0]


class TestStackedSpectra:
    # stacks of k = 500 // dim + 1 matrices: 8 at dim 64, 6 at 96, 4 at 128;
    # the draw counts end the last chunk partway through a stack
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("dim,n_draws", [(64, 19), (96, 15), (128, 11)])
    @pytest.mark.parametrize("source", ["GOE", "GUE", "D"])
    def test_equal_to_one_call_per_matrix(self, monkeypatch, source, dim, n_draws, workers):
        from oracles import model_d_matrix

        monkeypatch.setattr(experiments, "_worker_count",
                            lambda n_tasks, dim: min(workers, n_tasks))
        seeds = spawn_seeds(dim + workers, np.arange(n_draws))
        with quantum._one_blas_thread():
            eigenvalues = _spectra(source, seeds, dim)
            assert eigenvalues.shape == (n_draws, dim)
            for i, seed in enumerate(seeds.tolist()):
                if source == "D":
                    matrix = model_d_matrix(0.7, seed, dim, 0.3)
                else:
                    matrix = _sample_matrix(EnsembleSpec(EnsembleKind(source), dim), seed)
                assert np.array_equal(eigenvalues[i], np.linalg.eigvalsh(matrix))

    @pytest.mark.parametrize("source", ["GOE", "GUE", "D"])
    def test_one_task_per_stack_each_returning_its_length(self, monkeypatch, source):
        # a None task result would read as a dropped draw in a traced run, and
        # an array would be kept until the pass ends
        real, loops = experiments._run_indexed, []

        def capture(task, n_tasks, workers):
            results = real(task, n_tasks, workers)
            loops.append((n_tasks, workers, results))
            return results

        monkeypatch.setattr(experiments, "_run_indexed", capture)
        _spectra(source, spawn_seeds(4, np.arange(10)), 128)
        [(n_tasks, workers, results)] = loops
        assert (n_tasks, workers) == (3, experiments._worker_count(3, 128))
        assert results == [4, 4, 2]


class TestModelEStacks:
    # largest blocks of dims 10, 35 and 126; 11 draws end the stacks of a
    # sector partway wherever k = 500 // dim + 1 < 11 (dims 84 and 126 at
    # N = 9: stacks of 6 and 4).  At d = 0 every ground state is the lone
    # n_down = N state, and at d = 2.5 the ground blocks spread over sectors.
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("d", [0.0, 0.3, 2.5])
    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_equal_to_one_solve_per_block(self, monkeypatch, n, d, workers):
        # what a sweep hands _sweep (realization r is spawn_seed(master, 0, r))
        # and what stats unfolds (draw i is spawn_seed(master, i)), restricted
        # to the middle sector or not, against one solve per block of each seed
        from oracles import block_spectrum, model_e_blocks

        monkeypatch.setattr(experiments, "_worker_count",
                            lambda n_tasks, dim: min(workers, n_tasks))
        master = 10 * n + workers
        with quantum._one_blas_thread():
            for restricted in (True, False):
                eigenvalues, levels, q_all = _swept(
                    monkeypatch, sweep_defect, [d], realizations=11, n_qubits=n,
                    master_seed=master, sector_restricted=restricted)
                stats = _stats_levels(monkeypatch, "E", 11, master_seed=master, n_qubits=n, d=d,
                                      sector_restricted=restricted)
                runs = [(spawn_seeds(master, np.arange(11), (0,)), eigenvalues[0], levels[0],
                         q_all[0]), (spawn_seeds(master, np.arange(11)), None, stats, None)]
                for seeds, eigenvalues, levels, q_all in runs:
                    for i, seed in enumerate(seeds.tolist()):
                        blocks = model_e_blocks(n, d, seed=seed)
                        oracle = block_spectrum(blocks)
                        middle = oracle.block_eigenvalues[n // 2]
                        assert np.array_equal(levels[i],
                                              middle if restricted else oracle.eigenvalues)
                        if q_all is None:
                            continue
                        q = sector_mean_bipartite_Q(
                            oracle.ground_state, _sector_chain(n, 1.0)[oracle.ground_block][2], n)
                        assert np.array_equal(eigenvalues[i], oracle.eigenvalues)
                        # inverse iteration, against eigh (see TestGroundStates)
                        assert abs(q_all[i] - q) <= 1e-12

    def test_one_task_per_sector_stack_each_returning_its_length(self, monkeypatch):
        # N = 9, 11 draws at d = 2.5: the ten sectors (dims 1, 9, 36, 84,
        # 126, ...) take 1, 1, 1, 2, 3, 3, 2, 1, 1, 1 stacks, in n_down order
        real, loops = experiments._run_indexed, []
        real_stacks, passes = experiments._run_stacks, []

        def capture(task, n_tasks, workers):
            results = real(task, n_tasks, workers)
            loops.append((n_tasks, workers, results))
            return results

        def capture_stacks(shapes, dtype, solve):
            passes.append([item_shape for _, _, item_shape in shapes])
            return real_stacks(shapes, dtype, solve)

        monkeypatch.setattr(experiments, "_run_indexed", capture)
        monkeypatch.setattr(experiments, "_run_stacks", capture_stacks)
        _swept(monkeypatch, sweep_defect, [2.5], realizations=11, n_qubits=9, master_seed=4)
        (n_tasks, workers, results), (n_ground, ground_workers, ground) = loops
        assert (n_tasks, workers) == (16, experiments._worker_count(16, 126))
        dims = [1, 9, 36, 84, 126, 126, 84, 36, 9, 1]
        assert passes[0] == [(dim, dim) for dim in dims]
        assert results == [min(k, 11 - start) for k in (500 // dim + 1 for dim in dims)
                           for start in range(0, 11, k)]
        # the ground pass: the same rule, on the ground blocks' sectors
        assert n_ground == len(ground) and sum(ground) == 11
        assert ground_workers == experiments._worker_count(
            n_ground, max(dim for dim, _ in passes[1]))

    def test_stats_solves_no_ground_block(self, monkeypatch):
        # restricted: the middle sector alone; full: all ten, and no eigh
        def refuse(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(experiments.np.linalg, "eigh", refuse)
        for restricted in (True, False):
            spacing_statistics("E", 4, n_qubits=9, d=0.5, sector_restricted=restricted)


class TestGroundStates:
    # model E's ground pass takes each ground state from two steps of inverse
    # iteration (experiments._ground_states); oracles.ground_state_q takes it
    # from eigh, as the sweeps did before
    @staticmethod
    def _q(monkeypatch, caplog, n, ds, realizations, seed, h=MODEL_E_DEFAULT_FIELD,
           sector_restricted=True) -> tuple:
        """The sweep's Q, as sweep_defect hands it to _sweep, and the oracle's
        Q of the same draws; and that no state was solved again by eigh."""
        from oracles import ground_state_q

        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="qcbound.experiments"):
            _, _, q = _swept(monkeypatch, sweep_defect, ds, realizations=realizations,
                             n_qubits=n, h=h, master_seed=seed,
                             sector_restricted=sector_restricted)
        assert not [r for r in caplog.records if "by eigh" in r.getMessage()]
        samplers = [_ModelESampler(row, n, d, h, 1.0) for d, row in
                    zip(ds, experiments._grid_seeds(seed, len(ds), realizations))]
        return q, ground_state_q(samplers)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_q_equals_the_eigh_oracle(self, monkeypatch, caplog, n):
        for h in (0.0, 0.5, 0.98):
            q, oracle = self._q(monkeypatch, caplog, n, [0.0, 0.1, 2.5], 5, seed=n, h=h)
            assert np.abs(q - oracle).max() <= 1e-12

    # the configs of the five sweep-defect-* digests in scripts/output_digests.py
    @pytest.mark.parametrize("n,points,realizations,seed,restricted", [
        (7, 3, 8, 9, True), (7, 3, 8, 9, False), (9, 2, 4, 9, True), (9, 3, 8, 9, True),
        (9, 8, 8, 3, True),
    ], ids=["n7", "n7-full", "n9", "n9-per-realization", "n9-grid"])
    def test_digest_grids_equal_the_eigh_oracle(self, monkeypatch, caplog, n, points,
                                                realizations, seed, restricted):
        ds = np.linspace(0.0, 2.5, points).tolist()
        q, oracle = self._q(monkeypatch, caplog, n, ds, realizations, seed,
                            sector_restricted=restricted)
        assert np.abs(q - oracle).max() <= 1e-12

    @pytest.mark.parametrize("n", range(4, 10))
    def test_clean_chain_where_all_ones_is_orthogonal(self, monkeypatch, caplog, n):
        # at d = 0 and h <= 0.8 the all-ones vector of the ground block is
        # orthogonal to the ground state to roundoff; the fixed start is not
        from oracles import block_spectrum, model_e_blocks

        for h in (0.0, 0.4, 0.8):
            blocks = model_e_blocks(n, 0.0, h)
            ground = block_spectrum(blocks)
            state = ground.ground_state
            assert abs(state.sum()) / math.sqrt(state.size) <= 1e-14
            start = experiments._start_vector(state.size)
            assert abs(start @ state) / np.linalg.norm(start) > 1e-3
            q, oracle = self._q(monkeypatch, caplog, n, [0.0], 3, seed=1, h=h)
            assert np.abs(q - oracle).max() <= 1e-12

    def test_one_dim_ground_blocks(self, monkeypatch, caplog):
        # a strong field polarizes the chain: the ground block is n_down = N,
        # a 1 x 1 block whose state is exact, with Q = 0
        q, oracle = self._q(monkeypatch, caplog, 7, [0.0, 0.1], 4, seed=2, h=3.0)
        assert np.array_equal(q, oracle) and not q.any()
        states = experiments._ground_states(np.array([[[2.0]], [[-3.0]]]), np.array([2.0, -3.0]),
                                            np.full(2, np.inf), np.array([3.0, 3.0]), str)
        assert np.array_equal(np.abs(states), np.ones((2, 1)))

    # gaps of 1.01, 1e3 and 1e6 times the degeneracy guard's floor: below
    # about 1e-4 r the residual bound is under roundoff, and eigh solves it
    @pytest.mark.parametrize("factor,by_eigh", [(1.01, True), (1e3, True), (1e6, False)])
    def test_gap_just_above_the_degeneracy_guard(self, caplog, factor, by_eigh):
        # A = V diag(levels) V^T, width 10: the ground state, by inverse
        # iteration or by eigh, is within 10 eps r / gap of V's column 0 (an
        # eigenvector's condition number is r / gap)
        dim, width = 40, 10.0
        gap = factor * quantum.DEGENERACY_RTOL * width
        levels = np.concatenate([[-5.0, -5.0 + gap], np.linspace(-4.0, 5.0, dim - 2)])
        v, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((dim, dim)))
        a = (v * levels) @ v.T
        a = (a + a.T) / 2.0
        w = np.linalg.eigvalsh(a)
        radius = max(-w[0], w[-1])
        with caplog.at_level(logging.DEBUG, logger="qcbound.experiments"):
            [state] = experiments._ground_states(a[np.newaxis], w[:1], w[1:2] - w[:1],
                                                 np.array([radius]), lambda j: "edge")
        assert any("edge" in r.getMessage() for r in caplog.records) == by_eigh
        error = min(np.linalg.norm(state - v[:, 0]), np.linalg.norm(state + v[:, 0]))
        assert error <= 10 * np.finfo(float).eps * radius / gap

    def test_bad_start_or_level_takes_eigh(self, monkeypatch, caplog):
        # a start orthogonal to the ground state in exact arithmetic (a
        # diagonal block and a unit vector) converges to the top level; a lowest
        # level that is wrong makes the shifted 1 x 1 block exactly singular.
        # Both miss the residual bound and are solved by eigh, one DEBUG
        # line each, with the label
        monkeypatch.setattr(experiments, "_start_vector", lambda dim: np.eye(dim)[-1])
        stack = np.array([np.diag(np.arange(5.0)), np.diag(np.arange(5.0) - 2.0)])
        with caplog.at_level(logging.DEBUG, logger="qcbound.experiments"):
            states = experiments._ground_states(stack, np.array([0.0, -2.0]), np.ones(2),
                                                np.array([4.0, 2.0]), lambda j: f"block {j}")
            assert np.array_equal(np.abs(states), np.eye(5)[[0, 0]])
            [state] = experiments._ground_states(np.zeros((1, 1, 1)), np.array([1e-13]),
                                                 np.array([np.inf]), np.ones(1), str)
            assert abs(state[0]) == 1.0
        lines = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        assert len(lines) == 3
        assert lines[0].startswith("block 0:") and lines[1].startswith("block 1:")
        assert all("ground state by eigh" in line for line in lines)


class TestOnePassPerSweep:
    # a grid solved in one set of stacked passes gives, bit for bit, the
    # spectra (and model E's Q) of each grid point solved alone
    PARAMS = {"D": [0.0, 0.4, math.pi / 2], "E": [0.0, 0.3, 2.5]}

    @staticmethod
    def _seeds(points: int, realizations: int) -> np.ndarray:
        return np.array([spawn_seeds(5, np.arange(realizations), (t,)) for t in range(points)])

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_model_d(self, monkeypatch, workers):
        # theta = 0 is solved by no pass; 9 draws are two stacks at dim 64
        monkeypatch.setattr(experiments, "_worker_count",
                            lambda n_tasks, dim: min(workers, n_tasks))
        thetas, seeds = self.PARAMS["D"], self._seeds(3, 9)
        with quantum._one_blas_thread():
            together = experiments._model_d_spectra(thetas, seeds, 64, 0.3)
            alone = [experiments._model_d_spectra([theta], row[np.newaxis], 64, 0.3)[0]
                     for theta, row in zip(thetas, seeds)]
        assert together.shape == (3, 9, 64)
        assert all(map(np.array_equal, together, alone))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [7, 9])
    def test_model_e(self, monkeypatch, n, workers):
        # ground blocks in one sector at d = 0, spread over several at 2.5;
        # every sector, as a sweep asks, and the middle one, as stats does
        monkeypatch.setattr(experiments, "_worker_count",
                            lambda n_tasks, dim: min(workers, n_tasks))
        samplers = [_ModelESampler(row, n, d, MODEL_E_DEFAULT_FIELD, 1.0)
                    for d, row in zip(self.PARAMS["E"], self._seeds(3, 7))]
        with quantum._one_blas_thread():
            for sectors in ([n // 2], range(n + 1)):  # the last gives the Q below
                together = experiments._model_e_spectra(samplers, sectors)
                alone = [experiments._model_e_spectra([s], sectors)[0] for s in samplers]
                assert together.shape == (3, 7, sum(math.comb(n, s) for s in sectors))
                assert all(map(np.array_equal, together, alone))
            bottoms, eigenvalues = experiments._sector_bottoms(together, n), np.sort(together)
            q_together = experiments._ground_state_q(samplers, bottoms, eigenvalues)
            q_alone = [experiments._ground_state_q([s], bottoms[t:t + 1], eigenvalues[t:t + 1])[0]
                       for t, s in enumerate(samplers)]
        assert all(map(np.array_equal, q_together, q_alone))

    def test_overflowing_model_e_point_fails_before_any_solve(self, monkeypatch):
        # the last Hamiltonian overflows: every sampler is built before any
        # solve, so the sweep raises before a block is solved or a row made
        def refuse(*args, **kwargs):
            raise AssertionError("called")

        monkeypatch.setattr(experiments, "_aggregate_row", refuse)
        monkeypatch.setattr(experiments, "_stacked_spectra", refuse)
        with pytest.raises(NonFiniteHamiltonianError, match="Hamiltonian is not finite"):
            sweep_defect([0.0, 0.5, 1e308], realizations=6, n_qubits=7)

    def test_overflowing_model_d_spectrum_fails_before_any_row(self, monkeypatch):
        # theta = 0 is finite, the others overflow: the check runs once over
        # every point, before the first one is aggregated
        def refuse(*args, **kwargs):
            raise AssertionError("_aggregate_row called")

        monkeypatch.setattr(experiments, "_aggregate_row", refuse)
        with pytest.raises(NonFiniteHamiltonianError, match="spectrum overflows"):
            sweep_theta([0.0, 0.5, math.pi / 2], realizations=6, dim=64, chaotic_scale=1e308)


class TestRunDraws:
    # model D at theta = 0, dim 64: draws 4, 19 and 21 unfold only at degree
    # 5, draws 8 and 43 at neither.  Draws 2 and 8 get a degenerate ground
    # level, draw 5 a zero width; its levels too, which an unfold would
    # divide by, so the pass runs with every floating-point error raised.
    DEGENERATE = (2, 5, 8)

    @staticmethod
    def _rows() -> tuple:
        [eigenvalues] = experiments._model_d_spectra(
            [0.0], spawn_seeds(9, np.arange(44), (0,))[np.newaxis], 64, 0.3)
        levels = eigenvalues.copy()
        eigenvalues[[2, 8], 1] = eigenvalues[[2, 8], 0]
        eigenvalues[5] = levels[5] = 1.0
        return eigenvalues, levels

    @pytest.mark.parametrize("per_realization", [False, True])
    def test_guard_b_and_unfold_equal_the_one_row_path(self, caplog, per_realization):
        from qcbound.curvature import bound_b
        from qcbound.level_stats import unfold

        eigenvalues, levels = self._rows()
        with caplog.at_level(logging.DEBUG, logger="qcbound.experiments"):
            with np.errstate(all="raise"):
                ok, b, kept, gammas = experiments._run_draws(
                    eigenvalues, levels, "x", 6, 0.05, per_realization)
        logged = [(r.levelno, r.args[1], r.args[-1]) for r in caplog.records]
        failures = {i: exc for level, i, exc in logged if level == logging.WARNING}
        # each failure logged once, and the degree-5 unfolds at DEBUG
        assert len(failures) == len(logged) - 3
        assert [i for level, i, _ in logged if level == logging.DEBUG] == [4, 19, 21]
        assert ok.tolist() == [i not in failures for i in range(44)]
        assert (gammas is None) != per_realization
        for i in range(44):
            if i in self.DEGENERATE:  # reported before draw 8's unfold error
                with pytest.raises(DegenerateSpectrumError) as raised:
                    bound_b(eigenvalues[i])
                assert type(failures[i]) is DegenerateSpectrumError
                assert str(failures[i]) == str(raised.value)
                assert np.isnan(b[i]) and np.isnan(kept[i]).all()
                continue
            assert b[i] == bound_b(eigenvalues[i])
            if i == 43:
                with pytest.raises(UnfoldingError) as raised:
                    unfold(levels[i])
                assert type(failures[i]) is UnfoldingError
                assert str(failures[i]) == str(raised.value)
                continue
            assert np.array_equal(kept[i], unfold(levels[i]))
            # 57 spacings: too few for a draw's own fit
            assert (type(failures[i]) is TooFewSpacingsError if per_realization
                    else i not in failures)

    def test_stats_logs_its_fallbacks(self, caplog):
        # stats draw i is spawn_seed(9, i): draw 20 unfolds only at degree 5,
        # draws 19 and 21 at neither
        with caplog.at_level(logging.DEBUG, logger="qcbound.experiments"):
            _, n_failed = spacing_statistics("D", 24, master_seed=9, dim=64, theta=0.0)
        assert n_failed == 2
        assert [(r.levelno, r.args[1]) for r in caplog.records] == [
            (logging.WARNING, 19), (logging.DEBUG, 20), (logging.WARNING, 21)]


@pytest.mark.skipif(quantum._openblas() is None, reason="numpy loaded no OpenBLAS")
class TestOneBlasThread:
    RUNS = [
        lambda: scatter_bound_test(ModelConfig(family="B", n_qubits=6), 2.0**-6, samples=20),
        lambda: sweep_theta([0.0, 0.8], realizations=12, dim=64),
        lambda: sweep_defect([0.0, 0.5], realizations=4, n_qubits=7),
        lambda: spacing_statistics("GUE", 10, dim=64),
    ]

    @pytest.mark.parametrize("run", RUNS, ids=["check", "sweep-theta", "sweep-defect", "stats"])
    def test_one_thread_inside_and_the_callers_count_after(self, monkeypatch, run):
        get, set_ = quantum._openblas()
        counts, caller = [], get()
        # scatter calls bound_b, the sweeps' and stats' pooled fits weibull_fit
        for name in ("bound_b", "weibull_fit"):
            real = getattr(experiments, name)

            def recording(*args, real=real, **kwargs):
                counts.append(get())
                return real(*args, **kwargs)

            monkeypatch.setattr(experiments, name, recording)
        try:
            for before in (3, 2):
                set_(before)
                run()
                assert get() == before
        finally:
            set_(caller)
        assert counts and set(counts) == {1}

    def test_count_restored_when_the_run_fails(self):
        get, set_ = quantum._openblas()
        caller = get()
        try:
            set_(2)
            with pytest.raises(ValueError, match="theta"):
                sweep_theta([2.0, 3.0], realizations=12, dim=64)
            assert get() == 2
        finally:
            set_(caller)


class TestSweepTheta:
    def test_small_sweep_shape_and_reproducibility(self):
        grid = [0.0, 0.5, np.pi / 2]
        rows1 = sweep_theta(grid, realizations=12, master_seed=2, dim=64)
        rows2 = sweep_theta(grid, realizations=12, master_seed=2, dim=64)
        assert rows1 == rows2
        for row in rows1:
            assert row.n_kept + row.n_trimmed == 12
            assert row.q_mean is None
            assert row.b_mean > 0

    def test_endpoint_ordering(self):
        rows = sweep_theta([0.0, np.pi / 2], realizations=12, master_seed=4, dim=64)
        assert rows[0].gamma_mean > rows[-1].gamma_mean

    def test_draws_follow_the_seeding_contract(self, monkeypatch):
        # realization r at grid index t is model D of spawn_seed(master, t, r),
        # solved by eigvalsh (the sorted diagonal at theta = 0)
        from qcbound.curvature import bound_b
        from qcbound.ensembles import spawn_seed
        from oracles import model_d_matrix

        seen = []
        aggregate = experiments._aggregate_row

        def capture(param, ok, b, *rest):
            seen.append(b[ok].tolist())
            return aggregate(param, ok, b, *rest)

        monkeypatch.setattr(experiments, "_aggregate_row", capture)
        master, grid = 2**32 + 1, [0.0, 0.4, np.pi / 2]
        sweep_theta(grid, realizations=6, master_seed=master, dim=64)
        for t, theta in enumerate(grid):
            expected = [bound_b(np.linalg.eigvalsh(
                model_d_matrix(theta, spawn_seed(master, t, r), 64, 0.3))) for r in range(6)]
            assert seen[t] == expected

    def test_no_seed_sequence_per_draw(self, monkeypatch, tmp_path):
        # the seeds of a grid point and their generators are derived in one
        # pass: a constant number of numpy seeding objects per grid point
        from qcbound.cli import main

        built = []

        def counting(factory):
            def make(*args, **kwargs):
                built.append(factory)
                return factory(*args, **kwargs)
            return make

        for name in ("SeedSequence", "default_rng", "PCG64"):
            monkeypatch.setattr(np.random, name, counting(getattr(np.random, name)))
        code = main(["sweep-theta", "--points", "3", "--realizations", "8", "--dim", "64",
                     "--seed", "1", "--out", str(tmp_path)])
        assert code == 0
        assert len(built) <= 3  # one reused PCG64 per grid point

    def test_per_realization_gamma_mode(self):
        rows = sweep_theta([0.3], realizations=6, master_seed=5, dim=128,
                           per_realization_gamma=True)
        assert rows[0].gamma_stderr > 0

    def test_per_realization_too_few_spacings_counted_as_failed(self, caplog):
        # dim 64 leaves 57 spacings per draw, below the 100 a fit needs: every
        # draw is a counted failure, not a bare ValueError after all draws
        with caplog.at_level(logging.WARNING, logger="qcbound.experiments"):
            with pytest.raises(ExperimentError, match="6/6 draws failed"):
                sweep_theta([0.3], realizations=6, master_seed=5, dim=64,
                            per_realization_gamma=True)
        failures = [r.args[-1] for r in caplog.records]
        assert len(failures) == 6
        assert all(isinstance(exc, TooFewSpacingsError) for exc in failures)

    def test_per_realization_fit_failure_dropped_and_counted(self, monkeypatch):
        fit = experiments.weibull_fit
        calls = []

        def fail_third(sample):
            calls.append(sample)
            if len(calls) == 3:
                raise FitConvergenceError("forced")
            return fit(sample)

        monkeypatch.setattr(experiments, "weibull_fit", fail_third)
        rows = sweep_theta([0.3], realizations=12, master_seed=5, dim=128,
                           per_realization_gamma=True)
        assert len(calls) == 12
        assert rows[0].n_failed == 1
        assert rows[0].n_kept + rows[0].n_trimmed == 12
        assert rows[0].n_kept <= 11


class TestSweepDefect:
    def test_small_sweep_rows(self):
        rows = sweep_defect([0.0, 0.4], realizations=6, n_qubits=6, master_seed=3)
        for row in rows:
            assert row.n_kept + row.n_trimmed == 6
            assert row.q_mean is not None
            assert 0.0 <= row.q_mean <= 1.0

    def test_reproducible_across_reruns(self):
        rows1 = sweep_defect([0.3], realizations=6, n_qubits=6, master_seed=9)
        rows2 = sweep_defect([0.3], realizations=6, n_qubits=6, master_seed=9)
        assert rows1 == rows2

    def test_full_spectrum_mode_differs(self):
        # mixing symmetry sectors pushes the statistics toward Poisson
        restricted = sweep_defect([0.3], realizations=8, n_qubits=6, master_seed=1,
                                  sector_restricted=True)
        mixed = sweep_defect([0.3], realizations=8, n_qubits=6, master_seed=1,
                             sector_restricted=False)
        assert mixed[0].gamma_mean > restricted[0].gamma_mean

    def test_per_realization_too_few_spacings_counted_as_failed(self, caplog):
        # the N = 6 middle sector has 20 levels: too few spacings for a fit
        with caplog.at_level(logging.WARNING, logger="qcbound.experiments"):
            with pytest.raises(ExperimentError, match="4/4 draws failed"):
                sweep_defect([0.5], realizations=4, n_qubits=6, master_seed=3,
                             per_realization_gamma=True)
        assert all(isinstance(r.args[-1], TooFewSpacingsError) for r in caplog.records)

    def test_ground_doublet_draws_counted_as_failed(self, caplog):
        # N = 5 at zero field: every draw at d = 0 has its ground doublet split
        # over two sector blocks, so each fails the guard instead of yielding
        # a row from one arbitrarily chosen ground vector
        with caplog.at_level(logging.WARNING, logger="qcbound.experiments"):
            with pytest.raises(ExperimentError, match="4/4 draws failed"):
                sweep_defect([0.0], realizations=4, n_qubits=5, h=0.0, master_seed=2)
        failures = [r.args[-1] for r in caplog.records]
        assert len(failures) == 4
        assert all(isinstance(exc, DegenerateSpectrumError) for exc in failures)


class TestSpacingStatistics:
    @pytest.mark.parametrize("source", ["GOE", "GUE"])
    def test_draw_i_is_the_ensemble_sample_of_spawn_seed(self, source):
        master = 2**32 + 3
        spec = EnsembleSpec(EnsembleKind(source), 48)
        spectra = [np.linalg.eigvalsh(_sample_matrix(spec, spawn_seed(master, i)))
                   for i in range(6)]
        from oracles import pool_spacing_samples

        expected = weibull_fit(pool_spacing_samples(SpacingSample(np.diff(unfold(s)))
                                                     for s in spectra))
        assert spacing_statistics(source, 6, master_seed=master, dim=48) == (expected, 0)

    @pytest.mark.parametrize("dim", [20, 64, 96, 128])
    def test_poisson_diagonal_spectrum_is_the_sorted_diagonal(self, dim):
        # no eigensolve: the same floats as eigvalsh of the diagonal matrix
        spec = EnsembleSpec(EnsembleKind.POISSON_DIAGONAL, dim)
        seeds = spawn_seeds(dim, np.arange(20))
        eigenvalues = experiments._ensemble_spectra(spec.kind, seeds, dim)
        for i, seed in enumerate(seeds.tolist()):
            assert np.array_equal(eigenvalues[i],
                                  np.linalg.eigvalsh(_sample_matrix(spec, seed)))

    def test_unknown_source_raises(self):
        with pytest.raises(ValueError, match="unknown source"):
            spacing_statistics("GenericHermitian", 4)
