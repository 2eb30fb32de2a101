import threading

import numpy as np
import pytest
from scipy import stats

from qcbound.ensembles import (
    EnsembleKind, EnsembleSpec, RNG_ALGORITHM, _child_seeds, _matrix_dtype, _matrix_sampler,
    _normals, _normals_shape, _sample_matrix, _sample_rows, _seeded_generators, spawn_seed,
    spawn_seeds,
)
from qcbound.level_stats import SpacingSample, unfold, weibull_mle

from oracles import sample_operator


class TestSpecValidation:
    def test_rejects_small_dim(self):
        with pytest.raises(ValueError):
            EnsembleSpec(EnsembleKind.GOE, dim=1)


class TestHermitianByConstruction:
    # Internal samplers skip HermitianOperator, so the drawer itself must
    # return exactly Hermitian matrices (and HermitianOperator must not alter them).
    @pytest.mark.parametrize("kind", list(EnsembleKind))
    @pytest.mark.parametrize("dim", [4, 8, 32, 128, 512])
    def test_drawer_output_is_exactly_hermitian(self, kind, dim):
        for seed in range(20):
            m = _sample_matrix(EnsembleSpec(kind, dim), seed)
            assert np.array_equal(m, m.conj().T)

    @pytest.mark.parametrize("dim", [4, 128])
    def test_gue_drawer_is_textbook_formula(self, dim):
        # the drawer assembles (B + B^dag) / 2, B = X + iY, part by
        # part; it must give the same bytes as the textbook expression
        for seed in range(10):
            rng = np.random.default_rng(seed)
            b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            expected = (b + b.conj().T) * 0.5
            m = _sample_matrix(EnsembleSpec(EnsembleKind.GUE, dim), seed)
            assert m.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", list(EnsembleKind))
    def test_sample_is_the_drawer_output(self, kind):
        spec = EnsembleSpec(kind, 16)
        for seed in range(5):
            m = _sample_matrix(spec, seed)
            op = sample_operator(spec, seed)
            assert op.matrix.dtype == m.dtype
            assert np.array_equal(op.matrix, m)


class TestDeterminism:
    @pytest.mark.parametrize("kind", list(EnsembleKind))
    def test_same_seed_same_matrix(self, kind):
        spec = EnsembleSpec(kind, dim=8)
        a = _sample_matrix(spec, 123)
        b = _sample_matrix(spec, 123)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        spec = EnsembleSpec(EnsembleKind.GOE, dim=8)
        assert not np.array_equal(_sample_matrix(spec, 1), _sample_matrix(spec, 2))

    def test_spawn_seed_deterministic(self):
        assert spawn_seed(42, 3) == spawn_seed(42, 3)
        assert spawn_seed(42, 3) != spawn_seed(42, 4)
        assert spawn_seed(42, 3, 1) != spawn_seed(42, 3, 2)

    def test_rng_algorithm_documented(self):
        assert "PCG64" in RNG_ALGORITHM


class TestBatchSeeding:
    # spawn_seeds and _seeded_generators re-implement numpy's SeedSequence
    # hash and PCG64 seeding; numpy's own objects are the reference.
    @pytest.mark.parametrize("master", [0, 7, 2**32 - 1, 2**32, 2**63, 2**70])
    def test_spawn_seeds_equal_spawn_seed(self, master):
        special = [0, 1, 2**32 - 1, 2**32, 2**32 + 5, 2**64 - 1]
        got = spawn_seeds(master, special)
        assert got.dtype == np.uint64
        assert got.tolist() == [spawn_seed(master, i) for i in special]
        for length in (1, 2, 3, 1000, 3000):
            indices = np.arange(1, length + 1)
            expected = [spawn_seed(master, int(i)) for i in indices]
            assert spawn_seeds(master, indices).tolist() == expected

    @pytest.mark.parametrize("master", [0, 2**32, 2**64 - 1])
    def test_grid_point_seeds_equal_spawn_seed(self, master):
        # a sweep's seed pass: every realization r of grid index t at once
        realizations = [0, 1, 49, 2**32 - 1, 2**32, 2**32 + 7, 2**64 - 1]
        for t in (0, 3, 2**32 - 1, 2**32, 2**40 + 3):
            got = spawn_seeds(master, realizations, (t,))
            assert got.tolist() == [spawn_seed(master, t, r) for r in realizations]
            assert spawn_seeds(master, np.arange(50), (t,)).tolist() == [
                spawn_seed(master, t, r) for r in range(50)
            ]

    def test_child_seeds_and_streams_equal_spawn_seed(self):
        # model D's two children of each seed, mixed one- and two-word seeds
        seeds = [0, 5, 2**32 - 1, 2**32, 2**33 + 1, 2**64 - 1,
                 *spawn_seeds(9, np.arange(40)).tolist()]
        for k in (0, 1):
            children = _child_seeds(seeds, k)
            assert children.tolist() == [spawn_seed(s, k) for s in seeds]
            rng = _seeded_generators(children)
            for i, s in enumerate(seeds):
                expected = np.random.default_rng(spawn_seed(s, k)).standard_normal(9)
                assert rng(i).standard_normal(9).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", list(EnsembleKind))
    def test_matrix_sampler_writes_into_out_and_equals_sample(self, kind):
        # the rows of one stack, filled with a nonzero value first, so the
        # PoissonDiagonal kind must clear its off-diagonal entries itself
        spec = EnsembleSpec(kind, 24)
        draw = _matrix_sampler(spec)
        seeds = [3, 2**40 + 1, 3]
        stack = np.full((len(seeds), 24, 24), 7.0, dtype=_matrix_dtype(spec))
        for j, seed in enumerate(seeds):
            m = draw(np.random.default_rng(seed), stack[j])
            assert m is stack[j] or m.base is stack
            assert m.tobytes() == _sample_matrix(spec, seed).tobytes()
        assert np.array_equal(stack[0], stack[2])

    @pytest.mark.parametrize("kind", [EnsembleKind.GOE, EnsembleKind.GUE])
    def test_matrix_sampler_threads_draw_into_their_own_out(self, kind):
        # one sampler, two threads drawing at once: the normals, drawn with
        # the GIL released, go into a buffer of each thread's own
        spec = EnsembleSpec(kind, 128)
        draw = _matrix_sampler(spec)
        seeds = spawn_seeds(11, np.arange(40)).tolist()
        out = np.empty((len(seeds), 128, 128), dtype=_matrix_dtype(spec))
        barrier = threading.Barrier(2)

        def run(k):
            barrier.wait()
            for j in range(k, len(seeds), 2):
                draw(np.random.default_rng(seeds[j]), out[j])

        threads = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for j, seed in enumerate(seeds):
            assert out[j].tobytes() == _sample_matrix(spec, seed).tobytes()

    def test_generators_equal_default_rng(self):
        seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, *spawn_seeds(5, np.arange(1000)).tolist()]
        rng = _seeded_generators(seeds)
        for i in [*range(len(seeds)), 3, 0]:  # any order, any number of times
            got = rng(i).standard_normal(7).tobytes()
            assert got == np.random.default_rng(seeds[i]).standard_normal(7).tobytes()

    def test_generators_in_interleaving_threads_equal_default_rng(self):
        # two threads take turns, each seeding and drawing its own streams
        # from one shared rng(i): each thread has its own generator
        seeds = spawn_seeds(11, np.arange(40)).tolist()
        rng = _seeded_generators(seeds)
        turns = [threading.Semaphore(1), threading.Semaphore(0)]
        got = {}

        def draw(k):
            for i in range(k, len(seeds), 2):
                turns[k].acquire()
                generator = rng(i)
                first = generator.standard_normal(5)
                turns[1 - k].release()  # the other thread re-seeds its generator
                turns[k].acquire()
                got[i] = np.concatenate([first, generator.standard_normal(5)]).tobytes()
                turns[1 - k].release()

        threads = [threading.Thread(target=draw, args=(k,)) for k in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(got) == list(range(len(seeds)))
        for i, seed in enumerate(seeds):
            assert got[i] == np.random.default_rng(seed).standard_normal(10).tobytes()

    @pytest.mark.parametrize("kind", [EnsembleKind.GOE, EnsembleKind.GUE])
    @pytest.mark.parametrize("dim", [4, 8, 32, 128, 512])
    def test_row_equals_row_of_sampled_matrix(self, kind, dim):
        # c^T V from the normals against c @ V for the assembled V; the
        # tolerance is roundoff of a length-d sum with unit-norm c
        spec = EnsembleSpec(kind, dim)
        r = np.random.default_rng(dim)
        c = r.standard_normal(dim) + 1j * r.standard_normal(dim)
        c /= np.linalg.norm(c)
        for seed in (0, 2**40 + 1):
            v = _sample_matrix(spec, seed)
            z = _normals(spec, np.random.default_rng(seed))
            for vec in (c, c.real / np.linalg.norm(c.real)):
                row = _sample_rows(spec, z, vec)
                assert np.max(np.abs(row - vec @ v)) <= 1e-14 * np.max(np.abs(v))

    @pytest.mark.parametrize("kind", [EnsembleKind.GOE, EnsembleKind.GUE])
    @pytest.mark.parametrize("dim", [4, 8, 32, 128])
    def test_stacked_rows_equal_rows_of_one_draw(self, kind, dim):
        # a scatter block's rows, bit for bit the rows of its draws one by one
        spec = EnsembleSpec(kind, dim)
        r = np.random.default_rng(dim)
        c = r.standard_normal(dim) + 1j * r.standard_normal(dim)
        c /= np.linalg.norm(c)
        z = np.empty((128, *_normals_shape(spec)))
        for j in range(len(z)):
            z[j] = _normals(spec, np.random.default_rng(j), z[j])
        for k in (1, 3, 128):
            rows = _sample_rows(spec, z[:k], c)
            assert rows.shape == (k, dim)
            for j in range(k):
                assert rows[j].tobytes() == _sample_rows(spec, z[j], c).tobytes()


class TestEnsembleShapes:
    def test_goe_is_real(self):
        m = _sample_matrix(EnsembleSpec(EnsembleKind.GOE, 32), 5)
        assert not np.iscomplexobj(m)

    def test_gue_is_complex_hermitian(self):
        m = _sample_matrix(EnsembleSpec(EnsembleKind.GUE, 32), 5)
        assert np.iscomplexobj(m)
        assert np.max(np.abs(m - m.conj().T)) == 0.0

    def test_poisson_diagonal_is_diagonal(self):
        m = _sample_matrix(EnsembleSpec(EnsembleKind.POISSON_DIAGONAL, 16), 5)
        assert np.max(np.abs(m - np.diag(np.diag(m)))) == 0.0

    @pytest.mark.parametrize("kind", list(EnsembleKind))
    def test_hermiticity(self, kind):
        m = _sample_matrix(EnsembleSpec(kind, dim=16), 77)
        assert np.max(np.abs(m - m.conj().T)) < 1e-12

    def test_goe_variances(self):
        # off-diagonal variance 1, diagonal variance 2
        draws = [
            _sample_matrix(EnsembleSpec(EnsembleKind.GOE, 40), s)
            for s in range(60)
        ]
        offs = np.concatenate([m[np.triu_indices(40, k=1)] for m in draws])
        diags = np.concatenate([np.diag(m) for m in draws])
        assert offs.var() == pytest.approx(1.0, rel=0.05)
        assert diags.var() == pytest.approx(2.0, rel=0.1)

    def test_gue_variances(self):
        # off-diagonal real and imaginary variances 1/2, diagonal variance 1
        draws = [
            _sample_matrix(EnsembleSpec(EnsembleKind.GUE, 40), s)
            for s in range(60)
        ]
        offs = np.concatenate([m[np.triu_indices(40, k=1)] for m in draws])
        assert offs.real.var() == pytest.approx(0.5, rel=0.05)
        assert offs.imag.var() == pytest.approx(0.5, rel=0.05)
        diags = np.concatenate([np.diag(m).real for m in draws])
        assert diags.var() == pytest.approx(1.0, rel=0.1)


class TestSpectralStatistics:
    def test_mean_level_symmetric_about_zero(self):
        # statistical smoke check: flagged, not hard-failed
        dim, n_draws = 64, 100
        means = [
            np.linalg.eigvalsh(_sample_matrix(EnsembleSpec(EnsembleKind.GOE, dim), s)).mean()
            for s in range(n_draws)
        ]
        grand = np.mean(means)
        spectral_std = np.sqrt(dim + 1.0)
        tol = 3 * spectral_std / np.sqrt(dim) / np.sqrt(n_draws)
        if abs(grand) >= tol:
            import warnings

            warnings.warn(f"GOE mean level {grand:.4f} outside 3-sigma band {tol:.4f}")

    def test_goe_spacings_follow_wigner_surmise(self):
        # ~10^4 unfolded spacings vs the closed-form reference CDF
        spacings = []
        for seed in range(90):
            eigs = np.linalg.eigvalsh(_sample_matrix(EnsembleSpec(EnsembleKind.GOE, 128), seed))
            spacings.append(SpacingSample(np.diff(unfold(eigs))).spacings)
        pooled = np.concatenate(spacings)
        assert pooled.size >= 10_000
        wd_cdf = lambda s: 1.0 - np.exp(-np.pi * s * s / 4.0)
        ks = stats.kstest(pooled, wd_cdf).statistic
        assert ks < 0.02

    def test_poisson_diagonal_spacings_are_exponential(self):
        spacings = []
        for seed in range(90):
            eigs = np.linalg.eigvalsh(
                _sample_matrix(EnsembleSpec(EnsembleKind.POISSON_DIAGONAL, 128), seed)
            )
            spacings.append(SpacingSample(np.diff(unfold(eigs))).spacings)
        pooled = np.concatenate(spacings)
        assert pooled.size >= 10_000
        fit = weibull_mle(pooled)
        assert fit.c == pytest.approx(1.0, abs=0.05)
