"""Property tests of the invariants the bound theorem implies (ROADMAP item 5).

They go through what a scatter draw runs: the row kernels
``dQ0_dtau_from_row`` / ``level_curvature_from_row`` on row 0 of U^dag V U,
and ``bound_b`` on the spectrum of H0.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcbound.curvature import _level_differences, bound_b, level_curvature_from_row
from qcbound.ensembles import EnsembleKind, EnsembleSpec, _sample_matrix
from qcbound.entanglement import dQ0_dtau_from_row, ground_state_site_overlaps
from qcbound.experiments import BOUND_SLACK_RTOL
from qcbound.quantum import DEGENERACY_RTOL, HermitianOperator, eigensystem, require_isolated


def bound_terms(h0: np.ndarray, v: np.ndarray, n_qubits: int) -> tuple:
    """(b, K_0, |dQ^0/dtau|) of perturbation v on base h0, as a scatter draw
    computes them."""
    dec = eigensystem(HermitianOperator(h0))
    eps = dec.eigenvalues
    require_isolated(eps, 0)
    u = dec.eigenvectors
    row = (u[:, 0].conj() @ v) @ u
    overlaps = ground_state_site_overlaps(u, n_qubits)
    dq = abs(dQ0_dtau_from_row(row, eps[1:] - eps[0], overlaps, n_qubits))
    k0 = level_curvature_from_row(row, _level_differences(0, eps))
    return bound_b(eps), k0, dq


def generic_pair(n_qubits: int, seed: int) -> tuple:
    spec = EnsembleSpec(EnsembleKind.GUE, 2**n_qubits)
    return _sample_matrix(spec, seed), _sample_matrix(spec, seed + 1)


class TestInvariants:
    @given(n=st.integers(2, 4), seed=st.integers(0, 10_000), shift=st.floats(-50.0, 50.0))
    @settings(max_examples=30, deadline=None)
    def test_shift_leaves_b_k0_and_dq_unchanged(self, n, seed, shift):
        h0, v = generic_pair(n, seed)
        b, k0, dq = bound_terms(h0, v, n)
        b_s, k0_s, dq_s = bound_terms(h0 + shift * np.eye(2**n), v, n)
        assert b_s == pytest.approx(b, rel=1e-8)
        assert k0_s == pytest.approx(k0, rel=1e-8)
        # dQ0 is a sum with cancellation: floor at its natural scale b sqrt|K0|
        assert dq_s == pytest.approx(dq, rel=1e-8, abs=1e-10 * b * math.sqrt(abs(k0)))

    @given(n=st.integers(2, 4), seed=st.integers(0, 10_000), log_s=st.floats(-2.0, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_scaling_h0(self, n, seed, log_s):
        s = 10.0**log_s
        h0, v = generic_pair(n, seed)
        b, k0, dq = bound_terms(h0, v, n)
        b_s, k0_s, dq_s = bound_terms(s * h0, v, n)
        scale = b * math.sqrt(abs(k0))
        assert b_s == pytest.approx(b / math.sqrt(s), rel=1e-8)
        assert k0_s == pytest.approx(k0 / s, rel=1e-8)
        assert dq_s == pytest.approx(dq / s, rel=1e-8, abs=1e-10 * scale / s)
        # the tightness ratio |dQ0| / (b sqrt|K0|) does not depend on s
        assert dq_s / (b_s * math.sqrt(abs(k0_s))) == pytest.approx(
            dq / scale, rel=1e-8, abs=1e-10
        )


class TestBound:
    @given(
        n=st.integers(2, 6),
        seed=st.integers(0, 10_000),
        log_margin=st.floats(0.1, 6.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_no_b_violation_near_the_guard(self, n, seed, log_margin):
        # H0 = Q diag(eps) Q^dag with width 1 and a ground gap 10^log_margin
        # times the degeneracy guard, the rest of eps uniform above it
        d = 2**n
        rng = np.random.default_rng(seed)
        gap = DEGENERACY_RTOL * 10.0**log_margin
        eps = np.concatenate(([0.0, gap], np.sort(rng.uniform(0.01, 1.0, d - 3)), [1.0]))
        q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        q *= np.diag(r) / np.abs(np.diag(r))
        h0 = (q * eps) @ q.conj().T
        h0 = (h0 + h0.conj().T) / 2.0
        spec = EnsembleSpec(EnsembleKind.GUE, d)
        for v_seed in range(5):
            b, k0, dq = bound_terms(h0, _sample_matrix(spec, seed + v_seed), n)
            assert dq <= b * math.sqrt(abs(k0)) + BOUND_SLACK_RTOL * b
