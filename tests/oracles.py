"""Reference implementations that only the tests use.

``model_d_matrix`` is the seed-taking model-D builder the package used before
``models._ModelDSampler``: one ``SeedSequence`` per child stream, H_P drawn
as a full diagonal matrix and read back with ``np.diag``, and H_W as a fresh
GOE matrix.  The sampler must reproduce its bytes.
"""

import math

import numpy as np

from qcbound.ensembles import EnsembleKind, EnsembleSpec, _sample_matrix, spawn_seed
from qcbound.models import _spectral_std


def model_d_matrix(theta: float, seed: int, dim: int, chaotic_scale: float) -> np.ndarray:
    if not 0.0 <= theta <= math.pi / 2.0 + 1e-12:
        raise ValueError("theta must lie in [0, pi/2]")
    hp = _sample_matrix(EnsembleSpec(EnsembleKind.POISSON_DIAGONAL, dim), spawn_seed(seed, 0))
    hw = _sample_matrix(EnsembleSpec(EnsembleKind.GOE, dim), spawn_seed(seed, 1))
    p = np.diag(hp)
    hw *= math.sin(theta) * chaotic_scale / _spectral_std(hw)
    hw[np.diag_indices(dim)] += math.cos(theta) * (p / np.std(p))
    return hw
