import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from puritylab import linalg

# Per-example time on a shared host is noisy (each example validates its
# states with LAPACK eigensolves, and some draw from the scalar SplitMix64
# methods), so property tests are bounded by max_examples instead of
# wall-clock deadlines.
settings.register_profile(
    "puritylab",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("puritylab")


@pytest.fixture
def eigh_counts(monkeypatch):
    """Count LAPACK eigensolves per matrix dimension, ``counts[dim]``: the
    matrices (lanes) ``eigvalsh_lo``, the gufunc behind every
    ``hermitian_eig``, solves, one per (N, N) matrix of each call, whether
    it gets one matrix or a stack.  A call on an empty stack adds nothing."""
    counts = Counter()
    real = linalg.eigvalsh_lo

    def counted(a, *args, **kwargs):
        shape = np.shape(a)
        lanes = math.prod(shape[:-2])
        if lanes:
            counts[shape[-1]] += lanes
        return real(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "eigvalsh_lo", counted)
    return counts
