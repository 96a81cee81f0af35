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
    """Count LAPACK eigensolves per matrix dimension, with eigenvectors
    (``eigh_lo``, the gufunc of numpy.linalg.eigh) and without (``eigvalsh_lo``)
    separately: ``counts["eigh"][dim]``, ``counts["eigvalsh"][dim]``."""
    counts = {"eigh": Counter(), "eigvalsh": Counter()}

    def counting(name):
        real = getattr(linalg, f"{name}_lo")

        def counted(a, *args, **kwargs):
            counts[name][np.shape(a)[-1]] += 1
            return real(a, *args, **kwargs)
        return counted

    for name in counts:
        monkeypatch.setattr(linalg, f"{name}_lo", counting(name))
    return counts
