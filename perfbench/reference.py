"""Independent reference for the correctness gate.

Everything here recomputes the package's outputs without its reduction maps,
its eigensolver or its closed-form helpers: reductions are einsum contractions
written out here, spectra come from ``numpy.linalg.eigvalsh`` and the X-state
families are built from their defining parameters.  Agreement is therefore a
cross-check between two implementations, not the package against itself.

Tolerances:

* ``VALUE_TOL`` bounds the absolute difference of every recomputed value.
  ``Tr A^(1/2)`` has unbounded slope at singular ``A``, so on rank-deficient
  reductions both paths carry rounding noise of about 5e-8 (measured on pure
  product states).  1e-6 sits a factor 20 above that noise and far below
  every quantity the outputs report.
* Verdicts (entangled, valid, satisfied) must match exactly.  They use the
  package's documented slacks, restated here: 1e-12 on entanglement
  thresholds, 1e-10 on validation and 1e-9 on inequality reports.
"""

from __future__ import annotations

import math

import numpy as np

VALUE_TOL = 1e-6
ENTANGLE_TOL = 1e-12
VALIDATION_TOL = 1e-10
REPORT_TOL = 1e-9

MARGIN_NAMES = ("eq5", "eq6", "eq8", "eq9", "eq10")


def _sqrt_trace(mat: np.ndarray) -> float:
    return float(np.sqrt(np.clip(np.linalg.eigvalsh(mat), 0.0, None)).sum())


def _purity(mat: np.ndarray) -> float:
    # Tr A^2 = sum |a_ij|^2 for Hermitian A.
    return float(np.sum(np.abs(mat) ** 2))


def quantities(mat: np.ndarray, n: int, m: int) -> dict:
    """Purities, mu_tilde, delta, both sides of the five audited inequalities
    and the smallest partial-transpose eigenvalue of an (n*m) x (n*m) state."""
    blocks = mat.reshape(n, m, n, m)
    squared = (mat @ mat).reshape(n, m, n, m)
    mu12 = _purity(mat)
    mu1 = _purity(np.einsum("ikjk->ij", blocks))
    mu2 = _purity(np.einsum("kakb->ab", blocks))
    s6 = _sqrt_trace(np.einsum("ikjk->ij", squared))
    s8 = _sqrt_trace(np.einsum("kakb->ab", squared))
    mu_tilde = s8 * s8 + s6 * s6 - 1.0
    transposed = blocks.transpose(0, 3, 2, 1).reshape(n * m, n * m)
    return {
        "mu12": mu12, "mu1": mu1, "mu2": mu2, "s6": s6, "s8": s8,
        "mu_tilde": mu_tilde, "delta": mu_tilde - mu12,
        "lhs5": mu1 + mu2 - 1.0,
        "min_pt": float(np.linalg.eigvalsh(transposed)[0]),
        # (lhs, rhs) of each audited inequality lhs <= rhs; margin = rhs - lhs.
        "eq5": (mu1 + mu2 - 1.0, mu12),
        "eq6": (math.sqrt(mu2), s6),
        "eq8": (math.sqrt(mu1), s8),
        "eq9": (mu1 + mu2, s8 * s8 + s6 * s6),
        "eq10": (mu1 + mu2 - 1.0, mu_tilde),
    }


def ppt_entangled(q: dict[str, float]) -> bool:
    return q["min_pt"] < -ENTANGLE_TOL


def close(a: float | None, b: float | None) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= VALUE_TOL


def x_state(d1, d2, d3, d4, c14=0.0, c23=0.0) -> np.ndarray:
    mat = np.diag(np.array([d1, d2, d3, d4], dtype=np.complex128))
    mat[0, 3], mat[3, 0] = c14, np.conj(c14)
    mat[1, 2], mat[2, 1] = c23, np.conj(c23)
    return mat


def werner(p: float) -> np.ndarray:
    return x_state((1 + p) / 4, (1 - p) / 4, (1 - p) / 4, (1 + p) / 4, c14=p / 2)


def beta(b: float) -> np.ndarray:
    return x_state(b / 2, (1 - b) / 2, (1 - b) / 2, b / 2, c14=b / 2, c23=(1 - b) / 2)


def gisin(x: float, a: complex, b: complex) -> np.ndarray:
    return x_state((1 - x) / 2, x * abs(a) ** 2, x * abs(b) ** 2, (1 - x) / 2,
                   c23=x * a * np.conj(b))


def gisin_x_max(a: complex, b: complex) -> float:
    return 1.0 / (1.0 + 2.0 * abs(a * b))


def gisin_delta_closed(x: np.ndarray, a2: float, b2: float) -> np.ndarray:
    """Closed-form delta = mu_tilde - mu12 of the Gisin family in the raw
    amplitudes |a|^2, |b|^2, vectorised over x."""
    mu_tilde = x * (3 * x - 2) + np.sqrt(x * x * (4 * a2 + 1) - 2 * x + 1) \
        * np.sqrt(x * x * (4 * b2 + 1) - 2 * x + 1)
    return mu_tilde - (1.5 * x * x - x + 0.5)
