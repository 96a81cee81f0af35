"""Eigenvalues of dense complex Hermitian matrices.

Every eigensolve in the package is an eigenvalues-only ``hermitian_eig``
(``spectra`` runs one per matrix of a stack) of the Hermitian part
(m + m^dagger)/2, by the LAPACK gufunc behind ``numpy.linalg.eigvalsh``
(``eigvalsh_lo`` of numpy's private ``_umath_linalg``), without numpy's
per-call wrapper.  Nothing here checks a tolerance: states are validated
once, where they enter the package (``density.validate_block``), and every
matrix solved here is such a state or derived from one: its entries are
finite and bounded.  No quantity the package computes needs an eigenvector.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.linalg._umath_linalg import eigvalsh_lo

from .errors import DimMismatch


def _square(mat) -> np.ndarray:
    arr = np.asarray(mat, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise DimMismatch(f"expected a square matrix, got shape {arr.shape}")
    return arr


# A named tuple, not a bare array: perfbench/tracer.py reads ``.values``.
class HermitianEigen(NamedTuple):
    """Eigenvalues ascending: a pure function of the input bytes on one
    numpy/BLAS build."""

    values: np.ndarray


def hermitian_eig(mat) -> HermitianEigen:
    """Eigenvalues of the Hermitian part (m + m^dagger)/2 of a square matrix
    by LAPACK, with the bits ``numpy.linalg.eigvalsh`` gives for that part.

    Entries must be finite, unchecked: LAPACK may return finite values for a
    NaN.  Raises DimMismatch if not square, and ``numpy.linalg.LinAlgError``
    if an end of the spectrum is not finite (no convergence, or overflow).
    """
    arr = _square(mat)
    hermitian = arr + arr.conj().T
    hermitian *= 0.5
    values = eigvalsh_lo(hermitian, signature="D->d")
    # On a LAPACK failure the gufunc fills its output with NaN (and warns).
    if not (math.isfinite(values[0]) and math.isfinite(values[-1])):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return HermitianEigen(values)


def spectra(mats) -> np.ndarray:
    """(B, N) ascending eigenvalues of a (B, N, N) stack, one ``hermitian_eig`` each."""
    values = np.empty(np.shape(mats)[:2])
    for i, mat in enumerate(mats):
        values[i] = hermitian_eig(mat).values
    return values
