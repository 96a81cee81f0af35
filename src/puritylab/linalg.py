"""Eigenvalues of dense complex Hermitian matrices and clamped PSD spectra.

Every eigensolve in the package is an eigenvalues-only ``hermitian_eig``
(``spectra`` runs one per matrix of a stack), which checks Hermiticity and
hands the Hermitian part to LAPACK through the gufunc behind
``numpy.linalg.eigvalsh`` (``eigvalsh_lo`` of numpy's private
``_umath_linalg``), without numpy's per-call shape, dtype and error-state
wrapper: ``hermitian_eig`` has already made the matrix square, finite and
complex128.  No quantity the package computes needs an eigenvector.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.linalg._umath_linalg import eigvalsh_lo

from .defaults import CLAMP_TOL, VALIDATION_TOL
from .errors import DimMismatch, DomainError, NegativeSpectrum, NotHermitian


def _square(mat) -> np.ndarray:
    arr = np.asarray(mat, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise DimMismatch(f"expected a square matrix, got shape {arr.shape}")
    return arr


def hermiticity_defect(mat: np.ndarray) -> np.ndarray:
    """Largest absolute entry of mat - mat^dagger, one per matrix of a stack.

    Any NaN or Inf entry makes the defect non-finite: subtracting a finite
    number keeps it infinite or NaN, and subtracting an infinite one (its own
    conjugate on the diagonal, a symmetric partner) gives NaN or Inf.
    """
    return np.abs(mat - mat.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


class HermitianEigen(NamedTuple):
    """Eigenvalues ascending: a pure function of the input bytes on one
    numpy/BLAS build."""

    values: np.ndarray


def hermitian_eig(mat) -> HermitianEigen:
    """Eigenvalues of a Hermitian matrix by LAPACK.

    The input must be Hermitian within ``VALIDATION_TOL`` (largest entry of
    m - m^dagger); the eigenvalues of its Hermitian part (m + m^dagger)/2
    come from the LAPACK gufunc of ``numpy.linalg.eigvalsh``, with the bits
    that function gives.  Errors come in the order DimMismatch (not
    square), DomainError (a NaN or Inf entry, read from the defect; numpy may
    warn about the invalid subtraction first), NotHermitian, DomainError (a
    Hermitian part that overflows to Inf, read after the solve), and
    ``numpy.linalg.LinAlgError`` if LAPACK does not converge.
    """
    arr = _square(mat)
    adjoint = arr.conj().T
    defect = np.abs(arr - adjoint).max()
    if not defect <= VALIDATION_TOL:
        if not np.isfinite(defect):
            raise DomainError("matrix contains NaN or Inf entries")
        raise NotHermitian(
            f"hermiticity defect {defect:.3e} exceeds tol {VALIDATION_TOL:.3e}")
    hermitian = arr + adjoint
    hermitian *= 0.5
    values = eigvalsh_lo(hermitian, signature="D->d")
    # On a LAPACK failure the gufunc fills its output with NaN (and warns
    # where numpy.linalg would raise); an Inf in the Hermitian part (finite
    # entries whose sum overflows) also leaves a NaN or Inf at an end of the
    # ascending spectrum.
    if not (math.isfinite(values[0]) and math.isfinite(values[-1])):
        if not np.isfinite(hermitian).all():
            raise DomainError("Hermitian part (m + m^dagger)/2 overflows to Inf")
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return HermitianEigen(values)


def spectra(mats) -> np.ndarray:
    """(B, N) ascending eigenvalues of a (B, N, N) Hermitian stack, one ``hermitian_eig`` each."""
    values = np.empty(np.shape(mats)[:2])
    for i, mat in enumerate(mats):
        values[i] = hermitian_eig(mat).values
    return values


def clamp_spectra(values: np.ndarray) -> np.ndarray:
    """Ascending spectra of positive-semidefinite matrices, one per row of
    ``values`` (or a single one), with eigenvalues in [-CLAMP_TOL, 0) clamped
    to 0.

    A spectrum whose smallest eigenvalue lies below -CLAMP_TOL raises
    NegativeSpectrum, naming the first such eigenvalue.
    """
    smallest = values[..., 0].ravel()
    below = np.flatnonzero(smallest < -CLAMP_TOL)
    if len(below):
        raise NegativeSpectrum(
            f"smallest eigenvalue {smallest[below[0]]:.3e} below -{CLAMP_TOL:.3e}")
    return np.maximum(values, 0.0)
