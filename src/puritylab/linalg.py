"""Dense complex Hermitian eigendecomposition and spectral matrix functions.

Every eigensolve in the package goes through ``hermitian_eig``, which checks
Hermiticity and hands the Hermitian part to LAPACK via ``numpy.linalg.eigh``.
Spectral powers of positive-semidefinite matrices are built on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .defaults import CLAMP_TOL, VALIDATION_TOL
from .errors import (
    DimMismatch,
    DomainError,
    NegativeSpectrum,
    NotHermitian,
    ZeroToNegativePower,
)


def as_square_matrix(mat) -> np.ndarray:
    """Coerce to a square complex128 array, rejecting non-finite entries."""
    arr = np.asarray(mat, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise DimMismatch(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DomainError("matrix contains NaN or Inf entries")
    return arr


def hermiticity_defect(mat: np.ndarray) -> float:
    """Largest absolute entry of mat - mat^dagger."""
    return float(np.abs(mat - mat.conj().T).max())


@dataclass(frozen=True)
class HermitianEigen:
    """Eigenvalues ascending; eigenvector columns orthonormal, V diag(w) V^dagger
    reconstructs the input.  Ties keep the order LAPACK returns, which is a
    pure function of the input bytes on one numpy/BLAS build."""

    values: np.ndarray
    vectors: np.ndarray


def hermitian_eig(mat, tol: float = VALIDATION_TOL) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix by LAPACK (numpy.linalg.eigh).

    The input must be Hermitian within ``tol`` (largest entry of m - m^dagger);
    its Hermitian part (m + m^dagger)/2 is decomposed.
    """
    arr = as_square_matrix(mat)
    defect = hermiticity_defect(arr)
    if defect > tol:
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds tol {tol:.3e}")
    values, vectors = np.linalg.eigh(0.5 * (arr + arr.conj().T))
    return HermitianEigen(values=values, vectors=vectors)


def hermitian_eigenvalues(mat, tol: float = VALIDATION_TOL) -> np.ndarray:
    return hermitian_eig(mat, tol).values


def psd_matrix_power(mat, exponent: float, tol: float = CLAMP_TOL) -> np.ndarray:
    """Spectral power of a positive-semidefinite Hermitian matrix.

    Eigenvalues in [-tol, 0) are clamped to 0 before powering, so numerically
    rounded PSD inputs never produce complex powers.  Eigenvalues below -tol
    raise NegativeSpectrum; a clamped zero eigenvalue combined with a negative
    exponent raises ZeroToNegativePower.
    """
    eigen = hermitian_eig(mat, tol=tol)
    smallest = float(eigen.values[0])
    if smallest < -tol:
        raise NegativeSpectrum(f"smallest eigenvalue {smallest:.3e} below -{tol:.3e}")
    clamped = np.clip(eigen.values, 0.0, None)
    if exponent < 0.0 and (clamped == 0.0).any():
        raise ZeroToNegativePower(
            f"exponent {exponent} applied to a zero (clamped) eigenvalue"
        )
    powered = clamped ** exponent
    out = (eigen.vectors * powered) @ eigen.vectors.conj().T
    return 0.5 * (out + out.conj().T)


def trace(mat) -> complex:
    """Sum of diagonal entries."""
    arr = as_square_matrix(mat)
    return complex(arr.trace())


def frobenius_distance(a, b) -> float:
    """Frobenius norm of a - b; zero iff the matrices are equal."""
    left = as_square_matrix(a)
    right = as_square_matrix(b)
    if left.shape != right.shape:
        raise DimMismatch(f"dimension mismatch: {left.shape} vs {right.shape}")
    return float(np.linalg.norm(left - right))
