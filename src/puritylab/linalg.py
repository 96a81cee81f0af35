"""Dense complex Hermitian eigendecomposition and spectral matrix functions.

Every eigensolve in the package goes through ``hermitian_eig``, which checks
Hermiticity and hands the Hermitian part to LAPACK: ``numpy.linalg.eigh``, or
``numpy.linalg.eigvalsh`` when the caller reads the eigenvalues only.  The
clamped spectra and spectral powers of positive-semidefinite matrices are
built on it.
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


def _square(mat) -> np.ndarray:
    arr = np.asarray(mat, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise DimMismatch(f"expected a square matrix, got shape {arr.shape}")
    return arr


def as_square_matrix(mat) -> np.ndarray:
    """Coerce to a square complex128 array, rejecting non-finite entries."""
    arr = _square(mat)
    if not np.isfinite(arr).all():
        raise DomainError("matrix contains NaN or Inf entries")
    return arr


def hermiticity_defect(mat: np.ndarray) -> np.ndarray:
    """Largest absolute entry of mat - mat^dagger, one per matrix of a stack.

    Any NaN or Inf entry makes the defect non-finite: subtracting a finite
    number keeps it infinite or NaN, and subtracting an infinite one (its own
    conjugate on the diagonal, a symmetric partner) gives NaN or Inf.
    """
    return np.abs(mat - mat.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


@dataclass(frozen=True)
class HermitianEigen:
    """Eigenvalues ascending; eigenvector columns orthonormal, V diag(w) V^dagger
    reconstructs the input (``None`` when only the eigenvalues were asked
    for).  Ties keep the order LAPACK returns, which is a pure function of the
    input bytes on one numpy/BLAS build."""

    values: np.ndarray
    vectors: np.ndarray | None


def hermitian_eig(mat, tol: float = VALIDATION_TOL, *, vectors: bool = True) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix by LAPACK.

    The input must be Hermitian within ``tol`` (largest entry of m - m^dagger);
    its Hermitian part (m + m^dagger)/2 is decomposed by ``numpy.linalg.eigh``,
    or with ``vectors=False`` by ``numpy.linalg.eigvalsh``, which skips the
    eigenvectors (its eigenvalues may differ from ``eigh``'s in the last
    bits).  Errors come in the order DimMismatch (not square), DomainError (a
    NaN or Inf entry, read from the defect; numpy may warn about the invalid
    subtraction first), NotHermitian.
    """
    arr = _square(mat)
    adjoint = arr.conj().T
    defect = np.abs(arr - adjoint).max()
    if not defect <= tol:
        if not np.isfinite(defect):
            raise DomainError("matrix contains NaN or Inf entries")
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds tol {tol:.3e}")
    hermitian = 0.5 * (arr + adjoint)
    if not vectors:
        return HermitianEigen(values=np.linalg.eigvalsh(hermitian), vectors=None)
    values, vecs = np.linalg.eigh(hermitian)
    return HermitianEigen(values=values, vectors=vecs)


def hermitian_eigenvalues(mat, tol: float = VALIDATION_TOL) -> np.ndarray:
    return hermitian_eig(mat, tol).values


def clamp_spectra(values: np.ndarray, tol: float = CLAMP_TOL) -> np.ndarray:
    """Ascending spectra of positive-semidefinite matrices, one per row of
    ``values`` (or a single one), with eigenvalues in [-tol, 0) clamped to 0.

    A spectrum whose smallest eigenvalue lies below -tol raises
    NegativeSpectrum, naming the first such eigenvalue.
    """
    smallest = values[..., 0].ravel()
    below = np.flatnonzero(smallest < -tol)
    if len(below):
        raise NegativeSpectrum(
            f"smallest eigenvalue {smallest[below[0]]:.3e} below -{tol:.3e}")
    return np.maximum(values, 0.0)


def psd_eig(mat, tol: float = CLAMP_TOL) -> HermitianEigen:
    """Eigendecomposition of a positive-semidefinite Hermitian matrix.

    Eigenvalues are clamped by :func:`clamp_spectra`, so numerically rounded
    PSD inputs never produce complex powers.
    """
    eigen = hermitian_eig(mat, tol=tol)
    return HermitianEigen(values=clamp_spectra(eigen.values, tol), vectors=eigen.vectors)


def psd_matrix_power(mat, exponent: float, tol: float = CLAMP_TOL) -> np.ndarray:
    """Spectral power of a positive-semidefinite Hermitian matrix, clamped as
    in :func:`psd_eig`; a clamped zero eigenvalue combined with a negative
    exponent raises ZeroToNegativePower.
    """
    eigen = psd_eig(mat, tol=tol)
    if exponent < 0.0 and (eigen.values == 0.0).any():
        raise ZeroToNegativePower(
            f"exponent {exponent} applied to a zero (clamped) eigenvalue"
        )
    powered = eigen.values ** exponent
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
