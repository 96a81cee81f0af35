"""Eigenvalues of dense complex Hermitian matrices.

Every eigensolve in the package is an eigenvalues-only ``hermitian_eig`` of
one Hermitian matrix, by the LAPACK gufunc behind ``numpy.linalg.eigvalsh``
(``eigvalsh_lo`` of numpy's private ``_umath_linalg``), without numpy's
per-call wrapper.  ``spectra`` forms the Hermitian parts (m + m^dagger)/2 of
a whole stack at once, runs one ``hermitian_eig`` per matrix, and raises
``numpy.linalg.LinAlgError`` once per stack if LAPACK failed on any of them.
Nothing here checks a tolerance: states are validated once, where they
enter the package (``density.validate_block``), and every matrix solved here
is such a state or derived from one: its entries are finite and bounded.  No
quantity the package computes needs an eigenvector.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.linalg._umath_linalg import eigvalsh_lo


# A named tuple, not a bare array: perfbench/tracer.py reads ``.values``.
class HermitianEigen(NamedTuple):
    """Eigenvalues ascending: a pure function of the input bytes on one
    numpy/BLAS build."""

    values: np.ndarray


def hermitian_eig(mat: np.ndarray) -> HermitianEigen:
    """Ascending eigenvalues of one Hermitian (N, N) complex128 matrix by
    LAPACK, read from its lower triangle as ``numpy.linalg.eigvalsh`` does,
    with its bits.

    Neither shape nor symmetry is checked, and nothing is symmetrised:
    ``spectra`` passes Hermitian parts.  Entries must be finite: LAPACK may
    return finite values for a NaN.  Nothing is raised here: on a LAPACK
    failure (no convergence, or overflow) the values are NaN, and
    ``spectra`` raises ``numpy.linalg.LinAlgError`` for its stack.
    """
    return HermitianEigen(eigvalsh_lo(mat, signature="D->d"))


def spectra(mats) -> np.ndarray:
    """(B, N) ascending eigenvalues of the Hermitian parts (m + m^dagger)/2
    of a (B, N, N) stack, with the bits ``numpy.linalg.eigvalsh`` gives for
    each part.

    The parts are formed for the whole stack at once, then solved by one
    ``hermitian_eig`` call per matrix: the traced benchmark counts those
    calls per dimension.  Raises ``numpy.linalg.LinAlgError`` if any
    eigenvalue of the stack is not finite.
    """
    mats = np.asarray(mats, dtype=np.complex128)
    # m^dagger + m, summed in place to keep one temporary stack; addition
    # commutes, so the bits are those of m + m^dagger
    hermitian = np.conjugate(mats.swapaxes(-1, -2), order="C")
    hermitian += mats
    hermitian *= 0.5
    values = np.array([hermitian_eig(m).values for m in hermitian]).reshape(mats.shape[:2])
    # On a LAPACK failure the gufunc fills its output with NaN (and warns).
    # The whole stack is checked: cheaper than indexing the ends of each row.
    if not np.isfinite(values).all():
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return values
