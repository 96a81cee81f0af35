"""Eigenvalues of dense complex Hermitian matrices.

Every eigensolve in the package is an eigenvalues-only ``hermitian_eig`` of
one Hermitian matrix, by the LAPACK gufunc behind ``numpy.linalg.eigvalsh``
(``eigvalsh_lo`` of numpy's private ``_umath_linalg``), without numpy's
per-call wrapper.  ``spectra`` forms the Hermitian parts (m + m^dagger)/2 of
a whole stack at once and runs one ``hermitian_eig`` per matrix.  Nothing
here checks a tolerance: states are validated once, where they enter the
package (``density.validate_block``), and every matrix solved here is such a
state or derived from one: its entries are finite and bounded.  No quantity
the package computes needs an eigenvector.
"""

from __future__ import annotations

import math
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
    return finite values for a NaN.  Raises ``numpy.linalg.LinAlgError`` if
    an end of the spectrum is not finite (no convergence, or overflow).
    """
    values = eigvalsh_lo(mat, signature="D->d")
    # On a LAPACK failure the gufunc fills its output with NaN (and warns).
    if not (math.isfinite(values[0]) and math.isfinite(values[-1])):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return HermitianEigen(values)


def spectra(mats) -> np.ndarray:
    """(B, N) ascending eigenvalues of the Hermitian parts (m + m^dagger)/2
    of a (B, N, N) stack, with the bits ``numpy.linalg.eigvalsh`` gives for
    each part.

    The parts are formed for the whole stack at once, then solved by one
    ``hermitian_eig`` call per matrix: the traced benchmark counts those
    calls per dimension.
    """
    mats = np.asarray(mats, dtype=np.complex128)
    hermitian = mats + mats.conj().swapaxes(-1, -2)
    hermitian *= 0.5
    values = np.empty(mats.shape[:2])
    for i, mat in enumerate(hermitian):
        values[i] = hermitian_eig(mat).values
    return values
