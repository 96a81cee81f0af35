"""Purity inequalities of block-structured states: every quantity the
commands evaluate.

The purity inequality family, for a state rho with block structure, is

    eq5 :  mu1 + mu2 - 1  <=  mu12
    eq6 :  sqrt(mu2)      <=  Tr[(block_trace(rho^2))^(1/2)]
    eq8 :  sqrt(mu1)      <=  Tr[(block_sum(rho^2))^(1/2)]
    eq9 :  mu1 + mu2      <=  (rhs of eq8)^2 + (rhs of eq6)^2
    eq10:  mu1 + mu2 - 1  <=  mu_tilde

with mu_tilde = (rhs of eq8)^2 + (rhs of eq6)^2 - 1.  eq6 and eq8 are the
(p, q) = (2, 1) and (1, 2) cases of the Minkowski-type trace inequality
(Carlen & Lieb 2008, Lett. Math. Phys. 83:107), written in purities.  The
traces of the matrix square roots are sums of square roots of eigenvalues,
never of entries.  ``audit_block`` gives both sides of all five for a whole
block of states, from one set of purities and square-root traces per state;
``audit_reports`` turns its one-state block into reports.  The other
``*_block`` functions likewise evaluate a whole block of states, and the
one-state functions are one-state blocks of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .defaults import REPORT_TOL, ROOT_GRID, ROOT_TOL
from .density import (
    DensityBlock,
    DensityMatrix,
    block_sum_map,
    block_trace_map,
    purities,
    reduced_blocks,
)
from .errors import BadInterval
from .linalg import clamp_spectra, hermitian_eig


@dataclass(frozen=True)
class PuritySet:
    """The four purity scalars of one state and their difference.

    ``delta`` is ``mu_tilde - mu12``, the quantity whose sign the
    entanglement scans track.
    """

    mu12: float
    mu1: float
    mu2: float
    mu_tilde: float
    delta: float


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one inequality evaluation.

    Every inequality expects lhs <= rhs, so ``margin`` is rhs - lhs and a
    nonnegative margin means "as expected".  Reports are measurements: they
    are returned whether or not the inequality holds.
    """

    name: str
    lhs: float
    rhs: float
    margin: float
    satisfied: bool
    tol: float


def _report(name: str, lhs: float, rhs: float, tol: float) -> InequalityReport:
    margin = rhs - lhs
    return InequalityReport(name=name, lhs=lhs, rhs=rhs, margin=margin,
                            satisfied=margin >= -tol, tol=tol)


def _sqrt_trace_stack(mats: np.ndarray) -> np.ndarray:
    """Tr A^(1/2) of every PSD Hermitian matrix A of a stack: the row sums of
    the square roots of the clamped eigenvalues (see ``clamp_spectra``), with
    one ``hermitian_eig`` per matrix."""
    values = np.array([hermitian_eig(a).values for a in mats])
    return np.sqrt(clamp_spectra(values)).sum(axis=1)


def _sqrt_traces(block: DensityBlock) -> tuple[np.ndarray, np.ndarray]:
    """Tr[(block_trace(rho^2))^(1/2)] and Tr[(block_sum(rho^2))^(1/2)] of
    every state of a block (the rhs of eq6 and of eq8)."""
    squared = block.mats @ block.mats
    return (_sqrt_trace_stack(block_trace_map(squared, block.shape)),
            _sqrt_trace_stack(block_sum_map(squared, block.shape)))


def delta_block(block: DensityBlock) -> np.ndarray:
    """delta = mu_tilde - mu12 of every state of a block."""
    s6, s8 = _sqrt_traces(block)
    return s8 * s8 + s6 * s6 - 1.0 - purities(block.mats)


def delta(rho: DensityMatrix) -> float:
    """mu_tilde - mu12; positivity of this difference is what the
    entanglement conjecture asserts on entangled states."""
    return float(delta_block(DensityBlock.of(rho))[0])


def _audit_terms(block: DensityBlock) -> tuple[np.ndarray, ...]:
    """mu12, mu1, mu2 (from the validated reduced states), s6 and s8 of
    every state of a block."""
    reduced_n, reduced_m = reduced_blocks(block)
    s6, s8 = _sqrt_traces(block)
    return purities(block.mats), purities(reduced_n.mats), purities(reduced_m.mats), s6, s8


def purity_sets(block: DensityBlock) -> list[PuritySet]:
    """The purity set of every state of a block."""
    mu12, mu1, mu2, s6, s8 = _audit_terms(block)
    mt = s8 * s8 + s6 * s6 - 1.0
    return [PuritySet(mu12=a, mu1=b, mu2=c, mu_tilde=d, delta=e) for a, b, c, d, e in
            zip(mu12.tolist(), mu1.tolist(), mu2.tolist(), mt.tolist(), (mt - mu12).tolist())]


def purity_set(rho: DensityMatrix) -> PuritySet:
    """All four purity scalars of one state, plus delta = mu_tilde - mu12."""
    return purity_sets(DensityBlock.of(rho))[0]


def audit_block(block: DensityBlock) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """``(name, lhs, rhs)`` of eq5, eq6, eq8, eq9 and eq10 with one entry per
    state of a block."""
    mu12, mu1, mu2, s6, s8 = _audit_terms(block)
    squares = s8 * s8 + s6 * s6
    return [
        ("eq5", mu1 + mu2 - 1.0, mu12),
        ("eq6", np.sqrt(mu2), s6),
        ("eq8", np.sqrt(mu1), s8),
        ("eq9", mu1 + mu2, squares),
        ("eq10", mu1 + mu2 - 1.0, squares - 1.0),
    ]


def audit_reports(rho: DensityMatrix, tol: float = REPORT_TOL) -> list[InequalityReport]:
    """Reports of eq5, eq6, eq8, eq9 and eq10, in that order: the one-state
    :func:`audit_block`, each judged satisfied when its margin is >= -tol."""
    return [_report(name, float(lhs[0]), float(rhs[0]), tol)
            for name, lhs, rhs in audit_block(DensityBlock.of(rho))]


def find_delta_roots(f, lo: float, hi: float, grid: int = ROOT_GRID,
                     tol: float = ROOT_TOL) -> list[float]:
    """Roots of a continuous scalar function by grid scan plus bisection.

    Grid points where |f| <= tol are reported once; each sign change between
    adjacent grid points is refined by bisection until the bracket is
    narrower than tol.  Multiple roots inside one grid cell are not
    separated, and a zero of even order (where f touches zero without
    changing sign) is reported only if |f| <= tol at some grid point:
    for Gisin with |a| = |b|, delta = (3x-1)^2/2 touches zero at x = 1/3,
    yet the search on [0.001, 0.999] returns [].
    """
    if not lo < hi:
        raise BadInterval(f"need lo < hi, got [{lo}, {hi}]")
    if grid < 2:
        raise BadInterval(f"need at least 2 grid points, got {grid}")
    xs = [lo + (hi - lo) * i / (grid - 1) for i in range(grid)]
    fs = [float(f(x)) for x in xs]

    roots = [x for x, fx in zip(xs, fs) if abs(fx) <= tol]
    for i in range(grid - 1):
        f_lo, f_hi = fs[i], fs[i + 1]
        if abs(f_lo) <= tol or abs(f_hi) <= tol:
            continue
        if (f_lo < 0.0) == (f_hi < 0.0):
            continue
        a, b = xs[i], xs[i + 1]
        fa = f_lo
        while b - a > tol:
            mid = 0.5 * (a + b)
            fm = float(f(mid))
            if fm == 0.0:
                a = b = mid
                break
            if (fa < 0.0) != (fm < 0.0):
                b = mid
            else:
                a, fa = mid, fm
        roots.append(0.5 * (a + b))

    roots.sort()
    deduped: list[float] = []
    for r in roots:
        if not deduped or r - deduped[-1] > tol:
            deduped.append(r)
    return deduped
