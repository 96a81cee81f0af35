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
never of entries.  Every function here evaluates a whole block of states
and returns one array entry per state: ``audit_reports`` gives both sides
of all five, from one set of purities and square-root traces per state,
``purity_set`` the purities and ``delta`` their difference alone.  One
state is a one-state block, its values read with ``.item()``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .defaults import REPORT_TOL, ROOT_GRID, ROOT_TOL
from .density import (
    DensityBlock,
    block_sum_map,
    block_trace_map,
    purities,
    reduced_blocks,
    require_int,
)
from .errors import BadInterval, DomainError, SpecError
from .linalg import spectra


@dataclass(frozen=True)
class PuritySet:
    """The four purities of each state and their difference, one array
    entry per state (floats for ``x_state_purities`` of scalar entries).

    ``delta`` is ``mu_tilde - mu12``, the quantity whose sign the
    entanglement scans track.
    """

    mu12: np.ndarray
    mu1: np.ndarray
    mu2: np.ndarray
    mu_tilde: np.ndarray
    delta: np.ndarray


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one inequality on every state of a block, one array entry
    per state.

    Every inequality expects lhs <= rhs, so ``margin`` is rhs - lhs and a
    nonnegative margin means "as expected"; ``satisfied`` is the verdict
    margin >= -tol.  Reports are measurements: they are returned whether or
    not the inequality holds.
    """

    name: str
    lhs: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray
    satisfied: np.ndarray
    tol: float


def require_tol(tol: float) -> None:
    """Refuse a report tolerance that is not a finite number >= 0 (SpecError)."""
    if not (np.isfinite(tol) and tol >= 0.0):
        raise SpecError(f"tol must be a finite number >= 0, got {tol}")


def _report(name: str, lhs: np.ndarray, rhs: np.ndarray, tol: float) -> InequalityReport:
    margin = rhs - lhs
    return InequalityReport(name=name, lhs=lhs, rhs=rhs, margin=margin,
                            satisfied=margin >= -tol, tol=tol)


def _sqrt_trace_stack(mats: np.ndarray) -> np.ndarray:
    """Tr A^(1/2) of every PSD Hermitian matrix A of a stack: the row sums of
    the square roots of its eigenvalues, negatives read as 0; no matrix square
    root is built.  Nothing is refused: for a validated N x N rho = H + S (S
    anti-Hermitian, entries below VALIDATION_TOL) the Hermitian part of rho^2
    is H^2 + S^2 >= -(N VALIDATION_TOL)^2, so a negative eigenvalue of its
    reductions is rounding noise."""
    return np.sqrt(np.maximum(spectra(mats), 0.0)).sum(axis=1)


def _minkowski_terms(block: DensityBlock) -> tuple[np.ndarray, ...]:
    """s6 = Tr[(block_trace(rho^2))^(1/2)], s8 = Tr[(block_sum(rho^2))^(1/2)]
    (the rhs of eq6 and eq8), s8^2 + s6^2 (the rhs of eq9) and mu_tilde =
    s8^2 + s6^2 - 1 of every state of a block."""
    squared = block.mats @ block.mats
    s6 = _sqrt_trace_stack(block_trace_map(squared, block.shape))
    s8 = _sqrt_trace_stack(block_sum_map(squared, block.shape))
    squares = s8 * s8 + s6 * s6
    return s6, s8, squares, squares - 1.0


def delta(block: DensityBlock) -> np.ndarray:
    """delta = mu_tilde - mu12 of every state of a block, whose positivity
    the entanglement conjecture asserts on entangled states."""
    return _minkowski_terms(block)[3] - purities(block.mats)


def _audit_terms(block: DensityBlock) -> tuple[np.ndarray, ...]:
    """mu12, mu1, mu2 (from the reductions), then the ``_minkowski_terms``
    of every state of a block."""
    reduced_n, reduced_m = reduced_blocks(block)
    return (purities(block.mats), purities(reduced_n), purities(reduced_m),
            *_minkowski_terms(block))


def purity_set(block: DensityBlock) -> PuritySet:
    """mu12, mu1, mu2, mu_tilde and delta of every state of a block."""
    mu12, mu1, mu2, *_, mt = _audit_terms(block)
    return PuritySet(mu12, mu1, mu2, mt, mt - mu12)


def audit_reports(block: DensityBlock, tol: float = REPORT_TOL) -> list[InequalityReport]:
    """Reports of eq5, eq6, eq8, eq9 and eq10, in that order, with one entry
    per state of a block, each judged satisfied where its margin is >= -tol;
    ``tol`` must be a finite number >= 0."""
    require_tol(tol)
    mu12, mu1, mu2, s6, s8, squares, mt = _audit_terms(block)
    return [
        _report("eq5", mu1 + mu2 - 1.0, mu12, tol),
        _report("eq6", np.sqrt(mu2), s6, tol),
        _report("eq8", np.sqrt(mu1), s8, tol),
        _report("eq9", mu1 + mu2, squares, tol),
        _report("eq10", mu1 + mu2 - 1.0, mt, tol),
    ]


def find_delta_roots(f, lo: float, hi: float, grid: int = ROOT_GRID,
                     tol: float = ROOT_TOL) -> list[float]:
    """Roots of a continuous function by grid scan plus bisection.

    ``f`` is elementwise: it maps a 1-D float64 array to the array of its
    values at each point, and every value must be finite (DomainError names
    the first point where one is not).  ``f`` is called once on the grid
    ``lo + (hi - lo) * i / (grid - 1)``, then once per bisection step on the
    midpoints of all brackets still open, so each root has the bits a
    one-point-at-a-time search gives.

    Grid points where |f| <= tol are reported once; each sign change between
    adjacent grid points is refined by bisection until the bracket is
    narrower than tol, or a midpoint value is exactly 0.  Multiple roots
    inside one grid cell are not separated, and a zero of even order (where
    f touches zero without changing sign) is reported only if |f| <= tol at
    some grid point: for Gisin with |a| = |b|, delta = (3x-1)^2/2 touches
    zero at x = 1/3, yet the search on [0.001, 0.999] returns [].

    ``lo < hi`` and an integer ``grid >= 2`` (BadInterval) and a finite
    ``tol > 0`` (SpecError) are checked before ``f`` is called.
    """
    if not lo < hi:
        raise BadInterval(f"need lo < hi, got [{lo}, {hi}]")
    grid = require_int(grid, "grid", BadInterval)
    if grid < 2:
        raise BadInterval(f"need at least 2 grid points, got {grid}")
    # tol = 0 would bisect a root between adjacent floats forever, and NaN
    # would skip bisection and report unrefined cell midpoints
    if not (np.isfinite(tol) and tol > 0.0):
        raise SpecError(f"tol must be a finite number > 0, got {tol}")
    xs = lo + (hi - lo) * np.arange(grid) / (grid - 1)
    fs = _finite_values(f, xs)
    near = np.abs(fs) <= tol
    neg = fs < 0.0
    cells = np.flatnonzero(~(near[:-1] | near[1:]) & (neg[:-1] != neg[1:]))
    # Bisection keeps the sign of f at a, so a_neg is fixed per bracket.
    a, b, a_neg = xs[cells], xs[cells + 1], neg[cells]
    live = np.flatnonzero(b - a > tol)
    while live.size:
        mid = 0.5 * (a[live] + b[live])
        fm = _finite_values(f, mid)
        hit = fm == 0.0
        to_b = hit | (a_neg[live] != (fm < 0.0))
        to_a = hit | ~to_b
        b[live[to_b]] = mid[to_b]
        a[live[to_a]] = mid[to_a]
        live = live[~hit & (b[live] - a[live] > tol)]

    roots = sorted(xs[near].tolist() + (0.5 * (a + b)).tolist())
    deduped: list[float] = []
    for r in roots:
        if not deduped or r - deduped[-1] > tol:
            deduped.append(r)
    return deduped


def _finite_values(f, xs: np.ndarray) -> np.ndarray:
    """``f(xs)`` as a float64 array of the shape of ``xs``; DomainError
    names the first point whose value is not finite."""
    fs = np.asarray(f(xs), dtype=np.float64)
    if fs.shape != xs.shape:
        raise SpecError(f"f must be elementwise: {xs.shape[0]} points gave "
                        f"values of shape {fs.shape}")
    bad = ~np.isfinite(fs)
    if bad.any():
        i = int(bad.argmax())
        raise DomainError(f"f is not finite at x = {float(xs[i])!r}: {float(fs[i])}")
    return fs
