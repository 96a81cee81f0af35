"""Purity inequalities and the two-parameter Minkowski-type trace inequality.

The purity inequality family, for a state rho with block structure, is

    eq5 :  mu1 + mu2 - 1  <=  mu12
    eq6 :  sqrt(mu2)      <=  Tr[(block_trace(rho^2))^(1/2)]
    eq8 :  sqrt(mu1)      <=  Tr[(block_sum(rho^2))^(1/2)]
    eq9 :  mu1 + mu2      <=  (rhs of eq8)^2 + (rhs of eq6)^2
    eq10:  mu1 + mu2 - 1  <=  mu_tilde

with mu_tilde = (rhs of eq8)^2 + (rhs of eq6)^2 - 1.  The traces of the
matrix square roots are sums of square roots of eigenvalues, never of
entries.  ``audit_block`` gives both sides of all five for a whole block of
states, from one set of purities and square-root traces per state;
``audit_reports`` turns its one-state block into reports.  The other
``*_block`` functions likewise evaluate a whole block of states, and the
one-state functions are one-state blocks of them.

The general check evaluates

    lhs = (Tr[(block_sum(rho^q))^(p/q)])^(1/p)
    rhs = (Tr[(block_trace(rho^p))^(q/p)])^(1/q)

with lhs <= rhs expected for q <= p and the reverse for q > p; at p = q both
sides equal (Tr rho^p)^(1/p).  eq6 is the (p, q) = (2, 1) case and eq8 the
(p, q) = (1, 2) case.  For min(p, q) >= 1 the direction is that of the
Minkowski-type trace inequality (Carlen & Lieb 2008, Lett. Math. Phys.
83:107).  For min(p, q) < 1 it is measured,
not proved: on full-rank Ginibre states of shapes 2x2, 2x3, 3x2 and 3x3,
lhs <= rhs held whenever q < p and lhs >= rhs whenever q > p.  Such pairs
are flagged untested in the report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .defaults import REPORT_TOL, ROOT_GRID, ROOT_TOL
from .density import (
    DensityBlock,
    DensityMatrix,
    PuritySet,
    block_sum_map,
    block_trace_map,
    purities,
    reduced_blocks,
)
from .errors import BadInterval, DomainError
from .linalg import clamp_spectra, hermitian_eig

LEQ_EXPECTED = "<="
GEQ_EXPECTED = ">="


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one inequality evaluation.

    ``margin`` is rhs - lhs when lhs <= rhs is expected and lhs - rhs
    otherwise, so a nonnegative margin always means "as expected".  Reports
    are measurements: they are returned whether or not the inequality holds.
    """

    name: str
    lhs: float
    rhs: float
    direction: str
    margin: float
    satisfied: bool
    tol: float
    untested_regime: bool = False


@dataclass(frozen=True)
class MinkowskiParams:
    p: float
    q: float

    def __post_init__(self):
        if not (self.p > 0.0 and self.q > 0.0):
            raise DomainError(f"p and q must be positive, got p={self.p}, q={self.q}")

    @property
    def expects_leq(self) -> bool:
        return self.q <= self.p

    @property
    def untested(self) -> bool:
        return min(self.p, self.q) < 1.0


def _report(name: str, lhs: float, rhs: float, direction: str, tol: float,
            untested: bool = False) -> InequalityReport:
    margin = rhs - lhs if direction == LEQ_EXPECTED else lhs - rhs
    return InequalityReport(
        name=name, lhs=lhs, rhs=rhs, direction=direction,
        margin=margin, satisfied=margin >= -tol, tol=tol,
        untested_regime=untested,
    )


def _power_traces(mats: np.ndarray, exponent: float) -> np.ndarray:
    """Tr A^exponent of every PSD Hermitian matrix A of a stack, for a
    positive exponent: the row sums of the powers of the clamped eigenvalues
    (see ``clamp_spectra``), with one ``hermitian_eig`` per matrix."""
    values = np.array([hermitian_eig(a).values for a in mats])
    return (clamp_spectra(values) ** exponent).sum(axis=1)


def _sqrt_traces(block: DensityBlock) -> tuple[np.ndarray, np.ndarray]:
    """Tr[(block_trace(rho^2))^(1/2)] and Tr[(block_sum(rho^2))^(1/2)] of
    every state of a block (the rhs of eq6 and of eq8)."""
    squared = block.mats @ block.mats
    return (_power_traces(block_trace_map(squared, block.shape), 0.5),
            _power_traces(block_sum_map(squared, block.shape), 0.5))


def mu_tilde_block(block: DensityBlock) -> np.ndarray:
    """mu_tilde of every state of a block."""
    s6, s8 = _sqrt_traces(block)
    return s8 * s8 + s6 * s6 - 1.0


def delta_block(block: DensityBlock) -> np.ndarray:
    """delta = mu_tilde - mu12 of every state of a block."""
    return mu_tilde_block(block) - purities(block.mats)


def mu_tilde(rho: DensityMatrix) -> float:
    return float(mu_tilde_block(DensityBlock.of(rho))[0])


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


def audit_block(block: DensityBlock) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """``(name, lhs, rhs)`` of eq5, eq6, eq8, eq9 and eq10 with one entry per
    state of a block.  Every one expects lhs <= rhs, so its margin is
    rhs - lhs."""
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
    return [_report(name, float(lhs[0]), float(rhs[0]), LEQ_EXPECTED, tol)
            for name, lhs, rhs in audit_block(DensityBlock.of(rho))]


def minkowski_check(rho: DensityMatrix, params: MinkowskiParams) -> InequalityReport:
    """Measure both sides of the two-parameter trace inequality.

    This is a measurement tool, not an assertion: the report is returned
    regardless of satisfaction, with the expected direction taken from
    ``params`` and pairs outside the proved regime flagged untested.  rho is
    decomposed once; rho^q and rho^p are built from its clamped spectrum, and
    the outer traces are read from the spectra of their reductions.
    """
    p, q = params.p, params.q
    eigen = hermitian_eig(rho.mat)
    values, vecs = clamp_spectra(eigen.values), eigen.vectors
    rho_q = (vecs * values ** q) @ vecs.conj().T
    rho_p = (vecs * values ** p) @ vecs.conj().T
    inner_lhs = _power_traces(block_sum_map(rho_q, rho.shape)[None], p / q)
    inner_rhs = _power_traces(block_trace_map(rho_p, rho.shape)[None], q / p)
    lhs = float(inner_lhs[0]) ** (1.0 / p)
    rhs = float(inner_rhs[0]) ** (1.0 / q)
    direction = LEQ_EXPECTED if params.expects_leq else GEQ_EXPECTED
    return _report("minkowski", lhs, rhs, direction, REPORT_TOL, untested=params.untested)


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
