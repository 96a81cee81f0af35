"""Purity inequalities and the two-parameter Minkowski-type trace inequality.

The five named checks (eq5, eq6, eq8, eq9, eq10) evaluate, for a state rho
with block structure,

    eq5 :  mu1 + mu2 - 1  <=  mu12
    eq6 :  sqrt(mu2)      <=  Tr[(block_trace(rho^2))^(1/2)]
    eq8 :  sqrt(mu1)      <=  Tr[(block_sum(rho^2))^(1/2)]
    eq9 :  mu1 + mu2      <=  (rhs of eq8)^2 + (rhs of eq6)^2
    eq10:  mu1 + mu2 - 1  <=  mu_tilde

with mu_tilde = (rhs of eq8)^2 + (rhs of eq6)^2 - 1.  The inner objects are
matrix square roots computed spectrally, never element-wise.

The general check evaluates

    lhs = (Tr[(block_sum(rho^q))^(p/q)])^(1/p)
    rhs = (Tr[(block_trace(rho^p))^(q/p)])^(1/q)

with lhs <= rhs expected for 1 <= q <= p and the reverse otherwise; eq6 is
the (p, q) = (2, 1) case and eq8 the (p, q) = (1, 2) case.  Parameter pairs
with min(p, q) < 1 fall outside both regimes exercised here and are flagged
as untested in the report; the check still measures both sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .defaults import REPORT_TOL, ROOT_GRID, ROOT_TOL
from .density import (
    DensityMatrix,
    block_sum_map,
    block_trace_map,
    partial_trace_over_1,
    partial_trace_over_2,
    purity,
)
from .errors import BadInterval, DomainError
from .linalg import psd_matrix_power

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
        return 1.0 <= self.q <= self.p

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


def _sqrt_trace(mat: np.ndarray) -> float:
    """Trace of the spectral square root of a PSD Hermitian matrix."""
    return float(psd_matrix_power(mat, 0.5).trace().real)


def eq6_rhs(rho: DensityMatrix) -> float:
    """Scalar trace of (block_trace(rho^2))^(1/2)."""
    squared = rho.mat @ rho.mat
    return _sqrt_trace(block_trace_map(squared, rho.shape))


def eq8_rhs(rho: DensityMatrix) -> float:
    """Scalar trace of (block_sum(rho^2))^(1/2)."""
    squared = rho.mat @ rho.mat
    return _sqrt_trace(block_sum_map(squared, rho.shape))


def mu_tilde(rho: DensityMatrix) -> float:
    squared = rho.mat @ rho.mat
    s6 = _sqrt_trace(block_trace_map(squared, rho.shape))
    s8 = _sqrt_trace(block_sum_map(squared, rho.shape))
    return s8 * s8 + s6 * s6 - 1.0


def delta(rho: DensityMatrix) -> float:
    """mu_tilde - mu12; positivity of this difference is what the
    entanglement conjecture asserts on entangled states."""
    return mu_tilde(rho) - purity(rho)


def check_eq5(rho: DensityMatrix, tol: float = REPORT_TOL) -> InequalityReport:
    mu1 = purity(partial_trace_over_2(rho))
    mu2 = purity(partial_trace_over_1(rho))
    return _report("eq5", mu1 + mu2 - 1.0, purity(rho), LEQ_EXPECTED, tol)


def check_eq6(rho: DensityMatrix, tol: float = REPORT_TOL) -> InequalityReport:
    mu2 = purity(partial_trace_over_1(rho))
    return _report("eq6", float(np.sqrt(mu2)), eq6_rhs(rho), LEQ_EXPECTED, tol)


def check_eq8(rho: DensityMatrix, tol: float = REPORT_TOL) -> InequalityReport:
    mu1 = purity(partial_trace_over_2(rho))
    return _report("eq8", float(np.sqrt(mu1)), eq8_rhs(rho), LEQ_EXPECTED, tol)


def check_eq9(rho: DensityMatrix, tol: float = REPORT_TOL) -> InequalityReport:
    mu1 = purity(partial_trace_over_2(rho))
    mu2 = purity(partial_trace_over_1(rho))
    s6 = eq6_rhs(rho)
    s8 = eq8_rhs(rho)
    return _report("eq9", mu1 + mu2, s8 * s8 + s6 * s6, LEQ_EXPECTED, tol)


def check_eq10(rho: DensityMatrix, tol: float = REPORT_TOL) -> InequalityReport:
    mu1 = purity(partial_trace_over_2(rho))
    mu2 = purity(partial_trace_over_1(rho))
    return _report("eq10", mu1 + mu2 - 1.0, mu_tilde(rho), LEQ_EXPECTED, tol)


def audit_reports(rho: DensityMatrix, tol: float = REPORT_TOL) -> list[InequalityReport]:
    """All five checks with the spectral work shared across them.

    Returns the same reports as the individual check_* functions, in the
    order eq5, eq6, eq8, eq9, eq10.
    """
    mu12 = purity(rho)
    mu1 = purity(partial_trace_over_2(rho))
    mu2 = purity(partial_trace_over_1(rho))
    squared = rho.mat @ rho.mat
    s6 = _sqrt_trace(block_trace_map(squared, rho.shape))
    s8 = _sqrt_trace(block_sum_map(squared, rho.shape))
    mt = s8 * s8 + s6 * s6 - 1.0
    return [
        _report("eq5", mu1 + mu2 - 1.0, mu12, LEQ_EXPECTED, tol),
        _report("eq6", float(np.sqrt(mu2)), s6, LEQ_EXPECTED, tol),
        _report("eq8", float(np.sqrt(mu1)), s8, LEQ_EXPECTED, tol),
        _report("eq9", mu1 + mu2, s8 * s8 + s6 * s6, LEQ_EXPECTED, tol),
        _report("eq10", mu1 + mu2 - 1.0, mt, LEQ_EXPECTED, tol),
    ]


def minkowski_check(rho: DensityMatrix, params: MinkowskiParams,
                    tol: float = REPORT_TOL) -> InequalityReport:
    """Measure both sides of the two-parameter trace inequality.

    This is a measurement tool, not an assertion: the report is returned
    regardless of satisfaction, with the expected direction taken from
    ``params`` and pairs outside the exercised regimes flagged untested.
    """
    p, q = params.p, params.q
    rho_q = psd_matrix_power(rho.mat, q)
    rho_p = psd_matrix_power(rho.mat, p)
    inner_lhs = psd_matrix_power(block_sum_map(rho_q, rho.shape), p / q)
    inner_rhs = psd_matrix_power(block_trace_map(rho_p, rho.shape), q / p)
    lhs = float(inner_lhs.trace().real) ** (1.0 / p)
    rhs = float(inner_rhs.trace().real) ** (1.0 / q)
    direction = LEQ_EXPECTED if params.expects_leq else GEQ_EXPECTED
    return _report("minkowski", lhs, rhs, direction, tol, untested=params.untested)


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
