"""Parameter sweeps over the state families and the conjecture scan.

Sweeps check the parameters of each grid point, build its X-state matrix,
and validate and evaluate the built matrices a block at a time, with the
same functions as one-state evaluation, so each row equals ``purity_set``
of its state.  Rows whose parameter checks fail (Gisin beyond x_max,
out-of-domain parameters, non-normalized amplitudes) are kept with
``valid=False`` and the closed-form columns still filled, since the closed
forms are defined over the full parameter range; the generic-pipeline-only
columns are blanked there.

The conjecture scan alternates Ginibre-induced states (ranks cycling
1..N) with separable control mixtures, flags every entangled sample whose
delta fails to be positive, and is reproducible sample by sample: sample k
uses the child seed ``child_seed(seed, k)``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .defaults import ENTANGLE_TOL, GISIN_NORM_SLACK, REPORT_TOL, SWEEP_POINTS
from .density import (
    BlockShape,
    DensityMatrix,
    in_blocks,
    sample_block,
    sample_blocks,
    validate_block,
)
from .errors import DomainError, NotPositive, SpecError, TraceNotOne
from .inequalities import delta_block, purity_sets, require_tol
from .prng import child_seed
from .states import (
    TWO_QUBIT_SHAPE,
    GisinParams,
    _gisin_closed,
    _require_ppt_shape,
    _separable_gisin_params,
    beta_params,
    gisin_x_max,
    ppt_entangled_block,
    random_x_params,
    werner_params,
    x_state_matrix,
    xstate_entangled,
)

FAMILIES = ("werner", "gisin", "beta", "xrandom")


@dataclass(frozen=True)
class SweepSpec:
    """Equally spaced grid over one family parameter, endpoints included.

    Bounds, their difference and amplitudes must be finite.  The amplitudes
    a and b are required by the gisin family and refused by the others.  For
    the xrandom family the grid values are rounded to integers and used as
    seeds for random X-state draws; a grid whose rounded values repeat a
    seed is refused.
    """

    family: str
    start: float
    stop: float
    count: int = SWEEP_POINTS
    a: complex | None = None
    b: complex | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise SpecError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.count < 2:
            raise SpecError(f"count must be >= 2, got {self.count}")
        bounds = {"start": self.start, "stop": self.stop, "stop - start": self.stop - self.start,
                  "a": self.a, "b": self.b}
        for name, value in bounds.items():
            if value is not None and not cmath.isfinite(value):
                raise SpecError(f"{name} must be finite, got {value}")
        if not self.start < self.stop:
            raise SpecError(f"need start < stop, got [{self.start}, {self.stop}]")
        if self.family == "gisin":
            if self.a is None or self.b is None:
                raise SpecError("gisin sweeps need amplitudes a and b")
            defect = abs(abs(self.a) ** 2 + abs(self.b) ** 2 - 1.0)
            if not defect <= GISIN_NORM_SLACK:
                raise SpecError(
                    f"|a|^2+|b|^2 deviates from 1 by {defect:.4f}, beyond slack"
                )
        elif self.a is not None or self.b is not None:
            raise SpecError(f"amplitudes a and b are for gisin sweeps, not {self.family}")
        if self.family == "xrandom" and len(set(map(_xrandom_seed, self.grid()))) < self.count:
            raise SpecError(
                f"xrandom grid [{self.start}, {self.stop}] with count {self.count} "
                "rounds to repeated seeds; use integer bounds with a step of at least 1")

    def grid(self) -> list[float]:
        step = (self.stop - self.start) / (self.count - 1)
        return [self.start + i * step for i in range(self.count)]


@dataclass(frozen=True)
class SweepRow:
    param: float
    valid: bool
    mu12: float | None
    mu1: float | None
    mu2: float | None
    mu_tilde: float | None
    delta: float | None
    lhs5: float | None
    entangled: bool


@dataclass(frozen=True)
class _BuiltRow:
    """A grid point whose parameters passed their checks, with its X-state
    matrix, not yet validated; :func:`run_sweep` evaluates it."""

    param: float
    mat: np.ndarray
    entangled: bool


def _evaluate(rows: list[SweepRow | _BuiltRow]) -> list[SweepRow]:
    """Replace each built row by its valid SweepRow, validating and
    evaluating the built matrices :data:`SAMPLE_BLOCK` at a time.

    A block that fails validation raises instead of marking one row invalid,
    so validity is decided by the parameter checks, and they pass only
    matrices that validation accepts.  Each is Hermitian by construction,
    its diagonal sums to 1 within XSTATE_PARAM_TOL (below VALIDATION_TOL),
    and each of its two 2x2 blocks is PSD in exact arithmetic, with entries
    of modulus at most 1: diagonal, rank one (both beta blocks, the Gisin
    inner block x v v^dagger with v = (a, b)), Werner's outer block with
    eigenvalues (1+3p)/4 and (1-p)/4 on [-1/3, 1], or an xrandom block with
    |c| <= sqrt(d d').  So their computed smallest eigenvalues are off by
    rounding, far inside -VALIDATION_TOL.
    """
    built = [i for i, row in enumerate(rows) if isinstance(row, _BuiltRow)]
    for chunk in in_blocks(built):
        block = validate_block([rows[i].mat for i in chunk], TWO_QUBIT_SHAPE)
        for i, ps in zip(chunk, purity_sets(block)):
            rows[i] = SweepRow(
                param=rows[i].param, valid=True,
                mu12=ps.mu12, mu1=ps.mu1, mu2=ps.mu2,
                mu_tilde=ps.mu_tilde, delta=ps.delta,
                lhs5=ps.mu1 + ps.mu2 - 1.0,
                entangled=rows[i].entangled,
            )
    return rows


def _werner_row(p: float) -> SweepRow | _BuiltRow:
    try:
        params = werner_params(p)
    except (DomainError, NotPositive):
        mu12 = (3.0 * p * p + 1.0) / 4.0
        mt = 3.0 * p * p
        return SweepRow(param=p, valid=False, mu12=mu12, mu1=0.5, mu2=0.5,
                        mu_tilde=mt, delta=mt - mu12, lhs5=0.0,
                        entangled=p > 1.0 / 3.0)
    return _BuiltRow(p, x_state_matrix(params), xstate_entangled(params))


def _beta_row(beta: float) -> SweepRow | _BuiltRow:
    try:
        params = beta_params(beta)
    except (DomainError, NotPositive):
        mu12 = 2.0 * beta * beta - 2.0 * beta + 1.0
        mt = 8.0 * beta * beta - 8.0 * beta + 3.0
        return SweepRow(param=beta, valid=False, mu12=mu12, mu1=0.5, mu2=0.5,
                        mu_tilde=mt, delta=mt - mu12, lhs5=0.0,
                        entangled=abs(beta - 0.5) > ENTANGLE_TOL)
    return _BuiltRow(beta, x_state_matrix(params), xstate_entangled(params))


def _gisin_row(x: float, a: complex, b: complex) -> SweepRow | _BuiltRow:
    x_max = gisin_x_max(a, b)
    entangled = x > x_max + ENTANGLE_TOL
    try:
        params = _separable_gisin_params(GisinParams(x=x, a=a, b=b))
    except (DomainError, NotPositive, TraceNotOne):
        # far outside (0, 1) the closed forms overflow (inf - inf is nan);
        # run_sweep refuses such rows, so numpy need not warn about them
        with np.errstate(over="ignore", invalid="ignore"):
            lhs5, mt, mu12 = _gisin_closed(x, abs(a) ** 2, abs(b) ** 2)
            delta = mt - mu12
        return SweepRow(param=x, valid=False, mu12=mu12, mu1=None, mu2=None,
                        mu_tilde=mt, delta=delta, lhs5=lhs5,
                        entangled=entangled)
    return _BuiltRow(x, x_state_matrix(params), entangled)


def _xrandom_seed(value: float) -> int:
    return int(round(value))


def _xrandom_row(value: float) -> _BuiltRow:
    seed = _xrandom_seed(value)
    params = random_x_params(seed)
    return _BuiltRow(float(seed), x_state_matrix(params), xstate_entangled(params))


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    if spec.family == "werner":
        rows = [_werner_row(p) for p in spec.grid()]
    elif spec.family == "beta":
        rows = [_beta_row(b) for b in spec.grid()]
    elif spec.family == "gisin":
        rows = [_gisin_row(x, spec.a, spec.b) for x in spec.grid()]
    else:
        rows = [_xrandom_row(v) for v in spec.grid()]
    for row in rows:
        # delta = mu_tilde - mu12 is finite only where both are
        if isinstance(row, SweepRow) and not all(map(math.isfinite, (row.delta, row.lhs5))):
            raise SpecError(f"{spec.family} closed forms are not finite at param {row.param!r}")
    return _evaluate(rows)


@dataclass(frozen=True)
class ScanSample:
    """One scanned state, reproducible from (kind, size, seed) alone."""

    index: int
    seed: int
    kind: str  # "ginibre" or "separable"
    size: int  # Ginibre rank or number of product terms
    delta: float
    entangled: bool


@dataclass(frozen=True)
class SubsetStats:
    count: int
    min_delta: float | None
    max_delta: float | None
    mean_delta: float | None


@dataclass(frozen=True)
class ScanReport:
    shape: tuple[int, int]
    samples: int
    seed: int
    tol: float
    counterexamples: tuple[ScanSample, ...]
    entangled_stats: SubsetStats
    separable_stats: SubsetStats


def scan_state(shape: BlockShape, kind: str, size: int, seed: int) -> DensityMatrix:
    """Rebuild a scanned state from its record, for independent re-derivation;
    the bytes equal those of the same sample drawn inside its scan."""
    return sample_block(shape, [(kind, size, seed)]).state(0)


def _sample_recipe(shape: BlockShape, index: int, seed: int) -> tuple[str, int, int]:
    sample_seed = child_seed(seed, index)
    if index % 2 == 0:
        return "ginibre", (index // 2) % shape.dim + 1, sample_seed
    return "separable", (index // 2) % 4 + 1, sample_seed


def _subset_stats(deltas: list[float]) -> SubsetStats:
    if not deltas:
        return SubsetStats(count=0, min_delta=None, max_delta=None, mean_delta=None)
    return SubsetStats(
        count=len(deltas),
        min_delta=min(deltas),
        max_delta=max(deltas),
        mean_delta=math.fsum(deltas) / len(deltas),
    )


def scan_conjecture(shape: BlockShape, samples: int, seed: int,
                    tol: float = REPORT_TOL) -> ScanReport:
    """Test "entangled implies delta > 0" on a half Ginibre, half separable
    ensemble.

    A counterexample is a sample with entangled=True and delta <= tol;
    separable samples can never be counterexamples by definition (delta < 0
    on separable states is allowed and expected).  The report is a pure
    function of (shape, samples, seed, tol).  ``tol`` must be a finite
    number >= 0 and the shape one with a conclusive PPT verdict; both are
    checked before any draw.
    """
    if samples < 1:
        raise SpecError(f"samples must be >= 1, got {samples}")
    require_tol(tol)
    _require_ppt_shape(shape)
    counterexamples: list[ScanSample] = []
    entangled_deltas: list[float] = []
    separable_deltas: list[float] = []
    recipes = (_sample_recipe(shape, index, seed) for index in range(samples))
    index = 0
    for block in sample_blocks(shape, recipes):
        verdicts = ppt_entangled_block(block).tolist()
        for d, entangled in zip(delta_block(block).tolist(), verdicts):
            (entangled_deltas if entangled else separable_deltas).append(d)
            if entangled and d <= tol:
                kind, size, sample_seed = _sample_recipe(shape, index, seed)
                counterexamples.append(ScanSample(
                    index=index, seed=sample_seed, kind=kind, size=size,
                    delta=d, entangled=True,
                ))
            index += 1
    return ScanReport(
        shape=(shape.n, shape.m), samples=samples, seed=seed, tol=tol,
        counterexamples=tuple(counterexamples),
        entangled_stats=_subset_stats(entangled_deltas),
        separable_stats=_subset_stats(separable_deltas),
    )
