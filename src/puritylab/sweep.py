"""Parameter sweeps over the state families and the conjecture scan.

Every sweep row follows one rule.  The family's X-state entries at the grid
value give ``entangled`` (``states.xstate_entangled``), valid or not.  The
family's checked constructor (``werner_params``, ``beta_params``,
``gisin_state_params``) decides ``valid``.  A valid row's matrix is
validated and evaluated a block at a time, with the same functions as
one-state evaluation, so it equals ``purity_set`` of its state.  An invalid
row keeps the closed forms: ``x_state_purities`` of the entries fills mu12,
mu1, mu2, mu_tilde, delta and lhs5 = mu1 + mu2 - 1 for Werner and beta; for
Gisin, ``_gisin_closed`` of the raw amplitudes fills mu12, mu_tilde, delta
and lhs5, and mu1 and mu2 are blank.  xrandom draws are valid by
construction.

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

from .defaults import GISIN_NORM_SLACK, REPORT_TOL, SWEEP_POINTS, XSTATE_PARAM_TOL
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
    _gisin_closed,
    _require_ppt_shape,
    beta_entries,
    beta_params,
    gisin_entries,
    gisin_state_params,
    ppt_entangled_block,
    random_x_params,
    werner_entries,
    werner_params,
    x_state_matrix,
    x_state_purities,
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
            defect = abs(abs(self.a) * abs(self.a) + abs(self.b) * abs(self.b) - 1.0)
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
    """A grid point that passed its checked constructor, with its X-state
    matrix, not yet validated; :func:`run_sweep` evaluates it."""

    param: float
    mat: np.ndarray
    entangled: bool


def _evaluate(rows: list[SweepRow | _BuiltRow]) -> list[SweepRow]:
    """Replace each built row by its valid SweepRow, validating and
    evaluating the built matrices :data:`SAMPLE_BLOCK` at a time.

    A block that fails validation raises instead of marking one row invalid,
    so validity is decided by the checked constructors, and they pass only
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


# Each family's unchecked entries map and its checked constructor, both
# called with the grid value (and, for gisin, the amplitudes a and b).
_FAMILY_MAPS = {
    "werner": (werner_entries, werner_params),
    "beta": (beta_entries, beta_params),
    "gisin": (gisin_entries, gisin_state_params),
}


def _xrandom_seed(value: float) -> int:
    return int(round(value))


def _row(spec: SweepSpec, v: float) -> SweepRow | _BuiltRow:
    """The row of grid value ``v``: ``entangled`` from the family's entries,
    ``valid`` from its checked constructor, closed forms where invalid.

    Werner and beta entries that no longer sum to 1 within XSTATE_PARAM_TOL
    (|param| near 1e16, where 1 + p rounds to p) would make the closed forms
    drop the 1, and are refused like closed forms that overflow.
    """
    if spec.family == "xrandom":
        seed = _xrandom_seed(v)
        params = random_x_params(seed)
        return _BuiltRow(float(seed), x_state_matrix(params), xstate_entangled(params))
    entries_of, checked = _FAMILY_MAPS[spec.family]
    args = (v, spec.a, spec.b) if spec.family == "gisin" else (v,)
    try:
        params = checked(*args)
    except (DomainError, NotPositive, TraceNotOne):
        entries = entries_of(*args)
    else:
        # the checked parameters are the entries, so nothing is mapped twice
        return _BuiltRow(v, x_state_matrix(params), xstate_entangled(params))
    entangled = xstate_entangled(entries)
    if spec.family == "gisin":
        lhs5, mt, mu12 = _gisin_closed(v, abs(spec.a) ** 2, abs(spec.b) ** 2)
        mu1 = mu2 = None
    else:
        ps = x_state_purities(entries)
        mu12, mu1, mu2, mt = ps.mu12, ps.mu1, ps.mu2, ps.mu_tilde
        lhs5 = mu1 + mu2 - 1.0
    delta = mt - mu12
    # delta = mu_tilde - mu12 is finite only where both are
    if not all(map(math.isfinite, (delta, lhs5))):
        raise SpecError(f"{spec.family} closed forms are not finite at param {v!r}")
    if mu1 is not None and abs(sum(entries[:4]) - 1.0) > XSTATE_PARAM_TOL:
        raise SpecError(f"{spec.family} entries at param {v!r} sum to "
                        f"{sum(entries[:4])!r}, not 1: the closed forms would drop the 1")
    return SweepRow(param=v, valid=False, mu12=mu12, mu1=mu1, mu2=mu2,
                    mu_tilde=mt, delta=delta, lhs5=lhs5, entangled=entangled)


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    # far outside (0, 1) the Gisin closed forms overflow (inf - inf is nan);
    # _row refuses such rows, so numpy need not warn about them
    with np.errstate(over="ignore", invalid="ignore"):
        rows = [_row(spec, v) for v in spec.grid()]
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
