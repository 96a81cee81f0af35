"""Parameter sweeps over the state families and the conjecture scan.

Sweeps evaluate one row per grid point.  Rows whose state constructor fails
(Gisin beyond x_max, out-of-domain parameters, non-normalized amplitudes)
are kept with ``valid=False`` and the closed-form columns still filled,
since the closed forms are defined over the full parameter range; the
generic-pipeline-only columns are blanked there.

The conjecture scan alternates Ginibre-induced states (ranks cycling
1..N) with separable control mixtures, flags every entangled sample whose
delta fails to be positive, and is reproducible sample by sample: sample k
uses the child seed ``child_seed(seed, k)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .defaults import ENTANGLE_TOL, GISIN_NORM_SLACK, REPORT_TOL, SWEEP_POINTS
from .density import BlockShape, DensityMatrix, purity_set, sample_block, sample_states
from .errors import DomainError, NotPositive, SpecError, TraceNotOne
from .inequalities import delta as delta_of
from .prng import child_seed
from .states import (
    GisinParams,
    _gisin_closed,
    _require_ppt_shape,
    beta_params,
    gisin_state,
    gisin_x_max,
    random_x_params,
    werner_params,
    x_state,
    xstate_entangled,
)

FAMILIES = ("werner", "gisin", "beta", "xrandom")


@dataclass(frozen=True)
class SweepSpec:
    """Equally spaced grid over one family parameter, endpoints included.

    For the xrandom family the grid values are rounded to integers and used
    as seeds for random X-state draws.
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
        if not self.start < self.stop:
            raise SpecError(f"need start < stop, got [{self.start}, {self.stop}]")
        if self.family == "gisin":
            if self.a is None or self.b is None:
                raise SpecError("gisin sweeps need amplitudes a and b")
            defect = abs(abs(self.a) ** 2 + abs(self.b) ** 2 - 1.0)
            if defect > GISIN_NORM_SLACK:
                raise SpecError(
                    f"|a|^2+|b|^2 deviates from 1 by {defect:.4f}, beyond slack"
                )

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


def _row_from_state(param: float, rho: DensityMatrix, entangled: bool) -> SweepRow:
    ps = purity_set(rho)
    return SweepRow(
        param=param, valid=True,
        mu12=ps.mu12, mu1=ps.mu1, mu2=ps.mu2,
        mu_tilde=ps.mu_tilde, delta=ps.delta,
        lhs5=ps.mu1 + ps.mu2 - 1.0,
        entangled=entangled,
    )


def _werner_row(p: float) -> SweepRow:
    try:
        params = werner_params(p)
    except (DomainError, NotPositive):
        mu12 = (3.0 * p * p + 1.0) / 4.0
        mt = 3.0 * p * p
        return SweepRow(param=p, valid=False, mu12=mu12, mu1=0.5, mu2=0.5,
                        mu_tilde=mt, delta=mt - mu12, lhs5=0.0,
                        entangled=p > 1.0 / 3.0)
    return _row_from_state(p, x_state(params), xstate_entangled(params))


def _beta_row(beta: float) -> SweepRow:
    try:
        params = beta_params(beta)
    except (DomainError, NotPositive):
        mu12 = 2.0 * beta * beta - 2.0 * beta + 1.0
        mt = 8.0 * beta * beta - 8.0 * beta + 3.0
        return SweepRow(param=beta, valid=False, mu12=mu12, mu1=0.5, mu2=0.5,
                        mu_tilde=mt, delta=mt - mu12, lhs5=0.0,
                        entangled=abs(beta - 0.5) > ENTANGLE_TOL)
    return _row_from_state(beta, x_state(params), xstate_entangled(params))


def _gisin_row(x: float, a: complex, b: complex) -> SweepRow:
    x_max = gisin_x_max(a, b)
    entangled = x > x_max + ENTANGLE_TOL
    try:
        rho = gisin_state(GisinParams(x=x, a=a, b=b))
    except (DomainError, NotPositive, TraceNotOne):
        lhs5, mt, mu12 = _gisin_closed(x, abs(a) ** 2, abs(b) ** 2)
        return SweepRow(param=x, valid=False, mu12=mu12, mu1=None, mu2=None,
                        mu_tilde=mt, delta=mt - mu12, lhs5=lhs5,
                        entangled=entangled)
    return _row_from_state(x, rho, entangled)


def _xrandom_row(value: float) -> SweepRow:
    seed = int(round(value))
    params = random_x_params(seed)
    return _row_from_state(float(seed), x_state(params), xstate_entangled(params))


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    if spec.family == "werner":
        return [_werner_row(p) for p in spec.grid()]
    if spec.family == "beta":
        return [_beta_row(b) for b in spec.grid()]
    if spec.family == "gisin":
        return [_gisin_row(x, spec.a, spec.b) for x in spec.grid()]
    return [_xrandom_row(v) for v in spec.grid()]


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
    return sample_block(shape, [(kind, size, seed)])[0]


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
    function of (shape, samples, seed, tol).
    """
    from .states import ppt_entangled

    if samples < 1:
        raise SpecError(f"samples must be >= 1, got {samples}")
    _require_ppt_shape(shape)
    counterexamples: list[ScanSample] = []
    entangled_deltas: list[float] = []
    separable_deltas: list[float] = []
    recipes = (_sample_recipe(shape, index, seed) for index in range(samples))
    for index, rho in enumerate(sample_states(shape, recipes)):
        d = delta_of(rho)
        entangled = ppt_entangled(rho)
        (entangled_deltas if entangled else separable_deltas).append(d)
        if entangled and d <= tol:
            kind, size, sample_seed = _sample_recipe(shape, index, seed)
            counterexamples.append(ScanSample(
                index=index, seed=sample_seed, kind=kind, size=size,
                delta=d, entangled=True,
            ))
    return ScanReport(
        shape=(shape.n, shape.m), samples=samples, seed=seed, tol=tol,
        counterexamples=tuple(counterexamples),
        entangled_stats=_subset_stats(entangled_deltas),
        separable_stats=_subset_stats(separable_deltas),
    )
