"""Parameter sweeps over the state families and the conjecture scan.

A sweep is a few array passes over its whole grid, by one rule for every
family.  The family's entries map (for xrandom, ``random_x_entries`` of the
seeds) gives the X-state entries of every grid value, and ``entangled`` is
``states.xstate_entangled`` of them, valid or not.  ``valid`` is the mask of
``xstate_valid`` and, for Gisin, of ``gisin_domain``: the rows whose state
its checked constructor (``werner_state``, ``x_state`` of a seed's entries,
...) builds.  The valid rows' matrices form one (V, 4, 4) stack, validated
and evaluated a block at a time by ``purity_set``, so each row equals
``purity_set`` of its state alone.  The invalid rows keep the closed
forms, in one elementwise call: ``x_state_purities`` of the entries fills
mu12, mu1, mu2, mu_tilde, delta and lhs5 = mu1 + mu2 - 1 for Werner and
beta; for Gisin, ``_gisin_closed`` of the raw amplitudes fills mu12,
mu_tilde, delta and lhs5, and mu1 and mu2 are blank.  Each value has the
bits of its one-point evaluation.  The grid ends at ``stop`` itself.

The conjecture scan alternates Ginibre-induced states (ranks cycling
1..N) with separable control mixtures, flags every entangled sample whose
delta fails to be positive, and is reproducible sample by sample: sample k
uses the child seed ``child_seed(seed, k)``.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .defaults import REPORT_TOL, SWEEP_POINTS
from .density import (
    BlockShape,
    DensityBlock,
    in_blocks,
    require_int,
    sample_block,
    sample_blocks,
    validate_block,
)
from .errors import SpecError
from .inequalities import delta, purity_set, require_tol
from .prng import child_seed
from .states import (
    TWO_QUBIT_SHAPE,
    _diagonal_sum,
    _gisin_closed,
    _gisin_norm_defect,
    _require_ppt_shape,
    _sums_to_one,
    beta_entries,
    gisin_domain,
    gisin_entries,
    ppt_entangled,
    random_x_entries,
    werner_entries,
    x_state_matrix,
    x_state_purities,
    xstate_entangled,
    xstate_valid,
)

FAMILIES = ("werner", "gisin", "beta", "xrandom")


@dataclass(frozen=True)
class SweepSpec:
    """Equally spaced grid over one family parameter, endpoints included.

    Bounds, their difference and amplitudes must be finite.  The amplitudes
    a and b are required by the gisin family and refused by the others.  For
    the xrandom family the grid values are rounded to integers and used as
    seeds for random X-state draws; a grid whose rounded values repeat a
    seed modulo 2^64 is refused.
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
        object.__setattr__(self, "count", require_int(self.count, "count", SpecError))
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
            defect = _gisin_norm_defect(self.a, self.b)
            if defect is not None:
                raise SpecError(f"|a|^2+|b|^2 deviates from 1 by {defect:.4f}, beyond slack")
        elif self.a is not None or self.b is not None:
            raise SpecError(f"amplitudes a and b are for gisin sweeps, not {self.family}")
        seeds = self._seeds if self.family == "xrandom" else ()
        if len({seed % 2**64 for seed in seeds}) < len(seeds):
            raise SpecError(
                f"xrandom grid [{self.start}, {self.stop}] with count {self.count} "
                "rounds to repeated seeds (streams read a seed modulo 2^64); "
                "use integer bounds with a step of at least 1 and a span below 2^64")

    def grid(self) -> np.ndarray:
        """start + i * step, and stop itself as the last point, which
        start + (count - 1) * step can miss by an ulp."""
        step = (self.stop - self.start) / (self.count - 1)
        grid = float(self.start) + np.arange(self.count) * step
        grid[-1] = self.stop
        return grid

    @functools.cached_property
    def _seeds(self) -> tuple[int, ...]:
        """The xrandom seeds of the grid: its values rounded half to even,
        computed once per spec."""
        return tuple(int(round(v)) for v in self.grid().tolist())


class SweepTable(NamedTuple):
    """A sweep's columns, in CSV order, one array each; blank cells (mu1
    and mu2 of invalid Gisin rows) are NaN."""

    param: np.ndarray
    valid: np.ndarray
    mu12: np.ndarray
    mu1: np.ndarray
    mu2: np.ndarray
    mu_tilde: np.ndarray
    delta: np.ndarray
    lhs5: np.ndarray
    entangled: np.ndarray


def _entries_and_domain(spec: SweepSpec) -> tuple[np.ndarray, list[np.ndarray], np.ndarray | bool]:
    """The params of a grid, their six entry arrays and the domain mask:
    Gisin's separability cut, True for the others (``xstate_valid`` decides)."""
    if spec.family == "xrandom":
        seeds = spec._seeds
        return np.array(seeds, dtype=np.float64), list(random_x_entries(seeds)), True
    grid, domain = spec.grid(), True
    if spec.family == "gisin":
        entries, domain = gisin_entries(grid, spec.a, spec.b), gisin_domain(grid, spec.a, spec.b)
    else:
        entries = (werner_entries if spec.family == "werner" else beta_entries)(grid)
    return grid, [np.broadcast_to(e, grid.shape) for e in entries], domain


def _closed_forms(spec: SweepSpec, param: np.ndarray, entries: list[np.ndarray]):
    """mu12, mu1, mu2 (NaN for Gisin), mu_tilde, delta and lhs5 of the
    invalid rows.  SpecError for the first whose delta or lhs5 is not finite
    or, for Werner and beta, whose entries do not sum to 1 within
    XSTATE_PARAM_TOL (|param| near 1e16, where 1 + p rounds to p)."""
    if spec.family == "gisin":
        lhs5, mt, mu12 = _gisin_closed(param, abs(spec.a) ** 2, abs(spec.b) ** 2)
        mu1 = mu2 = np.full(len(param), np.nan)
        off = np.zeros(len(param), dtype=bool)
    else:
        ps = x_state_purities(entries)
        mu12, mu1, mu2, mt = ps.mu12, ps.mu1, ps.mu2, ps.mu_tilde
        lhs5 = mu1 + mu2 - 1.0
        off = ~_sums_to_one(entries)
    # the delta column, mu_tilde - mu12, is finite only where both are
    gap = mt - mu12
    not_finite = ~(np.isfinite(gap) & np.isfinite(lhs5))
    if (not_finite | off).any():
        i = int((not_finite | off).argmax())
        v = float(param[i])  # a Python float's repr
        if not_finite[i]:
            raise SpecError(f"{spec.family} closed forms are not finite at param {v!r}")
        raise SpecError(f"{spec.family} entries at param {v!r} sum to "
                        f"{float(_diagonal_sum(entries)[i])!r}, not 1: "
                        "the closed forms would drop the 1")
    return mu12, mu1, mu2, mt, gap, lhs5


def run_sweep(spec: SweepSpec) -> SweepTable:
    # far outside (0, 1) the closed forms overflow (inf - inf is nan);
    # _closed_forms refuses such rows, so numpy need not warn about them
    with np.errstate(over="ignore", invalid="ignore"):
        param, entries, domain = _entries_and_domain(spec)
        valid = domain & xstate_valid(entries)
        entangled = xstate_entangled(entries)
        columns = np.empty((6, len(param)))  # mu12, mu1, mu2, mu_tilde, delta, lhs5
        columns[:, ~valid] = _closed_forms(spec, param[~valid], [e[~valid] for e in entries])
    # Each valid row's matrix is Hermitian with unit diagonal sum, entries of modulus
    # <= 1 and 2x2 blocks that xstate_valid keeps >= -XSTATE_PARAM_TOL: none raises.
    at = np.flatnonzero(valid)
    mats = x_state_matrix([e[valid] for e in entries])
    for chunk in in_blocks(range(len(at))):
        ps = purity_set(validate_block(mats[chunk], TWO_QUBIT_SHAPE))
        columns[:, at[chunk]] = (ps.mu12, ps.mu1, ps.mu2, ps.mu_tilde, ps.delta,
                                 ps.mu1 + ps.mu2 - 1.0)
    return SweepTable(param, valid, *columns, entangled)


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


def scan_state(shape: BlockShape, kind: str, size: int, seed: int) -> DensityBlock:
    """Rebuild a scanned state from its record as a one-state block, for
    independent re-derivation; the bytes equal those of the same sample drawn
    inside its scan."""
    return sample_block(shape, [(kind, size, seed)])


def _sample_recipe(shape: BlockShape, index: int, seed: int) -> tuple[str, int, int]:
    sample_seed = child_seed(seed, index)
    if index % 2 == 0:
        return "ginibre", (index // 2) % shape.dim + 1, sample_seed
    return "separable", (index // 2) % 4 + 1, sample_seed


def _subset_stats(deltas: np.ndarray) -> SubsetStats:
    if not len(deltas):
        return SubsetStats(count=0, min_delta=None, max_delta=None, mean_delta=None)
    return SubsetStats(
        count=len(deltas),
        min_delta=float(np.min(deltas)),
        max_delta=float(np.max(deltas)),
        mean_delta=math.fsum(deltas) / len(deltas),
    )


def scan_conjecture(shape: BlockShape, samples: int, seed: int,
                    tol: float = REPORT_TOL) -> ScanReport:
    """Test "entangled implies delta > 0" on a half Ginibre, half separable
    ensemble.

    A counterexample is a sample with entangled=True and delta <= tol;
    separable samples can never be counterexamples by definition (delta < 0
    on separable states is allowed and expected).  The report is a pure
    function of (shape, samples, seed, tol).  ``samples`` must be an
    integer >= 1, ``tol`` a finite number >= 0 and the shape one with a
    conclusive PPT verdict; all are checked before any draw.
    """
    samples = require_int(samples, "samples", SpecError)
    if samples < 1:
        raise SpecError(f"samples must be >= 1, got {samples}")
    require_tol(tol)
    _require_ppt_shape(shape)
    deltas, entangled = [], []
    for block in sample_blocks(shape, (_sample_recipe(shape, index, seed)
                                       for index in range(samples))):
        entangled.append(ppt_entangled(block))
        deltas.append(delta(block))
    deltas, entangled = np.concatenate(deltas), np.concatenate(entangled)
    counterexamples = []
    for index in np.flatnonzero(entangled & (deltas <= tol)).tolist():
        kind, size, sample_seed = _sample_recipe(shape, index, seed)
        counterexamples.append(ScanSample(
            index=index, seed=sample_seed, kind=kind, size=size,
            delta=float(deltas[index]), entangled=True,
        ))
    return ScanReport(
        shape=(shape.n, shape.m), samples=samples, seed=seed, tol=tol,
        counterexamples=tuple(counterexamples),
        entangled_stats=_subset_stats(deltas[entangled]),
        separable_stats=_subset_stats(deltas[~entangled]),
    )
