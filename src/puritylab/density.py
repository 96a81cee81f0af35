"""Density matrices with block structure, partial-trace maps and purities.

Validated states have one type, :class:`DensityBlock`, made only by
:func:`validate_block` of one matrix or a stack; a single state is a block of
one.  The reductions and partial transposes below are plain arrays, not states.

An N x N state with N = n*m is viewed as an n x n grid of m x m blocks
a_ij.  Two reduction maps act on it:

* block trace (over the inner index): the n x n matrix with entries Tr a_ij;
* block sum (over the outer index): the m x m matrix sum_k a_kk.

Row r of the full matrix corresponds to the index pair (i, k) with
r = i*m + k, i indexing blocks and k indexing positions inside a block.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from dataclasses import dataclass
from functools import reduce
from itertools import islice
from typing import NamedTuple

import numpy as np

from .defaults import VALIDATION_TOL
from .errors import (
    BadRank,
    DimMismatch,
    DomainError,
    NotHermitian,
    NotPositive,
    ShapeMismatch,
    SpecError,
    TraceNotOne,
)
from .linalg import spectra
from .prng import complex_normals, scalar_logs, stream_uniforms


def require_int(value, name: str, error: type[Exception]) -> int:
    """``value`` as a Python int if it is an integer, a Python or a numpy
    one (``operator.index``); ``error`` otherwise: a float size would reach
    ``np.arange`` or a reshape and act as some other size."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


def require_seed(value, error: type[Exception] = SpecError, written: str | None = None) -> int:
    """``value`` as a Python int in [0, 2^64), else ``error`` naming it, or
    the text it was ``written`` as: streams read a seed modulo 2^64, so any
    other integer would run another seed's streams under its own label."""
    try:
        seed = operator.index(value)
    except TypeError:
        seed = -1
    if not 0 <= seed < 2**64:
        shown = value if written is None else written
        raise error(f"seed must be an integer in [0, 2^64), got {shown!r}")
    return seed


@dataclass(frozen=True)
class BlockShape:
    """n blocks per side, each block m x m; the full dimension is n*m."""

    n: int
    m: int

    def __post_init__(self):
        object.__setattr__(self, "n", require_int(self.n, "block shape n", ShapeMismatch))
        object.__setattr__(self, "m", require_int(self.m, "block shape m", ShapeMismatch))
        if self.n < 1 or self.m < 1:
            raise ShapeMismatch(f"block shape must be positive, got ({self.n}, {self.m})")

    @property
    def dim(self) -> int:
        return self.n * self.m


@dataclass(frozen=True)
class DensityBlock:
    """Validated states of one block shape, stacked as a read-only
    (B, N, N) array: Hermitian, unit trace and PSD within ``VALIDATION_TOL``.
    Only :func:`validate_block` makes them, and a single state, given as one
    (N, N) matrix, is a block of one."""

    mats: np.ndarray
    shape: BlockShape

    def __len__(self) -> int:
        return len(self.mats)

    @property
    def mat(self) -> np.ndarray:
        """The read-only matrix of a one-state block; DimMismatch otherwise."""
        if len(self.mats) != 1:
            raise DimMismatch(f"mat is the matrix of a one-state block, not of {len(self)} states")
        return self.mats[0]


def hermiticity_defect(mat: np.ndarray) -> np.ndarray:
    """Largest absolute entry of mat - mat^dagger, one per matrix of a stack;
    non-finite if any entry is NaN or Inf (inf - inf is NaN)."""
    # the difference overwrites the adjoint: one temporary stack
    adjoint = np.conjugate(mat.swapaxes(-1, -2), order="C")
    return np.abs(np.subtract(mat, adjoint, out=adjoint)).max(axis=(-2, -1))


def _require_positive(mats: np.ndarray) -> None:
    """Raise NotPositive for the first matrix of a stack whose smallest
    eigenvalue (from ``spectra``) lies below -VALIDATION_TOL."""
    for smallest in spectra(mats)[:, 0]:
        if smallest < -VALIDATION_TOL:
            raise NotPositive(f"smallest eigenvalue {smallest:.3e} below -{VALIDATION_TOL:.3e}")


class MatrixMeasures(NamedTuple):
    """What the clauses of ``MATRIX_RULE`` read: a (B, N, N) stack and its
    per-matrix measures, or one (N, N) matrix of it and its scalar ones."""

    mats: np.ndarray
    defect: np.ndarray  # hermiticity_defect, non-finite where an entry is
    trace_dev: np.ndarray  # |Tr m - 1|
    peak: np.ndarray  # largest entry modulus
    shape: BlockShape

    def hermitian_part_finite(self):
        """m + m^dagger has no Inf entry, per matrix."""
        return np.isfinite(self.mats + np.conj(self.mats.swapaxes(-1, -2))).all(axis=(-2, -1))


# The matrix rule, written once: clauses in the order ``validate_block`` checks
# them, each an elementwise test with the error class and text of a refusal.
MATRIX_RULE = (
    (lambda s: np.isfinite(s.defect), DomainError,
     lambda s: "matrix contains NaN or Inf entries"),
    (lambda s: s.mats.shape[-1] == s.shape.dim, ShapeMismatch,
     lambda s: f"matrix dimension {s.mats.shape[-1]} does not match block shape "
               f"({s.shape.n}, {s.shape.m}) with n*m = {s.shape.dim}"),
    (lambda s: s.defect <= VALIDATION_TOL, NotHermitian,
     lambda s: f"hermiticity defect {s.defect:.3e} exceeds tol {VALIDATION_TOL:.3e}"),
    (lambda s: s.trace_dev <= VALIDATION_TOL, TraceNotOne,
     lambda s: f"trace deviates from 1 by {s.trace_dev:.3e} (tol {VALIDATION_TOL:.3e})"),
    (MatrixMeasures.hermitian_part_finite, DomainError,
     lambda s: "Hermitian part (m + m^dagger)/2 overflows to Inf"),
    (lambda s: s.peak <= 1.0 + VALIDATION_TOL, NotPositive,
     lambda s: f"largest entry modulus {s.peak:.3e} exceeds 1 by {s.peak - 1.0:.3e} "
               f"(tol {VALIDATION_TOL:.3e}); no entry of a unit-trace PSD matrix does"),
)


def validate_block(mats, shape: BlockShape) -> DensityBlock:
    """Validate one (N, N) matrix, as a one-state stack, or a (B, N, N) stack
    as density matrices: the one check of a matrix, run once on each state
    entering the package (``states.x_state`` checks the X-state rules on its
    entries first, at ``XSTATE_PARAM_TOL``).

    Numbers numpy reads as a non-empty stack of square matrices
    (DimMismatch, also for ragged or non-numeric input), then the clauses of
    ``MATRIX_RULE`` in order, then no eigenvalue below -``VALIDATION_TOL``
    (NotPositive, from ``spectra``).  The clauses' conjunction runs on the
    whole stack before any eigensolve; it skips the Hermitian-part clause,
    which the entry bound implies.  Only the states before the first one it
    refuses are solved, so a stack raises the error its first bad state
    raises alone, and a matrix the error of its one-state stack.  It is
    copied and stored read-only; nothing is renormalized or repaired.
    """
    try:
        arr = np.array(mats, dtype=np.complex128)
    except (TypeError, ValueError) as err:
        raise DimMismatch(f"expected a stack of square matrices of numbers: {err}") from None
    arr = arr[None] if arr.ndim == 2 else arr  # one matrix: a one-state stack
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2] or min(arr.shape) < 1:
        raise DimMismatch(
            f"expected a non-empty stack of square matrices, got shape {arr.shape}")
    # NaN or Inf entries, and finite ones whose Hermitian part overflows, are
    # raised as errors below, without numpy's floating-point warnings.
    with np.errstate(all="ignore"):
        stack = MatrixMeasures(arr, hermiticity_defect(arr),
                               np.abs(arr.trace(axis1=1, axis2=2) - 1.0),
                               np.abs(arr).max(axis=(1, 2)), shape)
        passing = reduce(operator.and_, (holds(stack) for holds, _, _ in MATRIX_RULE
                                         if holds is not MatrixMeasures.hermitian_part_finite))
        first_bad = len(arr) if passing.all() else int(passing.argmin())
        _require_positive(arr[:first_bad])
        if first_bad < len(arr):
            state = MatrixMeasures(*(measure[first_bad] for measure in stack[:4]), shape)
            for holds, error, refusal in MATRIX_RULE:
                if not holds(state):
                    raise error(refusal(state))
    arr.flags.writeable = False
    return DensityBlock(mats=arr, shape=shape)


def _blocks(mat: np.ndarray, shape: BlockShape) -> np.ndarray:
    return mat.reshape(mat.shape[:-2] + (shape.n, shape.m, shape.n, shape.m))


def block_trace_map(mat: np.ndarray, shape: BlockShape) -> np.ndarray:
    """n x n matrix of block traces (trace over the inner index), per matrix
    of a stack."""
    return np.einsum("...ikjk->...ij", _blocks(mat, shape))


def block_sum_map(mat: np.ndarray, shape: BlockShape) -> np.ndarray:
    """m x m sum of the diagonal blocks (trace over the outer index), per
    matrix of a stack."""
    return np.einsum("...kakb->...ab", _blocks(mat, shape))


def partial_transpose_inner(mat: np.ndarray, shape: BlockShape) -> np.ndarray:
    """Transpose within each block (partial transpose over the inner index),
    per matrix of a stack."""
    return _blocks(mat, shape).swapaxes(-3, -1).reshape(mat.shape)


def reduced_blocks(block: DensityBlock) -> tuple[np.ndarray, np.ndarray]:
    """Both reductions of every state of a block, as read-only (B, n, n)
    and (B, m, m) arrays: entries Tr a_ij (the partial trace over the inner
    index) and the sum of the diagonal blocks (over the outer index).

    They are not validated states: each entry sums n or m entries of the
    state, so their Hermiticity defect can exceed ``VALIDATION_TOL`` where
    the state's does not.  Positivity is still read, as the benchmark's
    counts fix one solve per reduced matrix: since Tr_A rho >= d_A
    lambda_min(rho) I, Tr_A rho / d_A gets the rule of :func:`validate_block`,
    which the reductions of every validated state pass.
    """
    shape = block.shape
    over_inner, over_outer = block_trace_map(block.mats, shape), block_sum_map(block.mats, shape)
    for mats, traced_dim in ((over_inner, shape.m), (over_outer, shape.n)):
        _require_positive(mats / traced_dim)
        mats.flags.writeable = False
    return over_inner, over_outer


def purities(mats: np.ndarray) -> np.ndarray:
    """Tr rho^2 of every matrix of a stack."""
    return np.einsum("...ij,...ji->...", mats, mats).real


# States drawn, validated and evaluated per numpy pass.  Every block pays the
# same set-up (one array build per recipe kind and size, the validation
# pre-checks, four or five ``spectra`` calls), so larger blocks are faster: a
# 1000-sample 2x2 scan ran about 19% more samples per CPU second at 128 than
# at 64, and 34% more at 256.  They also raise peak memory: the peak resident
# set of a 500-state 3x3 audit was 0.45 MB above that at 64 with blocks of
# 128, 1.15 MB with 256 and 2.5 MB with 1024.
SAMPLE_BLOCK = 256


def _draw_count(shape: BlockShape, kind: str, size: int) -> int:
    """Uniforms one recipe consumes; checks the recipe before any draw."""
    if kind == "ginibre":
        size = require_int(size, "rank", BadRank)
        if not 1 <= size <= shape.dim:
            raise BadRank(f"rank must lie in [1, {shape.dim}], got {size}")
        return 2 * shape.dim * size
    if kind == "separable":
        size = require_int(size, "terms", BadRank)
        if size < 1:
            raise BadRank(f"terms must be >= 1, got {size}")
        return size + 2 * size * (shape.n + shape.m)
    raise SpecError(f"unknown sample kind {kind!r}")


def _ginibre_mats(shape: BlockShape, rank: int, g: np.ndarray) -> np.ndarray:
    """G G^dagger / Tr(G G^dagger) per row of complex normals; G is N x rank,
    row-major."""
    g = g.reshape(len(g), shape.dim, rank)
    raw = g @ g.conj().transpose(0, 2, 1)
    return raw / raw.trace(axis1=1, axis2=2).real[:, None, None]


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each complex vector along the last axis, kept as an
    axis of length 1: sqrt(re.re + im.im) by stacked matmul, which gives the
    bits ``np.linalg.norm`` gives one vector (``norm(axis=-1)`` rounds
    differently)."""
    re, im = x.real[..., None, :], x.imag[..., None, :]
    return np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0]


def _separable_mats(shape: BlockShape, terms: int, weights: np.ndarray,
                    z: np.ndarray) -> np.ndarray:
    """Weighted sums of kron(u u^dagger, v v^dagger) per row: the ``terms``
    weights, normalized in place; each row of complex normals ``z`` holds u then
    v of each term in turn.

    Each vector is divided by its own norm (see ``_norms``) and the terms are
    added in order, so the bytes match a term-by-term build.
    """
    n, m = shape.n, shape.m
    weights /= weights.sum(axis=1, keepdims=True)
    z = z.reshape(len(z), terms, n + m)
    u = z[..., :n] / _norms(z[..., :n])
    v = z[..., n:] / _norms(z[..., n:])
    pu = u[..., :, None] * u.conj()[..., None, :]
    pv = v[..., :, None] * v.conj()[..., None, :]
    prods = (pu[..., :, None, :, None] * pv[..., None, :, None, :]).reshape(
        len(z), terms, shape.dim, shape.dim)
    acc = np.zeros((len(z), shape.dim, shape.dim), dtype=np.complex128)
    for t in range(terms):
        acc += weights[:, t, None, None] * prods[:, t]
    return acc


def _build_inputs(kind: str, size: int, rows: np.ndarray) -> tuple:
    """What a group's build reads after its shape and size, from its rows of
    uniforms: the complex normals of a Ginibre group; for a separable one,
    the weights -ln u of its ``terms`` head uniforms (``scalar_logs``, as
    the scalar draw takes them) and the complex normals of the rest."""
    if kind == "ginibre":
        return (complex_normals(rows),)
    return -scalar_logs(rows[:, :size]), complex_normals(rows[:, size:])


def sample_block(shape: BlockShape, recipes: list) -> DensityBlock:
    """Validated block of the states of a list of ``(kind, size, seed)``
    recipes, in order.

    Recipes with the same kind and size form a group, and a block is sampled
    in three phases: one draw of the uniforms of the whole block, ordered by
    group; then what every group's build reads, each logarithm included
    (the complex normals, and a separable group's weights); only then one
    array build per group.  The order is for speed; the bytes are the same
    in any order.  Right after a complex matmul such as a Ginibre build's
    ``G @ G^dagger``, the scalar ``math.log`` pass of ``scalar_logs`` ran
    about 3.2 times slower per value (247 against 76 ns on an Intel Xeon
    with OpenBLAS 0.3.31), so no logarithm is taken once a build has
    started.  The block is then validated by :func:`validate_block`.
    """
    groups: dict[tuple[str, int], list[int]] = {}
    for i, (kind, size, _) in enumerate(recipes):
        groups.setdefault((kind, size), []).append(i)
    counts = {key: _draw_count(shape, *key) for key in groups}
    uniforms = stream_uniforms(
        [recipes[i][2] for members in groups.values() for i in members],
        [counts[key] for key, members in groups.items() for _ in members])
    inputs = {}
    start = 0
    for key, members in groups.items():
        stop = start + counts[key] * len(members)
        inputs[key] = _build_inputs(*key, uniforms[start:stop].reshape(len(members), counts[key]))
        start = stop
    del uniforms  # the builds read only the normals and the weights
    mats = np.empty((len(recipes), shape.dim, shape.dim), dtype=np.complex128)
    for (kind, size), members in groups.items():
        build = _ginibre_mats if kind == "ginibre" else _separable_mats
        mats[members] = build(shape, size, *inputs.pop((kind, size)))
    return validate_block(mats, shape)


def in_blocks(items) -> Iterator[list]:
    """Consecutive lists of :data:`SAMPLE_BLOCK` items, read lazily (the last
    one may be shorter); the block size is read at each call."""
    pending = iter(items)
    while block := list(islice(pending, SAMPLE_BLOCK)):
        yield block


def sample_blocks(shape: BlockShape, recipes) -> Iterator[DensityBlock]:
    """Yield the states of ``(kind, size, seed)`` recipes in order, as blocks
    of :data:`SAMPLE_BLOCK` states (the last one may be shorter).

    ``kind`` is "ginibre" (``size`` = rank, the Hilbert-Schmidt measure at
    full rank) or "separable" (a flat-Dirichlet mixture of ``size`` pure
    product states, PPT by construction).
    Recipes are read lazily, one block at a time; a state's bytes depend on
    its recipe alone, not on its block.
    """
    for recipe_block in in_blocks(recipes):
        yield sample_block(shape, recipe_block)


def random_density(dim_n: int, dim_m: int, rank: int, seed: int) -> DensityBlock:
    """Ginibre-induced random state rho = G G^dagger / Tr(G G^dagger), one-state.

    At full rank this samples the Hilbert-Schmidt measure.  Identical seeds
    produce bit-identical matrices, also inside a :func:`sample_blocks` job;
    ``seed`` is an integer in [0, 2^64) (``require_seed``).
    """
    return sample_block(BlockShape(dim_n, dim_m), [("ginibre", rank, require_seed(seed))])

