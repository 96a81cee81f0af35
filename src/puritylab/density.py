"""Density matrices with block structure, partial-trace maps and purities.

An N x N state with N = n*m is viewed as an n x n grid of m x m blocks
a_ij.  Two reduction maps act on it:

* block trace (over the inner index): the n x n matrix with entries Tr a_ij;
* block sum (over the outer index): the m x m matrix sum_k a_kk.

Row r of the full matrix corresponds to the index pair (i, k) with
r = i*m + k, i indexing blocks and k indexing positions inside a block.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .defaults import VALIDATION_TOL
from .errors import (
    BadRank,
    NotHermitian,
    NotPositive,
    ShapeMismatch,
    SpecError,
    TraceNotOne,
)
from .linalg import (
    as_square_matrix,
    hermitian_eig,
    hermiticity_defect,
)
from .prng import complex_normals, stream_uniforms


@dataclass(frozen=True)
class BlockShape:
    """n blocks per side, each block m x m; the full dimension is n*m."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ShapeMismatch(f"block shape must be positive, got ({self.n}, {self.m})")

    @property
    def dim(self) -> int:
        return self.n * self.m


@dataclass(frozen=True)
class DensityMatrix:
    """Validated state: Hermitian, unit trace and PSD within ``tol``."""

    mat: np.ndarray
    shape: BlockShape
    tol: float


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


def make_density(mat, shape: BlockShape, tol: float = VALIDATION_TOL) -> DensityMatrix:
    """Validate and wrap a matrix as a density matrix.

    The input is stored as given; nothing is renormalized or repaired.  Use
    :func:`normalize` explicitly when a sweep needs trace repair.
    """
    arr = as_square_matrix(mat).copy()
    if arr.shape[0] != shape.dim:
        raise ShapeMismatch(
            f"matrix dimension {arr.shape[0]} does not match block shape "
            f"({shape.n}, {shape.m}) with n*m = {shape.dim}"
        )
    defect = hermiticity_defect(arr)
    if defect > tol:
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds tol {tol:.3e}")
    trace_dev = abs(complex(arr.trace()) - 1.0)
    if trace_dev > tol:
        raise TraceNotOne(f"trace deviates from 1 by {trace_dev:.3e} (tol {tol:.3e})")
    smallest = float(hermitian_eig(arr, tol=tol).values[0])
    if smallest < -tol:
        raise NotPositive(
            f"smallest eigenvalue {smallest:.3e} below -{tol:.3e}"
        )
    arr.flags.writeable = False
    return DensityMatrix(mat=arr, shape=shape, tol=tol)


def _blocks(mat: np.ndarray, shape: BlockShape) -> np.ndarray:
    return mat.reshape(shape.n, shape.m, shape.n, shape.m)


def block_trace_map(mat: np.ndarray, shape: BlockShape) -> np.ndarray:
    """n x n matrix of block traces (trace over the inner index)."""
    return np.einsum("ikjk->ij", _blocks(mat, shape))


def block_sum_map(mat: np.ndarray, shape: BlockShape) -> np.ndarray:
    """m x m sum of the diagonal blocks (trace over the outer index)."""
    return np.einsum("kakb->ab", _blocks(mat, shape))


def partial_transpose_inner(mat: np.ndarray, shape: BlockShape) -> np.ndarray:
    """Transpose within each block (partial transpose over the inner index)."""
    return _blocks(mat, shape).transpose(0, 3, 2, 1).reshape(shape.dim, shape.dim)


def partial_trace_over_2(rho: DensityMatrix) -> DensityMatrix:
    """Reduced n x n state: entries Tr a_ij.  Trace 1 is preserved exactly
    up to arithmetic rounding."""
    reduced = block_trace_map(rho.mat, rho.shape)
    return make_density(reduced, BlockShape(rho.shape.n, 1), tol=rho.tol)


def partial_trace_over_1(rho: DensityMatrix) -> DensityMatrix:
    """Reduced m x m state: the sum of the diagonal blocks."""
    reduced = block_sum_map(rho.mat, rho.shape)
    return make_density(reduced, BlockShape(rho.shape.m, 1), tol=rho.tol)


def purity(rho: DensityMatrix) -> float:
    """Tr rho^2, in [1/N, 1]."""
    return float(np.einsum("ij,ji->", rho.mat, rho.mat).real)


def purity_set(rho: DensityMatrix) -> PuritySet:
    """All four purity scalars of one state, plus delta = mu_tilde - mu12."""
    from .inequalities import mu_tilde as _mu_tilde

    mu12 = purity(rho)
    mu1 = purity(partial_trace_over_2(rho))
    mu2 = purity(partial_trace_over_1(rho))
    mt = _mu_tilde(rho)
    return PuritySet(mu12=mu12, mu1=mu1, mu2=mu2, mu_tilde=mt, delta=mt - mu12)


def normalize(mat) -> np.ndarray:
    """Divide by the trace; explicit repair path for sweep tooling."""
    arr = as_square_matrix(mat)
    tr = complex(arr.trace())
    if abs(tr) == 0.0:
        raise TraceNotOne("cannot normalize a traceless matrix")
    return arr / tr


# Recipes drawn per numpy pass.  Larger blocks raise peak memory: blocks of
# 1024 added 3.9 MB to the peak of a 500-state 3x3 audit, blocks of 64 about
# 0.2-0.4 MB.
SAMPLE_BLOCK = 64


def _draw_count(shape: BlockShape, kind: str, size: int) -> int:
    """Uniforms one recipe consumes; checks the recipe before any draw."""
    if kind == "ginibre":
        if not 1 <= size <= shape.dim:
            raise BadRank(f"rank must lie in [1, {shape.dim}], got {size}")
        return 2 * shape.dim * size
    if kind == "separable":
        if size < 1:
            raise BadRank(f"terms must be >= 1, got {size}")
        return size + 2 * size * (shape.n + shape.m)
    raise SpecError(f"unknown sample kind {kind!r}")


def _ginibre_mats(shape: BlockShape, rank: int, uniforms: np.ndarray) -> list:
    """G G^dagger / Tr(G G^dagger) per row of uniforms; G is N x rank, row-major."""
    g = complex_normals(uniforms).reshape(len(uniforms), shape.dim, rank)
    raw = g @ g.conj().transpose(0, 2, 1)
    return [mat / mat.trace().real for mat in raw]


def _separable_mats(shape: BlockShape, terms: int, uniforms: np.ndarray) -> list:
    """Weighted sums of kron(u u^dagger, v v^dagger) per row of uniforms.

    Each vector is divided by its own ``np.linalg.norm`` and the terms are
    added in order, so the bytes match a term-by-term build.
    """
    n, m = shape.n, shape.m
    weights = -np.log(uniforms[:, :terms])
    weights /= weights.sum(axis=1, keepdims=True)
    z = complex_normals(uniforms[:, terms:]).reshape(len(uniforms), terms, n + m)
    norms = np.array([[np.linalg.norm(x[:n]), np.linalg.norm(x[n:])]
                      for row in z for x in row]).reshape(len(uniforms), terms, 2)
    u = z[..., :n] / norms[..., 0:1]
    v = z[..., n:] / norms[..., 1:2]
    pu = u[..., :, None] * u.conj()[..., None, :]
    pv = v[..., :, None] * v.conj()[..., None, :]
    prods = (pu[..., :, None, :, None] * pv[..., None, :, None, :]).reshape(
        len(uniforms), terms, shape.dim, shape.dim)
    acc = np.zeros((len(uniforms), shape.dim, shape.dim), dtype=np.complex128)
    for t in range(terms):
        acc += weights[:, t, None, None] * prods[:, t]
    return list(acc)


def sample_block(shape: BlockShape, recipes: list) -> list[DensityMatrix]:
    """Validated states of a list of ``(kind, size, seed)`` recipes, in order.

    Recipes with the same kind and size share one uniform draw and one array
    build; every state is then validated on its own by :func:`make_density`.
    """
    groups: dict[tuple[str, int], list[int]] = {}
    for i, (kind, size, _) in enumerate(recipes):
        groups.setdefault((kind, size), []).append(i)
    counts = {key: _draw_count(shape, *key) for key in groups}
    mats = [None] * len(recipes)
    for (kind, size), members in groups.items():
        count = counts[kind, size]
        uniforms = stream_uniforms([recipes[i][2] for i in members],
                                   [count] * len(members))
        build = _ginibre_mats if kind == "ginibre" else _separable_mats
        for i, mat in zip(members, build(shape, size, uniforms.reshape(len(members), count))):
            mats[i] = mat
    return [make_density(mat, shape) for mat in mats]


def sample_states(shape: BlockShape, recipes) -> Iterator[DensityMatrix]:
    """Yield the state of each ``(kind, size, seed)`` recipe, in order.

    ``kind`` is "ginibre" (``size`` = rank, the Hilbert-Schmidt measure at
    full rank) or "separable" (``size`` = number of pure product terms).
    Recipes are read lazily and drawn :data:`SAMPLE_BLOCK` at a time; a
    state's bytes depend on its recipe alone, not on its block.
    """
    pending = iter(recipes)
    while block := list(islice(pending, SAMPLE_BLOCK)):
        yield from sample_block(shape, block)


def random_density(dim_n: int, dim_m: int, rank: int, seed: int) -> DensityMatrix:
    """Ginibre-induced random state rho = G G^dagger / Tr(G G^dagger).

    At full rank this samples the Hilbert-Schmidt measure.  Identical seeds
    produce bit-identical matrices, also inside a :func:`sample_states` job.
    """
    return sample_block(BlockShape(dim_n, dim_m), [("ginibre", rank, seed)])[0]


def random_separable(dim_n: int, dim_m: int, terms: int, seed: int) -> DensityMatrix:
    """Convex mixture of random pure product states; PPT by construction.

    Weights are exponential draws normalized to 1 (flat Dirichlet); each term
    is kron(u u^dagger, v v^dagger) with u, v normalized complex-normal
    vectors of length n and m, matching the block layout of the package.
    """
    return sample_block(BlockShape(dim_n, dim_m), [("separable", terms, seed)])[0]
