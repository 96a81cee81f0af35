"""The 4x4 X-state family, its one-parameter specializations and
entanglement verdicts.

An X-state has nonzero entries only on the diagonal and anti-diagonal:

        [ d1   0    0   c14 ]
        [ 0    d2  c23   0  ]
        [ 0   c23*  d3   0  ]
        [c14*  0    0   d4  ]

with d1..d4 nonnegative summing to 1, and it is positive iff
d2*d3 >= |c23|^2 and d1*d4 >= |c14|^2.  Under the 2x2 block convention of
this package the state is entangled iff one coherence beats the geometric
mean of the *other* pair of populations: |c14|^2 > d2*d3 or
|c23|^2 > d1*d4 (at most one of the two can hold).

Closed-form purities for the family:

    mu12 = sum d_i^2 + 2(|c14|^2 + |c23|^2)
    mu1  = sum d_i^2 + 2(d1 d2 + d3 d4)
    mu2  = sum d_i^2 + 2(d1 d3 + d2 d4)
    mu_tilde = 2 sqrt(d1^2+d2^2+K) sqrt(d3^2+d4^2+K)
             + 2 sqrt(d1^2+d3^2+K) sqrt(d2^2+d4^2+K)
             + 2 sum d_i^2 + 4K - 1,     K = |c14|^2 + |c23|^2
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .defaults import (
    ENTANGLE_TOL,
    GISIN_NORM_SLACK,
    REPORT_TOL,
    VALIDATION_TOL,
    XSTATE_PARAM_TOL,
)
from .density import (
    BlockShape,
    DensityBlock,
    DensityMatrix,
    make_density,
    partial_transpose_inner,
)
from .errors import DomainError, NotPositive, ShapeUnsupported, TraceNotOne
from .inequalities import InequalityReport, PuritySet, _report
from .linalg import spectra
from .prng import stream_uniforms

TWO_QUBIT_SHAPE = BlockShape(2, 2)


@dataclass(frozen=True)
class XStateParams:
    """Defining parameters of an X-state; validated on construction."""

    d1: float
    d2: float
    d3: float
    d4: float
    c14: complex = 0.0
    c23: complex = 0.0

    def __post_init__(self):
        diag = (self.d1, self.d2, self.d3, self.d4)
        if min(diag) < 0.0:
            raise NotPositive(f"diagonal entries must be nonnegative, got {diag}")
        total = sum(diag)
        if abs(total - 1.0) > XSTATE_PARAM_TOL:
            raise TraceNotOne(f"diagonal sums to {total!r}, off by {abs(total-1.0):.3e}")
        if self.d2 * self.d3 < abs(self.c23) ** 2 - XSTATE_PARAM_TOL:
            raise NotPositive(
                f"d2*d3 = {self.d2 * self.d3:.6e} < |c23|^2 = {abs(self.c23)**2:.6e}"
            )
        if self.d1 * self.d4 < abs(self.c14) ** 2 - XSTATE_PARAM_TOL:
            raise NotPositive(
                f"d1*d4 = {self.d1 * self.d4:.6e} < |c14|^2 = {abs(self.c14)**2:.6e}"
            )

    @property
    def diag(self) -> tuple[float, float, float, float]:
        return (self.d1, self.d2, self.d3, self.d4)


@dataclass(frozen=True)
class GisinParams:
    """Mixing weight x in (0, 1) and amplitudes a, b with |a|^2+|b|^2 = 1.

    ``GISIN_NORM_SLACK`` bounds the allowed normalization defect; the
    published {0.07, 0.99} parameter set misses normalization by 1.5% and is
    accepted as-is (raw values are kept, nothing is renormalized) so that
    x_max comes out of the raw product |a b|.
    """

    x: float
    a: complex
    b: complex

    def __post_init__(self):
        if not 0.0 < self.x < 1.0:
            raise DomainError(f"Gisin x must lie in (0, 1), got {self.x}")
        defect = abs(abs(self.a) ** 2 + abs(self.b) ** 2 - 1.0)
        if not defect <= GISIN_NORM_SLACK:
            raise DomainError(
                f"|a|^2+|b|^2 deviates from 1 by {defect:.4f}, "
                f"beyond slack {GISIN_NORM_SLACK}"
            )


def x_state_matrix(params: XStateParams) -> np.ndarray:
    mat = np.zeros((4, 4), dtype=np.complex128)
    mat[0, 0], mat[1, 1], mat[2, 2], mat[3, 3] = params.diag
    mat[0, 3] = params.c14
    mat[3, 0] = np.conj(params.c14)
    mat[1, 2] = params.c23
    mat[2, 1] = np.conj(params.c23)
    return mat


def x_state(params: XStateParams) -> DensityMatrix:
    return make_density(x_state_matrix(params), TWO_QUBIT_SHAPE)


def x_state_purities(params: XStateParams) -> PuritySet:
    """Closed-form purity set; matches the generic pipeline to ~1e-12."""
    d1, d2, d3, d4 = params.diag
    k = abs(params.c14) ** 2 + abs(params.c23) ** 2
    sq = d1 * d1 + d2 * d2 + d3 * d3 + d4 * d4
    mu12 = sq + 2.0 * k
    mu1 = sq + 2.0 * (d1 * d2 + d3 * d4)
    mu2 = sq + 2.0 * (d1 * d3 + d2 * d4)
    mt = (
        2.0 * math.sqrt(d1 * d1 + d2 * d2 + k) * math.sqrt(d3 * d3 + d4 * d4 + k)
        + 2.0 * math.sqrt(d1 * d1 + d3 * d3 + k) * math.sqrt(d2 * d2 + d4 * d4 + k)
        + 2.0 * sq + 4.0 * k - 1.0
    )
    return PuritySet(mu12=mu12, mu1=mu1, mu2=mu2, mu_tilde=mt, delta=mt - mu12)


def check_eq11(params: XStateParams) -> InequalityReport:
    """X-state specialization of the purity inequality (lhs as displayed:
    2 sum d_i^2 + 2(d1+d4)(d2+d3) - 1, rhs = mu12)."""
    d1, d2, d3, d4 = params.diag
    sq = d1 * d1 + d2 * d2 + d3 * d3 + d4 * d4
    lhs = 2.0 * sq + 2.0 * (d1 + d4) * (d2 + d3) - 1.0
    rhs = sq + 2.0 * (abs(params.c14) ** 2 + abs(params.c23) ** 2)
    return _report("eq11", lhs, rhs, REPORT_TOL)


def check_eq12(params: XStateParams) -> InequalityReport:
    """Same lhs as check_eq11 against the closed-form mu_tilde."""
    d1, d2, d3, d4 = params.diag
    sq = d1 * d1 + d2 * d2 + d3 * d3 + d4 * d4
    lhs = 2.0 * sq + 2.0 * (d1 + d4) * (d2 + d3) - 1.0
    return _report("eq12", lhs, x_state_purities(params).mu_tilde, REPORT_TOL)


def werner_params(p: float) -> XStateParams:
    p = float(p)
    if not -1.0 / 3.0 <= p <= 1.0:
        raise DomainError(f"Werner parameter must lie in [-1/3, 1], got {p}")
    outer = (1.0 + p) / 4.0
    inner = (1.0 - p) / 4.0
    return XStateParams(d1=outer, d2=inner, d3=inner, d4=outer, c14=p / 2.0)


def werner_state(p: float) -> DensityMatrix:
    return x_state(werner_params(p))


def gisin_x_max(a: complex, b: complex) -> float:
    """Separability threshold 1/(1 + 2|ab|), from the raw amplitudes."""
    return 1.0 / (1.0 + 2.0 * abs(a * b))


def gisin_params(g: GisinParams) -> XStateParams:
    """X-state parameters of the Gisin state: populations (1-x)/2, x|a|^2,
    x|b|^2, (1-x)/2 and coherence c23 = x a b*.  Defined for every x, since
    these matrices are PSD on both sides of x_max; raw amplitudes off
    |a|^2 + |b|^2 = 1 raise TraceNotOne."""
    outer = (1.0 - g.x) / 2.0
    return XStateParams(d1=outer, d2=g.x * abs(g.a) ** 2, d3=g.x * abs(g.b) ** 2,
                        d4=outer, c23=complex(g.x * g.a * np.conj(g.b)))


def gisin_state(g: GisinParams) -> DensityMatrix:
    """The Gisin state for x <= x_max + VALIDATION_TOL.

    x_max = 1/(1+2|ab|) is the family's separability (Peres-Horodecki)
    threshold, not a validity threshold: the state is entangled for
    x > x_max, where this constructor raises DomainError although the
    matrices are PSD with unit trace; ``x_state(gisin_params(g))`` builds
    them.  Raw non-normalized amplitudes surface as TraceNotOne.
    """
    return x_state(_separable_gisin_params(g))


def _separable_gisin_params(g: GisinParams) -> XStateParams:
    """``gisin_params(g)``, after the x_max check of :func:`gisin_state`."""
    x_max = gisin_x_max(g.a, g.b)
    if g.x > x_max + VALIDATION_TOL:
        raise DomainError(
            f"x = {g.x} exceeds the separability threshold x_max = {x_max:.6f}")
    return gisin_params(g)


def gisin_closed_forms(g: GisinParams) -> tuple[float, float, float]:
    """(lhs5, mu_tilde, mu12) from the family's closed forms, defined for any x."""
    return _gisin_closed(g.x, abs(g.a) ** 2, abs(g.b) ** 2)


def _gisin_closed(x: float, a2: float, b2: float) -> tuple[float, float, float]:
    lhs5 = x * x * (2.0 * (a2 * a2 + b2 * b2) - 1.0)
    mt = x * (3.0 * x - 2.0) + math.sqrt(x * x * (4.0 * a2 + 1.0) - 2.0 * x + 1.0) \
        * math.sqrt(x * x * (4.0 * b2 + 1.0) - 2.0 * x + 1.0)
    mu12 = 1.5 * x * x - x + 0.5
    return lhs5, mt, mu12


def beta_params(beta: float) -> XStateParams:
    beta = float(beta)
    if not 0.0 <= beta <= 1.0:
        raise DomainError(f"beta must lie in [0, 1], got {beta}")
    outer = beta / 2.0
    inner = (1.0 - beta) / 2.0
    return XStateParams(d1=outer, d2=inner, d3=inner, d4=outer,
                        c14=outer, c23=inner)


def beta_state(beta: float) -> DensityMatrix:
    return x_state(beta_params(beta))


def xstate_entangled(params: XStateParams) -> bool:
    """Exact entanglement verdict for X-states; boundary cases (within
    ``ENTANGLE_TOL``) count as separable."""
    return (
        abs(params.c14) ** 2 > params.d2 * params.d3 + ENTANGLE_TOL
        or abs(params.c23) ** 2 > params.d1 * params.d4 + ENTANGLE_TOL
    )


_PPT_CONCLUSIVE = {(2, 2), (2, 3), (3, 2)}


def _require_ppt_shape(shape: BlockShape) -> None:
    """Raise ShapeUnsupported unless the PPT verdict is conclusive at ``shape``."""
    pair = (shape.n, shape.m)
    if pair not in _PPT_CONCLUSIVE:
        raise ShapeUnsupported(
            f"PPT verdict is conclusive only for {sorted(_PPT_CONCLUSIVE)}, "
            f"got {pair}"
        )


def ppt_entangled_block(block: DensityBlock) -> np.ndarray:
    """Peres-Horodecki test on every state of a block: a partial transpose
    with an eigenvalue below -ENTANGLE_TOL means entangled.

    The partial transposes are taken on the whole stack, and their smallest
    eigenvalues come from ``spectra``.  Conclusive (necessary and
    sufficient) only for 2x2 and 2x3 systems; any other block shape raises
    ShapeUnsupported since a PSD partial transpose would prove nothing there.
    """
    _require_ppt_shape(block.shape)
    transposed = partial_transpose_inner(block.mats, block.shape)
    return spectra(transposed)[:, 0] < -ENTANGLE_TOL


def ppt_entangled(rho: DensityMatrix) -> bool:
    """Peres-Horodecki verdict of one state: the one-state
    :func:`ppt_entangled_block`."""
    return bool(ppt_entangled_block(DensityBlock.of(rho))[0])


def random_x_params(seed: int) -> XStateParams:
    """Random valid X-state parameters from the packaged stream.

    The first 8 uniforms of stream ``seed`` give four exponential draws,
    normalized to 1 as the diagonal, then |c14| = u * sqrt(d1 d4) with u in
    (0, 1], a uniform phase of c14, and likewise |c23| and its phase.
    """
    uniforms = stream_uniforms([seed], [8]).tolist()
    raw = [-math.log(u) for u in uniforms[:4]]
    total = sum(raw)
    d1, d2, d3, d4 = (r / total for r in raw)
    mag14 = uniforms[4] * math.sqrt(d1 * d4)
    ph14 = 2.0 * math.pi * uniforms[5]
    mag23 = uniforms[6] * math.sqrt(d2 * d3)
    ph23 = 2.0 * math.pi * uniforms[7]
    return XStateParams(
        d1=d1, d2=d2, d3=d3, d4=d4,
        c14=mag14 * complex(math.cos(ph14), math.sin(ph14)),
        c23=mag23 * complex(math.cos(ph23), math.sin(ph23)),
    )
