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

Each family is defined once, as an unchecked map from its parameters to the
six entries (d1, d2, d3, d4, c14, c23): ``werner_entries``, ``beta_entries``,
``gisin_entries`` and ``random_x_entries`` (of seeds).  The six entries are
the one X-state parameter type, ``XSTATE_RULE`` the rule on them and
``xstate_valid`` its mask.  ``x_state``, the one checked constructor, raises
on the first clause they fail, then validates the matrix as a DensityBlock.
``werner_state`` and ``beta_state`` raise DomainError where ``xstate_valid``
of their entries is false; ``gisin_state`` checks 0 < x < 1, the
normalization slack and ``gisin_domain``.  Each then calls ``x_state``.
The maps, masks and verdicts are elementwise, each value with the bits of
its scalar evaluation: moduli are ``np.hypot(re, im)`` and squares products
(``x ** 2`` raises on overflow).  ``ppt_entangled``, the verdict on
matrices, evaluates a whole block of states, one entry per state.

Closed-form purities for the family:

    mu12 = sum d_i^2 + 2(|c14|^2 + |c23|^2)
    mu1  = (d1 + d2)^2 + (d3 + d4)^2
    mu2  = (d1 + d3)^2 + (d2 + d4)^2
    mu_tilde = 2 sqrt(d1^2+d2^2+K) sqrt(d3^2+d4^2+K)
             + 2 sqrt(d1^2+d3^2+K) sqrt(d2^2+d4^2+K)
             + 2 sum d_i^2 + 4K - 1,     K = |c14|^2 + |c23|^2
"""

from __future__ import annotations

import math
from functools import reduce
from operator import and_

import numpy as np

from .defaults import (
    ENTANGLE_TOL,
    GISIN_NORM_SLACK,
    VALIDATION_TOL,
    XSTATE_PARAM_TOL,
)
from .density import (
    BlockShape,
    DensityBlock,
    make_density,
    partial_transpose_inner,
)
from .errors import DomainError, NotPositive, ShapeUnsupported, TraceNotOne
from .inequalities import PuritySet
from .linalg import spectra
from .prng import scalar_logs, stream_uniforms

TWO_QUBIT_SHAPE = BlockShape(2, 2)

# d1, d2, d3, d4, c14, c23
XEntries = tuple[float, float, float, float, complex, complex]


def _abs2(c):
    """|c|^2 as Python's abs(c) * abs(c), elementwise: np.hypot(re, im) squared."""
    m = np.hypot(np.real(c), np.imag(c))
    return m * m


def _diagonal_sum(e: XEntries):
    return ((e[0] + e[1]) + e[2]) + e[3]


def _sums_to_one(e: XEntries):
    return abs(_diagonal_sum(e) - 1.0) <= XSTATE_PARAM_TOL


# The X-state rule, written once: clauses in the order ``x_state`` checks them,
# each an elementwise test with the error class and text of a refusal.  A block
# [[d, c], [c*, d']] gets the slack XSTATE_PARAM_TOL*T, T = d + d': where D = d*d' -
# |c|^2 < 0, its smallest eigenvalue 2D/(T + sqrt(T^2 - 4D)) is >= D/T >= -XSTATE_PARAM_TOL.
XSTATE_RULE = (
    (lambda e: reduce(and_, map(np.isfinite, e)), DomainError,
     lambda e: f"X-state parameters must be finite, got {e}"),
    (lambda e: reduce(and_, (d >= 0.0 for d in e[:4])), NotPositive,
     lambda e: f"diagonal entries must be nonnegative, got {e[:4]}"),
    (_sums_to_one, TraceNotOne,
     lambda e: f"diagonal sums to {_diagonal_sum(e)!r}, off by {abs(_diagonal_sum(e) - 1.0):.3e}"),
    (lambda e: e[1] * e[2] >= _abs2(e[5]) - XSTATE_PARAM_TOL * (e[1] + e[2]), NotPositive,
     lambda e: f"d2*d3 = {e[1] * e[2]:.6e} < |c23|^2 = {_abs2(e[5]):.6e}"),
    (lambda e: e[0] * e[3] >= _abs2(e[4]) - XSTATE_PARAM_TOL * (e[0] + e[3]), NotPositive,
     lambda e: f"d1*d4 = {e[0] * e[3]:.6e} < |c14|^2 = {_abs2(e[4]):.6e}"),
)


def xstate_valid(entries: XEntries):
    """Elementwise mask of the entries ``x_state`` accepts: the conjunction
    of ``XSTATE_RULE`` after its finite clause, which the others imply: NaN
    or Inf fails one of them, so numpy need not warn about overflow (a
    coherence of 1e200) or Inf - Inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        return reduce(and_, (holds(entries) for holds, _, _ in XSTATE_RULE[1:]))


def x_state_matrix(entries: XEntries) -> np.ndarray:
    """The 4x4 matrix of six X-state entries, or the (B, 4, 4) stack of six arrays."""
    d1, d2, d3, d4, c14, c23 = entries
    mat = np.zeros(np.shape(d1) + (4, 4), dtype=np.complex128)
    mat[..., 0, 0], mat[..., 1, 1], mat[..., 2, 2], mat[..., 3, 3] = d1, d2, d3, d4
    mat[..., 0, 3], mat[..., 3, 0] = c14, np.conj(c14)
    mat[..., 1, 2], mat[..., 2, 1] = c23, np.conj(c23)
    return mat


def x_state(entries: XEntries) -> DensityBlock:
    """The X-state of six scalar entries, a one-state ``DensityBlock``: the
    first clause of ``XSTATE_RULE`` they fail raises its error, then
    ``make_density`` validates the matrix."""
    entries = tuple(entries)
    with np.errstate(over="ignore", invalid="ignore"):
        for holds, error, refusal in XSTATE_RULE:
            if not holds(entries):
                raise error(refusal(entries))
    return make_density(x_state_matrix(entries), TWO_QUBIT_SHAPE)


def x_state_purities(entries: XEntries) -> PuritySet:
    """Closed-form purity set of six entries, valid or not.  On valid states
    it matches ``purity_set`` of their matrices within 32 eps; the largest
    difference measured, over the valid rows of the figure grids and of
    20,000 xrandom seeds, is 8 eps (1.8e-15), on mu_tilde and delta.  mu1
    and mu2 are sums of squared population pairs: the Werner and beta pairs
    sum to 1/2, so they stay within rounding of 0.5 at any parameter, where
    the expanded form sum d_i^2 + 2(d1 d2 + d3 d4) cancels to 0 at p = 1e10."""
    d1, d2, d3, d4, c14, c23 = entries
    k = _abs2(c14) + _abs2(c23)
    sq = d1 * d1 + d2 * d2 + d3 * d3 + d4 * d4
    mu12 = sq + 2.0 * k
    s12, s34, s13, s24 = d1 + d2, d3 + d4, d1 + d3, d2 + d4
    mu1 = s12 * s12 + s34 * s34
    mu2 = s13 * s13 + s24 * s24
    mt = (
        2.0 * np.sqrt(d1 * d1 + d2 * d2 + k) * np.sqrt(d3 * d3 + d4 * d4 + k)
        + 2.0 * np.sqrt(d1 * d1 + d3 * d3 + k) * np.sqrt(d2 * d2 + d4 * d4 + k)
        + 2.0 * sq + 4.0 * k - 1.0
    )
    return PuritySet(mu12=mu12, mu1=mu1, mu2=mu2, mu_tilde=mt, delta=mt - mu12)


def werner_entries(p: float) -> XEntries:
    """Entries of the Werner matrix at any p, unchecked."""
    outer = (1.0 + p) / 4.0
    inner = (1.0 - p) / 4.0
    return outer, inner, inner, outer, p / 2.0, 0.0


def werner_state(p: float) -> DensityBlock:
    p = float(p)
    entries = werner_entries(p)  # valid down to about p = -1/3 - 1.33e-12
    if not xstate_valid(entries):
        raise DomainError(f"Werner parameter must lie in [-1/3, 1], got {p}")
    return x_state(entries)


def gisin_x_max(a: complex, b: complex) -> float:
    """Separability threshold 1/(1 + 2|ab|), from the raw amplitudes."""
    return 1.0 / (1.0 + 2.0 * abs(a * b))


def _product(u, v):
    """u * v elementwise with the bits of Python's scalar product: a real
    factor reads as (r, +0.0), and each real product and sum rounds once,
    where numpy's complex loops may fuse them."""
    if not (np.iscomplexobj(u) or np.iscomplexobj(v)):
        return u * v
    ur, ui, vr, vi = np.real(u), np.imag(u), np.real(v), np.imag(v)
    out = np.empty(np.broadcast(ur, vr).shape, dtype=np.complex128)
    out.real, out.imag = ur * vr - ui * vi, ur * vi + ui * vr
    return out[()]


def gisin_entries(x: float, a: complex, b: complex) -> XEntries:
    """Entries of the Gisin matrix at any x and raw amplitudes, unchecked:
    populations (1-x)/2, x|a|^2, x|b|^2, (1-x)/2 and coherence
    c23 = (x a) b*, complex."""
    outer = (1.0 - x) / 2.0
    return (outer, x * (abs(a) * abs(a)), x * (abs(b) * abs(b)), outer,
            0.0, np.complex128(_product(_product(x, a), np.conj(b))))


def gisin_domain(x, a: complex, b: complex):
    """Elementwise mask of 0 < x < 1 and x <= x_max + VALIDATION_TOL."""
    return (0.0 < x) & (x < 1.0) & (x <= gisin_x_max(a, b) + VALIDATION_TOL)


def _gisin_norm_defect(a: complex, b: complex) -> float | None:
    """The defect | |a|^2 + |b|^2 - 1 | of raw amplitudes beyond
    ``GISIN_NORM_SLACK`` (NaN included), None within it.  The published
    pair {0.07, 0.99} misses by 1.5% and is kept as-is, not renormalized,
    so that x_max comes out of the raw product |a b|."""
    defect = abs(abs(a) * abs(a) + abs(b) * abs(b) - 1.0)
    return None if defect <= GISIN_NORM_SLACK else defect


def gisin_state(x: float, a: complex, b: complex) -> DensityBlock:
    """The Gisin state for x <= x_max + VALIDATION_TOL: 0 < x < 1, the
    normalization slack and that threshold are checked, then ``x_state`` of
    the entries, so raw amplitudes off |a|^2 + |b|^2 = 1 raise TraceNotOne.

    x_max = 1/(1+2|ab|) is the family's separability (Peres-Horodecki)
    threshold, not a validity threshold: past x_max + VALIDATION_TOL this
    constructor raises DomainError although the matrices are PSD with unit
    trace; ``x_state(gisin_entries(x, a, b))`` builds them.  In the band up
    to x_max + VALIDATION_TOL it builds states that are entangled once
    x - x_max exceeds about 2e-12 x_max / (1 - x_max).
    """
    if not 0.0 < x < 1.0:
        raise DomainError(f"Gisin x must lie in (0, 1), got {x}")
    defect = _gisin_norm_defect(a, b)
    if defect is not None:
        raise DomainError(
            f"|a|^2+|b|^2 deviates from 1 by {defect:.4f}, beyond slack {GISIN_NORM_SLACK}")
    if not gisin_domain(x, a, b):
        raise DomainError(
            f"x = {x} exceeds the separability threshold x_max = {gisin_x_max(a, b):.6f}")
    return x_state(gisin_entries(x, a, b))


def _gisin_closed(x: float | np.ndarray, a2: float, b2: float):
    """(lhs5, mu_tilde, mu12) of the Gisin family for any x, from the raw
    |a|^2 and |b|^2, so off normalization not the X-state form.  Elementwise
    in x: a float or a float64 array, each value with the bits of its own
    scalar evaluation (``np.sqrt`` is correctly rounded, as ``math.sqrt``
    is), so the root search evaluates a whole grid in one call."""
    lhs5 = x * x * (2.0 * (a2 * a2 + b2 * b2) - 1.0)
    mt = x * (3.0 * x - 2.0) + np.sqrt(x * x * (4.0 * a2 + 1.0) - 2.0 * x + 1.0) \
        * np.sqrt(x * x * (4.0 * b2 + 1.0) - 2.0 * x + 1.0)
    mu12 = 1.5 * x * x - x + 0.5
    return lhs5, mt, mu12


def beta_entries(beta: float) -> XEntries:
    """Entries of the beta matrix at any beta, unchecked."""
    outer = beta / 2.0
    inner = (1.0 - beta) / 2.0
    return outer, inner, inner, outer, outer, inner


def beta_state(beta: float) -> DensityBlock:
    beta = float(beta)
    entries = beta_entries(beta)
    if not xstate_valid(entries):
        raise DomainError(f"beta must lie in [0, 1], got {beta}")
    return x_state(entries)


def xstate_entangled(entries: XEntries):
    """Exact entanglement verdict of six entries, valid or not, as a
    bool or an elementwise mask (Peres 1996: a coherence beats the geometric
    mean of the other pair of populations); boundary cases (within
    ``ENTANGLE_TOL``) count as separable."""
    d1, d2, d3, d4, c14, c23 = entries
    return (_abs2(c14) > d2 * d3 + ENTANGLE_TOL) | (_abs2(c23) > d1 * d4 + ENTANGLE_TOL)


_PPT_CONCLUSIVE = {(2, 2), (2, 3), (3, 2)}


def _require_ppt_shape(shape: BlockShape) -> None:
    """Raise ShapeUnsupported unless the PPT verdict is conclusive at ``shape``."""
    pair = (shape.n, shape.m)
    if pair not in _PPT_CONCLUSIVE:
        raise ShapeUnsupported(
            f"PPT verdict is conclusive only for {sorted(_PPT_CONCLUSIVE)}, "
            f"got {pair}"
        )


def ppt_entangled(block: DensityBlock) -> np.ndarray:
    """Peres-Horodecki test on every state of a block: a partial transpose
    with an eigenvalue below -ENTANGLE_TOL means entangled.

    The partial transposes are taken on the whole stack, and their smallest
    eigenvalues come from ``spectra``.  Conclusive (necessary and
    sufficient) only for 2x2, 2x3 and 3x2 systems; any other block shape raises
    ShapeUnsupported since a PSD partial transpose would prove nothing there.
    """
    _require_ppt_shape(block.shape)
    transposed = partial_transpose_inner(block.mats, block.shape)
    return spectra(transposed)[:, 0] < -ENTANGLE_TOL


def random_x_entries(seeds) -> XEntries:
    """Entries of the random X-state of each seed, six arrays from one draw:
    the first 8 uniforms of stream ``seed`` give four exponentials, normalized
    to 1 as the diagonal, then |c14| = u sqrt(d1 d4) with u in (0, 1], a
    uniform phase of c14, and likewise c23.  Each value has the bits of its
    scalar evaluation, the logarithms by ``scalar_logs``."""
    u = stream_uniforms(seeds, [8] * len(seeds)).reshape(-1, 8)
    r = -scalar_logs(u[:, :4]).T
    d1, d2, d3, d4 = r / (((r[0] + r[1]) + r[2]) + r[3])
    angle = 2.0 * math.pi * u[:, [5, 7]]
    phase = np.empty(angle.shape, dtype=np.complex128)
    phase.real, phase.imag = np.cos(angle), np.sin(angle)
    c14, c23 = _product(u[:, [4, 6]] * np.sqrt([d1 * d4, d2 * d3]).T, phase).T
    return d1, d2, d3, d4, c14, c23

