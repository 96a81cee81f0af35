"""Independent oracles used by the test suite.

Everything here deliberately avoids the package's own reduction maps and
eigensolver: partial traces are written as explicit index sums and the
eigenvalue reference is a cyclic Jacobi iteration written out below, so
agreement with the package's LAPACK back end is a genuine cross-check rather
than the same code tested against itself.  ``mpmath_sqrt_trace`` gives the
square-root trace of a matrix to 40 significant digits, a reference for the
package's rounding rather than a second double-precision computation.
``numpy_sqrt_psd`` uses numpy.linalg.eigh; it checks the package's block
reductions and trace bookkeeping, not its eigensolver.  The scalar samplers
draw one value at a time from ``SplitMix64`` and build each state term by
term, the reference for the package's block sampler, and
``scalar_random_x_params`` is the reference for the X-state draw.
``scalar_find_delta_roots`` is the one-point-at-a-time root search, the
reference for the package's array search, and ``scalar_sweep_rows`` builds a
sweep one grid point at a time, the reference for the package's array
sweep.  ``scalar_matrix_refusal`` checks one matrix against the documented
validation order, one entry at a time in Python complex arithmetic, the
reference for the package's stacked ``MATRIX_RULE``.
"""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np
from mpmath import mp
from numpy.polynomial import Polynomial

from puritylab.defaults import VALIDATION_TOL, XSTATE_PARAM_TOL
from puritylab.density import BlockShape, DensityBlock, make_density
from puritylab.errors import (
    BadInterval,
    BadRank,
    DomainError,
    NotHermitian,
    NotPositive,
    ShapeMismatch,
    SpecError,
    TraceNotOne,
)
from puritylab.inequalities import purity_set
from puritylab.prng import SplitMix64
from puritylab.states import (
    XEntries,
    _gisin_closed,
    beta_entries,
    gisin_entries,
    gisin_x_max,
    random_x_entries,
    werner_entries,
    x_state,
    x_state_purities,
    xstate_entangled,
)
from puritylab.sweep import SweepSpec


def index_block_trace(mat: np.ndarray, n: int, m: int) -> np.ndarray:
    """rho1[i, j] = sum_k rho[(i, k), (j, k)] with row index i*m + k."""
    out = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            out[i, j] = sum(mat[i * m + k, j * m + k] for k in range(m))
    return out


def index_block_sum(mat: np.ndarray, n: int, m: int) -> np.ndarray:
    """rho2[k, l] = sum_i rho[(i, k), (i, l)]."""
    out = np.zeros((m, m), dtype=np.complex128)
    for k in range(m):
        for l in range(m):
            out[k, l] = sum(mat[i * m + k, i * m + l] for i in range(n))
    return out


def random_hermitian(dim: int, seed: int) -> np.ndarray:
    """(G + G^dagger)/2 with Ginibre G from the packaged stream."""
    gen = SplitMix64(seed)
    g = np.array(
        [[gen.complex_normal() for _ in range(dim)] for _ in range(dim)]
    )
    return 0.5 * (g + g.conj().T)


def ginibre(rows: int, cols: int, gen: SplitMix64) -> np.ndarray:
    """Matrix of independent standard complex normals, drawn row-major."""
    out = np.empty((rows, cols), dtype=np.complex128)
    for i in range(rows):
        for j in range(cols):
            out[i, j] = gen.complex_normal()
    return out


def scalar_random_density(dim_n: int, dim_m: int, rank: int, seed: int) -> DensityBlock:
    """Ginibre state G G^dagger / Tr(G G^dagger), one draw at a time."""
    shape = BlockShape(dim_n, dim_m)
    if not 1 <= rank <= shape.dim:
        raise BadRank(f"rank must lie in [1, {shape.dim}], got {rank}")
    gen = SplitMix64(seed)
    g = ginibre(shape.dim, rank, gen)
    raw = g @ g.conj().T
    return make_density(raw / raw.trace().real, shape)


def scalar_random_separable(dim_n: int, dim_m: int, terms: int, seed: int) -> DensityBlock:
    """Mixture of pure product states, built term by term: exponential
    weights first, then u (length n) and v (length m) per term."""
    if terms < 1:
        raise BadRank(f"terms must be >= 1, got {terms}")
    shape = BlockShape(dim_n, dim_m)
    gen = SplitMix64(seed)
    weights = np.array([-math.log(gen.uniform()) for _ in range(terms)])
    weights /= weights.sum()
    acc = np.zeros((shape.dim, shape.dim), dtype=np.complex128)
    for w in weights:
        u = np.array([gen.complex_normal() for _ in range(dim_n)])
        u /= np.linalg.norm(u)
        v = np.array([gen.complex_normal() for _ in range(dim_m)])
        v /= np.linalg.norm(v)
        acc += w * np.kron(np.outer(u, u.conj()), np.outer(v, v.conj()))
    return make_density(acc, shape)


def scalar_random_x_params(seed: int) -> XEntries:
    """The six X-state entries drawn one uniform at a time from
    ``SplitMix64``: four exponentials normalized to the diagonal, then
    |c14|, its phase, |c23| and its phase."""
    gen = SplitMix64(seed)
    raw = [-math.log(gen.uniform()) for _ in range(4)]
    total = sum(raw)
    d1, d2, d3, d4 = (r / total for r in raw)
    mag14 = gen.uniform() * math.sqrt(d1 * d4)
    ph14 = 2.0 * math.pi * gen.uniform()
    mag23 = gen.uniform() * math.sqrt(d2 * d3)
    ph23 = 2.0 * math.pi * gen.uniform()
    return (d1, d2, d3, d4,
            mag14 * complex(math.cos(ph14), math.sin(ph14)),
            mag23 * complex(math.cos(ph23), math.sin(ph23)))


def one_x_entries(seed: int) -> XEntries:
    """The package's draw of one seed, ``random_x_entries([seed])``, read as
    six Python scalars: the entries of the random X-state of ``seed``."""
    return tuple(e.item(0) for e in random_x_entries([seed]))


def skewed_pure_state(n: int, m: int, seed: int) -> np.ndarray:
    """A random pure state of dimension n*m plus an anti-Hermitian matrix with
    zero diagonal, scaled so that the Hermiticity defect (largest entry of
    mat - mat^dagger) is 0.9 VALIDATION_TOL: a matrix validation accepts."""
    rng = np.random.default_rng(seed)
    dim = n * m
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    skew = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    skew -= skew.conj().T
    np.fill_diagonal(skew, 0.0)
    return np.outer(psi, psi.conj()) + skew * (0.45 * VALIDATION_TOL / np.abs(skew).max())


def dipped_diagonal(n: int, m: int, outer: bool) -> np.ndarray:
    """Diagonal n*m matrix with -0.9 VALIDATION_TOL on every row (i, k) with
    k >= 1 (or i >= 1 if ``outer``), the other rows sharing the rest of the
    unit trace: validation accepts it, and its reduction over the dipped
    index, of traced dimension d, has the eigenvalue -0.9 d VALIDATION_TOL.
    At 2x2 inner it is diag(0.5 + 9e-11, -9e-11, 0.5 + 9e-11, -9e-11)."""
    dip = 0.9 * VALIDATION_TOL
    index = np.arange(n * m)
    dipped = index // m >= 1 if outer else index % m >= 1
    diag = np.where(dipped, -dip, (1.0 + dip * dipped.sum()) / (~dipped).sum())
    return np.diag(diag).astype(complex)


def edge_state(n: int, m: int, seed: int) -> np.ndarray:
    """A matrix validation accepts at both tolerance edges: U diag(w) U^dagger
    with a random unitary U and random rank r < n*m, whose n*m - r zero
    eigenvalues are moved to -0.99 VALIDATION_TOL (the others rescaled to
    keep the trace 1), plus a zero-diagonal anti-Hermitian matrix with
    Hermiticity defect 0.99 VALIDATION_TOL."""
    rng = np.random.default_rng(seed)
    dim = n * m
    rank = int(rng.integers(1, dim))
    dip = 0.99 * VALIDATION_TOL
    w = np.full(dim, -dip)
    w[:rank] = rng.exponential(size=rank)
    w[:rank] *= (1.0 + dip * (dim - rank)) / w[:rank].sum()
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    mat = (u * w) @ u.conj().T
    mat = 0.5 * (mat + mat.conj().T)
    skew = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    skew -= skew.conj().T
    np.fill_diagonal(skew, 0.0)
    return mat + skew * (0.495 * VALIDATION_TOL / np.abs(skew).max())


def jacobi_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix by cyclic complex Jacobi.

    Each rotation in the (p, q) plane annihilates a[p, q]; sweeps over all
    pairs repeat until the off-diagonal Frobenius norm is below 1e-14 times
    the Frobenius norm of the input; a matrix still above that after
    ``sweep_cap`` sweeps fails the calling test.
    """
    sweep_cap = 100
    a = np.asarray(mat, dtype=np.complex128)
    a = 0.5 * (a + a.conj().T)
    dim = a.shape[0]
    target = 1e-14 * float(np.linalg.norm(a))
    # Entries below skip_below cannot lift the off-diagonal norm back above
    # target, so rotating them only risks degenerate divisions.
    skip_below = target / (2.0 * dim)

    def offdiag_norm() -> float:
        off = a.copy()
        np.fill_diagonal(off, 0.0)
        return float(np.linalg.norm(off))

    for _ in range(sweep_cap):
        if offdiag_norm() <= target:
            return np.sort(a.diagonal().real)
        for p in range(dim - 1):
            for q in range(p + 1, dim):
                apq = a[p, q]
                r = abs(apq)
                if r <= skip_below:
                    continue
                phase = apq / r
                tau = (a[p, p].real - a[q, q].real) / (2.0 * r)
                t = np.copysign(1.0, tau) / (abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # a <- J^dagger a J with J[p,p] = J[q,q] = c,
                # J[p,q] = -s*phase, J[q,p] = s*conj(phase).
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p + s * np.conj(phase) * col_q
                a[:, q] = -s * phase * col_p + c * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p + s * phase * row_q
                a[q, :] = -s * np.conj(phase) * row_p + c * row_q
                a[p, q] = a[q, p] = 0.0
    raise AssertionError(f"Jacobi oracle did not converge in {sweep_cap} sweeps")


def scalar_matrix_refusal(mat: np.ndarray, shape: BlockShape):
    """What validating one square matrix raises, by the documented order:
    ``(error class, text)`` of the first check it fails (finite entries,
    dimension n*m, Hermiticity and unit trace within VALIDATION_TOL, a
    finite Hermitian part, the entry bound |rho_ij| <= 1); ``(NotPositive,
    None)`` if it passes them but a Jacobi eigenvalue lies below
    -VALIDATION_TOL; None if it is accepted."""
    rows = np.asarray(mat, dtype=np.complex128).tolist()
    dim = len(rows)
    pairs = [(rows[i][j], rows[j][i].conjugate()) for i in range(dim) for j in range(dim)]
    if not all(cmath.isfinite(z) for z, _ in pairs):
        return DomainError, "matrix contains NaN or Inf entries"
    if dim != shape.dim:
        return ShapeMismatch, (f"matrix dimension {dim} does not match block shape "
                               f"({shape.n}, {shape.m}) with n*m = {shape.dim}")
    defect = max(abs(z - w) for z, w in pairs)
    if defect > VALIDATION_TOL:
        return NotHermitian, f"hermiticity defect {defect:.3e} exceeds tol {VALIDATION_TOL:.3e}"
    trace_dev = abs(sum(rows[i][i] for i in range(dim)) - 1.0)
    if trace_dev > VALIDATION_TOL:
        return TraceNotOne, f"trace deviates from 1 by {trace_dev:.3e} (tol {VALIDATION_TOL:.3e})"
    if not all(cmath.isfinite(z + w) for z, w in pairs):
        return DomainError, "Hermitian part (m + m^dagger)/2 overflows to Inf"
    peak = max(abs(z) for z, _ in pairs)
    if peak > 1.0 + VALIDATION_TOL:
        return NotPositive, (f"largest entry modulus {peak:.3e} exceeds 1 by {peak - 1.0:.3e} "
                             f"(tol {VALIDATION_TOL:.3e}); no entry of a unit-trace PSD "
                             "matrix does")
    if jacobi_eigenvalues(mat)[0] < -VALIDATION_TOL:
        return NotPositive, None
    return None


def mpmath_sqrt_trace(mat: np.ndarray) -> tuple[float, float]:
    """Tr A^(1/2) of the Hermitian part of ``mat``, with eigenvalues below 0
    counted as 0, and its smallest eigenvalue: both from mpmath's ``eighe``
    at 40 significant digits on the exact float64 entries, then rounded to
    float."""
    with mp.workdps(40):
        a = mp.matrix(np.asarray(mat, dtype=np.complex128).tolist())
        values = mp.eighe((a + a.H) / 2, eigvals_only=True)
        root_trace = mp.fsum(mp.sqrt(max(v, 0)) for v in values)
        return float(root_trace), float(min(values))


def numpy_sqrt_psd(mat: np.ndarray) -> np.ndarray:
    """V diag(w^(1/2)) V^dagger from numpy.linalg.eigh, eigenvalues clipped
    at 0."""
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * np.clip(vals, 0.0, None) ** 0.5) @ vecs.conj().T


def delta_and_min_pt(mat: np.ndarray, n: int, m: int) -> tuple[float, float]:
    """delta = mu_tilde - mu12 and the smallest partial-transpose eigenvalue of
    an (n*m) x (n*m) state, from index contractions written out here and
    numpy.linalg.eigvalsh: Tr A^2 as sum |a_ij|^2 and Tr A^(1/2) as the sum
    of the square roots of the clipped eigenvalues."""
    blocks = mat.reshape(n, m, n, m)
    squared = np.einsum("ikjl,jlpq->ikpq", blocks, blocks)

    def sqrt_trace(a):
        return float(np.sqrt(np.clip(np.linalg.eigvalsh(a), 0.0, None)).sum())

    s6 = sqrt_trace(np.einsum("ikjk->ij", squared))
    s8 = sqrt_trace(np.einsum("kakb->ab", squared))
    mu12 = float(np.sum(np.abs(mat) ** 2))
    transposed = np.einsum("ikjl->iljk", blocks).reshape(n * m, n * m)
    return s8 * s8 + s6 * s6 - 1.0 - mu12, float(np.linalg.eigvalsh(transposed)[0])


def werner_matrix(p: float) -> np.ndarray:
    """The Werner matrix written out entry by entry (no package code)."""
    mat = np.zeros((4, 4), dtype=np.complex128)
    mat[0, 0] = mat[3, 3] = (1.0 + p) / 4.0
    mat[1, 1] = mat[2, 2] = (1.0 - p) / 4.0
    mat[0, 3] = mat[3, 0] = p / 2.0
    return mat


def beta_matrix(beta: float) -> np.ndarray:
    """The beta-family matrix written out entry by entry (no package code)."""
    outer, inner = beta / 2.0, (1.0 - beta) / 2.0
    mat = np.zeros((4, 4), dtype=np.complex128)
    mat[0, 0] = mat[3, 3] = mat[0, 3] = mat[3, 0] = outer
    mat[1, 1] = mat[2, 2] = mat[1, 2] = mat[2, 1] = inner
    return mat


def gisin_matrix(x: float, a: complex, b: complex) -> np.ndarray:
    """The Gisin matrix from the raw amplitudes, entry by entry: x |v><v|
    with v = (a, b) on the inner block, (1 - x)/2 on the outer diagonal."""
    mat = np.zeros((4, 4), dtype=np.complex128)
    mat[0, 0] = mat[3, 3] = (1.0 - x) / 2.0
    mat[1:3, 1:3] = x * np.outer([a, b], np.conj([a, b]))
    return mat


def gisin_delta_quartic_roots(a: float, b: float) -> np.ndarray:
    """Real roots in (0, 1) of the quartic whose zeros are the Gisin delta roots.

    For normalized amplitudes (|a|^2 + |b|^2 = 1) the X-state closed forms
    reduce delta = mu_tilde - mu12 on the Gisin family to

        delta(x) = sqrt(A(x)) sqrt(B(x)) - Q(x),
        A = (1-x)^2 + 4|a|^2 x^2,  B = (1-x)^2 + 4|b|^2 x^2,
        Q = (1-x)(1+3x)/2.

    Q > 0 on (0, 1), so squaring adds no spurious zeros there and the roots
    of delta in (0, 1) are exactly those of the quartic A*B - Q^2.  The
    separability threshold 1/(1+2|ab|) appears nowhere in it.  Roots come
    from numpy.polynomial (companion-matrix eigenvalues), independent of the
    package's closed forms and root finder.  Only simple roots, where delta
    changes sign, are returned: at |a| = |b| the quartic has a double root
    at x = 1/3 (delta = (3x-1)^2/2 touches zero there), which rounding
    splits into a complex pair that the imaginary-part filter drops.
    """
    x = Polynomial([0.0, 1.0])
    one_minus_x = 1.0 - x
    a2, b2 = abs(a) ** 2, abs(b) ** 2
    quartic = ((one_minus_x ** 2 + 4.0 * a2 * x ** 2)
               * (one_minus_x ** 2 + 4.0 * b2 * x ** 2)
               - (one_minus_x * (1.0 + 3.0 * x) / 2.0) ** 2)
    roots = quartic.roots()
    real = roots[np.abs(roots.imag) <= 1e-12].real
    return np.sort(real[(real > 0.0) & (real < 1.0)])


def scalar_find_delta_roots(f, lo: float, hi: float, grid: int, tol: float) -> list[float]:
    """Grid scan plus bisection calling the scalar ``f`` once per point."""
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


def mpmath_purity_set(rho, n: int, m: int) -> dict[str, float]:
    """mu12, mu1, mu2, mu_tilde, delta and lhs5 = mu1 + mu2 - 1 of an
    (n*m) x (n*m) Hermitian mpmath matrix, at the working precision, then
    rounded to float.

    Written out from the definitions: mu12 = Tr rho^2; mu1 and mu2 are the
    purities of the block trace and the block sum of rho; mu_tilde sums the
    squared Tr A^(1/2) of the block trace and the block sum of rho^2, from
    mpmath's ``eighe``.  Needs no positivity of rho, since rho^2 is PSD for
    any Hermitian rho.
    """
    def block_trace(a):
        return mp.matrix([[mp.fsum(a[i * m + k, j * m + k] for k in range(m))
                           for j in range(n)] for i in range(n)])

    def block_sum(a):
        return mp.matrix([[mp.fsum(a[k * m + i, k * m + j] for k in range(n))
                           for j in range(m)] for i in range(m)])

    def purity(a):
        return mp.fsum(abs(a[i, j]) ** 2 for i in range(a.rows) for j in range(a.cols))

    def sqrt_trace(a):
        return mp.fsum(mp.sqrt(max(v, 0)) for v in mp.eighe(a, eigvals_only=True))

    squared = rho * rho
    mu12, mu1, mu2 = purity(rho), purity(block_trace(rho)), purity(block_sum(rho))
    mt = sqrt_trace(block_trace(squared)) ** 2 + sqrt_trace(block_sum(squared)) ** 2 - 1
    return {"mu12": float(mu12), "mu1": float(mu1), "mu2": float(mu2), "mu_tilde": float(mt),
            "delta": float(mt - mu12), "lhs5": float(mu1 + mu2 - 1)}


_SCALAR_FAMILIES = {"werner": werner_entries, "beta": beta_entries, "gisin": gisin_entries}


def one_state_values(result):
    """A ``PuritySet`` or ``InequalityReport`` of a one-state block with each
    array field read by ``.item()``: the values of its one state as Python
    scalars; ``.item()`` refuses a longer block."""
    values = {name: value.item() for name, value in vars(result).items()
              if isinstance(value, np.ndarray)}
    return dataclasses.replace(result, **values)


def _scalar_sweep_row(spec: SweepSpec, v: float) -> tuple:
    """The nine values of grid value ``v``, alone, in CSV order: ``entangled``
    from the family's entries, ``valid`` where ``x_state`` accepts them
    and, for Gisin, x <= x_max + VALIDATION_TOL, ``purity_set`` of that
    state where valid and the closed forms where not (mu1 and mu2 NaN for
    Gisin)."""
    if spec.family == "xrandom":
        seed = int(round(v))
        entries = one_x_entries(seed)
        rho = x_state(entries)
        v = float(seed)
    else:
        args = (v, spec.a, spec.b) if spec.family == "gisin" else (v,)
        entries = _SCALAR_FAMILIES[spec.family](*args)
        rho = None
        if spec.family != "gisin" or v <= gisin_x_max(spec.a, spec.b) + VALIDATION_TOL:
            try:
                rho = x_state(entries)
            except (DomainError, NotPositive, TraceNotOne):
                pass
    if rho is not None:
        ps = one_state_values(purity_set(rho))
        return (v, True, ps.mu12, ps.mu1, ps.mu2, ps.mu_tilde, ps.delta,
                ps.mu1 + ps.mu2 - 1.0, bool(xstate_entangled(entries)))
    if spec.family == "gisin":
        lhs5, mt, mu12 = _gisin_closed(v, abs(spec.a) ** 2, abs(spec.b) ** 2)
        mu1 = mu2 = math.nan
    else:
        ps = x_state_purities(entries)
        mu12, mu1, mu2, mt = ps.mu12, ps.mu1, ps.mu2, ps.mu_tilde
        lhs5 = mu1 + mu2 - 1.0
    delta = mt - mu12
    if not (math.isfinite(delta) and math.isfinite(lhs5)):
        raise SpecError(f"{spec.family} closed forms are not finite at param {v!r}")
    if spec.family != "gisin" and abs(sum(entries[:4]) - 1.0) > XSTATE_PARAM_TOL:
        raise SpecError(f"{spec.family} entries at param {v!r} sum to "
                        f"{sum(entries[:4])!r}, not 1: the closed forms would drop the 1")
    return (v, False, mu12, mu1, mu2, mt, delta, lhs5, bool(xstate_entangled(entries)))


def scalar_sweep_rows(spec: SweepSpec) -> list[tuple]:
    """The rows of a sweep built one grid point at a time, on the grid
    ``start + i * step`` that ends at ``stop`` itself; raises the SpecError
    of the first row refused."""
    step = (spec.stop - spec.start) / (spec.count - 1)
    points = [spec.start + i * step for i in range(spec.count - 1)] + [float(spec.stop)]
    # far outside the domain the closed forms overflow; such rows raise
    with np.errstate(over="ignore", invalid="ignore"):
        return [_scalar_sweep_row(spec, v) for v in points]
