"""Independent oracles used by the test suite.

Everything here deliberately avoids the package's own reduction maps and
eigensolver: partial traces are written as explicit index sums and the
eigenvalue reference is a cyclic Jacobi iteration written out below, so
agreement with the package's LAPACK back end is a genuine cross-check rather
than the same code tested against itself.  ``numpy_sqrt_psd`` uses
numpy.linalg.eigh; it checks the package's block reductions and trace
bookkeeping, not its eigensolver.  The scalar samplers draw one value at a
time from ``SplitMix64`` and build each state term by term, the reference for
the package's block sampler.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import Polynomial

from puritylab.density import BlockShape, DensityMatrix, make_density
from puritylab.errors import BadRank
from puritylab.prng import SplitMix64


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


def scalar_random_density(dim_n: int, dim_m: int, rank: int, seed: int) -> DensityMatrix:
    """Ginibre state G G^dagger / Tr(G G^dagger), one draw at a time."""
    shape = BlockShape(dim_n, dim_m)
    if not 1 <= rank <= shape.dim:
        raise BadRank(f"rank must lie in [1, {shape.dim}], got {rank}")
    gen = SplitMix64(seed)
    g = ginibre(shape.dim, rank, gen)
    raw = g @ g.conj().T
    return make_density(raw / raw.trace().real, shape)


def scalar_random_separable(dim_n: int, dim_m: int, terms: int, seed: int) -> DensityMatrix:
    """Mixture of pure product states, built term by term: exponential
    weights first, then u (length n) and v (length m) per term."""
    if terms < 1:
        raise BadRank(f"terms must be >= 1, got {terms}")
    shape = BlockShape(dim_n, dim_m)
    gen = SplitMix64(seed)
    weights = np.array([-np.log(gen.uniform()) for _ in range(terms)])
    weights /= weights.sum()
    acc = np.zeros((shape.dim, shape.dim), dtype=np.complex128)
    for w in weights:
        u = np.array([gen.complex_normal() for _ in range(dim_n)])
        u /= np.linalg.norm(u)
        v = np.array([gen.complex_normal() for _ in range(dim_m)])
        v /= np.linalg.norm(v)
        acc += w * np.kron(np.outer(u, u.conj()), np.outer(v, v.conj()))
    return make_density(acc, shape)


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
