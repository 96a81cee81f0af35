import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import jacobi_eigenvalues, random_hermitian
from puritylab import linalg
from puritylab.defaults import VALIDATION_TOL
from puritylab.density import BlockShape, make_density, validate_block
from puritylab.errors import DimMismatch, DomainError, NotHermitian
from puritylab.linalg import hermitian_eig, spectra


# spectra solves a stack of any length in one call; the sampled jobs pass
# stacks of up to density.SAMPLE_BLOCK matrices.
STACK = 67


def eigenvalues(mat, stacked: bool) -> np.ndarray:
    """The eigenvalues of one matrix from ``spectra``: alone in a one-matrix
    stack, or (stacked) at index STACK - 2 of a stack of STACK matrices whose
    others are maximally mixed states."""
    mat = np.asarray(mat, dtype=complex)
    if not stacked:
        return spectra(mat[None])[0]
    mats = np.stack([np.eye(len(mat), dtype=complex) / len(mat)] * STACK)
    mats[STACK - 2] = mat
    return spectra(mats)[STACK - 2]


class TestHermitianEig:
    def test_scalar_diagonal(self):
        eig = hermitian_eig(np.eye(4) * 0.25)
        assert np.array_equal(eig.values, np.full(4, 0.25))

    def test_pauli_x_spectrum(self):
        eig = hermitian_eig([[0, 1], [1, 0]])
        assert np.allclose(eig.values, [-1.0, 1.0], atol=1e-15)

    def test_seeded_reconstruction(self):
        # the spectrum gives back the trace and the Frobenius norm
        h = random_hermitian(4, 42)
        values = hermitian_eig(h).values
        assert abs(values.sum() - h.trace().real) <= 1e-12
        assert abs(np.sqrt((values ** 2).sum()) - np.linalg.norm(h)) <= 1e-12

    def test_values_ascending(self):
        eig = hermitian_eig(random_hermitian(6, 7))
        assert (np.diff(eig.values) >= 0).all()

    @pytest.mark.parametrize("dim", range(1, 10))
    def test_bits_equal_numpy_on_exactly_hermitian(self, dim):
        # no symmetrisation here: the lower triangle alone is read, as
        # numpy.linalg.eigvalsh reads it
        h = random_hermitian(dim, 100 + dim)
        expected = np.linalg.eigvalsh(h).tobytes()
        assert hermitian_eig(h).values.tobytes() == expected
        assert hermitian_eig(np.tril(h)).values.tobytes() == expected

    # hermitian_eig checks no tolerance: a matrix is refused where it enters
    # the package (make_density, validate_block), before any eigensolve.  The
    # input-check cases below hold that boundary to them.

    def test_rejects_non_hermitian(self):
        mat = [[0.5, 1.0], [0.0, 0.5]]
        with pytest.raises(NotHermitian):
            make_density(mat, BlockShape(2, 1))
        # behind the boundary, spectra gives the eigenvalues of the Hermitian
        # part, alone or inside a stack
        expected = np.linalg.eigvalsh(np.array([[0.5, 0.5], [0.5, 0.5]])).tobytes()
        for stacked in (False, True):
            assert eigenvalues(mat, stacked).tobytes() == expected

    @pytest.mark.parametrize("entry", [
        ((1, 1), complex(np.nan, 0.0)),
        ((0, 2), complex(np.inf, 0.0)),
        ((2, 0), complex(0.0, -np.inf)),
    ], ids=["nan-diagonal", "inf-off-diagonal", "imag-inf-off-diagonal"])
    def test_non_finite_entry_is_domain_error(self, entry):
        mat = np.eye(3, dtype=complex) / 3
        mat[entry[0]] = entry[1]
        with pytest.raises(DomainError, match="NaN or Inf"):
            make_density(mat, BlockShape(3, 1))

    def test_symmetric_inf_pair_is_domain_error(self):
        # inf - conj(inf) is nan, so the pair reads as non-finite, not as
        # a zero Hermiticity defect
        mat = np.eye(3, dtype=complex) / 3
        mat[0, 1] = mat[1, 0] = complex(np.inf, 0.0)
        with pytest.raises(DomainError, match="NaN or Inf"):
            make_density(mat, BlockShape(3, 1))

    def test_error_order(self):
        shape = BlockShape(2, 1)
        with pytest.raises(DimMismatch):
            make_density(np.full((2, 3), np.nan), shape)
        # a NaN entry outranks the asymmetry beside it
        with pytest.raises(DomainError, match="NaN or Inf"):
            make_density([[np.nan, 5.0], [0.0, 0.0]], shape)
        with pytest.raises(DomainError, match="NaN or Inf"):
            make_density([[0.0, np.inf], [np.inf, 0.0]], shape)
        with pytest.raises(NotHermitian, match="hermiticity defect 1.000e-01 exceeds tol"):
            make_density([[0.0, 0.1], [0.0, 0.0]], shape)

    def test_deterministic(self):
        h = random_hermitian(5, 123)
        assert np.array_equal(hermitian_eig(h).values, hermitian_eig(h).values)

    @given(st.integers(2, 8), st.integers(0, 10**6))
    @settings(max_examples=80)
    def test_agrees_with_jacobi_oracle(self, dim, seed):
        h = random_hermitian(dim, seed)
        ours = hermitian_eig(h).values
        ref = jacobi_eigenvalues(h)
        assert np.abs(ours - ref).max() <= 1e-10 * max(np.linalg.norm(h), 1.0)


class TestSpectra:
    def test_rows_are_hermitian_eig_values(self):
        mats = np.stack([random_hermitian(4, seed) for seed in range(5)])
        values = spectra(mats)
        assert values.shape == (5, 4)
        for mat, row in zip(mats, values):
            assert row.tobytes() == hermitian_eig(mat).values.tobytes()

    def test_empty_stack(self):
        assert spectra(np.zeros((0, 3, 3), dtype=complex)).shape == (0, 3)

    @pytest.mark.parametrize("count", [0, 1, 3, STACK])
    @pytest.mark.parametrize("dim", [1, 2, 4, 9])
    def test_one_hermitian_eig_per_matrix(self, monkeypatch, count, dim):
        # the unit the traced benchmark counts: one call per matrix, each on
        # one (N, N) matrix, never on a stack
        shapes = []
        real = linalg.hermitian_eig

        def counted(mat):
            shapes.append(np.shape(mat))
            return real(mat)
        monkeypatch.setattr(linalg, "hermitian_eig", counted)
        mats = np.array([random_hermitian(dim, seed) for seed in range(count)])
        mats = mats.reshape(count, dim, dim)
        assert spectra(mats).shape == (count, dim)
        assert shapes == [(dim, dim)] * count

    def test_raises_for_the_first_bad_matrix(self):
        # spectra checks nothing; validating the stack names its first bad matrix
        mats = np.stack([np.eye(2) / 2, [[0.5, 0.1], [0.0, 0.5]], [[0.5, 0.2], [0.0, 0.5]]])
        assert np.isfinite(spectra(mats)).all()
        with pytest.raises(NotHermitian, match="hermiticity defect 1.000e-01"):
            validate_block(mats, BlockShape(2, 1))


def nearly_hermitian(dim: int, rank: int, seed: int) -> np.ndarray:
    """G G^dagger of the given rank, plus a lower-triangle skew of ~1e-12:
    Hermitian within VALIDATION_TOL, but not exactly, so the symmetrisation
    moves the bits LAPACK reads."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    skew = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return g @ g.conj().T + 1e-12 * np.tril(skew, -1)


DIMS_AND_RANKS = [(dim, rank) for dim in range(1, 10) for rank in sorted({1, (dim + 1) // 2, dim})]


class TestDirectLapack:
    """spectra forms the Hermitian parts of a stack, and hermitian_eig calls
    numpy's LAPACK gufunc on each without numpy.linalg's wrapper; the
    eigenvalues are the bits numpy.linalg.eigvalsh gives for each part."""

    @pytest.mark.parametrize("dim,rank", DIMS_AND_RANKS)
    def test_bits_equal_numpy_on_hermitian_part(self, dim, rank):
        mats = np.stack([nearly_hermitian(dim, rank, 1000 * dim + 10 * rank + seed)
                         for seed in range(STACK)])
        assert np.abs(mats - mats.conj().swapaxes(1, 2)).max() <= VALIDATION_TOL
        expected = np.stack([np.linalg.eigvalsh(0.5 * (m + m.conj().T)) for m in mats])
        assert spectra(mats).tobytes() == expected.tobytes()
        assert spectra(mats[:3]).tobytes() == expected[:3].tobytes()
        for m, row in zip(mats[:3], expected):
            assert spectra(m[None]).tobytes() == row.tobytes()

    @pytest.mark.parametrize("stacked", [False, True])
    def test_nan_from_lapack_is_linalg_error(self, monkeypatch, stacked):
        real = linalg.eigvalsh_lo

        def failing(a, **kwargs):
            out = real(a, **kwargs)
            out[...] = np.nan
            return out
        monkeypatch.setattr(linalg, "eigvalsh_lo", failing)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            eigenvalues(random_hermitian(3, 5), stacked)

    @pytest.mark.parametrize("bad", [0, STACK // 2, STACK - 1], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("dim", [1, 4])
    def test_nan_from_lapack_in_one_matrix_of_a_stack(self, monkeypatch, dim, bad):
        # the check runs once per stack, after every matrix is solved
        real, solved = linalg.eigvalsh_lo, []

        def failing(a, **kwargs):
            out = real(a, **kwargs)
            if len(solved) == bad:
                out[...] = np.nan
            solved.append(a)
            return out
        monkeypatch.setattr(linalg, "eigvalsh_lo", failing)
        mats = np.stack([random_hermitian(dim, seed) for seed in range(STACK)])
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            spectra(mats)
        assert len(solved) == STACK

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("stacked", [False, True])
    def test_overflowing_hermitian_part_is_linalg_error(self, stacked):
        mat = np.eye(3, dtype=complex) / 3
        mat[-1, 0] = mat[0, -1] = 1.7e308
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            eigenvalues(mat, stacked)

    @pytest.mark.parametrize("stacked", [True, False])
    @pytest.mark.parametrize("dim", range(2, 10))
    def test_overflowing_hermitian_part_is_domain_error(self, dim, stacked, eigh_counts):
        # finite, Hermitian and of unit trace, but m + m^dagger overflows to
        # Inf: refused where it enters the package, and never solved (in a
        # stack, only the valid state before it is)
        mat = np.eye(dim, dtype=complex) / dim
        mat[-1, 0] = mat[0, -1] = 1.7e308
        with pytest.raises(DomainError, match="overflows"):
            if stacked:
                validate_block(np.stack([np.eye(dim) / dim, mat]), BlockShape(dim, 1))
            else:
                make_density(mat, BlockShape(dim, 1))
        assert dict(eigh_counts) == ({dim: 1} if stacked else {})

