import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import jacobi_eigenvalues, random_hermitian
from puritylab import linalg
from puritylab.defaults import CLAMP_TOL, VALIDATION_TOL
from puritylab.errors import (
    DimMismatch,
    DomainError,
    NegativeSpectrum,
    NotHermitian,
    ZeroToNegativePower,
)
from puritylab.linalg import clamp_spectra, hermitian_eig, psd_matrix_power

BELL = np.zeros((4, 4), dtype=complex)
BELL[0, 0] = BELL[3, 3] = BELL[0, 3] = BELL[3, 0] = 0.5


def random_psd(dim: int, seed: int) -> np.ndarray:
    h = random_hermitian(dim, seed)
    return h @ h.conj().T


class TestHermitianEig:
    def test_scalar_diagonal(self):
        eig = hermitian_eig(np.eye(4) * 0.25)
        assert np.array_equal(eig.values, np.full(4, 0.25))
        assert np.array_equal(eig.vectors, np.eye(4))

    def test_pauli_x_spectrum(self):
        eig = hermitian_eig([[0, 1], [1, 0]])
        assert np.allclose(eig.values, [-1.0, 1.0], atol=1e-15)

    def test_seeded_reconstruction(self):
        h = random_hermitian(4, 42)
        eig = hermitian_eig(h)
        rebuilt = (eig.vectors * eig.values) @ eig.vectors.conj().T
        assert np.linalg.norm(rebuilt - h) <= 1e-10

    def test_values_ascending(self):
        eig = hermitian_eig(random_hermitian(6, 7))
        assert (np.diff(eig.values) >= 0).all()

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig([[0, 1], [0, 0]])

    @pytest.mark.parametrize("entry", [
        ((1, 1), complex(np.nan, 0.0)),
        ((0, 2), complex(np.inf, 0.0)),
        ((2, 0), complex(0.0, -np.inf)),
    ], ids=["nan-diagonal", "inf-off-diagonal", "imag-inf-off-diagonal"])
    def test_non_finite_entry_is_domain_error(self, entry):
        mat = np.eye(3, dtype=complex) / 3
        mat[entry[0]] = entry[1]
        with pytest.raises(DomainError, match="NaN or Inf"):
            hermitian_eig(mat)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_symmetric_inf_pair_is_domain_error(self):
        # inf - conj(inf) is nan, so the pair reads as non-finite, not as
        # a zero Hermiticity defect
        mat = np.eye(3, dtype=complex) / 3
        mat[0, 1] = mat[1, 0] = complex(np.inf, 0.0)
        with pytest.raises(DomainError, match="NaN or Inf"):
            hermitian_eig(mat)

    def test_error_order(self):
        with pytest.raises(DimMismatch):
            hermitian_eig(np.full((2, 3), np.nan))
        with pytest.raises(NotHermitian, match="hermiticity defect 1.000e-01"):
            hermitian_eig([[0.0, 0.1], [0.0, 0.0]])

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_values_only_error_order(self):
        with pytest.raises(DimMismatch):
            hermitian_eig(np.full((2, 3), np.nan), vectors=False)
        # a NaN entry outranks the asymmetry beside it
        with pytest.raises(DomainError, match="NaN or Inf"):
            hermitian_eig([[np.nan, 5.0], [0.0, 0.0]], vectors=False)
        with pytest.raises(DomainError, match="NaN or Inf"):
            hermitian_eig([[0.0, np.inf], [np.inf, 0.0]], vectors=False)
        with pytest.raises(NotHermitian, match="hermiticity defect 1.000e-01 exceeds tol"):
            hermitian_eig([[0.0, 0.1], [0.0, 0.0]], vectors=False)

    def test_deterministic(self):
        h = random_hermitian(5, 123)
        a = hermitian_eig(h)
        b = hermitian_eig(h)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    @given(st.integers(2, 8), st.integers(0, 10**6))
    @settings(max_examples=120)
    def test_unitary_and_reconstructing(self, dim, seed):
        h = random_hermitian(dim, seed)
        eig = hermitian_eig(h)
        unit = np.abs(eig.vectors.conj().T @ eig.vectors - np.eye(dim)).max()
        rebuilt = (eig.vectors * eig.values) @ eig.vectors.conj().T
        scale = max(np.linalg.norm(h), 1.0)
        assert unit <= 1e-10
        assert np.linalg.norm(rebuilt - h) <= 1e-10 * scale

    @given(st.integers(2, 8), st.integers(0, 10**6))
    @settings(max_examples=80)
    def test_agrees_with_jacobi_oracle(self, dim, seed):
        h = random_hermitian(dim, seed)
        ours = hermitian_eig(h).values
        ref = jacobi_eigenvalues(h)
        assert np.abs(ours - ref).max() <= 1e-10 * max(np.linalg.norm(h), 1.0)

    @given(st.integers(2, 8), st.integers(0, 10**6))
    @settings(max_examples=80)
    def test_values_only_agree_with_jacobi_oracle(self, dim, seed):
        h = random_hermitian(dim, seed)
        eig = hermitian_eig(h, vectors=False)
        assert eig.vectors is None
        ref = jacobi_eigenvalues(h)
        assert np.abs(eig.values - ref).max() <= 1e-10 * max(np.linalg.norm(h), 1.0)


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
    """hermitian_eig calls numpy's LAPACK gufuncs without numpy.linalg's
    wrapper; its outputs are the bits numpy.linalg gives for the Hermitian
    part."""

    @pytest.mark.parametrize("dim,rank", DIMS_AND_RANKS)
    def test_bits_equal_numpy_on_hermitian_part(self, dim, rank):
        for seed in range(3):
            m = nearly_hermitian(dim, rank, 1000 * dim + 10 * rank + seed)
            assert np.abs(m - m.conj().T).max() <= VALIDATION_TOL
            h = 0.5 * (m + m.conj().T)
            ref_values, ref_vectors = np.linalg.eigh(h)
            eig = hermitian_eig(m)
            assert eig.values.tobytes() == ref_values.tobytes()
            assert eig.vectors.tobytes() == ref_vectors.tobytes()
            only = hermitian_eig(m, vectors=False)
            assert only.vectors is None
            assert only.values.tobytes() == np.linalg.eigvalsh(h).tobytes()

    @pytest.mark.parametrize("entry,vectors", [("eigh_lo", True), ("eigvalsh_lo", False)])
    def test_nan_from_lapack_is_linalg_error(self, monkeypatch, entry, vectors):
        real = getattr(linalg, entry)

        def failing(a, **kwargs):
            out = real(a, **kwargs)
            for part in out if isinstance(out, tuple) else (out,):
                part[...] = np.nan
            return out
        monkeypatch.setattr(linalg, entry, failing)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            hermitian_eig(random_hermitian(3, 5), vectors=vectors)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("vectors", [True, False])
    @pytest.mark.parametrize("dim", range(1, 10))
    def test_overflowing_hermitian_part_is_domain_error(self, dim, vectors):
        # finite and Hermitian, but m + m^dagger overflows to Inf
        mat = np.eye(dim, dtype=complex) / dim
        mat[0, 0] = mat[-1, 0] = mat[0, -1] = 1.7e308
        with pytest.raises(DomainError, match="overflows"):
            hermitian_eig(mat, vectors=vectors)


class TestClampSpectra:
    def test_zeroes_the_clamp_band_only(self):
        values = np.array([[-CLAMP_TOL, -0.5 * CLAMP_TOL, 0.0, 0.25],
                           [-1e-300, 1e-300, 0.5, 0.5]])
        expected = np.array([[0.0, 0.0, 0.0, 0.25], [0.0, 1e-300, 0.5, 0.5]])
        assert np.array_equal(clamp_spectra(values), expected)

    def test_one_spectrum(self):
        assert np.array_equal(clamp_spectra(np.array([-1e-12, 1.0])), [0.0, 1.0])

    def test_names_first_row_below_tol(self):
        values = np.array([[-0.5 * CLAMP_TOL, 1.0],
                           [-3e-9, 1.0],
                           [-7e-9, 1.0]])
        with pytest.raises(NegativeSpectrum, match="smallest eigenvalue -3.000e-09 below"):
            clamp_spectra(values)


class TestPsdMatrixPower:
    def test_scalar_matrix_square(self):
        out = psd_matrix_power(np.eye(4) / 4, 2.0)
        assert np.abs(out - np.eye(4) / 16).max() <= 1e-15

    def test_scalar_matrix_sqrt(self):
        out = psd_matrix_power(np.eye(2) / 2, 0.5)
        assert np.abs(out - np.eye(2) / np.sqrt(2)).max() <= 1e-15

    def test_projector_sqrt_of_square(self):
        assert np.linalg.norm(psd_matrix_power(BELL @ BELL, 0.5) - BELL) <= 1e-12

    def test_exponent_one_is_identity_map(self):
        m = random_psd(5, 3)
        assert np.linalg.norm(psd_matrix_power(m, 1.0) - m) <= 1e-12 * np.linalg.norm(m)

    def test_output_hermitian(self):
        out = psd_matrix_power(random_psd(4, 9), 0.5)
        assert np.abs(out - out.conj().T).max() <= 1e-12

    def test_negative_spectrum_rejected(self):
        with pytest.raises(NegativeSpectrum):
            psd_matrix_power(np.diag([1.0, -0.5]), 0.5)

    def test_zero_to_negative_power_rejected(self):
        with pytest.raises(ZeroToNegativePower):
            psd_matrix_power(np.diag([1.0, 0.0]), -1.0)

    def test_clamps_small_negative_eigenvalues(self):
        out = psd_matrix_power(np.diag([1.0, -1e-12]), 0.5)
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-9)

    @given(st.integers(2, 6), st.integers(0, 10**6),
           st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([0.5, 1.0, 2.0]))
    @settings(max_examples=60)
    def test_power_composition(self, dim, seed, expo_a, expo_b):
        m = random_psd(dim, seed)
        m /= m.trace().real  # unit scale
        once = psd_matrix_power(psd_matrix_power(m, expo_a), expo_b)
        direct = psd_matrix_power(m, expo_a * expo_b)
        assert np.linalg.norm(once - direct) <= 1e-9

    @given(st.integers(2, 6), st.integers(0, 10**6))
    @settings(max_examples=60)
    def test_sqrt_squares_back(self, dim, seed):
        m = random_psd(dim, seed)
        m /= m.trace().real
        root = psd_matrix_power(m, 0.5)
        assert np.linalg.norm(root @ root - m) <= 1e-9

    @given(st.integers(2, 6), st.integers(0, 10**6))
    @settings(max_examples=60)
    def test_trace_of_square_is_eigenvalue_sum(self, dim, seed):
        m = random_psd(dim, seed)
        m /= m.trace().real
        lhs = np.trace(psd_matrix_power(m, 2.0)).real
        rhs = float((hermitian_eig(m).values ** 2).sum())
        assert abs(lhs - rhs) <= 1e-10

