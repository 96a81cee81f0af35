import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import jacobi_eigenvalues, random_hermitian
from puritylab.errors import (
    DimMismatch,
    NegativeSpectrum,
    NotHermitian,
    ZeroToNegativePower,
)
from puritylab.linalg import (
    frobenius_distance,
    hermitian_eig,
    hermitian_eigenvalues,
    psd_matrix_power,
    trace,
)

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
        ours = hermitian_eigenvalues(h)
        ref = jacobi_eigenvalues(h)
        assert np.abs(ours - ref).max() <= 1e-10 * max(np.linalg.norm(h), 1.0)


class TestPsdMatrixPower:
    def test_scalar_matrix_square(self):
        out = psd_matrix_power(np.eye(4) / 4, 2.0)
        assert np.abs(out - np.eye(4) / 16).max() <= 1e-15

    def test_scalar_matrix_sqrt(self):
        out = psd_matrix_power(np.eye(2) / 2, 0.5)
        assert np.abs(out - np.eye(2) / np.sqrt(2)).max() <= 1e-15

    def test_projector_sqrt_of_square(self):
        assert frobenius_distance(psd_matrix_power(BELL @ BELL, 0.5), BELL) <= 1e-12

    def test_exponent_one_is_identity_map(self):
        m = random_psd(5, 3)
        assert frobenius_distance(psd_matrix_power(m, 1.0), m) <= 1e-12 * np.linalg.norm(m)

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
        assert frobenius_distance(once, direct) <= 1e-9

    @given(st.integers(2, 6), st.integers(0, 10**6))
    @settings(max_examples=60)
    def test_sqrt_squares_back(self, dim, seed):
        m = random_psd(dim, seed)
        m /= m.trace().real
        root = psd_matrix_power(m, 0.5)
        assert frobenius_distance(root @ root, m) <= 1e-9

    @given(st.integers(2, 6), st.integers(0, 10**6))
    @settings(max_examples=60)
    def test_trace_of_square_is_eigenvalue_sum(self, dim, seed):
        m = random_psd(dim, seed)
        m /= m.trace().real
        lhs = trace(psd_matrix_power(m, 2.0)).real
        rhs = float((hermitian_eigenvalues(m) ** 2).sum())
        assert abs(lhs - rhs) <= 1e-10


class TestTraceAndDistance:
    def test_trace_identity(self):
        assert trace(np.eye(4)) == 4.0

    def test_trace_werner_is_one(self):
        from oracles import werner_matrix

        assert abs(trace(werner_matrix(0.7)) - 1.0) <= 1e-15

    def test_distance_zero_iff_equal(self):
        assert frobenius_distance(np.eye(3), np.eye(3)) == 0.0

    def test_distance_identity_to_zero(self):
        assert abs(frobenius_distance(np.eye(2), np.zeros((2, 2))) - np.sqrt(2)) <= 1e-15

    def test_distance_rank_one_perturbation(self):
        rho = np.eye(4) / 4
        bumped = rho.copy()
        bumped[0, 0] += 1e-3
        assert abs(frobenius_distance(rho, bumped) - 1e-3) <= 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            frobenius_distance(np.eye(2), np.eye(3))
