import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ginibre, numpy_sqrt_psd, werner_matrix
from puritylab.density import (
    BlockShape,
    DensityBlock,
    block_sum_map,
    block_trace_map,
    make_density,
    purity,
    random_density,
    sample_blocks,
)
from puritylab.defaults import CLAMP_TOL, REPORT_TOL
from puritylab.errors import BadInterval, NegativeSpectrum
from puritylab.inequalities import (
    _sqrt_trace_stack,
    _sqrt_traces,
    audit_reports,
    delta,
    find_delta_roots,
    purity_set,
)
from puritylab.linalg import hermitian_eig
from puritylab.prng import SplitMix64

SHAPE22 = BlockShape(2, 2)
seeds = st.integers(0, 10**6)


def werner(p):
    return make_density(werner_matrix(p), SHAPE22)


def mixed():
    return make_density(np.eye(4) / 4, SHAPE22)


def pure_product():
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = 1.0
    return make_density(mat, SHAPE22)


def random_state(seed, shape=SHAPE22):
    return random_density(shape.n, shape.m, seed % shape.dim + 1, seed)


def check(name, rho, tol=REPORT_TOL):
    """The report of one inequality (eq5, eq6, eq8, eq9 or eq10) on rho."""
    return {rep.name: rep for rep in audit_reports(rho, tol)}[name]


def sqrt_trace(mat):
    """Tr A^(1/2) of one PSD Hermitian matrix: a one-matrix stack."""
    return float(_sqrt_trace_stack(mat[None])[0])


def sqrt_traces(rho):
    """The rhs of eq6 and of eq8 of one state."""
    s6, s8 = _sqrt_traces(DensityBlock.of(rho))
    return float(s6[0]), float(s8[0])


def mu_tilde(rho):
    return purity_set(rho).mu_tilde


class TestEq5:
    @pytest.mark.parametrize("p", [-1 / 3, 0.0, 0.5, 1.0])
    def test_werner(self, p):
        rep = check("eq5", werner(p))
        assert rep.lhs == pytest.approx(0.0, abs=1e-14)
        assert rep.rhs == pytest.approx((3 * p * p + 1) / 4, abs=1e-14)
        assert rep.satisfied

    def test_pure_product_equality(self):
        rep = check("eq5", pure_product())
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs == pytest.approx(1.0, abs=1e-12)
        assert abs(rep.margin) <= 1e-12

    def test_gisin_lhs_closed_form(self):
        from puritylab.states import GisinParams, gisin_state

        x, a, b = 0.3, 0.6, 0.8
        rep = check("eq5", gisin_state(GisinParams(x=x, a=a, b=b)))
        expected = x * x * (2 * (a ** 4 + b ** 4) - 1)
        assert rep.lhs == pytest.approx(expected, abs=1e-12)


class TestMuTilde:
    @pytest.mark.parametrize("p", [-1 / 3, 0.0, 0.25, 0.8, 1.0])
    def test_werner_closed_form(self, p):
        assert mu_tilde(werner(p)) == pytest.approx(3 * p * p, abs=1e-12)

    def test_maximally_mixed(self):
        assert mu_tilde(mixed()) == pytest.approx(0.0, abs=1e-14)

    def test_gisin_closed_form_grid(self):
        from puritylab.states import GisinParams, gisin_state

        a, b = 0.6, 0.8
        for x in np.linspace(0.02, 0.51, 25):
            rho = gisin_state(GisinParams(x=float(x), a=a, b=b))
            expected = x * (3 * x - 2) + math.sqrt(
                x * x * (4 * a * a + 1) - 2 * x + 1
            ) * math.sqrt(x * x * (4 * b * b + 1) - 2 * x + 1)
            assert mu_tilde(rho) == pytest.approx(expected, abs=1e-10)

    @given(seeds)
    @settings(max_examples=60)
    def test_spectral_pipeline_matches_numpy_sqrt(self, seed):
        rho = random_state(seed)
        squared = rho.mat @ rho.mat
        s6 = numpy_sqrt_psd(block_trace_map(squared, rho.shape)).trace().real
        s8 = numpy_sqrt_psd(block_sum_map(squared, rho.shape)).trace().real
        assert mu_tilde(rho) == pytest.approx(s8 * s8 + s6 * s6 - 1.0, abs=1e-10)


class TestSqrtTrace:
    """Tr A^(1/2) read from the eigenvalues of A, against the trace of the
    rebuilt spectral square root."""

    @pytest.mark.parametrize("shape", [SHAPE22, BlockShape(2, 3), BlockShape(3, 3)], ids=str)
    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_rebuilt_root(self, shape, seed):
        rho = random_state(seed, shape)
        squared = rho.mat @ rho.mat
        for reduced in (block_trace_map(squared, shape), block_sum_map(squared, shape)):
            rebuilt = float(numpy_sqrt_psd(reduced).trace().real)
            assert abs(sqrt_trace(reduced) - rebuilt) <= 1e-14 * len(reduced)

    def test_clamps_small_negative_eigenvalues(self):
        # the beta state at 1/2 has the eigenvalues 0, 0, 1/2, 1/2; shifted
        # by -1e-12 its two zeros fall inside [-CLAMP_TOL, 0)
        from puritylab.states import beta_state

        shifted = beta_state(0.5).mat - 1e-12 * np.eye(4)
        assert hermitian_eig(shifted).values[0] < 0.0
        expected = 2.0 * math.sqrt(0.5 - 1e-12)
        assert sqrt_trace(shifted) == pytest.approx(expected, abs=1e-15)
        rebuilt = float(numpy_sqrt_psd(shifted).trace().real)
        assert sqrt_trace(shifted) == pytest.approx(rebuilt, abs=1e-14)

    def test_negative_spectrum_below_clamp(self):
        from puritylab.states import beta_state

        with pytest.raises(NegativeSpectrum):
            sqrt_trace(beta_state(0.5).mat - 2.0 * CLAMP_TOL * np.eye(4))

    @pytest.mark.parametrize("shape", [SHAPE22, BlockShape(2, 3), BlockShape(3, 3)], ids=str)
    def test_one_matrix_equals_block_value(self, shape):
        recipes = [("ginibre", k % shape.dim + 1, k) for k in range(20)]
        block = next(sample_blocks(shape, recipes))
        s6, s8 = _sqrt_traces(block)
        squared = block.mats @ block.mats
        for i in range(len(block)):
            assert sqrt_trace(block_trace_map(squared[i], shape)) == s6[i]
            assert sqrt_trace(block_sum_map(squared[i], shape)) == s8[i]
            assert sqrt_traces(block.state(i)) == (s6[i], s8[i])


class TestEq6Eq8:
    @pytest.mark.parametrize("p", [0.0, 0.4, 1.0])
    def test_werner_sides(self, p):
        rep6 = check("eq6", werner(p))
        rep8 = check("eq8", werner(p))
        expected_rhs = math.sqrt(6 * p * p + 2) / 2
        for rep in (rep6, rep8):
            assert rep.lhs == pytest.approx(1 / math.sqrt(2), abs=1e-12)
            assert rep.rhs == pytest.approx(expected_rhs, abs=1e-12)
            assert rep.satisfied

    def test_maximally_mixed_equality(self):
        rep = check("eq6", mixed())
        assert rep.lhs == pytest.approx(1 / math.sqrt(2), abs=1e-14)
        assert abs(rep.margin) <= 1e-12

    def test_bell_state(self):
        rep = check("eq6", werner(1.0))
        assert rep.rhs == pytest.approx(math.sqrt(2), abs=1e-12)


class TestEq9Eq10:
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_werner_eq10(self, p):
        rep = check("eq10", werner(p))
        assert rep.lhs == pytest.approx(0.0, abs=1e-14)
        assert rep.rhs == pytest.approx(3 * p * p, abs=1e-12)

    def test_beta_state_eq10(self):
        from puritylab.states import beta_state

        for beta in (0.0, 0.3, 0.5, 1.0):
            rep = check("eq10", beta_state(beta))
            assert rep.lhs == pytest.approx(0.0, abs=1e-14)
            assert rep.rhs == pytest.approx(8 * beta * beta - 8 * beta + 3, abs=1e-12)

    def test_maximally_mixed_equality(self):
        rep = check("eq10", mixed())
        assert abs(rep.lhs) <= 1e-14
        assert abs(rep.rhs) <= 1e-13

    @given(seeds)
    @settings(max_examples=80)
    def test_eq9_on_random_states(self, seed):
        rep = check("eq9", random_state(seed))
        assert rep.margin >= -1e-9


class TestAuditReports:
    @given(seeds, st.sampled_from([BlockShape(2, 2), BlockShape(2, 3)]))
    @settings(max_examples=80)
    def test_all_hold_on_random_states(self, seed, shape):
        for rep in audit_reports(random_state(seed, shape)):
            assert rep.satisfied, rep


SYMMETRY_SHAPES = [BlockShape(2, 2), BlockShape(2, 3), BlockShape(3, 2)]


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Q factor of a seeded Ginibre matrix."""
    return np.linalg.qr(ginibre(dim, dim, SplitMix64(seed)))[0]


def swap_subsystems(rho):
    """The same state with the block and in-block indices exchanged."""
    n, m = rho.shape.n, rho.shape.m
    swapped = rho.mat.reshape(n, m, n, m).transpose(1, 0, 3, 2).reshape(n * m, n * m)
    return make_density(swapped, BlockShape(m, n))


def sqrt_trace_tol(rho) -> float:
    """Agreement bound for quantities built from Tr A^(1/2), A a reduction of rho^2.

    A rank-r state on n x m has reductions of rank min(n, r*m) and
    min(m, r*n).  Where one is singular, Tr A^(1/2) carries rounding noise of
    order sqrt(eps * ||A||) ~ 1e-8 (5.2e-8 measured on 6000 pure 2x3 and
    3x2 states), so 1e-6 applies there and 1e-10 everywhere else.
    """
    n, m = rho.shape.n, rho.shape.m
    rank = int(np.linalg.matrix_rank(rho.mat, tol=1e-8))
    return 1e-10 if rank * min(n, m) >= max(n, m) else 1e-6


class TestSymmetries:
    @given(seeds, st.sampled_from(SYMMETRY_SHAPES))
    @settings(max_examples=60)
    def test_local_unitary_invariance(self, seed, shape):
        rho = random_state(seed, shape)
        u = np.kron(random_unitary(shape.n, seed + 1),
                    random_unitary(shape.m, seed + 2))
        before = purity_set(rho)
        after = purity_set(make_density(u @ rho.mat @ u.conj().T, shape))
        assert abs(after.mu12 - before.mu12) <= 1e-10
        assert abs(after.mu1 - before.mu1) <= 1e-10
        assert abs(after.mu2 - before.mu2) <= 1e-10
        assert abs(after.mu_tilde - before.mu_tilde) <= sqrt_trace_tol(rho)

    @given(seeds, st.sampled_from(SYMMETRY_SHAPES))
    @settings(max_examples=60)
    def test_subsystem_swap(self, seed, shape):
        rho = random_state(seed, shape)
        swapped = swap_subsystems(rho)
        tol = sqrt_trace_tol(rho)
        before, after = purity_set(rho), purity_set(swapped)
        assert abs(after.mu1 - before.mu2) <= 1e-10
        assert abs(after.mu2 - before.mu1) <= 1e-10
        s6, s8 = sqrt_traces(rho)
        swapped6, swapped8 = sqrt_traces(swapped)
        assert abs(swapped6 - s8) <= tol
        assert abs(swapped8 - s6) <= tol
        assert abs(after.mu_tilde - before.mu_tilde) <= tol


class TestDelta:
    @pytest.mark.parametrize("p", [-1 / 3, 0.0, 1 / 3, 0.7, 1.0])
    def test_werner_closed_form(self, p):
        assert delta(werner(p)) == pytest.approx((9 * p * p - 1) / 4, abs=1e-12)

    def test_beta_state_positive(self):
        from puritylab.states import beta_state

        for beta in np.linspace(0, 1, 21):
            expected = 6 * beta * beta - 6 * beta + 2
            assert delta(beta_state(float(beta))) == pytest.approx(expected, abs=1e-12)
            assert expected > 0

    def test_maximally_mixed(self):
        assert delta(mixed()) == pytest.approx(-0.25, abs=1e-14)

    def test_swap_invariant_for_swap_symmetric_states(self):
        # Werner states are symmetric under exchanging the two maps: both
        # reductions coincide, so delta is unchanged if their roles swap.
        rho = werner(0.6)
        squared = rho.mat @ rho.mat
        bt = block_trace_map(squared, rho.shape)
        bs = block_sum_map(squared, rho.shape)
        s_bt = numpy_sqrt_psd(bt).trace().real
        s_bs = numpy_sqrt_psd(bs).trace().real
        swapped = s_bt * s_bt + s_bs * s_bs - 1.0 - purity(rho)
        assert delta(rho) == pytest.approx(swapped, abs=1e-10)


class TestFindDeltaRoots:
    def test_werner_roots(self):
        f = lambda p: (9 * p * p - 1) / 4
        roots = find_delta_roots(f, -1 / 3, 1.0, grid=1000, tol=1e-10)
        assert len(roots) == 2
        assert roots[0] == pytest.approx(-1 / 3, abs=1e-9)
        assert roots[1] == pytest.approx(1 / 3, abs=1e-9)

    def test_beta_has_no_roots(self):
        f = lambda b: 6 * b * b - 6 * b + 2
        assert find_delta_roots(f, 0.0, 1.0) == []

    def test_linear(self):
        roots = find_delta_roots(lambda x: x, -1.0, 1.0, grid=101, tol=1e-10)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.0, abs=1e-9)

    def test_grid_point_root_reported_once(self):
        roots = find_delta_roots(lambda x: x, -1.0, 1.0, grid=3, tol=1e-10)
        assert len(roots) == 1
        assert roots[0] == 0.0

    def test_bad_interval(self):
        with pytest.raises(BadInterval):
            find_delta_roots(lambda x: x, 1.0, -1.0)
        with pytest.raises(BadInterval):
            find_delta_roots(lambda x: x, 0.0, 1.0, grid=1)


class TestReportFields:
    def test_margin_sign_convention(self):
        rep = check("eq5", werner(0.8))
        assert rep.margin == pytest.approx(rep.rhs - rep.lhs, abs=0)
        assert rep.satisfied == (rep.margin >= -rep.tol)

    def test_reports_record_tolerance(self):
        rep = check("eq10", mixed(), tol=1e-6)
        assert rep.tol == 1e-6
