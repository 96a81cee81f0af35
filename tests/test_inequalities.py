import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ginibre, numpy_sqrt_psd, werner_matrix
from puritylab.density import (
    BlockShape,
    block_sum_map,
    block_trace_map,
    make_density,
    purity,
    purity_set,
    random_density,
)
from puritylab.errors import BadInterval, DomainError
from puritylab.inequalities import (
    GEQ_EXPECTED,
    LEQ_EXPECTED,
    MinkowskiParams,
    audit_reports,
    check_eq5,
    check_eq6,
    check_eq8,
    check_eq9,
    check_eq10,
    delta,
    eq6_rhs,
    eq8_rhs,
    find_delta_roots,
    minkowski_check,
    mu_tilde,
)
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


class TestEq5:
    @pytest.mark.parametrize("p", [-1 / 3, 0.0, 0.5, 1.0])
    def test_werner(self, p):
        rep = check_eq5(werner(p))
        assert rep.lhs == pytest.approx(0.0, abs=1e-14)
        assert rep.rhs == pytest.approx((3 * p * p + 1) / 4, abs=1e-14)
        assert rep.satisfied

    def test_pure_product_equality(self):
        rep = check_eq5(pure_product())
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs == pytest.approx(1.0, abs=1e-12)
        assert abs(rep.margin) <= 1e-12

    def test_gisin_lhs_closed_form(self):
        from puritylab.states import GisinParams, gisin_state

        x, a, b = 0.3, 0.6, 0.8
        rep = check_eq5(gisin_state(GisinParams(x=x, a=a, b=b)))
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


class TestEq6Eq8:
    @pytest.mark.parametrize("p", [0.0, 0.4, 1.0])
    def test_werner_sides(self, p):
        rep6 = check_eq6(werner(p))
        rep8 = check_eq8(werner(p))
        expected_rhs = math.sqrt(6 * p * p + 2) / 2
        for rep in (rep6, rep8):
            assert rep.lhs == pytest.approx(1 / math.sqrt(2), abs=1e-12)
            assert rep.rhs == pytest.approx(expected_rhs, abs=1e-12)
            assert rep.satisfied

    def test_maximally_mixed_equality(self):
        rep = check_eq6(mixed())
        assert rep.lhs == pytest.approx(1 / math.sqrt(2), abs=1e-14)
        assert abs(rep.margin) <= 1e-12

    def test_bell_state(self):
        rep = check_eq6(werner(1.0))
        assert rep.rhs == pytest.approx(math.sqrt(2), abs=1e-12)


class TestEq9Eq10:
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_werner_eq10(self, p):
        rep = check_eq10(werner(p))
        assert rep.lhs == pytest.approx(0.0, abs=1e-14)
        assert rep.rhs == pytest.approx(3 * p * p, abs=1e-12)

    def test_beta_state_eq10(self):
        from puritylab.states import beta_state

        for beta in (0.0, 0.3, 0.5, 1.0):
            rep = check_eq10(beta_state(beta))
            assert rep.lhs == pytest.approx(0.0, abs=1e-14)
            assert rep.rhs == pytest.approx(8 * beta * beta - 8 * beta + 3, abs=1e-12)

    def test_maximally_mixed_equality(self):
        rep = check_eq10(mixed())
        assert abs(rep.lhs) <= 1e-14
        assert abs(rep.rhs) <= 1e-13

    @given(seeds)
    @settings(max_examples=80)
    def test_eq9_on_random_states(self, seed):
        rep = check_eq9(random_state(seed))
        assert rep.margin >= -1e-9


class TestAuditReports:
    @given(seeds)
    @settings(max_examples=40)
    def test_matches_individual_checks(self, seed):
        rho = random_state(seed)
        batched = {rep.name: rep for rep in audit_reports(rho)}
        singles = [check_eq5(rho), check_eq6(rho), check_eq8(rho),
                   check_eq9(rho), check_eq10(rho)]
        assert set(batched) == {"eq5", "eq6", "eq8", "eq9", "eq10"}
        for single in singles:
            assert batched[single.name].lhs == pytest.approx(single.lhs, abs=1e-13)
            assert batched[single.name].rhs == pytest.approx(single.rhs, abs=1e-13)

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
        assert abs(eq6_rhs(swapped) - eq8_rhs(rho)) <= tol
        assert abs(eq8_rhs(swapped) - eq6_rhs(rho)) <= tol
        assert abs(after.mu_tilde - before.mu_tilde) <= tol


class TestMinkowski:
    def test_trivial_pair(self):
        rep = minkowski_check(mixed(), MinkowskiParams(1.0, 1.0))
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs == pytest.approx(1.0, abs=1e-12)
        assert abs(rep.margin) <= 1e-12
        assert rep.direction == LEQ_EXPECTED

    def test_equal_parameters_on_mixed(self):
        rep = minkowski_check(mixed(), MinkowskiParams(2.0, 2.0))
        assert rep.lhs == pytest.approx(0.5, abs=1e-12)
        assert rep.rhs == pytest.approx(0.5, abs=1e-12)

    @given(seeds)
    @settings(max_examples=40)
    def test_consistent_with_eq6_eq8(self, seed):
        rho = random_state(seed)
        rep6 = check_eq6(rho)
        rep8 = check_eq8(rho)
        mink21 = minkowski_check(rho, MinkowskiParams(p=2.0, q=1.0))
        mink12 = minkowski_check(rho, MinkowskiParams(p=1.0, q=2.0))
        # (p,q)=(2,1): lhs^2 = mu2, rhs = eq6 rhs;  (p,q)=(1,2): reversed
        assert mink21.direction == LEQ_EXPECTED
        assert mink12.direction == GEQ_EXPECTED
        assert mink21.lhs ** 2 == pytest.approx(rep6.lhs ** 2, abs=1e-10)
        assert mink21.rhs == pytest.approx(rep6.rhs, abs=1e-10)
        assert mink12.lhs == pytest.approx(rep8.rhs, abs=1e-10)
        assert mink12.rhs ** 2 == pytest.approx(rep8.lhs ** 2, abs=1e-10)

    def test_untested_regime_flagged(self):
        rep = minkowski_check(mixed(), MinkowskiParams(p=0.5, q=2.0))
        assert rep.untested_regime
        rep = minkowski_check(mixed(), MinkowskiParams(p=3.0, q=2.0))
        assert not rep.untested_regime

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(DomainError):
            MinkowskiParams(p=0.0, q=1.0)
        with pytest.raises(DomainError):
            MinkowskiParams(p=1.0, q=-2.0)


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
        rep = check_eq5(werner(0.8))
        assert rep.direction == LEQ_EXPECTED
        assert rep.margin == pytest.approx(rep.rhs - rep.lhs, abs=0)
        assert rep.satisfied == (rep.margin >= -rep.tol)

    def test_reports_record_tolerance(self):
        rep = check_eq10(mixed(), tol=1e-6)
        assert rep.tol == 1e-6
