import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ginibre, numpy_psd_power, numpy_sqrt_psd, werner_matrix
from puritylab.density import (
    BlockShape,
    DensityBlock,
    block_sum_map,
    block_trace_map,
    make_density,
    purity,
    purity_set,
    random_density,
    sample_blocks,
)
from puritylab.defaults import CLAMP_TOL, REPORT_TOL
from puritylab.errors import BadInterval, DomainError, NegativeSpectrum
from puritylab.inequalities import (
    GEQ_EXPECTED,
    LEQ_EXPECTED,
    MinkowskiParams,
    _power_traces,
    _sqrt_traces,
    audit_reports,
    delta,
    find_delta_roots,
    minkowski_check,
    mu_tilde,
)
from puritylab.linalg import clamp_spectra, hermitian_eig
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
    return float(_power_traces(mat[None], 0.5)[0])


def sqrt_traces(rho):
    """The rhs of eq6 and of eq8 of one state."""
    s6, s8 = _sqrt_traces(DensityBlock.of(rho))
    return float(s6[0]), float(s8[0])


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
        for i, rho in enumerate(block.states()):
            assert sqrt_trace(block_trace_map(squared[i], shape)) == s6[i]
            assert sqrt_trace(block_sum_map(squared[i], shape)) == s8[i]
            assert sqrt_traces(rho) == (s6[i], s8[i])


class TestPowerTraces:
    """Tr A^e read from the clamped eigenvalues of A, one per matrix of a
    stack."""

    def test_exponent_one_gives_trace(self):
        mats = np.stack([random_state(seed, BlockShape(2, 3)).mat for seed in range(5)])
        assert np.abs(_power_traces(mats, 1.0) - 1.0).max() <= 1e-14

    @given(seeds)
    @settings(max_examples=60)
    def test_trace_of_square_is_purity(self, seed):
        # Tr A^2 = sum |a_ij|^2 for Hermitian A, with no eigensolve
        mats = np.stack([random_state(seed + k, BlockShape(2, 3)).mat for k in range(3)])
        expected = (np.abs(mats) ** 2).sum(axis=(1, 2))
        assert np.abs(_power_traces(mats, 2.0) - expected).max() <= 1e-14

    @pytest.mark.parametrize("shape", [SHAPE22, BlockShape(2, 3), BlockShape(3, 3)], ids=str)
    def test_half_power_is_sqrt_bit_for_bit(self, shape):
        # x ** 0.5 and np.sqrt(x) round alike, so the square-root traces
        # behind mu_tilde keep their bits
        recipes = [("ginibre", k % shape.dim + 1, k) for k in range(20)]
        mats = next(sample_blocks(shape, recipes)).mats
        squared = mats @ mats
        for reduced in (block_trace_map(squared, shape), block_sum_map(squared, shape)):
            values = np.array([hermitian_eig(a).values for a in reduced])
            expected = np.sqrt(clamp_spectra(values)).sum(axis=1)
            assert _power_traces(reduced, 0.5).tobytes() == expected.tobytes()


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
        rep6 = check("eq6", rho)
        rep8 = check("eq8", rho)
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

    @pytest.mark.parametrize("shape", [SHAPE22, BlockShape(2, 3), BlockShape(3, 2),
                                       BlockShape(3, 3)], ids=str)
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.5])
    def test_equal_parameters_equal_sides(self, shape, p):
        # at p = q both sides are (Tr rho^p)^(1/p); full rank, since at
        # p < 1 a zero eigenvalue's rounding is magnified
        for seed in range(5):
            rho = random_density(shape.n, shape.m, shape.dim, seed)
            rep = minkowski_check(rho, MinkowskiParams(p, p))
            expected = float((np.linalg.eigvalsh(rho.mat) ** p).sum()) ** (1 / p)
            assert rep.direction == LEQ_EXPECTED and rep.satisfied
            assert abs(rep.lhs - rep.rhs) <= 1e-13 * rep.rhs
            assert rep.lhs == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("shape", [SHAPE22, BlockShape(2, 3), BlockShape(3, 2),
                                       BlockShape(3, 3)], ids=str)
    def test_q_below_one_measured_leq(self, shape):
        # Measured, not proved: with q < p the lhs stays below the rhs on
        # full-rank Ginibre states also where min(p, q) < 1.
        for seed in range(10):
            rho = random_density(shape.n, shape.m, shape.dim, seed)
            for p, q in [(1.0, 0.5), (3.0, 0.5), (0.8, 0.3), (4.0, 0.2)]:
                rep = minkowski_check(rho, MinkowskiParams(p, q))
                assert rep.direction == LEQ_EXPECTED and rep.untested_regime
                assert rep.satisfied and rep.lhs < rep.rhs, (seed, p, q)

    @pytest.mark.parametrize("shape", [SHAPE22, BlockShape(2, 3), BlockShape(3, 3)], ids=str)
    def test_matches_rebuilt_powers(self, shape):
        # Against both sides built from four numpy spectral powers: 1e-13
        # relative at full rank, 1e-7 at lower rank with min(p/q, q/p) >= 1/2
        # (the square root of a zero eigenvalue's rounding is about 1e-8).
        probes = [(p, q) for p in (0.5, 1.0, 2.0, 3.0) for q in (0.5, 1.0, 2.0, 3.0)]
        for seed in range(6):
            rank = shape.dim if seed % 2 == 0 else seed % (shape.dim - 1) + 1
            rho = random_density(shape.n, shape.m, rank, seed)
            bound = 1e-13 if rank == shape.dim else 1e-7
            for p, q in probes:
                if rank < shape.dim and min(p / q, q / p) < 0.5:
                    continue
                rep = minkowski_check(rho, MinkowskiParams(p, q))
                inner_lhs = numpy_psd_power(
                    block_sum_map(numpy_psd_power(rho.mat, q), shape), p / q)
                inner_rhs = numpy_psd_power(
                    block_trace_map(numpy_psd_power(rho.mat, p), shape), q / p)
                assert rep.lhs == pytest.approx(
                    inner_lhs.trace().real ** (1 / p), rel=bound), (seed, p, q)
                assert rep.rhs == pytest.approx(
                    inner_rhs.trace().real ** (1 / q), rel=bound), (seed, p, q)

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
        rep = check("eq5", werner(0.8))
        assert rep.direction == LEQ_EXPECTED
        assert rep.margin == pytest.approx(rep.rhs - rep.lhs, abs=0)
        assert rep.satisfied == (rep.margin >= -rep.tol)

    def test_reports_record_tolerance(self):
        rep = check("eq10", mixed(), tol=1e-6)
        assert rep.tol == 1e-6
