import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    edge_state,
    ginibre,
    mpmath_sqrt_trace,
    numpy_sqrt_psd,
    one_state_values,
    scalar_find_delta_roots,
    werner_matrix,
)
from puritylab.density import (
    BlockShape,
    block_sum_map,
    block_trace_map,
    hermiticity_defect,
    make_density,
    purities,
    random_density,
    sample_blocks,
)
from puritylab.defaults import REPORT_TOL, VALIDATION_TOL
from puritylab.errors import BadInterval, DomainError, SpecError
from puritylab.inequalities import (
    _minkowski_terms,
    _sqrt_trace_stack,
    audit_reports,
    delta,
    find_delta_roots,
    purity_set,
)
from puritylab.linalg import hermitian_eig, spectra
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
    return {rep.name: one_state_values(rep) for rep in audit_reports(rho, tol)}[name]


def sqrt_trace(mat):
    """Tr A^(1/2) of one PSD Hermitian matrix: a one-matrix stack."""
    return float(_sqrt_trace_stack(mat[None])[0])


def sqrt_traces(rho):
    """The rhs of eq6 and of eq8 of one state."""
    s6, s8, *_ = _minkowski_terms(rho)
    return float(s6[0]), float(s8[0])


def mu_tilde(rho):
    return purity_set(rho).mu_tilde.item()


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
        from puritylab.states import gisin_state

        x, a, b = 0.3, 0.6, 0.8
        rep = check("eq5", gisin_state(x, a, b))
        expected = x * x * (2 * (a ** 4 + b ** 4) - 1)
        assert rep.lhs == pytest.approx(expected, abs=1e-12)


class TestMuTilde:
    @pytest.mark.parametrize("p", [-1 / 3, 0.0, 0.25, 0.8, 1.0])
    def test_werner_closed_form(self, p):
        assert mu_tilde(werner(p)) == pytest.approx(3 * p * p, abs=1e-12)

    def test_maximally_mixed(self):
        assert mu_tilde(mixed()) == pytest.approx(0.0, abs=1e-14)

    def test_gisin_closed_form_grid(self):
        from puritylab.states import gisin_state

        a, b = 0.6, 0.8
        for x in np.linspace(0.02, 0.51, 25):
            rho = gisin_state(float(x), a, b)
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


EPS = float(np.finfo(np.float64).eps)


class TestSqrtTrace:
    """Tr A^(1/2) read from the eigenvalues of A."""

    @pytest.mark.parametrize("shape", [SHAPE22, BlockShape(2, 3), BlockShape(3, 3)], ids=str)
    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_rebuilt_root(self, shape, seed):
        # Against the 40-digit root trace.  A zero eigenvalue comes back from
        # LAPACK as some N eps, and its square root as some sqrt(N eps), so a
        # reduction that is singular to rounding is held to N sqrt(N eps);
        # every other one to 1e-14 N.
        rho = random_state(seed, shape)
        squared = rho.mat @ rho.mat
        for reduced in (block_trace_map(squared, shape), block_sum_map(squared, shape)):
            dim = len(reduced)
            reference, smallest = mpmath_sqrt_trace(reduced)
            singular = abs(smallest) <= dim * EPS
            bound = dim * math.sqrt(dim * EPS) if singular else 1e-14 * dim
            assert abs(sqrt_trace(reduced) - reference) <= bound

    def test_clamps_small_negative_eigenvalues(self):
        # the beta state at 1/2 has the eigenvalues 0, 0, 1/2, 1/2; shifted
        # by -1e-12 its two zeros turn negative and are read as 0
        from puritylab.states import beta_state

        shifted = beta_state(0.5).mat - 1e-12 * np.eye(4)
        assert hermitian_eig(shifted).values[0] < 0.0
        expected = 2.0 * math.sqrt(0.5 - 1e-12)
        assert sqrt_trace(shifted) == pytest.approx(expected, abs=1e-15)
        rebuilt = float(numpy_sqrt_psd(shifted).trace().real)
        assert sqrt_trace(shifted) == pytest.approx(rebuilt, abs=1e-14)

    @given(seeds, st.sampled_from([SHAPE22, BlockShape(2, 3), BlockShape(3, 3)]))
    @settings(max_examples=150)
    def test_reductions_of_squared_validated_states_are_psd(self, seed, shape):
        # Why no negative eigenvalue is refused: for rho = H + S accepted at
        # the eigenvalue dip and the Hermiticity defect edges, the Hermitian
        # part of rho^2 is H^2 + S^2 >= -|S|^2, about -1e-19, so its
        # reductions are PSD up to rounding.
        rho = make_density(edge_state(shape.n, shape.m, seed), shape)
        assert hermiticity_defect(rho.mat) > 0.98 * VALIDATION_TOL
        assert spectra(rho.mat[None])[0, 0] < -0.98 * VALIDATION_TOL
        squared = rho.mat @ rho.mat
        for reduced in (block_trace_map(squared, shape), block_sum_map(squared, shape)):
            assert spectra(reduced[None])[0, 0] >= -1e-14
        assert math.isfinite(purity_set(rho).delta.item())

    @pytest.mark.parametrize("shape", [SHAPE22, BlockShape(2, 3), BlockShape(3, 3)], ids=str)
    def test_one_matrix_equals_block_value(self, shape):
        recipes = [("ginibre", k % shape.dim + 1, k) for k in range(20)]
        block = next(sample_blocks(shape, recipes))
        s6, s8, *_ = _minkowski_terms(block)
        squared = block.mats @ block.mats
        for i in range(len(block)):
            assert sqrt_trace(block_trace_map(squared[i], shape)) == s6[i]
            assert sqrt_trace(block_sum_map(squared[i], shape)) == s8[i]
            assert sqrt_traces(make_density(block.mats[i], shape)) == (s6[i], s8[i])


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
            assert rep.satisfied.item(), rep

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_degenerate_tol(self, tol):
        # tol=nan or -1 would judge every inequality unsatisfied, tol=inf
        # every one satisfied
        with pytest.raises(SpecError, match="tol must be a finite number >= 0"):
            audit_reports(werner(0.5), tol=tol)


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
        before = one_state_values(purity_set(rho))
        after = one_state_values(purity_set(make_density(u @ rho.mat @ u.conj().T, shape)))
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
        before, after = (one_state_values(purity_set(r)) for r in (rho, swapped))
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
        assert delta(werner(p)).item() == pytest.approx((9 * p * p - 1) / 4, abs=1e-12)

    def test_beta_state_positive(self):
        from puritylab.states import beta_state

        for beta in np.linspace(0, 1, 21):
            expected = 6 * beta * beta - 6 * beta + 2
            assert delta(beta_state(float(beta))).item() == pytest.approx(expected, abs=1e-12)
            assert expected > 0

    def test_maximally_mixed(self):
        assert delta(mixed()).item() == pytest.approx(-0.25, abs=1e-14)

    def test_swap_invariant_for_swap_symmetric_states(self):
        # Werner states are symmetric under exchanging the two maps: both
        # reductions coincide, so delta is unchanged if their roles swap.
        rho = werner(0.6)
        squared = rho.mat @ rho.mat
        bt = block_trace_map(squared, rho.shape)
        bs = block_sum_map(squared, rho.shape)
        s_bt = numpy_sqrt_psd(bt).trace().real
        s_bs = numpy_sqrt_psd(bs).trace().real
        swapped = s_bt * s_bt + s_bs * s_bs - 1.0 - purities(rho.mat)
        assert delta(rho).item() == pytest.approx(swapped, abs=1e-10)


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

    @pytest.mark.parametrize("grid", [2.5, 3.0, np.float64(11)])
    def test_non_integer_grid_rejected(self, grid):
        # grid=2.5 put grid points past hi: a root at 1.2 was found on [0, 1]
        with pytest.raises(BadInterval, match="grid must be an integer"):
            find_delta_roots(lambda x: x - 1.2, 0.0, 1.0, grid=grid)

    def test_numpy_integer_grid_accepted(self):
        assert find_delta_roots(lambda x: x, -1.0, 1.0, grid=np.int64(3), tol=1e-10) == [0.0]

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_bad_tol_refused_before_any_call(self, tol):
        # tol = 0 used to bisect forever and tol = nan to skip bisection; an f
        # that fails on its first call keeps a missing check from hanging
        def f(x):
            raise AssertionError("f called")
        with pytest.raises(SpecError, match="tol must be a finite number > 0"):
            find_delta_roots(f, 1.0, 2.0, grid=11, tol=tol)

    @given(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=4),
           st.floats(0.1, 10.0), st.booleans(), st.floats(-3.0, 0.0),
           st.floats(0.1, 5.0), st.integers(2, 300), st.floats(1e-12, 1e-4))
    @settings(max_examples=200)
    def test_bit_identical_to_scalar_search(self, zeros, scale, flip, lo, width,
                                            grid, tol):
        # a cubic or quartic with its zeros in or near [lo, lo + width]
        def f(x):
            value = -scale if flip else scale
            for z in zeros:
                value = value * (x - z)
            return value

        hi = lo + width
        found = find_delta_roots(f, lo, hi, grid=grid, tol=tol)
        expected = scalar_find_delta_roots(f, lo, hi, grid=grid, tol=tol)
        assert all(type(r) is float for r in found)
        assert [r.hex() for r in found] == [r.hex() for r in expected]

    def test_exact_zero_at_midpoint(self):
        # the first midpoint of [-1, 1] is 0, where f is exactly 0: the
        # bracket closes there after one step (with grid=4 the cell ends
        # -1/3 and 1/3 are not symmetric in floats, and no midpoint is 0)
        calls = []

        def f(x):
            calls.append(np.size(x))
            return x
        found = find_delta_roots(f, -1.0, 1.0, grid=2, tol=1e-10)
        assert calls == [2, 1]
        assert found == scalar_find_delta_roots(lambda x: x, -1.0, 1.0, grid=2, tol=1e-10)
        assert [r.hex() for r in found] == [(0.0).hex()]

    def test_nan_on_grid_raises(self):
        # read as positive, the NaN at x < 0 gave a false root near 0
        def f(x):
            return np.where(x >= 0.0, np.sqrt(np.abs(x)) - 0.5, np.nan)
        with pytest.raises(DomainError, match=r"not finite at x = -1\.0"):
            find_delta_roots(f, -1.0, 1.0, grid=101)

    def test_nan_at_midpoint_raises(self):
        # finite at both grid points, NaN at the first midpoint x = 0
        def f(x):
            return np.where(np.abs(x) < 0.5, np.nan, x)
        with pytest.raises(DomainError, match=r"not finite at x = 0\.0"):
            find_delta_roots(f, -1.0, 1.0, grid=2)

    def test_infinite_value_raises(self):
        with pytest.raises(DomainError, match="inf"):
            find_delta_roots(lambda x: np.where(x < 0.9, x - 0.2, np.inf), 0.0, 1.0, grid=3)

    def test_scalar_function_refused(self):
        with pytest.raises(SpecError, match="elementwise"):
            find_delta_roots(lambda x: 1.0, 0.0, 1.0)


class TestReportFields:
    def test_margin_sign_convention(self):
        rep = check("eq5", werner(0.8))
        assert rep.margin == pytest.approx(rep.rhs - rep.lhs, abs=0)
        assert rep.satisfied == (rep.margin >= -rep.tol)

    def test_reports_record_tolerance(self):
        rep = check("eq10", mixed(), tol=1e-6)
        assert rep.tol == 1e-6
