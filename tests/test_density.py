import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    dipped_diagonal,
    index_block_sum,
    index_block_trace,
    one_state_values,
    skewed_pure_state,
    werner_matrix,
)
from puritylab.defaults import VALIDATION_TOL
from puritylab.density import (
    BlockShape,
    DensityBlock,
    block_sum_map,
    block_trace_map,
    hermiticity_defect,
    make_density,
    purities,
    random_density,
    reduced_blocks,
    validate_block,
)
from puritylab.errors import (
    BadRank,
    DimMismatch,
    DomainError,
    NotHermitian,
    NotPositive,
    ShapeMismatch,
    TraceNotOne,
)
from puritylab.inequalities import audit_reports, delta, purity_set
from puritylab.linalg import hermitian_eig
from puritylab.states import gisin_state, gisin_x_max, ppt_entangled
from puritylab.sweep import scan_state

SHAPE22 = BlockShape(2, 2)
SHAPES = [BlockShape(2, 2), BlockShape(2, 3), BlockShape(3, 2), BlockShape(4, 2)]

seeds = st.integers(0, 10**6)


def mixed_state():
    return make_density(np.eye(4) / 4, SHAPE22)


def reduced_states(rho):
    """The n x n (over the inner index) and m x m (over the outer index)
    reduced matrices of a one-state block."""
    return [reduced[0] for reduced in reduced_blocks(rho)]


def random_state(shape: BlockShape, seed: int, rank: int | None = None):
    if rank is None:
        rank = seed % shape.dim + 1
    return random_density(shape.n, shape.m, rank, seed)


class TestMakeDensity:
    def test_maximally_mixed_is_valid(self):
        rho = mixed_state()
        assert rho.shape == SHAPE22

    def test_input_stored_unmodified(self):
        mat = werner_matrix(0.4)
        rho = make_density(mat, SHAPE22)
        assert np.array_equal(rho.mat, mat)

    def test_werner_outside_domain_not_positive(self):
        with pytest.raises(NotPositive):
            make_density(werner_matrix(1.5), SHAPE22)

    def test_xstate_coherence_too_large_not_positive(self):
        mat = np.diag([0.4, 0.1, 0.1, 0.4]).astype(complex)
        mat[1, 2] = mat[2, 1] = 0.2  # rho22*rho33 = 0.01 < |rho23|^2 = 0.04
        with pytest.raises(NotPositive):
            make_density(mat, SHAPE22)

    def test_non_hermitian_rejected(self):
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 1] = 0.1
        with pytest.raises(NotHermitian):
            make_density(mat, SHAPE22)

    def test_wrong_trace_rejected(self):
        with pytest.raises(TraceNotOne):
            make_density(np.eye(4) / 2, SHAPE22)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            make_density(np.eye(4) / 4, BlockShape(2, 3))

    @pytest.mark.parametrize("n, m", [(2.5, 2), (2, 2.0), (np.float64(2), 2)])
    def test_non_integer_block_shape_rejected(self, n, m):
        # BlockShape(2.5, 2) had dim 5.0: a 5x5 matrix passed validation,
        # and purity_set then raised a bare TypeError
        with pytest.raises(ShapeMismatch, match="must be an integer"):
            BlockShape(n, m)

    def test_numpy_integer_block_shape_accepted(self):
        shape = BlockShape(np.int64(2), np.int32(2))
        assert make_density(np.eye(4) / 4, shape).shape == SHAPE22

    def test_no_silent_renormalization(self):
        with pytest.raises(TraceNotOne):
            make_density(np.eye(4), SHAPE22)
        mat = np.eye(4) / 4
        assert make_density(mat, SHAPE22).mat.tobytes() == mat.astype(complex).tobytes()


class TestOneStateBlock:
    """A single state is a one-state block; readers of one state refuse a
    longer block."""

    def test_mat_has_the_bytes_of_the_input(self):
        mat = np.array(random_density(2, 3, 4, seed=5).mat)  # complex entries
        rho = make_density(mat, BlockShape(2, 3))
        assert len(rho) == 1 and rho.mat.tobytes() == mat.tobytes()
        assert not rho.mat.flags.writeable

    def test_two_state_block_refused(self):
        block = validate_block(np.stack([werner_matrix(0.2), werner_matrix(0.8)]), SHAPE22)
        with pytest.raises(DimMismatch):
            block.mat
        # the evaluations give one entry per state, which .item() refuses
        for values in (delta(block), purity_set(block).delta, audit_reports(block)[0].margin,
                       ppt_entangled(block)):
            assert values.shape == (2,)
            with pytest.raises(ValueError, match="size 1"):
                values.item()


class TestValidateBlock:
    def test_states_equal_one_state_validation(self):
        mats = np.stack([werner_matrix(p) for p in (-0.2, 0.3, 1.0)])
        block = validate_block(mats, SHAPE22)
        assert len(block) == 3 and not block.mats.flags.writeable
        for i, mat in enumerate(mats):
            assert block.mats[i].tobytes() == make_density(mat, SHAPE22).mat.tobytes()

    @pytest.mark.parametrize("bad, error", [
        ((werner_matrix(1.5), np.eye(4) / 2), NotPositive),
        ((np.eye(4) / 2, werner_matrix(1.5)), TraceNotOne),
        ((np.triu(np.ones((4, 4))) / 4, werner_matrix(1.5)), NotHermitian),
        ((np.full((4, 4), np.nan), np.eye(4) / 2), DomainError),
    ])
    def test_first_bad_state_decides_the_error(self, bad, error):
        # the error make_density raises for the first state that fails
        mats = np.stack([werner_matrix(0.2), *bad, werner_matrix(0.4)])
        with pytest.raises(error):
            validate_block(mats, SHAPE22)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            validate_block(np.stack([np.eye(4) / 4] * 2), BlockShape(2, 3))

    @pytest.mark.parametrize("shape", [(0, 4, 4), (4, 4), (2, 4, 3)])
    def test_not_a_stack_rejected(self, shape):
        with pytest.raises(DimMismatch):
            validate_block(np.zeros(shape), SHAPE22)


def smallest_eigenvalue_off(dev):
    """Unit trace, Hermitian, smallest eigenvalue -dev."""
    return np.diag([0.5 + dev, 0.5, 0.0, -dev]).astype(complex)


def hermiticity_off(dev):
    """Unit trace, PSD Hermitian part, largest entry of m - m^dagger dev."""
    mat = np.eye(4, dtype=complex) / 4
    mat[0, 1] = dev
    return mat


def trace_off(dev):
    """Hermitian, PSD, trace 1 + dev."""
    return np.diag([0.25 + dev, 0.25, 0.25, 0.25]).astype(complex)


class TestValidationEdges:
    """Each validation check accepts a defect of half VALIDATION_TOL and
    rejects one of twice VALIDATION_TOL."""

    @pytest.mark.parametrize("build, error", [
        (smallest_eigenvalue_off, NotPositive),
        (hermiticity_off, NotHermitian),
        (trace_off, TraceNotOne),
    ], ids=["smallest-eigenvalue", "hermiticity", "trace"])
    def test_tolerance_edge(self, build, error):
        assert make_density(build(0.5 * VALIDATION_TOL), SHAPE22) is not None
        with pytest.raises(error):
            make_density(build(2.0 * VALIDATION_TOL), SHAPE22)

    def test_gisin_x_max_edge(self):
        a, b = 0.6, 0.8
        x_max = gisin_x_max(a, b)
        gisin_state(x_max + 0.5 * VALIDATION_TOL, a, b)
        with pytest.raises(DomainError, match="separability threshold x_max"):
            gisin_state(x_max + 2.0 * VALIDATION_TOL, a, b)

    def test_entry_bound_edge(self, eigh_counts):
        # a unit-trace PSD matrix has |rho_ij| <= 1: a pure state with
        # rho_00 = 1 passes, an entry of modulus 1 + 2 tol fails before any
        # eigensolve
        pure = np.zeros((4, 4), dtype=complex)
        pure[0, 0] = 1.0
        assert make_density(pure, SHAPE22) is not None
        eigh_counts.clear()
        bad = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        bad[0, 1] = bad[1, 0] = 1.0 + 2.0 * VALIDATION_TOL
        with pytest.raises(NotPositive, match="entry modulus .* exceeds 1 by 2.000e-10"):
            make_density(bad, SHAPE22)
        assert not eigh_counts


class TestValidatedOnce:
    """A state is validated once, where it enters the package; evaluating an
    accepted state never refuses it again."""

    @pytest.mark.parametrize("n, m", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_accepted_skewed_states_are_evaluated(self, n, m):
        # the reductions sum n or m entries, so their Hermiticity defect can
        # exceed VALIDATION_TOL although the state's is 0.9 VALIDATION_TOL
        reduced_defects = []
        for seed in range(8):
            mat = skewed_pure_state(n, m, seed)
            assert 0.85 * VALIDATION_TOL <= hermiticity_defect(mat) <= 0.95 * VALIDATION_TOL
            rho = make_density(mat, BlockShape(n, m))
            reduced_defects += [hermiticity_defect(block_trace_map(rho.mat, rho.shape)),
                                hermiticity_defect(block_sum_map(rho.mat, rho.shape))]
            assert purity_set(rho).delta.item() == delta(rho).item()
            assert len(audit_reports(rho)) == 5
            if (n, m) != (3, 3):
                ppt_entangled(rho)
            for reduced in reduced_blocks(rho):
                assert not reduced.flags.writeable
        assert max(reduced_defects) > VALIDATION_TOL

    @pytest.mark.parametrize("n, m", [(2, 2), (2, 3), (3, 2), (3, 3)])
    @pytest.mark.parametrize("outer", [False, True], ids=["dip-inner", "dip-outer"])
    def test_accepted_eigenvalue_dips_are_evaluated(self, n, m, outer):
        # Tr_A rho >= d_A lambda_min(rho) I: tracing out the dipped index
        # multiplies the dip by the traced dimension d_A, to -0.9 d_A
        # VALIDATION_TOL, and the reduction is still accepted
        rho = make_density(dipped_diagonal(n, m, outer), BlockShape(n, m))
        traced = m if outer else n
        reduced = (block_trace_map if outer else block_sum_map)(rho.mat, rho.shape)
        smallest = hermitian_eig(reduced).values[0]
        assert smallest == pytest.approx(-0.9 * traced * VALIDATION_TOL, rel=1e-6)
        assert smallest < -VALIDATION_TOL
        assert purity_set(rho).delta.item() == delta(rho).item()
        assert len(audit_reports(rho)) == 5

    @pytest.mark.parametrize("outer", [False, True], ids=["dip-inner", "dip-outer"])
    def test_reductions_beyond_the_traced_bound_refused(self, outer):
        # a block that skipped validation, with a dip of 1.1 VALIDATION_TOL:
        # its reduction reaches -2.2 VALIDATION_TOL, past d_A VALIDATION_TOL
        mat = dipped_diagonal(2, 2, outer) * (1.1 / 0.9)
        block = DensityBlock(mats=mat[None], shape=SHAPE22)
        with pytest.raises(NotPositive):
            reduced_blocks(block)


class TestPartialTraces:
    def test_mixed_reduces_to_mixed(self):
        over_2, over_1 = reduced_states(mixed_state())
        assert np.allclose(over_2, np.eye(2) / 2, atol=1e-15)
        assert np.allclose(over_1, np.eye(2) / 2, atol=1e-15)

    @pytest.mark.parametrize("p", [-1 / 3, -0.1, 0.0, 0.25, 1 / 3, 0.9, 1.0])
    def test_werner_reduces_to_mixed(self, p):
        over_2, over_1 = reduced_states(make_density(werner_matrix(p), SHAPE22))
        assert np.abs(over_2 - np.eye(2) / 2).max() <= 1e-15
        assert np.abs(over_1 - np.eye(2) / 2).max() <= 1e-15

    def test_xstate_block_formulas(self):
        d = np.array([0.35, 0.25, 0.15, 0.25])
        mat = np.diag(d).astype(complex)
        mat[0, 3] = 0.1 + 0.2j
        mat[3, 0] = np.conj(mat[0, 3])
        mat[1, 2] = 0.05 - 0.1j
        mat[2, 1] = np.conj(mat[1, 2])
        over_2, over_1 = reduced_states(make_density(mat, SHAPE22))
        assert np.allclose(over_2, np.diag([d[0] + d[1], d[2] + d[3]]), atol=1e-15)
        assert np.allclose(over_1, np.diag([d[0] + d[2], d[1] + d[3]]), atol=1e-15)

    def test_gisin_block_sum(self):
        x, a, b = 0.4, 0.6, 0.8
        mat = np.zeros((4, 4), dtype=complex)
        mat[0, 0] = mat[3, 3] = (1 - x) / 2
        mat[1, 1], mat[2, 2] = x * a * a, x * b * b
        mat[1, 2] = mat[2, 1] = x * a * b
        _, over_1 = reduced_states(make_density(mat, SHAPE22))
        expected = np.diag([(1 - x) / 2 + x * b * b, x * a * a + (1 - x) / 2])
        assert np.allclose(over_1, expected, atol=1e-15)

    @given(seeds, st.sampled_from(SHAPES))
    @settings(max_examples=100)
    def test_matches_index_oracle(self, seed, shape):
        rho = random_state(shape, seed)
        bt = index_block_trace(rho.mat, shape.n, shape.m)
        bs = index_block_sum(rho.mat, shape.n, shape.m)
        over_2, over_1 = reduced_states(rho)
        assert np.abs(over_2 - bt).max() <= 1e-14
        assert np.abs(over_1 - bs).max() <= 1e-14

    @given(seeds, st.sampled_from(SHAPES))
    @settings(max_examples=50)
    def test_reduced_states_are_valid(self, seed, shape):
        rho = random_state(shape, seed)
        # reduced_blocks reads each reduction's positivity; reaching here
        # without raising is the test
        reduced_states(rho)


class TestPurity:
    def test_maximally_mixed(self):
        assert purities(mixed_state().mat) == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("p", [-1 / 3, 0.0, 0.3, 0.8, 1.0])
    def test_werner_closed_form(self, p):
        rho = make_density(werner_matrix(p), SHAPE22)
        assert purities(rho.mat) == pytest.approx((3 * p * p + 1) / 4, abs=1e-14)

    @given(seeds)
    @settings(max_examples=60)
    def test_equals_eigenvalue_square_sum(self, seed):
        rho = random_state(SHAPE22, seed)
        vals = hermitian_eig(rho.mat).values
        assert abs(purities(rho.mat) - float((vals ** 2).sum())) <= 1e-10


class TestPuritySet:
    def test_werner(self):
        ps = one_state_values(purity_set(make_density(werner_matrix(0.6), SHAPE22)))
        assert ps.mu12 == pytest.approx((3 * 0.36 + 1) / 4, abs=1e-14)
        assert ps.mu1 == pytest.approx(0.5, abs=1e-14)
        assert ps.mu2 == pytest.approx(0.5, abs=1e-14)

    def test_pure_product_projector(self):
        mat = np.zeros((4, 4), dtype=complex)
        mat[0, 0] = 1.0
        ps = one_state_values(purity_set(make_density(mat, SHAPE22)))
        assert ps.mu12 == pytest.approx(1.0, abs=1e-12)
        assert ps.mu1 == pytest.approx(1.0, abs=1e-12)
        assert ps.mu2 == pytest.approx(1.0, abs=1e-12)
        assert ps.mu_tilde == pytest.approx(1.0, abs=1e-12)
        assert ps.delta == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        ps = one_state_values(purity_set(mixed_state()))
        assert ps.mu12 == pytest.approx(0.25, abs=1e-15)
        assert ps.mu1 == pytest.approx(0.5, abs=1e-15)
        assert ps.mu2 == pytest.approx(0.5, abs=1e-15)
        assert ps.mu_tilde == pytest.approx(0.0, abs=1e-14)
        assert ps.delta == pytest.approx(-0.25, abs=1e-14)

    @given(seeds, st.sampled_from(SHAPES))
    @settings(max_examples=60)
    def test_pure_states_have_equal_schmidt_purities(self, seed, shape):
        rho = random_state(shape, seed, rank=1)
        ps = one_state_values(purity_set(rho))
        assert abs(ps.mu1 - ps.mu2) <= 1e-10

    @given(seeds, st.sampled_from(SHAPES))
    @settings(max_examples=80)
    def test_purity_bounds_and_deformed_inequality(self, seed, shape):
        ps = one_state_values(purity_set(random_state(shape, seed)))
        n, m = shape.n, shape.m
        assert 1.0 / (n * m) - 1e-10 <= ps.mu12 <= 1.0 + 1e-10
        assert 1.0 / n - 1e-10 <= ps.mu1 <= 1.0 + 1e-10
        assert 1.0 / m - 1e-10 <= ps.mu2 <= 1.0 + 1e-10
        assert ps.mu1 + ps.mu2 - 1.0 <= ps.mu12 + 1e-10
        assert ps.mu1 + ps.mu2 - 1.0 <= ps.mu_tilde + 1e-10


class TestRandomStates:
    def test_construction_properties(self):
        rho = random_density(2, 2, 4, seed=1)
        assert abs(complex(rho.mat.trace()) - 1.0) <= 1e-12
        assert float(hermitian_eig(rho.mat).values[0]) >= -1e-12

    def test_rank_one_is_pure(self):
        rho = random_density(2, 2, 1, seed=7)
        assert purities(rho.mat) == pytest.approx(1.0, abs=1e-10)

    def test_same_seed_bit_identical(self):
        a = random_density(2, 3, 5, seed=123)
        b = random_density(2, 3, 5, seed=123)
        assert a.mat.tobytes() == b.mat.tobytes()

    def test_bad_rank(self):
        with pytest.raises(BadRank):
            random_density(2, 2, 5, seed=0)
        with pytest.raises(BadRank):
            random_density(2, 2, 0, seed=0)

    def test_separable_single_term_is_product(self):
        rho = scan_state(SHAPE22, "separable", 1, 4)
        over_2, over_1 = reduced_states(rho)
        assert purities(over_2) == pytest.approx(1.0, abs=1e-10)
        assert purities(over_1) == pytest.approx(1.0, abs=1e-10)

    def test_separable_unit_trace(self):
        rho = scan_state(SHAPE22, "separable", 6, 11)
        assert abs(complex(rho.mat.trace()) - 1.0) <= 1e-12

    def test_separable_bad_terms(self):
        with pytest.raises(BadRank):
            scan_state(SHAPE22, "separable", 0, 0)

    @given(seeds)
    @settings(max_examples=40)
    def test_separable_states_are_ppt(self, seed):
        from puritylab.states import ppt_entangled

        rho = scan_state(SHAPE22, "separable", seed % 4 + 1, seed)
        assert not ppt_entangled(rho).item()
