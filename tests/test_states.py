import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    beta_matrix,
    one_state_values,
    one_x_entries,
    scalar_random_x_params,
    werner_matrix,
)
from puritylab import states
from puritylab.defaults import VALIDATION_TOL, XSTATE_PARAM_TOL
from puritylab.density import purities
from puritylab.errors import (
    DomainError,
    NotPositive,
    PurityLabError,
    ShapeUnsupported,
    TraceNotOne,
)
from puritylab.inequalities import audit_reports, purity_set
from puritylab.linalg import hermitian_eig, spectra
from puritylab.prng import child_seed
from puritylab.states import (
    beta_entries,
    gisin_domain,
    gisin_entries,
    gisin_x_max,
    ppt_entangled,
    random_x_entries,
    werner_entries,
    x_state,
    x_state_matrix,
    x_state_purities,
    xstate_entangled,
    xstate_valid,
)
from puritylab.states import _gisin_closed, _gisin_norm_defect
from puritylab.sweep import SweepSpec, _entries_and_domain

seeds = st.integers(0, 10**6)
EPS = 2.0 ** -52

FIELDS = ("d1", "d2", "d3", "d4", "c14", "c23")
BELL_PARAMS = (0.5, 0.0, 0.0, 0.5, 0.5, 0.0)
E11_PARAMS = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
MIXED_PARAMS = (0.25, 0.25, 0.25, 0.25, 0.0, 0.0)


class TestXStateParams:
    """``x_state`` checks the six entries before it forms the matrix."""

    def test_trace_enforced(self):
        with pytest.raises(TraceNotOne, match="diagonal sums to 2.0"):
            x_state((0.5, 0.5, 0.5, 0.5, 0.0, 0.0))

    def test_positivity_enforced(self):
        with pytest.raises(NotPositive, match=r"d2\*d3 = "):
            x_state((0.4, 0.1, 0.1, 0.4, 0.0, 0.2))
        with pytest.raises(NotPositive, match=r"d1\*d4 = "):
            x_state((0.4, 0.1, 0.1, 0.4, 0.5, 0.0))

    def test_negative_diagonal_rejected(self):
        with pytest.raises(NotPositive, match="diagonal entries must be nonnegative"):
            x_state((-0.1, 0.5, 0.3, 0.3, 0.0, 0.0))

    @pytest.mark.parametrize("field, value", [
        (field, value) for field in FIELDS
        for value in (math.nan, math.inf, -math.inf)
    ] + [("c14", complex(0.0, math.nan)), ("c23", complex(math.inf, 1.0))])
    def test_non_finite_rejected(self, field, value):
        # a NaN passed every comparison, and x_state_purities returned NaN
        values = list(MIXED_PARAMS)
        values[FIELDS.index(field)] = value
        with pytest.raises(DomainError, match="must be finite"):
            x_state(values)

    @pytest.mark.parametrize("field, value", [("c14", 1e200), ("c23", 1e200j)])
    def test_huge_coherence_not_positive(self, field, value):
        # finite, but |c|^2 overflows to inf: a refusal, not an OverflowError
        values = list(MIXED_PARAMS)
        values[FIELDS.index(field)] = value
        with pytest.raises(NotPositive, match=rf"\|{field}\|\^2 = inf"):
            x_state(values)

    def test_random_draw_equals_scalar_draw(self):
        # the stream draw has the bits of one SplitMix64 uniform at a time
        # (repr round-trips every float, so equal reprs mean equal bits)
        seeds = [*range(5000), *(child_seed(11, k) for k in range(5000))]
        for seed in seeds:
            assert repr(one_x_entries(seed)) == repr(scalar_random_x_params(seed)), seed

    def test_entries_of_many_seeds_equal_scalar_draws(self):
        # one array of 10^4 seeds, negative ones and ones >= 2^64 among
        # them (streams read a seed modulo 2^64), row for row in bits
        seeds = [*range(-2500, 2500), *(child_seed(3, k) for k in range(3000)),
                 *(2**64 + child_seed(4, k) for k in range(1000)),
                 *(-(2**63) - k for k in range(500)), *(2**70 + k for k in range(500))]
        assert len(seeds) == 10_000

        def bits(value):
            if isinstance(value, complex):
                return value.real.hex(), value.imag.hex()
            return value.hex()

        rows = zip(*(e.tolist() for e in random_x_entries(seeds)))
        for seed, row in zip(seeds, rows, strict=True):
            assert list(map(bits, row)) == list(map(bits, scalar_random_x_params(seed))), seed


class TestXState:
    def test_uniform_diagonal_is_maximally_mixed(self):
        rho = x_state(MIXED_PARAMS)
        assert np.array_equal(rho.mat, np.eye(4) / 4)

    def test_werner_entries_byte_identical_to_werner_matrix(self):
        for p in (-1 / 3, 0.0, 0.37, 1.0):
            via_x = x_state(werner_entries(p))
            direct = werner_matrix(p)
            assert via_x.mat.tobytes() == direct.tobytes()

    def test_bell_projector_is_pure(self):
        rho = x_state(BELL_PARAMS)
        assert purities(rho.mat) == pytest.approx(1.0, abs=1e-14)
        vals = hermitian_eig(rho.mat).values
        assert np.allclose(vals, [0, 0, 0, 1], atol=1e-14)

    def test_conjugate_structure(self):
        params = (0.3, 0.2, 0.2, 0.3, 0.1 + 0.2j, 0.05 - 0.1j)
        rho = x_state(params)
        assert rho.mat[3, 0] == np.conj(rho.mat[0, 3])
        assert rho.mat[2, 1] == np.conj(rho.mat[1, 2])


def _planted(row, kind: str) -> tuple:
    """A row of entries with one refusal planted, named by the clause it fails."""
    d1, d2, d3, d4, c14, c23 = row
    return {
        "not-finite": (d1, d2, math.nan, d4, c14, c23),
        "negative": (-d1, d2, d3, d4, c14, c23),
        "trace": (d1 + 0.01, d2, d3, d4, c14, c23),
        "c23": (d1, d2, d3, d4, c14, complex(0.0, 2.0 * math.sqrt(d2 * d3) + 1e-3)),
        "c14": (d1, d2, d3, d4, complex(2.0 * math.sqrt(d1 * d4) + 1e-3), c23),
        "huge": (d1, d2, d3, d4, complex(1e200), c23),
    }[kind]


class TestXStateBlocks:
    """``x_state`` of entry arrays is the stack of ``x_state`` of each row,
    and a block is refused as its first refused row alone."""

    @pytest.mark.parametrize("entries", [
        werner_entries(np.linspace(-1 / 3, 1.0, 60)),  # c23 = 0.0 beside arrays
        beta_entries(np.linspace(0.0, 1.0, 60)),
        gisin_entries(np.linspace(0.0, 1.0, 60), 0.6j, 0.8),
        gisin_entries(np.linspace(0.0, 1.0, 60), 0.36 + 0.48j, -0.8),
        random_x_entries(list(range(300))),
    ], ids=["werner", "beta", "gisin-0.6j", "gisin-complex", "xrandom"])
    def test_block_is_the_stack_of_its_rows(self, entries):
        block = x_state(entries)
        rows = zip(*(e.tolist() for e in np.broadcast_arrays(*entries)))
        assert block.mats.tobytes() == np.array([x_state(row).mat for row in rows]).tobytes()
        assert block.mats.shape == (len(entries[0]), 4, 4)

    @pytest.mark.parametrize("kind", ["not-finite", "negative", "trace", "c23", "c14", "huge"])
    def test_refused_as_its_first_refused_row(self, kind, monkeypatch):
        # a later row fails an earlier clause, which must not win
        rows = list(zip(*(e.tolist() for e in random_x_entries(list(range(40))))))
        rows[7] = _planted(rows[7], kind)
        rows[20] = _planted(rows[20], "trace" if kind == "not-finite" else "not-finite")
        with pytest.raises(PurityLabError) as alone:
            x_state(rows[7])

        def no_validation(*args, **kwargs):
            raise AssertionError("validated the matrices of refused entries")

        monkeypatch.setattr(states, "validate_block", no_validation)
        with pytest.raises(PurityLabError) as block:
            x_state([np.array(column) for column in zip(*rows)])
        assert (type(block.value), str(block.value)) == (type(alone.value), str(alone.value))


class TestXStatePurities:
    @pytest.mark.parametrize("p", [-1 / 3, 0.0, 0.5, 1.0])
    def test_werner_closed_forms(self, p):
        ps = x_state_purities(werner_entries(p))
        assert ps.mu12 == pytest.approx((3 * p * p + 1) / 4, abs=1e-14)
        assert ps.mu1 == pytest.approx(0.5, abs=1e-14)
        assert ps.mu2 == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_beta_closed_forms(self, beta):
        ps = x_state_purities(beta_entries(beta))
        assert ps.mu12 == pytest.approx(2 * beta * beta - 2 * beta + 1, abs=1e-14)
        assert ps.mu1 == pytest.approx(0.5, abs=1e-14)
        assert ps.mu2 == pytest.approx(0.5, abs=1e-14)
        assert ps.mu_tilde == pytest.approx(8 * beta * beta - 8 * beta + 3, abs=1e-14)

    def test_maximally_mixed(self):
        ps = x_state_purities(MIXED_PARAMS)
        assert ps.mu12 == pytest.approx(0.25, abs=1e-15)
        assert ps.mu_tilde == pytest.approx(0.0, abs=1e-15)

    @given(seeds)
    @settings(max_examples=150)
    def test_matches_generic_pipeline(self, seed):
        params = one_x_entries(seed)
        closed = x_state_purities(params)
        generic = one_state_values(purity_set(x_state(params)))
        assert closed.mu12 == pytest.approx(generic.mu12, abs=1e-12)
        assert closed.mu1 == pytest.approx(generic.mu1, abs=1e-12)
        assert closed.mu2 == pytest.approx(generic.mu2, abs=1e-12)
        assert closed.mu_tilde == pytest.approx(generic.mu_tilde, abs=1e-12)
        assert closed.delta == pytest.approx(generic.delta, abs=1e-12)

    @pytest.mark.parametrize("spec", [
        SweepSpec(family="xrandom", start=0, stop=19_999, count=20_000),
        SweepSpec(family="werner", start=-1 / 3, stop=1.0, count=200),
        SweepSpec(family="beta", start=0.0, stop=1.0, count=200),
        *(SweepSpec(family="gisin", start=0.005, stop=0.995, count=200, a=a, b=b)
          for a, b in ((1.0, 0.0), (0.2, math.sqrt(1 - 0.04)), (0.6, 0.8), (0.6j, 0.8))),
    ], ids=lambda spec: spec.family if spec.a is None else f"gisin-{spec.a}")
    def test_matches_stacked_pipeline_within_32_eps(self, spec):
        # every row of a sweep grid (the figure grids and 20,000 seeds) whose
        # entries x_state accepts, Gisin rows past x_max included (56 for
        # a = 0.2, 98 for a = 0.6 and 0.6j), all in one stacked call; the
        # largest difference measured is 8 eps, on mu_tilde and delta
        _, entries, domain = _entries_and_domain(spec)
        valid = xstate_valid(entries)
        past = ~np.broadcast_to(domain, valid.shape)[valid]
        entries = [e[valid] for e in entries]
        closed = x_state_purities(entries)
        block = x_state(entries)
        generic = purity_set(block)
        for field in ("mu12", "mu1", "mu2", "mu_tilde", "delta"):
            deviation = np.abs(getattr(closed, field) - getattr(generic, field)).max()
            assert deviation <= 32 * EPS, field
        # both verdicts are exact on X-states; past x_max delta > 0 (criterion 4a)
        assert (ppt_entangled(block) == xstate_entangled(entries)).all()
        assert (generic.delta[past] > 0).all()


def eq11_lhs(params) -> float:
    """The X-state lhs as the paper displays it (eq11 and eq12):
    2 sum d_i^2 + 2(d1+d4)(d2+d3) - 1."""
    d1, d2, d3, d4 = params[:4]
    return 2.0 * (d1 * d1 + d2 * d2 + d3 * d3 + d4 * d4) + 2.0 * (d1 + d4) * (d2 + d3) - 1.0


class TestEq11Eq12:
    """On X-states eq11 and eq12 are eq5 and eq10: their lhs is mu1 + mu2 - 1
    of ``x_state_purities``, against mu12 and mu_tilde."""

    def test_maximally_mixed(self):
        closed = x_state_purities(MIXED_PARAMS)
        assert closed.mu1 + closed.mu2 - 1.0 == pytest.approx(0.0, abs=1e-14)
        assert closed.mu12 == pytest.approx(0.25, abs=1e-14)

    def test_bell_projector(self):
        # reduced states of the Bell projector are maximally mixed, so the
        # lhs collapses to 0 while mu12 = 1
        closed = x_state_purities(BELL_PARAMS)
        lhs = closed.mu1 + closed.mu2 - 1.0
        assert lhs == pytest.approx(0.0, abs=1e-14)
        assert closed.mu12 == pytest.approx(1.0, abs=1e-14)
        assert closed.mu12 - lhs == pytest.approx(1.0, abs=1e-14)

    def test_pure_product_equality(self):
        closed = x_state_purities(E11_PARAMS)
        lhs = closed.mu1 + closed.mu2 - 1.0
        assert lhs == pytest.approx(1.0, abs=1e-14)
        assert closed.mu12 == pytest.approx(1.0, abs=1e-14)
        assert abs(closed.mu12 - lhs) <= 1e-14

    @given(seeds)
    @settings(max_examples=100)
    def test_margins_match_generic_checks(self, seed):
        params = one_x_entries(seed)
        closed = x_state_purities(params)
        lhs = closed.mu1 + closed.mu2 - 1.0
        assert eq11_lhs(params) == pytest.approx(lhs, abs=1e-14)
        reports = {rep.name: one_state_values(rep) for rep in audit_reports(x_state(params))}
        assert closed.mu12 - lhs == pytest.approx(reports["eq5"].margin, abs=1e-12)
        assert closed.mu_tilde - lhs == pytest.approx(reports["eq10"].margin, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.4, 0.9])
    def test_werner_margins(self, p):
        closed = x_state_purities(werner_entries(p))
        lhs = closed.mu1 + closed.mu2 - 1.0
        assert eq11_lhs(werner_entries(p)) == pytest.approx(lhs, abs=1e-14)
        rho = x_state(werner_entries(p))
        reports = {rep.name: one_state_values(rep) for rep in audit_reports(rho)}
        assert closed.mu12 - lhs == pytest.approx(reports["eq5"].margin, abs=1e-12)
        assert closed.mu_tilde - lhs == pytest.approx(reports["eq10"].margin, abs=1e-12)


class TestWerner:
    def test_p_zero_is_maximally_mixed(self):
        assert np.allclose(x_state(werner_entries(0.0)).mat, np.eye(4) / 4, atol=1e-16)

    def test_p_one_is_bell_projector(self):
        rho = x_state(werner_entries(1.0))
        assert purities(rho.mat) == pytest.approx(1.0, abs=1e-14)

    def test_boundary_has_zero_eigenvalue(self):
        vals = hermitian_eig(x_state(werner_entries(-1 / 3)).mat).values
        assert abs(float(vals[0])) <= 1e-12

    def test_domain_enforced(self):
        # past p = 1 a population is negative; below -1/3 the coherence
        # beats its populations
        with pytest.raises(NotPositive, match="diagonal entries must be nonnegative"):
            x_state(werner_entries(1.01))
        with pytest.raises(NotPositive, match=r"^d1\*d4 = 2\.722500e-02 < \|c14\|\^2"):
            x_state(werner_entries(-0.34))

    def test_accepted_down_to_the_entry_tolerance(self):
        # xstate_valid decides: d1*d4 >= |c14|^2 - XSTATE_PARAM_TOL*(d1 + d4)
        # admits p to about -1/3 - 1.33e-12, where the smallest eigenvalue is -1e-12
        vals = hermitian_eig(x_state(werner_entries(-1 / 3 - 1e-12)).mat).values
        assert vals[0] == pytest.approx(-7.5e-13, rel=1e-3)
        with pytest.raises(NotPositive, match=r"^d1\*d4 = "):
            x_state(werner_entries(-1 / 3 - 2e-12))

    def test_matrix_matches_entrywise_oracle(self):
        assert np.array_equal(x_state(werner_entries(0.8)).mat, werner_matrix(0.8))


def block_edge_entries(rng, count: int) -> tuple[np.ndarray, ...]:
    """Six entry arrays with one block [[d, c], [c*, d']] per row near its
    positivity edge: trace T = d + d' log-uniform in [1e-6, 1], and |c|^2 =
    d*d' + s*XSTATE_PARAM_TOL, s in [-1, 3], times T (the edge of the scaled
    slack) in half the rows, and not (the edge of an absolute one) in the
    other half.  The other block is well inside; which of the two blocks is
    at its edge alternates every two rows."""
    trace = 10.0 ** rng.uniform(-6.0, 0.0, count)
    split = rng.uniform(0.05, 0.95, (2, count))
    d, d_ = trace * split[0], trace * (1.0 - split[0])
    o, o_ = (1.0 - trace) * split[1], (1.0 - trace) * (1.0 - split[1])
    excess = XSTATE_PARAM_TOL * rng.uniform(-1.0, 3.0, count)
    excess[::2] *= trace[::2]
    phase = np.exp(2j * np.pi * rng.uniform(size=(2, count)))
    c = np.sqrt(np.maximum(d * d_ + excess, 0.0)) * phase[0]
    c_other = 0.5 * np.sqrt(o * o_) * phase[1]
    outer = np.arange(count) % 4 < 2  # the edge in the (d1, d4) block
    d1, d4 = np.where(outer, d, o), np.where(outer, d_, o_)
    d2, d3 = np.where(outer, o, d), np.where(outer, o_, d_)
    return d1, d2, d3, d4, np.where(outer, c, c_other), np.where(outer, c_other, c)


class TestEntries:
    """A family's state is ``x_state`` of its entries map: the matrix
    written out entry by entry, in bytes."""

    @pytest.mark.parametrize("p", [-1 / 3, 0.0, 0.3, 1 / 3, 0.8, 1.0])
    def test_werner(self, p):
        assert x_state(werner_entries(p)).mat.tobytes() == werner_matrix(p).tobytes()

    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 0.9, 1.0])
    def test_beta(self, beta):
        assert x_state(beta_entries(beta)).mat.tobytes() == beta_matrix(beta).tobytes()

    @pytest.mark.parametrize("x, a, b", [(0.3, 0.6, 0.8), (0.9, 0.6, 0.8),
                                         (0.5, 0.6j, 0.8), (0.7, 1.0, 0.0)])
    def test_gisin(self, x, a, b):
        # built on both sides of the separability cut, which only the
        # sweep's valid column reads
        entries = gisin_entries(x, a, b)
        assert gisin_domain(x, a, b) == (x <= gisin_x_max(a, b) + VALIDATION_TOL)
        assert x_state(entries).mat.tobytes() == x_state_matrix(entries).tobytes()

    @pytest.mark.parametrize("a, b", [(0.6, 0.8), (-0.6, -0.8), (0.6j, 0.8),
                                      (complex(0.6), complex(-0.8)), (0.3 + 0.4j, 0.5 - 0.7j)])
    def test_gisin_coherence_has_the_bits_of_the_scalar_product(self, a, b):
        # numpy's complex loops may fuse the products of (x a) b*, which
        # moves the last bit of about a quarter of them
        xs = np.random.default_rng(0).uniform(-2.0, 3.0, 2000)
        c23 = gisin_entries(xs, a, b)[5]
        expected = np.array([complex(x * a * np.conj(b)) for x in xs.tolist()])
        assert c23.dtype == np.complex128
        assert c23.view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    def test_valid_mask_is_the_constructor_rule(self):
        # entries on both sides of each rule x_state checks
        rng = np.random.default_rng(1)
        d = rng.dirichlet(np.ones(4), 4000)
        d[::7, 1] -= 1e-13 * rng.uniform(0.0, 2.0, len(d[::7]))
        d[::5] *= 1.0 + 1e-12 * rng.uniform(-2.0, 2.0, (len(d[::5]), 1))
        # diagonals within a few ulps of the edge 1 + XSTATE_PARAM_TOL,
        # where the verdict depends on the order of the sum
        edge = d[3::5]
        edge[:, 3] = (1.0 + XSTATE_PARAM_TOL) - ((edge[:, 0] + edge[:, 1]) + edge[:, 2])
        edge[:, 3] += rng.integers(-3, 4, len(edge)) * np.spacing(edge[:, 3])
        d[3::5] = edge
        phase = np.exp(2j * np.pi * rng.uniform(size=(2, len(d))))
        scale = rng.choice([0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.5], size=(2, len(d)))
        c14 = scale[0] * np.sqrt(np.maximum(d[:, 0] * d[:, 3], 0.0)) * phase[0]
        c23 = scale[1] * np.sqrt(np.maximum(d[:, 1] * d[:, 2], 0.0)) * phase[1]
        entries = (*d.T, c14, c23)
        # NaN or Inf in each entry, which the constructor refuses first
        for k, column in enumerate(entries):
            column[3 * k:3 * k + 3] = (np.nan, np.inf, -np.inf)
        c23[18:20] = complex(0.0, np.nan), complex(np.inf, np.nan)
        # and 4,000 entries on both sides of each block's positivity edge,
        # with block traces from 1e-6 to 1, led by the entries an absolute
        # slack once admitted (smallest eigenvalue -9e-10)
        edges = block_edge_entries(rng, 4000)
        edges[0][0], edges[4][0] = 5e-4, np.sqrt(2.5e-7 + 9e-13)
        edges[1][0], edges[2][0], edges[3][0], edges[5][0] = 0.4995, 0.4995, 5e-4, 0.0
        entries = tuple(np.concatenate(pair) for pair in zip(entries, edges))
        accepted, mats = [], []
        for row in zip(*(e.tolist() for e in entries)):
            try:
                mats.append(x_state(row).mat)
            except (DomainError, NotPositive, TraceNotOne):
                accepted.append(False)
            else:
                accepted.append(True)
        assert 0.2 < np.mean(accepted[:-4000]) < 0.8
        assert 0.2 < np.mean(accepted[-4000:]) < 0.8
        assert xstate_valid(entries).tolist() == accepted
        # the slack scaled by the block trace bounds the smallest eigenvalue
        assert spectra(np.array(mats))[:, 0].min() >= -1.01 * XSTATE_PARAM_TOL

    def test_small_block_trace_refused_by_the_entry_rule(self):
        # d1 + d4 = 1e-3: |c14|^2 - d1*d4 = 9e-13 is inside the absolute
        # slack XSTATE_PARAM_TOL, but the block's smallest eigenvalue is
        # -9e-10, beyond VALIDATION_TOL; the mask and the constructor
        # refuse it by the same clause
        entries = (5e-4, 0.4995, 0.4995, 5e-4, math.sqrt(2.5e-7 + 9e-13), 0.0)
        assert not xstate_valid(entries)
        with pytest.raises(NotPositive,
                           match=r"^d1\*d4 = 2\.500000e-07 < \|c14\|\^2 = 2\.500009e-07$"):
            x_state(entries)

    @pytest.mark.parametrize("p", [-3.0, -1.5, 1.5, 1e8])
    def test_out_of_domain_entries_unchecked(self, p):
        # populations below 0 or a coherence beyond the populations: the
        # map returns them, the constructor refuses them
        entries = werner_entries(p)
        assert sum(entries[:4]) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(NotPositive, match="diagonal entries must be nonnegative"):
            x_state(entries)
        ps = x_state_purities(entries)
        assert ps.mu12 == pytest.approx((3 * p * p + 1) / 4, rel=1e-15)
        assert ps.mu_tilde == pytest.approx(3 * p * p, rel=1e-15)
        assert xstate_entangled(entries)


class TestGisin:
    def test_huge_amplitude_domain_error(self):
        # |a|^2 overflows: beyond the sweep's normalization slack, and a
        # population that is not finite
        assert _gisin_norm_defect(1e200, 0) == math.inf
        with pytest.raises(DomainError, match="must be finite"):
            x_state(gisin_entries(0.5, 1e200, 0))

    def test_x_max_values(self):
        assert gisin_x_max(1.0, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert gisin_x_max(0.2, math.sqrt(1 - 0.04)) == pytest.approx(0.718, abs=1e-3)
        assert gisin_x_max(0.6, 0.8) == pytest.approx(0.51, abs=5e-3)
        assert gisin_x_max(0.07, 0.99) == pytest.approx(0.87, abs=1e-2)

    def test_valid_below_x_max(self):
        rho = x_state(gisin_entries(0.5, 0.6, 0.8))
        assert abs(complex(rho.mat.trace()) - 1.0) <= 1e-15

    def test_rejected_above_x_max(self):
        # past the separability threshold: the sweep's cut rejects it, and
        # x_state builds it, PSD with unit trace
        x, a, b = 0.75, 0.2, math.sqrt(1 - 0.04)
        assert not gisin_domain(x, a, b)
        rho = x_state(gisin_entries(x, a, b))
        assert float(hermitian_eig(rho.mat).values[0]) >= -1e-15

    @pytest.mark.parametrize("x, a, b", [(0.3, 0.6, 0.8), (0.9, 0.6, 0.8),
                                         (0.5, 0.6j, 0.8), (0.7, 1.0, 0.0)])
    def test_params_build_the_gisin_matrix(self, x, a, b):
        # the matrix written out entry by entry, on both sides of x_max
        expected = np.zeros((4, 4), dtype=np.complex128)
        expected[0, 0] = expected[3, 3] = (1.0 - x) / 2.0
        expected[1, 1] = x * abs(a) ** 2
        expected[2, 2] = x * abs(b) ** 2
        expected[1, 2] = x * a * np.conj(b)
        expected[2, 1] = np.conj(expected[1, 2])
        rho = x_state(gisin_entries(x, a, b))
        assert rho.mat.tobytes() == expected.tobytes()

    def test_diagonal_family_valid_everywhere(self):
        for x in np.linspace(0.05, 0.95, 10):
            rho = x_state(gisin_entries(float(x), 1.0, 0.0))
            assert float(hermitian_eig(rho.mat).values[0]) >= -1e-12

    def test_normalization_slack(self):
        assert _gisin_norm_defect(1.5, 0.0) == 1.25
        with pytest.raises(TraceNotOne, match="diagonal sums to 1.625"):
            x_state(gisin_entries(0.5, 1.5, 0.0))
        # the non-normalized reference pair is within the slack
        assert _gisin_norm_defect(0.07, 0.99) is None
        assert gisin_x_max(0.07, 0.99) == pytest.approx(0.878, abs=1e-3)

    def test_raw_non_normalized_matrix_fails_trace(self):
        with pytest.raises(TraceNotOne):
            x_state(gisin_entries(0.5, 0.07, 0.99))

    def test_x_domain(self):
        # x in [0, 1]: at 0 the state diag(1/2, 0, 0, 1/2), at 1 a pure
        # state; outside it a population is negative
        assert np.array_equal(x_state(gisin_entries(0.0, 0.6, 0.8)).mat, np.diag([0.5, 0, 0, 0.5]))
        assert purities(x_state(gisin_entries(1.0, 0.6, 0.8)).mat) == pytest.approx(1.0, abs=1e-15)
        for x in (-0.1, 1.1):
            with pytest.raises(NotPositive, match="diagonal entries must be nonnegative"):
                x_state(gisin_entries(x, 0.6, 0.8))

    def test_closed_forms_diagonal_family(self):
        for x in (0.2, 0.5, 0.9):
            lhs5, mt, mu12 = _gisin_closed(x, 1.0, 0.0)
            assert lhs5 == pytest.approx(x * x, abs=1e-14)
            assert mu12 == pytest.approx(1.5 * x * x - x + 0.5, abs=1e-14)
            del mt

    def test_closed_forms_balanced_amplitudes(self):
        inv = 1 / math.sqrt(2)
        lhs5, _, _ = _gisin_closed(0.4, inv * inv, inv * inv)
        assert lhs5 == pytest.approx(0.0, abs=1e-14)

    def test_closed_forms_small_x_limit(self):
        lhs5, mt, mu12 = _gisin_closed(0.0, 0.36, 0.64)
        assert lhs5 == 0.0
        assert mt == pytest.approx(1.0, abs=1e-15)
        assert mu12 == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("a, b", [(1.0, 0.0), (0.2, math.sqrt(1 - 0.04)),
                                      (0.6, 0.8), (0.07, 0.99)])
    def test_closed_forms_elementwise_bit_for_bit(self, a, b):
        # the figure set's Gisin pairs on the root search's 4096-point grid
        a2, b2 = abs(a) ** 2, abs(b) ** 2
        xs = 0.001 + (0.999 - 0.001) * np.arange(4096) / 4095
        for column, values in zip(_gisin_closed(xs, a2, b2),
                                  zip(*(_gisin_closed(float(x), a2, b2) for x in xs))):
            assert column.tobytes() == np.array(values, dtype=np.float64).tobytes()

    def test_closed_forms_match_generic_pipeline(self):
        a, b = 0.6, 0.8
        for x in np.linspace(0.02, 0.5, 20):
            lhs5, mt, mu12 = _gisin_closed(float(x), abs(a) ** 2, abs(b) ** 2)
            ps = one_state_values(purity_set(x_state(gisin_entries(float(x), a, b))))
            assert ps.mu12 == pytest.approx(mu12, abs=1e-10)
            assert ps.mu_tilde == pytest.approx(mt, abs=1e-10)
            assert ps.mu1 + ps.mu2 - 1 == pytest.approx(lhs5, abs=1e-10)

    def test_delta_sign_structure(self):
        # Closed-form delta starts positive at x -> 0, dips negative in a
        # mid-range window below x_max, and is positive beyond x_max.
        a2, b2 = 0.36, 0.64
        x_max = gisin_x_max(0.6, 0.8)
        def closed_delta(x):
            lhs5, mt, mu12 = _gisin_closed(x, a2, b2)
            return mt - mu12
        assert closed_delta(1e-9) > 0
        assert any(closed_delta(x) < 0 for x in np.linspace(0.05, x_max, 200))
        assert all(closed_delta(x) > 0 for x in np.linspace(x_max + 1e-6, 0.999, 200))


# x_state of Gisin entries, refused and accepted: (x, a, b), then the
# exception class and its full message, or the sha256 of the accepted state's
# matrix bytes.  Past x_max the states are built; only the sweep cuts there.
X_MAX_06_08 = gisin_x_max(0.6, 0.8)
GISIN_CASES = [
    (0.0, 0.6, 0.8, None, "a5cacbe5befa687aa34297c7dc82a8747e65e3f4a7281cd2833a5fe76c86db5c"),
    (1.0, 0.6, 0.8, None, "10d2e67beb5ddfc545488da147b4736033b52d8fe1e3c7aa3a2d856126c5c4fb"),
    (1.5, 0.6, 0.8, NotPositive,
     "diagonal entries must be nonnegative, got (-0.25, 0.54, 0.9600000000000002, -0.25)"),
    (math.nan, 0.6, 0.8, DomainError, "X-state parameters must be finite, "
     "got (nan, nan, nan, nan, 0.0, (nan+0j))"),
    # the finite clause comes before the diagonal's sign
    (-0.2, 1e200, 0.0, DomainError, "X-state parameters must be finite, "
     "got (0.6, -inf, -0.0, 0.6, 0.0, (-0+0j))"),
    (0.5, 1.5, 0.0, TraceNotOne, "diagonal sums to 1.625, off by 6.250e-01"),
    (0.5, 1e200, 0.0, DomainError, "X-state parameters must be finite, "
     "got (0.25, inf, 0.0, 0.25, 0.0, 0j)"),
    (0.5, math.nan, 0.0, DomainError, "X-state parameters must be finite, "
     "got (0.25, nan, 0.0, 0.25, 0.0, (nan+0j))"),
    # the raw published pair: within the sweep's slack, off unit trace at any x > 0
    (0.5, 0.07, 0.99, TraceNotOne, "diagonal sums to 0.9924999999999999, off by 7.500e-03"),
    (0.9, 0.07, 0.99, TraceNotOne, "diagonal sums to 0.9864999999999999, off by 1.350e-02"),
    (X_MAX_06_08 + 2e-10, 0.6, 0.8, None,
     "ca17362fffd033fdd7aeebaca7ae99445570e485155e6e3b8be83ef27d759df1"),
    (X_MAX_06_08 + 5e-11, 0.6, 0.8, None,
     "96c2eba190c3fcf194d71daeb9a0e9dd57083bc823da1da075adbafce317a372"),
    (0.2, 0.6, 0.8, None, "e384cfb19f9847c8b291ac5423513685f78571dbb57479a3998b7a1ba7d5ac82"),
    (0.3, 0.6, 0.8, None, "2dfcc45627affb829c4a0d2704954487f880d1f8f0b84e8d2914fd74c5d7d764"),
    (0.5, 0.6j, 0.8, None, "9c875ae01f02acf07dbcde0dcea1681b34d4e5550378da3b39ba4d8abd363aea"),
    (0.7, 1.0, 0.0, None, "40fe82291e893c2981c0e5fc9aff3ac11caf12541972f52c713dc244ab4eb4cf"),
]


@pytest.mark.parametrize("x, a, b, error, expected", GISIN_CASES)
def test_gisin_refusals_and_states(x, a, b, error, expected):
    if error is None:
        rho = x_state(gisin_entries(x, a, b))
        assert hashlib.sha256(rho.mat.tobytes()).hexdigest() == expected
        return
    with pytest.raises(PurityLabError) as info:
        x_state(gisin_entries(x, a, b))
    assert type(info.value) is error
    assert str(info.value) == expected


# x_state of Werner and beta entries, refused and accepted, as GISIN_CASES:
# the entries map and its parameter, then the exception class and its full
# message, or the sha256 of the accepted state's matrix bytes.
WERNER_CASES = [
    (1.01, NotPositive, "diagonal entries must be nonnegative, "
     "got (0.5025, -0.0025000000000000022, -0.0025000000000000022, 0.5025)"),
    (-0.34, NotPositive, "d1*d4 = 2.722500e-02 < |c14|^2 = 2.890000e-02"),
    (2, NotPositive, "diagonal entries must be nonnegative, got (0.75, -0.25, -0.25, 0.75)"),
    (math.nan, DomainError,
     "X-state parameters must be finite, got (nan, nan, nan, nan, nan, 0.0)"),
    (math.inf, DomainError,
     "X-state parameters must be finite, got (inf, -inf, -inf, inf, inf, 0.0)"),
    (-1 / 3, None, "5463d49701759d3bc3c44139c916cfddb3357d45a68fecc2b1b1fa793fa9934f"),
    (1 / 3, None, "8cfbbe057b2f79140ae9a2c8d9e9fc2a0c226863e7a1abb6317e53cc5679bf46"),
    (0.8, None, "0887c7dc5cded26343a919aa5a44509b16c61d3f1ec7ba11f97b7e4c4fd08ab3"),
    (1.0, None, "765c6024b5d7e983de2e17ee52973a5dd074746b1811b4a75464400a70e98228"),
]
BETA_CASES = [
    (-0.01, NotPositive,
     "diagonal entries must be nonnegative, got (-0.005, 0.505, 0.505, -0.005)"),
    (1.01, NotPositive, "diagonal entries must be nonnegative, "
     "got (0.505, -0.0050000000000000044, -0.0050000000000000044, 0.505)"),
    (np.int64(2), NotPositive, "diagonal entries must be nonnegative, "
     "got (1.0, -0.5, -0.5, 1.0)"),
    (math.nan, DomainError,
     "X-state parameters must be finite, got (nan, nan, nan, nan, nan, nan)"),
    (-math.inf, DomainError,
     "X-state parameters must be finite, got (-inf, inf, inf, -inf, -inf, inf)"),
    (0.0, None, "d8b85d389e4228b7e314901649125b979d3b354703a930dd4c27f1774410f7ba"),
    (0.5, None, "703267e22addb0e32c6a0c5d700f1e1baee7aeb026e86cce8caba8206d313665"),
    (0.9, None, "31510f30d250e9295452b4879e819b55f59216ba599151b8880e843464420d5f"),
    (1.0, None, "765c6024b5d7e983de2e17ee52973a5dd074746b1811b4a75464400a70e98228"),
]


@pytest.mark.parametrize("entries_of, param, error, expected", [
    *((werner_entries, *case) for case in WERNER_CASES),
    *((beta_entries, *case) for case in BETA_CASES),
])
def test_werner_and_beta_refusals_and_states(entries_of, param, error, expected):
    if error is None:
        rho = x_state(entries_of(param))
        assert hashlib.sha256(rho.mat.tobytes()).hexdigest() == expected
        return
    with pytest.raises(PurityLabError) as info:
        x_state(entries_of(param))
    assert type(info.value) is error
    assert str(info.value) == expected


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entries_of, param", [
    (werner_entries, 1e200), (werner_entries, -1e200), (beta_entries, 1e300)])
def test_huge_parameter_refused_without_warnings(entries_of, param):
    # the entries' squares overflow inside xstate_valid, which evaluates
    # every clause; x_state stops at the first one they fail
    entries = entries_of(param)
    assert not xstate_valid(entries)
    with pytest.raises(NotPositive, match="diagonal entries must be nonnegative"):
        x_state(entries)


class TestBeta:
    def test_half_is_quarter_filled_x_pattern(self):
        rho = x_state(beta_entries(0.5))
        expected = np.zeros((4, 4), dtype=complex)
        for i, j in [(0, 0), (3, 3), (0, 3), (3, 0),
                     (1, 1), (2, 2), (1, 2), (2, 1)]:
            expected[i, j] = 0.25
        assert np.array_equal(rho.mat, expected)

    def test_half_is_rank_deficient_but_evaluates(self):
        rho = x_state(beta_entries(0.5))
        vals = hermitian_eig(rho.mat).values
        assert np.allclose(vals, [0, 0, 0.5, 0.5], atol=1e-14)
        ps = one_state_values(purity_set(rho))  # clamping must keep mu_tilde finite here
        assert math.isfinite(ps.mu_tilde)
        assert ps.mu_tilde == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_endpoints_are_pure(self, beta):
        assert purities(x_state(beta_entries(beta)).mat) == pytest.approx(1.0, abs=1e-14)

    def test_domain_enforced(self):
        for beta in (-0.01, 1.01):
            with pytest.raises(NotPositive, match="diagonal entries must be nonnegative"):
                x_state(beta_entries(beta))


class TestEntanglement:
    def test_werner_thresholds(self):
        assert xstate_entangled(werner_entries(0.5))
        assert not xstate_entangled(werner_entries(0.2))
        assert not xstate_entangled(werner_entries(1 / 3))

    def test_beta_thresholds(self):
        assert not xstate_entangled(beta_entries(0.5))
        assert xstate_entangled(beta_entries(0.9))
        assert xstate_entangled(beta_entries(0.0))

    @pytest.mark.parametrize("p", [-1 / 3, 0.0, 0.33, 0.3334, 0.5, 1.0])
    def test_ppt_matches_werner_domain(self, p):
        assert ppt_entangled(x_state(werner_entries(p))).item() == (p > 1 / 3)

    def test_ppt_gisin_threshold(self):
        a, b = 0.6, 0.8
        x_max = gisin_x_max(a, b)
        for x in (0.2, x_max - 0.01, x_max + 0.01, 0.9):
            rho = x_state(gisin_entries(x, a, b))
            assert ppt_entangled(rho).item() == (x > x_max)

    def test_unsupported_shape(self):
        from puritylab.density import random_density

        rho = random_density(3, 3, 9, seed=5)
        with pytest.raises(ShapeUnsupported):
            ppt_entangled(rho)

    @given(seeds)
    @settings(max_examples=150)
    def test_agrees_with_ppt_on_x_states(self, seed):
        params = one_x_entries(seed)
        assert xstate_entangled(params) == ppt_entangled(x_state(params)).item()

    def test_agrees_with_ppt_bulk(self):
        # both verdicts are exact for 4x4 X-states, so they must coincide
        # on a large ensemble, not just on shrunk examples
        disagreements = sum(
            xstate_entangled(params) != ppt_entangled(x_state(params)).item()
            for params in map(one_x_entries, range(10_000))
        )
        assert disagreements == 0

    @given(seeds)
    @settings(max_examples=150)
    def test_at_most_one_entanglement_chain(self, seed):
        d1, d2, d3, d4, c14, c23 = one_x_entries(seed)
        first = abs(c14) ** 2 > d2 * d3
        second = abs(c23) ** 2 > d1 * d4
        assert not (first and second)
