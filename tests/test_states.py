import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import scalar_random_x_params, werner_matrix
from puritylab.defaults import XSTATE_PARAM_TOL
from puritylab.density import purities
from puritylab.errors import (
    DomainError,
    NotPositive,
    PurityLabError,
    ShapeUnsupported,
    TraceNotOne,
)
from puritylab.inequalities import audit_reports, purity_set
from puritylab.linalg import hermitian_eig
from puritylab.prng import child_seed
from puritylab.states import (
    XStateParams,
    beta_entries,
    beta_params,
    beta_state,
    gisin_domain,
    gisin_entries,
    gisin_params,
    gisin_state,
    gisin_x_max,
    ppt_entangled,
    random_x_entries,
    random_x_params,
    werner_entries,
    werner_params,
    werner_state,
    x_state,
    x_state_purities,
    xstate_entangled,
    xstate_valid,
)
from puritylab.states import _gisin_closed, _gisin_norm_defect

seeds = st.integers(0, 10**6)

BELL_PARAMS = XStateParams(0.5, 0.0, 0.0, 0.5, c14=0.5)
E11_PARAMS = XStateParams(1.0, 0.0, 0.0, 0.0)


class TestXStateParams:
    def test_trace_enforced(self):
        with pytest.raises(TraceNotOne):
            XStateParams(0.5, 0.5, 0.5, 0.5)

    def test_positivity_enforced(self):
        with pytest.raises(NotPositive):
            XStateParams(0.4, 0.1, 0.1, 0.4, c23=0.2)
        with pytest.raises(NotPositive):
            XStateParams(0.4, 0.1, 0.1, 0.4, c14=0.5)

    def test_negative_diagonal_rejected(self):
        with pytest.raises(NotPositive):
            XStateParams(-0.1, 0.5, 0.3, 0.3)

    @pytest.mark.parametrize("field, value", [
        (field, value) for field in ("d1", "d2", "d3", "d4", "c14", "c23")
        for value in (math.nan, math.inf, -math.inf)
    ] + [("c14", complex(0.0, math.nan)), ("c23", complex(math.inf, 1.0))])
    def test_non_finite_rejected(self, field, value):
        # a NaN passed every comparison, and x_state_purities returned NaN
        values = dict(d1=0.25, d2=0.25, d3=0.25, d4=0.25, c14=0.0, c23=0.0)
        values[field] = value
        with pytest.raises(DomainError, match="must be finite"):
            XStateParams(**values)

    @pytest.mark.parametrize("field, value", [("c14", 1e200), ("c23", 1e200j)])
    def test_huge_coherence_not_positive(self, field, value):
        # finite, but |c|^2 overflows to inf: a refusal, not an OverflowError
        with pytest.raises(NotPositive, match=rf"\|{field}\|\^2 = inf"):
            XStateParams(0.25, 0.25, 0.25, 0.25, **{field: value})

    def test_random_draw_equals_scalar_draw(self):
        # the stream draw has the bits of one SplitMix64 uniform at a time
        # (repr round-trips every float, so equal reprs mean equal bits)
        seeds = [*range(5000), *(child_seed(11, k) for k in range(5000))]
        for seed in seeds:
            assert repr(random_x_params(seed)) == repr(scalar_random_x_params(seed)), seed

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
        rho = x_state(XStateParams(0.25, 0.25, 0.25, 0.25))
        assert np.array_equal(rho.mat, np.eye(4) / 4)

    def test_werner_params_byte_identical_to_werner_state(self):
        for p in (-1 / 3, 0.0, 0.37, 1.0):
            via_x = x_state(werner_params(p))
            direct = werner_state(p)
            assert via_x.mat.tobytes() == direct.mat.tobytes()

    def test_bell_projector_is_pure(self):
        rho = x_state(BELL_PARAMS)
        assert purities(rho.mat) == pytest.approx(1.0, abs=1e-14)
        vals = hermitian_eig(rho.mat).values
        assert np.allclose(vals, [0, 0, 0, 1], atol=1e-14)

    def test_conjugate_structure(self):
        params = XStateParams(0.3, 0.2, 0.2, 0.3, c14=0.1 + 0.2j, c23=0.05 - 0.1j)
        rho = x_state(params)
        assert rho.mat[3, 0] == np.conj(rho.mat[0, 3])
        assert rho.mat[2, 1] == np.conj(rho.mat[1, 2])


class TestXStatePurities:
    @pytest.mark.parametrize("p", [-1 / 3, 0.0, 0.5, 1.0])
    def test_werner_closed_forms(self, p):
        ps = x_state_purities(werner_params(p))
        assert ps.mu12 == pytest.approx((3 * p * p + 1) / 4, abs=1e-14)
        assert ps.mu1 == pytest.approx(0.5, abs=1e-14)
        assert ps.mu2 == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_beta_closed_forms(self, beta):
        ps = x_state_purities(beta_params(beta))
        assert ps.mu12 == pytest.approx(2 * beta * beta - 2 * beta + 1, abs=1e-14)
        assert ps.mu1 == pytest.approx(0.5, abs=1e-14)
        assert ps.mu2 == pytest.approx(0.5, abs=1e-14)
        assert ps.mu_tilde == pytest.approx(8 * beta * beta - 8 * beta + 3, abs=1e-14)

    def test_maximally_mixed(self):
        ps = x_state_purities(XStateParams(0.25, 0.25, 0.25, 0.25))
        assert ps.mu12 == pytest.approx(0.25, abs=1e-15)
        assert ps.mu_tilde == pytest.approx(0.0, abs=1e-15)

    @given(seeds)
    @settings(max_examples=150)
    def test_matches_generic_pipeline(self, seed):
        params = random_x_params(seed)
        closed = x_state_purities(params)
        generic = purity_set(x_state(params))
        assert closed.mu12 == pytest.approx(generic.mu12, abs=1e-12)
        assert closed.mu1 == pytest.approx(generic.mu1, abs=1e-12)
        assert closed.mu2 == pytest.approx(generic.mu2, abs=1e-12)
        assert closed.mu_tilde == pytest.approx(generic.mu_tilde, abs=1e-12)
        assert closed.delta == pytest.approx(generic.delta, abs=1e-12)


def eq11_lhs(params: XStateParams) -> float:
    """The X-state lhs as the paper displays it (eq11 and eq12):
    2 sum d_i^2 + 2(d1+d4)(d2+d3) - 1."""
    d1, d2, d3, d4 = params.diag
    return 2.0 * (d1 * d1 + d2 * d2 + d3 * d3 + d4 * d4) + 2.0 * (d1 + d4) * (d2 + d3) - 1.0


class TestEq11Eq12:
    """On X-states eq11 and eq12 are eq5 and eq10: their lhs is mu1 + mu2 - 1
    of ``x_state_purities``, against mu12 and mu_tilde."""

    def test_maximally_mixed(self):
        closed = x_state_purities(XStateParams(0.25, 0.25, 0.25, 0.25))
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
        params = random_x_params(seed)
        closed = x_state_purities(params)
        lhs = closed.mu1 + closed.mu2 - 1.0
        assert eq11_lhs(params) == pytest.approx(lhs, abs=1e-14)
        reports = {rep.name: rep for rep in audit_reports(x_state(params))}
        assert closed.mu12 - lhs == pytest.approx(reports["eq5"].margin, abs=1e-12)
        assert closed.mu_tilde - lhs == pytest.approx(reports["eq10"].margin, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.4, 0.9])
    def test_werner_margins(self, p):
        closed = x_state_purities(werner_params(p))
        lhs = closed.mu1 + closed.mu2 - 1.0
        assert eq11_lhs(werner_params(p)) == pytest.approx(lhs, abs=1e-14)
        reports = {rep.name: rep for rep in audit_reports(werner_state(p))}
        assert closed.mu12 - lhs == pytest.approx(reports["eq5"].margin, abs=1e-12)
        assert closed.mu_tilde - lhs == pytest.approx(reports["eq10"].margin, abs=1e-12)


class TestWerner:
    def test_p_zero_is_maximally_mixed(self):
        assert np.allclose(werner_state(0.0).mat, np.eye(4) / 4, atol=1e-16)

    def test_p_one_is_bell_projector(self):
        rho = werner_state(1.0)
        assert purities(rho.mat) == pytest.approx(1.0, abs=1e-14)

    def test_boundary_has_zero_eigenvalue(self):
        vals = hermitian_eig(werner_state(-1 / 3).mat).values
        assert abs(float(vals[0])) <= 1e-12

    def test_domain_enforced(self):
        with pytest.raises(DomainError):
            werner_params(1.01)
        with pytest.raises(DomainError):
            werner_state(-0.34)

    def test_matrix_matches_entrywise_oracle(self):
        assert np.array_equal(werner_state(0.8).mat, werner_matrix(0.8))


class TestEntries:
    """The ``*_params`` constructors are their domain checks followed by
    ``XStateParams`` of the family's entries map."""

    @pytest.mark.parametrize("p", [-1 / 3, 0.0, 0.3, 1 / 3, 0.8, 1.0])
    def test_werner(self, p):
        assert tuple(werner_params(p)) == werner_entries(p)

    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 0.9, 1.0])
    def test_beta(self, beta):
        assert tuple(beta_params(beta)) == beta_entries(beta)

    @pytest.mark.parametrize("x, a, b", [(0.3, 0.6, 0.8), (0.9, 0.6, 0.8),
                                         (0.5, 0.6j, 0.8), (0.7, 1.0, 0.0)])
    def test_gisin(self, x, a, b):
        if not gisin_domain(x, a, b):
            with pytest.raises(DomainError, match="separability threshold"):
                gisin_params(x, a, b)
            return
        assert tuple(gisin_params(x, a, b)) == gisin_entries(x, a, b)

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
        # entries on both sides of each XStateParams rule
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
        accepted = []
        for row in zip(*(e.tolist() for e in entries)):
            try:
                XStateParams(*row)
            except (DomainError, NotPositive, TraceNotOne):
                accepted.append(False)
            else:
                accepted.append(True)
        assert 0.2 < np.mean(accepted) < 0.8
        assert xstate_valid(entries).tolist() == accepted

    @pytest.mark.parametrize("p", [-3.0, -1.5, 1.5, 1e8])
    def test_out_of_domain_entries_unchecked(self, p):
        # populations below 0 or a coherence beyond the populations: the
        # map returns them, the constructor refuses them
        entries = werner_entries(p)
        assert sum(entries[:4]) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(DomainError):
            werner_params(p)
        ps = x_state_purities(entries)
        assert ps.mu12 == pytest.approx((3 * p * p + 1) / 4, rel=1e-15)
        assert ps.mu_tilde == pytest.approx(3 * p * p, rel=1e-15)
        assert xstate_entangled(entries)


class TestGisin:
    def test_huge_amplitude_domain_error(self):
        with pytest.raises(DomainError, match="deviates from 1 by inf"):
            gisin_params(0.5, 1e200, 0)

    def test_x_max_values(self):
        assert gisin_x_max(1.0, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert gisin_x_max(0.2, math.sqrt(1 - 0.04)) == pytest.approx(0.718, abs=1e-3)
        assert gisin_x_max(0.6, 0.8) == pytest.approx(0.51, abs=5e-3)
        assert gisin_x_max(0.07, 0.99) == pytest.approx(0.87, abs=1e-2)

    def test_valid_below_x_max(self):
        rho = gisin_state(0.5, 0.6, 0.8)
        assert abs(complex(rho.mat.trace()) - 1.0) <= 1e-15

    def test_rejected_above_x_max(self):
        # PSD with unit trace, but past the separability threshold
        x, a, b = 0.75, 0.2, math.sqrt(1 - 0.04)
        with pytest.raises(DomainError, match="separability threshold"):
            gisin_state(x, a, b)
        rho = x_state(XStateParams(*gisin_entries(x, a, b)))
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
        rho = x_state(XStateParams(*gisin_entries(x, a, b)))
        assert rho.mat.tobytes() == expected.tobytes()

    def test_diagonal_family_valid_everywhere(self):
        for x in np.linspace(0.05, 0.95, 10):
            rho = gisin_state(float(x), 1.0, 0.0)
            assert float(hermitian_eig(rho.mat).values[0]) >= -1e-12

    def test_normalization_slack(self):
        with pytest.raises(DomainError):
            gisin_params(0.5, 1.5, 0.0)
        # the non-normalized reference pair is within the slack
        assert _gisin_norm_defect(0.07, 0.99) is None
        assert gisin_x_max(0.07, 0.99) == pytest.approx(0.878, abs=1e-3)

    def test_raw_non_normalized_matrix_fails_trace(self):
        with pytest.raises(TraceNotOne):
            gisin_state(0.5, 0.07, 0.99)

    def test_x_domain(self):
        with pytest.raises(DomainError):
            gisin_params(0.0, 0.6, 0.8)
        with pytest.raises(DomainError):
            gisin_params(1.0, 0.6, 0.8)

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
            ps = purity_set(gisin_state(float(x), a, b))
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


# Every Gisin refusal and acceptance: (x, a, b), then the exception class and
# its full message, or the sha256 of the accepted state's matrix bytes.
X_MAX_06_08 = gisin_x_max(0.6, 0.8)
GISIN_CASES = [
    (0.0, 0.6, 0.8, DomainError, "Gisin x must lie in (0, 1), got 0.0"),
    (1.0, 0.6, 0.8, DomainError, "Gisin x must lie in (0, 1), got 1.0"),
    (1.5, 0.6, 0.8, DomainError, "Gisin x must lie in (0, 1), got 1.5"),
    (math.nan, 0.6, 0.8, DomainError, "Gisin x must lie in (0, 1), got nan"),
    # the x check comes before the slack check
    (-0.2, 1e200, 0.0, DomainError, "Gisin x must lie in (0, 1), got -0.2"),
    (0.5, 1.5, 0.0, DomainError,
     "|a|^2+|b|^2 deviates from 1 by 1.2500, beyond slack 0.02"),
    (0.5, 1e200, 0.0, DomainError,
     "|a|^2+|b|^2 deviates from 1 by inf, beyond slack 0.02"),
    (0.5, math.nan, 0.0, DomainError,
     "|a|^2+|b|^2 deviates from 1 by nan, beyond slack 0.02"),
    # the raw published pair: within the slack, off unit trace below x_max
    (0.5, 0.07, 0.99, TraceNotOne, "diagonal sums to 0.9924999999999999, off by 7.500e-03"),
    (0.9, 0.07, 0.99, DomainError,
     "x = 0.9 exceeds the separability threshold x_max = 0.878272"),
    (X_MAX_06_08 + 2e-10, 0.6, 0.8, DomainError,
     "x = 0.5102040818326531 exceeds the separability threshold x_max = 0.510204"),
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
        rho = gisin_state(x, a, b)
        assert hashlib.sha256(rho.mat.tobytes()).hexdigest() == expected
        return
    with pytest.raises(PurityLabError) as info:
        gisin_state(x, a, b)
    assert type(info.value) is error
    assert str(info.value) == expected


class TestBeta:
    def test_half_is_quarter_filled_x_pattern(self):
        rho = beta_state(0.5)
        expected = np.zeros((4, 4), dtype=complex)
        for i, j in [(0, 0), (3, 3), (0, 3), (3, 0),
                     (1, 1), (2, 2), (1, 2), (2, 1)]:
            expected[i, j] = 0.25
        assert np.array_equal(rho.mat, expected)

    def test_half_is_rank_deficient_but_evaluates(self):
        rho = beta_state(0.5)
        vals = hermitian_eig(rho.mat).values
        assert np.allclose(vals, [0, 0, 0.5, 0.5], atol=1e-14)
        ps = purity_set(rho)  # clamping must keep mu_tilde finite here
        assert math.isfinite(ps.mu_tilde)
        assert ps.mu_tilde == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_endpoints_are_pure(self, beta):
        assert purities(beta_state(beta).mat) == pytest.approx(1.0, abs=1e-14)

    def test_domain_enforced(self):
        with pytest.raises(DomainError):
            beta_params(-0.01)
        with pytest.raises(DomainError):
            beta_state(1.01)


class TestEntanglement:
    def test_werner_thresholds(self):
        assert xstate_entangled(werner_params(0.5))
        assert not xstate_entangled(werner_params(0.2))
        assert not xstate_entangled(werner_params(1 / 3))

    def test_beta_thresholds(self):
        assert not xstate_entangled(beta_params(0.5))
        assert xstate_entangled(beta_params(0.9))
        assert xstate_entangled(beta_params(0.0))

    @pytest.mark.parametrize("p", [-1 / 3, 0.0, 0.33, 0.3334, 0.5, 1.0])
    def test_ppt_matches_werner_domain(self, p):
        assert ppt_entangled(werner_state(p)) == (p > 1 / 3)

    def test_ppt_gisin_threshold(self):
        a, b = 0.6, 0.8
        x_max = gisin_x_max(a, b)
        for x in (0.2, x_max - 0.01, x_max + 0.01, 0.9):
            rho = x_state(XStateParams(*gisin_entries(x, a, b)))
            assert ppt_entangled(rho) == (x > x_max)

    def test_unsupported_shape(self):
        from puritylab.density import random_density

        rho = random_density(3, 3, 9, seed=5)
        with pytest.raises(ShapeUnsupported):
            ppt_entangled(rho)

    @given(seeds)
    @settings(max_examples=150)
    def test_agrees_with_ppt_on_x_states(self, seed):
        params = random_x_params(seed)
        assert xstate_entangled(params) == ppt_entangled(x_state(params))

    def test_agrees_with_ppt_bulk(self):
        # both verdicts are exact for 4x4 X-states, so they must coincide
        # on a large ensemble, not just on shrunk examples
        disagreements = sum(
            xstate_entangled(params) != ppt_entangled(x_state(params))
            for params in map(random_x_params, range(10_000))
        )
        assert disagreements == 0

    @given(seeds)
    @settings(max_examples=150)
    def test_at_most_one_entanglement_chain(self, seed):
        params = random_x_params(seed)
        first = abs(params.c14) ** 2 > params.d2 * params.d3
        second = abs(params.c23) ** 2 > params.d1 * params.d4
        assert not (first and second)
