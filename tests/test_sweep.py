import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from oracles import (
    beta_matrix,
    gisin_matrix,
    mpmath_purity_set,
    scalar_random_x_params,
    scalar_sweep_rows,
    werner_matrix,
)
from puritylab import sweep
from puritylab.defaults import ENTANGLE_TOL
from puritylab.density import BlockShape
from puritylab.errors import DomainError, SpecError
from puritylab.fileio import scan_report_json
from puritylab.inequalities import audit_reports, delta, find_delta_roots, purity_set
from puritylab.states import (
    _gisin_closed,
    beta_entries,
    beta_state,
    gisin_state,
    gisin_x_max,
    werner_entries,
    werner_state,
    xstate_valid,
)
from puritylab.sweep import (
    FAMILIES,
    ScanSample,
    SweepSpec,
    run_sweep,
    scan_conjecture,
    scan_state,
)

SHAPE22 = BlockShape(2, 2)
EPS = 2.0 ** -52

# Roots of the closed-form delta for {a, b} = {0.6, 0.8}, frozen from an
# independent fine-grid bisection (200001 points, 80 halvings).
GISIN_DELTA_ROOTS_06_08 = (0.311199, 0.363531)


class TestSweepSpec:
    def test_unknown_family(self):
        with pytest.raises(SpecError):
            SweepSpec(family="ghz", start=0, stop=1, count=10)

    def test_count_too_small(self):
        with pytest.raises(SpecError):
            SweepSpec(family="werner", start=0, stop=1, count=1)

    @pytest.mark.parametrize("count", [2.5, 3.0, np.float64(3)])
    def test_non_integer_count_rejected(self, count):
        # count=2.5 swept a row at p = 1.333, past stop
        with pytest.raises(SpecError, match="count must be an integer"):
            SweepSpec(family="werner", start=0.0, stop=1.0, count=count)

    def test_numpy_integer_count_accepted(self):
        table = run_sweep(SweepSpec(family="werner", start=0.0, stop=1.0, count=np.int64(3)))
        assert table.param.tolist() == [0.0, 0.5, 1.0]

    def test_bad_interval(self):
        with pytest.raises(SpecError):
            SweepSpec(family="werner", start=1, stop=0, count=10)

    def test_gisin_requires_amplitudes(self):
        with pytest.raises(SpecError):
            SweepSpec(family="gisin", start=0.1, stop=0.9, count=10)

    def test_gisin_slack_enforced(self):
        with pytest.raises(SpecError):
            SweepSpec(family="gisin", start=0.1, stop=0.9, count=10, a=1.5, b=0.0)

    @pytest.mark.parametrize("a, b", [(1e200, 0.0), (0.6, 1e200j)])
    def test_huge_amplitudes_refused(self, a, b):
        # |a|^2 overflows to inf: a refusal, not an OverflowError
        with pytest.raises(SpecError, match="deviates from 1 by inf"):
            SweepSpec(family="gisin", start=0.1, stop=0.9, count=3, a=a, b=b)

    @pytest.mark.parametrize("family", ["werner", "beta", "xrandom"])
    @pytest.mark.parametrize("amplitudes", [{"a": 0.3}, {"b": 0.3}, {"a": 0.6, "b": 0.8}],
                             ids=["a", "b", "a-and-b"])
    def test_amplitudes_refused_outside_gisin(self, family, amplitudes):
        # only the gisin family reads a and b; elsewhere they would be ignored
        with pytest.raises(SpecError, match="amplitudes a and b are for gisin sweeps"):
            SweepSpec(family=family, start=0, stop=1, count=2, **amplitudes)

    def test_xrandom_half_integer_grid_refused(self):
        # a step of 1, but round-half-to-even maps 0.5, 1.5, 2.5 to seeds 0, 2, 2
        with pytest.raises(SpecError, match="repeated seeds"):
            SweepSpec(family="xrandom", start=0.5, stop=2.5, count=3)

    @pytest.mark.parametrize("start, stop", [(0, 2.0**64), (-2.0**63, 2.0**63)])
    def test_xrandom_seeds_equal_modulo_2_64_refused(self, start, stop):
        # distinct ints that streams read as one seed: the rows would repeat
        with pytest.raises(SpecError, match=r"repeated seeds \(streams read a seed modulo 2\^64\)"):
            SweepSpec(family="xrandom", start=start, stop=stop, count=2)

    def test_xrandom_grid_rounded_once(self, monkeypatch):
        # the spec's refusal and run_sweep read one list of seeds
        calls = []
        grid = SweepSpec.grid
        monkeypatch.setattr(SweepSpec, "grid", lambda spec: calls.append(spec) or grid(spec))
        table = run_sweep(SweepSpec(family="xrandom", start=3, stop=7, count=5))
        assert len(calls) == 1 and table.param.tolist() == [3.0, 4.0, 5.0, 6.0, 7.0]

    def test_grid_endpoints_inclusive(self):
        spec = SweepSpec(family="werner", start=-1 / 3, stop=1.0, count=5)
        grid = spec.grid()
        assert grid[0] == -1 / 3
        assert grid[-1] == 1.0
        assert len(grid) == 5

    @pytest.mark.parametrize("count", [170, 272, 290, 296, 339])
    def test_werner_last_row_is_stop(self, count):
        # start + (count - 1) * step reads 1.0000000000000002 at these
        # counts, a Werner parameter past 1 and so an invalid row
        table = run_sweep(SweepSpec(family="werner", start=-1 / 3, stop=1.0, count=count))
        assert table.param[-1] == 1.0
        assert table.valid.all()

    @given(st.floats(-1e6, 1e6), st.floats(1e-9, 1e6), st.integers(2, 1000))
    @settings(max_examples=200)
    def test_grid_starts_at_start_and_ends_at_stop(self, start, span, count):
        stop = start + span
        assume(start < stop)
        grid = SweepSpec(family="werner", start=start, stop=stop, count=count).grid()
        assert len(grid) == count
        assert grid[0] == start and grid[-1] == stop


class TestWernerSweep:
    def test_closed_forms_and_threshold(self):
        spec = SweepSpec(family="werner", start=-1 / 3, stop=1.0, count=200)
        table = run_sweep(spec)
        assert len(table.param) == 200
        p = table.param
        assert table.valid.all()
        assert table.mu12 == pytest.approx((3 * p * p + 1) / 4, abs=1e-12)
        assert table.mu1 == pytest.approx(0.5, abs=1e-12)
        assert table.mu2 == pytest.approx(0.5, abs=1e-12)
        assert table.entangled.tolist() == (p > 1 / 3).tolist()
        deltas = table.delta.tolist()
        signs = [d > 0 for d in deltas]
        assert signs[0] is False or abs(deltas[0]) < 1e-9  # at p = -1/3 delta = 0
        assert True in signs and False in signs

    def test_delta_crosses_at_one_third(self):
        table = run_sweep(SweepSpec(family="werner", start=0.0, stop=1.0, count=101))
        crossing = [i for i in range(100)
                    if (table.delta[i] < 0) != (table.delta[i + 1] < 0)]
        assert len(crossing) == 1
        low, high = table.param[crossing[0]], table.param[crossing[0] + 1]
        assert low < 1 / 3 < high


class TestBetaSweep:
    def test_closed_forms(self):
        table = run_sweep(SweepSpec(family="beta", start=0.0, stop=1.0, count=200))
        b = table.param
        assert table.valid.all()
        assert table.mu_tilde == pytest.approx(8 * b * b - 8 * b + 3, abs=1e-12)
        assert table.delta == pytest.approx(6 * b * b - 6 * b + 2, abs=1e-12)
        assert (table.delta > 0).all()


class TestGisinSweep:
    def test_invalid_rows_keep_closed_forms(self):
        a, b = 0.6, 0.8
        x_max = gisin_x_max(a, b)
        table = run_sweep(SweepSpec(family="gisin", start=0.01, stop=0.99,
                                    count=99, a=a, b=b))
        beyond = table.param > x_max + 1e-9
        assert beyond.any(), "grid must reach past x_max"
        assert not table.valid[beyond].any()
        assert np.isnan(table.mu1[beyond]).all() and np.isnan(table.mu2[beyond]).all()
        lhs5, mt, mu12 = _gisin_closed(table.param[beyond], a * a, b * b)
        assert table.mu12[beyond] == pytest.approx(mu12, abs=1e-14)
        assert table.mu_tilde[beyond] == pytest.approx(mt, abs=1e-14)
        assert table.lhs5[beyond] == pytest.approx(lhs5, abs=1e-14)
        assert table.entangled[beyond].all()
        inside = table.param < x_max - 1e-9
        assert (table.valid[inside] & ~table.entangled[inside]).all()

    def test_out_of_domain_grid_points_marked_invalid(self):
        valid = run_sweep(SweepSpec(family="gisin", start=0.0, stop=1.0,
                                    count=11, a=1.0, b=0.0)).valid
        assert not valid[0]   # x = 0
        assert not valid[-1]  # x = 1
        assert valid[1:-1].all()

    def test_threshold_band_is_valid_and_entangled(self):
        # gisin_state accepts x <= x_max + VALIDATION_TOL (1e-10), and just
        # past x_max the entry rule already calls the state entangled, so
        # rows in that band read valid and entangled; pinned so that any
        # change to the band is deliberate
        a, b = 0.6, 0.8
        x_max = gisin_x_max(a, b)
        table = run_sweep(SweepSpec("gisin", x_max - 1e-10, x_max + 2e-10, 7, a=a, b=b))
        assert table.valid.tolist() == [True] * 5 + [False] * 2
        assert table.entangled.tolist() == [False] * 3 + [True] * 4
        param = table.param.tolist()
        assert gisin_state(param[4], a, b) is not None
        with pytest.raises(DomainError, match="exceeds the separability threshold"):
            gisin_state(param[5], a, b)

    def test_root_location_against_frozen_oracle(self):
        a2, b2 = 0.36, 0.64
        roots = find_delta_roots(
            lambda x: _gisin_closed(x, a2, b2)[1] - _gisin_closed(x, a2, b2)[2],
            0.001, 0.999, grid=4096, tol=1e-10,
        )
        assert len(roots) == len(GISIN_DELTA_ROOTS_06_08)
        for found, frozen in zip(roots, GISIN_DELTA_ROOTS_06_08):
            assert found == pytest.approx(frozen, abs=1e-4)


def werner_mp(p: float):
    """The Werner matrix at the exact float p, in mpmath at its precision."""
    p = mp.mpf(p)
    outer, inner, c = (1 + p) / 4, (1 - p) / 4, p / 2
    return mp.matrix([[outer, 0, 0, c], [0, inner, 0, 0], [0, 0, inner, 0], [c, 0, 0, outer]])


def beta_mp(beta: float):
    """The beta matrix at the exact float beta, in mpmath at its precision."""
    beta = mp.mpf(beta)
    outer, inner = beta / 2, (1 - beta) / 2
    return mp.matrix([[outer, 0, 0, outer], [0, inner, inner, 0],
                      [0, inner, inner, 0], [outer, 0, 0, outer]])


class TestOutOfDomainRows:
    """Werner and beta rows outside the family's domain are invalid and
    carry the X-state closed forms of the family's entries."""

    @pytest.mark.parametrize("family, start, stop, count, invalid, build", [
        ("werner", -3, 3, 601, 467, werner_mp),
        ("beta", -2, 3, 501, 400, beta_mp),
    ], ids=["werner", "beta"])
    def test_closed_forms_match_mpmath(self, family, start, stop, count, invalid, build):
        # a few roundings of the largest term: the entries, their squares,
        # the square roots and the sums each round once
        table = run_sweep(SweepSpec(family=family, start=start, stop=stop, count=count))
        outside = np.flatnonzero(~table.valid).tolist()
        assert len(outside) == invalid
        for i in outside:
            param = table.param[i].item()
            with mp.workdps(40):
                expected = mpmath_purity_set(build(param), 2, 2)
            bound = 8 * EPS * max(1.0, expected["mu_tilde"])
            for key, value in expected.items():
                assert abs(getattr(table, key)[i] - value) <= bound, (param, key)

    def test_werner_below_minus_one_entangled(self):
        # populations (1 - p)/4 > 0 > (1 + p)/4 there, and |p/2| beats
        # (1 - p)/4, so the entry rule calls these rows entangled
        table = run_sweep(SweepSpec(family="werner", start=-3, stop=3, count=601))
        below = table.param < -1.0 - 1e-9
        assert table.entangled[below].all()
        assert not table.entangled[~below & (table.param < 1 / 3)].any()

    @pytest.mark.parametrize("family", ["werner", "beta"])
    @pytest.mark.parametrize("start, stop", [(-1e16, 0.0), (0.0, 1e16)], ids=["minus", "plus"])
    def test_entries_off_unit_sum_refused(self, family, start, stop):
        # 1 + p rounds to p there, so the entries no longer carry the 1
        with pytest.raises(SpecError, match="sum to"):
            run_sweep(SweepSpec(family=family, start=start, stop=stop, count=2))


ENTRY_RULE_SPECS = [
    SweepSpec(family="werner", start=-3, stop=3, count=601),
    SweepSpec(family="beta", start=-2, stop=3, count=501),
    SweepSpec(family="gisin", start=-2, stop=3, count=501, a=0.6, b=0.8),
    SweepSpec(family="gisin", start=0.005, stop=0.995, count=200, a=0.07, b=0.99),
    SweepSpec(family="gisin", start=0.005, stop=0.995, count=200, a=0.6j, b=0.8),
    SweepSpec(family="xrandom", start=0, stop=199, count=200),
]


def family_matrix(spec: SweepSpec, param: float):
    if spec.family == "werner":
        return werner_matrix(param)
    if spec.family == "beta":
        return beta_matrix(param)
    if spec.family == "gisin":
        return gisin_matrix(param, spec.a, spec.b)
    d1, d2, d3, d4, c14, c23 = scalar_random_x_params(int(param))
    mat = np.diag(np.array([d1, d2, d3, d4], dtype=np.complex128))
    mat[0, 3], mat[1, 2] = c14, c23
    return mat


@pytest.mark.parametrize("spec", ENTRY_RULE_SPECS,
                         ids=["werner", "beta", "gisin", "gisin-raw", "gisin-complex", "xrandom"])
def test_entangled_is_the_entry_rule(spec):
    # every row, valid or not: a coherence beats the geometric mean of the
    # other pair of populations (Peres 1996)
    table = run_sweep(spec)
    for param, entangled in zip(table.param.tolist(), table.entangled.tolist()):
        mat = family_matrix(spec, param)
        d1, d2, d3, d4 = mat.diagonal().real
        rule = (abs(mat[0, 3]) ** 2 > d2 * d3 + ENTANGLE_TOL
                or abs(mat[1, 2]) ** 2 > d1 * d4 + ENTANGLE_TOL)
        assert entangled == rule, param


def row_bits(row) -> tuple:
    """The nine values of a row, floats by their bits (NaN as "nan")."""
    return tuple(v if type(v) is bool else float(v).hex() for v in row)


def table_rows(table) -> list[tuple]:
    """The rows of a sweep's columns, as Python scalars."""
    return list(zip(*(column.tolist() for column in table)))


@st.composite
def amplitude_pairs(draw):
    """Gisin amplitudes |a| = s cos t, |b| = s sin t: normalized or within
    the slack, real (of either sign), complex with zero imaginary parts, or
    with phases."""
    t = draw(st.floats(0.0, math.pi / 2))
    s = draw(st.sampled_from([1.0, 1.0, 1.0, 0.995, 1.008]))
    a, b = s * math.cos(t), s * math.sin(t)
    kind = draw(st.sampled_from(["real", "signed", "complex", "phased", "phased"]))
    if kind == "signed":
        return -a, draw(st.sampled_from([-b, b]))
    if kind == "complex":
        return complex(a), complex(b)
    if kind == "phased":
        pa, pb = draw(st.floats(-math.pi, math.pi)), draw(st.floats(-math.pi, math.pi))
        return a * complex(math.cos(pa), math.sin(pa)), b * complex(math.cos(pb), math.sin(pb))
    return a, b


@st.composite
def sweep_specs(draw):
    """Grids of every family, inside and outside its domain, up to values
    whose closed forms overflow or whose entries no longer sum to 1."""
    family = draw(st.sampled_from(FAMILIES))
    count = draw(st.integers(2, 40))
    if family == "xrandom":
        start = draw(st.integers(0, 2**40))
        return SweepSpec(family, start, start + draw(st.integers(1, 3)) * (count - 1), count)
    lo, hi = draw(st.sampled_from([(0.0, 1.0), (0.0, 1.0), (-3.0, 3.0), (-1e17, 1e17),
                                   (-1e200, 1e200)]))
    start, stop = sorted((draw(st.floats(lo, hi)), draw(st.floats(lo, hi))))
    assume(start < stop)
    a, b = draw(amplitude_pairs()) if family == "gisin" else (None, None)
    return SweepSpec(family, start, stop, count, a=a, b=b)


@given(sweep_specs())
@settings(max_examples=200, deadline=None)
def test_array_rows_equal_one_point_rows(spec):
    # every field bit for bit, or the same SpecError for the first row refused
    try:
        expected = scalar_sweep_rows(spec)
    except SpecError as err:
        with pytest.raises(SpecError) as raised:
            run_sweep(spec)
        assert str(raised.value) == str(err)
        return
    assert ([row_bits(row) for row in table_rows(run_sweep(spec))]
            == [row_bits(row) for row in expected])


@st.composite
def werner_and_beta_specs(draw):
    """Werner and beta grids across an end of the family's states, down to
    steps of 1e-13: Werner's reach into the 4e-12 band below -1/3 that
    ``xstate_valid`` admits."""
    family = draw(st.sampled_from(["werner", "beta"]))
    end = draw(st.sampled_from([-1 / 3, 1.0] if family == "werner" else [0.0, 1.0]))
    width = draw(st.sampled_from([1e-11, 1e-6, 0.5]))
    start = draw(st.floats(end - width, end))
    stop = draw(st.floats(start, end + width))
    assume(start < stop)
    return SweepSpec(family, start, stop, draw(st.integers(2, 30)))


@given(werner_and_beta_specs())
@settings(max_examples=100)
@example(SweepSpec("werner", -1 / 3 - 6e-12, -1 / 3 + 6e-12, 13))
def test_constructor_mask_and_sweep_agree(spec):
    # one rule: the constructor accepts a parameter exactly where
    # xstate_valid accepts its entries and the sweep marks its row valid
    state, entries_of = {"werner": (werner_state, werner_entries),
                         "beta": (beta_state, beta_entries)}[spec.family]
    table = run_sweep(spec)
    for param, valid in zip(table.param.tolist(), table.valid.tolist()):
        try:
            state(param)
        except DomainError:
            accepted = False
        else:
            accepted = True
        assert accepted == bool(xstate_valid(entries_of(param))) == valid, param


class TestXRandomSweep:
    def test_deterministic_and_valid(self):
        spec = SweepSpec(family="xrandom", start=0, stop=19, count=20)
        table_a = run_sweep(spec)
        table_b = run_sweep(spec)
        assert table_rows(table_a) == table_rows(table_b)
        assert table_a.param.tolist() == [float(s) for s in range(20)]
        assert table_a.valid.all()

    def test_one_draw_and_no_per_seed_params(self, monkeypatch):
        # the grid's entries come from one stream_uniforms call, and no
        # x_state is built per seed: xstate_valid checks them once
        from puritylab import states

        draws, params = [], []
        real_draw, real_x_state = states.stream_uniforms, states.x_state
        monkeypatch.setattr(states, "stream_uniforms",
                            lambda *args: draws.append(args) or real_draw(*args))
        monkeypatch.setattr(states, "x_state",
                            lambda *args: params.append(args) or real_x_state(*args))
        table = run_sweep(SweepSpec(family="xrandom", start=0, stop=199, count=200))
        assert len(draws) == 1 and params == []
        assert table.valid.all()


class TestSweepInvariants:
    def test_valid_rows_pass_all_checks(self):
        specs = [
            SweepSpec(family="werner", start=-1 / 3, stop=1.0, count=40),
            SweepSpec(family="beta", start=0.0, stop=1.0, count=40),
            SweepSpec(family="gisin", start=0.05, stop=0.95, count=40, a=0.6, b=0.8),
            SweepSpec(family="xrandom", start=0, stop=39, count=40),
        ]
        from oracles import one_x_entries
        from puritylab.states import beta_state, gisin_state, werner_state, x_state

        for spec in specs:
            table = run_sweep(spec)
            for param in table.param[table.valid].tolist():
                if spec.family == "werner":
                    rho = werner_state(param)
                elif spec.family == "beta":
                    rho = beta_state(param)
                elif spec.family == "gisin":
                    rho = gisin_state(param, spec.a, spec.b)
                else:
                    rho = x_state(one_x_entries(int(param)))
                for rep in audit_reports(rho, tol=1e-9):
                    assert rep.satisfied.item(), (spec.family, param, rep)


class TestScan:
    def test_deterministic(self):
        a = scan_conjecture(SHAPE22, samples=60, seed=2024)
        b = scan_conjecture(SHAPE22, samples=60, seed=2024)
        assert a == b

    def test_alternates_kinds_evenly(self):
        report = scan_conjecture(SHAPE22, samples=40, seed=9)
        assert report.entangled_stats.count + report.separable_stats.count == 40

    @pytest.mark.parametrize("samples", [2.5, 40.0])
    def test_non_integer_samples_rejected(self, samples):
        with pytest.raises(SpecError, match="samples must be an integer"):
            scan_conjecture(SHAPE22, samples=samples, seed=9)

    def test_numpy_integer_samples_accepted(self):
        # read as Python ints, so the report's JSON has the same bytes
        shape = BlockShape(np.int64(2), np.int64(2))
        report = scan_conjecture(shape, samples=np.int64(40), seed=9)
        assert report == scan_conjecture(SHAPE22, samples=40, seed=9)
        assert scan_report_json(report) == scan_report_json(
            scan_conjecture(SHAPE22, samples=40, seed=9))

    def test_counterexamples_are_entangled_with_small_delta(self):
        report = scan_conjecture(SHAPE22, samples=200, seed=5, tol=1e-9)
        for sample in report.counterexamples:
            assert sample.entangled
            assert sample.delta <= 1e-9

    def test_separable_controls_never_counterexamples(self):
        # separable draws sit at odd indices; none may appear in the list
        report = scan_conjecture(SHAPE22, samples=200, seed=7)
        assert all(s.kind != "separable" for s in report.counterexamples)

    def test_samples_rederivable_from_recipe(self):
        # rebuild every sample from the documented per-index recipe and
        # recompute the report's statistics from scratch
        from puritylab.states import ppt_entangled
        from puritylab.sweep import _sample_recipe, _subset_stats

        samples, seed = 30, 2024
        report = scan_conjecture(SHAPE22, samples=samples, seed=seed)
        ent, sep = [], []
        for index in range(samples):
            kind, size, sample_seed = _sample_recipe(SHAPE22, index, seed)
            rho = scan_state(SHAPE22, kind, size, sample_seed)
            (ent if ppt_entangled(rho).item() else sep).append(delta(rho).item())
        assert _subset_stats(ent) == report.entangled_stats
        assert _subset_stats(sep) == report.separable_stats

    def test_pure_entangled_draw_has_positive_delta(self):
        # rank-1 Ginibre draws are almost surely entangled with delta > 0
        rho = scan_state(SHAPE22, "ginibre", 1, seed=31337)
        from puritylab.states import ppt_entangled

        assert ppt_entangled(rho).item()
        assert delta(rho).item() > 0

    def test_stats_partition(self):
        report = scan_conjecture(SHAPE22, samples=50, seed=3)
        ent, sep = report.entangled_stats, report.separable_stats
        if ent.count:
            assert ent.min_delta <= ent.mean_delta <= ent.max_delta
        if sep.count:
            assert sep.min_delta <= sep.mean_delta <= sep.max_delta

    def test_rejects_zero_samples(self):
        with pytest.raises(SpecError):
            scan_conjecture(SHAPE22, samples=0, seed=0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-9])
    def test_rejects_degenerate_tol_before_sampling(self, tol, monkeypatch):
        # tol=nan would flag nothing and tol=inf every entangled sample
        def no_sampling(*args, **kwargs):
            raise AssertionError("scan sampled states for a tol it refuses")

        monkeypatch.setattr(sweep, "sample_blocks", no_sampling)
        with pytest.raises(SpecError, match="tol must be a finite number >= 0"):
            scan_conjecture(SHAPE22, samples=40, seed=1, tol=tol)

    def test_scan_sample_record_roundtrip(self):
        sample = ScanSample(index=3, seed=12, kind="separable", size=2,
                            delta=-0.1, entangled=False)
        rebuilt = scan_state(SHAPE22, sample.kind, sample.size, sample.seed)
        assert purity_set(rebuilt).delta.shape == (1,)
