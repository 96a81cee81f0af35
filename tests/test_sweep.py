import math

import pytest

from puritylab import sweep
from puritylab.density import BlockShape
from puritylab.errors import SpecError
from puritylab.inequalities import audit_reports, delta, find_delta_roots, purity_set
from puritylab.states import _gisin_closed, gisin_x_max
from puritylab.sweep import (
    ScanSample,
    SweepSpec,
    run_sweep,
    scan_conjecture,
    scan_state,
)

SHAPE22 = BlockShape(2, 2)

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

    def test_bad_interval(self):
        with pytest.raises(SpecError):
            SweepSpec(family="werner", start=1, stop=0, count=10)

    def test_gisin_requires_amplitudes(self):
        with pytest.raises(SpecError):
            SweepSpec(family="gisin", start=0.1, stop=0.9, count=10)

    def test_gisin_slack_enforced(self):
        with pytest.raises(SpecError):
            SweepSpec(family="gisin", start=0.1, stop=0.9, count=10, a=1.5, b=0.0)

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

    def test_grid_endpoints_inclusive(self):
        spec = SweepSpec(family="werner", start=-1 / 3, stop=1.0, count=5)
        grid = spec.grid()
        assert grid[0] == -1 / 3
        assert grid[-1] == 1.0
        assert len(grid) == 5


class TestWernerSweep:
    def test_closed_forms_and_threshold(self):
        spec = SweepSpec(family="werner", start=-1 / 3, stop=1.0, count=200)
        rows = run_sweep(spec)
        assert len(rows) == 200
        for row in rows:
            assert row.valid
            p = row.param
            assert row.mu12 == pytest.approx((3 * p * p + 1) / 4, abs=1e-12)
            assert row.mu1 == pytest.approx(0.5, abs=1e-12)
            assert row.mu2 == pytest.approx(0.5, abs=1e-12)
            assert row.entangled == (p > 1 / 3)
        deltas = [row.delta for row in rows]
        signs = [d > 0 for d in deltas]
        assert signs[0] is False or abs(deltas[0]) < 1e-9  # at p = -1/3 delta = 0
        assert True in signs and False in signs

    def test_delta_crosses_at_one_third(self):
        rows = run_sweep(SweepSpec(family="werner", start=0.0, stop=1.0, count=101))
        crossing = [i for i in range(100)
                    if (rows[i].delta < 0) != (rows[i + 1].delta < 0)]
        assert len(crossing) == 1
        low, high = rows[crossing[0]].param, rows[crossing[0] + 1].param
        assert low < 1 / 3 < high


class TestBetaSweep:
    def test_closed_forms(self):
        rows = run_sweep(SweepSpec(family="beta", start=0.0, stop=1.0, count=200))
        for row in rows:
            b = row.param
            assert row.valid
            assert row.mu_tilde == pytest.approx(8 * b * b - 8 * b + 3, abs=1e-12)
            assert row.delta == pytest.approx(6 * b * b - 6 * b + 2, abs=1e-12)
            assert row.delta > 0


class TestGisinSweep:
    def test_invalid_rows_keep_closed_forms(self):
        a, b = 0.6, 0.8
        x_max = gisin_x_max(a, b)
        rows = run_sweep(SweepSpec(family="gisin", start=0.01, stop=0.99,
                                   count=99, a=a, b=b))
        beyond = [row for row in rows if row.param > x_max + 1e-9]
        assert beyond, "grid must reach past x_max"
        for row in beyond:
            assert not row.valid
            assert row.mu1 is None and row.mu2 is None
            lhs5, mt, mu12 = _gisin_closed(row.param, a * a, b * b)
            assert row.mu12 == pytest.approx(mu12, abs=1e-14)
            assert row.mu_tilde == pytest.approx(mt, abs=1e-14)
            assert row.lhs5 == pytest.approx(lhs5, abs=1e-14)
            assert row.entangled
        inside = [row for row in rows if row.param < x_max - 1e-9]
        assert all(row.valid and not row.entangled for row in inside)

    def test_out_of_domain_grid_points_marked_invalid(self):
        rows = run_sweep(SweepSpec(family="gisin", start=0.0, stop=1.0,
                                   count=11, a=1.0, b=0.0))
        assert not rows[0].valid   # x = 0
        assert not rows[-1].valid  # x = 1
        assert all(row.valid for row in rows[1:-1])

    def test_root_location_against_frozen_oracle(self):
        a2, b2 = 0.36, 0.64
        roots = find_delta_roots(
            lambda x: _gisin_closed(x, a2, b2)[1] - _gisin_closed(x, a2, b2)[2],
            0.001, 0.999, grid=4096, tol=1e-10,
        )
        assert len(roots) == len(GISIN_DELTA_ROOTS_06_08)
        for found, frozen in zip(roots, GISIN_DELTA_ROOTS_06_08):
            assert found == pytest.approx(frozen, abs=1e-4)


class TestXRandomSweep:
    def test_deterministic_and_valid(self):
        spec = SweepSpec(family="xrandom", start=0, stop=19, count=20)
        rows_a = run_sweep(spec)
        rows_b = run_sweep(spec)
        assert rows_a == rows_b
        assert [row.param for row in rows_a] == [float(s) for s in range(20)]
        assert all(row.valid for row in rows_a)


class TestSweepInvariants:
    def test_valid_rows_pass_all_checks(self):
        specs = [
            SweepSpec(family="werner", start=-1 / 3, stop=1.0, count=40),
            SweepSpec(family="beta", start=0.0, stop=1.0, count=40),
            SweepSpec(family="gisin", start=0.05, stop=0.95, count=40, a=0.6, b=0.8),
            SweepSpec(family="xrandom", start=0, stop=39, count=40),
        ]
        from puritylab.states import (GisinParams, beta_params, gisin_state,
                                      random_x_params, werner_params, x_state)

        for spec in specs:
            for row in run_sweep(spec):
                if not row.valid:
                    continue
                if spec.family == "werner":
                    rho = x_state(werner_params(row.param))
                elif spec.family == "beta":
                    rho = x_state(beta_params(row.param))
                elif spec.family == "gisin":
                    rho = gisin_state(GisinParams(row.param, spec.a, spec.b))
                else:
                    rho = x_state(random_x_params(int(row.param)))
                for rep in audit_reports(rho, tol=1e-9):
                    assert rep.satisfied, (spec.family, row.param, rep)


class TestScan:
    def test_deterministic(self):
        a = scan_conjecture(SHAPE22, samples=60, seed=2024)
        b = scan_conjecture(SHAPE22, samples=60, seed=2024)
        assert a == b

    def test_alternates_kinds_evenly(self):
        report = scan_conjecture(SHAPE22, samples=40, seed=9)
        assert report.entangled_stats.count + report.separable_stats.count == 40

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
            (ent if ppt_entangled(rho) else sep).append(delta(rho))
        assert _subset_stats(ent) == report.entangled_stats
        assert _subset_stats(sep) == report.separable_stats

    def test_pure_entangled_draw_has_positive_delta(self):
        # rank-1 Ginibre draws are almost surely entangled with delta > 0
        rho = scan_state(SHAPE22, "ginibre", 1, seed=31337)
        from puritylab.states import ppt_entangled

        assert ppt_entangled(rho)
        assert delta(rho) > 0

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
        assert purity_set(rebuilt) is not None
