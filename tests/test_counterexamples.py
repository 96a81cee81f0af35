"""Pinned counterexamples to "entangled implies delta > 0".

Each state is rebuilt from its recipe alone and its delta and partial-
transpose spectrum are recomputed by the independent oracle, so a pin does
not rest on the package's own pipeline.
"""

import pytest

from oracles import delta_and_min_pt, one_x_entries
from puritylab.defaults import ENTANGLE_TOL, REPORT_TOL
from puritylab.density import BlockShape, make_density
from puritylab.inequalities import delta
from puritylab.prng import child_seed
from puritylab.states import (
    ppt_entangled,
    x_state,
    x_state_purities,
    xstate_entangled,
)
from puritylab.sweep import scan_conjecture, scan_state

SHAPE22 = BlockShape(2, 2)


class TestGinibreCounterexample:
    """Sample 916 of the 2x2 scan at seed 7: a rank-3 Ginibre state that
    is entangled (NPT) with delta < 0."""

    RECIPE = ("ginibre", 3, 2126741664953796415)

    def test_recipe_is_scan_sample_916(self):
        assert child_seed(7, 916) == self.RECIPE[2]

    def test_delta_negative_and_npt_by_oracle(self):
        rho = scan_state(SHAPE22, *self.RECIPE)
        ref_delta, ref_min_pt = delta_and_min_pt(rho.mat, 2, 2)
        assert ref_delta == pytest.approx(-0.017036, abs=5e-7)
        assert ref_min_pt == pytest.approx(-4.31e-3, abs=5e-6)
        assert abs(delta(rho).item() - ref_delta) <= 1e-12
        assert ppt_entangled(rho).item()
        assert ref_min_pt < -ENTANGLE_TOL

    def test_scan_reports_it(self):
        report = scan_conjecture(SHAPE22, samples=1000, seed=7)
        found = {s.index: s for s in report.counterexamples}
        assert sorted(found) == [900, 916]
        sample = found[916]
        assert (sample.kind, sample.size, sample.seed) == self.RECIPE
        assert sample.delta <= REPORT_TOL


class TestXStateCounterexample:
    """X-state seed 19584, the most negative delta among the entangled
    X-states of seeds 0-19999: entangled by the exact X-state rule and by
    the partial transpose, yet delta < 0."""

    SEED = 19584

    def test_closed_form_and_pipeline_agree(self):
        params = one_x_entries(self.SEED)
        closed = x_state_purities(params).delta
        assert closed == pytest.approx(-0.054277, abs=5e-7)
        assert abs(delta(x_state(params)).item() - closed) <= 1e-12

    def test_entangled_with_negative_delta_by_oracle(self):
        params = one_x_entries(self.SEED)
        rho = x_state(params)
        assert xstate_entangled(params)
        assert ppt_entangled(rho).item()
        ref_delta, ref_min_pt = delta_and_min_pt(rho.mat, 2, 2)
        assert ref_delta < -REPORT_TOL
        assert ref_min_pt < -ENTANGLE_TOL


class TestBoundaryMixtureCounterexample:
    """(1-t)·sep + t·ent between scan samples 63 (separable) and 50
    (Ginibre) of the 2x2 scan at seed 99: just past the PPT boundary the
    mixture is entangled (NPT) with delta < 0."""

    SEPARABLE = ("separable", 4, 15854214293728144697)
    ENTANGLED = ("ginibre", 2, 3274822575570110850)

    def mixture(self, t):
        sep = scan_state(SHAPE22, *self.SEPARABLE).mat
        ent = scan_state(SHAPE22, *self.ENTANGLED).mat
        return make_density((1.0 - t) * sep + t * ent, SHAPE22)

    def test_recipes_are_scan_samples_63_and_50(self):
        assert child_seed(99, 63) == self.SEPARABLE[2]
        assert child_seed(99, 50) == self.ENTANGLED[2]

    def test_delta_negative_and_npt_by_oracle(self):
        rho = self.mixture(0.389)
        ref_delta, ref_min_pt = delta_and_min_pt(rho.mat, 2, 2)
        assert ref_delta == pytest.approx(-0.027229, abs=5e-7)
        assert ref_min_pt == pytest.approx(-1.340e-4, abs=5e-8)
        assert abs(delta(rho).item() - ref_delta) <= 1e-12
        assert ppt_entangled(rho).item()
        assert ref_min_pt < -ENTANGLE_TOL

    def test_boundary_lies_between(self):
        rho = self.mixture(0.3874)
        assert not ppt_entangled(rho).item()
        assert delta_and_min_pt(rho.mat, 2, 2)[1] > ENTANGLE_TOL
