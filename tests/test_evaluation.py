"""Block evaluation against one-state evaluation, and eigensolve counts.

Scan and audit jobs and sweeps are evaluated one block at a time; the
one-state entry points (delta, ppt_entangled, audit_reports, purity_set)
are one-state blocks of the same functions.  Every comparison is exact,
over jobs that cross the block boundary.  The counts pin how many
Hermitian eigensolves of each dimension every command performs per state.
"""

import numpy as np
import pytest

from puritylab.cli import cli_main
from puritylab.density import (
    SAMPLE_BLOCK,
    BlockShape,
    DensityBlock,
    random_density,
    sample_blocks,
)
from puritylab.errors import ShapeMismatch
from puritylab.fileio import write_matrix_file
from puritylab.inequalities import (
    audit_block,
    audit_reports,
    delta,
    delta_block,
    purity_set,
)
from puritylab.prng import child_seed
from puritylab.states import (
    ppt_entangled,
    ppt_entangled_block,
    random_x_params,
    werner_params,
    x_state,
)
from puritylab.sweep import SweepSpec, _sample_recipe, run_sweep, scan_state

# Crosses two block boundaries and ends in a partial block.
JOB = 2 * SAMPLE_BLOCK + 5


@pytest.mark.parametrize("shape", [BlockShape(2, 2), BlockShape(2, 3), BlockShape(3, 2)],
                         ids=str)
@pytest.mark.parametrize("seed", [7, 2024])
def test_scan_block_equals_one_state(shape, seed):
    recipes = [_sample_recipe(shape, k, seed) for k in range(JOB)]
    deltas, verdicts = [], []
    for block in sample_blocks(shape, recipes):
        deltas += delta_block(block).tolist()
        verdicts += ppt_entangled_block(block).tolist()
    assert len(deltas) == JOB
    for recipe, d, entangled in zip(recipes, deltas, verdicts):
        rho = scan_state(shape, *recipe)
        assert d == delta(rho), recipe
        assert entangled == ppt_entangled(rho), recipe


@pytest.mark.parametrize("shape", [BlockShape(2, 3), BlockShape(3, 3)], ids=str)
def test_audit_block_equals_one_state(shape):
    recipes = [("ginibre", k % shape.dim + 1, child_seed(7, k)) for k in range(JOB)]
    states = iter(recipes)
    for block in sample_blocks(shape, recipes):
        sides = audit_block(block)
        for i in range(len(block)):
            _, rank, seed = next(states)
            reports = audit_reports(random_density(shape.n, shape.m, rank, seed))
            assert [(r.name, r.lhs, r.rhs, r.margin) for r in reports] == [
                (name, float(lhs[i]), float(rhs[i]), float(rhs[i] - lhs[i]))
                for name, lhs, rhs in sides]


@pytest.mark.parametrize("spec", [
    SweepSpec(family="xrandom", start=0, stop=JOB - 1, count=JOB),
    SweepSpec(family="werner", start=-0.6, stop=1.0, count=JOB),
], ids=lambda spec: spec.family)
def test_sweep_rows_equal_one_state(spec):
    rows = run_sweep(spec)
    assert len(rows) == JOB
    for row in rows:
        # Werner rows below p = -1/3 keep their closed forms and no state
        assert row.valid == (row.param >= -1 / 3)
        if not row.valid:
            continue
        params = (random_x_params(int(row.param)) if spec.family == "xrandom"
                  else werner_params(row.param))
        ps = purity_set(x_state(params))
        assert (row.mu12, row.mu1, row.mu2, row.mu_tilde, row.delta) == (
            ps.mu12, ps.mu1, ps.mu2, ps.mu_tilde, ps.delta)


def test_block_of_mixed_shapes_refused():
    with pytest.raises(ShapeMismatch):
        DensityBlock.stack([random_density(2, 2, 1, 1), random_density(4, 1, 1, 1)])


# One hermitian_eig, and so one eigenvalues-only LAPACK solve, per matrix:
# these are the counts per dimension the traced benchmark checks
# (perfbench/workloads.py, expected_eigs).


def test_scan_eigensolves_per_sample(eigh_counts, capsys):
    samples = SAMPLE_BLOCK + 6
    assert cli_main(["scan", "--shape", "2x2", "--samples", str(samples), "--seed", "5"]) == 0
    assert eigh_counts == {4: 2 * samples, 2: 2 * samples}


def test_audit_eigensolves_per_state(eigh_counts, capsys):
    samples = SAMPLE_BLOCK + 6
    assert cli_main(["audit", "--shape", "3x3", "--samples", str(samples), "--seed", "5"]) == 0
    assert eigh_counts == {9: samples, 3: 4 * samples}


def test_check_eigensolves_per_call(tmp_path, eigh_counts, capsys):
    path = tmp_path / "state.txt"
    write_matrix_file(str(path), random_density(2, 3, 4, 11))
    eigh_counts.clear()
    assert cli_main(["check", str(path)]) == 0
    assert eigh_counts == {6: 1, 2: 4, 3: 4}


def test_sweep_eigensolves_per_valid_row(eigh_counts):
    rows = run_sweep(SweepSpec(family="werner", start=-0.6, stop=1.0, count=17))
    valid = sum(row.valid for row in rows)
    assert 0 < valid < len(rows)
    assert eigh_counts == {4: valid, 2: 4 * valid}
