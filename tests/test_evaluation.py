"""Block evaluation against one-state evaluation, and eigensolve counts.

Scan and audit jobs and sweeps are evaluated one block at a time, by the
functions (delta, ppt_entangled, audit_reports, purity_set) that also
evaluate a one-state block.  Every comparison is exact,
over jobs that cross the block boundary.  The counts pin how many
Hermitian eigensolves of each dimension every command performs per state.
"""

import numpy as np
import pytest

from oracles import one_state_values, one_x_entries
from puritylab import density
from puritylab.cli import cli_main
from puritylab.density import SAMPLE_BLOCK, BlockShape, random_density, sample_blocks
from puritylab.errors import DomainError, NotPositive, TraceNotOne
from puritylab.fileio import write_matrix_file
from puritylab.inequalities import audit_reports, delta, purity_set
from puritylab.prng import child_seed
from puritylab.states import (
    gisin_state,
    ppt_entangled,
    werner_state,
    x_state,
)
from puritylab.sweep import SweepSpec, _sample_recipe, run_sweep, scan_state

# The block size these tests evaluate with: small, so that short jobs cross
# block boundaries.  JOB crosses two and ends in a partial block.
BLOCK = 32
JOB = 2 * BLOCK + 5


@pytest.fixture(autouse=True)
def small_blocks(monkeypatch):
    monkeypatch.setattr(density, "SAMPLE_BLOCK", BLOCK)


@pytest.mark.parametrize("shape", [BlockShape(2, 2), BlockShape(2, 3), BlockShape(3, 2)],
                         ids=str)
@pytest.mark.parametrize("seed", [7, 2024])
def test_scan_block_equals_one_state(shape, seed):
    recipes = [_sample_recipe(shape, k, seed) for k in range(JOB)]
    deltas, verdicts = [], []
    for block in sample_blocks(shape, recipes):
        deltas += delta(block).tolist()
        verdicts += ppt_entangled(block).tolist()
    assert len(deltas) == JOB
    for recipe, d, entangled in zip(recipes, deltas, verdicts):
        rho = scan_state(shape, *recipe)
        assert d == delta(rho).item(), recipe
        assert entangled == ppt_entangled(rho).item(), recipe


@pytest.mark.parametrize("shape", [BlockShape(2, 3), BlockShape(3, 3)], ids=str)
def test_audited_block_equals_one_state(shape):
    recipes = [("ginibre", k % shape.dim + 1, child_seed(7, k)) for k in range(JOB)]
    states = iter(recipes)
    for block in sample_blocks(shape, recipes):
        sides = audit_reports(block)
        for i in range(len(block)):
            _, rank, seed = next(states)
            reports = map(one_state_values,
                          audit_reports(random_density(shape.n, shape.m, rank, seed)))
            assert [(r.name, r.lhs, r.rhs, r.margin, r.satisfied) for r in reports] == [
                (r.name, float(r.lhs[i]), float(r.rhs[i]), float(r.rhs[i] - r.lhs[i]),
                 bool(r.satisfied[i]))
                for r in sides]


def one_state(spec, param):
    """The state of a sweep row, built and validated alone, or None where
    its constructor refuses the parameter."""
    try:
        if spec.family == "xrandom":
            return x_state(one_x_entries(int(param)))
        if spec.family == "werner":
            return werner_state(param)
        return gisin_state(param, spec.a, spec.b)
    except (DomainError, NotPositive, TraceNotOne):
        return None


# Each spec with the row verdicts its grid must reach.  Werner rows below
# p = -1/3 and Gisin rows beyond x_max or off normalization keep their
# closed forms and no state; the edge grids put populations and
# coherences at 0 and the mixing weight within 1e-6 of its bounds.
@pytest.mark.parametrize("spec, verdicts", [
    pytest.param(SweepSpec(family="xrandom", start=0, stop=JOB - 1, count=JOB),
                 {True}, id="xrandom"),
    pytest.param(SweepSpec(family="werner", start=-0.6, stop=1.0, count=JOB),
                 {True, False}, id="werner"),
    pytest.param(SweepSpec(family="gisin", start=0.005, stop=1.2, count=JOB, a=0.6, b=0.8),
                 {True, False}, id="gisin-0.6-0.8"),
    pytest.param(SweepSpec(family="gisin", start=0.005, stop=0.995, count=JOB,
                           a=0.6j, b=0.8), {True, False}, id="gisin-complex"),
    pytest.param(SweepSpec(family="gisin", start=0.005, stop=0.995, count=JOB,
                           a=0.07, b=0.99), {False}, id="gisin-0.07-0.99"),
    pytest.param(SweepSpec(family="gisin", start=1e-6, stop=1 - 1e-6, count=JOB, a=1, b=0),
                 {True}, id="gisin-edge-a1-b0"),
    pytest.param(SweepSpec(family="gisin", start=1e-6, stop=1 - 1e-6, count=JOB, a=0, b=1),
                 {True}, id="gisin-edge-a0-b1"),
])
def test_sweep_rows_equal_one_state(spec, verdicts):
    table = run_sweep(spec)
    assert len(table.param) == JOB
    assert set(table.valid.tolist()) == verdicts
    for param, valid, mu12, mu1, mu2, mu_tilde, delta, _, _ in zip(
            *(column.tolist() for column in table)):
        rho = one_state(spec, param)
        assert valid == (rho is not None), param
        if not valid:
            continue
        ps = one_state_values(purity_set(rho))
        assert (mu12, mu1, mu2, mu_tilde, delta) == (
            ps.mu12, ps.mu1, ps.mu2, ps.mu_tilde, ps.delta)


# Jobs that cross the block boundary at every size tested below; the Gisin
# grid mixes about 300 valid rows with rows beyond x_max.
BLOCK_SIZE_RUNS = {
    "scan-2x2": ["scan", "--shape", "2x2", "--samples", "300", "--seed", "3"],
    "scan-2x3": ["scan", "--shape", "2x3", "--samples", "300", "--seed", "3"],
    "audit-3x3": ["audit", "--shape", "3x3", "--samples", "300", "--seed", "3"],
    "sweep-gisin": ["sweep", "--family", "gisin", "--start", "0.005", "--stop", "1.2",
                    "--count", "700", "--a", "0.6", "--b", "0.8"],
    "sweep-xrandom": ["sweep", "--family", "xrandom", "--start", "0", "--stop", "299",
                      "--count", "300"],
}


@pytest.mark.parametrize("name", BLOCK_SIZE_RUNS)
def test_outputs_do_not_depend_on_block_size(name, monkeypatch, capsys):
    outputs = set()
    for block in (1, 7, 64, SAMPLE_BLOCK):
        monkeypatch.setattr(density, "SAMPLE_BLOCK", block)
        assert cli_main(BLOCK_SIZE_RUNS[name]) == 0
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1


# One hermitian_eig, and so one eigenvalues-only LAPACK solve, per matrix:
# these are the counts per dimension the traced benchmark checks
# (perfbench/workloads.py, expected_eigs).


def test_scan_eigensolves_per_sample(eigh_counts, capsys):
    samples = BLOCK + 6
    assert cli_main(["scan", "--shape", "2x2", "--samples", str(samples), "--seed", "5"]) == 0
    assert eigh_counts == {4: 2 * samples, 2: 2 * samples}


def test_audit_eigensolves_per_state(eigh_counts, capsys):
    samples = BLOCK + 6
    assert cli_main(["audit", "--shape", "3x3", "--samples", str(samples), "--seed", "5"]) == 0
    assert eigh_counts == {9: samples, 3: 4 * samples}


def test_check_eigensolves_per_call(tmp_path, eigh_counts, capsys):
    path = tmp_path / "state.txt"
    write_matrix_file(str(path), random_density(2, 3, 4, 11))
    eigh_counts.clear()
    assert cli_main(["check", str(path)]) == 0
    assert eigh_counts == {6: 1, 2: 4, 3: 4}


def test_sweep_eigensolves_per_valid_row(eigh_counts):
    for spec in (SweepSpec(family="werner", start=-0.6, stop=1.0, count=17),
                 SweepSpec(family="gisin", start=0.005, stop=0.995, count=17, a=0.6, b=0.8)):
        eigh_counts.clear()
        table = run_sweep(spec)
        valid = int(table.valid.sum())
        assert 0 < valid < len(table.valid)
        assert eigh_counts == {4: valid, 2: 4 * valid}, spec.family
