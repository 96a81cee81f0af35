"""The traced benchmark's contract, checked on one call per workload.

``perfbench/run.py --trace 1`` requires each workload's traced eigensolves
per dimension to equal ``expected_eigs`` and its correctness gate to pass.
This runs call 0 of each workload under the span tracer, in a temporary
directory, and checks both, and that the tracer's per-layer groups that
name the evaluation functions count the work the workload does there.
"""

import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Per-layer call counts that must be nonzero on a workload.
COUNTED = {"scan-2x2": "states.ppt.calls", "audit-3x3": "inequalities.audit.calls"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_call_meets_contract(name, tmp_path):
    workload = WORKLOADS[name](1, tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        code, out = workload.call(0)
    finally:
        tracer.uninstall()
    workload.keep(0, code, out)
    assert code == 0
    assert tracer.eig_counts() == workload.expected_eigs(1)
    if name in COUNTED:
        assert tracer.layer_metrics()[COUNTED[name]][0] > 0
    checked, failed, notes = workload.gate()
    assert checked > 0 and failed == 0, notes
