"""The traced benchmark's contract, checked on one call per workload.

``perfbench/run.py --trace 1`` requires each workload's traced eigensolves
per dimension to equal ``expected_eigs`` and its correctness gate to pass.
This runs call 0 of each workload under the span tracer, in a temporary
directory, and checks both.
"""

import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


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
    checked, failed, notes = workload.gate()
    assert checked > 0 and failed == 0, notes
