#!/usr/bin/env python3
"""puritylab benchmark: one workload, one closed-loop caller, one process.

Usage (from the repository root):

    python3 perfbench/run.py --workload scan-2x2 --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: throughput
and tail time per call (both in process CPU time), peak memory and set-up
time.  ``--trace 1`` is the
separate traced run: it measures untraced throughput for the first third of
the time, then installs the span tracer (see ``tracer.py``) for the rest and
reports per-layer counts and self times, the tracing overhead and an exact
check of the eigensolve counts.  Both modes run the correctness gate (see
``workloads.py`` and ``reference.py``) and record output digests.

Every metric is printed as ``name = value unit``; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller record (environment, digests, gate
notes, sample counts) goes to ``.perfbench/results/``; the traced run also
writes its spans there.  BLAS and OpenMP pools are pinned to one thread.
"""

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# Pinned before numpy loads its BLAS.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = pathlib.Path(__file__).resolve().parents[1]
if not (ROOT / "src" / "puritylab").is_dir():
    sys.exit(f"perfbench: no puritylab sources under {ROOT / 'src'}; "
             "run from the root of a puritylab checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from reference import VALUE_TOL  # noqa: E402
from workloads import WORKLOADS  # noqa: E402  (imports puritylab)

SETUP_REPEATS = 7
TRACE_UNTRACED_SHARE = 1 / 3


def measure(workload, call, seconds: float, first: int) -> dict:
    """Closed loop: call after call until ``seconds`` of wall time have passed
    and every kept call has run.  Each call is timed twice: in process CPU
    time, which the gated metrics use, and in wall time."""
    cpu_times, wall_times = [], []
    failed = 0
    index = first
    start, cpu_start = time.perf_counter(), time.process_time()
    deadline = start + seconds
    while True:
        t0, c0 = time.perf_counter(), time.process_time()
        code, out = call(index)
        c1, t1 = time.process_time(), time.perf_counter()
        cpu_times.append(c1 - c0)
        wall_times.append(t1 - t0)
        if code != 0:
            failed += workload.items_per_call
        if index < workload.kept_calls:
            workload.keep(index, code, out)
        index += 1
        if t1 >= deadline and index >= workload.kept_calls:
            break
    cpu, wall = time.process_time() - cpu_start, time.perf_counter() - start
    items = len(cpu_times) * workload.items_per_call
    return {"calls": len(cpu_times), "items": items, "failed": failed,
            "cpu_s": cpu, "wall_s": wall, "cpu_times": cpu_times,
            "wall_times": wall_times, "items_per_cpu_s": items / cpu,
            "items_per_s": items / wall}


def setup_time(args, workdir: pathlib.Path) -> float:
    """Seconds from launching a fresh interpreter to its first completed item."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve()), "--probe",
         "--workload", args.workload, "--seed", str(args.seed),
         "--workdir", str(workdir)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - t0


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run(args, workdir: pathlib.Path, results: pathlib.Path) -> dict:
    workload = WORKLOADS[args.workload](args.seed, workdir)
    metrics: dict[str, tuple[float, str]] = {}
    record: dict = {"env": environment(args)}

    if args.trace == 0:
        setups = [setup_time(args, workdir) for _ in range(SETUP_REPEATS)]
        workload.probe()  # warm-up item, not measured
        loop = measure(workload, workload.call, args.seconds, 0)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        cpu_p50, cpu_p99 = np.percentile(loop["cpu_times"], [50, 99]) * 1e3
        wall_p50, wall_p99 = np.percentile(loop["wall_times"], [50, 99]) * 1e3
        metrics["items_per_cpu_s"] = (loop["items_per_cpu_s"], "1/s")
        metrics["call_cpu_p99_ms"] = (float(cpu_p99), "ms")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        metrics["setup_s"] = (statistics.median(setups), "s")
        record["setup_samples_s"] = setups
        record["latency"] = {
            "calls": loop["calls"], "call_cpu_p50_ms": float(cpu_p50),
            "call_cpu_p99_ms": float(cpu_p99), "call_p50_ms": float(wall_p50),
            "call_p99_ms": float(wall_p99), "items_per_s": loop["items_per_s"],
            "cpu_s": loop["cpu_s"], "wall_s": loop["wall_s"]}
        loops = [loop]
    else:
        from tracer import Tracer

        workload.probe()  # warm-up item, not measured
        untraced = measure(workload, workload.call, args.seconds * TRACE_UNTRACED_SHARE, 0)
        tracer = Tracer()
        tracer.install()
        workload.f_evals = 0
        try:
            traced = measure(workload, tracer.root("bench.call", workload.call),
                             args.seconds * (1 - TRACE_UNTRACED_SHARE), untraced["calls"])
        finally:
            tracer.uninstall()
        metrics.update(tracer.layer_metrics())
        eig = tracer.eig_counts()
        expected = workload.expected_eigs(traced["calls"])
        mismatched = {d: (eig.get(d, 0), expected.get(d, 0))
                      for d in set(eig) | set(expected) if eig.get(d, 0) != expected.get(d, 0)}
        record["eig_selfcheck"] = {"expected": expected, "traced": eig,
                                   "mismatched": mismatched}
        metrics["linalg.eig_per_item"] = (sum(eig.values()) / traced["items"], "count/item")
        metrics["inequalities.roots.f_evals"] = (workload.f_evals, "count")
        metrics["trace.items"] = (traced["items"], "count")
        metrics["trace.wall_s"] = (traced["wall_s"], "s")
        metrics["trace.untraced_items_per_cpu_s"] = (untraced["items_per_cpu_s"], "1/s")
        metrics["trace.traced_items_per_cpu_s"] = (traced["items_per_cpu_s"], "1/s")
        metrics["trace.overhead"] = (
            untraced["items_per_cpu_s"] / traced["items_per_cpu_s"] - 1, "ratio")
        tracer.dump(str(results / f"spans-{args.workload}.npz"))
        loops = [untraced, traced]

    checked, gate_failed, notes = workload.gate()
    attempted = sum(loop["items"] for loop in loops)
    failed = sum(loop["failed"] for loop in loops) + gate_failed
    correct = failed == 0 and not record.get("eig_selfcheck", {}).get("mismatched")
    record.update({
        "calls": sum(loop["calls"] for loop in loops),
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted,
        "gate": {"items_checked": checked, "items_failed": gate_failed,
                 "value_tol": VALUE_TOL, "notes": notes},
        "digests": workload.digests(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "correct": correct,
    })
    return record


def report(args, record: dict) -> None:
    env = record["env"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"env: python {env['python']}, numpy {env['numpy']}, blas {env['blas']}, "
          f"nproc {env['nproc']}, BLAS/OpenMP threads 1")
    print(f"calls = {record['calls']}, attempted = {record['attempted']} items, "
          f"failed = {record['failed']}, fail_frac = {record['fail_frac']:g}")
    for name, value in record.get("latency", {}).items():
        print(f"latency: {name} = {value:.6g}")
    gate = record["gate"]
    print(f"gate: {gate['items_checked']} items recomputed independently, "
          f"{gate['items_failed']} failed (value tol {gate['value_tol']:g})")
    for note in gate["notes"]:
        print(f"gate: {note}")
    if "eig_selfcheck" in record:
        check = record["eig_selfcheck"]
        print(f"eig self-check: traced {check['traced']} expected {check['expected']} "
              f"{'MISMATCH' if check['mismatched'] else 'ok'}")
    for name, digest in record["digests"].items():
        print(f"sha256 {name} = {digest}")
    for name, metric in record["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe:
        WORKLOADS[args.workload](args.seed, pathlib.Path(args.workdir), probe=True).probe()
        print(time.monotonic())
        return 0

    results = ROOT / ".perfbench" / "results"
    workdir = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    results.mkdir(parents=True, exist_ok=True)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        record = run(args, workdir, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    report(args, record)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
