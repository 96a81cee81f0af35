"""Command-line front end.

Subcommands:

* ``sweep``  one state family over a parameter grid, CSV out
* ``audit``  the five purity inequalities over a random ensemble
* ``scan``   conjecture scan (sign of delta vs entanglement), JSON out
* ``check``  one state from a matrix file: purities and all reports

Exit codes: 0 success, 1 usage or input validation error, 2 at least one
audited inequality unsatisfied, 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .defaults import REPORT_TOL, SWEEP_POINTS
from .density import BlockShape, sample_blocks
from .errors import IoError, PurityLabError
from .fileio import (
    csv_lines,
    emit_csv,
    read_matrix_file,
    scan_report_json,
    write_scan_report,
)
from .inequalities import audit_reports, purity_set, require_tol
from .prng import child_seed
from .sweep import FAMILIES, SweepSpec, run_sweep, scan_conjecture


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_shape(text: str) -> BlockShape:
    return BlockShape.from_sizes(text.replace("X", "x").split("x"),
                                 f"shape must look like 2x2, in ASCII digits, got {text!r}")


@functools.cache
def build_parser() -> _Parser:
    """The parser of every command, built on the first call and shared by
    later ones: parsing never changes it, and help text is formatted (and
    the terminal width read) when it is printed."""
    parser = _Parser(prog="puritylab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="sweep a state family over a grid")
    sweep.add_argument("--family", required=True, choices=FAMILIES)
    sweep.add_argument("--start", required=True, type=float)
    sweep.add_argument("--stop", required=True, type=float)
    sweep.add_argument("--count", type=int, default=SWEEP_POINTS)
    sweep.add_argument("--a", type=complex, default=None,
                       help="first Gisin amplitude (complex accepted)")
    sweep.add_argument("--b", type=complex, default=None,
                       help="second Gisin amplitude")
    sweep.add_argument("--out", default=None, help="CSV path (default stdout)")
    sweep.set_defaults(func=_cmd_sweep)

    audit = sub.add_parser("audit", help="audit inequalities on random states")
    audit.set_defaults(func=_cmd_audit)
    scan = sub.add_parser("scan", help="scan the sign of delta vs entanglement")
    for command in (audit, scan):
        command.add_argument("--shape", default="2x2", help="NxM in ASCII digits, as 2x3 or 2X3")
        command.add_argument("--samples", type=int, default=1000)
        command.add_argument("--seed", type=int, default=0)
        command.add_argument("--tol", type=float, default=REPORT_TOL)
    scan.add_argument("--out", default=None,
                      help="JSON path (default stdout); stdout then gets a summary")
    scan.set_defaults(func=_cmd_scan)

    check = sub.add_parser("check", help="evaluate one state from a matrix file")
    check.add_argument("path")
    check.add_argument("--tol", type=float, default=REPORT_TOL)
    check.set_defaults(func=_cmd_check)

    return parser


def _cmd_sweep(args) -> int:
    spec = SweepSpec(family=args.family, start=args.start, stop=args.stop,
                     count=args.count, a=args.a, b=args.b)
    table = run_sweep(spec)
    if args.out is None:
        for line in csv_lines(table):
            print(line)
    else:
        emit_csv(table, args.out)
    return 0


def _refuse_trivial_shape(shape: BlockShape) -> None:
    """A factor of 1 makes every audited inequality an identity (mu1 = 1,
    mu2 = mu12), so its margins would say nothing."""
    if 1 in (shape.n, shape.m):
        raise _UsageError(f"shape {shape.n}x{shape.m} has a factor of 1, where every "
                          "audited inequality holds with equality; need n, m >= 2")


def _cmd_audit(args) -> int:
    shape = _parse_shape(args.shape)
    _refuse_trivial_shape(shape)
    if args.samples < 1:
        raise _UsageError(f"samples must be >= 1, got {args.samples}")
    require_tol(args.tol)
    worst: dict[str, float] = {}
    violated: set[str] = set()
    recipes = (("ginibre", k % shape.dim + 1, child_seed(args.seed, k))
               for k in range(args.samples))
    for block in sample_blocks(shape, recipes):
        for rep in audit_reports(block, tol=args.tol):
            margin = float(rep.margin.min())
            worst[rep.name] = min(worst.get(rep.name, margin), margin)
            if not rep.satisfied.all():
                violated.add(rep.name)
    print(f"audited {args.samples} states of shape {shape.n}x{shape.m} "
          f"(seed {args.seed}, tol {args.tol:.17g})")
    for name, margin in worst.items():
        verdict = "VIOLATED" if name in violated else "ok"
        print(f"{name}: min margin = {margin:.17g} {verdict}")
    return 2 if violated else 0


def _cmd_scan(args) -> int:
    shape = _parse_shape(args.shape)
    report = scan_conjecture(shape, args.samples, args.seed, tol=args.tol)
    if args.out is None:
        sys.stdout.write(scan_report_json(report))
        return 0
    write_scan_report(report, args.out)
    for label, stats in (("entangled", report.entangled_stats),
                         ("separable", report.separable_stats)):
        print(f"{label}: no samples" if stats.count == 0 else
              f"{label}: {stats.count} states, delta in [{stats.min_delta:.6f}, "
              f"{stats.max_delta:.6f}], mean {stats.mean_delta:.6f}")
    if report.counterexamples:
        print(f"{len(report.counterexamples)} counterexample(s):")
        for sample in report.counterexamples:
            print(f"  index {sample.index} kind {sample.kind} size {sample.size} "
                  f"seed {sample.seed}: delta = {sample.delta:.6e}")
    else:
        print("no counterexamples: delta > 0 on every entangled sample")
    print(f"scanned {report.samples} states; "
          f"{len(report.counterexamples)} counterexample(s); "
          f"report written to {args.out}")
    return 0


def _cmd_check(args) -> int:
    require_tol(args.tol)
    rho = read_matrix_file(args.path)
    _refuse_trivial_shape(rho.shape)
    ps = purity_set(rho)
    print(f"shape: {rho.shape.n}x{rho.shape.m}")
    for label, value in (("mu12", ps.mu12), ("mu1", ps.mu1), ("mu2", ps.mu2),
                         ("mu_tilde", ps.mu_tilde), ("delta", ps.delta)):
        print(f"{label} = {value.item():.17g}")
    failed = False
    for rep in audit_reports(rho, tol=args.tol):
        satisfied = rep.satisfied.item()
        failed |= not satisfied
        print(f"{rep.name}: lhs={rep.lhs.item():.17g} rhs={rep.rhs.item():.17g} expected=<= "
              f"margin={rep.margin.item():.17g} "
              f"satisfied={'true' if satisfied else 'false'}")
    return 2 if failed else 0


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help lands here
        code = exc.code
        return int(code) if code else 0
    try:
        return args.func(args)
    except (IoError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (_UsageError, PurityLabError, MemoryError) as err:  # MemoryError: out of memory
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
