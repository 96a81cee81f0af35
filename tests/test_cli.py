import dataclasses
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from oracles import dipped_diagonal, skewed_pure_state, werner_matrix
from puritylab import cli, sweep
from puritylab.cli import cli_main
from puritylab.density import BlockShape, make_density
from puritylab.fileio import scan_report_json, write_matrix_file


def run_cli(args, capsys):
    code = cli_main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fail_every_report(monkeypatch):
    """Make every audited inequality come out unsatisfied (margin -1) on
    every state of a block, for one state (check) and for whole blocks
    (audit)."""
    real_reports = cli.audit_reports

    def failing(block, tol):
        return [dataclasses.replace(rep, margin=np.full_like(rep.margin, -1.0),
                                    satisfied=np.zeros_like(rep.satisfied))
                for rep in real_reports(block, tol=tol)]

    monkeypatch.setattr(cli, "audit_reports", failing)


class TestSweepCommand:
    def test_werner_happy_path(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        code, _, _ = run_cli(["sweep", "--family", "werner",
                              "--start", "-0.3333333333333333", "--stop", "1",
                              "--count", "200", "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("param,")
        assert len(lines) == 201

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run_cli(["sweep", "--family", "beta",
                                "--start", "0", "--stop", "1", "--count", "3"],
                               capsys)
        assert code == 0
        assert out.count("\n") == 4

    def test_gisin_slack_usage_error(self, capsys):
        code, _, err = run_cli(["sweep", "--family", "gisin", "--start", "0",
                                "--stop", "1", "--count", "10",
                                "--a", "1.5", "--b", "0"], capsys)
        assert code == 1
        assert "slack" in err

    @pytest.mark.parametrize("args", [
        ["--family", "werner", "--start", "0", "--stop", "inf"],
        ["--family", "werner", "--start", "nan", "--stop", "1"],
        ["--family", "werner", "--start=-inf", "--stop", "1"],
        ["--family", "werner", "--start=-1e308", "--stop", "1e308"],
        ["--family", "gisin", "--start", "0.1", "--stop", "0.9", "--a", "nan", "--b", "0.8"],
        ["--family", "gisin", "--start", "0.1", "--stop", "0.9", "--a", "0.6", "--b", "inf"],
    ], ids=["stop-inf", "start-nan", "start-minus-inf", "span-overflows", "a-nan", "b-inf"])
    def test_nonfinite_input_error(self, args, capsys):
        code, out, err = run_cli(["sweep", *args, "--count", "3"], capsys)
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "must be finite" in err
        assert out == ""

    @pytest.mark.parametrize("args", [
        ["--family", "werner", "--start", "0", "--stop", "1e200"],
        ["--family", "werner", "--start=-1e160", "--stop", "0"],
        ["--family", "beta", "--start", "0", "--stop", "1e200"],
        ["--family", "gisin", "--start", "0.5", "--stop", "1e200", "--a", "0.6", "--b", "0.8"],
    ], ids=["werner", "werner-negative", "beta", "gisin"])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_closed_forms_error(self, args, capsys):
        # the grid is finite, but the closed forms of its out-of-domain rows
        # overflow to inf or nan
        code, out, err = run_cli(["sweep", *args, "--count", "2"], capsys)
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "not finite at param" in err
        assert out == ""

    @pytest.mark.parametrize("family", ["werner", "beta"])
    def test_entries_off_unit_sum_error(self, family, capsys):
        # at 1e16, 1 + p rounds to p: the closed forms would drop the 1
        code, out, err = run_cli(["sweep", "--family", family, "--start", "0",
                                  "--stop", "1e16", "--count", "2"], capsys)
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "sum to" in err
        assert out == ""

    def test_grid_too_large_to_allocate_is_an_input_error(self, capsys):
        # 10^16 points ask for 80 PB, so the allocation fails at once; numpy
        # raises a MemoryError subclass, which was a traceback
        code, out, err = run_cli(["sweep", "--family", "werner", "--start", "0", "--stop", "1",
                                  "--count", "10000000000000000"], capsys)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "allocate" in err
        assert out == ""

    def test_out_of_memory_without_a_message_names_the_error(self, monkeypatch, capsys):
        # a bare MemoryError() has an empty str; the line names its class
        def out_of_memory(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli, "run_sweep", out_of_memory)
        code, out, err = run_cli(["sweep", "--family", "werner", "--start", "0", "--stop", "1",
                                  "--count", "3"], capsys)
        assert (code, out, err) == (1, "", "error: MemoryError\n")

    def test_huge_amplitude_input_error(self, capsys):
        # finite, but |a|^2 overflows
        code, out, err = run_cli(["sweep", "--family", "gisin", "--start", "0.1",
                                  "--stop", "0.9", "--count", "3", "--a", "1e200",
                                  "--b", "0"], capsys)
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "deviates from 1 by inf" in err
        assert out == ""

    def test_xrandom_repeated_seeds_input_error(self, capsys):
        # a step of 1/2 rounds to the seeds 0, 0, 1, 2, 2
        code, out, err = run_cli(["sweep", "--family", "xrandom", "--start", "0",
                                  "--stop", "2", "--count", "5"], capsys)
        assert code == 1
        assert err.startswith("error:") and "repeated seeds" in err
        assert out == ""

    @pytest.mark.parametrize("family", ["werner", "beta", "xrandom"])
    def test_amplitudes_outside_gisin_input_error(self, family, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, stdout, err = run_cli(["sweep", "--family", family, "--start", "0",
                                     "--stop", "1", "--count", "2", "--a", "0.3",
                                     "--out", str(out)], capsys)
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "amplitudes a and b are for gisin sweeps" in err
        assert stdout == ""
        assert not out.exists()

    def test_unknown_family_usage_error(self, capsys):
        code, _, err = run_cli(["sweep", "--family", "ghz", "--start", "0",
                                "--stop", "1"], capsys)
        assert code == 1
        assert err

    def test_unwritable_out_is_io_error(self, tmp_path, capsys):
        code, _, _ = run_cli(["sweep", "--family", "beta", "--start", "0",
                              "--stop", "1", "--count", "3",
                              "--out", str(tmp_path / "no" / "dir.csv")], capsys)
        assert code == 3

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["sweep", "--family", "gisin", "--start", "0.05", "--stop", "0.95",
                "--count", "40", "--a", "0.6", "--b", "0.8"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(first)], capsys)[0] == 0
        assert run_cli(args + ["--out", str(second)], capsys)[0] == 0
        assert first.read_bytes() == second.read_bytes()


class TestAuditCommand:
    def test_small_audit_passes(self, capsys):
        code, out, _ = run_cli(["audit", "--shape", "2x2", "--samples", "200",
                                "--seed", "7"], capsys)
        assert code == 0
        assert "eq5" in out and "eq10" in out

    def test_rectangular_shape(self, capsys):
        code, _, _ = run_cli(["audit", "--shape", "2x3", "--samples", "50",
                              "--seed", "1"], capsys)
        assert code == 0

    def test_bad_shape_usage_error(self, capsys):
        code, _, err = run_cli(["audit", "--shape", "two-by-two"], capsys)
        assert code == 1
        assert "shape" in err

    @pytest.mark.parametrize("command", ["audit", "scan"])
    @pytest.mark.parametrize("shape", ["2_0x2", "\uff12x\uff12", " 2 x 2 ", "+2x2", "2x2x2", "2x"],
                             ids=["underscore", "fullwidth", "spaces", "sign", "three", "empty"])
    def test_shape_outside_the_grammar_refused(self, command, shape, monkeypatch, capsys):
        # int() reads each side of the first four: 2_0 as 20, fullwidth and
        # padded digits as 2, +2 as 2
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled states for a shape outside the grammar")

        monkeypatch.setattr(cli, "sample_blocks", no_sampling)
        monkeypatch.setattr(sweep, "sample_blocks", no_sampling)
        code, out, err = run_cli([command, "--shape", shape, "--samples", "5"], capsys)
        assert code == 1
        assert err == f"error: shape must look like 2x2, in ASCII digits, got {shape!r}\n"
        assert out == ""

    @pytest.mark.parametrize("shape", ["2x3", "2X3"])
    def test_shape_separator_either_case(self, shape, capsys):
        code, out, _ = run_cli(["audit", "--shape", shape, "--samples", "5", "--seed", "1"],
                               capsys)
        assert code == 0
        assert out.startswith("audited 5 states of shape 2x3 ")

    @pytest.mark.parametrize("shape", ["1x1", "1x4", "3x1"])
    def test_factor_one_shape_refused_before_sampling(self, shape, monkeypatch, capsys):
        # n = 1 or m = 1 makes every audited inequality an identity
        def no_sampling(*args, **kwargs):
            raise AssertionError("audit sampled states for a shape it refuses")

        monkeypatch.setattr(cli, "sample_blocks", no_sampling)
        code, out, err = run_cli(["audit", "--shape", shape, "--samples", "50"], capsys)
        assert code == 1
        assert len(err.splitlines()) == 1 and "has a factor of 1" in err
        assert out == ""

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_nonpositive_samples_usage_error(self, samples, capsys):
        code, out, err = run_cli(["audit", "--samples", samples], capsys)
        assert code == 1
        assert f"samples must be >= 1, got {samples}" in err
        assert out == ""

    def test_unsatisfied_audit_exits_two(self, monkeypatch, capsys):
        # the inequalities hold on every valid state and --tol must be >= 0,
        # so the failure exit path is reached through failing reports
        fail_every_report(monkeypatch)
        code, out, _ = run_cli(["audit", "--samples", "5", "--seed", "1"], capsys)
        assert code == 2
        assert "VIOLATED" in out

    def test_verdict_is_the_reports_satisfied(self, monkeypatch, capsys):
        # margins as evaluated, every state judged unsatisfied: the verdict
        # is read from the reports, not from a second margin rule
        real_reports = cli.audit_reports

        def unsatisfied(block, tol):
            return [dataclasses.replace(rep, satisfied=np.zeros_like(rep.satisfied))
                    for rep in real_reports(block, tol=tol)]

        code, out, _ = run_cli(["audit", "--samples", "5", "--seed", "1"], capsys)
        assert code == 0 and "VIOLATED" not in out
        monkeypatch.setattr(cli, "audit_reports", unsatisfied)
        code, violated, _ = run_cli(["audit", "--samples", "5", "--seed", "1"], capsys)
        assert code == 2
        assert violated == out.replace(" ok\n", " VIOLATED\n")


class TestScanCommand:
    def test_writes_json(self, tmp_path, capsys):
        out = tmp_path / "scan.json"
        code, _, _ = run_cli(["scan", "--shape", "2x2", "--samples", "20",
                              "--seed", "2024", "--out", str(out)], capsys)
        assert code == 0
        assert out.read_text().startswith("{")

    def test_out_prints_summary(self, tmp_path, capsys):
        out = tmp_path / "scan.json"
        code, stdout, _ = run_cli(["scan", "--samples", "200", "--seed", "5",
                                   "--out", str(out)], capsys)
        assert code == 0
        assert stdout.splitlines() == [
            "entangled: 88 states, delta in [0.079727, 1.884560], mean 0.626476",
            "separable: 112 states, delta in [-0.070104, 0.357614], mean 0.091077",
            "no counterexamples: delta > 0 on every entangled sample",
            f"scanned 200 states; 0 counterexample(s); report written to {out}",
        ]
        report = sweep.scan_conjecture(BlockShape(2, 2), samples=200, seed=5)
        assert out.read_text(encoding="utf-8") == scan_report_json(report)

    def test_out_lists_counterexamples_and_empty_subsets(self, tmp_path, capsys):
        out = str(tmp_path / "scan.json")
        _, stdout, _ = run_cli(["scan", "--samples", "200", "--seed", "5", "--tol", "0.1",
                                "--out", out], capsys)
        assert stdout.splitlines()[2:] == [
            "1 counterexample(s):",
            "  index 148 kind ginibre size 3 seed 9875627240877486525: delta = 7.972676e-02",
            f"scanned 200 states; 1 counterexample(s); report written to {out}",
        ]
        _, stdout, _ = run_cli(["scan", "--samples", "1", "--seed", "5", "--out", out], capsys)
        assert stdout.splitlines()[1] == "separable: no samples"

    def test_stdout_json(self, capsys):
        code, out, _ = run_cli(["scan", "--samples", "10", "--seed", "3"], capsys)
        assert code == 0
        assert '"counterexamples"' in out

    @pytest.mark.parametrize("shape", ["3x3", "1x4"])
    def test_unsupported_shape_refused_before_sampling(self, shape, monkeypatch, capsys):
        def no_sampling(*args, **kwargs):
            raise AssertionError("scan sampled states for a shape it refuses")

        monkeypatch.setattr(sweep, "sample_blocks", no_sampling)
        code, out, err = run_cli(["scan", "--shape", shape, "--samples", "10"], capsys)
        assert code == 1
        assert "PPT verdict is conclusive only for" in err
        assert out == ""


class TestTolerance:
    @pytest.mark.parametrize("command", ["scan", "audit", "check"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_degenerate_tol_usage_error(self, command, tol, tmp_path, capsys):
        if command == "check":
            path = tmp_path / "state.txt"
            write_matrix_file(str(path), make_density(werner_matrix(0.5), BlockShape(2, 2)))
            args = ["check", str(path)]
        else:
            args = [command, "--samples", "20", "--seed", "1"]
        code, out, err = run_cli(args + ["--tol", tol], capsys)
        assert code == 1
        assert f"tol must be a finite number >= 0, got {float(tol)}" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["scan", "audit"])
    def test_zero_tol_accepted(self, command, capsys):
        code, _, _ = run_cli([command, "--samples", "20", "--seed", "1", "--tol", "0"],
                             capsys)
        assert code == 0


class TestCheckCommand:
    def test_werner_report(self, tmp_path, capsys):
        path = tmp_path / "werner08.txt"
        write_matrix_file(str(path), make_density(werner_matrix(0.8), BlockShape(2, 2)))
        code, out, _ = run_cli(["check", str(path)], capsys)
        assert code == 0
        mu12_line = next(line for line in out.splitlines() if line.startswith("mu12"))
        assert abs(float(mu12_line.split("=")[1]) - 0.73) <= 1e-12
        assert out.count("satisfied=true") == 5

    def test_stdout_layout(self, tmp_path, capsys):
        # the purities, then one line per audited inequality, each expecting
        # lhs <= rhs
        path = tmp_path / "state.txt"
        write_matrix_file(str(path), make_density(werner_matrix(0.8), BlockShape(2, 2)))
        code, out, _ = run_cli(["check", str(path)], capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 11
        assert lines[0] == "shape: 2x2"
        for line, label in zip(lines[1:6], ["mu12", "mu1", "mu2", "mu_tilde", "delta"]):
            assert re.fullmatch(rf"{label} = \S+", line), line
        for line, name in zip(lines[6:], ["eq5", "eq6", "eq8", "eq9", "eq10"]):
            assert re.fullmatch(rf"{name}: lhs=\S+ rhs=\S+ expected=<= margin=\S+ "
                                r"satisfied=true", line), line

    def test_accepted_skewed_state_is_checked(self, tmp_path, capsys):
        # Hermiticity defect 0.9 VALIDATION_TOL: accepted when the file is
        # read, so evaluated without a second refusal of its reductions
        path = tmp_path / "skewed.txt"
        for seed in range(5):
            write_matrix_file(str(path), make_density(skewed_pure_state(2, 3, seed),
                                                      BlockShape(2, 3)))
            code, out, err = run_cli(["check", str(path)], capsys)
            assert code in (0, 2) and err == "", err
            assert len(out.splitlines()) == 11

    def test_accepted_eigenvalue_dip_is_checked(self, tmp_path, capsys):
        # diag(0.5 + 9e-11, -9e-11, 0.5 + 9e-11, -9e-11): its 2x2 reduction
        # over the outer index has the eigenvalue -1.8e-10, within the bound
        # 2 VALIDATION_TOL of a validated state
        path = tmp_path / "dipped.txt"
        write_matrix_file(str(path), make_density(dipped_diagonal(2, 2, False),
                                                  BlockShape(2, 2)))
        code, out, err = run_cli(["check", str(path)], capsys)
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 11

    def test_missing_file_io_error(self, capsys):
        code, _, _ = run_cli(["check", "/nonexistent/state.txt"], capsys)
        assert code == 3

    def test_non_utf8_file_input_error(self, tmp_path, capsys):
        path = tmp_path / "utf16.txt"
        path.write_bytes(b"\xff\xfe" + "2 2\n".encode("utf-16-le"))
        code, out, err = run_cli(["check", str(path)], capsys)
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "not UTF-8" in err
        assert out == ""

    @pytest.mark.parametrize("n, m", [(1, 4), (4, 1)])
    def test_factor_one_shape_refused(self, n, m, tmp_path, capsys):
        path = tmp_path / "state.txt"
        write_matrix_file(str(path), make_density(werner_matrix(0.5), BlockShape(n, m)))
        code, out, err = run_cli(["check", str(path)], capsys)
        assert code == 1
        assert len(err.splitlines()) == 1 and f"shape {n}x{m} has a factor of 1" in err
        assert out == ""

    def test_invalid_state_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1 1\n0 0 2 0\n")  # trace 2
        code, _, err = run_cli(["check", str(path)], capsys)
        assert code == 1
        assert "trace" in err

    def test_overflowing_entries_input_error(self, tmp_path):
        # finite entries whose Hermitian part overflows: an error line on
        # stderr, no traceback and no floating-point warnings
        path = tmp_path / "overflow.txt"
        entries = {(i, j): 0.25 if i == j else 0.0 for i in range(4) for j in range(4)}
        entries[0, 3] = entries[3, 0] = 1.7e308
        path.write_text("2 2\n" + "".join(
            f"{i} {j} {value!r} 0\n" for (i, j), value in entries.items()))
        proc = subprocess.run(
            [sys.executable, "-m", "puritylab", "check", str(path)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH="src"),
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "overflows" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_overflowing_spectrum_input_error(self, tmp_path):
        # Hermitian part finite, but LAPACK does not converge on it: the
        # entry bound |rho_ij| <= 1 rejects the file before any eigensolve
        path = tmp_path / "spectrum.txt"
        entries = {(i, j): 8e307 for i in range(9) for j in range(9) if i != j}
        entries.update({(i, i): 1.0 if i == 0 else 0.0 for i in range(9)})
        path.write_text("3 3\n" + "".join(
            f"{i} {j} {value!r} 0\n" for (i, j), value in sorted(entries.items())))
        proc = subprocess.run(
            [sys.executable, "-m", "puritylab", "check", str(path)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH="src"),
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert "largest entry modulus 8.000e+307" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unsatisfied_check_exits_two(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "state.txt"
        write_matrix_file(str(path), make_density(werner_matrix(0.5), BlockShape(2, 2)))
        fail_every_report(monkeypatch)
        code, out, _ = run_cli(["check", str(path)], capsys)
        assert code == 2
        assert "satisfied=false" in out


def parsed(parser, argv):
    """The namespace argv parses to, or the usage error or exit it raises."""
    try:
        return vars(parser.parse_args(argv))
    except (cli._UsageError, SystemExit) as err:
        return repr(err)


class TestSharedParser:
    def test_calls_do_not_leak_state(self, tmp_path, monkeypatch, capsys):
        # the parser is built once per process; each call must behave as
        # through a parser built for it alone
        path = tmp_path / "state.txt"
        write_matrix_file(str(path), make_density(werner_matrix(0.5), BlockShape(2, 2)))
        sequence = [
            ["scan", "--samples", "10", "--seed", "3"],
            ["audit", "--shape", "2y2"],
            ["check", str(path), "--tol", "0.5"],
            ["sweep", "--family", "ghz", "--start", "0", "--stop", "1"],
            ["check", str(path)],
            ["--help"],
            ["audit", "--samples", "20", "--seed", "1"],
        ]
        shared_parser = cli.build_parser
        shared = [run_cli(argv, capsys) for argv in sequence]
        assert [code for code, _, _ in shared] == [0, 1, 0, 1, 0, 0, 0]
        monkeypatch.setattr(cli, "build_parser", shared_parser.__wrapped__)
        assert [run_cli(argv, capsys) for argv in sequence] == shared
        for argv in sequence:
            assert parsed(shared_parser(), argv) == parsed(shared_parser.__wrapped__(), argv)
        assert shared_parser() is shared_parser()
        assert shared_parser.cache_info().misses == 1


class TestUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run_cli([], capsys)[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"], capsys)[0] == 0

    def test_module_entry_point(self, tmp_path):
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-m", "puritylab", "sweep", "--family", "werner",
             "--start", "0", "--stop", "1", "--count", "3"],
            capture_output=True, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("param,")
