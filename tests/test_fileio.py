import numpy as np
import pytest

from oracles import werner_matrix
from puritylab.density import BlockShape, make_density, random_density
from puritylab.errors import IoError, SpecError
from puritylab.fileio import (
    CSV_HEADER,
    csv_lines,
    emit_csv,
    read_matrix_file,
    scan_report_json,
    write_matrix_file,
)
from puritylab.sweep import SweepSpec, SweepTable, run_sweep, scan_conjecture


def one_row(**values) -> SweepTable:
    """A one-row table of the given values."""
    return SweepTable(**{name: np.array([value]) for name, value in values.items()})


EMPTY = SweepTable(*[np.empty(0)] * len(SweepTable._fields))

# The Werner p = 0 row written from its closed forms: mu12 = 1/4,
# mu1 = mu2 = 1/2, mu_tilde = 0, delta = -1/4, lhs5 = 0, separable.
WERNER_P0_ROW = one_row(param=0.0, valid=True, mu12=0.25, mu1=0.5, mu2=0.5,
                        mu_tilde=0.0, delta=-0.25, lhs5=0.0, entangled=False)


class TestCsv:
    def test_header_is_the_table_fields(self):
        assert CSV_HEADER == SweepTable._fields

    def test_header_only_for_empty_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(EMPTY, str(path))
        assert path.read_bytes() == b"param,valid,mu12,mu1,mu2,mu_tilde,delta,lhs5,entangled\n"

    def test_werner_p0_closed_form_row(self):
        assert csv_lines(WERNER_P0_ROW)[1] == "0,true,0.25,0.5,0.5,0,-0.25,0,false"

    def test_blanked_columns_are_empty_fields(self):
        row = one_row(param=0.9, valid=False, mu12=0.5, mu1=np.nan, mu2=np.nan,
                      mu_tilde=0.7, delta=0.2, lhs5=0.1, entangled=True)
        assert csv_lines(row)[1] == "0.90000000000000002,false,0.5,,,0.69999999999999996,0.20000000000000001,0.10000000000000001,true"

    def test_lf_endings_and_determinism(self, tmp_path):
        spec = SweepSpec(family="werner", start=-1 / 3, stop=1.0, count=25)
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        emit_csv(run_sweep(spec), str(path_a))
        emit_csv(run_sweep(spec), str(path_b))
        data = path_a.read_bytes()
        assert b"\r" not in data
        assert data == path_b.read_bytes()

    def test_unwritable_path_raises_io_error(self, tmp_path):
        with pytest.raises(IoError):
            emit_csv(EMPTY, str(tmp_path / "missing" / "file.csv"))

    def test_numbers_roundtrip_at_17_digits(self):
        row = one_row(param=1 / 3, valid=True, mu12=1 / 7, mu1=0.5, mu2=0.5,
                      mu_tilde=2 / 3, delta=0.1, lhs5=0.0, entangled=False)
        line = csv_lines(row)[1].split(",")
        assert float(line[0]) == 1 / 3
        assert float(line[2]) == 1 / 7
        assert float(line[5]) == 2 / 3


class TestMatrixFile:
    def test_roundtrip_exact(self, tmp_path):
        path = tmp_path / "state.txt"
        for seed in (1, 2, 3):
            rho = random_density(2, 3, 4, seed=seed)
            write_matrix_file(str(path), rho)
            back = read_matrix_file(str(path))
            assert back.shape == rho.shape
            assert np.array_equal(back.mat, rho.mat)

    def test_werner_file_layout(self, tmp_path):
        path = tmp_path / "werner.txt"
        rho = make_density(werner_matrix(0.8), BlockShape(2, 2))
        write_matrix_file(str(path), rho)
        lines = path.read_text().splitlines()
        assert lines[0] == "2 2"
        assert len(lines) == 1 + 16
        assert lines[1].startswith("0 0 0.45")

    def test_missing_file_raises_io_error(self, tmp_path):
        with pytest.raises(IoError):
            read_matrix_file(str(tmp_path / "nope.txt"))

    def test_non_utf8_file_raises_spec_error(self, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xff\xfe2 2\n")
        with pytest.raises(SpecError, match="not UTF-8"):
            read_matrix_file(str(path))

    def test_utf8_byte_order_mark_skipped(self, tmp_path):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        write_matrix_file(str(plain), random_density(2, 2, 3, seed=4))
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        back, expected = read_matrix_file(str(marked)), read_matrix_file(str(plain))
        assert back.shape == expected.shape
        assert back.mat.tobytes() == expected.mat.tobytes()

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2 2\n")
        with pytest.raises(SpecError):
            read_matrix_file(str(path))

    def test_wrong_entry_count(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("2 2\n0 0 1 0\n")
        with pytest.raises(SpecError):
            read_matrix_file(str(path))

    def test_duplicate_entry(self, tmp_path):
        path = tmp_path / "dup.txt"
        entries = ["2 1"] + [f"0 0 0.5 0"] * 4
        path.write_text("\n".join(entries) + "\n")
        with pytest.raises(SpecError, match="duplicate entry"):
            read_matrix_file(str(path))


class TestScanJson:
    def test_deterministic_serialization(self):
        report = scan_conjecture(BlockShape(2, 2), samples=10, seed=1)
        again = scan_conjecture(BlockShape(2, 2), samples=10, seed=1)
        assert scan_report_json(report) == scan_report_json(again)

    def test_contains_subset_stats(self):
        report = scan_conjecture(BlockShape(2, 2), samples=10, seed=1)
        text = scan_report_json(report)
        assert '"entangled_stats"' in text
        assert '"separable_stats"' in text
        assert '"counterexamples"' in text
