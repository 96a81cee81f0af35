import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import werner_matrix
from puritylab.density import BlockShape, random_density, validate_block
from puritylab.errors import IoError, PurityLabError, SpecError
from puritylab.fileio import (
    CSV_HEADER,
    ascii_number,
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
        rho = validate_block(werner_matrix(0.8), BlockShape(2, 2))
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


# The matrix-file grammar, written independently of the reader: ASCII digits,
# fields separated by spaces and tabs, reals of sign, digits, point and
# exponent.
_SEP, _UINT = r"[ \t]+", r"[0-9]+"
_REAL = r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
HEADER_LINE = re.compile(rf"[ \t]*{_UINT}{_SEP}{_UINT}[ \t]*")
ENTRY_LINE = re.compile(rf"[ \t]*({_UINT}){_SEP}({_UINT}){_SEP}({_REAL}){_SEP}({_REAL})[ \t]*")
BLANK_LINE = re.compile(r"[ \t]*")

# The file write_matrix_file writes for the Werner state at p = 0.5.
VALID_2X2 = "".join(["2 2\n"] + [f"{i} {j} {entry.real:.17g} {entry.imag:.17g}\n"
                                   for (i, j), entry in np.ndenumerate(werner_matrix(0.5))])
# Characters the mutations draw from: the grammar's own, digits and
# separators that int(), float() or str.split() accept outside it, and any
# other character.
MUTATION_CHARS = st.one_of(
    st.sampled_from("0123456789+-.eE \t\n\r_\x0b\x0c\x1c\x85\xa0\u2028\u0660\uff11\ufeffinfa"),
    st.characters(exclude_categories=("Cs",)),
)


@st.composite
def mutated_files(draw):
    """A valid 2x2 file with 1-3 characters inserted, deleted or replaced."""
    text = VALID_2X2
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        char = "" if kind == "delete" else draw(MUTATION_CHARS)
        text = text[:at] + char + text[at + (kind != "insert"):]
    return text


def grammar_entries(text: str) -> dict:
    """The entries of a text the grammar accepts, by its lines; AssertionError otherwise."""
    lines = [line for line in text.removeprefix("\ufeff").replace("\r\n", "\n")
             .replace("\r", "\n").split("\n") if not BLANK_LINE.fullmatch(line)]
    assert HEADER_LINE.fullmatch(lines[0]), lines[0]
    entries = {}
    for line in lines[1:]:
        match = ENTRY_LINE.fullmatch(line)
        assert match, line
        i, j, real, imag = match.groups()
        entries[int(i), int(j)] = complex(float(real), float(imag))
    return entries


class TestMatrixGrammar:
    @pytest.mark.parametrize("text", [
        "2 1\n0_0 0 0.5 0\n0 1 0 0\n1 0 0 0\n1 1 0.5 0\n",
        "2 1\n0 0 0.5 0\n0 1 0 0\n1 0 0 0\n1 1 0.5_0 0\n",
        "2 1\n\u0660 0 0.5 0\n0 1 0 0\n1 0 0 0\n1 1 0.5 0\n",
        "\u0662 1\n0 0 0.5 0\n0 1 0 0\n1 0 0 0\n1 1 0.5 0\n",
        "2 1\n0 0 0.5 0\n0 1 0 0\n1 0 0 0\n1 1 0.\uff15 0\n",
        "2 1\n0\x1c0 0.5 0\n0 1 0 0\n1 0 0 0\n1 1 0.5 0\n",
        "2 1\n0 0 0.5\x850\n0 1 0 0\n1 0 0 0\n1 1 0.5 0\n",
        "2\u20281\n0 0 0.5 0\n0 1 0 0\n1 0 0 0\n1 1 0.5 0\n",
        "2 1\n0 0\xa00.5 0\n0 1 0 0\n1 0 0 0\n1 1 0.5 0\n",
        "2 1\n0 0 0.5 0\x0b\n0 1 0 0\n1 0 0 0\n1 1 0.5 0\n",
        "2 1\n+0 0 0.5 0\n0 1 0 0\n1 0 0 0\n1 1 0.5 0\n",
        "+2 1\n0 0 0.5 0\n0 1 0 0\n1 0 0 0\n1 1 0.5 0\n",
    ], ids=["index-underscore", "real-underscore", "arabic-indic-index", "arabic-indic-shape",
            "fullwidth-digit", "x1c", "x85", "u2028", "nbsp", "vertical-tab", "signed-index",
            "signed-shape"])
    def test_outside_the_grammar_refused(self, tmp_path, text):
        # int(), float() and str.split() accept each of these
        path = tmp_path / "state.txt"
        path.write_text(text, encoding="utf-8", newline="")
        with pytest.raises(SpecError):
            read_matrix_file(str(path))

    def test_refusal_names_line_and_character(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text(VALID_2X2.replace("1 1 0.125", "1 1 0.1_25"), encoding="utf-8")
        with pytest.raises(SpecError, match=r"line 7: character '_' is outside the matrix format"):
            read_matrix_file(str(path))

    def test_spaces_tabs_and_real_forms_read(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("\t2 \t1 \r\n\n0 0 +.5 -0e0\n0\t1 0. 0\n1 0 0 +0E+00\n"
                        "1 1 5E-1 0\n \n", encoding="utf-8", newline="")
        assert read_matrix_file(str(path)).mat.tolist() == [[0.5, 0], [0, 0.5]]

    @pytest.mark.parametrize("text, kind, value", [
        ("-0.3333333333333333", float, -0.3333333333333333), (".5", float, 0.5),
        ("1e-9", float, 1e-9), ("+5E-1", float, 0.5), ("0.6j", complex, 0.6j),
        ("0.6+0.8j", complex, 0.6 + 0.8j), ("-3", complex, -3 + 0j),
        ("-inf", float, -np.inf), ("Infinity", complex, complex(np.inf)),
        ("1_0", float, None), ("\u0661", float, None), (" 0.5 ", float, None),
        ("(0.6+0j)", complex, None), ("0.6j", float, None), ("", float, None),
        ("1e5e5", float, None), ("\uff11", complex, None), ("infj", complex, None),
    ])
    def test_ascii_number(self, text, kind, value):
        assert ascii_number(text, kind) == value

    def test_ascii_number_reads_nan(self):
        # as inf is read, so that a finiteness check names it
        assert np.isnan(ascii_number("-nan", complex)) and np.isnan(ascii_number("NaN"))

    @given(mutated_files())
    @settings(max_examples=400)
    def test_mutations_read_or_refused(self, tmp_path_factory, text):
        # every mutation is read, as the grammar gives it, or refused with a
        # package error
        path = tmp_path_factory.mktemp("mutated") / "state.txt"
        path.write_text(text, encoding="utf-8", newline="")
        try:
            rho = read_matrix_file(str(path))
        except PurityLabError:
            return
        entries = grammar_entries(text)
        assert rho.mat.tolist() == [[entries[i, j] for j in range(4)] for i in range(4)]

    @given(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 3)]), st.integers(0, 2**32))
    @settings(max_examples=60)
    def test_write_then_read_keeps_the_bytes(self, tmp_path_factory, shape, seed):
        n, m = shape
        rho = random_density(n, m, n * m, seed=seed)
        path = tmp_path_factory.mktemp("roundtrip") / "state.txt"
        write_matrix_file(str(path), rho)
        written = path.read_bytes()
        back = read_matrix_file(str(path))
        assert back.shape == rho.shape and back.mat.tobytes() == rho.mat.tobytes()
        write_matrix_file(str(path), back)
        assert path.read_bytes() == written


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
