"""Serialization: sweep CSV, the plain-text matrix format and scan JSON.

CSV columns are the fields of ``SweepTable``,

    param,valid,mu12,mu1,mu2,mu_tilde,delta,lhs5,entangled

with numbers printed to 17 significant digits (which round-trips IEEE
doubles exactly), booleans as true/false, NaN (blank) cells empty, LF line
endings and UTF-8 throughout.  Identical inputs always serialize to
identical bytes.

The matrix format is line oriented for diffability: a header line "n m"
with the block shape, then one line "row col re im" per entry (0-based
indices, row-major order, all n*m x n*m entries present).  Its grammar is
strict ASCII: fields are separated by spaces and tabs, sizes and indices
are unsigned digits, and reals are sign, digits, point and exponent.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict

import numpy as np

from .density import BlockShape, DensityBlock, make_density
from .errors import IoError, SpecError
from .sweep import ScanReport, SweepTable

CSV_HEADER = SweepTable._fields

_BOOL = {True: "true", False: "false"}
_LINE = "%.17g,%s,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s"
_BLANKED_LINE = "%.17g,%s,%.17g,,,%.17g,%.17g,%.17g,%s"  # mu1 and mu2 blank


def csv_lines(table: SweepTable) -> list[str]:
    """The header, then one line per row; mu1 and mu2 blank where mu1 is NaN."""
    lines = [",".join(CSV_HEADER)]
    for param, valid, mu12, mu1, mu2, mt, delta, lhs5, ent in zip(
            *(column.tolist() for column in table)):
        valid, ent = _BOOL[valid], _BOOL[ent]
        lines.append(_BLANKED_LINE % (param, valid, mu12, mt, delta, lhs5, ent) if math.isnan(mu1)
                     else _LINE % (param, valid, mu12, mu1, mu2, mt, delta, lhs5, ent))
    return lines


def _write_text(path: str, text: str) -> None:
    """Write text as UTF-8 with LF line endings; OSError becomes IoError."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as err:
        raise IoError(f"cannot write {path}: {err}") from err


def emit_csv(table: SweepTable, path: str) -> None:
    _write_text(path, "\n".join(csv_lines(table)) + "\n")


def write_matrix_file(path: str, rho: DensityBlock) -> None:
    """Write a one-state block in the matrix format."""
    lines = [f"{rho.shape.n} {rho.shape.m}"]
    for (i, j), entry in np.ndenumerate(rho.mat):
        lines.append(f"{i} {j} {float(entry.real):.17g} {float(entry.imag):.17g}")
    _write_text(path, "\n".join(lines) + "\n")


def ascii_int(text: str) -> int | None:
    """The integer ``text`` writes in ASCII digits alone, else None: the one
    reading of a size, index, count or seed given as text, where ``int()``
    would also read "2_0", "+2", " 2" and non-ASCII digits."""
    try:
        return int(text) if text.isascii() and text.isdigit() else None
    except ValueError:  # over int()'s 4300 digits
        return None


# A real in ASCII: sign, digits, point and exponent.
_REAL = "+-.0123456789eE"


def ascii_number(text: str, kind: type = float):
    """``kind(text)``, a float or a complex, where ``text`` has only the
    characters of a real ("j" too for a complex), or is a signed "inf" or
    "nan", which a finiteness check then names; None otherwise, also where
    ``kind()`` refuses it.  ``float()`` and ``complex()`` alone would also
    read "1_0", non-ASCII digits, surrounding spaces and "(0.6+0j)"."""
    if text.strip(_REAL + "j" * (kind is complex)) and \
            text.lstrip("+-").lower() not in ("inf", "infinity", "nan"):
        return None
    try:
        return kind(text)
    except ValueError:
        return None


def read_shape(sizes: list[str], refusal: str) -> BlockShape:
    """The shape of two sizes in ASCII digits (``--shape``, a matrix file
    header); SpecError(refusal) for other text, such as "+2" or "2_0"."""
    values = [ascii_int(size) for size in sizes]
    if len(values) != 2 or None in values:
        raise SpecError(refusal)
    return BlockShape(*values)


# The grammar's characters: ``int()``, ``float()`` and ``str.split()`` see no
# other, so no digit-group underscore, non-ASCII digit or Unicode separator.
_ALPHABET = (_REAL + " \t\n").encode()


def read_matrix_file(path: str) -> DensityBlock:
    """The one-state block of a matrix file (UTF-8; a leading BOM is skipped).
    SpecError for any text outside the grammar of the module docstring."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except OSError as err:
        raise IoError(f"cannot read {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise SpecError(f"{path}: not UTF-8 text: {err}") from err
    if not text.isascii() or text.encode().translate(None, _ALPHABET):
        at = next(k for k, char in enumerate(text) if char not in _ALPHABET.decode())
        line = text.count("\n", 0, at) + 1
        raise SpecError(f"{path}: line {line}: character {text[at]!r} is outside the matrix format")
    raw = [line.strip() for line in text.split("\n") if line.strip()]
    if not raw:
        raise SpecError(f"{path}: empty matrix file")
    shape = read_shape(raw[0].split(), f"{path}: first line must be 'n m', got {raw[0]!r}")
    dim = shape.dim
    if len(raw) - 1 != dim * dim:
        raise SpecError(
            f"{path}: expected {dim * dim} entry lines, got {len(raw) - 1}"
        )
    mat = np.zeros((dim, dim), dtype=np.complex128)
    seen = np.zeros((dim, dim), dtype=bool)
    for line in raw[1:]:
        fields = line.split()
        indices = [ascii_int(field) for field in fields[:2]]
        if len(fields) != 4 or None in indices:
            raise SpecError(f"{path}: bad entry line {line!r}")
        i, j = indices
        try:
            re, im = float(fields[2]), float(fields[3])
        except ValueError as err:
            raise SpecError(f"{path}: bad entry line {line!r}") from err
        if not (i < dim and j < dim):
            raise SpecError(f"{path}: index ({i}, {j}) out of range for dim {dim}")
        if seen[i, j]:
            raise SpecError(f"{path}: duplicate entry for ({i}, {j})")
        seen[i, j] = True
        mat[i, j] = complex(re, im)
    # dim * dim unique in-range indices: every entry is present
    return make_density(mat, shape)


def scan_report_json(report: ScanReport) -> str:
    return json.dumps(asdict(report), indent=2) + "\n"


def write_scan_report(report: ScanReport, path: str) -> None:
    _write_text(path, scan_report_json(report))
