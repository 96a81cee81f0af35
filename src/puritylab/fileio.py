"""Serialization: sweep CSV, the plain-text matrix format and scan JSON.

CSV columns are fixed as

    param,valid,mu12,mu1,mu2,mu_tilde,delta,lhs5,entangled

with numbers printed to 17 significant digits (which round-trips IEEE
doubles exactly), booleans as true/false, blanked columns empty, LF line
endings and UTF-8 throughout.  Identical inputs always serialize to
identical bytes.

The matrix format is line oriented for diffability: a header line "n m"
with the block shape, then one line "row col re im" per entry (0-based
indices, row-major order, all n*m x n*m entries present).
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from .density import BlockShape, DensityBlock, make_density
from .errors import IoError, SpecError
from .sweep import ScanReport, SweepRow

CSV_HEADER = ("param", "valid", "mu12", "mu1", "mu2",
              "mu_tilde", "delta", "lhs5", "entangled")


_BOOL = {True: "true", False: "false"}
_LINE = "%.17g,%s,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s"
_BLANKED_LINE = "%.17g,%s,%.17g,,,%.17g,%.17g,%.17g,%s"  # mu1 and mu2 blank


def csv_lines(rows: list[SweepRow]) -> list[str]:
    """The header, then each row by one expression."""
    return [",".join(CSV_HEADER)] + [
        _LINE % (r.param, _BOOL[r.valid], r.mu12, r.mu1, r.mu2, r.mu_tilde, r.delta,
                 r.lhs5, _BOOL[r.entangled]) if r.mu1 is not None else
        _BLANKED_LINE % (r.param, _BOOL[r.valid], r.mu12, r.mu_tilde, r.delta, r.lhs5,
                         _BOOL[r.entangled])
        for r in rows]


def _write_text(path: str, text: str) -> None:
    """Write text as UTF-8 with LF line endings; OSError becomes IoError."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as err:
        raise IoError(f"cannot write {path}: {err}") from err


def emit_csv(rows: list[SweepRow], path: str) -> None:
    _write_text(path, "\n".join(csv_lines(rows)) + "\n")


def write_matrix_file(path: str, rho: DensityBlock) -> None:
    """Write a one-state block in the matrix format."""
    lines = [f"{rho.shape.n} {rho.shape.m}"]
    for (i, j), entry in np.ndenumerate(rho.mat):
        lines.append(f"{i} {j} {float(entry.real):.17g} {float(entry.imag):.17g}")
    _write_text(path, "\n".join(lines) + "\n")


def read_matrix_file(path: str) -> DensityBlock:
    """The one-state block of a matrix file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = [line.strip() for line in handle if line.strip()]
    except OSError as err:
        raise IoError(f"cannot read {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise SpecError(f"{path}: not UTF-8 text: {err}") from err
    if not raw:
        raise SpecError(f"{path}: empty matrix file")
    head = raw[0].split()
    if len(head) != 2:
        raise SpecError(f"{path}: first line must be 'n m', got {raw[0]!r}")
    try:
        shape = BlockShape(int(head[0]), int(head[1]))
    except ValueError as err:
        raise SpecError(f"{path}: bad shape line {raw[0]!r}") from err
    dim = shape.dim
    if len(raw) - 1 != dim * dim:
        raise SpecError(
            f"{path}: expected {dim * dim} entry lines, got {len(raw) - 1}"
        )
    mat = np.zeros((dim, dim), dtype=np.complex128)
    seen = np.zeros((dim, dim), dtype=bool)
    for line in raw[1:]:
        fields = line.split()
        if len(fields) != 4:
            raise SpecError(f"{path}: bad entry line {line!r}")
        try:
            i, j = int(fields[0]), int(fields[1])
            re, im = float(fields[2]), float(fields[3])
        except ValueError as err:
            raise SpecError(f"{path}: bad entry line {line!r}") from err
        if not (0 <= i < dim and 0 <= j < dim):
            raise SpecError(f"{path}: index ({i}, {j}) out of range for dim {dim}")
        if seen[i, j]:
            raise SpecError(f"{path}: duplicate entry for ({i}, {j})")
        seen[i, j] = True
        mat[i, j] = complex(re, im)
    if not seen.all():
        raise SpecError(f"{path}: missing entries")
    return make_density(mat, shape)


def scan_report_json(report: ScanReport) -> str:
    return json.dumps(asdict(report), indent=2) + "\n"


def write_scan_report(report: ScanReport, path: str) -> None:
    _write_text(path, scan_report_json(report))
