"""Golden outputs: the sha256 of one seeded run of each CLI command.

Refactors of the numerical layers must keep these outputs byte-identical.
The digests are tied to one numpy/BLAS build (numpy 2.4.6 with its bundled
OpenBLAS, one thread): another LAPACK may round eigenvalues differently in
the last bits, and the printed 17-digit values with them.  On such a build,
re-record the digests from the parent commit before judging a change by them.
A mismatch names the build it ran on (``build_info.build_fingerprint``).
"""

import hashlib

import pytest

from build_info import build_fingerprint
from puritylab.cli import cli_main
from puritylab.density import random_density
from puritylab.fileio import write_matrix_file

GOLDEN = {
    "scan-2x2": (
        ["scan", "--shape", "2x2", "--samples", "200", "--seed", "2024"],
        "39c42078801e6f81961bada5b37486924dcdbb1289411fdc9fe92899e6203883",
    ),
    "scan-2x3": (
        ["scan", "--shape", "2x3", "--samples", "200", "--seed", "2024"],
        "f2ef8860c4fd4e4d09fe97d1b14f7e06935c5b55b7135b9d69e864cde1773a3b",
    ),
    "audit-3x3": (
        ["audit", "--shape", "3x3", "--samples", "100", "--seed", "5"],
        "95aab6c35d361bf4652362500082b0d4f72d974577693a0ab98d2d51e814be2c",
    ),
    "sweep-werner": (
        ["sweep", "--family", "werner", "--start", str(-1 / 3), "--stop", "1", "--count", "200"],
        "34555135b6829e2215d7fcff3abf1f841501792fda25ae5384f16e4e5de8efd4",
    ),
    "sweep-beta": (
        ["sweep", "--family", "beta", "--start", "0", "--stop", "1", "--count", "200"],
        "42920a5de44280e5e5fae5a058172f4fabb8f49a9a851aee114277661668b6af",
    ),
    "sweep-gisin": (
        ["sweep", "--family", "gisin", "--start", "0.005", "--stop", "0.995", "--count", "200",
         "--a", "0.6", "--b", "0.8"],
        "eef9b9830120be10a165f98e30c669944d1cd3e020cdcb12628f6378fe13c497",
    ),
    # out-of-domain rows: the closed forms of the family's entries
    "sweep-werner-wide": (
        ["sweep", "--family", "werner", "--start=-3", "--stop", "3", "--count", "61"],
        "4cffca48b9a07e0a2cb3e5c1b762764468cd52834581032678d7b9598a60d7b9",
    ),
    "sweep-beta-wide": (
        ["sweep", "--family", "beta", "--start=-2", "--stop", "3", "--count", "51"],
        "a6b42887b9d8df39e470a68c453c50b0d609c677006f25f33af1e39c506ca2f1",
    ),
    # complex amplitudes, as the command line reads them
    "sweep-gisin-complex": (
        ["sweep", "--family", "gisin", "--start", "0.005", "--stop", "0.995", "--count", "200",
         "--a", "0.6j", "--b", "0.8"],
        "86261d0c82cf7a94af6f0c49a3b2ba0086865ea107c9e929482bb23a178e064c",
    ),
    # x outside [0, 1] and past x_max: the raw-amplitude closed forms; the
    # row x = 0, the state diag(1/2, 0, 0, 1/2), is valid
    "sweep-gisin-wide": (
        ["sweep", "--family", "gisin", "--start=-2", "--stop", "3", "--count", "51",
         "--a", "0.6", "--b", "0.8"],
        "bf7eb472f26b731d31f38b88caeee4efc90dc99e7552745aaffe54e592984f1e",
    ),
    # the published pair, off normalization: every row invalid
    "sweep-gisin-raw": (
        ["sweep", "--family", "gisin", "--start", "0.005", "--stop", "0.995", "--count", "200",
         "--a", "0.07", "--b", "0.99"],
        "4b1839e2c093b16a32519aac38705003086814c141669bc3d415c79785d82519",
    ),
    "sweep-xrandom": (
        ["sweep", "--family", "xrandom", "--start", "0", "--stop", "99", "--count", "100"],
        "4c9b5122414ed854f65c65c3d16f0ebdc249f6b50cab540fdbc8ab8b34ec1663",
    ),
}

CHECK_DIGEST = "50ca2a0cbe272ee9ab188c8a934ab603223afc980ef493c64b012352f0a3879d"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", GOLDEN)
def test_cli_output_is_golden(name, tmp_path, capsys):
    argv, expected = GOLDEN[name]
    if argv[0] == "sweep":
        out = tmp_path / f"{name}.csv"
        assert cli_main([*argv, "--out", str(out)]) == 0
        text = out.read_text()
    else:
        assert cli_main(argv) == 0
        text = capsys.readouterr().out
    assert digest(text) == expected, build_fingerprint()


def test_check_output_is_golden(tmp_path, capsys):
    path = tmp_path / "state.txt"
    write_matrix_file(str(path), random_density(2, 3, 4, 2024))
    assert cli_main(["check", str(path)]) == 0
    assert digest(capsys.readouterr().out) == CHECK_DIGEST, build_fingerprint()
