#!/usr/bin/env python3
"""Regenerate the CSV data behind every family figure.

Writes one CSV per curve set into the output directory (default ./out):
the Werner and beta sweeps plus four reference Gisin amplitude pairs,
each over its full parameter range at 200 grid points.  Also prints, per
Gisin set, the separability threshold x_max and the located roots of
delta = mu_tilde - mu12.

Plot any file with, e.g.:

    python -c "import pandas as pd, matplotlib.pyplot as plt; \
d = pd.read_csv('out/gisin_a0.6_b0.8.csv'); \
d.plot(x='param', y=['mu12', 'mu_tilde', 'lhs5']); plt.show()"
"""

from __future__ import annotations

import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from puritylab.fileio import emit_csv
from puritylab.inequalities import find_delta_roots
from puritylab.states import _gisin_closed, gisin_x_max
from puritylab.sweep import SweepSpec, run_sweep

GISIN_SETS = [
    (1.0, 0.0),
    (0.2, math.sqrt(1 - 0.04)),
    (0.6, 0.8),
    (0.07, 0.99),  # non-normalized reference pair, kept raw
]


def gisin_delta(a2: float, b2: float):
    """delta(x) = mu_tilde - mu12 of the Gisin set with raw |a|^2 = a2 and
    |b|^2 = b2, from one closed-form evaluation per call.  Elementwise, as
    ``find_delta_roots`` needs: x may be a float or a float64 array."""
    def delta(x):
        _, mu_tilde, mu12 = _gisin_closed(x, a2, b2)
        return mu_tilde - mu12
    return delta


def main() -> int:
    outdir = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path("out")
    outdir.mkdir(parents=True, exist_ok=True)

    specs = {
        "werner.csv": SweepSpec(family="werner", start=-1 / 3, stop=1.0, count=200),
        "beta.csv": SweepSpec(family="beta", start=0.0, stop=1.0, count=200),
    }
    for a, b in GISIN_SETS:
        specs[f"gisin_a{a}_b{round(b, 4)}.csv"] = SweepSpec(
            family="gisin", start=0.005, stop=0.995, count=200, a=a, b=b)

    for name, spec in specs.items():
        path = outdir / name
        emit_csv(run_sweep(spec), str(path))
        print(f"wrote {path}")

    print("\ndelta = mu_tilde - mu12 structure per Gisin set:")
    for a, b in GISIN_SETS:
        x_max = gisin_x_max(a, b)
        roots = find_delta_roots(gisin_delta(abs(a) ** 2, abs(b) ** 2),
                                 0.001, 0.999, grid=4096, tol=1e-10)
        pretty = ", ".join(f"{r:.6f}" for r in roots) or "none in (0, 1)"
        print(f"  a={a}, b={b}: x_max = {x_max:.6f}, delta roots: {pretty}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
