"""The four benchmark workloads, driven through puritylab's public entry
points: ``puritylab.cli.cli_main`` in-process, and the library calls that
``scripts/reproduce_figures.py`` makes.

Each workload is a closed loop of calls.  ``call(index)`` is the timed part;
its inputs are a pure function of the workload seed and the call index.  The
outputs of the first ``kept_calls`` calls are kept (untimed) for the
correctness gate and the output digests.  ``probe()`` completes the first item
from a fresh interpreter and is what ``setup_s`` times.

Why each workload:

* ``scan-2x2``: the paper's headline computation.  Sampling (Python-loop
  Ginibre and separable draws) and four eigensolves per sample.  One call is
  one job at the CLI's default size of 1000 samples.
* ``audit-3x3``: spectral work at the largest dimension (one 9x9 validation
  and four 3x3 eigensolves per state); sampling is minor.  One call is one
  job of 500 states, the size the roadmap times.
* ``sweep-figures``: the figure set.  No random sampling, sparse X-states,
  CSV writes and closed-form root finding; sampling and batched-scan changes
  should not move it.
* ``check-single``: one small state per call, the only latency-bound path
  and the only reader of matrix files.  2x3 so that a swap of the two
  reductions shows.

The batch jobs run at their real sizes so that the fixed cost of a CLI call
(parser, output capture, report writing) stays the small share of a call it
is in real use, and a batched kernel can use all of a job's lanes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import pathlib

import numpy as np

import reference as ref
from puritylab import cli, density, fileio, inequalities, states, sweep
from puritylab.prng import child_seed


def call_seed(workload: str, seed: int, index: int) -> int:
    """Seed of call ``index``, independent of the package's own generator."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.cli_main(argv)
    return code, out.getvalue()


def sha256(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
    return h.hexdigest()


class Workload:
    name = ""
    items_per_call = 1
    kept_calls = 1

    def __init__(self, seed: int, workdir: pathlib.Path, probe: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.kept: list[tuple[int, object]] = []   # (exit code, output) of call i
        self.f_evals = 0

    def call(self, index: int) -> tuple[int, object]:
        raise NotImplementedError

    def keep(self, index: int, code: int, out) -> None:
        self.kept.append((code, out))

    def probe(self) -> None:
        self.call(0)

    def expected_eigs(self, calls: int) -> dict[int, int]:
        """Eigensolves per dimension that ``calls`` calls must perform."""
        raise NotImplementedError

    def check(self, kept: int, code: int, out) -> str | None:
        """What is wrong with kept call ``kept``, or None."""
        raise NotImplementedError

    def gate(self) -> tuple[int, int, list[str]]:
        """(items checked, items failed, notes) over the kept calls.  Output
        that cannot be parsed fails its items like output that disagrees."""
        failed, notes = 0, []
        for kept, (code, out) in enumerate(self.kept):
            try:
                problem = self.check(kept, code, out)
            except (ValueError, KeyError, IndexError, TypeError) as err:
                problem = f"unreadable output ({err!r})"
            if problem:
                failed += self.items_per_call
                notes.append(f"call {kept}: {problem}")
        return self.items_per_call * len(self.kept), failed, notes

    def digests(self) -> dict[str, str]:
        raise NotImplementedError


class BatchWorkload(Workload):
    """A CLI command over ``items_per_call`` seeded random states per call;
    the probe runs it on one state."""

    command = ""
    shape = ""

    def _argv(self, index: int, samples: int) -> list[str]:
        return [self.command, "--shape", self.shape, "--samples", str(samples),
                "--seed", str(call_seed(self.name, self.seed, index))]

    def call(self, index):
        return run_cli(self._argv(index, self.items_per_call))

    def probe(self):
        run_cli(self._argv(0, 1))


class ScanWorkload(BatchWorkload):
    """``scan --shape 2x2``; 1000 samples per call, the CLI default (Ginibre
    ranks 1..4 interleaved with 1..4-term separable mixtures)."""

    name = "scan-2x2"
    command, shape = "scan", "2x2"
    items_per_call = 1000
    kept_calls = 1

    def __init__(self, seed, workdir, probe=False):
        super().__init__(seed, workdir, probe)
        self.out = str(workdir / "scan.json")

    def _argv(self, index, samples):
        return super()._argv(index, samples) + ["--out", self.out]

    def keep(self, index, code, out):
        self.kept.append((code, pathlib.Path(self.out).read_text(encoding="utf-8")))

    def expected_eigs(self, calls):
        return {4: 2 * self.items_per_call * calls, 2: 2 * self.items_per_call * calls}

    def check(self, kept, code, out):
        seed, report = call_seed(self.name, self.seed, kept), json.loads(out)
        block_shape = density.BlockShape(2, 2)
        deltas = {True: [], False: []}
        counterexamples = []
        for k in range(self.items_per_call):
            if k % 2 == 0:
                kind, size = "ginibre", (k // 2) % block_shape.dim + 1
            else:
                kind, size = "separable", (k // 2) % 4 + 1
            rho = sweep.scan_state(block_shape, kind, size, child_seed(seed, k))
            q = ref.quantities(rho.mat, 2, 2)
            entangled = ref.ppt_entangled(q)
            deltas[entangled].append(q["delta"])
            if entangled and q["delta"] <= report["tol"]:
                counterexamples.append(k)
        ok = (code == 0 and report["samples"] == self.items_per_call
              and report["seed"] == seed
              and [c["index"] for c in report["counterexamples"]] == counterexamples)
        for entangled, key in ((True, "entangled_stats"), (False, "separable_stats")):
            stats, values = report[key], deltas[entangled]
            ok = ok and stats["count"] == len(values)
            if values:
                ok = ok and ref.close(stats["min_delta"], min(values)) \
                    and ref.close(stats["max_delta"], max(values)) \
                    and ref.close(stats["mean_delta"], math.fsum(values) / len(values))
        return None if ok else f"scan seed {seed}: report differs from the reference"

    def digests(self):
        return {"scan_json": sha256(*(text for _, text in self.kept))}


class AuditWorkload(BatchWorkload):
    """``audit --shape 3x3``; 500 states per call, ranks cycling 1..9."""

    name = "audit-3x3"
    command, shape = "audit", "3x3"
    items_per_call = 500
    kept_calls = 1

    def expected_eigs(self, calls):
        return {9: self.items_per_call * calls, 3: 4 * self.items_per_call * calls}

    def check(self, kept, code, out):
        seed, worst = call_seed(self.name, self.seed, kept), {}
        for k in range(self.items_per_call):
            rho = density.random_density(3, 3, k % 9 + 1, child_seed(seed, k))
            q = ref.quantities(rho.mat, 3, 3)
            for name in ref.MARGIN_NAMES:
                lhs, rhs = q[name]
                worst[name] = min(worst.get(name, math.inf), rhs - lhs)
        lines = out.splitlines()
        ok = code == 0 and len(lines) == 1 + len(worst) and lines[0].startswith(
            f"audited {self.items_per_call} states of shape 3x3 (seed {seed},")
        for line, name in zip(lines[1:], ref.MARGIN_NAMES):
            label, _, rest = line.partition(": min margin = ")
            value, _, verdict = rest.partition(" ")
            expected = "ok" if worst[name] >= -ref.REPORT_TOL else "VIOLATED"
            ok = ok and label == name and verdict == expected \
                and ref.close(float(value), worst[name])
        return None if ok else f"audit seed {seed}: margins differ from the reference"

    def digests(self):
        return {"audit_stdout": sha256(*(text for _, text in self.kept))}


class CheckWorkload(Workload):
    """``check <file>`` on 48 random 2x3 states (ranks cycling 1..6), written
    once at set-up; call i reads file i mod 48."""

    name = "check-single"
    items_per_call = 1
    kept_calls = 48
    files = 48

    def __init__(self, seed, workdir, probe=False):
        super().__init__(seed, workdir, probe)
        self.paths = [str(workdir / f"state{j:02d}.txt") for j in range(self.files)]
        self.mats = []
        if probe:
            return
        rng = np.random.default_rng(seed)
        for j, path in enumerate(self.paths):
            rank = j % 6 + 1
            g = rng.standard_normal((6, rank)) + 1j * rng.standard_normal((6, rank))
            rho = g @ g.conj().T
            rho = 0.5 * (rho + rho.conj().T)
            rho /= rho.trace().real
            self.mats.append(rho)
            lines = ["2 3"] + [f"{i} {k} {float(rho[i, k].real)!r} {float(rho[i, k].imag)!r}"
                               for i in range(6) for k in range(6)]
            pathlib.Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    def call(self, index):
        return run_cli(["check", self.paths[index % self.files]])

    def expected_eigs(self, calls):
        return {6: calls, 2: 4 * calls, 3: 4 * calls}

    def check(self, kept, code, out):
        q = ref.quantities(self.mats[kept % self.files], 2, 3)
        lines = out.splitlines()
        ok = code == 0 and len(lines) == 11 and lines[0] == "shape: 2x3"
        for line, key in zip(lines[1:6], ("mu12", "mu1", "mu2", "mu_tilde", "delta")):
            label, _, value = line.partition(" = ")
            ok = ok and label == key and ref.close(float(value), q[key])
        for line, name in zip(lines[6:], ref.MARGIN_NAMES):
            label, _, rest = line.partition(": ")
            fields = dict(f.split("=", 1) for f in rest.split())
            lhs, rhs = q[name]
            satisfied = "true" if rhs - lhs >= -ref.REPORT_TOL else "false"
            ok = ok and label == name and fields["satisfied"] == satisfied \
                and fields["expected"] == "<=" \
                and ref.close(float(fields["lhs"]), lhs) \
                and ref.close(float(fields["rhs"]), rhs) \
                and ref.close(float(fields["margin"]), rhs - lhs)
        return None if ok else f"check file {kept % self.files}: report differs from the reference"

    def digests(self):
        return {"check_stdout": sha256(*(text for _, text in self.kept))}


GISIN_SETS = [(1.0, 0.0), (0.2, math.sqrt(1 - 0.04)), (0.6, 0.8), (0.07, 0.99)]


class SweepWorkload(Workload):
    """The figure set as ``scripts/reproduce_figures.py`` builds it: Werner,
    beta and four Gisin amplitude pairs at 200 points each written as CSV,
    plus the delta roots of each Gisin pair at grid 4096.  The inputs are
    fixed; one call is one full set."""

    name = "sweep-figures"
    kept_calls = 2

    def __init__(self, seed, workdir, probe=False):
        super().__init__(seed, workdir, probe)
        self.specs = {
            "werner.csv": sweep.SweepSpec(family="werner", start=-1 / 3, stop=1.0, count=200),
            "beta.csv": sweep.SweepSpec(family="beta", start=0.0, stop=1.0, count=200),
        }
        for a, b in GISIN_SETS:
            self.specs[f"gisin_a{a}_b{round(b, 4)}.csv"] = sweep.SweepSpec(
                family="gisin", start=0.005, stop=0.995, count=200, a=a, b=b)

    def _delta(self, a2: float, b2: float):
        def f(x):
            self.f_evals += 1
            return states._gisin_closed(x, a2, b2)[1] - states._gisin_closed(x, a2, b2)[2]
        return f

    def call(self, index):
        for name, spec in self.specs.items():
            fileio.emit_csv(sweep.run_sweep(spec), str(self.workdir / name))
        lines = []
        for a, b in GISIN_SETS:
            x_max = states.gisin_x_max(a, b)
            roots = inequalities.find_delta_roots(
                self._delta(abs(a) ** 2, abs(b) ** 2), 0.001, 0.999, grid=4096, tol=1e-10)
            lines.append(json.dumps({"a": a, "b": b, "x_max": x_max, "roots": roots}))
        return 0, "\n".join(lines) + "\n"

    def keep(self, index, code, out):
        texts = [(self.workdir / name).read_text(encoding="utf-8") for name in self.specs]
        self.kept.append((code, texts + [out]))

    def valid_rows(self) -> int:
        return sum(line.split(",")[1] == "true"
                   for text in self.kept[0][1][:len(self.specs)]
                   for line in text.splitlines()[1:])

    def expected_eigs(self, calls):
        return {4: self.valid_rows() * calls, 2: 4 * self.valid_rows() * calls}

    def _row_ok(self, spec, fields: list[str]) -> bool:
        param = float(fields[0])
        row = dict(zip(fileio.CSV_HEADER[2:8],
                       (float(v) if v else None for v in fields[2:8])))
        if spec.family == "werner":
            mat, normalized, valid = ref.werner(param), True, True
        elif spec.family == "beta":
            mat, normalized, valid = ref.beta(param), True, True
        else:
            mat = ref.gisin(param, spec.a, spec.b)
            normalized = abs(abs(spec.a) ** 2 + abs(spec.b) ** 2 - 1) <= ref.VALIDATION_TOL
            valid = normalized and param <= ref.gisin_x_max(spec.a, spec.b) + ref.VALIDATION_TOL
        d1, d2, d3, d4 = mat.diagonal().real
        entangled = (abs(mat[0, 3]) ** 2 > d2 * d3 + ref.ENTANGLE_TOL
                     or abs(mat[1, 2]) ** 2 > d1 * d4 + ref.ENTANGLE_TOL)
        ok = fields[1] == ("true" if valid else "false") \
            and fields[8] == ("true" if entangled else "false")
        if not normalized:
            # Raw amplitudes: only the closed-form delta is defined.
            a2, b2 = abs(spec.a) ** 2, abs(spec.b) ** 2
            return ok and ref.close(row["delta"], float(ref.gisin_delta_closed(param, a2, b2)))
        q = ref.quantities(mat, 2, 2)
        keys = ("mu12", "mu1", "mu2", "mu_tilde", "delta", "lhs5") if valid \
            else ("mu12", "mu_tilde", "delta", "lhs5")
        return ok and all(ref.close(row[k], q[k]) for k in keys)

    def check(self, kept, code, out):
        if kept > 0:
            return None if out == self.kept[0][1] else "differs from the first identical call"
        problems = []
        for (name, spec), text in zip(self.specs.items(), out):
            lines = text.splitlines()
            if lines[0] != ",".join(fileio.CSV_HEADER) or len(lines) != 201:
                problems.append(f"{name}: unexpected header or row count")
            bad = [line for line in lines[1:] if not self._row_ok(spec, line.split(","))]
            if bad:
                problems.append(f"{name}: {len(bad)} row(s) differ from the reference")
        for line, (a, b) in zip(out[-1].splitlines(), GISIN_SETS):
            found = json.loads(line)["roots"]
            a2, b2 = abs(a) ** 2, abs(b) ** 2
            values = ref.gisin_delta_closed(np.linspace(0.001, 0.999, 4096), a2, b2)
            crossings = int(np.sum(np.signbit(values[:-1]) != np.signbit(values[1:])))
            if len(found) != crossings or not all(
                    abs(float(ref.gisin_delta_closed(r, a2, b2))) <= 1e-8 for r in found):
                problems.append(f"gisin a={a} b={b}: roots {found} differ from the reference")
        return "; ".join(problems) or None

    def digests(self):
        names = [f"sweep_{name}" for name in self.specs] + ["sweep_roots"]
        return {name: sha256(text) for name, text in zip(names, self.kept[0][1])}


WORKLOADS = {w.name: w for w in (ScanWorkload, AuditWorkload, SweepWorkload, CheckWorkload)}
