"""The scripts under scripts/ run end to end as subprocesses."""

import hashlib
import importlib.util
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                          capture_output=True, text=True, cwd=ROOT)


# sha256 of each figure CSV; tied to one numpy/BLAS build, like the digests
# of tests/test_golden_outputs.py
FIGURE_DIGESTS = {
    "beta.csv": "42920a5de44280e5e5fae5a058172f4fabb8f49a9a851aee114277661668b6af",
    "gisin_a0.07_b0.99.csv": "4b1839e2c093b16a32519aac38705003086814c141669bc3d415c79785d82519",
    "gisin_a0.2_b0.9798.csv": "ea9b9877283b1a7e83a444271b576e16e61f0cbfb73d56d907a2b89b708d1f29",
    "gisin_a0.6_b0.8.csv": "eef9b9830120be10a165f98e30c669944d1cd3e020cdcb12628f6378fe13c497",
    "gisin_a1.0_b0.0.csv": "4271a43f4b88b8f645cfedccbd1634bd82ede7ce706b2d35b6e7ced0d63510a6",
    "werner.csv": "34555135b6829e2215d7fcff3abf1f841501792fda25ae5384f16e4e5de8efd4",
}


def test_reproduce_figures(tmp_path):
    proc = run_script("reproduce_figures.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    csvs = sorted(tmp_path.glob("*.csv"))
    assert len(csvs) == 6
    for path in csvs:
        assert len(path.read_text().splitlines()) == 201, path.name
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in csvs} == FIGURE_DIGESTS
    roots = [line for line in proc.stdout.splitlines() if "delta roots" in line]
    assert len(roots) == 4
    line = next(line for line in roots if line.strip().startswith("a=0.6, b=0.8:"))
    assert line.endswith("delta roots: 0.311199, 0.363531")


def test_gisin_delta_evaluates_the_closed_form_once(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "reproduce_figures", ROOT / "scripts" / "reproduce_figures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    real = module._gisin_closed
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(module, "_gisin_closed", counted)
    _, mu_tilde, mu12 = real(0.3, 0.36, 0.64)
    assert module.gisin_delta(0.36, 0.64)(0.3) == mu_tilde - mu12
    assert calls == [(0.3, 0.36, 0.64)]
