"""The scripts under scripts/ run end to end as subprocesses."""

import importlib.util
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                          capture_output=True, text=True, cwd=ROOT)


def test_reproduce_figures(tmp_path):
    proc = run_script("reproduce_figures.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    csvs = sorted(tmp_path.glob("*.csv"))
    assert len(csvs) == 6
    for path in csvs:
        assert len(path.read_text().splitlines()) == 201, path.name
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


def test_run_conjecture_scan():
    proc = run_script("run_conjecture_scan.py", 200, 5)
    assert proc.returncode == 0, proc.stderr
