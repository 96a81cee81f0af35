"""The README's library quick tour runs as written, and the package's top
level carries exactly the names it imports, plus ``__version__``."""

import ast
import pathlib
import re
import types

import pytest

import puritylab

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def quick_tour() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_tour_runs():
    namespace = {}
    exec(compile(quick_tour(), "README quick tour", "exec"), namespace)
    assert namespace["ps"].mu1 == pytest.approx(0.5, abs=1e-12)
    assert len(namespace["reps"]) == 5
    assert namespace["report"].samples == 10_000


def test_top_level_is_the_quick_tour():
    tour = {alias.name for node in ast.walk(ast.parse(quick_tour()))
            if isinstance(node, ast.ImportFrom) and node.module == "puritylab"
            for alias in node.names}
    exported = {name for name, value in vars(puritylab).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert tour and exported == tour
    assert puritylab.__version__ == "0.1.0"
