"""The README's library quick tour runs as written, the package's top
level carries exactly the names it imports, plus ``__version__``, and every
name of code the README quotes exists."""

import ast
import builtins
import fnmatch
import pathlib
import re
import types

import pytest

import puritylab

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def code_names() -> set[str]:
    """Every name the code of the repository binds or reads from a module:
    definitions, assignments, arguments, imports and attributes, and the
    module names themselves."""
    names = set(dir(builtins))
    for tree in ("src/puritylab", "scripts", "tests", "perfbench"):
        for path in (ROOT / tree).rglob("*.py"):
            names.add(path.stem)
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names.add(node.name)
                elif isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.arg):
                    names.add(node.arg)
                elif isinstance(node, ast.ImportFrom):
                    names.update((node.module or "").split("."))
                    names.update(alias.asname or alias.name for alias in node.names)
    return names


def quoted_names() -> set[tuple[str, str]]:
    """(name, span) for each name of code in the README's inline code spans:
    an identifier with ``_`` or in CamelCase, or a ``*_suffix`` pattern.
    Spans naming pandas, and formulas (with ``·`` or ``|x|``), are skipped."""
    text = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"), flags=re.S | re.M)
    return {(name, span) for span in re.findall(r"`([^`]+)`", text)
            if "pandas" not in span and "·" not in span and "|" not in span
            for name in re.findall(r"\*?[A-Za-z_]\w*", span)
            if "_" in name or (name[0].isupper() and re.search("[a-z][A-Z]", name))}


def test_named_code_exists():
    names = code_names()
    missing = sorted((name, span) for name, span in quoted_names() if name not in names
                     and not any(fnmatch.fnmatchcase(known, name) for known in names))
    assert not missing
