"""The README's library quick tour runs as written, its command lines
parse, the package's top level carries exactly the names it imports, plus
``__version__``, and every name of code the README or a package docstring
quotes exists."""

import ast
import builtins
import fnmatch
import pathlib
import re
import shlex
import types

import pytest

import puritylab
from puritylab import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def quick_tour() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_tour_runs():
    namespace = {}
    exec(compile(quick_tour(), "README quick tour", "exec"), namespace)
    assert namespace["ps"].mu1.item() == pytest.approx(0.5, abs=1e-12)
    assert len(namespace["reps"]) == 5
    assert namespace["report"].samples == 10_000


def command_lines() -> list[str]:
    """The ``puritylab ...`` lines of the README's Command line block."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("puritylab ")]


def test_command_lines_parse():
    # parsed only: the commands read and write files the tests do not have
    parsed = [cli.build_parser().parse_args(shlex.split(line)[1:]) for line in command_lines()]
    assert {args.command for args in parsed} == {"sweep", "audit", "scan", "check"}


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


def names_in(spans, formula: str) -> set[tuple[str, str]]:
    """(name, span) for each name of code in ``spans``: an identifier with
    ``_`` or in CamelCase, or a ``*_suffix`` pattern.  Spans matching the
    regex ``formula`` are skipped."""
    return {(name, span) for span in spans if not re.search(formula, span)
            for name in re.findall(r"\*?[A-Za-z_]\w*", span)
            if "_" in name or (name[0].isupper() and re.search("[a-z][A-Z]", name))}


def quoted_names() -> set[tuple[str, str]]:
    """Names of code in the README's inline code spans.  Spans naming
    pandas, and formulas (with ``·`` or ``|x|``), are skipped."""
    text = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"), flags=re.S | re.M)
    return names_in(re.findall(r"`([^`]+)`", text), r"pandas|·|\|")


def docstring_names(source: str) -> set[tuple[str, str]]:
    """Names of code in the double-backticked spans of a module's
    docstrings.  Formulas are skipped: spans with ``·``, ``|x|`` or an
    operator between spaces, such as ``start_i + j * GAMMA``."""
    spans = [span for node in ast.walk(ast.parse(source))
             if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
             for span in re.findall(r"``([^`]+)``", ast.get_docstring(node, clean=False) or "")]
    return names_in(spans, r"·|\|| [-+*/] ")


def missing_names(quoted: set[tuple[str, str]], names: set[str]) -> list[tuple[str, str]]:
    return sorted((name, span) for name, span in quoted if name not in names
                  and not any(fnmatch.fnmatchcase(known, name) for known in names))


def test_named_code_exists():
    names = code_names()
    assert not missing_names(quoted_names(), names)
    package = (ROOT / "src" / "puritylab").glob("*.py")
    quoted = set().union(*(docstring_names(path.read_text(encoding="utf-8")) for path in package))
    assert len(quoted) > 20
    assert not missing_names(quoted, names)


def test_docstring_names_find_a_deleted_name():
    source = ('"""Module: ``x_state(werner_entries(p))``."""\n'
              'def f(p):\n    """Was ``deleted_helper(p)``; ``start_i + j * GAMMA``."""\n')
    assert docstring_names(source) == {("x_state", "x_state(werner_entries(p))"),
                                       ("werner_entries", "x_state(werner_entries(p))"),
                                       ("deleted_helper", "deleted_helper(p)")}
    assert missing_names(docstring_names(source), code_names()) == [
        ("deleted_helper", "deleted_helper(p)")]
