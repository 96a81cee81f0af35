"""Every name a package module imports from a sibling module is read there.

An import that nothing reads is what a refactor leaves behind when it moves
the last use of a name: the module still binds it, and a reader looks for
a use that is gone.  This reads ``src/puritylab/*.py`` with ``ast``: each
name bound by ``from .sibling import name`` (or ``from . import sibling``)
must be read as a name somewhere in the module; annotations count.
``__init__.py`` is exempt, since its imports are the package's top-level
names.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "puritylab"


def unused_sibling_imports(source: str) -> list[str]:
    """The names a module imports from its own package and never reads."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0
                for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_finds_planted_unused_imports():
    source = ("from __future__ import annotations\nimport math\n"
              "from .states import random_x_entries, random_x_params as draw\n"
              "from .density import BlockShape, DensityBlock\nfrom . import errors\n"
              "def f(shape: BlockShape) -> DensityBlock:\n"
              "    return random_x_entries([shape.n])\n")
    assert unused_sibling_imports(source) == ["draw", "errors"]
    source += "raise errors.SpecError(draw)\n"
    assert unused_sibling_imports(source) == []


def test_every_sibling_import_is_read():
    unused = {path.name: unused_sibling_imports(path.read_text())
              for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert len(unused) > 5
    assert {name: names for name, names in unused.items() if names} == {}
