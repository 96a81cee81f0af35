"""Every ``DensityBlock`` of the package is made by ``density.validate_block``.

``DensityBlock`` is the one type of validated states, so a block built any
other way would hand unchecked matrices to code that trusts them.  This reads
``src/puritylab/*.py`` with ``ast``: a call of ``DensityBlock`` (by name or as
an attribute), or of ``cls`` inside that class, may appear only in the body of
``validate_block``.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "puritylab"


class _Constructions(ast.NodeVisitor):
    """The enclosing class and function names of each construction."""

    def __init__(self):
        self.scope: list[str] = []
        self.found: list[str] = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def visit_Call(self, node):
        if self._constructs(node.func):
            self.found.append(".".join(self.scope) or "<module>")
        self.generic_visit(node)

    def _constructs(self, func: ast.expr) -> bool:
        if isinstance(func, ast.Name):
            return func.id == "DensityBlock" or (func.id == "cls" and "DensityBlock" in self.scope)
        return isinstance(func, ast.Attribute) and func.attr == "DensityBlock"


def constructions(source: str) -> list[str]:
    """Where one module constructs a ``DensityBlock``, one entry per call."""
    finder = _Constructions()
    finder.visit(ast.parse(source))
    return finder.found


def test_finds_planted_constructions():
    source = ("class DensityBlock:\n"
              "    @classmethod\n"
              "    def wrap(cls, rho):\n        return cls(rho.mat[None], rho.shape)\n"
              "def validate_block(mats, shape):\n    return DensityBlock(mats, shape)\n"
              "def reduced(block):\n    return density.DensityBlock(block.mats, block.shape)\n"
              "BLOCK = DensityBlock(None, None)\n")
    assert constructions(source) == ["DensityBlock.wrap", "validate_block", "reduced", "<module>"]
    clean = ("def f(block, cls):\n"
             "    return DensityBlockShape(2, 2), cls(block), block.mats\n")
    assert constructions(clean) == []


def test_only_validate_block_constructs_blocks():
    found = {path.name: constructions(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert found.pop("density.py") == ["validate_block"]
    assert {name: where for name, where in found.items() if where} == {}
