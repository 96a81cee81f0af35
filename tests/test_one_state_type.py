"""Every ``DensityBlock`` of the package is made by ``density.validate_block``.

``DensityBlock`` is the one type of validated states, so a block built any
other way would hand unchecked matrices to code that trusts them.  This reads
``src/puritylab/*.py`` with ``ast``: a call of ``DensityBlock`` (by name or as
an attribute), or of ``cls`` inside that class, may appear only in the body of
``validate_block``.  And every X-state is made by ``states.x_state``:
outside ``density.py`` (the validators and the sampler) and ``fileio.py``
(the matrix file reader), only ``x_state`` calls ``make_density`` or
``validate_block``, so no family or sweep grows a checked constructor of its
own again.
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


class _Calls(_Constructions):
    """The enclosing class and function names of each call of ``names``."""

    def __init__(self, names: tuple[str, ...]):
        super().__init__()
        self.names = names

    def _constructs(self, func: ast.expr) -> bool:
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in self.names


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


def validator_calls(source: str) -> list[str]:
    """Where one module calls ``make_density`` or ``validate_block``, one entry per call."""
    finder = _Calls(("make_density", "validate_block"))
    finder.visit(ast.parse(source))
    return finder.found


def test_finds_planted_validator_calls():
    source = ("def x_state(entries):\n"
              "    return make_density(x_state_matrix(entries), SHAPE)\n"
              "def checked_werner(p):\n"
              "    return density.validate_block(werner_matrix(p)[None], SHAPE)\n")
    assert validator_calls(source) == ["x_state", "checked_werner"]
    clean = "def f(entries):\n    return x_state(entries), make_densities, validate_block\n"
    assert validator_calls(clean) == []


def test_only_x_state_validates_outside_density_and_fileio():
    found = {path.name: validator_calls(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
             if path.name not in ("density.py", "fileio.py")}
    assert {name: where for name, where in found.items() if where} == {"states.py": ["x_state"]}
