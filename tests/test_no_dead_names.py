"""Every error class is raised and every tolerance is read.

A class of ``errors.py`` that nothing raises, or a constant of
``defaults.py`` that nothing reads, documents a check the package no longer
makes.  This reads ``src/puritylab/*.py`` with ``ast``: outside its defining
module, each error class must appear in a ``raise`` or as the error of a
clause of a rule table (a base class of other error classes, in an
``except`` clause instead), and each constant must be read as a name or an
attribute.  Imports alone do not count.  A rule table is a top-level
``*_RULE`` tuple of ``(test, error, refusal)`` clauses, such as
``density.MATRIX_RULE``: the code that checks it raises each clause's error.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "puritylab"


def last_name(node: ast.expr | None) -> str:
    """``Foo`` for the expressions Foo, errors.Foo and Foo(...); '' otherwise."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def rule_errors(tree: ast.Module) -> set[str]:
    """The error of each ``(test, error, refusal)`` clause of a module's
    top-level ``*_RULE`` tuples."""
    return {last_name(clause.elts[1]) for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id.endswith("_RULE")
            and isinstance(node.value, ast.Tuple)
            for clause in node.value.elts
            if isinstance(clause, ast.Tuple) and len(clause.elts) == 3}


def uses(source: str) -> tuple[set[str], set[str], set[str]]:
    """The names one module raises (rule-table errors included), catches
    and reads."""
    tree = ast.parse(source)
    raised, caught, read = rule_errors(tree), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            raised.add(last_name(node.exc))
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught.update(last_name(t) for t in types)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return raised, caught, read


def error_classes(source: str) -> tuple[set[str], set[str]]:
    """The leaf classes of an errors module and the classes others derive from."""
    classes = [node for node in ast.parse(source).body if isinstance(node, ast.ClassDef)]
    bases = {last_name(base) for node in classes for base in node.bases}
    names = {node.name for node in classes}
    return names - bases, names & bases


def constants(source: str) -> set[str]:
    """The upper-case names a module assigns at top level."""
    return {target.id for node in ast.parse(source).body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id.isupper()}


def dead_names(modules: dict[str, str]) -> list[str]:
    """Error classes nobody raises (bases: nobody catches) and constants
    nobody reads, outside ``errors.py`` and ``defaults.py``."""
    leaves, bases = error_classes(modules["errors.py"])
    tolerances = constants(modules["defaults.py"])
    raised, caught, read = set(), set(), set()
    for name, source in modules.items():
        if name not in ("errors.py", "defaults.py"):
            for found, names in zip((raised, caught, read), uses(source)):
                found |= names
    return sorted((leaves - raised) | (bases - caught) | (tolerances - read))


def test_finds_planted_dead_names():
    modules = {
        "errors.py": "class Base(Exception): pass\n"
                     "class Used(Base): pass\nclass Dead(Base): pass\n",
        "defaults.py": "TOL = 1e-10\nDEAD_TOL = 1e-12\n_private = 1\n",
        "a.py": "from .errors import Base, Dead, Used\nfrom .defaults import DEAD_TOL, TOL\n"
                "def f(x, tol=TOL):\n    if x:\n        raise Used('x')\n"
                "    try:\n        pass\n    except (ValueError, Base):\n        pass\n",
    }
    assert dead_names(modules) == ["DEAD_TOL", "Dead"]
    modules["b.py"] = "import errors\nraise errors.Dead\nprint(defaults.DEAD_TOL)\n"
    assert dead_names(modules) == []


def test_rule_clause_errors_count_as_raised():
    modules = {
        "errors.py": "class Base(Exception): pass\n"
                     "class Ruled(Base): pass\nclass Dead(Base): pass\n",
        "defaults.py": "",
        "a.py": "from .errors import Base, Dead, Ruled\n"
                "try:\n    pass\nexcept Base:\n    pass\n"
                "CHECK_RULE = ((bool, Ruled, str),)\n",
    }
    assert dead_names(modules) == ["Dead"]
    # named, but not as the error of a rule clause: still dead
    for source in ("TABLE = ((bool, Dead, str),)\n",
                   "CHECK_RULE = ((bool, str, Dead), (Dead, bool, str))\n",
                   "SHORT_RULE = ((bool, Dead),)\n",
                   "def f():\n    LOCAL_RULE = ((bool, Dead, str),)\n"):
        modules["b.py"] = source
        assert dead_names(modules) == ["Dead"], source
    modules["b.py"] = "OTHER_RULE = ((bool, errors.Dead, str),)\n"
    assert dead_names(modules) == []


def test_every_error_raised_and_every_tolerance_read():
    modules = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    leaves, bases = error_classes(modules["errors.py"])
    assert "NotPositive" in leaves and bases == {"PurityLabError"}
    assert "VALIDATION_TOL" in constants(modules["defaults.py"])
    assert dead_names(modules) == []
