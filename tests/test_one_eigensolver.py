"""Every eigensolve of the package goes through ``linalg.hermitian_eig``.

The eigensolve counts the test suite and the traced benchmark check are
counts of ``hermitian_eig`` calls, so a module that reached LAPACK another
way would do work neither sees.  This reads ``src/puritylab/*.py`` with
``ast``: outside ``linalg.py`` no module may import numpy's private
``_umath_linalg`` or call an ``eig*`` function of a ``linalg`` module,
``eigvalsh`` or ``svd``.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "puritylab"


def dotted(node: ast.expr) -> str:
    """``np.linalg.eigh`` for the expression np.linalg.eigh; '' for anything
    that is not a chain of names."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    return ".".join([node.id, *reversed(parts)])


def is_eigensolver(name: str) -> bool:
    *owner, last = name.split(".")
    return (last in ("eigvalsh", "svd")
            or (last.startswith("eig") and bool(owner) and owner[-1] == "linalg"))


def eigensolver_uses(source: str) -> list[str]:
    """The private LAPACK imports and eigensolver calls of one module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if "_umath_linalg" in alias.name]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [alias.name for alias in node.names]
            if "_umath_linalg" in module or "_umath_linalg" in names:
                found.append(f"from {module} import {', '.join(names)}")
            found += [f"from {module} import {name}" for name in names
                      if is_eigensolver(f"{module}.{name}")]
        elif isinstance(node, ast.Call) and is_eigensolver(dotted(node.func)):
            found.append(dotted(node.func) + "()")
    return found


def test_finds_planted_uses():
    assert eigensolver_uses("from numpy.linalg._umath_linalg import eigh_lo") == [
        "from numpy.linalg._umath_linalg import eigh_lo"]
    assert eigensolver_uses("import numpy.linalg._umath_linalg") == [
        "numpy.linalg._umath_linalg"]
    assert eigensolver_uses("from numpy.linalg import eigh") == [
        "from numpy.linalg import eigh"]
    assert eigensolver_uses("np.linalg.eigvals(a); scipy.linalg.svd(a); eigvalsh(a)") == [
        "np.linalg.eigvals()", "scipy.linalg.svd()", "eigvalsh()"]
    assert eigensolver_uses("hermitian_eig(a); np.linalg.norm(a); block.eig_count()") == []


def test_only_linalg_reaches_lapack():
    modules = {path.name: eigensolver_uses(path.read_text())
               for path in sorted(PACKAGE.glob("*.py"))}
    assert {"cli.py", "density.py", "inequalities.py", "states.py"} <= set(modules)
    assert modules.pop("linalg.py")
    assert {name: uses for name, uses in modules.items() if uses} == {}
