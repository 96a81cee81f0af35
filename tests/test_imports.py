"""The package's internal import graph has no cycles.

Every ``from .module import ...`` in ``src/puritylab``, at module level or
inside a function, is an edge from the importing module to the imported
one.  A call-time import hides a cycle from the interpreter, not from this
test.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "puritylab"


def import_graph(package: pathlib.Path) -> dict[str, set[str]]:
    graph = {}
    for path in sorted(package.glob("*.py")):
        edges = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    edges.update(alias.name for alias in node.names)
                else:
                    edges.add(node.module.split(".")[0])
        graph[path.stem] = edges
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of the graph as a path that returns to its start, or None."""
    done, path = set(), []

    def visit(node):
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return None
        path.append(node)
        for target in sorted(graph.get(node, ())):
            cycle = visit(target)
            if cycle:
                return cycle
        path.pop()
        done.add(node)
        return None

    for start in sorted(graph):
        cycle = visit(start)
        if cycle:
            return cycle
    return None


def test_graph_reads_every_module():
    graph = import_graph(PACKAGE)
    assert {"cli", "density", "inequalities", "linalg", "states", "sweep"} <= set(graph)
    assert "density" in graph["inequalities"]


def test_finds_a_planted_cycle():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set()}) is None


def test_no_import_cycles():
    cycle = find_cycle(import_graph(PACKAGE))
    assert cycle is None, "import cycle: " + " -> ".join(cycle)
