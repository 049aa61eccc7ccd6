"""The benchmark's tracer (perfbench/tracing.py) rebinds program functions
by module and attribute name.  A refactor that drops or renames one of them
fails here, not only in the benchmark's own suite."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names():
    """(module, attribute) of each entry of tracing.TARGETS, read from the
    file's syntax tree, without importing the benchmark."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    (targets,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]]
    return [tuple(ast.literal_eval(part) for part in entry.elts[:2]) for entry in targets.elts]


def test_traced_names_exist():
    names = traced_names()
    assert names
    missing = [(mod, attr) for mod, attr in names
               if not hasattr(importlib.import_module(f"shapegraph.{mod}"), attr)]
    assert not missing


def test_rebound_graph_hooks_exist():
    # The tracer also wraps Graph.is_simple's getter and subclasses the
    # Graph that the counter-example search builds candidates with.
    core = importlib.import_module("shapegraph.core")
    containment = importlib.import_module("shapegraph.containment")
    assert isinstance(core.Graph.is_simple, property) and core.Graph.is_simple.fget is not None
    assert containment.Graph is core.Graph
