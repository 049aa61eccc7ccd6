"""The benchmark's tracer (perfbench/tracing.py) rebinds program functions
by module and attribute name.  A refactor that drops or renames one of them
fails here, not only in the benchmark's own suite."""

import ast
import importlib
import importlib.util
from pathlib import Path

from shapegraph import validation
from shapegraph.core import parse_graph
from shapegraph.schema import parse_schema

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


def test_flat_route_note_reads_the_real_arguments(monkeypatch):
    # The note of the route.flat span sums e.occur.min over the first
    # argument of _satisfies_flat; it must read the arguments that one
    # max_typing really passes, one call per box.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    (note,) = [entry[3] for entry in tracing.TARGETS if entry[:2] == ("validation", "_satisfies_flat")]
    real, calls = validation._satisfies_flat, []

    def recording(*args):
        result = real(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(validation, "_satisfies_flat", recording)
    s = parse_schema("t -> a::u*, b::u | c::u^[1;2]\nu -> eps\n")
    g = parse_graph("graph compressed\nx a y [3;3]\nx b y\nz c y [2;2]\n")
    assert validation.max_typing(g, s) == {"x": {"t"}, "y": {"u"}, "z": {"t"}}
    notes = [note(args, result) for args, result in calls]
    # y: u (t needs an edge); x: t, its [3;3] a-edge read at a's threshold
    # 1 under a::u*; z: t twice, [2;2] being below c's threshold 3.
    assert sorted(notes) == [0, 2, 2, 2]
