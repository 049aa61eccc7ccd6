"""Spans around calls into the program's modules, recorded from outside.

The tracer rebinds module attributes to wrappers, including names that one
module imported from another (containment.embeds, containment.classify and
the Graph class the search builds candidates with) and the Graph.is_simple
property. Spans are kept in compact arrays in memory and written out once,
at the end of the run.
"""

from __future__ import annotations

import functools
import json
import time
from array import array


def _result(args, result):
    return 1 if result else 0


def _found(args, result):
    return 0 if result is None else 1


def _sources(args, result):
    return sum(e.occur.min for e in args[0])


def _nodes_times_types(args, result):
    return len(args[0].nodes) * len(args[1].types)


def _node_pairs(args, result):
    return len(args[0].nodes) * len(args[1].nodes)


# (module, attribute, span name, note). The note of a span that returned
# is computed from its arguments and result; see metrics.layer_metrics.
TARGETS = [
    ("core", "parse_graph", "core.parse_graph", None),
    ("core", "serialize_graph", "core.serialize_graph", None),
    ("schema", "parse_schema", "schema.parse_schema", None),
    ("schema", "classify", "schema.classify", None),
    ("containment", "classify", "schema.classify", None),
    ("rbe", "to_rbe0", "rbe.to_rbe0", None),
    ("rbe", "bag_matches", "rbe.bag_matches", _result),
    ("validation", "max_typing", "validation.max_typing", _nodes_times_types),
    ("validation", "validates", "validation.validates", _result),
    ("validation", "satisfies_type", "validation.satisfies_type", _result),
    ("validation", "_satisfies_flat", "validation.route.flat", _sources),
    ("validation", "_satisfies_psi", "validation.route.psi", None),
    ("validation", "_satisfies_exhaustive", "validation.route.exhaustive", None),
    ("embedding", "embeds", "embedding.embeds", None),
    ("containment", "embeds", "embedding.embeds", None),
    ("embedding", "max_simulation", "embedding.max_simulation", _node_pairs),
    ("embedding", "find_witness", "embedding.find_witness", _found),
    ("embedding", "routing_instance", "embedding.routing_instance", None),
    ("embedding", "witness_exists_basic", "embedding.witness_exists_basic", _found),
    ("embedding", "witness_exists_general", "embedding.witness_exists_general", _found),
    ("presburger", "presburger_of", "presburger.presburger_of", None),
    ("presburger", "pa_eval_bounded", "presburger.pa_eval_bounded", None),
    ("containment", "find_counterexample", "containment.find_counterexample", None),
    ("containment", "canonical_code", "containment.canonical_code", None),
    ("containment", "characterizing_graph", "containment.characterizing_graph", None),
    ("containment", "contains_detshex0minus", "containment.contains_detshex0minus", None),
]


class Tracer:
    """Records spans: name, parent, start, end, operation id and note."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.kind = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op = array("i")
        self.note = array("i")
        self.stack = []
        self.op_id = -1
        self._saved = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, kid):
        i = len(self.kind)
        self.kind.append(kid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.note.append(0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i, note):
        self.end[i] = time.perf_counter()
        self.stack.pop()
        self.note[i] = note

    def wrap(self, name, fn, note=None):
        kid = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(kid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(i, -1)
                raise
            self._close(i, note(args, result) if note else 0)
            return result

        return wrapper

    def operation(self, op_id, call):
        """Run call() as operation op_id under a root span named cli."""
        self.op_id = op_id
        i = self._open(self._name_id("cli"))
        try:
            return call()
        finally:
            self._close(i, 0)

    def install(self, package):
        """Rebind every target in the imported package's modules."""
        modules = {name: getattr(package, name) for name in
                   ("core", "schema", "rbe", "validation", "embedding", "presburger", "containment")}
        for mod, attr, name, note in TARGETS:
            m = modules[mod]
            self._saved.append((m, attr, getattr(m, attr)))
            setattr(m, attr, self.wrap(name, getattr(m, attr), note))
        graph = modules["core"].Graph
        prop = graph.is_simple
        self._saved.append((graph, "is_simple", prop))
        graph.is_simple = property(self.wrap("core.Graph.is_simple", prop.fget))
        cont = modules["containment"]
        self._saved.append((cont, "Graph", cont.Graph))
        cont.Graph = type("Graph", (graph,), {"__init__": self.wrap("containment.Graph", graph.__init__)})

    def uninstall(self):
        while self._saved:
            obj, attr, value = self._saved.pop()
            setattr(obj, attr, value)

    def arrays(self):
        return self.names, self.kind, self.parent, self.start, self.end, self.note

    def write(self, path):
        """One JSON header line, then the arrays in header order, raw."""
        fields = ("kind", "parent", "start", "end", "op", "note")
        header = {"names": self.names, "spans": len(self.kind),
                  "fields": [[f, getattr(self, f).typecode] for f in fields]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for f in fields:
                getattr(self, f).tofile(fh)
