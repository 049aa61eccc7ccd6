"""Schemas: type definitions over (label, type) atoms, parsing, the
correspondence with shape graphs, and classification into restriction
classes.
"""

from __future__ import annotations

import enum
from collections import Counter
from functools import cached_property

from .core import INF, OPT, PLUS, STAR, Edge, Graph
from .errors import ClassPreconditionError, ParseError
from . import rbe as _rbe


class Box:
    """One box of a rule: atoms, its ((label, type), interval) pairs, whose
    bags are the product of their sums (rbe.sums); bounds, each atom's
    interval as a (min, max) pair of ints; and by_label, each label to the
    (atom index, type) pairs of its atoms in order, the atoms an out-edge
    of that label can feed."""

    __slots__ = ("atoms", "bounds", "by_label")

    def __init__(self, atoms):
        self.atoms = atoms = tuple(atoms)
        self.bounds = tuple([(iv.min, iv.max) for _, iv in atoms])
        self.by_label = by_label = {}
        for j, ((label, t), _) in enumerate(atoms):
            by_label.setdefault(label, []).append((j, t))


class Schema:
    """Types plus a total definition map from type name to expression.

    Expression atoms are Sym((label, type)) pairs.  flat maps each type to
    its atoms, the (symbol, interval) pairs of a flat definition
    (rbe.to_rbe0), or None when the definition is not flat; symbols maps
    each type to the alphabet of its definition sorted by str, read off the
    atoms of a flat definition and walked otherwise; by_label maps each
    label a to {u: the types whose alphabet holds (a, u), in order}.
    boxes maps each type to (boxes, rest) over the parts of its definition,
    a top-level disjunction's or the definition itself: a Box for each
    part that has a box form (rbe.to_boxes), a flat definition's atoms
    being its one box, and the parts that have none.  Each Box carries its
    atoms, their bounds and their index by label.  edgeless lists, in
    order, the types a node with no out-edge may hold: those with a part
    that has no box form, or with a box whose atoms all have min 0.

    Expressions are hash-consed, so types with equal definitions share one
    object; all of the above is derived once per distinct definition, for
    the first type that has it, and shared by the others.
    """

    def __init__(self, defs: dict):
        self.types: tuple[str, ...] = tuple(defs)
        self.defs: dict[str, _rbe.Rbe] = dict(defs)
        self.flat: dict[str, tuple | None] = {}
        self.symbols: dict[str, tuple] = {}
        self.by_label: dict[str, dict[str, list]] = {}
        self.boxes: dict[str, tuple] = {}
        edgeless = []
        derived: dict = {}  # definition -> (flat, symbols, boxes, edgeless)
        for t, e in self.defs.items():
            d = derived.get(e)
            if d is None:
                d = derived[e] = self._derive(t, e)
            self.flat[t], self.symbols[t], self.boxes[t], bare = d
            if bare:
                edgeless.append(t)
            for label, u in self.symbols[t]:
                self.by_label.setdefault(label, {}).setdefault(u, []).append(t)
        self.edgeless: tuple[str, ...] = tuple(edgeless)

    def _derive(self, t, e) -> tuple:
        """(flat, symbols, boxes, edgeless) of the definition e of type t,
        the first type that has it; errors name t."""
        atoms = _rbe.to_rbe0(e)
        sigma = {a for a, _ in atoms} if atoms is not None else _rbe.alphabet(e)
        symbols = tuple(sorted(sigma, key=str))
        for sym in symbols:
            if not (isinstance(sym, tuple) and len(sym) == 2):
                raise ValueError(f"atom {sym!r} in rule for {t} is not label::Type")
            if sym[1] not in self.defs:
                raise ParseError(f"rule for {t} references undefined type {sym[1]}")
        boxes, rest = [], []
        for p in e.parts if isinstance(e, _rbe.Disj) else (e,):
            forms = [atoms] if atoms is not None else _rbe.to_boxes(p)
            if forms is None:
                rest.append(p)
            else:
                boxes += map(Box, forms)
        bare = bool(rest) or any(not any(lo for lo, _ in box.bounds) for box in boxes)
        return atoms, symbols, (tuple(boxes), tuple(rest)), bare

    @cached_property
    def thresholds(self) -> dict | None:
        """Each label l of a box to its cardinality threshold T: an out-edge
        of label l with cardinality k > T satisfies a type of this schema
        iff the same edge at T does, the other edges unchanged; a label no
        box has reads as 1 (an edge of it fits no box at any k > 0).  None
        when some type has a part with no box form: the Parikh vectors
        that decide it are not threshold-stable.  Computed on first use,
        once per distinct definition.

        T is the max over boxes B of max(F + L, F + 1), F the sum of the
        maxes of B's l-atoms whose max is finite and L the sum of the mins
        of those whose max is ∞.  Take a routing of the edge at k onto B
        (validation._routes).  At most F of its k units go to bounded
        atoms, so at least k - F go to unbounded ones, which need no more
        than L units in all to reach their mins: the edge can take back
        k - F - L >= k - T of them, and at T it routes.  Conversely, when
        the edge at T routes and keeps an unbounded atom, that atom takes
        k - T more units; when it keeps none, it routes at most F < T
        units, so neither card routes.  A type holds when one of its boxes
        does, so the max over boxes serves every type."""
        th: dict = {}
        for boxes, rest in {self.defs[t]: self.boxes[t] for t in self.types}.values():
            if rest:
                return None
            for box in boxes:
                for label, atoms in box.by_label.items():
                    bounds = [box.bounds[j] for j, _ in atoms]
                    bounded = sum(hi for _, hi in bounds if hi != INF)  # F
                    unbounded = sum(lo for lo, hi in bounds if hi == INF)  # L
                    th[label] = max(th.get(label, 1), bounded + unbounded, bounded + 1)
        return th

    @cached_property
    def _shape_graph(self) -> Graph:  # built once: classify and containment read it
        return to_shape_graph(self)

    def __eq__(self, other):
        return isinstance(other, Schema) and self.defs == other.defs

    def __hash__(self):
        return hash(tuple(sorted(self.defs.items(), key=lambda kv: kv[0])))

    def __repr__(self):
        return f"Schema({len(self.types)} types)"


class SchemaClass(enum.Enum):
    """Restriction classes, most permissive to most restrictive."""

    ShEx = 0
    ShEx0 = 1
    DetShEx0 = 2
    DetShEx0Minus = 3


def parse_schema(text: str) -> Schema:
    """Parse the rule-per-line format: optional "schema" header, then
    "T -> expr" lines; '#' starts a comment.  Each distinct body text is
    parsed once: expressions are hash-consed, so a second parse would
    return the same object."""
    defs: dict[str, _rbe.Rbe] = {}
    bodies: dict[str, _rbe.Rbe] = {}  # body text -> its expression
    seen_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not seen_header:
            seen_header = True
            if line == "schema":
                continue
        if "->" not in line:
            raise ParseError("expected 'Type -> expression'", line=lineno)
        head, _, body = line.partition("->")
        head = head.strip()
        if not head or " " in head:
            raise ParseError(f"bad rule head {head!r}", line=lineno)
        if head in defs:
            raise ParseError(f"duplicate rule for type {head}", line=lineno)
        e = bodies.get(body)
        if e is None:
            try:
                e = bodies[body] = _rbe.parse_rbe(body, typed=True)
            except ParseError as exc:
                raise ParseError(f"in rule for {head}: {exc}", line=lineno) from None
        defs[head] = e
    if not defs:
        raise ParseError("no rules found", line=1)
    try:
        return Schema(defs)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def serialize_schema(s: Schema) -> str:
    lines = ["schema"]
    for t in s.types:
        lines.append(f"{t} -> {_rbe.rbe_to_text(s.defs[t])}")
    return "\n".join(lines) + "\n"


def to_shape_graph(s: Schema) -> Graph:
    """One node per type, one edge per flat atom; requires every definition
    to be in the flat basic-interval fragment."""
    edges = []
    for t in s.types:
        atoms = s.flat[t]
        if atoms is None:
            raise ClassPreconditionError(
                f"definition of type {t} is not a parallel composition of basic-interval atoms"
            )
        for (lab, target), iv in atoms:
            edges.append(Edge(t, lab, target, iv))
    return Graph(s.types, edges, kind="shape")


def from_shape_graph(g: Graph) -> Schema:
    """Inverse of to_shape_graph: node = type, out-edges = atoms."""
    if not g.is_shape:
        raise ClassPreconditionError("graph uses non-basic occurrence intervals")
    defs = {}
    for n in g.nodes:
        defs[n] = _rbe.concat_all([_rbe.atom((e.label, e.target), e.occur) for e in g.out(n)])
    return Schema(defs)


def _references(g: Graph) -> dict:
    """Each node of g to its references: the indexes in g.edges of the
    edges into it, in edge order."""
    refs: dict = {n: [] for n in g.nodes}
    for i, e in enumerate(g.edges):
        refs[e.target].append(i)
    return refs


def star_closed_references(g: Graph) -> dict:
    """Least fixed point of: a reference (edge) is *-closed iff its
    occurrence is *, or its source has at least one reference and all
    references to the source are *-closed.

    The inductive reading means a closed non-* reference always has an
    ascending chain of closed references ending in an actual *-edge; pure
    reference cycles and reference-free sources are not closed.  That anchor
    is what the characterizing-graph construction relies on.  Computed in
    one pass: each type counts its open references, and a type whose count
    reaches 0 closes its out-edges, counting down their targets'.
    Returns a mapping edge-index -> bool over g.edges.
    """
    # An unreferenced type waits on one reference that never closes.
    open_refs = {n: sum(g.edges[i].occur != STAR for i in r) if r else 1 for n, r in _references(g).items()}
    ready = [n for n, count in open_refs.items() if not count]
    while ready:
        for e in g.out(ready.pop()):
            if e.occur != STAR:
                open_refs[e.target] -= 1
                if not open_refs[e.target]:
                    ready.append(e.target)
    return {i: e.occur == STAR or not open_refs[e.source] for i, e in enumerate(g.edges)}


def classify(s: Schema):
    """Most restrictive applicable class, plus diagnostics saying why the
    next stricter class fails."""
    diagnostics: list[str] = []
    for t in s.types:
        if s.flat[t] is None:
            diagnostics.append(f"rule for {t} is not a parallel composition of basic-interval atoms")
    if diagnostics:
        return SchemaClass.ShEx, diagnostics

    g = s._shape_graph
    for n in g.nodes:
        counts = Counter(e.label for e in g.out(n))
        for lab in sorted(counts):
            if counts[lab] > 1:
                diagnostics.append(f"type {n} uses label {lab} more than once")
    if diagnostics:
        return SchemaClass.ShEx0, diagnostics

    for e in g.edges:
        if e.occur == PLUS:
            diagnostics.append(f"edge {e.source} {e.label} {e.target} uses the + interval")
    closed = star_closed_references(g)
    refs = _references(g)
    for n in g.nodes:
        if not any(e.occur == OPT for e in g.out(n)):
            continue
        if not refs[n]:
            diagnostics.append(f"type {n} uses ? but is never referenced")
        for i in refs[n]:
            if not closed[i]:
                e = g.edges[i]
                diagnostics.append(
                    f"type {n} uses ? but the reference {e.source} {e.label} {e.target} is not *-closed"
                )
    return SchemaClass.DetShEx0 if diagnostics else SchemaClass.DetShEx0Minus, diagnostics
