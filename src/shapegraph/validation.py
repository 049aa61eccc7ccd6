"""Node signatures, type satisfaction, the maximal-typing fixpoint, and
graph-satisfies-schema, for simple and compressed graphs.

A typing is a dict from node id to a frozenset of type names; absent nodes
are treated as untyped.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from operator import attrgetter

from .core import INF, ONE, Edge, Graph, Interval, Refinement, index_lists
from .errors import GraphKindError
from . import rbe as _rbe
from .embedding import feasible_flow
from .schema import Box, Schema


def signature(g: Graph, typing: dict, n) -> _rbe.Rbe:
    """∥ over out-edges of (| over types of the edge's target); on compressed
    graphs each factor carries the edge's occurrence as an exponent.  An edge
    whose target carries no types contributes the empty-language factor."""
    if n not in g:
        raise ValueError(f"unknown node {n!r}")
    return _signature(g.out(n), [typing.get(e.target, ()) for e in g.out(n)])


def _signature(out, choices) -> _rbe.Rbe:
    """∥ over the edges out of (| over the types choices[i] of out[i]'s
    target, in sorted order), each factor raised to its edge's occurrence
    unless that is 1."""
    factors = []
    for e, types in zip(out, choices):
        factor = _rbe.disj_all([_rbe.Sym((e.label, t)) for t in sorted(types)])
        if e.occur != ONE:
            factor = _rbe.Repeat(factor, e.occur)
        factors.append(factor)
    return _rbe.concat_all(factors)


def satisfies_type(s: Schema, ty: str, out, choices, solved=None) -> bool:
    """L(signature) ∩ L(δ(ty)) ≠ ∅ for a node whose out-edges are out, read
    only for each edge's label and occurrence [k;k], with out[i]'s target
    at the type set choices[i].

    ty holds when one box or one other part of δ(ty) does (Schema.boxes).
    A box is decided by routing the edges onto its atoms (_routes), each
    edge finding its atoms by label, at a cost that does not depend on the
    cardinalities; any other part by its Parikh vectors inside the box of
    the node's out-widths, one routing per vector, whose only bound is the
    matcher's constant work cap (rbe.VECTOR_WORK).  solved, when given, is
    the caller's memo of flow verdicts per routing instance (_routes).
    """
    if ty not in s.defs:
        raise ValueError(f"unknown type {ty!r}")
    if any(e.occur.max == 0 for e in out):
        # Zero-occurrence edges contribute ε to the signature; drop them.
        live = [i for i, e in enumerate(out) if e.occur.max != 0]
        out, choices = [out[i] for i in live], [choices[i] for i in live]
    if not all(choices):
        return False  # an edge to an untyped node is unsatisfiable
    boxes, rest = s.boxes[ty]
    for box in boxes:
        if _satisfies_flat(out, choices, box, solved):
            return True
    return any(_satisfies_exhaustive(out, choices, part, s.symbols[ty]) for part in rest)


def _satisfies_flat(out, choices, box, solved=None) -> bool:
    return _routes(out, choices, box, solved)


def _routes(out, choices, box, solved=None) -> bool:
    """Whether the signature routes onto box (schema.Box): each out-edge
    sends its cardinality to atoms of its label and of a type of its
    target, and every atom's total lies in its bounds.  out holds no edge
    of cardinality 0 (satisfies_type drops them).

    One pass keeps each edge's atoms, those of its label (the box's label
    index) whose type its target has; an edge that keeps none fails the
    box.  Each edge sends all its cardinality to its first kept atom of
    max ∞, which no bound caps, or else to its first kept atom.  When
    every atom's total then lies in its bounds, that routing is the
    witness; when it does not and every edge kept one atom, it was the
    only routing and the box fails.  Otherwise one flow decides on the
    kept atoms, with one source per edge, its cardinality as supply, and
    one sink per atom; its routing is checked independently
    (_verify_flat_routing).  The flow's verdict depends only on the box
    and each edge's cardinality and kept atoms, the routing instance;
    solved, a dict the caller owns, keeps it under that key, so each
    instance is solved once per owner."""
    index, bounds = box.by_label, box.bounds
    received = [0] * len(bounds)
    feeds = []
    for e, ch in zip(out, choices):
        kept = ()
        for j, t in index.get(e.label, ()):
            if t in ch:
                kept += (j,)
        if not kept:
            return False
        feeds.append(kept)
        j = kept[0]
        if len(kept) > 1 and bounds[j][1] != INF:
            j = next((i for i in kept if bounds[i][1] == INF), j)
        received[j] += e.occur.min
    if all(lo <= x <= hi for x, (lo, hi) in zip(received, bounds)):
        return True
    if len(feeds) == sum(map(len, feeds)):  # every edge kept one atom: the only routing
        return False
    key = (box, tuple(zip([e.occur.min for e in out], feeds)))
    if solved is None:
        solved = {}
    if key not in solved:
        flow = feasible_flow([(e.occur.min, True, f) for e, f in zip(out, feeds)], bounds)
        assert flow is None or _verify_flat_routing(
            out, choices, box.atoms,
            [((i, j), x) for i, (f, row) in enumerate(zip(feeds, flow)) for j, x in zip(f, row)],
        ), "flow extraction produced an invalid routing"
        solved[key] = flow is not None
    return solved[key]


def _verify_flat_routing(out, choices, atoms, flows) -> bool:
    """Independent check of a routing ((edge, atom), units) onto atoms,
    ((label, type), interval) pairs: each edge sends exactly its
    cardinality to atoms of its label and of a type of its target, and
    each atom's total lies in the atom's interval."""
    sent = [0] * len(out)
    received = [0] * len(atoms)
    for (i, j), x in flows:
        (lab, t), _ = atoms[j]
        if x < 0 or (x and (out[i].label != lab or t not in choices[i])):
            return False
        sent[i] += x
        received[j] += x
    return all(x == e.occur.min for x, e in zip(sent, out)) and all(
        x in iv for x, (_, iv) in zip(received, atoms)
    )


def _satisfies_psi(out, choices, e: _rbe.Rbe) -> bool:
    """The Presburger opinion on a check against the rule e: a bounded
    search for a model of the linear-arithmetic formula of signature ∩ e.
    No validation path calls it; tests use it as an independent oracle."""
    from . import presburger as _pa

    expr = _rbe.Intersect((_signature(out, choices), e))
    formula, xvars, nvar = _pa.presburger_of(expr)
    body = _pa.Exists(tuple(xvars.values()), formula) if xvars else formula
    cap = _pa.psi_sound_cap(expr, sum(e.occur.min for e in out))
    return _pa.pa_eval_bounded(body, {nvar: 1}, cap)


def _satisfies_exhaustive(out, choices, delta: _rbe.Rbe, symbols) -> bool:
    """Some bag of L(δ) reads the signature.  The candidates are the Parikh
    vectors v of L(δ) over symbols, which hold its alphabet, inside the box
    of the widths each (label, type) symbol can take from the out-edges,
    with the node's total width as total; each is decided by one routing
    (_routes) onto the box of the symbols as atoms [v_s; v_s], so the k
    copies behind an edge of cardinality k may take different types."""
    takes = [[e.label == lab and t in ch for lab, t in symbols] for e, ch in zip(out, choices)]
    if not all(any(row) for row in takes):
        return False  # an out-edge that no symbol of δ takes
    box = [sum(e.occur.min for e, row in zip(out, takes) if row[j]) for j in range(len(symbols))]
    # Only symbols some edge feeds can count; the rest read as ∅.
    symbols, box = [a for a, b in zip(symbols, box) if b], [b for b in box if b]
    total = sum(e.occur.min for e in out)
    return any(
        _routes(out, choices, Box([(a, Interval(k, k)) for a, k in zip(symbols, v)]))
        for v in _rbe.parikh_vectors(delta, symbols, box, total)
        if sum(v) == total
    )


_MIN = attrgetter("min")


@lru_cache(maxsize=4096)
def _edge(label, k) -> Edge:
    """A memo key's out-edge of label and occurrence [k;k], as satisfies_type
    reads it; built once, not on every memo miss."""
    return Edge(None, label, None, Interval(k, k))


class Typer(Refinement):
    """The maximal-typing refinement for one schema: each node's set is a
    type set, and a node's check reads its out-edges as (label, k, target's
    type set id) for occurrence [k;k], ordered by (label, k), with k cut
    at the label's threshold (Schema.thresholds) on a compressed graph, so
    the memo does not grow with widths that change no check.  A memo miss
    is decided from that out-signature alone, by one satisfies_type call
    per distinct definition among the types that pass a filter (see
    check), each flow verdict kept per routing instance for the Typer's
    life (_routes)."""

    def __init__(self, s: Schema):
        super().__init__(s.types)
        self.s = s
        self._fed: dict = {}  # (label, set id) -> the types such an edge can feed
        self._solved: dict = {}  # routing instance -> its flow verdict

    def lists(self, g: Graph) -> tuple[list, list]:
        """The lists fixpoint takes for g: its edge lists
        (core.index_lists) with each out-edge's k, and each node's
        out-edges sorted.  On a graph that is not simple, k is cut to its
        label's threshold (Schema.thresholds), which changes no check, so
        nodes whose widths differ only above it share one memo entry; the
        cut is worked out once per distinct (label, interval) pair."""
        if g.is_simple:
            ks = repeat(1)
        elif not g.is_compressed:
            raise GraphKindError("validation requires a simple or compressed graph")
        elif self.s.thresholds is None:
            ks = map(_MIN, g.occurs)
        else:
            th = self.s.thresholds
            cut = {(lab, iv): min(iv.min, th.get(lab, 1)) for lab, iv in set(zip(g.labels, g.occurs))}
            ks = map(cut.__getitem__, zip(g.labels, g.occurs))
        out, inc = index_lists(g, ks)
        for o in out:
            o.sort()
        return out, inc

    def typing(self, g: Graph) -> dict:
        """The maximal typing of g."""
        ids = self.fixpoint(*self.lists(g))
        return {n: self.sets[i] for n, i in zip(g.nodes, ids)}

    def feeds(self, label, j) -> frozenset:
        """The types with a symbol (label, u), u in type set j: the only
        types to which an out-edge of that label with k > 0, to a node of
        type set j, can route.  Memoized per (label, j)."""
        fed = self._fed.get((label, j))
        if fed is None:
            index = self.s.by_label.get(label, {})
            fed = self._fed[(label, j)] = frozenset().union(
                *[index[u] for u in self.sets[j] if u in index])
        return fed

    def check(self, sig) -> frozenset:
        """The types a node with out-signature sig satisfies, checked in
        Schema.types order.  A type is dropped unchecked when one of the
        node's out-edges with k > 0 cannot feed it (feeds), or when the
        node has no such edge and the type is not among Schema.edgeless:
        satisfies_type fails then.  satisfies_type reads a type
        only through its definition, so each distinct (hash-consed)
        definition is decided once, for the first type in order that has
        it, and its verdict is shared by the others."""
        out = [_edge(lab, k) for lab, k, _ in sig]
        choices = [self.sets[j] for _, _, j in sig]
        types = self.order
        feeds = [self.feeds(lab, j) for lab, k, j in sig if k]
        if feeds:
            fed = frozenset.intersection(*feeds)
            types = [t for t in types if t in fed]
        else:
            types = self.s.edgeless
        defs = self.s.defs
        verdicts: dict = {}
        kept = []
        for t in types:
            d = defs[t]
            held = verdicts.get(d)
            if held is None:
                held = verdicts[d] = satisfies_type(self.s, t, out, choices, self._solved)
            if held:
                kept.append(t)
        return frozenset(kept)


def max_typing(g: Graph, s: Schema) -> dict:
    """The unique maximal typing: start from all types at every node, drop
    the types a node fails, and re-check a node only after the type set of
    one of its successors shrank, so the work follows the failures.  Nodes
    are first checked successors first (depth-first post-order), so a node
    that reaches no cycle is checked exactly once.  Checks are memoized on
    the out-signature over interned type-set ids: nodes with the same
    out-signature share one check (see Typer)."""
    return Typer(s).typing(g)


def validates(g: Graph, s: Schema) -> bool:
    """Every node gets at least one type in the maximal typing.  The
    fixpoint stops at the first node whose type set is empty: sets only
    shrink, so that node stays untyped."""
    typer = Typer(s)
    ids = typer.fixpoint(*typer.lists(g), stop_untyped=True)
    return ids is not None and all(map(typer.sets.__getitem__, ids))
