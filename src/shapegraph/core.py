"""Occurrence intervals and the unified graph model.

Graphs come in three refinements: simple (all occurrences [1;1], no parallel
same-label edges), shape (basic occurrences only), and compressed (singleton
occurrences, no parallel same-label edges).  A line-oriented text format is
provided for all of them.
"""

from __future__ import annotations

import math
from collections import Counter, deque, namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import attrgetter

from .errors import GraphKindError, ParseError, WorkCapError

INF = math.inf


class Interval(namedtuple("Interval", "min max")):
    """Occurrence interval [min;max] over naturals, max possibly infinite:
    a (min, max) tuple, so the memo keys that hold one hash it in C."""

    __slots__ = ()

    def __new__(cls, min: int, max: int | float):
        if not isinstance(min, int) or min < 0:
            raise ValueError(f"interval lower bound must be a natural, got {min!r}")
        if max != INF and (not isinstance(max, int) or max < 0):
            raise ValueError(f"interval upper bound must be a natural or INF, got {max!r}")
        if min > max:
            raise ValueError(f"empty interval [{min};{max}]")
        return tuple.__new__(cls, (min, max))

    def __contains__(self, k: int) -> bool:
        return self.min <= k <= self.max

    @property
    def basic(self) -> bool:
        """One of 1, ?, + and *, read off the bounds."""
        return self.min <= 1 and self.max in (1, INF)

    @property
    def singleton(self) -> bool:
        return self.min == self.max and self.max != INF

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.min + other.min, self.max + other.max)  # INF + n is INF

    def subset(self, other: "Interval") -> bool:
        return other.min <= self.min and self.max <= other.max

    def __str__(self) -> str:
        shorthand = {ONE: "1", OPT: "?", PLUS: "+", STAR: "*"}.get(self)
        if shorthand is not None:
            return shorthand
        if self.singleton:
            return str(self.min)
        hi = "inf" if self.max == INF else str(self.max)
        return f"[{self.min};{hi}]"


ONE = Interval(1, 1)
OPT = Interval(0, 1)
PLUS = Interval(1, INF)
STAR = Interval(0, INF)
ZERO = Interval(0, 0)


def interval_sum(intervals) -> Interval:
    """Fold of pointwise addition; the empty fold is [0;0]."""
    return sum(intervals, ZERO)


_SHORTHAND = {"1": ONE, "?": OPT, "+": PLUS, "*": STAR}


@lru_cache(maxsize=1024)
def parse_interval_token(tok: str) -> Interval:
    """Parse an occurrence token: 1 ? + * [n;m] [n;inf] or a bare natural k.
    Intervals are immutable, so each distinct token is parsed once and its
    Interval shared."""
    if tok in _SHORTHAND:
        return _SHORTHAND[tok]
    if tok.startswith("[") and tok.endswith("]") and ";" in tok:
        lo_s, hi_s = tok[1:-1].split(";", 1)
        try:
            lo = int(lo_s)
            hi = INF if hi_s in ("inf", "Inf", "INF", "*") else int(hi_s)
            return Interval(lo, hi)
        except ValueError as exc:
            raise ParseError(f"bad interval {tok!r}: {exc}") from None
    try:
        k = int(tok)
    except ValueError:
        raise ParseError(f"bad occurrence token {tok!r}") from None
    return Interval(k, k)


# --- Graphs ----------------------------------------------------------------


@dataclass(slots=True, unsafe_hash=True)
class Edge:
    """An edge source --label--> target with an occurrence interval.

    Slotted and not frozen, so that building one, which parsing does once
    per edge line, is four attribute stores.  Like Graph, an Edge is
    treated as immutable.  It is equal only to an Edge with equal fields,
    never to a plain tuple, and hashes as its fields do."""

    source: str
    label: str
    target: str
    occur: Interval = ONE


KINDS = ("simple", "shape", "compressed", "general")


def _kind_fault(edges, kind: str):
    """The first edge that keeps `edges` from forming a simple, shape or
    compressed graph, with the reason, or None when they form one."""
    triples = set()
    for e in edges:
        if kind == "simple":
            if e.occur != ONE:
                return e, "simple graph requires occurrence 1 on edge"
        elif kind == "shape":
            if not e.occur.basic:
                return e, "shape graph requires a basic occurrence on edge"
        elif not e.occur.singleton:
            return e, "compressed graph requires a singleton occurrence on edge"
        if kind != "shape":
            t = (e.source, e.label, e.target)
            if t in triples:
                return e, "duplicate (source,label,target) edge"
            triples.add(t)
    return None


class Graph:
    """Finite labeled graph with an occurrence interval per edge.

    Nodes keep their insertion order, which the text format and all
    deterministic outputs rely on; index maps each node to its position
    in nodes.  out(n) gives n's out-edges in edge order; their tuples are
    built for every node on the first call, since callers that walk the
    whole graph read index_lists instead.  Instances are treated as
    immutable.  The declared kind is enforced here: GraphKindError names
    the first edge that breaks it (_kind_fault).
    """

    def __init__(self, nodes=(), edges=(), kind: str = "general"):
        if kind not in KINDS:
            raise GraphKindError(f"unknown graph kind {kind!r}")
        self.edges: tuple[Edge, ...] = tuple(edges)
        self.kind = kind
        # One pass over the edges numbers the nodes in order and collects
        # the kind flags; a simple graph is also compressed, since [1;1] is
        # a singleton.
        index = {n: i for i, n in enumerate(dict.fromkeys(nodes))}
        triples = set()
        ones = singletons = basic = True
        for e in self.edges:
            src, tgt, occur = e.source, e.target, e.occur
            if src not in index:
                index[src] = len(index)
            if tgt not in index:
                index[tgt] = len(index)
            triples.add((src, e.label, tgt))
            if occur is ONE:
                continue
            lo, hi = occur.min, occur.max
            if lo != 1 or hi != 1:
                ones = False
                if lo != hi:
                    singletons = False
                if lo > 1 or (hi != 1 and hi != INF):
                    basic = False
        distinct = len(triples) == len(self.edges)
        self._simple = ones and distinct
        self._compressed = singletons and distinct
        self._shape = basic
        if not {"general": True, "simple": self._simple,
                "compressed": self._compressed, "shape": self._shape}[kind]:
            e, why = _kind_fault(self.edges, kind)
            raise GraphKindError(f"{why}: {e.source} {e.label} {e.target} {e.occur}")
        self.index = index
        self.nodes: tuple[str, ...] = tuple(index)

    @cached_property
    def _out(self) -> dict[str, tuple[Edge, ...]]:
        out: dict = {n: [] for n in self.index}
        for e in self.edges:
            out[e.source].append(e)
        return {n: tuple(es) for n, es in out.items()}

    def __contains__(self, n) -> bool:
        return n in self.index

    def out(self, n: str) -> tuple[Edge, ...]:
        return self._out[n]

    @property
    def is_simple(self) -> bool:
        return self._simple

    @property
    def is_shape(self) -> bool:
        return self._shape

    @property
    def is_compressed(self) -> bool:
        return self._compressed

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and set(self.nodes) == set(other.nodes)
            and Counter(self.edges) == Counter(other.edges)
        )

    def __hash__(self):
        return hash((frozenset(self.nodes), frozenset(Counter(self.edges).items())))

    def __repr__(self):
        return f"Graph({len(self.nodes)} nodes, {len(self.edges)} edges, kind={self.kind!r})"


def index_lists(g: Graph, occurrence) -> tuple[list, list]:
    """The lists Refinement.fixpoint takes for g, built in one pass over
    g.edges: out[i] holds the out-edges of node i (g.nodes[i]) as (label,
    occurrence(e.occur), target index), in the order of g.out(g.nodes[i]),
    and inc[i] the source index of each in-edge of node i, both in edge
    order.  occurrence maps an edge's interval to the form the
    caller's out-signatures carry it in."""
    index = g.index
    out: list = [[] for _ in index]
    inc: list = [[] for _ in index]
    for e in g.edges:
        i, j = index[e.source], index[e.target]
        out[i].append((e.label, occurrence(e.occur), j))
        inc[j].append(i)
    return out, inc


def _post_order(out) -> list[int]:
    """The node indexes of out, where out[i] lists node i's out-edges as
    (label, occurrence, target index), in depth-first post-order from each
    unvisited node in index order: every node after the successors it does
    not reach back through a cycle.  Iterative, so deep chains do not hit
    the recursion limit."""
    order = []
    seen = [False] * len(out)
    for root in range(len(out)):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(out[root]))]
        while stack:
            i, edges = stack[-1]
            for _, _, j in edges:
                if not seen[j]:
                    seen[j] = True
                    stack.append((j, iter(out[j])))
                    break
            else:
                stack.pop()
                order.append(i)
    return order


class Refinement:
    """The greatest fixpoint of a node-level refinement, shared by typing
    and simulation.  Every node starts at the top set and its set only
    shrinks.  Sets are interned as ints, 0 for the top set.  A node's check
    reads only its out-edges as (label, occurrence, target's set id), so
    the set it keeps is memoized on that out-signature and shared by every
    node, of every graph refined, with the same one.  A subclass gives
    check, run on a memo miss, which walks top in order (self.order)."""

    def __init__(self, top):
        self.order = tuple(top)
        self.sets = [frozenset(top)]
        self.ids = {self.sets[0]: 0}
        self.memo: dict = {}

    def check(self, sig) -> frozenset:
        """The members of top that a node with out-signature sig keeps,
        decided from sig alone: no node, graph or other state of the
        fixpoint that asks is passed, so one answer serves every node with
        that out-signature."""
        raise NotImplementedError

    def kept(self, sig) -> int:
        """The id of the set kept by a node with out-signature sig, its
        out-edges as (label, occurrence, target's set id), from the memo or
        else from check.  The node's own set is not part of the key: a
        check is monotone in the targets' sets, and within a run sets only
        shrink, so every member the node dropped earlier, against larger
        target sets, fails sig too, and checking sig against all of top
        keeps exactly what checking it against the node's own set would."""
        kept = self.memo.get(sig)
        if kept is None:
            found = self.check(sig)
            kept = self.memo[sig] = self.ids.setdefault(found, len(self.sets))
            if kept == len(self.sets):
                self.sets.append(found)
        return kept

    def fixpoint(self, out, inc, stop_untyped: bool = False):
        """Set ids per node of the graph whose node i has out-edges out[i],
        as (label, occurrence, target index), and in-edges from inc[i].
        Nodes are first checked in depth-first post-order over the out-edges
        (_post_order), so a node's successors are checked before it, except
        along a cycle.  A node is checked again only after the set of one
        of its successors shrank, so the work follows the failures, and a
        node that reaches no cycle, whose successors have settled by then,
        is checked exactly once.  The queue is FIFO, a deque of node indexes
        with a flag per node that keeps it from holding one twice.  The
        greatest fixpoint is unique, so the order changes the work and never
        the sets.  With stop_untyped, None as soon as a node's set is empty
        (sets only shrink, so that is final)."""
        state = [0] * len(out)
        work = deque(_post_order(out))
        queued = [True] * len(out)
        while work:
            i = work.popleft()
            queued[i] = False
            kept = self.kept(tuple([(lab, occ, state[j]) for lab, occ, j in out[i]]))
            if kept != state[i]:
                if stop_untyped and not self.sets[kept]:
                    return None
                state[i] = kept
                for j in inc[i]:
                    if not queued[j]:
                        queued[j] = True
                        work.append(j)
        return state


def parse_graph(text: str) -> Graph:
    """Parse the line-oriented graph format.

    Line 1 declares the kind ("graph simple|shape|compressed|general");
    the matching invariant is enforced.  Edge lines read
    "source label target [occur]", isolated nodes "node name" (two tokens).
    """
    kind = None
    nodes: list[str] = []
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not parts:
            continue
        if kind is None:
            if parts[0] != "graph" or len(parts) != 2:
                raise ParseError("expected header 'graph <kind>'", line=lineno)
            kind = parts[1]
            if kind not in KINDS:
                raise ParseError(f"unknown graph kind {kind!r}", line=lineno)
            continue
        if parts[0] == "node" and len(parts) == 2:
            nodes.append(parts[1])
            continue
        if len(parts) == 3:
            src, lab, tgt = parts
            occur = ONE
        elif len(parts) == 4:
            src, lab, tgt = parts[:3]
            try:
                occur = parse_interval_token(parts[3])
            except ParseError as exc:
                raise ParseError(str(exc), line=lineno) from None
        else:
            raise ParseError("expected 'source label target [occur]'", line=lineno)
        edges.append(Edge(src, lab, tgt, occur))
    if kind is None:
        raise ParseError("empty input: missing 'graph <kind>' header", line=1)
    return Graph(nodes, edges, kind=kind)


def serialize_graph(g: Graph) -> str:
    lines = [f"graph {g.kind}"]
    with_edges = {e.source for e in g.edges} | {e.target for e in g.edges}
    for n in g.nodes:
        if n not in with_edges:
            lines.append(f"node {n}")
    for e in g.edges:
        if e.occur == ONE:
            lines.append(f"{e.source} {e.label} {e.target}")
        else:
            lines.append(f"{e.source} {e.label} {e.target} {e.occur}")
    return "\n".join(lines) + "\n"


# --- Unpacking of compressed graphs ----------------------------------------


DEFAULT_UNPACK_CAP = 10**6


def unpack(f: Graph, max_nodes: int = DEFAULT_UNPACK_CAP):
    """Expand a compressed graph into a simple graph plus a copy map.

    Every copy of a node n has, for each edge (n,a,m,[k;k]), exactly k
    outgoing a-edges to k distinct copies of m.  Each node gets max(1, its
    largest incoming cardinality) copies, so every edge finds enough
    distinct target copies, and the edges into each (label, target) are
    wired round-robin over the target's copies (a copy may target itself;
    a card-1 self-loop is a fixed point).  That many copies suffice: a
    node's types depend only on its out-edges, so every copy of n has n's
    out-edges and n's types, however its in-edges are shared out.  f is
    read through the fixpoint's index lists (index_lists).

    A node with one copy keeps its name; otherwise copy i of n is named
    n.i, with a _j suffix where n.i is already a name (x's copy x.0 and a
    node x.0), so the names are distinct and the graph's text parses back.

    Returns (simple_graph, copy_map) where copy_map sends each new node
    to the original it copies.  WorkCapError when that takes more than
    max_nodes nodes.
    """
    if not f.is_compressed:
        raise GraphKindError("unpack requires a compressed graph")

    nodes = f.nodes
    out, _ = index_lists(f, attrgetter("min"))
    copies = [1] * len(nodes)
    for o in out:
        for _, c, j in o:
            if c > copies[j]:
                copies[j] = c
    total = sum(copies)
    if total > max_nodes:
        raise WorkCapError(f"unpacking needs {total} nodes, more than {max_nodes}")

    taken = set(nodes)

    def fresh(name):
        """name, or name_j for the least j making it a name not yet taken."""
        free, j = name, 0
        while free in taken:
            j += 1
            free = f"{name}_{j}"
        taken.add(free)
        return free

    names = [[n] if k == 1 else [fresh(f"{n}.{i}") for i in range(k)] for n, k in zip(nodes, copies)]
    new_nodes = [m for ms in names for m in ms]
    copy_map = {m: n for n, ms in zip(nodes, names) for m in ms}
    new_edges = []
    cursor: dict[tuple, int] = {}
    for ms, o in zip(names, out):
        for src in ms:
            for lab, k, j in o:
                targets = names[j]
                c = cursor.get((lab, j), 0)
                for x in range(k):
                    new_edges.append(Edge(src, lab, targets[(c + x) % len(targets)]))
                cursor[(lab, j)] = (c + k) % len(targets)
    return Graph(new_nodes, new_edges, kind="simple"), copy_map
