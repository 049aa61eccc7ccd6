"""Shared fixtures: the worked examples used across the suite, random
generators for schemas, graphs, and routing instances, a brute-force bag
matcher that test oracles use in place of the package's, and brute-force
CNF satisfiability and DNF tautology that the hardness reductions are
checked against, sweep-until-stable oracles for the *-closure and the
characterizing cohort sizes, a probe for what a call leaves in reference
cycles, and counts of the lines a call runs and of the nodes the
fixpoints visit."""

from __future__ import annotations

import gc
import os
import random
import sys
import types
from collections import Counter
from itertools import combinations_with_replacement, product
from unittest import mock

import pytest

import shapegraph
from shapegraph import (
    CnfFormula,
    Edge,
    Graph,
    INF,
    Interval,
    ONE,
    OPT,
    PLUS,
    STAR,
    Schema,
    SchemaClass,
    classify,
    parse_schema,
)
from shapegraph.core import Refinement
from shapegraph.rbe import Concat, Disj, Empty, Epsilon, Intersect, Repeat, Sym, EMPTY, EPSILON, concat_all
from shapegraph.schema import Box
from shapegraph.validation import _routes


# --- Reference cycles --------------------------------------------------------

PACKAGE_DIR = os.path.join(shapegraph.__path__[0], "")


def package_garbage(call, exempt=()):
    """What call() leaves of the package in reference cycles: the instances
    of its classes and the frames of its functions (except frames running a
    code object in exempt) that a full collection finds unreachable after
    the call, with what it returns dropped.  Each is named by its type or,
    for a frame, by its function."""
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        call()
        gc.collect()
    finally:
        gc.set_debug(0)
    found = []
    for o in gc.garbage:
        if isinstance(o, types.FrameType):
            if o.f_code.co_filename.startswith(PACKAGE_DIR) and o.f_code not in exempt:
                found.append(f"frame {o.f_code.co_name}")
        elif type(o).__module__.partition(".")[0] == "shapegraph":
            found.append(type(o).__qualname__)
    gc.garbage.clear()
    return sorted(found)


# --- Worked examples ---------------------------------------------------------

BUG_SCHEMA_TEXT = """\
schema
Bug -> descr::Literal, reportedBy::User, reproducedBy::Employee?, related::Bug*
User -> name::Literal, email::Literal?
Employee -> name::Literal, email::Literal
Literal -> eps
"""

BUG_VARIANT_TEXT = """\
schema
Bug1 -> descr::Literal, reportedBy::User1, reproducedBy::Employee?, related::Bug1*, related::Bug2*
Bug2 -> descr::Literal, reportedBy::User2, reproducedBy::Employee?, related::Bug1*, related::Bug2*
User1 -> name::Literal
User2 -> name::Literal, email::Literal
Employee -> name::Literal, email::Literal
Literal -> eps
"""

BUG_GRAPH_TEXT = """\
graph simple
bug1 descr lit1
bug1 reportedBy user1
bug1 reproducedBy emp1
user1 name lit1
emp1 name lit1
emp1 email lit1
"""


@pytest.fixture
def bug_schema():
    return parse_schema(BUG_SCHEMA_TEXT)


@pytest.fixture
def bug_variant_schema():
    return parse_schema(BUG_VARIANT_TEXT)


def chain_graph():
    """Three-node simple graph: a-edge, b-self-loop, c-edge."""
    return Graph(
        ("n0", "n1", "n2"),
        [Edge("n0", "a", "n1"), Edge("n1", "b", "n1"), Edge("n1", "c", "n2")],
        kind="simple",
    )


CHAIN_SCHEMA_TEXT = """\
schema
t0 -> a::t1
t1 -> b::t2, c::t3
t2 -> b::t2?, c::t3
t3 -> eps
"""


def chain_schema():
    return parse_schema(CHAIN_SCHEMA_TEXT)


def star_chain_pair():
    """A two-edge *-chain G and an equivalent-language graph H that G does
    not embed in (the case-enumerating unfolding of b*)."""
    g = Graph(
        ("u0", "u1", "u2"),
        [Edge("u0", "a", "u1", STAR), Edge("u1", "b", "u2", STAR)],
        kind="shape",
    )
    h = Graph(
        ("v0", "v1", "v2", "v3", "v4", "v5", "v6"),
        [
            Edge("v0", "a", "v1", STAR),
            Edge("v0", "a", "v2", STAR),
            Edge("v2", "b", "v3", ONE),
            Edge("v0", "a", "v4", STAR),
            Edge("v4", "b", "v5", ONE),
            Edge("v4", "b", "v6", STAR),
        ],
        kind="shape",
    )
    return g, h


def deep_chain_text(n, star=True):
    """Schema text of a chain of n ?-using types listed deepest first:
    r -> a::t1*, then tn, t(n-1), ..., t1, each t(i) -> a::t(i+1), b::o?,
    then o -> eps.  Without star, r -> a::t1, and no reference closes."""
    rules = [f"r -> a::t1{'*' if star else ''}", f"t{n} -> b::o?"]
    rules += [f"t{i} -> a::t{i + 1}, b::o?" for i in range(n - 1, 0, -1)]
    rules.append("o -> eps")
    return "".join(rule + "\n" for rule in rules)


def bug_chain_graph(n=200, ring=False):
    """n bugs linked by related-edges, the last one without a reporter: under
    the bug schema the failure travels back to bug0 one edge at a time.
    With ring, the last bug's related-edge points back to bug0, so every
    bug is on one cycle."""
    edges = [Edge("user", "name", "lit")]
    for i in range(n):
        b = f"bug{i}"
        edges.append(Edge(b, "descr", "lit"))
        if i < n - 1:
            edges.append(Edge(b, "reportedBy", "user"))
            edges.append(Edge(b, "related", f"bug{i + 1}"))
        elif ring:
            edges.append(Edge(b, "related", "bug0"))
    return Graph((), edges, kind="simple")


def users_graph(n=200):
    """n users, each with a name-edge to the one literal: n + 1 nodes and
    only two out-signatures, whatever n."""
    return Graph((), [Edge(f"user{i}", "name", "lit") for i in range(n)], kind="simple")


def with_twins(g: Graph, rng: random.Random) -> Graph:
    """g plus a twin of each node with the same out-edges as the node; each
    edge goes to its target or to the target's twin, at random, so nodes
    with equal out-signatures recur."""
    twin = {n: f"{n}'" for n in g.nodes}
    edges = []
    for e in g.edges:
        target = rng.choice((e.target, twin[e.target]))
        for source in (e.source, twin[e.source]):
            edges.append(Edge(source, e.label, target, e.occur))
    return Graph(g.nodes + tuple(twin.values()), edges, kind=g.kind)


# --- Brute-force bag matching -------------------------------------------------


def brute_matches(e, w):
    """w ∈ L(e) by structural recursion with explicit splitting of w: an
    oracle for bag matching that shares no code with the package's.
    Answers are memoized per call on (sub-expression, sub-bag)."""
    mentioned, stack = set(), [e]
    while stack:
        x = stack.pop()
        if isinstance(x, Sym):
            mentioned.add(x.symbol)
        elif isinstance(x, Repeat):
            stack.append(x.body)
        else:
            stack.extend(getattr(x, "parts", ()))
    if any(a not in mentioned for a in w):
        return False
    memo = {}

    def matches(e, w):
        key = (id(e), tuple(sorted(w.items(), key=str)))
        if key not in memo:
            memo[key] = decide(e, w)
        return memo[key]

    def decide(e, w):
        size = sum(w.values())
        if isinstance(e, Epsilon):
            return size == 0
        if isinstance(e, Empty):
            return False
        if isinstance(e, Sym):
            return size == 1 and w.get(e.symbol, 0) == 1
        if isinstance(e, Disj):
            return any(matches(p, w) for p in e.parts)
        if isinstance(e, Intersect):
            return all(matches(p, w) for p in e.parts)
        if isinstance(e, Concat):
            return concat_matches(e.parts, w)
        if isinstance(e, Repeat):
            # A split into more than max(min, |w|) parts has an empty part
            # that can be dropped without going below min.
            top = min(e.interval.max, max(e.interval.min, size))
            return any(splits_into(e.body, w, k) for k in range(e.interval.min, int(top) + 1))
        raise TypeError(e)

    def concat_matches(parts, w):
        # w is the sum of one bag of each part, split off the first part.
        if len(parts) == 1:
            return matches(parts[0], w)
        return any(
            matches(parts[0], part) and concat_matches(parts[1:], w - part)
            for part in sub_bags(w)
        )

    def splits_into(body, w, k):
        # w is the sum of k bags of L(body); parts are taken nonempty for as
        # long as w is, so a split is tried in one order up to its empty parts.
        if k == 0:
            return sum(w.values()) == 0
        if k == 1:
            return matches(body, w)
        return any(
            matches(body, part) and splits_into(body, w - part, k - 1)
            for part in sub_bags(w)
            if sum(part.values()) or not sum(w.values())
        )

    def sub_bags(w):
        symbols = sorted(w, key=str)
        for split in product(*[range(w[s] + 1) for s in symbols]):
            yield Counter({s: c for s, c in zip(symbols, split) if c})

    return matches(e, w)


def routes_bag(atoms, w):
    """w against the flat rule of (symbol, interval) atoms, by the decision
    on a box (validation._routes): w is a node with one [k;k] out-edge per
    symbol of positive count k, labelled by it, to a node typed u, and the
    atoms become the box of ((symbol, u), interval)."""
    out = [Edge(None, a, None, Interval(k, k)) for a, k in w.items() if k]
    return _routes(out, [frozenset({"u"})] * len(out), Box([((a, "u"), iv) for a, iv in atoms]))


# --- Brute-force propositional oracles ---------------------------------------


def cnf_satisfiable(phi: CnfFormula) -> bool:
    """Brute force over all valuations (fixture scale only)."""
    for bits in product([False, True], repeat=phi.num_vars):
        if all(any((lit > 0) == bits[abs(lit) - 1] for lit in cl) for cl in phi.clauses):
            return True
    return len(phi.clauses) == 0


def dnf_tautology(num_vars: int, clauses) -> bool:
    """Brute force: every valuation satisfies some conjunctive clause."""
    for bits in product([False, True], repeat=num_vars):
        if not any(
            all((lit > 0) == bits[abs(lit) - 1] for lit in cl) for cl in clauses
        ):
            return False
    return True


# --- Reference fixpoints -----------------------------------------------------


def reference_typing(g, s):
    """The maximal typing round by round, from the definitions: n keeps t
    while one choice of a type for each of the k copies behind an out-edge
    of cardinality k gives a bag in L(δ(t)); every round reads only the
    previous round's typing."""

    def holds(typing, n, t):
        edges = [e for e in g.out(n) if e.occur.min > 0]
        per_edge = [combinations_with_replacement(sorted(typing[e.target]), e.occur.min) for e in edges]
        for combo in product(*per_edge):
            w = Counter()
            for e, types in zip(edges, combo):
                for u in types:
                    w[(e.label, u)] += 1
            if brute_matches(s.defs[t], w):
                return True
        return False

    typing = {n: frozenset(s.types) for n in g.nodes}
    while True:
        nxt = {n: frozenset(t for t in typing[n] if holds(typing, n, t)) for n in g.nodes}
        if nxt == typing:
            return typing
        typing = nxt


def sweep_star_closed(g) -> dict:
    """star_closed_references by its definition: sweep every edge until a
    sweep closes none; an edge closes when it is a *-edge, or when its
    source is referenced and every reference to the source is closed."""
    refs_to = {n: [i for i, e in enumerate(g.edges) if e.target == n] for n in g.nodes}
    closed = [e.occur == STAR for e in g.edges]
    changed = True
    while changed:
        changed = False
        for i, e in enumerate(g.edges):
            if not closed[i] and refs_to[e.source] and all(closed[j] for j in refs_to[e.source]):
                closed[i] = changed = True
    return dict(enumerate(closed))


def sweep_cohort_sizes(g) -> Counter:
    """The characterizing graph's cohort size per type, by its definition:
    a type starts covered when it has a ?-edge, with one copy plus one per
    ?-edge, and at least two when a *-edge points at it; every sweep over
    the edges lets each closed non-* reference to a covered type cover its
    source and raise the source's size to the target's (plus one for a
    ?-edge), until a sweep changes nothing."""
    closed = sweep_star_closed(g)
    opts = Counter(e.source for e in g.edges if e.occur == OPT)
    covered = set(opts)
    size = Counter({t: max(1 + opts[t], 2 if any(e.occur == STAR and e.target == t for e in g.edges) else 1)
                    for t in g.nodes})
    changed = True
    while changed:
        changed = False
        for i, e in enumerate(g.edges):
            need = size[e.target] + (e.occur == OPT)
            if closed[i] and e.occur != STAR and e.target in covered and (
                    e.source not in covered or size[e.source] < need):
                covered.add(e.source)
                size[e.source] = max(size[e.source], need)
                changed = True
    return size


def lines_run(call, modules, cap):
    """call()'s result, and how many lines it ran in the source files of
    modules, counted by a trace function: a count of work that does not
    read the clock.  Fails at the line past cap, so a run that would be
    far over the cap stops there."""
    files = {m.__file__ for m in modules}
    count = [0]

    def local(frame, event, arg):
        if event == "line":
            count[0] += 1
            if count[0] > cap:
                raise AssertionError(f"ran more than {cap} lines")
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code.co_filename in files else None)
    try:
        result = call()
    finally:
        sys.settrace(None)
    return result, count[0]


def visits(run) -> int:
    """The number of nodes the fixpoints take off their queues while run
    runs: each asks Refinement.kept once per node it takes."""
    with mock.patch.object(Refinement, "kept", autospec=True, side_effect=Refinement.kept) as kept:
        run()
    return kept.call_count


# --- Random generators -------------------------------------------------------

BASIC = [ONE, OPT, PLUS, STAR]


def random_simple_graph(rng: random.Random, max_nodes=5, labels=("a", "b")):
    n = rng.randint(1, max_nodes)
    nodes = [f"g{i}" for i in range(n)]
    edges = []
    for s in nodes:
        for t in nodes:
            for lab in labels:
                if rng.random() < 0.3:
                    edges.append(Edge(s, lab, t))
    return Graph(nodes, edges, kind="simple")


def random_shape_graph(rng: random.Random, max_nodes=5, labels=("a", "b")):
    n = rng.randint(1, max_nodes)
    nodes = [f"h{i}" for i in range(n)]
    edges = []
    for s in nodes:
        for t in nodes:
            for lab in labels:
                if rng.random() < 0.3:
                    edges.append(Edge(s, lab, t, rng.choice(BASIC)))
    return Graph(nodes, edges, kind="shape")


def random_compressed_graph(rng: random.Random, max_nodes=4, labels=("a", "b"), max_card=3, min_card=1):
    n = rng.randint(1, max_nodes)
    nodes = [f"c{i}" for i in range(n)]
    edges = []
    for s in nodes:
        for t in nodes:
            for lab in labels:
                if rng.random() < 0.3:
                    c = rng.randint(min_card, max_card)
                    edges.append(Edge(s, lab, t, Interval(c, c)))
    return Graph(nodes, edges, kind="compressed")


def random_rbe0_schema(rng: random.Random, max_types=4, labels=("a", "b"), max_edges=3):
    m = rng.randint(1, max_types)
    types = [f"t{i}" for i in range(m)]
    defs = {}
    for t in types:
        parts = []
        for lab in rng.sample(labels, rng.randint(0, min(max_edges, len(labels)))):
            sym = Sym((lab, rng.choice(types)))
            iv = rng.choice(BASIC)
            parts.append(sym if iv == ONE else Repeat(sym, iv))
        defs[t] = concat_all(parts)
    return Schema(defs)


def random_minus_schema(rng: random.Random, max_types=6, labels=("a", "b", "c"), max_edges=3):
    """Random schema repaired into the deterministic ?-closed class: start
    from distinct-label rules with 1/?/* occurrences, then promote
    occurrences to * until classification succeeds (each repair step strictly
    grows the set of *-edges, so it terminates)."""
    from shapegraph.schema import star_closed_references, to_shape_graph

    m = rng.randint(1, max_types)
    types = [f"t{i}" for i in range(m)]
    edge_list = []  # mutable [src, label, tgt, interval]
    for t in types:
        for lab in rng.sample(labels, rng.randint(0, min(max_edges, len(labels)))):
            occ = rng.choice([ONE, OPT, OPT, STAR, STAR])
            edge_list.append([t, lab, rng.choice(types), occ])

    def build():
        defs = {}
        for t in types:
            parts = []
            for src, lab, tgt, occ in edge_list:
                if src == t:
                    sym = Sym((lab, tgt))
                    parts.append(sym if occ == ONE else Repeat(sym, occ))
            defs[t] = concat_all(parts)
        return Schema(defs)

    for _ in range(len(edge_list) * 4 + 4):
        s = build()
        if classify(s)[0] == SchemaClass.DetShEx0Minus:
            return s
        g = to_shape_graph(s)
        closed = star_closed_references(g)
        refs_to = {t: [] for t in types}
        for i, e in enumerate(g.edges):
            refs_to[e.target].append(i)
        for t in types:
            if not any(e.occur == OPT for e in g.out(t)):
                continue
            if not refs_to[t]:
                # Un-referenced ?-user: its ?-edges become *.
                for row in edge_list:
                    if row[0] == t and row[3] == OPT:
                        row[3] = STAR
            else:
                for i in refs_to[t]:
                    if not closed[i]:
                        e = g.edges[i]
                        for row in edge_list:
                            if (row[0], row[1], row[2]) == (e.source, e.label, e.target):
                                row[3] = STAR
    s = build()
    assert classify(s)[0] == SchemaClass.DetShEx0Minus
    return s


def random_flat_rbe(rng: random.Random, symbols=("a", "b", "c"), depth=3):
    """Random expression whose Repeat bodies are repeat-free (the fragment on
    which the linear-arithmetic encoding is exact)."""

    def flat(d):
        if d == 0 or rng.random() < 0.4:
            return Sym(rng.choice(symbols))
        op = rng.choice([Disj, Concat])
        return op((flat(d - 1), flat(d - 1)))

    def expr(d):
        r = rng.random()
        if d == 0 or r < 0.3:
            return Sym(rng.choice(symbols))
        if r < 0.5:
            lo = rng.randint(0, 2)
            hi = rng.choice([lo, lo + 1, lo + 2, INF])
            return Repeat(flat(min(d - 1, 2)), Interval(lo, hi))
        if r < 0.55:
            return EPSILON
        op = rng.choice([Disj, Concat])
        return op((expr(d - 1), expr(d - 1)))

    return expr(depth)


def random_rbe(rng: random.Random, symbols=("a", "b", "c"), depth=4):
    """Random expression over every node kind: ε, ∅, symbols, |, , and &
    of two or three parts, and repeats, nested ones included, with
    intervals from [0;0] to [3;inf]."""
    r = rng.random()
    if depth == 0 or r < 0.25:
        return rng.choice([Sym(rng.choice(symbols))] * 6 + [EPSILON, EMPTY])
    if r < 0.55:
        lo = rng.randint(0, 3)
        hi = rng.choice([lo, lo, lo + 1, lo + 2, INF])
        return Repeat(random_rbe(rng, symbols, depth - 1), Interval(lo, hi))
    op = rng.choice([Disj, Concat, Intersect])
    return op(tuple(random_rbe(rng, symbols, depth - 1) for _ in range(rng.randint(2, 3))))


def random_bag(rng: random.Random, symbols=("a", "b", "c"), max_size=5):
    size = rng.randint(0, max_size)
    return Counter(rng.choice(symbols) for _ in range(size))
