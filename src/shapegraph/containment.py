"""Schema containment: embedding-based decision for the deterministic
?-closed class, characterizing graphs, kind computation and fusing, and a
bounded exhaustive counter-example search for everything else.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, combinations_with_replacement, groupby, permutations, product
from operator import itemgetter

from .core import ONE, OPT, STAR, Edge, Graph, Interval
from .errors import ClassPreconditionError
from . import rbe as _rbe
from . import validation as _val
from .embedding import embeds
from .schema import Schema, SchemaClass, _references, classify, star_closed_references


# --- Verdicts ---------------------------------------------------------------


@dataclass(frozen=True)
class Contained:
    pass


@dataclass(frozen=True)
class NotContained:
    witness: Graph


@dataclass(frozen=True)
class Unknown:
    reason: str


@dataclass(frozen=True)
class Budget:
    max_nodes: int = 6
    max_card: int = 3
    timeout: float | None = 60.0

    def __post_init__(self):
        if self.max_nodes < 1 or self.max_card < 1:
            raise ValueError("budget requires max_nodes >= 1 and max_card >= 1")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("budget timeout must be positive")


# --- Kinds and fusing --------------------------------------------------------


@dataclass(frozen=True)
class Kind:
    h_types: frozenset
    k_types: frozenset


def kinds(g: Graph, h: Schema, k: Schema) -> dict:
    """Per node, the pair of maximal type sets against the two schemas."""
    th, tk = _val.max_typing(g, h), _val.max_typing(g, k)
    return {n: Kind(th[n], tk[n]) for n in g.nodes}


def fuse_to_compressed(g: Graph, h: Schema, k: Schema) -> Graph:
    """Merge all nodes of equal kind into the first such node (input order);
    the representative's out-edges, grouped by label and target kind, become
    edges with singleton cardinalities."""
    if not g.is_simple:
        raise ClassPreconditionError("fusing requires a simple graph")
    km = kinds(g, h, k)
    rep: dict = {}
    for n in g.nodes:
        rep.setdefault(km[n], n)
    edges = []
    for r in rep.values():
        grouped = Counter((e.label, km[e.target]) for e in g.out(r))
        for (label, target_kind), c in grouped.items():
            edges.append(Edge(r, label, rep[target_kind], Interval(c, c)))
    return Graph(tuple(rep.values()), edges, kind="compressed")


# --- Characterizing graphs ---------------------------------------------------


def characterizing_graph(h: Schema) -> Graph:
    """A polynomial-size simple graph G ∈ L(h) such that, for schemas k in
    the same class, G embeds in k's shape graph iff h's does.

    Construction (interpreting the outline; the precise original layout is
    not available):
      - each type t gets a cohort of copies: one full copy plus one variant
        per ?-edge omitting exactly that edge, and at least two copies when t
        is the target of a *-edge;
      - *-edges go from every source copy to every target copy, so any one
        source copy forces a * interval on the partner and co-relates the
        whole target cohort;
      - types that need a co-related cohort (?-using types, and recursively
        the sources of closed non-* references to such types) are covered:
        each closed non-* reference distributes its edges round-robin over
        the target cohort, which requires the source cohort to be at least
        as large (one larger when the covering edge is itself a ?-edge);
      - all other references point at the target's full copy, so full copies
        always link to full copies.

    The least-fixpoint reading of *-closure guarantees covering references
    never form a cycle, so one worklist over the references settles each
    cohort size once.  Copy i of type t is named t.i, the name unpack gives
    a copy where nothing collides: type names are identifiers, with no dot,
    so no copy's name is a type's or another copy's, and the graph's text
    parses back.
    """
    return _characterizing_graph(_minus_shape_graph(h, "input"))


def _characterizing_graph(g: Graph) -> Graph:
    closed = star_closed_references(g)
    refs = _references(g)
    out_edges = {t: [] for t in g.nodes}  # (index in g.edges, edge) per source
    for i, e in enumerate(g.edges):
        out_edges[e.source].append((i, e))

    opt_edges = {t: [i for i, e in out_edges[t] if e.occur == OPT] for t in g.nodes}
    # Copy c of a type (1 <= c) omits the type's c-th ?-edge.
    omitted_by = {i: c for t in g.nodes for c, i in enumerate(opt_edges[t], start=1)}

    # Types whose whole cohort must end up co-related to one partner node,
    # and each cohort's size: a closed non-* reference to a covered type
    # covers its source, whose cohort must be at least as large.  These
    # references form no cycle, so each type is examined once, after the
    # targets of all of its own, and its size is then final.
    covered = {t for t in g.nodes if opt_edges[t]}
    starred = {e.target for e in g.edges if e.occur == STAR}
    size = {t: max(1 + len(opt_edges[t]), 2 if t in starred else 1) for t in g.nodes}
    covering = [closed[i] and e.occur != STAR for i, e in enumerate(g.edges)]
    pending = Counter(e.source for i, e in enumerate(g.edges) if covering[i])
    ready = [t for t in g.nodes if not pending[t]]
    while ready:
        t = ready.pop()
        for i in refs[t]:
            if covering[i]:
                e = g.edges[i]
                if t in covered:
                    covered.add(e.source)
                    size[e.source] = max(size[e.source], size[t] + (1 if e.occur == OPT else 0))
                pending[e.source] -= 1
                if not pending[e.source]:
                    ready.append(e.source)

    nodes = [f"{t}.{i}" for t in g.nodes for i in range(size[t])]
    edges = []
    for t in g.nodes:
        for i in range(size[t]):
            for index, e in out_edges[t]:
                if e.occur == STAR:
                    for j in range(size[e.target]):
                        edges.append(Edge(f"{t}.{i}", e.label, f"{e.target}.{j}"))
                    continue
                if omitted_by.get(index) == i:
                    continue
                j = 0
                if e.target in covered and closed[index]:
                    # Rank of this copy among the cohort copies emitting e
                    # (the copies before it but the one omitting e).
                    j = (i - (omitted_by.get(index, i) < i)) % size[e.target]
                edges.append(Edge(f"{t}.{i}", e.label, f"{e.target}.{j}"))
    return Graph(nodes, edges, kind="simple")


# --- Bounded counter-example search ------------------------------------------


def _tuples(total, parts, cap):
    """Every tuple of `parts` naturals at most cap that sum to total, in
    lexicographic order.  Iterative: raise the rightmost entry that has
    some sum after it to take, then pack that rest as far right as it goes."""
    c, i, rest = [0] * parts, 0, total
    while True:
        for j in reversed(range(i, parts)):
            c[j] = min(cap, rest)
            rest -= c[j]
        if rest:
            return
        yield tuple(c)
        for i in reversed(range(parts)):
            if rest and c[i] < cap:
                break
            rest += c[i]
        else:
            return
        c[i] += 1
        rest -= 1
        i += 1


def _bags_matching(s: Schema, t, symbols, caps):
    """All bags w ∈ L(δ(t)) over symbols, the alphabet of δ(t) sorted by
    str, with the count of symbols[i] at most caps[i], in lexicographic
    order: the product of each box of δ(t) (Schema.boxes) cut at caps, one
    range per symbol, and the Parikh vectors inside caps of each part with
    no box form."""
    boxes, rest = s.boxes[t]
    bags = set()
    for box in (_rbe.sums(b.atoms) for b in boxes):
        bags.update(product(*[range(box[a].min, min(box[a].max, cap) + 1) if a in box else (0,)
                              for a, cap in zip(symbols, caps)]))
    for part in rest:
        bags |= _rbe.parikh_vectors(part, symbols, caps)
    return sorted(bags)


def _candidate_graph(names, out):
    edges = [Edge(names[a], lab, names[b], Interval(c, c)) for a, o in enumerate(out) for lab, c, b in o]
    return Graph(names, edges, kind="simple" if all(e.occur == ONE for e in edges) else "compressed")


def canonical_code(g: Graph):
    """Isomorphism-invariant code: color refinement, then the minimum edge
    list over node orders consistent with the refined cells."""
    nodes, index = range(len(g.nodes)), g.index
    edges = [(index[e.source], e.label, index[e.target], (e.occur.min, e.occur.max)) for e in g.edges]
    colors = [(tuple(sorted((lab, card) for a, lab, b, card in edges if a == i)),
               tuple(sorted((lab, card) for a, lab, b, card in edges if b == i))) for i in nodes]
    for _ in nodes:
        nxt = [(colors[i],
                tuple(sorted((lab, card, colors[b]) for a, lab, b, card in edges if a == i)),
                tuple(sorted((lab, card, colors[a]) for a, lab, b, card in edges if b == i))) for i in nodes]
        stable = len(set(nxt)) == len(set(colors))
        colors = nxt
        if stable:
            break
    cells: dict = {}
    for i in nodes:
        cells.setdefault(colors[i], []).append(i)

    def code(parts):
        order = [i for part in parts for i in part]
        pos = {i: p for p, i in enumerate(order)}
        return tuple(sorted((pos[a], lab, pos[b], card) for a, lab, b, card in edges))

    return (len(nodes), min(map(code, product(*[permutations(cells[c]) for c in sorted(cells, key=repr)]))))


def _rootable(refs, targets_of) -> bool:
    """Whether one node may reach all nodes targets_of[t] of each type t,
    refs[t] the types of t's symbols.  A type that no other one refers to
    is reached only from its own nodes, so it holds the root, and is
    nothing but the root when it does not refer to itself either."""
    roots = [u for u in targets_of if not any(u in refs[t] for t in targets_of if t != u)]
    return not roots or len(roots) == 1 and (len(targets_of[roots[0]]) == 1 or roots[0] in refs[roots[0]])


def _compositions(h: Schema, n_nodes: int, max_card: int, cache: dict, timed_out=lambda: False, caps={}):
    """Each composition of n_nodes nodes over h's types (node counts per
    type, in _tuples order) whose types all have an out-spec, as (index in
    that order, targets_of, specs).  Nodes are numbered by type in order and
    targets_of maps each type with nodes to its range of node indices, in
    h.types order.  specs[t] lists the out-specs a node of type t can take:
    an out-bag from L(δ(t)) realized as edges with cardinalities up to
    max_card, or caps[label] below it, each a tuple of (label, k, target
    index) sorted on (label, k), as core.Refinement.fixpoint takes them.
    cache keeps each spec list under ("specs", type, the node range of each
    symbol's target type), all it depends on, for calls with the same caps,
    and _bags_matching under ("bags", type, its caps).  Stops between two
    specs once timed_out(); a list cut short is not cached.  A composition
    that _rootable rejects is skipped; the next keeps its own index."""
    types = h.types
    refs = {t: {u for _, u in h.symbols[t]} for t in types}
    none = range(0)
    edges: dict = {}  # one copy of each edge tuple, shared by the specs that hold it
    for index, counts in enumerate(_tuples(n_nodes, len(types), n_nodes)):
        # Only types with nodes count.
        targets_of = {t: range(end - c, end)
                      for t, c, end in zip(types, counts, accumulate(counts)) if c}
        if not _rootable(refs, targets_of):
            continue
        specs = {}
        for t in targets_of:
            symbols = h.symbols[t]
            ranges = tuple([targets_of.get(u, none) for _, u in symbols])
            spec_list = cache.get(("specs", t, ranges))
            if spec_list is None:
                cap = [min(max_card, caps.get(lab, max_card)) for lab, _ in symbols]
                bag_caps = tuple(c * len(r) for c, r in zip(cap, ranges))
                bags = cache.get(("bags", t, bag_caps))
                if bags is None:
                    bags = cache[("bags", t, bag_caps)] = _bags_matching(h, t, symbols, bag_caps)
                spec_list = []
                for v in bags:
                    used = [(a, c, m) for a, c, m in zip(symbols, v, cap) if c]
                    dists = [_tuples(c, len(targets_of[a[1]]), m) for a, c, m in used]
                    for combo in product(*dists):
                        if timed_out():
                            return
                        spec = sorted((lab, card, targets_of[tgt_t][slot])
                                      for ((lab, tgt_t), _, _), dist in zip(used, combo)
                                      for slot, card in enumerate(dist) if card)
                        spec_list.append(tuple([edges.setdefault(e, e) for e in spec]))
                cache[("specs", t, ranges)] = spec_list
            specs[t] = spec_list
            if not spec_list:
                break
        else:
            yield index, targets_of, specs


def _levels(targets_of, specs):
    """The types with nodes as levels, ordered so that every spec of a
    level's type targets only earlier levels, each as (type, watch): watch
    lists the nodes of the earlier levels whose types this level or a later
    one targets, so the walk below a level reads no other earlier node.
    None when some of the types reference each other in a cycle (a type
    referencing itself included)."""
    type_of = {b: t for t, r in targets_of.items() for b in r}
    deps = {t: {type_of[b] for spec in specs[t] for _, _, b in spec} for t in targets_of}
    order, placed = [], set()
    while len(order) < len(deps):
        ready = [t for t in deps if t not in placed and deps[t] <= placed]
        if not ready:
            return None
        order += ready
        placed.update(ready)
    levels, later = [], set()
    for depth in reversed(range(len(order))):
        later |= deps[order[depth]]
        watch = tuple(b for u in order[:depth] if u in later for b in targets_of[u])
        levels.append((order[depth], watch))
    return levels[::-1]


def _hits(typer, targets_of, specs, timed_out):
    """(picks, out) for every candidate of one composition that leaves a
    node untyped by typer: picks holds each type's pick of specs in
    targets_of order, and out is the candidate's out-lists.  One
    depth-first walk over the levels (_levels), with a stack of each
    level's picks drawn lazily; stops early once timed_out().  A level is
    typed on entry, each spec once against its targets' type sets, which
    the earlier levels have settled, so this is the greatest fixpoint.
    Below a pick that leaves a node untyped nothing is typed, and every
    candidate is a hit; otherwise the last level draws only the picks that
    hold an untyped spec.  A typed level's subtree depends only on its
    state, its depth and the set ids of its watched nodes: a state whose
    subtree yielded no hit is recorded for the composition, and not
    entered again.  When the types reference each other in a cycle there
    are no levels and no states: every candidate is typed by its own
    fixpoint (core.Refinement.fixpoint), with in-lists built for it."""
    sets = typer.sets
    levels = _levels(targets_of, specs)
    cyclic = levels is None
    if cyclic:
        levels = [(t, ()) for t in targets_of]
    ids = [0] * sum(map(len, targets_of.values()))  # each node's type-set id
    picked = {}
    dead = set()  # typed states whose subtree yielded no hit

    def enter(depth, state):
        # Level depth's frame: its type, its kept id per spec and the set
        # of specs left untyped (both None below an untyped node: then
        # every leaf below is a hit), its picks, its state (None when
        # untyped) and whether a hit was yielded below it.
        t = levels[depth][0]
        draws = combinations_with_replacement(range(len(specs[t])), len(targets_of[t]))
        if state is None:
            return [t, None, None, draws, None, False]
        row = [typer.kept(tuple([(lab, c, ids[b]) for lab, c, b in spec])) for spec in specs[t]]
        bad = {s for s, i in enumerate(row) if not sets[i]}
        if depth == len(levels) - 1:
            draws = (p for p in draws if not bad.isdisjoint(p)) if bad else ()
        return [t, row, bad, draws, state, False]

    stack = [enter(0, None if cyclic else (0,))]
    while stack:
        frame = stack[-1]
        t, row, bad, draws = frame[:4]
        for pick in draws:
            if timed_out():
                return
            picked[t] = pick
            depth = len(stack)
            if depth < len(levels):
                if row is None or not bad.isdisjoint(pick):
                    stack.append(enter(depth, None))
                    break
                for b, s in zip(targets_of[t], pick):
                    ids[b] = row[s]
                state = (depth, *[ids[b] for b in levels[depth][1]])
                if state in dead:
                    continue
                stack.append(enter(depth, state))
                break
            picks = tuple(picked[u] for u in targets_of)
            out = [specs[u][s] for u in targets_of for s in picked[u]]
            if cyclic:
                inc = [[] for _ in out]
                for a, o in enumerate(out):
                    for _, _, b in o:
                        inc[b].append(a)
                if typer.fixpoint(out, inc, stop_untyped=True) is not None:
                    continue
            frame[5] = True
            yield picks, out
        else:
            stack.pop()
            if frame[5]:
                if stack:
                    stack[-1][5] = True
            elif frame[4] is not None:
                dead.add(frame[4])


def find_counterexample(h: Schema, k: Schema, budget: Budget = Budget()):
    """Exhaustive bounded search for a graph validating h but not k.

    A minimal counter-example can be exponential in size, so a bounded
    search shows non-containment but never containment: the answer is
    NotContained with a witness, or Unknown naming the exhausted budget or
    the timeout.

    Candidates are built from h's compositions and out-specs
    (_compositions), so every one validates h by construction.  Node
    counts are searched smallest first, and that alone roots every hit
    reported at a node k leaves untyped, with no connectivity test: in a
    hit W, the nodes that a node x untyped by k reaches keep their
    out-specs and so validate h, and x stays untyped, since its k-types
    depend only on what it reaches.  Renumbered in order, they form a
    candidate (dropping all-zero target slots keeps the lexicographic order
    of bags and distributions), a hit that re-verifies, so the search
    returns at its node count, before W's unless it is all of W.  So a
    composition that no one node can reach all of (_rootable) holds no
    hit at the first node count that has one, and is skipped.

    Each node has one type of h: graphs needing a node to be read under
    different types by different referers are not enumerated.  Within this
    space the search is exhaustive and the witness has minimal node count.

    Candidates are typed against k by out-spec, through the memo of one
    validation.Typer for the whole search (_hits), and one Graph is built
    per hit.  The hits of the least node count are re-verified, by that
    Typer and one for h, in (total cardinality, canonical_code, rank)
    order, the rank being the composition's index and the picks in h.types
    order; the first that passes is reported.  canonical_code is computed
    only to order two or more hits of equal total cardinality.

    When h and k both have thresholds (Schema.thresholds), no card passes
    the larger of its label's two: a hit with one has a twin with it cut
    there, in the same composition, typed alike by both and of less total
    card, so no verdict, witness, rank or Unknown reason changes."""
    return _find_counterexample(_Context(h, k, budget))


def _find_counterexample(ctx: _Context):
    h, budget = ctx.h, ctx.budget
    start = time.monotonic()
    typer = ctx.typer(ctx.k)
    cache = {}  # _compositions' bags and spec lists, shared by every node count
    th_h, th_k = (h.thresholds, ctx.k.thresholds) if budget.max_card > 1 else (None, None)  # lazy
    caps = {} if th_h is None or th_k is None else {lab: max(c, th_k.get(lab, 1)) for lab, c in th_h.items()}

    def timed_out():
        return budget.timeout is not None and time.monotonic() - start > budget.timeout

    for n_nodes in range(1, budget.max_nodes + 1):
        names = [f"v{i}" for i in range(n_nodes)]
        hits = []
        for index, targets_of, specs in _compositions(h, n_nodes, budget.max_card, cache, timed_out, caps):
            for picks, out in _hits(typer, targets_of, specs, timed_out):
                card = sum(c for o in out for _, c, _ in o)
                hits.append((card, (index, picks), _candidate_graph(names, out)))
            if timed_out():
                break
        hits.sort(key=itemgetter(0))
        for _, group in groupby(hits, key=itemgetter(0)):
            group = list(group)
            if len(group) > 1:
                group.sort(key=lambda hit: (canonical_code(hit[2]), hit[1]))
            for *_, g in group:
                if ctx.refutes(g):
                    return NotContained(g)
        if timed_out():
            return Unknown("timeout before exhausting the budget")
    return Unknown(f"no counter-example with <= {budget.max_nodes} nodes"
                   f" and cardinalities <= {budget.max_card}")


# --- Front-door decision: ordered stages over one call's context ------------


class _Context:
    """One containment call: h, k, the budget, whether embedding refuted
    containment, and one validation.Typer per schema, made on first use."""

    def __init__(self, h: Schema, k: Schema, budget: Budget = Budget()):
        self.h, self.k, self.budget, self.refuted = h, k, budget, False
        self._typers: dict = {}  # id of a schema -> its Typer

    def typer(self, s: Schema) -> _val.Typer:
        if id(s) not in self._typers:
            self._typers[id(s)] = _val.Typer(s)
        return self._typers[id(s)]

    def refutes(self, g: Graph) -> bool:
        """g validates h and not k, as validation.validates decides."""
        return all(self.typer(self.h).typing(g).values()) and not all(self.typer(self.k).typing(g).values())


def _minus_shape_graph(s: Schema, side: str) -> Graph:
    """s's shape graph (classify's); ClassPreconditionError naming side unless s is DetShEx0Minus."""
    cls, diags = classify(s)
    if cls != SchemaClass.DetShEx0Minus:
        detail = f": {diags[0]}" if diags else ""
        raise ClassPreconditionError(f"{side} schema classifies as {cls.name}{detail}")
    return s._shape_graph


def contains_detshex0minus(h: Schema, k: Schema) -> bool:
    """H ⊆ K decided as shape-graph embedding; both schemas must classify as
    deterministic with ?-closed references."""
    ok, _ = embeds(_minus_shape_graph(h, "left"), _minus_shape_graph(k, "right"))
    return ok


def _embedding(ctx: _Context):
    ctx.refuted = not contains_detshex0minus(ctx.h, ctx.k)
    return None if ctx.refuted else Contained()


def _embedding_in_class(ctx: _Context):
    try:
        return _embedding(ctx)
    except ClassPreconditionError:
        return None


def _characterizing_witness(ctx: _Context):
    witness = _characterizing_graph(ctx.h._shape_graph) if ctx.refuted else None
    return NotContained(witness) if witness is not None and ctx.refutes(witness) else None


def _search(ctx: _Context):
    verdict = _find_counterexample(ctx)
    if ctx.refuted and not isinstance(verdict, NotContained):
        return Unknown("embedding refuted containment but no witness materialized")
    return verdict


_STAGES = {  # each method's stages, in the order contains runs them
    "auto": (_embedding_in_class, _characterizing_witness, _search),
    "embedding": (_embedding, _characterizing_witness, _search),
    "search": (_search,),
}


def contains(h: Schema, k: Schema, method: str = "auto", budget: Budget = Budget()):
    """Containment verdict: the first answer of method's stages, run in
    order over one _Context, so that each schema is classified, has its
    shape graph built and gets its Typer at most once per call:
      1. embedding (contains_detshex0minus): Contained iff h's shape graph
         embeds in k's; outside DetShEx0Minus, 'auto' skips this stage and
         'embedding' raises ClassPreconditionError;
      2. after a refuted embedding, h's characterizing graph as witness;
      3. the bounded search (find_counterexample; 'search' runs it alone),
         never Contained, and Unknown after a refuted embedding unless it
         finds a witness."""
    if method not in _STAGES:
        raise ValueError(f"unknown method {method!r}")
    ctx = _Context(h, k, budget)
    for stage in _STAGES[method]:
        verdict = stage(ctx)
        if verdict is not None:
            return verdict
