"""Seeded instance generators for the three workloads.

A workload is one list of operations. Its mix of operation kinds and input
sizes is fixed; the seed only changes the random structure inside each
input, so every seed measures the same mix.

Each operation carries the answer the benchmark knows for it, from the way
the input was built or from the brute-force checks in oracle.py.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from oracle import EPS, ONE, OPT, PLUS, STAR, Graph, alt, cat, cnf_satisfiable, deterministic_embeds
from oracle import dnf_tautology, schema_text, shape_graph, sym

# A --timeout far above any run: every search below is bounded by its node
# and cardinality caps alone.
NO_TIMEOUT = "1000000"


@dataclass
class Op:
    """One CLI verdict: arguments after --json, input files, known answer.

    expect is one of valid, invalid, embeds, not-embeds, contained, within
    (a counter-example exists inside the search budget) and beyond (the
    schemas are not contained, but no counter-example fits the budget).
    """

    name: str
    argv: list
    files: dict
    expect: str
    decided: bool = True  # False when an "unknown" answer is also correct
    check: dict = field(default_factory=dict)  # data for witness checks


def _rng(seed, workload, pos):
    return random.Random(f"{seed}:{workload}:{pos}")


# --- Data graphs ------------------------------------------------------------------

BUG = {
    "Bug": cat(sym("descr", "Literal"), sym("reportedBy", "User"),
               sym("reproducedBy", "Employee", OPT), sym("related", "Bug", STAR)),
    "User": cat(sym("name", "Literal"), sym("email", "Literal", OPT)),
    "Employee": cat(sym("name", "Literal"), sym("email", "Literal")),
    "Literal": EPS,
}

# The same schema with a disjunction on User: not flat, so the program
# checks User by enumerating type choices and matching bags.
BUG_SHEX = dict(BUG)
BUG_SHEX["User"] = cat(
    sym("name", "Literal"), ("rep", alt(sym("email", "Literal"), sym("phone", "Literal")), 0, 1)
)

CHAIN = {
    "t0": sym("a", "t1"),
    "t1": cat(sym("b", "t2"), sym("c", "t3")),
    "t2": cat(sym("b", "t2", OPT), sym("c", "t3")),
    "t3": EPS,
}

BOX = {
    "Box": cat(sym("item", "Item", STAR), sym("tag", "Tag", PLUS)),
    "Item": sym("val", "Lit"),
    "Tag": EPS,
    "Lit": EPS,
}


def bug_graph(rng, size, shex=False, hub=0, defect=False):
    """Bug-tracker graph with about `size` nodes, valid by construction.

    hub > 0 gives one bug that many extra `related` edges. defect=True puts
    all bugs on one `related` chain and strips the last bug's reporter, so
    the chain's far end is untyped and the failure walks back one hop per
    round of the typing fixpoint.
    """
    n_bugs = max(2, size * 45 // 100)
    n_users = max(1, size * 15 // 100)
    n_emps = max(1, size * 5 // 100)
    n_lits = max(1, size - n_bugs - n_users - n_emps)
    lit = lambda: f"l{rng.randrange(n_lits)}"
    edges = []
    for u in range(n_users):
        edges.append((f"u{u}", "name", lit(), 1, 1))
        r = rng.random()
        if r < 0.4:
            edges.append((f"u{u}", "email", lit(), 1, 1))
        elif r < 0.6 and shex:
            edges.append((f"u{u}", "phone", lit(), 1, 1))
    for e in range(n_emps):
        edges.append((f"e{e}", "name", lit(), 1, 1))
        edges.append((f"e{e}", "email", lit(), 1, 1))
    order = list(range(n_bugs))
    if not defect:
        rng.shuffle(order)
    chain_end = 0
    for pos, b in enumerate(order):
        last = pos == n_bugs - 1
        edges.append((f"b{b}", "descr", lit(), 1, 1))
        if not (defect and last):
            edges.append((f"b{b}", "reportedBy", f"u{rng.randrange(n_users)}", 1, 1))
        if rng.random() < 0.3:
            edges.append((f"b{b}", "reproducedBy", f"e{rng.randrange(n_emps)}", 1, 1))
        # Chains of 5..30 bugs, or one chain through all bugs for a defect.
        if defect or pos < chain_end:
            if not last:
                edges.append((f"b{b}", "related", f"b{order[pos + 1]}", 1, 1))
        else:
            chain_end = pos + rng.randint(5, 30)
    if hub:
        targets = rng.sample(range(n_bugs), min(hub, n_bugs))
        extra = [t for t in targets if t != order[0]]
        already = {e[2] for e in edges if e[0] == f"b{order[0]}" and e[1] == "related"}
        for t in extra:
            if f"b{t}" not in already:
                edges.append((f"b{order[0]}", "related", f"b{t}", 1, 1))
    nodes = [f"b{i}" for i in range(n_bugs)] + [f"u{i}" for i in range(n_users)]
    nodes += [f"e{i}" for i in range(n_emps)] + [f"l{i}" for i in range(n_lits)]
    return Graph("simple", edges, nodes)


def chain_graph(rng, size):
    """Chains root -a-> head -b-> ... -b-> tail, each link with a c-edge to
    a shared sink, under the chain schema."""
    sinks = [f"s{i}" for i in range(max(1, size // 10))]
    edges, used, k = [], len(sinks), 0
    while used + 3 <= size:
        length = min(rng.randint(5, 40), size - used - 1)
        nodes = [f"r{k}"] + [f"x{k}_{i}" for i in range(length)]
        edges.append((nodes[0], "a", nodes[1], 1, 1))
        for i in range(1, length + 1):
            if i < length:
                edges.append((nodes[i], "b", nodes[i + 1], 1, 1))
            edges.append((nodes[i], "c", rng.choice(sinks), 1, 1))
        used += length + 1
        k += 1
    return Graph("simple", edges, sinks)


def box_graph(rng, size):
    """Compressed graph: boxes with item edges of widths up to 60, their
    sum at most 64 per box, so the program checks each box with one unit
    source per width."""
    n_boxes = max(1, size // 5)
    n_items = max(2, size * 3 // 5)
    n_lits = max(1, size - n_boxes - n_items - 2)
    edges = []
    for b in range(n_boxes):
        budget = 64 - 3
        for t in rng.sample(range(n_items), rng.randint(1, 4)):
            w = rng.randint(1, min(60, budget))
            budget -= w
            edges.append((f"x{b}", "item", f"i{t}", w, w))
            if budget < 1:
                break
        tag = rng.randint(1, 3)
        edges.append((f"x{b}", "tag", f"tag{rng.randrange(2)}", tag, tag))
    for i in range(n_items):
        edges.append((f"i{i}", "val", f"l{rng.randrange(n_lits)}", 1, 1))
    nodes = [f"i{i}" for i in range(n_items)] + [f"l{i}" for i in range(n_lits)] + ["tag0", "tag1"]
    return Graph("compressed", edges, nodes)


# One type that allows any a- and b-edges, so every compressed graph over
# these labels is valid.
WIDE = {"W": cat(sym("a", "W", STAR), sym("b", "W", STAR))}


def wide_graph(rng, size):
    """Compressed graph under WIDE: random a- and b-edges of widths up to 20,
    and one node with widths 33 and 32, 65 in all. The widths are fixed, so
    the cost of the failure does not depend on the seed; one type keeps the
    formula, and so the time to the work cap, small."""
    nodes = [f"n{i}" for i in range(size)]
    edges = [("n0", "a", "n1", 33, 33), ("n0", "b", "n2", 32, 32)]
    for n in nodes[1:]:
        for lab, t in {(rng.choice("ab"), rng.choice(nodes)) for _ in range(rng.randint(1, 3))}:
            w = rng.randint(1, 20)
            edges.append((n, lab, t, w, w))
    return Graph("compressed", edges, nodes)


def _validate_op(name, g, schema, expect):
    return Op(name, ["validate", "g.graph", "s.schema"],
              {"g.graph": g.text(), "s.schema": schema_text(schema)}, expect)


def _max_out_width(g):
    width = {}
    for s, _, _, lo, _ in g.edges:
        width[s] = width.get(s, 0) + lo
    return max(width.values())


# Sizes are fixed per position; the seed only changes the random structure
# inside each graph, so every seed measures the same mix. The mix is built
# in tiers of one kind and size, so that the median and the tail (the 11th
# slowest) each fall in the middle of a tier and not on the edge between
# two: 17 cheap graphs, 14 at the median, 12 at the tail, 2 larger ones and
# the 3 known failures (hub and wide), under a tenth of 48 operations.
VALIDATE_MIX = (
    [("bug", 100)] * 9 + [("chain", 100)] * 8
    + [("bug", 150)] * 14
    + [("box", 200)] * 12
    + [("bug", 400), ("shex", 300)]
    + [("hub", 200), ("hub", 200), ("wide", 100)]
)


def validate_ops(seed):
    ops = []
    for pos, (kind, size) in enumerate(VALIDATE_MIX):
        rng = _rng(seed, "validate", pos)
        if kind in ("bug", "shex", "hub"):
            g = bug_graph(rng, size, shex=kind == "shex", hub=80 if kind == "hub" else 0)
            schema = BUG_SHEX if kind == "shex" else BUG
        elif kind == "chain":
            g, schema = chain_graph(rng, size), CHAIN
        elif kind == "box":
            g, schema = box_graph(rng, size), BOX
        else:
            g, schema = wide_graph(rng, size), WIDE
        assert (_max_out_width(g) > 64) == (kind in ("hub", "wide"))
        ops.append(_validate_op(f"validate/{pos}-{kind}-{size}", g, schema, "valid"))
    return ops


# Failure propagation costs grow fast with size, so most graphs are small.
# As in VALIDATE_MIX, the sizes form tiers: the median falls among the
# 40-node validations and 60-node embeddings, the tail among the 60-node
# validations. 27 graphs, 54 operations.
PROPAGATE_SIZES = (40,) * 15 + (60,) * 9 + (80, 100, 120)


def propagate_ops(seed):
    shape = shape_graph(BUG).text()
    ops = []
    for pos, size in enumerate(PROPAGATE_SIZES):
        g = bug_graph(_rng(seed, "propagate", pos), size, defect=True)
        ops.append(_validate_op(f"propagate/{pos}-validate-{size}", g, BUG, "invalid"))
        ops.append(Op(f"propagate/{pos}-embed-{size}", ["embed", "g.graph", "h.graph"],
                      {"g.graph": g.text(), "h.graph": shape}, "not-embeds"))
    return ops


# --- Schema pairs -------------------------------------------------------------------


def dnf_schemas(v, clauses):
    """H is contained in K iff the DNF over x1..xv is a tautology."""
    xs = [f"x{i}" for i in range(1, v + 1)]
    tf = cat(sym("t", "o", OPT), sym("f", "o", OPT))
    h = {"r": cat(*[sym(x, "v") for x in xs]), "v": tf, "o": EPS}
    k = {}
    for i in range(1, v + 1):
        k[f"r0_{i}"] = cat(*[sym(x, "v0" if j == i else "v") for j, x in enumerate(xs, 1)])
        k[f"r1_{i}"] = cat(*[sym(x, "v1" if j == i else "v") for j, x in enumerate(xs, 1)])
    for j, cl in enumerate(clauses, 1):
        k[f"rd{j}"] = cat(*[sym(x, f"w{j}_{i}") for i, x in enumerate(xs, 1)])
        for i in range(1, v + 1):
            k[f"w{j}_{i}"] = sym("t", "o") if i in cl else sym("f", "o") if -i in cl else tf
    k.update({"v": tf, "v0": EPS, "v1": cat(sym("t", "o"), sym("f", "o")), "o": EPS})
    return h, k


def _term(rng, v):
    chosen = rng.sample(range(1, v + 1), rng.randint(1, v))
    return tuple(sorted((x if rng.random() < 0.5 else -x for x in chosen), key=abs))


def random_dnf(rng, v, tautology):
    """Terms over v variables with the asked-for answer: 2v random terms
    forming a tautology, or the cycle of terms (not x_p(i) and x_p(i+1))
    for a random order p of the variables, which all-true falsifies, so a
    3-node counter-example always exists. Random terms there would make the
    search cost vary by half from one seed to the next."""
    if not tautology:
        p = rng.sample(range(1, v + 1), v)
        return [tuple(sorted((-p[i], p[(i + 1) % v]), key=abs)) for i in range(v)]
    while True:
        terms = [_term(rng, v) for _ in range(2 * v)]
        if dnf_tautology(v, terms):
            return terms


def exponential_schemas(n):
    """H types full binary L/R trees of depth n with optional a_q leaf
    edges; K accepts the trees where some leaf constraint is violated, so
    the smallest counter-example grows with n (4 nodes at n=1, 8 at n=2)."""

    def leaf(present=None, forced=None):
        return cat(*[
            sym(f"a{q}", "to") if q == present else sym(f"a{q}", "to", OPT)
            for q in range(1, n + 1) if q != forced
        ])

    def lr(l1, l2, r):
        return cat(sym("L", l1, OPT), sym("L", l2, OPT), sym("R", r))

    def rl(l, r1, r2):
        return cat(sym("L", l), sym("R", r1, OPT), sym("R", r2, OPT))

    h = {f"t{i}": cat(sym("L", f"t{i + 1}"), sym("R", f"t{i + 1}")) for i in range(1, n + 1)}
    h[f"t{n + 1}"] = leaf()
    h["to"] = EPS
    k = {key: val for key, val in h.items() if key != "t1"}
    for i in range(1, n + 1):
        for m in (0, 1):
            for d in ("L", "R"):
                k[f"s{n + 1}_{i}_{m}_{d}"] = leaf(present=i if m else None, forced=None if m else i)
        for j in range(i + 1, n + 1):
            for m in (0, 1):
                k[f"s{j}_{i}_{m}_L"] = lr(f"s{j + 1}_{i}_{m}_L", f"s{j + 1}_{i}_{m}_R", f"t{j + 1}")
                k[f"s{j}_{i}_{m}_R"] = rl(f"t{j + 1}", f"s{j + 1}_{i}_{m}_L", f"s{j + 1}_{i}_{m}_R")
        k[f"p{i}_{i}_L"] = lr(f"s{i + 1}_{i}_0_L", f"s{i + 1}_{i}_0_R", f"t{i + 1}")
        k[f"p{i}_{i}_R"] = rl(f"t{i + 1}", f"s{i + 1}_{i}_1_L", f"s{i + 1}_{i}_1_R")
        for j in range(1, i):
            k[f"p{j}_{i}_L"] = lr(f"p{j + 1}_{i}_L", f"p{j + 1}_{i}_R", f"t{j + 1}")
            k[f"p{j}_{i}_R"] = rl(f"t{j + 1}", f"p{j + 1}_{i}_L", f"p{j + 1}_{i}_R")
    return h, k


# The two schemas of a *-chain and of its case-by-case unfolding: the same
# language, though the first shape graph does not embed in the second.
STAR_CHAIN_H = {"u0": sym("a", "u1", STAR), "u1": sym("b", "u2", STAR), "u2": EPS}
STAR_CHAIN_K = {
    "v0": cat(sym("a", "v1", STAR), sym("a", "v2", STAR), sym("a", "v4", STAR)),
    "v1": EPS,
    "v2": sym("b", "v3"),
    "v3": EPS,
    "v4": cat(sym("b", "v5"), sym("b", "v6", STAR)),
    "v5": EPS,
    "v6": EPS,
}


def _a(n=1):
    return ("rep", ("sym", "a"), n, n) if n != 1 else ("sym", "a")


A, B = ("sym", "a"), ("sym", "b")

# Bag-language union containment, L(e0) inside L(e1 | ... | em), checked by
# hand against a search with 2 nodes and cardinalities up to 3: the root
# plus one sink, so each symbol occurs at most 3 times. The answers are
# cross-checked by test_perfbench.py against bag enumeration.
UNION_TABLE = [
    (("rep", A, 0, None), [("rep", A, 0, 1)], "within"),  # aa
    (cat(A, ("rep", B, 0, 1)), [A, cat(A, B)], "contained"),
    (("rep", alt(A, B), 1, 3), [("rep", A, 1, None), ("rep", B, 1, None),
                                cat(A, ("rep", B, 1, None)), cat(("rep", A, 1, None), B)], "contained"),
    (("rep", A, 2, 4), [_a(2), _a(3)], "beyond"),  # only aaaa is missed
    (("rep", cat(A, B), 0, None), [cat(A, B), EPS], "within"),  # abab
    (alt(A, B), [A], "within"),  # b
    (cat(("rep", A, 0, 1), ("rep", B, 0, 1)), [EPS, A, B, cat(A, B)], "contained"),
    (("rep", alt(A, B), 1, None), [("rep", A, 1, None), ("rep", B, 1, None)], "within"),  # ab
    (("and", (("rep", A, 1, None), ("rep", _a(2), 0, None))), [_a(2), ("rep", A, 4, None)], "contained"),
    (cat(("rep", A, 1, 2), ("rep", B, 1, 2)), [cat(A, B), cat(_a(2), ("rep", B, 2, 2))], "within"),  # aab
    (alt(_a(2), ("rep", B, 3, 3)), [_a(2), ("rep", B, 3, 3)], "contained"),
    (cat(("rep", A, 0, None), B), [B, cat(A, B), cat(("rep", A, 2, None), B)], "contained"),
]


def _lift(e, ty):
    if e[0] == "sym":
        return ("sym", (e[1], ty))
    if e[0] == "eps":
        return e
    if e[0] == "rep":
        return ("rep", _lift(e[1], ty), e[2], e[3])
    return (e[0], tuple(_lift(p, ty) for p in e[1]))


def union_schemas(e0, es):
    """H is contained in K iff L(e0) is inside the union of L(es)."""
    h = {"t": cat(sym("z", "t0"), _lift(e0, "t0")), "t0": EPS}
    k = {"t": cat(sym("z", "t0"), _lift(alt(*es), "t0")), "t0": EPS}
    return h, k


def normalize_cnf(v, clauses):
    """Pad with tautological clauses (x or not x), and widen one of them by
    a literal where a count is odd, until every variable occurs k times
    with both signs. Tautological clauses keep satisfiability."""
    base = [list(c) for c in clauses]
    base += [[i, -i] for i in range(1, v + 1)
             if not (any(i in c for c in clauses) and any(-i in c for c in clauses))]
    total = {i: sum(abs(lit) == i for c in base for lit in c) for i in range(1, v + 1)}
    # With k = max + 2 a most-used variable gets a tautological clause that
    # every odd count can widen, so the second pass always succeeds.
    for k in (max(total.values()), max(total.values()) + 2):
        out = [list(c) for c in base]
        for i in range(1, v + 1):
            out += [[i, -i] for _ in range((k - total[i]) // 2)]
        for i in range(1, v + 1):
            if (k - total[i]) % 2:
                taut = [c for c in out if any(-lit in c for lit in c) and i not in c and -i not in c]
                if not taut:
                    break
                taut[0].append(i)
        else:
            return k, [tuple(c) for c in out]
    raise AssertionError("unreachable: the second pass always balances")


def sat_graphs(v, clauses):
    """Interval graphs (H, K): the CNF is satisfiable iff H embeds in K."""
    k, clauses = normalize_cnf(v, clauses)
    h_edges, k_edges = [], []
    for i in range(1, v + 1):
        h_edges.append(("r1", "a", f"w{i}", k, k))
        for j in range(1, k + 1):
            h_edges += [("r1", "a", f"x{i}_{j}", 1, 1), ("r1", "a", f"nx{i}_{j}", 1, 1)]
        h_edges.append((f"w{i}", f"v{i}", "o", 1, 1))
        for j in range(1, k + 1):
            h_edges += [(f"x{i}_{j}", f"x{i}", "o", 1, 1), (f"nx{i}_{j}", f"nx{i}", "o", 1, 1)]
        k_edges += [("r2", "a", f"X{i}", k, k), ("r2", "a", f"NX{i}", k, k)]
        k_edges += [(f"X{i}", f"v{i}", "o", *OPT), (f"X{i}", f"x{i}", "o", *OPT)]
        k_edges += [(f"NX{i}", f"v{i}", "o", *OPT), (f"NX{i}", f"nx{i}", "o", *OPT)]
    for p, cl in enumerate(clauses, 1):
        k_edges.append(("r2", "a", f"c{p}", *PLUS))
        for lab in sorted({f"x{l}" if l > 0 else f"nx{-l}" for l in cl}):
            k_edges.append((f"c{p}", lab, "o", *OPT))
    return Graph("general", h_edges), Graph("general", k_edges)


def random_minus_schema(rng, labels=("a", "b", "c")):
    """Deterministic flat schema in the class the program decides by
    embedding: each label once per rule, only 1, ? and * occurrences, and ?
    only in types that are referenced, and only by *-edges."""
    types = [f"t{i}" for i in range(rng.randint(1, 5))]
    atoms = {t: [(lab, rng.choice(types), rng.choice([ONE, STAR, STAR, OPT]))
                 for lab in rng.sample(labels, rng.randint(0, len(labels)))] for t in types}
    refs = {t: [iv for a in atoms.values() for _, tgt, iv in a if tgt == t] for t in types}
    for t in types:
        if not refs[t] or any(iv != STAR for iv in refs[t]):
            atoms[t] = [(lab, tgt, STAR if iv == OPT else iv) for lab, tgt, iv in atoms[t]]
    return {t: cat(*[sym(lab, tgt, iv) for lab, tgt, iv in atoms[t]]) for t in types}


def _contains_op(name, h, k, expect, max_nodes, max_card, decided=False):
    argv = ["contains", "h.schema", "k.schema", "--method", "auto", "--max-nodes", str(max_nodes),
            "--max-card", str(max_card), "--timeout", NO_TIMEOUT]
    check = {"h": h, "k": k, "max_nodes": None if decided else max_nodes,
             "max_card": None if decided else max_card}
    return Op(name, argv, {"h.schema": schema_text(h), "k.schema": schema_text(k)}, expect,
              decided=decided or expect == "within", check=check)


def relaxed(schema, rng):
    """The same schema with some 1-atoms widened to *: it contains the
    original and stays in the class decided by embedding."""
    def widen(e):
        if e[0] == "sym" and rng.random() < 0.5:
            return ("rep", e, 0, None)
        if e[0] == "cat":
            return ("cat", tuple(widen(p) for p in e[1]))
        return e
    return {t: widen(e) for t, e in schema.items()}


def random_cnf(rng, want):
    """Four random clauses over two variables, each with both variables,
    with the asked-for satisfiability. Wider formulas make the embedding
    cost vary tenfold from one seed to the next."""
    while True:
        clauses = [tuple(x if rng.random() < 0.5 else -x for x in (1, 2)) for _ in range(4)]
        if cnf_satisfiable(2, clauses) == want:
            return clauses


def contain_ops(seed):
    rng = _rng(seed, "contain", 0)
    ops = []
    # Tautologies need the search to exhaust v + 2 nodes, which is only
    # affordable up to v = 3; non-tautologies stop at the first witness.
    # Tiers as in VALIDATE_MIX: v = 3 holds the median, v = 5 the tail.
    dnf = [(2, True), (3, True)] + [(v, False) for v, n in ((2, 2), (3, 10), (4, 2), (5, 7), (6, 1))
                                    for _ in range(n)]
    for j, (v, taut) in enumerate(dnf):
        h, k = dnf_schemas(v, random_dnf(rng, v, taut))
        ops.append(_contains_op(f"contain/dnf{j}-v{v}-{'taut' if taut else 'non'}", h, k,
                                "contained" if taut else "within", v + 2, 1))
    h, k = exponential_schemas(1)
    ops.append(_contains_op("contain/exp1-8", h, k, "within", 8, 1))
    # The smallest counter-example for n = 2 has 8 nodes.
    h, k = exponential_schemas(2)
    ops.append(_contains_op("contain/exp2-6", h, k, "beyond", 6, 1))
    ops.append(_contains_op("contain/star-chain-5", STAR_CHAIN_H, STAR_CHAIN_K, "contained", 5, 3))
    for j in rng.sample(range(len(UNION_TABLE)), len(UNION_TABLE)):
        e0, es, answer = UNION_TABLE[j]
        h, k = union_schemas(e0, es)
        ops.append(_contains_op(f"contain/union-{j}", h, k, answer, 2, 3))
    for j, want in enumerate((True, False, True, False)):
        hg, kg = sat_graphs(2, random_cnf(rng, want))
        ops.append(Op(f"contain/sat{j}-{'sat' if want else 'unsat'}", ["embed", "h.graph", "k.graph"],
                      {"h.graph": hg.text(), "k.graph": kg.text()},
                      "embeds" if want else "not-embeds", check={"g": hg, "h": kg}))
    # Pairs in the class decided by embedding: a schema against a widened
    # copy (contained), or against a random schema that does not contain it.
    for j in range(6):
        h = random_minus_schema(rng)
        if j % 2 == 0:
            k = relaxed(h, rng)
        else:
            k = random_minus_schema(rng)
            while deterministic_embeds(shape_graph(h), shape_graph(k)):
                k = random_minus_schema(rng)
        answer = "contained" if j % 2 == 0 else "within"
        assert deterministic_embeds(shape_graph(h), shape_graph(k)) == (answer == "contained")
        ops.append(_contains_op(f"contain/minus{j}", h, k, answer, 4, 2, decided=True))
    return ops


OPS = {"validate": validate_ops, "propagate": propagate_ops, "contain": contain_ops}
