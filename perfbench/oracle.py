"""The benchmark's own model of graphs, expressions and schemas, and the
answers it checks the program against.

Nothing here imports shapegraph: instances are built and serialized from
these structures, and every verdict is judged by code in this file.

Intervals are (lo, hi) pairs with hi = None for an unbounded maximum.
Expressions are tuples: ("eps",), ("sym", (label, type)),
("cat", parts), ("or", parts), ("and", parts), ("rep", body, lo, hi).
"""

from __future__ import annotations

from itertools import product

ONE, OPT, PLUS, STAR = (1, 1), (0, 1), (1, None), (0, None)
EPS = ("eps",)


# --- Graphs -------------------------------------------------------------------


class Graph:
    """Nodes in insertion order; edges are (source, label, target, lo, hi)."""

    def __init__(self, kind, edges=(), nodes=()):
        self.kind = kind
        self.edges = list(edges)
        seen = {}
        for n in nodes:
            seen.setdefault(n, None)
        for s, _, t, _, _ in self.edges:
            seen.setdefault(s, None)
            seen.setdefault(t, None)
        self.nodes = list(seen)

    def out(self):
        table = {n: [] for n in self.nodes}
        for e in self.edges:
            table[e[0]].append(e)
        return table

    def text(self):
        lines = [f"graph {self.kind}"]
        linked = {e[0] for e in self.edges} | {e[2] for e in self.edges}
        lines += [f"node {n}" for n in self.nodes if n not in linked]
        for s, lab, t, lo, hi in self.edges:
            occ = interval_token(lo, hi, self.kind)
            lines.append(f"{s} {lab} {t}" + (f" {occ}" if occ else ""))
        return "\n".join(lines) + "\n"


def interval_token(lo, hi, kind="general"):
    if (lo, hi) == ONE:
        return ""
    if kind == "compressed" and lo == hi:
        return str(lo)
    short = {OPT: "?", PLUS: "+", STAR: "*"}.get((lo, hi))
    if short:
        return short
    return f"[{lo};{'inf' if hi is None else hi}]"


def _parse_token(tok):
    short = {"1": ONE, "?": OPT, "+": PLUS, "*": STAR}
    if tok in short:
        return short[tok]
    if tok.startswith("["):
        lo, hi = tok[1:-1].split(";")
        return int(lo), (None if hi in ("inf", "*") else int(hi))
    return int(tok), int(tok)


def parse_graph(text):
    """Read the line format the program prints for witnesses."""
    lines = [ln.split() for ln in text.splitlines()]
    lines = [p for p in lines if p]
    if not lines or lines[0][0] != "graph":
        raise ValueError("missing 'graph <kind>' header")
    nodes, edges = [], []
    for parts in lines[1:]:
        if parts[0] == "node":
            nodes.append(parts[1])
        else:
            lo, hi = _parse_token(parts[3]) if len(parts) == 4 else ONE
            edges.append((parts[0], parts[1], parts[2], lo, hi))
    return Graph(lines[0][1], edges, nodes)


# --- Expressions and schemas -----------------------------------------------------


def sym(label, ty, iv=ONE):
    s = ("sym", (label, ty))
    return s if iv == ONE else ("rep", s, iv[0], iv[1])


def cat(*parts):
    parts = [p for p in parts if p != EPS]
    if not parts:
        return EPS
    return parts[0] if len(parts) == 1 else ("cat", tuple(parts))


def alt(*parts):
    return parts[0] if len(parts) == 1 else ("or", tuple(parts))


def expr_text(e, typed=True):
    op = e[0]
    if op == "eps":
        return "eps"
    if op == "sym":
        return f"{e[1][0]}::{e[1][1]}" if typed else str(e[1])
    if op == "rep":
        body = expr_text(e[1], typed)
        if e[1][0] != "sym":
            body = f"({body})"
        short = {OPT: "?", PLUS: "+", STAR: "*"}.get((e[2], e[3]))
        if short:
            return body + short
        return body + "^" + f"[{e[2]};{'inf' if e[3] is None else e[3]}]"
    sep = {"cat": ", ", "or": " | ", "and": " & "}[op]
    return sep.join(
        expr_text(p, typed) if p[0] in ("sym", "rep", "eps") else f"({expr_text(p, typed)})"
        for p in e[1]
    )


def schema_text(schema):
    return "schema\n" + "".join(f"{t} -> {expr_text(e)}\n" for t, e in schema.items())


def alphabet(e):
    if e[0] == "sym":
        return {e[1]}
    if e[0] == "eps":
        return set()
    if e[0] == "rep":
        return alphabet(e[1])
    out = set()
    for p in e[1]:
        out |= alphabet(p)
    return out


def shape_graph(schema):
    """One node per type and one edge per atom of a flat schema."""
    edges = []
    for t, e in schema.items():
        for (lab, target), iv in flat_atoms(e):
            edges.append((t, lab, target, *iv))
    return Graph("shape", edges, nodes=list(schema))


def flat_atoms(e):
    if e[0] == "eps":
        return []
    if e[0] == "sym":
        return [(e[1], ONE)]
    if e[0] == "rep" and e[1][0] == "sym":
        return [(e[1][1], (e[2], e[3]))]
    if e[0] == "cat":
        return [a for p in e[1] for a in flat_atoms(p)]
    raise ValueError("not a flat rule")


# --- Bag languages as sets of count vectors -------------------------------------


def vectors(e, index, box):
    """All count vectors of L(e) that fit under box, over the symbol order
    given by index (symbol -> position)."""
    op = e[0]
    if op == "eps":
        return {(0,) * len(box)}
    if op == "sym":
        i = index.get(e[1])
        if i is None or box[i] < 1:
            return set()
        return {tuple(1 if j == i else 0 for j in range(len(box)))}
    if op in ("cat", "or", "and"):
        sets = [vectors(p, index, box) for p in e[1]]
        acc = sets[0]
        for s in sets[1:]:
            if op == "or":
                acc = acc | s
            elif op == "and":
                acc = acc & s
            else:
                acc = _plus(acc, s, box)
        return acc
    body = vectors(e[1], index, box)
    lo, hi = e[2], e[3]
    top = max(lo, sum(box)) + 1
    if hi is not None:
        top = min(top, hi)
    level, out = {(0,) * len(box)}, set()
    for j in range(top + 1):
        if j >= lo:
            out |= level
        level = _plus(level, body, box)
        if not level:
            break
    return out


def _plus(xs, ys, box):
    out = set()
    for x in xs:
        for y in ys:
            v = tuple(a + b for a, b in zip(x, y))
            if all(c <= b for c, b in zip(v, box)):
                out.add(v)
    return out


def bag_in(e, bag):
    """bag (dict symbol -> count) is in L(e)."""
    symbols = sorted(set(bag) | alphabet(e), key=str)
    index = {s: i for i, s in enumerate(symbols)}
    box = tuple(bag.get(s, 0) for s in symbols)
    return box in vectors(e, index, box)


# --- Validation by brute force -----------------------------------------------------


def _splits(card, options):
    """Every way to spread card copies over the option list."""
    if len(options) == 1:
        yield ((options[0], card),)
        return
    for c in range(card + 1):
        for rest in _splits(card - c, options[1:]):
            yield ((options[0], c),) + rest


def _satisfies(out_edges, delta, typing):
    """Some choice of target types, copy by copy, gives a bag in L(delta).
    The reachable bags are built edge by edge as a set of count vectors;
    a type whose atom delta does not mention can never be chosen."""
    symbols = sorted(alphabet(delta), key=str)
    index = {s: i for i, s in enumerate(symbols)}
    states = {(0,) * len(symbols)}
    for _, lab, t, lo, _ in out_edges:
        if lo == 0:
            continue
        choices = sorted(ty for ty in typing[t] if (lab, ty) in index)
        if not choices:
            return False
        steps = []
        for split in _splits(lo, choices):
            step = [0] * len(symbols)
            for ty, c in split:
                step[index[(lab, ty)]] += c
            steps.append(step)
        states = {tuple(a + b for a, b in zip(s, step)) for s in states for step in steps}
    box = tuple(max(col) for col in zip(*states)) if symbols else ()
    lang = vectors(delta, index, box)
    return any(s in lang for s in states)


def max_typing(g: Graph, schema: dict) -> dict:
    typing = {n: set(schema) for n in g.nodes}
    out = g.out()
    changed = True
    while changed:
        changed = False
        for n in g.nodes:
            keep = {t for t in typing[n] if _satisfies(out[n], schema[t], typing)}
            if keep != typing[n]:
                typing[n] = keep
                changed = True
    return typing


def validates(g: Graph, schema: dict) -> bool:
    return all(max_typing(g, schema).values())


def is_counterexample(g: Graph, h: dict, k: dict) -> bool:
    return validates(g, h) and not validates(g, k)


# --- Embeddings ----------------------------------------------------------------------


def _within(lo, hi, outer):
    olo, ohi = outer
    return olo <= lo and (ohi is None or (hi is not None and hi <= ohi))


def check_embedding_witness(g: Graph, h: Graph, witness) -> bool:
    """The program's embedding witness is a simulation covering every node
    of g: labels kept, targets related, interval sums inside each h-edge."""
    pairs = {(w["g"], w["h"]) for w in witness}
    if {n for n, _ in pairs} != set(g.nodes):
        return False
    g_out, h_out = g.out(), h.out()
    for w in witness:
        n, m = w["g"], w["h"]
        mapped = {tuple(e): tuple(f) for e, f in w["map"]}
        if set(mapped) != {e[:3] for e in g_out[n]}:
            return False
        occ_g = {e[:3]: e[3:] for e in g_out[n]}
        sums = {f[:3]: [0, 0] for f in h_out[m]}
        for e, f in mapped.items():
            if f not in sums or e[1] != f[1] or (e[2], f[2]) not in pairs:
                return False
            lo, hi = occ_g[e]
            sums[f][0] += lo
            sums[f][1] = None if hi is None or sums[f][1] is None else sums[f][1] + hi
        for f in h_out[m]:
            if not _within(*sums[f[:3]], f[3:]):
                return False
    return True


def deterministic_embeds(hg: Graph, kg: Graph) -> bool:
    """Embedding of shape graphs whose nodes use each label at most once:
    each edge can only go to the partner's edge with its label."""
    h_out = {n: {e[1]: e for e in es} for n, es in hg.out().items()}
    k_out = {n: {e[1]: e for e in es} for n, es in kg.out().items()}
    rel = {(n, m) for n in hg.nodes for m in kg.nodes}
    changed = True
    while changed:
        changed = False
        for n, m in sorted(rel):
            ok = all(
                lab in k_out[m]
                and _within(e[3], e[4], k_out[m][lab][3:])
                and (e[2], k_out[m][lab][2]) in rel
                for lab, e in h_out[n].items()
            ) and all(f[3] == 0 for lab, f in k_out[m].items() if lab not in h_out[n])
            if not ok:
                rel.discard((n, m))
                changed = True
    return {n for n, _ in rel} == set(hg.nodes)


def small_counterexample(h: dict, k: dict, max_nodes=2, max_edges_per_atom=2, cap=4000):
    """Search graphs of up to max_nodes nodes, built from h's deterministic
    flat rules, for one valid under h and not under k."""
    types = list(h)
    tried = 0
    for n in range(1, max_nodes + 1):
        names = [f"q{i}" for i in range(n)]
        for assign in product(types, repeat=n):
            per_node = []
            for i, t in enumerate(assign):
                options = []
                for (lab, target), (lo, hi) in flat_atoms(h[t]):
                    hosts = [names[j] for j, tt in enumerate(assign) if tt == target]
                    subsets = []
                    for mask in range(1 << len(hosts)):
                        chosen = [hosts[j] for j in range(len(hosts)) if mask >> j & 1]
                        size = len(chosen)
                        if lo <= size and (hi is None or size <= hi) and size <= max_edges_per_atom:
                            subsets.append([(names[i], lab, c, 1, 1) for c in chosen])
                    options.append(subsets)
                per_node.append([sum(pick, []) for pick in product(*options)])
            for edges in product(*per_node):
                tried += 1
                if tried > cap:
                    return None
                g = Graph("simple", [e for es in edges for e in es], names)
                if is_counterexample(g, h, k):
                    return g
    return None


# --- Brute-force propositional checks ----------------------------------------------------


def cnf_satisfiable(num_vars, clauses) -> bool:
    return any(
        all(any((lit > 0) == bits[abs(lit) - 1] for lit in cl) for cl in clauses)
        for bits in product((False, True), repeat=num_vars)
    )


def dnf_tautology(num_vars, clauses) -> bool:
    return all(
        any(all((lit > 0) == bits[abs(lit) - 1] for lit in cl) for cl in clauses)
        for bits in product((False, True), repeat=num_vars)
    )
