"""Generators for the adversarial instance families used in the hardness
arguments, plus the tiny brute-force oracles the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .core import Edge, Graph, Interval, OPT, PLUS
from .errors import ShapegraphError
from . import rbe as _rbe
from .schema import Schema


# --- CNF formulas and normalization ------------------------------------------


@dataclass(frozen=True)
class CnfFormula:
    """Clauses over variables 1..num_vars; literals are signed indexes."""

    num_vars: int
    clauses: tuple  # of tuples of nonzero ints

    def __post_init__(self):
        _check_literals(self.num_vars, self.clauses)

    def counts(self):
        pos = {i: 0 for i in range(1, self.num_vars + 1)}
        neg = {i: 0 for i in range(1, self.num_vars + 1)}
        for cl in self.clauses:
            for lit in cl:
                (pos if lit > 0 else neg)[abs(lit)] += 1
        return pos, neg

    @property
    def occurrences_per_variable(self) -> int | None:
        """k when every variable occurs exactly k times, at least once with
        each sign; None otherwise."""
        pos, neg = self.counts()
        totals = {pos[i] + neg[i] for i in pos}
        if len(totals) == 1 and all(pos[i] and neg[i] for i in pos):
            return totals.pop()
        return None

    @property
    def is_normalized(self) -> bool:
        return self.occurrences_per_variable is not None


def _check_literals(num_vars: int, clauses):
    """Raise ValueError unless every literal is ±i for a variable i in
    1..num_vars."""
    for cl in clauses:
        for lit in cl:
            if lit == 0 or abs(lit) > num_vars:
                raise ValueError(f"literal {lit} out of range")


def cnf_satisfiable(phi: CnfFormula) -> bool:
    """Brute force over all valuations (fixture scale only)."""
    for bits in product([False, True], repeat=phi.num_vars):
        if all(any((lit > 0) == bits[abs(lit) - 1] for lit in cl) for cl in phi.clauses):
            return True
    return len(phi.clauses) == 0


def normalize_cnf(phi: CnfFormula) -> CnfFormula:
    """Equalize occurrence counts: pad with tautological (x ∨ ¬x) clauses,
    and absorb odd remainders by widening a tautological clause with extra
    literals (a tautological clause stays satisfied under any widening), so
    satisfiability is preserved."""
    if phi.num_vars < 1:
        raise ValueError("normalizing a CNF needs at least one variable")
    clauses = [list(cl) for cl in phi.clauses]
    pos, neg = phi.counts()
    for i in pos:
        if pos[i] == 0 or neg[i] == 0:
            clauses.append([i, -i])
            pos[i] += 1
            neg[i] += 1
    totals = {i: pos[i] + neg[i] for i in pos}
    k = max(totals.values())
    widen = next((cl for cl in clauses if any(-l in cl for l in cl)), None)
    short = [i for i in totals if totals[i] < k]
    if widen is None and short and totals[short[0]] == k - 1:
        # Nothing to widen for the first short variable: pad it one past k
        # instead, which makes the tautology the others widen.
        widen = [short[0], -short[0]]
        clauses.append(widen)
        totals[short[0]] += 2
        k += 1
    for i, total in totals.items():
        d = k - total
        for _ in range(d // 2):
            clauses.append([i, -i])
            widen = widen or clauses[-1]
        if d % 2:
            widen.append(i)
    return CnfFormula(phi.num_vars, tuple(map(tuple, clauses)))


# --- Satisfiability as embedding (arbitrary intervals) -----------------------


def sat_embedding_instance(phi: CnfFormula):
    """Two interval graphs (H, K) with phi satisfiable iff H embeds in K.

    Per variable i, H's root has a [k;k] edge to a chooser node w_i plus k
    unit edges to positive nodes and k to negative nodes; edge labels below
    carry the variable and polarity, so a positive node is simulated by K's
    truth node X_i and by every clause node whose clause contains x_i.  The
    exact [k;k] capacities at X_i / NX_i force the off-polarity cohort into
    the truth node and the on-polarity cohort into clause nodes, and the +
    interval on clause edges demands every clause be hit.
    """
    k = phi.occurrences_per_variable
    if k is None:
        raise ShapegraphError("sat_embedding_instance requires a normalized formula")
    n = phi.num_vars
    kk = Interval(k, k)

    h_edges = []
    for i in range(1, n + 1):
        h_edges.append(Edge("r1", "a", f"w{i}", kk))
        for j in range(1, k + 1):
            h_edges.append(Edge("r1", "a", f"x{i}_{j}"))
            h_edges.append(Edge("r1", "a", f"nx{i}_{j}"))
        h_edges.append(Edge(f"w{i}", f"v{i}", "o"))
        for j in range(1, k + 1):
            h_edges.append(Edge(f"x{i}_{j}", f"x{i}", "o"))
            h_edges.append(Edge(f"nx{i}_{j}", f"nx{i}", "o"))
    h = Graph((), h_edges, kind="general")

    k_edges = []
    for i in range(1, n + 1):
        k_edges.append(Edge("r2", "a", f"X{i}", kk))
        k_edges.append(Edge("r2", "a", f"NX{i}", kk))
        k_edges.append(Edge(f"X{i}", f"v{i}", "o", OPT))
        k_edges.append(Edge(f"X{i}", f"x{i}", "o", OPT))
        k_edges.append(Edge(f"NX{i}", f"v{i}", "o", OPT))
        k_edges.append(Edge(f"NX{i}", f"nx{i}", "o", OPT))
    for p, cl in enumerate(phi.clauses, start=1):
        k_edges.append(Edge("r2", "a", f"c{p}", PLUS))
        for lab in sorted({(f"x{abs(l)}" if l > 0 else f"nx{abs(l)}") for l in cl}):
            k_edges.append(Edge(f"c{p}", lab, "o", OPT))
    kg = Graph((), k_edges, kind="general")
    return h, kg


# --- DNF tautology as containment --------------------------------------------


def dnf_tautology(num_vars: int, clauses) -> bool:
    """Brute force: every valuation satisfies some conjunctive clause."""
    for bits in product([False, True], repeat=num_vars):
        if not any(
            all((lit > 0) == bits[abs(lit) - 1] for lit in cl) for cl in clauses
        ):
            return False
    return True


def dnf_containment_instance(num_vars: int, clauses):
    """Deterministic schemas (H, K) with: the DNF is a tautology iff H ⊆ K.

    H types a root with one edge per variable to a valuation node carrying
    optional t/f edges.  K accepts a root when some variable's child is
    degenerate (no t/f edge: r0 family; both edges: r1 family) or when some
    clause is satisfied (rd family with per-variable literal nodes).
    """
    _check_literals(num_vars, clauses)
    n = num_vars
    xs = [f"x{i}" for i in range(1, n + 1)]
    rule, atom = _rbe.concat_all, _rbe.atom

    h_defs = {
        "r": rule([atom((x, "v")) for x in xs]),
        "v": rule([atom(("t", "o"), OPT), atom(("f", "o"), OPT)]),
        "o": _rbe.EPSILON,
    }
    h = Schema(h_defs)

    k_defs = {}
    for i in range(1, n + 1):
        for b in (0, 1):
            k_defs[f"r{b}_{i}"] = rule(
                [atom((x, f"v{b}" if j == i else "v")) for j, x in enumerate(xs, start=1)]
            )
    for j, cl in enumerate(clauses, start=1):
        k_defs[f"rd{j}"] = rule([atom((x, f"w{j}_{i}")) for i, x in enumerate(xs, start=1)])
        for i in range(1, n + 1):
            if i in cl:
                k_defs[f"w{j}_{i}"] = atom(("t", "o"))
            elif -i in cl:
                k_defs[f"w{j}_{i}"] = atom(("f", "o"))
            else:
                k_defs[f"w{j}_{i}"] = rule([atom(("t", "o"), OPT), atom(("f", "o"), OPT)])
    k_defs["v"] = rule([atom(("t", "o"), OPT), atom(("f", "o"), OPT)])
    k_defs["v0"] = _rbe.EPSILON
    k_defs["v1"] = rule([atom(("t", "o")), atom(("f", "o"))])
    k_defs["o"] = _rbe.EPSILON
    return h, Schema(k_defs)


# --- The family with exponential minimal counter-examples --------------------


def exponential_family(n: int):
    """Schemas (H, K): H types full binary L/R trees of depth n whose leaves
    carry optional a_1..a_n edges; K accepts exactly the trees where some
    leaf-set constraint is violated, so counter-examples must distinguish
    exponentially many leaves as n grows."""
    if n < 1:
        raise ValueError("n must be >= 1")

    atom = _rbe.atom

    def leaf_rule(present=None, forced=None):
        # a_1..a_n optional edges to the sink; forced index appears as a
        # plain edge, an absent index is omitted entirely.
        parts = []
        for q in range(1, n + 1):
            if present is not None and q == present:
                parts.append(atom((f"a{q}", "to")))
            elif forced is not None and q == forced:
                continue
            else:
                parts.append(atom((f"a{q}", "to"), OPT))
        return _rbe.concat_all(parts)

    def branch(d, j, child):
        # A depth-j node whose d-child is optionally child_L or child_R and
        # whose other child is a plain t{j+1} subtree; L rules list the L
        # edges first, R rules the R edges last.
        kids = [atom((d, f"{child}_L"), OPT), atom((d, f"{child}_R"), OPT)]
        other = atom(("R" if d == "L" else "L", f"t{j+1}"))
        return _rbe.concat_all(kids + [other] if d == "L" else [other] + kids)

    h_defs = {}
    for i in range(1, n + 1):
        h_defs[f"t{i}"] = _rbe.Concat((atom(("L", f"t{i+1}")), atom(("R", f"t{i+1}"))))
    h_defs[f"t{n+1}"] = leaf_rule()
    h_defs["to"] = _rbe.EPSILON
    h = Schema(h_defs)

    k_defs = {key: val for key, val in h_defs.items() if key != "t1"}
    for i in range(1, n + 1):
        for m in (0, 1):
            for d in ("L", "R"):
                k_defs[f"s{n+1}_{i}_{m}_{d}"] = leaf_rule(
                    present=i if m == 1 else None, forced=i if m == 0 else None
                )
        for j in range(i + 1, n + 1):
            for m in (0, 1):
                for d in ("L", "R"):
                    k_defs[f"s{j}_{i}_{m}_{d}"] = branch(d, j, f"s{j+1}_{i}_{m}")
        k_defs[f"p{i}_{i}_L"] = branch("L", i, f"s{i+1}_{i}_0")
        k_defs[f"p{i}_{i}_R"] = branch("R", i, f"s{i+1}_{i}_1")
        for j in range(1, i):
            for d in ("L", "R"):
                k_defs[f"p{j}_{i}_{d}"] = branch(d, j, f"p{j+1}_{i}")
    return h, Schema(k_defs)


# --- Bag-language union containment ------------------------------------------


def _typed(e: _rbe.Rbe, ty: str) -> _rbe.Rbe:
    """e with every symbol a read as the atom a::ty, rebuilt bottom-up."""
    out = {}
    for x in _rbe.post_order(e):
        if isinstance(x, _rbe.Sym):
            out[x] = _rbe.Sym((x.symbol, ty))
        elif isinstance(x, _rbe.Repeat):
            out[x] = _rbe.Repeat(out[x.body], x.interval)
        elif isinstance(x, _rbe.Nary):
            out[x] = type(x)(tuple(out[p] for p in x.parts))
        else:
            out[x] = x
    return out[e]


def union_containment_instance(e0: _rbe.Rbe, es):
    """Schemas (H, K) with L(e0) ⊆ L(e1 | … | em) iff H ⊆ K.

    Each expression is lifted to edges into a sink type, prefixed by a
    mandatory fresh-label edge so only intended nodes play the root role;
    the alternatives are combined by disjunction.
    """
    es = list(es)
    if not es:
        raise ValueError("the union side must be non-empty")
    used = {str(a) for e in (e0, *es) for a in _rbe.alphabet(e)}
    z = "z"
    while z in used:
        z += "_"
    h = Schema({"t": _rbe.Concat((_rbe.Sym((z, "t0")), _typed(e0, "t0"))), "t0": _rbe.EPSILON})
    union = _rbe.disj_all([_typed(e, "t0") for e in es])
    k = Schema({"t": _rbe.Concat((_rbe.Sym((z, "t0")), union)), "t0": _rbe.EPSILON})
    return h, k
