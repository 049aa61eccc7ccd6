import random
from collections import Counter

import pytest

import shapegraph.embedding
import shapegraph.validation

from shapegraph import (
    Edge,
    Graph,
    Interval,
    ONE,
    max_typing,
    parse_graph,
    parse_schema,
    satisfies_type,
    signature,
    unpack,
    validates,
)
from shapegraph.core import INF, OPT, STAR, Refinement
from shapegraph.errors import GraphKindError
from shapegraph.rbe import Disj, Intersect, Repeat, Sym, atom, concat_all, rbe_to_text
from shapegraph.embedding import feasible_flow
from shapegraph.validation import Typer, _routes, _satisfies_exhaustive, _satisfies_psi, _verify_flat_routing
from shapegraph import Schema
from shapegraph.schema import Box, from_shape_graph

from conftest import (
    BASIC,
    BUG_GRAPH_TEXT,
    BUG_SCHEMA_TEXT,
    brute_matches,
    bug_chain_graph,
    chain_graph,
    chain_schema,
    random_compressed_graph,
    random_flat_rbe,
    random_rbe,
    random_rbe0_schema,
    random_simple_graph,
    reference_typing,
    star_chain_pair,
    users_graph,
    visits,
    with_twins,
)


def holds(g, s, typing, n, t):
    """satisfies_type for node n of g, with its targets at their types in
    typing (untyped when absent)."""
    out = g.out(n)
    return satisfies_type(s, t, out, [typing.get(e.target, frozenset()) for e in out])


def interned(typer, types) -> int:
    """The id of the type set types in typer, interned if new."""
    found = frozenset(types)
    j = typer.ids.setdefault(found, len(typer.sets))
    if j == len(typer.sets):
        typer.sets.append(found)
    return j


def random_compressed_with_zero_edges(rng):
    g = random_compressed_graph(rng, max_nodes=4, max_card=2)
    used = {(e.source, e.label, e.target) for e in g.edges}
    zeros = [
        Edge(a, lab, b, Interval(0, 0))
        for a in g.nodes
        for b in g.nodes
        for lab in ("a", "b")
        if (a, lab, b) not in used and rng.random() < 0.2
    ]
    return Graph(g.nodes, list(g.edges) + zeros, kind="compressed")


def random_non_flat_schema(rng):
    """Each rule a choice between two concatenations of repeated a-atoms or
    choices of a-atoms."""
    types = [f"t{i}" for i in range(rng.randint(1, 3))]

    def atom():
        return Sym(("a", rng.choice(types)))

    def part():
        body = atom() if rng.random() < 0.5 else Disj((atom(), atom()))
        iv = rng.choice(BASIC)
        return body if iv == ONE else Repeat(body, iv)

    def rule():
        return concat_all(part() for _ in range(rng.randint(0, 3)))

    return Schema({t: Disj((rule(), rule())) for t in types})


def exhaustive_twin(s: Schema) -> Schema:
    """s with each rule e read as e & U, where U, the bags with any count
    of each symbol of e and an even count of the fresh symbol _::t, allows
    every bag of e: the same language, but the period (_::t^2)* leaves the
    rule with no box form, so every check takes the exhaustive route."""
    period = Repeat(Repeat(Sym(("_", s.types[0])), Interval(2, 2)), STAR)
    return Schema({t: Intersect((e, concat_all([period] + [Repeat(Sym(a), STAR) for a in s.symbols[t]])))
                   for t, e in s.defs.items()})


def count_routes(monkeypatch) -> dict:
    """Counts of the calls to the flat and the exhaustive route, kept up to
    date in the returned dict."""
    routes = {"flat": 0, "exhaustive": 0}
    for name, attr in (("flat", "_satisfies_flat"), ("exhaustive", "_satisfies_exhaustive")):
        route = getattr(shapegraph.validation, attr)

        def counting(*args, name=name, route=route):
            routes[name] += 1
            return route(*args)

        monkeypatch.setattr(shapegraph.validation, attr, counting)
    return routes


def random_out(rng, labels, types, max_edges, max_width):
    """Out-edges of random labels and widths [k;k], 0 <= k <= max_width,
    with a random type set, possibly empty, for each edge's target."""
    out, choices = [], []
    for _ in range(rng.randint(0, max_edges)):
        k = rng.randint(0, max_width)
        out.append(Edge(None, rng.choice(labels), None, Interval(k, k)))
        choices.append(frozenset(rng.sample(types, rng.randint(0, len(types)))))
    return out, choices


def random_wide_graph(rng, max_nodes):
    """Compressed graph over the label a with edge widths 0..6."""
    nodes = [f"c{i}" for i in range(rng.randint(1, max_nodes))]
    edges = []
    for a in nodes:
        for b in nodes:
            if rng.random() < 0.4:
                k = rng.randint(0, 6)
                edges.append(Edge(a, "a", b, Interval(k, k)))
    return Graph(nodes, edges, kind="compressed")


class TestSignature:
    def test_signature_of_mid_node(self):
        g = chain_graph()
        s = chain_schema()
        typing = max_typing(g, s)
        text = rbe_to_text(signature(g, typing, "n1"))
        assert "b::t1" in text or "b::t2" in text
        assert "c::t3" in text

    def test_compressed_signature_carries_occurrence(self):
        g = parse_graph("graph compressed\nx a y [3;3]\n")
        typing = {"x": frozenset(), "y": frozenset({"t"})}
        text = rbe_to_text(signature(g, typing, "x"))
        assert text == "a::t^3"


class TestMaxTyping:
    def test_worked_example_typing(self):
        g = chain_graph()
        s = chain_schema()
        typing = max_typing(g, s)
        assert typing == {
            "n0": frozenset({"t0"}),
            "n1": frozenset({"t1", "t2"}),
            "n2": frozenset({"t3"}),
        }
        assert validates(g, s)

    def test_bug_example_validates(self):
        g = parse_graph(BUG_GRAPH_TEXT)
        s = parse_schema(BUG_SCHEMA_TEXT)
        assert validates(g, s)
        typing = max_typing(g, s)
        assert "Bug" in typing["bug1"]
        assert "User" in typing["user1"] and "Employee" in typing["emp1"]

    def test_fixed_point(self):
        g = chain_graph()
        s = chain_schema()
        typing = max_typing(g, s)
        refined = {
            n: frozenset(t for t in typing[n] if holds(g, s, typing, n, t))
            for n in g.nodes
        }
        assert refined == typing

    def test_maximality_small_random(self):
        rng = random.Random(19)
        for _ in range(40):
            g = random_simple_graph(rng, max_nodes=5)
            s = random_rbe0_schema(rng, max_types=4)
            typing = max_typing(g, s)
            for n in g.nodes:
                for t in s.types:
                    if t in typing[n]:
                        continue
                    augmented = dict(typing)
                    augmented[n] = typing[n] | {t}
                    assert not holds(g, s, augmented, n, t)

    @pytest.mark.parametrize("kind", ["simple", "compressed"])
    def test_equals_round_by_round_reference(self, kind, monkeypatch):
        routes = count_routes(monkeypatch)
        rng = random.Random(61 if kind == "simple" else 67)
        for _ in range(60):
            if kind == "simple":
                g = random_simple_graph(rng, max_nodes=5)
            else:
                g = random_compressed_with_zero_edges(rng)
            s = random_rbe0_schema(rng, max_types=4)
            expected = reference_typing(g, s)
            assert max_typing(g, s) == expected
            # An equivalent non-flat schema takes the exhaustive route.
            flat = routes["flat"]
            assert max_typing(g, exhaustive_twin(s)) == expected
            assert routes["flat"] == flat
        assert routes["exhaustive"] > 0

    @pytest.mark.parametrize("ring", [False, True], ids=["chain", "ring"])
    def test_failure_chain_work_is_linear(self, monkeypatch, bug_schema, ring):
        # On the ring every bug is on the cycle, so the bugs checked before
        # the failure reaches them are checked again.
        g = bug_chain_graph(200, ring)
        calls = [0]
        check = shapegraph.validation.satisfies_type

        def counting(*args, **kwargs):
            calls[0] += 1
            return check(*args, **kwargs)

        monkeypatch.setattr(shapegraph.validation, "satisfies_type", counting)
        typing = max_typing(g, bug_schema)
        assert typing["bug0"] == frozenset() and typing["user"] == frozenset({"User"})
        # A round-based fixpoint re-checks every node once per hop of the
        # failure, about 200 times here.
        assert calls[0] <= 3 * len(g.nodes) * len(bug_schema.types)

    def test_failure_chain_visits_each_node_once(self, monkeypatch, bug_schema):
        # The chain is acyclic, so successor-first seeding checks each node
        # once, after its successors have settled.
        g = bug_chain_graph(200)
        # The fixpoint asks Refinement.kept once per node it takes off its
        # queue.
        visits = [0]
        kept = Refinement.kept

        def counting(self, sig):
            visits[0] += 1
            return kept(self, sig)

        monkeypatch.setattr(Refinement, "kept", counting)
        typing = Typer(bug_schema).typing(g)
        assert typing["bug0"] == frozenset() and typing["user"] == frozenset({"User"})
        assert visits[0] == len(g.nodes)

    @pytest.mark.parametrize("ring", [False, True], ids=["chain", "ring"])
    def test_validates_stops_at_the_first_untyped_node(self, bug_schema, ring):
        # Successors first: lit, user, then the last bug, which has no
        # reporter and so no type; validates stops there.
        g = bug_chain_graph(200, ring)
        assert validates(g, bug_schema) is False
        assert visits(lambda: validates(g, bug_schema)) == 3
        assert visits(lambda: max_typing(g, bug_schema)) >= len(g.nodes)

    @pytest.mark.parametrize("kind", ["simple", "compressed"])
    def test_validates_agrees_with_the_typing(self, kind):
        # The random graphs have cycles and self-loops; the compressed ones
        # also [0;0] edges.
        rng = random.Random(71 if kind == "simple" else 73)
        verdicts = Counter()
        for _ in range(150):
            if kind == "simple":
                g = random_simple_graph(rng, max_nodes=5)
            else:
                g = random_compressed_with_zero_edges(rng)
            s = random_rbe0_schema(rng, max_types=4)
            verdict = validates(g, s)
            assert verdict == all(max_typing(g, s).values())
            verdicts[verdict] += 1
        assert verdicts[True] and verdicts[False]

    def test_identical_nodes_share_checks(self, monkeypatch, bug_schema):
        calls = [0]
        check = shapegraph.validation.satisfies_type

        def counting(*args, **kwargs):
            calls[0] += 1
            return check(*args, **kwargs)

        monkeypatch.setattr(shapegraph.validation, "satisfies_type", counting)
        counts = []
        for n in (20, 200):
            calls[0] = 0
            typing = max_typing(users_graph(n), bug_schema)
            assert typing["lit"] == frozenset({"Literal"})
            assert all(typing[f"user{i}"] == frozenset({"User"}) for i in range(n))
            counts.append(calls[0])
        # Two out-signatures occur, the literal's and a user's, since the
        # literal is checked before every user (successors first).
        assert counts[0] == counts[1] <= len(bug_schema.types) * 2

    def test_label_reject_skips_checks(self, monkeypatch):
        # A type is dropped unchecked when one of the node's out-edges has
        # no symbol of it, of the edge's label and a type of the edge's
        # target: q has no a-symbol, and s matches x's label a, but y's set
        # holds no p, so both are dropped at x.  At a node with no
        # out-edge, a type is dropped when every box of its rule needs
        # one: p and q at y, while r's rule has no box form and w, s and
        # u need no edge.
        checked = set()
        check = shapegraph.validation.satisfies_type

        def recording(s, ty, out, choices, *solved):
            checked.add((tuple(e.label for e in out), ty))
            return check(s, ty, out, choices, *solved)

        monkeypatch.setattr(shapegraph.validation, "satisfies_type", recording)
        s = parse_schema("p -> a::u\nq -> b::u\nr -> (a::u | b::u)*\nw -> c::u?\n"
                         "s -> a::p?\nu -> eps\n")
        g = parse_graph("graph simple\nx a y\n")
        assert max_typing(g, s) == {"x": frozenset({"p", "r"}), "y": frozenset({"r", "w", "s", "u"})}
        assert checked == {(("a",), "p"), (("a",), "r"), ((), "r"), ((), "w"), ((), "s"), ((), "u")}

    def test_edgeless_node_skips_types_that_need_an_edge(self, monkeypatch):
        # Each box of t's rule needs an out-edge, one of label a and one of
        # label b, so the edgeless y is not checked against t; z's box takes
        # no edge, and w's rule has no box form, so both are checked there.
        checked = set()
        check = shapegraph.validation.satisfies_type

        def recording(s, ty, out, choices, *solved):
            checked.add((tuple(e.label for e in out), ty))
            return check(s, ty, out, choices, *solved)

        monkeypatch.setattr(shapegraph.validation, "satisfies_type", recording)
        s = parse_schema("t -> a::u | b::u\nz -> a::u?\nw -> (a::u, b::u)*\nu -> eps\n")
        g = parse_graph("graph simple\nx a y\n")
        assert max_typing(g, s) == {"x": frozenset({"t", "z"}), "y": frozenset({"z", "w", "u"})}
        assert checked == {(("a",), "t"), (("a",), "z"), (("a",), "w"), ((), "z"), ((), "w"), ((), "u")}

    def test_check_walks_types_in_schema_order(self, monkeypatch):
        # A type set is a frozenset, whose order follows string hashing;
        # the checks, and so the work done before a cap is hit, must not.
        checked = []
        check = shapegraph.validation.satisfies_type

        def recording(s, ty, out, choices, *solved):
            checked.append((tuple(e.label for e in out), ty))
            return check(s, ty, out, choices, *solved)

        monkeypatch.setattr(shapegraph.validation, "satisfies_type", recording)
        names = ["zeta", "alpha", "m7", "b", "t10", "t2", "q", "kappa", "c3", "omega", "d", "e9"]
        # Distinct definitions, so that no type shares another's check.
        s = parse_schema("".join(f"{t} -> a::u^[0;{i + 1}]\n" for i, t in enumerate(names)) + "u -> eps\n")
        g = parse_graph("graph simple\nx a y\n")
        assert max_typing(g, s) == {"x": frozenset(names), "y": frozenset(s.types)}
        assert checked == [((), t) for t in s.types] + [(("a",), t) for t in names]

    def test_types_sharing_a_definition_share_one_check(self, monkeypatch):
        # satisfies_type reads a type only through its definition, so the
        # twelve types with the rule a::u? are decided by one call per
        # out-signature, made for the first of them in Schema.types order.
        checked = []
        check = shapegraph.validation.satisfies_type

        def recording(s, ty, out, choices, *solved):
            checked.append((tuple(e.label for e in out), ty))
            return check(s, ty, out, choices, *solved)

        monkeypatch.setattr(shapegraph.validation, "satisfies_type", recording)
        names = ["zeta", "alpha", "m7", "b", "t10", "t2", "q", "kappa", "c3", "omega", "d", "e9"]
        s = parse_schema("".join(f"{t} -> a::u?\n" for t in names) + "u -> eps\n")
        g = parse_graph("graph simple\nx a y\nz a y\nz a w\n")
        assert max_typing(g, s) == {"x": frozenset(names), "y": frozenset(s.types),
                                    "z": frozenset(), "w": frozenset(s.types)}
        assert checked == [((), "zeta"), ((), "u"), (("a",), "zeta"), (("a", "a"), "zeta")]

    def test_check_equals_checking_every_type(self):
        # Typer.check filters types per out-edge and shares one verdict per
        # definition; a loop that asks satisfies_type about every type must
        # agree.  Rules are flat and not, some repeat another's definition,
        # some hold a [0;0] atom, and targets may be untyped (set {}).
        rng = random.Random(24)
        for _ in range(80):
            types = [f"t{i}" for i in range(rng.randint(1, 5))]
            syms = [(lab, t) for lab in "ab" for t in types]
            defs = {}
            for t in types:
                r = rng.random()
                if defs and r < 0.25:
                    defs[t] = rng.choice(list(defs.values()))
                elif r < 0.4:
                    defs[t] = concat_all([Repeat(Sym(rng.choice(syms)), Interval(0, 0)),
                                          Repeat(Sym(rng.choice(syms)), rng.choice(BASIC))])
                else:
                    defs[t] = random_flat_rbe(rng, syms, depth=2)
            s = Schema(defs)
            typer = Typer(s)
            for _ in range(8):
                sig = tuple(sorted(
                    (rng.choice("abc"), rng.randint(0, 3), interned(typer, rng.sample(types, rng.randint(0, len(types)))))
                    for _ in range(rng.randint(0, 3))))
                out = [Edge(None, lab, None, Interval(k, k)) for lab, k, _ in sig]
                choices = [typer.sets[j] for _, _, j in sig]
                expected = frozenset(t for t in s.types if satisfies_type(s, t, out, choices))
                assert typer.check(sig) == expected

    def test_shared_typer_on_twin_nodes_equals_reference(self):
        # Compressed graphs put out-edges of cardinality k > 1 in the memo
        # keys, next to the simple graphs' k = 1.
        rng = random.Random(79)
        for _ in range(25):
            s = random_rbe0_schema(rng, max_types=4)
            typer = Typer(s)
            for _ in range(3):
                for base in (random_simple_graph(rng, max_nodes=4), random_compressed_graph(rng, max_nodes=3)):
                    g = with_twins(base, rng)
                    expected = reference_typing(g, s)
                    assert typer.typing(g) == expected
                    # The search's early exit, on the same index lists.
                    index = {n: i for i, n in enumerate(g.nodes)}
                    out = [sorted((e.label, e.occur.min, index[e.target]) for e in g.out(n)) for n in g.nodes]
                    inc = [[index[e.source] for e in g.edges if e.target == n] for n in g.nodes]
                    stopped = typer.fixpoint(out, inc, stop_untyped=True) is None
                    assert stopped == (not all(expected.values()))

    def test_requires_data_graph_kind(self):
        g = Graph(("x",), [Edge("x", "a", "x", Interval(0, 3))], kind="general")
        s = parse_schema("t -> a::t*\n")
        with pytest.raises(GraphKindError):
            validates(g, s)


class TestCompressed:
    def test_compressed_validation(self):
        # A hub with three parallel children, compressed to cardinality 3.
        g = parse_graph("graph compressed\nhub a leaf [3;3]\n")
        s = parse_schema("t -> a::u*\nu -> eps\n")
        assert validates(g, s)
        s2 = parse_schema("t -> a::u?\nu -> eps\n")
        assert not validates(g, s2)

    def test_wide_node_network_does_not_grow(self, monkeypatch):
        network = shapegraph.embedding._Network
        init, add = network.__init__, network.add
        nodes, arcs = [0], [0]

        def counting_init(self, n):
            nodes[0] += n
            init(self, n)

        def counting_add(self, a, b, cap):
            arcs[0] += 1
            return add(self, a, b, cap)

        monkeypatch.setattr(network, "__init__", counting_init)
        monkeypatch.setattr(network, "add", counting_add)

        def sizes(valid, invalid):
            out = []
            for width in (65, 10**3, 10**6):
                g = parse_graph(f"graph compressed\nhub a leaf [{width};{width}]\n")
                nodes[0] = arcs[0] = 0
                assert validates(g, parse_schema(valid))
                assert not validates(g, parse_schema(invalid))
                out.append((nodes[0], arcs[0]))
            return out

        # One admissible atom: the edge is routed straight to it.
        assert sizes("t -> a::u*\nu -> eps\n", "t -> a::u\nu -> eps\n") == [(0, 0)] * 3
        # Two admissible atoms: the same networks at every width, only the
        # supplies grow.
        two = sizes("t -> a::u* , a::w*\nu -> eps\nw -> eps\n", "t -> a::u , a::w\nu -> eps\nw -> eps\n")
        assert two[0][1] > 0 and two == [two[0]] * 3

    def test_unmatched_atom_needs_no_network(self, monkeypatch):
        calls = [0]
        maxflow = shapegraph.embedding._Network.maxflow

        def counting(self, s, t):
            calls[0] += 1
            return maxflow(self, s, t)

        monkeypatch.setattr(shapegraph.embedding._Network, "maxflow", counting)
        # The b-atom needs one edge and no out-edge has label b.
        g = parse_graph("graph compressed\nx a y [2;2]\n")
        s = parse_schema("t -> a::u* , b::u\nu -> eps\n")
        typing = {"x": frozenset({"t", "u"}), "y": frozenset({"t", "u"})}
        assert not holds(g, s, typing, "x", "t")
        assert not holds(g, s, typing, "y", "t")
        assert calls[0] == 0

    def test_simple_hub_validates(self, bug_schema):
        edges = [Edge("user", "name", "lit")]
        for i in range(81):
            edges += [Edge(f"bug{i}", "descr", "lit"), Edge(f"bug{i}", "reportedBy", "user")]
        edges += [Edge("bug0", "related", f"bug{i}") for i in range(1, 81)]
        g = Graph((), edges, kind="simple")
        assert len(g.out("bug0")) == 82
        assert validates(g, bug_schema)

    def test_copies_of_an_edge_take_their_own_types(self):
        g = parse_graph("graph compressed\nx a y [2;2]\n")
        s = parse_schema("t -> (a::u , a::w) | b::z\nu -> eps\nw -> eps\nz -> eps\n")
        typing = {"x": frozenset(), "y": frozenset({"u", "w"})}
        assert holds(g, s, typing, "x", "t")
        assert validates(g, s) and validates(unpack(g)[0], s)

    def test_agrees_with_unpack_under_non_flat_schemas(self):
        rng = random.Random(33)
        for _ in range(60):
            f = random_compressed_graph(rng, max_nodes=3, labels=("a",), max_card=3)
            s = random_non_flat_schema(rng)
            assert validates(f, s) == validates(unpack(f)[0], s)

    def test_copies_keep_their_originals_types(self):
        # A node's types depend only on its out-edges, and every copy has
        # its original's, so it has its original's types too: on cycles,
        # over [0;0] edges, under flat and non-flat rules.
        rng = random.Random(41)
        typed_copies = 0
        for _ in range(80):
            f = random_compressed_with_zero_edges(rng)
            u, cmap = unpack(f)
            for s in (random_rbe0_schema(rng), random_non_flat_schema(rng)):
                tu, tf = max_typing(u, s), max_typing(f, s)
                assert all(tu[m] == tf[cmap[m]] for m in u.nodes)
                typed_copies += sum(1 for m in u.nodes if m != cmap[m] and tu[m])
        assert typed_copies >= 20

    def test_zero_cardinality_edge_is_epsilon(self):
        g = Graph(("x", "y"), [Edge("x", "a", "y", Interval(0, 0))], kind="compressed")
        s = parse_schema("t -> eps\n")
        typing = max_typing(g, s)
        assert typing["x"] == frozenset({"t"})

    def test_satisfies_type_on_out_edges(self):
        # The check reads only the out-edges and their targets' type sets.
        s = parse_schema("t -> eps\n")
        zero = [Edge("x", "a", "y", Interval(0, 0))]
        assert satisfies_type(s, "t", zero, [frozenset()])
        assert not satisfies_type(s, "t", [Edge("x", "a", "y")], [frozenset({"t"})])
        with pytest.raises(ValueError):
            satisfies_type(s, "u", zero, [frozenset()])


GENERAL = [Interval(2, 4), Interval(3, INF), Interval(2, 2), Interval(0, 2), Interval(1, 3), ONE, OPT, STAR]


def random_box_schema(rng):
    """Rules over labels a and b, each one box or a choice of two, with up
    to two atoms per label and general intervals: every part has a box
    form, so the schema has thresholds."""
    types = [f"t{i}" for i in range(rng.randint(1, 3))]

    def box():
        return concat_all([atom((lab, rng.choice(types)), rng.choice(GENERAL))
                           for lab in "ab" for _ in range(rng.randint(0, 2))])

    return Schema({t: box() if rng.random() < 0.5 else Disj((box(), box())) for t in types})


class TestThresholds:
    @pytest.mark.parametrize("text, thresholds", [
        ("t -> a::u^[1;2]", {"a": 3}),  # F + 1: past 2, a-edges fit no atom
        ("t -> a::u^[3;inf]", {"a": 3}),  # F + L: below 3, the min fails
        ("t -> a::u^[2;4], a::w^[3;inf], b::u?", {"a": 7, "b": 2}),
        ("t -> a::u*, b::u+ | a::u^[0;2]", {"a": 3, "b": 1}),
        ("t -> eps", {}),  # every label reads as 1
        ("t -> (a::u, b::u?)*", None),  # no box form
    ])
    def test_read_off_the_boxes(self, text, thresholds):
        assert parse_schema(text + "\nu -> eps\nw -> eps\n").thresholds == thresholds

    @pytest.mark.parametrize("rule, k, held", [
        ("a::u^[1;2]", 2, True), ("a::u^[1;2]", 3, False), ("a::u^[1;2]", 30, False),
        ("a::u^[3;inf]", 2, False), ("a::u^[3;inf]", 3, True), ("a::u^[3;inf]", 30, True),
    ])
    def test_cards_at_the_threshold(self, rule, k, held):
        s = parse_schema(f"t -> {rule}\nu -> eps\n")
        g = parse_graph(f"graph compressed\nx a y [{k};{k}]\n")
        assert ("t" in max_typing(g, s)["x"]) == held

    def test_agrees_with_typing_without_thresholds(self, monkeypatch):
        # Cards up to 3 times each label's threshold, plus 2, on random box
        # schemas: cutting each card to its threshold changes no type.
        rng = random.Random(39)
        cut = 0
        for _ in range(300):
            s = random_box_schema(rng)
            th = s.thresholds
            nodes = [f"c{i}" for i in range(rng.randint(1, 4))]
            edges = []
            for a in nodes:
                for b in nodes:
                    for lab in "ab":
                        if rng.random() < 0.4:
                            k = rng.randint(0, 3 * th.get(lab, 1) + 2)
                            cut += k > th.get(lab, 1)
                            edges.append(Edge(a, lab, b, Interval(k, k)))
            g = Graph(nodes, edges, kind="compressed")
            with monkeypatch.context() as m:
                m.setattr(Schema, "thresholds", None)
                exact = max_typing(g, Schema(s.defs))
            assert max_typing(g, s) == exact
        assert cut > 500

    def test_memo_does_not_grow_with_widths(self):
        # Every card at or past its label's threshold: multiplied by 7, the
        # graph is typed through the same memo entries, one per kind of node.
        s = parse_schema("Box -> item::Item*, tag::Tag^[2;inf]\nItem -> val::Leaf+, tag::Tag?\n"
                         "Tag -> eps\nLeaf -> eps\n")
        assert s.thresholds == {"item": 1, "tag": 2, "val": 1}
        rng = random.Random(7)
        # 40 boxes over 5 items: (source, label, target, card).
        edges = [(f"b{i}", "item", f"i{i % 5}", rng.randint(1, 60)) for i in range(40)]
        edges += [(f"b{i}", "tag", "tag", rng.randint(2, 9)) for i in range(40)]
        edges += [(f"i{i}", "val", "leaf", rng.randint(1, 60)) for i in range(5)]
        assert len({k for _, lab, _, k in edges if lab == "item"}) > 20  # widths differ
        sizes = []
        for factor in (1, 7):
            graph = [Edge(a, lab, b, Interval(k * factor, k * factor)) for a, lab, b, k in edges]
            typer = Typer(s)
            typing = typer.typing(Graph((), graph, kind="compressed"))
            assert all(typing[f"b{i}"] == {"Box"} for i in range(40))
            sizes.append(len(typer.memo))
        assert sizes == [3, 3]


class TestRouteAgreement:
    @staticmethod
    def assert_routes_agree(g, s, routes):
        typing = {n: frozenset(s.types) for n in g.nodes}
        # An equivalent non-flat definition forces the exhaustive route.
        wrapped = exhaustive_twin(s)
        for n in g.nodes:
            out = [e for e in g.out(n) if e.occur.max != 0]
            choices = [sorted(typing[e.target]) for e in out]
            for t in s.types:
                flow = satisfies_type(s, t, out, choices)
                # Presburger arithmetic as an independent third opinion.
                arith = _satisfies_psi(out, choices, s.defs[t])
                before = dict(routes)
                exhaustive = satisfies_type(wrapped, t, out, choices)
                assert routes == {"flat": before["flat"], "exhaustive": before["exhaustive"] + 1}
                assert flow == arith == exhaustive

    def test_flow_vs_arithmetic_vs_exhaustive(self, monkeypatch):
        routes = count_routes(monkeypatch)
        rng = random.Random(29)
        for _ in range(80):
            g = random_simple_graph(rng, max_nodes=3, labels=("a",))
            self.assert_routes_agree(g, random_rbe0_schema(rng, max_types=3, labels=("a",)), routes)

    def test_flow_vs_arithmetic_vs_exhaustive_on_wide_nodes(self, monkeypatch):
        # Smaller than above: the Presburger search grows fast with widths.
        routes = count_routes(monkeypatch)
        rng = random.Random(31)
        for _ in range(80):
            g = random_wide_graph(rng, max_nodes=2)
            self.assert_routes_agree(g, random_rbe0_schema(rng, max_types=2, labels=("a",)), routes)

    @pytest.mark.parametrize("n", [17, 20, 80])
    def test_non_flat_hubs_decided_exactly(self, n):
        # Every one of the 2^n type choices behind the hub's edges is a
        # candidate bag; only the vectors of the rule are tried.
        nodes = ["hub"] + [f"c{i}" for i in range(n)]
        g = Graph(nodes, [Edge("hub", "a", f"c{i}") for i in range(n)], kind="simple")
        typing = {m: frozenset({"u", "w"}) for m in g.nodes}
        star = parse_schema("t -> (a::u | a::w)*\nu -> eps\nw -> eps\n")
        assert holds(g, star, typing, "hub", "t")
        assert validates(g, star)
        if n > 17:
            few = parse_schema("t -> (a::u | a::w)^[0;5]\nu -> eps\nw -> eps\n")
            assert not holds(g, few, typing, "hub", "t")


class TestFlatRoute:
    @staticmethod
    def count_flows(monkeypatch) -> list:
        """[the number of flows validation has solved since the call]."""
        calls = [0]

        def counting(*args):
            calls[0] += 1
            return feasible_flow(*args)

        monkeypatch.setattr(shapegraph.validation, "feasible_flow", counting)
        return calls

    def test_agrees_with_the_flow_alone(self, monkeypatch):
        # The decision on a box fails an edge that finds no atom of its
        # label and type, and skips the flow when no edge has a choice or
        # when every edge with one can route to an unbounded atom and the
        # totals then hold; the flow on every edge's full list of atoms must
        # give the same verdict, and every routing it finds must pass the
        # independent check.  Labels name several atoms, and symbols
        # repeat.  Boxes whose only choices keep an unbounded atom are
        # counted by whether the flow was skipped or decided, either way.
        calls = self.count_flows(monkeypatch)
        rng = random.Random(25)
        shared = repeated = 0
        unbounded = Counter()
        for _ in range(3000):
            labels = "abc"[:rng.randint(1, 3)]
            types = [f"t{i}" for i in range(rng.randint(1, 3))]
            kinds = rng.choice([BASIC, [OPT, STAR]])  # in half the boxes no atom has a min
            atoms = [((rng.choice(labels), rng.choice(types)), rng.choice(kinds))
                     for _ in range(rng.randint(0, 6))]
            atoms += [(a, rng.choice(kinds)) for a, _ in rng.sample(atoms, rng.randint(0, len(atoms)) // 2)]
            rng.shuffle(atoms)
            out, choices = random_out(rng, labels, types, max_edges=4, max_width=6)
            live = [i for i, e in enumerate(out) if e.occur.min]  # satisfies_type drops the rest
            out, choices = [out[i] for i in live], [choices[i] for i in live]
            feeds = [[j for j, ((lab, t), _) in enumerate(atoms) if e.label == lab and t in ch]
                     for e, ch in zip(out, choices)]
            flow = feasible_flow([(e.occur.min, True, f) for e, f in zip(out, feeds)],
                                 [(iv.min, iv.max) for _, iv in atoms])
            before = calls[0]
            assert _routes(out, choices, Box(atoms)) == (flow is not None)
            if flow is not None:
                assert _verify_flat_routing(out, choices, atoms, [
                    ((i, j), x) for i, (f, row) in enumerate(zip(feeds, flow)) for j, x in zip(f, row)])
            multi = [f for f in feeds if len(f) > 1]
            if all(feeds) and multi and all(any(atoms[j][1].max == INF for j in f) for f in multi):
                unbounded["decided" if calls[0] > before else "skipped", flow is not None] += 1
            shared += len({lab for (lab, _), _ in atoms}) < len({a for a, _ in atoms})
            repeated += len({a for a, _ in atoms}) < len(atoms)
        assert shared > 500 and repeated > 500
        assert unbounded[("skipped", False)] == 0
        assert min(unbounded[key] for key in [("skipped", True), ("decided", True), ("decided", False)]) > 50

    def test_compressed_box_needs_no_flow(self, monkeypatch):
        # Every item edge feeds only item::Item and the tag edge only
        # tag::Tag, so each check has one routing and no flow is solved,
        # whatever the widths.
        calls = self.count_flows(monkeypatch)
        rng = random.Random(5)
        s = parse_schema("Box -> item::Item*, tag::Tag+\nItem -> val::Lit\nTag -> eps\nLit -> eps\n")
        widths = [rng.randint(1, 30) for _ in range(20)]
        lines = [f"box item i{i} [{k};{k}]" for i, k in enumerate(widths)]
        lines += ["box tag tag [2;2]"] + [f"i{i} val lit" for i in range(20)]
        g = parse_graph("graph compressed\n" + "\n".join(lines) + "\n")
        assert max_typing(g, s)["box"] == frozenset({"Box"})
        assert calls[0] == 0

    def test_choice_between_atoms_reaches_the_flow(self, monkeypatch):
        # y and w read as u and as v, so each of x's a-edges can feed a::u
        # and a::v, both [1;1]: a choice the flow decides.
        calls = self.count_flows(monkeypatch)
        s = parse_schema("X -> a::u, a::v\nu -> eps\nv -> eps\n")
        g = parse_graph("graph simple\nx a y\nx a w\n")
        assert max_typing(g, s)["x"] == frozenset({"X"})
        assert calls[0] == 1

    def test_bounded_choice_that_fits_its_first_atom_needs_no_flow(self, monkeypatch):
        # y reads as u and v, so x's a-edge can feed a::u^[0;2] and a::v?,
        # both bounded.  Sent to its first atom, a::u, every total holds:
        # that routing is the witness.
        calls = self.count_flows(monkeypatch)
        s = parse_schema("t -> a::u^[0;2], a::v?\nu -> eps\nv -> eps\n")
        typing = max_typing(parse_graph("graph simple\nx a y\n"), s)
        assert typing["y"] >= {"u", "v"} and typing["x"] == frozenset({"t"})
        assert calls[0] == 0

    def test_edge_that_keeps_no_atom_fails_before_the_flow(self, monkeypatch):
        # x's a-edge has a choice between the bounded a::u and a::v of the
        # first box, but its b-edge, to z that is not a w, keeps no atom
        # there, and its a-edge keeps none in the second box: both boxes
        # fail without a flow.
        calls = self.count_flows(monkeypatch)
        s = parse_schema("t -> a::u, a::v, b::w | b::u\nu -> eps\nv -> eps\nw -> c::u\n")
        typing = max_typing(parse_graph("graph simple\nx a y\nx b z\n"), s)
        assert typing["z"] == frozenset({"u", "v"}) and typing["x"] == frozenset()
        assert calls[0] == 0

    def test_choice_with_an_unbounded_atom_needs_no_flow(self, monkeypatch):
        # In the star-chain unfolding, y reads as v2 and as v4, so x's
        # a-edge can feed a::v2* and a::v4*: it goes to either, no bound
        # caps it, and the totals hold, so no flow is solved for x.  The
        # check of y alone solves one: its b-edge can feed b::v5 and
        # b::v6*, and sent to b::v6* it leaves b::v5 below its min.
        calls = self.count_flows(monkeypatch)
        s = from_shape_graph(star_chain_pair()[1])
        g = parse_graph("graph simple\nx a y\ny b z\n")
        typing = max_typing(g, s)
        assert typing["y"] == frozenset({"v2", "v4"}) and "v0" in typing["x"]
        assert calls[0] == 1
        assert max_typing(parse_graph("graph simple\nx a y\nx a w\n"),
                          parse_schema("X -> a::u*, a::v*\nu -> eps\nv -> eps\n"))["x"] == frozenset({"X"})
        assert calls[0] == 1

    def test_typer_solves_each_routing_instance_once(self, monkeypatch):
        # y reads as u, v and w, y2 and y3 as u and v, so x and z have
        # different out-signatures, but each of their a-edges keeps a::u
        # and a::v: one routing instance, solved once per Typer.  A second
        # Typer solves it again.
        calls = self.count_flows(monkeypatch)
        s = parse_schema("X -> a::u, a::v\nu -> c::w?\nv -> c::w?\nw -> eps\n")
        g = parse_graph("graph simple\nx a y\nx a y2\nz a y2\nz a y3\ny2 c y\ny3 c y\n")
        typing = max_typing(g, s)
        assert typing["y"] == frozenset({"u", "v", "w"}) and typing["y2"] == frozenset({"u", "v"})
        assert typing["x"] == typing["z"] == frozenset({"X"})
        assert calls[0] == 1
        max_typing(g, s)
        assert calls[0] == 2


class TestDisjunctionSplit:
    @staticmethod
    def assert_whole_rule_agrees(rng, rule):
        """satisfies_type on t0 -> rule equals the exhaustive route over the
        whole rule, on random out-edges."""
        s = Schema({"t0": rule, "t1": concat_all([Sym(("a", "t1")), Repeat(Sym(("b", "t0")), STAR)])})
        out, choices = random_out(rng, "ab", ["t0", "t1"], max_edges=3, max_width=3)
        live = [i for i, e in enumerate(out) if e.occur.max]
        whole = all(choices[i] for i in live) and _satisfies_exhaustive(
            [out[i] for i in live], [choices[i] for i in live], s.defs["t0"], s.symbols["t0"])
        assert satisfies_type(s, "t0", out, choices) == whole, rbe_to_text(rule)

    def test_equals_the_exhaustive_route_on_the_whole_rule(self):
        # Each part of a disjunction is decided on its own, flat parts by
        # routing; the exhaustive route over the whole rule must agree.
        rng = random.Random(26)
        syms = [(lab, t) for lab in "ab" for t in ("t0", "t1")]

        def part():
            if rng.random() < 0.5:  # flat
                return concat_all([Repeat(Sym(rng.choice(syms)), iv) for iv in rng.choices(BASIC, k=rng.randint(0, 3))])
            return random_flat_rbe(rng, syms, depth=2)

        for _ in range(400):
            self.assert_whole_rule_agrees(rng, Disj(tuple(part() for _ in range(rng.randint(2, 3)))))

    def test_boxes_equal_the_exhaustive_route(self):
        # Rules of every node kind, meets and nested repeats included, so
        # that each box is routed and each part with no box form is matched.
        rng = random.Random(28)
        syms = [(lab, t) for lab in "ab" for t in ("t0", "t1")]
        for _ in range(600):
            self.assert_whole_rule_agrees(rng, random_rbe(rng, syms, depth=rng.randint(1, 4)))
