import random
import time
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from shapegraph import (
    Edge,
    Graph,
    GraphKindError,
    INF,
    Interval,
    ONE,
    OPT,
    PLUS,
    ParseError,
    STAR,
    ZERO,
    interval_sum,
    max_simulation,
    max_typing,
    parse_graph,
    parse_interval_token,
    parse_schema,
    serialize_graph,
    unpack,
    validates,
    verify_witness,
)
from shapegraph.core import _kind_fault, index_lists
from shapegraph.errors import WorkCapError

from conftest import (
    BUG_GRAPH_TEXT,
    BUG_SCHEMA_TEXT,
    random_compressed_graph,
    random_rbe0_schema,
    random_shape_graph,
    random_simple_graph,
    reference_typing,
    visits,
)

intervals = st.builds(
    lambda lo, extra: Interval(lo, INF if extra is None else lo + extra),
    st.integers(min_value=0, max_value=5),
    st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
)


class TestIntervalLaws:
    @given(intervals, intervals)
    def test_add_commutative(self, a, b):
        assert a + b == b + a

    @given(intervals, intervals, intervals)
    def test_add_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(intervals)
    def test_zero_neutral(self, a):
        assert a + ZERO == a
        assert interval_sum([]) == ZERO

    @given(intervals)
    def test_subset_reflexive(self, a):
        assert a.subset(a)

    @given(intervals, intervals)
    def test_subset_antisymmetric(self, a, b):
        if a.subset(b) and b.subset(a):
            assert a == b

    @given(intervals, intervals, intervals)
    def test_subset_transitive(self, a, b, c):
        if a.subset(b) and b.subset(c):
            assert a.subset(c)

    def test_membership_and_basics(self):
        assert 0 in OPT and 1 in OPT and 2 not in OPT
        assert 7 in STAR and 0 not in PLUS
        assert ONE.basic and OPT.basic and PLUS.basic and STAR.basic
        assert not Interval(2, 3).basic
        assert Interval(2, 2).singleton

    def test_basic_grid(self):
        shorthands = {(iv.min, iv.max) for iv in (ONE, OPT, PLUS, STAR)}
        for lo in range(4):
            for hi in [*range(lo, 4), INF]:
                assert Interval(lo, hi).basic == ((lo, hi) in shorthands), (lo, hi)

    def test_parse_interval_tokens(self):
        assert parse_interval_token("?") == OPT
        assert parse_interval_token("*") == STAR
        assert parse_interval_token("+") == PLUS
        assert parse_interval_token("1") == ONE
        assert parse_interval_token("[2;3]") == Interval(2, 3)
        assert parse_interval_token("[2;*]") == Interval(2, INF)

    def test_repeated_token_shares_one_interval(self):
        assert parse_interval_token("[4;4]") is parse_interval_token("[4;4]")
        assert parse_interval_token("7") is parse_interval_token("7")


class TestGraphText:
    def test_empty_graph(self):
        g = parse_graph("graph simple\n")
        assert g.nodes == () and g.edges == ()

    def test_roundtrip_simple(self):
        text = "graph simple\nnode lonely\nx a y\ny b x\n"
        g = parse_graph(text)
        assert parse_graph(serialize_graph(g)) == g
        assert set(g.nodes) == {"lonely", "x", "y"}

    def test_node_named_node_round_trips(self):
        # Only a two-token line declares a node, so the word node can also
        # name an edge's source, label or target.
        for g in (Graph((), [Edge("node", "a", "x")], kind="simple"),
                  Graph(("node", "y"), [Edge("x", "node", "node"), Edge("node", "node", "node")], kind="simple"),
                  Graph(("node", "lonely"), [Edge("node", "a", "node")], kind="shape")):
            text = serialize_graph(g)
            assert parse_graph(text) == g, text
        assert parse_graph("graph simple\nnode node\n").nodes == ("node",)

    def test_comments_and_occurrences(self):
        g = parse_graph("graph shape\n# comment\nx a y *\nx b y ?\n")
        occ = {e.label: e.occur for e in g.edges}
        assert occ == {"a": STAR, "b": OPT}

    def test_shape_rejects_nonbasic(self):
        with pytest.raises((ParseError, GraphKindError)):
            parse_graph("graph shape\nt a t [2;3]\n")

    def test_simple_rejects_parallel(self):
        with pytest.raises((ParseError, GraphKindError)):
            parse_graph("graph simple\nx a y\nx a y\n")

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_graph("x a y\n")

    def test_negative_bare_card_names_its_line(self):
        # A bare k below 0 is a bad token, as [3;1] is, and names its line.
        for tok in ("-1", "[3;1]"):
            with pytest.raises(ParseError) as err:
                parse_graph(f"graph compressed\nx a y {tok}\n")
            assert err.value.line == 2, tok

    @given(st.integers(min_value=0, max_value=2**31))
    def test_roundtrip_random(self, seed):
        rng = random.Random(seed)
        g = random_compressed_graph(rng)
        assert parse_graph(serialize_graph(g)) == g

    def test_hub_builds_in_linear_time(self):
        # Growing a node's edge tuple one edge at a time is quadratic in its degree.
        n = 10**5
        edges = [Edge("h", "a", f"c{i}") for i in range(n)]
        start = time.monotonic()
        g = Graph((), edges, kind="simple")
        assert time.monotonic() - start < 10.0
        assert len(g.out("h")) == n and g.out("h")[:2] == tuple(edges[:2])
        assert [e for e in g.edges if e.target == "c7"] == [edges[7]]


def random_general_graph(rng: random.Random, max_nodes=4, labels=("a", "b")):
    """Edges with any occurrence, parallel same-label edges and repeats."""
    nodes = [f"n{i}" for i in range(rng.randint(1, max_nodes))]
    edges = []
    for _ in range(rng.randint(0, 8)):
        lo = rng.randint(0, 3)
        occur = Interval(lo, rng.choice([lo, lo + 2, INF]))
        edges.append(Edge(rng.choice(nodes), rng.choice(labels), rng.choice(nodes), occur))
    return Graph(nodes, edges + rng.sample(edges, min(2, len(edges))), kind="general")


def with_isolated_nodes(g: Graph) -> Graph:
    """g with two isolated nodes, declared by node lines of its text."""
    header, rest = serialize_graph(g).split("\n", 1)
    return parse_graph(f"{header}\nnode i0\n{rest}node i1\n")


def fields(e: Edge) -> tuple:
    return (e.source, e.label, e.target, e.occur)


class TestEdgeAndGraphContract:
    MAKERS = {"simple": random_simple_graph, "shape": random_shape_graph,
              "compressed": random_compressed_graph, "general": random_general_graph}

    def graphs(self, kind, count=40):
        rng = random.Random(kind)
        return [with_isolated_nodes(self.MAKERS[kind](rng)) for _ in range(count)]

    def test_construction(self):
        e = Edge(source="x", label="a", target="y")
        assert e == Edge("x", "a", "y", ONE) and e.occur is ONE
        assert Edge("x", "a", "y", occur=STAR) == Edge("x", "a", "y", STAR) != e
        assert repr(e) == "Edge(source='x', label='a', target='y', occur=Interval(min=1, max=1))"

    @pytest.mark.parametrize("kind", ["simple", "shape", "compressed", "general"])
    def test_edges_compare_and_hash_by_fields(self, kind):
        for g in self.graphs(kind):
            assert g.kind == kind and {"i0", "i1"} <= set(g.nodes)
            for a in g.edges:
                assert a != fields(a) and fields(a) != a
                assert hash(a) == hash(Edge(*fields(a)))
                for b in g.edges:
                    assert (a == b) == (fields(a) == fields(b)) == (not a != b)
            rebuilt = [Edge(*fields(e)) for e in g.edges]
            assert Counter(Graph(g.nodes, rebuilt, kind=kind).edges) == Counter(g.edges)
            assert Counter(map(fields, g.edges)) == Counter({fields(e): c for e, c in Counter(g.edges).items()})

    @pytest.mark.parametrize("kind", ["simple", "shape", "compressed", "general"])
    def test_index_and_adjacency(self, kind):
        for g in self.graphs(kind):
            assert g.index == {n: i for i, n in enumerate(g.nodes)}
            for n in g.nodes:
                assert n in g
                assert g.out(n) == tuple(e for e in g.edges if e.source == n)
            out, inc = index_lists(g, g.occurs)
            assert out == [[(e.label, e.occur, g.index[e.target]) for e in g.out(n)] for n in g.nodes]
            assert inc == [[g.index[e.source] for e in g.edges if e.target == n] for n in g.nodes]

    def test_walks_read_index_lists_only(self):
        # Typing, simulation and unpacking read a graph through index_lists,
        # in one pass over its edges, never through per-node adjacency.
        rng = random.Random(23)
        with mock.patch.object(Graph, "out", autospec=True, side_effect=Graph.out) as out_calls:
            for _ in range(20):
                g = random_compressed_graph(rng, max_card=2)
                max_typing(g, random_rbe0_schema(rng))
                max_simulation(g, random_shape_graph(rng))
                unpack(g, max_nodes=10**4)
        assert out_calls.call_count == 0


@st.composite
def edge_lists(draw):
    """Edges over three nodes and two labels, with occurrences 1, ?, *,
    [k;k] and [0;0]; a few are repeated, and triples collide often."""
    edge = st.builds(
        lambda s, lab, t, tok: Edge(s, lab, t, parse_interval_token(tok)),
        st.sampled_from("xyz"),
        st.sampled_from("ab"),
        st.sampled_from("xyz"),
        st.sampled_from(["1", "?", "*", "[2;2]", "[3;3]", "[0;0]"]),
    )
    edges = draw(st.lists(edge, max_size=6))
    return edges + (draw(st.lists(st.sampled_from(edges), max_size=2)) if edges else [])


class TestKindFlags:
    @given(edge_lists())
    def test_flags_agree_with_kind_fault(self, edges):
        g = Graph((), edges)
        assert g.is_simple == (_kind_fault(edges, "simple") is None)
        assert g.is_compressed == (_kind_fault(edges, "compressed") is None)
        assert g.is_shape == (_kind_fault(edges, "shape") is None)

    def test_unknown_kind_is_rejected(self):
        # Accepted, it would serialize to a header that parse_graph rejects.
        with pytest.raises(GraphKindError, match="unknown graph kind 'bogus'"):
            Graph(("x",), (), kind="bogus")

    @pytest.mark.parametrize("text, message", [
        ("graph simple\nx a y\nx b y\nx a y\n", "duplicate (source,label,target) edge: x a y 1"),
        ("graph simple\nx a y\nx b y ?\n", "simple graph requires occurrence 1 on edge: x b y ?"),
        ("graph compressed\nx a y 2\nx b y *\n",
         "compressed graph requires a singleton occurrence on edge: x b y *"),
        ("graph compressed\nx a y 2\nx a y [3;3]\n", "duplicate (source,label,target) edge: x a y 3"),
        ("graph shape\nx a y *\nx a z [2;3]\n",
         "shape graph requires a basic occurrence on edge: x a z [2;3]"),
    ])
    def test_kind_error_names_the_edge(self, text, message):
        with pytest.raises(GraphKindError) as exc:
            parse_graph(text)
        assert str(exc.value) == message


# Body lines of a graph text: ("node", name), ("edge", source, label,
# target, occurrence token or None, trailing comment) or ("blank", text).
# "node" is also a node name, so "node a x" is an edge line.
_names = st.sampled_from(["x", "y", "z", "node"])
_body_line = st.one_of(
    st.tuples(st.just("node"), _names),
    st.tuples(st.just("edge"), _names, st.sampled_from("ab"), _names,
              st.sampled_from([None, "1", "?", "+", "*", "2", "[2;2]", "[0;0]", "[0;3]", "[1;inf]"]),
              st.booleans()),
    st.tuples(st.just("blank"), st.sampled_from(["", "   ", "# a comment", "  # x a y"])),
)


def _text_of(line) -> str:
    if line[0] == "node":
        return f"node {line[1]}"
    if line[0] == "blank":
        return line[1]
    _, src, lab, tgt, tok, comment = line
    return f"{src} {lab} {tgt}" + (f" {tok}" if tok else "") + ("  # why" if comment else "")


@st.composite
def graph_texts(draw):
    """(text, kind, body lines, line number of the first body line).  Node
    lines fall before, between and after edge lines, a few edge lines are
    repeated as duplicate triples, and some texts carry one bad token."""
    kind = draw(st.sampled_from(["simple", "shape", "compressed", "general"]))
    lines = draw(st.lists(_body_line, max_size=10))
    edges = [i for i, line in enumerate(lines) if line[0] == "edge"]
    if edges:
        for i in draw(st.lists(st.sampled_from(edges), max_size=2)):
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        bad = draw(st.sampled_from([None, None, None, "[3;1]", "q"]))
        if bad:
            i = draw(st.sampled_from([i for i, line in enumerate(lines) if line[0] == "edge"]))
            lines[i] = (*lines[i][:4], bad, lines[i][5])
    head = ["# a graph", f"graph {kind}"] if draw(st.booleans()) else [f"graph {kind}"]
    return "\n".join(head + [_text_of(line) for line in lines]) + "\n", kind, lines, len(head) + 1


def _constructed(kind, lines, first):
    """The graph of the body lines, built by Graph(nodes, edges, kind) from
    the lines themselves; a bad token raises the ParseError that parsing
    gives, with its line number."""
    nodes, edges = [], []
    for lineno, line in enumerate(lines, start=first):
        if line[0] == "node":
            nodes.append(line[1])
        elif line[0] == "edge":
            _, src, lab, tgt, tok, _ = line
            try:
                occur = parse_interval_token(tok) if tok else ONE
            except ParseError as exc:
                raise ParseError(str(exc), line=lineno) from None
            edges.append(Edge(src, lab, tgt, occur))
    return Graph(nodes, edges, kind)


def _outcome(build):
    try:
        return build()
    except (ParseError, GraphKindError) as exc:
        return type(exc), str(exc)


class TestColumnParser:
    @settings(max_examples=300, deadline=None)
    @given(graph_texts())
    def test_parser_matches_the_edge_constructor(self, case):
        text, kind, lines, first = case
        parsed = _outcome(lambda: parse_graph(text))
        built = _outcome(lambda: _constructed(kind, lines, first))
        if not isinstance(built, Graph):
            assert parsed == built
            return
        # The fixpoint's lists come from the columns, before any Edge.
        assert index_lists(parsed, parsed.occurs) == index_lists(built, built.occurs)
        assert "edges" not in vars(parsed)
        assert parsed.nodes == built.nodes and parsed.index == built.index
        assert parsed.edges == built.edges
        flags = [(g.is_simple, g.is_shape, g.is_compressed) for g in (parsed, built)]
        assert flags[0] == flags[1]
        assert serialize_graph(parsed) == serialize_graph(built)

    def test_late_node_lines_are_numbered_first(self):
        g = parse_graph("graph simple\nx a y\nnode z\ny b x\nnode y\n")
        assert g.nodes == ("z", "y", "x") and g.index == {"z": 0, "y": 1, "x": 2}
        assert index_lists(g, g.occurs) == ([[], [("b", ONE, 2)], [("a", ONE, 1)]], [[], [2], [1]])

    def test_typing_a_parsed_graph_builds_no_edge(self):
        g = parse_graph(BUG_GRAPH_TEXT)
        s = parse_schema(BUG_SCHEMA_TEXT)
        assert validates(g, s) and all(max_typing(g, s).values())
        assert "edges" not in vars(g) and "_out" not in vars(g)
        assert g.edges[0] == Edge("bug1", "descr", "lit1")


@st.composite
def shuffled_graphs(draw, acyclic=False, max_nodes=5):
    """(g, the same graph with its nodes and edges in another order); with
    acyclic, every edge goes from a lower-numbered node to a higher one."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    nodes = [f"g{i}" for i in range(n)]
    triples = [(nodes[i], lab, nodes[j]) for i in range(n) for j in range(n)
               if i < j or not acyclic for lab in "ab"]
    chosen = draw(st.lists(st.sampled_from(triples), unique=True, max_size=8)) if triples else []
    edges = [Edge(src, lab, tgt, draw(st.sampled_from([ONE, Interval(2, 2)]))) for src, lab, tgt in chosen]
    g = Graph(nodes, edges, kind="compressed")
    return g, Graph(draw(st.permutations(nodes)), draw(st.permutations(edges)), kind="compressed")


class TestRefinementOrder:
    @settings(max_examples=60, deadline=None)
    @given(shuffled_graphs(), st.randoms(use_true_random=False))
    def test_shuffled_typing_equals_reference(self, graphs, rng):
        g, shuffled = graphs
        s = random_rbe0_schema(rng)
        assert max_typing(g, s) == reference_typing(g, s) == max_typing(shuffled, s)

    @settings(max_examples=60, deadline=None)
    @given(shuffled_graphs(), st.randoms(use_true_random=False))
    def test_shuffled_simulation_keeps_its_pairs(self, graphs, rng):
        g, shuffled = graphs
        h = random_shape_graph(rng, max_nodes=4)
        sim, again = max_simulation(g, h), max_simulation(shuffled, h)
        assert sim.pairs == again.pairs
        assert verify_witness(g, h, sim) and verify_witness(shuffled, h, again)

    @settings(max_examples=60, deadline=None)
    @given(shuffled_graphs(acyclic=True, max_nodes=7), st.randoms(use_true_random=False))
    def test_acyclic_graph_visits_each_node_once(self, graphs, rng):
        s, h = random_rbe0_schema(rng), random_shape_graph(rng, max_nodes=4)
        for g in graphs:
            assert visits(lambda: max_typing(g, s)) == len(g.nodes)
            assert visits(lambda: max_simulation(g, h)) == len(g.nodes)


def reference_copies(g):
    """Copy counts of unpack, from the definition: each node gets its
    largest incoming cardinality, and at least 1."""
    return {n: max([1] + [e.occur.min for e in g.edges if e.target == n]) for n in g.nodes}


class TestUnpack:
    def test_self_loop_fixed_point(self):
        g = parse_graph("graph compressed\nu a u\n")
        u, cmap = unpack(g)
        assert len(u.nodes) == 1 and len(u.edges) == 1
        assert u.is_simple

    def test_pair_expansion(self):
        g = parse_graph("graph compressed\nu a v [2;2]\n")
        u, cmap = unpack(g)
        assert sorted(cmap.values()) == ["u", "v", "v"]
        by_src = {}
        for e in u.edges:
            by_src.setdefault(e.source, set()).add(e.target)
        (targets,) = [t for t in by_src.values()]
        assert len(targets) == 2  # two distinct copies of v

    def test_budget(self):
        g = parse_graph("graph compressed\nu a v [150;150]\n")
        with pytest.raises(WorkCapError, match="151 nodes, more than 100"):
            unpack(g, max_nodes=100)

    def test_chain_of_pairs_is_linear(self):
        # Each node needs only as many copies as its largest incoming
        # cardinality, whatever the copies of its sources: 2 per [2;2]
        # edge, not 2**20 at the chain's end.
        g = Graph((), [Edge(f"v{i}", "a", f"v{i + 1}", Interval(2, 2)) for i in range(20)],
                  kind="compressed")
        u, cmap = unpack(g)
        assert u.is_simple and len(u.nodes) == 41 and len(u.edges) == 78
        assert Counter(cmap.values()) == {"v0": 1, **{f"v{i}": 2 for i in range(1, 21)}}
        assert all(len(u.out(m)) == (cmap[m] != "v20") * 2 for m in u.nodes)

    def test_copy_names_avoid_node_names(self):
        # x's two copies would be x.0 and x.1, but x.0 is a node of its own.
        f = parse_graph("graph compressed\nr a x 2\nr c x.0\nx b y\n")
        s = parse_schema("R -> a::X^2, c::Z\nX -> b::Y\nY -> eps\nZ -> eps\n")
        u, cmap = unpack(f)
        assert len(u.nodes) == len(cmap) == 5
        assert Counter(cmap.values()) == {"r": 1, "x": 2, "x.0": 1, "y": 1}
        assert cmap["x.0"] == "x.0" and cmap["x.1"] == "x"
        assert validates(f, s) and validates(u, s)
        assert parse_graph(serialize_graph(u)) == u

    def test_copy_counts_match_the_definition(self):
        rng = random.Random(19)
        raised = 0
        for _ in range(300):
            g = random_compressed_graph(rng, max_nodes=6, max_card=3, min_card=0)
            expected = reference_copies(g)
            if sum(expected.values()) > 10:
                with pytest.raises(WorkCapError):
                    unpack(g, max_nodes=10)
                raised += 1
                continue
            _, cmap = unpack(g, max_nodes=10)
            assert Counter(cmap.values()) == expected
        assert 0 < raised < 300

    @pytest.mark.parametrize("cyclic", [False, True])
    def test_long_chain_and_cycle(self, cyclic):
        n = 10**4
        edges = [Edge(f"v{i}", "a", f"v{i + 1}") for i in range(n - 1)]
        if cyclic:
            edges.append(Edge(f"v{n - 1}", "a", "v0"))
        u, cmap = unpack(Graph((), edges, kind="compressed"))
        assert len(u.nodes) == n and len(u.edges) == len(edges)
        assert all(cmap[m] == m for m in u.nodes)

    def test_copies_have_full_out_degree(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_compressed_graph(rng)
            try:
                u, cmap = unpack(g, max_nodes=3000)
            except WorkCapError:
                continue
            assert u.is_simple
            demand = {n: sum(e.occur.min for e in g.out(n)) for n in g.nodes}
            for n in u.nodes:
                assert len(u.out(n)) == demand[cmap[n]]

    def test_validation_coherence(self):
        rng = random.Random(11)
        checked = 0
        for _ in range(60):
            g = random_compressed_graph(rng, max_nodes=3, max_card=2)
            s = random_rbe0_schema(rng)
            try:
                u, _ = unpack(g, max_nodes=500)
            except WorkCapError:
                continue
            if validates(g, s):
                assert validates(u, s)
                checked += 1
        assert checked >= 5
