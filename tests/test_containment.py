import random
from collections import Counter

import pytest

from shapegraph import containment, validation

from shapegraph import (
    Budget,
    Contained,
    Edge,
    Graph,
    NotContained,
    Unknown,
    characterizing_graph,
    contains,
    find_counterexample,
    fuse_to_compressed,
    kinds,
    parse_schema,
    unpack,
    validates,
    embeds,
    to_shape_graph,
)
from shapegraph.containment import canonical_code, contains_detshex0minus
from shapegraph.errors import ClassPreconditionError
from shapegraph.fixtures import exponential_family

from conftest import BUG_SCHEMA_TEXT, chain_schema, random_minus_schema


class TestEmbeddingDecision:
    def test_reflexivity(self):
        s = parse_schema(BUG_SCHEMA_TEXT)
        assert contains_detshex0minus(s, s)
        assert isinstance(contains(s, s, method="embedding"), Contained)

    def test_class_precondition(self):
        s = chain_schema()  # deterministic but ? references are not closed
        with pytest.raises(ClassPreconditionError):
            contains_detshex0minus(s, s)

    def test_strictly_smaller_schema(self):
        h = parse_schema("t -> a::u\nu -> eps\n")
        k = parse_schema("t -> a::u*\nu -> eps\n")
        assert contains_detshex0minus(h, k)
        assert not contains_detshex0minus(k, h)
        v = contains(k, h, method="embedding")
        assert isinstance(v, NotContained)
        assert validates(v.witness, k) and not validates(v.witness, h)


class TestCharacterizingGraph:
    def test_bug_schema_graph(self):
        s = parse_schema(BUG_SCHEMA_TEXT)
        g = characterizing_graph(s)
        assert g.is_simple
        assert validates(g, s)
        # 2 Bug copies (?-edge + *-referenced), 2 User, 1 Employee, 1 Literal.
        assert len(g.nodes) == 6

    def test_size_bound_random(self):
        rng = random.Random(61)
        for _ in range(30):
            s = random_minus_schema(rng, max_types=4)
            g = characterizing_graph(s)
            sg = to_shape_graph(s)
            opts = sum(1 for e in sg.edges if e.occur.min == 0 and e.occur.max == 1)
            stars = sum(1 for e in sg.edges if e.occur.max > 1)
            bound = len(s.types) * (2 + opts) * (1 + stars)
            assert len(g.nodes) <= bound
            assert validates(g, s)

    def test_rejects_non_minus(self):
        with pytest.raises(ClassPreconditionError):
            characterizing_graph(chain_schema())


class TestCounterexampleSearch:
    def test_contained_within_budget(self):
        h = parse_schema("t -> a::u\nu -> eps\n")
        k = parse_schema("t -> a::u*\nu -> eps\n")
        v = find_counterexample(h, k, Budget(max_nodes=4, max_card=2, claim_complete=True))
        assert isinstance(v, Contained)

    def test_finds_minimal_witness(self):
        h = parse_schema("t -> a::u*\nu -> eps\n")
        k = parse_schema("t -> a::u?\nu -> eps\n")
        v = find_counterexample(h, k, Budget(max_nodes=4, max_card=3))
        assert isinstance(v, NotContained)
        g = v.witness
        assert validates(g, h) and not validates(g, k)
        # Minimal witness: one node with a doubled a-edge, compressed.
        assert len(g.nodes) == 2
        assert sum(e.occur.min for e in g.edges) == 2

    def test_each_bag_list_computed_once(self, monkeypatch):
        keys = []
        bags_matching = containment._bags_matching

        def recording(s, t, symbols, caps):
            keys.append((t, caps))
            return bags_matching(s, t, symbols, caps)

        monkeypatch.setattr(containment, "_bags_matching", recording)
        h = parse_schema("t -> a::u\nu -> eps\n")
        k = parse_schema("t -> a::u*\nu -> eps\n")
        v = find_counterexample(h, k, Budget(max_nodes=4, max_card=2, claim_complete=True))
        assert isinstance(v, Contained)
        # u's empty alphabet gives the key ("u", ()) in every composition.
        assert ("u", ()) in keys and len(keys) == len(set(keys))

    def test_unknown_without_claim(self):
        h = parse_schema("t -> a::u\nu -> eps\n")
        k = parse_schema("t -> a::u*\nu -> eps\n")
        v = find_counterexample(h, k, Budget(max_nodes=3, max_card=2))
        assert isinstance(v, Unknown)

    def test_copies_of_a_compressed_edge_take_their_own_types(self):
        # The candidate v0 a v1 [2;2] validates k: one copy of v1 reads as p,
        # the other as q.
        h = parse_schema("r -> a::u , a::u\nu -> eps\n")
        k = parse_schema("r -> (a::p , a::q) | b::z\np -> eps\nq -> eps\nz -> eps\n")
        v = contains(h, k, method="search", budget=Budget(max_nodes=3, max_card=2, timeout=None))
        assert isinstance(v, Unknown)

    def test_many_types_do_not_deepen_recursion(self, monkeypatch):
        # One composition part per h-type: a generator nested once per part
        # would pass Python's recursion limit here.
        calls = []
        checked = validation.validates

        def counting_validates(g, s):
            calls.append(s)
            return checked(g, s)

        monkeypatch.setattr(validation, "validates", counting_validates)
        h = parse_schema("".join(f"t{i} -> eps\n" for i in range(1100)))
        k = parse_schema("u -> a::u\n")
        v = contains(h, k, method="search", budget=Budget(max_nodes=1, max_card=1, timeout=None))
        assert isinstance(v, NotContained)
        assert v.witness.nodes == ("v0",) and not v.witness.edges
        # Each of the 1,100 one-node candidates is a hit; only the reported
        # one is re-verified, once against each schema.
        assert calls == [h, k]

    def test_graphs_built_only_for_misses_and_untyped(self, monkeypatch):
        counts = Counter()
        search_typers = []

        class CountingGraph(containment.Graph):
            def __init__(self, *args, **kwargs):
                counts["builds"] += 1
                super().__init__(*args, **kwargs)

        class CountingTyper(validation.Typer):
            def fixpoint(self, *args, **kwargs):
                ids = super().fixpoint(*args, **kwargs)
                if self is search_typers[0]:
                    counts["untyped"] += ids is None
                return ids

        def recording_typer(*args, **kwargs):
            typer = CountingTyper(*args, **kwargs)
            search_typers.append(typer)
            return typer

        def counting_connected(out, inc):
            counts["candidates"] += 1
            return connected(out, inc)

        connected = getattr(containment, "_weakly_connected", None)
        monkeypatch.setattr(containment, "Graph", CountingGraph)
        monkeypatch.setattr(validation, "Typer", recording_typer)
        # Every enumerated candidate goes through the connectivity test.
        monkeypatch.setattr(containment, "_weakly_connected", counting_connected, raising=False)
        h, k = exponential_family(1)
        v = find_counterexample(h, k, Budget(max_nodes=6, max_card=1, timeout=None))
        assert isinstance(v, NotContained)
        assert v.witness.nodes == ("v0", "v1", "v2", "v3")
        assert v.witness.edges == (
            Edge("v0", "L", "v2"),
            Edge("v0", "R", "v1"),
            Edge("v2", "a1", "v3"),
        )
        misses = len(search_typers[0].memo)
        assert counts["builds"] <= misses + counts["untyped"]
        assert 4 * counts["builds"] < counts["candidates"]

    def test_timeout_reports_unknown(self):
        s = parse_schema(BUG_SCHEMA_TEXT)
        v = find_counterexample(s, s, Budget(max_nodes=6, max_card=3, timeout=0.01))
        assert isinstance(v, Unknown)

    def test_auto_method_dispatch(self):
        minus = parse_schema(BUG_SCHEMA_TEXT)
        det = chain_schema()
        assert isinstance(contains(minus, minus), Contained)
        # Non-minus input: auto must go through the bounded search and may
        # only answer Unknown without claim_complete.
        v = contains(det, det, budget=Budget(max_nodes=3, max_card=2, timeout=10))
        assert isinstance(v, Unknown)


class TestFusing:
    def test_fuse_merges_equal_kinds(self):
        h = parse_schema("t -> a::u*\nu -> eps\n")
        k = parse_schema("t -> a::u?\nu -> eps\n")
        g = Graph(
            ("r", "x", "y"),
            [Edge("r", "a", "x"), Edge("r", "a", "y")],
            kind="simple",
        )
        fused = fuse_to_compressed(g, h, k)
        assert fused.is_compressed
        assert len(fused.nodes) == 2
        (edge,) = fused.edges
        assert edge.occur.min == 2
        assert validates(fused, h) and not validates(fused, k)

    def test_kind_map(self):
        h = parse_schema("t -> a::u*\nu -> eps\n")
        k = parse_schema("t -> a::u?\nu -> eps\n")
        g = Graph(("r", "x"), [Edge("r", "a", "x")], kind="simple")
        km = kinds(g, h, k)
        assert km["x"].h_types == frozenset({"t", "u"})

    def test_fuse_then_unpack_roundtrip(self):
        h = parse_schema("t -> a::u*\nu -> eps\n")
        k = parse_schema("t -> a::u?\nu -> eps\n")
        g = Graph(
            ("r", "x", "y"),
            [Edge("r", "a", "x"), Edge("r", "a", "y")],
            kind="simple",
        )
        fused = fuse_to_compressed(g, h, k)
        u, _ = unpack(fused)
        assert validates(u, h) and not validates(u, k)


class TestCanonicalCode:
    def test_isomorphism_invariance(self):
        g1 = Graph(("a", "b"), [Edge("a", "x", "b")], kind="simple")
        g2 = Graph(("q", "p"), [Edge("p", "x", "q")], kind="simple")
        assert canonical_code(g1) == canonical_code(g2)

    def test_distinguishes_structure(self):
        g1 = Graph(("a", "b"), [Edge("a", "x", "b")], kind="simple")
        g2 = Graph(("a", "b"), [Edge("a", "x", "a")], kind="simple")
        assert canonical_code(g1) != canonical_code(g2)
