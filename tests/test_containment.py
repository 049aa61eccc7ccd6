import hashlib
import random
import time
import tracemalloc
from collections import Counter
from itertools import combinations_with_replacement, product
from types import SimpleNamespace

import pytest

from shapegraph import containment, rbe, schema, validation

from shapegraph import (
    Budget,
    Contained,
    Edge,
    Graph,
    NotContained,
    OPT,
    Unknown,
    characterizing_graph,
    contains,
    find_counterexample,
    fuse_to_compressed,
    kinds,
    parse_graph,
    parse_schema,
    unpack,
    validates,
    embeds,
    to_shape_graph,
)
from shapegraph.containment import canonical_code, contains_detshex0minus
from shapegraph.core import Refinement, serialize_graph
from shapegraph.errors import ClassPreconditionError
from shapegraph.fixtures import dnf_containment_instance, exponential_family, union_containment_instance
from shapegraph.rbe import parse_rbe
from shapegraph.schema import Schema, from_shape_graph

from conftest import (BASIC, BUG_SCHEMA_TEXT, chain_schema, deep_chain_text, lines_run, random_flat_rbe,
                      random_minus_schema, random_rbe, random_rbe0_schema, star_chain_pair, sweep_cohort_sizes)


def _union(e0, *es):
    return union_containment_instance(parse_rbe(e0), [parse_rbe(e) for e in es])


# Witnesses (serialized) or Unknown reasons of the search, recorded from the
# search that typed every candidate by its own fixpoint.
PINNED = {
    "exponential-1": (
        lambda: exponential_family(1), 8, 1,
        "graph simple\nv0 L v2\nv0 R v1\nv2 a1 v3\n",
    ),
    "exponential-2": (
        lambda: exponential_family(2), 8, 1,
        "graph simple\nv0 L v1\nv0 R v2\nv1 L v6\nv1 R v5\nv2 L v4\nv2 R v3\n"
        "v4 a2 v7\nv5 a1 v7\nv6 a1 v7\nv6 a2 v7\n",
    ),
    "dnf-non-tautology": (
        lambda: dnf_containment_instance(3, ((1, 2), (-1, 3), (-2, -3))), 5, 1,
        "graph simple\nv0 x1 v2\nv0 x2 v1\nv0 x3 v2\nv1 t v3\nv2 f v3\n",
    ),
    "union-within": (
        lambda: _union("a^[1;2], b^[1;2]", "a, b", "a^[2;2], b^[2;2]"), 2, 3,
        "graph compressed\nv0 a v1\nv0 b v1 2\nv0 z v1\n",
    ),
    "union-beyond": (
        lambda: _union("a^[2;4]", "a^[2;2]", "a^[3;3]"), 2, 3,
        "no counter-example with <= 2 nodes and cardinalities <= 3",
    ),
    "self-reference": (
        lambda: (parse_schema(BUG_SCHEMA_TEXT),
                 parse_schema(BUG_SCHEMA_TEXT.replace("related::Bug*", "related::Bug?"))), 4, 2,
        "graph compressed\nv0 descr v2\nv0 related v0 2\nv0 reportedBy v1\nv1 name v2\n",
    ),
}


def random_acyclic_pair(rng, max_types):
    """Flat schemas (h, k) over 1..max_types types, each of h's rules
    referencing only later types, and k h with one or two rules redrawn
    over every type, so that it types some candidates and not others."""
    types = [f"h{i}" for i in range(rng.randint(1, max_types))]
    defs = {}
    for i, t in enumerate(types):
        syms = [(lab, u) for lab in "ab" for u in types[i + 1:]]
        defs[t] = random_flat_rbe(rng, syms, depth=2) if syms and rng.random() < 0.8 else parse_rbe("eps")
    h = Schema(defs)
    for t in rng.sample(types, min(len(types), rng.randint(1, 2))):
        syms = [(lab, u) for lab in "ab" for u in types]
        defs[t] = random_flat_rbe(rng, syms, depth=2) if rng.random() < 0.8 else parse_rbe("eps")
    return h, Schema(defs)


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


class TestOneContextPerCall:
    """contains derives each schema at most once per call: one classify
    call, one shape graph and one Typer per schema, whichever stages run."""

    A = "t -> a::u*\nu -> eps\n"
    B = "t -> b::u*\nu -> eps\n"

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = Counter()

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        # Every shape graph is built by schema.to_shape_graph: containment
        # has no name of its own for it.
        assert not hasattr(containment, "to_shape_graph")
        monkeypatch.setattr(containment, "classify", counting("classify", containment.classify))
        monkeypatch.setattr(schema, "to_shape_graph", counting("shape graphs", schema.to_shape_graph))
        monkeypatch.setattr(validation.Typer, "__init__", counting("typers", validation.Typer.__init__))
        return counts

    def test_refuted_embedding(self, counts):
        # Embedding, then the characterizing graph as witness.
        v = contains(parse_schema(self.A), parse_schema(self.B))
        assert isinstance(v, NotContained)
        assert counts == {"classify": 2, "shape graphs": 2, "typers": 2}

    def test_embedding_decides(self, counts):
        v = contains(parse_schema(BUG_SCHEMA_TEXT), parse_schema(BUG_SCHEMA_TEXT))
        assert isinstance(v, Contained)
        assert counts == {"classify": 2, "shape graphs": 2}

    def test_search(self, counts):
        v = contains(parse_schema(self.A), parse_schema(self.B), method="search")
        assert isinstance(v, NotContained)
        assert counts == {"typers": 2}

    def test_search_outside_the_class(self, counts):
        h, k = exponential_family(1)
        v = contains(h, k, budget=Budget(6, 1, None))
        assert isinstance(v, NotContained)
        assert counts["typers"] == 2 and counts["classify"] <= 2

    def test_entry_points_classify_each_schema_once(self, counts):
        h, k = parse_schema(self.A), parse_schema(self.B)
        assert not contains_detshex0minus(h, k)
        characterizing_graph(h)
        assert counts == {"classify": 3, "shape graphs": 2}


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

    def test_cohort_sizes_match_the_sweep(self):
        # Each schema also runs with its rules shuffled, which reorders the
        # shape graph's edges.
        rng = random.Random(71)
        grown = 0
        for _ in range(60):
            s = random_minus_schema(rng, max_types=8)
            for _ in range(2):
                sg = to_shape_graph(s)
                sizes = Counter(n.rpartition(".")[0] for n in characterizing_graph(s).nodes)
                assert sizes == sweep_cohort_sizes(sg), s.defs
                # A cohort larger than its own copies needs grew through a reference.
                opts = Counter(e.source for e in sg.edges if e.occur == OPT)
                grown += any(sizes[t] > max(1 + opts[t], 2) for t in s.types)
                s = Schema({t: s.defs[t] for t in rng.sample(s.types, len(s.types))})
        assert grown > 10

    def test_deep_chain_does_linear_work(self):
        # deep_chain_text lists the rules deepest first, so a sweep over
        # the edges in order settles one more cohort per sweep.  Every t(i)
        # gets two copies: its ?-edge's, and t1 is *-referenced.
        start = time.monotonic()
        s = parse_schema(deep_chain_text(4000))
        size = len(s.types) + sum(len(s.symbols[t]) for t in s.types)
        g, _ = lines_run(lambda: characterizing_graph(s), [containment, schema], cap=100 * size)
        sizes = Counter(n.rpartition(".")[0] for n in g.nodes)
        assert sizes == {"r": 1, "o": 1, **{f"t{i}": 2 for i in range(1, 4001)}}
        # Recorded from the construction that swept every edge until no
        # cohort size changed.
        assert hashlib.sha256(serialize_graph(g).encode()).hexdigest().startswith("29ac97c9e2b60766")
        assert time.monotonic() - start < 10.0

    def test_rejects_non_minus(self):
        with pytest.raises(ClassPreconditionError):
            characterizing_graph(chain_schema())

    def test_text_parses_back(self):
        rng = random.Random(67)
        for _ in range(30):
            g = characterizing_graph(random_minus_schema(rng, max_types=4))
            assert parse_graph(serialize_graph(g)) == g


class TestCounterexampleSearch:
    def test_contained_within_budget(self):
        h = parse_schema("t -> a::u\nu -> eps\n")
        k = parse_schema("t -> a::u*\nu -> eps\n")
        v = find_counterexample(h, k, Budget(max_nodes=4, max_card=2))
        assert v == Unknown("no counter-example with <= 4 nodes and cardinalities <= 2")

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
        v = find_counterexample(h, k, Budget(max_nodes=4, max_card=2))
        assert v == Unknown("no counter-example with <= 4 nodes and cardinalities <= 2")
        # u's empty alphabet gives the key ("u", ()) in every composition.
        assert ("u", ()) in keys and len(keys) == len(set(keys))

    def test_flat_bags_equal_parikh_vectors(self):
        # A flat rule's bags are read off its per-symbol interval sums; the
        # general matcher must list the same bags in the same order.
        rng = random.Random(25)
        syms = [(lab, "u") for lab in "ab"]
        schemas = [parse_schema(f"t -> {text}\nu -> eps\n")
                   for text in ("a::u?, a::u?", "a::u?, a::u*, b::u+", "a::u, a::u+, b::u?", "eps")]
        for _ in range(100):
            atoms = [rbe.atom(rng.choice(syms), rng.choice(BASIC)) for _ in range(rng.randint(0, 4))]
            schemas.append(Schema({"t": rbe.concat_all(atoms), "u": rbe.EPSILON}))
        for s in schemas:
            assert s.flat["t"] is not None
            symbols = s.symbols["t"]
            for _ in range(10):
                caps = tuple(rng.randint(0, 3) for _ in symbols)
                expected = sorted(rbe.parikh_vectors(s.defs["t"], symbols, caps))
                assert containment._bags_matching(s, "t", symbols, caps) == expected

    def test_box_bags_equal_parikh_vectors(self):
        # Any rule's bags are its boxes cut at the caps plus the Parikh
        # vectors of its parts with no box form; the general matcher on the
        # whole rule must list the same bags in the same order.
        rng = random.Random(27)
        syms = [(lab, "u") for lab in "abc"]
        kinds = Counter()
        for _ in range(400):
            rule = random_rbe(rng, syms, depth=rng.randint(1, 4))
            s = Schema({"t": rule, "u": rbe.EPSILON})
            boxes, rest = s.boxes["t"]
            kinds[bool(boxes), bool(rest)] += 1
            symbols = s.symbols["t"]
            caps = tuple(rng.randint(0, 3) for _ in symbols)
            expected = sorted(rbe.parikh_vectors(rule, symbols, caps))
            assert containment._bags_matching(s, "t", symbols, caps) == expected
        assert len(kinds) == 4  # boxes, residual parts, both and neither

    def test_flat_search_matches_no_parikh_vectors(self, monkeypatch):
        # Both schemas of the DNF pair are flat: every bag list and every
        # check is read off intervals.
        calls = [0]
        vectors = rbe.parikh_vectors

        def counting(*args, **kwargs):
            calls[0] += 1
            return vectors(*args, **kwargs)

        monkeypatch.setattr(rbe, "parikh_vectors", counting)
        h, k = dnf_containment_instance(3, ((1, 2), (-1, 3), (-2, -3)))
        assert isinstance(find_counterexample(h, k, Budget(5, 1, None)), NotContained)
        assert calls[0] == 0

    def test_unknown_without_claim(self):
        h = parse_schema("t -> a::u\nu -> eps\n")
        k = parse_schema("t -> a::u*\nu -> eps\n")
        v = find_counterexample(h, k, Budget(max_nodes=3, max_card=2))
        assert v == Unknown("no counter-example with <= 3 nodes and cardinalities <= 2")

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
        # Re-verification types the graph with the search's Typers; the
        # search itself types specs through the memo and never calls typing.
        calls = []
        typing = validation.Typer.typing

        def counting_typing(typer, g):
            calls.append(typer.s)
            return typing(typer, g)

        monkeypatch.setattr(validation.Typer, "typing", counting_typing)
        h = parse_schema("".join(f"t{i} -> eps\n" for i in range(1100)))
        k = parse_schema("u -> a::u\n")
        v = contains(h, k, method="search", budget=Budget(max_nodes=1, max_card=1, timeout=None))
        assert isinstance(v, NotContained)
        assert v.witness.nodes == ("v0",) and not v.witness.edges
        # Each of the 1,100 one-node candidates is a hit; only the reported
        # one is re-verified, once against each schema.
        assert calls == [h, k]

    def test_graphs_built_only_for_misses_and_untyped(self, monkeypatch):
        # No Graph is built per candidate or per memo miss: at most one per
        # hit, a candidate that leaves a node untyped.
        counts = Counter()

        class CountingGraph(containment.Graph):
            def __init__(self, *args, **kwargs):
                counts["builds"] += 1
                super().__init__(*args, **kwargs)

        def counting_hits(*args):
            for hit in hits(*args):
                counts["hits"] += 1
                yield hit

        hits = containment._hits
        monkeypatch.setattr(containment, "Graph", CountingGraph)
        monkeypatch.setattr(containment, "_hits", counting_hits)
        h, k = exponential_family(1)
        v = find_counterexample(h, k, Budget(max_nodes=6, max_card=1, timeout=None))
        assert isinstance(v, NotContained)
        assert v.witness.nodes == ("v0", "v1", "v2", "v3")
        assert v.witness.edges == (
            Edge("v0", "L", "v2"),
            Edge("v0", "R", "v1"),
            Edge("v2", "a1", "v3"),
        )
        assert counts["hits"] > 0
        assert counts["builds"] <= counts["hits"]

    def test_work_follows_contexts(self, monkeypatch):
        # star-chain has no counter-example within 5 nodes and
        # cardinalities 3, so no candidate is a hit.
        calls = []
        hits = containment._hits

        def counting_hits(*args):
            for hit in hits(*args):
                calls.append(hit)
                yield hit

        monkeypatch.setattr(containment, "_hits", counting_hits)
        g, h = star_chain_pair()
        v = find_counterexample(
            from_shape_graph(g), from_shape_graph(h), Budget(max_nodes=5, max_card=3, timeout=None)
        )
        assert v == Unknown("no counter-example with <= 5 nodes and cardinalities <= 3")
        assert calls == []

    @pytest.mark.parametrize("schemas", [
        # r is untyped by k; in the composition with one node of each type,
        # r is not in the last level, so every pick of that level is a hit.
        lambda: (parse_schema("r -> a::u\ns -> b::u\nu -> eps\n"), parse_schema("s -> b::u\nu -> eps\n")),
        # Types that reference themselves or each other form one level.
        lambda: (parse_schema("t -> a::t*, b::u?\nu -> eps\n"), parse_schema("t -> a::t?, b::u?\nu -> eps\n")),
        lambda: (parse_schema("r -> a::u*\ns -> eps\nu -> a::r?\n"), parse_schema("r -> eps\ns -> eps\nu -> eps\n")),
        # The head of an a-chain, or a self-loop, is untyped only through
        # its target's types, not by its own out-spec.
        lambda: (parse_schema("t -> a::t?\n"), parse_schema("x -> a::y\ny -> eps\n")),
        lambda: exponential_family(1),
        # Levels u, r, s: an r with its c-edge is untyped by k, so every
        # pick of s below it is a hit, though s does not reference r;
        # below an r without it, only the s with its b-edge is.
        lambda: (parse_schema("r -> a::u?, c::u?\ns -> b::u?\nu -> eps\n"),
                 parse_schema("r -> a::u?\ns -> eps\nu -> eps\n")),
        # Levels w, u, r: below a typed u, r has no untyped spec and draws
        # no pick; below a u with its b-edge, every pick of r is a hit.
        lambda: (parse_schema("r -> a::u\nu -> b::w?\nw -> eps\n"),
                 parse_schema("r -> a::u\nu -> eps\nw -> eps\n")),
        lambda: dnf_containment_instance(2, [(1, -2)]),
    ], ids=["untyped-below-last", "self-reference", "mutual-reference", "chain", "exponential-1",
            "untyped-middle-level", "typed-last-level", "dnf"])
    def test_hits_are_the_candidates_k_rejects(self, monkeypatch, schemas):
        # Against every pick of every composition, built and validated.  The
        # shared typer's memo is keyed on the out-signature alone, so no
        # type is checked twice against the same out-edges and target types.
        h, k = schemas()
        typer = validation.Typer(k)
        checks = []
        satisfies = validation.satisfies_type

        def recording(s, ty, out, choices, *solved):
            checks.append((ty, tuple((e.label, e.occur.min) for e in out), tuple(choices)))
            return satisfies(s, ty, out, choices, *solved)

        for n_nodes in range(1, 4):
            names = [f"v{i}" for i in range(n_nodes)]
            for _, targets_of, specs in containment._compositions(h, n_nodes, 2, {}):
                choices = [combinations_with_replacement(range(len(specs[t])), len(r))
                           for t, r in targets_of.items()]
                expected = {}
                for picks in product(*choices):
                    out = [specs[t][s] for t, pick in zip(targets_of, picks) for s in pick]
                    g = containment._candidate_graph(names, out)
                    if not validates(g, k):
                        expected[picks] = g.edges
                got = {}
                with monkeypatch.context() as m:
                    m.setattr(validation, "satisfies_type", recording)
                    for picks, out in containment._hits(typer, targets_of, specs, lambda: False):
                        assert picks not in got
                        got[picks] = containment._candidate_graph(names, out).edges
                assert got == expected
        assert checks and len(set(checks)) == len(checks)

    def test_hits_equal_brute_force_on_random_acyclic_pairs(self):
        # Per composition, _hits (with its dead level states and a typer
        # and spec cache shared as the search shares them) yields exactly
        # the pick tuples whose candidate graph a fresh max_typing against
        # k leaves with an untyped node.
        # The first pair has levels l, a, b, c: below an a without its
        # a-edge, b's state is dead (c is typed); below an a with it, c is
        # untyped.  b does not target a, but c does, so b's state must hold
        # a's type set.
        pairs = [(parse_schema("l -> eps\na -> a::l?\nb -> b::l?\nc -> c::a, d::b\n"),
                  parse_schema("l -> eps\na0 -> eps\na1 -> a::l\nb -> b::l?\nc -> c::a0, d::b\n"))]
        rng = random.Random(24)
        pairs += [random_acyclic_pair(rng, 4) for _ in range(40)]
        compositions = hits = 0
        for h, k in pairs:
            typer, cache = validation.Typer(k), {}
            for n_nodes in range(1, 5):
                names = [f"v{i}" for i in range(n_nodes)]
                for _, targets_of, specs in containment._compositions(h, n_nodes, 2, cache):
                    assert containment._levels(targets_of, specs) is not None
                    expected = {}
                    for picks in product(*[combinations_with_replacement(range(len(specs[t])), len(r))
                                           for t, r in targets_of.items()]):
                        out = [specs[t][s] for t, pick in zip(targets_of, picks) for s in pick]
                        g = containment._candidate_graph(names, out)
                        if not all(validation.max_typing(g, k).values()):
                            expected[picks] = out
                    got = dict(containment._hits(typer, targets_of, specs, lambda: False))
                    assert got == expected
                    compositions += 1
                    hits += len(got)
        assert compositions > 200 and hits > 200

    def test_cached_spec_lists_equal_fresh_ones(self):
        # A spec list is kept on (type, target ranges) across compositions
        # and node counts; one stopped by the clock at any read is not kept.
        h = parse_schema("t -> a::u*, b::w?\nu -> c::w?\nw -> eps\n")
        for stop in range(0, 40, 3):
            reads = [0]

            def timed_out():
                reads[0] += 1
                return reads[0] > stop

            cache = {}
            for n_nodes in range(1, 5):
                list(containment._compositions(h, n_nodes, 2, cache, timed_out))
            for n_nodes in range(1, 5):
                fresh = list(containment._compositions(h, n_nodes, 2, {}))
                assert list(containment._compositions(h, n_nodes, 2, cache)) == fresh

    def test_work_counts(self, monkeypatch):
        # One verdict per definition, the per-edge type filter and the dead
        # level states: counted calls, not wall-clock time.
        counts = Counter()
        kept, satisfies = Refinement.kept, validation.satisfies_type

        def counting_kept(self, sig):
            counts["kept"] += 1
            return kept(self, sig)

        def counting_satisfies(*args):
            counts["satisfies"] += 1
            return satisfies(*args)

        monkeypatch.setattr(Refinement, "kept", counting_kept)
        monkeypatch.setattr(validation, "satisfies_type", counting_satisfies)
        v = find_counterexample(*exponential_family(2), Budget(6, 1, None))
        assert v == Unknown("no counter-example with <= 6 nodes and cardinalities <= 1")
        assert counts["kept"] <= 3200 and counts["satisfies"] <= 600

    @pytest.mark.parametrize("n", [9, 10])
    def test_codes_only_break_ties(self, monkeypatch, n):
        # The one hit, a t with n + 1 a-edges, ties with no other hit, so
        # no canonical code is computed: its star has (n + 1)! orders.
        calls = []
        monkeypatch.setattr(containment, "canonical_code", lambda g: calls.append(g))
        h = parse_schema("t -> a::u*\nu -> eps\n")
        k = parse_schema(f"t -> a::u^[0;{n}]\nu -> eps\n")
        v = find_counterexample(h, k, Budget(12, 1, None))
        assert isinstance(v, NotContained)
        assert len(v.witness.nodes) == n + 2
        assert v.witness.edges == tuple(Edge("v0", "a", f"v{i}") for i in range(1, n + 2))
        assert calls == []

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_codes_only_for_tied_hits(self, monkeypatch, case):
        # A code is computed only for a hit that ties with another on total
        # cardinality: self-reference has lone hits of cardinality 4 and 5,
        # dnf-non-tautology and union-within a tied pair each.
        coded = []
        code = containment.canonical_code

        def recording(g):
            coded.append(sum(e.occur.min for e in g.edges))
            return code(g)

        monkeypatch.setattr(containment, "canonical_code", recording)
        schemas, max_nodes, max_card, _ = PINNED[case]
        find_counterexample(*schemas(), Budget(max_nodes, max_card, None))
        assert all(n > 1 for n in Counter(coded).values())

    def test_search_memory_is_bounded(self):
        # Each level's picks are drawn lazily; a list of every pick of a
        # composition peaks at 3.6 MB here.
        h, k = exponential_family(3)
        tracemalloc.start()
        try:
            v = find_counterexample(h, k, Budget(max_nodes=6, max_card=1, timeout=None))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert v == Unknown("no counter-example with <= 6 nodes and cardinalities <= 1")
        assert peak < 1_000_000

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_pinned_witness(self, case):
        schemas, max_nodes, max_card, expected = PINNED[case]
        h, k = schemas()
        v = find_counterexample(h, k, Budget(max_nodes=max_nodes, max_card=max_card, timeout=None))
        if isinstance(v, NotContained):
            assert serialize_graph(v.witness) == expected
        else:
            assert v == Unknown(expected)

    def test_witnesses_are_rooted_at_an_untyped_node(self):
        # The search tests no hit for connectivity: counting nodes smallest
        # first already roots every witness at a node k leaves untyped.
        rng = random.Random(6)
        cases = [(random_rbe0_schema(rng, max_types=3), random_rbe0_schema(rng, max_types=3),
                  Budget(max_nodes=4, max_card=1, timeout=None)) for _ in range(100)]
        for schemas, max_nodes, max_card, expected in PINNED.values():
            if expected.startswith("graph"):
                cases.append((*schemas(), Budget(max_nodes=max_nodes, max_card=max_card, timeout=None)))
        witnesses = 0
        for h, k, budget in cases:
            v = find_counterexample(h, k, budget)
            if not isinstance(v, NotContained):
                continue
            g = v.witness
            witnesses += 1
            typing = validation.max_typing(g, k)
            rooted = False
            for root in (n for n in g.nodes if not typing[n]):
                reached, todo = {root}, [root]
                while todo:
                    for e in g.edges:
                        if e.source == todo[-1] and e.target not in reached:
                            reached.add(e.target)
                            todo.append(e.target)
                            break
                    else:
                        todo.pop()
                rooted = rooted or reached == set(g.nodes)
            assert rooted, serialize_graph(g)
        assert witnesses > 10

    @pytest.mark.parametrize("schemas, budget, flows, compositions", [
        (lambda: exponential_family(2), Budget(6, 1, None), 10, 42),
        (lambda: tuple(map(from_shape_graph, star_chain_pair())), Budget(5, 3, None), 34, 17),
    ], ids=["exponential-2", "star-chain"])
    def test_search_work_counts(self, monkeypatch, schemas, budget, flows, compositions):
        # Neither search finds a counter-example.  Each routing instance
        # is solved once per search, a choice with an unbounded atom needs
        # no flow, and a composition with no rooted candidate is skipped:
        # without these, 136 and 170 flows, 97 and 55 compositions.
        counts = Counter()
        flow, compose = validation.feasible_flow, containment._compositions

        def counting_flow(*args):
            counts["flows"] += 1
            return flow(*args)

        def counting_compositions(*args):
            for c in compose(*args):
                counts["compositions"] += 1
                yield c

        monkeypatch.setattr(validation, "feasible_flow", counting_flow)
        monkeypatch.setattr(containment, "_compositions", counting_compositions)
        v = find_counterexample(*schemas(), budget)
        assert v == Unknown(f"no counter-example with <= {budget.max_nodes} nodes"
                            f" and cardinalities <= {budget.max_card}")
        assert counts["flows"] <= flows and counts["compositions"] <= compositions

    def test_skipped_compositions_change_no_verdict(self, monkeypatch):
        # A composition _rootable rejects holds no hit at the first node
        # count that has one, so searching every composition gives the
        # same verdict and the same witness text.  Random pairs with cycles
        # run at 3 nodes and cardinality 1: a cyclic h is typed per
        # candidate, which at 4 nodes or cardinality 2 takes seconds.
        rng = random.Random(38)
        cases = [(*random_acyclic_pair(rng, 3), Budget(4, 2, None)) for _ in range(200)]
        cases += [(random_rbe0_schema(rng, max_types=3), random_rbe0_schema(rng, max_types=3),
                   Budget(3, 1, None)) for _ in range(100)]
        cases += [(*dnf_containment_instance(2, ((1, 2), (-1,), (-2,))), Budget(4, 1, None)),
                  (*PINNED["dnf-non-tautology"][0](), Budget(5, 1, None)),
                  (*exponential_family(1), Budget(8, 1, None)),
                  (*exponential_family(2), Budget(6, 1, None))]
        rootable, skipped = containment._rootable, Counter()

        def every(*args):
            skipped[not rootable(*args)] += 1
            return True

        sizes = Counter()
        for h, k, budget in cases:
            v = find_counterexample(h, k, budget)
            with monkeypatch.context() as m:
                m.setattr(containment, "_rootable", every)
                searched = find_counterexample(h, k, budget)
            if isinstance(v, NotContained):
                sizes[len(v.witness.nodes)] += 1
                assert serialize_graph(v.witness) == serialize_graph(searched.witness)
            else:
                assert v == searched
        assert sizes[2] + sizes[3] > 60 and skipped[True] > 600

    def test_card_caps_change_no_verdict(self, monkeypatch):
        # A hit with a card past the larger of its label's thresholds has a
        # twin cut there, of smaller total card, so searching every card up
        # to max_card (both schemas read with no thresholds) gives the same
        # verdict and the same witness text.
        rng = random.Random(39)
        cases = [(*random_acyclic_pair(rng, 3), Budget(4, 3, None)) for _ in range(300)]
        cases += [(*map(from_shape_graph, star_chain_pair()), Budget(5, 3, None)),
                  (*PINNED["union-within"][0](), Budget(2, 3, None)),
                  (*PINNED["self-reference"][0](), Budget(4, 2, None))]
        capped, witnesses = 0, 0
        for h, k, budget in cases:
            v = find_counterexample(h, k, budget)
            th_h, th_k = h.thresholds, k.thresholds
            capped += th_h is not None and th_k is not None and any(
                max(c, th_k.get(lab, 1)) < budget.max_card for lab, c in th_h.items())
            with monkeypatch.context() as m:
                m.setattr(Schema, "thresholds", None)
                searched = find_counterexample(Schema(h.defs), Schema(k.defs), budget)
            if isinstance(v, NotContained):
                witnesses += 1
                assert serialize_graph(v.witness) == serialize_graph(searched.witness)
            else:
                assert v == searched
        assert capped > 60 and witnesses > 150

    def test_card_caps_work_counts(self, monkeypatch):
        # star-chain: every a-atom is *, so an a-edge past 1 types like one
        # of 1, and b-edges stop at k's threshold 2.  With every card up to
        # 3: 685 specs at 5 nodes and 269 memo misses.
        counts = Counter()
        check, compose = validation.Typer.check, containment._compositions

        def counting_check(self, sig):
            counts["misses"] += 1
            return check(self, sig)

        def counting_compositions(h, n_nodes, *args):
            for c in compose(h, n_nodes, *args):
                counts["specs"] += sum(map(len, c[2].values())) if n_nodes == 5 else 0
                yield c

        monkeypatch.setattr(validation.Typer, "check", counting_check)
        monkeypatch.setattr(containment, "_compositions", counting_compositions)
        h, k = map(from_shape_graph, star_chain_pair())
        assert (h.thresholds, k.thresholds) == ({"a": 1, "b": 1}, {"a": 1, "b": 2})
        v = find_counterexample(h, k, Budget(5, 3, None))
        assert v == Unknown("no counter-example with <= 5 nodes and cardinalities <= 3")
        assert counts == {"specs": 155, "misses": 35}

    def test_timeout_reports_unknown(self):
        s = parse_schema(BUG_SCHEMA_TEXT)
        v = find_counterexample(s, s, Budget(max_nodes=6, max_card=3, timeout=0.01))
        assert isinstance(v, Unknown)

    def test_malformed_budget_is_a_value_error(self):
        # A usage error (exit 3 in the CLI), not a cap that ran out.
        s = parse_schema(BUG_SCHEMA_TEXT)
        for fields in ({"max_nodes": 0}, {"max_card": 0}, {"timeout": 0}):
            with pytest.raises(ValueError):
                find_counterexample(s, s, Budget(**fields))

    def test_malformed_budget_fails_where_it_is_built(self):
        # Also on a route that never reads it, such as the embedding.
        with pytest.raises(ValueError):
            Budget(max_nodes=0)

    def test_clock_is_read_while_specs_are_built(self, monkeypatch):
        # Draws of containment._tuples between two reads of the clock: the
        # search must look at its timeout between out-specs, not only once
        # a composition's specs are all built.
        draws = [0]
        tuples, monotonic = containment._tuples, containment.time.monotonic

        def counting_tuples(*args):
            for c in tuples(*args):
                draws[-1] += 1
                yield c

        def counting_monotonic():
            draws.append(0)
            return monotonic()

        monkeypatch.setattr(containment, "_tuples", counting_tuples)
        monkeypatch.setattr(containment, "time", SimpleNamespace(monotonic=counting_monotonic))
        h = parse_schema("t -> a::u*, b::u*\nu -> eps\n")
        find_counterexample(h, h, Budget(max_nodes=3, max_card=6))
        assert max(draws) <= 100

    def test_auto_method_dispatch(self):
        minus = parse_schema(BUG_SCHEMA_TEXT)
        det = chain_schema()
        assert isinstance(contains(minus, minus), Contained)
        # Non-minus input: auto must go through the bounded search, which
        # never answers Contained.
        v = contains(det, det, budget=Budget(max_nodes=3, max_card=2, timeout=None))
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

    def test_refinement_splits_ties_of_the_initial_colours(self):
        # On the path v0 -> v1 -> v2 -> v3, v1 and v2 have the same in- and
        # out-edges and are told apart only by their neighbours' colours.
        # The 2-cycle plus an edge has the same nodes, edges, labels and
        # in/out degrees, but is not isomorphic to the path.
        nodes = ("v0", "v1", "v2", "v3")
        path = [("v0", "v1"), ("v1", "v2"), ("v2", "v3")]
        code = canonical_code(Graph(nodes, [Edge(a, "a", b) for a, b in path], kind="simple"))
        rng = random.Random(3)
        for _ in range(10):
            rename = dict(zip(nodes, rng.sample("pqrs", 4)))
            edges = [Edge(rename[a], "a", rename[b]) for a, b in path]
            rng.shuffle(edges)
            g = Graph(tuple(rng.sample("pqrs", 4)), edges, kind="simple")
            assert canonical_code(g) == code
        other = [("v0", "v1"), ("v1", "v0"), ("v2", "v3")]
        g = Graph(nodes, [Edge(a, "a", b) for a, b in other], kind="simple")
        assert canonical_code(g) != code
