import random
import time

import pytest
from hypothesis import given, strategies as st

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
    parse_graph,
    parse_interval_token,
    serialize_graph,
    unpack,
    validates,
)
from shapegraph.errors import UnpackBudgetError

from conftest import random_compressed_graph, random_rbe0_schema

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


class TestGraphText:
    def test_empty_graph(self):
        g = parse_graph("graph simple\n")
        assert g.nodes == () and g.edges == ()

    def test_roundtrip_simple(self):
        text = "graph simple\nnode lonely\nx a y\ny b x\n"
        g = parse_graph(text)
        assert parse_graph(serialize_graph(g)) == g
        assert set(g.nodes) == {"lonely", "x", "y"}

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
        assert g.incoming("c7") == (edges[7],)


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
        g = parse_graph("graph compressed\nu a v [30;30]\nv b w [30;30]\nw c x [30;30]\n")
        with pytest.raises(UnpackBudgetError):
            unpack(g, max_nodes=100)

    def test_copies_have_full_out_degree(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_compressed_graph(rng)
            try:
                u, cmap = unpack(g, max_nodes=3000)
            except UnpackBudgetError:
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
            except UnpackBudgetError:
                continue
            if validates(g, s):
                assert validates(u, s)
                checked += 1
        assert checked >= 5
