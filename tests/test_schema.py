import random

import pytest

from shapegraph import (
    ParseError,
    STAR,
    SchemaClass,
    classify,
    from_shape_graph,
    parse_schema,
    serialize_schema,
    to_shape_graph,
)
from shapegraph.errors import ClassPreconditionError
from shapegraph import rbe
from shapegraph.schema import Schema, star_closed_references

from conftest import (
    BASIC,
    BUG_SCHEMA_TEXT,
    BUG_VARIANT_TEXT,
    CHAIN_SCHEMA_TEXT,
    chain_schema,
    random_flat_rbe,
    random_minus_schema,
)


class TestParsing:
    def test_roundtrip(self):
        for text in (BUG_SCHEMA_TEXT, BUG_VARIANT_TEXT, CHAIN_SCHEMA_TEXT):
            s = parse_schema(text)
            assert parse_schema(serialize_schema(s)) == s

    def test_undefined_type(self):
        with pytest.raises(ParseError):
            parse_schema("schema\nt -> a::missing\n")

    def test_duplicate_head(self):
        with pytest.raises(ParseError):
            parse_schema("schema\nt -> eps\nt -> eps\n")

    def test_header_optional(self):
        assert parse_schema("t -> eps\n").types == ("t",)

    def test_deep_schemas_compare_equal(self):
        # Nodes are hash-consed, so equality is identity, not a walk that
        # recurses once per nesting level.
        inner = "a::t?"
        for _ in range(190):
            inner = f"({inner}, b::u)?"
        text = f"t -> {inner}\nu -> eps\n"
        assert parse_schema(text) == parse_schema(text)


class TestShapeGraphCorrespondence:
    def test_roundtrip_via_graph(self):
        s = chain_schema()
        g = to_shape_graph(s)
        assert set(g.nodes) == set(s.types)
        assert from_shape_graph(g) == s

    def test_non_flat_rejected(self):
        s = parse_schema("t -> a::t | b::t\n")
        with pytest.raises(ClassPreconditionError):
            to_shape_graph(s)


class TestStarClosure:
    def test_star_edges_closed(self):
        g = to_shape_graph(parse_schema("t -> a::u*\nu -> eps\n"))
        closed = star_closed_references(g)
        assert all(closed.values())

    def test_chain_behind_star_closed(self):
        # u referenced only via the *-closed edge from t, so u's edge closes.
        g = to_shape_graph(parse_schema("t -> a::u*\nu -> b::w\nw -> eps\n"))
        closed = star_closed_references(g)
        by = {(e.source, e.label): closed[i] for i, e in enumerate(g.edges)}
        assert by[("t", "a")] and by[("u", "b")]

    def test_unreferenced_source_not_closed(self):
        g = to_shape_graph(parse_schema("t -> a::u\nu -> eps\n"))
        closed = star_closed_references(g)
        assert not any(closed.values())

    def test_pure_cycle_not_closed(self):
        g = to_shape_graph(parse_schema("t -> a::t\n"))
        closed = star_closed_references(g)
        assert not any(closed.values())


class TestClassification:
    def test_bug_schema_is_minus(self):
        cls, diags = classify(parse_schema(BUG_SCHEMA_TEXT))
        assert cls == SchemaClass.DetShEx0Minus
        assert diags == []

    def test_bug_variant_is_shex0_not_det(self):
        cls, diags = classify(parse_schema(BUG_VARIANT_TEXT))
        assert cls == SchemaClass.ShEx0
        assert cls.value < SchemaClass.DetShEx0.value
        assert any("related" in d for d in diags)

    def test_chain_schema_det_but_not_minus(self):
        # t2 uses ? and is referenced through a chain that starts at the
        # reference-free t0, so its references never close.
        cls, _ = classify(chain_schema())
        assert cls == SchemaClass.DetShEx0

    def test_disjunction_is_shex(self):
        cls, _ = classify(parse_schema("t -> a::t | b::t\n"))
        assert cls == SchemaClass.ShEx

    def test_plus_blocks_minus(self):
        cls, diags = classify(parse_schema("t -> a::u+\nu -> eps\n"))
        assert cls == SchemaClass.DetShEx0
        assert any("+" in d for d in diags)

    def test_random_generator_hits_minus(self):
        rng = random.Random(5)
        for _ in range(30):
            s = random_minus_schema(rng)
            assert classify(s)[0] == SchemaClass.DetShEx0Minus

    def test_class_order(self):
        assert SchemaClass.DetShEx0Minus.value >= SchemaClass.ShEx0.value
        assert SchemaClass.ShEx.value < SchemaClass.ShEx0.value


class TestSymbols:
    def test_alphabet_read_off_flat_atoms(self):
        # A flat rule's alphabet is read off its atoms, any other rule's by
        # a walk; both must equal the walk's alphabet sorted by str.
        rng = random.Random(25)
        types = ["t0", "t1", "t2"]
        syms = [(lab, t) for lab in "abc" for t in types]
        flat = 0
        for _ in range(200):
            defs = {}
            for t in types:
                if rng.random() < 0.5:
                    defs[t] = rbe.concat_all([rbe.atom(rng.choice(syms), rng.choice(BASIC))
                                              for _ in range(rng.randint(0, 4))])
                else:
                    defs[t] = random_flat_rbe(rng, syms, depth=3)
            s = Schema(defs)
            for t in types:
                flat += s.flat[t] is not None
                assert s.symbols[t] == tuple(sorted(rbe.alphabet(defs[t]), key=str))
        assert 0 < flat < 600

