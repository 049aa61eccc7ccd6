import ast
import random
import time
from collections import Counter
from pathlib import Path

import pytest

from shapegraph import (
    Edge,
    Graph,
    ParseError,
    STAR,
    SchemaClass,
    classify,
    from_shape_graph,
    parse_schema,
    serialize_schema,
    to_shape_graph,
)
from shapegraph.errors import ClassPreconditionError, ShapegraphError
from shapegraph import rbe, schema
from shapegraph.fixtures import dnf_containment_instance, exponential_family, union_containment_instance
from shapegraph.schema import Schema, star_closed_references

from conftest import (
    BASIC,
    BUG_SCHEMA_TEXT,
    BUG_VARIANT_TEXT,
    CHAIN_SCHEMA_TEXT,
    chain_schema,
    deep_chain_text,
    lines_run,
    random_flat_rbe,
    random_minus_schema,
    random_rbe,
    sweep_star_closed,
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

    def test_eps_label_round_trips(self):
        # eps followed by :: is a label; anywhere else it is the empty word.
        s = from_shape_graph(Graph(("t", "u"), [Edge("t", "eps", "u")], kind="shape"))
        text = serialize_schema(s)
        assert "t -> eps::u\n" in text
        assert parse_schema(text) == s
        s = parse_schema("t -> eps::eps?, a::t*\neps -> eps\n")
        assert s.symbols["t"] == (("a", "t"), ("eps", "eps")) and s.symbols["eps"] == ()
        assert parse_schema(serialize_schema(s)) == s

    def test_header_optional(self):
        assert parse_schema("t -> eps\n").types == ("t",)

    def test_undefined_type_in_a_shared_rule_names_the_first_type(self):
        # v and t share one definition, derived once: the error still names
        # the first type in order that has it.
        with pytest.raises(ParseError, match="^rule for v references undefined type x$"):
            parse_schema("u -> eps\nv -> a::x, b::u\nt -> a::x, b::u\n")

    def test_bad_body_reports_its_own_line(self):
        good = "a::u, b::u?"
        for text, line in [(f"u -> eps\nt -> {good}\nv -> {good}\nw -> a::u, $\n", 4),
                           (f"u -> eps\nt -> {good}\nv -> a::u |\nw -> a::u |\n", 3),
                           (f"u -> eps\nt -> a::u^[2;\nv -> {good}\n", 2)]:
            with pytest.raises(ParseError) as exc:
                parse_schema(text)
            assert exc.value.line == line, text

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

    def test_matches_the_sweep_on_random_graphs(self):
        # Random edges among t0..t5, self-loops included, plus the pure
        # reference cycle u0 <-> u1 (whose types also point at t-types) and
        # the unreferenced type v; each graph in two edge orders.
        rng = random.Random(39)
        closed_non_star = 0
        for _ in range(300):
            ts = [f"t{i}" for i in range(rng.randint(1, 6))]
            edges = [Edge(rng.choice(ts + ["u0", "u1"]), rng.choice("ab"), rng.choice(ts), rng.choice(BASIC))
                     for _ in range(rng.randint(0, 2 * len(ts) + 4))]
            edges += [Edge("u0", "a", "u1"), Edge("u1", "a", "u0"), Edge("v", "a", rng.choice(ts))]
            types = ts + ["u0", "u1", "v"]
            for _ in range(2):
                rng.shuffle(edges)
                g = Graph(types, edges, kind="shape")
                closed = star_closed_references(g)
                assert closed == sweep_star_closed(g), edges
                closed_non_star += sum(closed[i] and e.occur != STAR for i, e in enumerate(g.edges))
        assert closed_non_star > 50


class TestDeepChain:
    """deep_chain_text at 4,000 types: the rules come deepest first, so a
    sweep over the edges in order closes one more reference per sweep."""

    def test_classify_does_linear_work(self):
        start = time.monotonic()
        n = 4000
        for star, expected in ((True, SchemaClass.DetShEx0Minus), (False, SchemaClass.DetShEx0)):
            s = parse_schema(deep_chain_text(n, star))
            size = len(s.types) + sum(len(s.symbols[t]) for t in s.types)
            (cls, diags), _ = lines_run(lambda: classify(s), [schema], cap=40 * size)
            assert cls == expected
            if star:
                assert diags == []
            else:
                sources = [f"t{i - 1}" for i in range(n, 1, -1)] + ["r"]
                assert diags == [f"type t{i} uses ? but the reference {src} a t{i} is not *-closed"
                                 for i, src in zip(range(n, 0, -1), sources)]
        assert time.monotonic() - start < 10.0


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


def _reference(defs, t):
    """What Schema derives for type t, computed from defs[t] alone:
    (flat, symbols, boxes as (atoms, bounds, by_label) triples, rest,
    whether a node with no out-edge may hold t)."""
    e = defs[t]
    flat = rbe.to_rbe0(e)
    forms, rest = [], []
    if flat is not None:
        forms.append(flat)
    else:
        for p in e.parts if isinstance(e, rbe.Disj) else (e,):
            boxes = rbe.to_boxes(p)
            if boxes is None:
                rest.append(p)
            else:
                forms += boxes
    boxes = []
    for atoms in forms:
        by_label = {}
        for j, ((label, u), _) in enumerate(atoms):
            by_label.setdefault(label, []).append((j, u))
        boxes.append((tuple(atoms), tuple((iv.min, iv.max) for _, iv in atoms), by_label))
    bare = bool(rest) or any(all(iv.min == 0 for _, iv in atoms) for atoms in forms)
    return flat, tuple(sorted(rbe.alphabet(e), key=str)), boxes, tuple(rest), bare


def assert_derived_per_type(s: Schema):
    by_label = {}
    edgeless = []
    for t in s.types:
        flat, symbols, boxes, rest, bare = _reference(s.defs, t)
        assert s.flat[t] == flat and s.symbols[t] == symbols, t
        got, got_rest = s.boxes[t]
        assert [(b.atoms, b.bounds, b.by_label) for b in got] == boxes and got_rest == rest, t
        if bare:
            edgeless.append(t)
        if rbe.bag_matches(s.defs[t], Counter()):
            assert bare, t  # a rule that holds ε is never filtered out
        for label, u in symbols:
            by_label.setdefault(label, {}).setdefault(u, []).append(t)
    assert s.by_label == by_label
    assert s.edgeless == tuple(edgeless)


def _schema_literals():
    """Every string literal in tests/ that parses as a schema."""
    found = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and "->" in node.value:
                try:
                    found.append(parse_schema(node.value))
                except ShapegraphError:
                    pass
    return found


class TestDerivedOncePerDefinition:
    def test_parse_and_derive_once_per_distinct_rule(self, monkeypatch):
        _, k = dnf_containment_instance(4, ((1, -2), (2, 3), (-1, -3, 4), (-4,)))
        text = serialize_schema(k)
        bodies = [line.partition("->")[2] for line in text.splitlines()[1:]]
        assert len(set(bodies)) < len(bodies)  # the K schema repeats bodies
        calls = Counter()
        for name in ("parse_rbe", "to_rbe0", "to_boxes"):
            real = getattr(rbe, name)

            def counting(*args, real=real, name=name, **kwargs):
                calls[name, args[0]] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(rbe, name, counting)
        s = parse_schema(text)
        assert s == k
        parsed = [body for (name, body) in calls if name == "parse_rbe"]
        assert sorted(parsed) == sorted(set(bodies))
        assert {calls[key] for key in calls} == {1}
        assert [e for (name, e) in calls if name == "to_rbe0"] == list(dict.fromkeys(s.defs.values()))

    def test_shared_definitions_share_their_boxes(self):
        s = parse_schema("u -> eps\nt -> (a::u | b::u), c::u\nv -> (a::u | b::u), c::u\n")
        assert s.boxes["t"] is s.boxes["v"] and len(s.boxes["t"][0]) == 2

    def test_fixtures_and_literals_match_a_per_type_reference(self):
        schemas = [s for n in (1, 2, 3) for s in exponential_family(n)]
        schemas += dnf_containment_instance(3, ((1, 2), (-1, 3), (-2, -3)))
        schemas += dnf_containment_instance(5, ((1, -2, 3), (-1,), (2, 4, -5), (5,), (-3, -4)))
        for e0, es in [("a, b", ["a | b", "(a, b)*"]), ("(a | b)+", ["a*, b+", "a+, b*"]),
                       ("a^[1;3], b?", ["(a | b)^[1;4]", "a^2"]), ("(a, b)*", ["(a | b)*"])]:
            schemas += union_containment_instance(rbe.parse_rbe(e0), [rbe.parse_rbe(e) for e in es])
        literals = _schema_literals()
        assert len(literals) > 50
        for s in schemas + literals:
            assert_derived_per_type(s)

    def test_random_schemas_with_repeated_bodies(self):
        rng = random.Random(33)
        types = [f"t{i}" for i in range(6)]
        syms = [(lab, t) for lab in "ab" for t in types[:3]]
        for _ in range(150):
            pool = [random_rbe(rng, syms, depth=rng.randint(0, 3)) for _ in range(rng.randint(1, 3))]
            pool.append(random_flat_rbe(rng, syms, depth=2))
            defs = {t: rng.choice(pool) for t in types}
            s = Schema(defs)
            assert_derived_per_type(s)
            text = serialize_schema(s)
            if "<empty>" not in text:
                assert parse_schema(text) == s
                assert_derived_per_type(parse_schema(text))
