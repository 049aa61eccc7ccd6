import copy
import gc
import itertools
import pickle
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from shapegraph import INF, Interval, ONE, OPT, PLUS, STAR, ParseError
from shapegraph import rbe
from shapegraph.rbe import (
    EMPTY,
    EPSILON,
    Concat,
    Disj,
    Intersect,
    Repeat,
    Sym,
    alphabet,
    bag_matches,
    parse_rbe,
    rbe_to_text,
    sums,
    to_boxes,
    to_rbe0,
)

from conftest import BASIC, brute_matches, random_bag, random_flat_rbe, random_rbe, routes_bag
from shapegraph.errors import AlphabetError


def bag(*symbols):
    return Counter(symbols)


def matches(e, w):
    """bag_matches with the out-of-alphabet error folded into False."""
    try:
        return bag_matches(e, w)
    except AlphabetError:
        return False


class TestMatching:
    def test_epsilon_and_empty(self):
        assert bag_matches(EPSILON, bag())
        assert not matches(EPSILON, bag("a"))
        assert not bag_matches(EMPTY, bag())

    def test_commutativity_is_free(self):
        e = parse_rbe("a, b, a")
        assert bag_matches(e, bag("a", "a", "b"))
        assert bag_matches(e, bag("b", "a", "a"))
        assert not bag_matches(e, bag("a", "b"))

    def test_disjunction(self):
        e = parse_rbe("a | b, b")
        assert bag_matches(e, bag("a"))
        assert bag_matches(e, bag("b", "b"))
        assert not bag_matches(e, bag("a", "b"))

    def test_repeat_intervals(self):
        e = parse_rbe("a^[2;3]")
        assert not bag_matches(e, bag("a"))
        assert bag_matches(e, bag("a", "a"))
        assert bag_matches(e, bag("a", "a", "a"))
        assert not bag_matches(e, bag("a", "a", "a", "a"))

    def test_nested_repeat(self):
        # (a,b)^[2;2] needs exactly two a's and two b's.
        e = parse_rbe("(a, b)^[2;2]")
        assert bag_matches(e, bag("a", "a", "b", "b"))
        assert not bag_matches(e, bag("a", "b"))
        assert not bag_matches(e, bag("a", "a", "b"))

    def test_large_bounds_take_no_more_rounds_than_the_bag(self):
        assert not bag_matches(parse_rbe("a^[1000000;inf]"), bag("a", "a"))
        assert bag_matches(parse_rbe("(a?)^[1000000;1000000]"), bag("a", "a"))
        assert bag_matches(parse_rbe("(a, b?)^[0;1000000]"), bag("a", "a", "b"))

    def test_intersection(self):
        e = Intersect((parse_rbe("a*, b*"), parse_rbe("(a, b)*")))
        assert bag_matches(e, bag("a", "b", "a", "b"))
        assert not bag_matches(e, bag("a"))

    def test_star_of_disjunction(self):
        e = parse_rbe("(a | b)*")
        for w in (bag(), bag("a"), bag("b", "b", "a")):
            assert bag_matches(e, w)


class TestRbe0:
    def test_to_rbe0_flat_only(self):
        assert to_rbe0(parse_rbe("a?, b*, c")) == (("a", OPT), ("b", STAR), ("c", ONE))
        assert to_rbe0(parse_rbe("eps")) == ()  # flat, with no atom
        assert to_rbe0(parse_rbe("a | b")) is None
        assert to_rbe0(parse_rbe("(a, b)*")) is None
        assert to_rbe0(parse_rbe("a^[2;3]")) is None  # non-basic interval
        assert to_rbe0(parse_rbe("(a, b?), c")) == to_rbe0(parse_rbe("a, b?, c"))

    def test_flat_routing_simple(self):
        atoms = to_rbe0(parse_rbe("a, a?, b*"))
        assert routes_bag(atoms, bag("a"))
        assert routes_bag(atoms, bag("a", "a", "b", "b"))
        assert not routes_bag(atoms, bag())
        assert not routes_bag(atoms, bag("a", "a", "a"))
        assert not routes_bag(atoms, bag("a", "c"))

    def test_exhaustive_oracle_agreement_small(self):
        # The full sweep is in the acceptance suite; spot-check here.
        symbols = ("a", "b")
        atoms = [(s, iv) for s in symbols for iv in BASIC]
        rng = random.Random(3)
        for _ in range(200):
            chosen = [rng.choice(atoms) for _ in range(rng.randint(0, 3))]
            e = rbe.concat_all([rbe.atom(a, iv) for a, iv in chosen])
            w = random_bag(rng, symbols, 4)
            assert routes_bag(chosen, w) == matches(e, w)


def box_vectors(boxes, symbols, cap):
    """The count vectors over symbols, each at most cap, in some box."""
    vectors = set()
    for box in map(sums, boxes):
        assert set(box) <= set(symbols)
        vectors.update(itertools.product(*[range(box[a].min, min(box[a].max, cap) + 1) if a in box else (0,)
                                           for a in symbols]))
    return vectors


class TestBoxes:
    @pytest.mark.parametrize(("text", "boxes"), [
        ("eps", [()]),
        ("a, b*", [(("a", ONE), ("b", STAR))]),
        ("(a | b), c", [(("a", ONE), ("c", ONE)), (("b", ONE), ("c", ONE))]),
        ("a & b", []),  # an empty meet
        ("a? & b*", [()]),
        ("(a*, b*) & (a*, b*)", [(("a", STAR), ("b", STAR))]),
        ("a^[2;4], a", [(("a", Interval(3, 5)),)]),
        ("(a?)^[2;5]", [(("a", Interval(0, 5)),)]),
        ("(a, b^2)^3", [(("a", Interval(3, 3)), ("b", Interval(6, 6)))]),
        ("((a^[0;2])^[3;inf])^0", [()]),  # ^0 over an unbounded body is ε
        ("(a, b)*", None),  # a period over two symbols
        ("a+ & (a^2)*", None),  # a period of 2
        ("(a | b)+", [(("a", PLUS), ("b", STAR)), (("a", STAR), ("b", PLUS))]),  # nonzero bags of a, b
        # A finite repeat over several boxes: the sums of k boxes, k = n..m.
        ("(a | b)?", [(), (("a", ONE),), (("b", ONE),)]),
        ("(a | b)^[1;3]", [(("a", ONE),), (("b", ONE),),
                           (("a", Interval(2, 2)),), (("a", ONE), ("b", ONE)), (("b", Interval(2, 2)),),
                           (("a", Interval(3, 3)),), (("a", Interval(2, 2)), ("b", ONE)),
                           (("a", ONE), ("b", Interval(2, 2))), (("b", Interval(3, 3)),)]),
        ("(a, b)^[1;2]", [(("a", ONE), ("b", ONE)), (("a", Interval(2, 2)), ("b", Interval(2, 2)))]),
        ("(a | b | c | d)^[0;4]", None),  # 70 boxes, past BOX_CAP
        ("(a | b)^[0;8]", None),  # 45 boxes, but 285 atoms charged
        # A * or + of one-symbol boxes that each hold their symbol once.
        ("(a | b)*", [(("a", STAR), ("b", STAR))]),
        ("(a | b? | c^[1;4])+", [(("a", STAR), ("b", STAR), ("c", STAR))]),  # b? holds the zero bag
        ("(a | a+)+", [(("a", PLUS),)]),
        ("(a^2 | b)*", None),  # a period of 2
        ("(a | b)^[2;inf]", None),
        # A * or + of boxes of several symbols, when some box holds the unit
        # bag of each symbol: that symbol at an interval holding 1, the
        # others at min 0.
        ("(a*, b*)*", [(("a", STAR), ("b", STAR))]),
        ("(a?, b*)+", [(("a", STAR), ("b", STAR))]),  # the box holds the zero bag
        ("(a, b* | b)+", [(("a", PLUS), ("b", STAR)), (("a", STAR), ("b", PLUS))]),
        ("(a, b? | b, c? | c)*", [(("a", STAR), ("b", STAR), ("c", STAR))]),
        ("(a, b | c)+", None),  # no box holds the unit bag of a or b
        ("(a?, b | a, b?)^[2;inf]", None),
    ])
    def test_known_forms(self, text, boxes):
        assert to_boxes(parse_rbe(text)) == boxes

    def test_empty_language_has_no_box(self):
        assert to_boxes(EMPTY) == [] and to_boxes(Repeat(EMPTY, STAR)) == [()]
        assert to_boxes(Concat((Sym("a"), EMPTY))) == [] and to_boxes(Repeat(EMPTY, PLUS)) == []

    def test_box_count_is_capped(self):
        wide = Concat(tuple(Disj((Sym(f"a{i}"), Sym(f"b{i}"))) for i in range(7)))
        assert to_boxes(wide) is None  # 2^7 = 128 boxes
        assert len(to_boxes(Concat(wide.parts[:6]))) == rbe.BOX_CAP
        # The work is charged before the pairs are made: 2^40 would not end.
        assert to_boxes(Concat(tuple(Disj((Sym(f"a{i}"), Sym(f"b{i}"))) for i in range(40)))) is None
        # So is a repeat's: the sums of up to 10^6 boxes would not end.
        assert to_boxes(parse_rbe("(a | b)^[0;1000000]")) is None

    def test_fold_work_is_linear(self):
        # Each level of a nested concatenation would copy the box below it,
        # so the atoms built are capped in all, at BOX_CAP per
        # sub-expression: a deep chain of distinct symbols has no box form.
        def chain(depth):
            e = Disj((Sym("x"), Sym("y")))
            for i in range(depth):
                e = Concat((e, Sym(f"b{i}")))
            return e

        assert len(to_boxes(chain(100))) == 2
        assert to_boxes(chain(10**4)) is None

    def test_boxes_equal_parikh_vectors(self):
        # Inside [0;4]^k the union of the boxes holds exactly the Parikh
        # vectors of the expression, for every expression with a box form.
        rng = random.Random(41)
        symbols = ("a", "b", "c")
        boxed = 0
        for _ in range(3000):
            e = random_rbe(rng, symbols, depth=rng.randint(1, 4))
            boxes = to_boxes(e)
            if boxes is not None:
                boxed += 1
                assert box_vectors(boxes, symbols, 4) == rbe.parikh_vectors(e, symbols, (4,) * 3), rbe_to_text(e)
        assert 2000 < boxed < 3000

    def test_star_and_plus_fold_when_every_unit_bag_is_a_box(self):
        # A * or + over a union of boxes, each a concatenation of one to
        # three atoms or ε, folds exactly when the body's language holds
        # the unit bag of every symbol it uses (read off parikh_vectors);
        # inside [0;4]^3 the fold holds exactly the Parikh vectors.
        rng = random.Random(43)
        symbols = ("a", "b", "c")
        units = [tuple(int(a == s) for a in symbols) for s in symbols]
        intervals = [ONE, OPT, STAR, PLUS, Interval(0, 2), Interval(1, 3), Interval(0, 0), Interval(2, 3)]
        folded = several = 0
        for _ in range(2000):
            parts = [EPSILON if rng.random() < 0.1 else
                     rbe.concat_all([rbe.atom(a, rng.choice(intervals))
                                     for a in rng.sample(symbols, rng.choice([1, 1, 2, 3]))])
                     for _ in range(rng.randint(2, 4))]
            body = rbe.disj_all(parts)
            e = Repeat(body, rng.choice([STAR, PLUS]))
            boxes = to_boxes(e)
            bags = rbe.parikh_vectors(body, symbols, (4,) * 3)
            used = {i for v in bags for i, k in enumerate(v) if k}
            assert (boxes is not None) == all(units[i] in bags for i in used), rbe_to_text(e)
            if boxes is not None:
                folded += 1
                several += any(len(b) > 1 for b in to_boxes(body))
                assert box_vectors(boxes, symbols, 4) == rbe.parikh_vectors(e, symbols, (4,) * 3), rbe_to_text(e)
        assert 500 < folded < 2000 and several > 200


class TestHashConsing:
    def test_equal_expressions_are_one_node(self):
        assert parse_rbe("a, b") is Concat((Sym("a"), Sym("b")))
        assert parse_rbe("(a | b), (a | b)").parts[0] is parse_rbe("a | b")
        x = Sym("x")
        assert Repeat(x, Interval(1, INF)) is Repeat(x, PLUS)

    def test_operators_are_told_apart(self):
        ps = (Sym("a"), Sym("b"))
        assert Disj(ps) is not Concat(ps)
        assert Disj(ps) != Concat(ps)

    def test_nodes_are_immutable(self):
        e = Sym("a")
        with pytest.raises(AttributeError):
            e.symbol = "b"
        with pytest.raises(AttributeError):
            del e.symbol
        assert e.symbol == "a"

    def test_copies_are_the_node_itself(self):
        e = parse_rbe("(a, b?)* | eps")
        assert copy.deepcopy(e) is e
        assert pickle.loads(pickle.dumps(e)) is e

    def test_the_table_does_not_leak(self):
        gc.collect()
        before = len(rbe._TABLE)
        nodes = [Repeat(Sym(f"throwaway{i}"), OPT) for i in range(5000)]
        assert len(rbe._TABLE) == before + 10**4
        del nodes
        gc.collect()
        assert len(rbe._TABLE) == before

    def test_a_dead_node_leaves_the_table(self):
        key = (Sym, "phoenix")
        Sym("phoenix")
        assert key not in rbe._TABLE
        x = Sym("phoenix")
        # A stale callback, of a reference that is no longer the entry,
        # leaves the live node's entry alone.
        stale = rbe._Ref(x)
        stale.key = key
        rbe._forget(stale)
        assert Sym("phoenix") is x and rbe._TABLE[key]() is x
        del x
        assert key not in rbe._TABLE


class TestParser:
    def test_roundtrip(self):
        for text in ("a", "a?", "(a | b), c*", "a^[2;3], b+", "eps", "(a & b) | c"):
            e = parse_rbe(text)
            assert parse_rbe(rbe_to_text(e)) == e

    def test_untyped_eps_symbol_has_no_text(self):
        # parse_rbe reads the text eps as ε, so a symbol of that name would
        # print as text that reads back as another expression; typed, eps
        # is a label or a type and round-trips.
        with pytest.raises(ValueError):
            rbe_to_text(Concat((Sym("eps"), Sym("a"))))
        e = parse_rbe("eps::eps, a::t", typed=True)
        assert rbe_to_text(e) == "eps::eps, a::t"
        assert parse_rbe(rbe_to_text(e), typed=True) == e

    def test_one_node_per_operator_chain(self):
        a, b, c = Sym("a"), Sym("b"), Sym("c")
        assert parse_rbe("a, b, c") == Concat((a, b, c))
        assert parse_rbe("a | b & c | a") == Disj((a, Intersect((b, c)), a))

    def test_nested_chains_keep_their_parentheses(self):
        for text in ("(a, b), c", "a | (b | c)", "(a & b) & c"):
            e = parse_rbe(text)
            assert rbe_to_text(e) == text
            assert parse_rbe(rbe_to_text(e)) == e

    def test_nested_repeats_print_in_linear_time(self):
        # Each level formats its body once; twice per level is 2^40 calls here.
        e = parse_rbe("(" * 40 + "a" + ")?" * 40)
        assert parse_rbe(rbe_to_text(e)) == e

    def test_typed_atoms(self):
        e = parse_rbe("a::t1, b::t2?", typed=True)
        assert alphabet(e) == {("a", "t1"), ("b", "t2")}

    def test_exponent_shorthand(self):
        assert parse_rbe("a^3") == Repeat(Sym("a"), Interval(3, 3))

    def test_occurrence_forms_of_the_readme(self):
        # The README's expression occurrences; an interval follows '^', and
        # [n;*], Inf and INF are graph occurrence tokens only.
        u = Sym(("a", "u"))
        for text, occur in [("a::u?", OPT), ("a::u+", PLUS), ("a::u*", STAR), ("a::u^3", Interval(3, 3)),
                            ("a::u^[1;2]", Interval(1, 2)), ("a::u^[2;inf]", Interval(2, INF))]:
            assert parse_rbe(text, typed=True) == Repeat(u, occur)
        for text, message in [("a::u[1;2]", "trailing input at '[1;2]'"),
                              ("a::u^[1;*]", "unexpected character '['"),
                              ("a::u^[1;Inf]", "unexpected character '['")]:
            with pytest.raises(ParseError) as exc:
                parse_rbe(text, typed=True)
            assert str(exc.value) == message

    def test_errors(self):
        for text in ("", "a |", "(a", "a^", "a^[1;0]"):
            with pytest.raises(ParseError):
                parse_rbe(text)

    @pytest.mark.parametrize("text, char, column", [("a $", "$", 2), ("[2;", "[", 1), ("a -", "-", 2)])
    def test_tokenizer_errors(self, text, char, column):
        with pytest.raises(ParseError) as exc:
            rbe.tokenize(text)
        assert (str(exc.value), exc.value.column) == (f"unexpected character {char!r}", column)

    def test_tokenizer_agrees_with_named_groups(self):
        # One group per kind, read off the match: the kinds, texts and
        # error columns must be those of the single-group scan.
        named = re.compile(r"""\s*(?:(?P<interval>\[\s*\d+\s*;\s*(?:\d+|inf)\s*\])|(?P<dcolon>::)|(?P<arrow>->)
                               |(?P<ident>[A-Za-z_][A-Za-z0-9_]*|\d+)|(?P<punct>[()|,&^?*+])|(?P<bad>\S))""", re.X)

        def reference(text):
            tokens = []
            for m in named.finditer(text.split("#", 1)[0]):
                if m.lastgroup == "bad":
                    return f"unexpected character {m.group('bad')!r}", m.start() + 1
                tokens.append((m.lastgroup, m.group(m.lastgroup)))
            return tokens

        pieces = ["a", "b1", "_x", "12", "٣", "inf", " ", "\t", ":", "::", "-", "->", "[", "]", ";", "[1;2]",
                  "[ 0 ; inf ]", "[3;", "^", "?", "*", "+", ",", "|", "&", "(", ")", "#", "$", "é", ">"]
        rng = random.Random(11)
        for _ in range(3000):
            text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 8)))
            try:
                got = rbe.tokenize(text)
            except ParseError as exc:
                got = str(exc), exc.column
            assert got == reference(text), text

    @pytest.mark.parametrize("text, tokens", [
        ("a # $", [("ident", "a")]),
        ("b::t^[1; inf],  c? \t ", [("ident", "b"), ("dcolon", "::"), ("ident", "t"), ("punct", "^"),
                                   ("interval", "[1; inf]"), ("punct", ","), ("ident", "c"), ("punct", "?")]),
    ])
    def test_tokenizer_skips_comments_and_trailing_blanks(self, text, tokens):
        assert rbe.tokenize(text) == tokens

    @settings(max_examples=60)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_roundtrip_random(self, seed):
        rng = random.Random(seed)
        e = random_flat_rbe(rng)
        assert parse_rbe(rbe_to_text(e)) == e


def random_rbe(rng, symbols=("a", "b"), depth=3):
    """Random expression with repeats over any sub-expression (nested ones
    included), intersections anywhere, ε leaves and non-basic intervals."""
    intervals = BASIC + [Interval(2, 3), Interval(3, INF), Interval(0, 2), Interval(2, 2)]
    r = rng.random()
    if depth == 0 or r < 0.25:
        return EPSILON if rng.random() < 0.15 else Sym(rng.choice(symbols))
    if r < 0.55:
        return Repeat(random_rbe(rng, symbols, depth - 1), rng.choice(intervals))
    op = rng.choice([Disj, Concat, Intersect])
    return op((random_rbe(rng, symbols, depth - 1), random_rbe(rng, symbols, depth - 1)))


class TestBruteForceCrossCheck:
    def test_agreement_on_random_small(self):
        rng = random.Random(17)
        for _ in range(250):
            e = random_flat_rbe(rng, symbols=("a", "b"), depth=2)
            w = random_bag(rng, ("a", "b"), 4)
            assert matches(e, w) == brute_matches(e, w), (rbe_to_text(e), w)

    def test_agreement_on_nested_repeats_and_intersections(self):
        rng = random.Random(23)
        verdicts = Counter()
        for _ in range(2000):
            e = random_rbe(rng)
            w = random_bag(rng, ("a", "b"), 4)
            verdicts[matches(e, w)] += 1
            assert matches(e, w) == brute_matches(e, w), (rbe_to_text(e), w)
        assert min(verdicts.values()) > 200  # both verdicts occur often

    def test_epsilon_bodies_pad_up_to_the_minimum(self):
        for text, w in (
            ("(a | eps)^[3;3]", bag("a")),
            ("(a?, b?)^[3;inf]", bag("a", "b", "b")),
            ("((a, b)^[2;3])^[0;2]", bag("a", "a", "b", "b")),
            ("((a | b)* & (a, a)*)^[2;3]", bag("a", "a", "a", "a")),
            # Shared sub-expressions: one node, one vector set per call.
            ("(a | b), (a | b)*", bag("a", "b", "b")),
            ("((a, b)? & (a, b)?)^[2;3]", bag("a", "a", "b", "b")),
            ("(a?, b)^[2;2] | ((a?, b)^[2;2], (a?, b))", bag("a", "b", "b", "b")),
        ):
            e = parse_rbe(text)
            assert bag_matches(e, w) and brute_matches(e, w), text
