import random
from collections import Counter

import pytest

from shapegraph import (
    Budget,
    CnfFormula,
    NotContained,
    SchemaClass,
    Unknown,
    classify,
    dnf_containment_instance,
    embeds,
    exponential_family,
    find_counterexample,
    normalize_cnf,
    sat_embedding_instance,
    serialize_schema,
    union_containment_instance,
    validates,
)
from shapegraph.errors import ShapegraphError
from shapegraph.rbe import bag_matches, parse_rbe

from conftest import cnf_satisfiable, dnf_tautology, random_flat_rbe


# serialize_schema of exponential_family(n), H then K: the K rules in the
# order the family has always emitted them.
EXPONENTIAL_TEXT = {
    1: (
        "schema\n"
        "t1 -> L::t2, R::t2\n"
        "t2 -> a1::to?\n"
        "to -> eps\n",
        "schema\n"
        "t2 -> a1::to?\n"
        "to -> eps\n"
        "s2_1_0_L -> eps\n"
        "s2_1_0_R -> eps\n"
        "s2_1_1_L -> a1::to\n"
        "s2_1_1_R -> a1::to\n"
        "p1_1_L -> L::s2_1_0_L?, L::s2_1_0_R?, R::t2\n"
        "p1_1_R -> L::t2, R::s2_1_1_L?, R::s2_1_1_R?\n",
    ),
    2: (
        "schema\n"
        "t1 -> L::t2, R::t2\n"
        "t2 -> L::t3, R::t3\n"
        "t3 -> a1::to?, a2::to?\n"
        "to -> eps\n",
        "schema\n"
        "t2 -> L::t3, R::t3\n"
        "t3 -> a1::to?, a2::to?\n"
        "to -> eps\n"
        "s3_1_0_L -> a2::to?\n"
        "s3_1_0_R -> a2::to?\n"
        "s3_1_1_L -> a1::to, a2::to?\n"
        "s3_1_1_R -> a1::to, a2::to?\n"
        "s2_1_0_L -> L::s3_1_0_L?, L::s3_1_0_R?, R::t3\n"
        "s2_1_0_R -> L::t3, R::s3_1_0_L?, R::s3_1_0_R?\n"
        "s2_1_1_L -> L::s3_1_1_L?, L::s3_1_1_R?, R::t3\n"
        "s2_1_1_R -> L::t3, R::s3_1_1_L?, R::s3_1_1_R?\n"
        "p1_1_L -> L::s2_1_0_L?, L::s2_1_0_R?, R::t2\n"
        "p1_1_R -> L::t2, R::s2_1_1_L?, R::s2_1_1_R?\n"
        "s3_2_0_L -> a1::to?\n"
        "s3_2_0_R -> a1::to?\n"
        "s3_2_1_L -> a1::to?, a2::to\n"
        "s3_2_1_R -> a1::to?, a2::to\n"
        "p2_2_L -> L::s3_2_0_L?, L::s3_2_0_R?, R::t3\n"
        "p2_2_R -> L::t3, R::s3_2_1_L?, R::s3_2_1_R?\n"
        "p1_2_L -> L::p2_2_L?, L::p2_2_R?, R::t2\n"
        "p1_2_R -> L::t2, R::p2_2_L?, R::p2_2_R?\n",
    ),
    3: (
        "schema\n"
        "t1 -> L::t2, R::t2\n"
        "t2 -> L::t3, R::t3\n"
        "t3 -> L::t4, R::t4\n"
        "t4 -> a1::to?, a2::to?, a3::to?\n"
        "to -> eps\n",
        "schema\n"
        "t2 -> L::t3, R::t3\n"
        "t3 -> L::t4, R::t4\n"
        "t4 -> a1::to?, a2::to?, a3::to?\n"
        "to -> eps\n"
        "s4_1_0_L -> a2::to?, a3::to?\n"
        "s4_1_0_R -> a2::to?, a3::to?\n"
        "s4_1_1_L -> a1::to, a2::to?, a3::to?\n"
        "s4_1_1_R -> a1::to, a2::to?, a3::to?\n"
        "s2_1_0_L -> L::s3_1_0_L?, L::s3_1_0_R?, R::t3\n"
        "s2_1_0_R -> L::t3, R::s3_1_0_L?, R::s3_1_0_R?\n"
        "s2_1_1_L -> L::s3_1_1_L?, L::s3_1_1_R?, R::t3\n"
        "s2_1_1_R -> L::t3, R::s3_1_1_L?, R::s3_1_1_R?\n"
        "s3_1_0_L -> L::s4_1_0_L?, L::s4_1_0_R?, R::t4\n"
        "s3_1_0_R -> L::t4, R::s4_1_0_L?, R::s4_1_0_R?\n"
        "s3_1_1_L -> L::s4_1_1_L?, L::s4_1_1_R?, R::t4\n"
        "s3_1_1_R -> L::t4, R::s4_1_1_L?, R::s4_1_1_R?\n"
        "p1_1_L -> L::s2_1_0_L?, L::s2_1_0_R?, R::t2\n"
        "p1_1_R -> L::t2, R::s2_1_1_L?, R::s2_1_1_R?\n"
        "s4_2_0_L -> a1::to?, a3::to?\n"
        "s4_2_0_R -> a1::to?, a3::to?\n"
        "s4_2_1_L -> a1::to?, a2::to, a3::to?\n"
        "s4_2_1_R -> a1::to?, a2::to, a3::to?\n"
        "s3_2_0_L -> L::s4_2_0_L?, L::s4_2_0_R?, R::t4\n"
        "s3_2_0_R -> L::t4, R::s4_2_0_L?, R::s4_2_0_R?\n"
        "s3_2_1_L -> L::s4_2_1_L?, L::s4_2_1_R?, R::t4\n"
        "s3_2_1_R -> L::t4, R::s4_2_1_L?, R::s4_2_1_R?\n"
        "p2_2_L -> L::s3_2_0_L?, L::s3_2_0_R?, R::t3\n"
        "p2_2_R -> L::t3, R::s3_2_1_L?, R::s3_2_1_R?\n"
        "p1_2_L -> L::p2_2_L?, L::p2_2_R?, R::t2\n"
        "p1_2_R -> L::t2, R::p2_2_L?, R::p2_2_R?\n"
        "s4_3_0_L -> a1::to?, a2::to?\n"
        "s4_3_0_R -> a1::to?, a2::to?\n"
        "s4_3_1_L -> a1::to?, a2::to?, a3::to\n"
        "s4_3_1_R -> a1::to?, a2::to?, a3::to\n"
        "p3_3_L -> L::s4_3_0_L?, L::s4_3_0_R?, R::t4\n"
        "p3_3_R -> L::t4, R::s4_3_1_L?, R::s4_3_1_R?\n"
        "p1_3_L -> L::p2_3_L?, L::p2_3_R?, R::t2\n"
        "p1_3_R -> L::t2, R::p2_3_L?, R::p2_3_R?\n"
        "p2_3_L -> L::p3_3_L?, L::p3_3_R?, R::t3\n"
        "p2_3_R -> L::t3, R::p3_3_L?, R::p3_3_R?\n",
    ),
}


class TestNormalization:
    def test_adds_missing_polarity(self):
        phi = normalize_cnf(CnfFormula(2, ((1, 2),)))
        assert phi.occurrences_per_variable is not None
        pos, neg = phi.counts()
        assert all(neg[i] >= 1 for i in neg)

    def test_preserves_satisfiability(self):
        rng = random.Random(67)
        for _ in range(80):
            n = rng.randint(1, 3)
            clauses = tuple(
                tuple(
                    rng.choice([i, -i])
                    for i in rng.sample(range(1, n + 1), rng.randint(1, n))
                )
                for _ in range(rng.randint(1, 3))
            )
            phi = CnfFormula(n, clauses)
            norm = normalize_cnf(phi)
            assert norm.occurrences_per_variable is not None
            assert cnf_satisfiable(phi) == cnf_satisfiable(norm)

    @pytest.mark.parametrize("num_vars, clauses, appended, k", [
        # No clause is tautological and x1 is one short of the largest
        # count: x1 gets one tautology past it, which x2..x4 then widen.
        (4, ((-1, -4), (-4, 1, -4), (2,), (1, 2, 3), (-2, -3), (4, -1, -3, 4)),
         ((1, -1, 2, 3, 4), (2, -2), (3, -3)), 6),
        (2, ((1, 2),), ((1, -1), (2, -2)), 3),
        (1, ((1,), (-1,)), (), 2),
        (3, ((1, 2, 3), (-1, -2), (2,)), ((3, -3, 1),), 3),
    ])
    def test_appended_clauses_are_pinned(self, num_vars, clauses, appended, k):
        phi = normalize_cnf(CnfFormula(num_vars, clauses))
        assert phi.clauses == clauses + appended
        assert phi.occurrences_per_variable == k

    def test_unsat_example(self):
        phi = normalize_cnf(CnfFormula(1, ((1,), (-1,))))
        assert not cnf_satisfiable(phi)


class TestSatInstance:
    def test_requires_normal_form(self):
        with pytest.raises(ShapegraphError):
            sat_embedding_instance(CnfFormula(1, ((1,),)))

    def test_accepts_a_formula_balanced_by_hand(self):
        phi = CnfFormula(1, ((1, -1),))
        assert phi.occurrences_per_variable == 2
        h, k = sat_embedding_instance(phi)
        assert embeds(h, k)[0]

    def test_instances_are_general_interval_graphs(self):
        phi = normalize_cnf(CnfFormula(2, ((1, -2), (-1, 2))))
        h, k = sat_embedding_instance(phi)
        assert h.kind == "general" and k.kind == "general"
        assert not all(e.occur.basic for e in h.edges)

    def test_fidelity_spot_checks(self):
        for clauses, n in (
            (((1,), (-1,)), 1),  # unsatisfiable
            (((1, -2), (-1, 2)), 2),  # satisfiable
            (((1,), (-1, 2), (-2,)), 2),  # unsatisfiable
        ):
            phi = normalize_cnf(CnfFormula(n, clauses))
            h, k = sat_embedding_instance(phi)
            ok, _ = embeds(h, k)
            assert ok == cnf_satisfiable(phi), clauses


class TestDnfInstance:
    def test_classification(self):
        h, k = dnf_containment_instance(2, ((1, -2),))
        for s in (h, k):
            cls, _ = classify(s)
            assert cls == SchemaClass.DetShEx0

    def test_fidelity_spot_checks(self):
        budget = Budget(max_nodes=6, max_card=1, timeout=None)
        taut = ((1,), (-1,))
        non = ((1, 2),)
        h, k = dnf_containment_instance(2, taut)
        assert find_counterexample(h, k, budget) == Unknown(
            "no counter-example with <= 6 nodes and cardinalities <= 1")
        h, k = dnf_containment_instance(2, non)
        v = find_counterexample(h, k, budget)
        assert isinstance(v, NotContained)
        assert validates(v.witness, h) and not validates(v.witness, k)


class TestExponentialFamily:
    def test_classification(self):
        h, k = exponential_family(2)
        assert classify(h)[0].value >= SchemaClass.ShEx0.value
        assert classify(k)[0] == SchemaClass.ShEx0

    @pytest.mark.parametrize("n", sorted(EXPONENTIAL_TEXT))
    def test_rule_text_is_pinned(self, n):
        h, k = exponential_family(n)
        assert (serialize_schema(h), serialize_schema(k)) == EXPONENTIAL_TEXT[n]

    def test_minimal_counterexample_n1(self):
        h, k = exponential_family(1)
        v = find_counterexample(h, k, Budget(max_nodes=6, max_card=1, timeout=None))
        assert isinstance(v, NotContained)
        assert len(v.witness.nodes) == 4
        assert validates(v.witness, h) and not validates(v.witness, k)


class TestUnionInstance:
    def bag_language_contained(self, e0, es, symbols, max_size=4):
        from itertools import product

        def ok(e, w):
            try:
                return bag_matches(e, w)
            except ShapegraphError:
                return False

        for combo in product(range(max_size + 1), repeat=len(symbols)):
            w = Counter({s: c for s, c in zip(symbols, combo) if c})
            if sum(w.values()) > max_size:
                continue
            if ok(e0, w) and not any(ok(e, w) for e in es):
                return False
        return True

    def test_contained_case(self):
        e0 = parse_rbe("a | b")
        es = [parse_rbe("a"), parse_rbe("b")]
        h, k = union_containment_instance(e0, es)
        v = find_counterexample(h, k, Budget(max_nodes=4, max_card=3))
        assert v == Unknown("no counter-example with <= 4 nodes and cardinalities <= 3")
        assert self.bag_language_contained(e0, es, ("a", "b"))

    def test_not_contained_case(self):
        e0 = parse_rbe("a*")
        es = [parse_rbe("a?")]
        h, k = union_containment_instance(e0, es)
        v = find_counterexample(h, k, Budget(max_nodes=4, max_card=3))
        assert isinstance(v, NotContained)
        assert not self.bag_language_contained(e0, es, ("a",))

    def test_random_agreement(self):
        rng = random.Random(71)
        checked = 0
        for _ in range(25):
            e0 = random_flat_rbe(rng, symbols=("a", "b"), depth=2)
            es = [random_flat_rbe(rng, symbols=("a", "b"), depth=2) for _ in range(2)]
            h, k = union_containment_instance(e0, es)
            v = find_counterexample(h, k, Budget(max_nodes=4, max_card=4, timeout=None))
            oracle = self.bag_language_contained(e0, es, ("a", "b"), max_size=4)
            if isinstance(v, NotContained):
                assert not self.bag_language_contained(e0, es, ("a", "b"), max_size=8)
                checked += 1
            elif oracle is False:
                # A counter-example exists with a small bag; the bounded
                # search must find one (bags of size <= 4 fit the budget).
                assert isinstance(v, NotContained)
        assert checked >= 3
