"""Acceptance gate: one test (and one pass/fail line under pytest -v) per
top-level criterion, each with its stated tolerance and time bound."""

import random
import time
from collections import Counter
from itertools import combinations, combinations_with_replacement, product

import pytest

from shapegraph import (
    Budget,
    CnfFormula,
    NotContained,
    RoutingInstance,
    SchemaClass,
    Unknown,
    classify,
    characterizing_graph,
    dnf_containment_instance,
    embeds,
    exponential_family,
    find_counterexample,
    from_shape_graph,
    fuse_to_compressed,
    normalize_cnf,
    parse_schema,
    sat_embedding_instance,
    to_shape_graph,
    unpack,
    validates,
    verify_witness,
    witness_exists_basic,
    witness_exists_general,
    max_typing,
)
from shapegraph.errors import AlphabetError
from shapegraph.presburger import pa_eval_bounded, presburger_of, psi_sound_cap
from shapegraph.rbe import Intersect, atom, bag_matches, concat_all

from conftest import (
    BASIC,
    BUG_SCHEMA_TEXT,
    BUG_VARIANT_TEXT,
    chain_graph,
    chain_schema,
    cnf_satisfiable,
    dnf_tautology,
    random_bag,
    random_flat_rbe,
    random_minus_schema,
    routes_bag,
)

def _within(start, seconds):
    assert time.monotonic() - start < seconds, f"exceeded the {seconds}s bound"


def test_worked_typing_regression():
    start = time.monotonic()
    typing = max_typing(chain_graph(), chain_schema())
    assert typing == {
        "n0": frozenset({"t0"}),
        "n1": frozenset({"t1", "t2"}),
        "n2": frozenset({"t3"}),
    }
    _within(start, 1.0)


def test_worked_embedding_regression():
    start = time.monotonic()
    g = chain_graph()
    h = to_shape_graph(chain_schema())
    ok, sim = embeds(g, h)
    assert ok
    assert {("n0", "t0"), ("n1", "t1"), ("n1", "t2"), ("n2", "t3")} <= sim.pairs
    assert verify_witness(g, h, sim)
    _within(start, 1.0)


def test_star_chain_separation():
    from conftest import star_chain_pair

    start = time.monotonic()
    g, h = star_chain_pair()
    ok, _ = embeds(g, h)
    assert not ok
    v = find_counterexample(
        from_shape_graph(g), from_shape_graph(h), Budget(max_nodes=6, max_card=3, timeout=None)
    )
    # The node budget runs out, not the timeout.
    assert v == Unknown("no counter-example with <= 6 nodes and cardinalities <= 3")
    _within(start, 60.0)


def test_bug_schema_classification():
    start = time.monotonic()
    assert classify(parse_schema(BUG_SCHEMA_TEXT))[0] == SchemaClass.DetShEx0Minus
    variant = classify(parse_schema(BUG_VARIANT_TEXT))[0]
    assert variant == SchemaClass.ShEx0
    assert variant.value < SchemaClass.DetShEx0.value
    _within(start, 1.0)


def test_flow_routing_oracle_equivalence():
    # The exhaustive ≤4×4 family (interval choices × allowed relations) is
    # ≈ 4·10⁹ instances, far over the 5-minute exhaustion limit, so the
    # criterion's sampling clause applies: 10⁵ seeded random instances.
    rng = random.Random(2024)
    disagreements = 0
    for _ in range(100_000):
        ns, nu = rng.randint(1, 4), rng.randint(1, 4)
        ivs = [rng.choice(BASIC) for _ in range(ns)]
        sinks = tuple(rng.choice(BASIC) for _ in range(nu))
        inst = RoutingInstance(tuple((iv, tuple(j for j in range(nu) if rng.random() < 0.6)) for iv in ivs), sinks)
        if (witness_exists_basic(inst) is None) != (witness_exists_general(inst) is None):
            disagreements += 1
    assert disagreements == 0


def test_rbe_oracle_equivalence():
    start = time.monotonic()
    symbols = ("a", "b", "c")
    atoms = [(s, iv) for s in symbols for iv in BASIC]
    bags = [
        Counter({"a": ca, "b": cb, "c": cc})
        for ca in range(7)
        for cb in range(7 - ca)
        for cc in range(7 - ca - cb)
    ]
    disagreements = 0
    for k in range(5):
        for chosen in combinations_with_replacement(atoms, k):
            e = concat_all([atom(a, iv) for a, iv in chosen])
            for w in bags:
                try:
                    bm = bag_matches(e, w)
                except AlphabetError:
                    bm = False
                if routes_bag(chosen, w) != bm:
                    disagreements += 1
    assert disagreements == 0
    _within(start, 120.0)


def test_psi_formula_correctness():
    rng = random.Random(314)
    disagreements = 0
    for i in range(1000):
        if i % 4 == 0:
            e = Intersect((random_flat_rbe(rng, depth=2), random_flat_rbe(rng, depth=2)))
        else:
            e = random_flat_rbe(rng)
        w = random_bag(rng, max_size=5)
        formula, xvars, nvar = presburger_of(e)
        assignment = {nvar: 1}
        for sym, x in xvars.items():
            assignment[x] = w.get(sym, 0)
        foreign = any(c and sym not in xvars for sym, c in w.items())
        if foreign:
            psi = False
        else:
            psi = pa_eval_bounded(formula, assignment, psi_sound_cap(e, w, 1))
        try:
            oracle = bag_matches(e, w)
        except AlphabetError:
            oracle = False
        if isinstance(e, Intersect) and not foreign:
            # The intersection case must equal the conjunction of memberships.
            sides = []
            for side in e.parts:
                f2, xv2, nv2 = presburger_of(side)
                asg = {nv2: 1}
                for sym, x in xv2.items():
                    asg[x] = w.get(sym, 0)
                if any(c and sym not in xv2 for sym, c in w.items()):
                    sides.append(False)
                else:
                    sides.append(pa_eval_bounded(f2, asg, psi_sound_cap(side, w, 1)))
            if psi != (sides[0] and sides[1]):
                disagreements += 1
        if psi != oracle:
            disagreements += 1
    assert disagreements == 0


def _consistent_clauses(v):
    out = []
    for signs in product((0, 1, -1), repeat=v):
        cl = tuple(i * s for i, s in zip(range(1, v + 1), signs) if s)
        if cl:
            out.append(cl)
    return out


def test_sat_reduction_fidelity():
    start = time.monotonic()
    disagreements = 0
    for v in (1, 2, 3):
        clauses = _consistent_clauses(v)
        family = [(c,) for c in clauses] + list(combinations(clauses, 2))
        for cls in family:
            phi = normalize_cnf(CnfFormula(v, tuple(cls)))
            h, k = sat_embedding_instance(phi)
            ok, _ = embeds(h, k)
            if ok != cnf_satisfiable(phi):
                disagreements += 1
    assert disagreements == 0
    _within(start, 120.0)


# The searches below run once per module, in fixtures, so that each test
# that reads their verdicts also passes on its own or in any order.


@pytest.fixture(scope="module")
def dnf_verdicts():
    """(v, clauses, h, k, verdict) for each DNF instance searched: for v =
    1..3 variables, every one-clause DNF, 40 two-clause ones drawn at
    random, and one tautology."""
    rng = random.Random(115)
    verdicts = []
    for v in (1, 2, 3):
        clauses = _consistent_clauses(v)
        family = [(c,) for c in clauses]
        pairs = list(combinations(clauses, 2))
        rng.shuffle(pairs)
        family += pairs[:40]
        family.append(((1,), (-1,)))  # guaranteed tautology
        for cls in family:
            h, k = dnf_containment_instance(v, tuple(cls))
            verdict = find_counterexample(h, k, Budget(max_nodes=v + 2, max_card=1, timeout=None))
            verdicts.append((v, cls, h, k, verdict))
    return verdicts


@pytest.fixture(scope="module")
def exponential_verdicts():
    """n -> (h, k, the search's verdict) for exponential_family(n), n = 1, 2."""
    verdicts = {}
    for n in (1, 2):
        h, k = exponential_family(n)
        verdicts[n] = h, k, find_counterexample(h, k, Budget(max_nodes=8, max_card=1, timeout=None))
    return verdicts


@pytest.fixture(scope="module")
def counterexamples(dnf_verdicts, exponential_verdicts):
    """(witness, h, k) for every counter-example the searches above found."""
    found = [(h, k, verdict) for _, _, h, k, verdict in dnf_verdicts]
    found += exponential_verdicts.values()
    return [(verdict.witness, h, k) for h, k, verdict in found if isinstance(verdict, NotContained)]


def test_dnf_reduction_fidelity(dnf_verdicts):
    # Only root-kind nodes can lack a partner type, so a counter-example
    # needs at most 1 + v nodes plus one shared sink; the v+2 budget is
    # complete for this family (and implies no 8-node one exists either).
    disagreements = 0
    for v, cls, h, k, verdict in dnf_verdicts:
        exhausted = Unknown(f"no counter-example with <= {v + 2} nodes and cardinalities <= 1")
        if dnf_tautology(v, cls) != (verdict == exhausted):
            disagreements += 1
    assert disagreements == 0


def test_characterizing_graph_contract():
    rng = random.Random(424)
    for _ in range(100):
        h = random_minus_schema(rng)
        g = characterizing_graph(h)
        assert validates(g, h)
        hg = to_shape_graph(h)
        opts = sum(1 for e in hg.edges if e.occur.min == 0 and e.occur.max == 1)
        stars = sum(1 for e in hg.edges if e.occur.max > 1)
        assert len(g.nodes) <= len(h.types) * (2 + opts) * (1 + stars)
        for _ in range(50):
            k = random_minus_schema(rng)
            kg = to_shape_graph(k)
            assert embeds(g, kg)[0] == embeds(hg, kg)[0]


# Regression constants recorded from exhaustive search, with cardinality 1,
# which suffices for this family.  The sizes are minimal only within
# find_counterexample's candidate space, where each node takes one type of h:
# exponential_family(1) has a 3-node counter-example outside it (the 4-node
# witness fused by kind and unpacked: v0 L v2, v0 R v1, v2 a1 v1, whose v1 is
# read under two types), and test_fused_witnesses_unpack_no_larger builds it.
MINIMAL_COUNTEREXAMPLE_NODES = {1: 4, 2: 8}


def test_exponential_family_growth(exponential_verdicts):
    sizes = {}
    for n, (h, k, v) in exponential_verdicts.items():
        assert isinstance(v, NotContained)
        sizes[n] = len(v.witness.nodes)
    assert sizes[2] > sizes[1]
    assert sizes == MINIMAL_COUNTEREXAMPLE_NODES


def test_kind_fusing_preservation(counterexamples):
    assert counterexamples, "expected the searches to find counter-examples"
    for g, h, k in counterexamples:
        simple = g if g.is_simple else unpack(g)[0]
        fused = fuse_to_compressed(simple, h, k)
        assert validates(fused, h)
        assert not validates(fused, k)


def test_fused_witnesses_unpack_no_larger(counterexamples):
    # Fusing the exponential family's counter-examples by kind and unpacking
    # them again gives 3 and 7 nodes, against the search's 4 and 8: unpack
    # copies each node only as often as its largest incoming cardinality.
    assert counterexamples, "expected the searches to find counter-examples"
    for g, h, k in counterexamples:
        u, _ = unpack(fuse_to_compressed(g, h, k))
        assert len(u.nodes) <= len(g.nodes)
        assert validates(u, h) and not validates(u, k)
