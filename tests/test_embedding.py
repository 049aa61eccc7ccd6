import random
from itertools import product

import pytest

import shapegraph.embedding

from shapegraph import (
    INF,
    Edge,
    Graph,
    Interval,
    ONE,
    OPT,
    PLUS,
    RoutingInstance,
    STAR,
    SimulationRelation,
    ZERO,
    embeds,
    max_simulation,
    to_shape_graph,
    verify_routing,
    verify_witness,
    witness_exists_basic,
    witness_exists_general,
)
from shapegraph.core import Refinement
from shapegraph.embedding import _Simulation, feasible_flow, find_witness, routing_instance
from shapegraph.errors import ClassPreconditionError, WorkCapError

from conftest import (
    BASIC,
    bug_chain_graph,
    chain_graph,
    chain_schema,
    random_shape_graph,
    random_simple_graph,
    star_chain_pair,
    users_graph,
    with_twins,
)


def reference_simulation(g, h):
    """The greatest simulation round by round, from the definitions: (n, m)
    stays while some map of n's out-edges to same-label out-edges of m, with
    targets related in the previous round, keeps the interval sum sent to
    each out-edge f of m inside occur(f)."""

    def witnessed(rel, n, m):
        g_out, h_out = g.out(n), h.out(m)
        options = [
            [f for f in h_out if f.label == e.label and (e.target, f.target) in rel]
            for e in g_out
        ]
        for image in product(*options):
            if all(
                f.occur.min <= sum(e.occur.min for e, f2 in zip(g_out, image) if f2 is f)
                and sum(e.occur.max for e, f2 in zip(g_out, image) if f2 is f) <= f.occur.max
                for f in h_out
            ):
                return True
        return False

    rel = {(n, m) for n in g.nodes for m in h.nodes}
    while True:
        nxt = {(n, m) for n, m in rel if witnessed(rel, n, m)}
        if nxt == rel:
            return rel
        rel = nxt


# Sources beyond the basic intervals; sinks stay basic, so the flow decides.
WIDE_SOURCES = BASIC + [ZERO, Interval(2, 2), Interval(3, 3), Interval(2, 3), Interval(2, INF)]
GENERAL = BASIC + [Interval(2, 3), Interval(2, 2), Interval(1, 3)]


def random_routing_instance(rng: random.Random, max_side=4, source_pool=BASIC, sink_pool=BASIC):
    ns = rng.randint(1, max_side)
    nu = rng.randint(1, max_side)
    ivs = [rng.choice(source_pool) for _ in range(ns)]
    sinks = tuple(rng.choice(sink_pool) for _ in range(nu))
    return RoutingInstance(tuple((iv, tuple(j for j in range(nu) if rng.random() < 0.6)) for iv in ivs), sinks)


def projection(g, h, n, m, rel):
    """The projected signature of (n, m) under relation rel, from the
    definition: m's out-edge occurrences and, per out-edge of n, its
    occurrence and the same-label out-edges of m whose target rel relates
    to its target."""
    return (tuple(f.occur for f in h.out(m)),
            tuple((e.occur,
                   tuple(j for j, f in enumerate(h.out(m))
                         if f.label == e.label and (e.target, f.target) in rel))
                  for e in g.out(n)))


class TestRouting:
    def test_trivial(self):
        inst = RoutingInstance(((ONE, (0,)),), (PLUS,))
        lam = witness_exists_basic(inst)
        assert lam == {0: 0}
        assert verify_routing(inst, lam)

    def test_infeasible_overflow(self):
        inst = RoutingInstance(((ONE, (0,)), (ONE, (0,))), (ONE,))
        assert witness_exists_basic(inst) is None
        assert witness_exists_general(inst) is None

    def test_min_one_needs_strong_source(self):
        # An optional source cannot satisfy a mandatory sink on its own.
        inst = RoutingInstance(((OPT, (0,)),), (ONE,))
        assert witness_exists_basic(inst) is None

    def test_basic_rejects_general_intervals(self):
        # Only a non-basic sink is outside the flow; a [2;3] source on a *
        # sink routes by both.
        inst = RoutingInstance(((Interval(2, 3), (0,)),), (Interval(2, 6),))
        with pytest.raises(ClassPreconditionError):
            witness_exists_basic(inst)
        assert witness_exists_general(inst) == {0: 0}
        inst = RoutingInstance(((Interval(2, 3), (0,)),), (STAR,))
        assert witness_exists_basic(inst) == witness_exists_general(inst) == {0: 0}

    def test_identical_sources_take_nondecreasing_sinks(self, monkeypatch):
        # Twelve identical sources cannot fit two sinks of max 5.  Taking
        # the sinks in nondecreasing order, the search enters 36 levels (one
        # step each) before it gives up; in every order it would enter
        # thousands.
        inst = RoutingInstance(((ONE, (0, 1)),) * 12, (Interval(0, 5), Interval(0, 5)))
        monkeypatch.setattr(shapegraph.embedding, "DEFAULT_ROUTING_CAP", 36)
        assert witness_exists_general(inst) is None
        monkeypatch.setattr(shapegraph.embedding, "DEFAULT_ROUTING_CAP", 35)
        with pytest.raises(WorkCapError):
            witness_exists_general(inst)

    def test_zero_source_needs_an_allowed_sink(self):
        sinks = (ONE, OPT)
        inst = RoutingInstance(((ZERO, (1,)), (ONE, (0,))), sinks)
        assert witness_exists_basic(inst) == {0: 1, 1: 0}
        inst = RoutingInstance(((ZERO, ()), (ONE, (0,))), sinks)
        assert witness_exists_basic(inst) is None

    def test_oracle_agreement_random(self):
        rng = random.Random(41)
        for _ in range(1000):
            inst = random_routing_instance(rng, source_pool=WIDE_SOURCES)
            fast = witness_exists_basic(inst)
            slow = witness_exists_general(inst)
            assert (fast is None) == (slow is None), inst
            if fast is not None:
                assert verify_routing(inst, fast)

    def test_general_interval_instances(self):
        rng = random.Random(43)
        for _ in range(150):
            inst = random_routing_instance(rng, max_side=3, source_pool=GENERAL, sink_pool=GENERAL)
            lam = witness_exists_general(inst)
            if lam is not None:
                assert verify_routing(inst, lam)

    # (sources as (interval, sink indexes), sinks, a routing
    # verify_routing accepts, one it must reject): each good routing shows
    # that the instance itself is routable, so the rejection is for the one
    # fault named.
    BAD_ROUTINGS = {
        "source to a sink it is not allowed": (
            ((ONE, (0,)),), (STAR, STAR),
            {0: 0}, {0: 1}),
        "finite sink over its max": (
            ((ONE, (0,)), (OPT, (0, 1))), (ONE, OPT),
            {0: 0, 1: 1}, {0: 0, 1: 0}),
        "INF source into a finite sink": (
            ((PLUS, (0, 1)),), (Interval(0, 3), PLUS),
            {0: 1}, {0: 0}),
        "sink under its min": (
            ((OPT, (0, 1)), (ONE, (0, 1))), (ONE, STAR),
            {0: 1, 1: 0}, {0: 0, 1: 1}),
        "missing source": (
            ((ONE, (0,)), (OPT, (0,))), (PLUS,),
            {0: 0, 1: 0}, {0: 0}),
        "extra source index": (
            ((ONE, (0,)),), (PLUS,),
            {0: 0}, {0: 0, 1: 0}),
        # An index past the sinks, which no source lists.
        "sink index the source does not list": (
            ((ONE, (0, 1)),), (STAR, STAR),
            {0: 1}, {0: 2}),
    }

    @pytest.mark.parametrize("fault", sorted(BAD_ROUTINGS))
    def test_verify_routing_rejects(self, fault):
        sources, sinks, good, bad = self.BAD_ROUTINGS[fault]
        inst = RoutingInstance(sources, sinks)
        assert verify_routing(inst, good)
        assert not verify_routing(inst, bad)


def splits(x, parts):
    """Every way to write x as an ordered sum of `parts` naturals."""
    if parts == 0:
        return [()] if x == 0 else []
    return [(k,) + rest for k in range(x + 1) for rest in splits(x - k, parts - 1)]


def flow_respects(sources, sinks, flow):
    """The docstring of feasible_flow as a check on one flow per listed
    sink of each source."""
    if [len(row) for row in flow] != [len(js) for _, _, js in sources]:
        return False
    total = [0] * len(sinks)
    counted = [0] * len(sinks)
    for (x, counts, js), row in zip(sources, flow):
        if any(f < 0 for f in row) or sum(row) != x:
            return False
        for u, f in zip(js, row):
            total[u] += f
            if counts:
                counted[u] += f
    return all(t <= hi and c >= lo for t, c, (lo, hi) in zip(total, counted, sinks))


def brute_force_feasible(sources, sinks):
    """Some split of every supply over its source's sinks meets the sinks'
    bounds; never builds a network."""
    per_source = [splits(x, len(js)) for x, _, js in sources]
    return any(flow_respects(sources, sinks, list(flow)) for flow in product(*per_source))


def random_flow_instance(rng: random.Random):
    """Up to 4 sources, one each of forced (one sink), free (two sinks or
    more) and zero-supply, the rest random; up to 3 sinks.  The sinks each
    source lists come in a shuffled order."""
    n_sinks = rng.randint(2, 3)
    kinds = ["forced", "free", "zero"] + rng.choice([[], ["any"]])
    rng.shuffle(kinds)
    supplies, arcs = [], []
    for v, kind in enumerate(kinds):
        if kind == "forced":
            targets = [rng.randrange(n_sinks)]
        elif kind == "free":
            targets = rng.sample(range(n_sinks), rng.randint(2, n_sinks))
        else:
            targets = [u for u in range(n_sinks) if rng.random() < 0.5]
        supplies.append((0 if kind == "zero" else rng.randint(0 if kind == "any" else 1, 3), rng.random() < 0.7))
        arcs += [(v, u) for u in targets]
    rng.shuffle(arcs)
    sources = [(x, counts, [u for w, u in arcs if w == v]) for v, (x, counts) in enumerate(supplies)]
    sinks = []
    for _ in range(n_sinks):
        lo = rng.choice([0, 0, 1, 2, 3])
        sinks.append((lo, rng.choice([lo, lo + 1, lo + 3, INF])))
    return sources, sinks


class TestFeasibleFlow:
    def test_equals_brute_force(self):
        rng = random.Random(47)
        outcomes = []
        for _ in range(400):
            sources, sinks = random_flow_instance(rng)
            flow = feasible_flow(sources, sinks)
            expected = brute_force_feasible(sources, sinks)
            assert (flow is not None) == expected, (sources, sinks)
            if flow is not None:
                assert flow_respects(sources, sinks, flow), (sources, sinks, flow)
            outcomes.append(expected)
        assert 50 < sum(outcomes) < 350

    def test_network_covers_only_sources_with_a_choice(self, monkeypatch):
        sizes = []
        init = shapegraph.embedding._Network.__init__

        def recording(self, n):
            sizes.append(n)
            init(self, n)

        monkeypatch.setattr(shapegraph.embedding._Network, "__init__", recording)
        # Sources 0 and 3 list one sink, source 2 ships nothing: only
        # source 1 has a choice.
        sources = [(2, True, [0]), (1, True, [0, 1]), (0, False, [0, 1]), (3, False, [1])]
        sinks = [(1, 5), (0, INF)]
        flow = feasible_flow(sources, sinks)
        assert flow is not None and flow_respects(sources, sinks, flow)
        # S, T, SS, TT, one source node, two sink nodes and no gate: the
        # forced source already covers sink 0's lower bound.
        assert sizes == [4 + 1 + 2]
        sizes.clear()
        assert feasible_flow(sources, [(1, 5), (0, 2)]) is None
        assert sizes == []  # source 3 alone overflows sink 1


class TestWorkedEmbedding:
    def test_chain_embeds_in_schema_graph(self):
        g = chain_graph()
        h = to_shape_graph(chain_schema())
        ok, sim = embeds(g, h)
        assert ok
        assert {("n0", "t0"), ("n1", "t1"), ("n1", "t2"), ("n2", "t3")} <= sim.pairs
        assert verify_witness(g, h, sim)

    def test_star_chain_separation(self):
        g, h = star_chain_pair()
        ok, sim = embeds(g, h)
        assert not ok
        assert verify_witness(g, h, sim)

    def test_reflexive(self):
        g = chain_graph()
        ok, _ = embeds(g, g)
        assert ok

    def test_verify_witness_rejects_routing_through_a_dropped_pair(self):
        # (n0, t0) routes its a-edge onto t0 -> t1, so it needs (n1, t1).
        g, h = chain_graph(), to_shape_graph(chain_schema())
        _, sim = embeds(g, h)
        assert sim.witnesses[("n0", "t0")] == {0: 0} and ("n1", "t1") in sim.pairs
        dropped = SimulationRelation({p: lam for p, lam in sim.witnesses.items() if p != ("n1", "t1")})
        assert not verify_witness(g, h, dropped)

    def test_verify_witness_rejects_a_witness_outside_the_pairs(self):
        # The empty map of the stray pair (n2, t0) leaves t0's a-edge unfed.
        g, h = chain_graph(), to_shape_graph(chain_schema())
        _, sim = embeds(g, h)
        assert verify_witness(g, h, sim) and ("n2", "t0") not in sim.pairs
        stray = SimulationRelation({("n2", "t0"): {}, **sim.witnesses})
        assert ("n2", "t0") in stray.pairs
        assert not verify_witness(g, h, stray)

    def test_verify_witness_rejects_a_map_that_misses_an_out_edge(self):
        g, h = chain_graph(), to_shape_graph(chain_schema())
        _, sim = embeds(g, h)
        assert sim.witnesses[("n0", "t0")] == {0: 0}
        partial = {p: {} if p == ("n0", "t0") else lam for p, lam in sim.witnesses.items()}
        assert not verify_witness(g, h, SimulationRelation(partial))

    def test_verify_witness_rejects_an_interval_sum_beyond_the_edge(self):
        # Both a-edges of r routed onto one h-edge: their sum is [2;2].
        g = Graph(("r", "x", "y"), [Edge("r", "a", "x"), Edge("r", "a", "y")], kind="simple")
        witnesses = {("r", "R"): {0: 0, 1: 0}, ("x", "X"): {}, ("y", "X"): {}}
        sim = SimulationRelation(witnesses)
        for occur, ok in ((PLUS, True), (ONE, False)):
            h = Graph(("R", "X"), [Edge("R", "a", "X", occur)], kind="shape")
            assert verify_witness(g, h, sim) == ok


class TestSimulationProperties:
    def test_maximality_contains_all_closures(self):
        rng = random.Random(47)
        for _ in range(25):
            g = random_simple_graph(rng, max_nodes=4)
            h = random_shape_graph(rng, max_nodes=4)
            best = max_simulation(g, h)
            assert verify_witness(g, h, best)
            # Downward closure of any relation stays inside the maximum.
            rel = {
                (n, m) for n in g.nodes for m in h.nodes if rng.random() < 0.7
            }
            while True:
                bad = {
                    p
                    for p in rel
                    if find_witness(routing_instance(projection(g, h, *p, rel))) is None
                }
                if not bad:
                    break
                rel -= bad
            assert rel <= best.pairs

    @pytest.mark.parametrize("g_kind", ["simple", "shape"])
    def test_equals_round_by_round_reference(self, g_kind):
        rng = random.Random(71 if g_kind == "simple" else 73)
        for _ in range(200):
            if g_kind == "simple":
                g = random_simple_graph(rng, max_nodes=4)
            else:
                g = random_shape_graph(rng, max_nodes=4)
            h = random_shape_graph(rng, max_nodes=4)
            sim = max_simulation(g, h)
            assert sim.pairs == reference_simulation(g, h)
            assert verify_witness(g, h, sim)

    def test_witness_found_before_a_successor_drops_is_replaced(self, monkeypatch):
        # On the 2-cycle g1 is checked first, with g0 still related to all
        # of h, and (g1, h1) routes its b-edge to h2; (g0, h2) drops because
        # g0 lacks the c-edge h2 demands, so (g1, h1) must end with a
        # witness through h0 instead.
        g = Graph(("g0", "g1"), [Edge("g0", "a", "g1"), Edge("g1", "b", "g0")], kind="simple")
        h = Graph(
            ("h0", "h1", "h2", "h3"),
            [Edge("h0", "a", "h1", STAR), Edge("h1", "b", "h2", STAR),
             Edge("h1", "b", "h0", STAR), Edge("h2", "c", "h3")],
            kind="shape",
        )
        # A check builds each pair's instance right after projecting the
        # key onto it; the key's one out-edge names the g-node.
        found, last, node_of = [], [None], {"a": "g0", "b": "g1"}
        project = _Simulation.projected
        build, search = shapegraph.embedding.routing_instance, shapegraph.embedding.find_witness

        def recording_projected(self, m, sig):
            last[0] = (node_of[sig[0][0]], m)
            return project(self, m, sig)

        def recording_instance(proj):
            found.append([last[0], None])
            return build(proj)

        def recording_search(inst):
            lam = search(inst)
            found[-1][1] = lam
            return lam

        monkeypatch.setattr(_Simulation, "projected", recording_projected)
        monkeypatch.setattr(shapegraph.embedding, "routing_instance", recording_instance)
        monkeypatch.setattr(shapegraph.embedding, "find_witness", recording_search)
        sim = max_simulation(g, h)
        assert found[0][0][0] == "g1"
        first = next(lam for pair, lam in found if pair == ("g1", "h1"))
        assert first == {0: 0}  # through h2, which drops
        assert ("g0", "h2") not in sim.pairs and ("g1", "h1") in sim.pairs
        assert sim.witnesses[("g1", "h1")] == {0: 1}
        assert verify_witness(g, h, sim)

    @pytest.mark.parametrize("ring", [False, True], ids=["chain", "ring"])
    def test_failure_chain_work_is_linear(self, monkeypatch, bug_schema, ring):
        # On the ring every bug is on the cycle, so the bugs checked before
        # the failure reaches them are checked again.
        g = bug_chain_graph(200, ring)
        h = to_shape_graph(bug_schema)
        calls = [0]
        search = shapegraph.embedding.find_witness

        def counting(inst):
            calls[0] += 1
            return search(inst)

        monkeypatch.setattr(shapegraph.embedding, "find_witness", counting)
        ok, sim = embeds(g, h)
        assert not ok and ("bug0", "Bug") not in sim.pairs
        assert verify_witness(g, h, sim)
        # A round-based fixpoint re-checks every pair once per hop of the
        # failure, about 200 times here.
        assert calls[0] <= 3 * len(g.nodes) * len(h.nodes)

    def test_failure_chain_visits_each_g_node_once(self, monkeypatch, bug_schema):
        # One visit checks a g-node against its whole set of h-nodes, and
        # the chain is acyclic, so successor-first seeding checks each
        # g-node once, after its successors have settled.  A fixpoint over
        # (g-node, h-node) pairs visits each pair at least once.
        g = bug_chain_graph(200)
        h = to_shape_graph(bug_schema)
        # The fixpoint asks Refinement.kept once per g-node it takes off
        # its queue.
        visits = [0]
        kept = Refinement.kept

        def counting(self, sig):
            visits[0] += 1
            return kept(self, sig)

        monkeypatch.setattr(Refinement, "kept", counting)
        ok, sim = embeds(g, h)
        assert not ok and ("bug0", "Bug") not in sim.pairs
        assert visits[0] == len(g.nodes)

    def test_identical_nodes_share_witness_searches(self, monkeypatch, bug_schema):
        h = to_shape_graph(bug_schema)
        calls = [0]
        search = shapegraph.embedding.find_witness

        def counting(inst):
            calls[0] += 1
            return search(inst)

        monkeypatch.setattr(shapegraph.embedding, "find_witness", counting)
        counts = []
        for n in (20, 200):
            calls[0] = 0
            g = users_graph(n)
            ok, sim = embeds(g, h)
            assert ok and all((f"user{i}", "User") in sim.pairs for i in range(n))
            assert verify_witness(g, h, sim)
            counts.append(calls[0])
        # Per h-node, at most the literal's key and a user's key before and
        # after a drop at the literal.
        assert counts[0] == counts[1] <= len(h.nodes) * 3

    def test_max_simulation_builds_no_interval(self, monkeypatch, bug_schema):
        # The memo keys and routing instances hold the edges' own Intervals,
        # so on graphs already built the simulation constructs none.
        rng = random.Random(89)
        pairs = [(bug_chain_graph(50, ring), to_shape_graph(bug_schema)) for ring in (False, True)]
        pairs += [(random_shape_graph(rng, max_nodes=4), random_shape_graph(rng, max_nodes=4))
                  for _ in range(60)]
        built = [0]
        new = Interval.__new__

        def counting(cls, *args):
            built[0] += 1
            return new(cls, *args)

        monkeypatch.setattr(Interval, "__new__", counting)
        sims = [max_simulation(g, h) for g, h in pairs]
        assert built[0] == 0
        monkeypatch.undo()
        assert all(verify_witness(g, h, sim) for (g, h), sim in zip(pairs, sims))
        assert ("bug0", "Bug") not in sims[0].pairs and ("user", "User") in sims[0].pairs

    def test_twin_nodes_equal_reference(self):
        rng = random.Random(83)
        for _ in range(100):
            g = with_twins(random_simple_graph(rng, max_nodes=4), rng)
            h = random_shape_graph(rng, max_nodes=4)
            sim = max_simulation(g, h)
            assert sim.pairs == reference_simulation(g, h)
            assert verify_witness(g, h, sim)

    def test_rerunning_is_fixed_point(self):
        g, h = star_chain_pair()
        sim = max_simulation(g, h)
        again = max_simulation(g, h)
        assert sim.pairs == again.pairs

    def test_composition(self):
        rng = random.Random(53)
        hits = 0
        for _ in range(40):
            g = random_simple_graph(rng, max_nodes=3)
            h = random_shape_graph(rng, max_nodes=3)
            k = random_shape_graph(rng, max_nodes=3)
            ok_gh, _ = embeds(g, h)
            ok_hk, _ = embeds(h, k)
            if ok_gh and ok_hk:
                ok_gk, _ = embeds(g, k)
                assert ok_gk
                hits += 1
        assert hits >= 1
