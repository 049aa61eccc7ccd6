"""Simulations and embeddings between graphs.

A simulation relates nodes of G to nodes of H so that each related pair
(n, m) carries a witness: a total map λ from out-edges of n to out-edges of
m that preserves labels, sends targets to related pairs, and for every
out-edge f of m keeps the interval sum of λ's preimage inside occur(f).

Witness existence is a flow-routing problem over bipartite sources
(out-edges of n) and sinks (out-edges of m), each source listing the sinks
it may feed.  When every sink is basic, whatever the sources, it is the
unit case of one capacitated lower-bound flow (feasible_flow), decided in
polynomial time by augmenting paths; the same flow, on the same lists,
decides type satisfaction in validation.  Every routing returned as a
"yes" is re-checked independently (verify_routing, and in validation
_verify_flat_routing).  Only a non-basic sink, such as those of the SAT
fixture, where the problem is NP-hard, goes to an exact backtracking
search, iterative and capped in steps.

The greatest simulation refines one interned set of h-nodes per g-node
through the fixpoint typing uses (core.Refinement), so a g-node's check
walks the h-nodes and is decided from the g-node's out-signature alone:
the signature projected onto an h-node is the routing instance, with the
edges' own Intervals.  A check first runs after its successors' checks
unless they share a cycle, and runs again only after the set of one of
its successors shrank.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .core import INF, Graph, Refinement, index_lists, interval_sum
from .errors import ClassPreconditionError, WorkCapError


@dataclass(frozen=True)
class RoutingInstance:
    """sinks: a tuple of Intervals; sources: (Interval, sink indexes) pairs,
    each listing the sinks it may route to.  A routing maps each source
    index to one sink index."""

    sources: tuple
    sinks: tuple


def verify_routing(inst: RoutingInstance, lam: dict) -> bool:
    """Independent check that lam is a valid total routing for inst."""
    if set(lam) != set(range(len(inst.sources))):
        return False
    lo = [0] * len(inst.sinks)
    hi = [0] * len(inst.sinks)
    for i, (iv, js) in enumerate(inst.sources):
        j = lam[i]
        if j not in js:
            return False
        lo[j] += iv.min
        hi[j] += iv.max
    return all(iv.min <= x and y <= iv.max for iv, x, y in zip(inst.sinks, lo, hi))


# --- One capacitated flow ----------------------------------------------------
#
# A source ships an integer supply to the sinks it lists; a sink takes a
# total inside [lo; hi].  A source that counts adds its flow to both sides
# of the bounds of the sinks it feeds, one that does not only to the upper
# side.  The lower bounds (every supply shipped in full, every sink's
# counted flow at least lo) go away by the SS/TT transform, so one max flow
# decides feasibility, at a cost that depends on the number of sources
# with a choice, sinks and arcs and not on the supplies.


class _Network:
    """Max flow by shortest augmenting paths."""

    def __init__(self, n):
        self.adj = [[] for _ in range(n)]

    def add(self, a, b, cap):
        self.adj[a].append([b, cap, len(self.adj[b])])
        self.adj[b].append([a, 0, len(self.adj[a]) - 1])
        return len(self.adj[a]) - 1

    def maxflow(self, s, t):
        adj = self.adj
        total = 0
        while True:
            # BFS parents: the node each node was reached from and the
            # index of the arc used, in that node's list.
            parent = [-1] * len(adj)
            via = [0] * len(adj)
            parent[s] = s
            queue = [s]
            for x in queue:
                for i, (y, cap, _) in enumerate(adj[x]):
                    if cap > 0 and parent[y] < 0:
                        parent[y] = x
                        via[y] = i
                        queue.append(y)
                if parent[t] >= 0:
                    break
            if parent[t] < 0:
                return total
            path = []
            y = t
            while y != s:
                path.append(adj[parent[y]][via[y]])
                y = parent[y]
            amount = min(edge[1] for edge in path)
            for edge in path:
                edge[1] -= amount
                adj[edge[0]][edge[2]][1] += amount
            total += amount


def feasible_flow(sources, sinks):
    """For a feasible routing, each source's flow to each sink it lists, in
    list order; else None.

    sources: (supply, counts, sink indexes) triples; sinks: (lo, hi)
    pairs, hi possibly INF.  Every source ships exactly its supply to sinks
    it lists; each sink receives at most hi in all and at least lo from
    counting sources.

    A source that lists one sink has no choice: its supply goes straight
    there, off the sink's hi and, if it counts, off its lo.  Only the
    sources with a choice, positive supply and two sinks or more, enter the
    network, against the sinks' residual bounds; when there are none, no
    network is built.  Callers still re-check every flow returned.
    """
    flow = [[0] * len(js) for _, _, js in sources]
    lo = [b for b, _ in sinks]
    hi = [b for _, b in sinks]
    free = []
    for v, (x, counts, js) in enumerate(sources):
        if not x:
            continue
        if not js:
            return None
        if len(js) > 1:
            free.append(v)
            continue
        u = js[0]
        flow[v][0] = x
        hi[u] -= x
        if hi[u] < 0:
            return None
        if counts:
            lo[u] = max(0, lo[u] - x)
    counted = {u for v in free if sources[v][1] for u in sources[v][2]}
    if any(lo[u] and u not in counted for u in range(len(sinks))):
        return None
    if not free:
        return flow

    demand = sum(lo)
    supply = sum(sources[v][0] for v in free)
    big = supply + demand + 1
    S, T, SS, TT = 0, 1, 2, 3
    vnode = 4
    unode = vnode + len(free)
    gate = {}
    for j in range(len(sinks)):
        if lo[j]:
            gate[j] = unode + len(sinks) + len(gate)
    net = _Network(unode + len(sinks) + len(gate))

    # S→v with lower bound = capacity = supply.
    for i, v in enumerate(free):
        net.add(SS, vnode + i, sources[v][0])
    net.add(S, TT, supply)
    # gate→u with lower bound lo carries the counted flow into u.
    for j in range(len(sinks)):
        if lo[j]:
            net.add(SS, unode + j, lo[j])
            net.add(gate[j], TT, lo[j])
            net.add(gate[j], unode + j, big if hi[j] == INF else hi[j] - lo[j])
        net.add(unode + j, T, big if hi[j] == INF else hi[j])
    net.add(T, S, big)
    arc_ids = []
    for i, v in enumerate(free):
        x, counts, js = sources[v]
        for k, u in enumerate(js):
            target = gate[u] if counts and u in gate else unode + u
            arc_ids.append((flow[v], k, vnode + i, net.add(vnode + i, target, x), x))

    if net.maxflow(SS, TT) != supply + demand:
        return None
    for row, k, node, i, x in arc_ids:
        row[k] = x - net.adj[node][i][1]
    return flow


def witness_exists_basic(inst: RoutingInstance):
    """Routing λ for an instance whose sinks are all basic, or None.

    A sink's max is then 1 or ∞ and its min 0 or 1, so this is the unit
    case of feasible_flow whatever the sources are: a source may use a sink
    it lists iff its max is at most the sink's, ships 1 unit iff its max is
    at least 1, and counts toward the sink's min iff its own min is.  A
    [0;0] source ships nothing but still needs a sink, its first one.
    """
    sinks = inst.sinks
    for iv in sinks:
        if not iv.basic:
            raise ClassPreconditionError(f"non-basic sink interval {iv} in routing instance")

    options = [[j for j in js if iv.max <= sinks[j].max] for iv, js in inst.sources]
    if not all(options):
        return None
    flow = feasible_flow(
        [(int(iv.max >= 1), iv.min >= 1, js) for (iv, _), js in zip(inst.sources, options)],
        [(iv.min, iv.max) for iv in sinks],
    )
    if flow is None:
        return None
    # A row holds at most one unit: the sink that takes it, else the first.
    lam = {i: js[row.index(max(row))] for i, (js, row) in enumerate(zip(options, flow))}
    assert verify_routing(inst, lam), "routing extraction produced an invalid witness"
    return lam


# --- Non-basic sinks: exact search ------------------------------------------


DEFAULT_ROUTING_CAP = 10**6


def witness_exists_general(inst: RoutingInstance):
    """Exact backtracking over source→sink assignments, or None.

    Prunes on the running interval sum per sink (max side monotone) and on
    the remaining min-potential of each min-constrained sink; identical
    sources are assigned in nondecreasing sink order to skip symmetric
    permutations.  Depth-first with an explicit stack, one level per
    source, so no recursion depth grows with the number of sources; each
    level entered is one step of DEFAULT_ROUTING_CAP.
    """
    sinks = inst.sinks
    options = [(i, iv, tuple(js)) for i, (iv, js) in enumerate(inst.sources)]
    if not all(opts for _, _, opts in options):
        return None
    # Fewest-options first; identical sources adjacent for symmetry breaking.
    options.sort(key=lambda t: (len(t[2]), t[2], (t[1].min, t[1].max), str(t[0])))

    sum_min, sum_max, potential = [0] * len(sinks), [0] * len(sinks), [0] * len(sinks)
    for _, iv, opts in options:
        for j in opts:
            potential[j] += iv.min

    lam = {}
    # Per level entered: its sinks left to try, and the sink taken with the
    # max sum it had before, or None.
    stack = []
    for work in count(1):  # one level entered per pass
        if work > DEFAULT_ROUTING_CAP:
            raise WorkCapError(f"routing search exceeded {DEFAULT_ROUTING_CAP} steps")
        k = len(stack)
        if k < len(options):
            _, iv, opts = options[k]
            for j in opts:
                potential[j] -= iv.min
            start = opts.index(stack[-1][1][0]) if k and options[k - 1][1:] == (iv, opts) else 0
            stack.append([iter(opts[start:]), None])
        elif all(siv.min <= sum_min[j] and sum_max[j] <= siv.max for j, siv in enumerate(sinks)):
            assert verify_routing(inst, lam), "backtracking produced an invalid witness"
            return lam
        # Move the deepest level to its next sink within max that keeps
        # every min reachable, leaving the levels that have none left.
        while stack:
            frame = stack[-1]
            v, iv, opts = options[len(stack) - 1]
            if frame[1] is not None:
                j, old_max = frame[1]
                sum_min[j] -= iv.min
                sum_max[j] = old_max
                del lam[v]
                frame[1] = None
            for j in frame[0]:
                if sum_max[j] + iv.max <= sinks[j].max and all(
                        sum_min[jj] + potential[jj] + (iv.min if jj == j else 0) >= sinks[jj].min
                        for jj in opts):
                    frame[1] = j, sum_max[j]
                    sum_min[j] += iv.min
                    sum_max[j] += iv.max
                    lam[v] = j
                    break
            if frame[1] is not None:
                break
            for j in opts:
                potential[j] += iv.min
            stack.pop()
        else:
            return None


# --- Simulations ------------------------------------------------------------


@dataclass(frozen=True)
class SimulationRelation:
    """Pairs (g-node, h-node), each the key of its one witness.

    A witness maps out-edge indexes of the g-node to out-edge indexes of the
    h-node (indexes into Graph.out of the respective node).
    """

    witnesses: dict

    @property
    def pairs(self):
        """The related pairs: a view of the witnesses' keys."""
        return self.witnesses.keys()

    def domain(self):
        return {n for n, _ in self.witnesses}


def routing_instance(proj) -> RoutingInstance:
    """The flow-routing instance of a projected signature (see
    _Simulation.projected), as it stands: sink j is out-edge j of the h-node
    and source i out-edge i of the g-node, with the sinks it may route to."""
    sinks, sources = proj
    return RoutingInstance(sources, sinks)


def find_witness(inst: RoutingInstance):
    """A routing by the one flow when every sink is basic, else by the
    exact search."""
    if all(iv.basic for iv in inst.sinks):
        return witness_exists_basic(inst)
    return witness_exists_general(inst)


class _Simulation(Refinement):
    """The greatest simulation in h as a refinement: each g-node's set is
    the h-nodes still related to it.  On a memo miss, each h-node m is
    checked, in h.nodes order, by a witness search on the out-signature
    projected onto m (projected), which holds the routing instance.  The
    search is memoized on that projection."""

    def __init__(self, h: Graph):
        super().__init__(h.nodes)
        # h-node -> (its out-edges' intervals, label -> [(index in h.out(m), target)])
        self.h_out = {}
        for m, o in zip(h.nodes, index_lists(h, h.occurs)[0]):
            by_label = {}
            for j, (lab, _, t) in enumerate(o):
                by_label.setdefault(lab, []).append((j, h.nodes[t]))
            self.h_out[m] = tuple([occ for _, occ, _ in o]), by_label
        self.witnesses: dict = {}  # projected signature -> witness or None

    def projected(self, m, sig):
        """sig, out-edges as (label, occurrence, target's set id), read
        only for what the routing instance of an h-node m holds: m's
        out-edge occurrences and, per out-edge of sig, its occurrence and
        the out-edges of m it may route to."""
        sinks, by_label = self.h_out[m]
        sets = self.sets
        return sinks, tuple([(occ, tuple([j for j, t in by_label.get(lab, ()) if t in sets[s]]))
                             for lab, occ, s in sig])

    def check(self, sig) -> frozenset:
        kept = []
        for m in self.order:
            proj = self.projected(m, sig)
            lam = self.witnesses.get(proj, False)  # a witness is a dict or None
            if lam is False:
                lam = self.witnesses[proj] = find_witness(routing_instance(proj))
            if lam is not None:
                kept.append(m)
        return frozenset(kept)


def max_simulation(g: Graph, h: Graph) -> SimulationRelation:
    """The greatest simulation of g in h, with a witness per surviving pair.

    Refines one interned set of h-nodes per g-node through the fixpoint
    that typing uses (core.Refinement): every g-node starts related to all
    of h, and a g-node is checked again only after the set of one of its
    successors shrank.  A check is memoized on the g-node's out-signature,
    its out-edges in order as (label, Interval, the target's set), and
    each witness search on that signature projected onto the h-node, which
    holds the routing instance, so one witness serves, index for index,
    every pair that routes alike.  The witness of (n, m) is the one found
    for m under n's final signature.
    """
    out, inc = index_lists(g, g.occurs)
    sim = _Simulation(h)
    state = sim.fixpoint(out, inc)
    witnesses = {}
    for n, o, own in zip(g.nodes, out, state):
        sig = [(lab, occ, state[j]) for lab, occ, j in o]
        for m in sim.sets[own]:
            witnesses[(n, m)] = sim.witnesses[sim.projected(m, sig)]
    return SimulationRelation(witnesses)


def embeds(g: Graph, h: Graph):
    """(g ≼ h, the maximal simulation)."""
    sim = max_simulation(g, h)
    return sim.domain() == set(g.nodes), sim


def verify_witness(g: Graph, h: Graph, sim: SimulationRelation) -> bool:
    """Check the three witness conditions for every pair, independently of
    how the witnesses were found."""
    for (n, m), lam in sim.witnesses.items():
        g_out = g.out(n)
        h_out = h.out(m)
        if set(lam) != set(range(len(g_out))):
            return False
        inflow = {j: [] for j in range(len(h_out))}
        for i, j in lam.items():
            e, f = g_out[i], h_out[j]
            if e.label != f.label or (e.target, f.target) not in sim.pairs:
                return False
            inflow[j].append(e.occur)
        for j, f in enumerate(h_out):
            if not interval_sum(inflow[j]).subset(f.occur):
                return False
    return True
