"""Node signatures, type satisfaction, the maximal-typing fixpoint, and
graph-satisfies-schema, for simple and compressed graphs.

A typing is a dict from node id to a frozenset of type names; absent nodes
are treated as untyped.
"""

from __future__ import annotations

from itertools import product

from .core import ONE, Bag, Counter, Graph, Worklist
from .errors import AlphabetError, GraphKindError, WorkCapError
from . import presburger as _pa
from . import rbe as _rbe
from .schema import Schema

DEFAULT_CHOICE_CAP = 2**16
DEFAULT_WIDTH_CAP = 64


def _check_data_graph(g: Graph):
    if not (g.is_simple or g.is_compressed):
        raise GraphKindError("validation requires a simple or compressed graph")


def signature(g: Graph, typing: dict, n) -> _rbe.Rbe:
    """∥ over out-edges of (| over types of the edge's target); on compressed
    graphs each factor carries the edge's occurrence as an exponent.  An edge
    whose target carries no types contributes the empty-language factor."""
    if n not in g:
        raise ValueError(f"unknown node {n!r}")
    factors = []
    for e in g.out(n):
        choices = sorted(typing.get(e.target, ()))
        factor = _rbe.disj_all([_rbe.Sym((e.label, t)) for t in choices])
        if e.occur != ONE:
            factor = _rbe.Repeat(factor, e.occur)
        factors.append(factor)
    return _rbe.concat_all(factors)


def satisfies_type(
    g: Graph,
    s: Schema,
    typing: dict,
    n,
    ty: str,
    choice_cap: int = DEFAULT_CHOICE_CAP,
    width_cap: int = DEFAULT_WIDTH_CAP,
) -> bool:
    """L(signature of n) ∩ L(δ(ty)) ≠ ∅.

    Flat definitions on unit-width nodes go through bipartite flow routing;
    wide compressed nodes go through the linear-arithmetic construction; the
    general case enumerates one type per out-edge and calls exact bag
    matching, capped at choice_cap combinations.
    """
    _check_data_graph(g)
    if n not in g:
        raise ValueError(f"unknown node {n!r}")
    if ty not in s.defs:
        raise ValueError(f"unknown type {ty!r}")
    # Zero-occurrence edges contribute ε to the signature; drop them.
    out = tuple(e for e in g.out(n) if e.occur.max != 0)
    choices = [sorted(typing.get(e.target, ())) for e in out]
    if any(not c for c in choices):
        return False  # an edge to an untyped node is unsatisfiable

    e0 = _rbe.to_rbe0(s.defs[ty])
    if e0 is not None:
        if sum(e.occur.min for e in out) <= width_cap:
            return _satisfies_flat(out, choices, e0)
        return _satisfies_psi(out, choices, e0)
    return _satisfies_exhaustive(out, choices, s.defs[ty], choice_cap)


def _satisfies_flat(out, choices, e0: _rbe.Rbe0) -> bool:
    # One-node routing instance: each (expanded) out-edge is a unit source,
    # each atom of the definition a sink.
    from .embedding import RoutingInstance, witness_exists_basic

    sources = []
    for i, e in enumerate(out):
        for c in range(e.occur.min):
            sources.append(((i, c), ONE))
    sinks = tuple((j, iv) for j, (_, iv) in enumerate(e0.atoms))
    allowed = set()
    for i, e in enumerate(out):
        for j, ((lab, t), _) in enumerate(e0.atoms):
            if e.label == lab and t in choices[i]:
                for c in range(e.occur.min):
                    allowed.add(((i, c), j))
    inst = RoutingInstance(tuple(sources), sinks, frozenset(allowed))
    return witness_exists_basic(inst) is not None


def _satisfies_psi(out, choices, e0: _rbe.Rbe0) -> bool:
    factors = []
    for e, ch in zip(out, choices):
        factor = _rbe.disj_all([_rbe.Sym((e.label, t)) for t in ch])
        if e.occur != ONE:
            factor = _rbe.Repeat(factor, e.occur)
        factors.append(factor)
    expr = _rbe.Intersect(_rbe.concat_all(factors), _rbe.rbe0_to_rbe(e0))
    formula, xvars, nvar = _pa.presburger_of(expr)
    body = _pa.Exists(tuple(xvars.values()), formula) if xvars else formula
    cap = max(
        1,
        _rbe.max_finite_constant(expr),
        sum(e.occur.min for e in out),
    )
    r = _pa.pa_eval_bounded(body, {nvar: 1}, cap, assume_cap_sound=True)
    if r == _pa.UNKNOWN:
        raise WorkCapError("linear-arithmetic satisfaction came back unknown")
    return r


def _satisfies_exhaustive(out, choices, delta: _rbe.Rbe, choice_cap: int) -> bool:
    total = 1
    for c in choices:
        total *= len(c)
        if total > choice_cap:
            raise WorkCapError(
                f"type-choice space exceeds {choice_cap} combinations",
                partial=None,
            )
    for combo in product(*choices):
        w: Bag = Counter()
        for e, t in zip(out, combo):
            w[(e.label, t)] += e.occur.min
        try:
            if _rbe.bag_matches(delta, w):
                return True
        except AlphabetError:
            continue
    return False


def max_typing(g: Graph, s: Schema, choice_cap: int = DEFAULT_CHOICE_CAP) -> dict:
    """The unique maximal typing: start from all types at every node, drop
    the types a node fails, and re-check a node only after the type set of
    one of its successors shrank, so the work follows the failures."""
    _check_data_graph(g)
    typing = {n: frozenset(s.types) for n in g.nodes}
    work = Worklist(g.nodes)
    for n in work:
        kept = frozenset(
            t for t in typing[n] if satisfies_type(g, s, typing, n, t, choice_cap=choice_cap)
        )
        if kept != typing[n]:
            typing[n] = kept
            work.extend(e.source for e in g.incoming(n))
    return typing


def validates(g: Graph, s: Schema, choice_cap: int = DEFAULT_CHOICE_CAP) -> bool:
    """Every node gets at least one type in the maximal typing."""
    typing = max_typing(g, s, choice_cap=choice_cap)
    return all(typing[n] for n in g.nodes)
