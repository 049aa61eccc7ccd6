"""The package builds no reference cycles: everything a verdict allocates is
freed by reference count once the caller drops the result, so no graph,
schema, memo or witness waits for the cyclic garbage collector."""

import pytest

from shapegraph import (
    Budget,
    CnfFormula,
    characterizing_graph,
    contains,
    embeds,
    exponential_family,
    find_counterexample,
    max_typing,
    normalize_cnf,
    parse_rbe,
    parse_schema,
    presburger_of,
    sat_embedding_instance,
    to_shape_graph,
)

from conftest import BUG_SCHEMA_TEXT, CHAIN_SCHEMA_TEXT, bug_chain_graph, package_garbage, star_chain_pair

A = "t -> a::u*\nu -> eps\n"
B = "t -> b::u*\nu -> eps\n"


def _schemas(*texts):
    return [parse_schema(t) for t in texts]


CALLS = {
    "max_typing": lambda: max_typing(bug_chain_graph(40, ring=True), *_schemas(BUG_SCHEMA_TEXT)),
    "embeds": lambda: embeds(*star_chain_pair()),
    "embeds-shape-graph": lambda: embeds(bug_chain_graph(8), to_shape_graph(*_schemas(BUG_SCHEMA_TEXT))),
    "embeds-sat": lambda: embeds(*sat_embedding_instance(normalize_cnf(CnfFormula(2, ((1, 2), (-1, 2), (1, -2)))))),
    "contains-embedding": lambda: contains(*_schemas(BUG_SCHEMA_TEXT, BUG_SCHEMA_TEXT), method="embedding"),
    "contains-search": lambda: contains(*_schemas(A, B), method="search"),
    "contains-refuted-embedding": lambda: contains(*_schemas(A, B)),
    "contains-search-unknown": lambda: contains(*_schemas(CHAIN_SCHEMA_TEXT, CHAIN_SCHEMA_TEXT),
                                                budget=Budget(max_nodes=2, max_card=1)),
    "find_counterexample": lambda: find_counterexample(*exponential_family(1)),
    "characterizing_graph": lambda: characterizing_graph(*_schemas(BUG_SCHEMA_TEXT)),
    "presburger_of": lambda: presburger_of(parse_rbe("(a | b)*, (c, a)^[1;3] | b?")),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_call_leaves_no_cycle(name):
    assert package_garbage(CALLS[name]) == []
