"""Tests of the benchmark's own maths, generators and answers.

Run from the repository root: python3 -m pytest perfbench
"""

from __future__ import annotations

import os
import sys
from itertools import product

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import instances  # noqa: E402
import metrics  # noqa: E402
import oracle  # noqa: E402
from metrics import INF  # noqa: E402

# --- Latency maths --------------------------------------------------------------


def test_tail_counts_failures_as_infinite():
    xs = [float(i) for i in range(1, 19)] + [INF, INF]
    value, percentile, n = metrics.tail(xs)
    # 20 samples: the 10th-highest and above are beyond the tail value.
    assert (value, percentile, n) == (10.0, 50.0, 20)
    assert metrics.tail([1.0] * 9 + [INF] * 11)[0] == INF


def test_tail_needs_more_than_ten_operations():
    with pytest.raises(ValueError):
        metrics.tail([1.0] * 10)


def test_end_to_end_takes_each_operations_median_time():
    seconds = [[0.3, 0.1, 0.2]] * 20 + [[5.0, 4.0, 6.0]]
    failed = [False] * 20 + [True]
    m = metrics.end_to_end(seconds, failed, ok_per_pass=20)
    assert m["verdict_s_p50"] == 0.2
    assert m["verdict_s_tail"] == 0.2
    assert m["tail_percentile"] == pytest.approx(100 * 11 / 21)
    assert m["goodput_per_s"] == pytest.approx(20 / (20 * 0.2 + 5.0))


# --- Spans --------------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 6]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    assert metrics.self_times(parent, start, end) == [6.0, 2.0, 1.0, 1.0]


def _spans(rows):
    """rows of (name, parent index, start, end, note) -> layer_metrics args."""
    names = sorted({r[0] for r in rows})
    kind = [names.index(r[0]) for r in rows]
    return names, kind, [r[1] for r in rows], [r[2] for r in rows], [r[3] for r in rows], [r[4] for r in rows]


def test_layer_ratios():
    rows = [
        ("cli", -1, 0.0, 10.0, 0),
        ("validation.max_typing", 0, 1.0, 5.0, 6),  # 3 nodes x 2 types
        ("validation.satisfies_type", 1, 1.0, 1.5, 1),
        ("validation.satisfies_type", 1, 2.0, 2.5, 0),
        ("validation.satisfies_type", 1, 3.0, 3.5, 1),
        ("validation.satisfies_type", 1, 4.0, 4.5, -1),
        ("validation.route.flat", 2, 1.1, 1.2, 7),
        ("validation.route.flat", 4, 3.1, 3.2, 3),
        ("containment.find_counterexample", 0, 6.0, 9.0, 0),
        ("containment.Graph", 8, 6.0, 6.1, 0),
        ("containment.Graph", 8, 6.5, 6.6, 0),
        ("containment.Graph", 8, 7.0, 7.1, 0),
        ("validation.satisfies_type", 8, 7.2, 7.3, 0),
        ("validation.validates", 8, 7.5, 8.0, 1),
        ("validation.validates", 8, 8.0, 8.5, 0),
        ("embedding.max_simulation", 0, 9.0, 9.5, 4),
        ("embedding.find_witness", 15, 9.1, 9.2, 1),
    ]
    m = metrics.layer_metrics(*_spans(rows), crashes=1, overhead_ratio=1.25)
    assert m["validation.satisfies_type.calls"] == 5
    assert m["validation.satisfies_type.errors"] == 1
    assert m["validation.satisfies_type.true_ratio"] == pytest.approx(2 / 5)
    assert m["validation.checks_per_node_type"] == pytest.approx(4 / 6)
    assert m["validation.route.flat.sources_per_call"] == pytest.approx(5.0)
    assert m["containment.candidates"] == 3
    assert m["containment.typer_checks_per_candidate"] == pytest.approx(1 / 3)
    assert m["containment.reverify_ratio"] == pytest.approx(2 / 3)
    assert m["embedding.checks_per_pair"] == pytest.approx(1 / 4)
    assert m["embedding.find_witness.found_ratio"] == 1.0
    assert m["cli.self_s"] == pytest.approx(10.0 - 4.0 - 3.0 - 0.5)
    assert m["validation.max_typing.self_s"] == pytest.approx(4.0 - 2.0)
    assert m["rbe.bag_matches.true_ratio"] == 0.0  # no calls, no base
    assert (m["cli.crashes"], m["trace.overhead_ratio"]) == (1, 1.25)
    assert set(m) == {name for name, _ in metrics.LAYER_METRICS}


def test_tracer_records_nested_spans_and_restores_the_program():
    import shapegraph
    from click.testing import CliRunner
    from shapegraph.cli import main
    from tracing import Tracer

    originals = (shapegraph.validation.max_typing, shapegraph.containment.embeds,
                 shapegraph.containment.Graph, shapegraph.core.Graph.is_simple)
    tracer = Tracer()
    tracer.install(shapegraph)
    try:
        res = tracer.operation(0, lambda: CliRunner().invoke(
            main, ["--json", "classify", os.devnull]))
    finally:
        tracer.uninstall()
    assert res.exit_code == 3  # an empty schema is a parse error
    names = [tracer.names[k] for k in tracer.kind]
    assert names == ["cli", "schema.parse_schema"]
    assert list(tracer.parent) == [-1, 0]
    assert list(tracer.note) == [0, -1]
    assert originals == (shapegraph.validation.max_typing, shapegraph.containment.embeds,
                         shapegraph.containment.Graph, shapegraph.core.Graph.is_simple)


# --- Seeds ------------------------------------------------------------------------------


def _shape(ops):
    return [(op.name, op.argv, op.expect, op.decided) for op in ops]


@pytest.mark.parametrize("workload", sorted(instances.OPS))
def test_seed_fixes_the_instances_and_not_the_mix(workload):
    build = instances.OPS[workload]
    a, b, c = build(1), build(1), build(2)
    assert [op.files for op in a] == [op.files for op in b]
    assert _shape(a) == _shape(b)
    assert [op.files for op in a] != [op.files for op in c]
    assert sorted(_shape(a)) == sorted(_shape(c))


def test_known_failures_are_a_fixed_share_under_a_tenth():
    ops = instances.validate_ops(1)
    hard = [op for op in ops if "-hub-" in op.name or "-wide-" in op.name]
    assert len(hard) == 3 and len(hard) / len(ops) < 0.1


# --- Answers known by construction ------------------------------------------------------


@pytest.mark.parametrize("kind", ["bug", "shex", "chain", "box", "hub", "wide"])
def test_generated_graphs_are_valid(kind):
    rng = instances.random.Random(kind)
    if kind == "chain":
        g, s = instances.chain_graph(rng, 60), instances.CHAIN
    elif kind == "box":
        g, s = instances.box_graph(rng, 40), instances.BOX
    elif kind == "wide":
        g, s = instances.wide_graph(rng, 40), instances.WIDE
    else:
        g = instances.bug_graph(rng, 60, shex=kind == "shex", hub=30 if kind == "hub" else 0)
        s = instances.BUG_SHEX if kind == "shex" else instances.BUG
    assert oracle.validates(g, s)


def test_planted_defect_makes_the_graph_invalid_and_unembeddable():
    g = instances.bug_graph(instances.random.Random(5), 40, defect=True)
    assert not oracle.validates(g, instances.BUG)
    assert not oracle.deterministic_embeds(g, oracle.shape_graph(instances.BUG))


def test_brute_force_propositional_checks():
    assert oracle.cnf_satisfiable(2, [(1, 2), (-1,)])
    assert not oracle.cnf_satisfiable(1, [(1,), (-1,)])
    assert oracle.dnf_tautology(1, [(1,), (-1,)])
    assert not oracle.dnf_tautology(2, [(1, 2), (-1, -2)])


def _bags(symbols, top):
    for counts in product(range(top + 1), repeat=len(symbols)):
        yield {s: c for s, c in zip(symbols, counts) if c}


@pytest.mark.parametrize("row", range(len(instances.UNION_TABLE)))
def test_union_answers_match_bag_enumeration(row):
    """within: a missed bag fits the search (each symbol at most 3 times);
    beyond: missed bags exist, but none fits; contained: none up to 6."""
    e0, es, answer = instances.UNION_TABLE[row]
    union = instances.alt(*es)
    missed = [w for w in _bags(["a", "b"], 6) if oracle.bag_in(e0, w) and not oracle.bag_in(union, w)]
    small = [w for w in missed if max(w.values(), default=0) <= 3]
    assert answer == ("within" if small else "beyond" if missed else "contained")


def test_schema_families_match_the_programs_fixtures():
    from shapegraph import fixtures, parse_schema
    from shapegraph.schema import to_shape_graph

    def edges(s):
        return sorted((e.source, e.label, e.target, str(e.occur)) for e in to_shape_graph(s).edges)

    for n in (1, 2):
        for ours, theirs in zip(instances.exponential_schemas(n), fixtures.exponential_family(n)):
            assert edges(parse_schema(oracle.schema_text(ours))) == edges(theirs)
    clauses = [(1, -2), (2,)]
    for ours, theirs in zip(instances.dnf_schemas(2, clauses), fixtures.dnf_containment_instance(2, clauses)):
        assert edges(parse_schema(oracle.schema_text(ours))) == edges(theirs)


def test_relaxed_schema_contains_the_original():
    rng = instances.random.Random(3)
    for _ in range(20):
        h = instances.random_minus_schema(rng)
        k = instances.relaxed(h, rng)
        assert oracle.deterministic_embeds(oracle.shape_graph(h), oracle.shape_graph(k))
        assert oracle.small_counterexample(h, k) is None


def test_witness_recheck_rejects_a_graph_valid_under_both():
    h = {"t": instances.sym("a", "t", instances.STAR)}
    g = oracle.Graph("simple", [("x", "a", "x", 1, 1)])
    assert not oracle.is_counterexample(g, h, h)
    assert oracle.is_counterexample(g, h, {"t": instances.EPS})
