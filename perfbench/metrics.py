"""Metric maths: latency percentiles with failures, and per-layer numbers
from recorded spans. Nothing here imports the program under test."""

from __future__ import annotations

import statistics

INF = float("inf")
TAIL_BEYOND = 10


def tail(latencies):
    """The highest percentile with at least TAIL_BEYOND operations beyond
    it: (value, percentile, sample count). A failed operation is +inf."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} operations, got {n}")
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def end_to_end(seconds, failed, ok_per_pass):
    """Latency metrics of one operation list run in several passes.

    seconds[i] holds operation i's time in each pass and failed[i] whether
    it failed. An operation's time is its median over the passes; a failed
    operation counts as +inf. Goodput divides the correct verdicts of one
    pass by the sum of those times, failed operations included.
    """
    typical = [statistics.median(s) for s in seconds]
    latencies = [INF if f else t for t, f in zip(typical, failed)]
    value, percentile, n = tail(latencies)
    return {
        "verdict_s_p50": statistics.median(latencies),
        "verdict_s_tail": value,
        "tail_percentile": percentile,
        "tail_samples": n,
        "goodput_per_s": ok_per_pass / sum(typical),
        "pass_s": sum(typical),
    }


def self_times(parent, start, end):
    """Each span's duration minus the time its direct children cover.
    Spans of one thread nest, so children never overlap."""
    dur = [e - s for s, e in zip(start, end)]
    own = list(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= dur[i]
    return own


def _ratio(part, whole):
    return part / whole if whole else 0.0


# (metric, unit) in report order. A ratio is 0 when its base count is 0.
LAYER_METRICS = [
    ("core.parse_graph.calls", "count"),
    ("core.parse_graph.self_s", "s"),
    ("core.Graph.is_simple.calls", "count"),
    ("core.Graph.is_simple.self_s", "s"),
    ("core.serialize_graph.self_s", "s"),
    ("schema.parse_schema.calls", "count"),
    ("schema.parse_schema.self_s", "s"),
    ("schema.classify.calls", "count"),
    ("schema.classify.self_s", "s"),
    ("rbe.to_rbe0.calls", "count"),
    ("rbe.to_rbe0.self_s", "s"),
    ("rbe.bag_matches.calls", "count"),
    ("rbe.bag_matches.self_s", "s"),
    ("rbe.bag_matches.true_ratio", "ratio"),
    ("validation.max_typing.calls", "count"),
    ("validation.max_typing.self_s", "s"),
    ("validation.satisfies_type.calls", "count"),
    ("validation.satisfies_type.self_s", "s"),
    ("validation.satisfies_type.true_ratio", "ratio"),
    ("validation.satisfies_type.errors", "count"),
    ("validation.checks_per_node_type", "ratio"),
    ("validation.route.flat.calls", "count"),
    ("validation.route.flat.sources_per_call", "ratio"),
    ("validation.route.psi.calls", "count"),
    ("validation.route.exhaustive.calls", "count"),
    ("embedding.max_simulation.calls", "count"),
    ("embedding.max_simulation.self_s", "s"),
    ("embedding.find_witness.calls", "count"),
    ("embedding.find_witness.found_ratio", "ratio"),
    ("embedding.checks_per_pair", "ratio"),
    ("embedding.routing_instance.self_s", "s"),
    ("embedding.witness_exists_basic.calls", "count"),
    ("embedding.witness_exists_basic.self_s", "s"),
    ("embedding.witness_exists_general.calls", "count"),
    ("embedding.witness_exists_general.self_s", "s"),
    ("embedding.witness_exists_general.errors", "count"),
    ("presburger.presburger_of.self_s", "s"),
    ("presburger.pa_eval_bounded.calls", "count"),
    ("presburger.pa_eval_bounded.self_s", "s"),
    ("containment.find_counterexample.calls", "count"),
    ("containment.find_counterexample.self_s", "s"),
    ("containment.candidates", "count"),
    ("containment.typer_checks_per_candidate", "ratio"),
    ("containment.reverify_ratio", "ratio"),
    ("containment.canonical_code.calls", "count"),
    ("containment.canonical_code.self_s", "s"),
    ("containment.characterizing_graph.self_s", "s"),
    ("containment.contains_detshex0minus.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.crashes", "count"),
    ("trace.overhead_ratio", "ratio"),
]


def layer_metrics(names, kind, parent, start, end, note, crashes, overhead_ratio):
    """Per-layer metrics from spans.

    Span i has name names[kind[i]], its parent span (-1 for none), start
    and end times, and a note: -1 if the call raised; otherwise 1/0 for the
    result of a yes/no call, the unit sources of a flat-route call, or the
    nodes x types (pairs) a typing (simulation) fixpoint starts from.
    """
    own = self_times(parent, start, end)
    calls, self_s, errors, trues, notes = {}, {}, {}, {}, {}
    # Counts of spans by (name, parent name), for work done inside a layer.
    under = {}
    for i, k in enumerate(kind):
        name = names[k]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[i]
        n = note[i]
        if n < 0:
            errors[name] = errors.get(name, 0) + 1
        else:
            notes[name] = notes.get(name, 0) + n
            if n == 1:
                trues[name] = trues.get(name, 0) + 1
        key = (name, names[kind[parent[i]]] if parent[i] >= 0 else None)
        under[key] = under.get(key, 0) + 1

    m = {}
    for metric, _ in LAYER_METRICS:
        base, _, field = metric.rpartition(".")
        if field == "calls":
            m[metric] = calls.get(base, 0)
        elif field == "self_s":
            m[metric] = self_s.get(base, 0.0)
        elif field == "errors":
            m[metric] = errors.get(base, 0)
        elif field in ("true_ratio", "found_ratio"):
            m[metric] = _ratio(trues.get(base, 0), calls.get(base, 0))
    m["cli.self_s"] = self_s.get("cli", 0.0)
    m["cli.crashes"] = crashes
    m["validation.checks_per_node_type"] = _ratio(
        under.get(("validation.satisfies_type", "validation.max_typing"), 0),
        notes.get("validation.max_typing", 0))
    m["validation.route.flat.sources_per_call"] = _ratio(
        notes.get("validation.route.flat", 0), calls.get("validation.route.flat", 0))
    m["embedding.checks_per_pair"] = _ratio(
        under.get(("embedding.find_witness", "embedding.max_simulation"), 0),
        notes.get("embedding.max_simulation", 0))
    search = "containment.find_counterexample"
    candidates = under.get(("containment.Graph", search), 0)
    m["containment.candidates"] = candidates
    m["containment.typer_checks_per_candidate"] = _ratio(
        under.get(("validation.satisfies_type", search), 0), candidates)
    m["containment.reverify_ratio"] = _ratio(under.get(("validation.validates", search), 0), candidates)
    m["trace.overhead_ratio"] = overhead_ratio
    return m
