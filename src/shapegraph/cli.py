"""Command-line front end.

Exit codes: 0 the property holds / success, 1 it fails or a counter-example
was produced, 2 unknown within budget, 3 usage or parse error.
"""

from __future__ import annotations

import functools
import json
import sys

import click

from . import containment as _cont
from . import core as _core
from . import embedding as _emb
from . import fixtures as _fx
from . import presburger as _pa
from . import rbe as _rbe
from . import schema as _schema
from . import validation as _val
from .errors import ShapegraphError, WorkCapError

click.UsageError.exit_code = 3


class _CliError(click.ClickException):
    exit_code = 3


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliError(str(exc)) from None


def _load_graph(path: str) -> _core.Graph:
    return _core.parse_graph(_read(path))


def _load_schema(path: str) -> _schema.Schema:
    return _schema.parse_schema(_read(path))


def handles_errors(f):
    """Map library errors to the exit-code contract: a WorkCapError (a cap
    ran out) to 2 with the envelope of an unknown verdict, everything else
    (parse, kind, precondition, malformed budget, I/O) to 3."""

    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except WorkCapError as exc:
            click.echo(f"unknown: {exc}", err=True)
            _emit(click.get_current_context(), "unknown", [], code=2)
        except click.ClickException:
            raise
        except (ShapegraphError, ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)

    return wrapper


def _emit(ctx, verdict: str, text_lines, witness=None, stats=None, code=0):
    if ctx.obj["json"]:
        envelope = {"verdict": verdict, "stats": stats or {}}
        if witness is not None:
            envelope["witness"] = witness
        click.echo(json.dumps(envelope, sort_keys=True))
    else:
        for line in text_lines:
            click.echo(line)
    if ctx.obj["strict"] and code == 2:
        click.echo("strict mode: result is unknown", err=True)
    sys.exit(code)


@click.group()
@click.option("--json", "json_out", is_flag=True, help="Emit a JSON result envelope.")
@click.option("--strict", is_flag=True,
              help="On an unknown result (exit 2), also print 'strict mode: result is unknown' to stderr.")
@click.pass_context
def main(ctx, json_out, strict):
    """Shape-schema toolkit: validation, embedding, containment, encodings."""
    ctx.obj = {"json": json_out, "strict": strict}


@main.command()
@click.argument("graph", type=click.Path())
@click.argument("schema", type=click.Path())
@click.pass_context
@handles_errors
def validate(ctx, graph, schema):
    """Check that every node of GRAPH gets a type under SCHEMA."""
    g = _load_graph(graph)
    s = _load_schema(schema)
    typing = _val.max_typing(g, s)
    ok = all(typing[n] for n in g.nodes)
    stats = {"nodes": len(g.nodes), "types": len(s.types)}
    _emit(ctx, "valid" if ok else "invalid", ["valid" if ok else "invalid"], stats=stats, code=0 if ok else 1)


@main.command()
@click.argument("graph", type=click.Path())
@click.argument("schema", type=click.Path())
@click.pass_context
@handles_errors
def typing(ctx, graph, schema):
    """Print the maximal typing, one "node TAB types" line per node."""
    g = _load_graph(graph)
    s = _load_schema(schema)
    typ = _val.max_typing(g, s)
    lines = [f"{n}\t{','.join(sorted(typ[n]))}" for n in g.nodes]
    ok = all(typ[n] for n in g.nodes)
    witness = {n: sorted(typ[n]) for n in g.nodes}
    _emit(ctx, "valid" if ok else "invalid", lines, witness=witness, code=0 if ok else 1)


@main.command()
@click.argument("graph_g", type=click.Path())
@click.argument("graph_h", type=click.Path())
@click.pass_context
@handles_errors
def embed(ctx, graph_g, graph_h):
    """Decide GRAPH_G embeds in GRAPH_H; print the maximal simulation."""
    g = _load_graph(graph_g)
    h = _load_graph(graph_h)
    ok, sim = _emb.embeds(g, h)
    pairs = sorted(sim.pairs, key=lambda p: (g.index[p[0]], h.index[p[1]]))
    lines = [f"{n}\t{m}" for n, m in pairs]
    witness = []
    for n, m in pairs:
        lam = sim.witnesses[(n, m)]
        lines.append(f"witness {n}\t{m}")
        entry = {"g": n, "h": m, "map": []}
        for i in sorted(lam):
            e = g.out(n)[i]
            f = h.out(m)[lam[i]]
            lines.append(
                f"edge({e.source},{e.label},{e.target}) => edge({f.source},{f.label},{f.target})"
            )
            entry["map"].append(
                [[e.source, e.label, e.target], [f.source, f.label, f.target]]
            )
        witness.append(entry)
    _emit(
        ctx,
        "embeds" if ok else "not-embeds",
        lines,
        witness=witness,
        stats={"pairs": len(pairs)},
        code=0 if ok else 1,
    )


@main.command()
@click.argument("schema", type=click.Path())
@click.pass_context
@handles_errors
def classify(ctx, schema):
    """Print the most restrictive class of SCHEMA plus diagnostics."""
    s = _load_schema(schema)
    cls, diagnostics = _schema.classify(s)
    lines = [cls.name] + [f"  {d}" for d in diagnostics]
    _emit(ctx, cls.name, lines, witness=diagnostics, code=0)


def _budget_options(f):
    b = _cont.Budget
    f = click.option("--max-nodes", type=click.IntRange(min=1), default=b.max_nodes, show_default=True)(f)
    f = click.option("--max-card", type=click.IntRange(min=1), default=b.max_card, show_default=True)(f)
    f = click.option("--timeout", type=click.FloatRange(min=0, min_open=True), default=b.timeout, show_default=True)(f)
    return f


def _report_containment(ctx, verdict):
    if isinstance(verdict, _cont.Contained):
        _emit(ctx, "contained", ["contained"], code=0)
    elif isinstance(verdict, _cont.NotContained):
        text = _core.serialize_graph(verdict.witness)
        _emit(ctx, "not-contained", [text.rstrip("\n")], witness=text, code=1)
    else:
        _emit(ctx, "unknown", [f"unknown: {verdict.reason}"], code=2)


@main.command()
@click.argument("schema_h", type=click.Path())
@click.argument("schema_k", type=click.Path())
@click.option(
    "--method",
    type=click.Choice(["auto", "embedding", "search"]),
    default="auto",
    show_default=True,
)
@_budget_options
@click.pass_context
@handles_errors
def contains(ctx, schema_h, schema_k, method, max_nodes, max_card, timeout):
    """Decide whether every graph valid under SCHEMA_H is valid under SCHEMA_K."""
    h = _load_schema(schema_h)
    k = _load_schema(schema_k)
    budget = _cont.Budget(max_nodes=max_nodes, max_card=max_card, timeout=timeout)
    _report_containment(ctx, _cont.contains(h, k, method=method, budget=budget))


@main.command()
@click.argument("schema_h", type=click.Path())
@click.argument("schema_k", type=click.Path())
@_budget_options
@click.pass_context
@handles_errors
def counterexample(ctx, schema_h, schema_k, max_nodes, max_card, timeout):
    """Search for a graph valid under SCHEMA_H but not SCHEMA_K."""
    h = _load_schema(schema_h)
    k = _load_schema(schema_k)
    budget = _cont.Budget(max_nodes=max_nodes, max_card=max_card, timeout=timeout)
    _report_containment(ctx, _cont.find_counterexample(h, k, budget=budget))


@main.command()
@click.argument("schema", type=click.Path())
@click.pass_context
@handles_errors
def characterize(ctx, schema):
    """Print the characterizing graph of a DetShEx0Minus SCHEMA."""
    s = _load_schema(schema)
    g = _cont.characterizing_graph(s)
    text = _core.serialize_graph(g)
    _emit(ctx, "ok", [text.rstrip("\n")], witness=text, stats={"nodes": len(g.nodes)}, code=0)


@main.command()
@click.argument("expression")
@click.option("--emit", "emit_path", type=click.Path(), default=None, help="Write the S-expression to a file.")
@click.pass_context
@handles_errors
def presburger(ctx, expression, emit_path):
    """Print the linear-arithmetic membership formula for an EXPRESSION."""
    e = _rbe.parse_rbe(expression)
    formula, xvars, nvar = _pa.presburger_of(e)
    sexpr = _pa.to_sexpr(formula)
    lines = [f"; symbols: {' '.join(f'{s}->{x}' for s, x in sorted(xvars.items(), key=lambda kv: str(kv[0])))}"]
    lines.append(f"; copies: {nvar}")
    lines.append(sexpr)
    text = "\n".join(lines) + "\n"
    if emit_path:
        with open(emit_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    _emit(
        ctx,
        "ok",
        [text.rstrip("\n")] if not emit_path else [f"wrote {emit_path}"],
        witness=sexpr,
        stats={"variables": len(xvars)},
        code=0,
    )


@main.group()
def fixtures():
    """Generate the adversarial instance families."""


def _parse_clauses(clause_args):
    clauses = []
    for text in clause_args:
        try:
            clauses.append(tuple(int(tok) for tok in text.replace(",", " ").split()))
        except ValueError:
            raise _CliError(f"bad clause {text!r}: expected signed integers") from None
    return tuple(clauses)


def _emit_pair(ctx, name_a, text_a, name_b, text_b, out_h, out_k):
    if out_h:
        with open(out_h, "w", encoding="utf-8") as fh:
            fh.write(text_a)
    if out_k:
        with open(out_k, "w", encoding="utf-8") as fh:
            fh.write(text_b)
    lines = []
    if not out_h:
        lines += [f"# {name_a}", text_a.rstrip("\n")]
    if not out_k:
        lines += [f"# {name_b}", text_b.rstrip("\n")]
    if out_h and out_k:
        lines = [f"wrote {out_h} and {out_k}"]
    _emit(ctx, "ok", lines, witness={name_a: text_a, name_b: text_b}, code=0)


def _with_pair_out(f):
    f = click.option("--out-h", type=click.Path(), default=None, help="Write the left instance here.")(f)
    f = click.option("--out-k", type=click.Path(), default=None, help="Write the right instance here.")(f)
    return f


@fixtures.command()
@click.option("--vars", "num_vars", type=click.IntRange(min=0), required=True)
@click.argument("clauses", nargs=-1, required=True)
@_with_pair_out
@click.pass_context
@handles_errors
def sat(ctx, num_vars, clauses, out_h, out_k):
    """Interval graphs (H, K) with: the CNF is satisfiable iff H embeds in K.

    Clauses are given as signed integers, e.g. "1,-2" for (x1 or not x2);
    put "--" before clauses that start with a negative literal.
    """
    phi = _fx.normalize_cnf(_fx.CnfFormula(num_vars, _parse_clauses(clauses)))
    h, k = _fx.sat_embedding_instance(phi)
    _emit_pair(ctx, "H", _core.serialize_graph(h), "K", _core.serialize_graph(k), out_h, out_k)


@fixtures.command()
@click.option("--vars", "num_vars", type=click.IntRange(min=0), required=True)
@click.argument("clauses", nargs=-1, required=True)
@_with_pair_out
@click.pass_context
@handles_errors
def dnf(ctx, num_vars, clauses, out_h, out_k):
    """Schemas (H, K) with: the DNF is a tautology iff H is contained in K."""
    h, k = _fx.dnf_containment_instance(num_vars, _parse_clauses(clauses))
    _emit_pair(ctx, "H", _schema.serialize_schema(h), "K", _schema.serialize_schema(k), out_h, out_k)


@fixtures.command()
@click.argument("n", type=int)
@_with_pair_out
@click.pass_context
@handles_errors
def exp(ctx, n, out_h, out_k):
    """The depth-N family whose minimal counter-examples grow with N."""
    h, k = _fx.exponential_family(n)
    _emit_pair(ctx, "H", _schema.serialize_schema(h), "K", _schema.serialize_schema(k), out_h, out_k)


@fixtures.command()
@click.argument("e0")
@click.argument("alternatives", nargs=-1, required=True)
@_with_pair_out
@click.pass_context
@handles_errors
def union(ctx, e0, alternatives, out_h, out_k):
    """Schemas (H, K) with: L(E0) is inside the union of the ALTERNATIVES
    iff H is contained in K."""
    h, k = _fx.union_containment_instance(
        _rbe.parse_rbe(e0), [_rbe.parse_rbe(a) for a in alternatives]
    )
    _emit_pair(ctx, "H", _schema.serialize_schema(h), "K", _schema.serialize_schema(k), out_h, out_k)


if __name__ == "__main__":
    main()
