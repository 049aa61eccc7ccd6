"""Command-line front end.

Exit codes: 0 the property holds / success, 1 it fails or a counter-example
was produced, 2 unknown within budget, 3 usage or parse error.  Commands
return their result; `handles_errors` prints it and exits after they have
returned, with no exception chained, so an in-process caller that keeps the
SystemExit (click's CliRunner, or main(standalone_mode=False)) keeps none of
a command's graphs, schemas, memos or witnesses.
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
    """Print the (verdict, lines, witness, stats, code) a command returns and
    exit with its code.  A WorkCapError (a cap ran out) exits 2 with the
    envelope of an unknown verdict, every other library error (parse, kind,
    precondition, malformed budget, I/O) 3."""

    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        ctx, error = click.get_current_context(), None
        try:
            code = _emit(ctx, *f(*args, **kwargs))
        except WorkCapError as exc:
            error, code = f"unknown: {exc}", 2
        except click.ClickException as exc:
            exc.show()
            code = exc.exit_code
        except (ShapegraphError, ValueError, OSError) as exc:
            error, code = f"error: {exc}", 3
        if error:
            click.echo(error, err=True)
            if code == 2:
                _emit(ctx, "unknown", [], None, None, 2)
        sys.exit(code)

    return wrapper


def _emit(ctx, verdict: str, text_lines, witness, stats, code):
    """Print a result and return its exit code."""
    if ctx.obj["json"]:
        envelope = {"verdict": verdict, "stats": stats or {}}
        if witness is not None:
            envelope["witness"] = witness
        click.echo(json.dumps(envelope, sort_keys=True))
    elif text_lines:
        click.echo("\n".join(text_lines))
    if ctx.obj["strict"] and code == 2:
        click.echo("strict mode: result is unknown", err=True)
    return code


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
@handles_errors
def validate(graph, schema):
    """Check that every node of GRAPH gets a type under SCHEMA."""
    g = _load_graph(graph)
    s = _load_schema(schema)
    typing = _val.max_typing(g, s)
    ok = all(typing[n] for n in g.nodes)
    stats = {"nodes": len(g.nodes), "types": len(s.types)}
    return "valid" if ok else "invalid", ["valid" if ok else "invalid"], None, stats, 0 if ok else 1


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
    ok = all(typ[n] for n in g.nodes)
    if ctx.obj["json"]:
        lines, witness = (), {n: sorted(typ[n]) for n in g.nodes}
    else:
        lines, witness = [f"{n}\t{','.join(sorted(typ[n]))}" for n in g.nodes], None
    return "valid" if ok else "invalid", lines, witness, None, 0 if ok else 1


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

    def mapped(n, m):
        """n's out-edges in order, each with its h-edge under the witness of (n, m)."""
        lam = sim.witnesses[(n, m)]
        return [(g.out(n)[i], h.out(m)[lam[i]]) for i in sorted(lam)]

    if ctx.obj["json"]:
        lines = ()
        witness = [{"g": n, "h": m, "map": [[[e.source, e.label, e.target], [f.source, f.label, f.target]]
                                            for e, f in mapped(n, m)]} for n, m in pairs]
    else:
        witness = None
        lines = [f"{n}\t{m}" for n, m in pairs]
        for n, m in pairs:
            lines.append(f"witness {n}\t{m}")
            lines += [f"edge({e.source},{e.label},{e.target}) => edge({f.source},{f.label},{f.target})"
                      for e, f in mapped(n, m)]
    return "embeds" if ok else "not-embeds", lines, witness, {"pairs": len(pairs)}, 0 if ok else 1


@main.command()
@click.argument("schema", type=click.Path())
@handles_errors
def classify(schema):
    """Print the most restrictive class of SCHEMA plus diagnostics."""
    s = _load_schema(schema)
    cls, diagnostics = _schema.classify(s)
    lines = [cls.name] + [f"  {d}" for d in diagnostics]
    return cls.name, lines, diagnostics, None, 0


def _budget_options(f):
    b = _cont.Budget
    f = click.option("--max-nodes", type=click.IntRange(min=1), default=b.max_nodes, show_default=True)(f)
    f = click.option("--max-card", type=click.IntRange(min=1), default=b.max_card, show_default=True)(f)
    f = click.option("--timeout", type=click.FloatRange(min=0, min_open=True), default=b.timeout, show_default=True)(f)
    return f


def _report_containment(verdict):
    if isinstance(verdict, _cont.Contained):
        return "contained", ["contained"], None, None, 0
    if isinstance(verdict, _cont.NotContained):
        text = _core.serialize_graph(verdict.witness)
        return "not-contained", [text.rstrip("\n")], text, None, 1
    return "unknown", [f"unknown: {verdict.reason}"], None, None, 2


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
@handles_errors
def contains(schema_h, schema_k, method, max_nodes, max_card, timeout):
    """Decide whether every graph valid under SCHEMA_H is valid under SCHEMA_K."""
    h = _load_schema(schema_h)
    k = _load_schema(schema_k)
    budget = _cont.Budget(max_nodes=max_nodes, max_card=max_card, timeout=timeout)
    return _report_containment(_cont.contains(h, k, method=method, budget=budget))


@main.command()
@click.argument("schema_h", type=click.Path())
@click.argument("schema_k", type=click.Path())
@_budget_options
@handles_errors
def counterexample(schema_h, schema_k, max_nodes, max_card, timeout):
    """Search for a graph valid under SCHEMA_H but not SCHEMA_K."""
    h = _load_schema(schema_h)
    k = _load_schema(schema_k)
    budget = _cont.Budget(max_nodes=max_nodes, max_card=max_card, timeout=timeout)
    return _report_containment(_cont.find_counterexample(h, k, budget=budget))


@main.command()
@click.argument("schema", type=click.Path())
@handles_errors
def characterize(schema):
    """Print the characterizing graph of a DetShEx0Minus SCHEMA."""
    s = _load_schema(schema)
    g = _cont.characterizing_graph(s)
    text = _core.serialize_graph(g)
    return "ok", [text.rstrip("\n")], text, {"nodes": len(g.nodes)}, 0


@main.command()
@click.argument("expression")
@click.option("--emit", "emit_path", type=click.Path(), default=None, help="Write the S-expression to a file.")
@handles_errors
def presburger(expression, emit_path):
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
    lines = [f"wrote {emit_path}"] if emit_path else [text.rstrip("\n")]
    return "ok", lines, sexpr, {"variables": len(xvars)}, 0


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


def _emit_pair(name_a, text_a, name_b, text_b, out_h, out_k):
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
    return "ok", lines, {name_a: text_a, name_b: text_b}, None, 0


def _with_pair_out(f):
    f = click.option("--out-h", type=click.Path(), default=None, help="Write the left instance here.")(f)
    f = click.option("--out-k", type=click.Path(), default=None, help="Write the right instance here.")(f)
    return f


@fixtures.command()
@click.option("--vars", "num_vars", type=click.IntRange(min=0), required=True)
@click.argument("clauses", nargs=-1, required=True)
@_with_pair_out
@handles_errors
def sat(num_vars, clauses, out_h, out_k):
    """Interval graphs (H, K) with: the CNF is satisfiable iff H embeds in K.

    Clauses are given as signed integers, e.g. "1,-2" for (x1 or not x2);
    put "--" before clauses that start with a negative literal.
    """
    phi = _fx.normalize_cnf(_fx.CnfFormula(num_vars, _parse_clauses(clauses)))
    h, k = _fx.sat_embedding_instance(phi)
    return _emit_pair("H", _core.serialize_graph(h), "K", _core.serialize_graph(k), out_h, out_k)


@fixtures.command()
@click.option("--vars", "num_vars", type=click.IntRange(min=0), required=True)
@click.argument("clauses", nargs=-1, required=True)
@_with_pair_out
@handles_errors
def dnf(num_vars, clauses, out_h, out_k):
    """Schemas (H, K) with: the DNF is a tautology iff H is contained in K."""
    h, k = _fx.dnf_containment_instance(num_vars, _parse_clauses(clauses))
    return _emit_pair("H", _schema.serialize_schema(h), "K", _schema.serialize_schema(k), out_h, out_k)


@fixtures.command()
@click.argument("n", type=int)
@_with_pair_out
@handles_errors
def exp(n, out_h, out_k):
    """The depth-N family whose minimal counter-examples grow with N."""
    h, k = _fx.exponential_family(n)
    return _emit_pair("H", _schema.serialize_schema(h), "K", _schema.serialize_schema(k), out_h, out_k)


@fixtures.command()
@click.argument("e0")
@click.argument("alternatives", nargs=-1, required=True)
@_with_pair_out
@handles_errors
def union(e0, alternatives, out_h, out_k):
    """Schemas (H, K) with: L(E0) is inside the union of the ALTERNATIVES
    iff H is contained in K."""
    h, k = _fx.union_containment_instance(
        _rbe.parse_rbe(e0), [_rbe.parse_rbe(a) for a in alternatives]
    )
    return _emit_pair("H", _schema.serialize_schema(h), "K", _schema.serialize_schema(k), out_h, out_k)


if __name__ == "__main__":
    main()
