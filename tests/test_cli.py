import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter

import pytest
from click.testing import CliRunner

import shapegraph
from shapegraph import cli as _cli
from shapegraph import containment as _cont
from shapegraph import embedding as _emb
from shapegraph import rbe
from shapegraph import validation as _val
from shapegraph.cli import handles_errors, main

from conftest import (
    BUG_GRAPH_TEXT,
    BUG_SCHEMA_TEXT,
    BUG_VARIANT_TEXT,
    CHAIN_SCHEMA_TEXT,
    bug_chain_graph,
    chain_graph,
    package_garbage,
    star_chain_pair,
)
from shapegraph import (
    CnfFormula,
    normalize_cnf,
    parse_graph,
    parse_schema,
    sat_embedding_instance,
    serialize_graph,
    serialize_schema,
    to_shape_graph,
    validates,
)


def _nested(inner, atom, depth):
    """(…((inner, atom)?, atom)?…), nested depth levels deep."""
    for _ in range(depth):
        inner = f"({inner}, {atom})?"
    return inner


def width_work(monkeypatch) -> Counter:
    """The work of typing, kept up to date in the returned Counter:
    satisfies_type calls, the widest card that one of them reads, flows
    solved and Parikh vector sets built."""
    work = Counter()
    check, flow, vectors = _val.satisfies_type, _val.feasible_flow, rbe.parikh_vectors

    def counting_check(s, ty, out, *rest):
        work["checks"] += 1
        work["widest"] = max([work["widest"]] + [e.occur.min for e in out])
        return check(s, ty, out, *rest)

    def counting(name, real):
        def counted(*args, **kwargs):
            work[name] += 1
            return real(*args, **kwargs)
        return counted

    monkeypatch.setattr(_val, "satisfies_type", counting_check)
    monkeypatch.setattr(_val, "feasible_flow", counting("flows", flow))
    monkeypatch.setattr(rbe, "parikh_vectors", counting("vectors", vectors))
    return work


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def files(tmp_path):
    paths = {}

    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
        return str(p)

    write("bug.schema", BUG_SCHEMA_TEXT)
    write("variant.schema", BUG_VARIANT_TEXT)
    write("chain.schema", CHAIN_SCHEMA_TEXT)
    write("bug.graph", BUG_GRAPH_TEXT)
    write("chain.graph", serialize_graph(chain_graph()))
    g, h = star_chain_pair()
    write("star_g.graph", serialize_graph(g))
    write("star_h.graph", serialize_graph(h))
    write("bad.graph", "graph simple\nx nosuchlabel y\n")
    write("wide.graph", TestExitCodes.WIDE)
    write("wide.schema", "t -> (a::u, b::u?)*\nu -> eps\n")  # past the matcher's work cap
    write("broken.schema", "t -> ((\n")
    write("a.schema", "t -> a::u*\nu -> eps\n")
    write("b.schema", "t -> b::u*\nu -> eps\n")
    write("hub.graph", "graph compressed\ng a x0 [2;2]\n")
    write("hub_h.graph", "graph general\nH a X [0;6000]\n")  # a non-basic sink: the exact search
    paths["tmp"] = str(tmp_path)
    return paths


class TestExitCodes:
    def test_validate_holds(self, runner, files):
        r = runner.invoke(main, ["validate", files["bug.graph"], files["bug.schema"]])
        assert r.exit_code == 0
        assert r.output.strip() == "valid"

    def test_validate_fails(self, runner, files, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("graph simple\nx nosuchlabel y\n")
        r = runner.invoke(main, ["validate", str(bad), files["bug.schema"]])
        assert r.exit_code == 1

    def test_parse_error_is_3(self, runner, files, tmp_path):
        bad = tmp_path / "broken.schema"
        bad.write_text("t -> ((\n")
        r = runner.invoke(main, ["classify", str(bad)])
        assert r.exit_code == 3

    def test_missing_file_is_3(self, runner, files):
        r = runner.invoke(main, ["classify", files["tmp"] + "/absent.schema"])
        assert r.exit_code == 3

    @pytest.mark.parametrize("depth", [1200, 10**4])
    def test_deep_expressions_are_exported(self, runner, depth):
        # The Presburger export builds and prints the formula in loops, so
        # nesting depth is not bounded by Python's recursion limit.
        r = runner.invoke(main, ["--json", "presburger", _nested("a?", "b", depth)])
        assert r.exit_code == 0, r.output
        envelope = json.loads(r.stdout)
        assert envelope["verdict"] == "ok"
        assert envelope["witness"].count("(exists (m") == depth + 1  # one per repeat

    def test_deep_parentheses_are_classified(self, runner, tmp_path):
        # Parsing is one loop over the tokens, whatever the nesting.
        deep = tmp_path / "deep.schema"
        deep.write_text("t -> " + "(" * 1200 + "a::t?" + ")" * 1200 + "\n")
        r = runner.invoke(main, ["--json", "classify", str(deep)])
        assert r.exit_code == 0
        assert json.loads(r.stdout)["verdict"] == "DetShEx0"

    def test_deep_rules_are_decided(self, runner, tmp_path):
        # A rule nested 10^4 levels deep: no walker recurses per level.
        text = f"t -> {_nested('a::t?', 'b::u', 10**4)}\nu -> eps\n"
        s = tmp_path / "deep.schema"
        s.write_text(text)
        g = tmp_path / "small.graph"
        g.write_text("graph simple\nx b y\nx b z\n")
        r = runner.invoke(main, ["--json", "classify", str(s)])
        assert r.exit_code == 0
        assert json.loads(r.stdout)["verdict"] == "ShEx"
        r = runner.invoke(main, ["--json", "validate", str(g), str(s)])
        assert r.exit_code == 0
        assert json.loads(r.stdout)["verdict"] == "valid"
        schema = parse_schema(text)
        assert parse_schema(serialize_schema(schema)) == schema

    def test_deep_union_fixture_is_built(self, runner):
        r = runner.invoke(main, ["fixtures", "union", _nested("a", "b", 10**4), "a", "b"])
        assert r.exit_code == 0
        assert r.output.count("b::t0") == 10**4 + 1  # H has 10^4, K one

    @pytest.mark.parametrize(("op", "fits"), [(", ", 0), (" | ", 1), (" & ", 1)])
    def test_wide_rules_are_decided(self, runner, tmp_path, op, fits):
        # A 10^4-atom rule is one node whose walkers loop over its parts.
        # Only the concatenation of optional atoms takes both edges of x.
        text = "t -> " + op.join(f"l{i}::u?" for i in range(10**4)) + "\nu -> eps\n"
        s = tmp_path / "wide.schema"
        s.write_text(text)
        g = tmp_path / "wide.graph"
        g.write_text("graph simple\nx l1 y\nx l7 y\n")
        r = runner.invoke(main, ["--json", "classify", str(s)])
        assert r.exit_code == 0
        assert json.loads(r.stdout)["verdict"] == ("DetShEx0" if op == ", " else "ShEx")
        for command in ("validate", "typing"):
            r = runner.invoke(main, ["--json", command, str(g), str(s)])
            assert r.exit_code == fits, (command, r.output)
            assert json.loads(r.stdout)["verdict"] == ("valid", "invalid")[fits]
        schema = parse_schema(text)
        assert parse_schema(serialize_schema(schema)) == schema

    WIDE = "graph compressed\nx a y [1000;1000]\nx b y [1000;1000]\n"

    def test_vector_work_cap_is_2(self, runner, tmp_path):
        # A * of a box with no box of b alone has no box form (its bags
        # hold at least as many a as b), so the rule goes to the matcher.
        # Iterating the body's sum inside the box (1000, 1000) takes past
        # the matcher's constant bound of additions, which is counted
        # before each sum is made.
        g = tmp_path / "wide.graph"
        g.write_text(self.WIDE)
        s = tmp_path / "wide.schema"
        s.write_text("t -> (a::u, b::u?)*\nu -> eps\n")
        start = time.monotonic()
        r = runner.invoke(main, ["--json", "validate", str(g), str(s)])
        assert r.exit_code == 2
        assert json.loads(r.stdout) == {"verdict": "unknown", "stats": {}}
        assert time.monotonic() - start < 10

    def test_wide_meet_of_boxes_is_decided(self, runner, tmp_path, monkeypatch):
        # The meet of two boxes is a box, routed at a cost that does not
        # depend on the widths: past its threshold 1 under a *, each edge
        # is checked as an edge of one, with no flow and no vector.
        work = width_work(monkeypatch)
        g = tmp_path / "wide.graph"
        g.write_text(self.WIDE)
        s = tmp_path / "wide.schema"
        s.write_text("t -> (a::u*, b::u*) & (a::u*, b::u*)\nu -> eps\n")
        start = time.monotonic()
        r = runner.invoke(main, ["--json", "validate", str(g), str(s)])
        assert r.exit_code == 0, r.output
        assert json.loads(r.stdout)["verdict"] == "valid"
        # y checks t and u, x checks t.
        assert [work[w] for w in ("checks", "widest", "flows", "vectors")] == [3, 1, 0, 0]
        assert time.monotonic() - start < 1  # the outer net; the work decides

    def test_wide_disjunction_of_flat_parts_is_decided(self, runner, tmp_path, monkeypatch):
        # Each part of the disjunction is flat, so each is routed on its
        # own, at a cost that does not depend on the widths.
        work = width_work(monkeypatch)
        g = tmp_path / "wide.graph"
        g.write_text(self.WIDE)
        s = tmp_path / "wide.schema"
        s.write_text("t -> (a::u*, b::u*) | c::u\nu -> eps\n")
        start = time.monotonic()
        r = runner.invoke(main, ["--json", "validate", str(g), str(s)])
        assert r.exit_code == 0, r.output
        assert json.loads(r.stdout)["verdict"] == "valid"
        assert [work[w] for w in ("checks", "widest", "flows", "vectors")] == [3, 1, 0, 0]
        assert time.monotonic() - start < 1  # the outer net; the work decides

    # One compressed node with 3,000 [2;2] a-edges: the exact search, which
    # takes one level per source, and the flow both embed it.
    HUB = "graph compressed\n" + "".join(f"g a x{i} [2;2]\n" for i in range(3000))

    @pytest.mark.parametrize("shape", [
        "graph general\nH a X [0;6000]\n",  # a non-basic sink: the exact search
        "graph shape\nH a X *\nH a Y ?\n",  # basic sinks: the flow
    ], ids=["search", "flow"])
    def test_hub_embeds(self, runner, tmp_path, shape):
        g, h = tmp_path / "hub.graph", tmp_path / "h.graph"
        g.write_text(self.HUB)
        h.write_text(shape)
        start = time.monotonic()
        r = runner.invoke(main, ["--json", "embed", str(g), str(h)])
        assert r.exit_code == 0, r.output
        assert {"g": "g", "h": "H", "map": [[["g", "a", f"x{i}"], ["H", "a", "X"]] for i in range(3000)]} \
            in json.loads(r.stdout)["witness"]
        assert time.monotonic() - start < 1

    @pytest.mark.parametrize(("atom", "n", "n_edges"), [
        # t has two copies (it is *-referenced): r.0 x t.0 and t.1, n
        # edges from each t copy, and u.0 b o.0.
        ("a{}::u", 10_000, 2 + 2 * 10_000 + 1),
        # t has n + 1 copies, copy c >= 1 omitting the c-th ?-edge.
        ("a{}::u?", 300, 301 + 300 + 300 * 299 + 1),
    ], ids=["one", "optional"])
    def test_wide_type_characterizes(self, runner, tmp_path, atom, n, n_edges):
        # On a 2-core host, looking each edge up in the shape graph's edge
        # list took 30 s on the first, and ranking each copy by a count
        # over the copies before it took 15 s on the second.
        s = tmp_path / "wide.schema"
        s.write_text("r -> x::t*\nt -> " + ", ".join(atom.format(i) for i in range(n)) + "\nu -> b::o?\no -> eps\n")
        start = time.monotonic()
        r = runner.invoke(main, ["characterize", str(s)])
        assert r.exit_code == 0, r.output
        header, *edges = r.output.splitlines()
        assert header == "graph simple" and len(edges) == n_edges
        assert time.monotonic() - start < 2

    def test_characterizing_graph_validates(self, runner, tmp_path):
        # The witness that contains prints for this pair, fed back as a graph.
        s, g = tmp_path / "h.schema", tmp_path / "h.graph"
        s.write_text("T -> p::T*, q::U?\nU -> eps\n")
        r = runner.invoke(main, ["characterize", str(s)])
        assert r.exit_code == 0, r.output
        g.write_text(r.output)
        r = runner.invoke(main, ["validate", str(g), str(s)])
        assert r.exit_code == 0, r.output

    def test_unknown_subcommand_is_3(self, runner):
        r = runner.invoke(main, ["frobnicate"])
        assert r.exit_code == 3

    def test_embed_failure_is_1(self, runner, files):
        r = runner.invoke(main, ["embed", files["star_g.graph"], files["star_h.graph"]])
        assert r.exit_code == 1

    def test_contains_reflexive_embedding(self, runner, files):
        r = runner.invoke(
            main,
            ["contains", files["bug.schema"], files["bug.schema"], "--method", "embedding"],
        )
        assert r.exit_code == 0
        assert r.output.strip() == "contained"

    def test_contains_embedding_requires_class(self, runner, files):
        r = runner.invoke(
            main,
            ["contains", files["chain.schema"], files["chain.schema"], "--method", "embedding"],
        )
        assert r.exit_code == 3

    def test_counterexample_unknown_is_2(self, runner, files):
        r = runner.invoke(
            main,
            [
                "counterexample",
                files["chain.schema"],
                files["chain.schema"],
                "--max-nodes",
                "2",
                "--max-card",
                "1",
            ],
        )
        assert r.exit_code == 2

    def test_contains_default_budget(self, runner, files, monkeypatch):
        seen = []

        def contains(h, k, method, budget):
            seen.append(budget)
            return _cont.Contained()

        monkeypatch.setattr(_cont, "contains", contains)
        r = runner.invoke(main, ["contains", files["chain.schema"], files["chain.schema"]])
        assert r.exit_code == 0
        assert seen == [_cont.Budget()]

    @pytest.mark.parametrize(
        "command, witness",
        [
            ("contains", "graph simple\nt.0 a u.0\nt.0 a u.1\n"),
            ("counterexample", "graph simple\nv0 a v1\n"),
        ],
    )
    def test_not_contained_is_1(self, runner, tmp_path, command, witness):
        h, k = tmp_path / "h.schema", tmp_path / "k.schema"
        h.write_text("t -> a::u*\nu -> eps\n")
        k.write_text("t -> b::u*\nu -> eps\n")
        r = runner.invoke(main, [command, str(h), str(k)])
        assert r.exit_code == 1
        assert r.output == witness
        r = runner.invoke(main, ["--json", command, str(h), str(k)])
        assert r.exit_code == 1
        assert json.loads(r.output) == {"stats": {}, "verdict": "not-contained", "witness": witness}
        g = parse_graph(witness)
        assert validates(g, parse_schema(h.read_text())) and not validates(g, parse_schema(k.read_text()))

    @pytest.mark.parametrize(
        "option, value",
        [("--max-nodes", "0"), ("--max-card", "0"), ("--timeout", "0"), ("--timeout", "-1")],
    )
    @pytest.mark.parametrize("command", ["counterexample", "contains"])
    def test_malformed_budget_is_3(self, runner, files, command, option, value):
        r = runner.invoke(main, [command, files["chain.schema"], files["chain.schema"], option, value])
        assert r.exit_code == 3
        assert option in r.output and "unknown" not in r.output


class TestOutputFormats:
    def test_typing_dump(self, runner, files):
        r = runner.invoke(main, ["typing", files["chain.graph"], files["chain.schema"]])
        assert r.exit_code == 0
        lines = r.output.splitlines()
        assert lines[0] == "n0\tt0"
        assert lines[1] == "n1\tt1,t2"
        assert lines[2] == "n2\tt3"

    def test_embed_dump(self, runner, files, tmp_path):
        h = tmp_path / "chain_shape.graph"
        from shapegraph import parse_schema, to_shape_graph

        h.write_text(serialize_graph(to_shape_graph(parse_schema(CHAIN_SCHEMA_TEXT))))
        r = runner.invoke(main, ["embed", files["chain.graph"], str(h)])
        assert r.exit_code == 0
        assert "n0\tt0" in r.output
        assert "edge(n0,a,n1) => edge(t0,a,t1)" in r.output

    PINNED_G = "graph simple\nn0 a n1\nn0 a n2\nn1 b n3\n"
    PINNED_EMBED = (
        "n0\tt0\nn1\tt1\nn2\tt0\nn2\tt1\nn2\tt2\nn3\tt0\nn3\tt1\nn3\tt2\n"
        "witness n0\tt0\nedge(n0,a,n1) => edge(t0,a,t1)\nedge(n0,a,n2) => edge(t0,a,t1)\n"
        "witness n1\tt1\nedge(n1,b,n3) => edge(t1,b,t2)\n"
        "witness n2\tt0\nwitness n2\tt1\nwitness n2\tt2\nwitness n3\tt0\nwitness n3\tt1\nwitness n3\tt2\n"
    )
    PINNED_EMBED_JSON = {"stats": {"pairs": 8}, "verdict": "embeds", "witness": [
        {"g": "n0", "h": "t0", "map": [[["n0", "a", "n1"], ["t0", "a", "t1"]], [["n0", "a", "n2"], ["t0", "a", "t1"]]]},
        {"g": "n1", "h": "t1", "map": [[["n1", "b", "n3"], ["t1", "b", "t2"]]]},
        *[{"g": n, "h": t, "map": []} for n in ("n2", "n3") for t in ("t0", "t1", "t2")]]}

    def test_embed_and_typing_stdout_are_pinned(self, runner, tmp_path):
        # Each mode builds only what it prints; the text is one block and
        # the JSON envelope keeps its witness.  Values read at the parent.
        g, h, s = tmp_path / "g.graph", tmp_path / "h.graph", tmp_path / "s.schema"
        g.write_text(self.PINNED_G)
        h.write_text("graph shape\nt0 a t1 *\nt1 b t2 ?\n")
        s.write_text("t0 -> a::t1*\nt1 -> b::t2?\nt2 -> eps\n")
        assert runner.invoke(main, ["embed", str(g), str(h)]).stdout == self.PINNED_EMBED
        r = runner.invoke(main, ["--json", "embed", str(g), str(h)])
        assert r.stdout == json.dumps(self.PINNED_EMBED_JSON, sort_keys=True) + "\n"
        typing = {"n0": ["t0"], "n1": ["t1"], "n2": ["t0", "t1", "t2"], "n3": ["t0", "t1", "t2"]}
        assert runner.invoke(main, ["typing", str(g), str(s)]).stdout == "".join(
            f"{n}\t{','.join(ts)}\n" for n, ts in typing.items())
        r = runner.invoke(main, ["--json", "typing", str(g), str(s)])
        assert r.stdout == json.dumps({"stats": {}, "verdict": "valid", "witness": typing}, sort_keys=True) + "\n"

    def test_classify_output(self, runner, files):
        r = runner.invoke(main, ["classify", files["bug.schema"]])
        assert r.exit_code == 0
        assert r.output.splitlines()[0] == "DetShEx0Minus"
        r2 = runner.invoke(main, ["classify", files["variant.schema"]])
        assert r2.output.splitlines()[0] == "ShEx0"

    def test_json_envelope(self, runner, files):
        r = runner.invoke(
            main, ["--json", "validate", files["bug.graph"], files["bug.schema"]]
        )
        data = json.loads(r.output)
        assert data["verdict"] == "valid"
        assert "stats" in data

    def test_determinism(self, runner, files):
        args = ["embed", files["chain.graph"], files["star_h.graph"]]
        outs = {runner.invoke(main, args).output for _ in range(3)}
        assert len(outs) == 1

    HASH_SEED_SCRIPT = (
        "import json, sys\n"
        "from click.testing import CliRunner\n"
        "from shapegraph.cli import main\n"
        "runs = [CliRunner().invoke(main, argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([[r.exit_code, r.stdout] for r in runs]))\n"
    )

    def test_stdout_does_not_depend_on_the_hash_seed(self, files):
        # Sets and dicts keyed by strings iterate in an order that moves
        # with the process's hash seed; no command may print in that order.
        argvs = [
            ["validate", "bug.graph", "bug.schema"],
            ["--json", "validate", "bad.graph", "bug.schema"],
            ["typing", "bug.graph", "variant.schema"],
            ["--json", "typing", "chain.graph", "chain.schema"],
            ["embed", "star_h.graph", "star_h.graph"],
            ["--json", "embed", "star_g.graph", "star_h.graph"],
            ["contains", "a.schema", "b.schema"],
            ["--json", "contains", "b.schema", "a.schema"],
        ]
        argvs = json.dumps([[files.get(a, a) for a in argv] for argv in argvs])
        src = os.path.dirname(os.path.dirname(shapegraph.__file__))
        path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
        outputs = [
            subprocess.run([sys.executable, "-c", self.HASH_SEED_SCRIPT, argvs], capture_output=True,
                           text=True, check=True, env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
                           ).stdout
            for seed in ("1", "2")
        ]
        runs = json.loads(outputs[0])
        assert [code for code, _ in runs] == [0, 1, 0, 0, 0, 1, 1, 1]
        assert all(stdout for _, stdout in runs)
        assert outputs[0] == outputs[1]

    def test_presburger_emit(self, runner, tmp_path):
        out = tmp_path / "psi.sexpr"
        r = runner.invoke(main, ["presburger", "(a | b)*, c?", "--emit", str(out)])
        assert r.exit_code == 0
        assert out.read_text().startswith(";")

    @pytest.mark.parametrize(("argv", "code", "stdout", "stderr"), [
        (["validate", "wide.graph", "wide.schema"], 2, '{"stats": {}, "verdict": "unknown"}\n',
         "unknown: bag matching exceeded 1000000 vector additions\nstrict mode: result is unknown\n"),
        (["classify", "broken.schema"], 3, "",
         "error: in rule for t: expected an expression, got None at line 1\n"),
    ], ids=["work-cap", "parse-error"])
    def test_strict_json_errors_are_pinned(self, runner, files, argv, code, stdout, stderr):
        # A work cap prints its reason, then the unknown envelope, then the
        # strict line; a parse error prints one line and no envelope.
        # Values read at the parent.
        r = runner.invoke(main, ["--strict", "--json", argv[0], *(files[a] for a in argv[1:])])
        assert (r.exit_code, r.stdout, r.stderr) == (code, stdout, stderr)

    def test_strict_flag_messages(self, runner, files):
        # The flag's only effect is one stderr line on an unknown result.
        args = ["counterexample", files["chain.schema"], files["chain.schema"],
                "--max-nodes", "2", "--max-card", "1"]
        strict = runner.invoke(main, ["--strict"] + args)
        plain = runner.invoke(main, args)
        assert strict.exit_code == plain.exit_code == 2
        assert strict.stderr == "strict mode: result is unknown\n"
        assert "strict mode" not in plain.stderr
        assert strict.stdout == plain.stdout


MINUS_H = "t0 -> a::t1, b::t2*\nt1 -> b::t2*, c::t1*\nt2 -> eps\n"
MINUS_K = "t0 -> a::t1*, b::t2*\nt1 -> b::t2*, c::t1*\nt2 -> c::t1*\n"


def pinned_embed_inputs(case):
    """(g, h) graphs of each pinned embed case."""
    if case == "bug_chain":  # the defect at the end of a related chain
        return bug_chain_graph(4), to_shape_graph(parse_schema(BUG_SCHEMA_TEXT))
    if case == "sat":
        return sat_embedding_instance(normalize_cnf(CnfFormula(2, ((1, 2), (-1, 2), (1, -2)))))
    # A DetShEx0Minus shape graph against a relaxed copy.
    return to_shape_graph(parse_schema(MINUS_H)), to_shape_graph(parse_schema(MINUS_K))


# Exit code and sha256 of the `--json embed` stdout: the maximal simulation
# with every witness, fixed so that a change to how it is computed cannot
# move a pair or a witness.
PINNED_EMBED = {
    "bug_chain": (1, "3e803b3036e2d984b7690a51a07bdb9963350050747e83ac696a7c3b4a4f3db2"),
    "sat": (0, "0f9357ca9749d93db46b96f616e7dfdb112ec60833082c0a83d4d43e9211d46f"),
    "minus": (0, "ab0cf614cd13c66f381dfdce226c4993428a169c39f5d368536a4997d67abe6d"),
}


@pytest.mark.parametrize("case", sorted(PINNED_EMBED))
def test_pinned_embed(runner, tmp_path, case):
    paths = []
    for name, graph in zip("gh", pinned_embed_inputs(case)):
        p = tmp_path / f"{name}.graph"
        p.write_text(serialize_graph(graph))
        paths.append(str(p))
    r = runner.invoke(main, ["--json", "embed", *paths])
    assert (r.exit_code, hashlib.sha256(r.stdout.encode()).hexdigest()) == PINNED_EMBED[case], r.stdout


class TestFixtureCommands:
    def test_sat(self, runner, tmp_path):
        hp, kp = tmp_path / "h.graph", tmp_path / "k.graph"
        r = runner.invoke(
            main,
            ["fixtures", "sat", "--vars", "2", "--out-h", str(hp), "--out-k", str(kp), "--", "1,-2", "-1,2"],
        )
        assert r.exit_code == 0
        from shapegraph import parse_graph

        h = parse_graph(hp.read_text())
        k = parse_graph(kp.read_text())
        assert h.kind == "general" and k.kind == "general"

    def test_dnf(self, runner):
        r = runner.invoke(main, ["fixtures", "dnf", "--vars", "2", "1,-2"])
        assert r.exit_code == 0
        assert "schema" in r.output

    def test_sat_stdout_is_pinned(self, runner):
        # A case where normalizing pads a variable one past the largest
        # count: no clause is tautological and x1 is one short.
        clauses = ["-1,-4", "-4,1,-4", "2", "1,2,3", "-2,-3", "4,-1,-3,4"]
        r = runner.invoke(main, ["fixtures", "sat", "--vars", "4", "--", *clauses])
        assert (r.exit_code, hashlib.sha256(r.stdout.encode()).hexdigest()) == (
            0, "6523b0a845434971934a9aa49bb503842f7a1d5c15b5578de77cdf6431aad52d"), r.stdout

    @pytest.mark.parametrize("command, args, message", [
        pytest.param("sat", ["--vars", "1", "x"], "bad clause 'x'", id="sat"),
        pytest.param("dnf", ["--vars", "1", "x"], "bad clause 'x'", id="dnf"),
        pytest.param("sat", ["--vars", "-1", ""], "-1 is not in the range x>=0", id="sat-negative-vars"),
        pytest.param("dnf", ["--vars", "-2", ""], "-2 is not in the range x>=0", id="dnf-negative-vars"),
        pytest.param("sat", ["--vars", "0", ""], "normalizing a CNF needs at least one variable",
                     id="sat-no-vars"),
    ])
    def test_bad_clause_is_a_usage_error(self, runner, command, args, message):
        r = runner.invoke(main, ["fixtures", command, *args])
        assert r.exit_code == 3
        assert message in r.output

    @pytest.mark.parametrize("args", [["--vars", "0", "1"], ["--vars", "1", "0"]])
    def test_dnf_literal_out_of_range(self, runner, args):
        r = runner.invoke(main, ["fixtures", "dnf", *args])
        assert r.exit_code == 3
        assert "out of range" in r.output

    def test_exp(self, runner):
        r = runner.invoke(main, ["fixtures", "exp", "1"])
        assert r.exit_code == 0
        assert "t1 ->" in r.output

    def test_union(self, runner):
        r = runner.invoke(main, ["fixtures", "union", "a*", "a?", "a"])
        assert r.exit_code == 0
        assert "z::t0" in r.output


# The frame that raises each command's exit.  It holds the click context,
# the command's arguments and the exit code, and an in-process caller that
# keeps the exit's traceback (click's CliRunner does) keeps it in a cycle.
EXIT_POINT = handles_errors(lambda ctx: None).__code__

SMALL_BUDGET = ["--max-nodes", "2", "--max-card", "1"]

# Each command on each exit code it gives: (argv, exit code, routing cap).
FREED = [
    (["validate", "bug.graph", "bug.schema"], 0, None),
    (["validate", "bad.graph", "bug.schema"], 1, None),
    (["--strict", "--json", "validate", "wide.graph", "wide.schema"], 2, None),
    (["validate", "bug.graph", "broken.schema"], 3, None),
    (["validate", "bug.graph", "absent.schema"], 3, None),
    (["typing", "bug.graph", "bug.schema"], 0, None),
    (["--json", "typing", "bad.graph", "bug.schema"], 1, None),
    (["typing", "wide.graph", "wide.schema"], 2, None),
    (["typing", "bug.graph", "broken.schema"], 3, None),
    (["embed", "bug.graph", "bug.graph"], 0, None),
    (["--json", "embed", "star_g.graph", "star_h.graph"], 1, None),
    (["embed", "hub.graph", "hub_h.graph"], 2, 0),
    (["embed", "bug.graph", "absent.graph"], 3, None),
    (["classify", "bug.schema"], 0, None),
    (["classify", "broken.schema"], 3, None),
    (["contains", "bug.schema", "bug.schema"], 0, None),
    (["contains", "a.schema", "b.schema"], 1, None),
    (["contains", "chain.schema", "chain.schema", *SMALL_BUDGET], 2, None),
    (["contains", "chain.schema", "chain.schema", "--method", "embedding"], 3, None),
    (["--json", "counterexample", "a.schema", "b.schema"], 1, None),
    (["counterexample", "chain.schema", "chain.schema", *SMALL_BUDGET], 2, None),
    (["counterexample", "a.schema", "broken.schema"], 3, None),
    (["characterize", "bug.schema"], 0, None),
    (["characterize", "chain.schema"], 3, None),
    (["presburger", "(a | b)*, c?"], 0, None),
    (["presburger", "(a"], 3, None),
    (["fixtures", "sat", "--vars", "2", "--", "1,-2", "-1,2"], 0, None),
    (["fixtures", "sat", "--vars", "1", "x"], 3, None),
    (["fixtures", "dnf", "--vars", "2", "1,-2"], 0, None),
    (["fixtures", "exp", "1"], 0, None),
    (["fixtures", "union", "a*", "a?", "a"], 0, None),
]


@pytest.mark.parametrize(("argv", "code", "routing_cap"), FREED, ids=[" ".join(a) for a, _, _ in FREED])
def test_command_frees_its_data_on_return(runner, files, monkeypatch, argv, code, routing_cap):
    # The exit is raised after the command has returned, with no exception
    # chained to it, so nothing the command built (graphs, schemas, memos,
    # witnesses, the failing frames of an error) waits for the cyclic
    # collector, although the runner keeps the exit's traceback.
    if routing_cap is not None:
        monkeypatch.setattr(_emb, "DEFAULT_ROUTING_CAP", routing_cap)
    args = [files.get(a, a) for a in argv]  # absent.* name no file
    codes = []
    left = package_garbage(lambda: codes.append(runner.invoke(main, args).exit_code), exempt={EXIT_POINT})
    assert codes == [code]
    assert left == []


# One command on each exit code; the loaders and the clause parser record
# whether the collector runs while the command does.
PAUSED = [
    (["validate", "bug.graph", "bug.schema"], 0),
    (["validate", "bad.graph", "bug.schema"], 1),
    (["validate", "wide.graph", "wide.schema"], 2),  # the wide node's work cap
    (["validate", "bug.graph", "broken.schema"], 3),  # a parse error
    (["validate", "bug.graph", "absent.schema"], 3),  # an I/O error
    (["fixtures", "sat", "--vars", "1", "x"], 3),  # a usage error: a bad clause
]


def collector_seen(monkeypatch) -> list:
    """Whether the collector was enabled at each call to cli._read or
    cli._parse_clauses, kept up to date in the returned list."""
    seen = []
    for name in ("_read", "_parse_clauses"):
        def recording(*args, real=getattr(_cli, name)):
            seen.append(gc.isenabled())
            return real(*args)

        monkeypatch.setattr(_cli, name, recording)
    return seen


def invoke_with_collector(runner, argv, collecting):
    """The result of runner.invoke(main, argv) with the collector on or off
    in the caller, and whether it was on once the command had exited."""
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        result = runner.invoke(main, argv)
        return result, gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
@pytest.mark.parametrize(("argv", "code"), PAUSED, ids=[" ".join(a) for a, _ in PAUSED])
def test_command_runs_with_the_collector_paused(runner, files, monkeypatch, argv, code, collecting):
    seen = collector_seen(monkeypatch)
    r, after = invoke_with_collector(runner, [files.get(a, a) for a in argv], collecting)
    assert r.exit_code == code
    assert seen and not any(seen)
    assert after is collecting


@pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
def test_collector_setting_survives_a_crash_and_a_usage_error(runner, files, monkeypatch, collecting):
    # An exception that no handler maps to an exit code, and a usage error
    # that click raises before the command runs.
    seen = collector_seen(monkeypatch)

    def crash(g, s):
        raise RuntimeError("crash")

    monkeypatch.setattr(_val, "validates", crash)
    r, after = invoke_with_collector(runner, ["validate", files["bug.graph"], files["bug.schema"]], collecting)
    assert isinstance(r.exception, RuntimeError) and after is collecting
    assert seen == [False, False]
    r, after = invoke_with_collector(runner, ["validate", files["bug.graph"]], collecting)
    assert r.exit_code == 3 and after is collecting
    assert seen == [False, False]
