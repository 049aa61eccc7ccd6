"""The CLI's exit-code contract on damaged inputs: each run applies one to
four random edits to a schema, graph or expression of the test suite, runs
one command on it, and must exit 0, 1, 2 or 3 without raising anything but
SystemExit.  Searches are bounded by their node and cardinality caps, so no
verdict here depends on the clock."""

import random

from click.testing import CliRunner

from shapegraph.cli import main

from conftest import BUG_GRAPH_TEXT, BUG_SCHEMA_TEXT, BUG_VARIANT_TEXT, CHAIN_SCHEMA_TEXT

SCHEMAS = [
    BUG_SCHEMA_TEXT,
    BUG_VARIANT_TEXT,
    CHAIN_SCHEMA_TEXT,
    "t -> a::u*\nu -> eps\n",
    "t -> b::u*\nu -> eps\n",
    "t -> a::u*, b::u | c::u^[1;2]\nu -> eps\n",
    "t -> (a::t0 | b::t0)+\nt0 -> z::t0, (a::t0, b::t0)* | eps\n",
]
GRAPHS = [
    BUG_GRAPH_TEXT,
    "graph compressed\nx a y [3;3]\nx b y\nz c y [2;2]\n",
    "graph shape\nt a u *\nt b u ?\nu c t +\n",
    "graph general\nr a x [1;3]\nx b x *\nnode y\n",
]
EXPRESSIONS = ["(a | b)*, (c, a)^[1;3] | b?", "a^[2;4], b+ | eps", "(a, b)* | c?"]
# Characters of the three formats, by class: letters that occur in labels
# but in no type name, digits, occurrence marks and separators.
CLASSES = ["cdnz", "0123456789", "*+?", ",|"]
ALPHABET = "".join(CLASSES) + "abtuxy:;()[]^-> #\n"
CAPS = ["--max-nodes", "2", "--max-card", "2"]
RUNS = 300


def _edit(rng, text):
    """One to four random edits of text after its header line, if it has
    one.  Most swap a character for one of its class, so that many edited
    inputs still parse and reach a verdict; the others drop, repeat or swap
    a line, or insert any character."""
    start = text.index("\n") + 1 if text.startswith(("graph", "schema")) else 0
    head, body = text[:start], text[start:]
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(12)
        lines = body.split("\n")
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        if kind == 0:
            del lines[i]
        elif kind == 1:
            lines.insert(j, lines[i])
        elif kind == 2:
            lines[i], lines[j] = lines[j], lines[i]
        body = "\n".join(lines)
        if kind == 3:
            i = rng.randrange(len(body) + 1)
            body = body[:i] + rng.choice(ALPHABET) + body[i:]
        elif kind > 3:
            swappable = [(i, c) for i, ch in enumerate(body) for c in CLASSES if ch in c]
            if swappable:
                i, c = rng.choice(swappable)
                body = body[:i] + rng.choice(c) + body[i + 1:]
    return head + body


def _run(rng, tmp_path):
    """One command on edited inputs: (argv, result)."""
    files = {}

    def put(name, texts):
        files[name] = _edit(rng, rng.choice(texts))
        return str(tmp_path / name)

    command = rng.choice(["validate", "typing", "embed", "classify", "contains",
                          "counterexample", "characterize", "presburger"])
    if command in ("validate", "typing"):
        args = [put("g.graph", GRAPHS), put("s.schema", SCHEMAS)]
    elif command == "embed":
        args = [put("g.graph", GRAPHS), put("h.graph", GRAPHS)]
    elif command in ("classify", "characterize"):
        args = [put("s.schema", SCHEMAS)]
    elif command == "contains":
        args = [put("h.schema", SCHEMAS), put("k.schema", SCHEMAS),
                "--method", rng.choice(["auto", "embedding", "search"]), *CAPS]
    elif command == "counterexample":
        args = [put("h.schema", SCHEMAS), put("k.schema", SCHEMAS), *CAPS]
    else:
        args = [_edit(rng, rng.choice(EXPRESSIONS))]
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = ["--json", command, *args] if rng.random() < 0.5 else [command, *args]
    return argv, CliRunner().invoke(main, argv)


def test_exit_codes_under_random_edits(tmp_path):
    rng = random.Random(2022)
    codes = set()
    for _ in range(RUNS):
        argv, res = _run(rng, tmp_path)
        assert res.exception is None or isinstance(res.exception, SystemExit), (argv, res.exception)
        assert res.exit_code in (0, 1, 2, 3), (argv, res.exit_code)
        codes.add(res.exit_code)
    # The edits leave enough inputs intact to reach every verdict.
    assert codes == {0, 1, 2, 3}
