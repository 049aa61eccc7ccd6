"""Judging one CLI outcome against the answer known for its operation.

An outcome is ok, failed (a crash, exit 3, or an unknown where the answer
is definite) or wrong (a verdict that contradicts the known answer, or a
witness that does not re-check). Witnesses are re-checked with oracle.py,
after the timed region; each distinct witness is checked once.
"""

from __future__ import annotations

import json

from instances import NO_TIMEOUT
from oracle import check_embedding_witness, is_counterexample, parse_graph, small_counterexample

OK, FAILED, WRONG = "ok", "failed", "wrong"

# exit code -> verdict the CLI prints with that code, per command.
VERDICTS = {
    "validate": {0: "valid", 1: "invalid"},
    "embed": {0: "embeds", 1: "not-embeds"},
    "contains": {0: "contained", 1: "not-contained"},
}


class Judge:
    def __init__(self):
        self._checked = {}

    def outcome(self, op, exit_code, crash, stdout, seconds):
        """(OK | FAILED | WRONG, reason)."""
        if crash:
            return FAILED, f"crashed with {crash}"
        if exit_code == 3:
            return FAILED, "exited 3"
        command = op.argv[0]
        if command == "contains":
            if op.argv[op.argv.index("--timeout") + 1] != NO_TIMEOUT or seconds >= float(NO_TIMEOUT):
                return WRONG, "the outcome could come from the wall-clock timeout"
        if exit_code == 2:
            # Budget and work-cap errors exit 2 without a JSON verdict.
            if command != "contains":
                return FAILED, "unknown (exit 2)"
            return self._containment(op, "unknown", stdout)
        verdict = _verdict(stdout)
        if VERDICTS[command].get(exit_code) != verdict:
            return WRONG, f"exit {exit_code} with verdict {verdict!r}"
        if command == "validate":
            return (OK, "") if verdict == op.expect else (WRONG, f"{verdict}, expected {op.expect}")
        if command == "embed":
            if verdict != op.expect:
                return WRONG, f"{verdict}, expected {op.expect}"
            if verdict == "embeds" and not self._once(("embed", op.name, stdout), lambda: _embed_ok(op, stdout)):
                return WRONG, "the embedding witness does not re-check"
            return OK, ""
        return self._containment(op, verdict, stdout)

    def _containment(self, op, verdict, stdout):
        if verdict == "unknown":
            if op.decided:
                return FAILED, f"unknown, expected {op.expect}"
            return OK, ""
        if verdict == "contained":
            if op.expect != "contained":
                return WRONG, f"contained, expected {op.expect}"
            if op.decided and not self._once(("cross", op.name), lambda: _no_small_counterexample(op)):
                return WRONG, "a small search finds a counter-example"
            return OK, ""
        if op.expect != "within":
            return WRONG, f"not-contained, expected {op.expect}"
        if not self._once(("witness", op.name, stdout), lambda: _witness_ok(op, stdout)):
            return WRONG, "the counter-example does not re-check"
        return OK, ""

    def _once(self, key, check):
        if key not in self._checked:
            self._checked[key] = check()
        return self._checked[key]


def _verdict(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])["verdict"]
    except (IndexError, ValueError, KeyError, TypeError):
        return None


def _embed_ok(op, stdout):
    witness = json.loads(stdout.strip().splitlines()[-1])["witness"]
    return check_embedding_witness(op.check["g"], op.check["h"], witness)


def _witness_ok(op, stdout):
    g = parse_graph(json.loads(stdout.strip().splitlines()[-1])["witness"])
    c = op.check
    if c["max_nodes"] is not None and len(g.nodes) > c["max_nodes"]:
        return False
    if c["max_card"] is not None and any(hi is None or hi > c["max_card"] for *_, hi in g.edges):
        return False
    return is_counterexample(g, c["h"], c["k"])


def _no_small_counterexample(op):
    return small_counterexample(op.check["h"], op.check["k"]) is None
