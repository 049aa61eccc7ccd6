"""Regular bag expressions: AST, exact membership, and the tractable flat
fragment (parallel composition of symbol atoms with basic intervals).

Symbols are opaque hashables: plain strings for standalone expressions, or
(label, type) pairs when the expression is a shape expression.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product

from .core import (
    BASIC_INTERVALS,
    INF,
    ONE,
    OPT,
    PLUS,
    STAR,
    Bag,
    Interval,
    interval_sum,
    parse_interval_token,
)
from .errors import AlphabetError, ParseError, WorkCapError


class Rbe:
    """Base class for expression AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Epsilon(Rbe):
    pass


@dataclass(frozen=True)
class Empty(Rbe):
    """The expression with the empty language (no bag matches).

    Used as the factor for an edge whose target carries no types; it is not
    part of the surface syntax.
    """


@dataclass(frozen=True)
class Sym(Rbe):
    symbol: object


@dataclass(frozen=True)
class Disj(Rbe):
    left: Rbe
    right: Rbe


@dataclass(frozen=True)
class Concat(Rbe):
    left: Rbe
    right: Rbe


@dataclass(frozen=True)
class Repeat(Rbe):
    body: Rbe
    interval: Interval


@dataclass(frozen=True)
class Intersect(Rbe):
    left: Rbe
    right: Rbe


EPSILON = Epsilon()
EMPTY = Empty()


def concat_all(parts) -> Rbe:
    parts = list(parts)
    if not parts:
        return EPSILON
    e = parts[0]
    for p in parts[1:]:
        e = Concat(e, p)
    return e


def disj_all(parts) -> Rbe:
    parts = list(parts)
    if not parts:
        return EMPTY
    e = parts[0]
    for p in parts[1:]:
        e = Disj(e, p)
    return e


def alphabet(e: Rbe) -> frozenset:
    if isinstance(e, (Epsilon, Empty)):
        return frozenset()
    if isinstance(e, Sym):
        return frozenset([e.symbol])
    if isinstance(e, Repeat):
        return alphabet(e.body)
    return alphabet(e.left) | alphabet(e.right)


def eps_in(e: Rbe) -> bool:
    """Whether the empty bag belongs to L(e)."""
    if isinstance(e, Epsilon):
        return True
    if isinstance(e, (Sym, Empty)):
        return False
    if isinstance(e, Disj):
        return eps_in(e.left) or eps_in(e.right)
    if isinstance(e, (Concat, Intersect)):
        return eps_in(e.left) and eps_in(e.right)
    if isinstance(e, Repeat):
        return e.interval.min == 0 or eps_in(e.body)
    raise TypeError(f"not an expression: {e!r}")


def max_finite_constant(e: Rbe) -> int:
    """Largest finite interval endpoint occurring in e (0 if none)."""
    if isinstance(e, (Epsilon, Empty, Sym)):
        return 0
    if isinstance(e, Repeat):
        k = e.interval.min
        if e.interval.max != INF:
            k = max(k, e.interval.max)
        return max(k, max_finite_constant(e.body))
    return max(max_finite_constant(e.left), max_finite_constant(e.right))


DEFAULT_MATCH_CAP = 10**6


def bag_matches(e: Rbe, w: Bag, work_cap: int = DEFAULT_MATCH_CAP) -> bool:
    """Exact membership w ∈ L(e) by exhaustive decomposition with memoization.

    Inside one call a bag is a count vector over the alphabet of e, and
    memo keys use the identity of each sub-expression, which e keeps alive.

    Raises AlphabetError when w uses symbols outside the alphabet of e, and
    WorkCapError when the decomposition exceeds work_cap steps.
    """
    sigma = alphabet(e)
    extra = {a for a, k in w.items() if k and a not in sigma}
    if extra:
        raise AlphabetError(f"bag uses symbols outside the expression alphabet: {sorted(map(str, extra))}")
    symbols = list(sigma)
    index = {a: i for i, a in enumerate(symbols)}
    memo: dict = {}
    work = [0]

    def tick():
        work[0] += 1
        if work[0] > work_cap:
            raise WorkCapError(f"bag matching exceeded {work_cap} steps")

    def splits(v):
        """Every (v1, v - v1) with v1 a sub-vector of v."""
        for v1 in product(*[range(k + 1) for k in v]):
            yield v1, tuple(a - b for a, b in zip(v, v1))

    def m(e: Rbe, v: tuple) -> bool:
        key = (id(e), v)
        if key in memo:
            return memo[key]
        tick()
        r = compute(e, v)
        memo[key] = r
        return r

    def compute(e: Rbe, v: tuple) -> bool:
        size = sum(v)
        if isinstance(e, Epsilon):
            return size == 0
        if isinstance(e, Empty):
            return False
        if isinstance(e, Sym):
            return size == 1 and v[index[e.symbol]] == 1
        if isinstance(e, Disj):
            return m(e.left, v) or m(e.right, v)
        if isinstance(e, Intersect):
            return m(e.left, v) and m(e.right, v)
        if isinstance(e, Concat):
            for v1, v2 in splits(v):
                tick()
                if m(e.left, v1) and m(e.right, v2):
                    return True
            return False
        if isinstance(e, Repeat):
            iv = e.interval
            if size == 0:
                return iv.min == 0 or eps_in(e.body)
            # Decompose v into j nonempty parts of L(body); padding by empty
            # iterations lifts j up to iv.min when the body accepts ε.
            hi = size if iv.max == INF else min(size, iv.max)
            can_pad = eps_in(e.body)
            for j in range(1, hi + 1):
                if (j >= iv.min or can_pad) and dec(e.body, v, j):
                    return True
            return False
        raise TypeError(f"not an expression: {e!r}")

    def dec(body: Rbe, v: tuple, j: int) -> bool:
        key = (id(body), v, j)
        if key in memo:
            return memo[key]
        tick()
        size = sum(v)
        if j == 1:
            r = size > 0 and m(body, v)
        elif size < j:
            r = False
        else:
            # The part containing the first symbol present is canonical,
            # which avoids enumerating the same partition in several orders.
            first = next(i for i, k in enumerate(v) if k)
            r = False
            for v1, v2 in splits(v):
                if not v1[first]:
                    continue
                tick()
                if m(body, v1) and dec(body, v2, j - 1):
                    r = True
                    break
        memo[key] = r
        return r

    return m(e, tuple(w.get(a, 0) for a in symbols))


# --- The flat fragment ------------------------------------------------------


@dataclass(frozen=True)
class Rbe0:
    """a₁^M₁ ∥ … ∥ aₙ^Mₙ with basic intervals; symbols may repeat."""

    atoms: tuple  # of (symbol, Interval)

    def __post_init__(self):
        for _, iv in self.atoms:
            if not iv.basic:
                raise ValueError(f"non-basic interval {iv} in flat expression")


def to_rbe0(e: Rbe) -> Rbe0 | None:
    """Syntactic conversion; returns None when e is not of the flat shape."""
    if isinstance(e, Epsilon):
        return Rbe0(())
    atoms = []
    if not _collect_atoms(e, atoms):
        return None
    return Rbe0(tuple(atoms))


def _collect_atoms(e: Rbe, out: list) -> bool:
    if isinstance(e, Concat):
        return _collect_atoms(e.left, out) and _collect_atoms(e.right, out)
    if isinstance(e, Sym):
        out.append((e.symbol, ONE))
        return True
    if isinstance(e, Repeat) and isinstance(e.body, Sym) and e.interval.basic:
        out.append((e.body.symbol, e.interval))
        return True
    return False


def rbe0_to_rbe(e0: Rbe0) -> Rbe:
    parts = []
    for a, iv in e0.atoms:
        parts.append(Sym(a) if iv == ONE else Repeat(Sym(a), iv))
    return concat_all(parts)


def rbe0_matches(e0: Rbe0, w: Bag) -> bool:
    """w ∈ L(e0), decided per symbol by folding interval addition."""
    per_symbol: dict = {}
    for a, iv in e0.atoms:
        per_symbol.setdefault(a, []).append(iv)
    for a, k in w.items():
        if k and a not in per_symbol:
            return False
    for a, ivs in per_symbol.items():
        if w[a] not in interval_sum(ivs):
            return False
    return True


# --- Parsing and printing ---------------------------------------------------

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<interval>\[\s*\d+\s*;\s*(?:\d+|inf)\s*\])
      | (?P<dcolon>::)
      | (?P<arrow>->)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*|\d+)
      | (?P<punct>[()|,&^?*+])
    )""",
    re.VERBOSE,
)


def tokenize(text: str):
    tokens = []
    pos = 0
    text = text.split("#", 1)[0]
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}", column=pos + 1)
            break
        pos = m.end()
        kind = m.lastgroup
        tokens.append((kind, m.group(kind)))
    return tokens


class _ExprParser:
    def __init__(self, tokens, typed: bool):
        self.tokens = tokens
        self.i = 0
        self.typed = typed

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def take(self, kind=None, value=None):
        k, v = self.peek()
        if kind is not None and k != kind:
            raise ParseError(f"expected {kind}, got {v!r}")
        if value is not None and v != value:
            raise ParseError(f"expected {value!r}, got {v!r}")
        self.i += 1
        return v

    def parse(self) -> Rbe:
        e = self.disj()
        k, v = self.peek()
        if k is not None:
            raise ParseError(f"trailing input at {v!r}")
        return e

    def disj(self) -> Rbe:
        e = self.inter()
        while self.peek() == ("punct", "|"):
            self.take()
            e = Disj(e, self.inter())
        return e

    def inter(self) -> Rbe:
        e = self.cat()
        while self.peek() == ("punct", "&"):
            self.take()
            e = Intersect(e, self.cat())
        return e

    def cat(self) -> Rbe:
        e = self.post()
        while self.peek() == ("punct", ","):
            self.take()
            e = Concat(e, self.post())
        return e

    def post(self) -> Rbe:
        e = self.primary()
        while True:
            k, v = self.peek()
            if k == "punct" and v in "?*+":
                self.take()
                e = Repeat(e, {"?": OPT, "*": STAR, "+": PLUS}[v])
            elif k == "punct" and v == "^":
                self.take()
                k2, v2 = self.peek()
                if k2 == "interval":
                    e = Repeat(e, parse_interval_token(self.take()))
                elif k2 == "ident" and v2.isdigit():
                    n = int(self.take())
                    e = Repeat(e, Interval(n, n))
                else:
                    raise ParseError(f"expected an interval after '^', got {v2!r}")
            else:
                return e

    def primary(self) -> Rbe:
        k, v = self.peek()
        if k == "punct" and v == "(":
            self.take()
            e = self.disj()
            self.take("punct", ")")
            return e
        if k == "ident":
            name = self.take()
            if name == "eps":
                return EPSILON
            if self.typed:
                self.take("dcolon")
                ty = self.take("ident")
                return Sym((name, ty))
            return Sym(name)
        raise ParseError(f"expected an expression, got {v!r}")


def parse_rbe(text: str, typed: bool = False) -> Rbe:
    """Parse an expression; atoms are bare symbols, or label::Type pairs."""
    tokens = tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    return _ExprParser(tokens, typed).parse()


def _needs_parens(e: Rbe, context: str) -> bool:
    order = {"disj": 0, "inter": 1, "cat": 2, "post": 3}
    level = (
        0 if isinstance(e, Disj)
        else 1 if isinstance(e, Intersect)
        else 2 if isinstance(e, Concat)
        else 3
    )
    return level < order[context]


def _fmt(e: Rbe, context: str) -> str:
    if isinstance(e, Epsilon):
        return "eps"
    if isinstance(e, Empty):
        return "<empty>"
    if isinstance(e, Sym):
        s = e.symbol
        return f"{s[0]}::{s[1]}" if isinstance(s, tuple) else str(s)
    if isinstance(e, Repeat):
        body = _fmt(e.body, "post")
        if not isinstance(e.body, (Sym, Epsilon)):
            body = f"({_fmt(e.body, 'disj')})"
        iv = e.interval
        mark = {OPT: "?", STAR: "*", PLUS: "+"}.get(iv)
        if mark:
            return body + mark
        if iv.singleton:
            return f"{body}^{iv.min}"
        return f"{body}^{iv}"
    if isinstance(e, Concat):
        s = f"{_fmt(e.left, 'cat')}, {_fmt(e.right, 'post')}"
        return f"({s})" if _needs_parens(e, context) else s
    if isinstance(e, Intersect):
        s = f"{_fmt(e.left, 'inter')} & {_fmt(e.right, 'cat')}"
        return f"({s})" if _needs_parens(e, context) else s
    if isinstance(e, Disj):
        s = f"{_fmt(e.left, 'disj')} | {_fmt(e.right, 'inter')}"
        return f"({s})" if _needs_parens(e, context) else s
    raise TypeError(f"not an expression: {e!r}")


def rbe_to_text(e: Rbe) -> str:
    return _fmt(e, "disj")
