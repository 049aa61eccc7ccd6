"""Regular bag expressions: AST, Parikh-vector sets and exact membership,
and the tractable flat fragment (parallel composition of symbol atoms with
basic intervals).

Symbols are opaque hashables: plain strings for standalone expressions, or
(label, type) pairs when the expression is a shape expression.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from .core import (
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
class Repeat(Rbe):
    body: Rbe
    interval: Interval


@dataclass(frozen=True)
class Nary(Rbe):
    """One operator chain: parts holds two or more sub-expressions."""

    parts: tuple


@dataclass(frozen=True)
class Disj(Nary):
    pass


@dataclass(frozen=True)
class Concat(Nary):
    pass


@dataclass(frozen=True)
class Intersect(Nary):
    pass


EPSILON = Epsilon()
EMPTY = Empty()


def concat_all(parts) -> Rbe:
    parts = tuple(parts)
    if len(parts) < 2:
        return parts[0] if parts else EPSILON
    return Concat(parts)


def disj_all(parts) -> Rbe:
    parts = tuple(parts)
    if len(parts) < 2:
        return parts[0] if parts else EMPTY
    return Disj(parts)


def atom(symbol, iv=ONE) -> Rbe:
    """The symbol, repeated over iv unless iv is 1."""
    return Sym(symbol) if iv == ONE else Repeat(Sym(symbol), iv)


def alphabet(e: Rbe) -> frozenset:
    if isinstance(e, (Epsilon, Empty)):
        return frozenset()
    if isinstance(e, Sym):
        return frozenset([e.symbol])
    if isinstance(e, Repeat):
        return alphabet(e.body)
    return frozenset().union(*map(alphabet, e.parts))


def max_finite_constant(e: Rbe) -> int:
    """Largest finite interval endpoint occurring in e (0 if none)."""
    if isinstance(e, (Epsilon, Empty, Sym)):
        return 0
    if isinstance(e, Repeat):
        k = e.interval.min
        if e.interval.max != INF:
            k = max(k, e.interval.max)
        return max(k, max_finite_constant(e.body))
    return max(map(max_finite_constant, e.parts))


VECTOR_WORK = 10**6


def parikh_vectors(e: Rbe, symbols, box, total=None) -> set:
    """The Parikh vectors of L(e) over symbols, as count tuples aligned
    with symbols, that lie inside box and sum to at most total (to
    sum(box) when None).  Exact: built bottom-up over an explicit stack,
    where a symbol is its unit vector (∅ if it is not among symbols), | is
    union, & intersection, , the Minkowski sum and a repeat the sum
    iterated up to its max.  Counts are never negative, so a sum that
    leaves the box stays out of it and every set can be clipped as it is
    made.

    Raises WorkCapError past VECTOR_WORK vector additions in one call.
    """
    index = {a: i for i, a in enumerate(symbols)}
    total = sum(box) if total is None else total
    zero = (0,) * len(box)
    work = 0

    def plus(xs, ys):
        nonlocal work
        work += len(xs) * len(ys)
        if work > VECTOR_WORK:
            raise WorkCapError(f"bag matching exceeded {VECTOR_WORK} vector additions")
        out = set()
        for x in xs:
            for y in ys:
                v = tuple([a + b for a, b in zip(x, y)])
                if sum(v) <= total and all(a <= b for a, b in zip(v, box)):
                    out.add(v)
        return out

    def repeat(body, iv):
        # Sums of exactly iv.min vectors of body first, stopping early once
        # a round changes nothing (the set is empty or stable), so a large
        # min costs no more rounds than the box allows.  From there each
        # round adds one more vector to the sums first reached in the round
        # before, since the others were extended already.
        sums = {zero}
        for _ in range(iv.min):
            nxt = plus(sums, body)
            if nxt == sums:
                break
            sums = nxt
        reached, frontier, rounds = set(sums), sums, 0
        while frontier and rounds < iv.max - iv.min:
            frontier = plus(frontier, body) - reached
            reached |= frontier
            rounds += 1
        return reached

    sets: dict = {}  # id(sub-expression) -> its vector set; e keeps them alive
    stack = [e]
    while stack:
        x = stack[-1]
        if id(x) in sets:
            stack.pop()
            continue
        if isinstance(x, Repeat):
            kids = (x.body,)
        elif isinstance(x, Nary):
            kids = x.parts
        else:
            kids = ()
        todo = [k for k in kids if id(k) not in sets]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        if isinstance(x, Epsilon):
            r = {zero}
        elif isinstance(x, Empty):
            r = set()
        elif isinstance(x, Sym):
            i = index.get(x.symbol)
            r = {zero[:i] + (1,) + zero[i + 1:]} if i is not None and box[i] and total else set()
        elif isinstance(x, Repeat):
            r = repeat(sets[id(x.body)], x.interval)
        elif isinstance(x, Disj):
            r = set().union(*[sets[id(p)] for p in x.parts])
        elif isinstance(x, Intersect):
            r = set.intersection(*[sets[id(p)] for p in x.parts])
        elif isinstance(x, Concat):
            # Folded left to right: the sums of the left-nested chain.
            r = functools.reduce(plus, [sets[id(p)] for p in x.parts])
        else:
            raise TypeError(f"not an expression: {x!r}")
        sets[id(x)] = r
    return sets[id(e)]


def bag_matches(e: Rbe, w: Bag) -> bool:
    """Exact membership w ∈ L(e): whether w's count vector is among the
    Parikh vectors of L(e) inside the box of w itself (parikh_vectors).

    Raises AlphabetError when w uses symbols outside the alphabet of e, and
    WorkCapError when the vector set takes more than VECTOR_WORK additions.
    """
    sigma = alphabet(e)
    extra = {a for a, k in w.items() if k and a not in sigma}
    if extra:
        raise AlphabetError(f"bag uses symbols outside the expression alphabet: {sorted(map(str, extra))}")
    symbols = list(sigma)
    v = tuple(w.get(a, 0) for a in symbols)
    return v in parikh_vectors(e, symbols, v)


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
    """Syntactic conversion; returns None when e is not of the flat shape.
    A nested concatenation counts as flat: `(a, b), c` reads as a, b, c."""
    if isinstance(e, Epsilon):
        return Rbe0(())
    atoms = []
    for x in _factors(e):
        if isinstance(x, Sym):
            atoms.append((x.symbol, ONE))
        elif isinstance(x, Repeat) and isinstance(x.body, Sym) and x.interval.basic:
            atoms.append((x.body.symbol, x.interval))
        else:
            return None
    return Rbe0(tuple(atoms))


def _factors(e: Rbe):
    """The factors of e read as a concatenation, through nested ones."""
    if isinstance(e, Concat):
        for p in e.parts:
            yield from _factors(p)
    else:
        yield e


def rbe0_to_rbe(e0: Rbe0) -> Rbe:
    return concat_all([atom(a, iv) for a, iv in e0.atoms])


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
        # Loosest-binding operator first.  Partials, not methods, so one
        # nesting level costs as many frames as with one method per level.
        cat = functools.partial(self.chain, Concat, ",", self.post)
        inter = functools.partial(self.chain, Intersect, "&", cat)
        self.disj = functools.partial(self.chain, Disj, "|", inter)

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

    def chain(self, cls, op, next_level) -> Rbe:
        parts = [next_level()]
        while self.peek() == ("punct", op):
            self.take()
            parts.append(next_level())
        return cls(tuple(parts)) if len(parts) > 1 else parts[0]

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


# Precedence (higher binds tighter) and separator of each operator.  Every
# part prints in the next-higher context, so a nested chain keeps its
# parentheses and the text parses back to the same tree.
_OPERATORS = {Disj: (0, " | "), Intersect: (1, " & "), Concat: (2, ", ")}


def _fmt(e: Rbe, context: int) -> str:
    if isinstance(e, Epsilon):
        return "eps"
    if isinstance(e, Empty):
        return "<empty>"
    if isinstance(e, Sym):
        s = e.symbol
        return f"{s[0]}::{s[1]}" if isinstance(s, tuple) else str(s)
    if isinstance(e, Repeat):
        body = _fmt(e.body, 0)
        if not isinstance(e.body, (Sym, Epsilon)):
            body = f"({body})"
        iv = e.interval
        mark = {OPT: "?", STAR: "*", PLUS: "+"}.get(iv)
        if mark:
            return body + mark
        if iv.singleton:
            return f"{body}^{iv.min}"
        return f"{body}^{iv}"
    if isinstance(e, Nary):
        level, sep = _OPERATORS[type(e)]
        s = sep.join(_fmt(p, level + 1) for p in e.parts)
        return f"({s})" if level < context else s
    raise TypeError(f"not an expression: {e!r}")


def rbe_to_text(e: Rbe) -> str:
    return _fmt(e, 0)
