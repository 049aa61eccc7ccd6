"""Regular bag expressions: AST, Parikh-vector sets and exact membership,
and the tractable flat fragment (parallel composition of symbol atoms with
basic intervals).

Symbols are opaque hashables: plain strings for standalone expressions, or
(label, type) pairs when the expression is a shape expression.

Nodes are immutable and hash-consed: equal expressions are one object, so
== and hash are identity.  No pass recurses: post_order walks each distinct
sub-expression once, after its children, with an explicit stack, and the
parser and the printer are single loops over explicit stacks.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import string
import weakref
from collections import Counter

from .core import INF, ONE, OPT, PLUS, STAR, ZERO, Interval, parse_interval_token
from .errors import AlphabetError, ParseError, WorkCapError

# (class, *fields) -> a weak reference to the one live node with those
# fields; the entry goes when the node does (_forget).
_TABLE: dict = {}


class _Ref(weakref.ref):
    """A table entry: a weak reference that knows its key."""

    __slots__ = ("key",)


def _forget(ref, table=_TABLE):
    """The callback of a node's reference: drop its entry, unless a new
    node took the key.  The table is bound here, so the callback works
    while the module is torn down too."""
    if table.get(ref.key) is ref:
        del table[ref.key]


class Rbe:
    """Base class for expression AST nodes.  A class lists its fields in
    __match_args__; they are set once, when the node is first built."""

    __slots__ = ("__weakref__",)
    __match_args__: tuple = ()

    def __new__(cls, *fields):
        if len(fields) != len(cls.__match_args__):
            raise TypeError(f"{cls.__name__} takes the fields {cls.__match_args__}")
        key = (cls, *fields)
        node = _TABLE.get(key)
        if node is not None:
            node = node()
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls.__match_args__, fields):
                object.__setattr__(node, name, value)
            ref = _TABLE[key] = _Ref(node, _forget)
            ref.key = key
        return node

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # copies and pickles rebuild through the table
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self):
        return f"{type(self).__name__}<{rbe_to_text(self)}>"


class Epsilon(Rbe):
    __slots__ = ()


class Empty(Rbe):
    """The expression with the empty language (no bag matches): the factor
    for an edge whose target carries no types, not in the surface syntax."""

    __slots__ = ()


class Sym(Rbe):
    __slots__ = __match_args__ = ("symbol",)


class Repeat(Rbe):
    __slots__ = __match_args__ = ("body", "interval")


class Nary(Rbe):
    """One operator chain: parts holds two or more sub-expressions."""

    __slots__ = __match_args__ = ("parts",)


class Disj(Nary):
    __slots__ = ()


class Concat(Nary):
    __slots__ = ()


class Intersect(Nary):
    __slots__ = ()


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


def post_order(e: Rbe):
    """Each distinct sub-expression of e once, after its children, read
    left to right: one loop over an explicit stack."""
    done = set()
    stack = [e]
    while stack:
        x = stack.pop()
        if x in done:
            continue
        kids = (x.body,) if isinstance(x, Repeat) else x.parts if isinstance(x, Nary) else ()
        todo = [k for k in kids if k not in done]
        if todo:
            stack.append(x)
            stack.extend(reversed(todo))
        else:
            done.add(x)
            yield x


def alphabet(e: Rbe) -> frozenset:
    return frozenset(x.symbol for x in post_order(e) if isinstance(x, Sym))


def max_finite_constant(e: Rbe) -> int:
    """Largest finite interval endpoint occurring in e (0 if none)."""
    ends = [k for x in post_order(e) if isinstance(x, Repeat) for k in (x.interval.min, x.interval.max)]
    return max([k for k in ends if k != INF], default=0)


VECTOR_WORK = 10**6


def parikh_vectors(e: Rbe, symbols, box, total=None) -> set:
    """The Parikh vectors of L(e) over symbols, as count tuples aligned
    with symbols, that lie inside box and sum to at most total (to
    sum(box) when None).  Exact: built bottom-up in post_order, once per
    distinct sub-expression, where a symbol is its unit vector (∅ if it is
    not among symbols), | is union, & intersection, , the Minkowski sum and
    a repeat the sum iterated up to its max.  Counts are never negative, so a sum that
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

    sets: dict = {}  # sub-expression -> its vector set
    for x in post_order(e):
        if isinstance(x, Epsilon):
            r = {zero}
        elif isinstance(x, Empty):
            r = set()
        elif isinstance(x, Sym):
            i = index.get(x.symbol)
            r = {zero[:i] + (1,) + zero[i + 1:]} if i is not None and box[i] and total else set()
        elif isinstance(x, Repeat):
            r = repeat(sets[x.body], x.interval)
        elif isinstance(x, Disj):
            r = set().union(*[sets[p] for p in x.parts])
        elif isinstance(x, Intersect):
            r = set.intersection(*[sets[p] for p in x.parts])
        elif isinstance(x, Concat):
            # Folded left to right: the sums of the left-nested chain.
            r = functools.reduce(plus, [sets[p] for p in x.parts])
        else:
            raise TypeError(f"not an expression: {x!r}")
        sets[x] = r
    return sets[e]


def bag_matches(e: Rbe, w: Counter) -> bool:
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


def sums(atoms) -> dict:
    """Each symbol, in order of first occurrence, to the interval sum of
    its (symbol, interval) atoms: the counts of that symbol over the bags
    of their flat expression, which are exactly the product of these."""
    box: dict = {}
    for a, iv in atoms:
        box[a] = box[a] + iv if a in box else iv
    return box


def to_rbe0(e: Rbe) -> tuple | None:
    """The (symbol, interval) atoms of a₁^M₁ ∥ … ∥ aₙ^Mₙ with basic
    intervals, symbols possibly repeated, or None when e is not of that
    flat shape.  A nested concatenation counts as flat: `(a, b), c` reads
    as a, b, c.  The factors are popped left to right from a stack, every
    occurrence of a shared one included (post_order would yield it once)."""
    if isinstance(e, Epsilon):
        return ()
    atoms = []
    stack = [e]
    while stack:
        x = stack.pop()
        if isinstance(x, Concat):
            stack.extend(reversed(x.parts))
        elif isinstance(x, Sym):
            atoms.append((x.symbol, ONE))
        elif isinstance(x, Repeat) and isinstance(x.body, Sym) and x.interval.basic:
            atoms.append((x.body.symbol, x.interval))
        else:
            return None
    return tuple(atoms)


BOX_CAP = 64


def to_boxes(e: Rbe) -> list | None:
    """L(e) as a union of boxes, each a tuple of (symbol, interval) atoms,
    one per symbol, whose bags are the product of the intervals, built in
    post_order: | is the union, , and & the pairwise sum and meet, and a
    repeat [n;m] of one box is its intervals times n when n = m, or [np;mq]
    when the box has at most one symbol, of interval [p;q] with p <= 1 (the
    sums [kp;kq] of k copies then overlap).  A * or + of boxes that hold
    the unit bag of each of their symbols is every bag over those symbols:
    one box, all at [0;∞], or for a + whose boxes all exclude the zero bag,
    one box per symbol s, s at [1;∞] and the others at [0;∞].  Any other
    repeat with a finite max is the union over k = n..m of the sums of k
    boxes of its body, drawn with repetition.  None
    when e has no such form, or past BOX_CAP boxes in one sub-expression
    or BOX_CAP atoms built per sub-expression in all, charged before they
    are built, which keeps the work linear in the size of e."""
    boxes: dict = {}  # sub-expression -> its boxes, as dicts
    budget = 0  # the atoms the walk may still build
    for x in post_order(e):
        budget += BOX_CAP
        if isinstance(x, Sym):
            r = [{x.symbol: ONE}]
        elif isinstance(x, Repeat):
            n, m = x.interval.min, x.interval.max
            body = boxes[x.body]
            if not body:
                r = [] if n else [{}]
            elif len(body) == 1 and (n == m or len(body[0]) < 2 and all(iv.min < 2 for iv in body[0].values())):
                budget -= len(body[0])  # m = 0 gives ε, whatever the body's max
                r = [{a: Interval(n * iv.min, m * iv.max) for a, iv in body[0].items() if m}]
            elif m == INF:
                # When some box holds the unit bag of each symbol (that
                # symbol at an interval holding 1, every other at min 0),
                # every bag over the symbols is a sum of bags of the body:
                # all of them under *, and under + the nonzero ones, or all
                # again when a box holds the zero bag.
                syms = list(dict.fromkeys(a for b in body for a in b))
                units = {a for b in body for low in [sum(iv.min for iv in b.values())]
                         for a, iv in b.items() if 1 in iv and iv.min == low}
                if n > 1 or len(units) < len(syms):
                    return None
                if n == 0 or any(all(iv.min == 0 for iv in b.values()) for b in body):
                    r = [dict.fromkeys(syms, STAR)]
                else:
                    budget -= len(syms) * len(syms)
                    r = [{a: PLUS if a == s else STAR for a in syms} for s in syms]
            else:  # the sums of k boxes of the body, for k = n..m
                width, count = max(map(len, body)), 0
                for k in range(n, m + 1):
                    c = math.comb(len(body) + k - 1, k)
                    count += c
                    budget -= c * (1 + k * width)
                    if count > BOX_CAP or budget < 0:
                        return None
                r = [sums(a for b in bs for a in b.items())
                     for k in range(n, m + 1) for bs in itertools.combinations_with_replacement(body, k)]
        elif isinstance(x, Disj):
            r = [b for p in x.parts for b in boxes[p]]
        elif isinstance(x, Nary):
            lists = [boxes[p] for p in x.parts]
            budget -= math.prod(map(len, lists)) * sum(1 + max(map(len, bs), default=0) for bs in lists)
            if budget < 0:
                return None
            if isinstance(x, Concat):
                r = [sums(a for b in bs for a in b.items()) for bs in itertools.product(*lists)]
            else:
                r = [b for bs in itertools.product(*lists) if (b := _box_meet(bs)) is not None]
        else:
            r = [{}] if isinstance(x, Epsilon) else []  # ε or ∅
        if len(r) > BOX_CAP or budget < 0:
            return None
        boxes[x] = r
    return [tuple(b.items()) for b in boxes[e]]


def _box_meet(boxes) -> dict | None:
    """The meet of boxes, with no symbol at [0;0], or None when empty."""
    acc = boxes[0]
    for b in boxes[1:]:
        pairs = [(a, acc.get(a, ZERO), b.get(a, ZERO)) for a in {**acc, **b}]
        if any(max(i.min, j.min) > min(i.max, j.max) for _, i, j in pairs):
            return None
        acc = {a: Interval(max(i.min, j.min), min(i.max, j.max)) for a, i, j in pairs if min(i.max, j.max)}
    return acc


# --- Parsing and printing ---------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(\[\s*\d+\s*;\s*(?:\d+|inf)\s*\]|::|->|[A-Za-z_][A-Za-z0-9_]*|\d+|[()|,&^?*+]|\S)")
# A token's kind by its first character.  '[', ':' and '-' start a token
# only as an interval, '::' and '->': alone, each is a bad character.
_KIND = {**dict.fromkeys(string.ascii_letters + string.digits + "_", "ident"),
         **dict.fromkeys("()|,&^?*+", "punct"), "[": "interval", ":": "dcolon", "-": "arrow"}


def tokenize(text: str):
    """(kind, text) per token up to a '#' comment; the matches cover the
    text with no gap, since any non-blank character is a token of its own
    when no longer one starts there.  One findall; only a text with a
    character that _KIND does not know is scanned again, for its column."""
    text = text.split("#", 1)[0]
    toks = _TOKEN_RE.findall(text)
    kinds = [_KIND.get(tok[0]) if len(tok) > 1 or tok not in "[:-" else None for tok in toks]
    if None in kinds:
        for kind, m in zip(kinds, _TOKEN_RE.finditer(text)):
            if kind is None and not m.group(1).isdecimal():
                raise ParseError(f"unexpected character {m.group(1)!r}", column=m.start() + 1)
        kinds = [kind or "ident" for kind in kinds]  # numbers in other scripts' digits
    return list(zip(kinds, toks))


# Precedence (higher binds tighter) and separator of each chain operator.
# Every part prints in the next-higher context, so a nested chain keeps its
# parentheses and the text parses back to the same tree.
_OPERATORS = {Disj: (0, " | "), Intersect: (1, " & "), Concat: (2, ", ")}
_NARY = tuple(_OPERATORS)  # indexed by level
_LEVEL = {sep.strip(): level for level, sep in _OPERATORS.values()}
_MARKS = {"?": OPT, "*": STAR, "+": PLUS}
_MARK_TEXT = {iv: mark for mark, iv in _MARKS.items()}


def _close(chains, level, e) -> Rbe:
    """e is the last part of the open chains at level and tighter: fold
    them into one expression, tightest first (a chain of one part is that
    part), and leave them empty."""
    for lv in range(len(_NARY) - 1, level - 1, -1):
        if chains[lv]:
            e = _NARY[lv]((*chains[lv], e))
            chains[lv].clear()
    return e


def _expect(take, kind):
    k, v = take()
    if k != kind:
        raise ParseError(f"expected {kind}, got {v!r}")
    return v


def parse_rbe(text: str, typed: bool = False) -> Rbe:
    """Parse an expression; atoms are bare symbols, or label::Type pairs.

    One loop over the tokens.  Each open parenthesis keeps one open chain
    per operator (the parts read so far); an operand, once read with its
    postfix marks, is added to the chain of the operator after it, and
    closes the tighter chains first.
    """
    tokens = tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    if typed and ("ident", "eps") in tokens:  # eps before :: is a label
        tokens = [("label", v) if v == "eps" and nxt[0] == "dcolon" else (k, v)
                  for (k, v), nxt in zip(tokens, tokens[1:] + [(None, None)])]
    take = functools.partial(next, iter(tokens), (None, None))
    frames = [[[] for _ in _NARY]]
    e = None  # the operand read so far; None while one is expected
    while True:
        k, v = take()
        if e is None:
            if (k, v) == ("punct", "("):
                frames.append([[] for _ in _NARY])
            elif (k, v) == ("ident", "eps"):
                e = EPSILON
            elif k != "ident" and k != "label":
                raise ParseError(f"expected an expression, got {v!r}")
            elif typed:
                _expect(take, "dcolon")
                e = Sym((v, _expect(take, "ident")))
            else:
                e = Sym(v)
        elif k == "punct" and v in _MARKS:
            e = Repeat(e, _MARKS[v])
        elif (k, v) == ("punct", "^"):
            k, v = take()
            if k == "interval":
                e = Repeat(e, parse_interval_token(v))
            elif k == "ident" and v.isdigit():
                e = Repeat(e, Interval(int(v), int(v)))
            else:
                raise ParseError(f"expected an interval after '^', got {v!r}")
        elif k == "punct" and v in _LEVEL:
            level = _LEVEL[v]
            frames[-1][level].append(_close(frames[-1], level + 1, e))
            e = None
        elif len(frames) > 1:
            if (k, v) != ("punct", ")"):
                raise ParseError(f"expected ')', got {v!r}" if k == "punct" else f"expected punct, got {v!r}")
            e = _close(frames.pop(), 0, e)
        elif k is not None:
            raise ParseError(f"trailing input at {v!r}")
        else:
            return _close(frames[0], 0, e)


def rbe_to_text(e: Rbe) -> str:
    """The text of e: one loop pops (node, context) pairs and text pieces
    from one stack into one output list.  ValueError for an untyped symbol
    named eps, which parse_rbe reads as ε: it has no text form."""
    out = []
    stack = [(e, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        x, context = item
        if isinstance(x, Epsilon):
            out.append("eps")
        elif isinstance(x, Empty):
            out.append("<empty>")
        elif isinstance(x, Sym):
            s = x.symbol
            if s == "eps":
                raise ValueError("the untyped symbol eps has no text form")
            out.append(f"{s[0]}::{s[1]}" if isinstance(s, tuple) else str(s))
        elif isinstance(x, Repeat):
            iv = x.interval
            mark = _MARK_TEXT.get(iv) or (f"^{iv.min}" if iv.singleton else f"^{iv}")
            pieces = [(x.body, 0), mark]
            if not isinstance(x.body, (Sym, Epsilon)):
                pieces = ["(", (x.body, 0), ")" + mark]
            stack.extend(reversed(pieces))
        elif isinstance(x, Nary):
            level, sep = _OPERATORS[type(x)]
            pieces = [sep] * (2 * len(x.parts) - 1)
            pieces[::2] = [(p, level + 1) for p in x.parts]
            if level < context:
                pieces = ["(", *pieces, ")"]
            stack.extend(reversed(pieces))
        else:
            raise TypeError(f"not an expression: {x!r}")
    return "".join(out)
