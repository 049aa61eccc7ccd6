"""Linear-arithmetic formulas over naturals: construction from bag
expressions, bounded evaluation, and S-expression export.

The constructed formula psi_e has one free variable per alphabet symbol
(the bag's Parikh vector) plus the free iteration count n; the defining
property exercised by the tests is psi_e(w, 1) iff w ∈ L(e).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import count, islice

from .core import INF
from .errors import WorkCapError
from . import rbe as _rbe


@dataclass(frozen=True)
class Term:
    """const + Σ coeff·var with nonnegative coefficients."""

    const: int = 0
    coeffs: tuple = ()  # of (var_name, coeff)

    def value(self, env) -> int:
        total = self.const
        for v, c in self.coeffs:
            total += c * env[v]
        return total

    def known(self, env) -> bool:
        return all(v in env for v, _ in self.coeffs)

    def variables(self):
        return [v for v, _ in self.coeffs]


def var(name: str) -> Term:
    return Term(0, ((name, 1),))


def const(k: int) -> Term:
    return Term(k, ())


def tsum(*terms: Term) -> Term:
    coeffs: dict = {}
    c = 0
    for t in terms:
        c += t.const
        for v, k in t.coeffs:
            coeffs[v] = coeffs.get(v, 0) + k
    return Term(c, tuple(sorted(coeffs.items())))


class PAFormula:
    __slots__ = ()


@dataclass(frozen=True)
class Eq(PAFormula):
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Le(PAFormula):
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class And(PAFormula):
    parts: tuple


@dataclass(frozen=True)
class Or(PAFormula):
    parts: tuple


@dataclass(frozen=True)
class Exists(PAFormula):
    variables: tuple
    body: PAFormula


TRUE = And(())
FALSE = Or(())


def _flat(cls, parts) -> PAFormula:
    """parts joined by cls, with parts of class cls spliced in."""
    flat = []
    for p in parts:
        flat.extend(p.parts if isinstance(p, cls) else (p,))
    return flat[0] if len(flat) == 1 else cls(tuple(flat))


def conj(*parts) -> PAFormula:
    return _flat(And, parts)


def disj(*parts) -> PAFormula:
    return _flat(Or, parts)


def free_variables(f: PAFormula) -> frozenset:
    if isinstance(f, (Eq, Le)):
        return frozenset(f.lhs.variables()) | frozenset(f.rhs.variables())
    if isinstance(f, (And, Or)):
        out = frozenset()
        for p in f.parts:
            out |= free_variables(p)
        return out
    if isinstance(f, Exists):
        return free_variables(f.body) - frozenset(f.variables)
    raise TypeError(f"not a formula: {f!r}")


# --- Construction from bag expressions --------------------------------------


def _sym_key(a) -> str:
    if isinstance(a, tuple):
        return "_".join(str(p) for p in a)
    return str(a)


def presburger_of(e: _rbe.Rbe):
    """Build psi_e with free bag variables x_<symbol> and free count n.

    Returns (formula, xvars, nvar) where xvars maps each alphabet symbol to
    its variable name.  One loop over an explicit stack builds it: entering
    a node draws its fresh names from one counter and pushes its builder
    under its parts, so the names come in the order a recursive walk draws
    them; a builder (None, k, make) pops its k parts' formulas.
    """
    symbols = sorted(_rbe.alphabet(e), key=_sym_key)
    fresh = count(1)
    xvars = {a: f"x_{_sym_key(a)}" for a in symbols}
    out = []
    stack = [(e, xvars, "n")]
    while stack:
        x, xv, m = stack.pop()
        if x is None:
            parts = out[-xv:]
            del out[-xv:]
            out.append(m(*parts))
            continue
        nt = var(m)
        if isinstance(x, _rbe.Epsilon):
            out.append(_zero(xv, symbols))
        elif isinstance(x, _rbe.Empty):
            out.append(FALSE)
        elif isinstance(x, _rbe.Sym):
            parts = [Eq(var(xv[x.symbol]), nt)]
            parts += [Eq(var(xv[b]), const(0)) for b in symbols if b != x.symbol]
            out.append(conj(*parts))
        elif isinstance(x, _rbe.Repeat):
            k, l = x.interval.min, x.interval.max
            c = f"m{next(fresh)}"
            bounds = [Le(const(k), var(c))] + ([Le(var(c), const(l))] if l != INF else [])
            zero = conj(Eq(nt, const(0)), _zero(xv, symbols))
            make = partial(_repeat, zero, Le(const(1), nt), c, bounds)
            stack += [(None, 1, make), (x.body, xv, c)]
        elif isinstance(x, _rbe.Intersect):
            stack.append((None, len(x.parts), conj))
            stack += [(p, xv, m) for p in reversed(x.parts)]
        elif isinstance(x, (_rbe.Disj, _rbe.Concat)):
            # One bag per part, the bags summing to xv.  A disjunction also
            # splits the copies m between its parts; in a concatenation each
            # part takes all m.
            split = isinstance(x, _rbe.Disj)
            ids = islice(fresh, len(x.parts))
            xs = [{a: f"x{i}_{_sym_key(a)}" for a in symbols} for i in ids]
            ns = [f"n{i}" for i in islice(fresh, len(xs))] if split else [m] * len(xs)
            head = [Eq(nt, tsum(*map(var, ns)))] if split else []
            head += [Eq(var(xv[a]), tsum(*[var(y[a]) for y in xs])) for a in symbols]
            bound = tuple(y[a] for y in xs for a in symbols) + (tuple(ns) if split else ())
            stack.append((None, len(xs), partial(_exists, bound, head)))
            stack += reversed(list(zip(x.parts, xs, ns)))
        else:
            raise TypeError(f"not an expression: {x!r}")
    return out[0], xvars, "n"


def _zero(xvars, symbols):
    return conj(*[Eq(var(xvars[a]), const(0)) for a in symbols]) if symbols else TRUE


def _repeat(zero, positive, m, bounds, body) -> PAFormula:
    return disj(zero, conj(positive, Exists((m,), conj(*bounds, body))))


def _exists(bound, head, *parts) -> PAFormula:
    return Exists(bound, conj(*head, *parts))


def psi_sound_cap(e: _rbe.Rbe, w, n: int = 1) -> int:
    """A quantifier bound sufficient for the psi family used in the tests:
    bag-part variables never exceed |w|, split counts never exceed n, and
    iteration counts are pinned by flat repeat bodies or equal their
    interval's lower endpoint.
    """
    size = sum(w.values()) if not isinstance(w, int) else w
    return max(1, n, size, _rbe.max_finite_constant(e))


# --- Bounded evaluation -----------------------------------------------------

DEFAULT_EVAL_WORK = 2 * 10**6


@dataclass
class _EvalState:
    cap: int
    work: int = 0


def pa_eval_bounded(f: PAFormula, assignment: dict, cap: int) -> bool:
    """Evaluate with quantified variables over {0..bound}; bounds are derived
    from equalities and inequalities in the conjunctive spine where possible
    and fall back to cap otherwise.

    Returns True or False.  An existential that finds no model within the
    bounds is False, so the answer is exact only when cap is sound for the
    formula, as psi_sound_cap is for the psi family; raises WorkCapError
    past DEFAULT_EVAL_WORK steps.
    """
    missing = free_variables(f) - set(assignment)
    if missing:
        raise ValueError(f"unassigned free variables: {sorted(missing)}")
    st = _EvalState(cap=cap)
    return _eval(f, dict(assignment), st)


def _tick(st: _EvalState):
    st.work += 1
    if st.work > DEFAULT_EVAL_WORK:
        raise WorkCapError(f"formula evaluation exceeded {DEFAULT_EVAL_WORK} steps")


def _flatten_and(f: PAFormula, out: list):
    if isinstance(f, And):
        for p in f.parts:
            _flatten_and(p, out)
    else:
        out.append(f)


def _derived_bound(v: str, spine, env, st: _EvalState):
    """Upper bound for v from spine constraints whose other side is known."""
    best = None
    for c in spine:
        if isinstance(c, Eq):
            for side, other in ((c.lhs, c.rhs), (c.rhs, c.lhs)):
                coeff = dict(side.coeffs).get(v, 0)
                if coeff >= 1 and other.known(env):
                    b = other.value(env) // coeff
                    best = b if best is None else min(best, b)
        elif isinstance(c, Le):
            coeff = dict(c.lhs.coeffs).get(v, 0)
            if coeff >= 1 and c.rhs.known(env):
                b = (c.rhs.value(env) - c.lhs.const) // coeff
                best = b if best is None else min(best, b)
    return best


def _eval(f: PAFormula, env: dict, st: _EvalState):
    _tick(st)
    if isinstance(f, Eq):
        return f.lhs.value(env) == f.rhs.value(env)
    if isinstance(f, Le):
        return f.lhs.value(env) <= f.rhs.value(env)
    if isinstance(f, And):
        return all(_eval(p, env, st) for p in f.parts)
    if isinstance(f, Or):
        return any(_eval(p, env, st) for p in f.parts)
    if isinstance(f, Exists):
        return _eval_exists(f, env, st)
    raise TypeError(f"not a formula: {f!r}")


def _eval_exists(f: Exists, env: dict, st: _EvalState):
    spine: list = []
    _flatten_and(f.body, spine)
    variables = list(f.variables)

    def search(i: int) -> bool:
        if i == len(variables):
            return _eval(f.body, env, st)
        v = variables[i]
        bound = _derived_bound(v, spine, env, st)
        if bound is None:
            bound = st.cap
        for val in range(bound + 1):
            _tick(st)
            env[v] = val
            # Fully-assigned spine constraints prune early.
            ok = True
            for c in spine:
                if isinstance(c, (Eq, Le)) and c.lhs.known(env) and c.rhs.known(env):
                    if _eval(c, env, st) is False:
                        ok = False
                        break
            if ok and search(i + 1):
                del env[v]
                return True
            del env[v]
        return False

    return search(0)


# --- Export -----------------------------------------------------------------


def _term_sexpr(t: Term) -> str:
    parts = []
    if t.const or not t.coeffs:
        parts.append(str(t.const))
    for v, c in t.coeffs:
        parts.extend([v] * c)
    if len(parts) == 1:
        return parts[0]
    return "(+ " + " ".join(parts) + ")"


def to_sexpr(f: PAFormula) -> str:
    """Prefix-operator rendering with operators and, or, not, exists, =, <=, +
    and decimal constants: one loop pops formulas and text pieces from one
    stack into one output list."""
    out = []
    stack = [f]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.append(x)
        elif isinstance(x, (Eq, Le)):
            op = "=" if isinstance(x, Eq) else "<="
            out.append(f"({op} {_term_sexpr(x.lhs)} {_term_sexpr(x.rhs)})")
        elif isinstance(x, (And, Or)):
            pieces = ["(and" if isinstance(x, And) else "(or"]
            pieces += [y for p in x.parts for y in (" ", p)]
            stack += reversed(pieces + [")"])
        elif isinstance(x, Exists):
            stack += [")", x.body, "(exists (" + " ".join(x.variables) + ") "]
        else:
            raise TypeError(f"not a formula: {x!r}")
    return "".join(out)
