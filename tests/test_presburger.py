import random

from shapegraph import Interval, pa_eval_bounded, presburger_of, psi_sound_cap, to_sexpr
from shapegraph.errors import AlphabetError
from shapegraph.presburger import Exists
from shapegraph.rbe import (
    Concat,
    Disj,
    Intersect,
    Repeat,
    Sym,
    bag_matches,
    parse_rbe,
)

from conftest import random_bag, random_flat_rbe


def psi_eval(e, w, n=1):
    """Evaluate the membership formula on the bag w with n copies."""
    formula, xvars, nvar = presburger_of(e)
    assignment = {nvar: n}
    for sym, x in xvars.items():
        assignment[x] = w.get(sym, 0)
    # Symbols of w outside the expression alphabet make membership false.
    if any(k and sym not in xvars for sym, k in w.items()):
        return False
    cap = psi_sound_cap(e, w, n)
    return pa_eval_bounded(formula, assignment, cap)


def oracle(e, w):
    try:
        return bag_matches(e, w)
    except AlphabetError:
        return False


class TestPsiCases:
    def test_symbol(self):
        e = parse_rbe("a")
        assert psi_eval(e, {"a": 1})
        assert not psi_eval(e, {"a": 2})
        assert not psi_eval(e, {})

    def test_concat_disj(self):
        e = parse_rbe("(a | b), c")
        assert psi_eval(e, {"a": 1, "c": 1})
        assert psi_eval(e, {"b": 1, "c": 1})
        assert not psi_eval(e, {"a": 1, "b": 1, "c": 1})

    def test_repeat_unbounded(self):
        e = parse_rbe("(a | b)*")
        assert psi_eval(e, {})
        assert psi_eval(e, {"a": 3, "b": 2})

    def test_repeat_bounded(self):
        e = parse_rbe("(a, b)^[2;2]")
        assert psi_eval(e, {"a": 2, "b": 2})
        assert not psi_eval(e, {"a": 1, "b": 1})
        assert not psi_eval(e, {"a": 2, "b": 1})

    def test_intersection_is_conjunction(self):
        left = parse_rbe("a*, b*")
        right = parse_rbe("(a, b)*")
        both = Intersect((left, right))
        from collections import Counter

        for w in (Counter({"a": 1, "b": 1}), Counter({"a": 2, "b": 1}), Counter()):
            expected = psi_eval(left, w) and psi_eval(right, w)
            assert psi_eval(both, w) == expected == oracle(both, w)

    def test_multiple_copies(self):
        # n copies of a single-a expression accept exactly n a's.
        e = parse_rbe("a")
        assert psi_eval(e, {"a": 3}, n=3)
        assert not psi_eval(e, {"a": 2}, n=3)


class TestRandomAgreement:
    def test_flat_repeat_family(self):
        rng = random.Random(23)
        for _ in range(400):
            e = random_flat_rbe(rng)
            w = random_bag(rng)
            assert psi_eval(e, w) == oracle(e, w), (to_sexpr(presburger_of(e)[0]), dict(w))

    def test_sexpr_is_printable(self):
        e = parse_rbe("(a | b)^[1;2], c?")
        formula, xvars, nvar = presburger_of(e)
        s = to_sexpr(formula)
        assert isinstance(s, str) and s.startswith("(")
