import random

import pytest

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


# The exported text of one expression per node kind, and of one nested mix.
# Fresh variables are numbered in the order a walk enters their nodes: a
# node's own names before any of its parts' names.
EXPORTS = {
    "eps": "(and)",
    "a": "(= x_a n)",
    "a?": "(or (and (= n 0) (= x_a 0)) (and (<= 1 n) (exists (m1) (and (<= 0 m1) (<= m1 1) (= x_a m1)))))",
    "a*": "(or (and (= n 0) (= x_a 0)) (and (<= 1 n) (exists (m1) (and (<= 0 m1) (= x_a m1)))))",
    "a^[2;4]": "(or (and (= n 0) (= x_a 0)) (and (<= 1 n) (exists (m1) (and (<= 2 m1) (<= m1 4) (= x_a m1)))))",
    "a^3": "(or (and (= n 0) (= x_a 0)) (and (<= 1 n) (exists (m1) (and (<= 3 m1) (<= m1 3) (= x_a m1)))))",
    "a^[0;0]": "(or (and (= n 0) (= x_a 0)) (and (<= 1 n) (exists (m1) (and (<= 0 m1) (<= m1 0) (= x_a m1)))))",
    "a | b": "(exists (x1_a x1_b x2_a x2_b n3 n4) (and (= n (+ n3 n4)) (= x_a (+ x1_a x2_a))"
    " (= x_b (+ x1_b x2_b)) (= x1_a n3) (= x1_b 0) (= x2_b n4) (= x2_a 0)))",
    "a, b": "(exists (x1_a x1_b x2_a x2_b) (and (= x_a (+ x1_a x2_a)) (= x_b (+ x1_b x2_b))"
    " (= x1_a n) (= x1_b 0) (= x2_b n) (= x2_a 0)))",
    "a* & b?": "(and (or (and (= n 0) (= x_a 0) (= x_b 0)) (and (<= 1 n) (exists (m1) (and (<= 0 m1)"
    " (= x_a m1) (= x_b 0))))) (or (and (= n 0) (= x_a 0) (= x_b 0)) (and (<= 1 n) (exists (m2)"
    " (and (<= 0 m2) (<= m2 1) (= x_b m2) (= x_a 0))))))",
    "((a | b^[1;2])*, c?) & (a, c)*": "(and (exists (x1_a x1_b x1_c x2_a x2_b x2_c) (and"
    " (= x_a (+ x1_a x2_a)) (= x_b (+ x1_b x2_b)) (= x_c (+ x1_c x2_c)) (or (and (= n 0) (= x1_a 0)"
    " (= x1_b 0) (= x1_c 0)) (and (<= 1 n) (exists (m3) (and (<= 0 m3) (exists (x4_a x4_b x4_c x5_a"
    " x5_b x5_c n6 n7) (and (= m3 (+ n6 n7)) (= x1_a (+ x4_a x5_a)) (= x1_b (+ x4_b x5_b))"
    " (= x1_c (+ x4_c x5_c)) (= x4_a n6) (= x4_b 0) (= x4_c 0) (or (and (= n7 0) (= x5_a 0)"
    " (= x5_b 0) (= x5_c 0)) (and (<= 1 n7) (exists (m8) (and (<= 1 m8) (<= m8 2) (= x5_b m8)"
    " (= x5_a 0) (= x5_c 0))))))))))) (or (and (= n 0) (= x2_a 0) (= x2_b 0) (= x2_c 0)) (and"
    " (<= 1 n) (exists (m9) (and (<= 0 m9) (<= m9 1) (= x2_c m9) (= x2_a 0) (= x2_b 0)))))))"
    " (or (and (= n 0) (= x_a 0) (= x_b 0) (= x_c 0)) (and (<= 1 n) (exists (m10) (and (<= 0 m10)"
    " (exists (x11_a x11_b x11_c x12_a x12_b x12_c) (and (= x_a (+ x11_a x12_a)) (= x_b (+ x11_b x12_b))"
    " (= x_c (+ x11_c x12_c)) (= x11_a m10) (= x11_b 0) (= x11_c 0) (= x12_c m10) (= x12_a 0)"
    " (= x12_b 0))))))))",
}


@pytest.mark.parametrize("text", EXPORTS)
def test_export_text_is_pinned(text):
    assert to_sexpr(presburger_of(parse_rbe(text))[0]) == EXPORTS[text]
