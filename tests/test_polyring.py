"""Weyl action and divided-difference laws on the sparse polynomial ring."""

import random
from fractions import Fraction

import pytest

from quadchow.polyring import (
    Polynomial,
    act,
    constant,
    divided_difference,
    divided_difference_word,
    simple_root,
    variable,
)
from quadchow.weyl import make_group


def rand_poly(m, rng, terms=5, deg=3):
    out = {}
    for _ in range(terms):
        e = tuple(rng.randrange(deg) for _ in range(m))
        out[e] = Fraction(rng.randrange(-4, 5))
    return Polynomial(m, out)


def all_reduced_words(G, w):
    """Every reduced word of w, via right descents: word(w) = word(w*s_i) + (i,)."""
    if G.length(w) == 0:
        yield ()
        return
    for i, s in enumerate(G.simple_reflections, start=1):
        if G.length(w * s) < G.length(w):
            for head in all_reduced_words(G, w * s):
                yield tuple(head) + (i,)


def test_divided_difference_b2_oracle():
    # (x1^2 - x2^2) / (x1 - x2) expands to x1 + x2.
    B2 = make_group("B", 2)
    x1, x2 = variable(2, 1), variable(2, 2)
    assert divided_difference(B2, 1, x1 * x1) == x1 + x2


def test_divided_difference_of_simple_root_is_two():
    for G in (make_group("B", 3), make_group("D", 3)):
        for i in range(1, 4):
            assert divided_difference(G, i, simple_root(G, i)) == constant(3, 2)


def test_invariant_killed():
    B2 = make_group("B", 2)
    x1, x2 = variable(2, 1), variable(2, 2)
    assert divided_difference(B2, 1, x1 * x1 + x2 * x2).is_zero()
    assert divided_difference(B2, 2, x2 * x2).is_zero()


def test_act_identity_and_sign_change():
    B3 = make_group("B", 3)
    rng = random.Random(3)
    f = rand_poly(3, rng)
    assert act(B3.identity, f) == f
    assert act(B3.simple_reflections[2], variable(3, 3)) == variable(3, 3).scale(-1)


def test_act_is_ring_automorphism_and_left_action():
    rng = random.Random(5)
    for G in (make_group("B", 3), make_group("D", 3)):
        for _ in range(25):
            w, v = rng.choice(G.elements), rng.choice(G.elements)
            f, g = rand_poly(3, rng), rand_poly(3, rng)
            assert act(w, f * g) == act(w, f) * act(w, g)
            assert act(w * v, f) == act(w, act(v, f))


def test_rank_mismatch():
    B3 = make_group("B", 3)
    with pytest.raises(ValueError, match="rank mismatch"):
        act(B3.identity, variable(2, 1))
    with pytest.raises(ValueError, match="rank mismatch"):
        divided_difference(B3, 1, variable(2, 1))


def test_leibniz_rule():
    rng = random.Random(11)
    for G in (make_group("B", 3), make_group("D", 3)):
        for _ in range(20):
            i = rng.randrange(1, 4)
            f, g = rand_poly(3, rng), rand_poly(3, rng)
            lhs = divided_difference(G, i, f * g)
            rhs = divided_difference(G, i, f) * g + act(
                G.simple_reflections[i - 1], f
            ) * divided_difference(G, i, g)
            assert lhs == rhs


def test_nilpotence():
    rng = random.Random(13)
    for G in (make_group("B", 3), make_group("D", 3)):
        for i in range(1, 4):
            f = rand_poly(3, rng)
            once = divided_difference(G, i, f)
            assert divided_difference(G, i, once).is_zero()


def test_degree_drop():
    rng = random.Random(17)
    G = make_group("B", 3)
    for i in range(1, 4):
        f = rand_poly(3, rng, terms=4, deg=4)
        g = divided_difference(G, i, f)
        if not g.is_zero():
            assert g.degree() <= f.degree() - 1


def test_word_independence_exhaustive():
    # All reduced words of every element of B_3 and D_3 agree on random input.
    rng = random.Random(19)
    for G in (make_group("B", 3), make_group("D", 3)):
        f = rand_poly(3, rng, terms=6, deg=4)
        for w in G.elements:
            words = list(all_reduced_words(G, w))
            for word in words:
                assert G.from_word(word) == w
            results = {
                tuple(sorted(divided_difference_word(G, word, f).coeffs.items()))
                for word in words
            }
            assert len(results) == 1


def test_empty_word_is_identity_operator():
    G = make_group("B", 2)
    f = rand_poly(2, random.Random(23))
    assert divided_difference_word(G, (), f) == f


def test_word_nilpotence():
    G = make_group("B", 2)
    f = rand_poly(2, random.Random(29))
    assert divided_difference_word(G, (1, 1), f).is_zero()


def test_inexact_division_raises():
    # Dividing a non-antisymmetrized numerator must fail loudly, so feed the
    # low-level operator a polynomial with a doctored action.
    from quadchow.polyring import _divide_linear

    with pytest.raises(ArithmeticError, match="inexact"):
        _divide_linear(variable(2, 2), 1, 2, 1)  # x2 / (x1 - x2)
    with pytest.raises(ArithmeticError, match="inexact"):
        _divide_linear(constant(2, 1), 2, None, 1)  # 1 / x2


def test_values_over_a_common_denominator():
    half = Polynomial(2, {(1, 0): Fraction(1, 2), (0, 1): 1})
    assert half.den == 2 and half.coeffs == {(1, 0): 1, (0, 1): 2}
    same = Polynomial(2, {(1, 0): 2, (0, 1): 4}, den=4)
    assert same == half and hash(same) == hash(half)
    assert Polynomial(2, {(1, 0): 2}, den=4) != Polynomial(2, {(1, 0): 1}, den=1)
    assert (half * half).den == 4
    assert half + half == Polynomial(2, {(1, 0): 1, (0, 1): 2})
    assert (half - same).is_zero()
    assert constant(2, Fraction(3, 6)).constant_term() == Fraction(1, 2)
    with pytest.raises(ValueError, match="denominator"):
        Polynomial(2, {(1, 0): 1}, den=0)


def _long_division_reference(G, i, f):
    """(f - s_i . f) / alpha_i by the action and synthetic division."""
    from quadchow.polyring import _divide_linear

    m = G.rank
    num = f - act(G.simple_reflections[i - 1], f)
    if i < m:
        return _divide_linear(num, i, i + 1, 1)
    if G.family == "B":
        return _divide_linear(num, m, None, 1)
    return _divide_linear(num, m - 1, m, -1)


def test_fused_kernel_matches_long_division():
    rng = random.Random(31)
    for G in (make_group("B", 3), make_group("D", 3), make_group("B", 4), make_group("D", 4)):
        m = G.rank
        for _ in range(15):
            f = rand_poly(m, rng, terms=8, deg=5).scale(Fraction(1, rng.randrange(1, 7)))
            for i in range(1, m + 1):
                got = divided_difference(G, i, f)
                assert got == _long_division_reference(G, i, f)
                assert got.den == f.den
                assert got * simple_root(G, i) == f - act(G.simple_reflections[i - 1], f)


def test_point_class_carries_the_group_order():
    from quadchow.schubert import build_flag_model

    for n in (3, 4, 5):
        model = build_flag_model(n)
        G = model.group
        assert model.point_rep.den == len(G)
        top = divided_difference_word(G, G.reduced_word(G.longest_element), model.point_rep)
        assert top == constant(G.rank, 1)
