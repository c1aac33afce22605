"""Weyl action and divided-difference laws on the sparse polynomial ring."""

import random
from fractions import Fraction
from math import prod

import pytest

from quadchow.polyring import (
    MASK,
    Polynomial,
    act,
    constant,
    divided_difference,
    divided_difference_word,
    simple_root,
    variable,
)
from quadchow.weyl import MAX_RANK, RangeError, make_group
from signed import elements, identity, length, simple_reflections


def rand_poly(m, rng, terms=5, deg=3):
    out = {}
    for _ in range(terms):
        e = tuple(rng.randrange(deg) for _ in range(m))
        out[e] = Fraction(rng.randrange(-4, 5))
    return Polynomial(m, out)


def all_reduced_words(G, w):
    """Every reduced word of the signed permutation w, via right descents:
    word(w) = word(w*s_i) + (i,)."""
    if length(G, w) == 0:
        yield ()
        return
    for i, s in enumerate(simple_reflections(G), start=1):
        if length(G, w * s) < length(G, w):
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
    assert act(B3.elements[0], f) == f
    assert act(B3.simple_reflections[2], variable(3, 3)) == variable(3, 3).scale(-1)


def test_act_is_ring_automorphism_and_left_action():
    rng = random.Random(5)
    for G in (make_group("B", 3), make_group("D", 3)):
        for _ in range(25):
            w, v = rng.choice(elements(G)), rng.choice(elements(G))
            f, g = rand_poly(3, rng), rand_poly(3, rng)
            assert act(w.window, f * g) == act(w.window, f) * act(w.window, g)
            assert act((w * v).window, f) == act(w.window, act(v.window, f))


def test_act_refuses_a_window_that_is_no_signed_permutation():
    x1, x2 = variable(3, 1), variable(3, 2)
    # a repeated absolute value, a 0, and entries outside +-1..3
    for window in ((1, 1, 3), (1, -1, 3), (0, 2, 3), (1, 2, 4), (-4, 2, 3)):
        with pytest.raises(ValueError, match="not a signed permutation window"):
            act(window, x1 * x2)
    assert act((-2, 1, 3), x1 * x2) == (x1 * x2).scale(-1)


def test_rank_mismatch():
    B3 = make_group("B", 3)
    with pytest.raises(ValueError, match="rank mismatch"):
        act(B3.elements[0], variable(2, 1))
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
        s = simple_reflections(G)
        for w in elements(G):
            words = list(all_reduced_words(G, w))
            for word in words:
                product = identity(G)
                for i in word:
                    product = product * s[i - 1]
                assert product == w
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


def _divide_linear(f, a, b, s):
    """Exact division of ``f`` by ``x_a - s*x_b`` (or by ``x_a`` when b is None).

    Integer synthetic division on exponent tuples with main variable ``x_a``
    (the divisor is monic in it); raises ArithmeticError when the remainder is
    nonzero.  It shares no code with the packed kernel it is a reference for.
    """
    m = f.nvars
    if b is None:
        out = {}
        for e, c in f.coeffs.items():
            if e[a - 1] == 0:
                raise ArithmeticError("inexact division by simple root")
            new = list(e)
            new[a - 1] -= 1
            out[tuple(new)] = c
        return Polynomial(m, out, f.den)
    # Group by the exponent of x_a:  f = sum_k f_k * x_a^k.
    layers = {}
    for e, c in f.coeffs.items():
        rest = list(e)
        rest[a - 1] = 0
        layers.setdefault(e[a - 1], {})[tuple(rest)] = c
    out = {}
    carry = {}
    # Synthetic division: q_{k-1} = f_k + s * x_b * q_k, remainder f_0 + s*x_b*q_0.
    for k in range(max(layers, default=0), 0, -1):
        q = dict(layers.get(k, {}))
        for e, c in carry.items():
            q[e] = q.get(e, 0) + c
        carry = {}
        for e, c in q.items():
            if c:
                new = list(e)
                new[a - 1] = k - 1
                out[tuple(new)] = c
                new[a - 1] = 0
                new[b - 1] += 1
                carry[tuple(new)] = s * c
    remainder = dict(layers.get(0, {}))
    for e, c in carry.items():
        remainder[e] = remainder.get(e, 0) + c
    if any(remainder.values()):
        raise ArithmeticError("inexact division by simple root")
    return Polynomial(m, out, f.den)


def test_inexact_division_raises():
    # Dividing a non-antisymmetrized numerator must fail loudly, so feed the
    # low-level operator a polynomial with a doctored action.
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
    m = G.rank
    num = f - act(G.simple_reflections[i - 1], f)
    if i < m:
        return _divide_linear(num, i, i + 1, 1)
    if G.family == "B":
        return _divide_linear(num, m, None, 1)
    return _divide_linear(num, m - 1, m, -1)


def composition(rng, m, degree):
    """A random exponent tuple of length m and the given total degree."""
    cuts = sorted(rng.randint(0, degree) for _ in range(m - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))


def wide_poly(m, rng, terms=4):
    """Terms whose degree fills, or nearly fills, the exponent field."""
    degrees = [rng.randint(MASK - 12, MASK) for _ in range(terms)]
    return Polynomial(m, {composition(rng, m, d): rng.randrange(-4, 5) for d in degrees})


def test_fused_kernel_matches_long_division():
    rng = random.Random(31)
    groups = [make_group("B", r) for r in range(1, MAX_RANK + 1)]
    groups += [make_group("D", r) for r in range(2, MAX_RANK + 1)]
    for G in groups:
        m = G.rank
        polys = [rand_poly(m, rng, terms=8, deg=5) for _ in range(15)]
        polys += [wide_poly(m, rng) for _ in range(3)]
        for f in polys:
            f = f.scale(Fraction(1, rng.randrange(1, 7)))
            for i in range(1, m + 1):
                got = divided_difference(G, i, f)
                assert got == _long_division_reference(G, i, f), (G.family, m, i)
                assert got.den == f.den
                assert got * simple_root(G, i) == f - act(G.simple_reflections[i - 1], f)


def test_point_class_carries_the_group_order():
    from quadchow.schubert import build_geometry

    for n in (3, 4, 5):
        model = build_geometry(n)
        G = model.group
        assert model.point_rep.den == len(G)
        top = divided_difference_word(G, G.reduced_word(G.elements[-1]), model.point_rep)
        assert top == constant(G.rank, 1)


# -- the packed monomial encoding -----------------------------------------------


def test_tuple_coefficients_round_trip():
    rng = random.Random(37)
    for m in range(1, 6):
        for _ in range(20):
            c = {}
            for _ in range(rng.randint(0, 8)):
                degree = rng.choice([rng.randrange(8), rng.randint(MASK - 8, MASK)])
                c[composition(rng, m, degree)] = rng.choice([-3, -1, 1, 2, 7])
            f = Polynomial(m, c)
            assert f.coeffs == c and f.den == 1
            assert f.degree() == max(map(sum, c), default=-1)
            assert Polynomial(m, f.coeffs, 3) == f.scale(Fraction(1, 3))


def test_degree_past_the_field_raises_instead_of_carrying():
    top = MASK
    x1, x2 = variable(2, 1), variable(2, 2)
    assert Polynomial(2, {(top, 0): 1}).coeffs == {(top, 0): 1}
    for e in ((top + 1, 0), (0, top + 1), (top - 3, 4), (200, 200)):
        with pytest.raises(OverflowError):
            Polynomial(2, {e: 1})
    big = x1**top
    assert big.coeffs == {(top, 0): 1} and (x1 ** (top - 1) * x2).coeffs == {(top - 1, 1): 1}
    for make in (lambda: big * x1, lambda: big * x2, lambda: x2 * big):
        with pytest.raises(OverflowError):
            make()
    for base in (x1, x1 + x2, x1 * x2 + constant(2, 1)):
        with pytest.raises(OverflowError):
            base ** (top + 1)
    with pytest.raises(OverflowError):
        (x1 * x2) ** 128
    assert ((x1 * x2) ** 127).coeffs == {(127, 127): 1}
    with pytest.raises(ValueError, match="negative exponent"):
        Polynomial(2, {(-1, 2): 1})
    with pytest.raises(ValueError, match="length"):
        Polynomial(2, {(1, 0, 0): 1})
    for i in (0, 3):  # a field outside the variables would be the degree's
        with pytest.raises(RangeError, match="variable index out of range"):
            variable(2, i)


def test_equal_values_hash_alike_over_any_denominator():
    rng = random.Random(41)
    for m in (1, 3, 5):
        for _ in range(20):
            f = rand_poly(m, rng, terms=6, deg=6)
            k = rng.randrange(2, 9)
            g = Polynomial(m, {e: c * k for e, c in f.coeffs.items()}, f.den * k)
            assert g.den == f.den * k
            assert g == f and hash(g) == hash(f)
            if not f.is_zero():
                assert g != f.scale(2) and g != f + constant(m, 1)


def test_repr_is_unchanged():
    f = Polynomial(3, {(2, 0, 1): Fraction(1, 2), (0, 0, 0): 3, (0, 1, 0): -1, (1, 1, 1): 4})
    assert repr(f) == "1/2*x1^2*x3 + 4*x1*x2*x3 + -1*x2 + 3"
    assert repr(Polynomial(2)) == "0"
    assert repr(variable(4, 3).scale(Fraction(-2, 6))) == "-1/3*x3"
    assert repr(Polynomial(1, {(MASK,): 5}, 10)) == "1/2*x1^255"
    # terms run in decreasing exponent-tuple order, not by degree
    f = Polynomial(2, {(0, MASK): 1, (1, 0): -2, (0, 3): 1})
    assert repr(f) == "-2*x1 + 1*x2^255 + 1*x2^3"


def test_homogeneous_parts_and_numerator_evaluation():
    # the parts add back up to f, each of one degree; the numerator at a point
    # is the value times den, against the evaluation of coeffs in Fractions
    rng = random.Random(14)
    for m in (2, 3, 5):
        for _ in range(20):
            f = rand_poly(m, rng, terms=7, deg=4).scale(Fraction(1, rng.randint(1, 6)))
            parts = f.homogeneous_parts()
            assert sum(parts.values(), Polynomial(m)) == f
            for k, part in parts.items():
                assert part.degrees() == {k} and part.den == f.den
            at = f.numerator_at()
            for _ in range(5):
                point = [rng.randint(-5, 5) for _ in range(m)]
                value = sum(
                    Fraction(c, f.den) * Fraction(prod(v**p for v, p in zip(point, e)))
                    for e, c in f.coeffs.items()
                )
                assert Fraction(at(point), f.den) == value
    assert Polynomial(3).homogeneous_parts() == {}
    assert Polynomial(3).numerator_at()([1, 2, 3]) == 0
    with pytest.raises(ValueError, match="point of length 2 in 3 variables"):
        variable(3, 1).numerator_at()([1, 2])
