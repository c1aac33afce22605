"""The quadric-power ring: multiplication rules, operators, correspondences."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadchow.quadpow import (
    Correspondence,
    QuadCycle,
    action,
    alternating_sym,
    basis_symbols,
    compose,
    delta_i,
    diagonal_class,
    external,
    external_list,
    format_cycle,
    h_power_cycle,
    is_nonessential,
    l_cycle,
    lp_cycle,
    monomial_cycle,
    one,
    parse_cycle,
    primordial_shape,
    quad_context,
    rho_i,
    rost,
    swap_ruling,
    sym,
    sym_h_chain,
)
from quadchow.quadpow import _sum_permuted


def rand_cycle(ctx, m, rng, p=0, terms=4):
    syms = basis_symbols(ctx)
    out = {}
    for _ in range(terms):
        mono = tuple(rng.choice(syms) for _ in range(m))
        out[mono] = rng.randrange(-3, 4)
    return QuadCycle(ctx, m, out, p)


def test_multiplication_rules_n3():
    ctx = quad_context(3)
    h = h_power_cycle(ctx, 1)
    assert format_cycle(h * h) == "2 l1"
    assert (l_cycle(ctx, 0) * l_cycle(ctx, 0)).is_zero()
    assert h * l_cycle(ctx, 1) == l_cycle(ctx, 0)
    assert (h * l_cycle(ctx, 0)).is_zero()


def test_middle_rules_even():
    ctx4 = quad_context(4)
    l, lp = l_cycle(ctx4, 2), lp_cycle(ctx4)
    assert l * l == l_cycle(ctx4, 0)
    assert (l * lp).is_zero()
    assert lp * lp == l_cycle(ctx4, 0)
    ctx6 = quad_context(6)
    l, lp = l_cycle(ctx6, 3), lp_cycle(ctx6)
    assert (l * l).is_zero()
    assert l * lp == l_cycle(ctx6, 0)
    # h hits both rulings the same way
    h = h_power_cycle(ctx6, 1)
    assert h * l == h * lp == l_cycle(ctx6, 2)
    # h^d splits
    assert h_power_cycle(ctx6, 3) == l_cycle(ctx6, 3) + lp_cycle(ctx6)


def test_context_and_arity_mismatch():
    c3, c4 = quad_context(3), quad_context(4)
    with pytest.raises(ValueError, match="mismatch"):
        one(c3, 1) * one(c4, 1)
    with pytest.raises(ValueError, match="mismatch"):
        one(c3, 1) + one(c3, 2)
    with pytest.raises(ValueError, match="mismatch"):
        external(one(c3, 1), one(c4, 1))


def test_ring_axioms_random():
    rng = random.Random(5)
    for n in (3, 4, 6):
        ctx = quad_context(n)
        for _ in range(15):
            x, y, z = (rand_cycle(ctx, 2, rng) for _ in range(3))
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z


def test_sym_examples():
    ctx = quad_context(3)
    assert format_cycle(rho_i(ctx, 1)) == "1 x l0 + l0 x 1"
    hxh = external(h_power_cycle(ctx, 1), h_power_cycle(ctx, 1))
    assert sym(hxh) == hxh.scale(2)
    # the alternating subgroup catches each distinct arrangement exactly once
    ctx5 = quad_context(5)
    base = external_list(
        [h_power_cycle(ctx5, 1), h_power_cycle(ctx5, 1), l_cycle(ctx5, 1)]
    )
    assert sym(base) == alternating_sym(base).scale(2)


@pytest.mark.parametrize("n", range(3, 9))
def test_sym_matches_the_sum_over_permutations(n):
    # sym and alternating_sym reorder each monomial directly; the reference
    # pushes forward along every permutation (inverting it) one by one
    ctx = quad_context(n)
    rng = random.Random(n)
    pool = basis_symbols(ctx)[:3]  # few symbols, so monomials repeat them
    for m in range(0, 6):
        perms = list(itertools.permutations(range(m)))
        even = [q for q in perms if sum(a > b for a, b in itertools.combinations(q, 2)) % 2 == 0]
        for p in (0, 2):
            coeffs = {
                tuple(rng.choice(pool) for _ in range(m)): rng.randint(-3, 3)
                for _ in range(5)
            }
            x = QuadCycle(ctx, m, coeffs, p)
            assert sym(x) == _sum_permuted(x, perms), (m, p)
            assert alternating_sym(x) == _sum_permuted(x, even), (m, p)


def test_push_pull_projections():
    ctx = quad_context(3)
    hn = h_power_cycle(ctx, 3)
    assert hn.push_proj([]).coeffs == {(): 2}
    x = external(h_power_cycle(ctx, 1), l_cycle(ctx, 0))
    assert x.push_proj([0]) == h_power_cycle(ctx, 1)
    assert (external(h_power_cycle(ctx, 1), h_power_cycle(ctx, 1)).push_proj([0])).is_zero()
    pulled = h_power_cycle(ctx, 1).pull_proj(3, [1])
    assert pulled == external_list([one(ctx, 1), h_power_cycle(ctx, 1), one(ctx, 1)])


def test_pull_diagonal():
    ctx = quad_context(3)
    hxh = external(h_power_cycle(ctx, 1), h_power_cycle(ctx, 1))
    diag = hxh.pull_diagonal([0, 0], 1)
    assert diag == h_power_cycle(ctx, 1) * h_power_cycle(ctx, 1)
    x = rand_cycle(ctx, 2, random.Random(0))
    assert x.pull_diagonal([0, 1], 2) == x


def transpose(a: Correspondence) -> Correspondence:
    """The same cycle read as a map X^b -> X^a: the source slots move to the end."""
    s, t = a.source, a.target
    return Correspondence(a.cycle.permute([(k + t) % (s + t) for k in range(s + t)]), t, s)


def test_correspondence_laws_exhaustive_small():
    ctx = quad_context(3)
    syms = basis_symbols(ctx)
    monos = [external(monomial_cycle(ctx, [s]), monomial_cycle(ctx, [t]))
             for s in syms for t in syms]
    corrs = [Correspondence(m, 1, 1) for m in monos]
    rng = random.Random(1)
    sample = rng.sample(corrs, 6)
    for a in sample:
        for b in sample:
            ab = compose(b, a)
            assert compose(transpose(a), transpose(b)).cycle == transpose(ab).cycle
            for c in sample:
                assert compose(c, ab).cycle == compose(compose(c, b), a).cycle
            for s in syms:
                x = monomial_cycle(ctx, [s])
                assert action(ab, x) == action(b, action(a, x))


def test_correspondence_laws_randomized():
    rng = random.Random(9)
    for n in (5, 8):
        ctx = quad_context(n)
        for _ in range(5):
            a = Correspondence(rand_cycle(ctx, 2, rng), 1, 1)
            b = Correspondence(rand_cycle(ctx, 2, rng), 1, 1)
            c = Correspondence(rand_cycle(ctx, 2, rng), 1, 1)
            assert compose(c, compose(b, a)).cycle == compose(compose(c, b), a).cycle
            assert transpose(transpose(a)).cycle == a.cycle
            x = rand_cycle(ctx, 1, rng)
            assert action(compose(b, a), x) == action(b, action(a, x))


def test_diagonal_is_identity_correspondence():
    for n in (2, 3, 4, 5, 6):
        ctx = quad_context(n)
        diag = Correspondence(diagonal_class(ctx), 1, 1)
        for s in basis_symbols(ctx):
            x = monomial_cycle(ctx, [s])
            assert action(diag, x) == x


def test_rho_delta_rost():
    for n in (3, 4, 5):
        ctx = quad_context(n)
        assert rho_i(ctx, 0) == l_cycle(ctx, 0)
        assert rost(ctx).cycle == rho_i(ctx, 1)
        for i in range(1, ctx.d + 1):
            assert rho_i(ctx, i).codim() == n + i * (i - 1) // 2
            assert delta_i(ctx, i).codim() == n + i * (i - 1) // 2
        with pytest.raises(ValueError, match="out of range"):
            rho_i(ctx, ctx.d + 1)
        with pytest.raises(ValueError, match="out of range"):
            delta_i(ctx, 0)


def test_primordial_shape():
    ctx = quad_context(6)
    d = ctx.d
    for i1 in range(1, d + 1):
        width = max(0, d - i1 + 2 - i1)
        for bits in itertools.product((0, 1), repeat=width):
            pi = primordial_shape(ctx, i1, bits)
            assert pi.cycle.codim() == ctx.n - i1 + 1
            assert transpose(pi).cycle == pi.cycle
    # all-zero coefficients at i1 = 1 degenerate to the two-term symmetric cycle
    ctx3 = quad_context(3)
    assert primordial_shape(ctx3, 1, [0] * ctx3.d).cycle == rho_i(ctx3, 1, p=2)


def test_rho_action_cases():
    # the symmetrized h-chain acts nontrivially only on the point class
    for n in (3, 4, 5, 6):
        ctx = quad_context(n)
        for i in range(1, ctx.d + 1):
            corr = Correspondence(rho_i(ctx, i), 1, i)
            got = action(corr, one(ctx, 1))
            assert got == sym_h_chain(ctx, list(range(1, i)) + [0])
            for k in range(1, ctx.d + 1):
                assert action(corr, h_power_cycle(ctx, k)).is_zero(), (n, i, k)


def test_nonessential():
    ctx = quad_context(3)
    assert is_nonessential(external(h_power_cycle(ctx, 2), h_power_cycle(ctx, 1)))
    assert not is_nonessential(external(one(ctx, 1), l_cycle(ctx, 0)))
    assert not is_nonessential(external(l_cycle(ctx, 1), h_power_cycle(ctx, 1)))
    ctx4 = quad_context(4)
    assert is_nonessential(external(one(ctx4, 1), l_cycle(ctx4, 2) + lp_cycle(ctx4)))
    assert not is_nonessential(external(one(ctx4, 1), l_cycle(ctx4, 2)))
    assert not is_nonessential(l_cycle(ctx4, 2).scale(2))


def test_mod2_is_ring_homomorphism():
    rng = random.Random(11)
    for n in (3, 4):
        ctx = quad_context(n)
        for _ in range(10):
            x, y = rand_cycle(ctx, 2, rng), rand_cycle(ctx, 2, rng)
            assert (x * y).mod2() == x.mod2() * y.mod2()
            a = Correspondence(x, 1, 1)
            b = Correspondence(y, 1, 1)
            assert compose(b, a).cycle.mod2() == compose(
                Correspondence(y.mod2(), 1, 1), Correspondence(x.mod2(), 1, 1)
            ).cycle


def test_swap_ruling_automorphism():
    rng = random.Random(13)
    for n in (4, 6):
        ctx = quad_context(n)
        for _ in range(10):
            x, y = rand_cycle(ctx, 2, rng), rand_cycle(ctx, 2, rng)
            assert swap_ruling(x * y) == swap_ruling(x) * swap_ruling(y)
            assert swap_ruling(swap_ruling(x)) == x


@given(st.integers(2, 8), st.data())
@settings(max_examples=40, deadline=None)
def test_sym_is_linear_and_symmetric(n, data):
    ctx = quad_context(n)
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    x = rand_cycle(ctx, 2, rng)
    y = rand_cycle(ctx, 2, rng)
    assert sym(x + y) == sym(x) + sym(y)
    s = sym(x)
    assert s.permute([1, 0]) == s


def test_parse_print_round_trip():
    rng = random.Random(17)
    for n in (2, 3, 4, 5, 6):
        ctx = quad_context(n)
        cases = [rho_i(ctx, min(1, ctx.d)), delta_i(ctx, 1)]
        for _ in range(10):
            c = rand_cycle(ctx, rng.randrange(1, 4), rng)
            if not c.is_zero():
                cases.append(c)
        for c in cases:
            text = format_cycle(c)
            assert parse_cycle(ctx, text) == c, (n, text)


def test_parse_internal_product_and_errors():
    ctx = quad_context(3)
    assert parse_cycle(ctx, "h*h") == h_power_cycle(ctx, 1) * h_power_cycle(ctx, 1)
    assert parse_cycle(ctx, "h^2 x l0 - 3 l1 x 1") == external(
        h_power_cycle(ctx, 2), l_cycle(ctx, 0)
    ) + external(l_cycle(ctx, 1), one(ctx, 1)).scale(-3)
    with pytest.raises(ValueError, match="parse"):
        parse_cycle(ctx, "h^2 x qq")
    with pytest.raises(ValueError, match="ruling"):
        parse_cycle(ctx, "l1'")
    ctx4 = quad_context(4)
    assert parse_cycle(ctx4, "ld'") == lp_cycle(ctx4)
    assert parse_cycle(ctx4, "l2'") == lp_cycle(ctx4)


def test_strict_codim_errors_on_mixed_degrees():
    ctx = quad_context(3)
    mixed = one(ctx, 1) + l_cycle(ctx, 0)
    with pytest.raises(ValueError, match="inhomogeneous"):
        mixed.codim()
    assert not mixed.is_homogeneous()
