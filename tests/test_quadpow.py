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
    contract,
    delta_i,
    diagonal_class,
    dual1,
    external,
    external_list,
    format_cycle,
    h_power_cycle,
    is_nonessential,
    l_cycle,
    lp_cycle,
    monomial_cycle,
    mul1,
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
from quadchow.suites import _symmetric_check


def rand_cycle(ctx, m, rng, p=0, terms=4):
    syms = basis_symbols(ctx)
    out = {}
    for _ in range(terms):
        mono = tuple(rng.choice(syms) for _ in range(m))
        out[mono] = rng.randrange(-3, 4)
    return QuadCycle(ctx, m, out, p)


def pair_deg(ctx, s, t):
    """deg(s . t) on X: the l_0-coefficient of the product."""
    return mul1(ctx, s, t).get(("l", 0), 0)


def test_degree_pairing_is_the_dual_basis():
    # contract pairs slots by looking up dual1: deg(s . t) must be 1 at
    # t = dual1(s) and 0 at every other basis symbol
    for n in range(2, 18):
        ctx = quad_context(n)
        syms = basis_symbols(ctx)
        for s in syms:
            for t in syms:
                assert pair_deg(ctx, s, t) == int(t == dual1(ctx, s)), (n, s, t)


def _contract_all_pairs(ctx, left, right):
    """contract's reference: every (left, right) term pair, weighted by the
    product of pair_deg over the aligned slots."""
    out = {}
    for k1, s1, c1 in left:
        for k2, s2, c2 in right:
            factor = 1
            for s, t in zip(s1, s2):
                factor *= pair_deg(ctx, s, t)
            if factor:
                out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2 * factor
    return out


@pytest.mark.parametrize("n", range(2, 9))
def test_contract_matches_the_all_pairs_reference(n):
    ctx = quad_context(n)
    syms = basis_symbols(ctx)
    rng = random.Random(700 + n)

    def term(slots):
        return (rng.choice(syms),), slots, rng.randrange(-3, 4)

    for r in range(4):
        left = [term(tuple(rng.choice(syms) for _ in range(r))) for _ in range(12)]
        # the duals of half the left terms, each under two kept keys, so
        # paired-slot keys repeat on the right, and random terms
        right = [
            term(tuple(dual1(ctx, s) for s in s1))
            for _, s1, _ in left[::2]
            for _ in range(2)
        ]
        right += [term(tuple(rng.choice(syms) for _ in range(r))) for _ in range(8)]
        rng.shuffle(right)
        assert len({s2 for _, s2, _ in right}) < len(right)
        got = contract(ctx, iter(left), iter(right))
        want = _contract_all_pairs(ctx, left, right)
        assert got == want, r
        assert want, r


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


def test_quad_cycle_refuses_a_negative_arity():
    ctx = quad_context(4)
    for bad in (lambda: QuadCycle(ctx, -1, {}), lambda: one(ctx, -1)):
        with pytest.raises(ValueError, match="negative arity: -1"):
            bad()
    # X^0 is a point: one(ctx, 0) is its unit, on the empty monomial
    assert one(ctx, 0).coeffs == {(): 1}


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
        coeffs = {
            tuple(rng.choice(pool) for _ in range(m)): rng.randint(-3, 3)
            for _ in range(5)
        }
        x = QuadCycle(ctx, m, coeffs)
        zero = QuadCycle(ctx, m, {})
        assert sym(x) == sum((x.permute(q) for q in perms), zero), m
        assert alternating_sym(x) == sum((x.permute(q) for q in even), zero), m


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
    assert primordial_shape(ctx3, 1, [0] * ctx3.d).cycle == rho_i(ctx3, 1).mod2()


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
    # and it commutes with the slot maps, the symmetrizations and the
    # correspondence action, which every mod-2 identity on X^m goes through
    rng = random.Random(11)
    for n in (3, 4):
        ctx = quad_context(n)
        for _ in range(10):
            x, y = rand_cycle(ctx, 2, rng), rand_cycle(ctx, 2, rng)
            assert (x * y).mod2() == x.mod2() * y.mod2()
            assert external(x, y).mod2() == external(x.mod2(), y.mod2())
            a = Correspondence(x, 1, 1)
            b = Correspondence(y, 1, 1)
            assert compose(b, a).cycle.mod2() == compose(
                Correspondence(y.mod2(), 1, 1), Correspondence(x.mod2(), 1, 1)
            ).cycle
            z = rand_cycle(ctx, 1, rng)
            assert action(a, z).mod2() == action(Correspondence(x.mod2(), 1, 1), z.mod2())
            for f in (
                sym, alternating_sym, swap_ruling,
                lambda q: q.permute([1, 0]),
                lambda q: q.push_proj([1]),
                lambda q: q.pull_proj(3, [2, 0]),
                lambda q: q.pull_diagonal([0, 0], 1),
            ):
                assert f(x).mod2() == f(x.mod2())


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


def test_adjacent_transpositions_decide_symmetry_as_every_permutation_does():
    # cor315's check tries the m - 1 adjacent transpositions, which generate S_m
    rng = random.Random(19)
    for n in (3, 4, 6):
        ctx = quad_context(n)
        halves = monomial_cycle(ctx, [("h", 1), ("h", 1), ("l", 0)])
        assert halves.permute([1, 0, 2]) == halves  # symmetric in slots 0 and 1 only
        cases = [halves]
        for m in (1, 2, 3, 4):
            x = rand_cycle(ctx, m, rng)
            cases += [x, sym(x), x + x.permute(list(reversed(range(m))))]
        verdicts = [_symmetric_check(x) for x in cases]
        assert verdicts == [
            all(x.permute(perm) == x for perm in itertools.permutations(range(x.m)))
            for x in cases
        ]
        assert verdicts[0] is False and True in verdicts and False in verdicts[1:]


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
    # a sign run inside an expression folds; a trailing one is an error
    h = h_power_cycle(ctx, 1)
    assert parse_cycle(ctx, "h - - h") == h.scale(2)
    for text in ("h -", "h +", "h - -", "h + -", "h*h - l1 +"):
        with pytest.raises(ValueError, match="ends in a sign"):
            parse_cycle(ctx, text)


def test_strict_codim_errors_on_mixed_degrees():
    ctx = quad_context(3)
    mixed = one(ctx, 1) + l_cycle(ctx, 0)
    with pytest.raises(ValueError, match="inhomogeneous"):
        mixed.codim()
    assert not mixed.is_homogeneous()


def test_symmetrizations_stop_at_the_factor_bound():
    from quadchow.quadpow import MAX_SYM_FACTORS
    from quadchow.weyl import RangeError

    ctx = quad_context(16)
    assert MAX_SYM_FACTORS == 8
    for m in (MAX_SYM_FACTORS, MAX_SYM_FACTORS + 1):
        # m distinct factors: every reordering is its own monomial
        x = external_list([h_power_cycle(ctx, a) for a in range(m)])
        if m <= MAX_SYM_FACTORS:
            assert len(sym(x).coeffs) == 40320
            assert len(alternating_sym(x).coeffs) == 20160
        else:
            for f in (sym, alternating_sym):
                with pytest.raises(RangeError, match="over 9 factors"):
                    f(x)
