"""Mixed cycles, the incidence class, and the correspondence machinery."""

import gc
import random
import weakref

import pytest

from quadchow.bridge import (
    MixedCycle,
    _incidence_power,
    alpha,
    eta,
    flag_cycle_to_quad,
    incidence_class,
    eta_pushdown,
    eta_pushdown_expansion,
    action_via_pullpush,
    degree_congruence,
    theta,
    theta_action,
    theta_prime,
    validate_incidence,
)
from quadchow.quadpow import (
    Correspondence,
    QuadCycle,
    action,
    basis_symbols,
    codim1,
    compose,
    diagonal_class,
    external,
    h_power_cycle,
    l_cycle,
    monomial_cycle,
    one,
    quad_context,
    rho_i,
    sym_h_chain,
)
from quadchow.schubert import FlagCycle, FlagModel, build_geometry
from quadchow.weyl import RangeError
from rulings import SigmaImage


def permute_x(x: MixedCycle, perm) -> MixedCycle:
    """Pushforward along the X-factor permutation sending slot t to perm[t]."""
    return x._map_x(lambda q: q.permute(perm))


def test_incidence_gate():
    for n in (3, 4, 5):
        G = build_geometry(n)
        for i in range(G.d + 1):
            validate_incidence(G, i)


def test_incidence_cache_belongs_to_its_model():
    G1, G2 = FlagModel(5), FlagModel(5)
    inc1, inc2 = incidence_class(G1, 1), incidence_class(G2, 1)
    assert inc1 is not inc2
    assert inc1.model is G1 and inc2.model is G2
    assert incidence_class(G1, 1) is inc1
    # the powers sit in G1's memo; every power refers back to G1, so G1 can
    # only be collected once no power is alive
    powers = [eta(G1, 2), theta(G1, 2, 2), alpha(G1, 1).cycle]
    assert G1.bridge_memo[(2, 2, 0)] is powers[0]
    assert G1.bridge_memo[(2, 3, 2)] is powers[1]
    # the X window table belongs to the model, not to the memo
    flag_cycle_to_quad(G1, G1.class_Z(0, 4))
    assert all(len(key) == 3 for key in G1.bridge_memo)
    assert not G2.bridge_memo.keys() - {(1, 1, 0)}
    ref = weakref.ref(G1)
    del G1, inc1, powers
    gc.collect()
    assert ref() is None


MODELS = [3, 4, 5, 6, 7]


def _left_fold(G, i, m, p):
    """The reference power: inc.pull_x(m, [0]) * ... * inc.pull_x(m, [m-1])."""
    inc = incidence_class(G, i, p)
    total = inc.pull_x(m, [0])
    for j in range(1, m):
        total = total * inc.pull_x(m, [j])
    return total


@pytest.mark.parametrize("n", MODELS)
def test_incidence_powers_match_the_left_fold(n):
    G = build_geometry(n)
    for p in (0, 2):
        for i in range(1, G.d + 1):
            for m in range(1, i + 2):
                got = _incidence_power(G, i, m, p)
                assert got == _left_fold(G, i, m, p), (n, p, i, m)
                assert _incidence_power(G, i, m, p) is got
            assert eta(G, i, p) is _incidence_power(G, i, i, p)
            assert theta(G, i, p) is _incidence_power(G, i, i + 1, p)
            assert incidence_class(G, i, p) is _incidence_power(G, i, 1, p)


@pytest.mark.parametrize("n", [5, 6])
def test_incidence_powers_do_not_depend_on_build_order(n):
    theta_first, eta_first = FlagModel(n), FlagModel(n)
    for p in (0, 2):
        for i in range(1, theta_first.d + 1):
            th = theta(theta_first, i, p)
            et = eta(eta_first, i, p)
            assert th.coeffs == theta(eta_first, i, p).coeffs
            assert et.coeffs == eta(theta_first, i, p).coeffs
            assert alpha(theta_first, i, p).cycle == alpha(eta_first, i, p).cycle


def test_incidence_power_ranges_hold_on_a_warm_memo():
    G = build_geometry(6)
    for i in range(1, G.d + 1):
        theta(G, i)
        eta(G, i, 2)
    bad_calls = [
        lambda: theta(G, 0),
        lambda: eta(G, 0, 2),
        lambda: eta(G, G.d + 1),
        lambda: theta(G, G.d + 1, 2),
        lambda: alpha(G, 0),
        lambda: incidence_class(G, G.d + 1),
        lambda: incidence_class(G, -1),
    ]
    for bad in bad_calls:
        with pytest.raises(RangeError):
            bad()
    incidence_class(G, 0)
    assert (0, 1, 0) in G.bridge_memo and (0, 2, 0) not in G.bridge_memo


def test_incidence_zero_is_diagonal():
    for n in (3, 4):
        G = build_geometry(n)
        inc0 = incidence_class(G, 0)
        got = {}
        for (_, w, mono), c in inc0.coeffs.items():
            q = flag_cycle_to_quad(G, FlagCycle(G, [0], {(0, w): 1}))
            ((sym0,),) = q.coeffs.keys()
            got[(sym0, mono[0])] = c
        assert got == dict(diagonal_class(G.ctx).coeffs)
    # a cycle on any other F(I) is refused
    G = build_geometry(5)
    for x in (G.fundamental([1]), G.point_class([1]), G.zero([0, 1]), G.class_Z(1, 3)):
        with pytest.raises(ValueError, match="expected a cycle on X"):
            flag_cycle_to_quad(G, x)


def test_incidence_action_anchors():
    for n in (3, 4, 5):
        G = build_geometry(n)
        ctx = G.ctx
        for i in range(1, G.d + 1):
            inc = incidence_class(G, i)
            # action on l_0 is the top Z-class; action on h^i the fundamental class
            assert inc.action_on_quad(l_cycle(ctx, 0)) == G.class_Z(i, n - i)
            assert inc.action_on_quad(h_power_cycle(ctx, i)) == G.class_W(i, 0)


def test_incidence_kunneth_shape_mod2():
    # the mod-2 Kunneth shape with the middle substitution keyed to n mod 4
    for n in (4, 5, 6):
        G = build_geometry(n)
        ctx, d = G.ctx, G.d
        for i in range(1, d + 1):
            inc = incidence_class(G, i, 2)
            expected = {}
            # sheet 1 is the other ruling, the sigma-image of the model, and
            # is stored moved back onto the model; each sheet is read off
            # sheet 0 of its own ruling's classes
            sheets = [G, SigmaImage(G)] if G.sheets([i]) == 2 else [G]
            for sheet, model in enumerate(sheets):
                part = {}

                def sheet0(x):
                    return {w: c for (k, w), c in x.coeffs.items() if k == 0}

                def z_of(j, model=model):
                    x = G.x_class(("l", n - i - j), 2)
                    return model.pullpush(FlagCycle(model, [0], x.coeffs, 2), [i])

                for m in range(0, d + 1):
                    zc = z_of(n - i - m)
                    for hsym, hc in h_power_cycle(ctx, m, 2).coeffs.items():
                        for w, c in sheet0(zc).items():
                            key = (w, hsym)
                            part[key] = (part.get(key, 0) + c * hc) % 2
                for m in range(i, d + 1):
                    wcls = model.class_W(i, m - i, 2)
                    if n % 2 == 0 and m == d:
                        target = ("lp", d) if n % 4 == 0 else ("l", d)
                    else:
                        target = ("l", m)
                    for w, c in sheet0(wcls).items():
                        key = (w, (target,))
                        part[key] = (part.get(key, 0) + c) % 2
                if model is not G:
                    part = {(model.sigma[w], mono): c for (w, mono), c in part.items()}
                expected.update({(sheet, w, mono): c for (w, mono), c in part.items() if c})
            assert expected == inc.coeffs, (n, i)


def test_eta_theta_symmetry_and_codim():
    for n in (3, 4, 5):
        G = build_geometry(n)
        ctx = G.ctx
        for i in range(1, G.d + 1):
            th = theta(G, i)
            assert eta(G, i).arity == i
            # symmetric under permuting the X factors
            perm = list(range(1, i + 1)) + [0]
            assert permute_x(th, perm) == th
            # homogeneous of the incidence-variety codimension
            for _, w, mono in th.coeffs:
                total = G.group._lengths[w] + sum(codim1(ctx, s) for s in mono)
                assert total == (i + 1) * (n - i)
            assert eta(G, 1, 0) == incidence_class(G, 1, 0)


def test_theta_action_routes_agree():
    for n in (3, 4, 5):
        G = build_geometry(n)
        ctx = G.ctx
        for i in range(1, G.d + 1):
            corr = Correspondence(theta_action(G, i, 2), 1, i)
            for s in basis_symbols(ctx):
                x = monomial_cycle(ctx, [s], p=2)
                assert action(corr, x) == action_via_pullpush(G, i, x), (n, i, s)


def test_theta_action_dimension_vanishing():
    # action on low h-powers dies for dimension reasons
    for n in (5, 6):
        G = build_geometry(n)
        ctx = G.ctx
        for i in range(2, G.d + 1):
            corr = Correspondence(theta_action(G, i, 2), 1, i)
            for k in range(1, i):
                assert action(corr, h_power_cycle(ctx, k, 2)).is_zero()


def test_alpha_action_formula_cases():
    for n in (3, 4, 5):
        G = build_geometry(n)
        ctx, d = G.ctx, G.d
        for i in range(1, d + 1):
            al = alpha(G, i, p=2)
            got0 = action(al, h_power_cycle(ctx, 0, 2))
            assert got0 == sym_h_chain(ctx, list(range(1, i)) + [0], 2)
            for k in range(i, d + 1):
                got = action(al, h_power_cycle(ctx, k, 2))
                assert got == sym_h_chain(ctx, list(range(1, i)) + [k], 2)


def test_eta_pushdown_routes_agree_example():
    G = build_geometry(5)
    assert eta_pushdown(G, 2, 2) == eta_pushdown_expansion(G, 2, 2)
    # the extra top term vanishes: pullpush(w^i_{d-i} . w^i_{d-i}) = 0
    for n in (5, 6, 7):
        Gn = build_geometry(n)
        d = Gn.d
        for i in range(2, d + 1):
            w = Gn.class_W(i, d - i, 2)
            assert Gn.pullpush(w * w, [i - 1]).is_zero(), (n, i)


def test_degree_congruence_examples():
    G = build_geometry(5)
    assert degree_congruence(G, 1, 2, 1, (2,)) == 1
    assert degree_congruence(G, 1, 2, 1, (1,)) == 0
    with pytest.raises(ValueError, match="out of range"):
        degree_congruence(G, G.d, 2, 1, (1,))
    with pytest.raises(ValueError, match="sorted"):
        degree_congruence(build_geometry(6), 2, 3, 1, (2, 1))


def test_theta_prime_action_table_small():
    for n in (3, 4):
        G = build_geometry(n)
        ctx = G.ctx
        for i in range(1, G.d + 1):
            tp = theta_prime(G, i)
            I = frozenset([0, i])
            # the one nonzero pattern: h^k in the first slot, a point in the second
            got = tp.action_on_quad(external(one(ctx, 1, 2), l_cycle(ctx, 0, 2)))
            exp = G.pullback(I, G.h_power(0, 2)) * G.pullback(I, G.class_Z(i, n - i, 2))
            assert got == exp
            # reversed slots give zero
            swapped = tp.action_on_quad(external(l_cycle(ctx, 0, 2), one(ctx, 1, 2)))
            assert swapped.is_zero()
            if i >= 2:
                assert tp.action_on_quad(
                    external(h_power_cycle(ctx, 1, 2), one(ctx, 1, 2))
                ).is_zero()


def test_mixed_cycle_algebra():
    G = build_geometry(4)
    ctx = G.ctx
    a = MixedCycle.from_quad(G, [1], h_power_cycle(ctx, 1))
    b = MixedCycle.from_flag(G.class_W(1, 1), 1)
    assert (a + b) - b == a
    assert a * b == b * a
    with pytest.raises(ValueError, match="mismatch"):
        a + MixedCycle.from_quad(G, [1], one(ctx, 2))


def test_mixed_slot_maps_reject_bad_slots():
    th = theta(build_geometry(5), 1)
    zero = th.scale(0)
    for x in (th, zero):
        with pytest.raises(ValueError, match="invalid factor"):
            permute_x(x, [0, 0])
        with pytest.raises(ValueError, match="invalid factor"):
            x.pull_x(1, [0])
        with pytest.raises(ValueError, match="invalid factor"):
            x.pull_x(3, [0, 0])
        with pytest.raises(ValueError, match="invalid factor"):
            x.push_x([5])


def _random_quad_cycle(ctx, m, rng, p):
    syms = basis_symbols(ctx)
    coeffs = {
        tuple(rng.choice(syms) for _ in range(m)): rng.randint(-3, 3) for _ in range(6)
    }
    return QuadCycle(ctx, m, coeffs, p)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_mixed_slot_maps_match_quad_cycle(n):
    # x (x) q for a flag cycle x and a quadric-power cycle q: each leg's maps
    # act on its own factor alone
    G = build_geometry(n)
    ctx, d = G.ctx, G.d
    rng = random.Random(n)

    def lift(x, q):
        return MixedCycle.from_flag(x, q.m) * MixedCycle.from_quad(G, x.I, q)

    flags = [G.fundamental([d]), G.class_W(d, 0) + G.class_Z(d, n - d)]
    for seed_case in range(4):
        p = 2 if seed_case % 2 else 0
        q = _random_quad_cycle(ctx, 3, rng, p)
        for x in flags + [_random_flag_cycle(G, [d], rng, p)]:
            x = x.mod2() if p else x
            mixed = lift(x, q)
            assert mixed.pull_x(4, [2, 0, 3]) == lift(x, q.pull_proj(4, [2, 0, 3]))
            assert mixed.push_x([2, 0]) == lift(x, q.push_proj([2, 0]))
            assert mixed.push_x([]) == lift(x, q.push_proj([]))
            assert permute_x(mixed, [1, 2, 0]) == lift(x, q.permute([1, 2, 0]))
        # at even n, [0] and [1] are connected and every set holding d is split
        for I, J in (([0], [0, d]), ([d], [d - 1, d]), ([1], [0, 1, d])):
            x = _random_flag_cycle(G, I, rng, p)
            assert lift(x, q).pull_flag(J) == lift(G.pullback(J, x), q), (I, J)
        for I, J in (([0, d], [0]), ([d - 1, d], [d]), ([0, 1, d], [1])):
            x = _random_flag_cycle(G, I, rng, p)
            assert lift(x, q).push_flag(J) == lift(G.pushforward(J, x), q), (I, J)


def test_flag_leg_maps_check_their_target_on_a_zero_cycle():
    G = build_geometry(6)
    d = G.d
    for p in (0, 2):
        on_g, on_flag = MixedCycle(G, [d], 1, {}, p), MixedCycle(G, [0, d], 2, {}, p)
        with pytest.raises(ValueError):
            on_g.pull_flag([0])  # from the split G_d to a set without d
        with pytest.raises(ValueError):
            on_flag.push_flag([1])  # to a set that is not a subset
        # the zero image still lands on the target
        assert on_g.pull_flag([0, d]) == MixedCycle(G, [0, d], 1, {}, p)
        assert on_flag.push_flag([0]) == MixedCycle(G, [0], 2, {}, p)


def _product_action(a, x):
    """action(a, x) by products: pull x to the source slots, multiply, push the target out."""
    s, m = a.source, a.cycle.m
    return (a.cycle * x.pull_proj(m, range(s))).push_proj(range(s, m))


def _product_compose(b, a):
    """compose(b, a) by products on X^{s+t+u}, integrating the middle block."""
    s, t, m = a.source, a.target, a.cycle.m + b.target
    ab = a.cycle.pull_proj(m, range(s + t)) * b.cycle.pull_proj(m, range(s, m))
    return ab.push_proj(list(range(s)) + list(range(s + t, m)))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_slot_pairings_agree_with_products(n):
    # compose, action, id_times_action and action_on_quad all pair slots by one
    # contract; each must equal its product-and-integrate definition
    G = build_geometry(n)
    ctx = G.ctx
    rng = random.Random(1000 + n)
    for p in (0, 2):
        for s, t in ((1, 1), (2, 1), (1, 2), (2, 0)):
            a = Correspondence(_random_quad_cycle(ctx, s + t, rng, p), s, t)
            b = Correspondence(_random_quad_cycle(ctx, t + 1, rng, p), t, 1)
            x = _random_quad_cycle(ctx, s, rng, p)
            assert action(a, x) == compose(a, Correspondence(x, 0, s)).cycle
            assert action(a, x) == _product_action(a, x)
            assert compose(b, a).cycle == _product_compose(b, a)
        for i in range(G.d + 1):
            I = [i]
            M = _random_mixed_cycle(G, I, 2, rng, p)
            for r in (0, 1):
                x = _random_quad_cycle(ctx, r + 2, rng, p)
                kept = M.id_times_action(x)
                oracle = M.pull_x(r + 2, [r, r + 1]) * MixedCycle.from_quad(G, I, x)
                assert kept == oracle.push_x(range(r)), (p, i, r)
            # action_on_quad is the sheet split of id_times_action with no kept slot
            x = _random_quad_cycle(ctx, 2, rng, p)
            split = {(k, w): c for (k, w, _), c in M.id_times_action(x).coeffs.items()}
            assert M.action_on_quad(x) == FlagCycle(G, I, split, p)


def test_correspondence_actions_check_their_argument():
    # each action refuses what the product route's SparseCycle._check refuses
    G = build_geometry(5)
    e = eta(G, 1, 2)
    for x in (G.class_Z(1, 3), build_geometry(6).class_Z(1, 4, 2), G.class_Z(2, 2, 2)):
        with pytest.raises(ValueError, match="space/ring mismatch"):
            e.action_on_flag(x)
    assert e.action_on_flag(G.class_Z(1, 3, 2)) == (
        MixedCycle.from_flag(G.class_Z(1, 3, 2), 1) * e
    ).push_to_quad()
    tp = theta_prime(G, 1)
    ctx, other = G.ctx, quad_context(7)
    for q in (
        l_cycle(ctx, 0, 2),  # arity 1 against arity 2
        external(l_cycle(ctx, 0), l_cycle(ctx, 0)),
        external(l_cycle(other, 0, 2), l_cycle(other, 0, 2)),
    ):
        with pytest.raises(ValueError, match="space/ring mismatch"):
            tp.action_on_quad(q)
    for q in (rho_i(ctx, 1, 0), rho_i(other, 1, 2)):
        with pytest.raises(ValueError, match="space/ring mismatch"):
            tp.id_times_action(q)
    with pytest.raises(ValueError, match="arity mismatch"):
        tp.id_times_action(l_cycle(ctx, 0, 2))


def _random_flag_cycle(G, I, rng, p):
    """A seeded, usually inhomogeneous cycle on F(I), with terms on every sheet."""
    coeffs = {}
    basis = G.basis(I)
    for k in range(G.sheets(I)):
        coeffs.update({(k, rng.choice(basis)): rng.randint(-3, 3) for _ in range(rng.randint(1, 5))})
    return FlagCycle(G, I, coeffs, p)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_action_on_flag_matches_product_oracle(n):
    # p_*((x (x) 1) . M) by the full product and push_to_quad, against the dual read-off
    G = build_geometry(n)
    rng = random.Random(100 * n + 1)
    for p in (0, 2):
        for i in range(1, G.d + 1):
            for M in (incidence_class(G, i, p), eta(G, i, p), theta(G, i, p)):
                for _ in range(3):
                    x = _random_flag_cycle(G, [i], rng, p)
                    oracle = (MixedCycle.from_flag(x, M.arity) * M).push_to_quad()
                    assert M.action_on_flag(x) == oracle, (n, p, i, M.arity)


@pytest.mark.parametrize("n", [6, 8])
def test_schubert_memos_belong_to_the_group(n):
    A, B = build_geometry(n), FlagModel(n)
    # both sheets are read on the one model
    assert A.class_W(A.d, 1).model is A and A.sheets([A.d]) == 2
    # the row store and the pair memo hang on the group every model of the
    # quadric shares, keyed by element index alone, with no parabolic in a key
    assert A._reps is B._reps and A.group is B.group
    g = A.group
    assert all(type(k) is int for key in g.pair_products for k in key)
    assert all(type(y) is int for y in g.restriction_rows)
    for w in range(0, len(g), 7):
        assert A.schubert_rep(w) is B.schubert_rep(w)
    u, v = A.basis([0])[1], A.basis([0])[2]
    prod = A.basis_product([0], u, v)
    assert prod
    assert g.pair_products[u, v] is prod
    assert A.basis_product([0, 1], v, u) is prod
    assert B.basis_product([0, 1, A.d], u, v) is prod


def _random_mixed_cycle(G, I, arity, rng, p):
    """A seeded, usually inhomogeneous mixed cycle with terms on every sheet."""
    syms = basis_symbols(G.ctx)
    coeffs = {}
    basis = G.basis(I)
    for k in range(G.sheets(I)):
        for _ in range(rng.randint(1, 4)):
            mono = tuple(rng.choice(syms) for _ in range(arity))
            coeffs[(k, rng.choice(basis), mono)] = rng.randint(-3, 3)
    return MixedCycle(G, I, arity, coeffs, p)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_mixed_product_is_a_ring_and_pull_x_a_ring_map(n):
    # the incidence-power recursion rests on these three laws
    G = build_geometry(n)
    rng = random.Random(10 * n + 1)
    for p in (0, 2):
        for i in range(G.d + 1):
            I = [i]
            for _ in range(2):
                a, b, c = (_random_mixed_cycle(G, I, 2, rng, p) for _ in range(3))
                assert a * b == b * a
                assert (a * b) * c == a * (b * c)
                for m, slots in ((2, [1, 0]), (3, [2, 0]), (4, [1, 3])):
                    assert (a * b).pull_x(m, slots) == a.pull_x(m, slots) * b.pull_x(m, slots)
