"""Mixed cycles, the incidence class, and the correspondence machinery."""

import gc
import io
import itertools
import random
import weakref
from contextlib import redirect_stdout

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
    powers = [eta(G1, 2), theta(G1, 2), alpha(G1, 1).cycle]
    assert G1._classes["_power", 2, 2] is powers[0]
    assert G1._classes["_power", 2, 3] is powers[1]
    assert G1._classes["theta_action", 1] is theta_action(G1, 1)
    # the X window table belongs to the model, not to the memo
    z = G1.class_Z(0, 4)
    stored = set(G1._classes)
    flag_cycle_to_quad(G1, z)
    assert set(G1._classes) == stored
    assert {key for key in G2._classes if key[0] == "_power"} == {("_power", 1, 1)}
    ref = weakref.ref(G1)
    del G1, inc1, powers, z
    gc.collect()
    assert ref() is None


MODELS = [3, 4, 5, 6, 7, 8]


def _left_fold(G, i, m):
    """The reference power: inc.pull_x(m, [0]) * ... * inc.pull_x(m, [m-1])."""
    inc = incidence_class(G, i)
    total = inc.pull_x(m, [0])
    for j in range(1, m):
        total = total * inc.pull_x(m, [j])
    return total


@pytest.mark.parametrize("n", MODELS)
def test_incidence_powers_match_the_left_fold(n):
    G = build_geometry(n)
    for i in range(1, G.d + 1):
        for m in range(1, i + 2):
            got = _incidence_power(G, i, m)
            assert got == _left_fold(G, i, m), (n, i, m)
            assert _incidence_power(G, i, m) is got
        assert eta(G, i) is _incidence_power(G, i, i)
        assert theta(G, i) is _incidence_power(G, i, i + 1)
        assert incidence_class(G, i) is _incidence_power(G, i, 1)


@pytest.mark.parametrize("n", [5, 6])
def test_incidence_powers_do_not_depend_on_build_order(n):
    theta_first, eta_first = FlagModel(n), FlagModel(n)
    for i in range(1, theta_first.d + 1):
        th = theta(theta_first, i)
        et = eta(eta_first, i)
        assert th.coeffs == theta(eta_first, i).coeffs
        assert et.coeffs == eta(theta_first, i).coeffs
        assert alpha(theta_first, i).cycle == alpha(eta_first, i).cycle


def test_incidence_powers_refuse_indices_that_are_not_ints():
    G = FlagModel(6)
    theta_action(G, 1)
    incidence_class(G, 1)
    classes = set(G._classes)
    for bad in (lambda: theta_action(G, 1.0), lambda: incidence_class(G, True),
                lambda: eta(G, 2.0), lambda: _incidence_power(G, 1, 1.0)):
        with pytest.raises(ValueError, match="indices must be integers"):
            bad()
    assert set(G._classes) == classes


def test_from_flag_refuses_a_negative_arity():
    G = build_geometry(4)
    x = G.class_O1(1)
    with pytest.raises(ValueError, match="negative arity"):
        MixedCycle.from_flag(x, -1)
    # arity 0 is the flag cycle itself, as prop51 uses it at i = 1
    coeffs = {(k, w, ()): c for (k, w), c in x.coeffs.items()}
    assert MixedCycle.from_flag(x, 0) == MixedCycle(G, x.I, 0, coeffs)


def test_mixed_cycle_refuses_a_negative_arity():
    # the constructor itself, not only from_flag: no X^-2 space
    G = build_geometry(4)
    with pytest.raises(ValueError, match="negative arity: -2"):
        MixedCycle(G, [0], -2, {})
    assert MixedCycle(G, [0], 0, {}).arity == 0


def test_incidence_power_ranges_hold_on_a_warm_memo():
    G = FlagModel(6)
    for i in range(1, G.d + 1):
        theta(G, i)
        theta_action(G, i)
    bad_calls = [
        lambda: theta(G, 0),
        lambda: eta(G, 0),
        lambda: eta(G, G.d + 1),
        lambda: theta(G, G.d + 1),
        lambda: theta_action(G, 0),
        lambda: theta_action(G, G.d + 1),
        lambda: alpha(G, 0),
        lambda: incidence_class(G, G.d + 1),
        lambda: incidence_class(G, -1),
    ]
    classes = set(G._classes)
    for bad in bad_calls:
        with pytest.raises(RangeError):
            bad()
    # each index is refused before any class is built
    assert set(G._classes) == classes
    incidence_class(G, 0)
    assert ("_power", 0, 1) in G._classes and ("_power", 0, 2) not in G._classes


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
            inc = incidence_class(G, i).mod2()
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
                    x = G.x_class(("l", n - i - j))
                    return model.pullpush(FlagCycle(model, [0], x.coeffs), [i])

                for m in range(0, d + 1):
                    zc = z_of(n - i - m)
                    for hsym, hc in h_power_cycle(ctx, m).coeffs.items():
                        for w, c in sheet0(zc).items():
                            key = (w, hsym)
                            part[key] = (part.get(key, 0) + c * hc) % 2
                for m in range(i, d + 1):
                    wcls = model.class_W(i, m - i)
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
            assert eta(G, 1) == incidence_class(G, 1)


def test_theta_action_routes_agree():
    for n in (3, 4, 5):
        G = build_geometry(n)
        ctx = G.ctx
        for i in range(1, G.d + 1):
            corr = Correspondence(theta_action(G, i), 1, i)
            for s in basis_symbols(ctx):
                x = monomial_cycle(ctx, [s])
                assert action(corr, x) == action_via_pullpush(G, i, x), (n, i, s)


@pytest.mark.parametrize("n", MODELS)
def test_theta_action_by_degrees_matches_theta_on_the_top_z(n):
    # the degree walk against theta_i built in full and read by action_on_flag
    G = build_geometry(n)
    for i in range(1, G.d + 1):
        z = G.class_Z(i, n - i)
        assert theta_action(G, i) == theta(G, i).action_on_flag(z), i


def test_a_cold_alpha_builds_no_theta(cold_engine):
    for n in (5, 6, 7):
        G = cold_engine(n)
        for i in range(1, G.d + 1):
            alpha(G, i)
            assert ("_power", i, i + 1) not in G._classes, (n, i)
        # only the incidence classes, whose Kunneth coefficients the walk reads
        assert all(key[2] == 1 for key in G._classes if key[0] == "_power"), n


def test_a_cold_verify_walks_from_each_top_z_once(cold_engine, monkeypatch):
    # prop31 and cor315 act by alpha_i and lemma32 by theta_i's action, each
    # for every i: the memoised action walks from Z^i_(n-i) once per i
    from quadchow import bridge, cli

    walk, starts = bridge._walk, []

    def counting(model, i, m, start, floor=0):
        if start.codim() > 0:  # the top Z-class, not the fundamental class
            starts.append(i)
        return walk(model, i, m, start, floor)

    monkeypatch.setattr(bridge, "_walk", counting)
    cold_engine(7)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "all", "--n", "7", "--seed", "0"]) == 0
    assert sorted(starts) == [1, 2, 3]


def test_theta_action_dimension_vanishing():
    # action on low h-powers dies for dimension reasons
    for n in (5, 6):
        G = build_geometry(n)
        ctx = G.ctx
        for i in range(2, G.d + 1):
            corr = Correspondence(theta_action(G, i), 1, i)
            for k in range(1, i):
                assert action(corr, h_power_cycle(ctx, k)).is_zero()


def test_alpha_action_formula_cases():
    for n in (3, 4, 5):
        G = build_geometry(n)
        ctx, d = G.ctx, G.d
        for i in range(1, d + 1):
            al = alpha(G, i)
            got0 = action(al, h_power_cycle(ctx, 0)).mod2()
            assert got0 == sym_h_chain(ctx, list(range(1, i)) + [0]).mod2()
            for k in range(i, d + 1):
                got = action(al, h_power_cycle(ctx, k)).mod2()
                assert got == sym_h_chain(ctx, list(range(1, i)) + [k]).mod2()


def test_eta_pushdown_routes_agree_example():
    G = build_geometry(5)
    assert eta_pushdown(G, 2, 2) == eta_pushdown_expansion(G, 2, 2)
    # the extra top term vanishes: pullpush(w^i_{d-i} . w^i_{d-i}) = 0
    for n in (5, 6, 7):
        Gn = build_geometry(n)
        d = Gn.d
        for i in range(2, d + 1):
            w = Gn.class_W(i, d - i)
            assert Gn.pullpush(w * w, [i - 1]).mod2().is_zero(), (n, i)


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
            got = tp.action_on_quad(external(one(ctx, 1), l_cycle(ctx, 0)).mod2())
            exp = G.pullback(I, G.h_power(0)) * G.pullback(I, G.class_Z(i, n - i))
            assert got == exp.mod2()
            # reversed slots give zero
            swapped = tp.action_on_quad(external(l_cycle(ctx, 0), one(ctx, 1)).mod2())
            assert swapped.is_zero()
            if i >= 2:
                assert tp.action_on_quad(
                    external(h_power_cycle(ctx, 1), one(ctx, 1)).mod2()
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


def test_from_quad_takes_only_a_cycle_of_the_models_quadric():
    G = build_geometry(5)
    for x in (h_power_cycle(quad_context(7), 3), QuadCycle(quad_context(7), 1, {})):
        with pytest.raises(ValueError, match="space/ring mismatch"):
            MixedCycle.from_quad(G, [0], x)
    for I in ([G.d + 1], [-1, 0]):
        with pytest.raises(RangeError, match="flag index out of range"):
            MixedCycle.from_quad(G, I, h_power_cycle(G.ctx, 1))
    # a cycle of the model's own quadric goes on every sheet's unit, in its ring
    want = MixedCycle(G, [0, 2], 1, {(0, 0, (("h", 1),)): 1}, 2)
    assert MixedCycle.from_quad(G, [0, 2], h_power_cycle(G.ctx, 1).mod2()) == want


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


def _random_quad_cycle(ctx, m, rng, p=0):
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
            assert G.pullback(J, lift(x, q)) == lift(G.pullback(J, x), q), (I, J)
        for I, J in (([0, d], [0]), ([d - 1, d], [d]), ([0, 1, d], [1])):
            x = _random_flag_cycle(G, I, rng, p)
            assert G.pushforward(J, lift(x, q)) == lift(G.pushforward(J, x), q), (I, J)


def test_flag_leg_maps_check_their_target_on_a_zero_cycle():
    G = build_geometry(6)
    d = G.d
    on_g, on_flag = MixedCycle(G, [d], 1, {}), MixedCycle(G, [0, d], 2, {})
    with pytest.raises(ValueError):
        G.pullback([0], on_g)  # from the split G_d to a set without d
    with pytest.raises(ValueError):
        G.pushforward([1], on_flag)  # to a set that is not a subset
    # the zero image still lands on the target
    assert G.pullback([0, d], on_g) == MixedCycle(G, [0, d], 1, {})
    assert G.pushforward([0], on_flag) == MixedCycle(G, [0], 2, {})


def _by_monomial(move, x: MixedCycle, target) -> MixedCycle:
    """The reference route for a flag-leg map: group x's terms by X-monomial,
    move each group as a FlagCycle, and reassemble on F(target) x X^m."""
    groups = {}
    for (k, w, mono), c in x.coeffs.items():
        groups.setdefault(mono, {})[(k, w)] = c
    out = {}
    for mono, coeffs in groups.items():
        for (k, w), c in move(FlagCycle(x.model, x.I, coeffs, x.p)).coeffs.items():
            out[(k, w, mono)] = c
    return MixedCycle(x.model, target, x.arity, out, x.p)


@pytest.mark.parametrize("n", range(3, 9))
def test_flag_maps_on_mixed_cycles_match_the_monomial_by_monomial_route(n):
    # pullback and pushforward carry the X-monomial of each key along, so
    # they agree with moving one X-monomial group at a time, on every pair
    # J < I; at even n that takes in every connected -> split pair
    G = build_geometry(n)
    d = G.d
    rng = random.Random(1000 + n)
    sets = [frozenset(c) for r in range(1, d + 2) for c in itertools.combinations(range(d + 1), r)]
    pairs = [(J, I) for I in sets for J in sets if J < I]
    assert (n % 2 == 0) == any(G.sheets(J) < G.sheets(I) for J, I in pairs)
    for J, I in pairs:
        m, p = rng.randint(0, 3), rng.choice((0, 2))
        x, y = _random_mixed_cycle(G, J, m, rng), _random_mixed_cycle(G, I, m, rng)
        if p:
            x, y = x.mod2(), y.mod2()
        assert G.pullback(I, x) == _by_monomial(lambda f: G.pullback(I, f), x, I), (J, I)
        assert G.pushforward(J, y) == _by_monomial(lambda f: G.pushforward(J, f), y, J), (I, J)
        # the range and subset checks hold on a zero mixed cycle too
        zero_J, zero_I = MixedCycle(G, J, m, {}, p), MixedCycle(G, I, m, {}, p)
        with pytest.raises(ValueError, match="subset"):
            G.pullback(J, zero_I)
        with pytest.raises(ValueError, match="subset"):
            G.pushforward(I, zero_J)
        with pytest.raises(RangeError):
            G.pullback(I | {d + 1}, zero_J)
    # incidence powers: pulled from G_i to F(i, j) and pushed on to G_j
    for i in range(1, d + 1):
        for m in (1, 2):
            x = _incidence_power(G, i, m)
            for j in range(d + 1):
                I = frozenset((i, j))
                pulled = G.pullback(I, x)
                assert pulled == _by_monomial(lambda f: G.pullback(I, f), x, I), (i, j, m)
                pushed = G.pushforward([j], pulled)
                assert pushed == _by_monomial(lambda f: G.pushforward([j], f), pulled, [j])
                assert G.pullpush(x, [j]) == pushed


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
    for s, t in ((1, 1), (2, 1), (1, 2), (2, 0)):
        a = Correspondence(_random_quad_cycle(ctx, s + t, rng), s, t)
        b = Correspondence(_random_quad_cycle(ctx, t + 1, rng), t, 1)
        x = _random_quad_cycle(ctx, s, rng)
        assert action(a, x) == compose(a, Correspondence(x, 0, s)).cycle
        assert action(a, x) == _product_action(a, x)
        assert compose(b, a).cycle == _product_compose(b, a)
    for i in range(G.d + 1):
        I = [i]
        M = _random_mixed_cycle(G, I, 2, rng)
        for r in (0, 1):
            x = _random_quad_cycle(ctx, r + 2, rng)
            kept = M.id_times_action(x)
            oracle = M.pull_x(r + 2, [r, r + 1]) * MixedCycle.from_quad(G, I, x)
            assert kept == oracle.push_x(range(r)), (i, r)
        # action_on_quad is the sheet split of id_times_action with no kept slot
        x = _random_quad_cycle(ctx, 2, rng)
        split = {(k, w): c for (k, w, _), c in M.id_times_action(x).coeffs.items()}
        assert M.action_on_quad(x) == FlagCycle(G, I, split)


def test_correspondence_actions_check_their_argument():
    # each action refuses what the product route's SparseCycle._check refuses
    G = build_geometry(5)
    e = eta(G, 1).mod2()
    z = G.class_Z(1, 3).mod2()
    for x in (G.class_Z(1, 3), build_geometry(6).class_Z(1, 4).mod2(), G.class_Z(2, 2).mod2()):
        with pytest.raises(ValueError, match="space/ring mismatch"):
            e.action_on_flag(x)
    assert e.action_on_flag(z) == (MixedCycle.from_flag(z, 1) * e).push_to_quad()
    tp = theta_prime(G, 1)
    ctx, other = G.ctx, quad_context(7)
    for q in (
        l_cycle(ctx, 0).mod2(),  # arity 1 against arity 2
        external(l_cycle(ctx, 0), l_cycle(ctx, 0)),
        external(l_cycle(other, 0), l_cycle(other, 0)).mod2(),
    ):
        with pytest.raises(ValueError, match="space/ring mismatch"):
            tp.action_on_quad(q)
    for q in (rho_i(ctx, 1), rho_i(other, 1).mod2()):
        with pytest.raises(ValueError, match="space/ring mismatch"):
            tp.id_times_action(q)
    with pytest.raises(ValueError, match="arity mismatch"):
        tp.id_times_action(l_cycle(ctx, 0).mod2())


def _random_flag_cycle(G, I, rng, p=0):
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
    for i in range(1, G.d + 1):
        for M in (incidence_class(G, i), eta(G, i), theta(G, i)):
            for _ in range(3):
                x = _random_flag_cycle(G, [i], rng)
                oracle = (MixedCycle.from_flag(x, M.arity) * M).push_to_quad()
                assert M.action_on_flag(x) == oracle, (n, i, M.arity)


@pytest.mark.parametrize("n", [6, 8])
def test_schubert_memos_belong_to_the_model(n, monkeypatch):
    A = build_geometry(n)
    stores = lambda M: (M._rows, M._pairs, M._reps)  # noqa: E731
    seen = []
    identify = FlagModel._identify_quadric_basis

    def spy(self):
        seen.append([dict(store) for store in stores(self)])
        identify(self)

    monkeypatch.setattr(FlagModel, "_identify_quadric_basis", spy)
    B = FlagModel(n)
    # a new model of the quadric builds on empty stores of its own, shares
    # none of build_geometry's, and builds no polynomial
    assert seen == [[{}, {}, {}]]
    assert not any(a is b for a, b in zip(stores(A), stores(B)))
    assert B._reps == {} and "point_rep" not in vars(B)
    # both sheets are read on the one model
    assert A.class_W(A.d, 1).model is A and A.sheets([A.d]) == 2
    # the row store and the pair memo are keyed by element index alone, with
    # no parabolic or sheet in a key, so one product serves every F(I) and sheet
    assert all(type(k) is int for key in A._pairs for k in key)
    assert all(type(y) is int for y in A._rows)
    u, v = A.basis([0])[1], A.basis([0])[2]
    prod = A.basis_product([0], u, v)
    assert prod and A._pairs[u, v] is prod
    assert A.basis_product([0, 1], v, u) is prod
    assert A.basis_product([0, 1, A.d], u, v) is prod
    I = [0, A.d]
    on_sheet1 = FlagCycle(A, I, {(1, u): 1}) * FlagCycle(A, I, {(1, v): 1})
    assert on_sheet1.coeffs == {(1, w): c for w, c in prod.items()}
    # the other model solves its own
    assert B.basis_product([0], u, v) == prod and B._pairs[u, v] is not prod
    for w in range(0, len(A.group), 7):
        assert A.schubert_rep(w) is A.schubert_rep(w)
        assert A.schubert_rep(w) == B.schubert_rep(w) and A._reps[w] is not B._reps[w]


def _random_mixed_cycle(G, I, arity, rng):
    """A seeded, usually inhomogeneous mixed cycle with terms on every sheet."""
    syms = basis_symbols(G.ctx)
    coeffs = {}
    basis = G.basis(I)
    for k in range(G.sheets(I)):
        for _ in range(rng.randint(1, 4)):
            mono = tuple(rng.choice(syms) for _ in range(arity))
            coeffs[(k, rng.choice(basis), mono)] = rng.randint(-3, 3)
    return MixedCycle(G, I, arity, coeffs)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_mixed_product_is_a_ring_and_pull_x_a_ring_map(n):
    # the incidence-power recursion rests on these three laws
    G = build_geometry(n)
    rng = random.Random(10 * n + 1)
    for i in range(G.d + 1):
        I = [i]
        for _ in range(2):
            a, b, c = (_random_mixed_cycle(G, I, 2, rng) for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            for m, slots in ((2, [1, 0]), (3, [2, 0]), (4, [1, 3])):
                assert (a * b).pull_x(m, slots) == a.pull_x(m, slots) * b.pull_x(m, slots)


def _random_homogeneous_cycle(G, I, rng, c):
    """A seeded cycle of codimension c on F(I), with terms on every sheet."""
    basis = [w for w in G.basis(I) if G.group._lengths[w] == c]
    coeffs = {
        (k, rng.choice(basis)): rng.randint(-3, 3)
        for k in range(G.sheets(I))
        for _ in range(rng.randint(1, 3))
    }
    return FlagCycle(G, I, coeffs)


@pytest.mark.parametrize("n", MODELS)
def test_mod2_is_a_ring_map_on_flag_and_mixed_cycles(n):
    # a mod-2 class is its integer class reduced once, so reduction must
    # commute with every operation a mod-2 identity goes through
    G = build_geometry(n)
    ctx, d = G.ctx, G.d
    rng = random.Random(3000 + n)
    r = lambda x: x.mod2()  # noqa: E731
    spaces = [[0], [d], [0, d], [d - 1, d]]
    for I in spaces:
        x, y = (_random_flag_cycle(G, I, rng) for _ in range(2))
        assert r(x * y) == r(x) * r(y), I
        assert r(x + y) == r(x) + r(y), I
        assert G.deg(r(x)) == G.deg(x) % 2, I
        dim = G.dim_flag(I)
        c = rng.randint(0, dim)
        factors = [_random_homogeneous_cycle(G, I, rng, k) for k in (c, dim - c)]
        assert G.deg_product([r(f) for f in factors]) == G.deg_product(factors) % 2, I
        for J in spaces:
            if set(I) <= set(J):
                assert r(G.pullback(J, x)) == G.pullback(J, r(x)), (I, J)
            if set(J) <= set(I):
                assert r(G.pushforward(J, x)) == G.pushforward(J, r(x)), (I, J)
            assert r(G.pullpush(x, J)) == G.pullpush(r(x), J), (I, J)
        a, b = (_random_mixed_cycle(G, I, 2, rng) for _ in range(2))
        assert r(a * b) == r(a) * r(b), I
        assert r(a.pull_x(3, [2, 0])) == r(a).pull_x(3, [2, 0]), I
        assert r(a.push_x([1])) == r(a).push_x([1]), I
        assert r(a.action_on_flag(x)) == r(a).action_on_flag(r(x)), I
        for m in (2, 3):
            q = _random_quad_cycle(ctx, m, rng)
            assert r(a.id_times_action(q)) == r(a).id_times_action(r(q)), (I, m)
        q = _random_quad_cycle(ctx, 2, rng)
        assert r(a.action_on_quad(q)) == r(a).action_on_quad(r(q)), I

