"""Flag-variety Chow rings: basis sizes, functoriality, distinguished classes."""

import itertools
import json
import pathlib
import random
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest

from quadchow.polyring import constant, divided_difference_word, variable
from quadchow.schubert import FlagCycle, _symmetric_function, build_flag_model, build_geometry
from quadchow.weyl import RangeError


def test_model_sizes():
    # full-flag Schubert counts are the Weyl group orders
    M3 = build_flag_model(3)
    assert len(M3.basis(range(M3.d + 1))) == 8
    M5 = build_flag_model(5)
    assert len(M5.basis(range(M5.d + 1))) == 48
    M4 = build_flag_model(4)
    assert len(M4.basis(range(M4.d + 1))) == 24


def test_rejects_degenerate_dimensions():
    with pytest.raises(ValueError, match="out of range"):
        build_flag_model(2)
    with pytest.raises(ValueError, match="out of range"):
        build_flag_model(1)
    with pytest.raises(ValueError, match="out of range"):
        build_flag_model(9)


def test_poincare_ranks_match_length_generating_function():
    for n in (3, 4, 5):
        M = build_flag_model(n)
        G = M.group
        I = list(range(M.d + 1))
        by_len = {}
        for w in M.basis(I):
            by_len[G.length(w)] = by_len.get(G.length(w), 0) + 1
        # oracle: count all Weyl elements by length and divide by |W_P| graded?
        # here P is trivial (full flag), so compare against the raw count
        full = {}
        for w in G.elements:
            full[G.length(w)] = full.get(G.length(w), 0) + 1
        assert by_len == full


def test_quadric_basis_identification():
    for n in (3, 4, 5, 6):
        M = build_flag_model(n)
        h = M.h_class()
        assert h.codim() == 1
        assert M.deg(M.point_class([0])) == 1
        assert M.l_class(0) == M.point_class([0])
        for b in range(M.d + 1):
            assert M.l_class(b).codim() == n - b
        if n % 2 == 0:
            # the two rulings are distinct and sum to the middle h-power
            assert M.l_class(M.d) != M.lp_class()
            assert M.h_power(M.d) == M.l_class(M.d) + M.lp_class()


def test_ruling_naming_is_orientation_swapped():
    for n in (4, 6):
        Mp = build_flag_model(n, 1)
        Mm = build_flag_model(n, -1)
        assert Mm.l_class(Mm.d).coeffs == Mp.lp_class().coeffs
        assert Mm.lp_class().coeffs == Mp.l_class(Mp.d).coeffs


def test_product_ring_axioms():
    M = build_flag_model(5)
    basis = [M.h_power(k) for k in range(3)] + [M.l_class(b) for b in range(3)]
    one = M.fundamental([0])
    for x in basis:
        assert x * one == x
        for y in basis:
            assert x * y == y * x
    a, b, c = basis[1], basis[2], basis[3]
    assert (a * b) * c == a * (b * c)


def test_pullback_is_ring_homomorphism():
    M = build_flag_model(5)
    h = M.h_class()
    hh = h * h
    ph = M.pullback([0, 1], h)
    assert ph * ph == M.pullback([0, 1], hh)
    # functoriality through a chain
    via = M.pullback([0, 1, 2], M.pullback([0, 1], h))
    assert via == M.pullback([0, 1, 2], h)
    with pytest.raises(ValueError, match="subset"):
        M.pullback([1], h)


def test_projection_formula_exhaustive_small():
    # push(pull(y) * x) = y * push(x), over all basis pairs, n <= 5
    for n in (3, 4, 5):
        M = build_flag_model(n)
        for i in range(1, M.d + 1):
            I = [i - 1, i]
            for y in M.basis([i]):
                ycls = FlagCycle(M, [i], {y: 1})
                pull_y = M.pullback(I, ycls)
                for x in M.basis(I):
                    xcls = FlagCycle(M, I, {x: 1})
                    lhs = M.pushforward([i], pull_y * xcls)
                    rhs = ycls * M.pushforward([i], xcls)
                    assert lhs == rhs, (n, i, y.window, x.window)


def test_pushforward_degree_drop():
    M = build_flag_model(5)
    for i in (1, 2):
        I = [i - 1, i]
        fiber_dim = M.dim_flag(I) - M.dim_flag([i])
        for w in M.basis(I):
            x = FlagCycle(M, I, {w: 1})
            pushed = M.pushforward([i], x)
            if not pushed.is_zero():
                assert pushed.codim() == x.codim() - fiber_dim


def test_projective_bundle_facts():
    for n in (3, 4, 5, 6):
        M = build_flag_model(n)
        for i in range(1, M.d + 1):
            xi = M.class_O1(i)
            power = M.fundamental([i - 1, i])
            for _ in range(i):
                power = power * xi
            assert M.pushforward([i], power) == M.fundamental([i])
            if i >= 2:
                low = M.fundamental([i - 1, i])
                for _ in range(i - 1):
                    low = low * xi
                assert M.pushforward([i], low).is_zero()
            # the projective-bundle relation for the dual tautological bundle
            rel = M.zero([i - 1, i])
            for j in range(0, i + 2):
                term = M.pullback([i - 1, i], M.chern_taut(i, j).scale((-1) ** j))
                for _ in range(i + 1 - j):
                    term = term * xi
                rel = rel + term
            assert rel.is_zero(), (n, i)


def test_pushforward_kills_low_codimension():
    # pushing a class whose codimension is below the fiber dimension gives 0;
    # over a zero-dimensional fiber (one ruling sheet at i = d, even n) the
    # projection is an isomorphism instead
    for n in (4, 5, 6):
        M = build_flag_model(n)
        for i in range(1, M.d + 1):
            pulled = M.pullback([i - 1, i], M.fundamental([i]))
            pushed = M.pushforward([i - 1], pulled)
            fiber = M.dim_flag([i - 1, i]) - M.dim_flag([i - 1])
            if fiber > 0:
                assert pushed.is_zero(), (n, i)
            else:
                assert pushed == M.fundamental([i - 1]), (n, i)


def test_distinguished_class_anchors():
    for n in (3, 4, 5):
        M = build_flag_model(n)
        assert M.class_Z(0, n) == M.l_class(0)
        for i in range(1, M.d + 1):
            assert M.class_W(i, 0) == M.fundamental([i])
            assert M.class_Z(i, n - i).codim() == n - i
            # Z of minimal codim pull-pushes to the fundamental class below
            z = M.class_Z(i, n - 2 * i)
            assert M.pushforward([i - 1], M.pullback([i - 1, i], z)) == M.fundamental(
                [i - 1]
            )
        with pytest.raises(ValueError, match="out of range"):
            M.class_Z(1, n - 1 - M.d - 1)
        with pytest.raises(ValueError, match="out of range"):
            M.class_W(1, n)


def test_chern_classes():
    for n in (3, 4, 5):
        M = build_flag_model(n)
        for i in range(M.d + 1):
            assert M.chern_taut(i, 0) == M.fundamental([i])
            assert M.chern_quot(i, 0) == M.fundamental([i])
            # Whitney: total Chern classes multiply to 1
            top = n + 2
            for k in range(1, top - i):
                acc = M.zero([i])
                for j in range(0, k + 1):
                    try:
                        cj = M.chern_taut(i, j)
                    except ValueError:
                        continue
                    try:
                        cq = M.chern_quot(i, k - j)
                    except ValueError:
                        continue
                    acc = acc + cq * cj
                assert acc.is_zero(), (n, i, k)


def test_deg_and_mod2():
    M = build_flag_model(4)
    assert M.deg(M.point_class([0])) == 1
    assert M.deg(M.h_class()) == 0
    doubled = M.h_class().scale(2)
    assert doubled.mod2().is_zero()
    hh = M.h_class() * M.h_class()
    assert (M.h_class().mod2() * M.h_class().mod2()) == hh.mod2()


def test_geometry_union_layer():
    for n in (4, 6):
        G = build_geometry(n)
        d = G.d
        assert len(G.sheets([d])) == 2
        assert len(G.sheets([0])) == 1
        # W^d_0 is the full fundamental class of the disconnected variety
        assert G.class_W(d, 0) == G.fundamental([d])
        # z^d_0 marks exactly one sheet
        z0 = G.class_Z(d, n - 2 * d)
        nonzero = [not part.is_zero() for part in z0.parts]
        assert sorted(nonzero) == [False, True]
        # pushing the disconnected fundamental class down to F(d-1) doubles
        two = G.pushforward([d - 1], G.pullback([d - 1, d], G.fundamental([d])))
        assert two == G.fundamental([d - 1]).scale(2)


def test_geometry_odd_single_sheet():
    G = build_geometry(5)
    assert G.secondary is None
    assert len(G.sheets([G.d])) == 1


def test_hyperplane_powers_are_memoised(monkeypatch):
    from quadchow.schubert import FlagModel

    M = FlagModel(5)
    calls = []
    expand = M.expand

    def counting(*args, **kwargs):
        calls.append(args)
        return expand(*args, **kwargs)

    monkeypatch.setattr(M, "expand", counting)
    first = M.class_W(1, 1, 2)  # pull-push of h^2 mod 2: one expansion
    assert len(calls) == 1
    assert M.class_W(1, 1, 2) == first
    assert M.h_power(2, 2) is M.h_power(2, 2)
    assert len(calls) == 1


def test_nonintegral_extraction_raises(monkeypatch):
    from fractions import Fraction

    from quadchow.polyring import variable
    from quadchow.schubert import FlagModel

    M = FlagModel(3)
    half_h = variable(M.group.rank, 1).scale(Fraction(1, 2))
    with pytest.raises(ArithmeticError, match=r"nonintegral Schubert coefficient 1/2 at \(2, 1\)"):
        M.expand(half_h, [0])
    I = [0]
    reps = {w: M.schubert_rep(w) for w in (M.top_element(I), M.group.identity)}
    monkeypatch.setattr(M, "schubert_rep", lambda w: reps[w].scale(Fraction(1, 2)))
    # deg_product expands each half of the product, so the expansion raises
    with pytest.raises(ArithmeticError, match="nonintegral Schubert coefficient 1/2"):
        M.deg_product([M.point_class(I), M.fundamental(I)])


def test_deg_product_checks_every_factor():
    M = build_flag_model(4)
    I = [0]
    pt, fund = M.point_class(I).scale(3), M.fundamental(I, 2)
    with pytest.raises(ValueError, match="space/ring mismatch"):
        M.deg_product([pt, fund])
    other = build_flag_model(4, -1)
    with pytest.raises(ValueError, match="space/ring mismatch"):
        M.deg_product([pt, other.fundamental(I)])
    with pytest.raises(ValueError, match="space/ring mismatch"):
        M.deg_product([pt, M.fundamental([1])])
    assert M.deg_product([pt, M.fundamental(I)]) == 3
    with pytest.raises(ValueError, match="empty product"):
        M.deg_product([])
    with pytest.raises(ValueError, match="empty product"):
        build_geometry(4).deg_product([])


def test_index_sets_are_memoised_only_when_valid():
    M = build_flag_model(6)
    assert M.cut_nodes([0, 2]) is M.cut_nodes((2, 0))
    assert M.parabolic([1]) is M.parabolic({1})
    for _ in range(2):
        with pytest.raises(RangeError, match="flag index out of range"):
            M.parabolic([M.d + 1])
        with pytest.raises(RangeError):
            M.basis([0, -1])


# -- degrees by Poincare duality against independent oracles ------------------

DATA = pathlib.Path(__file__).parent / "data"
TABLES = json.loads((DATA / "basis_products.json").read_text())


def test_duality_pairing_matches_frozen_top_coefficients():
    # The frozen product tables come from the earlier engine, which never used
    # the pairing: the top coefficient of s_u s_v must be 1 exactly when v is
    # the dual of u, and deg_product of the pair must read it back, from a
    # cold half memo and then, factors swapped, from a warm one.
    from quadchow.schubert import FlagModel

    for entry in TABLES:
        M = FlagModel(entry["n"], entry["orientation"])
        I = entry["I"]
        products = {
            (tuple(u), tuple(v)): {tuple(w): c for w, c in terms}
            for u, v, terms in entry["products"]
        }
        top, dim = M.top_element(I), M.dim_flag(I)
        dual = M.poincare_dual(I)
        basis = M.basis(I)
        assert set(dual) == set(dual.values()) == set(basis)
        for a, u in enumerate(basis):
            assert dual[dual[u]] == u
            assert M.group.length(dual[u]) == dim - M.group.length(u)
            for v in basis[a:]:
                got = products.get((u.window, v.window), {}).get(top.window, 0)
                assert got == (1 if dual[u] == v else 0), (entry["n"], I, u, v)
                if M.group.length(u) + M.group.length(v) == dim:
                    pair = [FlagCycle(M, I, {u: 1}), FlagCycle(M, I, {v: 1})]
                    assert M.deg_product(pair) == got, (entry["n"], I, u, v)
                    assert M.deg_product(pair[::-1]) == got, (entry["n"], I, v, u)


def _deg_by_top_extraction(M, classes):
    # The former route: one product of the whole representatives, then the
    # divided-difference word of the longest minimal coset representative.
    g = M.group
    poly = classes[0].rep()
    for x in classes[1:]:
        poly = poly * x.rep()
    r = divided_difference_word(g, g.reduced_word(M.top_element(classes[0].I)), poly)
    c = r.coeffs.get((0,) * g.rank, 0)
    assert c % r.den == 0
    c //= r.den
    return c % 2 if classes[0].p == 2 else c


def _random_product(rng, M):
    spaces = [[i] for i in range(M.d + 1)] + [[i - 1, i] for i in range(1, M.d + 1)]
    I = rng.choice(spaces + [list(range(M.d + 1))])
    dim = M.dim_flag(I)
    by_length = {}
    for w in M.basis(I):
        by_length.setdefault(M.group.length(w), []).append(w)
    k = rng.randint(2, 5)
    cuts = sorted(rng.randint(0, dim) for _ in range(k - 1))
    codims = [b - a for a, b in zip([0] + cuts, cuts + [dim])]
    if rng.random() < 0.1:  # a product off the top degree
        codims[0] = min(codims[0] + 1, dim)
    p = rng.choice([0, 0, 2])
    classes = []
    for c in codims:
        terms = rng.sample(by_length[c], min(len(by_length[c]), rng.randint(1, 2)))
        coeffs = {w: rng.choice([-2, -1, 1, 2, 3]) for w in terms}
        classes.append(FlagCycle(M, I, coeffs, p))
    return classes


@pytest.mark.parametrize("n,orientation", [(5, None), (6, 1), (6, -1), (7, None)])
def test_deg_product_matches_top_degree_extraction(n, orientation):
    M = build_flag_model(n, orientation)
    rng = random.Random(2016 + n * 3 + (orientation or 0))
    nonzero = 0
    for _ in range(50):
        classes = _random_product(rng, M)
        expected = _deg_by_top_extraction(M, classes)
        assert M.deg_product(classes) == expected, [repr(x) for x in classes]
        nonzero += expected != 0
    assert nonzero >= 10


def test_orientation_is_normalised_before_caching():
    from quadchow.quadpow import quad_context

    assert build_flag_model(4) is build_flag_model(4, None) is build_flag_model(4, 1)
    assert build_flag_model(5, -1) is build_flag_model(5, 1) is build_flag_model(5)
    assert build_geometry(5, -1) is build_geometry(5, None) is build_geometry(5)
    assert build_geometry(4, None) is build_geometry(4)
    G, H = build_geometry(5, -1), build_geometry(5, 1)
    assert G.class_Z(1, 4) + H.class_Z(1, 4) == H.class_Z(1, 4).scale(2)
    for bad in (0, 2, 7):
        for n in (4, 5):
            for build in (build_flag_model, build_geometry, quad_context):
                with pytest.raises(ValueError, match="orientation must be 1, -1 or None"):
                    build(n, bad)


# -- the shared expansion against one whole word per candidate ------------------


def _expand_by_words(M, poly, I):
    # Reference: every candidate w of a degree of poly gets its own greedy
    # reduced word, applied in full by divided_difference_word.
    g = M.group
    degrees = {sum(e) for e in poly.coeffs}
    out = {}
    for w in M.basis(I):
        if g.length(w) not in degrees:
            continue
        r = divided_difference_word(g, g.reduced_word(w), poly)
        c = r.coeffs.get((0,) * g.rank, 0)
        assert c % r.den == 0, (I, w)
        if c:
            out[w] = c // r.den
    return out


def _index_sets(d):
    return [
        [i for i in range(d + 1) if mask >> i & 1] for mask in range(1, 2 ** (d + 1))
    ]


def _oracle_inputs(rng, M, I, max_length):
    """Seeded polynomials for one F(I), named by kind; factors are drawn from
    the basis elements of length at most max_length."""
    from quadchow.polyring import variable

    g = M.group
    basis = M.basis(I)
    low = [w for w in basis if g.length(w) <= max_length]
    rep = M.schubert_rep
    u, v, a, b, c = (rng.choice(low) for _ in range(5))
    outside = rng.choice([w for w in g.elements if g.length(w) <= max_length])
    x = [variable(g.rank, j) for j in range(1, g.rank + 1)]
    invariant = x[0] ** 2  # the sum of squares is W-invariant in B and D
    for xj in x[1:]:
        invariant = invariant + xj**2
    yield "product", rep(u) * rep(v)
    yield "inhomogeneous", rep(a).scale(3) + (rep(b) * rep(c)).scale(-2) + rep(u) * rep(v)
    yield "above-top", (x[0] + x[-1]) ** (M.dim_flag(I) + 1) + rep(u)
    yield "outside-basis", rep(outside) + rep(outside) * rep(v)
    yield "invariant-multiple", invariant * rep(u) + rep(v)
    yield "linear-power", rng.choice(x) ** rng.randint(1, max_length)


def _oracle_cases():
    models = ((4, 1), (4, -1), (5, None), (6, 1), (6, -1))
    cases = [(n, o, I) for n, o in models for I in _index_sets(n // 2)]
    rng = random.Random(8)
    for n in (7, 8):
        cases += [(n, None, I) for I in rng.sample(_index_sets(n // 2), 3)]
    sign = {1: "+", -1: "-", None: ""}
    return [
        pytest.param(n, o, I, id="%d%s-F%s" % (n, sign[o], "".join(map(str, I))))
        for n, o, I in cases
    ]


@pytest.mark.parametrize("n,orientation,I", _oracle_cases())
def test_expand_matches_one_word_per_candidate(n, orientation, I):
    M = build_flag_model(n, orientation)
    rng = random.Random(f"{n} {orientation} {I}")
    # at n >= 7 short factors keep the one-word-per-candidate reference cheap
    max_length = M.dim_flag(I) // 2 if n <= 6 else 5
    for kind, poly in _oracle_inputs(rng, M, I, max_length):
        got = M.expand(poly, I)
        assert got.coeffs == _expand_by_words(M, poly, I), (kind, repr(got))


def test_expand_computes_each_divided_difference_once(monkeypatch):
    import quadchow.polyring as polyring
    import quadchow.schubert as schubert

    M = build_flag_model(6, -1)
    g = M.group
    calls = []
    original = polyring.divided_difference

    def counting(group, i, f):
        calls.append(i)
        return original(group, i, f)

    # the reference path reaches the polyring name through divided_difference_word
    monkeypatch.setattr(schubert, "divided_difference", counting)
    monkeypatch.setattr(polyring, "divided_difference", counting)
    rng = random.Random(86)
    saved = 0
    for I in ([0], [1, 2], [0, 1, 2, 3]):
        for kind, poly in _oracle_inputs(rng, M, I, M.dim_flag(I) // 2):
            degrees = [k for k in map(sum, poly.coeffs) if k <= M.dim_flag(I)]
            bound = sum(1 for w in M.basis(I) if g.length(w) <= max(degrees, default=-1))
            del calls[:]
            got = M.expand(poly, I)
            assert len(calls) <= bound, (I, kind)
            shared = len(calls)
            del calls[:]
            assert got.coeffs == _expand_by_words(M, poly, I)
            saved += len(calls) - shared
    assert saved > 0  # one word per candidate repeats work the memo shares


def test_expand_rejects_a_polynomial_of_another_rank():
    from quadchow.polyring import constant, variable

    M = build_flag_model(3)  # rank 2
    for poly in (constant(3, 1), variable(3, 1), constant(1, 0)):
        with pytest.raises(ValueError, match="rank mismatch"):
            M.expand(poly, [0])


# -- the deg_product half memo --------------------------------------------------


def test_deg_product_halves_are_memoised_per_model(monkeypatch):
    from quadchow.schubert import FlagModel

    M, other = FlagModel(5), FlagModel(5)
    assert M._halves is not other._halves
    calls = []
    expand = M.expand

    def counting(*args, **kwargs):
        calls.append(args)
        return expand(*args, **kwargs)

    monkeypatch.setattr(M, "expand", counting)
    rng = random.Random(316)
    for _ in range(30):
        classes = _random_product(rng, M)
        want = _deg_by_top_extraction(M, classes)
        assert M.deg_product(classes) == want
        del calls[:]
        assert M.deg_product(classes) == want
        assert not calls  # both halves came from the memo
        for _ in range(3):
            assert M.deg_product(rng.sample(classes, len(classes))) == want
        # over Z/2 the degree is the integer pairing reduced mod 2
        assert M.deg_product([x.mod2() for x in classes]) == want % 2
    assert M._halves and not other._halves


# -- the one-monomial point class against the product of the positive roots ----


def _positive_root_point(G):
    # The former point representative: the product of the positive roots over |W|.
    from quadchow.polyring import Polynomial, constant

    m = G.rank
    unit = [tuple(int(k == j) for k in range(m)) for j in range(m)]
    prod = constant(m, 1)
    for root in G.positive_roots:
        prod = prod * Polynomial(m, {unit[j]: c for j, c in enumerate(root) if c})
    return prod.scale(Fraction(1, len(G)))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, pytest.param(8, marks=pytest.mark.slow)])
def test_point_monomial_and_positive_roots_give_the_same_classes(n):
    from math import factorial

    M = build_flag_model(n)
    G = M.group
    m = G.rank
    rho = range(2 * m - 1, 0, -2) if G.family == "B" else range(2 * m - 2, -1, -2)
    assert M.point_rep.coeffs == {tuple(rho): factorial(m)}
    assert M.point_rep.den == len(G)
    full = range(M.d + 1)
    old_point = _positive_root_point(G)
    w0 = G.longest_element
    for w in G.elements:
        old = divided_difference_word(G, G.reduced_word(G.inverse(w) * w0), old_point)
        assert M.expand(old, full).coeffs == {w: 1}, w
        assert M.expand(M.schubert_rep(w), full).coeffs == {w: 1}, w


def _sum_of_products(m, groups):
    return sum((reduce(mul, group, constant(m, 1)) for group in groups), constant(m, 0))


def _random_linear_form(m, rng):
    terms = (variable(m, v).scale(rng.randint(-3, 3)) for v in range(1, m + 1))
    return sum(terms, constant(m, 0))


def test_symmetric_functions_match_brute_force_sums():
    # e_j sums products of distinct roots, h_j products with repetition
    rng = random.Random(11)
    m = 4
    for n_roots in (1, 2, 3, 5):
        roots = [_random_linear_form(m, rng) for _ in range(n_roots)]
        for j in range(7):
            e = _sum_of_products(m, itertools.combinations(roots, j))
            h = _sum_of_products(m, itertools.combinations_with_replacement(roots, j))
            assert _symmetric_function(roots, j, m) == e, (n_roots, j)
            assert _symmetric_function(roots, j, m, complete=True) == h, (n_roots, j)
