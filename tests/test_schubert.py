"""Flag-variety Chow rings: basis sizes, functoriality, distinguished classes."""

import io
import itertools
import json
import pathlib
import random
from contextlib import redirect_stdout
from fractions import Fraction
from functools import reduce
from math import prod
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadchow.bridge import flag_cycle_to_quad
from quadchow.polyring import (
    Polynomial,
    act,
    constant,
    divided_difference,
    divided_difference_word,
    variable,
)
from quadchow.quadpow import basis_symbols, codim1
from quadchow.schubert import (
    FlagCycle,
    FlagModel,
    SparseCycle,
    _symmetric_function,
    build_geometry,
)
from quadchow.weyl import RangeError
from rulings import SigmaImage, ruling
from signed import SignedPermutation, elements, identity, length, simple_reflections


def test_model_sizes():
    # full-flag Schubert counts are the Weyl group orders
    M3 = build_geometry(3)
    assert len(M3.basis(range(M3.d + 1))) == 8
    M5 = build_geometry(5)
    assert len(M5.basis(range(M5.d + 1))) == 48
    M4 = build_geometry(4)
    assert len(M4.basis(range(M4.d + 1))) == 24


def test_rejects_degenerate_dimensions():
    with pytest.raises(ValueError, match="out of range"):
        build_geometry(2)
    with pytest.raises(ValueError, match="out of range"):
        build_geometry(1)
    with pytest.raises(ValueError, match="out of range"):
        build_geometry(9)


def test_poincare_ranks_match_length_generating_function():
    for n in (3, 4, 5):
        M = build_geometry(n)
        G = M.group
        I = list(range(M.d + 1))
        by_len = {}
        for w in M.basis(I):
            by_len[G._lengths[w]] = by_len.get(G._lengths[w], 0) + 1
        # oracle: count all Weyl elements by length and divide by |W_P| graded?
        # here P is trivial (full flag), so compare against the raw count
        full = {}
        for lw in G._lengths:
            full[lw] = full.get(lw, 0) + 1
        assert by_len == full


def test_quadric_basis_identification():
    for n in (3, 4, 5, 6):
        M = build_geometry(n)
        h = M.x_class(("h", 1))
        assert h.codim() == 1
        assert M.deg(M.point_class([0])) == 1
        assert M.l_class(0) == M.point_class([0])
        for b in range(M.d + 1):
            assert M.l_class(b).codim() == n - b
        if n % 2 == 0:
            # the two rulings are distinct and sum to the middle h-power
            lp = M.x_class(("lp", M.d))
            assert M.l_class(M.d) != lp
            assert M.h_power(M.d) == M.l_class(M.d) + lp


def test_ruling_naming_is_orientation_swapped():
    # the other ruling's l_d, the sigma-image of the model's, is the model's l_d'
    for n in (4, 6):
        Mp, Mm = ruling(n, 1), ruling(n, -1)
        lp = ("lp", n // 2)
        assert Mm.l_class(Mm.d).coeffs == Mp.x_class(lp).coeffs
        assert Mm.x_class(lp).coeffs == Mp.l_class(Mp.d).coeffs


def test_product_ring_axioms():
    M = build_geometry(5)
    basis = [M.h_power(k) for k in range(3)] + [M.l_class(b) for b in range(3)]
    one = M.fundamental([0])
    for x in basis:
        assert x * one == x
        for y in basis:
            assert x * y == y * x
    a, b, c = basis[1], basis[2], basis[3]
    assert (a * b) * c == a * (b * c)


def test_pullback_is_ring_homomorphism():
    M = build_geometry(5)
    h = M.x_class(("h", 1))
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
        M = build_geometry(n)
        for i in range(1, M.d + 1):
            I = [i - 1, i]
            for y in M.basis([i]):
                ycls = FlagCycle(M, [i], {(0, y): 1})
                pull_y = M.pullback(I, ycls)
                for x in M.basis(I):
                    xcls = FlagCycle(M, I, {(0, x): 1})
                    lhs = M.pushforward([i], pull_y * xcls)
                    rhs = ycls * M.pushforward([i], xcls)
                    assert lhs == rhs, (n, i, y, x)


def test_pushforward_degree_drop():
    M = build_geometry(5)
    for i in (1, 2):
        I = [i - 1, i]
        fiber_dim = M.dim_flag(I) - M.dim_flag([i])
        for w in M.basis(I):
            x = FlagCycle(M, I, {(0, w): 1})
            pushed = M.pushforward([i], x)
            if not pushed.is_zero():
                assert pushed.codim() == x.codim() - fiber_dim


def test_projective_bundle_facts():
    for n in (3, 4, 5, 6):
        M = build_geometry(n)
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
    # over a zero-dimensional fiber (F(d-1, d) -> G_(d-1) at even n, one point
    # on each ruling sheet) the fundamental class goes to one per sheet
    for n in (4, 5, 6):
        M = build_geometry(n)
        for i in range(1, M.d + 1):
            pulled = M.pullback([i - 1, i], M.fundamental([i]))
            pushed = M.pushforward([i - 1], pulled)
            fiber = M.dim_flag([i - 1, i]) - M.dim_flag([i - 1])
            if fiber > 0:
                assert pushed.is_zero(), (n, i)
            else:
                assert pushed == M.fundamental([i - 1]).scale(M.sheets([i])), (n, i)


def test_distinguished_class_anchors():
    for n in (3, 4, 5):
        M = build_geometry(n)
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
        M = build_geometry(n)
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
    M = build_geometry(4)
    assert M.deg(M.point_class([0])) == 1
    assert M.deg(M.x_class(("h", 1))) == 0
    doubled = M.x_class(("h", 1)).scale(2)
    assert doubled.mod2().is_zero()
    hh = M.x_class(("h", 1)) * M.x_class(("h", 1))
    assert (M.x_class(("h", 1)).mod2() * M.x_class(("h", 1)).mod2()) == hh.mod2()


def test_sheets_of_an_even_quadric():
    for n in (4, 6):
        G = build_geometry(n)
        d = G.d
        assert G.sheets([d]) == 2
        assert G.sheets([0]) == 1
        # W^d_0 is the full fundamental class of the disconnected variety
        assert G.class_W(d, 0) == G.fundamental([d])
        # z^d_0 marks exactly one sheet
        z0 = G.class_Z(d, n - 2 * d)
        assert len({k for k, _ in z0.coeffs}) == 1
        # pushing the disconnected fundamental class down to F(d-1) doubles
        two = G.pushforward([d - 1], G.pullback([d - 1, d], G.fundamental([d])))
        assert two == G.fundamental([d - 1]).scale(2)


def test_geometry_odd_single_sheet():
    G = build_geometry(5)
    assert G.sheets(range(G.d + 1)) == 1
    assert G.sheets([G.d]) == 1


# -- the per-model memo of distinguished classes --------------------------------

SPACES = [(n, o) for n in range(3, 9) for o in ((1, -1) if n % 2 == 0 else (1,))]
MEMO_NS = range(3, 9)


def _class_calls(space):
    """Every valid (constructor, indices, p) on a FlagModel, in forward index
    order, including the natural zeros past the top."""
    n, d = space.n, space.d
    calls = [("h_power", (k,)) for k in range(n + 1)]
    for i in range(d + 1):
        calls += [("class_Z", (i, j)) for j in range(n - i - d, n - i + 2)]
        calls += [("class_W", (i, j)) for j in range(-1, n - i + 1)]
        calls += [("chern_taut", (i, j)) for j in range(i + 2)]
        calls += [("chern_quot", (i, j)) for j in range(n + 2 - i)]
        calls += [("class_O1", (i,))] if i else []
    return [(f, idx, p) for f, idx in calls for p in (0, 2)]


def _call(space, call):
    f, idx, p = call
    return getattr(space, f)(*idx, p)


def _content(x):
    """(I, p, coefficients): comparable across models."""
    return x.I, x.p, dict(x.coeffs)


@pytest.mark.parametrize("n", MEMO_NS)
def test_memoised_classes_do_not_depend_on_the_order_asked(n):
    a, b = FlagModel(n), FlagModel(n)
    calls = _class_calls(a)
    forward = {c: _call(a, c) for c in calls}
    backward = {c: _call(b, c) for c in reversed(calls)}
    for c in calls:
        f, idx, p = c
        x = forward[c]
        assert _content(x) == _content(backward[c]), c
        assert x.model is a and backward[c].model is b, c
        assert x.p == p, c
        assert _call(a, c) is x
        if p == 0:
            assert getattr(a, f)(*idx) is x


@pytest.mark.parametrize("n", MEMO_NS)
def test_memoised_classes_are_unchanged_by_use(n):
    space = FlagModel(n)
    classes = [_call(space, c) for c in _class_calls(space)]
    before = [_content(x) for x in classes]
    for x in classes:
        x + x, x - x, x * x, x.scale(3), x.mod2(), space.pullpush(x, [0])
        space.deg_product([x, x])
        dim = space.dim_flag(x.I)
        dual = [
            y for y in classes
            if y.I == x.I and y.p == x.p and x.codim() + y.codim() == dim
        ]
        if dual:
            space.deg_product([x, dual[0]])
    assert [_content(x) for x in classes] == before


@pytest.mark.parametrize("n", MEMO_NS)
def test_out_of_range_classes_raise_every_time_and_store_nothing(n):
    space = FlagModel(n)
    d = space.d
    bad = [
        ("h_power", (-1,)), ("h_power", (n + 1,)),
        ("class_Z", (d + 1, 0)), ("class_Z", (1, n - 1 - d - 1)),
        ("class_W", (d + 1, 0)), ("class_W", (1, n)),
        ("chern_taut", (0, -1)), ("chern_taut", (1, 3)), ("chern_quot", (0, n + 2)),
        ("class_O1", (0,)), ("class_O1", (d + 1,)),
    ]
    stored = set(space._classes)
    for f, idx in bad:
        for p in (0, 2):
            for _ in range(2):
                with pytest.raises(RangeError):
                    getattr(space, f)(*idx, p)
    assert set(space._classes) == stored


def _count_calls(monkeypatch, obj, name):
    calls = []
    inner = getattr(obj, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(obj, name, counting)
    return calls


def test_each_distinguished_class_is_built_once(monkeypatch):
    M = FlagModel(5)
    solves = _count_calls(monkeypatch, M, "from_values")
    first = M.class_W(1, 1, 2)  # pull-push of h^2 mod 2: one solve
    assert len(solves) == 1
    assert M.class_W(1, 1, 2) is first
    assert M.h_power(2, 2) is M.h_power(2, 2)
    assert len(solves) == 1
    # no Chern class takes part in the build gate: one solve each, put on
    # every sheet
    cherns = [
        (f, i, j, p)
        for i in range(M.d + 1)
        for f, top in (("chern_taut", i + 1), ("chern_quot", M.n + 1 - i))
        for j in range(top + 1)
        for p in (0, 2)
    ]
    for _ in range(2):
        for f, i, j, p in cherns:
            getattr(M, f)(i, j, p)
    assert len(solves) == 1 + len(cherns)
    # one pullpush per distinct Z-class on G_i, i > 0, below the zeros past
    # the top, that the model has not built yet (its gate builds some)
    for n in (5, 6):
        M = FlagModel(n)
        built = set(M._classes)
        pullpushes = _count_calls(monkeypatch, M, "pullpush")
        zs = [
            ("class_Z", i, j, p)
            for i in range(M.d + 1)
            for j in range(n - i - M.d, n - i + 2)
            for p in (0, 2)
        ]
        for _ in range(2):
            for _, i, j, p in zs:
                M.class_Z(i, j, p)
        pushed = {z for z in set(zs) - built if z[1] > 0 and z[2] <= n - z[1]}
        assert len(pullpushes) == len(pushed) > 0


def test_ruling_reads_the_cold_engine_model(cold_engine):
    # ruling() looks build_geometry up when called, so a cold test's rulings
    # are the fixture's fresh model and not the process-wide warm one
    warm = build_geometry(6)
    fresh = cold_engine(6)
    assert fresh is not warm
    assert ruling(6) is fresh
    assert ruling(6, -1).model is fresh
    assert ruling(5) is cold_engine(5) is not build_geometry(5)


def test_nonintegral_extraction_raises(cold_engine):
    M = cold_engine(3)
    half_h = variable(M.group.rank, 1).scale(Fraction(1, 2))
    with pytest.raises(ArithmeticError, match=r"nonintegral Schubert coefficient 1/2 at \(2, 1\)"):
        M.expand(half_h, [0])
    # deg_product multiplies out the half h.h, solved from restriction rows
    # (a cold model: the pair memo may hold h.h, and no row built from the
    # corrupted one may outlive the test); at n = 3, h^2 = 2 l_1, so a diagonal
    # value xi_w(w) of l_1 taken 7 times leaves 2/7 at w
    h, y = M.x_class(("h", 1)), M.x_basis[("l", 1)]
    row = M._restriction_row(y)
    M._rows[y] = {**row, y: 7 * row[y]}
    with pytest.raises(ArithmeticError, match=r"inexact localization division at \(-2, 1\)"):
        M.deg_product([h, h, h])


def test_deg_product_checks_every_factor():
    M = build_geometry(4)
    I = [0]
    pt, fund = M.point_class(I).scale(3), M.fundamental(I, 2)
    with pytest.raises(ValueError, match="space/ring mismatch"):
        M.deg_product([pt, fund])
    other = FlagModel(4)
    with pytest.raises(ValueError, match="space/ring mismatch"):
        M.deg_product([pt, other.fundamental(I)])
    with pytest.raises(ValueError, match="space/ring mismatch"):
        M.deg_product([pt, M.fundamental([1])])
    assert M.deg_product([pt, M.fundamental(I)]) == 3
    with pytest.raises(ValueError, match="empty product"):
        M.deg_product([])


def _foreign_cycle_calls():
    """(function, *arguments) by name: each hands a model a cycle of another
    model: on a quadric of another dimension, or another model object of the
    same quadric."""
    M5, M7, M6, other6 = build_geometry(5), build_geometry(7), build_geometry(6), FlagModel(6)
    return {
        "model-pullback": (M7.pullback, [0, 1], M5.class_Z(0, 3)),
        "model-pushforward": (M7.pushforward, [1], M5.pullback([0, 1], M5.class_Z(0, 3))),
        "model-deg": (M7.deg, M5.point_class([0])),
        "model-deg_product": (M7.deg_product, [M5.h_power(1)] * 5),
        "model-deg_product-same-n": (M6.deg_product, [other6.l_class(3)] * 2),
        "to-quad": (flag_cycle_to_quad, M7, M5.class_Z(0, 3)),
        "to-quad-same-n": (flag_cycle_to_quad, M6, other6.class_Z(0, 3)),
    }


FOREIGN_CYCLE_CALLS = [
    "model-pullback", "model-pushforward", "model-deg", "model-deg_product",
    "model-deg_product-same-n", "to-quad", "to-quad-same-n",
]


@pytest.mark.parametrize("call", FOREIGN_CYCLE_CALLS)
def test_a_cycle_of_another_model_raises(call):
    calls = _foreign_cycle_calls()
    assert sorted(calls) == sorted(FOREIGN_CYCLE_CALLS)
    f, *args = calls[call]
    with pytest.raises(ValueError, match="space/ring mismatch"):
        f(*args)


def test_index_sets_are_memoised_only_when_valid():
    M = build_geometry(6)
    assert M.parabolic([0, 2]) is M.parabolic((2, 0))
    assert M.parabolic([1]) is M.parabolic({1})
    for _ in range(2):
        with pytest.raises(RangeError, match="flag index out of range"):
            M.parabolic([M.d + 1])
        with pytest.raises(RangeError):
            M.basis([0, -1])


# -- the X symbol table and the correspondence pullpush -----------------------


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("orientation", [1, -1])
def test_x_basis_names_each_schubert_class_of_x_once(n, orientation):
    M = ruling(n, orientation)
    syms = basis_symbols(M.ctx)
    assert set(M.x_basis) == set(syms) and len(M.x_basis) == len(syms)
    assert sorted(M.x_basis.values()) == list(M.basis([0]))
    for s, w in M.x_basis.items():
        assert M.group._lengths[w] == codim1(M.ctx, s), s
        if s[0] == "h":
            # the expand route is the oracle for the h-powers below the middle
            assert M.x_class(s) == M.h_power(s[1]), s


def test_x_class_names_a_bad_symbol_with_a_typed_error():
    with pytest.raises(RangeError, match=r"X-class index out of range: \('h', 3\)"):
        build_geometry(6).x_class(("h", 3))  # h^3 = l_3 + l_3' is no basis class
    with pytest.raises(RangeError, match=r"\('lp', 2\)"):
        build_geometry(6).x_class(("lp", 2))
    for s in (("lp", 2), ("q", 1)):
        with pytest.raises(ValueError, match=r"no X-class symbol \('%s', \d\) at n = 5" % s[0]) as e:
            build_geometry(5).x_class(s)
        assert not isinstance(e.value, RangeError)


def _split(x):
    """The part of x on each sheet, moved onto sheet 0."""
    parts: list[dict] = [{} for _ in range(x.model.sheets(x.I))]
    for (k, w), c in x.coeffs.items():
        parts[k][0, w] = c
    return [FlagCycle(x.model, x.I, part, x.p) for part in parts]


def _join(M, I, parts):
    """The cycle on F(I) whose part on sheet k is parts[k], a sheet-0 cycle."""
    parts = list(parts)
    assert len(parts) == M.sheets(I)
    coeffs = {(k, w): c for k, x in enumerate(parts) for (_, w), c in x.coeffs.items()}
    return FlagCycle(M, I, coeffs, parts[0].p)


def _cycle(G, I, step):
    """A cycle on F(I) with distinct coefficients on every step-th basis
    element, shifted on each further sheet."""
    return FlagCycle(G, I, {
        (sheet, w): k + 1 + 10 * sheet
        for sheet in range(G.sheets(I))
        for k, w in enumerate(G.basis(I)[::step])
    })


@pytest.mark.parametrize("n", [5, 6])
def test_pullpush_is_pushforward_after_pullback(n):
    G = build_geometry(n)
    subsets = [
        frozenset(c) for r in (1, 2) for c in itertools.combinations(range(G.d + 1), r)
    ]
    for I in subsets:
        x = _cycle(G, I, 3)
        assert G.pullpush(x, I) == x
        flat = _split(x)[0]
        assert G.pullpush(flat, I) == flat
        for J in subsets:
            assert G.pullpush(x, J) == G.pushforward(J, G.pullback(I | J, x)), (I, J)
            assert G.pullpush(flat, J) == G.pushforward(J, G.pullback(I | J, flat))


def _sheet_parts(G, I, rng, p, c=None):
    """Seeded sheet-0 cycles on F(I), one per sheet; of codimension c on
    every sheet when c is given."""
    parts = []
    for _ in range(G.sheets(I)):
        basis = [w for w in G.basis(I) if c is None or G.group._lengths[w] == c]
        coeffs = {(0, rng.choice(basis)): rng.randint(-3, 3) for _ in range(rng.randint(1, 4))}
        parts.append(FlagCycle(G, I, coeffs, p))
    return parts


def _codim_by_parts(parts):
    degs = {x.codim() for x in parts if not x.is_zero()}
    if len(degs) > 1:
        raise ValueError("inhomogeneous cycle")
    return degs.pop() if degs else -1


@pytest.mark.parametrize("n", [4, 5, 6])
def test_sheet_keyed_operations_match_sheet_by_sheet_operations(n):
    # each sheet is a component of F(I): every operation on a cycle is the
    # operation on its part on each sheet, read on sheet 0
    G = build_geometry(n)
    d = G.d
    rng = random.Random(7 * n + 1)
    connected, split = ([0], [1], [0, 1]), ([d], [d - 1, d], [0, d])
    for p in (0, 2):
        for I in connected + split:
            dim = G.dim_flag(I)
            for _ in range(3):
                a, b = (_sheet_parts(G, I, rng, p, rng.choice([None, rng.randint(0, dim)]))
                        for _ in range(2))
                x, y = _join(G, I, a), _join(G, I, b)
                assert _split(x) == a
                each = lambda f: _join(G, I, map(f, a, b))  # noqa: E731
                assert x + y == each(lambda u, v: u + v)
                assert x - y == each(lambda u, v: u - v)
                assert x * y == each(lambda u, v: u * v)
                assert x.scale(3) == _join(G, I, [u.scale(3) for u in a])
                assert x.mod2() == _join(G, I, [u.mod2() for u in a])
                assert (x == y) == (a == b) and x == _join(G, I, a)
                assert hash(x) == hash(_join(G, I, a))
                for z, parts in ((x, a), (x + y, [u + v for u, v in zip(a, b)])):
                    try:
                        expected = _codim_by_parts(parts)
                    except ValueError:
                        with pytest.raises(ValueError, match="inhomogeneous"):
                            z.codim()
                    else:
                        assert z.codim() == expected
                degs = sum(G.deg(u) for u in a)
                assert G.deg(x) == (degs % 2 if p == 2 else degs)
                c1 = rng.randint(0, dim)
                c2 = rng.randint(0, dim - c1)
                factors = [_sheet_parts(G, I, rng, p, c) for c in (c1, c2, dim - c1 - c2)]
                degs = sum(G.deg(reduce(FlagCycle.__mul__, fs)) for fs in zip(*factors))
                got = G.deg_product([_join(G, I, fs) for fs in factors])
                assert got == (degs % 2 if p == 2 else degs), (I, p)
            point = [G.zero(I, p)] * G.sheets(I)
            point[0] = G.point_class(I, p)
            assert G.point_class(I, p) == _join(G, I, point)
            assert G.deg(G.point_class(I, p)) == 1
        # sheet 1 is stored as its sigma-transport, so crossing between it
        # and a connected space moves each key by sigma
        def move(x):
            sigma = G.group.sigma
            return FlagCycle(G, x.I, {(k, sigma[w]): c for (k, w), c in x.coeffs.items()}, p)

        for I in connected:
            (u,) = _sheet_parts(G, I, rng, p)
            J = frozenset(I) | {d}
            pulled = [FlagCycle(G, J, u.coeffs, p)]
            if G.sheets(J) == 2:
                pulled.append(FlagCycle(G, J, move(u).coeffs, p))
            assert G.pullback(J, u) == _join(G, J, pulled), (I, p)
        for I in split[1:]:
            a = _sheet_parts(G, I, rng, p)
            J = frozenset(I) - {d}
            total = G.pushforward(J, a[0])
            if G.sheets(I) == 2:
                total = total + move(G.pushforward(J, a[1]))
            assert G.pushforward(J, _join(G, I, a)) == total, (I, p)


def _class_Z_per_sheet(G, i, j, p):
    """Z^i_j sheet by sheet: on each sheet, the model's l_{n-i-j}, pulled up
    to F(0, i) and pushed down to G_i, read on sheet 0; sheet 1 is the other
    ruling stored as its sigma-transport, so there l_{n-i-j} enters moved by
    sigma."""
    if j > G.n - i:
        return G.zero([i], p)
    x = G.l_class(G.n - i - j, p)
    moved = [x.coeffs]
    if G.sheets([i]) == 2:
        moved.append({(0, G.group.sigma[w]): c for (_, w), c in x.coeffs.items()})
    pushed = [G.pushforward([i], G.pullback([0, i], FlagCycle(G, [0], c, p))) for c in moved]
    return _join(G, [i], [_split(z)[0] for z in pushed])


@pytest.mark.parametrize("n", [4, 5, 6])
def test_class_Z_names_l_d_by_the_model_on_every_sheet(n):
    G = build_geometry(n)
    for i in range(G.d + 1):
        for j in range(n - i - G.d, n - i + 2):
            for p in (0, 2):
                assert G.class_Z(i, j, p) == _class_Z_per_sheet(G, i, j, p), (i, j, p)
        with pytest.raises(RangeError, match="Z index out of range"):
            G.class_Z(i, n - i - G.d - 1)
    with pytest.raises(RangeError, match="grassmannian index out of range"):
        G.class_Z(G.d + 1, 0)


def test_pullback_range_checks_the_target():
    M = build_geometry(6)
    x = M.fundamental([0])
    for bad in ([0, M.d + 1], [0, -1]):
        with pytest.raises(RangeError, match="flag index out of range"):
            M.pullback(bad, x)


# -- degrees by Poincare duality against independent oracles ------------------

DATA = pathlib.Path(__file__).parent / "data"
TABLES = json.loads((DATA / "basis_products.json").read_text())


def test_duality_pairing_matches_frozen_top_coefficients():
    # The frozen product tables come from the earlier engine, which never used
    # the pairing: the top coefficient of s_u s_v must be 1 exactly when v is
    # the dual of u, and deg_product of the pair must read it back, from a
    # cold half memo and then, factors swapped, from a warm one.  The tables
    # of the other ruling are read on the sigma-image of the model.
    for entry in TABLES:
        M = FlagModel(entry["n"])
        if entry["orientation"] == -1:
            M = SigmaImage(M)
        I = entry["I"]
        products = {
            (tuple(u), tuple(v)): {tuple(w): c for w, c in terms}
            for u, v, terms in entry["products"]
        }
        top, dim = M.top_element(I), M.dim_flag(I)
        dual = M.poincare_dual(I)
        basis = M.basis(I)
        lengths = M.group._lengths
        window = M.group.elements.__getitem__
        assert set(dual) == set(dual.values()) == set(basis)
        for a, u in enumerate(basis):
            assert dual[dual[u]] == u
            assert lengths[dual[u]] == dim - lengths[u]
            for v in basis[a:]:
                got = products.get((window(u), window(v)), {}).get(window(top), 0)
                assert got == (1 if dual[u] == v else 0), (entry["n"], I, u, v)
                if lengths[u] + lengths[v] == dim:
                    pair = [FlagCycle(M, I, {(0, u): 1}), FlagCycle(M, I, {(0, v): 1})]
                    assert M.deg_product(pair) == got, (entry["n"], I, u, v)
                    assert M.deg_product(pair[::-1]) == got, (entry["n"], I, v, u)


def _rep(x):
    # the polynomial representative of a sheet-0 flag cycle: its Schubert
    # representatives weighted by its coefficients
    poly = constant(x.model.group.rank, 0)
    for (_, w), c in x.coeffs.items():
        poly = poly + x.model.schubert_rep(w).scale(c)
    return poly


def _deg_by_top_extraction(M, classes):
    # The former route: one product of the whole representatives, then the
    # divided-difference word of the longest minimal coset representative.
    g = M.group
    poly = _rep(classes[0])
    for x in classes[1:]:
        poly = poly * _rep(x)
    top = g.elements[M.top_element(classes[0].I)]
    r = divided_difference_word(g, g.reduced_word(top), poly)
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
        by_length.setdefault(M.group._lengths[w], []).append(w)
    k = rng.randint(2, 5)
    cuts = sorted(rng.randint(0, dim) for _ in range(k - 1))
    codims = [b - a for a, b in zip([0] + cuts, cuts + [dim])]
    if rng.random() < 0.1:  # a product off the top degree
        codims[0] = min(codims[0] + 1, dim)
    p = rng.choice([0, 0, 2])
    classes = []
    for c in codims:
        terms = rng.sample(by_length[c], min(len(by_length[c]), rng.randint(1, 2)))
        coeffs = {(0, w): rng.choice([-2, -1, 1, 2, 3]) for w in terms}
        classes.append(FlagCycle(M, I, coeffs, p))
    return classes


@pytest.mark.parametrize("n,orientation", [(5, None), (6, 1), (6, -1), (7, None)])
def test_deg_product_matches_top_degree_extraction(n, orientation):
    M = ruling(n, orientation)
    rng = random.Random(2016 + n * 3 + (orientation or 0))
    nonzero = 0
    for _ in range(50):
        classes = _random_product(rng, M)
        expected = _deg_by_top_extraction(M, classes)
        assert M.deg_product(classes) == expected, [repr(x) for x in classes]
        nonzero += expected != 0
    assert nonzero >= 10


def test_one_model_per_n_serves_both_orientations():
    # the orientation names the rulings in print only: the engine takes n alone
    assert build_geometry(4) is build_geometry(4)
    with pytest.raises(TypeError):
        build_geometry(4, -1)
    # at odd n there is one ruling: both orientations print alike
    x = build_geometry(5).class_Z(1, 4)
    assert x.render(-1) == x.render(1) == repr(x)
    # at even n plus prints sheet 1 through sigma and minus sheet 0 and the
    # connected spaces, so a cycle prints under minus as its sigma-image
    # prints under plus
    M = build_geometry(4)
    sigma = M.group.sigma
    for x in (M.class_Z(1, 2), M.class_Z(2, 1), M.point_class([0, 2]), M.fundamental([2])):
        image = FlagCycle(M, x.I, {(k, sigma[w]): c for (k, w), c in x.coeffs.items()}, x.p)
        assert x.render(-1) == image.render(1)
        assert x.render(1) == image.render(-1)
    assert M.class_Z(2, 1).render(-1) != M.class_Z(2, 1).render(1)


# -- expand by localization against the divided-difference routes ---------------


def _on_sheet0(coeffs):
    """Index-keyed Schubert coefficients as a cycle's (sheet, w) keys on sheet 0."""
    return {(0, w): c for w, c in coeffs.items()}


def _expand_by_words(M, poly, I):
    # Reference: every candidate w of a degree of poly gets its own greedy
    # reduced word, applied in full by divided_difference_word.
    g = M.group
    degrees = {sum(e) for e in poly.coeffs}
    out = {}
    for w in M.basis(I):
        if g._lengths[w] not in degrees:
            continue
        r = divided_difference_word(g, g.reduced_word(g.elements[w]), poly)
        c = r.coeffs.get((0,) * g.rank, 0)
        assert c % r.den == 0, (I, w)
        if c:
            out[w] = c // r.den
    return out


def _expand_by_divided_differences(M, poly, I):
    # The former FlagModel.expand: the coefficient of s_w is the constant term of
    # div_w(poly), with div_v(poly) memoised for the call and shared along the
    # suffixes of w's reduced word, so it is cheaper than one word per candidate.
    g = M.group
    dim = M.dim_flag(I)
    degrees = {k for k in poly.degrees() if k <= dim}
    diffs = {g.elements[0]: poly}  # window of v -> div_v(poly)
    out = {}
    for w in M.basis(I):
        if g._lengths[w] not in degrees:
            continue
        v = g.elements[w]
        word = g.reduced_word(v)
        pending = []
        while (r := diffs.get(v)) is None:
            pending.append(v)
            v = g.elements[g._follow(0, word[len(pending) :])]
        for j in reversed(range(len(pending))):
            if not r.is_zero():
                r = divided_difference(g, word[j], r)
            diffs[pending[j]] = r
        c = r.coeffs.get((0,) * g.rank, 0)
        assert c % r.den == 0, (I, w)
        if c:
            out[w] = c // r.den
    return out


def _is_class_on(M, poly, I):
    # every part that expand solves, of degree at most dim F(I), is fixed by the
    # simple reflections of the parabolic of F(I)
    g = M.group
    parts = {}
    for e, c in poly.coeffs.items():
        parts.setdefault(sum(e), {})[e] = c
    return all(
        act(g.simple_reflections[i - 1], part) == part
        for k, terms in parts.items()
        if k <= M.dim_flag(I)
        for part in [Polynomial(g.rank, terms)]
        for i in M.parabolic(I)
    )


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
    low = [w for w in basis if g._lengths[w] <= max_length]
    rep = M.schubert_rep
    u, v, a, b, c = (rng.choice(low) for _ in range(5))
    outside = rng.choice([w for w in range(len(g)) if g._lengths[w] <= max_length])
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
    M = ruling(n, orientation)
    rng = random.Random(f"{n} {orientation} {I}")
    # at n >= 7 short factors keep the one-word-per-candidate reference cheap
    max_length = M.dim_flag(I) // 2 if n <= 6 else 5
    for kind, poly in _oracle_inputs(rng, M, I, max_length):
        if _is_class_on(M, poly, I):
            got = M.expand(poly, I)
            assert got.coeffs == _on_sheet0(_expand_by_words(M, poly, I)), (kind, repr(got))
        else:
            # a factor outside basis(I), or a power of a variable that W_P moves
            assert kind in ("outside-basis", "linear-power"), kind
            with pytest.raises(ValueError, match=r"is no class on F\("):
                M.expand(poly, I)


def test_expand_rejects_a_polynomial_that_is_no_class_on_the_flag_variety():
    # x1^2 + x1 x2 + x2^2 is moved by s_2 (x2 <-> x3), so it is no class on
    # X = F(0) at n = 5: its values at the fixed points y depend on more than
    # the coset y W_P.  A solve that trusted them returned -3 s_(3,1,2) where
    # the divided differences give 0.
    M = build_geometry(5)
    x1, x2 = variable(3, 1), variable(3, 2)
    poly = x1 * x1 + x1 * x2 + x2 * x2
    assert _expand_by_words(M, poly, [0]) == {}
    with pytest.raises(ValueError, match=r"the degree-2 part is no class on F\(0\): s_2 moves it"):
        M.expand(poly, [0])
    # the same part on the full flag, where W_P is trivial, is a class
    full = range(M.d + 1)
    assert M.expand(poly, full).coeffs == _on_sheet0(_expand_by_words(M, poly, full))


def test_expand_rejects_a_polynomial_of_another_rank():
    from quadchow.polyring import constant, variable

    M = build_geometry(3)  # rank 2
    for poly in (constant(3, 1), variable(3, 1), constant(1, 0)):
        with pytest.raises(ValueError, match="rank mismatch"):
            M.expand(poly, [0])


# -- deg_product against the top-degree extraction ------------------------------


@pytest.mark.parametrize("n", [5, 6, 7])
def test_deg_product_is_independent_of_factor_order_and_ring(n):
    M = build_geometry(n)
    rng = random.Random(316 + n)
    for _ in range(30):
        classes = _random_product(rng, M)
        want = _deg_by_top_extraction(M, classes)
        assert M.deg_product(classes) == want
        assert M.deg_product(classes) == want
        for _ in range(3):
            assert M.deg_product(rng.sample(classes, len(classes))) == want
        # over Z/2 the degree is the integer pairing reduced mod 2
        assert M.deg_product([x.mod2() for x in classes]) == want % 2


# -- products by localization against the polynomial route ---------------------


def _inversion_value(g, y):
    # prod <beta, t> over the positive roots beta that y^-1 sends negative, y
    # a SignedPermutation,
    # at t = (m, ..., 1); a root is positive when its first nonzero entry is
    m = g.rank
    yi = y.inverse()
    value = 1
    for beta in g.positive_roots:
        image = [0] * m
        for j, c in enumerate(beta, start=1):
            k = yi(j)
            image[abs(k) - 1] += c if k > 0 else -c
        if next(c for c in image if c) < 0:
            value *= sum(c * (m - j) for j, c in enumerate(beta))
    return value


def _billey_row(g, y):
    # Billey's formula by one pass along the greedy reduced word of the window
    # y, with no parent recursion: it carries every partial subword product z
    # with its weight, keyed by window, and multiplies generically
    t = g.rank + 1
    simple = simple_reflections(g)
    prefix = identity(g)
    states = {prefix: 1}
    for a in g.reduced_word(y):
        s = simple[a - 1]
        root = g.simple_roots[a - 1]
        r = sum(c * (t - k if k > 0 else -t - k) for c, k in zip(root, prefix.window))
        for z, c in list(states.items()):
            zs = z * s
            if length(g, zs) > length(g, z):
                states[zs] = states.get(zs, 0) + c * r
        prefix = prefix * s
    return {z.window: c for z, c in states.items()}


@pytest.mark.parametrize("n", range(3, 9))
def test_restriction_rows_have_inversion_diagonals_and_unit_identity(n):
    from quadchow.polyring import Polynomial, simple_root

    M = build_geometry(n)
    g = M.group
    for a, root in enumerate(g.simple_roots, start=1):
        unit = [tuple(int(k == j) for k in range(g.rank)) for j in range(g.rank)]
        assert Polynomial(g.rank, {unit[j]: c for j, c in enumerate(root)}) == simple_root(g, a)
    rng = random.Random(n)
    ys = elements(g) if n <= 6 else rng.sample(elements(g), 60)
    for y in ys:
        row = M._restriction_row(g._index[y.window])
        assert row[g._index[y.window]] == _inversion_value(g, y), y
        assert row[0] == 1, y
    # on basis(I), each row of the recursion is Billey's pass along a reduced
    # word: every I and every y at n <= 6 with both rulings at even n, and at
    # n = 7, 8 seeded samples of 4 index sets and 6 elements of each basis
    subsets = [I for r in range(1, M.d + 2) for I in itertools.combinations(range(M.d + 1), r)]
    models = (M, ruling(n, -1)) if n % 2 == 0 else (M,)
    if n > 6:
        subsets, models = rng.sample(subsets, 4), models[:1]
    billey = {}
    for model in models:
        for I in subsets:
            basis = model.basis(I)
            keep = {g.elements[w] for w in basis}
            for y in basis if n <= 6 else rng.sample(basis, min(6, len(basis))):
                if y not in billey:
                    billey[y] = _billey_row(g, g.elements[y])
                want = {x: c for x, c in billey[y].items() if x in keep}
                row = model._restriction_row(y)
                got = {g.elements[x]: c for x, c in row.items()}
                got = {x: c for x, c in got.items() if x in keep}
                assert got == want, (type(model).__name__, I, y)


def _polynomial_product(M, I, u, v):
    # the former route: multiply the two representatives and expand on F(I) by
    # divided differences, which share nothing with the localized solve
    return _expand_by_divided_differences(M, M.schubert_rep(u) * M.schubert_rep(v), I)


def _product_cases():
    cases = [(7, None, I) for I in ([0], [1], [3], [0, 1], [2, 3], [0, 1, 2, 3])]
    cases += [(8, o, I) for o in (1, -1) for I in ([0], [4], [1, 4], [3, 4], [0, 2])]
    sign = {1: "+", -1: "-", None: ""}
    return [
        pytest.param(n, o, I, id="%d%s-F%s" % (n, sign[o], "".join(map(str, I))))
        for n, o, I in cases
    ]


@pytest.mark.parametrize("n,orientation,I", _product_cases())
def test_basis_product_matches_the_polynomial_route(n, orientation, I):
    M = ruling(n, orientation)
    g = M.group
    rng = random.Random(f"{n} {orientation} {I}")
    basis, dim = M.basis(I), M.dim_flag(I)
    checked = nonzero = 0
    while checked < 12:
        u, v = rng.choice(basis), rng.choice(basis)
        if g._lengths[u] + g._lengths[v] <= dim:
            got = M.basis_product(I, u, v)
            assert got == _polynomial_product(M, I, u, v), (u, v)
            checked += 1
            nonzero += bool(got)
    assert nonzero >= 4


@pytest.mark.parametrize("n,orientation", [(4, 1), (4, -1), (5, None)])
def test_basis_products_on_cold_memos_match_the_polynomial_route(cold_engine, n, orientation):
    # every pair of every F(I), each F(I) solved on an empty pair memo and the
    # whole test on an empty row store, so the zero skip runs on every F(I)
    # against rows the recursion builds in the solve's own order
    model = cold_engine(n)
    M = SigmaImage(model) if orientation == -1 else model
    g = M.group
    zeros = 0
    for I in _index_sets(M.d):
        model._pairs.clear()
        basis, dim = M.basis(I), M.dim_flag(I)
        for u, v in itertools.combinations_with_replacement(basis, 2):
            if g._lengths[u] + g._lengths[v] <= dim:
                got = M.basis_product(I, u, v)
                assert got == _polynomial_product(M, I, u, v), (I, u, v)
                zeros += not got
    assert zeros > 0


@pytest.mark.slow
@pytest.mark.parametrize(
    "n,orientation", [(3, None), (4, 1), (4, -1), (5, None), (6, 1), (6, -1)]
)
def test_full_flag_products_match_the_polynomial_route(n, orientation):
    M = ruling(n, orientation)
    g = M.group
    full = range(M.d + 1)
    basis, dim = M.basis(full), M.dim_flag(full)
    for a, u in enumerate(basis):
        for v in basis[a:]:
            if g._lengths[u] + g._lengths[v] <= dim:
                assert M.basis_product(full, u, v) == _polynomial_product(M, full, u, v)


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

    M = build_geometry(n)
    G = M.group
    m = G.rank
    rho = range(2 * m - 1, 0, -2) if G.family == "B" else range(2 * m - 2, -1, -2)
    assert M.point_rep.coeffs == {tuple(rho): factorial(m)}
    assert M.point_rep.den == len(G)
    full = range(M.d + 1)
    old_point = _positive_root_point(G)
    w0 = SignedPermutation(G.elements[-1])

    def read(poly):
        # the solve reads every representative back at n <= 7; at n = 8 its
        # 1920 whole-flag solves take minutes, so the reference reads them
        if n <= 7:
            return M.expand(poly, full).coeffs
        return _on_sheet0(_expand_by_divided_differences(M, poly, full))

    for i, w in enumerate(elements(G)):
        old = divided_difference_word(G, G.reduced_word((w.inverse() * w0).window), old_point)
        assert read(old) == {(0, i): 1}, w
        assert read(M.schubert_rep(i)) == {(0, i): 1}, w


@pytest.mark.parametrize(
    "n,orientation",
    [(3, None), (4, 1), (4, -1), (5, None), (6, 1), (6, -1), (7, None), (8, 1), (8, -1)],
)
def test_expand_reads_back_every_schubert_representative(n, orientation):
    # rep(w) for w in basis(I) is fixed by W_P, and the solve must read it back
    # as s_w on F(I); at n >= 7 a seeded sample of short w keeps this cheap
    M = ruling(n, orientation)
    g = M.group
    rng = random.Random(f"reps {n} {orientation}")
    for I in _index_sets(M.d):
        basis = M.basis(I)
        if n >= 7:
            short = [w for w in basis if g._lengths[w] <= 6]
            basis = rng.sample(short, min(len(short), 4))
        for w in basis:
            assert M.expand(M.schubert_rep(w), I).coeffs == {(0, w): 1}, (I, w)


def test_symmetric_functions_match_brute_force_sums():
    # e_j sums products of distinct roots, h_j products with repetition
    rng = random.Random(11)
    for n_roots in (0, 1, 2, 3, 5):
        roots = [rng.randint(-9, 9) for _ in range(n_roots)]
        for j in range(7):
            e = sum(map(prod, itertools.combinations(roots, j)))
            h = sum(map(prod, itertools.combinations_with_replacement(roots, j)))
            assert _symmetric_function(roots, j) == e, (roots, j)
            assert _symmetric_function(roots, j, complete=True) == h, (roots, j)


# -- the value-defined classes against expand of their polynomials ----------------


def _sum_of_products(m, groups):
    return sum((reduce(mul, group, constant(m, 1)) for group in groups), constant(m, 0))


def _taut_root_polynomials(M, i):
    """The tautological roots of G_i: -x_1, ..., -x_(i+1), the last one +x_m
    on the minus D-ruling at i = d."""
    m = M.group.rank
    roots = [variable(m, j).scale(-1) for j in range(1, i + 2)]
    if isinstance(M, SigmaImage) and i == M.d:
        roots[-1] = variable(m, m)
    return roots


def _value_defined_classes(M):
    """(call, class, I, polynomial) for every h-power, tautological and
    quotient Chern class and c_1(O(1)) of M."""
    m, n = M.group.rank, M.n
    for k in range(n + 1):
        yield ("h_power", k), M.h_power(k), [0], variable(m, 1) ** k
    for i in range(M.d + 1):
        roots = _taut_root_polynomials(M, i)
        for j in range(i + 2):
            e = _sum_of_products(m, itertools.combinations(roots, j))
            yield ("chern_taut", i, j), M.chern_taut(i, j), [i], e
        negated = [r.scale(-1) for r in roots]
        for j in range(n + 2 - i):
            h = _sum_of_products(m, itertools.combinations_with_replacement(negated, j))
            yield ("chern_quot", i, j), M.chern_quot(i, j), [i], h
        if i:
            yield ("class_O1", i), M.class_O1(i), [i - 1, i], roots[-1]


@pytest.mark.parametrize("n,orientation", SPACES)
def test_value_defined_classes_match_expand_of_their_polynomials(n, orientation):
    # expand reads a polynomial on sheet 0; sigma fixes each of these classes,
    # so every sheet carries the sheet-0 coefficients
    M = ruling(n, orientation)
    for call, x, I, poly in _value_defined_classes(M):
        solved = {w: c for (k, w), c in M.expand(poly, I).coeffs.items() if k == 0}
        on_every_sheet = {(k, w): c for k in range(M.sheets(I)) for w, c in solved.items()}
        assert x.coeffs == on_every_sheet, call


def test_no_build_or_verify_path_goes_through_polynomials(cold_engine, monkeypatch):
    from quadchow import cli

    calls = [
        _count_calls(monkeypatch, FlagModel, "expand"),
        _count_calls(monkeypatch, FlagModel, "schubert_rep"),
        _count_calls(monkeypatch, Polynomial, "__mul__"),
    ]
    for n in MEMO_NS:
        cold_engine(n)
    for n in range(3, 7):
        with redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "all", "--n", str(n), "--seed", "0"]) == 0
    assert calls == [[], [], []]


def _windows_in(obj, windows):
    """Every tuple in the keys and values of obj, through dicts, tuples, sets
    and cycle coefficients, that is one of the windows."""
    if isinstance(obj, tuple) and obj in windows:
        yield obj
    elif isinstance(obj, SparseCycle):
        yield from _windows_in(obj.coeffs, windows)
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _windows_in(key, windows)
            yield from _windows_in(value, windows)
    elif isinstance(obj, (tuple, list, set, frozenset)):
        for x in obj:
            yield from _windows_in(x, windows)


def test_no_cycle_memo_or_table_names_an_element_by_window(cold_engine):
    # cold builds and verify runs at n = 5 and both orientations at n = 6, on
    # fresh models
    from quadchow import cli

    spaces = [(5, "plus"), (6, "plus"), (6, "minus")]
    for n, name in spaces:
        cold_engine(n)
        with redirect_stdout(io.StringIO()):
            argv = ["verify", "all", "--n", str(n), "--orientation", name, "--seed", "0"]
            assert cli.main(argv) == 0
    for n in (5, 6):
        M = cold_engine(n)
        memos = [M._classes, M.bridge_memo, M._duals, M._pushes, M._pairs, M._rows]
        assert all(memos), n  # the runs filled every memo
        assert not any(_windows_in(memos, M.group._index)), n


# restriction-row entries held after a cold `verify all --seed 0`,
# recorded when the rows became full rows memoised once per element; rows
# cost memory, so building rows no solve reads would show here
ROW_STORE_ENTRIES = {7: 22496, 8: 282612}


@pytest.mark.parametrize("n", [7, 8])
def test_row_store_after_a_cold_verify_stays_near_its_recorded_size(cold_engine, n):
    from quadchow import cli

    with redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "all", "--n", str(n), "--seed", "0"]) == 0
    entries = sum(map(len, cold_engine(n)._rows.values()))
    assert 0 < entries <= 1.1 * ROW_STORE_ENTRIES[n], entries


def test_dropping_the_model_cache_frees_what_a_cold_verify_built(cold_engine):
    # every memo is the model's, so clearing build_geometry's cache returns
    # the traced memory to near where the run started; what stays is the
    # process's own: the group's tables (make_group), the argument parser
    import gc
    import tracemalloc

    from quadchow import cli

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "all", "--n", "7", "--seed", "0"]) == 0
        gc.collect()
        added = tracemalloc.get_traced_memory()[0] - start
        cold_engine.cache_clear()
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert added > 1e6, added
    assert kept < min(0.25 * added, 1.5e6), (kept, added)


# -- ring axioms of FlagCycle products ----------------------------------------------


def _draw_flag_cycle(data, M, I, p):
    keys = st.tuples(st.sampled_from(range(M.sheets(I))), st.sampled_from(M.basis(I)))
    terms = st.dictionaries(keys, st.integers(-3, 3), max_size=3)
    return FlagCycle(M, I, data.draw(terms), p)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_flag_cycle_products_commute_and_associate(data):
    n, orientation = data.draw(st.sampled_from([s for s in SPACES if s[0] <= 6]))
    M = ruling(n, orientation)
    I = data.draw(st.sampled_from(_index_sets(M.d)))
    p = data.draw(st.sampled_from([0, 2]))
    a, b, c = (_draw_flag_cycle(data, M, I, p) for _ in range(3))
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
