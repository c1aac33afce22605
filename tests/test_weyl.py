"""Group axioms, lengths, reduced words and coset combinatorics for types B/D.

The group's tables are checked against generic products of signed
permutations (`signed`), which compose windows without them."""

import functools
import itertools
import operator
import random
import re

import pytest

from quadchow.weyl import RangeError, make_group
from rulings import ruling
from signed import SignedPermutation, elements, identity, length, simple_reflections


def brute_force_windows(family: str, rank: int) -> set[tuple[int, ...]]:
    # Independent enumeration: signed permutations, with the D parity cut.
    windows = set()
    for perm in itertools.permutations(range(1, rank + 1)):
        for signs in itertools.product((1, -1), repeat=rank):
            if family == "D" and signs.count(-1) % 2:
                continue
            windows.add(tuple(s * p for s, p in zip(signs, perm)))
    return windows


@pytest.mark.parametrize(
    "family,rank,order",
    [("B", 2, 8), ("B", 1, 2), ("D", 3, 24), ("B", 3, 48), ("D", 4, 192)],
)
def test_group_orders(family, rank, order):
    G = make_group(family, rank)
    assert len(G) == order
    assert order == len(brute_force_windows(family, rank))


def test_order_formula():
    for family, rank in [("B", 2), ("B", 3), ("B", 4), ("D", 2), ("D", 3), ("D", 4)]:
        G = make_group(family, rank)
        fact = 1
        for k in range(1, rank + 1):
            fact *= k
        expected = 2**rank * fact if family == "B" else 2 ** (rank - 1) * fact
        assert len(G) == expected


def test_unsupported_rank():
    with pytest.raises(ValueError, match="unsupported rank"):
        make_group("B", 6)
    with pytest.raises(ValueError, match="unsupported rank"):
        make_group("D", 1)
    with pytest.raises(ValueError, match="unsupported rank"):
        make_group("B", 0)


# the methods that take a window, each applied to one
TAKE_WINDOW = {
    "parabolic_decompose": lambda G, w: G.parabolic_decompose(w, [1]),
    "reduced_word": lambda G, w: G.reduced_word(w),
}


@pytest.mark.parametrize("method", sorted(TAKE_WINDOW))
@pytest.mark.parametrize(
    "family,window",
    [
        pytest.param("B", (1, 2), id="short"),
        pytest.param("B", (1, 2, 3, 4), id="long"),
        pytest.param("D", (1, 2, -3), id="odd-signs"),
        pytest.param("D", (-1, 2, 3), id="odd-signs-first"),
        pytest.param("B", (1, 1, 3), id="repeat"),
        pytest.param("B", (1, 2, 4), id="out-of-range"),
        pytest.param("D", (0, 2, 3), id="zero"),
    ],
)
def test_window_outside_the_group_is_a_value_error(method, family, window):
    # a ValueError naming the window and the group, not a KeyError
    G = make_group(family, 3)
    message = re.escape("%r is not an element of %s3" % (window, family))
    with pytest.raises(ValueError, match=message):
        TAKE_WINDOW[method](G, window)


def test_windows_name_one_element_in_every_group():
    # a D_m window is also a B_m window, of the same signed permutation
    B3, D3 = make_group("B", 3), make_group("D", 3)
    for w in D3.elements:
        assert _product(B3, B3.reduced_word(w)).window == w
        assert B3.parabolic_decompose(list(w), [1]) == B3.parabolic_decompose(w, [1])
    assert D3.reduced_word((1, -2, -3)) == D3.reduced_word([1, -2, -3])


@pytest.mark.parametrize("family,rank", [("B", 3), ("D", 4)])
def test_window_methods_return_plain_windows(family, rank):
    G = make_group(family, rank)
    P = (1, 2)
    outputs = [
        *G.min_coset_reps(P),
        G.parabolic_longest(P),
        *G.parabolic_decompose(G.elements[-1], P),
    ]
    for w in outputs:
        assert type(w) is tuple and all(type(v) is int for v in w)
        assert G.elements[G._index[w]] == w


def test_longest_lengths():
    # Number of positive roots: m^2 for B_m, m^2 - m for D_m.
    assert make_group("B", 3)._lengths[-1] == 9
    assert make_group("D", 3)._lengths[-1] == 6
    assert make_group("B", 2)._lengths[-1] == 4


def test_group_axioms_random():
    rng = random.Random(7)
    for G in (make_group("B", 3), make_group("D", 4)):
        ws, e = elements(G), identity(G)
        for _ in range(100):
            w = rng.choice(ws)
            v = rng.choice(ws)
            u = rng.choice(ws)
            assert (w * v) * u == w * (v * u)
            assert w * w.inverse() == e
            assert w * e == w


def test_length_changes_by_one():
    for G in (make_group("B", 3), make_group("D", 3)):
        for w in elements(G):
            for s in simple_reflections(G):
                assert abs(length(G, w * s) - length(G, w)) == 1


def test_reduced_words_exhaustive():
    for G in (make_group("B", 3), make_group("D", 3)):
        for i, w in enumerate(G.elements):
            word = G.reduced_word(w)
            assert len(word) == G._lengths[i]
            assert _product(G, word).window == w
    # identity and a single reflection
    B2 = make_group("B", 2)
    assert B2.reduced_word(B2.elements[0]) == ()
    assert B2.reduced_word(B2.simple_reflections[0]) == (1,)
    # longest element of B_2 has a word of length 4
    assert len(B2.reduced_word(B2.elements[-1])) == 4


def test_longest_word_brute_force_b2():
    # Oracle: search all words of length 4 for the longest element of B_2.
    B2 = make_group("B", 2)
    w0 = B2.elements[-1]
    found = False
    for word in itertools.product((1, 2), repeat=4):
        if _product(B2, word).window == w0:
            found = True
            break
    assert found


def test_min_coset_reps_trivial_cases():
    B3 = make_group("B", 3)
    assert B3.min_coset_reps([1, 2, 3]) == ((1, 2, 3),)
    assert len(B3.min_coset_reps([])) == len(B3)
    B2 = make_group("B", 2)
    assert len(B2.min_coset_reps([2])) == 4


def test_coset_partition_exhaustive():
    # min_coset_reps x W_P tiles W exactly once, for every parabolic, rank <= 4.
    for family, rank in [("B", 2), ("B", 3), ("D", 3), ("B", 4), ("D", 4)]:
        G = make_group(family, rank)
        for r in range(rank + 1):
            for P in itertools.combinations(range(1, rank + 1), r):
                reps = G.min_coset_reps(P)
                WP = [
                    SignedPermutation(w)
                    for w in G.elements
                    if G.parabolic_decompose(w, P)[0] == G.elements[0]
                ]
                assert len(reps) * len(WP) == len(G)
                seen = {(SignedPermutation(u) * p).window for u in reps for p in WP}
                assert len(seen) == len(G)


def test_parabolic_decompose_lengths_add():
    B3 = make_group("B", 3)
    e = B3.elements[0]
    for w in B3.elements:
        for P in [(1,), (2,), (3,), (1, 3), (1, 2)]:
            wm, wp = map(SignedPermutation, B3.parabolic_decompose(w, P))
            assert (wm * wp).window == w
            assert length(B3, SignedPermutation(w)) == length(B3, wm) + length(B3, wp)
            assert wm.window in B3.min_coset_reps(P)
    wpar = _product(B3, (1, 2, 1)).window
    assert B3.parabolic_decompose(wpar, (1, 2)) == (e, wpar)
    assert B3.parabolic_decompose(e, (1, 2)) == (e, e)


GROUPS = [("B", r) for r in range(1, 6)] + [("D", r) for r in range(2, 6)]


def _product(G, word):
    # Generic products only, so this stays independent of the table.
    s = simple_reflections(G)
    return functools.reduce(operator.mul, (s[i - 1] for i in word), identity(G))


def _generated_longest(G, P):
    # Oracle: close {s_i : i in P} under generic products, take the longest.
    s = simple_reflections(G)
    subgroup = {identity(G)}
    frontier = set(subgroup)
    while frontier:
        frontier = {u * s[i - 1] for u in frontier for i in P}
        frontier -= subgroup
        subgroup |= frontier
    return max(subgroup, key=lambda w: length(G, w)).window


@pytest.mark.parametrize("family,rank", GROUPS)
def test_walk_lists_every_element_once_by_length(family, rank):
    G = make_group(family, rank)
    assert set(G.elements) == brute_force_windows(family, rank)
    keys = list(zip(G._lengths, G.elements))
    assert keys == sorted(set(keys))


@pytest.mark.parametrize("family,rank", GROUPS)
def test_simple_reflections_and_longest_element_windows(family, rank):
    G = make_group(family, rank)
    m = rank
    expected = []
    for i in range(1, m):
        win = list(range(1, m + 1))
        win[i - 1], win[i] = i + 1, i
        expected.append(tuple(win))
    if family == "B":
        expected.append((*range(1, m), -m))
    else:
        expected.append((*range(1, m - 1), -m, -(m - 1)))
    assert list(G.simple_reflections) == expected
    # w_0 = -1 on every coordinate, except the last one for D_m with m odd
    w0 = [-j for j in range(1, m + 1)]
    if family == "D" and m % 2:
        w0[-1] = m
    assert G.elements[-1] == tuple(w0)


@pytest.mark.parametrize("family,rank", GROUPS)
def test_right_table_matches_generic_products(family, rank):
    G = make_group(family, rank)
    for w, row in zip(elements(G), G._right):
        assert len(row) == rank
        for ws, s in zip(row, simple_reflections(G)):
            assert G.elements[ws] == (w * s).window


def _root_count(G, w):
    # Oracle: the number of positive roots that w sends to negative roots.
    count = 0
    for root in G.positive_roots:
        image = [0] * G.rank
        for j, c in enumerate(root, start=1):
            if c:
                v = w(j)
                image[abs(v) - 1] += c if v > 0 else -c
        leading = next(c for c in image if c)
        count += leading < 0
    return count


@pytest.mark.parametrize("family,rank", GROUPS)
def test_lengths_match_root_count(family, rank):
    G = make_group(family, rank)
    for i, w in enumerate(elements(G)):
        assert G._lengths[i] == _root_count(G, w), w


@functools.lru_cache(maxsize=None)
def _oracle_lengths(family, rank):
    # window -> _root_count, over every element: no table involved
    G = make_group(family, rank)
    return {w.window: _root_count(G, w) for w in elements(G)}


def _oracle_descents(G, w, lengths):
    # bit i - 1 set iff l(w s_i) < l(w), by generic products
    return sum(
        1 << i
        for i, s in enumerate(simple_reflections(G))
        if lengths[(w * s).window] < lengths[w.window]
    )


def _greedy_word(G, w, lengths):
    # the former _walk route of reduced_word: strip the lowest-index right
    # descent until none is left, with lengths from the root-count oracle
    letters = []
    while True:
        for i, s in enumerate(simple_reflections(G), start=1):
            ws = w * s
            if lengths[ws.window] < lengths[w.window]:
                letters.append(i)
                w = ws
                break
        else:
            return tuple(reversed(letters))


@pytest.mark.parametrize("family,rank", GROUPS)
def test_descent_masks_match_root_count(family, rank):
    G = make_group(family, rank)
    lengths = _oracle_lengths(family, rank)
    for i, w in enumerate(elements(G)):
        assert G._descents[i] == _oracle_descents(G, w, lengths), w


@pytest.mark.parametrize("family,rank", GROUPS)
def test_min_coset_reps_match_descent_filter(family, rank):
    # every parabolic at rank <= 4, eight seeded ones at rank 5
    G = make_group(family, rank)
    lengths = _oracle_lengths(family, rank)
    masks = {w: _oracle_descents(G, SignedPermutation(w), lengths) for w in G.elements}
    subsets = [
        P for r in range(rank + 1) for P in itertools.combinations(range(1, rank + 1), r)
    ]
    if rank == 5:
        subsets = random.Random(5).sample(subsets, 8)
    for P in subsets:
        mask = sum(1 << (i - 1) for i in P)
        expected = sorted(
            (w for w in G.elements if not masks[w] & mask), key=lambda w: (lengths[w], w)
        )
        assert G.min_coset_reps(P) == tuple(expected), P


@pytest.mark.parametrize("family,rank", GROUPS)
def test_reduced_words_match_greedy_route(family, rank):
    G = make_group(family, rank)
    lengths = _oracle_lengths(family, rank)
    for w in elements(G):
        assert G.reduced_word(w.window) == _greedy_word(G, w, lengths), w


def test_parabolic_longest_matches_generated_subgroup():
    for family, rank in [("B", r) for r in range(1, 5)] + [("D", r) for r in (2, 3, 4)]:
        G = make_group(family, rank)
        for r in range(rank + 1):
            for P in itertools.combinations(range(1, rank + 1), r):
                assert G.parabolic_longest(P) == _generated_longest(G, P), P


@pytest.mark.parametrize("n,orientation", [(7, None), (8, 1), (8, -1)])
def test_model_parabolic_longest_matches_generated_subgroup(n, orientation):
    model = ruling(n, orientation)
    G = model.group
    for r in range(model.d + 2):
        for I in itertools.combinations(range(model.d + 1), r):
            P = model.parabolic(I)
            assert G.parabolic_longest(P) == _generated_longest(G, P), I


@pytest.mark.parametrize("family,rank", [("B", 4), ("D", 4), ("D", 5)])
def test_reduced_words_multiply_back(family, rank):
    G = make_group(family, rank)
    for i, w in enumerate(G.elements):
        word = G.reduced_word(w)
        assert len(word) == G._lengths[i]
        assert _product(G, word).window == w


def test_unsupported_rank_is_a_range_error():
    with pytest.raises(RangeError, match="unsupported rank"):
        make_group("D", 6)


@pytest.mark.parametrize("bad", [0, 4, -1])
def test_simple_indices_out_of_range(bad):
    B3 = make_group("B", 3)
    w = B3.elements[-1]
    calls = [
        lambda: B3.parabolic_longest([1, bad]),
        lambda: B3.parabolic_decompose(w, [bad]),
        lambda: B3.min_coset_reps([bad, 2]),
    ]
    for call in calls:
        with pytest.raises(RangeError, match=r"out of range \(1\.\.3\): \[%d\]" % bad):
            call()


# -- the diagram automorphism of D_m ----------------------------------------------


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_sigma_table_is_conjugation_by_the_last_sign_change(rank):
    G = make_group("D", rank)
    sigma = G.sigma
    # c is in B_m, not D_m: the generic product composes windows alone
    c = SignedPermutation((*range(1, rank), -rank))
    letter = [*range(rank - 2), rank - 1, rank - 2]  # sigma on the letters, 0-based
    assert len(sigma) == len(G)
    for w, x in enumerate(elements(G)):
        assert G.elements[sigma[w]] == (c * x * c).window, x
        assert sigma[sigma[w]] == w
        assert G._lengths[sigma[w]] == G._lengths[w]
        for i in range(rank):
            assert G._right[sigma[w]][letter[i]] == sigma[G._right[w][i]], (x, i)


def test_sigma_is_defined_for_type_d_only():
    with pytest.raises(ValueError, match="type D only"):
        make_group("B", 3).sigma


def _other_ruling_parabolic(model, I):
    """The parabolic of F(I) over the other ruling component, as the second
    model built it: i = d cuts node m - 1 where the model's cuts m."""
    m, d = model.group.rank, model.d
    cut = set()
    for i in I:
        if i <= d - 2:
            cut.add(i + 1)
        else:
            cut.update((m - 1, m) if i == d - 1 else (m - 1,))
    return frozenset(range(1, m + 1)) - cut


@pytest.mark.parametrize("n", [4, 6, 8])
def test_sigma_moves_each_split_basis_onto_the_other_ruling(n):
    model = ruling(n)
    G, d = model.group, model.d
    for r in range(model.d + 1):
        for rest in itertools.combinations(range(d), r):
            I = (*rest, d)
            other = G.coset_indices(_other_ruling_parabolic(model, I))
            assert sorted(G.sigma[w] for w in model.basis(I)) == list(other), I
