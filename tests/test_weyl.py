"""Group axioms, lengths, reduced words and coset combinatorics for types B/D."""

import functools
import itertools
import operator
import random

import pytest

from quadchow.weyl import RangeError, SignedPermutation, make_group
from rulings import ruling


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


def test_group_mismatch():
    B3 = make_group("B", 3)
    D3 = make_group("D", 3)
    w = B3.identity
    v = D3.identity
    with pytest.raises(ValueError, match="group mismatch"):
        w * v
    # a D_m window is also a B_m window: the group, not the window, decides
    decompose = lambda u: B3.parabolic_decompose(u, [1])  # noqa: E731
    for call in (B3.length, B3.right_multiples, B3.reduced_word, decompose):
        with pytest.raises(ValueError, match="group mismatch"):
            call(D3.longest_element)


def test_d_parity_enforced():
    D3 = make_group("D", 3)
    with pytest.raises(ValueError, match="odd number of sign changes"):
        D3.element((1, 2, -3))
    w = D3.element((1, -2, -3))
    assert w in D3.elements


def test_longest_lengths():
    # Number of positive roots: m^2 for B_m, m^2 - m for D_m.
    B3 = make_group("B", 3)
    assert B3.length(B3.longest_element) == 9
    D3 = make_group("D", 3)
    assert D3.length(D3.longest_element) == 6
    B2 = make_group("B", 2)
    assert B2.length(B2.longest_element) == 4


def test_group_axioms_random():
    rng = random.Random(7)
    for G in (make_group("B", 3), make_group("D", 4)):
        for _ in range(100):
            w = rng.choice(G.elements)
            v = rng.choice(G.elements)
            u = rng.choice(G.elements)
            assert (w * v) * u == w * (v * u)
            assert w * w.inverse() == G.identity
            assert w * G.identity == w


def test_length_changes_by_one():
    for G in (make_group("B", 3), make_group("D", 3)):
        for w in G.elements:
            for s in G.simple_reflections:
                assert abs(G.length(w * s) - G.length(w)) == 1


def test_reduced_words_exhaustive():
    for G in (make_group("B", 3), make_group("D", 3)):
        for w in G.elements:
            word = G.reduced_word(w)
            assert len(word) == G.length(w)
            assert G.from_word(word) == w
    # identity and a single reflection
    B2 = make_group("B", 2)
    assert B2.reduced_word(B2.identity) == ()
    assert B2.reduced_word(B2.simple_reflections[0]) == (1,)
    # longest element of B_2 has a word of length 4
    assert len(B2.reduced_word(B2.longest_element)) == 4


def test_longest_word_brute_force_b2():
    # Oracle: search all words of length 4 for the longest element of B_2.
    B2 = make_group("B", 2)
    w0 = B2.longest_element
    found = False
    for word in itertools.product((1, 2), repeat=4):
        if B2.from_word(word) == w0:
            found = True
            break
    assert found


def test_min_coset_reps_trivial_cases():
    B3 = make_group("B", 3)
    assert B3.min_coset_reps([1, 2, 3]) == (B3.identity,)
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
                    w
                    for w in G.elements
                    if G.parabolic_decompose(w, P)[0] == G.identity
                ]
                assert len(reps) * len(WP) == len(G)
                seen = {(u * p).window for u in reps for p in WP}
                assert len(seen) == len(G)


def test_parabolic_decompose_lengths_add():
    B3 = make_group("B", 3)
    for w in B3.elements:
        for P in [(1,), (2,), (3,), (1, 3), (1, 2)]:
            wm, wp = B3.parabolic_decompose(w, P)
            assert wm * wp == w
            assert B3.length(w) == B3.length(wm) + B3.length(wp)
            assert wm in B3.min_coset_reps(P)
    wpar = B3.from_word((1, 2, 1))
    assert B3.parabolic_decompose(wpar, (1, 2)) == (B3.identity, wpar)
    assert B3.parabolic_decompose(B3.identity, (1, 2)) == (B3.identity, B3.identity)


GROUPS = [("B", r) for r in range(1, 6)] + [("D", r) for r in range(2, 6)]


def _product(G, word):
    # Generic products only, so this stays independent of the table.
    return functools.reduce(
        operator.mul, (G.simple_reflections[i - 1] for i in word), G.identity
    )


def _generated_longest(G, P):
    # Oracle: close {s_i : i in P} under generic products, take the longest.
    subgroup = {G.identity}
    frontier = {G.identity}
    while frontier:
        frontier = {u * G.simple_reflections[i - 1] for u in frontier for i in P}
        frontier -= subgroup
        subgroup |= frontier
    return max(subgroup, key=G.length)


@pytest.mark.parametrize("family,rank", GROUPS)
def test_walk_lists_every_element_once_by_length(family, rank):
    G = make_group(family, rank)
    assert {w.window for w in G.elements} == brute_force_windows(family, rank)
    keys = [(G.length(w), w.window) for w in G.elements]
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
    assert [s.window for s in G.simple_reflections] == expected
    # w_0 = -1 on every coordinate, except the last one for D_m with m odd
    w0 = [-j for j in range(1, m + 1)]
    if family == "D" and m % 2:
        w0[-1] = m
    assert G.longest_element.window == tuple(w0)


@pytest.mark.parametrize("family,rank", GROUPS)
def test_right_table_matches_generic_products(family, rank):
    G = make_group(family, rank)
    for w in G.elements:
        row = G.right_multiples(w)
        assert len(row) == rank
        for ws, s in zip(row, G.simple_reflections):
            assert ws == w * s


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
    for w in G.elements:
        assert G.length(w) == _root_count(G, w), w


@functools.lru_cache(maxsize=None)
def _oracle_lengths(family, rank):
    # window -> _root_count, over every element: no table involved
    G = make_group(family, rank)
    return {w.window: _root_count(G, w) for w in G.elements}


def _oracle_descents(G, w, lengths):
    # bit i - 1 set iff l(w s_i) < l(w), by generic products
    return sum(
        1 << i
        for i, s in enumerate(G.simple_reflections)
        if lengths[(w * s).window] < lengths[w.window]
    )


def _greedy_word(G, w, lengths):
    # the former _walk route of reduced_word: strip the lowest-index right
    # descent until none is left, with lengths from the root-count oracle
    letters = []
    while True:
        for i, s in enumerate(G.simple_reflections, start=1):
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
    for w in G.elements:
        assert G._descents[G._index[w.window]] == _oracle_descents(G, w, lengths), w


@pytest.mark.parametrize("family,rank", GROUPS)
def test_min_coset_reps_match_descent_filter(family, rank):
    # every parabolic at rank <= 4, eight seeded ones at rank 5
    G = make_group(family, rank)
    lengths = _oracle_lengths(family, rank)
    masks = {w.window: _oracle_descents(G, w, lengths) for w in G.elements}
    subsets = [
        P for r in range(rank + 1) for P in itertools.combinations(range(1, rank + 1), r)
    ]
    if rank == 5:
        subsets = random.Random(5).sample(subsets, 8)
    for P in subsets:
        mask = sum(1 << (i - 1) for i in P)
        expected = sorted(
            (w for w in G.elements if not masks[w.window] & mask),
            key=lambda w: (lengths[w.window], w.window),
        )
        assert G.min_coset_reps(P) == tuple(expected), P


@pytest.mark.parametrize("family,rank", GROUPS)
def test_reduced_words_match_greedy_route(family, rank):
    G = make_group(family, rank)
    lengths = _oracle_lengths(family, rank)
    for w in G.elements:
        assert G.reduced_word(w) == _greedy_word(G, w, lengths), w


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
    for w in G.elements:
        word = G.reduced_word(w)
        assert len(word) == G.length(w)
        assert _product(G, word) == w


def test_unsupported_rank_is_a_range_error():
    with pytest.raises(RangeError, match="unsupported rank"):
        make_group("D", 6)


@pytest.mark.parametrize("bad", [0, 4, -1])
def test_simple_indices_out_of_range(bad):
    B3 = make_group("B", 3)
    w = B3.longest_element
    calls = [
        lambda: B3.parabolic_longest([1, bad]),
        lambda: B3.parabolic_decompose(w, [bad]),
        lambda: B3.min_coset_reps([bad, 2]),
        lambda: B3.from_word([1, bad, 2]),
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
    c = SignedPermutation(G, (*range(1, rank), -rank))
    letter = [*range(rank - 2), rank - 1, rank - 2]  # sigma on the letters, 0-based
    assert len(sigma) == len(G)
    for w, x in enumerate(G.elements):
        assert G.elements[sigma[w]].window == (c * x * c).window, x
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
