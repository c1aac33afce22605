"""Signed-permutation Weyl groups of types B and D.

Elements are written in one-line "window" notation: a window ``(w(1), ..., w(m))``
of nonzero integers whose absolute values are a permutation of ``1..m``; the
sign of ``w(j)`` records whether the j-th basis vector is negated.  Type D
admits only windows with an even number of negative entries.

Simple reflections are numbered so that ``s_1 .. s_{m-1}`` are the adjacent
transpositions and the last node is the special one: for B_m the sign change
on the *last* coordinate (simple root ``x_m``), for D_m the signed swap of the
last two coordinates (simple root ``x_{m-1} + x_m``).

Groups of rank <= 5 are supported; larger ranks are rejected (the geometry
downstream never needs more at desk scale).

Construction reads every table from closed forms.  An element is coded by
its permutation p = |w| and the set N = {i : w(i) < 0} of its negated
positions.  Its length is the number of positive roots -- x_i - x_j and
x_i + x_j for i < j, and x_i for B, a root being positive when its first
nonzero coordinate is -- that w sends to negative ones (the test suite checks
the tables against that count).  w sends x_j to +-x_|w(j)|, so the image of a
root in positions i < j has its first nonzero coordinate at the smaller of
p(i), p(j).  If p(i) < p(j), x_i - x_j and x_i + x_j are both read at w(i)
and count 2 when i is in N, 0 when not; if p(i) > p(j), they are read at
-w(j) and w(j), and exactly one counts.  x_i counts when i is in N.  Hence,
with inv(p) = #{i < j : p(i) > p(j)} and e = 1 for B, 0 for D,

    l(w) = inv(p) + sum over i in N of (2 #{j > i : p(j) > p(i)} + e).

Bjorner-Brenti (Combinatorics of Coxeter Groups, 8.1-8.2) number the sign
node first, as s_0 negating w(1), and count l(w) = inv(w) + neg(w) + nsp(w)
for B (inv(w) + nsp(w) for D) on the window itself; that count taken on the
mirrored window v(i) = +-(m + 1 - |w(m + 1 - i)|), with the sign of
w(m + 1 - i), is the one above.  s_i is a right descent, l(w s_i) < l(w),
exactly when w sends alpha_i to a negative root.  Read the same way, w sends
alpha_i = x_i - x_(i+1), i < m, to a negative root when i is in N if
p(i) < p(i+1), and when i + 1 is not in N otherwise; alpha_m = x_m (B) when m
is in N; alpha_m = x_(m-1) + x_m (D) when the one of m - 1, m with the smaller
p is in N.

So the length, the window and the descents are each a constant plus a sum of
one step per position in N.  The builder packs them in one sort key per
element, with R = 2m + 1 and the descent mask in the m lowest bits:

    (l(w) R^m + sum over i of (w(i) + m) R^(m - i)) 2^m + descents(w),

and since each w(i) + m lies in 0..2m, keys sort by (length, window).  Per
permutation it lists the keys of every sign pattern (every even one for D) as
subset sums, then sorts once.  An element has one name, its index: its
position in that order; its window is what prints.  Right multiplication by
s_i is an edit of the code: for i < m it swaps entries i and i + 1, both of p
and of the signs; s_m flips the last sign (B), or swaps the last two entries
of p and sends their signs (a, b) to (not b, not a) (D), since (..., u, v)
maps to (..., -v, -u).  So each s_i is one column over codes, which the
sort's rank table moves to indices.  The tables hold per index the indices
of ``w * s_1, ..., w * s_m``, the length, and the right descents as one
bitmask: bit i - 1 is set when l(w s_i) < l(w).

Every descent or ascent question reads that integer: a minimal coset
representative of W_P is an element with no right descent in P, and reduced
words, parabolic factorisations and w_0(P) walk the table by the lowest set
bit of the descents (or ascents) inside a mask of indices.  The longest element w_0(P) of a parabolic subgroup W_P is the
unique element of W_P whose right descents are all of P, so an ascent from
the identity inside W_P reaches it in l(w_0(P)) steps (Bjorner-Brenti,
Combinatorics of Coxeter Groups, 2.4).  The walks run on indices.  The
diagram automorphism of D_m, w -> c w c with c the sign change of the last
coordinate, is the index table ``sigma``.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import compress, permutations, product
from typing import Iterable, Sequence

__all__ = ["RangeError", "WeylGroup", "make_group", "MAX_RANK"]

MAX_RANK = 5


class RangeError(ValueError):
    """An index or dimension outside the supported range (CLI exit code 3)."""


Root = tuple[int, ...]
Window = tuple[int, ...]


class WeylGroup:
    """Weyl group of type B_m or D_m, built from permutations and sign
    patterns by the closed forms of the module docstring.

    ``elements`` lists the window of every element sorted by (length, window),
    so it starts with the identity and ends with the longest element;
    ``simple_reflections`` holds the windows of s_1, ..., s_m.  The group holds
    only its own combinatorics: the index tables, `sigma` and the coset
    indices per parabolic.  What the Schubert layer computes on it is memoised
    on the `FlagModel` that asked for it.

    Do not instantiate directly; use :func:`make_group`, which caches one
    group object per (family, rank).
    """

    def __init__(self, family: str, rank: int):
        if family not in ("B", "D"):
            raise ValueError("unsupported family: %r" % (family,))
        if not (1 if family == "B" else 2) <= rank <= MAX_RANK:
            raise RangeError("unsupported rank")
        self.family = family
        self.rank = rank
        self._indices = frozenset(range(1, rank + 1))
        self.positive_roots: tuple[Root, ...] = self._positive_roots()
        self.simple_roots: tuple[Root, ...] = self._simple_roots()
        # per index: the window, length, right-descent mask, and the indices
        # of w * s_1, ..., w * s_m; and window -> index
        self._build()
        self.simple_reflections = tuple(self.elements[j] for j in self._right[0])
        self._coset_indices: dict[frozenset[int], tuple[int, ...]] = {}

    # -- construction -----------------------------------------------------

    def _positive_roots(self) -> tuple[Root, ...]:
        m = self.rank
        roots = []
        for i in range(m):
            for j in range(i + 1, m):
                for sj in (-1, 1):
                    r = [0] * m
                    r[i], r[j] = 1, sj
                    roots.append(tuple(r))
        if self.family == "B":
            for i in range(m):
                r = [0] * m
                r[i] = 1
                roots.append(tuple(r))
        return tuple(roots)

    def _simple_roots(self) -> tuple[Root, ...]:
        """alpha_1, ..., alpha_m as integer vectors: x_i - x_(i+1) for i < m,
        then x_m (B) or x_(m-1) + x_m (D)."""
        m, d = self.rank, self.family == "D"
        roots = [tuple((j == a) - (j == a + 1) for j in range(m)) for a in range(m - 1)]
        return (*roots, tuple(int(j == m - 1 or d and j == m - 2) for j in range(m)))

    def _build(self) -> None:
        """Fill ``elements``, ``_index``, ``_lengths``, ``_descents`` and
        ``_right``, by the closed forms of the module docstring.

        An element is coded by its permutation p and its sign pattern, in the
        order the loop lists them.  Per p, the key of every sign pattern is a
        constant plus the steps of its negated positions; one sort of the
        codes by key gives the index order.  Each simple reflection is an
        edit of p and of the signs, so one column over codes, which the
        sort's rank table moves to indices.
        """
        m, b, radix = self.rank, int(self.family == "B"), 2 * self.rank + 1
        low = 1 << m  # the descent mask takes the key's m lowest bits
        unit = radix**m * low  # one step of length
        digit = [radix ** (m - 1 - j) * low for j in range(m)]  # of w(j + 1)
        every = list(product((0, 1), repeat=m))  # 1: the position is negated
        kept = [b or sum(s) % 2 == 0 for s in every]  # D: an even number of signs
        signs, perms = list(compress(every, kept)), list(permutations(range(1, m + 1)))
        keys, windows = [], []
        for p in perms:
            # ups[j]: how many later entries of p exceed p[j] (positions from 0)
            ups = [sum(v < u for u in p[j + 1 :]) for j, v in enumerate(p)]
            key = (m * (m - 1) // 2 - sum(ups)) * unit + sum(
                (v + m) * d for v, d in zip(p, digit)
            )
            steps = [(2 * u + b) * unit - 2 * v * d for u, v, d in zip(ups, p, digit)]
            # descent bit a, of s_(a+1), reads one sign: for a < m - 1, that
            # of position a, or the opposite of position a + 1's; for the last,
            # that of position m - 1 (B), or of the smaller of p's last two (D)
            for a in range(m - 1):
                if p[a] < p[a + 1]:
                    steps[a] += 1 << a
                else:
                    key += 1 << a
                    steps[a + 1] -= 1 << a
            steps[m - 1 if b or p[m - 2] > p[m - 1] else m - 2] += 1 << (m - 1)
            sums = [key]
            for step in steps:
                sums = [s + t for s in sums for t in (0, step)]
            keys += compress(sums, kept)
            windows += compress(product(*[(v, -v) for v in p]), kept)
        order = sorted(range(len(keys)), key=keys.__getitem__)
        rank = [0] * len(order)
        for w, c in enumerate(order):
            rank[c] = w
        self.elements: tuple[Window, ...] = tuple(map(windows.__getitem__, order))
        self._index: dict[Window, int] = dict(zip(self.elements, range(len(order))))
        keys = list(map(keys.__getitem__, order))
        self._lengths: list[int] = [k // unit for k in keys]
        self._descents: list[int] = [k & low - 1 for k in keys]

        def swap(t: tuple, a: int) -> tuple:
            return t[:a] + (t[a + 1], t[a]) + t[a + 2 :]

        at_perm = {p: q for q, p in enumerate(perms)}
        at_sign = {s: k for k, s in enumerate(signs)}
        moves = [
            ([at_perm[swap(p, a)] for p in perms], [at_sign[swap(s, a)] for s in signs])
            for a in range(m - 1)
        ]
        if b:
            moves.append((range(len(perms)), [at_sign[(*s[:-1], 1 - s[-1])] for s in signs]))
        else:
            moves.append((
                [at_perm[swap(p, m - 2)] for p in perms],
                [at_sign[(*s[:-2], 1 - s[-1], 1 - s[-2])] for s in signs],
            ))
        # the ranks of each permutation's codes
        blocks = [rank[c : c + len(signs)] for c in range(0, len(rank), len(signs))]
        columns = []
        for perm_move, sign_move in moves:
            column: list[int] = []  # per code, the index of its neighbour
            for q in perm_move:
                column += map(blocks[q].__getitem__, sign_move)
            columns.append(map(column.__getitem__, order))
        self._right: list[tuple[int, ...]] = list(zip(*columns))

    @cached_property
    def sigma(self) -> tuple[int, ...]:
        """D_m only: the index of c w c per index w.  sigma swaps s_(m-1) and
        s_m, so it sends w = p s_a, a the lowest right descent, to sigma(p)
        s_sigma(a), and the parent p comes earlier in the list."""
        if self.family != "D":
            raise ValueError("the diagram automorphism is defined for type D only")
        m, descents, right = self.rank, self._descents, self._right
        letter = [*range(m - 2), m - 1, m - 2]
        sigma = [0] * len(self.elements)
        for w in range(1, len(sigma)):
            a = (descents[w] & -descents[w]).bit_length() - 1
            sigma[w] = right[sigma[right[w][a]]][letter[a]]
        return tuple(sigma)

    # -- walks on indices ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def _follow(self, w: int, word: Iterable[int]) -> int:
        """The index of elements[w] * s[i1] * ... * s[ik], word = i1, ..., ik."""
        right = self._right
        for i in word:
            w = right[w][i - 1]
        return w

    def _word(self, w: int) -> list[int]:
        """A reduced word of elements[w]: its greedy descent to the identity, reversed."""
        return self._walk(w, (1 << self.rank) - 1, -1)[1][::-1]

    def _walk(self, w: int, mask: int, step: int) -> tuple[int, list[int]]:
        """Move the index w along the table by the lowest s_i, bit i - 1 set in
        mask, that is a right descent (step -1) or ascent (step +1), while one is.

        Returns where the walk stops and the letters it multiplied by.
        """
        descents, right = self._descents, self._right
        letters = []
        while True:
            free = (descents[w] if step < 0 else ~descents[w]) & mask
            if not free:
                return w, letters
            i = (free & -free).bit_length()
            letters.append(i)
            w = right[w][i - 1]

    # -- parabolic combinatorics --------------------------------------------

    def _check_indices(self, indices: Iterable[int], what: str) -> None:
        """Raise RangeError unless every index names a simple reflection."""
        if not self._indices.issuperset(indices):
            bad = sorted(set(indices) - self._indices)
            raise RangeError("%s out of range (1..%d): %r" % (what, self.rank, bad))

    def _parabolic(self, parabolic: Iterable[int]) -> frozenset[int]:
        key = frozenset(parabolic)
        self._check_indices(key, "parabolic index")
        return key

    @staticmethod
    def _mask(key: frozenset[int]) -> int:
        return sum(1 << (i - 1) for i in key)

    def coset_indices(self, parabolic: Iterable[int]) -> tuple[int, ...]:
        """The indices of the minimal-length representatives of the cosets
        ``w W_P``, in (length, window) order.

        ``parabolic`` lists the simple-reflection indices generating ``W_P``.
        A representative is exactly an element with no right descent in the
        parabolic set.
        """
        key = self._parabolic(parabolic)
        if key not in self._coset_indices:
            mask = self._mask(key)
            self._coset_indices[key] = tuple(
                i for i, d in enumerate(self._descents) if not d & mask
            )
        return self._coset_indices[key]

    # -- window methods ------------------------------------------------------
    # The engine calls none of these four.  They stay, taking and returning
    # windows, because the benchmark's layer wrappers (bench/layers.py) bind
    # them by name until that binding list is refreshed (ROADMAP item 1).

    def _at(self, window: Sequence[int]) -> int:
        """The index of a window, which must name an element of this group."""
        win = tuple(window)
        w = self._index.get(win)
        if w is None:
            raise ValueError("%r is not an element of %s%d" % (win, self.family, self.rank))
        return w

    def min_coset_reps(self, parabolic: Iterable[int]) -> tuple[Window, ...]:
        """The windows of `coset_indices(parabolic)`, in order."""
        return tuple(self.elements[i] for i in self.coset_indices(parabolic))

    def parabolic_decompose(
        self, window: Sequence[int], parabolic: Iterable[int]
    ) -> tuple[Window, Window]:
        """Factor ``w = w_min * w_par`` with lengths adding."""
        mask = self._mask(self._parabolic(parabolic))
        u, letters = self._walk(self._at(window), mask, -1)
        # w = u * s[ik] * ... * s[i1] for the letters i1..ik removed
        return self.elements[u], self.elements[self._follow(0, reversed(letters))]

    def parabolic_longest(self, parabolic: Iterable[int]) -> Window:
        """Longest element of the parabolic subgroup ``W_P``.

        Found by ascent: climb from the identity by any s_i, i in P, that
        lengthens, until every s_i in P is a right descent.
        """
        return self.elements[self._walk(0, self._mask(self._parabolic(parabolic)), 1)[0]]

    def reduced_word(self, window: Sequence[int]) -> tuple[int, ...]:
        """A reduced word for the window, found by greedy right-descent removal.

        The returned indices multiply left to right: ``w = s[i1] * ... * s[ik]``.
        """
        return tuple(self._word(self._at(window)))


def make_group(family: str, rank: int) -> WeylGroup:
    """Return the cached Weyl group of the given family ('B' or 'D') and rank.

    A rank that is not an int (a bool, a float equal to an int) raises
    ValueError before the cache lookup, which takes True for 1."""
    if type(rank) is not int:
        raise ValueError("make_group: rank must be an integer, got %r" % (rank,))
    return _groups(family, rank)


_groups = lru_cache(maxsize=None)(WeylGroup)
