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

Construction is one breadth-first walk of the Cayley graph of the simple
reflections from the identity, each level taken in window order.  Right
multiplication by s_i is an edit of the window -- for i < m it swaps entries
i and i + 1; the last node negates the last entry (B) or swaps and negates the
last two (D) -- so the walk needs no generic product.  It lists every window
sorted by (length, window), since the length of w is its distance from the
identity (the test suite checks it against the count of positive roots sent
to negative ones).  An element has one name, its index: its position in that
list; its window is what prints.  The tables hold per index the indices of
``w * s_1, ..., w * s_m``, the length, and the right descents as one bitmask:
bit i - 1 is set when l(w s_i) < l(w), which holds exactly when w s_i was
reached at the level below.  Every descent or ascent question reads that
integer: a minimal coset representative of W_P is an element with no right
descent in P, and reduced words, parabolic factorisations and w_0(P) walk the
table by the lowest set bit of the descents (or ascents) inside a mask of
indices.  The longest element w_0(P) of a parabolic subgroup W_P is the
unique element of W_P whose right descents are all of P, so an ascent from
the identity inside W_P reaches it in l(w_0(P)) steps (Bjorner-Brenti,
Combinatorics of Coxeter Groups, 2.4).  The walks run on indices.  The
diagram automorphism of D_m, w -> c w c with c the sign change of the last
coordinate, is the index table ``sigma``.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Iterable, Sequence

__all__ = ["RangeError", "WeylGroup", "make_group", "MAX_RANK"]

MAX_RANK = 5


class RangeError(ValueError):
    """An index or dimension outside the supported range (CLI exit code 3)."""


Root = tuple[int, ...]
Window = tuple[int, ...]


class WeylGroup:
    """Weyl group of type B_m or D_m, built by one walk from the identity.

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
        # window -> index; then per index: right-descent mask, length, and the
        # indices of w * s_1, ..., w * s_m
        self._index: dict[Window, int] = {}
        self._descents: list[int] = []
        self._lengths: list[int] = []
        self._right: list[tuple[int, ...]] = []
        self.elements: tuple[Window, ...] = self._walk_from_identity()
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

    def _walk_from_identity(self) -> tuple[Window, ...]:
        """Every window, sorted by (length, window), by a breadth-first walk
        from the identity that fills the index tables.

        Each level is taken in window order, and each row is built from the
        m window edits.  w s_i lies one level above or below w; s_i is a right
        descent exactly when w s_i lies in the level below, which is already
        indexed, and sets bit i - 1.  The rows name windows until the walk ends.
        """
        m, last_b = self.rank, self.family == "B"
        bits = [1 << i for i in range(m)]
        index, rows = self._index, []
        level, frontier = 0, [tuple(range(1, m + 1))]
        while frontier:
            above: set[Window] = set()
            for win in frontier:
                index[win] = len(index)
                edits = [win[:i] + (win[i + 1], win[i]) + win[i + 2 :] for i in range(m - 1)]
                if last_b:
                    edits.append(win[:-1] + (-win[-1],))
                else:
                    edits.append(win[:-2] + (-win[-1], -win[-2]))
                mask = 0
                for bit, ws in zip(bits, edits):
                    if ws in index:
                        mask |= bit
                    else:
                        above.add(ws)
                rows.append(edits)
                self._descents.append(mask)
                self._lengths.append(level)
            level, frontier = level + 1, sorted(above)
        self._right.extend([tuple(map(index.__getitem__, row)) for row in rows])
        return tuple(index)

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


@lru_cache(maxsize=None)
def make_group(family: str, rank: int) -> WeylGroup:
    """Return the cached Weyl group of the given family ('B' or 'D') and rank."""
    return WeylGroup(family, rank)
