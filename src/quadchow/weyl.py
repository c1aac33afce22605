"""Signed-permutation Weyl groups of types B and D.

Elements are stored in one-line "window" notation: a window ``(w(1), ..., w(m))``
of nonzero integers whose absolute values are a permutation of ``1..m``; the
sign of ``w(j)`` records whether the j-th basis vector is negated.  Type D
admits only windows with an even number of negative entries.

Simple reflections are numbered so that ``s_1 .. s_{m-1}`` are the adjacent
transpositions and the last node is the special one: for B_m the sign change
on the *last* coordinate (simple root ``x_m``), for D_m the signed swap of the
last two coordinates (simple root ``x_{m-1} + x_m``).  Lengths are computed by
counting positive roots sent to negative ones, which keeps the length function
tied to this numbering rather than to a fixed combinatorial statistic.

Groups of rank <= 5 are fully enumerated and cached at construction; larger
ranks are rejected (the geometry downstream never needs more at desk scale).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

__all__ = ["RangeError", "SignedPermutation", "WeylGroup", "make_group", "MAX_RANK"]

MAX_RANK = 5


class RangeError(ValueError):
    """An index or dimension outside the supported range (CLI exit code 3)."""


Root = tuple[int, ...]


class SignedPermutation:
    """One element of a signed-permutation Weyl group."""

    __slots__ = ("group", "window")

    def __init__(self, group: "WeylGroup", window: tuple[int, ...]):
        self.group = group
        self.window = window

    def __call__(self, j: int) -> int:
        """Signed image of basis index ``j`` (1-based); ``w(-j) = -w(j)``."""
        if j < 0:
            return -self.window[-j - 1]
        return self.window[j - 1]

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        """Composition (``other`` applied first, then ``self``)."""
        if self.group is not other.group:
            raise ValueError("group mismatch")
        return SignedPermutation(
            self.group, tuple(self(other(j)) for j in range(1, self.group.rank + 1))
        )

    def inverse(self) -> "SignedPermutation":
        win = [0] * self.group.rank
        for j, v in enumerate(self.window, start=1):
            if v > 0:
                win[v - 1] = j
            else:
                win[-v - 1] = -j
        return SignedPermutation(self.group, tuple(win))

    @property
    def length(self) -> int:
        return self.group.length(self)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SignedPermutation)
            and self.group is other.group
            and self.window == other.window
        )

    def __hash__(self) -> int:
        return hash((self.group.family, self.group.rank, self.window))

    def __repr__(self) -> str:
        return f"SignedPermutation{self.window}"


class WeylGroup:
    """Weyl group of type B_m or D_m, fully enumerated.

    Do not instantiate directly; use :func:`make_group`, which caches one
    group object per (family, rank) so elements of equal provenance share
    their group by identity.
    """

    def __init__(self, family: str, rank: int):
        if family not in ("B", "D"):
            raise ValueError("unsupported family: %r" % (family,))
        if family == "B" and not 1 <= rank <= MAX_RANK:
            raise ValueError("unsupported rank")
        if family == "D" and not 2 <= rank <= MAX_RANK:
            raise ValueError("unsupported rank")
        self.family = family
        self.rank = rank
        self.positive_roots: tuple[Root, ...] = self._positive_roots()
        self.identity = SignedPermutation(self, tuple(range(1, rank + 1)))
        self.simple_reflections: tuple[SignedPermutation, ...] = tuple(
            self._simple_reflection(i) for i in range(1, rank + 1)
        )
        self.elements: tuple[SignedPermutation, ...] = tuple(self._enumerate())
        self._lengths: dict[tuple[int, ...], int] = {
            w.window: self._root_length(w) for w in self.elements
        }
        self.longest_element = max(self.elements, key=lambda w: self._lengths[w.window])
        self._parabolic_longest: dict[frozenset[int], SignedPermutation] = {}
        self._coset_reps: dict[frozenset[int], tuple[SignedPermutation, ...]] = {}

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

    def _simple_reflection(self, i: int) -> SignedPermutation:
        m = self.rank
        win = list(range(1, m + 1))
        if i < m:
            win[i - 1], win[i] = i + 1, i
        elif self.family == "B":
            win[m - 1] = -m
        else:
            if m < 2:
                raise ValueError("unsupported rank")
            win[m - 2], win[m - 1] = -m, -(m - 1)
        return SignedPermutation(self, tuple(win))

    def _enumerate(self) -> Iterator[SignedPermutation]:
        m = self.rank
        for perm in itertools.permutations(range(1, m + 1)):
            for signs in itertools.product((1, -1), repeat=m):
                if self.family == "D" and signs.count(-1) % 2 != 0:
                    continue
                yield SignedPermutation(self, tuple(s * p for s, p in zip(signs, perm)))

    def _root_length(self, w: SignedPermutation) -> int:
        count = 0
        for root in self.positive_roots:
            image = [0] * self.rank
            for j, c in enumerate(root, start=1):
                if c:
                    v = w(j)
                    image[abs(v) - 1] += c * (1 if v > 0 else -1)
            for c in image:
                if c:
                    if c < 0:
                        count += 1
                    break
        return count

    # -- the group interface ----------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[SignedPermutation]:
        return iter(self.elements)

    def element(self, window: Sequence[int]) -> SignedPermutation:
        """Wrap a window after validating it belongs to this group."""
        win = tuple(window)
        if sorted(abs(v) for v in win) != list(range(1, self.rank + 1)):
            raise ValueError("not a signed permutation window: %r" % (win,))
        if self.family == "D" and sum(1 for v in win if v < 0) % 2 != 0:
            raise ValueError("odd number of sign changes in type D: %r" % (win,))
        return SignedPermutation(self, win)

    def multiply(self, w: SignedPermutation, v: SignedPermutation) -> SignedPermutation:
        if w.group is not self or v.group is not self:
            raise ValueError("group mismatch")
        return w * v

    def inverse(self, w: SignedPermutation) -> SignedPermutation:
        return w.inverse()

    def length(self, w: SignedPermutation) -> int:
        if w.group is not self:
            raise ValueError("group mismatch")
        return self._lengths[w.window]

    def right_descents(self, w: SignedPermutation) -> list[int]:
        lw = self.length(w)
        return [
            i
            for i, s in enumerate(self.simple_reflections, start=1)
            if self.length(w * s) < lw
        ]

    def reduced_word(self, w: SignedPermutation) -> tuple[int, ...]:
        """A reduced word for ``w``, found by greedy right-descent removal.

        The returned indices multiply left to right: ``w = s[i1] * ... * s[ik]``.
        """
        word_rev = []
        u = w
        lu = self.length(u)
        while lu:
            for i, s in enumerate(self.simple_reflections, start=1):
                us = u * s
                lus = self.length(us)
                if lus < lu:
                    word_rev.append(i)
                    u, lu = us, lus
                    break
        return tuple(reversed(word_rev))

    def from_word(self, word: Iterable[int]) -> SignedPermutation:
        w = self.identity
        for i in word:
            w = w * self.simple_reflections[i - 1]
        return w

    # -- parabolic combinatorics --------------------------------------------

    def min_coset_reps(self, parabolic: Iterable[int]) -> tuple[SignedPermutation, ...]:
        """Minimal-length representatives of the cosets ``w W_P``.

        ``parabolic`` lists the simple-reflection indices generating ``W_P``.
        A representative is exactly an element with no right descent in the
        parabolic set.
        """
        key = frozenset(parabolic)
        if not key <= set(range(1, self.rank + 1)):
            raise RangeError("parabolic indices out of range: %r" % (sorted(key),))
        if key not in self._coset_reps:
            reps = [
                w
                for w in self.elements
                if all(
                    self.length(w * self.simple_reflections[i - 1]) > self.length(w)
                    for i in key
                )
            ]
            reps.sort(key=lambda w: (self.length(w), w.window))
            self._coset_reps[key] = tuple(reps)
        return self._coset_reps[key]

    def parabolic_decompose(
        self, w: SignedPermutation, parabolic: Iterable[int]
    ) -> tuple[SignedPermutation, SignedPermutation]:
        """Factor ``w = w_min * w_par`` with lengths adding."""
        key = frozenset(parabolic)
        u = w
        par = self.identity
        while True:
            lu = self.length(u)
            for i in key:
                s = self.simple_reflections[i - 1]
                if self.length(u * s) < lu:
                    u = u * s
                    par = s * par
                    break
            else:
                return u, par

    def parabolic_longest(self, parabolic: Iterable[int]) -> SignedPermutation:
        """Longest element of the parabolic subgroup ``W_P``."""
        key = frozenset(parabolic)
        if key not in self._parabolic_longest:
            best = self.identity
            for w in self.elements:
                w_min, w_par = self.parabolic_decompose(w, key)
                if w_min == self.identity and self.length(w) > self.length(best):
                    best = w
            self._parabolic_longest[key] = best
        return self._parabolic_longest[key]


@lru_cache(maxsize=None)
def make_group(family: str, rank: int) -> WeylGroup:
    """Return the cached Weyl group of the given family ('B' or 'D') and rank."""
    return WeylGroup(family, rank)
