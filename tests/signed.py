"""Signed permutations with the generic product: the tests' oracle for the
Weyl group's index tables.

The engine names an element by its index in `WeylGroup.elements` and reads
its window only to print; every product it needs is a walk on the
right-multiplication table.  `SignedPermutation` composes windows directly,
so the tests can check those tables, `sigma`, the Weyl action and the
restriction rows against products computed without them.
"""

from __future__ import annotations

from typing import Sequence


class SignedPermutation:
    """The signed permutation with window ``(w(1), ..., w(m))``."""

    __slots__ = ("window",)

    def __init__(self, window: Sequence[int]):
        self.window = tuple(window)

    def __call__(self, j: int) -> int:
        """Signed image of basis index ``j`` (1-based); ``w(-j) = -w(j)``."""
        if j < 0:
            return -self.window[-j - 1]
        return self.window[j - 1]

    def __mul__(self, other: SignedPermutation) -> SignedPermutation:
        """Composition (``other`` applied first, then ``self``)."""
        if len(self.window) != len(other.window):
            raise ValueError("rank mismatch")
        return SignedPermutation(tuple(self(other(j)) for j in range(1, len(self.window) + 1)))

    def inverse(self) -> SignedPermutation:
        win = [0] * len(self.window)
        for j, v in enumerate(self.window, start=1):
            if v > 0:
                win[v - 1] = j
            else:
                win[-v - 1] = -j
        return SignedPermutation(win)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SignedPermutation) and self.window == other.window

    def __hash__(self) -> int:
        return hash(self.window)

    def __repr__(self) -> str:
        return f"SignedPermutation{self.window}"


def elements(G) -> list[SignedPermutation]:
    """Every element of the group, in the order of `G.elements`."""
    return [SignedPermutation(w) for w in G.elements]


def simple_reflections(G) -> list[SignedPermutation]:
    """s_1, ..., s_m of the group."""
    return [SignedPermutation(s) for s in G.simple_reflections]


def identity(G) -> SignedPermutation:
    return SignedPermutation(range(1, G.rank + 1))


def length(G, w: SignedPermutation) -> int:
    """The length of w, read from the group's table."""
    return G._lengths[G._index[w.window]]
