"""Sparse multivariate polynomials with integer numerators over one common
denominator, with the signed Weyl action and type-B/D divided differences.

A polynomial in ``m`` variables is a map from exponent tuples of length ``m``
to nonzero integer numerators, together with one positive integer ``den``;
the polynomial is ``sum(c * x^e) / den``.  Sums bring both operands to a
common denominator, products multiply denominators, and the Weyl action and
divided differences keep the denominator.  Nothing is reduced: the point
class of the flag variety is ``prod(roots)`` over ``|W|``, a k-fold product of
Schubert representatives carries ``|W|^k``, and a caller that extracts a
coefficient divides once, at the end.  Equality and hashing compare values,
so ``2/4 == 1/2``.

The Weyl group acts by permuting the variables and negating the signed ones;
the divided difference for the i-th simple root ``a_i`` is

    div_i(f) = (f - s_i . f) / a_i.

Simple roots follow the numbering used in :mod:`quadchow.weyl`:
``x_1 - x_2, ..., x_{m-1} - x_m`` and then ``x_m`` (type B) or
``x_{m-1} + x_m`` (type D).  Every simple root is monic in its main variable,
so the division of an integer numerator is again integral, and it is exact
because ``f - s_i . f`` is antisymmetric under ``s_i``.  `divided_difference`
applies this monomial by monomial in one pass: with ``y = sigma * x_b`` the
reflection swaps ``x_a`` and ``y`` and the root is ``x_a - y``, and
``(x_a^p y^q - x_a^q y^p) / (x_a - y)`` is a geometric sum.  The reflection
and root are read off the group's own simple reflection, so the two cannot
disagree.  `_divide_linear` is the long division by a root, kept as the
reference the kernel is tested against; it raises ``ArithmeticError`` on a
nonzero remainder rather than returning approximate data.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Mapping

from quadchow.weyl import RangeError, SignedPermutation, WeylGroup

__all__ = [
    "Polynomial",
    "variable",
    "constant",
    "act",
    "divided_difference",
    "divided_difference_word",
]

Expo = tuple[int, ...]


def _make(nvars: int, coeffs: dict[Expo, int], den: int) -> "Polynomial":
    """Wrap already-clean integer numerators (no zeros) without copying."""
    f = object.__new__(Polynomial)
    f.nvars = nvars
    f.coeffs = coeffs
    f.den = den
    return f


class Polynomial:
    """Immutable sparse polynomial: integer numerators ``coeffs`` over ``den``.

    The constructor also accepts ``Fraction`` (or int) values; they are
    brought to one common denominator.
    """

    __slots__ = ("nvars", "coeffs", "den")

    def __init__(
        self, nvars: int, coeffs: Mapping[Expo, Fraction | int] | None = None, den: int = 1
    ):
        if den <= 0:
            raise ValueError("denominator must be positive")
        ratios = {e: c.as_integer_ratio() for e, c in (coeffs or {}).items() if c}
        scale = lcm(*(q for _, q in ratios.values()))
        self.nvars = nvars
        self.coeffs = {e: p * (scale // q) for e, (p, q) in ratios.items()}
        self.den = den * scale

    # -- ring structure -----------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return _combine(self, other, 1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return _combine(self, other, -1)

    def __neg__(self) -> "Polynomial":
        return _make(self.nvars, {e: -c for e, c in self.coeffs.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        add = operator.add
        out: dict[Expo, int] = {}
        get = out.get
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
        return _make(self.nvars, {e: c for e, c in out.items() if c}, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        result = constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def scale(self, c) -> "Polynomial":
        num, den = c.as_integer_ratio()
        if not num:
            return Polynomial(self.nvars)
        return _make(self.nvars, {e: num * v for e, v in self.coeffs.items()}, self.den * den)

    def _check(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError("rank mismatch")

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(sum(e) for e in self.coeffs)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.coeffs}
        return len(degrees) <= 1

    def constant_term(self) -> Fraction:
        return Fraction(self.coeffs.get((0,) * self.nvars, 0), self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial) or self.nvars != other.nvars:
            return False
        if self.den == other.den:
            return self.coeffs == other.coeffs
        if self.coeffs.keys() != other.coeffs.keys():
            return False
        d1, d2, theirs = self.den, other.den, other.coeffs
        return all(c * d2 == theirs[e] * d1 for e, c in self.coeffs.items())

    def __hash__(self) -> int:
        g = gcd(self.den, *self.coeffs.values())
        reduced = frozenset((e, c // g) for e, c in self.coeffs.items())
        return hash((self.nvars, self.den // g, reduced))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = Fraction(self.coeffs[e], self.den)
            mono = "*".join(
                f"x{i+1}" if p == 1 else f"x{i+1}^{p}" for i, p in enumerate(e) if p
            )
            parts.append(f"{c}" if not mono else f"{c}*{mono}")
        return " + ".join(parts)


def _combine(f: Polynomial, g: Polynomial, sign: int) -> Polynomial:
    """``f + sign * g`` over the least common denominator."""
    f._check(g)
    den = lcm(f.den, g.den)
    a, b = den // f.den, sign * (den // g.den)
    out = {e: a * c for e, c in f.coeffs.items()} if a != 1 else dict(f.coeffs)
    get = out.get
    for e, c in g.coeffs.items():
        out[e] = get(e, 0) + b * c
    return _make(f.nvars, {e: c for e, c in out.items() if c}, den)


def variable(nvars: int, i: int) -> Polynomial:
    """The variable ``x_i`` (1-based) in ``nvars`` variables."""
    e = [0] * nvars
    e[i - 1] = 1
    return _make(nvars, {tuple(e): 1}, 1)


def constant(nvars: int, c) -> Polynomial:
    return Polynomial(nvars, {(0,) * nvars: c})


def act(w: SignedPermutation, f: Polynomial) -> Polynomial:
    """Ring automorphism sending ``x_j`` to ``sign(w(j)) * x_{|w(j)|}``."""
    m = w.group.rank
    if f.nvars != m:
        raise ValueError("rank mismatch")
    window = w.window
    out: dict[Expo, int] = {}
    for e, c in f.coeffs.items():
        new = [0] * m
        sign = 1
        for j, p in enumerate(e):
            if p:
                v = window[j]
                new[abs(v) - 1] = p
                if v < 0 and p % 2:
                    sign = -sign
        out[tuple(new)] = sign * c
    return _make(m, out, f.den)


def _divide_linear(f: Polynomial, a: int, b: int | None, s: int) -> Polynomial:
    """Exact division of ``f`` by ``x_a - s*x_b`` (or by ``x_a`` when b is None).

    Integer synthetic division with main variable ``x_a`` (the divisor is
    monic in it); raises ArithmeticError when the remainder is nonzero.
    """
    m = f.nvars
    if b is None:
        out = {}
        for e, c in f.coeffs.items():
            if e[a - 1] == 0:
                raise ArithmeticError("inexact division by simple root")
            new = list(e)
            new[a - 1] -= 1
            out[tuple(new)] = c
        return _make(m, out, f.den)
    # Group by the exponent of x_a:  f = sum_k f_k * x_a^k.
    layers: dict[int, dict[Expo, int]] = {}
    for e, c in f.coeffs.items():
        rest = list(e)
        rest[a - 1] = 0
        layers.setdefault(e[a - 1], {})[tuple(rest)] = c
    out: dict[Expo, int] = {}
    carry: dict[Expo, int] = {}
    # Synthetic division: q_{k-1} = f_k + s * x_b * q_k, remainder f_0 + s*x_b*q_0.
    for k in range(max(layers, default=0), 0, -1):
        q = dict(layers.get(k, {}))
        for e, c in carry.items():
            q[e] = q.get(e, 0) + c
        carry = {}
        for e, c in q.items():
            if c:
                new = list(e)
                new[a - 1] = k - 1
                out[tuple(new)] = c
                new[a - 1] = 0
                new[b - 1] += 1
                carry[tuple(new)] = s * c
    remainder = dict(layers.get(0, {}))
    for e, c in carry.items():
        remainder[e] = remainder.get(e, 0) + c
    if any(remainder.values()):
        raise ArithmeticError("inexact division by simple root")
    return _make(m, out, f.den)


def simple_root(group: WeylGroup, i: int) -> Polynomial:
    m = group.rank
    if not 1 <= i <= m:
        raise RangeError("simple index out of range")
    if i < m:
        return variable(m, i) - variable(m, i + 1)
    if group.family == "B":
        return variable(m, m)
    return variable(m, m - 1) + variable(m, m)


@lru_cache(maxsize=None)
def _reflection_kernel(window: Expo) -> tuple[int, int | None, int]:
    """``(a, b, sigma)`` (0-based) for the simple reflection with this window.

    A sign change of ``x_a`` has root ``x_a`` and ``b = None``; a signed swap
    ``x_a <-> sigma * x_b`` has root ``x_a - sigma * x_b`` with ``b = a + 1``.
    """
    moved = [j for j, v in enumerate(window) if v != j + 1]
    if len(moved) == 1 and window[moved[0]] == -(moved[0] + 1):
        return moved[0], None, 1
    if len(moved) == 2:
        a, b = moved
        sigma = 1 if window[a] > 0 else -1
        if b == a + 1 and window[a] == sigma * (b + 1) and window[b] == sigma * (a + 1):
            return a, b, sigma
    raise ValueError("not a simple reflection of type B/D: %r" % (window,))


def divided_difference(group: WeylGroup, i: int, f: Polynomial) -> Polynomial:
    """The operator ``(f - s_i . f) / alpha_i``; drops degree by exactly one."""
    m = group.rank
    if f.nvars != m:
        raise ValueError("rank mismatch")
    if not 1 <= i <= m:
        raise RangeError("simple index out of range")
    a, b, sigma = _reflection_kernel(group.simple_reflections[i - 1].window)
    out: dict[Expo, int] = {}
    get = out.get
    if b is None:
        # (1 - (-1)^p) x^e / x_a: twice the monomial for odd p, else zero
        for e, c in f.coeffs.items():
            p = e[a]
            if p & 1:
                new = e[:a] + (p - 1,) + e[a + 1 :]
                out[new] = 2 * c
        return _make(m, out, f.den)
    for e, c in f.coeffs.items():
        p = e[a]
        q = e[b]
        if p == q:
            continue
        # x_a^p x_b^q = sigma^q x_a^p y^q; divide x_a^p y^q - x_a^q y^p by x_a - y
        if p < q:
            lo, hi, c = p, q, -c
        else:
            lo, hi = q, p
        if sigma < 0 and (q + hi - 1) & 1:
            c = -c
        head = e[:a]
        tail = e[b + 1 :]
        top = hi + lo - 1
        for t in range(lo, hi):
            # x_a^t y^(top - t), and y^j = sigma^j x_b^j
            new = head + (t, top - t) + tail
            out[new] = get(new, 0) + c
            if sigma < 0:
                c = -c
    return _make(m, {e: c for e, c in out.items() if c}, f.den)


def divided_difference_word(
    group: WeylGroup, word: Iterable[int], f: Polynomial
) -> Polynomial:
    """Compose divided differences along a word, rightmost letter applied first.

    For a reduced word of ``w`` the result depends only on ``w`` (the braid
    relations hold for these operators); this is exercised by the test suite,
    not assumed here.
    """
    for i in reversed(tuple(word)):
        f = divided_difference(group, i, f)
        if f.is_zero():
            return f
    return f
