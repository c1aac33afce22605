"""Sparse multivariate polynomials with integer numerators over one common
denominator, with the signed Weyl action and type-B/D divided differences.

A polynomial in ``m`` variables maps monomials to nonzero integer numerators
and carries one positive integer ``den``; the polynomial is
``sum(c * x^e) / den``.  Sums bring both operands to a common denominator,
products multiply denominators, and the Weyl action and divided differences
keep the denominator.  Nothing is reduced: a k-fold product of Schubert
representatives carries ``|W|^k``, and a caller that extracts a coefficient
divides once, at the end.  Equality and hashing compare values, so
``2/4 == 1/2``.

Each monomial is packed into one integer, ``terms``' key: exponent ``e_j`` of
``x_{j+1}`` sits in the ``BITS``-wide field at bit ``BITS * j``, and the total
degree in the field above the last variable.  A product of monomials is then
one integer add, a term's degree one shift, the constant monomial is key 0,
and the largest key has the largest degree.  Every field stays below
``2**BITS`` because the degree does and every exponent is at most the
degree; a constructor argument, product or power whose degree would pass it
raises ``OverflowError`` before any field could carry into its neighbour.
``coeffs`` decodes the keys back to exponent tuples, for display and for
callers that read monomials.  ``homogeneous_parts`` splits a polynomial by
degree and ``numerator_at`` evaluates a numerator at integer points, for the
fixed-point solve of ``FlagModel.expand``, so the keys stay in this module.

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
``(x_a^p y^q - x_a^q y^p) / (x_a - y)`` is a geometric sum, whose packed keys
form an arithmetic progression with step ``2^(BITS a) - 2^(BITS b)``.  The
reflection and root are read off the group's own simple reflection, so the
two cannot disagree.  The test suite checks the kernel against a long
division by the root written on exponent tuples.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from typing import Callable, Iterable, Mapping, Sequence

from quadchow.weyl import RangeError, WeylGroup

__all__ = [
    "Polynomial",
    "variable",
    "constant",
    "act",
    "divided_difference",
    "divided_difference_word",
]

Expo = tuple[int, ...]

BITS = 8  # width of one exponent field and of the degree field
MASK = (1 << BITS) - 1


def _pack(e: Expo, nvars: int) -> int:
    """The key of the monomial ``x^e``."""
    if len(e) != nvars:
        raise ValueError("exponent tuple of length %d in %d variables" % (len(e), nvars))
    if min(e, default=0) < 0:
        raise ValueError("negative exponent in %r" % (e,))
    degree = sum(e)
    if degree > MASK:
        raise OverflowError("degree %d exceeds the %d-bit exponent field" % (degree, BITS))
    key = degree << (BITS * nvars)
    for j, p in enumerate(e):
        key += p << (BITS * j)
    return key


def _unpack(key: int, nvars: int) -> Expo:
    return tuple(key >> (BITS * j) & MASK for j in range(nvars))


def _make(nvars: int, terms: dict[int, int], den: int) -> "Polynomial":
    """Wrap already-clean packed numerators (no zeros) without copying."""
    f = object.__new__(Polynomial)
    f.nvars = nvars
    f.terms = terms
    f.den = den
    return f


class Polynomial:
    """Immutable sparse polynomial: integer numerators over ``den``.

    ``terms`` maps packed monomial keys to numerators; ``coeffs`` is the same
    map keyed by exponent tuples.  The constructor takes exponent tuples and
    also accepts ``Fraction`` (or int) values; they are brought to one common
    denominator.
    """

    __slots__ = ("nvars", "terms", "den")

    def __init__(
        self, nvars: int, coeffs: Mapping[Expo, Fraction | int] | None = None, den: int = 1
    ):
        if den <= 0:
            raise ValueError("denominator must be positive")
        ratios = {_pack(e, nvars): c.as_integer_ratio() for e, c in (coeffs or {}).items() if c}
        scale = lcm(*(q for _, q in ratios.values()))
        self.nvars = nvars
        self.terms = {k: p * (scale // q) for k, (p, q) in ratios.items()}
        self.den = den * scale

    @property
    def coeffs(self) -> dict[Expo, int]:
        """The numerators keyed by exponent tuples (a fresh dict)."""
        m = self.nvars
        return {_unpack(k, m): c for k, c in self.terms.items()}

    # -- ring structure -----------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return _combine(self, other, 1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return _combine(self, other, -1)

    def __neg__(self) -> "Polynomial":
        return _make(self.nvars, {k: -c for k, c in self.terms.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        mine, theirs = self.terms, other.terms
        out: dict[int, int] = {}
        if mine and theirs:
            if (max(mine) + max(theirs)) >> (BITS * self.nvars) > MASK:
                raise OverflowError("product degree exceeds the %d-bit exponent field" % BITS)
            get = out.get
            pairs = theirs.items()
            for k1, c1 in mine.items():
                for k2, c2 in pairs:
                    k = k1 + k2
                    out[k] = get(k, 0) + c1 * c2
        return _make(self.nvars, {k: c for k, c in out.items() if c}, self.den * other.den)

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
        return _make(self.nvars, {k: num * v for k, v in self.terms.items()}, self.den * den)

    def _check(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError("rank mismatch")

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(self.terms) >> (BITS * self.nvars)

    def degrees(self) -> set[int]:
        """The total degrees of the terms."""
        shift = BITS * self.nvars
        return {k >> shift for k in self.terms}

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def constant_term(self) -> Fraction:
        return Fraction(self.terms.get(0, 0), self.den)

    def homogeneous_parts(self) -> dict[int, "Polynomial"]:
        """The part of each degree, keyed by degree, over the same denominator."""
        shift = BITS * self.nvars
        parts: dict[int, dict[int, int]] = {}
        for k, c in self.terms.items():
            parts.setdefault(k >> shift, {})[k] = c
        return {deg: _make(self.nvars, terms, self.den) for deg, terms in parts.items()}

    def numerator_at(self) -> Callable[[Sequence[int]], int]:
        """The numerator as a function of an integer point, sum(c * point^e);
        the exponents are unpacked once, for evaluation at many points."""
        m = self.nvars
        terms = [(c, [k >> (BITS * j) & MASK for j in range(m)]) for k, c in self.terms.items()]

        def value(point: Sequence[int]) -> int:
            if len(point) != m:
                raise ValueError("point of length %d in %d variables" % (len(point), m))
            return sum(c * prod(map(pow, point, e)) for c, e in terms)

        return value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial) or self.nvars != other.nvars:
            return False
        if self.den == other.den:
            return self.terms == other.terms
        if self.terms.keys() != other.terms.keys():
            return False
        d1, d2, theirs = self.den, other.den, other.terms
        return all(c * d2 == theirs[k] * d1 for k, c in self.terms.items())

    def __hash__(self) -> int:
        g = gcd(self.den, *self.terms.values())
        reduced = frozenset((k, c // g) for k, c in self.terms.items())
        return hash((self.nvars, self.den // g, reduced))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        coeffs = self.coeffs
        parts = []
        for e in sorted(coeffs, reverse=True):
            c = Fraction(coeffs[e], self.den)
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
    out = {k: a * c for k, c in f.terms.items()} if a != 1 else dict(f.terms)
    get = out.get
    for k, c in g.terms.items():
        out[k] = get(k, 0) + b * c
    return _make(f.nvars, {k: c for k, c in out.items() if c}, den)


def variable(nvars: int, i: int) -> Polynomial:
    """The variable ``x_i`` (1-based) in ``nvars`` variables."""
    if not 1 <= i <= nvars:
        raise RangeError("variable index out of range")
    return _make(nvars, {1 << (BITS * nvars) | 1 << (BITS * (i - 1)): 1}, 1)


def constant(nvars: int, c) -> Polynomial:
    return Polynomial(nvars, {(0,) * nvars: c})


def act(window: Sequence[int], f: Polynomial) -> Polynomial:
    """Ring automorphism sending ``x_j`` to ``sign(w(j)) * x_{|w(j)|}``, w the
    signed permutation with this window."""
    m = len(window)
    if f.nvars != m:
        raise ValueError("rank mismatch")
    shift = BITS * m
    out: dict[int, int] = {}
    for k, c in f.terms.items():
        new = k >> shift << shift  # the degree field is unchanged
        sign = 1
        for j, v in enumerate(window):
            p = k >> (BITS * j) & MASK
            if p:
                new += p << (BITS * (abs(v) - 1))
                if v < 0 and p & 1:
                    sign = -sign
        out[new] = sign * c
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
    a, b, sigma = _reflection_kernel(group.simple_reflections[i - 1])
    sa = BITS * a
    one = 1 << (BITS * m)  # degree one, in the degree field
    if b is None:
        # (1 - (-1)^p) x^e / x_a: twice the monomial for odd p, else zero
        drop = one + (1 << sa)
        return _make(m, {k - drop: 2 * c for k, c in f.terms.items() if k >> sa & 1}, f.den)
    sb = sa + BITS
    step = (1 << sa) - (1 << sb)  # x_a^t y^s -> x_a^(t+1) y^(s-1)
    out: dict[int, int] = {}
    get = out.get
    for k, c in f.terms.items():
        p = k >> sa & MASK
        q = k >> sb & MASK
        if p == q:
            continue
        # x_a^p x_b^q = sigma^q x_a^p y^q; divide x_a^p y^q - x_a^q y^p by x_a - y
        if p < q:
            lo, hi, c = p, q, -c
        else:
            lo, hi = q, p
        if sigma < 0 and (q + hi - 1) & 1:
            c = -c
        # the terms x_a^t y^(hi + lo - 1 - t) for lo <= t < hi, from t = lo
        first = k - one + ((lo - p) << sa) + ((hi - 1 - q) << sb)
        if hi - lo == 1:  # the most common case after p == q
            out[first] = get(first, 0) + c
            continue
        end = first + (hi - lo) * step
        if sigma > 0:
            for new in range(first, end, step):
                out[new] = get(new, 0) + c
        else:
            # y^j = sigma^j x_b^j: the sign alternates along the progression
            for new in range(first, end, 2 * step):
                out[new] = get(new, 0) + c
            for new in range(first + step, end, 2 * step):
                out[new] = get(new, 0) - c
    return _make(m, {k: c for k, c in out.items() if c}, f.den)


def divided_difference_word(
    group: WeylGroup, word: Iterable[int], f: Polynomial
) -> Polynomial:
    """Compose divided differences along a word, rightmost letter applied first.

    For a reduced word of ``w`` the result depends only on ``w`` (the braid
    relations hold for these operators); this is exercised by the test suite,
    not assumed here.  ``FlagModel.expand`` solves from values at the fixed
    points instead; applied to one word per basis element, this form is the
    reference its tests compare against.
    """
    for i in reversed(tuple(word)):
        f = divided_difference(group, i, f)
        if f.is_zero():
            return f
    return f
