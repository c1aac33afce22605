"""The Chow ring of powers of a split quadric, with its monomial basis and
correspondence algebra.

A basis monomial on X^m is an m-tuple of single-factor classes drawn from

    h^0, ..., h^d     (h^d excluded for even n, where it is not primitive),
    l_0, ..., l_d     and the second ruling l_d' when n is even,

where h is the hyperplane class (codim a for h^a) and l_b the class of a
b-dimensional totally isotropic subspace (codim n - b).  Products reduce by
the split-quadric rules:

    h^a . h^b : add exponents, then h^{n-k} = 2 l_k below the middle
                (and h^d = l_d + l_d' when n is even);
    h . l_b   = l_{b-1},   h . l_0 = 0;
    l_a . l_b = 0 except in the even middle, where the n mod 4 dichotomy
                applies: 4 | n gives l_d^2 = l_0, l_d . l_d' = 0, and
                n = 2 mod 4 gives l_d^2 = 0, l_d . l_d' = l_0.

Everything downstream (symmetrization, projections, diagonals, correspondence
composition) is induced factor-wise from these rules with exact integer
coefficients; a parallel mod-2 lane reduces coefficients after each step.
``_slot_products`` multiplies out one sum of classes per slot, and
``contract`` pairs slots by degree for every correspondence composition and
action, here and in ``quadchow.bridge``.

n = 2 is admitted here (the basis rules make sense and provide edge cases for
the diagonal identities) even though the flag-variety modules start at n = 3.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from quadchow.schubert import QuadricContext, SparseCycle
from quadchow.weyl import RangeError

__all__ = [
    "QuadCycle",
    "Correspondence",
    "quad_context",
    "basis_symbols",
    "one",
    "monomial_cycle",
    "h_power_cycle",
    "l_cycle",
    "lp_cycle",
    "external",
    "contract",
    "sym",
    "sym_h_chain",
    "alternating_sym",
    "diagonal_class",
    "delta_i",
    "rho_i",
    "rost",
    "primordial_shape",
    "parse_cycle",
    "format_cycle",
]

Sym = tuple[str, int]
Mono = tuple[Sym, ...]


def quad_context(n: int, orientation: int = 1) -> QuadricContext:
    if n < 2:
        raise RangeError("n out of range (quadric powers support n >= 2)")
    return QuadricContext(n, orientation)


def basis_symbols(ctx: QuadricContext) -> list[Sym]:
    d = ctx.d
    h_top = d if ctx.n % 2 else d - 1
    syms: list[Sym] = [("h", a) for a in range(h_top + 1)]
    if ctx.n % 2 == 0:
        syms += [("l", d), ("lp", d)]
    syms += [("l", b) for b in range(d - (ctx.n % 2 == 0), -1, -1)]
    return syms


def codim1(ctx: QuadricContext, s: Sym) -> int:
    return s[1] if s[0] == "h" else ctx.n - s[1]


def _check_symbol(ctx: QuadricContext, s: Sym) -> None:
    kind, idx = s
    d = ctx.d
    if kind == "h":
        top = d if ctx.n % 2 else d - 1
        if not 0 <= idx <= top:
            raise ValueError("h power outside the basis: %r" % (s,))
    elif kind == "l":
        if not 0 <= idx <= d:
            raise RangeError("isotropic index out of range: %r" % (s,))
    elif kind == "lp":
        if ctx.n % 2 or idx != d:
            raise ValueError("second ruling only exists in the middle for even n")
    else:
        raise ValueError("unknown symbol kind: %r" % (s,))


def _h_reduce(ctx: QuadricContext, a: int) -> dict[Sym, int]:
    """h^a expanded over the basis (h^{n-k} = 2 l_k; h^d splits when n is even)."""
    n, d = ctx.n, ctx.d
    if a < 0 or a > n:
        return {}
    if ctx.n % 2:
        if a <= d:
            return {("h", a): 1}
        return {("l", n - a): 2}
    if a <= d - 1:
        return {("h", a): 1}
    if a == d:
        return {("l", d): 1, ("lp", d): 1}
    return {("l", n - a): 2}


def mul1(ctx: QuadricContext, s: Sym, t: Sym) -> dict[Sym, int]:
    """Product of two single-factor basis classes."""
    n, d = ctx.n, ctx.d
    if s[0] == "h" and t[0] == "h":
        return _h_reduce(ctx, s[1] + t[1])
    if s[0] == "h" or t[0] == "h":
        hpow, iso = (s[1], t) if s[0] == "h" else (t[1], s)
        if hpow == 0:
            return {iso: 1}
        if iso[1] - hpow < 0:
            return {}
        return {("l", iso[1] - hpow): 1}
    # two isotropic classes: zero unless both in the even middle
    if ctx.n % 2 or s[1] != d or t[1] != d:
        return {}
    same = s[0] == t[0]
    if n % 4 == 0:
        return {("l", 0): 1} if same else {}
    return {} if same else {("l", 0): 1}


def pair_deg(ctx: QuadricContext, s: Sym, t: Sym) -> int:
    """deg(s . t) on X: the l_0-coefficient of the product."""
    return mul1(ctx, s, t).get(("l", 0), 0)


def _pairing(ctx: QuadricContext, xs: Sequence[Sym], ys: Sequence[Sym]) -> int:
    """The product of pair_deg over aligned slots; 0 as soon as one slot is."""
    factor = 1
    for s, t in zip(xs, ys):
        factor *= pair_deg(ctx, s, t)
        if not factor:
            return 0
    return factor


def contract(ctx: QuadricContext, left: Iterable[tuple], right: Sequence[tuple]) -> dict:
    """The slot pairing behind every correspondence: over terms (kept key,
    paired slots, coeff) of each side, sum c1 c2 deg(s1 . s2) on key k1 + k2."""
    out: dict = {}
    for k1, s1, c1 in left:
        for k2, s2, c2 in right:
            factor = _pairing(ctx, s1, s2)
            if factor:
                key = k1 + k2
                out[key] = out.get(key, 0) + c1 * c2 * factor
    return out


def _slot_products(c: int, slots: Iterable[Iterable[tuple[Sym, int]]]):
    """Multiply out one sum of (symbol, coeff) terms per slot: yield (mono, c
    times the picked coeffs) for each pick of one term per slot.  Distinct
    picks give distinct monomials."""
    for combo in itertools.product(*slots):
        cv = c
        for _, f in combo:
            cv *= f
        yield tuple(s for s, _ in combo), cv


def dual1(ctx: QuadricContext, s: Sym) -> Sym:
    """The Poincare dual basis class (deg(s . dual1(s)) = 1, others 0)."""
    d = ctx.d
    if s[0] == "h":
        return ("l", s[1])
    if ctx.n % 2 == 0 and s[1] == d:
        if ctx.n % 4 == 0:
            return s
        return ("lp", d) if s[0] == "l" else ("l", d)
    return ("h", s[1])


class QuadCycle(SparseCycle):
    """A cycle on X^m with exact integer (p = 0) or mod-2 (p = 2) coefficients."""

    __slots__ = ("ctx", "m")

    def __init__(self, ctx: QuadricContext, m: int, coeffs: Mapping[Mono, int], p: int = 0):
        self.ctx = ctx
        self.m = m
        SparseCycle.__init__(self, coeffs, p)

    def _space(self) -> tuple:
        return (self.ctx, self.m)

    def _key_codim(self, mono: Mono) -> int:
        return sum(codim1(self.ctx, s) for s in mono)

    # bound here too: bench/layers.py wraps QuadCycle.__dict__["__add__"]
    __add__ = SparseCycle.__add__

    def divide_exact(self, c: int) -> "QuadCycle":
        out = {}
        for mono, v in self.coeffs.items():
            if v % c:
                raise ArithmeticError("coefficient %d not divisible by %d" % (v, c))
            out[mono] = v // c
        return QuadCycle(self.ctx, self.m, out, self.p)

    def __mul__(self, other: "QuadCycle") -> "QuadCycle":
        """Intersection product, factor-wise by the split-quadric rules."""
        self._check(other)
        out: dict[Mono, int] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                for mono, c in _mul_mono(self.ctx, m1, m2).items():
                    out[mono] = out.get(mono, 0) + c1 * c2 * c
        return QuadCycle(self.ctx, self.m, out, self.p)

    # -- pushing and pulling ---------------------------------------------------

    def permute(self, perm: Sequence[int]) -> "QuadCycle":
        """Pushforward along the factor permutation sending slot t to perm[t],
        which is the pullback along its inverse."""
        return self.pull_proj(self.m, perm)

    def push_proj(self, keep: Sequence[int]) -> "QuadCycle":
        """Pushforward along the projection keeping the listed slots (in order).

        Dropped slots integrate over X, so only monomials carrying l_0 in every
        dropped slot survive.
        """
        keep = tuple(keep)
        if len(set(keep)) != len(keep) or any(not 0 <= t < self.m for t in keep):
            raise ValueError("invalid factor selection")
        drop = [t for t in range(self.m) if t not in keep]
        out: dict[Mono, int] = {}
        for mono, c in self.coeffs.items():
            if any(mono[t] != ("l", 0) for t in drop):
                continue
            key = tuple(mono[t] for t in keep)
            out[key] = out.get(key, 0) + c
        return QuadCycle(self.ctx, len(keep), out, self.p)

    def pull_proj(self, m_target: int, slots: Sequence[int]) -> "QuadCycle":
        """Pullback along the projection X^{m_target} -> X^m hitting the listed slots."""
        slots = tuple(slots)
        if len(slots) != self.m or len(set(slots)) != self.m:
            raise ValueError("invalid factor selection")
        if any(not 0 <= t < m_target for t in slots):
            raise ValueError("invalid factor selection")
        out: dict[Mono, int] = {}
        for mono, c in self.coeffs.items():
            new = [("h", 0)] * m_target
            for s, t in zip(mono, slots):
                new[t] = s
            out[tuple(new)] = out.get(tuple(new), 0) + c
        return QuadCycle(self.ctx, m_target, out, self.p)

    def pull_diagonal(self, pattern: Sequence[int], m_out: int) -> "QuadCycle":
        """Pullback along the diagonal-type morphism X^{m_out} -> X^m given by
        (y_1..y_{m_out}) -> (y_{pattern[1]}, ..., y_{pattern[m]}).

        Slots of X^m mapped to the same source slot multiply there.
        """
        pattern = tuple(pattern)
        if len(pattern) != self.m or any(not 0 <= t < m_out for t in pattern):
            raise ValueError("invalid duplication pattern")
        out: dict[Mono, int] = {}
        for mono, c in self.coeffs.items():
            acc: list[dict[Sym, int]] = [{("h", 0): 1} for _ in range(m_out)]
            for s, t in zip(mono, pattern):
                nxt: dict[Sym, int] = {}
                for u, cu in acc[t].items():
                    for v, cv in mul1(self.ctx, u, s).items():
                        nxt[v] = nxt.get(v, 0) + cu * cv
                acc[t] = nxt
            for mono2, c2 in _slot_products(c, (a.items() for a in acc)):
                if c2:
                    out[mono2] = out.get(mono2, 0) + c2
        return QuadCycle(self.ctx, m_out, out, self.p)

    def __repr__(self) -> str:
        return format_cycle(self)


def _mul_mono(ctx: QuadricContext, m1: Mono, m2: Mono) -> dict[Mono, int]:
    return dict(_slot_products(1, (mul1(ctx, s, t).items() for s, t in zip(m1, m2))))


# -- constructors ----------------------------------------------------------------


def one(ctx: QuadricContext, m: int, p: int = 0) -> QuadCycle:
    return QuadCycle(ctx, m, {(("h", 0),) * m: 1}, p)


def monomial_cycle(ctx: QuadricContext, mono: Iterable[Sym], p: int = 0) -> QuadCycle:
    mono = tuple(mono)
    for s in mono:
        _check_symbol(ctx, s)
    return QuadCycle(ctx, len(mono), {mono: 1}, p)


def h_power_cycle(ctx: QuadricContext, a: int, p: int = 0) -> QuadCycle:
    """h^a as a cycle on X (expanded over the basis)."""
    if a < 0 or a > ctx.n:
        raise RangeError("h power out of range")
    return QuadCycle(ctx, 1, {(s,): c for s, c in _h_reduce(ctx, a).items()}, p)


def l_cycle(ctx: QuadricContext, b: int, p: int = 0) -> QuadCycle:
    return monomial_cycle(ctx, [("l", b)], p)


def lp_cycle(ctx: QuadricContext, p: int = 0) -> QuadCycle:
    return monomial_cycle(ctx, [("lp", ctx.d)], p)


def external(x: QuadCycle, y: QuadCycle) -> QuadCycle:
    """External product: a cycle on X^{a+b} from cycles on X^a and X^b."""
    if x.ctx != y.ctx or x.p != y.p:
        raise ValueError("context mismatch")
    out: dict[Mono, int] = {}
    for m1, c1 in x.coeffs.items():
        for m2, c2 in y.coeffs.items():
            out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
    return QuadCycle(x.ctx, x.m + y.m, out, x.p)


def external_list(cycles: Sequence[QuadCycle]) -> QuadCycle:
    out = cycles[0]
    for c in cycles[1:]:
        out = external(out, c)
    return out


def sym_h_chain(ctx: QuadricContext, powers: Iterable[int], p: int = 0) -> QuadCycle:
    """sym of the external product of the listed h-powers (unit on X^0 if empty)."""
    powers = list(powers)
    if not powers:
        return one(ctx, 0, p)
    return sym(external_list([h_power_cycle(ctx, a, p) for a in powers]))


def sym(x: QuadCycle) -> QuadCycle:
    """Symmetrization: the sum of pushforwards over all factor permutations.

    Literally all m! permutations; callers that need orbit sums divide
    explicitly (the factor-of-2 bookkeeping in the diagonal identities
    depends on overcounting being present).  The pushforward along sigma
    reorders a monomial by sigma^-1; as sigma runs over S_m so does sigma^-1,
    so the sum is that of every reordering ``itertools.permutations`` yields.
    """
    return _sum_images(x, itertools.permutations)


def alternating_sym(x: QuadCycle) -> QuadCycle:
    """Sum of pushforwards over the alternating group only (closed under
    inverses, so the even reorderings of each monomial give the same sum)."""
    even = [
        sum(a > b for a, b in itertools.combinations(perm, 2)) % 2 == 0
        for perm in itertools.permutations(range(x.m))
    ]
    return _sum_images(
        x, lambda mono: itertools.compress(itertools.permutations(mono), even)
    )


def _sum_images(x: QuadCycle, images) -> QuadCycle:
    """The sum, over x's monomials, of each monomial ``images(mono)`` yields,
    with that monomial's coefficient."""
    out: dict[Mono, int] = {}
    for mono, c in x.coeffs.items():
        for key in images(mono):
            out[key] = out.get(key, 0) + c
    return QuadCycle(x.ctx, x.m, out, x.p)


def diagonal_class(ctx: QuadricContext, p: int = 0) -> QuadCycle:
    """The class of the diagonal in X x X, via Poincare duality: sum of b x b-dual."""
    out: dict[Mono, int] = {}
    for s in basis_symbols(ctx):
        out[(s, dual1(ctx, s))] = 1
    return QuadCycle(ctx, 2, out, p)


def rho_i(ctx: QuadricContext, i: int, p: int = 0) -> QuadCycle:
    """sym(h^0 x h^1 x ... x h^{i-1} x l_0) on X^{i+1}; the i = 1 case is the
    Rost correspondence and i = 0 degenerates to l_0."""
    if not 0 <= i <= ctx.d:
        raise RangeError("index out of range")
    factors = [h_power_cycle(ctx, j, p) for j in range(i)] + [l_cycle(ctx, 0, p)]
    return sym(external_list(factors))


def delta_i(ctx: QuadricContext, i: int, p: int = 0) -> QuadCycle:
    """sym((x h^j)_{j<i} x 1 x l_0) + sum_k sym((x h^j)_{j<i} x h^k x l_k)."""
    if not 1 <= i <= ctx.d:
        raise RangeError("index out of range")
    prefix = [h_power_cycle(ctx, j, p) for j in range(1, i)]
    total = sym(external_list(prefix + [one(ctx, 1, p), l_cycle(ctx, 0, p)]))
    for k in range(i, ctx.d + 1):
        total = total + sym(
            external_list(prefix + [h_power_cycle(ctx, k, p), l_cycle(ctx, k, p)])
        )
    return total


def swap_ruling(x: QuadCycle) -> QuadCycle:
    """The ring automorphism exchanging the two middle classes (even n)."""
    if x.ctx.n % 2:
        return x
    d = x.ctx.d
    flip = {("l", d): ("lp", d), ("lp", d): ("l", d)}
    out = {
        tuple(flip.get(s, s) for s in mono): c for mono, c in x.coeffs.items()
    }
    return QuadCycle(x.ctx, x.m, out, x.p)


def is_nonessential(x: QuadCycle) -> bool:
    """True iff the cycle lies in the span of external products of h-powers.

    Per slot that span is h^0..h^d plus the *even* multiples of the isotropic
    classes (h^{n-k} = 2 l_k below the middle), so membership is a
    divisibility condition, not just the absence of l-symbols.  For even n
    the slot basis is first rewritten via l_d' = h^d - l_d; the lone l_d
    direction is never reachable from h-powers, while h^d itself is.
    """
    ctx = x.ctx
    d = ctx.d
    acc: dict[Mono, int] = dict(x.coeffs)
    if ctx.n % 2 == 0:
        # extended middle basis per slot: ("hd", d) := l_d + l_d' = h^d
        new: dict[Mono, int] = {}
        for mono, c in acc.items():
            slots = [
                ((("hd", d), 1), (("l", d), -1)) if s == ("lp", d) else ((s, 1),)
                for s in mono
            ]
            for mono2, c2 in _slot_products(c, slots):
                new[mono2] = new.get(mono2, 0) + c2
        acc = new
    for mono, c in acc.items():
        if x.p == 2:
            c %= 2
        if not c:
            continue
        need = 1
        for s in mono:
            if s[0] != "l":
                continue
            if ctx.n % 2 == 0 and s[1] == d:
                return False
            need *= 2
        if x.p == 2:
            if need > 1:
                return False
        elif c % need:
            return False
    return True


# -- correspondences ----------------------------------------------------------------


@dataclass(frozen=True)
class Correspondence:
    """A cycle on X^{a+b} viewed as a multivalued map X^a -> X^b."""

    cycle: QuadCycle
    source: int
    target: int

    def __post_init__(self):
        if self.source + self.target != self.cycle.m:
            raise ValueError("arity mismatch")

    @property
    def ctx(self) -> QuadricContext:
        return self.cycle.ctx


def compose(beta: Correspondence, alpha: Correspondence) -> Correspondence:
    """beta after alpha: pull both to X^a x X^b x X^c, multiply, push out the middle."""
    if alpha.ctx != beta.ctx or alpha.cycle.p != beta.cycle.p:
        raise ValueError("context mismatch")
    if alpha.target != beta.source:
        raise ValueError("arity mismatch")
    ctx = alpha.ctx
    a, b = alpha.source, alpha.target
    out = contract(
        ctx,
        ((m[:a], m[a:], c) for m, c in alpha.cycle.coeffs.items()),
        [(m[b:], m[:b], c) for m, c in beta.cycle.coeffs.items()],
    )
    return Correspondence(
        QuadCycle(ctx, a + beta.target, out, alpha.cycle.p), a, beta.target
    )


def action(alpha: Correspondence, x: QuadCycle) -> QuadCycle:
    """The induced map on cycles: push out the source slots of (x x 1) . alpha."""
    if x.ctx != alpha.ctx or x.p != alpha.cycle.p:
        raise ValueError("context mismatch")
    if x.m != alpha.source:
        raise ValueError("arity mismatch")
    a = alpha.source
    out = contract(
        alpha.ctx,
        (((), m, c) for m, c in x.coeffs.items()),
        [(m[a:], m[:a], c) for m, c in alpha.cycle.coeffs.items()],
    )
    return QuadCycle(alpha.ctx, alpha.target, out, x.p)


def rost(ctx: QuadricContext, p: int = 0) -> Correspondence:
    return Correspondence(rho_i(ctx, 1, p), 1, 1)


def primordial_shape(
    ctx: QuadricContext, i1: int, coefficients: Sequence[int]
) -> Correspondence:
    """The mod-2 shape 1 x l_{i1-1} + l_{i1-1} x 1 + sum_j a_j (h^j x l_{j+i1-1} + ...)
    on X^2, with a_j over j = i1 .. d - i1 + 1."""
    if not 1 <= i1 <= ctx.d:
        raise RangeError("index out of range")
    js = list(range(i1, ctx.d - i1 + 2))
    if len(coefficients) != len(js):
        raise ValueError("expected %d coefficients" % len(js))
    lo = l_cycle(ctx, i1 - 1, 2)
    total = external(one(ctx, 1, 2), lo) + external(lo, one(ctx, 1, 2))
    for a_j, j in zip(coefficients, js):
        if a_j % 2 == 0:
            continue
        hj = h_power_cycle(ctx, j, 2)
        lj = l_cycle(ctx, j + i1 - 1, 2)
        total = total + external(hj, lj) + external(lj, hj)
    return Correspondence(total, 1, 1)


# -- text form -------------------------------------------------------------------


def _format_symbol(s: Sym) -> str:
    kind, idx = s
    if kind == "h":
        return "1" if idx == 0 else ("h" if idx == 1 else "h^%d" % idx)
    if kind == "l":
        return "l%d" % idx
    return "l%d'" % idx


def _symbol_names(monos: Iterable[Mono]) -> dict[Sym, str]:
    """The text of each symbol in the monomials, rendered once per call."""
    return {s: _format_symbol(s) for s in set().union(*monos)}


def format_cycle(x: QuadCycle) -> str:
    """Deterministic text form; parse_cycle inverts it bit-exactly."""
    if not x.coeffs:
        return "0"
    names = _symbol_names(x.coeffs)
    pieces = []
    for k, mono in enumerate(sorted(x.coeffs)):
        c, body = x.coeffs[mono], " x ".join([names[s] for s in mono])
        mag, neg = abs(c), c < 0
        term = body if mag == 1 else "%d %s" % (mag, body)
        if k == 0:
            pieces.append(("-" + term) if neg else term)
        else:
            pieces.append(("- " if neg else "+ ") + term)
    suffix = " (mod 2)" if x.p == 2 else ""
    return " ".join(pieces) + suffix


_ATOM = re.compile(r"^(?:1|h(?:\^(\d+))?|l(?:d|(\d+))(')?)$")


def _parse_atom(ctx: QuadricContext, tok: str) -> QuadCycle:
    m = _ATOM.match(tok)
    if not m:
        raise ValueError("cannot parse symbol %r" % tok)
    if tok == "1":
        return one(ctx, 1)
    if tok.startswith("h"):
        return h_power_cycle(ctx, int(m.group(1)) if m.group(1) else 1)
    idx = ctx.d if m.group(2) is None else int(m.group(2))
    if m.group(3):
        if ctx.n % 2 or idx != ctx.d:
            raise ValueError("second ruling only exists in the middle for even n")
        return lp_cycle(ctx)
    return l_cycle(ctx, idx)


def parse_cycle(ctx: QuadricContext, text: str) -> QuadCycle:
    """Parse the cycle grammar: integer coefficients, h^a, l_b, ld', '*' for the
    internal product, 'x' for the external product, and '+'/'-'."""
    text = text.replace("l_", "l").strip()
    if text == "0":
        raise ValueError("specify an arity-bearing expression, not bare 0")
    terms = re.split(r"\s*([+-])\s*", "+" + text)
    it = iter(terms[1:])
    total: QuadCycle | None = None
    pending = 1
    for sign_tok, term in zip(it, it):
        pending *= 1 if sign_tok == "+" else -1
        if not term.strip():
            continue  # a sign run like "+ -": keep folding into the sign
        sign, pending = pending, 1
        tokens = term.split()
        coeff = sign
        # A leading integer is a coefficient unless it opens the monomial
        # itself ("1 x l0" starts with the class 1, not the number one).
        if re.fullmatch(r"\d+", tokens[0]) and len(tokens) > 1 and tokens[1] != "x":
            coeff *= int(tokens[0])
            tokens = tokens[1:]
        body = " ".join(tokens)
        if not body:
            raise ValueError("missing monomial after coefficient")
        factors = [f.strip() for f in body.split("x")]
        cycles = []
        for factor in factors:
            atoms = [a.strip() for a in factor.split("*")]
            if not atoms or any(not a for a in atoms):
                raise ValueError("cannot parse factor %r" % factor)
            fc = _parse_atom(ctx, atoms[0])
            for atom in atoms[1:]:
                fc = fc * _parse_atom(ctx, atom)
            cycles.append(fc)
        term_cycle = external_list(cycles).scale(coeff)
        total = term_cycle if total is None else total + term_cycle
    if total is None:
        raise ValueError("empty expression")
    if not terms[-1].strip():
        raise ValueError("expression ends in a sign")
    return total
