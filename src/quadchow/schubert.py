"""Chow rings of orthogonal grassmannians and partial flag varieties of a
split quadric.

For a split quadric X of dimension n, put d = n // 2.  The orthogonal
grassmannians G_0 = X, G_1, ..., G_d and the partial flag varieties F(I),
I a subset of {0..d}, are homogeneous spaces for a group with Weyl group
B_{d+1} (n odd) or D_{d+1} (n even).  Their Chow rings are computed inside
the coinvariant algebra, with integer polynomials over one common
denominator (see :mod:`quadchow.polyring`):

* the point class of the full flag variety is represented by one monomial,
  m! x^rho over the denominator |W|, with rho = (2m-1, ..., 3, 1) for B_m and
  (2m-2, ..., 2, 0) for D_m.  The top degree of the coinvariant algebra is
  one-dimensional, so this agrees with the product of the positive roots over
  |W| modulo the ideal J of positive-degree invariants; every representative
  derived from it changes only modulo J, which no expansion sees;
* the Schubert class attached to w is obtained from it by the divided
  difference of w^{-1} w_0, and classes on F(I) are the Schubert classes of
  minimal coset representatives; divided differences keep the denominator,
  since every simple root is monic in its main variable;
* a polynomial f is expanded on F(I) by reading the coefficient of s_w off
  the constant term of div_w(f).  One expansion applies at most one divided
  difference per basis element: div_v(f) is memoised for the call and
  shared by every w = u v with lengths adding.  A k-fold product carries
  |W|^k, and the division by it happens once, at extraction.  Every
  extracted coefficient must be an integer (these varieties have
  torsion-free Chow groups), and a remainder raises immediately since it
  can only come from a convention bug.  `deg_product` memoises the
  expansions of its two halves on the model;
* representatives and two-class products belong to the Weyl group: both
  rulings share one memo of each, and a product of two W^P classes, pulled
  back from G/B, is memoised per pair whichever F(I) asked for it;
* degrees of products use Poincare duality on G/P: deg(s_u s_v) is 1 when
  v = w_0 u w_0(P_I) and 0 otherwise (Bernstein-Gelfand-Gelfand, Schubert
  cells and cohomology of G/P, 1973).  The factors are split into two halves
  of near-equal codimension, each half is multiplied and expanded, and the
  two Schubert vectors are paired, so no product reaches the top degree;
* pushforward along F(I) -> F(J) is the divided difference of
  w_0(P_J) w_0(P_I), which acts on the Schubert basis combinatorially, so no
  polynomial work is needed there.

For n even the two rulings of maximal isotropic subspaces are both modeled:
the `orientation` flag picks which component the model calls G_d, and the
middle class l_d on X is wired to it so that a generic member of G_d meets
the subspace representing l_d in exactly one point (this is the choice that
makes deg(z^d_0) = 1, and it flips between the same and the opposite family
according to n mod 4).

Sign conventions not forced by the mathematics (the Chern roots of the
tautological bundles and c_1(O(1)) on F(i-1,i)) are pinned by the classical
pullback identities relating Z- and W-classes on consecutive grassmannians;
``validate_conventions`` re-derives those identities and is the build gate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Iterable, Mapping

from quadchow.polyring import (
    Polynomial,
    constant,
    divided_difference,
    variable,
)
from quadchow.weyl import RangeError, SignedPermutation, WeylGroup, make_group

__all__ = [
    "QuadricContext",
    "SparseCycle",
    "FlagModel",
    "FlagCycle",
    "UnionCycle",
    "QuadricGeometry",
    "build_flag_model",
    "build_geometry",
    "pullback_ladder",
]

MIN_N = 3
MAX_N = 8


@dataclass(frozen=True)
class QuadricContext:
    """Global parameters shared by every model attached to one quadric."""

    n: int
    orientation: int | None = None

    def __post_init__(self):
        if self.orientation not in (1, -1, None):
            raise ValueError("orientation must be 1, -1 or None")
        # even n: None means the default ruling; odd n has a single one
        object.__setattr__(
            self, "orientation", (self.orientation or 1) if self.n % 2 == 0 else None
        )

    @property
    def d(self) -> int:
        return self.n // 2

    @property
    def family(self) -> str:
        return "B" if self.n % 2 else "D"

    @property
    def rank(self) -> int:
        return self.d + 1


class SparseCycle:
    """Integer (p = 0) or mod-2 (p = 2) coefficients on a basis, stored sparsely.

    A subclass names its ambient space by ``_space()``, the leading
    constructor arguments (they must agree for ``+`` and ``==``), and the
    codimension of one basis key by ``_key_codim``.  Results are built as
    ``type(self)(*self._space(), coeffs, p)``.
    """

    __slots__ = ("coeffs", "p")

    def __init__(self, coeffs: Mapping, p: int = 0):
        self.p = p
        clean = {}
        for key, c in coeffs.items():
            c = c % 2 if p == 2 else int(c)
            if c:
                clean[key] = c
        self.coeffs = clean

    def _space(self) -> tuple:
        raise NotImplementedError

    def _key_codim(self, key) -> int:
        raise NotImplementedError

    def _check(self, other: "SparseCycle") -> None:
        if self._space() != other._space() or self.p != other.p:
            raise ValueError("space/ring mismatch")

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) + c
        return type(self)(*self._space(), out, self.p)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c: int):
        return type(self)(
            *self._space(), {key: c * v for key, v in self.coeffs.items()}, self.p
        )

    def mod2(self):
        return type(self)(*self._space(), self.coeffs, 2)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self._space() == other._space()
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self._space(), self.p, frozenset(self.coeffs.items())))

    # -- grading ---------------------------------------------------------------

    def codimensions(self) -> set[int]:
        return {self._key_codim(key) for key in self.coeffs}

    def is_homogeneous(self) -> bool:
        return len(self.codimensions()) <= 1

    def codim(self) -> int:
        degs = self.codimensions()
        if len(degs) > 1:
            raise ValueError("inhomogeneous cycle")
        return degs.pop() if degs else -1


class FlagCycle(SparseCycle):
    """A cycle on F(I), stored by its integer (or mod-2) Schubert coefficients."""

    __slots__ = ("model", "I")

    def __init__(self, model: "FlagModel", I, coeffs: Mapping, p: int = 0):
        self.model = model
        self.I = frozenset(I)
        SparseCycle.__init__(self, coeffs, p)

    def _space(self) -> tuple:
        return (self.model, self.I)

    def _key_codim(self, w: SignedPermutation) -> int:
        return self.model.group.length(w)

    def __mul__(self, other: "FlagCycle") -> "FlagCycle":
        self._check(other)
        out: dict = {}
        for u, cu in self.coeffs.items():
            for v, cv in other.coeffs.items():
                for w, c in self.model.basis_product(self.I, u, v).items():
                    out[w] = out.get(w, 0) + cu * cv * c
        return FlagCycle(self.model, self.I, out, self.p)

    def rep(self) -> Polynomial:
        poly = constant(self.model.group.rank, 0)
        for w, c in self.coeffs.items():
            poly = poly + self.model.schubert_rep(w).scale(c)
        return poly

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for w in sorted(self.coeffs, key=lambda u: (self.model.group.length(u), u.window)):
            parts.append(f"{self.coeffs[w]}*S{w.window}")
        tag = " (mod 2)" if self.p == 2 else ""
        return " + ".join(parts) + tag


class FlagModel:
    """All Chow-ring data for the flag varieties of one split quadric."""

    def __init__(self, n: int, orientation: int | None = None):
        if not MIN_N <= n <= MAX_N:
            raise RangeError("n out of range (supported: %d..%d)" % (MIN_N, MAX_N))
        self.ctx = QuadricContext(n, orientation)
        self.n = n
        self.d = self.ctx.d
        self.group: WeylGroup = make_group(self.ctx.family, self.ctx.rank)
        self.point_rep, self._reps, self._pair_products = _group_memos(
            self.ctx.family, self.ctx.rank
        )
        self._index_sets: dict = {}
        self._push_ops: dict = {}
        self._duals: dict = {}
        self._halves: dict = {}
        self._h_powers: dict[tuple[int, int], FlagCycle] = {}
        self._x_middle: tuple[SignedPermutation, SignedPermutation] | None = None
        self._identify_quadric_basis()
        self.validate_conventions()

    # -- index bookkeeping ---------------------------------------------------

    def cut_nodes(self, I: Iterable[int]) -> frozenset[int]:
        """Simple-reflection indices removed from the parabolic for F(I)."""
        return self._cut_and_parabolic(I)[0]

    def parabolic(self, I: Iterable[int]) -> frozenset[int]:
        return self._cut_and_parabolic(I)[1]

    def _cut_and_parabolic(self, I: Iterable[int]) -> tuple[frozenset[int], frozenset[int]]:
        """(cut nodes, parabolic) of F(I), memoised per valid index set."""
        I = frozenset(I)
        cached = self._index_sets.get(I)
        if cached is not None:
            return cached
        m = self.group.rank
        nodes: set[int] = set()
        for i in I:
            if not 0 <= i <= self.d:
                raise RangeError("flag index out of range: %r" % (i,))
            if self.ctx.family == "B" or i <= self.d - 2:
                nodes.add(i + 1)
            elif i == self.d - 1:
                nodes.update((m - 1, m))
            else:  # i == d, type D: one ruling component, picked by orientation
                nodes.add(m if self.ctx.orientation == 1 else m - 1)
        cut = frozenset(nodes)
        cached = self._index_sets[I] = (cut, frozenset(range(1, m + 1)) - cut)
        return cached

    def basis(self, I: Iterable[int]) -> tuple[SignedPermutation, ...]:
        return self.group.min_coset_reps(self.parabolic(I))

    def dim_flag(self, I: Iterable[int]) -> int:
        return self.group.length(self.top_element(I))

    def top_element(self, I: Iterable[int]) -> SignedPermutation:
        """The longest minimal coset representative, w_0 * w_0(P_I)."""
        return self.basis(I)[-1]

    def zero(self, I: Iterable[int], p: int = 0) -> FlagCycle:
        return FlagCycle(self, I, {}, p)

    def fundamental(self, I: Iterable[int], p: int = 0) -> FlagCycle:
        return FlagCycle(self, I, {self.group.identity: 1}, p)

    def point_class(self, I: Iterable[int], p: int = 0) -> FlagCycle:
        return FlagCycle(self, I, {self.top_element(I): 1}, p)

    # -- Schubert representatives and expansion -------------------------------

    def schubert_rep(self, w: SignedPermutation) -> Polynomial:
        """Polynomial representative of the Schubert class of w (codim = length)."""
        cached = self._reps.get(w.window)
        if cached is not None:
            return cached
        g = self.group
        lw = g.length(w)
        for i, ws in enumerate(g.right_multiples(w), start=1):
            if g.length(ws) > lw:
                rep = divided_difference(g, i, self.schubert_rep(ws))
                self._reps[w.window] = rep
                return rep
        raise AssertionError("unreachable: every non-longest element has an ascent")

    def expand(self, poly: Polynomial, I: Iterable[int], p: int = 0) -> FlagCycle:
        """Express a polynomial representative in the Schubert basis of F(I).

        The coefficient of s_w, for l(w) a degree of poly, is the constant
        term of div_w(poly).  Each div_v(poly) is computed once per call and
        shared between candidates: with a reduced word w = s_i1 ... s_ik,
        div_w = div_i1 o div_v for v = s_i2 ... s_ik, and v is again in
        basis(I), so the memo is keyed by basis elements.

        Every coefficient must come out integral; a fractional coefficient is a
        hard error (it means the class does not live on F(I), or a convention
        broke).  A polynomial whose number of variables is not the group's
        rank raises ValueError.
        """
        I = frozenset(I)
        g = self.group
        if poly.nvars != g.rank:
            raise ValueError("rank mismatch")
        out: dict[SignedPermutation, int] = {}
        dim = self.dim_flag(I)
        degrees = {k for k in poly.degrees() if k <= dim}
        diffs = {g.identity.window: poly}  # window of v -> div_v(poly)
        for w in self.basis(I):
            if g.length(w) not in degrees:
                continue
            # climb the suffixes of w's word to the longest one already known
            word = g.reduced_word(w)
            pending = []
            v = w
            while (r := diffs.get(v.window)) is None:
                pending.append(v.window)
                v = g.from_word(word[len(pending) :])
            for j in reversed(range(len(pending))):
                if not r.is_zero():
                    r = divided_difference(g, word[j], r)
                diffs[pending[j]] = r
            c = r.terms.get(0, 0)  # the constant term's numerator
            if c:
                if c % r.den:
                    raise ArithmeticError(
                        "nonintegral Schubert coefficient %s at %r"
                        % (r.constant_term(), w.window)
                    )
                out[w] = c // r.den
        return FlagCycle(self, I, out, p)

    def basis_product(self, I, u: SignedPermutation, v: SignedPermutation) -> dict:
        """s_u s_v for u, v in basis(I); pulled back from G/B, so memoised per (u, v)."""
        if u.window > v.window:
            u, v = v, u
        key = (u.window, v.window)
        cached = self._pair_products.get(key)
        if cached is None:
            g = self.group
            if g.length(u) + g.length(v) > self.dim_flag(I):
                cached = {}
            else:
                poly = self.schubert_rep(u) * self.schubert_rep(v)
                cached = self.expand(poly, I).coeffs
            self._pair_products[key] = cached
        return cached

    # -- functoriality ---------------------------------------------------------

    def pullback(self, target_I: Iterable[int], x: FlagCycle) -> FlagCycle:
        """Pullback along F(target_I) -> F(J); requires J contained in target_I."""
        target_I = frozenset(target_I)
        if not x.I <= target_I:
            raise ValueError("pullback requires J to be a subset of I")
        if not self.cut_nodes(x.I) <= self.cut_nodes(target_I):
            raise ValueError("pullback requires nested parabolics")
        return FlagCycle(self, target_I, x.coeffs, x.p)

    def pushforward(self, target_J: Iterable[int], x: FlagCycle) -> FlagCycle:
        """Pushforward along F(I) -> F(J) for J contained in I.

        On the Schubert basis this is combinatorial: decompose w over the
        target parabolic as w = u * p; the class survives exactly when p is
        the longest element of W_{P_J} with no descent in P_I, in which case
        it maps to the Schubert class of u.
        """
        target_J = frozenset(target_J)
        if not target_J <= x.I:
            raise ValueError("pushforward requires J to be a subset of I")
        if not self.cut_nodes(target_J) <= self.cut_nodes(x.I):
            raise ValueError("pushforward requires nested parabolics")
        g = self.group
        key = (frozenset(x.I), target_J)
        v = self._push_ops.get(key)
        if v is None:
            v = g.parabolic_longest(self.parabolic(target_J)) * g.parabolic_longest(
                self.parabolic(x.I)
            )
            self._push_ops[key] = v
        par = self.parabolic(target_J)
        out: dict[SignedPermutation, int] = {}
        for w, c in x.coeffs.items():
            u, p = g.parabolic_decompose(w, par)
            if p == v:
                out[u] = out.get(u, 0) + c
        return FlagCycle(self, target_J, out, x.p)

    def deg(self, x: FlagCycle) -> int:
        """Degree homomorphism: coefficient of the point class in top codimension."""
        top = self.top_element(x.I)
        return x.coeffs.get(top, 0)

    def poincare_dual(self, I: Iterable[int]) -> dict[SignedPermutation, SignedPermutation]:
        """The involution u -> w_0 u w_0(P_I) of basis(I), memoised per I.

        deg(s_u s_v) on F(I) is 1 when v is the dual of u and 0 otherwise.
        """
        I = frozenset(I)
        dual = self._duals.get(I)
        if dual is None:
            g = self.group
            w0, w0p = g.longest_element, g.parabolic_longest(self.parabolic(I))
            dual = self._duals[I] = {u: w0 * u * w0p for u in self.basis(I)}
        return dual

    def deg_product(self, classes: list[FlagCycle]) -> int:
        """deg of a product, by Poincare duality.

        The factors are split greedily (largest codimension first) into two
        halves of near-equal codimension; each half's representatives are
        multiplied and expanded on F(I), and the two Schubert vectors A, B are
        paired: deg = sum_u A_u B_{dual(u)}.  Both expansions check that every
        coefficient is integral.
        """
        if not classes:
            raise ValueError("empty product")
        first = classes[0]
        for x in classes[1:]:
            first._check(x)
        I = first.I
        codims = [x.codim() for x in classes]
        if sum(codims) != self.dim_flag(I):
            return 0
        halves: tuple[list, list] = ([], [])
        weight = [0, 0]
        for c, x in sorted(zip(codims, classes), key=lambda t: -t[0]):
            k = 0 if weight[0] <= weight[1] else 1
            halves[k].append(x)
            weight[k] += c
        a, b = (self._half_expansion(I, h) for h in halves)
        dual = self.poincare_dual(I)
        total = sum(c * b.get(dual[u], 0) for u, c in a.items())
        return total % 2 if first.p == 2 else total

    def _half_expansion(self, I: frozenset, half: list[FlagCycle]) -> dict:
        """Schubert coefficients of the product of one half of deg_product's
        factors, memoised per model by (I, multiset of the factors' coefficients).

        The ring p does not enter the key: the expansion is integral, and
        deg_product reduces mod 2 after pairing.
        """
        key = (I, frozenset(Counter(frozenset(x.coeffs.items()) for x in half).items()))
        cached = self._halves.get(key)
        if cached is None:
            poly = _rep_product(self.group.rank, half)
            cached = self._halves[key] = self.expand(poly, I).coeffs
        return cached

    # -- the quadric inside the model -------------------------------------------

    def _identify_quadric_basis(self) -> None:
        g = self.group
        by_codim: dict[int, list[SignedPermutation]] = {}
        for w in self.basis([0]):
            by_codim.setdefault(g.length(w), []).append(w)
        self._x_by_codim = by_codim
        if self.n % 2 == 0:
            mids = by_codim[self.d]
            if len(mids) != 2:
                raise AssertionError("expected two middle classes on an even quadric")
            # Push the point class of the chosen G_d component down to X; that
            # is the middle class of the same ruling family as G_d.
            pt = self.point_class([self.d])
            same = self.pushforward([0], self.pullback([0, self.d], pt))
            if len(same.coeffs) != 1 or set(same.coeffs.values()) != {1}:
                raise AssertionError("ruling identification failed")
            (w_same,) = same.coeffs
            (w_other,) = [w for w in mids if w != w_same]
            # l_d is the ruling a generic member of G_d meets in a point:
            # the same family iff the rank d+1 is odd, i.e. iff 4 | n.
            if self.n % 4 == 0:
                self._x_middle = (w_same, w_other)
            else:
                self._x_middle = (w_other, w_same)
            total = self.expand(variable(g.rank, 1) ** self.d, [0])
            if total.coeffs != {mids[0]: 1, mids[1]: 1}:
                raise AssertionError("h^d should split as l_d + l_d'")

    def h_class(self, p: int = 0) -> FlagCycle:
        """The hyperplane class on X = G_0."""
        (w,) = self._x_by_codim[1]
        return FlagCycle(self, [0], {w: 1}, p)

    def h_power(self, k: int, p: int = 0) -> FlagCycle:
        """h^k on X, for 0 <= k <= n (expanded in the Schubert basis, memoised)."""
        if not 0 <= k <= self.n:
            raise RangeError("hyperplane power out of range")
        cached = self._h_powers.get((k, p))
        if cached is None:
            cached = self.expand(variable(self.group.rank, 1) ** k, [0], p)
            self._h_powers[(k, p)] = cached
        return cached

    def l_class(self, b: int, p: int = 0) -> FlagCycle:
        """The class of a b-dimensional isotropic subspace on X (oriented at b = d)."""
        if not 0 <= b <= self.d:
            raise RangeError("isotropic dimension out of range")
        if self.n % 2 == 0 and b == self.d:
            return FlagCycle(self, [0], {self._x_middle[0]: 1}, p)
        (w,) = self._x_by_codim[self.n - b]
        return FlagCycle(self, [0], {w: 1}, p)

    def lp_class(self, p: int = 0) -> FlagCycle:
        """The other ruling class l_d' (n even only)."""
        if self.n % 2:
            raise ValueError("second ruling exists only for even n")
        return FlagCycle(self, [0], {self._x_middle[1]: 1}, p)

    # -- distinguished classes ---------------------------------------------------

    def pullpush_x_to_g(self, i: int, x: FlagCycle) -> FlagCycle:
        """The correspondence X -> G_i through F(0, i) applied to a class on X.

        At i = 0 both maps are identities on F(0), so the result equals x.
        """
        return self.pushforward([i], self.pullback([0, i], x))

    def class_Z(self, i: int, j: int, p: int = 0) -> FlagCycle:
        """Z^i_j on G_i: pull l_{n-i-j} through F(0,i) and push down.

        Out-of-range j gives the natural zero class rather than an error only
        when the l-index merely overflows codimension (j > n - i); the lower
        bound is a genuine range error.
        """
        if not 0 <= i <= self.d:
            raise RangeError("grassmannian index out of range")
        if j > self.n - i:
            return self.zero([i], p)
        if j < self.n - i - self.d:
            raise RangeError("Z index out of range")
        return self.pullpush_x_to_g(i, self.l_class(self.n - i - j, p))

    def class_W(self, i: int, j: int, p: int = 0) -> FlagCycle:
        """W^i_j on G_i (and W^0_j = h^j); zero for negative j.

        The distinguished range is j + i <= d, but the defining pull-push of
        h^{j+i} makes sense whenever the power exists and is what the degree
        computations on products use, so any j + i <= n is accepted.
        """
        if not 0 <= i <= self.d:
            raise RangeError("grassmannian index out of range")
        if j < 0:
            return self.zero([i], p)
        if i == 0:
            return self.h_power(j, p)
        if j + i > self.n:
            raise RangeError("W index out of range")
        return self.pullpush_x_to_g(i, self.h_power(j + i, p))

    def taut_chern_roots(self, i: int) -> list[Polynomial]:
        """Chern roots of the rank i+1 tautological subbundle on G_i."""
        m = self.group.rank
        roots = [variable(m, j).scale(-1) for j in range(1, i + 2)]
        if self.ctx.family == "D" and i == self.d and self.ctx.orientation == -1:
            roots[-1] = variable(m, m)
        return roots

    def chern_taut(self, i: int, j: int, p: int = 0) -> FlagCycle:
        """c_j of the tautological bundle on G_i."""
        if not 0 <= j <= i + 1:
            raise RangeError("Chern index out of range")
        roots = self.taut_chern_roots(i)
        poly = _symmetric_function(roots, j, self.group.rank)
        return self.expand(poly, [i], p)

    def chern_quot(self, i: int, j: int, p: int = 0) -> FlagCycle:
        """c_j of the quotient of the trivial bundle by the tautological one."""
        rank_q = self.n + 2 - (i + 1)
        if not 0 <= j <= rank_q:
            raise RangeError("Chern index out of range")
        negroots = [r.scale(-1) for r in self.taut_chern_roots(i)]
        poly = _symmetric_function(negroots, j, self.group.rank, complete=True)
        return self.expand(poly, [i], p)

    def class_O1(self, i: int, p: int = 0) -> FlagCycle:
        """c_1(O(1)) of the projective bundle F(i-1, i) -> G_i."""
        if not 1 <= i <= self.d:
            raise RangeError("bundle index out of range")
        m = self.group.rank
        poly = variable(m, i + 1).scale(-1)
        if self.ctx.family == "D" and i == self.d and self.ctx.orientation == -1:
            poly = variable(m, m)
        return self.expand(poly, [i - 1, i], p)

    # -- convention gate -----------------------------------------------------------

    def validate_conventions(self) -> None:
        _check_ladder(self, range(1, self.d + 1))


def pullback_ladder(space, i: int):
    """The Lemma 2.4 identities on F(i-1, i) that pin every sign choice.

    `space` is a FlagModel or a QuadricGeometry.  Yields (case_id, params,
    lhs, rhs) tuples; every one must be an exact equality.
    """
    n, d = space.n, space.d
    I = [i - 1, i]
    xi = space.class_O1(i)
    pull = lambda x: space.pullback(I, x)  # noqa: E731
    # the full pull-push of h^i is the fundamental class of G_i
    yield "fundamental", {"n": n, "i": i}, space.class_W(i, 0), space.fundamental([i])
    # Z-classes on consecutive grassmannians
    for j in range(n - i + 1 - d, n - i + 2):
        lhs = pull(space.class_Z(i - 1, j))
        rhs = xi * pull(space.class_Z(i, j - 1)) + pull(space.class_Z(i, j))
        yield "Z-ladder", {"n": n, "i": i, "j": j}, lhs, rhs
    # W-classes below the top
    for j in range(0, d - i + 1):
        lhs = pull(space.class_W(i - 1, j))
        rhs = xi * pull(space.class_W(i, j - 1)) + pull(space.class_W(i, j))
        yield "W-ladder", {"n": n, "i": i, "j": j}, lhs, rhs
    # the top W-class picks up a doubled Z-term
    lhs = pull(space.class_W(i - 1, d - i + 1))
    rhs = xi * pull(space.class_W(i, d - i)) + pull(space.class_Z(i, d - i + 1)).scale(2)
    yield "top-W-ladder", {"n": n, "i": i}, lhs, rhs


def _check_ladder(space, indices: Iterable[int]) -> None:
    """The build gate: raise at the first failing identity of the ladders."""
    for i in indices:
        for case_id, params, lhs, rhs in pullback_ladder(space, i):
            if lhs != rhs:
                raise ArithmeticError(
                    "sign-convention gate failed on %s at i=%d (%s, %s)"
                    % (type(space).__name__, i, case_id, params)
                )


def _rep_product(m: int, classes: list[FlagCycle]) -> Polynomial:
    """The product of the classes' polynomial representatives (1 if none)."""
    if not classes:
        return constant(m, 1)
    poly = classes[0].rep()
    for x in classes[1:]:
        poly = poly * x.rep()
    return poly


def _symmetric_function(
    roots: list[Polynomial], j: int, m: int, complete: bool = False
) -> Polynomial:
    """e_j of the roots, or h_j when `complete`: per root r, acc[k] += acc[k-1] * r
    for k = j..1 (acc[k-1] lacks r, so r enters once) or k = 1..j (acc[k-1]
    already holds every power of r)."""
    acc = [constant(m, 1)] + [Polynomial(m) for _ in range(j)]
    ks = range(1, j + 1) if complete else range(j, 0, -1)
    for r in roots:
        for k in ks:
            acc[k] = acc[k] + acc[k - 1] * r
    return acc[j]


@lru_cache(maxsize=None)
def _group_memos(family: str, rank: int) -> tuple[Polynomial, dict, dict]:
    """(point representative, representative memo, pair-product memo) of one group.

    The point class is the single monomial m! x^rho / |W|, with rho =
    (2m-1, ..., 3, 1) for B_m and (2m-2, ..., 2, 0) for D_m: div_{w_0} sends
    x^rho to 2^m (B) or 2^(m-1) (D), so div_{w_0} of the point class is 1,
    as for the product of the positive roots over |W|.  The two differ by an
    element of the ideal J of positive-degree invariants, and div_i maps J
    into itself: for f in J of degree l(w), div_w(f) = 0, so no expansion
    can tell the representatives derived from either apart.
    """
    g = make_group(family, rank)
    rho = range(2 * rank - 1, 0, -2) if family == "B" else range(2 * rank - 2, -1, -2)
    point = Polynomial(rank, {tuple(rho): factorial(rank)}, len(g))
    return point, {g.longest_element.window: point}, {}


@lru_cache(maxsize=None)
def _cached_model(n: int, orientation: int | None) -> FlagModel:
    return FlagModel(n, orientation)


def build_flag_model(n: int, orientation: int | None = None) -> FlagModel:
    """Build (and cache) the flag-variety model for the split quadric of dim n."""
    return _cached_model(n, QuadricContext(n, orientation).orientation)


class UnionCycle:
    """A cycle on F(I), with one part per connected component.

    For n odd, or when d is not in I, F(I) is connected and there is a single
    part on the primary model.  For n even with d in I the variety of maximal
    isotropic subspaces contributes both ruling components, and the cycle
    carries one FlagCycle per sheet (sheet 0 on the primary-orientation model,
    sheet 1 on the opposite one).  Degrees and pushforwards to connected
    targets sum over the sheets.
    """

    __slots__ = ("geometry", "I", "parts")

    def __init__(self, geometry: "QuadricGeometry", I, parts: tuple[FlagCycle, ...]):
        self.geometry = geometry
        self.I = frozenset(I)
        self.parts = tuple(parts)
        if len(self.parts) != len(geometry.sheets(self.I)):
            raise ValueError("wrong number of sheet parts")

    def _check(self, other: "UnionCycle") -> None:
        if self.geometry is not other.geometry or self.I != other.I:
            raise ValueError("model/I mismatch")

    def __add__(self, other: "UnionCycle") -> "UnionCycle":
        self._check(other)
        return UnionCycle(
            self.geometry, self.I, tuple(a + b for a, b in zip(self.parts, other.parts))
        )

    def __sub__(self, other: "UnionCycle") -> "UnionCycle":
        return self + other.scale(-1)

    def scale(self, c: int) -> "UnionCycle":
        return UnionCycle(self.geometry, self.I, tuple(x.scale(c) for x in self.parts))

    def __mul__(self, other: "UnionCycle") -> "UnionCycle":
        self._check(other)
        return UnionCycle(
            self.geometry, self.I, tuple(a * b for a, b in zip(self.parts, other.parts))
        )

    def mod2(self) -> "UnionCycle":
        return UnionCycle(self.geometry, self.I, tuple(x.mod2() for x in self.parts))

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in self.parts)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, UnionCycle)
            and self.geometry is other.geometry
            and self.I == other.I
            and self.parts == other.parts
        )

    def __hash__(self) -> int:
        return hash((id(self.geometry), self.I, self.parts))

    def codim(self) -> int:
        degs = set()
        for x in self.parts:
            if not x.is_zero():
                degs.add(x.codim())
        if len(degs) > 1:
            raise ValueError("inhomogeneous cycle")
        return degs.pop() if degs else -1

    def __repr__(self) -> str:
        if len(self.parts) == 1:
            return repr(self.parts[0])
        return " (+) ".join(repr(x) for x in self.parts)


class QuadricGeometry:
    """Sheet-aware front end over the flag models of one split quadric.

    Holds the primary-orientation model and, for even n, the opposite one; the
    global middle class l_d is the primary model's choice.  All Chow-ring
    operations below take and return :class:`UnionCycle`, summing over the two
    ruling components wherever the geometry is disconnected.
    """

    def __init__(self, n: int, orientation: int | None = 1):
        self.n = n
        self.d = n // 2
        self.primary = build_flag_model(n, orientation)
        self.ctx = self.primary.ctx
        self.group = self.primary.group
        if n % 2 == 0:
            self.secondary: FlagModel | None = build_flag_model(n, -self.ctx.orientation)
        else:
            self.secondary = None
        # bridge memo, freed with this geometry: the incidence powers on
        # G_i x X^m by (i, m, p) (the incidence class is m = 1, eta_i is
        # m = i, theta_i m = i + 1), and the X window table under "x_windows"
        self.bridge_memo: dict = {}
        if self.secondary is not None:
            # the per-model gates cannot see the global naming of l_d
            _check_ladder(self, [self.d])

    # -- sheets ------------------------------------------------------------

    def split(self, I: Iterable[int]) -> bool:
        return self.secondary is not None and self.d in frozenset(I)

    def sheets(self, I: Iterable[int]) -> tuple[FlagModel, ...]:
        if self.split(I):
            return (self.primary, self.secondary)
        return (self.primary,)

    def from_primary(self, x: FlagCycle) -> UnionCycle:
        """Lift a cycle on a connected F(I) (computed on the primary model)."""
        if self.split(x.I):
            raise ValueError("F(I) is disconnected; supply both sheet parts")
        return UnionCycle(self, x.I, (x,))

    def transfer(self, x: FlagCycle, model: FlagModel) -> FlagCycle:
        # Shared connected spaces have literally the same Schubert data in
        # both models (same Weyl group object, same representatives).
        return FlagCycle(model, x.I, x.coeffs, x.p)

    # -- basic classes -------------------------------------------------------

    def _per_sheet(self, I, make) -> UnionCycle:
        """The cycle on F(I) whose part on each sheet's model M is make(M)."""
        return UnionCycle(self, I, tuple(make(M) for M in self.sheets(I)))

    def zero(self, I, p: int = 0) -> UnionCycle:
        return self._per_sheet(I, lambda M: M.zero(I, p))

    def fundamental(self, I, p: int = 0) -> UnionCycle:
        return self._per_sheet(I, lambda M: M.fundamental(I, p))

    def point_class(self, I, p: int = 0) -> UnionCycle:
        # On a disconnected variety this is the point of the primary sheet.
        sheets = self.sheets(I)
        parts = [sheets[0].point_class(I, p)]
        parts.extend(M.zero(I, p) for M in sheets[1:])
        return UnionCycle(self, I, tuple(parts))

    def x_class(self, model: FlagModel, s: tuple[str, int], p: int = 0) -> FlagCycle:
        """The X-class of a basis symbol ("h", a), ("l", b) or ("lp", d) in `model`
        labels: X = F(0) is connected, so both models share its Schubert data,
        and the primary model names the two middle classes globally."""
        kind, idx = s
        M = self.primary
        if kind == "h":
            x = M.h_power(idx, p)
        else:
            x = M.l_class(idx, p) if kind == "l" else M.lp_class(p)
        return self.transfer(x, model)

    def h_power(self, k: int, p: int = 0) -> UnionCycle:
        return self.from_primary(self.primary.h_power(k, p))

    # -- functoriality ---------------------------------------------------------

    def pullback(self, target_I, x: UnionCycle) -> UnionCycle:
        target_I = frozenset(target_I)
        if not x.I <= target_I:
            raise ValueError("pullback requires J to be a subset of I")
        targets = self.sheets(target_I)
        if len(x.parts) == len(targets):
            parts = tuple(
                M.pullback(target_I, px) for M, px in zip(targets, x.parts)
            )
        elif len(x.parts) == 1 and len(targets) == 2:
            parts = tuple(
                M.pullback(target_I, self.transfer(x.parts[0], M)) for M in targets
            )
        else:
            raise ValueError("cannot pull back from a disconnected space")
        return UnionCycle(self, target_I, parts)

    def pushforward(self, target_J, x: UnionCycle) -> UnionCycle:
        target_J = frozenset(target_J)
        if not target_J <= x.I:
            raise ValueError("pushforward requires J to be a subset of I")
        targets = self.sheets(target_J)
        if len(x.parts) == len(targets):
            parts = tuple(
                M.pushforward(target_J, px) for M, px in zip(targets, x.parts)
            )
            return UnionCycle(self, target_J, parts)
        if len(x.parts) == 2 and len(targets) == 1:
            # Disconnected source over a connected target: add the sheets.
            total = self.primary.pushforward(target_J, x.parts[0])
            other = x.parts[1].model.pushforward(target_J, x.parts[1])
            total = total + self.transfer(other, self.primary)
            return UnionCycle(self, target_J, (total,))
        raise ValueError("inconsistent sheet data")

    def deg(self, x: UnionCycle) -> int:
        total = sum(px.model.deg(px) for px in x.parts)
        return total % 2 if any(px.p == 2 for px in x.parts) else total

    def deg_product(self, classes: list[UnionCycle]) -> int:
        if not classes:
            raise ValueError("empty product")
        I = classes[0].I
        if any(x.I != I for x in classes):
            raise ValueError("model/I mismatch")
        total = 0
        p = 0
        for sheet in range(len(classes[0].parts)):
            parts = [x.parts[sheet] for x in classes]
            p = parts[0].p
            total += parts[0].model.deg_product(parts)
        return total % 2 if p == 2 else total

    # -- distinguished classes ----------------------------------------------------

    def class_Z(self, i: int, j: int, p: int = 0) -> UnionCycle:
        if not 0 <= i <= self.d:
            raise RangeError("grassmannian index out of range")
        if j < self.n - i - self.d:
            raise RangeError("Z index out of range")
        if j > self.n - i:
            return self.zero([i], p)
        b = self.n - i - j
        return self._per_sheet([i], lambda M: M.pullpush_x_to_g(i, self.x_class(M, ("l", b), p)))

    def class_W(self, i: int, j: int, p: int = 0) -> UnionCycle:
        return self._per_sheet([i], lambda M: M.class_W(i, j, p))

    def chern_taut(self, i: int, j: int, p: int = 0) -> UnionCycle:
        return self._per_sheet([i], lambda M: M.chern_taut(i, j, p))

    def chern_quot(self, i: int, j: int, p: int = 0) -> UnionCycle:
        return self._per_sheet([i], lambda M: M.chern_quot(i, j, p))

    def class_O1(self, i: int, p: int = 0) -> UnionCycle:
        # F(i-1, i) splits exactly when G_i does
        return self._per_sheet([i - 1, i], lambda M: M.class_O1(i, p))

    def pullpush_through(self, i: int, x: UnionCycle) -> UnionCycle:
        """pi_{(i-1,_i)*} o pi*_{(i-1,i_)}: CH(G_i) -> CH(F(i-1,i)) -> CH(G_{i-1})."""
        up = self.pullback([i - 1, i], x)
        return self.pushforward([i - 1], up)

    def w_sigma_sum(self, i: int, t: int, js: Iterable[int], p: int = 0) -> UnionCycle:
        """The Lemma 2.5 sum on G_{i-1}: sum over j in js of
        W^{i-1}_{t-j} . pi_* pi^*(Z^i_{n-2i+j})."""
        total = self.zero([i - 1], p)
        for j in js:
            sigma = self.pullpush_through(i, self.class_Z(i, self.n - 2 * i + j, p))
            total = total + self.class_W(i - 1, t - j, p) * sigma
        return total


@lru_cache(maxsize=None)
def _cached_geometry(n: int, orientation: int | None) -> QuadricGeometry:
    return QuadricGeometry(n, orientation)


def build_geometry(n: int, orientation: int | None = 1) -> QuadricGeometry:
    """Build (and cache) the sheet-aware geometry for the split quadric of dim n."""
    return _cached_geometry(n, QuadricContext(n, orientation).orientation)
