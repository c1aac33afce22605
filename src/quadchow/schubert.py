"""Chow rings of orthogonal grassmannians and partial flag varieties of a
split quadric.

For a split quadric X of dimension n, put d = n // 2.  The orthogonal
grassmannians G_0 = X, G_1, ..., G_d and the partial flag varieties F(I),
I a subset of {0..d}, are homogeneous spaces for a group with Weyl group
B_{d+1} (n odd) or D_{d+1} (n even).  Every class on them is read off as a
Schubert expansion from its values at the torus-fixed points, by one solve:

* a Weyl element is named by its index in the group's `elements`, which are
  sorted by (length, window): the keys of every cycle, row, memo and table
  here are indices, and a window is read only to print a cycle or an error
  and by `_fixed_point`;
* the class of x restricted to the fixed point y is an integer xi_x(y) at
  the regular point t = (m, ..., 1), by Billey's formula (Billey, Kostant
  polynomials and the cohomology ring for G/B, Duke Math. J. 96, 1999).  The
  whole row xi_.(y) is the row of the parent y s_a, a the lowest right
  descent of y, plus one step of the formula, so rows are built by that
  recursion.
  A class is known by its values at the fixed points, and the GKM
  triangular solve (Goresky-Kottwitz-MacPherson, Invent. Math. 131, 1998),
  `FlagModel._localized_expansion`, reads its Schubert coefficients off
  them, one exact division per basis element;
* products of Schubert classes never multiply polynomials: the value of
  s_u s_v at y is xi_u(y) xi_v(y), and where it is 0 the coefficient at y
  is 0 too, so the product's solve skips y;
* x_j restricts to y as the j-th entry of the integer point -y^{-1}.t
  (`_fixed_point`), so a class given by a polynomial is read off its
  values there, and no polynomial is built: `from_values` solves h^k =
  x_1^k, the Chern classes (e_j, or h_j, of the tautological roots) and
  c_1(O(1)) (one root) from integer functions of that point.  Each is
  invariant under the parabolic W_P of its F(I), so its values depend
  only on the coset of y;
* every memo is the model's and is freed with it, so
  `build_geometry.cache_clear()` frees all that a model computed: the full
  restriction row of each element, for every F(I); a product of two W^P
  classes, pulled back from G/B, per pair of indices whichever F(I) and sheet
  asked for it; the polynomial representatives; and the distinguished
  classes (Z, W, the Chern classes, c_1(O(1)), h^k, and the bridge's
  incidence powers and theta-actions), keyed by (constructor, indices),
  where a call that raises stores nothing;
* every class is built over Z; its mod-2 class is its image under
  `SparseCycle.mod2`, a ring map that commutes with every product,
  pullback, pushforward and degree, so one integer class serves both rings;
* degrees of products use Poincare duality on G/P: deg(s_u s_v) is 1 when
  v = w_0 u w_0(P_I) and 0 otherwise (Bernstein-Gelfand-Gelfand, Schubert
  cells and cohomology of G/P, 1973).  The factors are split into two halves
  of near-equal codimension, each half is multiplied out with the memoised
  two-class products, and the two Schubert vectors are paired, so no product
  reaches the top degree;
* `schubert_rep` and `expand` keep the polynomial route, which no computation
  here uses: the point class of the full flag variety is the monomial
  m! x^rho / |W|, rho = (2m-1, ..., 3, 1) for B_m and (2m-2, ..., 2, 0) for
  D_m, the class of w is its divided difference of w^{-1} w_0, and `expand`
  solves a W_P-invariant polynomial from its values.  They are the tests'
  reference for the solve and the value-defined classes; the benchmark wraps them;
* pushforward along F(I) -> F(J) is the divided difference of
  w_0(P_J) w_0(P_I), which acts on the Schubert basis combinatorially: a
  table per (I, J) sends u w_0(P_J) w_0(P_I) to u for each u in basis(J),
  and kills every other class.  `pullpush` is every correspondence
  F(I) <- F(I u J) -> F(J), such as X -> G_i for the Z- and W-classes;
* `FlagModel.x_basis` names the Schubert class of each basis symbol of
  X = G_0 (h^c, l_b, l_d'); `x_class`, `l_class` and the bridge read it.

For n even the model's G_d is the ruling component that cuts the last node of
D_m, and the middle class l_d on X is named so that a generic member of G_d
meets the subspace representing l_d in exactly one point (this makes
deg(z^d_0) = 1, and flips between the same and the opposite family according
to n mod 4).  The other component is its image under sigma, w -> c w c with c
the sign change of the last coordinate (`WeylGroup.sigma`).  A `FlagCycle` is
keyed by (sheet, w), w an index: F(I) has two sheets, its components over the
two rulings, when n is even and d is in I, and one otherwise.  Sheet 1 is
stored as its sigma-transport, so every sheet is read on the one model, and
sigma is applied only where a cycle crosses between sheet 1 and a connected
F(J) (`pullback`, `pushforward`) and where a window is printed
(`FlagModel.printed`): under the orientation minus, G_d is the other
component, and sheet 0 and the connected spaces print through sigma, not
sheet 1.  Degrees sum over the sheets.  The orientation only names the
rulings in print, so one model per n (`build_geometry`) serves both.

Sign conventions not forced by the mathematics (the Chern roots of the
tautological bundles and c_1(O(1)) on F(i-1,i)) are pinned by the classical
pullback identities relating Z- and W-classes on consecutive grassmannians;
``validate_conventions`` re-derives those identities and is the build gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce, wraps
from math import factorial
from typing import Iterable, Mapping

from quadchow import polyring
from quadchow.polyring import divided_difference
from quadchow.weyl import RangeError, WeylGroup, make_group

__all__ = [
    "QuadricContext",
    "SparseCycle",
    "FlagModel",
    "FlagCycle",
    "build_geometry",
    "pullback_ladder",
]

MIN_N = 3
MAX_N = 8


@dataclass(frozen=True)
class QuadricContext:
    """Global parameters shared by every model attached to one quadric."""

    n: int

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

    Constructors build over Z, and ``mod2`` reduces; the results of
    operations on mod-2 cycles stay mod 2.

    Cycles are immutable: every operation builds a new one, and memoised
    results are shared between callers, so nothing may change ``coeffs`` in
    place.  A subclass names its ambient space by ``_space()``, the leading
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


def _memoised(method):
    """Memoise a constructor f(model, *indices) of an integer class in the
    model's ``_classes`` dict, keyed by (name, *indices), so the memo is
    freed with its model.  An index that is not an int (a bool, a float equal
    to an int) raises ValueError before the lookup; a call that raises stores
    nothing, so a range error raises every time.  Callers share the cached
    cycle."""
    name = method.__name__

    @wraps(method)
    def cached(self, *args):
        for a in args:
            if type(a) is not int:
                raise ValueError("%s: indices must be integers, got %r" % (name, args))
        key = (name, *args)
        out = self._classes.get(key)
        if out is None:
            out = self._classes[key] = method(self, *args)
        return out

    return cached


class FlagCycle(SparseCycle):
    """A cycle on F(I), stored by its integer (or mod-2) Schubert coefficients,
    keyed (sheet, w): w is the index of a basis element in the group's
    `elements`, and the sheet is the component of F(I) it lies on, 0 or 1
    (`FlagModel.sheets`), sheet 1 stored as its sigma-transport."""

    __slots__ = ("model", "I")

    def __init__(self, model: "FlagModel", I, coeffs: Mapping, p: int = 0):
        self.model = model
        self.I = frozenset(I)
        SparseCycle.__init__(self, coeffs, p)

    def _space(self) -> tuple:
        return (self.model, self.I)

    def _key_codim(self, key: tuple[int, int]) -> int:
        return self.model.group._lengths[key[1]]

    def __mul__(self, other: "FlagCycle") -> "FlagCycle":
        self._check(other)
        model, I = self.model, self.I
        right: list[list] = [[] for _ in range(model.sheets(I))]
        for (k, v), c in other.coeffs.items():
            right[k].append((v, c))
        out: dict = {}
        for (k, u), cu in self.coeffs.items():
            for v, cv in right[k]:
                for w, c in model.basis_product(I, u, v).items():
                    key = (k, w)
                    out[key] = out.get(key, 0) + cu * cv * c
        return FlagCycle(model, I, out, self.p)

    def render(self, orientation: int = 1) -> str:
        """The terms c*S(window) of each sheet in index order, the sheets
        joined by " (+) ", with the windows the orientation prints."""
        elements = self.model.group.elements
        sheets: list[list] = [[] for _ in range(self.model.sheets(self.I))]
        for (k, w), c in sorted(self.model.printed(self.coeffs, orientation).items()):
            sheets[k].append("%d*S%s" % (c, elements[w]))
        tag = " (mod 2)" if self.p == 2 else ""
        return " (+) ".join(" + ".join(terms) + tag if terms else "0" for terms in sheets)

    __repr__ = render


class FlagModel:
    """All Chow-ring data for the flag varieties of one split quadric, over
    both ruling components where F(I) has two (`sheets`)."""

    def __init__(self, n: int):
        if not MIN_N <= n <= MAX_N:
            raise RangeError("n out of range (supported: %d..%d)" % (MIN_N, MAX_N))
        self.ctx = QuadricContext(n)
        self.n = n
        self.d = self.ctx.d
        self.group: WeylGroup = make_group(self.ctx.family, self.ctx.rank)
        self._rows: dict[int, dict[int, int]] = {}  # see _restriction_row
        self._pairs: dict[tuple[int, int], dict[int, int]] = {}  # see basis_product
        self._reps: dict[int, polyring.Polynomial] = {}  # see schubert_rep
        self._index_sets: dict = {}
        self._pushes: dict = {}
        self._duals: dict = {}
        self._classes: dict = {}  # see _memoised
        self._identify_quadric_basis()
        self.validate_conventions()

    # -- index bookkeeping ---------------------------------------------------

    def sheets(self, I: Iterable[int]) -> int:
        """The number of connected components of F(I)."""
        return 2 if self.n % 2 == 0 and self.d in frozenset(I) else 1

    def printed(self, coeffs: Mapping, orientation: int = 1) -> Mapping:
        """Keys (sheet, w, ...) with w as the orientation (1 or -1) prints it:
        moved by sigma on sheet 1 under plus, on sheet 0 and connected spaces
        under minus."""
        if self.n % 2:
            return coeffs
        same, sigma = range(len(self.group)), self.group.sigma
        tables = (same, sigma) if orientation == 1 else (sigma, same)
        return {(k, tables[k][w], *r): c for (k, w, *r), c in coeffs.items()}

    def parabolic(self, I: Iterable[int]) -> frozenset[int]:
        """Simple-reflection indices of the parabolic for F(I): every node but
        those each i in I cuts.  Memoised per valid index set."""
        I = frozenset(I)
        cached = self._index_sets.get(I)
        if cached is not None:
            return cached
        m = self.group.rank
        cut: set[int] = set()
        for i in I:
            if not 0 <= i <= self.d:
                raise RangeError("flag index out of range: %r" % (i,))
            if self.ctx.family == "B" or i <= self.d - 2:
                cut.add(i + 1)
            elif i == self.d - 1:
                cut.update((m - 1, m))
            else:  # i == d, type D: the ruling component that cuts the last node
                cut.add(m)
        cached = self._index_sets[I] = frozenset(range(1, m + 1)) - cut
        return cached

    def basis(self, I: Iterable[int]) -> tuple[int, ...]:
        """The indices of the minimal coset representatives of W_P, in order."""
        return self.group.coset_indices(self.parabolic(I))

    def dim_flag(self, I: Iterable[int]) -> int:
        return self.group._lengths[self.top_element(I)]

    def top_element(self, I: Iterable[int]) -> int:
        """The longest minimal coset representative, w_0 * w_0(P_I)."""
        return self.basis(I)[-1]

    def zero(self, I: Iterable[int]) -> FlagCycle:
        return FlagCycle(self, I, {})

    def fundamental(self, I: Iterable[int]) -> FlagCycle:
        return FlagCycle(self, I, {(k, 0): 1 for k in range(self.sheets(I))})

    def point_class(self, I: Iterable[int]) -> FlagCycle:
        """The class of a point; on a disconnected F(I), a point of sheet 0."""
        return FlagCycle(self, I, {(0, self.top_element(I)): 1})

    # -- Schubert representatives and expansion -------------------------------

    @cached_property
    def point_rep(self) -> polyring.Polynomial:
        """The point class of the full flag variety, the single monomial
        m! x^rho / |W|, with rho = (2m-1, ..., 3, 1) for B_m and
        (2m-2, ..., 2, 0) for D_m.

        div_{w_0} sends x^rho to 2^m (B) or 2^(m-1) (D), so div_{w_0} of the
        point class is 1, as for the product of the positive roots over |W|.
        The two differ by an element of the ideal J of positive-degree
        invariants, and div_i maps J into itself: for f in J of degree l(w),
        div_w(f) = 0, so no expansion can tell the representatives derived
        from either apart.
        """
        g, m = self.group, self.group.rank
        rho = range(2 * m - 1, 0, -2) if g.family == "B" else range(2 * m - 2, -1, -2)
        return polyring.Polynomial(m, {tuple(rho): factorial(m)}, len(g))

    def schubert_rep(self, w: int) -> polyring.Polynomial:
        """Polynomial representative of the Schubert class of the element of
        index w (codim = length): `point_rep` at the longest element, else the
        divided difference of the representative one ascent up.  Memoised
        per index on the model."""
        cached = self._reps.get(w)
        if cached is None:
            g = self.group
            ascents = ~g._descents[w] & ((1 << g.rank) - 1)
            i = (ascents & -ascents).bit_length()
            cached = self._reps[w] = (
                divided_difference(g, i, self.schubert_rep(g._right[w][i - 1]))
                if ascents
                else self.point_rep
            )
        return cached

    def expand(self, poly: polyring.Polynomial, I: Iterable[int]) -> FlagCycle:
        """Express a polynomial representative in the Schubert basis of F(I),
        on sheet 0: a polynomial names a class on the model's own ruling.

        Each homogeneous part of degree k <= dim F(I) is solved from its
        values at the fixed points; the codimension-k coefficients of the
        solve are the non-equivariant ones.  A part not fixed by W_P, the
        parabolic of F(I), is no class on F(I) and raises ValueError, as does
        a polynomial in the wrong number of variables.  A fractional
        coefficient is a hard error (a convention broke).
        """
        I = frozenset(I)
        g = self.group
        if poly.nvars != g.rank:
            raise ValueError("rank mismatch")
        dim = self.dim_flag(I)
        par = sorted(self.parabolic(I))
        out: dict = {}
        for k, part in sorted(poly.homogeneous_parts().items()):
            if k > dim:
                break
            moved = [i for i in par if polyring.act(g.simple_reflections[i - 1], part) != part]
            if moved:
                raise ValueError(
                    "the degree-%d part is no class on F(%s): s_%d moves it"
                    % (k, ",".join(map(str, sorted(I))), moved[0])
                )
            for w, c in self._solve_values(I, k, part.numerator_at()).items():
                if c % part.den:
                    raise ArithmeticError(
                        "nonintegral Schubert coefficient %s at %r"
                        % (Fraction(c, part.den), g.elements[w])
                    )
                out[0, w] = c // part.den
        return FlagCycle(self, I, out)

    def from_values(self, I: Iterable[int], k: int, f) -> FlagCycle:
        """The codimension-k class on F(I) whose value at each fixed point y is
        the integer f(x), x = -y^{-1}.t (`_fixed_point`); f must evaluate a
        W_P-invariant polynomial of degree k in x_1, ..., x_m whose class
        sigma fixes, so the one solve is put on every sheet."""
        solved = self._solve_values(I, k, f)
        coeffs = {(s, w): c for s in range(self.sheets(I)) for w, c in solved.items()}
        return FlagCycle(self, I, coeffs)

    def _solve_values(self, I, k: int, f) -> dict[int, int]:
        elements = self.group.elements
        value = lambda y, row: f(_fixed_point(elements[y]))  # noqa: E731
        return self._localized_expansion(I, value, 0, k)

    def basis_product(self, I, u: int, v: int) -> dict[int, int]:
        """s_u s_v for u, v in basis(I); pulled back from G/B, so memoised per
        (u, v) on the model, one entry for every F(I) and sheet.

        Its value at y is xi_u(y) xi_v(y), and its coefficients lie between
        lengths max(l(u), l(v)) and l(u) + l(v).  Every x with a nonzero
        coefficient lies above both u and v, so where that value is 0 (u or v
        is not below y) no such x is below y either, and the solve skips y.
        """
        a, b = sorted((u, v))
        cached = self._pairs.get((a, b))
        if cached is None:
            la, lb = self.group._lengths[a], self.group._lengths[b]
            if la + lb > self.dim_flag(I):
                cached = {}
            else:
                value = lambda y, row: row.get(a, 0) * row.get(b, 0)  # noqa: E731
                cached = self._localized_expansion(I, value, lb, la + lb, skip_zeros=True)
            self._pairs[a, b] = cached
        return cached

    def _restriction_row(self, y: int) -> dict[int, int]:
        """xi_x(y) for every x <= y, keyed by the index of x in the group's
        `elements`: the Schubert class of x restricted to the torus-fixed
        point elements[y], at t = (m, ..., 1).

        Billey's formula: for a reduced word y = s_a1 ... s_al, put
        r_j = <s_a1 ... s_a(j-1)(alpha_aj), t>; xi_x(y) sums, over the subwords
        that are reduced words of x, the product of their r_j.  t is dominant
        regular for B_m and D_m, so every r_j is a positive integer and
        xi_x(y) != 0 exactly when x <= y.  Take the word ending in y's lowest
        right descent a, after a word of its parent p = y s_a: a subword either
        skips the last letter or ends with it, so row(y) = row(p) plus
        r = <p(alpha_a), t> times row(p) moved by s_a, which adds r xi_z(p) at
        z s_a for each z with no descent a.  Every row is memoised per y on the
        model, one row for every F(I) and sheet, and built up from the nearest
        memoised ancestor; the solve reads only its basis(I) entries.
        """
        g, rows = self.group, self._rows
        if y in rows:
            return rows[y]
        descents, right, elements = g._descents, g._right, g.elements
        chain = []
        while y and y not in rows:
            d = descents[y]
            a = (d & -d).bit_length() - 1
            chain.append((y, a))
            y = right[y][a]
        row = rows[y] if y else {0: 1}
        for y, a in reversed(chain):
            # <p(e_j), t> = -x_j at the fixed point x of the parent p
            p = _fixed_point(elements[right[y][a]])
            r = -sum(c * x for c, x in zip(g.simple_roots[a], p))
            bit, parent = 1 << a, row
            row = rows[y] = dict(parent)
            for z, c in parent.items():
                if not descents[z] & bit:
                    zs = right[z][a]
                    row[zs] = row.get(zs, 0) + c * r
        return row

    def _localized_expansion(self, I, value, lo: int, k: int, skip_zeros: bool = False) -> dict:
        """The codimension-k Schubert coefficients on F(I) of the class whose
        restriction to each fixed point w is value(w, row of w), w an index.

        The GKM triangular solve (Goresky-Kottwitz-MacPherson, 1998): walk
        basis(I) in length order from lo, where the first coefficient can be
        nonzero, to k; c^w = (value(w, row) - sum_x c^x xi_x(w)) / xi_w(w) over
        the x already solved, read from the full row of w by index.  Every
        division is exact, since the equivariant coefficients are integer
        polynomials in t; a remainder raises.  With skip_zeros, a zero value
        is taken to force c^w = 0 (`basis_product` says when it does).
        """
        g = self.group
        lengths = g._lengths
        solved: dict[int, int] = {}
        out: dict[int, int] = {}
        for w in g.coset_indices(self.parabolic(I)):
            lw = lengths[w]
            if lw < lo:
                continue
            if lw > k:
                break
            row = self._restriction_row(w)
            c = value(w, row)
            if skip_zeros and not c:
                continue
            c -= sum(cx * row.get(x, 0) for x, cx in solved.items())
            cw, rem = divmod(c, row[w])
            if rem:
                raise ArithmeticError("inexact localization division at %r" % (g.elements[w],))
            if cw:
                solved[w] = cw
                if lw == k:
                    out[w] = cw
        return out

    # -- functoriality ---------------------------------------------------------

    def pullback(self, target_I: Iterable[int], x):
        """Pullback along F(target_I) -> F(J), J = x.I contained in target_I,
        of a cycle keyed (sheet, w, ...): a ``FlagCycle``, or a mixed cycle on
        F(J) x X^m, whose X-monomial rides along unchanged.

        Every key keeps its Schubert element, and a connected source (d not in
        J) is copied onto sheet 0 of a split target as is and onto sheet 1
        through sigma.  The result has x's type, on the target.
        """
        _own(self, x)
        target_I = frozenset(target_I)
        if not x.I <= target_I:
            raise ValueError("pullback requires J to be a subset of I")
        self.parabolic(target_I)  # range-checks the target's indices
        coeffs = x.coeffs
        if self.sheets(target_I) > self.sheets(x.I):
            sigma = self.group.sigma
            coeffs = {**coeffs, **{(1, sigma[w], *r): c for (_, w, *r), c in coeffs.items()}}
        return type(x)(self, target_I, *x._space()[2:], coeffs, x.p)

    def pushforward(self, target_J: Iterable[int], x):
        """Pushforward along F(I) -> F(J) for J contained in I, of a cycle
        keyed (sheet, w, ...), as in `pullback`; the result has x's type.

        On the Schubert basis this is combinatorial: s_w maps to s_u when
        w = u v, u in basis(J) and v = w_0(P_J) w_0(P_I), and to 0 otherwise.
        The table is built once per (I, J): v is w_0(P_J), reached by ascent,
        walked down by P_I, and each u is followed along a word of v.  Over a
        connected target (d not in J) sheet 1 adds into sheet 0 through sigma.
        """
        _own(self, x)
        target_J = frozenset(target_J)
        if not target_J <= x.I:
            raise ValueError("pushforward requires J to be a subset of I")
        table = self._pushes.get((x.I, target_J))
        if table is None:
            g = self.group
            top = g._walk(0, g._mask(self.parabolic(target_J)), 1)[0]
            v = g._word(g._walk(top, g._mask(self.parabolic(x.I)), -1)[0])
            table = self._pushes[x.I, target_J] = {g._follow(u, v): u for u in self.basis(target_J)}
        merge = self.sheets(target_J) < self.sheets(x.I)
        out: dict = {}
        for (k, w, *r), c in x.coeffs.items():
            u = table.get(w)
            if u is not None:
                key = (0, self.group.sigma[u], *r) if merge and k else (k, u, *r)
                out[key] = out.get(key, 0) + c
        return type(x)(self, target_J, *x._space()[2:], out, x.p)

    def pullpush(self, x, J: Iterable[int]):
        """The correspondence F(I) <- F(I u J) -> F(J) on a cycle x on F(I),
        of either kind `pullback` takes."""
        J = frozenset(J)
        return self.pushforward(J, self.pullback(x.I | J, x))

    def deg(self, x: FlagCycle) -> int:
        """Degree homomorphism: the sum over the sheets of the coefficient of
        the point class."""
        _own(self, x)
        top = self.top_element(x.I)
        total = sum(x.coeffs.get((k, top), 0) for k in range(self.sheets(x.I)))
        return total % 2 if x.p == 2 else total

    def poincare_dual(self, I: Iterable[int]) -> dict[int, int]:
        """The involution u -> w_0 u w_0(P_I) of basis(I), memoised per I.

        deg(s_u s_v) on F(I) is 1 when v is the dual of u and 0 otherwise.
        u w_0(P_I) is the top of the coset u W_P, reached by ascent.
        """
        I = frozenset(I)
        dual = self._duals.get(I)
        if dual is None:
            g = self.group
            w0, mask = len(g) - 1, g._mask(self.parabolic(I))
            tops = {u: g._walk(u, mask, 1)[0] for u in self.basis(I)}
            dual = self._duals[I] = {u: g._follow(w0, g._word(top)) for u, top in tops.items()}
        return dual

    def deg_product(self, classes: list[FlagCycle]) -> int:
        """deg of a product, by Poincare duality.

        The factors are split greedily (largest codimension first) into two
        halves of near-equal codimension; each half is multiplied out as
        FlagCycles (an empty half is the fundamental class), and the two
        Schubert vectors A, B are paired on every sheet: deg = sum_(k, u)
        A_(k, u) B_(k, dual(u)).
        """
        if not classes:
            raise ValueError("empty product")
        _own(self, *classes)
        I = classes[0].I
        codims = [x.codim() for x in classes]
        if sum(codims) != self.dim_flag(I):
            return 0
        halves: tuple[list, list] = ([], [])
        weight = [0, 0]
        for c, x in sorted(zip(codims, classes), key=lambda t: -t[0]):
            k = 0 if weight[0] <= weight[1] else 1
            halves[k].append(x)
            weight[k] += c
        a, b = (reduce(FlagCycle.__mul__, h) if h else self.fundamental(I) for h in halves)
        dual = self.poincare_dual(I)
        total = sum(c * b.coeffs.get((k, dual[u]), 0) for (k, u), c in a.coeffs.items())
        return total % 2 if classes[0].p == 2 else total

    # -- the quadric inside the model -------------------------------------------

    def _identify_quadric_basis(self) -> None:
        """Build `x_basis`, the Schubert basis index of each basis symbol of X:
        h^c below the middle codimension, l_{n-c} above it, and at even n the
        two middle classes l_d and l_d' by ruling."""
        n, d = self.n, self.d
        self.x_basis: dict[tuple[str, int], int] = {}
        mids = []
        for w in self.basis([0]):
            c = self.group._lengths[w]
            if c == d and n % 2 == 0:
                mids.append(w)
            else:
                self.x_basis[("h", c) if c <= d else ("l", n - c)] = w
        if n % 2 == 0:
            if len(mids) != 2:
                raise AssertionError("expected two middle classes on an even quadric")
            # Push the point class of the chosen G_d component down to X; that
            # is the middle class of the same ruling family as G_d.
            same = self.pullpush(self.point_class([d]), [0])
            if len(same.coeffs) != 1 or set(same.coeffs.values()) != {1}:
                raise AssertionError("ruling identification failed")
            ((_, w_same),) = same.coeffs
            (w_other,) = [w for w in mids if w != w_same]
            # l_d is the ruling a generic member of G_d meets in a point:
            # the same family iff the rank d+1 is odd, i.e. iff 4 | n.
            if n % 4:
                w_same, w_other = w_other, w_same
            self.x_basis[("l", d)], self.x_basis[("lp", d)] = w_same, w_other
            total = self.h_power(d)
            if total.coeffs != {(0, mids[0]): 1, (0, mids[1]): 1}:
                raise AssertionError("h^d should split as l_d + l_d'")

    def x_class(self, s: tuple[str, int]) -> FlagCycle:
        """The class on X = G_0 of a basis symbol ("h", a), ("l", b) or ("lp", d).

        A known kind with an index that names no basis class raises
        RangeError; any other symbol raises ValueError.
        """
        w = self.x_basis.get(s)
        if w is None:
            if any(s[:1] == (kind,) for kind, _ in self.x_basis):
                raise RangeError("X-class index out of range: %r" % (s,))
            raise ValueError("no X-class symbol %r at n = %d" % (s, self.n))
        return FlagCycle(self, [0], {(0, w): 1})

    @_memoised
    def h_power(self, k: int) -> FlagCycle:
        """h^k on X, for 0 <= k <= n (expanded in the Schubert basis)."""
        if not 0 <= k <= self.n:
            raise RangeError("hyperplane power out of range")
        return self.from_values([0], k, lambda x: x[0] ** k)

    def l_class(self, b: int) -> FlagCycle:
        """The class of a b-dimensional isotropic subspace on X (oriented at b = d)."""
        return self.x_class(("l", b))

    # -- distinguished classes ---------------------------------------------------

    @_memoised
    def class_Z(self, i: int, j: int) -> FlagCycle:
        """Z^i_j on G_i: pull l_{n-i-j} through F(0,i) onto every sheet and
        push down (the naming of l_d is the model's on both sheets).

        Out-of-range j gives the natural zero class rather than an error only
        when the l-index merely overflows codimension (j > n - i); the lower
        bound is a genuine range error.
        """
        if not 0 <= i <= self.d:
            raise RangeError("grassmannian index out of range")
        if j > self.n - i:
            return self.zero([i])
        if j < self.n - i - self.d:
            raise RangeError("Z index out of range")
        x = self.l_class(self.n - i - j)
        return x if i == 0 else self.pullpush(x, [i])

    @_memoised
    def class_W(self, i: int, j: int) -> FlagCycle:
        """W^i_j on G_i (and W^0_j = h^j); zero for negative j.

        The distinguished range is j + i <= d, but the defining pull-push of
        h^{j+i} makes sense whenever the power exists and is what the degree
        computations on products use, so any j + i <= n is accepted.
        """
        if not 0 <= i <= self.d:
            raise RangeError("grassmannian index out of range")
        if j < 0:
            return self.zero([i])
        if i == 0:
            return self.h_power(j)
        if j + i > self.n:
            raise RangeError("W index out of range")
        return self.pullpush(self.h_power(j + i), [i])

    @_memoised
    def chern_taut(self, i: int, j: int) -> FlagCycle:
        """c_j of the tautological bundle on G_i: e_j of its Chern roots,
        -x_1, ..., -x_(i+1) at the fixed point x."""
        if not 0 <= j <= i + 1:
            raise RangeError("Chern index out of range")
        roots = lambda x: [-v for v in x[: i + 1]]  # noqa: E731
        return self.from_values([i], j, lambda x: _symmetric_function(roots(x), j))

    @_memoised
    def chern_quot(self, i: int, j: int) -> FlagCycle:
        """c_j of the quotient of the trivial bundle by the tautological one:
        h_j of the negated tautological roots, x_1, ..., x_(i+1)."""
        rank_q = self.n + 2 - (i + 1)
        if not 0 <= j <= rank_q:
            raise RangeError("Chern index out of range")
        return self.from_values([i], j, lambda x: _symmetric_function(x[: i + 1], j, True))

    @_memoised
    def class_O1(self, i: int) -> FlagCycle:
        """c_1(O(1)) of the projective bundle F(i-1, i) -> G_i: the last
        tautological root of G_i, -x_i."""
        if not 1 <= i <= self.d:
            raise RangeError("bundle index out of range")
        return self.from_values([i - 1, i], 1, lambda x: -x[i])

    def w_sigma_sum(self, i: int, t: int, js: Iterable[int]) -> FlagCycle:
        """The Lemma 2.5 sum on G_{i-1}: sum over j in js of
        W^{i-1}_{t-j} . pi_* pi^*(Z^i_{n-2i+j})."""
        total = self.zero([i - 1])
        for j in js:
            sigma = self.pullpush(self.class_Z(i, self.n - 2 * i + j), [i - 1])
            total = total + self.class_W(i - 1, t - j) * sigma
        return total

    # -- convention gate -----------------------------------------------------------

    def validate_conventions(self) -> None:
        """The build gate: raise at the first failing identity of the Lemma 2.4
        ladders, i = 1..d, each read on every sheet."""
        for i in range(1, self.d + 1):
            for case_id, params, lhs, rhs in pullback_ladder(self, i):
                if lhs != rhs:
                    raise ArithmeticError(
                        "sign-convention gate failed at i=%d (%s, %s)" % (i, case_id, params)
                    )


def pullback_ladder(model: FlagModel, i: int):
    """The Lemma 2.4 identities on F(i-1, i) that pin every sign choice.

    Yields (case_id, params, lhs, rhs) tuples; every one must be an exact
    equality.
    """
    n, d = model.n, model.d
    I = [i - 1, i]
    xi = model.class_O1(i)
    pull = lambda x: model.pullback(I, x)  # noqa: E731
    # the full pull-push of h^i is the fundamental class of G_i
    yield "fundamental", {"n": n, "i": i}, model.class_W(i, 0), model.fundamental([i])
    # Z-classes on consecutive grassmannians
    for j in range(n - i + 1 - d, n - i + 2):
        lhs = pull(model.class_Z(i - 1, j))
        rhs = xi * pull(model.class_Z(i, j - 1)) + pull(model.class_Z(i, j))
        yield "Z-ladder", {"n": n, "i": i, "j": j}, lhs, rhs
    # W-classes below the top
    for j in range(0, d - i + 1):
        lhs = pull(model.class_W(i - 1, j))
        rhs = xi * pull(model.class_W(i, j - 1)) + pull(model.class_W(i, j))
        yield "W-ladder", {"n": n, "i": i, "j": j}, lhs, rhs
    # the top W-class picks up a doubled Z-term
    lhs = pull(model.class_W(i - 1, d - i + 1))
    rhs = xi * pull(model.class_W(i, d - i)) + pull(model.class_Z(i, d - i + 1)).scale(2)
    yield "top-W-ladder", {"n": n, "i": i}, lhs, rhs


def _own(model: FlagModel, *cycles) -> None:
    """Raise ValueError unless the cycles lie on one F(I) of `model`, over one
    ring."""
    first = cycles[0]
    for x in cycles[1:]:
        first._check(x)
    if first.model is not model:
        raise ValueError("space/ring mismatch")


def _fixed_point(window: tuple[int, ...]) -> list[int]:
    """x = -y^{-1}.t at t = (m, ..., 1), y the element with this window: x_j is
    the value of the variable x_j at the fixed point y.  t_j = m + 1 - j, so
    x_j = y(j) - sign(y(j)) (m + 1)."""
    t = len(window) + 1
    return [v - t if v > 0 else v + t for v in window]


def _symmetric_function(roots: list[int], j: int, complete: bool = False) -> int:
    """e_j of the roots, or h_j when `complete`: per root r, acc[k] += acc[k-1] * r
    for k = j..1 (acc[k-1] lacks r, so r enters once) or k = 1..j (acc[k-1]
    already holds every power of r)."""
    acc = [1] + [0] * j
    ks = range(1, j + 1) if complete else range(j, 0, -1)
    for r in roots:
        for k in ks:
            acc[k] += acc[k - 1] * r
    return acc[j]


@lru_cache(maxsize=None)
def build_geometry(n: int) -> FlagModel:
    """Build (and cache) the flag model of the split quadric of dimension n,
    the one object per n that every orientation prints from.  The model owns
    every memo of what it computed, so `build_geometry.cache_clear()` frees
    them all."""
    return FlagModel(n)
