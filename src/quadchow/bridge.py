"""Mixed cycles on (flag variety) x (quadric power), and the correspondences
built from the point-subspace incidence.

A mixed cycle on F(I) x X^m is stored in the Kunneth basis: coefficients are
indexed by triples (sheet, w, basis monomial on X^m).  The first two entries
are the (sheet, w) key of a ``FlagCycle`` on F(I) (two sheets when n is even
and d is in I, else one): w is the index of a Schubert basis element of F(I)
in the group's ``elements``, as everywhere in the engine.  Because both
factors are cellular, pullback and pushforward act independently on the two
tensor legs: the X leg by the ``QuadCycle`` slot maps on each (sheet, w)
group, the flag leg by ``FlagModel.pullback`` and ``pushforward``
themselves, which read the leading (sheet, w) of every key and carry the
X-monomial along; those two hold the sheet rules (a connected space is
copied onto both sheets of a split one, and a split one adds into sheet 0 of
a connected one, sheet 1 through sigma).  Both sheets are read on the one
model, so products, tops and Poincare duals are one per F(I), and its
``FlagModel.x_basis`` names the X-class of each basis symbol.

Flag-side correspondence actions p_*((x (x) 1) . M) read x on the Poincare
duals of M's Schubert classes (``MixedCycle.action_on_flag``, no product on
F(I)); ``push_to_quad`` of the full product is the reference.  X-side actions
pair slots by ``quadpow.contract``; ``action_on_quad`` is ``id_times_action``
with no kept slot.  theta'_i is a product: the split diagonal, its second slot
moved onto the flag leg of F(0) x X, times the incidence class of G_i, both
pulled to F(0, i).

The incidence class of pairs (subspace, point on it) inside G_i x X is not
computed from an embedding; it is assembled from its Kunneth expansion, whose
coefficient on a basis monomial b of X is the pull-push to G_i of the Poincare
dual of b.  That assembly is validated against the intrinsic characterisation
(its correspondence action on X-classes must reproduce the raw pull-push maps)
by ``validate_incidence``; a mismatch is a hard error in the Kunneth
bookkeeping, not a tolerance issue.

Every class here is built over Z, and a mod-2 class is its reduction by
``SparseCycle.mod2``.  The incidence powers on G_i x X^m (the class itself at
m = 1, eta_i at m = i, theta_i at m = i + 1) are memoised on the model by
(i, m), each built once, by one walk over the sorted multisets of X-symbols
with one product on G_i per step (``_walk``).  ``theta_action`` takes only
degrees on the same walk from the top Z-class, memoised by i, so alpha_i
never builds theta_i; ``action_via_pullpush`` stays on eta_i, a second
computation for lemma32 to compare.  The memos die with their model.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

from quadchow.quadpow import (
    Correspondence,
    Mono,
    QuadCycle,
    Sym,
    basis_symbols,
    codim1,
    contract,
    delta_i,
    dual1,
    external,
    h_power_cycle,
    monomial_cycle,
    rho_i,
)
from quadchow.quadpow import _mul_mono
from quadchow.schubert import FlagCycle, FlagModel, SparseCycle, _memoised, _own
from quadchow.weyl import RangeError

__all__ = [
    "MixedCycle",
    "flag_cycle_to_quad",
    "incidence_class",
    "validate_incidence",
    "eta",
    "theta",
    "theta_action",
    "action_via_pullpush",
    "alpha",
    "theta_prime",
    "eta_pushdown",
    "eta_pushdown_expansion",
    "degree_congruence",
]

MixedKey = tuple[int, int, Mono]


def flag_cycle_to_quad(model: FlagModel, x: FlagCycle) -> QuadCycle:
    """Translate a cycle on X = G_0 from Schubert to quadric-power coordinates."""
    if x.I != frozenset([0]):
        raise ValueError("expected a cycle on X")
    _own(model, x)
    names = {w: s for s, w in model.x_basis.items()}
    return QuadCycle(model.ctx, 1, {(names[w],): c for (_, w), c in x.coeffs.items()}, x.p)


class MixedCycle(SparseCycle):
    """A cycle on F(I) x X^m in the Kunneth basis, keyed (sheet, w, mono)."""

    __slots__ = ("model", "I", "arity")

    def __init__(
        self,
        model: FlagModel,
        I,
        arity: int,
        coeffs: Mapping[MixedKey, int],
        p: int = 0,
    ):
        if arity < 0:
            raise ValueError("negative arity: %r" % (arity,))
        self.model = model
        self.I = frozenset(I)
        self.arity = arity
        SparseCycle.__init__(self, coeffs, p)

    def _space(self) -> tuple:
        return (self.model, self.I, self.arity)

    def _key_codim(self, key: MixedKey) -> int:
        _, w, mono = key
        return self.model.group._lengths[w] + sum(
            codim1(self.model.ctx, s) for s in mono
        )

    def __mul__(self, other: "MixedCycle") -> "MixedCycle":
        self._check(other)
        model = self.model
        ctx = model.ctx
        right: list[list] = [[] for _ in range(model.sheets(self.I))]
        for (k, w, mono), c in other.coeffs.items():
            right[k].append((w, mono, c))
        out: dict[MixedKey, int] = {}
        for (k, w1, m1), c1 in self.coeffs.items():
            for w2, m2, c2 in right[k]:
                flag = model.basis_product(self.I, w1, w2)
                if not flag:
                    continue
                quad = _mul_mono(ctx, m1, m2)
                for w, cf in flag.items():
                    for mono, cq in quad.items():
                        key = (k, w, mono)
                        out[key] = out.get(key, 0) + c1 * c2 * cf * cq
        return MixedCycle(self.model, self.I, self.arity, out, self.p)

    def __repr__(self) -> str:
        return "<MixedCycle F(%s) x X^%d, %d terms%s>" % (
            ",".join(map(str, sorted(self.I))),
            self.arity,
            len(self.coeffs),
            " mod 2" if self.p == 2 else "",
        )

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_flag(cls, x: FlagCycle, arity: int) -> "MixedCycle":
        """x (x) [X^arity], for an arity of 0 or more."""
        unit = (("h", 0),) * arity
        coeffs = {(k, w, unit): c for (k, w), c in x.coeffs.items()}
        return cls(x.model, x.I, arity, coeffs, x.p)

    @classmethod
    def from_quad(cls, model: FlagModel, I, x: QuadCycle) -> "MixedCycle":
        """[F(I)] (x) x, for a cycle x on a power of the model's quadric."""
        if x.ctx != model.ctx:
            raise ValueError("space/ring mismatch")
        model.parabolic(I)  # range-checks I
        coeffs = {
            (k, 0, mono): c
            for k in range(model.sheets(I))
            for mono, c in x.coeffs.items()
        }
        return cls(model, I, x.m, coeffs, x.p)

    # -- the two tensor legs ---------------------------------------------------

    def push_to_quad(self) -> QuadCycle:
        """Integrate the flag leg over F(I); sheets add.  The action_on_flag reference."""
        top = self.model.top_element(self.I)
        out: dict[Mono, int] = {}
        for (_, w, mono), c in self.coeffs.items():
            if w == top:
                out[mono] = out.get(mono, 0) + c
        return QuadCycle(self.model.ctx, self.arity, out, self.p)

    def _map_x(self, quad_map) -> "MixedCycle":
        """Apply a QuadCycle slot map to the X leg of every (sheet, w) group.

        The map runs once on the zero cycle first, so a bad slot list raises
        even on a zero cycle, and the zero image gives the new arity.
        """
        ctx = self.model.ctx
        arity = quad_map(QuadCycle(ctx, self.arity, {}, self.p)).m
        groups: dict[tuple[int, int], dict[Mono, int]] = {}
        for (k, w, mono), c in self.coeffs.items():
            groups.setdefault((k, w), {})[mono] = c
        out: dict[MixedKey, int] = {}
        for (k, w), coeffs in groups.items():
            leg = quad_map(QuadCycle(ctx, self.arity, coeffs, self.p))
            for mono, c in leg.coeffs.items():
                out[(k, w, mono)] = c
        return MixedCycle(self.model, self.I, arity, out, self.p)

    def pull_x(self, m_target: int, slots: Sequence[int]) -> "MixedCycle":
        """Pullback along the X-power projection hitting the listed slots."""
        return self._map_x(lambda q: q.pull_proj(m_target, slots))

    def push_x(self, keep: Sequence[int]) -> "MixedCycle":
        """Pushforward integrating the dropped X-slots."""
        return self._map_x(lambda q: q.push_proj(keep))

    # -- correspondence actions ---------------------------------------------------

    def _check_quad(self, x: QuadCycle, arity: int) -> None:
        """x must be a cycle on X^arity over this cycle's quadric and ring."""
        QuadCycle(self.model.ctx, arity, {}, self.p)._check(x)

    def action_on_flag(self, x: FlagCycle) -> QuadCycle:
        """View as a correspondence F(I) -> X^m and act on a flag cycle.

        deg(x . s_w) is the coefficient of x on the Poincare dual of w.
        """
        FlagCycle(self.model, self.I, {}, self.p)._check(x)
        dual = self.model.poincare_dual(self.I)
        out: dict[Mono, int] = {}
        for (k, w, mono), c in self.coeffs.items():
            d = x.coeffs.get((k, dual[w]), 0)
            if d:
                out[mono] = out.get(mono, 0) + c * d
        return QuadCycle(self.model.ctx, self.arity, out, self.p)

    def action_on_quad(self, x: QuadCycle) -> FlagCycle:
        """View as a correspondence X^m -> F(I) and act on a quadric-power cycle:
        id_times_action with no kept slots, split into sheets."""
        self._check_quad(x, self.arity)
        coeffs = {(k, w): c for (k, w, _), c in self.id_times_action(x).coeffs.items()}
        return FlagCycle(self.model, self.I, coeffs, self.p)

    def id_times_action(self, x: QuadCycle) -> "MixedCycle":
        """Act on the last `arity` X-slots of x, keeping the leading slots.

        This is the operator (Id on X^{r}) x (this correspondence): the input
        lives on X^{r + arity}, the output on F(I) x X^{r}.
        """
        r = x.m - self.arity
        if r < 0:
            raise ValueError("arity mismatch")
        self._check_quad(x, x.m)
        out = contract(
            self.model.ctx,
            (((k, w), mono, c) for (k, w, mono), c in self.coeffs.items()),
            (((m[:r],), m[r:], c) for m, c in x.coeffs.items()),
        )
        return MixedCycle(self.model, self.I, r, out, self.p)


# -- the incidence class and its derivates ------------------------------------------


def _pullpush_to_g(model: FlagModel, i: int, x: QuadCycle) -> FlagCycle:
    """The correspondence X -> G_i through F(0, i) on a cycle of X."""
    basis = model.x_basis
    fc = FlagCycle(model, [0], {(0, basis[s]): c for (s,), c in x.coeffs.items()}, x.p)
    return model.pullpush(fc, [i])


def incidence_class(model: FlagModel, i: int) -> MixedCycle:
    """The class of {(subspace, point on it)} in G_i x X, via its Kunneth expansion.

    The coefficient on the X-basis monomial b is the pull-push to G_i of the
    Poincare dual of b; for i = 0 this reduces to the diagonal of X.  It is the
    first incidence power, memoised on the model under (i, 1).
    """
    if not 0 <= i <= model.d:
        raise RangeError("grassmannian index out of range")
    return _power(model, i, 1)


def validate_incidence(model: FlagModel, i: int) -> None:
    """Check the assembled incidence class acts as the raw pull-push maps."""
    ctx = model.ctx
    inc = incidence_class(model, i)
    for s in basis_symbols(ctx):
        x = monomial_cycle(ctx, [s])
        if inc.action_on_quad(x) != _pullpush_to_g(model, i, x):
            raise ArithmeticError(
                "incidence Kunneth bookkeeping failed at i=%d on %r" % (i, s)
            )


@_memoised
def _power(model: FlagModel, i: int, m: int) -> MixedCycle:
    """The incidence power on G_i x X^m, memoised on the model by (i, m).

    At m = 1 it is the Kunneth expansion sum_s gamma_s (x) s: the diagonal
    sum_s dual(s) (x) s of X x X, its first factor pull-pushed from X = G_0
    to G_i.  Its m copies sit in disjoint X-slots, so power m has
    gamma_{s_1} ... gamma_{s_m} on every ordering of each multiset
    s_1 <= ... <= s_m: one ``_walk`` leaf.
    """
    if m == 1:
        ctx, basis = model.ctx, model.x_basis
        diag = {(0, basis[dual1(ctx, s)], (s,)): 1 for s in basis_symbols(ctx)}
        return model.pullpush(MixedCycle(model, [0], 1, diag), [i])
    coeffs: dict[MixedKey, int] = {}
    for monos, x in _walk(model, i, m, model.fundamental([i])):
        for mono in monos:
            for (k, w), c in x.coeffs.items():
                coeffs[(k, w, mono)] = c
    return MixedCycle(model, [i], m, coeffs)


def _walk(model: FlagModel, i: int, m: int, start: FlagCycle, floor: int = 0):
    """Yield (the orderings of s_1 <= ... <= s_m, start . gamma_{s_1} ...
    gamma_{s_m}) per multiset of m basis symbols, gamma_s the incidence
    class's coefficient on s: one product per prefix step, in sorted order,
    dropping a prefix whose product is zero or whose codimension passes
    dim G_i or can no longer reach ``floor``."""
    gammas: dict[Sym, dict[tuple[int, int], int]] = {}
    for (k, w, (s,)), c in _power(model, i, 1).coeffs.items():
        gammas.setdefault(s, {})[(k, w)] = c
    factors = [(s, FlagCycle(model, [i], g)) for s, g in gammas.items()]
    factors = [(s, g, g.codim()) for s, g in factors]
    top, rise = model.dim_flag([i]), max(c for _, _, c in factors)
    stack = [((), 0, start, start.codim())]
    while stack:
        syms, lo, x, codim = stack.pop()
        if len(syms) == m:
            yield sorted(set(itertools.permutations(syms))), x
            continue
        reach = floor - (m - len(syms) - 1) * rise
        for j in range(lo, len(factors)):
            s, g, c = factors[j]
            if reach <= codim + c <= top:
                y = x * g
                if y.coeffs:
                    stack.append((syms + (s,), j, y, codim + c))


def _incidence_power(model: FlagModel, i: int, m: int) -> MixedCycle:
    """Product over the m factor-pullbacks of the incidence class, on G_i x X^m."""
    if not 1 <= i <= model.d:
        raise RangeError("index out of range")
    return _power(model, i, m)


def eta(model: FlagModel, i: int) -> MixedCycle:
    """Product over the i factor-pullbacks of the incidence class, on G_i x X^i."""
    return _incidence_power(model, i, i)


def theta(model: FlagModel, i: int) -> MixedCycle:
    """The incidence correspondence class on G_i x X^{i+1}."""
    return _incidence_power(model, i, i + 1)


@_memoised
def theta_action(model: FlagModel, i: int) -> QuadCycle:
    """The direct route: theta_i as a correspondence G_i -> X^{i+1} applied to
    the top Z-class z, by degrees alone: (s_1, ..., s_{i+1}) has coefficient
    deg(z . gamma_{s_1} ... gamma_{s_{i+1}}), and theta_i is never built.
    Memoised on the model by i."""
    if not 1 <= i <= model.d:
        raise RangeError("index out of range")
    z = model.class_Z(i, model.n - i)
    out: dict[Mono, int] = {}
    for monos, x in _walk(model, i, i + 1, z, model.dim_flag([i])):
        c = model.deg(x)
        if c:
            out.update(dict.fromkeys(monos, c))
    return QuadCycle(model.ctx, i + 1, out)


def action_via_pullpush(model: FlagModel, i: int, x: QuadCycle) -> QuadCycle:
    """The push-pull route through G_i x X^i for the action of
    (theta_i)_*(top Z) on an integer cycle of X."""
    zx = _pullpush_to_g(model, i, x) * model.class_Z(i, model.n - i)
    return eta(model, i).action_on_flag(zx)


def alpha(model: FlagModel, i: int) -> Correspondence:
    """theta-action plus the symmetrized h-chain, as a correspondence X -> X^i."""
    cyc = theta_action(model, i) + rho_i(model.ctx, i)
    return Correspondence(cyc, 1, i)


def theta_prime(model: FlagModel, i: int) -> MixedCycle:
    """The mod-2 correspondence X^2 -> F(0,i) built from the split diagonal
    and the incidence class (arity 2; X-slots are the two sources)."""
    if not 1 <= i <= model.d:
        raise RangeError("index out of range")
    # the split diagonal with its second slot moved onto the flag leg of F(0) x X
    diag: dict[MixedKey, int] = {}
    basis = model.x_basis
    for (u, v), c in delta_i(model.ctx, 1).coeffs.items():
        diag[(0, basis[v], (u,))] = c
    I = [0, i]
    left = model.pullback(I, MixedCycle(model, [0], 1, diag).mod2()).pull_x(2, [0])
    return left * model.pullback(I, incidence_class(model, i).mod2()).pull_x(2, [1])


def eta_pushdown(model: FlagModel, i: int, k: int) -> QuadCycle:
    """The mixed pushforward of (W-part . top-z . eta_i) down to X^i, mod 2."""
    wz = model.class_W(i, k - i) * model.class_Z(i, model.n - i)
    return eta(model, i).action_on_flag(wz).mod2()


def eta_pushdown_expansion(model: FlagModel, i: int, k: int) -> QuadCycle:
    """The double-sum rewriting of the same cycle through G_{i-1} x X^{i-1}."""
    n, ctx = model.n, model.ctx
    if not 2 <= i <= model.d or not i <= k <= model.d:
        raise RangeError("index out of range")
    eta_prev = eta(model, i - 1)
    z_prev = model.class_Z(i - 1, n - i + 1)
    total: QuadCycle | None = None
    for m in range(0, k + 1):
        js = range(max(i - m, 0), min(k - m, i) + 1)
        inner = model.w_sigma_sum(i, k - m, js) * z_prev
        term = external(eta_prev.action_on_flag(inner), h_power_cycle(ctx, m))
        total = term if total is None else total + term
    return total.mod2()


def degree_congruence(
    model: FlagModel, i: int, k: int, m: int, a: Sequence[int]
) -> int:
    """deg((top-Z . prod of Z's) . (sum_j W^i_{k-m-j} c_j(T_i))) mod 2 on G_i."""
    n, d = model.n, model.d
    if not 1 <= i <= d - 1:
        raise RangeError("index out of range")
    if not (i + 1 <= k <= d and 1 <= m <= i):
        raise RangeError("index out of range")
    a = tuple(a)
    if len(a) != i or any(not 0 <= aj <= d for aj in a) or list(a) != sorted(a):
        raise ValueError("expected a sorted tuple of i indices in 0..d")
    classes = [model.class_Z(i, n - i)]
    classes += [model.class_Z(i, n - i - aj) for aj in a]
    s = model.zero([i])
    for j in range(0, i - m + 1):
        s = s + model.class_W(i, k - m - j) * model.chern_taut(i, j)
    if s.is_zero():
        return 0
    return model.deg_product(classes + [s]) % 2
