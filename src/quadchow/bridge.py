"""Mixed cycles on (flag variety) x (quadric power), and the correspondences
built from the point-subspace incidence.

A mixed cycle on F(I) x X^m is stored in the Kunneth basis: coefficients are
indexed by triples (sheet, w, basis monomial on X^m).  The first two entries
are the (sheet, w) key of a ``UnionCycle`` on F(I) (two sheets when n is even
and d is in I, else one): w is the index of a Schubert basis element of F(I)
in the group's ``elements``, as everywhere in the engine.  Because both
factors are cellular, pullback and pushforward act independently on the two
tensor legs: the X leg by the ``QuadCycle`` slot maps, the flag leg by
``QuadricGeometry.pullback`` and ``pushforward`` on the (sheet, w) keys of
each X-monomial group; those two hold the sheet rules (a connected space is
copied onto both sheets of a split one, and a split one adds into sheet 0 of
a connected one, sheet 1 through sigma).  Both sheets are read on the
geometry's one model, so products, tops and Poincare duals are one per F(I),
and its ``FlagModel.x_basis`` names the X-class of each basis symbol.

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

The incidence powers on G_i x X^m (the class itself at m = 1, eta_i at
m = i, theta_i at m = i + 1) are memoised per geometry in
``QuadricGeometry.bridge_memo``: each is built once, by one product from the
power below it, so theta_i costs one product once eta_i exists and later
eta/theta/alpha calls on that geometry are lookups.  The memo lives and dies
with its geometry.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from quadchow.quadpow import (
    Correspondence,
    Mono,
    QuadCycle,
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
from quadchow.schubert import QuadricGeometry, SparseCycle, UnionCycle, _own
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


def flag_cycle_to_quad(geometry: QuadricGeometry, x) -> QuadCycle:
    """Translate a cycle on X = G_0, a UnionCycle or a FlagCycle, from
    Schubert to quadric-power coordinates."""
    if x.I != frozenset([0]):
        raise ValueError("expected a cycle on X")
    if isinstance(x, UnionCycle):
        _own(geometry, x)
        (x,) = x.parts  # X is connected
    _own(geometry.model, x)
    names = {w: s for s, w in geometry.model.x_basis.items()}
    return QuadCycle(geometry.ctx, 1, {(names[w],): c for w, c in x.coeffs.items()}, x.p)


class MixedCycle(SparseCycle):
    """A cycle on F(I) x X^m in the Kunneth basis, keyed (sheet, w, mono)."""

    __slots__ = ("geometry", "I", "arity")

    def __init__(
        self,
        geometry: QuadricGeometry,
        I,
        arity: int,
        coeffs: Mapping[MixedKey, int],
        p: int = 0,
    ):
        self.geometry = geometry
        self.I = frozenset(I)
        self.arity = arity
        SparseCycle.__init__(self, coeffs, p)

    def _space(self) -> tuple:
        return (self.geometry, self.I, self.arity)

    def _key_codim(self, key: MixedKey) -> int:
        _, w, mono = key
        return self.geometry.group._lengths[w] + sum(
            codim1(self.geometry.ctx, s) for s in mono
        )

    @property
    def parts(self) -> tuple[dict, ...]:
        """The coefficients per sheet, keyed (w, mono)."""
        out = tuple({} for _ in range(self.geometry.sheets(self.I)))
        for (k, w, mono), c in self.coeffs.items():
            out[k][(w, mono)] = c
        return out

    def __mul__(self, other: "MixedCycle") -> "MixedCycle":
        self._check(other)
        ctx, model = self.geometry.ctx, self.geometry.model
        right: list[list] = [[] for _ in range(self.geometry.sheets(self.I))]
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
        return MixedCycle(self.geometry, self.I, self.arity, out, self.p)

    def __repr__(self) -> str:
        return "<MixedCycle F(%s) x X^%d, %d terms%s>" % (
            ",".join(map(str, sorted(self.I))),
            self.arity,
            len(self.coeffs),
            " mod 2" if self.p == 2 else "",
        )

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_flag(cls, x: UnionCycle, arity: int) -> "MixedCycle":
        """x (x) [X^arity]."""
        unit = (("h", 0),) * arity
        coeffs = {(k, w, unit): c for (k, w), c in x.coeffs.items()}
        return cls(x.geometry, x.I, arity, coeffs, x.p)

    @classmethod
    def from_quad(
        cls, geometry: QuadricGeometry, I, x: QuadCycle
    ) -> "MixedCycle":
        """[F(I)] (x) x."""
        coeffs = {
            (k, 0, mono): c
            for k in range(geometry.sheets(I))
            for mono, c in x.coeffs.items()
        }
        return cls(geometry, I, x.m, coeffs, x.p)

    # -- the two tensor legs ---------------------------------------------------

    def _map_flag(self, flag_map) -> "MixedCycle":
        """Apply a QuadricGeometry map to the flag leg of every X-monomial group.

        The map runs once on the zero cycle first, so a bad target raises
        even on a zero cycle, and the zero image gives the new I.
        """
        geom = self.geometry
        I = flag_map(geom.zero(self.I, self.p)).I
        groups: dict[Mono, dict[tuple[int, int], int]] = {}
        for (k, w, mono), c in self.coeffs.items():
            groups.setdefault(mono, {})[(k, w)] = c
        out: dict[MixedKey, int] = {}
        for mono, coeffs in groups.items():
            for (k, w), c in flag_map(UnionCycle(geom, self.I, coeffs, self.p)).coeffs.items():
                out[(k, w, mono)] = c
        return MixedCycle(self.geometry, I, self.arity, out, self.p)

    def pull_flag(self, target_I) -> "MixedCycle":
        """Pullback along the flag projection F(target_I) -> F(I)."""
        return self._map_flag(lambda x: self.geometry.pullback(target_I, x))

    def push_flag(self, target_J) -> "MixedCycle":
        """Pushforward along the flag projection F(I) -> F(target_J)."""
        return self._map_flag(lambda x: self.geometry.pushforward(target_J, x))

    def push_to_quad(self) -> QuadCycle:
        """Integrate the flag leg over F(I); sheets add.  The action_on_flag reference."""
        geom = self.geometry
        top = geom.model.top_element(self.I)
        out: dict[Mono, int] = {}
        for (_, w, mono), c in self.coeffs.items():
            if w == top:
                out[mono] = out.get(mono, 0) + c
        return QuadCycle(geom.ctx, self.arity, out, self.p)

    def _map_x(self, quad_map) -> "MixedCycle":
        """Apply a QuadCycle slot map to the X leg of every (sheet, w) group.

        The map runs once on the zero cycle first, so a bad slot list raises
        even on a zero cycle, and the zero image gives the new arity.
        """
        ctx = self.geometry.ctx
        arity = quad_map(QuadCycle(ctx, self.arity, {}, self.p)).m
        groups: dict[tuple[int, int], dict[Mono, int]] = {}
        for (k, w, mono), c in self.coeffs.items():
            groups.setdefault((k, w), {})[mono] = c
        out: dict[MixedKey, int] = {}
        for (k, w), coeffs in groups.items():
            leg = quad_map(QuadCycle(ctx, self.arity, coeffs, self.p))
            for mono, c in leg.coeffs.items():
                out[(k, w, mono)] = c
        return MixedCycle(self.geometry, self.I, arity, out, self.p)

    def pull_x(self, m_target: int, slots: Sequence[int]) -> "MixedCycle":
        """Pullback along the X-power projection hitting the listed slots."""
        return self._map_x(lambda q: q.pull_proj(m_target, slots))

    def push_x(self, keep: Sequence[int]) -> "MixedCycle":
        """Pushforward integrating the dropped X-slots."""
        return self._map_x(lambda q: q.push_proj(keep))

    # -- correspondence actions ---------------------------------------------------

    def _check_quad(self, x: QuadCycle, arity: int) -> None:
        """x must be a cycle on X^arity over this cycle's quadric and ring."""
        QuadCycle(self.geometry.ctx, arity, {}, self.p)._check(x)

    def action_on_flag(self, x: UnionCycle) -> QuadCycle:
        """View as a correspondence F(I) -> X^m and act on a flag cycle.

        deg(x . s_w) is the coefficient of x on the Poincare dual of w.
        """
        geom = self.geometry
        UnionCycle(geom, self.I, {}, self.p)._check(x)
        dual = geom.model.poincare_dual(self.I)
        out: dict[Mono, int] = {}
        for (k, w, mono), c in self.coeffs.items():
            d = x.coeffs.get((k, dual[w]), 0)
            if d:
                out[mono] = out.get(mono, 0) + c * d
        return QuadCycle(geom.ctx, self.arity, out, self.p)

    def action_on_quad(self, x: QuadCycle) -> UnionCycle:
        """View as a correspondence X^m -> F(I) and act on a quadric-power cycle:
        id_times_action with no kept slots, split into sheets."""
        self._check_quad(x, self.arity)
        coeffs = {(k, w): c for (k, w, _), c in self.id_times_action(x).coeffs.items()}
        return UnionCycle(self.geometry, self.I, coeffs, self.p)

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
            self.geometry.ctx,
            (((k, w), mono, c) for (k, w, mono), c in self.coeffs.items()),
            [((m[:r],), m[r:], c) for m, c in x.coeffs.items()],
        )
        return MixedCycle(self.geometry, self.I, r, out, self.p)


# -- the incidence class and its derivates ------------------------------------------


def _pullpush_to_g(geometry: QuadricGeometry, i: int, x: QuadCycle) -> UnionCycle:
    """The correspondence X -> G_i through F(0, i) on a cycle of X."""
    basis = geometry.model.x_basis
    fc = UnionCycle(geometry, [0], {(0, basis[s]): c for (s,), c in x.coeffs.items()}, x.p)
    return geometry.pullpush(fc, [i])


def incidence_class(geometry: QuadricGeometry, i: int, p: int = 0) -> MixedCycle:
    """The class of {(subspace, point on it)} in G_i x X, via its Kunneth expansion.

    The coefficient on the X-basis monomial b is the pull-push to G_i of the
    Poincare dual of b; for i = 0 this reduces to the diagonal of X.  It is the
    first incidence power, memoised on the geometry under (i, 1, p).
    """
    if not 0 <= i <= geometry.d:
        raise RangeError("grassmannian index out of range")
    return _power(geometry, i, 1, p)


def validate_incidence(geometry: QuadricGeometry, i: int) -> None:
    """Check the assembled incidence class acts as the raw pull-push maps."""
    ctx = geometry.ctx
    inc = incidence_class(geometry, i)
    for s in basis_symbols(ctx):
        x = monomial_cycle(ctx, [s])
        if inc.action_on_quad(x) != _pullpush_to_g(geometry, i, x):
            raise ArithmeticError(
                "incidence Kunneth bookkeeping failed at i=%d on %r" % (i, s)
            )


def _power(geometry: QuadricGeometry, i: int, m: int, p: int) -> MixedCycle:
    """The incidence power on G_i x X^m, memoised on the geometry by (i, m, p).

    Power m is power m - 1 pulled to the first m - 1 slots times the incidence
    class pulled to the last: the left fold over the factor pullbacks, with
    its prefixes shared, since pull_x is a ring homomorphism.
    """
    memo = geometry.bridge_memo
    key = (i, m, p)
    out = memo.get(key)
    if out is not None:
        return out
    if m == 1:
        ctx = geometry.ctx
        coeffs: dict[MixedKey, int] = {}
        for s in basis_symbols(ctx):
            z = _pullpush_to_g(geometry, i, monomial_cycle(ctx, [dual1(ctx, s)], p))
            for (k, w), c in z.coeffs.items():
                coeffs[(k, w, (s,))] = c
        out = MixedCycle(geometry, [i], 1, coeffs, p)
    else:
        prev = _power(geometry, i, m - 1, p).pull_x(m, range(m - 1))
        out = prev * _power(geometry, i, 1, p).pull_x(m, [m - 1])
    memo[key] = out
    return out


def _incidence_power(geometry: QuadricGeometry, i: int, m: int, p: int) -> MixedCycle:
    """Product over the m factor-pullbacks of the incidence class, on G_i x X^m."""
    if not 1 <= i <= geometry.d:
        raise RangeError("index out of range")
    return _power(geometry, i, m, p)


def eta(geometry: QuadricGeometry, i: int, p: int = 0) -> MixedCycle:
    """Product over the i factor-pullbacks of the incidence class, on G_i x X^i."""
    return _incidence_power(geometry, i, i, p)


def theta(geometry: QuadricGeometry, i: int, p: int = 0) -> MixedCycle:
    """The incidence correspondence class on G_i x X^{i+1}."""
    return _incidence_power(geometry, i, i + 1, p)


def theta_action(geometry: QuadricGeometry, i: int, p: int = 0) -> QuadCycle:
    """The direct route: theta_i as a correspondence G_i -> X^{i+1} applied to
    the top Z-class."""
    z = geometry.class_Z(i, geometry.n - i, p)
    return theta(geometry, i, p).action_on_flag(z)


def action_via_pullpush(geometry: QuadricGeometry, i: int, x: QuadCycle) -> QuadCycle:
    """The push-pull route through G_i x X^i for the action of
    (theta_i)_*(top Z) on a cycle of X."""
    zx = _pullpush_to_g(geometry, i, x) * geometry.class_Z(i, geometry.n - i, x.p)
    return eta(geometry, i, x.p).action_on_flag(zx)


def alpha(geometry: QuadricGeometry, i: int, p: int = 0) -> Correspondence:
    """theta-action plus the symmetrized h-chain, as a correspondence X -> X^i."""
    cyc = theta_action(geometry, i, p) + rho_i(geometry.ctx, i, p)
    return Correspondence(cyc, 1, i)


def theta_prime(geometry: QuadricGeometry, i: int) -> MixedCycle:
    """The mod-2 correspondence X^2 -> F(0,i) built from the split diagonal
    and the incidence class (arity 2; X-slots are the two sources)."""
    if not 1 <= i <= geometry.d:
        raise RangeError("index out of range")
    # the split diagonal with its second slot moved onto the flag leg of F(0) x X
    diag: dict[MixedKey, int] = {}
    basis = geometry.model.x_basis
    for (u, v), c in delta_i(geometry.ctx, 1, p=2).coeffs.items():
        diag[(0, basis[v], (u,))] = c
    I = [0, i]
    left = MixedCycle(geometry, [0], 1, diag, 2).pull_flag(I).pull_x(2, [0])
    return left * incidence_class(geometry, i, 2).pull_flag(I).pull_x(2, [1])


def eta_pushdown(geometry: QuadricGeometry, i: int, k: int) -> QuadCycle:
    """The mixed pushforward of (W-part . top-z . eta_i) down to X^i, mod 2."""
    wz = geometry.class_W(i, k - i, 2) * geometry.class_Z(i, geometry.n - i, 2)
    return eta(geometry, i, 2).action_on_flag(wz)


def eta_pushdown_expansion(geometry: QuadricGeometry, i: int, k: int) -> QuadCycle:
    """The double-sum rewriting of the same cycle through G_{i-1} x X^{i-1}."""
    n, ctx = geometry.n, geometry.ctx
    if not 2 <= i <= geometry.d or not i <= k <= geometry.d:
        raise RangeError("index out of range")
    eta_prev = eta(geometry, i - 1, 2)
    z_prev = geometry.class_Z(i - 1, n - i + 1, 2)
    total: QuadCycle | None = None
    for m in range(0, k + 1):
        js = range(max(i - m, 0), min(k - m, i) + 1)
        inner = geometry.w_sigma_sum(i, k - m, js, 2) * z_prev
        term = external(eta_prev.action_on_flag(inner), h_power_cycle(ctx, m, 2))
        total = term if total is None else total + term
    return total


def degree_congruence(
    geometry: QuadricGeometry, i: int, k: int, m: int, a: Sequence[int]
) -> int:
    """deg((top-Z . prod of Z's) . (sum_j W^i_{k-m-j} c_j(T_i))) mod 2 on G_i."""
    n, d = geometry.n, geometry.d
    if not 1 <= i <= d - 1:
        raise RangeError("index out of range")
    if not (i + 1 <= k <= d and 1 <= m <= i):
        raise RangeError("index out of range")
    a = tuple(a)
    if len(a) != i or any(not 0 <= aj <= d for aj in a) or list(a) != sorted(a):
        raise ValueError("expected a sorted tuple of i indices in 0..d")
    classes = [geometry.class_Z(i, n - i)]
    classes += [geometry.class_Z(i, n - i - aj) for aj in a]
    s = geometry.zero([i])
    for j in range(0, i - m + 1):
        s = s + geometry.class_W(i, k - m - j) * geometry.chern_taut(i, j)
    if s.is_zero():
        return 0
    return geometry.deg_product(classes + [s]) % 2
