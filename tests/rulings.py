"""The second ruling of an even quadric, read through the diagram automorphism.

At even n the engine keeps one FlagModel, whose G_d is the ruling component
that cuts the last node of D_m.  The other component is its image under
sigma, w -> c w c with c the sign change of the last coordinate, so each
statement about it is a statement about the model moved by sigma: an index w
becomes sigma[w], a polynomial f becomes c.f (x_m -> -x_m), and the
parabolic of F(I) has the last two nodes swapped.  `SigmaImage` does the
moving, so the tests hold that ruling to the same frozen tables and
polynomial oracles as the model's own.  Its cycles are FlagCycles whose model
is the view, keyed (sheet, w) as the model's: each sheet moved by sigma.
"""

from quadchow import schubert
from quadchow.polyring import act
from quadchow.schubert import FlagCycle


def ruling(n: int, orientation=None):
    """The model, or its sigma-image at orientation -1 and even n.  The model
    comes from `schubert.build_geometry` as bound when called, so inside a
    `cold_engine` test it is that test's fresh model."""
    model = schubert.build_geometry(n)
    return SigmaImage(model) if orientation == -1 and n % 2 == 0 else model


class SigmaImage:
    """The flag varieties over the other ruling: the model conjugated by sigma."""

    def __init__(self, model):
        self.model = model
        self.n, self.d, self.ctx, self.group = model.n, model.d, model.ctx, model.group
        self.sigma = model.group.sigma
        m = self.group.rank
        self.c = (*range(1, m), -m)  # the window of c
        self.x_basis = {s: self.sigma[w] for s, w in model.x_basis.items()}
        self._nodes = {m - 1: m, m: m - 1}

    # -- moving between the model and the view ---------------------------------

    def _move(self, coeffs) -> dict:
        return {(k, self.sigma[w]): c for (k, w), c in coeffs.items()}

    def _cycle(self, x: FlagCycle) -> FlagCycle:
        """A cycle of the model, moved onto the view."""
        return FlagCycle(self, x.I, self._move(x.coeffs), x.p)

    def _back(self, x: FlagCycle) -> FlagCycle:
        """A cycle of the view, moved back onto the model."""
        if x.model is not self:
            raise ValueError("space/ring mismatch")
        return FlagCycle(self.model, x.I, self._move(x.coeffs), x.p)

    # -- the FlagModel interface the tests use -----------------------------------

    def sheets(self, I):
        return self.model.sheets(I)

    def printed(self, coeffs, orientation=1):
        return coeffs  # the view's windows are the other ruling's already

    def parabolic(self, I):
        return frozenset(self._nodes.get(i, i) for i in self.model.parabolic(I))

    def basis(self, I):
        return tuple(sorted(self.sigma[w] for w in self.model.basis(I)))

    def dim_flag(self, I):
        return self.model.dim_flag(I)

    def top_element(self, I):
        return self.sigma[self.model.top_element(I)]

    def point_class(self, I):
        return self._cycle(self.model.point_class(I))

    def schubert_rep(self, w):
        return self.model.schubert_rep(w)  # one representative per element

    def _restriction_row(self, y):
        return self.model._restriction_row(y)  # one row per element

    def expand(self, poly, I):
        return self._cycle(self.model.expand(act(self.c, poly), I))

    def basis_product(self, I, u, v):
        product = self.model.basis_product(I, self.sigma[u], self.sigma[v])
        return {self.sigma[w]: c for w, c in product.items()}

    def poincare_dual(self, I):
        dual = self.model.poincare_dual(I)
        return {self.sigma[u]: self.sigma[v] for u, v in dual.items()}

    def deg(self, x):
        return self.model.deg(self._back(x))

    def deg_product(self, classes):
        return self.model.deg_product([self._back(x) for x in classes])

    def pullback(self, target_I, x):
        return self._cycle(self.model.pullback(target_I, self._back(x)))

    def pushforward(self, target_J, x):
        return self._cycle(self.model.pushforward(target_J, self._back(x)))

    def pullpush(self, x, J):
        return self.pushforward(J, self.pullback(x.I | frozenset(J), x))

    def x_class(self, s):
        return self._cycle(self.model.x_class(s))

    def l_class(self, b):
        return self._cycle(self.model.l_class(b))

    def __getattr__(self, name):
        # the distinguished classes: class_Z, class_W, chern_taut, chern_quot,
        # class_O1 and h_power, each the model's class moved by sigma
        if name not in ("class_Z", "class_W", "chern_taut", "chern_quot", "class_O1", "h_power"):
            raise AttributeError(name)
        make = getattr(self.model, name)
        return lambda *args: self._cycle(make(*args))
