"""Schubert products by a divisor class against the Chevalley formula.

    sigma_{s_j} * sigma_w = sum <omega_j, beta^vee> sigma_{w s_beta}

over positive roots beta with l(w s_beta) = l(w) + 1.  The right-hand side
is Weyl-group combinatorics only (roots, reflections, lengths); no
polynomial is involved, so it is an independent oracle for
``FlagModel.basis_product``.  On a partial flag variety F(I) the same sum,
kept to the minimal coset representatives of W_{P_I}, multiplies by any
divisor sum a_j sigma_{s_j}; c_1(O(1)) on F(i-1, i) is checked that way.
"""

import pytest

from quadchow.schubert import FlagCycle, build_flag_model
from rulings import ruling


def _coroot(beta):
    norm = sum(c * c for c in beta)
    assert all(2 * c % norm == 0 for c in beta)
    return tuple(2 * c // norm for c in beta)


def _reflection(group, beta):
    """s_beta: v -> v - <v, beta^vee> beta, as a window on the basis vectors."""
    coroot = _coroot(beta)
    window = []
    for k in range(group.rank):
        image = [-coroot[k] * b for b in beta]
        image[k] += 1
        (l,) = [j for j, c in enumerate(image) if c]
        assert image[l] in (1, -1)
        window.append(image[l] * (l + 1))
    return group.element(window)


def _double_weights(group):
    """2 * omega_j for j = 1..m, in the coordinates of the roots."""
    m = group.rank
    weights = [tuple([2] * j + [0] * (m - j)) for j in range(1, m)]
    weights.append((1,) * m)
    if group.family == "D":
        weights[m - 2] = (1,) * (m - 1) + (-1,)
    return weights


def _chevalley(group, weight2, w):
    out = {}
    lw = group.length(w)
    for beta in group.positive_roots:
        pairing = sum(a * b for a, b in zip(weight2, _coroot(beta)))
        if not pairing:
            continue
        v = w * _reflection(group, beta)
        if group.length(v) == lw + 1:
            assert pairing % 2 == 0
            out[v.window] = pairing // 2
    return out


def _windows(group, coeffs):
    """Schubert coefficients keyed by the window of each index."""
    return {group.elements[v].window: c for v, c in coeffs.items()}


def test_weights_are_dual_to_simple_coroots():
    for n in range(3, 9):
        group = build_flag_model(n).group
        simple = {
            _reflection(group, beta).window: beta for beta in group.positive_roots
        }
        weights = _double_weights(group)
        for i, s in enumerate(group.simple_reflections):
            alpha = simple[s.window]
            for j, weight2 in enumerate(weights):
                pairing = sum(a * b for a, b in zip(weight2, _coroot(alpha)))
                assert pairing == (2 if i == j else 0)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_full_flag_divisors_follow_chevalley(n):
    model = build_flag_model(n)
    group = model.group
    I = range(model.d + 1)
    assert not model.parabolic(I)
    for s, weight2 in zip(group.simple_reflections, _double_weights(group)):
        for w in model.basis(I):
            got = _windows(group, model.basis_product(I, group._index[s.window], w))
            assert got == _chevalley(group, weight2, group.elements[w]), (s.window, w)


@pytest.mark.parametrize("n", range(3, 9))
def test_hyperplane_products_on_the_quadric_follow_chevalley(n):
    model = build_flag_model(n)
    group = model.group
    (h,) = model.x_class(("h", 1)).coeffs
    assert group.elements[h] == group.simple_reflections[0]
    weight2 = _double_weights(group)[0]
    for w in model.basis([0]):
        got = _windows(group, model.basis_product([0], h, w))
        assert got == _chevalley(group, weight2, group.elements[w]), w


def _check_tautological_divisor(n, orientation):
    # the other ruling is the sigma-image of the model
    model = ruling(n, orientation)
    group = model.group
    simple = {group._index[s.window]: j for j, s in enumerate(group.simple_reflections)}
    weights = _double_weights(group)
    for i in range(1, model.d + 1):
        I = [i - 1, i]
        xi = model.class_O1(i)
        assert set(xi.coeffs) <= set(simple), xi
        reps = {group.elements[w].window for w in model.basis(I)}
        for w in model.basis(I):
            want = {}
            for s, a in xi.coeffs.items():
                for v, c in _chevalley(group, weights[simple[s]], group.elements[w]).items():
                    if v in reps:
                        want[v] = want.get(v, 0) + a * c
            got = xi * FlagCycle(model, I, {w: 1})
            assert _windows(group, got.coeffs) == {v: c for v, c in want.items() if c}, (i, w)


@pytest.mark.parametrize(
    "n,orientation",
    [(3, None), (4, 1), (4, -1), (5, None), (6, 1), (6, -1), (7, None), (8, 1)],
)
def test_tautological_divisor_on_incidence_flags_follows_chevalley(n, orientation):
    _check_tautological_divisor(n, orientation)
