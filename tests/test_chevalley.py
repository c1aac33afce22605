"""Schubert products by a divisor class against the Chevalley formula.

    sigma_{s_j} * sigma_w = sum <omega_j, beta^vee> sigma_{w s_beta}

over positive roots beta with l(w s_beta) = l(w) + 1.  The right-hand side
is Weyl-group combinatorics only (roots, reflections, lengths); no
polynomial is involved, so it is an independent oracle for
``FlagModel.basis_product``.
"""

import pytest

from quadchow.schubert import build_flag_model


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
            got = {v.window: c for v, c in model.basis_product(I, s, w).items()}
            assert got == _chevalley(group, weight2, w), (s.window, w.window)


@pytest.mark.parametrize("n", range(3, 9))
def test_hyperplane_products_on_the_quadric_follow_chevalley(n):
    model = build_flag_model(n)
    group = model.group
    (h,) = model.h_class().coeffs
    assert h == group.simple_reflections[0]
    weight2 = _double_weights(group)[0]
    for w in model.basis([0]):
        got = {v.window: c for v, c in model.basis_product([0], h, w).items()}
        assert got == _chevalley(group, weight2, w), w.window
