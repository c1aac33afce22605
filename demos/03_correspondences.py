"""Cycles on powers of the quadric as correspondences, and the named families.

Run:  python demos/03_correspondences.py
"""

from quadchow.bridge import alpha, theta_action
from quadchow.quadpow import (
    Correspondence,
    action,
    compose,
    delta_i,
    diagonal_class,
    format_cycle,
    h_power_cycle,
    is_nonessential,
    l_cycle,
    quad_context,
    rho_i,
    rost,
)
from quadchow.schubert import build_geometry

ctx = quad_context(5)

# rho_1 is the classical two-term symmetric correspondence on X x X.
print("rho_1 =", format_cycle(rho_i(ctx, 1)))
print("rho_2 =", format_cycle(rho_i(ctx, 2)))

# The diagonal acts as the identity correspondence.
diag = Correspondence(diagonal_class(ctx), 1, 1)
print("diag acting on l1:", format_cycle(action(diag, l_cycle(ctx, 1))))

# Composing the Rost correspondence with itself.
r = rost(ctx)
print("rost o rost =", format_cycle(compose(r, r).cycle))

# delta_i packages the diagonal-flavoured symmetric cycles on X^{i+1}.
print("delta_1 =", format_cycle(delta_i(ctx, 1)))

# alpha_i = (incidence pushforward) + rho_i; its mod-2 action on h-powers
# follows a strict three-case pattern, and its difference from delta_i is a
# combination of h-power products ("nonessential").  Every class is built
# over Z; mod2() reduces it, and reduction commutes with the action.
G = build_geometry(5)
a2 = alpha(G, 2)
print("alpha_2 action on 1:  ", format_cycle(action(a2, h_power_cycle(ctx, 0)).mod2()))
print("alpha_2 action on h:  ", format_cycle(action(a2, h_power_cycle(ctx, 1)).mod2()))
print("alpha_2 action on h^2:", format_cycle(action(a2, h_power_cycle(ctx, 2)).mod2()))
beta = (a2.cycle - delta_i(ctx, 2)).mod2()
print("alpha_2 - delta_2 nonessential?", is_nonessential(beta))

# The incidence pushforward alone, before adding rho.
print("theta-action codim:", theta_action(G, 2).codim())
