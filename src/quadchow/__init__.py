"""quadchow: exact Chow-ring calculus for split quadrics and orthogonal flag varieties.

The package computes, with exact integer (or mod-2) coefficients:

* ``weyl`` -- signed-permutation Weyl groups of types B and D, each element
  named by its index in a length-ordered list and printed as its window;
* ``polyring`` -- sparse polynomials with integer numerators over one common
  denominator, with the Weyl action and divided-difference operators (exact
  in integers, since every simple root is monic in its main variable);
* ``schubert`` -- Chow rings of orthogonal grassmannians and partial flag
  varieties of a split quadric, with pull/push along all projections,
  tautological Chern classes and the distinguished Z/W cycles, on one
  ``FlagModel`` per quadric (``build_geometry(n)``) whose cycles carry both
  ruling components of a disconnected F(I) as sheets;
* ``quadpow`` -- the Chow ring of powers of the split quadric with its
  monomial basis, symmetrization, and correspondence algebra;
* ``bridge`` -- mixed cycles on (flag variety) x (quadric power), incidence
  classes and the correspondences built from them;
* ``edi`` -- the elementary-discrete-invariant square with its rationality
  propagation rules;
* ``suites``/``cli`` -- the verification harness and its command-line front end.
"""

from quadchow.bridge import (
    MixedCycle,
    alpha,
    eta,
    incidence_class,
    theta,
    theta_action,
    theta_prime,
)
from quadchow.edi import EDISquare, check_witt_consistency, propagate, render_ascii
from quadchow.polyring import Polynomial, act, divided_difference, divided_difference_word
from quadchow.quadpow import (
    Correspondence,
    QuadCycle,
    compose,
    action,
    delta_i,
    diagonal_class,
    external,
    format_cycle,
    is_nonessential,
    parse_cycle,
    primordial_shape,
    quad_context,
    rho_i,
    rost,
    sym,
)
from quadchow.schubert import (
    FlagCycle,
    FlagModel,
    QuadricContext,
    build_geometry,
)
from quadchow.suites import run_suite, suite_names
from quadchow.weyl import MAX_RANK, RangeError, WeylGroup, make_group

__all__ = [
    "MAX_RANK",
    "RangeError",
    "WeylGroup",
    "make_group",
    "Polynomial",
    "act",
    "divided_difference",
    "divided_difference_word",
    "QuadricContext",
    "FlagModel",
    "FlagCycle",
    "build_geometry",
    "QuadCycle",
    "Correspondence",
    "quad_context",
    "external",
    "sym",
    "compose",
    "action",
    "delta_i",
    "rho_i",
    "rost",
    "diagonal_class",
    "primordial_shape",
    "is_nonessential",
    "parse_cycle",
    "format_cycle",
    "MixedCycle",
    "incidence_class",
    "eta",
    "theta",
    "theta_action",
    "alpha",
    "theta_prime",
    "EDISquare",
    "propagate",
    "check_witt_consistency",
    "render_ascii",
    "run_suite",
    "suite_names",
]

__version__ = "0.1.0"
