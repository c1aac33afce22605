"""Schubert calculus on the orthogonal grassmannians of a split quadric.

Run:  python demos/02_flag_varieties.py
"""

from quadchow.schubert import build_geometry

# Building the geometry also runs the convention gate: the classical pullback
# ladders between consecutive grassmannians must hold on the nose, otherwise
# construction aborts.
G = build_geometry(5)
n, d = G.n, G.d
print(f"n = {n}, d = {d}; flag models over the Weyl group {G.group.family}_{G.group.rank}")

# Ranks of the Chow groups of each grassmannian, straight from the Schubert basis.
for i in range(d + 1):
    basis = G.model.basis([i])
    print(f"G_{i}: dim = {G.model.dim_flag([i])}, Chow rank = {len(basis)}")

# The distinguished classes: Z^i_j is the pull-push of a subspace class
# through the incidence flag F(0, i); W^i_j comes from a hyperplane power.
z = G.class_Z(1, n - 1)
print("Z^1_4 on G_1:", z)
print("W^1_1 on G_1:", G.class_W(1, 1))

# Pushforward along F(0,1) -> G_1 of a pulled-back product obeys the
# projection formula; degrees live at the point class.
print("deg of the point class of G_1:", G.deg(G.point_class([1])))

# Products of Z-classes on the top grassmannian know the multiset rule: the
# degree is odd exactly when the indices fill out {0, ..., d}.
for a in [(0, 1, 2), (0, 0, 2), (1, 1, 1)]:
    classes = [G.class_Z(d, n - d - aj) for aj in a]
    print(f"deg prod Z^d_(n-d-a) for a = {a}:", G.deg_product(classes))

# For an even-dimensional quadric the top grassmannian is disconnected; the
# second ruling component is the first's image under the diagram automorphism
# of D_m, so the engine reads both components (sheets) on one Schubert model.
G4 = build_geometry(4)
print("n = 4 sheets over G_d:", G4.sheets([G4.d]))
print("W^2_0 (both components):", G4.class_W(2, 0))
print("z^2_0 (marks one component):", G4.class_Z(2, 0))
