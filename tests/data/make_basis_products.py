"""Write ``basis_products.json``: frozen Schubert-basis product tables.

For n = 3..6 (both orientations at even n) and the flag varieties F({0}),
each F({i}) and each F({i-1, i}), the file lists ``FlagModel.basis_product``
for every pair u <= v (in basis order) with a nonzero product.  A pair that
is not listed has product 0.  F(1, 2) at n = 6 is left out: its 4656 pairs
cost too much for a tier-1 test.  Orientation -1 is the other ruling, the
image of the model's under sigma (`WeylGroup.sigma`): its basis is the
sigma-image of the model's, and s_u s_v there is the sigma-image of
s_sigma(u) s_sigma(v).

    PYTHONPATH=src python tests/data/make_basis_products.py [OUT]

The output is deterministic; ``tests/test_basis_products.py`` recomputes
every pair and compares.
"""

from __future__ import annotations

import json
import pathlib
import sys

from quadchow.schubert import FlagModel, build_geometry

HERE = pathlib.Path(__file__).parent
SKIP = {(6, (1, 2))}


def spaces(n: int) -> list[tuple[int, ...]]:
    d = n // 2
    out = [(0,)]
    out += [(i,) for i in range(1, d + 1)]
    out += [(i - 1, i) for i in range(1, d + 1)]
    return [I for I in out if (n, I) not in SKIP]


def orientations(n: int) -> list[int | None]:
    return [1, -1] if n % 2 == 0 else [None]


def table(model: FlagModel, I: tuple[int, ...], orientation: int | None) -> list:
    # the identity on the model's ruling, sigma on the other one
    move = model.group.sigma if orientation == -1 else range(len(model.group))
    basis = sorted(move[w] for w in model.basis(I))
    window = lambda w: list(model.group.elements[w])  # noqa: E731
    rows = []
    for a, u in enumerate(basis):
        for v in basis[a:]:
            prod = {move[w]: c for w, c in model.basis_product(I, move[u], move[v]).items()}
            if prod:
                terms = sorted([window(w), c] for w, c in prod.items())
                rows.append([window(u), window(v), terms])
    return rows


def generate() -> list:
    entries = []
    for n in range(3, 7):
        model = build_geometry(n)
        for orientation in orientations(n):
            for I in spaces(n):
                entries.append(
                    {
                        "n": n,
                        "orientation": orientation,
                        "I": list(I),
                        "products": table(model, I, orientation),
                    }
                )
    return entries


def main(argv: list[str]) -> None:
    out = pathlib.Path(argv[1]) if len(argv) > 1 else HERE / "basis_products.json"
    entries = generate()
    with open(out, "w") as fh:
        fh.write("[\n")
        for k, entry in enumerate(entries):
            fh.write(json.dumps(entry, separators=(",", ":")))
            fh.write(",\n" if k + 1 < len(entries) else "\n")
        fh.write("]\n")


if __name__ == "__main__":
    main(sys.argv)
