"""Write ``basis_products.json``: frozen Schubert-basis product tables.

For n = 3..6 (both orientations at even n) and the flag varieties F({0}),
each F({i}) and each F({i-1, i}), the file lists ``FlagModel.basis_product``
for every pair u <= v (in basis order) with a nonzero product.  A pair that
is not listed has product 0.  F(1, 2) at n = 6 is left out: its 4656 pairs
cost too much for a tier-1 test.

    PYTHONPATH=src python tests/data/make_basis_products.py [OUT]

The output is deterministic; ``tests/test_basis_products.py`` recomputes
every pair and compares.
"""

from __future__ import annotations

import json
import pathlib
import sys

from quadchow.schubert import FlagModel

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


def table(model: FlagModel, I: tuple[int, ...]) -> list:
    basis = model.basis(I)
    rows = []
    for a, u in enumerate(basis):
        for v in basis[a:]:
            prod = model.basis_product(I, u, v)
            if prod:
                terms = sorted([list(w.window), c] for w, c in prod.items())
                rows.append([list(u.window), list(v.window), terms])
    return rows


def generate() -> list:
    entries = []
    for n in range(3, 7):
        for orientation in orientations(n):
            model = FlagModel(n, orientation)
            for I in spaces(n):
                entries.append(
                    {
                        "n": n,
                        "orientation": orientation,
                        "I": list(I),
                        "products": table(model, I),
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
