"""Schubert-basis products against tables frozen from the earlier engine.

``data/basis_products.json`` was written by ``data/make_basis_products.py``
with the ``Fraction``-coefficient engine, before the integer one replaced it,
and when each ruling of an even quadric had a model of its own.  Every pair
u <= v in the basis of each listed F(I) is recomputed here: a listed pair
must give exactly its stored product, an unlisted pair zero.  The tables of
the second ruling (orientation -1) are read on the sigma-image of the one
model (`rulings.SigmaImage`).
"""

import json
import pathlib

import pytest

from rulings import ruling

DATA = pathlib.Path(__file__).parent / "data"
TABLES = json.loads((DATA / "basis_products.json").read_text())


def _table_id(entry) -> str:
    orient = "" if entry["orientation"] is None else "%+d" % entry["orientation"]
    return "n%d%s-F%s" % (entry["n"], orient, "".join(map(str, entry["I"])))


def test_fixture_covers_the_stated_range():
    assert {e["n"] for e in TABLES} == {3, 4, 5, 6}
    assert {e["orientation"] for e in TABLES if e["n"] % 2 == 0} == {1, -1}
    assert len(TABLES) == 30


@pytest.mark.parametrize("entry", TABLES, ids=_table_id)
def test_basis_products_match_frozen_tables(entry):
    model = ruling(entry["n"], entry["orientation"])
    I = entry["I"]
    expected = {
        (tuple(u), tuple(v)): {tuple(w): c for w, c in terms}
        for u, v, terms in entry["products"]
    }
    basis = model.basis(I)
    window = lambda w: model.group.elements[w].window  # noqa: E731
    seen = set()
    for a, u in enumerate(basis):
        for v in basis[a:]:
            key = (window(u), window(v))
            got = {window(w): c for w, c in model.basis_product(I, u, v).items()}
            assert got == expected.get(key, {}), key
            seen.add(key)
    assert expected.keys() <= seen
