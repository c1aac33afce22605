"""Invariant-square propagation, consistency checks, rendering, JSON round trips."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadchow.edi import (
    EDISquare,
    check_witt_consistency,
    propagate,
    render_ascii,
    run_edi_json,
    square_from_json,
    square_to_json,
)
from quadchow.weyl import RangeError


def random_square(rng, d_max=6):
    d = rng.randrange(1, d_max + 1)
    n = 2 * d + rng.randrange(2)
    marks = set()
    for _ in range(rng.randrange(0, 2 * d + 2)):
        marks.add((rng.randrange(d + 1), rng.randrange(d + 1)))
    rho = {rng.randrange(d + 1) for _ in range(rng.randrange(0, 3))}
    witt = rng.choice([None, rng.randrange(1, d + 2)])
    return EDISquare(n, frozenset(marks), frozenset(rho), witt)


def test_propagation_examples():
    # column-0 mark climbs to all higher rows
    sq = EDISquare(7, frozenset({(1, 0)}))
    out = propagate(sq)
    assert {(1, 0), (2, 0), (3, 0)} <= out.marks
    assert out.rho == frozenset({1, 2, 3})
    # empty square stays empty
    assert propagate(EDISquare(7)).marks == frozenset()
    # a rho fact marks the paired node and everything above
    sq = EDISquare(7, rho=frozenset({2}))
    out = propagate(sq)
    assert out.marks == frozenset({(2, 0), (3, 0)})


def test_propagation_leaves_other_columns_alone():
    sq = EDISquare(7, frozenset({(1, 2)}))
    out = propagate(sq)
    assert out.marks == frozenset({(1, 2)})


def test_propagation_laws_seeded():
    rng = random.Random(0)
    for _ in range(1000):
        sq = random_square(rng)
        once = propagate(sq)
        assert sq.marks <= once.marks  # extensive
        assert propagate(once) == once  # idempotent
        bigger = EDISquare(
            sq.n, frozenset(set(sq.marks) | {(0, 0)}), sq.rho, sq.witt_index
        )
        assert once.marks <= propagate(bigger).marks  # monotone


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_propagation_laws_hypothesis(data):
    d = data.draw(st.integers(1, 6))
    n = 2 * d + data.draw(st.integers(0, 1))
    nodes = st.tuples(st.integers(0, d), st.integers(0, d))
    marks = frozenset(data.draw(st.lists(nodes, max_size=8)))
    sq = EDISquare(n, marks)
    once = propagate(sq)
    assert sq.marks <= once.marks
    assert propagate(once) == once


def test_witt_consistency():
    sq = EDISquare(7, frozenset({(1, 0)}))
    report = check_witt_consistency(sq, 2)
    assert not report.consistent
    assert report.violations == ((1, 0),)
    assert check_witt_consistency(sq, 1).consistent
    assert check_witt_consistency(EDISquare(7), 4).consistent
    # nodes below the diagonal off column 0 are reported, not judged
    sq = EDISquare(7, frozenset({(0, 1)}))
    report = check_witt_consistency(sq, 3)
    assert report.consistent
    assert report.unconstrained == ((0, 1),)


@pytest.mark.parametrize("i1", [0, -1, 5, 9])
def test_witt_index_out_of_range_is_a_range_error(i1):
    # n = 6: d = 3, so i1 runs over 1..4, as EDISquare(witt_index=...) admits
    sq = EDISquare(6, frozenset({(1, 0), (2, 0), (3, 0)}))
    with pytest.raises(RangeError, match="witt index out of range"):
        check_witt_consistency(sq, i1)
    with pytest.raises(RangeError, match="witt index out of range"):
        EDISquare(6, witt_index=i1)


def test_witt_index_at_both_ends_is_accepted():
    sq = EDISquare(6, frozenset({(1, 0), (2, 0), (3, 0)}))
    assert check_witt_consistency(sq, 1).consistent
    assert check_witt_consistency(sq, 4).violations == ((1, 0), (2, 0), (3, 0))


def test_render_ascii():
    empty = EDISquare(5)
    assert render_ascii(empty) == "\n".join(["○ ○ ○"] * 3)
    full = EDISquare(
        5, frozenset((i, c) for i in range(3) for c in range(3))
    )
    assert render_ascii(full) == "\n".join(["× × ×"] * 3)
    sq = EDISquare(5, frozenset({(0, 2), (2, 0)}))
    assert render_ascii(sq) == "× ○ ○\n○ ○ ○\n○ ○ ×"


def test_json_round_trip():
    rng = random.Random(42)
    for _ in range(50):
        sq = random_square(rng)
        data = square_to_json(sq)
        again = square_from_json(json.loads(json.dumps(data)))
        assert again == sq
        assert render_ascii(again) == render_ascii(sq)


def test_schema_validation():
    with pytest.raises(ValueError, match="missing field"):
        square_from_json({})
    with pytest.raises(ValueError, match="marks"):
        square_from_json({"n": 5, "marks": [[1]]})
    with pytest.raises(ValueError, match="witt"):
        square_from_json({"n": 5, "witt_index": "x"})
    with pytest.raises(ValueError, match="node out of range"):
        square_from_json({"n": 5, "marks": [[9, 0]]})
    for bad in (["a", 1], [1.5, 0], [0, None], [[0], 1]):
        with pytest.raises(ValueError, match="integer pairs"):
            square_from_json({"n": 6, "marks": [bad]})


def test_run_edi_json_pipeline():
    out = run_edi_json({"n": 7, "marks": [[1, 0]], "witt_index": 2})
    assert [1, 0] in out["propagated_marks"]
    assert [3, 0] in out["propagated_marks"]
    assert out["inconsistencies"] == [[1, 0]]
    assert out["ascii"].count("\n") == 3
