"""The elementary-discrete-invariant square and its rationality bookkeeping.

The square for a quadric of dimension n (d = n // 2) has (d+1) x (d+1) nodes:
row i stands for the i-th grassmannian, column c for its elementary class of
codimension n - i - c, so column 0 on the left holds the highest classes.
A mark means "this class is rational over the base field".  Rationality is
never computed here (everything is rational at split level); marks are user
hypotheses, and this module only closes them under the implications proved
for them:

* a mark in column 0 of row i propagates to column 0 of every higher row;
* a column-0 mark in row i is equivalent to the rationality of the i-th
  symmetrized cycle rho_i on the (i+1)-st power of the quadric, so rho facts
  and column-0 marks imply one another;
* rho facts are themselves monotone in i.

No row-internal implications are encoded for other columns.  The first Witt
index enters only as a consistency check: for an anisotropic quadric a
column-0 mark in row i forces i_1 <= i, so marks strictly below the i_1-th
diagonal are flagged; nodes below the diagonal outside column 0 are reported
as unconstrained by these rules rather than judged.
"""

from __future__ import annotations

from dataclasses import dataclass

from quadchow.weyl import RangeError

__all__ = ["MAX_N", "EDISquare", "WittReport", "propagate", "check_witt_consistency",
           "render_ascii", "square_from_json", "square_to_json", "run_edi_json"]

Node = tuple[int, int]

# the largest n a square is built for: its (d+1) x (d+1) grid grows with n^2
MAX_N = 1000


@dataclass(frozen=True)
class EDISquare:
    """Marks on the (d+1) x (d+1) invariant square, plus paired rho facts."""

    n: int
    marks: frozenset[Node] = frozenset()
    rho: frozenset[int] = frozenset()
    witt_index: int | None = None

    def __post_init__(self):
        if not 2 <= self.n <= MAX_N:
            raise RangeError("n out of range (2..%d)" % MAX_N)
        object.__setattr__(self, "marks", frozenset(tuple(m) for m in self.marks))
        object.__setattr__(self, "rho", frozenset(self.rho))
        d = self.d
        for i, c in self.marks:
            if not (0 <= i <= d and 0 <= c <= d):
                raise RangeError("node out of range: %r" % ((i, c),))
        for i in self.rho:
            if not 0 <= i <= d:
                raise RangeError("rho index out of range: %r" % (i,))
        if self.witt_index is not None and not 1 <= self.witt_index <= d + 1:
            raise RangeError("witt index out of range")

    @property
    def d(self) -> int:
        return self.n // 2


def propagate(square: EDISquare) -> EDISquare:
    """Least fixed point of the implication rules; idempotent and extensive."""
    d = square.d
    col0 = {i for (i, c) in square.marks if c == 0} | set(square.rho)
    if col0:
        start = min(col0)
        col0 = set(range(start, d + 1))
    marks = set(square.marks) | {(i, 0) for i in col0}
    return EDISquare(square.n, frozenset(marks), frozenset(col0), square.witt_index)


@dataclass(frozen=True)
class WittReport:
    consistent: bool
    violations: tuple[Node, ...]
    unconstrained: tuple[Node, ...] = ()


def check_witt_consistency(square: EDISquare, i1: int | None = None) -> WittReport:
    """Flag column-0 marks that contradict anisotropy with first Witt index i1.

    A marked column-0 node in row i < i1 is inconsistent.  Marked nodes below
    the i1-th diagonal (i + c < i1) outside column 0 are merely reported: the
    rules encoded here say nothing about them.
    """
    if i1 is None:
        i1 = square.witt_index
    if i1 is None:
        raise ValueError("no witt index supplied")
    if not 1 <= i1 <= square.d + 1:
        raise RangeError("witt index out of range")
    closed = propagate(square)
    violations = tuple(
        sorted((i, c) for (i, c) in closed.marks if c == 0 and i < i1)
    )
    unconstrained = tuple(
        sorted((i, c) for (i, c) in closed.marks if c > 0 and i + c < i1)
    )
    return WittReport(not violations, violations, unconstrained)


def render_ascii(square: EDISquare) -> str:
    """Deterministic grid, top row = highest grassmannian, bottom row = quadric."""
    d = square.d
    lines = []
    for i in range(d, -1, -1):
        row = ["×" if (i, c) in square.marks else "○" for c in range(d + 1)]
        lines.append(" ".join(row))
    return "\n".join(lines)


def square_to_json(square: EDISquare) -> dict:
    return {
        "n": square.n,
        "marks": sorted([list(m) for m in square.marks]),
        "witt_index": square.witt_index,
        "rho": sorted(square.rho),
    }


def _is_int(v) -> bool:
    """A JSON integer: `true`/`false` load as bool, a subclass of int, and are refused."""
    return isinstance(v, int) and not isinstance(v, bool)


def square_from_json(data: dict) -> EDISquare:
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    try:
        n = data["n"]
    except KeyError:
        raise ValueError("missing field: n") from None
    if not _is_int(n):
        raise ValueError("n must be an integer")
    marks = data.get("marks", [])
    if not isinstance(marks, list) or any(
        not isinstance(m, (list, tuple)) or len(m) != 2 or not all(map(_is_int, m))
        for m in marks
    ):
        raise ValueError("marks must be a list of [row, column] integer pairs")
    witt = data.get("witt_index")
    if witt is not None and not _is_int(witt):
        raise ValueError("witt_index must be an integer or null")
    rho = data.get("rho", [])
    if not isinstance(rho, list) or not all(map(_is_int, rho)):
        raise ValueError("rho must be a list of integers")
    return EDISquare(n, frozenset(tuple(m) for m in marks), frozenset(rho), witt)


def run_edi_json(data: dict) -> dict:
    """The full EDI pipeline on one JSON request: propagate, check, render."""
    square = square_from_json(data)
    closed = propagate(square)
    out = square_to_json(square)
    out["propagated_marks"] = sorted([list(m) for m in closed.marks])
    out["propagated_rho"] = sorted(closed.rho)
    if square.witt_index is not None:
        report = check_witt_consistency(closed)
        out["inconsistencies"] = [list(m) for m in report.violations]
        out["unconstrained"] = [list(m) for m in report.unconstrained]
    else:
        out["inconsistencies"] = []
        out["unconstrained"] = []
    out["ascii"] = render_ascii(closed)
    return out
