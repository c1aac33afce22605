"""Workload inputs and the checks on their outputs.

Everything here is a pure function of the workload seed: the verify command
lines, the fixed compute universe, the seeded request stream of the
``compute-session`` workload and the seeded EDI squares.  The checks compare
responses with ``data/compute_reference.json`` (recorded by
``record_reference.py``), round-trip cycle-grammar output through the parser,
and test EDI responses for idempotence of propagation.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "data" / "compute_reference.json"
# the bundled invariant-square fixture, read from the checkout at run time
FIXTURE = Path("tests") / "data" / "remark_square"

WORKLOADS = ["verify-n7", "degrees-n8", "compute-session"]

# -- verify workloads ---------------------------------------------------------

VERIFY = {
    "verify-n7": {"n": 7, "suites": ["all"], "cases": 538},
    "degrees-n8": {"n": 8, "suites": ["degrees-gd", "prop316", "cross-model"], "cases": 760},
}


def verify_argv(suite: str, n: int, seed: int) -> list[str]:
    return ["verify", suite, "--n", str(n), "--deep", "--format", "json", "--seed", str(seed)]


def count_verify_output(stdout: str) -> tuple[int, int]:
    """(cases seen, cases passed) from a JSON verify report: one suite's
    object, or a list of them for ``verify all``."""
    reports = json.loads(stdout)
    if isinstance(reports, dict):
        reports = [reports]
    statuses = [case["status"] for report in reports for case in report["cases"]]
    return len(statuses), statuses.count("pass")


# -- compute-session ----------------------------------------------------------

SESSION_N = 7  # the flag-variety builtins
POWER_N = 12  # quadric-power builtins only (above the flag models' range)
POWER_MAX_I = 5  # rho 5 costs ~30x rho 4 (sym is quadratic); 6 would blow the budget
# The session is 1200 requests, whatever the seed.  Every n = 12 request runs
# twice, so the 8 delta-5 and then the 8 rho-5 requests are its slowest, and
# p99 (rank 12) falls in the middle of the rho-5 group.
POWER_COPIES = 2
SESSION_EXTRA = 688  # seeded repeats drawn from the n = 7 requests
EDI_SQUARES = 100
FIXTURE_COPIES = 2  # per output format

GRAMMAR = {
    SESSION_N: [
        "h*h",
        "h^4",
        "h^7",
        "h x l0 + l0 x h",
        "2 h^2 x l1 - l1 x h^2",
        "h * l3 x 1 + 1 x l0",
        "h^2 x h x l0",
        "3 l3 x l3 - h^3 x h^4",
    ],
    POWER_N: [
        "h^6",
        "h^3 * ld'",
        "h x ld' + ld x h",
        "l6 x l6' - l6' x l6",
        "h^3 x h^2 x l4",
        "2 h^5 x l0 + h x h",
        "h^2 * l5 x ld",
        "5 h^12 - 3 l0",
    ],
}


@dataclass(frozen=True)
class Request:
    kind: str  # "compute", "edi" or "fixture"
    fmt: str
    expr: str = ""  # compute: the expression; edi/fixture: the JSON input
    n: int = 0
    coeff: str = "z"
    grammar: bool = False  # a cycle-grammar expression (not a builtin)

    @property
    def key(self) -> str:
        return "%d|%s|%s|%s" % (self.n, self.coeff, self.fmt, self.expr)

    def argv(self) -> list[str]:
        if self.kind == "compute":
            return ["compute", "--n", str(self.n), "--coeff", self.coeff,
                    "--format", self.fmt, self.expr]
        return ["edi", "--format", self.fmt]

    @property
    def stdin(self) -> str | None:
        return None if self.kind == "compute" else self.expr


def _universe_entries() -> list[tuple[int, str, bool]]:
    """(n, expression, is a grammar expression) for every builtin and every
    grammar expression of the session."""
    n, d = SESSION_N, SESSION_N // 2
    out = [(n, "delta %d" % i) for i in range(1, d + 1)]
    out += [(n, "rho %d" % i) for i in range(d + 1)]
    out.append((n, "rost"))
    out += [(n, "Z %d %d" % (i, j)) for i in range(d + 1) for j in range(n - i - d, n - i + 1)]
    out += [(n, "W %d %d" % (i, j)) for i in range(d + 1) for j in range(n - i + 1)]
    out += [(n, "theta %d" % i) for i in range(1, d + 1)]
    out += [(n, "alpha %d" % i) for i in range(1, d + 1)]
    out += [(POWER_N, "delta %d" % i) for i in range(1, POWER_MAX_I + 1)]
    out += [(POWER_N, "rho %d" % i) for i in range(POWER_MAX_I + 1)]
    builtins = [(size, expr, False) for size, expr in out]
    return builtins + [(size, expr, True) for size in GRAMMAR for expr in GRAMMAR[size]]


def universe() -> list[Request]:
    """The fixed request universe: every entry under both coefficient rings
    and both output formats."""
    return [
        Request("compute", fmt, expr, n, coeff, grammar)
        for n, expr, grammar in _universe_entries()
        for coeff in ("z", "z2")
        for fmt in ("text", "json")
    ]


def edi_square(rng: random.Random) -> dict:
    n = rng.randint(2, 16)
    d = n // 2
    marks = [[i, c] for i in range(d + 1) for c in range(d + 1) if rng.random() < 0.15]
    rho = [i for i in range(d + 1) if rng.random() < 0.1]
    witt = rng.choice([None, rng.randint(1, d + 1)])
    return {"n": n, "marks": marks, "witt_index": witt, "rho": rho}


def session_stream(seed: int) -> list[Request]:
    """The timed request stream.  Its length and its n = 12 part are fixed; the
    seed picks which n = 7 requests repeat, the EDI squares, and the order."""
    rng = random.Random(seed)
    requests = universe()
    power = [r for r in requests if r.n == POWER_N]
    small = [r for r in requests if r.n == SESSION_N]
    stream = power * POWER_COPIES + small + [rng.choice(small) for _ in range(SESSION_EXTRA)]
    for _ in range(EDI_SQUARES):
        stream.append(Request("edi", rng.choice(["text", "json"]), json.dumps(edi_square(rng))))
    fixture = fixture_input()
    for fmt in ("text", "json"):
        stream += [Request("fixture", fmt, fixture)] * FIXTURE_COPIES
    rng.shuffle(stream)
    return stream


def fixture_input() -> str:
    return FIXTURE.with_suffix(".json").read_text(encoding="utf-8")


def fixture_expected() -> str:
    return FIXTURE.with_suffix(".txt").read_text(encoding="utf-8")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- response checks ----------------------------------------------------------


class Checker:
    """Checks responses; each check returns None or a failure message."""

    def __init__(self):
        self.reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        self.expected_fixture = fixture_expected()
        self._roundtrip_ok: set[str] = set()

    def check(self, req: Request, rc: int, out: str) -> str | None:
        if rc != 0:
            return "%s: exit code %d" % (req.argv(), rc)
        if req.kind == "compute":
            want = self.reference.get(req.key)
            if want is None:
                return "%s: no reference entry" % req.key
            if digest(out) != want:
                return "%s: response differs from the reference" % req.key
            if req.grammar and req.fmt == "text":
                return self._roundtrip(req, out)
            return None
        if req.kind == "fixture":
            ascii_out = out if req.fmt == "text" else json.loads(out)["ascii"] + "\n"
            if ascii_out != self.expected_fixture:
                return "remark_square fixture (%s) not byte-exact" % req.fmt
        return self._idempotent(req, out)

    def _roundtrip(self, req: Request, out: str) -> str | None:
        """parse then format must give a grammar response back, byte for byte.

        The zero cycle prints as a bare "0", which the parser refuses by
        design (it carries no arity), so it is checked by the reference only.
        """
        from quadchow.quadpow import format_cycle, parse_cycle, quad_context

        text = out.rstrip("\n")
        if text == "0" or text in self._roundtrip_ok:
            return None
        body = text[: -len(" (mod 2)")] if text.endswith(" (mod 2)") else text
        cycle = parse_cycle(quad_context(req.n), body)
        if body is not text:
            cycle = cycle.mod2()
        if format_cycle(cycle) != text:
            return "%s: output does not round-trip through parse/format" % req.key
        self._roundtrip_ok.add(text)
        return None

    def _idempotent(self, req: Request, out: str) -> str | None:
        """The response's square must be a fixed point of propagation, and
        its rendering a (d+1) x (d+1) grid of marks that agrees with it."""
        from quadchow.edi import EDISquare, propagate

        n = json.loads(req.expr)["n"]
        if req.fmt == "json":
            data = json.loads(out)
            grid = data["ascii"]
            marks = {tuple(m) for m in data["propagated_marks"]}
            rho = set(data["propagated_rho"])
        else:
            grid = out.split("\n", n // 2 + 1)[: n // 2 + 1]
            grid = "\n".join(grid)
            marks = rho = None
        drawn = _grid_marks(grid, n // 2)
        if drawn is None or (marks is not None and drawn != marks):
            return "edi %s: rendering is not the grid of the marks" % req.expr
        if marks is None:
            marks, rho = drawn, {i for i, c in drawn if c == 0}
        square = EDISquare(n, frozenset(marks), frozenset(rho))
        again = propagate(square)
        if again.marks != square.marks or again.rho != square.rho:
            return "edi %s: propagation of the response is not a fixed point" % req.expr
        return None


def _grid_marks(grid: str, d: int) -> set | None:
    """The marked nodes of a rendered square (top row = row d), or None when
    the text is not a (d+1) x (d+1) grid of the two node symbols."""
    rows = [row.split(" ") for row in grid.split("\n")]
    if len(rows) != d + 1 or any(len(r) != d + 1 or set(r) - {"×", "○"} for r in rows):
        return None
    return {(d - r, c) for r, row in enumerate(rows) for c, cell in enumerate(row) if cell == "×"}
