"""Acceptance gate: every identity suite at its full stated range.

All checks are exact (integer or mod-2 arithmetic); there are no numeric
tolerances anywhere.  Each criterion prints one PASS/FAIL line so the run
reads as a checklist; the assertions make pytest the arbiter.
"""

import json
import pathlib
import random

from quadchow.edi import (
    EDISquare,
    propagate,
    render_ascii,
    run_edi_json,
    square_from_json,
)
from quadchow.suites import run_suite, suite_names

DATA = pathlib.Path(__file__).parent / "data"
# the suites that build no flag-variety model, so they run at any n >= 2
QUADPOW_ONLY = {"lemma21", "lemma42"}


def _run(suite: str, ns, orientation: int = 1):
    failures = []
    total = 0
    for n in ns:
        for case in run_suite(suite, n, orientation):
            total += 1
            if not case.ok:
                failures.append((n, case))
    return total, failures


def _report(name: str, total: int, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print("%s %s: %d cases, %d failures (exact arithmetic)" % (status, name, total, len(failures)))
    for n, case in failures[:5]:
        print("    n=%d %s %s" % (n, case.id, case.params))
    assert not failures


def test_criterion_01_split_diagonal_chain():
    total, failures = _run("lemma21", range(2, 9))
    _report("criterion-01 split-diagonal chain (n=2..8)", total, failures)


def test_criterion_02_pullback_ladders():
    total, failures = _run("lemma24", range(3, 8))
    _report("criterion-02 Z/W pullback ladders + convention gate (n=3..7)", total, failures)


def test_criterion_03_summation_identity():
    total, failures = _run("lemma25", range(3, 8))
    _report("criterion-03 pushforward summation identity (n=3..7)", total, failures)


def test_criterion_04_chern_pushdown():
    total, failures = _run("lemma26", range(3, 8))
    _report("criterion-04 tautological Chern classes mod 2 (n=3..7)", total, failures)


def test_criterion_05_degree_formula():
    total, failures = _run("degrees-gd", range(3, 8))
    _report("criterion-05 top-grassmannian degree formula (n=3..7)", total, failures)


def test_criterion_06_action_formula():
    total, failures = _run("lemma32", range(3, 8))
    t2, f2 = _run("prop31", range(3, 8))
    _report(
        "criterion-06 route equivalence + three-case action formula (n=3..7)",
        total + t2,
        failures + f2,
    )


def test_criterion_07_nonessential_difference():
    total, failures = _run("cor315", range(3, 8))
    _report("criterion-07 alpha vs split diagonal nonessential (n=3..7)", total, failures)


def test_criterion_08_degree_congruence():
    total, failures = _run("prop316", (5, 6, 7))
    _report("criterion-08 degree-congruence criterion (n=5..7)", total, failures)


def test_criterion_09_primordial_composites():
    total, failures = _run("lemma42", range(3, 8))
    _report("criterion-09 primordial-shape composites (n=3..7)", total, failures)


def test_criterion_10_two_variable_correspondence():
    total, failures = _run("prop51", range(3, 8))
    _report("criterion-10 two-variable correspondence chain (n=3..7)", total, failures)


def test_criterion_11_cross_model():
    total, failures = _run("cross-model", range(3, 9))
    t2, f2 = _run("cross-model", (4, 6), orientation=-1)
    _report(
        "criterion-11 combinatorial vs Schubert quadric ring (n=3..8, both orientations)",
        total + t2,
        failures + f2,
    )


def test_criterion_12_edi():
    rng = random.Random(2024)
    failures = []
    total = 0
    for _ in range(1000):
        d = rng.randrange(1, 7)
        n = 2 * d + rng.randrange(2)
        marks = frozenset(
            (rng.randrange(d + 1), rng.randrange(d + 1))
            for _ in range(rng.randrange(0, 2 * d + 2))
        )
        sq = EDISquare(n, marks)
        total += 1
        once = propagate(sq)
        extra = (rng.randrange(d + 1), rng.randrange(d + 1))
        bigger = propagate(EDISquare(n, marks | {extra}))
        extensive = sq.marks <= once.marks
        idempotent = propagate(once) == once
        monotone = once.marks <= bigger.marks
        if not (extensive and idempotent and monotone):
            failures.append((n, ("propagation", sorted(marks))))
    fixture = json.loads((DATA / "remark_square.json").read_text())
    expected = (DATA / "remark_square.txt").read_text()
    total += 1
    out = run_edi_json(fixture)
    if out["ascii"] + "\n" != expected:
        failures.append((fixture["n"], ("fixture", "byte mismatch")))
    closed = propagate(square_from_json(fixture))
    total += 1
    if render_ascii(closed) + "\n" != expected:
        failures.append((fixture["n"], ("fixture", "propagation changed the shape")))
    status = "PASS" if not failures else "FAIL"
    print(
        "%s criterion-12 invariant-square propagation + fixture: %d cases, %d failures"
        % (status, total, len(failures))
    )
    assert not failures


def test_flag_variety_suites_at_n8():
    total, failures = 0, []
    for suite in sorted(set(suite_names()) - QUADPOW_ONLY):
        t, f = _run(suite, [8])
        total += t
        failures += f
    _report("every flag-variety suite at n=8 (orientation 1)", total, failures)
