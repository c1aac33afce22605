"""The full JSON verification report is byte-identical to its recorded hash.

``tests/data/verify_golden.json`` maps n to the sha256 of the standard output
of ``python -m quadchow.cli verify all --n N --seed 0 --format json``.
Every case's parameters, status and printed sides
enter the hash, so a refactor that changes any printed class, case order or
case count fails here.  ``tests/data/verify_golden_minus.json`` does the same
for the opposite ruling, ``--orientation minus``, at n = 4, 6 and 8.  After an
intended change to what the report prints, rewrite the files from the
commands above.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quadchow.schubert import MAX_N, MIN_N

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "data" / "verify_golden.json").read_text())
GOLDEN_MINUS = json.loads(
    (ROOT / "tests" / "data" / "verify_golden_minus.json").read_text()
)


def _report_sha256(n: int, orientation: str = "plus") -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    argv = ["verify", "all", "--n", str(n), "--seed", "0", "--format", "json"]
    argv += ["--orientation", orientation]
    done = subprocess.run(
        [sys.executable, "-m", "quadchow.cli", *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr.decode()
    return hashlib.sha256(done.stdout).hexdigest()


def test_golden_file_covers_every_supported_n():
    assert sorted(map(int, GOLDEN)) == list(range(MIN_N, MAX_N + 1))


@pytest.mark.parametrize("n", range(MIN_N, MAX_N + 1))
def test_verify_report_is_unchanged(n):
    assert _report_sha256(n) == GOLDEN[str(n)]


@pytest.mark.parametrize("n", [4, 6, 8])
def test_minus_orientation_report_is_unchanged(n):
    assert _report_sha256(n, "minus") == GOLDEN_MINUS[str(n)]
