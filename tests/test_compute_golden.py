"""The correspondence built-ins print byte-identical output to their recorded hashes.

``tests/data/compute_golden.json`` maps each ``quadchow compute`` command line
for ``theta i`` and ``alpha i`` (every valid i at n = 3..7, both
coefficient rings, both formats, both orientations at even n) to the sha256
of its standard output.  The commands run in one process, so later ones read
the incidence powers memoised by earlier ones.  After an intended change to
what these commands print, rewrite the file with
``PYTHONPATH=src python tests/data/make_compute_golden.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from quadchow import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "data" / "compute_golden.json").read_text())


def test_golden_file_covers_every_index():
    want = sum(
        (2 if n % 2 == 0 else 1) * (n // 2) * 2 * 2 * 2 for n in range(3, 8)
    )
    assert len(GOLDEN) == want == 128


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_compute_output_is_unchanged(command, capsys):
    *options, name, index = command.split()
    assert cli.main(options + ["%s %s" % (name, index)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
