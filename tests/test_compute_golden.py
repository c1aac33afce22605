"""Compute built-ins print byte-identical output to their recorded hashes.

``tests/data/compute_golden.json`` maps each ``quadchow compute`` command line
to the sha256 of its standard output: ``theta i`` and ``alpha i`` (every
valid i at n = 3..7, both coefficient rings, both formats, both orientations
at even n), and ``z i j`` and ``w i j`` on G_(d-1) and G_d at n = 4, 6, 8
(integer ring, both formats, both orientations), whose output prints
Schubert windows on split and connected spaces.  The commands run in one
process, so later ones read the classes memoised by earlier ones.  After an
intended change to what these commands print, rewrite the file with
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
    correspondences = sum(
        (2 if n % 2 == 0 else 1) * (n // 2) * 2 * 2 * 2 for n in range(3, 8)
    )
    # per n: Z and W on G_(d-1) and G_d, with d + 1 Z-indices on each and
    # n - i + 1 W-indices on G_i, times two orientations and two formats
    flag_classes = sum(
        2 * 2 * ((n // 2 + 1) * 2 + (n - n // 2 + 2) + (n - n // 2 + 1)) for n in (4, 6, 8)
    )
    assert len(GOLDEN) == correspondences + flag_classes == 128 + 204


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_compute_output_is_unchanged(command, capsys):
    words = command.split()
    # the nine option words, then the expression
    assert cli.main(words[:9] + [" ".join(words[9:])]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
